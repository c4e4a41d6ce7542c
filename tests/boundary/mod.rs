//! The text searches behind the library boundary's rules, shared by
//! `static_guarantees.rs`, which runs them on the library crates, and
//! `fixtures.rs`, which shows that they flag what they ban.

/// `Kernel::thread_label` / `thread_clearance` answer for any thread,
/// unchecked, uncharged and off the audit stream: the console's reads. The
/// library has `trap_self_get_label` / `_clearance` for the one thread it
/// may ask about. A `fn thread_label` definition is no read.
const CONSOLE_READS: [&str; 4] = [
    ".thread_label(",
    "::thread_label",
    ".thread_clearance(",
    "::thread_clearance",
];

/// A file's non-test code: the lines before its first `#[cfg(test)]`
/// line, less `//` comment lines.
pub fn non_test(text: &str) -> String {
    text.lines()
        .take_while(|line| !line.trim_start().starts_with("#[cfg(test)]"))
        .filter(|line| !line.trim_start().starts_with("//"))
        .flat_map(|line| [line, "\n"])
        .collect()
}

/// Whether `code` holds `needle` where no identifier character follows.
pub fn names(code: &str, needle: &str) -> bool {
    code.match_indices(needle).any(|(at, _)| {
        !code[at + needle.len()..].starts_with(|c: char| c == '_' || c.is_alphanumeric())
    })
}

/// The `Syscall` variant of the row called `name`: its CamelCase.
pub fn variant(name: &str) -> String {
    name.split('_')
        .map(|w| w[..1].to_uppercase() + &w[1..])
        .collect()
}

/// The rows among `rows` that no file of `code` calls, as
/// `.trap_<name>(` or as `Syscall::<Variant>` in a batch.
pub fn uncalled<'a>(rows: &[&'a str], code: &[String]) -> Vec<&'a str> {
    let called = |name: &&str| {
        let (trap, batched) = (
            format!(".trap_{name}("),
            format!("Syscall::{}", variant(name)),
        );
        code.iter().any(|c| c.contains(&trap) || names(c, &batched))
    };
    rows.iter().copied().filter(|name| !called(name)).collect()
}

/// The console reads `code` makes.
pub fn console_reads(code: &str) -> Vec<&'static str> {
    CONSOLE_READS
        .into_iter()
        .filter(|read| code.contains(read))
        .collect()
}

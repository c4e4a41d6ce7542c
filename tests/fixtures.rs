//! The boundary searches on small texts: each bad text is the one finding
//! its test names, and each good twin passes. They keep the live-tree
//! searches in `static_guarantees.rs` from passing vacuously.

mod boundary;

use boundary::{console_reads, names, non_test, uncalled, variant};
use histar::kernel::dispatch::SYSCALL_NAMES;
use std::path::Path;

const GATE: &str =
    "kernel.trap_gate_create(thread, container, label, clearance, None, 0, vec![], \"service\")";

/// The `(Variant, name)` of each row of the `syscalls!` table in `text`:
/// the lines between `syscalls! {` and its closing `}` that open with a
/// capital at the rows' indent.
fn table_rows(text: &str) -> Vec<(String, String)> {
    text.lines()
        .skip_while(|line| *line != "syscalls! {")
        .skip(1)
        .take_while(|line| *line != "}")
        .filter_map(|line| line.strip_prefix("    "))
        .filter(|line| line.starts_with(|c: char| c.is_ascii_uppercase()))
        .filter_map(|line| {
            let mut words = line.split_whitespace();
            Some((words.next()?.to_string(), words.next()?.to_string()))
        })
        .collect()
}

/// What is wrong with the table in `text` for the caller search, which
/// finds a batched call by the CamelCase of its row's name.
fn table_findings(text: &str) -> Vec<String> {
    let rows = table_rows(text);
    if rows.is_empty() {
        return vec!["no `syscalls!` table found".into()];
    }
    rows.iter()
        .filter(|(found, name)| *found != variant(name))
        .map(|(found, name)| format!("row `{name}` is `{found}`, not `{}`", variant(name)))
        .collect()
}

#[test]
fn table_findings_name_the_row_or_the_missing_table() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/kernel/src/dispatch.rs");
    let dispatch = std::fs::read_to_string(path).unwrap();
    assert_eq!(table_findings(&dispatch), Vec::<String>::new());
    let rows: Vec<String> = table_rows(&dispatch)
        .into_iter()
        .map(|(_, name)| name)
        .collect();
    assert_eq!(rows, SYSCALL_NAMES);

    let renamed = "syscalls! {\n    /// `sys_read`.\n    Peek read sys_read trap_read (\n        \
                   entry: ContainerEntry,\n    ) -> Unit(());\n}\n";
    assert_eq!(
        table_findings(renamed),
        ["row `read` is `Peek`, not `Read`"]
    );
    assert_eq!(
        table_findings("pub fn sys_x() {}"),
        ["no `syscalls!` table found"]
    );
}

#[test]
fn a_console_read_is_the_finding_and_a_test_may_make_one() {
    let method = format!("let label = kernel.thread_label(thread)?;\n{GATE}\n");
    assert_eq!(console_reads(&non_test(&method)), [".thread_label("]);
    let trapped = format!(
        "let label = kernel.trap_self_get_label(thread)?;\n{GATE}\n#[cfg(test)]\nmod tests {{\n    \
         fn t() {{ kernel.thread_label(thread).unwrap(); }}\n}}\n"
    );
    assert!(console_reads(&non_test(&trapped)).is_empty());
}

#[test]
fn a_console_read_spelled_as_a_path_is_the_finding_in_its_fixture() {
    let path = format!("let label = Kernel::thread_label(kernel, thread)?;\n{GATE}\n");
    assert_eq!(console_reads(&non_test(&path)), ["::thread_label"]);
    // Taken as a function pointer it is the same read; a definition of a
    // `thread_clearance` fn is none.
    let pointer = "fn f() { let read = Kernel::thread_clearance; }";
    assert_eq!(console_reads(pointer), ["::thread_clearance"]);
    assert!(console_reads("impl K { fn thread_clearance(&self) {} }").is_empty());
}

#[test]
fn a_row_only_a_test_calls_is_the_finding_in_its_fixture() {
    let rows = ["read", "peek"];
    let tested = "fn cat() { kernel.trap_read(thread, file) }\n#[cfg(test)]\nmod tests {\n    \
                  fn t() { kernel.trap_peek(thread, file).unwrap(); }\n}\n";
    assert_eq!(uncalled(&rows, &[non_test(tested)]), ["peek"]);
    // Either spelling is a caller: the good twin traps one row and
    // batches the other, and a longer variant is not the row's.
    let batched = "fn cat() { kernel.trap_read(thread, file) }\n\
                   fn poll() { files.map(|&entry| Syscall::Peek { entry }) }\n";
    assert!(uncalled(&rows, &[non_test(batched)]).is_empty());
    let longer = "fn poll() { files.map(|&entry| Syscall::PeekAll { entry }) }\n";
    assert_eq!(uncalled(&["peek"], &[longer.to_string()]), ["peek"]);
}

#[test]
fn a_hand_decoder_is_the_finding_and_a_test_may_hold_one() {
    let sliced = "fn len(h: &[u8]) -> u64 { u64::from_le_bytes(h[..8].try_into().unwrap()) }\n";
    assert!(names(&non_test(sliced), "from_le_bytes"));
    let codec = "fn len(h: &[u8]) -> Result<u64, DecodeError> { Decoder::new(h).get_u64() }\n\
                 #[cfg(test)]\nmod tests {\n    fn t(b: [u8; 8]) -> u64 { u64::from_le_bytes(b) }\n}\n";
    assert!(!names(&non_test(codec), "from_le_bytes"));
}

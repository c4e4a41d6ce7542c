//! What the source tree must say where no type says it yet: the library
//! crates read a thread's label only by trap, call every row of the
//! syscall table, create gates in one module and decode foreign bytes
//! through the store's codec, the kernel and the store read their own
//! disk through it too, and the determinism bans stand.
//!
//! The searches read each library file's non-test code: the lines before
//! its first `#[cfg(test)]` line, less `//` comment lines, the cut
//! `codesize` makes. A test module may read any thread's label off the
//! kernel, since tests observe the system rather than run in it.
//! `the_cut_leaves_no_code_behind_a_test_module` keeps the cut exact, and
//! `fixtures.rs` keeps the searches from passing vacuously.

mod boundary;

use boundary::{console_reads, names, non_test, uncalled};
use histar::kernel::dispatch::SYSCALL_NAMES;
use std::path::{Path, PathBuf};

/// The untrusted library: the crates that see the kernel through traps.
const LIBRARY_CRATES: [&str; 6] = ["unix", "net", "auth", "exporter", "httpd", "apps"];

/// `.rs` files under `dir`, recursively, sorted.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            out.extend(rust_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out.sort();
    out
}

/// Every file under `dir/src` for each of `dirs` (relative to the repo
/// root), as its repo-relative path and its text.
fn sources(dirs: impl IntoIterator<Item = PathBuf>) -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    dirs.into_iter()
        .flat_map(|dir| rust_files(&root.join(dir).join("src")))
        .map(|path| {
            let text = std::fs::read_to_string(&path).unwrap();
            (path.strip_prefix(root).unwrap().display().to_string(), text)
        })
        .collect()
}

fn library_dirs() -> impl Iterator<Item = PathBuf> {
    LIBRARY_CRATES
        .iter()
        .map(|krate| Path::new("crates").join(krate))
}

/// Whether the cut at `#[cfg(test)]` is exactly the file's tests: at most
/// one such line, opening a module that is the file's last item.
fn cut_is_exact(text: &str) -> bool {
    let lines: Vec<&str> = text.lines().collect();
    let cuts: Vec<usize> = (0..lines.len())
        .filter(|&i| lines[i].trim_start().starts_with("#[cfg(test)]"))
        .collect();
    match cuts[..] {
        [] => true,
        [at] => {
            let opens_a_module = lines.get(at + 1).is_some_and(|l| l.starts_with("mod "));
            let items = lines[at + 2..]
                .iter()
                .filter(|l| l.starts_with(|c: char| !c.is_whitespace()));
            lines[at] == "#[cfg(test)]" && opens_a_module && items.eq([&"}"])
        }
        _ => false,
    }
}

#[test]
fn the_cut_leaves_no_code_behind_a_test_module() {
    for (path, text) in sources(library_dirs()) {
        assert!(
            cut_is_exact(&text),
            "{path}: code the cut at #[cfg(test)] would hide"
        );
    }
    let trailing = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn b() {}\n";
    assert!(!cut_is_exact(trailing));
    let second = "#[cfg(test)]\nfn helper() {}\n#[cfg(test)]\nmod tests {\n}\n";
    assert!(!cut_is_exact(second));
}

/// Rule 2: library code learns a thread's label and clearance by trap.
/// A library that needs another thread's label needs a syscall that
/// checks the read; there is no exemption.
#[test]
fn library_code_reads_labels_by_trap() {
    for (path, text) in sources(library_dirs()) {
        let reads = console_reads(&non_test(&text));
        assert!(reads.is_empty(), "{path}: {reads:?}");
    }
}

/// Rule 3: every row of the `syscalls!` table has a caller in the
/// library's non-test code. A row only tests call is kernel surface that
/// nothing exercises the way a user would: call it as the paper does, or
/// delete the row.
#[test]
fn every_syscall_row_has_a_library_caller() {
    let code: Vec<String> = sources(library_dirs())
        .iter()
        .map(|(_, text)| non_test(text))
        .collect();
    let rows = uncalled(&SYSCALL_NAMES, &code);
    assert!(rows.is_empty(), "rows with no library caller: {rows:?}");
}

/// Every gate the library creates comes from `gatecall`, the one module
/// that decides what a gate's label and clearance carry: a gate spelled
/// from a whole label anywhere else hands every `⋆` in it to whoever
/// enters.
#[test]
fn gates_are_created_in_one_place() {
    let creators: Vec<String> = sources(library_dirs().chain([PathBuf::new()]))
        .into_iter()
        .filter(|(_, text)| {
            let code = non_test(text);
            names(&code, "trap_gate_create") || names(&code, "Syscall::GateCreate")
        })
        .map(|(path, _)| path)
        .collect();
    assert_eq!(creators, ["crates/unix/src/gatecall.rs"]);
}

/// Bytes another principal wrote become values through
/// `store::codec::Wire`, whose `Decoder` cannot read past its input: no
/// library decoder assembles an integer from a slice by hand. The one
/// `from_le_bytes` left is the exporter's MAC, which hashes its own
/// zero-padded words.
#[test]
fn library_code_decodes_through_the_codec() {
    let hand_decoders: Vec<String> = sources(library_dirs())
        .into_iter()
        .filter(|(_, text)| names(&non_test(text), "from_le_bytes"))
        .map(|(path, _)| path)
        .collect();
    assert_eq!(hand_decoders, ["crates/exporter/src/wire.rs"]);
    let wire = sources([PathBuf::from("crates/exporter")])
        .into_iter()
        .find(|(path, _)| path.ends_with("wire.rs"))
        .unwrap();
    assert_eq!(non_test(&wire.1).matches("from_le_bytes").count(), 1);
}

/// The trusted base reads its own disk the same way: the kernel's object
/// records, machine metadata and persist-record frames, and the store's
/// superblock, checkpoint map, home-record headers and log records, are
/// `Wire` types, so no decoder in either crate assembles an integer from
/// a slice by hand.  The one file left holding `from_le_bytes` is the
/// store's codec: the `Decoder` itself, and XXH64 hashing its input.
#[test]
fn the_kernel_and_the_store_read_their_disk_through_the_codec() {
    let crates = ["kernel", "store"].map(|krate| Path::new("crates").join(krate));
    let hand_decoders: Vec<String> = sources(crates)
        .into_iter()
        .filter(|(_, text)| names(&non_test(text), "from_le_bytes"))
        .map(|(path, _)| path)
        .collect();
    assert_eq!(hand_decoders, ["crates/store/src/codec.rs"]);
}

/// Determinism is the compiler's job: clippy bans std's seeded hash
/// collections and the wall clock, every package but `histar-sim` holds
/// the ban at `forbid`, and the one `#[allow]` is on `SimHashMap`.
#[test]
fn the_determinism_bans_stand() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |rel: &str| std::fs::read_to_string(root.join(rel)).unwrap();
    let clippy = read("clippy.toml");
    for banned in [
        "std::collections::HashMap",
        "std::collections::HashSet",
        "std::hash::RandomState",
        "std::time::Instant",
        "std::time::SystemTime",
    ] {
        assert!(clippy.contains(&format!("path = \"{banned}\"")), "{banned}");
    }
    assert!(read("Cargo.toml").contains("disallowed_types = \"forbid\""));

    let inherits = |manifest: &str| manifest.contains("[lints]\nworkspace = true");
    assert!(inherits(&read("Cargo.toml")), "the facade");
    for dir in std::fs::read_dir(root.join("crates")).unwrap() {
        let manifest = std::fs::read_to_string(dir.unwrap().path().join("Cargo.toml")).unwrap();
        let is_sim = manifest.contains("name = \"histar-sim\"");
        assert_eq!(inherits(&manifest), !is_sim, "{manifest}");
    }

    let needle = concat!("allow(clippy::", "disallowed_types)");
    let allowed: Vec<String> = ["crates", "src", "tests", "examples"]
        .iter()
        .flat_map(|dir| rust_files(&root.join(dir)))
        .filter(|path| std::fs::read_to_string(path).unwrap().contains(needle))
        .map(|path| path.strip_prefix(root).unwrap().display().to_string())
        .collect();
    assert_eq!(allowed, ["crates/sim/src/hash.rs"]);
    assert_eq!(read("crates/sim/src/hash.rs").matches(needle).count(), 1);
}

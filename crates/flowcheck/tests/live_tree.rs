//! The live tree must pass every rule, and the committed
//! exemption list must match what the analyzer prints, byte for byte.
//! A drifted list means someone added (or removed) TCB surface without
//! re-committing the audit artifact.

use std::path::Path;

fn workspace_root() -> std::path::PathBuf {
    flowcheck::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above crates/flowcheck")
}

#[test]
fn live_tree_passes_both_rules() {
    let a = flowcheck::analyze_repo(&workspace_root()).unwrap();
    assert!(
        a.ok(),
        "live tree has flowcheck violations:\n{}",
        flowcheck::report::render_findings(&a.findings)
    );
    assert!(
        !a.exemptions.is_empty(),
        "the kernel has known self-only syscalls; an empty exemption list \
         means markers stopped being honored"
    );
}

#[test]
fn committed_exemption_list_is_exact() {
    let root = workspace_root();
    let a = flowcheck::analyze_repo(&root).unwrap();
    let rendered = flowcheck::report::render_exemptions(&a.exemptions);
    let committed = std::fs::read_to_string(root.join("flowcheck_exemptions.txt"))
        .expect("flowcheck_exemptions.txt must be committed at the repo root");
    assert_eq!(
        rendered, committed,
        "exemption list drifted; regenerate with \
         `cargo run -p flowcheck -- --exemptions-out flowcheck_exemptions.txt`"
    );
}

/// Determinism is the compiler's job: clippy bans std's seeded hash
/// collections and the wall clock, every package but `histar-sim` holds
/// the ban at `forbid`, and the one `#[allow]` is on `SimHashMap`.
#[test]
fn the_determinism_bans_stand() {
    let root = workspace_root();
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
        .flat_map(|dir| flowcheck::rust_files(&root.join(dir)))
        .filter(|path| std::fs::read_to_string(path).unwrap().contains(needle))
        .map(|path| path.strip_prefix(&root).unwrap().display().to_string())
        .collect();
    assert_eq!(allowed, ["crates/sim/src/hash.rs"]);
    assert_eq!(read("crates/sim/src/hash.rs").matches(needle).count(), 1);
}

/// Every gate the library creates comes from `gatecall`, the one module
/// that decides what a gate's label and clearance carry: a gate spelled
/// from a whole label anywhere else hands every `⋆` in it to whoever
/// enters.
#[test]
fn gates_are_created_in_one_place() {
    use flowcheck::model::{matches_seq, SourceFile};
    let root = workspace_root();
    let trap = concat!("trap_", "gate_create");
    let row = ["Syscall", ":", ":", concat!("Gate", "Create")];
    let dirs = flowcheck::LIBRARY_CRATES
        .iter()
        .map(|krate| root.join("crates").join(krate).join("src"))
        .chain([root.join("src")]);
    let creators: Vec<String> = dirs
        .flat_map(|dir| flowcheck::rust_files(&dir))
        .map(|path| {
            let rel = path.strip_prefix(&root).unwrap().display().to_string();
            SourceFile::parse(&rel, &std::fs::read_to_string(&path).unwrap())
        })
        .filter(|f| {
            (0..f.tokens.len()).any(|i| {
                !f.in_test_range(i) && (f.tokens[i].text == trap || matches_seq(&f.tokens, i, &row))
            })
        })
        .map(|f| f.path)
        .collect();
    assert_eq!(creators, ["crates/unix/src/gatecall.rs"]);
}

#[test]
fn exemption_list_is_stable_across_runs() {
    let root = workspace_root();
    let a1 = flowcheck::analyze_repo(&root).unwrap();
    let a2 = flowcheck::analyze_repo(&root).unwrap();
    assert_eq!(
        flowcheck::report::render_exemptions(&a1.exemptions),
        flowcheck::report::render_exemptions(&a2.exemptions),
    );
}

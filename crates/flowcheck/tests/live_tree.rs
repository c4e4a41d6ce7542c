//! The live kernel tree must pass both rules, and the committed
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

/// The one determinism exemption is named by the fn it sits in, so an
/// edit anywhere above it in `kernel.rs` leaves the committed list alone.
#[test]
fn the_determinism_exemption_is_named_by_its_fn() {
    let a = flowcheck::analyze_repo(&workspace_root()).unwrap();
    let names: Vec<&str> = a
        .exemptions
        .iter()
        .filter(|e| e.rule == "determinism")
        .map(|e| e.name.as_str())
        .collect();
    assert_eq!(names, ["crates/kernel/src/kernel.rs::objects"]);
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

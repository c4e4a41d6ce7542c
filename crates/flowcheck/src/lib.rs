//! flowcheck: static analysis for the invariants everything else in this
//! repo leans on.
//!
//! 1. **Mediation** — every syscall dispatch arm that reaches object
//!    state is dominated by a label check (HiStar's "all information flow
//!    is explicit" claim, OSDI '06 §3), and every deliberate exception is
//!    an enumerated, reviewable exemption.
//! 2. **Determinism** — no trace-affecting crate iterates a hash
//!    collection in unordered fashion or consults wall-clock time / OS
//!    RNG (the replay-identical-trace and snapshot-byte-stability test
//!    strategies assume this).
//! 3. **Boundary** — no untrusted library crate reads a thread's label
//!    or clearance off the kernel; it traps (`self_get_label`) like any
//!    other thread.
//! 4. **Boundary, the other way** — every row of the syscall table is
//!    called by that library outside its tests; a row only tests call is
//!    kernel surface nobody needs.
//!
//! See `ARCHITECTURE.md` § "Static analysis" for the rule definitions and
//! the exemption-marker grammar.

pub mod boundary;
pub mod determinism;
pub mod lex;
pub mod mediation;
pub mod model;
pub mod report;

use model::SourceFile;
use report::{Exemption, Finding};
use std::path::{Path, PathBuf};

/// Crates whose code affects audit traces, snapshots, or the WAL.
pub const TRACE_AFFECTING_CRATES: &[&str] = &["kernel", "net", "exporter", "unix", "store"];

/// The untrusted library: crates that see the kernel through traps only.
pub const LIBRARY_CRATES: &[&str] = &["unix", "net", "auth", "exporter", "httpd", "apps"];

/// Result of one analysis run.
#[derive(Debug, Default)]
pub struct Analysis {
    pub findings: Vec<Finding>,
    pub exemptions: Vec<Exemption>,
}

impl Analysis {
    pub fn ok(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Runs both rule families over pre-parsed sources. Mediation needs the
/// kernel sources (dispatch + syscall bodies); determinism runs per file.
pub fn analyze(mediation_files: &[SourceFile], determinism_files: &[SourceFile]) -> Analysis {
    let mut a = Analysis::default();
    if !mediation_files.is_empty() {
        mediation::run(mediation_files, &mut a.findings, &mut a.exemptions);
    }
    determinism::run(determinism_files, &mut a.findings, &mut a.exemptions);
    a
}

/// Walks up from `start` to the workspace root (the directory whose
/// `Cargo.toml` contains `[workspace]`).
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Collects `.rs` files (sorted, recursive) under a directory.
pub fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|x| x == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

/// Analyzes the repository rooted at `root`: mediation over the kernel
/// crate, determinism over every trace-affecting crate's `src/` tree
/// (tests and benches are observers, not trace-affecting), the boundary
/// rules over every library crate's (rule 4 with the kernel's table).
pub fn analyze_repo(root: &Path) -> std::io::Result<Analysis> {
    let mut mediation_files = Vec::new();
    let mut determinism_files = Vec::new();
    let mut library_files = Vec::new();

    let crates: std::collections::BTreeSet<&str> = TRACE_AFFECTING_CRATES
        .iter()
        .chain(LIBRARY_CRATES)
        .copied()
        .collect();
    for krate in crates {
        let src = root.join("crates").join(krate).join("src");
        for path in rust_files(&src) {
            let text = std::fs::read_to_string(&path)?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let parsed = SourceFile::parse(&rel, &text);
            if krate == "kernel" {
                mediation_files.push(parsed.clone());
            }
            if LIBRARY_CRATES.contains(&krate) {
                library_files.push(parsed.clone());
            }
            if TRACE_AFFECTING_CRATES.contains(&krate) {
                determinism_files.push(parsed);
            }
        }
    }
    let mut a = analyze(&mediation_files, &determinism_files);
    boundary::run(&library_files, &mut a.findings);
    boundary::unused_rows(&mediation_files, &library_files, &mut a.findings);
    Ok(a)
}

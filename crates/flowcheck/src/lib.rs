//! flowcheck: static analysis for the invariants everything else in this
//! repo leans on.
//!
//! 1. **Mediation** — every syscall dispatch arm that reaches object
//!    state is dominated by a label check (HiStar's "all information flow
//!    is explicit" claim, OSDI '06 §3), and every deliberate exception is
//!    an enumerated, reviewable exemption.
//! 2. **Boundary** — no untrusted library crate reads a thread's label
//!    or clearance off the kernel; it traps (`self_get_label`) like any
//!    other thread.
//! 3. **Boundary, the other way** — every row of the syscall table is
//!    called by that library outside its tests; a row only tests call is
//!    kernel surface nobody needs.
//!
//! Determinism is no rule here: the compiler enforces it.  The root
//! `clippy.toml` bans std's hash maps, sets and seeds, wall-clock time and
//! thread-safe sharing, at `forbid` in every package but `histar-sim`.
//!
//! See `ARCHITECTURE.md` § "Static analysis" for the rule definitions and
//! the exemption-marker grammar.

pub mod boundary;
pub mod lex;
pub mod mediation;
pub mod model;
pub mod report;

use model::SourceFile;
use report::{Exemption, Finding};
use std::path::{Path, PathBuf};

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

/// Runs the mediation rule over the kernel sources (dispatch + syscall
/// bodies).
pub fn analyze(mediation_files: &[SourceFile]) -> Analysis {
    let mut a = Analysis::default();
    mediation::run(mediation_files, &mut a.findings, &mut a.exemptions);
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
/// crate's `src/` tree, the boundary rules over every library crate's
/// (rule 3 with the kernel's table).
pub fn analyze_repo(root: &Path) -> std::io::Result<Analysis> {
    let mut mediation_files = Vec::new();
    let mut library_files = Vec::new();

    for &krate in std::iter::once(&"kernel").chain(LIBRARY_CRATES) {
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
                mediation_files.push(parsed);
            } else {
                library_files.push(parsed);
            }
        }
    }
    let mut a = analyze(&mediation_files);
    boundary::run(&library_files, &mut a.findings);
    boundary::unused_rows(&mediation_files, &library_files, &mut a.findings);
    Ok(a)
}

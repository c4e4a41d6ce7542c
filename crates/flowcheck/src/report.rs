//! Findings (violations) and the printed exemption list.
//!
//! The exemption list is the auditable TCB surface: every syscall that
//! bypasses the mediation rule, with the reviewer-facing reason
//! from its `// flowcheck: exempt(…)` marker. Output is sorted so the
//! committed list is byte-stable across runs.

use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    pub message: String,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exemption {
    pub rule: &'static str,
    /// The exempted syscall's name.
    pub name: String,
    pub file: String,
    pub reason: String,
}

/// Renders findings as `file:line: [rule] message`, sorted.
pub fn render_findings(findings: &[Finding]) -> String {
    let mut rows: Vec<String> = findings
        .iter()
        .map(|f| format!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message))
        .collect();
    rows.sort();
    rows.dedup();
    let mut out = String::new();
    for r in rows {
        let _ = writeln!(out, "{r}");
    }
    out
}

/// Renders the exemption list, sorted and byte-stable.
pub fn render_exemptions(exemptions: &[Exemption]) -> String {
    let mut rows: Vec<String> = exemptions
        .iter()
        .map(|e| format!("{} {} — {}", e.rule, e.name, e.reason))
        .collect();
    rows.sort();
    rows.dedup();
    let mut out = String::new();
    let _ = writeln!(out, "# flowcheck exemption list (auditable TCB surface)");
    let _ = writeln!(
        out,
        "# One line per `// flowcheck: exempt(...)` marker the analyzer honored."
    );
    let _ = writeln!(
        out,
        "# Regenerate with: cargo run -p flowcheck -- --exemptions-out flowcheck_exemptions.txt"
    );
    for r in rows {
        let _ = writeln!(out, "{r}");
    }
    out
}

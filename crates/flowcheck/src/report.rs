//! Findings (violations), printed sorted so a run's report is byte-stable.

use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    pub message: String,
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

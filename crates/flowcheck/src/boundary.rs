//! Rule 3 — the boundary's read side: library code learns a thread's
//! label and clearance by trap.
//!
//! `Kernel::thread_label` / `thread_clearance` answer for *any* thread id,
//! unchecked, uncharged and off the audit stream. They are the console —
//! tests and harnesses — and the untrusted library crates have
//! `self_get_label` / `self_get_clearance` for the one thread they may ask
//! about. Detection is lexical: outside `#[cfg(test)]`, a method call
//! `.thread_label(` or `.thread_clearance(` is a finding. There is no
//! exemption marker: a library that needs another thread's label needs a
//! syscall that checks the read.

//!
//! Rule 4 — every row earns its place: each row of the `syscalls!` table
//! has a caller in the library's non-test code.
//!
//! The paper's kernel is small because every entry point is one its
//! untrusted library needs (§4.1). A row only tests call is surface the
//! noninterference harness must cover and nothing exercises the way a
//! user would; the first such row that was read closely hid a write-down.
//! Detection is lexical like rule 3: outside `#[cfg(test)]`, some library
//! file calls `.trap_<name>(` or names `Syscall::<Variant>`. A row without either
//! is a finding, and like rule 3 it has no exemption marker: use the call
//! as the paper does, or delete the row.

use crate::mediation::table_rows;
use crate::model::{matches_seq, SourceFile};
use crate::report::Finding;
use std::collections::BTreeSet;

const CONSOLE_READS: &[&str] = &["thread_label", "thread_clearance"];

pub fn run(files: &[SourceFile], findings: &mut Vec<Finding>) {
    for f in files {
        let toks = &f.tokens;
        for (i, t) in toks.iter().enumerate() {
            let is_call = CONSOLE_READS.contains(&t.text.as_str())
                && i >= 1
                && toks[i - 1].text == "."
                && toks.get(i + 1).is_some_and(|n| n.text == "(");
            if is_call && !f.in_test_range(i) {
                findings.push(Finding {
                    rule: "boundary",
                    file: f.path.clone(),
                    line: t.line,
                    message: format!(
                        "library code reads a thread's label off the kernel (`.{}(`); \
                         use `trap_self_get_label` / `trap_self_get_clearance`",
                        t.text
                    ),
                });
            }
        }
    }
}

/// Rule 4 over the `syscalls!` table found in `kernel` (no table, nothing
/// to check — rule 1 reports a missing table) and the library sources.
pub fn unused_rows(kernel: &[SourceFile], library: &[SourceFile], findings: &mut Vec<Finding>) {
    let Some((table, rows)) = kernel.iter().find_map(|f| Some((f, table_rows(f)?))) else {
        return;
    };
    let mut named: BTreeSet<&str> = BTreeSet::new();
    for f in library {
        for (i, t) in f.tokens.iter().enumerate() {
            let after =
                |path: &[&str]| i >= path.len() && matches_seq(&f.tokens, i - path.len(), path);
            let is_use =
                (t.text.starts_with("trap_") && after(&["."])) || after(&["Syscall", ":", ":"]);
            if is_use && !f.in_test_range(i) {
                named.insert(&t.text);
            }
        }
    }
    for (line, [variant, _, _, trap]) in &rows {
        if !named.contains(variant.as_str()) && !named.contains(trap.as_str()) {
            findings.push(Finding {
                rule: "boundary",
                file: table.path.clone(),
                line: *line,
                message: format!(
                    "no library code calls `{trap}` or builds `Syscall::{variant}` outside \
                     tests; a row earns its place with a caller, or goes"
                ),
            });
        }
    }
}

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

use crate::model::SourceFile;
use crate::report::Finding;

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

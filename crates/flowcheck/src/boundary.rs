//! Rule 2 — the boundary's read side: library code learns a thread's
//! label and clearance by trap.
//!
//! `Kernel::thread_label` / `thread_clearance` answer for *any* thread id,
//! unchecked, uncharged and off the audit stream. They are the console —
//! tests and harnesses — and the untrusted library crates have
//! `self_get_label` / `self_get_clearance` for the one thread they may ask
//! about. Detection is lexical: outside `#[cfg(test)]`, a method call
//! `.thread_label(` or `.thread_clearance(` is a finding, and so is either
//! name after `::` (`Kernel::thread_label(kernel, tid)`, or the path
//! taken as a function pointer). A `fn thread_label` definition is not a
//! read. There is no exemption marker: a library that needs another
//! thread's label needs a syscall that checks the read.

//!
//! Rule 3 — every row earns its place: each row of the `syscalls!` table
//! has a caller in the library's non-test code.
//!
//! The paper's kernel is small because every entry point is one its
//! untrusted library needs (§4.1). A row only tests call is surface the
//! noninterference harness must cover and nothing exercises the way a
//! user would; the first such row that was read closely hid a write-down.
//! Detection is lexical like rule 2: outside `#[cfg(test)]`, some library
//! file calls `.trap_<name>(` or names `Syscall::<Variant>`. A row without either
//! is a finding, and like rule 2 it has no exemption: use the call as the
//! paper does, or delete the row. The same pass reads each row's four
//! spellings, `Variant name sys_name trap_name`, and holds the last three
//! to one call (`macro_rules!` cannot paste identifiers, so the table
//! spells them out): a row whose wrapper promises one call while its
//! dispatch arm runs another is a finding too.

use crate::model::{match_brace, matches_seq, SourceFile};
use crate::report::Finding;
use std::collections::BTreeSet;

const CONSOLE_READS: &[&str] = &["thread_label", "thread_clearance"];

pub fn run(files: &[SourceFile], findings: &mut Vec<Finding>) {
    for f in files {
        let toks = &f.tokens;
        for (i, t) in toks.iter().enumerate() {
            if !CONSOLE_READS.contains(&t.text.as_str()) || i < 2 || f.in_test_range(i) {
                continue;
            }
            let spelled = if toks[i - 1].text == "." && matches_seq(toks, i + 1, &["("]) {
                format!(".{}(", t.text)
            } else if matches_seq(toks, i - 2, &[":", ":"]) {
                format!("::{}", t.text)
            } else {
                continue;
            };
            findings.push(Finding {
                rule: "boundary",
                file: f.path.clone(),
                line: t.line,
                message: format!(
                    "library code reads a thread's label off the kernel (`{spelled}`); \
                     use `trap_self_get_label` / `trap_self_get_clearance`"
                ),
            });
        }
    }
}

/// Rule 3 over the `syscalls!` table found in `kernel` (no table, nothing
/// to check — `analyze_repo` reports a missing one) and the library
/// sources.
pub fn unused_rows(kernel: &[SourceFile], library: &[SourceFile], findings: &mut Vec<Finding>) {
    let Some((table, rows)) = kernel.iter().find_map(|f| Some((f, table_rows(f)?))) else {
        return;
    };
    let finding = |line: u32, message: String| Finding {
        rule: "boundary",
        file: table.path.clone(),
        line,
        message,
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
    for (line, [variant, name, sys, trap]) in &rows {
        if *sys != format!("sys_{name}") || *trap != format!("trap_{name}") {
            let message =
                format!("table row `{name}` routes `{trap}` to `{sys}`; a row must spell one call");
            findings.push(finding(*line, message));
        }
        if !named.contains(variant.as_str()) && !named.contains(trap.as_str()) {
            findings.push(finding(
                *line,
                format!(
                    "no library code calls `{trap}` or builds `Syscall::{variant}` outside \
                     tests; a row earns its place with a caller, or goes"
                ),
            ));
        }
    }
}

/// The rows of the `syscalls! { … }` invocation, if the file has a
/// non-empty one: each row's line and its `Variant name sys_name
/// trap_name` identifiers (a row is `Variant name sys_name trap_name
/// (args…) -> Result(Ty);`). Only the invocation is `syscalls ! {` — the
/// definition is `macro_rules ! syscalls` and the macro's internal calls
/// use parentheses.
pub fn table_rows(f: &SourceFile) -> Option<Vec<(u32, [String; 4])>> {
    let toks = &f.tokens;
    let open = (0..toks.len()).find(|&i| matches_seq(toks, i, &["syscalls", "!", "{"]))? + 2;
    let mut rows = Vec::new();
    let mut depth = 0usize;
    let mut start = open + 1;
    for i in open + 1..match_brace(toks, open) {
        match toks[i].text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth = depth.saturating_sub(1),
            ";" if depth == 0 => {
                if i >= start + 4 {
                    let ident = |k: usize| toks[start + k].text.clone();
                    rows.push((toks[start].line, [ident(0), ident(1), ident(2), ident(3)]));
                }
                start = i + 1;
            }
            _ => {}
        }
    }
    (!rows.is_empty()).then_some(rows)
}

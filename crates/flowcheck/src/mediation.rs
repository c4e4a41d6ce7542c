//! Rule 1 — mediation: every syscall reaching object state is dominated
//! by a label check.
//!
//! The engine reads the `syscalls! { … }` table (the one list of the ABI:
//! the dispatch arms every `Kernel::dispatch` / batched-ABI call funnels
//! through are expanded from its rows) and takes the `sys_*` handler each
//! row names.  A handler declared `pub fn` is a finding by itself: the
//! trap is where a call is charged, counted, refused for a halted caller
//! and audited, so a handler reachable from outside the crate is a way in
//! that skips all of it.  Each handler body is then analyzed as a token
//! stream:
//!
//! * **Checks** are calls whose job is a label decision:
//!   `check_observe`, `check_modify`, `check_entry`, `check_spawn`,
//!   `check_set_label`, `check_set_clearance`, `check_record_observe`,
//!   `check_record_modify`, `create_object` (which internally performs
//!   `check_modify` + `can_allocate`), `can_allocate`, and `.owns(…)`
//!   (category-ownership tests).
//! * **Heap accesses** reach the kernel's only id-keyed state: the
//!   object table `self.objects` (every object's runtime state — queues,
//!   watchers — lives inside its object) and the accessors over it
//!   (`obj`/`obj_mut`, the typed `container`/`thread`/`segment`/… pairs,
//!   `dealloc`).  Accessors keyed by the calling thread itself (`t.tid`,
//!   the id in the handler's `Caller`) are *self accesses*: a thread may
//!   always touch its own state (§3 of the paper: observing yourself
//!   leaks nothing new).
//! * **Record accesses** reach the single-level store: `self.store`,
//!   `self.store_mut()` and `self.persist_record()`. Record labels ride
//!   *inside* the record, so lexical check-before-access cannot hold (the
//!   record must be read to learn its label); for the record class the
//!   rule instead requires a `check_record_*` call somewhere in the body
//!   before the payload can legally flow out.  The one other way to the
//!   store is an *object* handler writing an object into it (`obj_sync`):
//!   the label that governs is the object's, so a store use lexically
//!   after both a `check_entry` and a `check_modify` is mediated and not a
//!   record access at all.
//!
//! Verdicts per entry point: a body with a flagged access needs a check
//! lexically before the first heap access (record class: anywhere), or a
//! `// flowcheck: exempt(reason)` marker on the fn. A body with *no*
//! access and *no* check is check-free and must carry a marker too —
//! that's the auditable TCB list. Delegation (`self.sys_x` calling
//! `self.sys_y`) inherits the delegate's verdict. The engine also
//! verifies each table row spells one call (`name`, `sys_<name>` and
//! `trap_<name>` agree, so no row routes `trap_a` to `sys_b`) and
//! sanity-checks the trusted check helpers
//! (each `check_*` must contain an actual label comparison: `leq`,
//! `leq_high_rhs`, `leq_high_both`, or `count_label_check`). The helpers
//! act on the verdict `count_label_check` returns (for immutable labels it
//! comes from the comparison cache), so a call that drops it — in statement
//! position, or bound to `_` — is a check that cannot refuse, and is
//! flagged wherever it appears.

use crate::model::{matches_seq, SourceFile};
use crate::report::{Exemption, Finding};
use std::collections::{BTreeMap, BTreeSet};

const CHECK_CALLS: &[&str] = &[
    "check_observe",
    "check_modify",
    "check_entry",
    "check_spawn",
    "check_set_label",
    "check_set_clearance",
    "check_record_observe",
    "check_record_modify",
    "create_object",
    "can_allocate",
];

/// `self.<field>` uses that count as heap access: the one id-keyed
/// collection `struct Kernel` holds.
const STATE_FIELDS: &[&str] = &["objects"];

/// `self.<accessor>(arg, …)`: heap access unless the first argument is
/// [`SELF_KEY`] (the calling thread's own state).
const ACCESSORS: &[&str] = &[
    "obj",
    "obj_mut",
    "container",
    "container_mut",
    "thread",
    "thread_mut",
    "segment",
    "segment_mut",
    "address_space",
    "address_space_mut",
    "gate",
    "device",
    "device_mut",
    "thread_label",
    "thread_clearance",
    "dealloc",
];

/// How a handler spells the calling thread's own id: the `tid` of the
/// `Caller` the trap hands it as `t`.
const SELF_KEY: &[&str] = &["t", ".", "tid"];

/// Trusted helpers whose own bodies must contain a real label comparison.
const CHECK_HELPERS: &[&str] = &[
    "check_observe",
    "check_modify",
    "check_entry",
    "check_record_observe",
    "check_record_modify",
];

const LABEL_COMPARES: &[&str] = &[
    "leq",
    "leq_high_rhs",
    "leq_high_both",
    "count_label_check",
    "can_allocate",
];

#[derive(Debug)]
struct BodyScan {
    first_check: Option<usize>,
    first_heap: Option<(usize, u32, String)>,
    has_record: Option<(u32, String)>,
    has_record_check: bool,
    delegates: Vec<String>,
}

/// Analysis entry: runs the mediation rule over the given files and
/// appends findings/exemptions.
pub fn run(files: &[SourceFile], findings: &mut Vec<Finding>, exemptions: &mut Vec<Exemption>) {
    // Entry points: the handler named by every row of the syscall table.
    let mut entry_points: BTreeSet<String> = BTreeSet::new();
    let Some((df, rows)) = files.iter().find_map(|f| Some((f, table_rows(f)?))) else {
        findings.push(Finding {
            rule: "mediation",
            file: files.first().map(|f| f.path.clone()).unwrap_or_default(),
            line: 0,
            message: "no `syscalls!` table found: the syscall choke point is missing".into(),
        });
        return;
    };
    for (line, [_, name, sys, trap]) in rows {
        if sys != format!("sys_{name}") || trap != format!("trap_{name}") {
            findings.push(Finding {
                rule: "mediation",
                file: df.path.clone(),
                line,
                message: format!(
                    "table row `{name}` routes `{trap}` to `{sys}`; a row must spell one call"
                ),
            });
        }
        entry_points.insert(sys);
    }

    // Analyze every entry point (plus transitive delegates).
    let mut verdicts: BTreeMap<String, ()> = BTreeMap::new();
    let mut queue: Vec<String> = entry_points.iter().cloned().collect();
    while let Some(name) = queue.pop() {
        if verdicts.contains_key(&name) {
            continue;
        }
        verdicts.insert(name.clone(), ());
        let Some((f, item)) = find_method(files, &name) else {
            findings.push(Finding {
                rule: "mediation",
                file: df.path.clone(),
                line: 0,
                message: format!(
                    "dispatch target `{name}` has no definition in the analyzed files"
                ),
            });
            continue;
        };
        if item.is_pub {
            findings.push(Finding {
                rule: "mediation",
                file: f.path.clone(),
                line: item.line,
                message: format!(
                    "`{name}` is `pub fn`: a handler reachable from outside the crate bypasses the trap (use `pub(crate) fn`)"
                ),
            });
        }
        let scan = scan_body(f, item.body_open, item.body_close);
        for d in &scan.delegates {
            queue.push(d.clone());
        }
        let marker = f.marker_for_fn(item);

        // Heap class: check must lexically dominate the first access.
        if let Some((aidx, aline, what)) = &scan.first_heap {
            let dominated = scan.first_check.map(|c| c < *aidx).unwrap_or(false);
            if !dominated {
                match marker {
                    Some(m) => exemptions.push(Exemption {
                        rule: "mediation",
                        name: name.clone(),
                        file: f.path.clone(),
                        reason: m.reason.clone(),
                    }),
                    None => findings.push(Finding {
                        rule: "mediation",
                        file: f.path.clone(),
                        line: *aline,
                        message: format!(
                            "`{name}` reaches object state (`{what}`) with no label check before it"
                        ),
                    }),
                }
                continue;
            }
        }

        // Record class: a record check must exist somewhere in the body.
        if let Some((rline, what)) = &scan.has_record {
            if !scan.has_record_check {
                match marker {
                    Some(m) => exemptions.push(Exemption {
                        rule: "mediation",
                        name: name.clone(),
                        file: f.path.clone(),
                        reason: m.reason.clone(),
                    }),
                    None => findings.push(Finding {
                        rule: "mediation",
                        file: f.path.clone(),
                        line: *rline,
                        message: format!(
                            "`{name}` reaches store records (`{what}`) without a check_record_* call"
                        ),
                    }),
                }
                continue;
            }
        }

        // Check-free and access-free bodies: self-only / pure-metadata
        // syscalls. They must be marked, or delegate to something checked.
        let has_access = scan.first_heap.is_some() || scan.has_record.is_some();
        let has_check = scan.first_check.is_some() || scan.has_record_check;
        if !has_access && !has_check && scan.delegates.is_empty() {
            match marker {
                Some(m) => exemptions.push(Exemption {
                    rule: "mediation",
                    name: name.clone(),
                    file: f.path.clone(),
                    reason: m.reason.clone(),
                }),
                None => findings.push(Finding {
                    rule: "mediation",
                    file: f.path.clone(),
                    line: item.line,
                    message: format!(
                        "`{name}` is check-free; self-only/pure-metadata syscalls need `// flowcheck: exempt(reason)`"
                    ),
                }),
            }
        }
    }

    // Sanity-check the trusted helpers: a "check" that compares nothing
    // is a hole in the TCB.
    for helper in CHECK_HELPERS {
        if let Some((f, item)) = find_method(files, helper) {
            let mut compares = false;
            for i in item.body_open..item.body_close {
                let t = &f.tokens[i].text;
                // A direct label comparison, or delegation to another
                // trusted helper (check_entry starts with check_observe).
                if LABEL_COMPARES.contains(&t.as_str())
                    || (CHECK_HELPERS.contains(&t.as_str()) && t != helper)
                {
                    compares = true;
                    break;
                }
            }
            if !compares {
                findings.push(Finding {
                    rule: "mediation",
                    file: f.path.clone(),
                    line: item.line,
                    message: format!(
                        "trusted helper `{helper}` contains no label comparison (leq/leq_high_rhs/can_allocate)"
                    ),
                });
            }
        }
    }

    // A counted check whose verdict is dropped decides nothing.
    for f in files {
        let toks = &f.tokens;
        for i in 2..toks.len() {
            if toks[i].text == "count_label_check"
                && matches_seq(toks, i - 2, &["self", "."])
                && next_is(toks, i, "(")
                && !f.in_test_range(i)
                && verdict_dropped(toks, i)
            {
                findings.push(Finding {
                    rule: "mediation",
                    file: f.path.clone(),
                    line: toks[i].line,
                    message: "`count_label_check` verdict is dropped; the caller must refuse when it is false".into(),
                });
            }
        }
    }
}

/// Whether the `self.count_label_check(…)` call at token `i` is bound to
/// `_`, or is a whole statement (`…; self.count_label_check(…);`).
fn verdict_dropped(toks: &[crate::lex::Token], i: usize) -> bool {
    if i >= 5 && matches_seq(toks, i - 5, &["let", "_", "="]) {
        return true;
    }
    let starts_statement = i >= 3 && matches!(toks[i - 3].text.as_str(), ";" | "{" | "}");
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(i + 1) {
        match t.text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return starts_statement && next_is(toks, j, ";");
                }
            }
            _ => {}
        }
    }
    false
}

/// Scans a fn body for the first check, first heap access, record access,
/// and sys_* delegation calls.
fn scan_body(f: &SourceFile, open: usize, close: usize) -> BodyScan {
    let mut scan = BodyScan {
        first_check: None,
        first_heap: None,
        has_record: None,
        has_record_check: false,
        delegates: Vec::new(),
    };
    let toks = &f.tokens;
    // An object handler's write rule: the entry was verified and the
    // object modify-checked.  Store uses after both are mediated.
    let (mut entry_checked, mut modify_checked) = (false, false);
    for i in open..close {
        let t = &toks[i].text;

        // Checks: `self . check_x (` / `create_object (` / `. owns (`.
        let is_check_call = CHECK_CALLS.contains(&t.as_str())
            && toks.get(i + 1).map(|t| t.text.as_str()) == Some("(");
        let is_owns = t == "owns"
            && i >= 1
            && toks[i - 1].text == "."
            && toks.get(i + 1).map(|t| t.text.as_str()) == Some("(");
        if is_check_call || is_owns {
            if scan.first_check.is_none() {
                scan.first_check = Some(i);
            }
            if t.starts_with("check_record") || t == "can_allocate" {
                scan.has_record_check = true;
            }
            entry_checked |= t == "check_entry";
            modify_checked |= t == "check_modify";
            continue;
        }

        // Everything below keys off `self . X`.
        if !(i >= 2 && matches_seq(toks, i - 2, &["self", "."])) {
            continue;
        }

        if t == "store"
            || (matches!(t.as_str(), "store_mut" | "persist_record") && next_is(toks, i, "("))
        {
            if scan.has_record.is_none() && !(entry_checked && modify_checked) {
                scan.has_record = Some((toks[i].line, format!("self.{t}")));
            }
            continue;
        }

        if STATE_FIELDS.contains(&t.as_str()) {
            if scan.first_heap.is_none() {
                scan.first_heap = Some((i, toks[i].line, format!("self.{t}")));
            }
            continue;
        }

        if ACCESSORS.contains(&t.as_str()) && next_is(toks, i, "(") {
            // `self.obj(t.tid)` / `self.thread_mut(t.tid)` are self accesses.
            let self_keyed = matches_seq(toks, i + 2, SELF_KEY);
            if !self_keyed && scan.first_heap.is_none() {
                scan.first_heap = Some((i, toks[i].line, format!("self.{t}()")));
            }
            continue;
        }

        if t.starts_with("sys_") && next_is(toks, i, "(") {
            scan.delegates.push(t.clone());
        }
    }
    scan
}

fn next_is(toks: &[crate::lex::Token], i: usize, text: &str) -> bool {
    toks.get(i + 1).map(|t| t.text.as_str()) == Some(text)
}

/// Locates a method definition by name across the analyzed files.
fn find_method<'a>(
    files: &'a [SourceFile],
    name: &str,
) -> Option<(&'a SourceFile, &'a crate::model::FnItem)> {
    for f in files {
        if let Some(item) = f.find_fn(name) {
            return Some((f, item));
        }
    }
    None
}

/// The rows of the `syscalls! { … }` invocation, if the file has a
/// non-empty one: each row's line and its `Variant name sys_name
/// trap_name` identifiers (a row is `Variant name sys_name trap_name
/// (args…) -> Result(Ty);`). Only the invocation is `syscalls ! {` — the
/// definition is `macro_rules ! syscalls` and the macro's internal calls
/// use parentheses.
pub(crate) fn table_rows(f: &SourceFile) -> Option<Vec<(u32, [String; 4])>> {
    let toks = &f.tokens;
    let open = (0..toks.len()).find(|&i| matches_seq(toks, i, &["syscalls", "!", "{"]))? + 2;
    let mut rows = Vec::new();
    let mut depth = 0usize;
    let mut start = open + 1;
    for i in open + 1..crate::model::match_brace(toks, open) {
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

//! Rule 2 — determinism: no unordered iteration or ambient entropy on
//! any trace-visible path.
//!
//! The replay, snapshot-byte-stability, and torn-WAL test strategies all
//! assume the kernel (and everything feeding it) is a pure function of
//! the boot script. Rust's `HashMap`/`HashSet` randomize iteration order
//! per instance, so *any* iteration over them is a nondeterminism leak
//! unless the results are provably order-insensitive. Wall-clock time and
//! OS RNG are forbidden outright — `sim` time and `sim` RNG are the only
//! entropy sources.
//!
//! Detection is type-tracking over the token stream:
//! * struct fields declared `HashMap`/`HashSet` are tracked per file
//!   (flagged as `self.field.<iter-verb>` / `for … in &self.field`);
//! * locals and params of hash type are tracked per enclosing fn
//!   (declared via `: HashMap<…>`, `= HashMap::new()`, `with_capacity`,
//!   or `.collect::<HashMap<…>>()`).
//!
//! Iteration verbs: `.iter()`, `.iter_mut()`, `.keys()`, `.values()`,
//! `.values_mut()`, `.into_iter()`, `.into_keys()`, `.into_values()`,
//! `.drain()`, `.retain()`, and `for … in [&[mut]] receiver`.
//!
//! Order-insensitive sinks that silence a flag:
//! * the iteration chain ends in `.count()`, `.sum()`, `.any(`, `.all(`,
//!   `.min()`, `.max()`, `.min_by_key(`, `.max_by_key(`, `.fold(` or
//!   collects into a `BTreeMap`/`BTreeSet`;
//! * the iteration initializes a `let [mut] x = …` binding that is later
//!   sorted (`x.sort…`) in the same fn;
//! * a `// flowcheck: exempt(reason)` marker on the line or the line
//!   above (these are printed in the exemption list, each named
//!   `path::fn` after the fn it sits in — so an edit elsewhere in the file
//!   leaves the list alone — or `path:line` outside any fn).

use crate::model::{matches_seq, SourceFile};
use crate::report::{Exemption, Finding};
use std::collections::BTreeSet;

const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];

const ITER_VERBS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

const FORBIDDEN_TIME: &[&str] = &["Instant", "SystemTime"];
const FORBIDDEN_RNG: &[&str] = &["thread_rng", "RandomState", "rngs"];

const INSENSITIVE_SINKS: &[&str] = &[
    "count",
    "sum",
    "any",
    "all",
    "min",
    "max",
    "min_by_key",
    "max_by_key",
    "fold",
    "len",
];

pub fn run(files: &[SourceFile], findings: &mut Vec<Finding>, exemptions: &mut Vec<Exemption>) {
    for f in files {
        check_file(f, findings, exemptions);
    }
}

fn check_file(f: &SourceFile, findings: &mut Vec<Finding>, exemptions: &mut Vec<Exemption>) {
    let toks = &f.tokens;

    // Pass 0: forbidden time/RNG anywhere in non-test code.
    for (i, t) in toks.iter().enumerate() {
        if f.in_test_range(i) {
            continue;
        }
        let text = t.text.as_str();
        let forbidden = FORBIDDEN_TIME.contains(&text)
            || FORBIDDEN_RNG.contains(&text)
            || (text == "time" && i >= 3 && matches_seq(toks, i - 3, &["std", ":", ":"]))
            || (text == "rand" && toks.get(i + 1).map(|t| t.text.as_str()) == Some(":"));
        if forbidden {
            if let Some(m) = f.marker_near_line(t.line) {
                exemptions.push(Exemption {
                    rule: "determinism",
                    name: exemption_name(f, i),
                    file: f.path.clone(),
                    reason: m.reason.clone(),
                });
            } else {
                findings.push(Finding {
                    rule: "determinism",
                    file: f.path.clone(),
                    line: t.line,
                    message: format!(
                        "`{text}` is forbidden in trace-affecting crates; use sim time/RNG"
                    ),
                });
            }
        }
    }

    // Pass 1: hash-typed struct fields (file scope, used via `self.`).
    let hash_fields = collect_hash_fields(f);

    // Pass 2: per-fn locals, then flag iteration verbs.
    for item in &f.fns {
        if f.in_test_range(item.body_open) {
            continue;
        }
        let locals = collect_hash_locals(f, item.body_open, item.body_close);
        for i in item.body_open..item.body_close {
            let t = &toks[i].text;

            // Receiver position for `.verb()`: `name . verb (`.
            if ITER_VERBS.contains(&t.as_str())
                && i >= 2
                && toks[i - 1].text == "."
                && toks.get(i + 1).map(|t| t.text.as_str()) == Some("(")
            {
                let recv = toks[i - 2].text.as_str();
                let is_hash = (hash_fields.contains(recv)
                    && i >= 4
                    && matches_seq(toks, i - 4, &["self", "."]))
                    || (locals.contains(recv)
                        && !(i >= 4 && matches_seq(toks, i - 4, &["self", "."])));
                if is_hash {
                    judge_iteration(f, item, i, recv, t, findings, exemptions);
                }
            }

            // `for PAT in [&[mut]] self.name {` / `for PAT in [&[mut]] name {`
            if t == "in" && i > item.body_open && is_for_in(toks, item.body_open, i) {
                let mut j = i + 1;
                while matches!(
                    toks.get(j).map(|t| t.text.as_str()),
                    Some("&") | Some("mut")
                ) {
                    j += 1;
                }
                let (recv, recv_idx) =
                    if matches_seq(toks, j, &["self", "."]) && toks.get(j + 2).is_some() {
                        (toks[j + 2].text.as_str(), j + 2)
                    } else if let Some(tok) = toks.get(j) {
                        (tok.text.as_str(), j)
                    } else {
                        continue;
                    };
                // Only a *direct* loop over the collection counts here; a
                // method-call chain (`for x in m.keys()`) is handled by the
                // verb pass above.
                if toks.get(recv_idx + 1).map(|t| t.text.as_str()) == Some("{") {
                    let is_field = recv_idx >= 2 && matches_seq(toks, recv_idx - 2, &["self", "."]);
                    let is_hash = (is_field && hash_fields.contains(recv))
                        || (!is_field && locals.contains(recv));
                    if is_hash {
                        judge_iteration(f, item, recv_idx, recv, "for-in", findings, exemptions);
                    }
                }
            }
        }
    }
}

/// Decides whether a flagged iteration is order-insensitive, exempt, or a
/// finding.
#[allow(clippy::too_many_arguments)]
fn judge_iteration(
    f: &SourceFile,
    item: &crate::model::FnItem,
    idx: usize,
    recv: &str,
    verb: &str,
    findings: &mut Vec<Finding>,
    exemptions: &mut Vec<Exemption>,
) {
    let toks = &f.tokens;
    let line = toks[idx].line;

    // Sink analysis: walk the rest of the statement (to `;` or the `{` of
    // a for-loop at paren depth 0).
    let mut j = idx;
    let mut depth = 0i32;
    let mut sink_insensitive = false;
    let mut collects_ordered = false;
    while j < item.body_close {
        match toks[j].text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            ";" | "{" if depth <= 0 => break,
            s if depth <= 0 => {
                if toks[j - 1].text == "." && INSENSITIVE_SINKS.contains(&s) {
                    sink_insensitive = true;
                }
                if s == "BTreeMap" || s == "BTreeSet" {
                    collects_ordered = true;
                }
            }
            _ => {}
        }
        j += 1;
    }
    if sink_insensitive || collects_ordered {
        return;
    }

    // `let [mut] x = <iteration>…;` later sorted in the same fn.
    if let Some(bound) = binding_name(toks, item.body_open, idx) {
        let mut k = j;
        while k + 2 < item.body_close {
            if toks[k].text == bound
                && toks[k + 1].text == "."
                && toks[k + 2].text.starts_with("sort")
            {
                return;
            }
            k += 1;
        }
    }

    if let Some(m) = f.marker_near_line(line) {
        exemptions.push(Exemption {
            rule: "determinism",
            name: exemption_name(f, idx),
            file: f.path.clone(),
            reason: m.reason.clone(),
        });
        return;
    }

    findings.push(Finding {
        rule: "determinism",
        file: f.path.clone(),
        line,
        message: format!(
            "unordered iteration over hash collection `{recv}` (`{verb}`); sort, use BTreeMap/BTreeSet, or mark `// flowcheck: exempt(reason)`"
        ),
    });
}

/// How the exemption list names the marked site at token `idx`:
/// `path::name` of the innermost fn whose body holds it, else `path:line`.
fn exemption_name(f: &SourceFile, idx: usize) -> String {
    f.fns
        .iter()
        .filter(|item| item.body_open < idx && idx < item.body_close)
        .max_by_key(|item| item.body_open)
        .map_or_else(
            || format!("{}:{}", f.path, f.tokens[idx].line),
            |item| format!("{}::{}", f.path, item.name),
        )
}

/// If the statement containing `idx` starts `let [mut] NAME =`, returns
/// NAME.
fn binding_name(toks: &[crate::lex::Token], body_open: usize, idx: usize) -> Option<String> {
    // Walk backwards to the statement start: the token after the previous
    // `;`, `{`, or `}` at any depth (good enough for let-statements).
    let mut start = idx;
    while start > body_open {
        match toks[start - 1].text.as_str() {
            ";" | "{" | "}" => break,
            _ => start -= 1,
        }
    }
    if toks.get(start).map(|t| t.text.as_str()) != Some("let") {
        return None;
    }
    let mut j = start + 1;
    if toks.get(j).map(|t| t.text.as_str()) == Some("mut") {
        j += 1;
    }
    toks.get(j).map(|t| t.text.clone())
}

/// True if token `i` (an `in`) belongs to a `for … in` header: scan back
/// for the matching `for` with no intervening `{`/`;`.
fn is_for_in(toks: &[crate::lex::Token], body_open: usize, i: usize) -> bool {
    let mut j = i;
    let mut depth = 0i32;
    while j > body_open {
        j -= 1;
        match toks[j].text.as_str() {
            ")" | "]" => depth += 1,
            "(" | "[" => depth -= 1,
            "for" if depth <= 0 => return true,
            "{" | ";" | "}" if depth <= 0 => return false,
            _ => {}
        }
    }
    false
}

/// Struct fields of hash type: `name : HashMap <` / `name : HashSet <`
/// inside any `struct … { … }` item.
fn collect_hash_fields(f: &SourceFile) -> BTreeSet<String> {
    let toks = &f.tokens;
    let mut out = BTreeSet::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text == "struct" && !f.in_test_range(i) {
            let mut j = i + 1;
            while j < toks.len()
                && toks[j].text != "{"
                && toks[j].text != ";"
                && toks[j].text != "("
            {
                j += 1;
            }
            if j < toks.len() && toks[j].text == "{" {
                let close = crate::model::match_brace(toks, j);
                let mut k = j + 1;
                while k + 2 < close {
                    if toks[k + 1].text == ":" && HASH_TYPES.contains(&toks[k + 2].text.as_str()) {
                        out.insert(toks[k].text.clone());
                    }
                    k += 1;
                }
                i = close;
            }
        }
        i += 1;
    }
    out
}

/// Hash-typed locals and params within a fn body (plus the signature just
/// before it — params share the binding namespace).
fn collect_hash_locals(f: &SourceFile, open: usize, close: usize) -> BTreeSet<String> {
    let toks = &f.tokens;
    let mut out = BTreeSet::new();
    for i in open..close {
        let t = toks[i].text.as_str();
        if !HASH_TYPES.contains(&t) {
            continue;
        }
        // `let [mut] NAME : HashMap` — walk back over the type annotation.
        if i >= 2 && toks[i - 1].text == ":" {
            let name_idx = i - 2;
            out.insert(toks[name_idx].text.clone());
            continue;
        }
        // `let [mut] NAME = HashMap :: new ( )` / `with_capacity` /
        // `from ( … )`, or `… = ident . collect :: < HashMap … > ( )`.
        let mut j = i;
        while j > open {
            j -= 1;
            match toks[j].text.as_str() {
                "=" => {
                    // name is just before `=` (skipping a possible type
                    // annotation `: T` — handled above anyway).
                    if j >= 1 {
                        out.insert(toks[j - 1].text.clone());
                    }
                    break;
                }
                ";" | "{" | "}" => break,
                _ => {}
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SourceFile;

    fn run_one(src: &str) -> (Vec<Finding>, Vec<Exemption>) {
        let f = SourceFile::parse("t.rs", src);
        let mut fi = Vec::new();
        let mut ex = Vec::new();
        check_file(&f, &mut fi, &mut ex);
        (fi, ex)
    }

    #[test]
    fn flags_field_iter() {
        let src = "struct K { m: HashMap<u64, u8> }\nimpl K { fn f(&self) { for (k, v) in self.m.iter() { use_it(k, v); } } }";
        let (fi, _) = run_one(src);
        assert_eq!(fi.len(), 1, "{fi:?}");
    }

    #[test]
    fn count_is_order_insensitive() {
        let src = "struct K { m: HashMap<u64, u8> }\nimpl K { fn f(&self) -> usize { self.m.values().count() } }";
        let (fi, _) = run_one(src);
        assert!(fi.is_empty(), "{fi:?}");
    }

    #[test]
    fn sorted_collect_passes() {
        let src = "struct K { m: HashMap<u64, u8> }\nimpl K { fn f(&self) -> Vec<u64> { let mut v: Vec<u64> = self.m.keys().copied().collect(); v.sort_unstable(); v } }";
        let (fi, _) = run_one(src);
        assert!(fi.is_empty(), "{fi:?}");
    }

    #[test]
    fn marker_exempts() {
        let src = "struct K { m: HashMap<u64, u8> }\nimpl K { fn f(&self) {\n// flowcheck: exempt(caller sorts)\nfor k in self.m.keys() { go(k); } } }";
        let (fi, ex) = run_one(src);
        assert!(fi.is_empty(), "{fi:?}");
        assert_eq!(ex.len(), 1);
        assert_eq!(ex[0].name, "t.rs::f", "named by its fn, not its line");
    }

    #[test]
    fn marker_outside_any_fn_is_named_by_line() {
        let src =
            "fn f() {}\n// flowcheck: exempt(a type alias, never read)\ntype Clock = Instant;";
        let (fi, ex) = run_one(src);
        assert!(fi.is_empty(), "{fi:?}");
        assert_eq!(ex.len(), 1, "{ex:?}");
        assert_eq!(ex[0].name, "t.rs:3");
    }

    #[test]
    fn keyed_access_fine() {
        let src = "struct K { m: HashMap<u64, u8> }\nimpl K { fn f(&self) -> Option<&u8> { self.m.get(&1) } }";
        let (fi, _) = run_one(src);
        assert!(fi.is_empty(), "{fi:?}");
    }

    #[test]
    fn instant_forbidden() {
        let src = "fn f() { let t = Instant::now(); }";
        let (fi, _) = run_one(src);
        assert_eq!(fi.len(), 1);
    }

    #[test]
    fn local_hashmap_for_loop_flagged() {
        let src =
            "fn f() { let mut m = HashMap::new(); m.insert(1, 2); for (a, b) in &m { go(a, b); } }";
        let (fi, _) = run_one(src);
        assert_eq!(fi.len(), 1, "{fi:?}");
    }

    #[test]
    fn btree_ignored() {
        let src = "struct K { m: BTreeMap<u64, u8> }\nimpl K { fn f(&self) { for k in self.m.keys() { go(k); } } }";
        let (fi, _) = run_one(src);
        assert!(fi.is_empty(), "{fi:?}");
    }

    #[test]
    fn test_mod_skipped() {
        let src = "#[cfg(test)]\nmod tests { fn f() { let mut m = HashMap::new(); for k in m.keys() { go(k); } } }";
        let (fi, _) = run_one(src);
        assert!(fi.is_empty(), "{fi:?}");
    }
}

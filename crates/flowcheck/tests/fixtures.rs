//! Golden fixtures: every file under `fixtures/<rule>/bad/` must produce
//! at least one finding for that rule; every file under
//! `fixtures/<rule>/good/` must produce none.

use flowcheck::model::SourceFile;
use std::path::{Path, PathBuf};

fn fixture_dir(rule: &str, verdict: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(rule)
        .join(verdict)
}

fn analyze_fixture(rule: &str, path: &Path) -> flowcheck::Analysis {
    let text = std::fs::read_to_string(path).unwrap();
    let parsed = SourceFile::parse(&path.display().to_string(), &text);
    match rule {
        "mediation" => flowcheck::analyze(std::slice::from_ref(&parsed)),
        "boundary" => boundary(std::slice::from_ref(&parsed)),
        other => panic!("unknown rule {other}"),
    }
}

fn boundary(files: &[SourceFile]) -> flowcheck::Analysis {
    let mut a = flowcheck::Analysis::default();
    flowcheck::boundary::run(files, &mut a.findings);
    flowcheck::boundary::unused_rows(files, files, &mut a.findings);
    a
}

fn run_dir(rule: &str, verdict: &str) -> Vec<(PathBuf, flowcheck::Analysis)> {
    let dir = fixture_dir(rule, verdict);
    let files = flowcheck::rust_files(&dir);
    assert!(
        !files.is_empty(),
        "no fixtures in {} — fixture sweep would vacuously pass",
        dir.display()
    );
    files
        .into_iter()
        .map(|p| {
            let a = analyze_fixture(rule, &p);
            (p, a)
        })
        .collect()
}

#[test]
fn mediation_bad_fixtures_all_fail() {
    let results = run_dir("mediation", "bad");
    assert!(results.len() >= 6, "need >=6 must-fail mediation fixtures");
    for (path, a) in results {
        assert!(
            !a.ok(),
            "{} should produce a mediation finding but passed",
            path.display()
        );
        assert!(
            a.findings.iter().all(|f| f.rule == "mediation"),
            "{} produced non-mediation findings: {:?}",
            path.display(),
            a.findings
        );
    }
}

#[test]
fn dropped_verdict_is_the_finding_in_its_fixture() {
    let path = fixture_dir("mediation", "bad").join("dropped_verdict.rs");
    let a = analyze_fixture("mediation", &path);
    assert_eq!(a.findings.len(), 1, "{:?}", a.findings);
    assert!(a.findings[0].message.contains("verdict is dropped"));
    assert_eq!(a.findings[0].line, 14);
}

#[test]
fn a_pub_handler_is_the_finding_in_its_fixture() {
    let path = fixture_dir("mediation", "bad").join("pub_handler.rs");
    let a = analyze_fixture("mediation", &path);
    assert_eq!(a.findings.len(), 1, "{:?}", a.findings);
    assert!(a.findings[0].message.contains("`sys_read` is `pub fn`"));
    assert_eq!(a.findings[0].line, 9);
}

#[test]
fn an_object_handler_reaches_the_store_only_after_both_its_checks() {
    let path = fixture_dir("mediation", "bad").join("store_before_check.rs");
    let a = analyze_fixture("mediation", &path);
    assert_eq!(a.findings.len(), 1, "{:?}", a.findings);
    assert!(a.findings[0]
        .message
        .contains("`sys_obj_sync` reaches store records (`self.store`)"));
    assert_eq!(a.findings[0].line, 10);

    // The passing handler minus either check is the same finding: an
    // entry check alone proves the name, a modify check alone the label.
    let path = fixture_dir("mediation", "good").join("object_sync.rs");
    let good = std::fs::read_to_string(path).unwrap();
    for check in ["check_entry", "check_modify"] {
        let line = good.lines().find(|l| l.contains(check)).unwrap();
        let without = SourceFile::parse("x.rs", &good.replace(line, ""));
        let a = flowcheck::analyze(&[without]);
        assert_eq!(a.findings.len(), 1, "without {check}: {:?}", a.findings);
        assert!(a.findings[0].message.contains("reaches store records"));
    }
}

#[test]
fn table_findings_name_the_row_or_the_missing_table() {
    let path = fixture_dir("mediation", "bad").join("row_name_mismatch.rs");
    let a = analyze_fixture("mediation", &path);
    assert_eq!(a.findings.len(), 1, "{:?}", a.findings);
    assert!(a.findings[0].message.contains("`trap_peek` to `sys_read`"));
    assert_eq!(a.findings[0].line, 5);

    let no_table = SourceFile::parse("x.rs", "impl Kernel { fn sys_x(&mut self) {} }");
    let a = flowcheck::analyze(&[no_table]);
    assert_eq!(a.findings.len(), 1, "{:?}", a.findings);
    assert!(a.findings[0].message.contains("no `syscalls!` table found"));
}

#[test]
fn mediation_good_fixtures_all_pass() {
    let results = run_dir("mediation", "good");
    assert!(results.len() >= 4, "need >=4 must-pass mediation fixtures");
    for (path, a) in results {
        assert!(
            a.ok(),
            "{} should pass but produced: {:?}",
            path.display(),
            a.findings
        );
    }
}

#[test]
fn a_console_read_is_the_finding_and_a_test_may_make_one() {
    let path = fixture_dir("boundary", "bad").join("console_read.rs");
    let a = analyze_fixture("boundary", &path);
    assert_eq!(a.findings.len(), 1, "{:?}", a.findings);
    assert_eq!(a.findings[0].rule, "boundary");
    assert!(a.findings[0].message.contains("`.thread_label(`"));
    assert_eq!(a.findings[0].line, 5);
    for (path, a) in run_dir("boundary", "good") {
        assert!(a.ok(), "{}: {:?}", path.display(), a.findings);
    }
}

#[test]
fn a_console_read_spelled_as_a_path_is_the_finding_in_its_fixture() {
    let path = fixture_dir("boundary", "bad").join("path_call_read.rs");
    let a = analyze_fixture("boundary", &path);
    assert_eq!(a.findings.len(), 1, "{:?}", a.findings);
    assert_eq!(a.findings[0].rule, "boundary");
    assert!(a.findings[0].message.contains("`::thread_label`"));
    assert_eq!(a.findings[0].line, 4);
    // Taken as a function pointer it is the same read; a definition of a
    // `thread_clearance` fn is none.
    let pointer = "fn f() { let read = Kernel::thread_clearance; }";
    let a = boundary(&[SourceFile::parse("x.rs", pointer)]);
    assert_eq!(a.findings.len(), 1, "{:?}", a.findings);
    let definition = "impl K { fn thread_clearance(&self) {} }";
    assert!(boundary(&[SourceFile::parse("x.rs", definition)]).ok());
}

#[test]
fn a_row_only_a_test_calls_is_the_finding_in_its_fixture() {
    let path = fixture_dir("boundary", "bad").join("row_without_a_caller.rs");
    let a = analyze_fixture("boundary", &path);
    assert_eq!(a.findings.len(), 1, "{:?}", a.findings);
    assert_eq!(a.findings[0].rule, "boundary");
    assert!(a.findings[0]
        .message
        .contains("`trap_peek` or builds `Syscall::Peek`"));
    assert_eq!(a.findings[0].line, 6);
    // Either spelling is a caller: the good twin traps one row and
    // batches the other.
    let path = fixture_dir("boundary", "good").join("every_row_called.rs");
    assert!(analyze_fixture("boundary", &path).ok());
}

#[test]
fn exempt_fixtures_surface_their_markers() {
    // The marker-carrying good fixture must show up in the exemption
    // list — a silently swallowed marker would hide TCB surface.
    let path = fixture_dir("mediation", "good").join("exempt_selfonly.rs");
    let a = analyze_fixture("mediation", &path);
    assert!(a.ok());
    assert!(
        a.exemptions.iter().any(|e| e.name == "sys_whoami"),
        "marker on sys_whoami not surfaced: {:?}",
        a.exemptions
    );
}

//! Golden fixtures: each file under `fixtures/boundary/bad/` is the one
//! finding its test names; every file under `fixtures/boundary/good/`
//! produces none.

use flowcheck::model::SourceFile;
use std::path::{Path, PathBuf};

fn fixture_dir(verdict: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures/boundary")
        .join(verdict)
}

fn analyze_fixture(path: &Path) -> flowcheck::Analysis {
    let text = std::fs::read_to_string(path).unwrap();
    boundary(&[SourceFile::parse(&path.display().to_string(), &text)])
}

fn boundary(files: &[SourceFile]) -> flowcheck::Analysis {
    let mut a = flowcheck::Analysis::default();
    flowcheck::boundary::run(files, &mut a.findings);
    flowcheck::boundary::unused_rows(files, files, &mut a.findings);
    a
}

fn run_dir(verdict: &str) -> Vec<(PathBuf, flowcheck::Analysis)> {
    let dir = fixture_dir(verdict);
    let files = flowcheck::rust_files(&dir);
    assert!(
        !files.is_empty(),
        "no fixtures in {} — fixture sweep would vacuously pass",
        dir.display()
    );
    files
        .into_iter()
        .map(|p| {
            let a = analyze_fixture(&p);
            (p, a)
        })
        .collect()
}

#[test]
fn table_findings_name_the_row_or_the_missing_table() {
    let path = fixture_dir("bad").join("row_name_mismatch.rs");
    let a = analyze_fixture(&path);
    assert_eq!(a.findings.len(), 1, "{:?}", a.findings);
    assert!(a.findings[0].message.contains("`trap_peek` to `sys_read`"));
    assert_eq!(a.findings[0].line, 6);

    // A repository whose kernel has no table is one finding, not a pass.
    let root = std::env::temp_dir().join(format!("flowcheck-no-table-{}", std::process::id()));
    let src = root.join("crates/kernel/src");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(src.join("lib.rs"), "pub fn sys_x() {}").unwrap();
    let a = flowcheck::analyze_repo(&root).unwrap();
    std::fs::remove_dir_all(&root).unwrap();
    assert_eq!(a.findings.len(), 1, "{:?}", a.findings);
    assert!(a.findings[0].message.contains("no `syscalls!` table found"));
}

#[test]
fn a_console_read_is_the_finding_and_a_test_may_make_one() {
    let path = fixture_dir("bad").join("console_read.rs");
    let a = analyze_fixture(&path);
    assert_eq!(a.findings.len(), 1, "{:?}", a.findings);
    assert_eq!(a.findings[0].rule, "boundary");
    assert!(a.findings[0].message.contains("`.thread_label(`"));
    assert_eq!(a.findings[0].line, 5);
    for (path, a) in run_dir("good") {
        assert!(a.ok(), "{}: {:?}", path.display(), a.findings);
    }
}

#[test]
fn a_console_read_spelled_as_a_path_is_the_finding_in_its_fixture() {
    let path = fixture_dir("bad").join("path_call_read.rs");
    let a = analyze_fixture(&path);
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
    let path = fixture_dir("bad").join("row_without_a_caller.rs");
    let a = analyze_fixture(&path);
    assert_eq!(a.findings.len(), 1, "{:?}", a.findings);
    assert_eq!(a.findings[0].rule, "boundary");
    assert!(a.findings[0]
        .message
        .contains("`trap_peek` or builds `Syscall::Peek`"));
    assert_eq!(a.findings[0].line, 6);
    // Either spelling is a caller: the good twin traps one row and
    // batches the other.
    let path = fixture_dir("good").join("every_row_called.rs");
    assert!(analyze_fixture(&path).ok());
}

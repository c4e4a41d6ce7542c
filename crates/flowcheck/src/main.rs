//! flowcheck CLI.
//!
//! Modes:
//! * `flowcheck` — analyze the enclosing workspace; print the rules run and
//!   any findings; exit 1 on any finding.
//! * `flowcheck --rule boundary FILE…` — run the boundary rules over the
//!   given files (fixture mode); exit 1 on any finding.

use flowcheck::model::SourceFile;
use flowcheck::report;
use std::process::ExitCode;

const RULES: &str = "flowcheck: rule 2 (library code reads labels by trap), \
                     rule 3 (every syscall row has a library caller and spells one call)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();

    let analysis = match args.split_first() {
        Some((flag, [rule, files @ ..])) if flag == "--rule" => {
            if rule != "boundary" {
                eprintln!("flowcheck: unknown rule `{rule}` (want boundary)");
                return ExitCode::FAILURE;
            }
            let mut parsed = Vec::new();
            for path in files {
                match std::fs::read_to_string(path) {
                    Ok(text) => parsed.push(SourceFile::parse(path, &text)),
                    Err(e) => {
                        eprintln!("flowcheck: cannot read {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            let mut a = flowcheck::Analysis::default();
            flowcheck::boundary::run(&parsed, &mut a.findings);
            flowcheck::boundary::unused_rows(&parsed, &parsed, &mut a.findings);
            a
        }
        None => {
            let cwd = std::env::current_dir().expect("cwd");
            let Some(root) = flowcheck::find_workspace_root(&cwd) else {
                eprintln!("flowcheck: no workspace root found above {}", cwd.display());
                return ExitCode::FAILURE;
            };
            match flowcheck::analyze_repo(&root) {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("flowcheck: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        Some((flag, _)) => {
            eprintln!("usage: flowcheck [--rule boundary FILE...]");
            let help = flag == "--help" || flag == "-h";
            return if help {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
        }
    };

    println!("{RULES}");
    if analysis.ok() {
        println!("flowcheck: ok (0 violations)");
        ExitCode::SUCCESS
    } else {
        eprint!("{}", report::render_findings(&analysis.findings));
        eprintln!("flowcheck: {} violation(s)", analysis.findings.len());
        ExitCode::FAILURE
    }
}

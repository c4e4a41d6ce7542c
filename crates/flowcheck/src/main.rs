//! flowcheck CLI.
//!
//! Modes:
//! * `flowcheck` — analyze the enclosing workspace; print findings and
//!   the exemption list; exit 1 on any finding.
//! * `flowcheck --exemptions-out FILE` — same, and also write the
//!   exemption list to FILE (CI commits/diffs this).
//! * `flowcheck --rule mediation FILE…` — run one rule family over the
//!   given files (fixture mode); exit 1 on any finding.
//! * `flowcheck --rule determinism FILE…` — likewise.
//! * `flowcheck --rule boundary FILE…` — likewise.

use flowcheck::model::SourceFile;
use flowcheck::report;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();

    let mut rule: Option<String> = None;
    let mut exemptions_out: Option<String> = None;
    let mut files: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--rule" => {
                i += 1;
                rule = args.get(i).cloned();
            }
            "--exemptions-out" => {
                i += 1;
                exemptions_out = args.get(i).cloned();
            }
            "--help" | "-h" => {
                eprintln!("usage: flowcheck [--exemptions-out FILE] [--rule mediation|determinism|boundary FILE...]");
                return ExitCode::SUCCESS;
            }
            other => files.push(other.to_string()),
        }
        i += 1;
    }

    let analysis = if let Some(rule) = rule {
        let mut parsed = Vec::new();
        for path in &files {
            match std::fs::read_to_string(path) {
                Ok(text) => parsed.push(SourceFile::parse(path, &text)),
                Err(e) => {
                    eprintln!("flowcheck: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        match rule.as_str() {
            "mediation" => flowcheck::analyze(&parsed, &[]),
            "determinism" => flowcheck::analyze(&[], &parsed),
            "boundary" => {
                let mut a = flowcheck::Analysis::default();
                flowcheck::boundary::run(&parsed, &mut a.findings);
                flowcheck::boundary::unused_rows(&parsed, &parsed, &mut a.findings);
                a
            }
            other => {
                eprintln!(
                    "flowcheck: unknown rule `{other}` (want mediation|determinism|boundary)"
                );
                return ExitCode::FAILURE;
            }
        }
    } else {
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
    };

    let exemption_text = report::render_exemptions(&analysis.exemptions);
    if let Some(out) = exemptions_out {
        if let Err(e) = std::fs::write(Path::new(&out), &exemption_text) {
            eprintln!("flowcheck: cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
    }

    if analysis.ok() {
        print!("{exemption_text}");
        println!(
            "flowcheck: ok ({} exemption(s), 0 violations)",
            analysis.exemptions.len()
        );
        ExitCode::SUCCESS
    } else {
        eprint!("{}", report::render_findings(&analysis.findings));
        print!("{exemption_text}");
        eprintln!(
            "flowcheck: {} violation(s), {} exemption(s)",
            analysis.findings.len(),
            analysis.exemptions.len()
        );
        ExitCode::FAILURE
    }
}

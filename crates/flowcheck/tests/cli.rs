//! The CLI's exit status over the fixtures: `flowcheck --rule <rule>` on a
//! `bad` fixture exits nonzero and names the rule on stderr; on a `good`
//! fixture it exits 0.  A nonzero exit alone proves nothing — an
//! unreadable path exits 1 too — so a failure must print its `[<rule>]`
//! finding.

use std::path::Path;
use std::process::Command;

fn sweep(rule: &str, verdict: &str) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(rule)
        .join(verdict);
    let files = flowcheck::rust_files(&dir);
    assert!(!files.is_empty(), "no fixtures in {}", dir.display());
    for path in files {
        let out = Command::new(env!("CARGO_BIN_EXE_flowcheck"))
            .args(["--rule", rule])
            .arg(&path)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        let tag = format!("[{rule}]");
        if verdict == "bad" {
            assert!(!out.status.success(), "{} passed", path.display());
            assert!(
                stderr.lines().any(|l| l.contains(&tag)),
                "{}: no {tag} finding on stderr:\n{stderr}",
                path.display()
            );
        } else {
            assert!(out.status.success(), "{}:\n{stderr}", path.display());
        }
    }
}

#[test]
fn every_bad_fixture_fails_the_cli_with_its_rule() {
    sweep("mediation", "bad");
    sweep("boundary", "bad");
}

#[test]
fn every_good_fixture_passes_the_cli() {
    sweep("mediation", "good");
    sweep("boundary", "good");
}

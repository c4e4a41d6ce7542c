//! Drives the built binary the way the driver does, at `--smoke` sizes.

#[path = "../src/host_clock.rs"]
#[allow(dead_code)]
mod host_clock;
#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use host_clock::HostTimer;
use json::Json;
use std::collections::BTreeSet;
use std::process::Command;

const WORKLOADS: [&str; 7] = [
    "httpd_burst",
    "login_storm",
    "fs_mixed",
    "lfs_large",
    "persist_sync",
    "persist_recover",
    "exporter_echo",
];

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn names(manifest: &Json, key: &str) -> BTreeSet<String> {
    manifest
        .get(key)
        .and_then(Json::as_arr)
        .expect(key)
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_owned()
        })
        .collect()
}

/// Runs one smoke variant; returns the exit status and the parsed result
/// line.
fn run(workload: &str, trace: &str, extra: &[&str]) -> (bool, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_histar-benchmark"))
        .args(["--workload", workload, "--seed", "0x4177", "--reps", "1"])
        .args(["--smoke", "--trace", trace])
        .args(extra)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    (
        out.status.success(),
        Json::parse(last).expect("result line is JSON"),
    )
}

#[test]
fn manifest_lists_the_workloads_run_here() {
    assert_eq!(
        names(&manifest(), "workloads"),
        WORKLOADS.iter().map(|w| w.to_string()).collect()
    );
}

/// Everything that runs the binary lives in this one test, one child at a
/// time: a child timed while two others compete for the box's two cores
/// says nothing about how long it takes.
#[test]
fn smoke_variants() {
    every_variant_is_correct_quick_and_emits_exactly_the_manifests_names();
    a_corrupted_expected_byte_fails_the_run();
    two_runs_of_one_seed_agree_on_every_simulated_value();
}

fn every_variant_is_correct_quick_and_emits_exactly_the_manifests_names() {
    let manifest = manifest();
    for workload in WORKLOADS {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let timer = HostTimer::start();
            let (ok, result) = run(workload, trace, &[]);
            let took = timer.wall_s();
            assert!(ok, "{workload} --trace {trace} exited non-zero: {result:?}");
            assert!(took < 2.0, "{workload} --trace {trace} took {took:.2} s");

            let keys: Vec<&str> = result
                .as_obj()
                .expect("an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(Json::as_f64) >= Some(1.0));

            let metrics = result
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics");
            let emitted: BTreeSet<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
            assert_eq!(emitted, names(&manifest, key), "{workload} --trace {trace}");
            for (name, m) in metrics {
                let value = m.get("value").and_then(Json::as_f64);
                assert!(value.is_some_and(f64::is_finite), "{workload}: {name}");
                assert!(m.get("unit").and_then(Json::as_str).is_some(), "{name}");
                if key == "end_to_end" {
                    assert!(value > Some(0.0), "{workload}: {name} must never be 0");
                }
            }
        }
    }
}

fn a_corrupted_expected_byte_fails_the_run() {
    for workload in WORKLOADS {
        let (ok, result) = run(workload, "0", &["--corrupt"]);
        assert!(!ok, "{workload} --corrupt must exit non-zero");
        assert_eq!(
            result.get("correct"),
            Some(&Json::Bool(false)),
            "{workload}"
        );
        assert!(
            result.get("failed").and_then(Json::as_f64) > Some(0.0),
            "{workload}"
        );
    }
}

fn two_runs_of_one_seed_agree_on_every_simulated_value() {
    let simulated = |workload: &str| {
        let (_, result) = run(workload, "1", &[]);
        result
            .get("metrics")
            .and_then(Json::as_obj)
            .expect("metrics")
            .iter()
            .filter(|(k, _)| k.starts_with("model.") || k.ends_with("_per_op"))
            .map(|(k, v)| format!("{k}={:?}", v.get("value")))
            .collect::<Vec<_>>()
    };
    for workload in ["login_storm", "persist_sync"] {
        assert_eq!(simulated(workload), simulated(workload), "{workload}");
    }
}

//! Every name the benchmark emits: the single source `BENCHMARK.json` is
//! generated from (`--manifest`) and checked against by the test suite.

use crate::json::Json;
use crate::workloads::WORKLOADS;

/// Seconds one driver run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 12;

/// An end-to-end metric: what a user of the system would see.
pub struct EndToEnd {
    /// The metric's name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen before a change
    /// counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics; every workload reports all of them.
///
/// The driver's contract wants end-to-end metrics that are never 0 and
/// whose spread over ten *different* seeds stays within the bound, so two
/// of the issue's candidates live elsewhere: `failed_op_share` travels as
/// the result's `failed` ÷ `attempted` (any failure makes the run exit
/// non-zero), and the simulated latency percentiles are per-layer metrics
/// (`model.p50_us`, `model.p99_us`) — they repeat exactly for one seed but
/// move by several percent with the scheduler seed on `httpd_burst`, and
/// are bit-identical across seeds on `fs_mixed`.
///
/// The bounds are what this box allows, not what one would like: it is a
/// shared 2-vCPU microVM whose speed drifts by tens of percent within
/// seconds.  Host times are stated at a reference speed (see
/// `host_clock::ScaledTimer`), which brings the run-to-run spread of
/// `host_ops_per_s` down from 9–32% to 2–5% on six workloads and 6–9% on
/// `httpd_burst`, whose one opaque 1.7 s call cannot be timed in parts;
/// that workload sets the bound.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "host_ops_per_s",
        unit: "ops/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "model_ops_per_s",
        unit: "ops/s",
        better: "higher",
        bound: 0.10,
    },
    EndToEnd {
        name: "host_peak_rss_mib",
        unit: "MiB",
        better: "lower",
        bound: 0.20,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// A per-layer metric: `(name, unit, better)`.  The layer is the name's
/// first dotted component; README.md says which end-to-end metric each
/// should move, on which workload.  A workload reports 0 for a metric it
/// does not exercise (`exporter.*` on `fs_mixed`, a probe homed elsewhere).
pub const PER_LAYER: [(&str, &str, &str); 88] = [
    // model: simulated latency of one op (exact for a seed)
    ("model.p50_us", "us", "lower"),
    ("model.p99_us", "us", "lower"),
    ("model.latency_samples", "count", "higher"),
    // label
    ("label.checks_per_op", "count", "lower"),
    ("label.cache_hit_ratio", "ratio", "higher"),
    ("label.interned", "count", "lower"),
    ("label.leq_host_ns", "ns", "lower"),
    ("label.leq_cached_host_ns", "ns", "lower"),
    // kernel: dispatch and the batched ABI
    ("kernel.syscalls_per_op", "count", "lower"),
    ("kernel.batches_per_op", "count", "lower"),
    ("kernel.mean_batch_size", "count", "higher"),
    ("kernel.errors_per_kop", "count", "lower"),
    ("kernel.objects_created_per_op", "count", "lower"),
    ("kernel.objects_live_end", "count", "lower"),
    ("kernel.handle_resolutions_per_op", "count", "higher"),
    ("kernel.gate_invocations_per_op", "count", "lower"),
    ("kernel.host_ns_per_syscall", "ns", "lower"),
    ("kernel.trap_host_ns", "ns", "lower"),
    ("kernel.batch_entry_host_ns", "ns", "lower"),
    ("kernel.dispatch_model_ns_per_op", "ns", "lower"),
    // sched
    ("sched.quanta_per_op", "count", "lower"),
    ("sched.context_switches_per_op", "count", "lower"),
    ("sched.completion_wakeups_per_op", "count", "lower"),
    ("sched.wake_examined_per_wake", "ratio", "lower"),
    ("sched.parked_high_water", "count", "lower"),
    ("sched.model_ns_per_op", "ns", "lower"),
    ("sched.quantum_host_ns", "ns", "lower"),
    // unix
    ("unix.read_host_ns", "ns", "lower"),
    ("unix.write_host_ns", "ns", "lower"),
    ("unix.open_close_host_ns", "ns", "lower"),
    ("unix.readdir_host_ns", "ns", "lower"),
    ("unix.read_model_ns", "ns", "lower"),
    ("unix.write_model_ns", "ns", "lower"),
    ("unix.open_close_model_ns", "ns", "lower"),
    ("unix.readdir_model_ns", "ns", "lower"),
    ("unix.spawn_host_us", "us", "lower"),
    ("unix.gatecall_host_us", "us", "lower"),
    ("unix.persist_create_host_us_at_1k", "us", "lower"),
    // store
    ("store.wal_frames_per_op", "count", "lower"),
    ("store.wal_records_per_frame", "count", "higher"),
    ("store.wal_bytes_per_user_byte", "ratio", "lower"),
    ("store.checkpoints", "count", "lower"),
    ("store.log_applications", "count", "lower"),
    ("store.objects_written_per_op", "count", "lower"),
    ("store.inplace_flushes_per_op", "count", "lower"),
    ("store.recover_host_us", "us", "lower"),
    ("store.recover_model_us", "us", "lower"),
    ("store.recover.superblock_model_us", "us", "lower"),
    ("store.recover.preload_model_us", "us", "lower"),
    ("store.recover.btree_rebuild_model_us", "us", "lower"),
    ("store.recover.wal_replay_model_us", "us", "lower"),
    ("store.put_host_ns", "ns", "lower"),
    ("store.get_host_ns", "ns", "lower"),
    ("store.bptree_insert_host_ns", "ns", "lower"),
    ("store.bptree_range_host_ns", "ns", "lower"),
    ("store.sync_pages_host_us_per_mib", "us", "lower"),
    // sim: the modelled disk and wire, and the model's error against the
    // paper (target 1.0)
    ("sim.disk_busy_share", "ratio", "lower"),
    ("sim.disk_writes_per_op", "count", "lower"),
    ("sim.disk_flushes_per_op", "count", "lower"),
    ("sim.disk_bytes_per_user_byte", "ratio", "lower"),
    ("sim.net_wire_share", "ratio", "lower"),
    ("sim.paper_ratio.lfs_seq_write", "ratio", "lower"),
    ("sim.paper_ratio.lfs_sync_random_write", "ratio", "lower"),
    ("sim.paper_ratio.lfs_uncached_read", "ratio", "lower"),
    // net
    ("net.connect_host_us", "us", "lower"),
    ("net.send_recv_host_us", "us", "lower"),
    ("net.frames_per_op", "count", "lower"),
    // auth
    ("auth.login_host_us", "us", "lower"),
    ("auth.login_syscalls", "count", "lower"),
    // exporter
    ("exporter.call_host_us_b1", "us", "lower"),
    ("exporter.call_host_us_b32", "us", "lower"),
    ("exporter.call_model_us_b1", "us", "lower"),
    ("exporter.call_model_us_b32", "us", "lower"),
    ("exporter.frames_per_call", "count", "lower"),
    ("exporter.rpc_model_ns_per_call", "ns", "lower"),
    // httpd
    ("httpd.build_host_ms", "ms", "lower"),
    ("httpd.build_share", "ratio", "lower"),
    ("httpd.syscalls_per_request", "count", "lower"),
    ("httpd.quanta_per_request", "count", "lower"),
    ("httpd.host_us_per_request_at_500", "us", "lower"),
    ("httpd.host_us_per_request_at_1500", "us", "lower"),
    ("httpd.host_scaling_exponent", "ratio", "lower"),
    // obs: the cost and the completeness of tracing itself
    ("obs.traced_over_untraced_host", "ratio", "lower"),
    ("obs.spans_recorded", "count", "higher"),
    ("obs.spans_dropped", "count", "lower"),
    ("obs.model_ticks_equal", "count", "higher"),
    ("obs.model_unattributed_share", "ratio", "lower"),
    // host: whether the box let the rep run
    ("host.cpu_share", "ratio", "higher"),
];

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--offline",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|(name, unit, better)| {
                        Json::obj([
                            ("name", Json::str(*name)),
                            ("unit", Json::str(*unit)),
                            ("better", Json::str(*better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        (1..=16).contains(&unit.len())
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn every_name_is_well_formed_and_used_once() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.name);
            assert!(matches!(m.better, "higher" | "lower"), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for (name, unit, better) in PER_LAYER {
            assert!(valid_name(name) && seen.insert(name), "{name}");
            assert!(valid_unit(unit), "{name}");
            assert!(matches!(better, "higher" | "lower"), "{name}");
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn setup_s_is_an_end_to_end_metric_with_the_largest_bound() {
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` is generated (`--manifest`), never edited: the
    /// committed file must be exactly what the tables above produce.
    #[test]
    fn benchmark_json_matches_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let committed = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `benchmark/run.sh --manifest > BENCHMARK.json`"
        );
    }
}

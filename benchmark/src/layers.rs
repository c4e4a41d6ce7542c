//! Per-layer metrics every workload shares: registry deltas over the timed
//! region ÷ ops (these repeat exactly), and self times from the traced
//! rep's merged spans.  Workload-specific ones (`unix.read_host_ns`,
//! `exporter.call_model_us_b1`, …) are computed by the workload itself and
//! probes by `probes.rs`.

use crate::trace::{layer_times, BenchSpan, LayerTimes};
use crate::workloads::Rep;
use std::collections::BTreeMap;

/// `a ÷ b`, 0 when `b` is 0 (a layer the workload never entered).
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Metrics from the registry delta alone.
pub fn from_counters(rep: &Rep, out: &mut BTreeMap<&'static str, f64>) {
    let c = |name: &str| rep.counters.get(name) as f64;
    let ops = rep.ops as f64;
    let per_op = |name: &str| ratio(c(name), ops);
    let model_ns = rep.model_ns as f64;
    let user_bytes = rep.user_bytes as f64;

    out.insert("label.checks_per_op", per_op("kernel.label_checks"));
    out.insert(
        "label.cache_hit_ratio",
        ratio(
            c("label_cache.hits"),
            c("label_cache.hits") + c("label_cache.misses"),
        ),
    );
    out.insert("label.interned", c("label_cache.interned"));

    out.insert("kernel.syscalls_per_op", per_op("kernel.syscalls"));
    out.insert("kernel.batches_per_op", per_op("dispatch.batches"));
    out.insert(
        "kernel.mean_batch_size",
        ratio(c("dispatch.batch_entries"), c("dispatch.batches")),
    );
    out.insert("kernel.errors_per_kop", 1e3 * per_op("kernel.errors"));
    out.insert(
        "kernel.objects_created_per_op",
        per_op("kernel.objects_created"),
    );
    out.insert("kernel.objects_live_end", c("kernel.objects"));
    out.insert(
        "kernel.handle_resolutions_per_op",
        per_op("dispatch.handle_resolutions"),
    );
    out.insert(
        "kernel.gate_invocations_per_op",
        per_op("kernel.gate_invocations"),
    );

    out.insert("sched.quanta_per_op", per_op("sched.quanta"));
    out.insert(
        "sched.context_switches_per_op",
        per_op("sched.context_switches"),
    );
    out.insert(
        "sched.completion_wakeups_per_op",
        per_op("sched.completion_wakeups"),
    );
    out.insert(
        "sched.wake_examined_per_wake",
        ratio(
            c("sched.wake_examined"),
            c("sched.alert_wakeups") + c("sched.completion_wakeups") + c("sched.external_wakeups"),
        ),
    );
    out.insert("sched.parked_high_water", c("sched.parked_high_water"));

    out.insert("store.wal_frames_per_op", per_op("wal.frames"));
    out.insert(
        "store.wal_records_per_frame",
        ratio(c("wal.appends"), c("wal.frames")),
    );
    out.insert(
        "store.wal_bytes_per_user_byte",
        ratio(c("wal.bytes_appended"), user_bytes),
    );
    out.insert("store.checkpoints", c("store.checkpoints"));
    out.insert("store.log_applications", c("store.log_applications"));
    out.insert(
        "store.objects_written_per_op",
        per_op("store.objects_written"),
    );
    out.insert(
        "store.inplace_flushes_per_op",
        per_op("store.inplace_flushes"),
    );

    out.insert("sim.disk_busy_share", ratio(c("disk.busy_ns"), model_ns));
    out.insert("sim.disk_writes_per_op", per_op("disk.writes"));
    out.insert("sim.disk_flushes_per_op", per_op("disk.flushes"));
    out.insert(
        "sim.disk_bytes_per_user_byte",
        ratio(c("disk.bytes_written"), user_bytes),
    );

    out.insert(
        "net.frames_per_op",
        ratio(c("dispatch.net_transmit") + c("dispatch.net_receive"), ops),
    );
}

/// Metrics from the traced rep's spans; returns the layer split for the
/// summary table.
pub fn from_spans(rep: &Rep, out: &mut BTreeMap<&'static str, f64>) -> LayerTimes {
    let ops = rep.ops as f64;
    let model_ns = rep.model_ns as f64;
    let empty = Vec::new();
    let kernel = rep.kernel.as_ref();
    // Only what ran inside the timed region (the recorder is armed during
    // set-up on the workloads whose builders arm it).
    let spans: Vec<_> = kernel
        .map_or(&empty, |k| &k.spans)
        .iter()
        .filter(|s| s.start >= rep.model_start)
        .copied()
        .collect();
    let bench: Vec<_> = rep
        .spans
        .iter()
        .filter(|s| s.model_end > rep.model_start)
        .map(|s| BenchSpan {
            model_start: s.model_start.max(rep.model_start),
            ..*s
        })
        .collect();
    let times = layer_times(&bench, &spans);
    let self_ns = |layer: &str| times.model_self_ns.get(layer).copied().unwrap_or(0) as f64;

    out.insert("kernel.dispatch_model_ns_per_op", self_ns("dispatch") / ops);
    out.insert("sched.model_ns_per_op", self_ns("sched") / ops);
    out.insert("exporter.rpc_model_ns_per_call", self_ns("rpc") / ops);

    // One recovery = one `superblock` span; every phase is reported per
    // recovery.
    let phase = |name: &'static str| {
        times
            .kernel_totals
            .get(&("recover", name))
            .copied()
            .unwrap_or((0, 0))
    };
    let recoveries = phase("superblock").1 as f64;
    let per_recovery_us = |ns: u64| ratio(ns as f64 / 1e3, recoveries);
    let all_phases: u64 = times
        .kernel_totals
        .iter()
        .filter(|((cat, _), _)| *cat == "recover")
        .map(|(_, (ns, _))| ns)
        .sum();
    out.insert("store.recover_model_us", per_recovery_us(all_phases));
    out.insert(
        "store.recover.superblock_model_us",
        per_recovery_us(phase("superblock").0),
    );
    out.insert(
        "store.recover.preload_model_us",
        per_recovery_us(phase("preload").0),
    );
    out.insert(
        "store.recover.btree_rebuild_model_us",
        per_recovery_us(phase("btree_rebuild").0),
    );
    out.insert(
        "store.recover.wal_replay_model_us",
        per_recovery_us(phase("wal_replay").0),
    );
    let (mut n, mut host) = (0u64, 0u64);
    for s in rep.spans.iter().filter(|s| s.name == "crash_and_recover") {
        n += 1;
        host += s.host_end - s.host_start;
    }
    out.insert("store.recover_host_us", ratio(host as f64 / 1e3, n as f64));

    // The calling node waits on the link from the end of each `send` to
    // the start of the matching `recv`: wire time plus per-message CPU.
    let mut wire_ns = 0u64;
    let mut sent_at = None;
    for s in spans.iter().filter(|s| s.cat == "rpc") {
        match s.name {
            "send" => sent_at = Some(s.end),
            "recv" => wire_ns += sent_at.take().map_or(0, |t| s.start.saturating_sub(t)),
            _ => {}
        }
    }
    out.insert("sim.net_wire_share", ratio(wire_ns as f64, model_ns));

    // What no kernel span accounts for.  Disk time is not added on top: it
    // is already inside the dispatch, wal and recover spans that caused it.
    let attributed: u64 = ["dispatch", "sched", "wal", "recover", "rpc"]
        .iter()
        .map(|l| times.model_self_ns.get(l).copied().unwrap_or(0))
        .sum::<u64>()
        + wire_ns;
    out.insert(
        "obs.model_unattributed_share",
        (1.0 - ratio(attributed as f64, model_ns)).max(0.0),
    );
    out.insert(
        "obs.spans_recorded",
        (rep.spans.len() + kernel.map_or(0, |k| k.spans.len())) as f64,
    );
    out.insert(
        "obs.spans_dropped",
        kernel.map_or(0, |k| k.spans_dropped) as f64,
    );
    times
}

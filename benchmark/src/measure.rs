//! One workload, measured: the untraced run that yields the end-to-end
//! metrics, and the traced run that yields the per-layer ones.

use crate::host_clock::{peak_rss_mib, HostTimer};
use crate::json::Json;
use crate::layers;
use crate::names::{END_TO_END, PER_LAYER};
use crate::stats::{median, p99, percentile, quartiles, Fnv};
use crate::trace::chrome_trace_json;
use crate::workloads::{Cfg, Rep, Workload};
use std::collections::BTreeMap;
use std::path::Path;

/// Fewest timed reps a median is taken over.
const MIN_REPS: usize = 3;
/// Timed reps when neither `--reps` nor `--seconds` is given.
const DEFAULT_REPS: usize = 5;

/// When to stop repeating.
#[derive(Clone, Copy, Debug, Default)]
pub struct Policy {
    /// Exactly this many timed reps.
    pub reps: Option<usize>,
    /// Keep going until this many seconds have been measured (and at least
    /// [`MIN_REPS`] reps).
    pub seconds: Option<f64>,
}

impl Policy {
    fn done(&self, reps: usize, elapsed_s: f64) -> bool {
        match (self.reps, self.seconds) {
            (Some(n), _) => reps >= n,
            (None, Some(s)) => reps >= MIN_REPS && elapsed_s >= s,
            (None, None) => reps >= DEFAULT_REPS,
        }
    }

    /// The timed rep after which peak RSS is read: the allocator's
    /// high-water mark creeps up with every rep and a time-bounded run does
    /// not always fit the same number, so it is read at the one rep count
    /// every run reaches.
    fn rss_rep(&self) -> usize {
        self.reps.map_or(MIN_REPS, |n| n.min(MIN_REPS))
    }
}

/// What one invocation measured.
pub struct Outcome {
    /// Ops attempted over every rep run.
    pub attempted: u64,
    /// Ops that failed over every rep run.
    pub failed: u64,
    /// Whether every output check and every determinism check held.
    pub correct: bool,
    /// The contract's metrics: `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Everything else worth printing (quartiles, digests, the layer split).
    pub detail: Json,
}

impl Outcome {
    /// The result line the driver reads.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|&(name, value, unit)| {
                    (
                        name,
                        Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                    )
                })),
            ),
        ])
        .render()
    }
}

/// The simulated side of a rep, which must repeat exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
struct ModelPrint {
    model_ns: u64,
    latency_samples: usize,
    latency_digest: u64,
    counters: crate::workloads::Counters,
}

impl ModelPrint {
    fn of(rep: &Rep) -> ModelPrint {
        let mut fnv = Fnv::default();
        rep.latencies.iter().for_each(|&l| fnv.write_u64(l));
        ModelPrint {
            model_ns: rep.model_ns,
            latency_samples: rep.latencies.len(),
            latency_digest: fnv.finish(),
            counters: rep.counters.clone(),
        }
    }

    /// Whether a traced rep reproduced this untraced one.  Tracing
    /// legitimately adds the `trace.*`/`spans.*` counters, and on
    /// `login_storm` only the traced rep has latencies at all.
    fn reproduced_by(&self, traced: &ModelPrint) -> bool {
        self.model_ns == traced.model_ns
            && (self.latency_samples == 0 || self.latency_digest == traced.latency_digest)
    }
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn add(&mut self, rep: &Rep) {
        self.attempted += rep.ops;
        self.failed += rep.failed;
        for f in &rep.failures {
            if self.failures.len() < 5 {
                self.failures.push(f.clone());
            }
        }
    }
}

fn spread(values: &[f64]) -> Json {
    let (q1, q3) = quartiles(values);
    Json::obj([
        ("median", Json::Num(median(values))),
        ("q1", Json::Num(q1)),
        ("q3", Json::Num(q3)),
        ("n", Json::Num(values.len() as f64)),
        (
            "values",
            Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()),
        ),
    ])
}

fn latency_summary(latencies: &mut [u64]) -> (f64, f64) {
    latencies.sort_unstable();
    let us = |ns: Option<u64>| ns.map_or(0.0, |ns| ns as f64 / 1e3);
    (us(percentile(latencies, 0.50)), us(p99(latencies)))
}

/// The untraced run: one untimed warm-up rep, then timed reps until
/// `policy` is satisfied.  Host metrics are medians over the timed reps;
/// the simulated side of every rep must be identical.
pub fn end_to_end(w: &Workload, cfg: Cfg, policy: Policy) -> Outcome {
    let mut tally = Tally::default();
    let warm = (w.run)(&cfg);
    tally.add(&warm);
    let mut setups = vec![warm.setup.scaled_s];
    let print = ModelPrint::of(&warm);
    let (ops, model_ns) = (warm.ops, warm.model_ns);

    let (mut host_s, mut host_raw_s, mut cpu_share) = (Vec::new(), Vec::new(), Vec::new());
    let mut identical = true;
    let mut rss = 0.0;
    let timer = HostTimer::start();
    while !policy.done(host_s.len(), timer.wall_s()) {
        let rep = (w.run)(&cfg);
        tally.add(&rep);
        identical &= ModelPrint::of(&rep) == print;
        setups.push(rep.setup.scaled_s);
        host_s.push(rep.host.scaled_s);
        host_raw_s.push(rep.host.wall_s);
        cpu_share.push(rep.host.cpu_share());
        if host_s.len() == policy.rss_rep() {
            rss = peak_rss_mib();
        }
    }
    if !identical {
        tally
            .failures
            .push("simulated time, latencies or counters differ between reps".into());
    }

    let host_median = median(&host_s);
    let values = [
        ops as f64 / host_median,
        ops as f64 / (model_ns as f64 / 1e9),
        rss,
        median(&setups),
    ];
    let correct = tally.failed == 0 && identical;
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        correct,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, v, m.unit))
            .collect(),
        detail: Json::obj([
            ("workload", Json::str(w.name)),
            ("seed", Json::Num(cfg.seed as f64)),
            ("ops_per_rep", Json::Num(ops as f64)),
            ("host_s", spread(&host_s)),
            ("host_raw_s", spread(&host_raw_s)),
            ("setup_s", spread(&setups)),
            ("host_cpu_share", spread(&cpu_share)),
            ("model_s", Json::Num(model_ns as f64 / 1e9)),
            (
                "failed_op_share",
                Json::Num(tally.failed as f64 / tally.attempted.max(1) as f64),
            ),
            ("model_identical_across_reps", Json::Bool(identical)),
            (
                "failures",
                Json::Arr(tally.failures.into_iter().map(Json::Str).collect()),
            ),
        ]),
    }
}

/// Untraced reps the traced rep is compared against.
const UNTRACED_REPS: usize = 2;

/// The traced run: a warm-up, [`UNTRACED_REPS`] untraced reps, then one rep
/// with the audit trace, the flight recorder and the benchmark's spans on.
/// The traced rep must reproduce the untraced simulated time exactly; its
/// host time over theirs is the tracing overhead.  Writes
/// `TRACE_<workload>.json` under `out_dir`.
pub fn per_layer(w: &Workload, cfg: Cfg, out_dir: &Path) -> Outcome {
    let mut tally = Tally::default();
    tally.add(&(w.run)(&cfg));
    let mut untraced = Vec::new();
    for _ in 0..UNTRACED_REPS {
        let rep = (w.run)(&cfg);
        tally.add(&rep);
        untraced.push(rep);
    }
    let host_s: Vec<f64> = untraced.iter().map(|r| r.host.scaled_s).collect();
    let cpu: Vec<f64> = untraced.iter().map(|r| r.host.cpu_share()).collect();
    let untraced_host_s = median(&host_s);
    let last = untraced.pop().expect("at least one untraced rep");

    let mut traced = (w.run)(&Cfg {
        tracing: true,
        ..cfg
    });
    tally.add(&traced);
    let ticks_equal = ModelPrint::of(&last).reproduced_by(&ModelPrint::of(&traced));
    if !ticks_equal {
        tally.failures.push(format!(
            "tracing changed simulated time: {} ns untraced, {} ns traced",
            last.model_ns, traced.model_ns
        ));
    }

    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|&(n, _, _)| (n, 0.0)).collect();
    layers::from_counters(&traced, &mut m);
    let times = layers::from_spans(&traced, &mut m);
    // Workload-specific metrics: host-clock ones from the untraced rep,
    // span-derived ones only the traced rep has.
    m.extend(traced.layer.iter().map(|(k, v)| (*k, *v)));
    m.extend(last.layer.iter().map(|(k, v)| (*k, *v)));
    match (w.probes)(&cfg) {
        Ok(p) => m.extend(p),
        Err(e) => {
            tally.failed += 1;
            tally.failures.push(e);
        }
    }
    let (p50_us, p99_us) = latency_summary(&mut traced.latencies);
    m.insert("model.p50_us", p50_us);
    m.insert("model.p99_us", p99_us);
    m.insert("model.latency_samples", traced.latencies.len() as f64);
    m.insert(
        "kernel.host_ns_per_syscall",
        untraced_host_s * 1e9 / traced.counters.get("kernel.syscalls").max(1) as f64,
    );
    m.insert(
        "obs.traced_over_untraced_host",
        traced.host.scaled_s / untraced_host_s,
    );
    m.insert("obs.model_ticks_equal", f64::from(u8::from(ticks_equal)));
    m.insert("host.cpu_share", median(&cpu));

    let kernel = traced.kernel.as_ref();
    let trace_path = out_dir.join(format!("TRACE_{}.json", w.name));
    let written = std::fs::create_dir_all(out_dir).and_then(|()| {
        std::fs::write(
            &trace_path,
            chrome_trace_json(&traced.spans, kernel.map_or(&[], |k| &k.spans)),
        )
    });
    if let Err(e) = written {
        // A trace that cannot be written is lost observability, not a
        // wrong result.
        eprintln!("warning: {}: {e}", trace_path.display());
    }

    let ops = traced.ops as f64;
    let model_ns = traced.model_ns as f64;
    let layer_rows = times
        .model_self_ns
        .iter()
        .map(|(layer, &ns)| {
            Json::obj([
                ("layer", Json::str(*layer)),
                ("model_ns_per_op", Json::Num(ns as f64 / ops)),
                (
                    "host_ns_per_op",
                    Json::Num(times.host_self_ns.get(layer).copied().unwrap_or(0) as f64 / ops),
                ),
                ("model_share", Json::Num(ns as f64 / model_ns)),
            ])
        })
        .collect();
    let correct = tally.failed == 0 && ticks_equal;
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        correct,
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit, _)| (name, m[name], unit))
            .collect(),
        detail: Json::obj([
            ("workload", Json::str(w.name)),
            (
                "trace_digest",
                Json::Str(format!("{:016x}", kernel.map_or(0, |k| k.digest()))),
            ),
            (
                "audit_records",
                Json::Num(kernel.map_or(0, |k| k.records) as f64),
            ),
            ("trace_file", Json::Str(trace_path.display().to_string())),
            ("layers", Json::Arr(layer_rows)),
            (
                "failures",
                Json::Arr(tally.failures.into_iter().map(Json::Str).collect()),
            ),
        ]),
    }
}

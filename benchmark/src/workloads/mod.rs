//! The seven workloads.  Each is one function from a [`Cfg`] to a [`Rep`]:
//! it builds a fresh world (timed as set-up), runs a fixed, seeded,
//! closed-loop op stream from one client thread (the timed region), and
//! checks every output.  Why each was chosen is recorded in
//! `BENCHMARK.json` and the README.

pub mod exporter_echo;
pub mod fs_mixed;
pub mod httpd_burst;
pub mod lfs_large;
pub mod login_storm;
pub mod persist_recover;
pub mod persist_sync;

use crate::host_clock::HostElapsed;
use crate::probes::{self, Probes};
use crate::stats::Fnv;
use crate::trace::{BenchSpan, Meter};
use histar::kernel::Kernel;
use histar::obs::{MetricKind, Recorder, Span as KernelSpan};
use histar::sim::SimRng;
use std::collections::BTreeMap;

/// Audit-trace ring size for traced reps: above the largest workload's
/// syscall count, so the digest covers the whole run.
pub const TRACE_CAPACITY: usize = 1 << 21;
/// Flight-recorder ring size for traced reps.
pub const RECORDER_CAPACITY: usize = 1 << 20;

/// How one rep is to be run.
#[derive(Clone, Copy, Debug)]
pub struct Cfg {
    /// Seed of the generated inputs (and of the scheduler's interleaving).
    pub seed: u64,
    /// Tiny sizes, for the test suite.
    pub smoke: bool,
    /// Audit trace, flight recorder and benchmark spans on.
    pub tracing: bool,
    /// Flip one expected byte, to prove the output checks can fail.
    pub corrupt: bool,
}

impl Cfg {
    /// `full` at full size, `smoke` under `--smoke`.
    pub fn size(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    /// Audit-trace capacity for world builders that take one (0 = off).
    pub fn trace_capacity(&self) -> usize {
        if self.tracing {
            TRACE_CAPACITY
        } else {
            0
        }
    }

    /// Flight-recorder capacity for world builders that take one.
    pub fn recorder_capacity(&self) -> usize {
        if self.tracing {
            RECORDER_CAPACITY
        } else {
            0
        }
    }

    /// Turns the kernel's audit trace and flight recorder on when tracing.
    pub fn arm(&self, kernel: &mut Kernel) {
        if self.tracing {
            kernel.enable_syscall_trace(TRACE_CAPACITY);
            kernel.enable_flight_recorder(RECORDER_CAPACITY);
        }
    }
}

/// A slice of `noise` whose length (`min..=max`) and position are drawn
/// from `rng`: a payload that is an input, not a constant.
pub fn seeded_slice<'a>(rng: &mut SimRng, noise: &'a [u8], min: usize, max: usize) -> &'a [u8] {
    let len = min + rng.next_below((max - min + 1) as u64) as usize;
    let at = rng.next_below((noise.len() - max) as u64) as usize;
    &noise[at..at + len]
}

/// A snapshot of the scalar metrics in the machine's registry, as
/// `name → (is a gauge, value)`.  Histogram buckets and indexed gauges are
/// left out: nothing here reads them, and a snapshot is taken inside
/// `persist_recover`'s timed region, so it has to be cheap.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters(BTreeMap<&'static str, (bool, u64)>);

impl Counters {
    /// The scalars `Kernel::metrics()` exports, plus the device-frame
    /// counts the dispatch stats keep per syscall.
    pub fn snapshot(kernel: &Kernel) -> Counters {
        let mut map: BTreeMap<&'static str, (bool, u64)> = kernel
            .metrics()
            .iter()
            .filter(|m| m.bucket.is_none())
            .map(|m| (m.name, (m.kind == MetricKind::Gauge, m.value)))
            .collect();
        let d = kernel.dispatch_stats();
        for (name, syscall) in [
            ("dispatch.net_transmit", "net_transmit"),
            ("dispatch.net_receive", "net_receive"),
        ] {
            map.insert(name, (false, d.count(syscall).unwrap_or(0)));
        }
        Counters(map)
    }

    /// The delta since `before`: counters subtract, gauges keep their
    /// later level.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|(&k, &(gauge, v))| {
                    let base = if gauge { 0 } else { before.get(k) };
                    (k, (gauge, v.saturating_sub(base)))
                })
                .collect(),
        )
    }

    /// Folds in another kernel's counters (the fabric has two nodes, a
    /// recovery workload a kernel per crash): counters add up, a gauge
    /// keeps the highest level any of them reached.
    pub fn add(&mut self, other: &Counters) {
        for (&k, &(gauge, v)) in &other.0 {
            let mine = &mut self.0.entry(k).or_insert((gauge, 0)).1;
            *mine = if gauge { v.max(*mine) } else { *mine + v };
        }
    }

    /// Only the metrics whose name starts with `prefix`.
    pub fn with_prefix(&self, prefix: &str) -> Counters {
        Counters(
            self.0
                .iter()
                .filter(|(k, _)| k.starts_with(prefix))
                .map(|(&k, &v)| (k, v))
                .collect(),
        )
    }

    /// One value (0 when the machine exports no such metric).
    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).map_or(0, |&(_, v)| v)
    }
}

/// What a traced rep collected from the kernel.
#[derive(Clone, Debug, Default)]
pub struct KernelTrace {
    fnv: Fnv,
    /// Audit-trace records the digest covers.
    pub records: u64,
    /// The flight recorder's spans.
    pub spans: Vec<KernelSpan>,
    /// Spans the recorder evicted.
    pub spans_dropped: u64,
}

impl KernelTrace {
    /// Reads the audit trace and the flight recorder out of `kernel`.
    pub fn collect(kernel: &Kernel) -> KernelTrace {
        let mut t = KernelTrace::default();
        t.absorb_audit(kernel);
        t.absorb_recorder(kernel.recorder(), 0);
        t
    }

    /// Folds `kernel`'s audit trace into the running digest (a workload
    /// that goes through several kernels calls this once per kernel).
    pub fn absorb_audit(&mut self, kernel: &Kernel) {
        for r in kernel.syscall_trace().into_iter().flat_map(|t| t.records()) {
            self.fnv.write_u64(r.seq);
            self.fnv.write_u64(r.tick);
            self.fnv.write_u64(r.tid.raw());
            self.fnv.write(r.syscall.as_bytes());
            self.fnv.write(&[u8::from(r.ok)]);
            self.records += 1;
        }
    }

    /// Appends the spans `recorder` holds, shifted by `offset` ns (where
    /// its machine's tick 0 sits on the rep's timeline).
    pub fn absorb_recorder(&mut self, recorder: &Recorder, offset: u64) {
        self.spans
            .extend(recorder.snapshot().into_iter().map(|mut s| {
                s.start += offset;
                s.end += offset;
                s
            }));
        self.spans_dropped += recorder.dropped();
    }

    /// FNV over every audit-trace record absorbed, in order.
    pub fn digest(&self) -> u64 {
        self.fnv.finish()
    }
}

/// The result of one rep.
#[derive(Debug, Default)]
pub struct Rep {
    /// Ops attempted in the timed region.
    pub ops: u64,
    /// Ops that errored, were refused, or returned wrong bytes.
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
    /// Host time building the world before the timed region.
    pub setup: HostElapsed,
    /// Host time of the timed region.
    pub host: HostElapsed,
    /// Where the timed region starts on the rep's simulated timeline.
    pub model_start: u64,
    /// Simulated ns of the timed region.
    pub model_ns: u64,
    /// Payload bytes the ops wrote or sent.
    pub user_bytes: u64,
    /// Simulated latency of each op (ns), unsorted.
    pub latencies: Vec<u64>,
    /// Registry delta over the timed region.
    pub counters: Counters,
    /// Workload-specific per-layer metrics, by name.
    pub layer: BTreeMap<&'static str, f64>,
    /// Benchmark spans (traced reps).
    pub spans: Vec<BenchSpan>,
    /// Kernel-side trace (traced reps).
    pub kernel: Option<KernelTrace>,
}

impl Rep {
    /// Counts one failed op, keeping the first few messages.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what());
        }
    }

    /// Gives the rep up before its timed region: every op counts as failed.
    pub fn abandon(mut self, why: String) -> Rep {
        self.failed = self.ops;
        self.failures.push(why);
        self
    }

    /// Moves the meter's samples and spans into the rep.
    pub fn take_meter(&mut self, meter: Meter) {
        self.latencies = meter.latencies;
        self.spans = meter.spans;
    }
}

/// A workload: its name, why it was chosen, and its rep function.
pub struct Workload {
    /// The name, as `BENCHMARK.json` and `--workload` spell it.
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: the final sizes and the reason.
    pub why: &'static str,
    /// Runs one rep.
    pub run: fn(&Cfg) -> Rep,
    /// The layer probes homed on this workload (run in its traced run).
    pub probes: fn(&Cfg) -> Result<Probes, String>,
}

/// Every workload, in report order.
pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "httpd_burst",
        why: "1,500 concurrent clients x 1 request, 16 users: the only path through every layer (netd, launcher, auth and grant gates, worker, /persist read, socket write); sched, unix pipes/sockets, net dominate",
        run: httpd_burst::run,
        probes: probes::httpd_burst,
    },
    Workload {
        name: "login_storm",
        why: "5,000 processes, 16 users, wrong_every 7, 4 shards: gate calls, category allocation, label checks and dispatch; no net, store or blocking I/O, so an httpd-only fix must leave it flat",
        run: login_storm::run,
        probes: probes::login_storm,
    },
    Workload {
        name: "fs_mixed",
        why: "300,000 seeded ops on a 16 MiB heap file and a 64-entry dir: 48% 4 KiB read, 48% 4 KiB write, 2% open+close, 2% readdir; unix vfs/segfs and the batched ABI only; a read cache that taxes writes shows",
        run: fs_mixed::run,
        probes: probes::none,
    },
    Workload {
        name: "lfs_large",
        why: "Figure 12 large-file phases via the file API: 2,048 x 8 KiB write + sync_all, 512 random 8 KiB write + fsync_pages, 2,048 x 8 KiB read; in-place page flushes of ONE large store object",
        run: lfs_large::run,
        probes: probes::lfs_large,
    },
    Workload {
        name: "persist_sync",
        why: "16 open /persist files, 4,000 rounds of rewrite (48-80 B) each + one fsync_paths: WAL group commit, pre-apply checkpointing and the simulated disk over ~200 log applications; many small records",
        run: persist_sync::run,
        probes: probes::persist_sync,
    },
    Workload {
        name: "persist_recover",
        why: "500 x 4 KiB files in one /persist dir (set-up), then 1,200 cycles of rewrite+fsync 2 files, crash, recover, remount, read back: the store's read side, and every acked write checked durable",
        run: persist_recover::run,
        probes: probes::persist_recover,
    },
    Workload {
        name: "exporter_echo",
        why: "two-node fabric, default link, 192-320 B echo: 6,400 calls at batch 1 then 6,400 at batch 32, fresh fabric each: exporter wire/envelope authentication, net and sim::net; the only cross-node path",
        run: exporter_echo::run,
        probes: probes::none,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

//! The benchmark's own spans, recorded from outside around every call it
//! makes into a layer, on both clocks.
//!
//! Spans inside `unix`/`net`/`auth`/`httpd` are a later issue; until then
//! the layers are split by merging these outer spans with what the kernel's
//! flight recorder already emits (`dispatch`, `sched`, `wal`, `recover`,
//! `rpc`, `httpd`) and taking each span's *self time*: its duration minus
//! the part its children cover.

use crate::host_clock::{HostElapsed, HostTimer, ScaledTimer};
use histar::obs::Span as KernelSpan;
use histar::sim::SimClock;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One benchmark-side span.
#[derive(Clone, Copy, Debug)]
pub struct BenchSpan {
    /// The layer (crate) called into.
    pub layer: &'static str,
    /// The call.
    pub name: &'static str,
    /// Index of the workload op this call belongs to.
    pub op: u64,
    /// Index of the enclosing benchmark span, if any.
    pub parent: Option<u32>,
    /// Simulated start, ns since boot.
    pub model_start: u64,
    /// Simulated end.
    pub model_end: u64,
    /// Host start, ns since the tracer was created.
    pub host_start: u64,
    /// Host end.
    pub host_end: u64,
}

/// Records per-op simulated latencies always, and spans when tracing.
pub struct Meter {
    clock: SimClock,
    offset: u64,
    host: HostTimer,
    tracing: bool,
    region: Option<ScaledTimer>,
    depth: u32,
    calls: u32,
    open: Vec<u32>,
    /// Benchmark spans, in open order (empty unless tracing).
    pub spans: Vec<BenchSpan>,
    /// Simulated latency of each op, in ns.
    pub latencies: Vec<u64>,
    next_op: u64,
}

impl Meter {
    /// A meter over `clock`; spans are kept only when `tracing`.
    pub fn new(clock: SimClock, tracing: bool) -> Meter {
        Meter {
            clock,
            offset: 0,
            host: HostTimer::start(),
            tracing,
            region: None,
            depth: 0,
            calls: 0,
            open: Vec::new(),
            spans: Vec::new(),
            latencies: Vec::new(),
            next_op: 0,
        }
    }

    /// Simulated now, in ns on the meter's timeline.
    pub fn model_now(&self) -> u64 {
        self.offset + self.clock.now().as_nanos()
    }

    /// Switches to another machine's clock (a workload that builds a
    /// fresh world mid-rep).  The timeline carries on from the last
    /// reading: the new machine's tick 0 lands at [`Meter::offset`].
    pub fn set_clock(&mut self, clock: SimClock) {
        self.offset = self.model_now();
        self.clock = clock;
    }

    /// Where the current machine's tick 0 sits on the meter's timeline.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Starts the timed region's host clock.
    pub fn begin_region(&mut self) {
        self.region = Some(ScaledTimer::start());
    }

    /// Stops the timed region's host clock.
    pub fn end_region(&mut self) -> HostElapsed {
        self.region
            .take()
            .expect("end_region without begin_region")
            .stop()
    }

    fn begin(&mut self, layer: &'static str, name: &'static str) -> Option<u32> {
        if !self.tracing {
            return None;
        }
        let id = self.spans.len() as u32;
        self.spans.push(BenchSpan {
            layer,
            name,
            op: self.next_op,
            parent: self.open.last().copied(),
            model_start: self.model_now(),
            model_end: 0,
            host_start: self.host.wall_ns(),
            host_end: 0,
        });
        self.open.push(id);
        Some(id)
    }

    fn end(&mut self, id: Option<u32>) {
        if let Some(id) = id {
            self.open.pop();
            let (host_end, model_end) = (self.host.wall_ns(), self.model_now());
            let s = &mut self.spans[id as usize];
            s.host_end = host_end;
            s.model_end = model_end;
        }
    }

    /// Runs one call into a layer as part of the current op: a span only.
    pub fn span<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span_with(layer, name, |_| f())
    }

    /// Like [`Meter::span`] for a call made of several: `f` gets the meter
    /// back to record them as child spans.
    pub fn span_with<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Meter) -> T,
    ) -> T {
        // Between two top-level calls the region's clock may stop to
        // recalibrate; looking at it every 32nd call keeps that free.
        if self.depth == 0 {
            self.calls += 1;
            if self.calls.is_multiple_of(32) {
                if let Some(region) = self.region.as_mut() {
                    region.lap();
                }
            }
        }
        self.depth += 1;
        let id = self.begin(layer, name);
        let out = f(self);
        self.end(id);
        self.depth -= 1;
        out
    }

    /// Runs one workload op: a new op id, a span, and a latency sample.
    pub fn op<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.op_with(layer, name, |_| f())
    }

    /// Like [`Meter::op`] for an op made of several calls.
    pub fn op_with<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Meter) -> T,
    ) -> T {
        self.next_op += 1;
        let start = self.model_now();
        let out = self.span_with(layer, name, f);
        self.latencies.push(self.model_now() - start);
        out
    }
}

/// Self time per layer, from benchmark and kernel spans merged.
#[derive(Clone, Debug, Default)]
pub struct LayerTimes {
    /// Simulated self ns per layer (benchmark layers and kernel span
    /// categories share one namespace).
    pub model_self_ns: BTreeMap<&'static str, u64>,
    /// Host self ns per layer (benchmark spans only: the kernel's recorder
    /// keeps no host clock).
    pub host_self_ns: BTreeMap<&'static str, u64>,
    /// Simulated total ns per `(category, name)` of kernel spans.
    pub kernel_totals: BTreeMap<(&'static str, &'static str), (u64, u64)>,
}

/// Nesting rank for spans covering the same interval: outermost first.
fn kernel_rank(s: &KernelSpan) -> u8 {
    match (s.cat, s.name) {
        ("sched", "quantum") => 1,
        ("rpc", _) | ("recover", _) => 2,
        ("dispatch", "batch") => 3,
        _ => 4,
    }
}

/// Computes per-layer self times: every span's duration minus what its
/// direct children cover, nesting decided by interval containment in
/// simulated time (and by `parent` links for host time).
pub fn layer_times(bench: &[BenchSpan], kernel: &[KernelSpan]) -> LayerTimes {
    let mut out = LayerTimes::default();

    // Host self time: parent links are exact.
    let mut host_child = vec![0u64; bench.len()];
    for s in bench {
        if let Some(p) = s.parent {
            host_child[p as usize] += s.host_end - s.host_start;
        }
    }
    for (s, child) in bench.iter().zip(&host_child) {
        *out.host_self_ns.entry(s.layer).or_default() +=
            (s.host_end - s.host_start).saturating_sub(*child);
    }

    // Model self time over the merged set.
    struct Item {
        layer: &'static str,
        start: u64,
        end: u64,
        rank: u8,
        child: u64,
    }
    let mut items: Vec<Item> = bench
        .iter()
        .map(|s| Item {
            layer: s.layer,
            start: s.model_start,
            end: s.model_end,
            rank: 0,
            child: 0,
        })
        .collect();
    for s in kernel {
        let e = out.kernel_totals.entry((s.cat, s.name)).or_default();
        e.0 += s.duration();
        e.1 += 1;
        // `httpd` spans are request latencies: a thousand of them overlap
        // each other and every quantum, so they nest under nothing.
        if s.cat == "httpd" {
            continue;
        }
        items.push(Item {
            layer: s.cat,
            start: s.start,
            end: s.end.max(s.start),
            rank: kernel_rank(s),
            child: 0,
        });
    }
    items.sort_by(|a, b| {
        a.start
            .cmp(&b.start)
            .then(b.end.cmp(&a.end))
            .then(a.rank.cmp(&b.rank))
    });
    // Sorted by start, so the stack top is a parent exactly when it is
    // not a zero-length marker and ends no earlier than the item does.
    let mut stack: Vec<usize> = Vec::new();
    for i in 0..items.len() {
        while let Some(&top) = stack.last() {
            let t = &items[top];
            if t.end > t.start && items[i].end <= t.end {
                break;
            }
            stack.pop();
        }
        if let Some(&top) = stack.last() {
            items[top].child += items[i].end - items[i].start;
        }
        stack.push(i);
    }
    for it in &items {
        *out.model_self_ns.entry(it.layer).or_default() +=
            (it.end - it.start).saturating_sub(it.child);
    }
    out
}

/// Most spans written to one `TRACE_<workload>.json`; the aggregates are
/// computed over all of them, the file keeps the earliest.
pub const TRACE_FILE_SPANS: usize = 20_000;

/// Renders benchmark and kernel spans as one chrome-trace document
/// (`ts`/`dur` in simulated µs; host times ride in `args`).
pub fn chrome_trace_json(bench: &[BenchSpan], kernel: &[KernelSpan]) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push_str(",\n");
        }
    };
    for (i, s) in bench.iter().take(TRACE_FILE_SPANS).enumerate() {
        sep(&mut out);
        write!(
            out,
            "  {{\"name\": \"{}.{}\", \"cat\": \"bench\", \"ph\": \"X\", \"ts\": {:.3}, \
             \"dur\": {:.3}, \"pid\": 0, \"tid\": 0, \"args\": {{\"id\": {i}, \"parent\": {}, \
             \"op\": {}, \"host_start_ns\": {}, \"host_dur_ns\": {}}}}}",
            s.layer,
            s.name,
            s.model_start as f64 / 1e3,
            (s.model_end - s.model_start) as f64 / 1e3,
            s.parent.map_or(-1, i64::from),
            s.op,
            s.host_start,
            s.host_end - s.host_start,
        )
        .expect("string write");
    }
    for s in kernel.iter().take(TRACE_FILE_SPANS) {
        sep(&mut out);
        write!(
            out,
            "  {{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \
             \"dur\": {:.3}, \"pid\": 0, \"tid\": {}, \"args\": {{\"seq\": {}}}}}",
            s.name,
            s.cat,
            s.start as f64 / 1e3,
            s.duration() as f64 / 1e3,
            s.tid,
            s.seq,
        )
        .expect("string write");
    }
    write!(
        out,
        "\n], \"bench_spans_total\": {}, \"kernel_spans_total\": {}, \"spans_per_source_cap\": {}}}\n",
        bench.len(),
        kernel.len(),
        TRACE_FILE_SPANS
    )
    .expect("string write");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(cat: &'static str, name: &'static str, start: u64, end: u64) -> KernelSpan {
        KernelSpan {
            cat,
            name,
            start,
            end,
            tid: 1,
            seq: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let clock = SimClock::new();
        let mut m = Meter::new(clock.clone(), true);
        m.op("unix", "read", || {
            clock.advance(histar::sim::SimDuration::from_nanos(100));
        });
        assert_eq!(m.latencies, vec![100]);
        // One 100 ns unix call holding a 60 ns batch that holds a 40 ns
        // syscall; a sibling 10 ns quantum follows it.
        let kernel = [
            k("dispatch", "batch", 10, 70),
            k("dispatch", "segment_read", 20, 60),
            k("sched", "quantum", 100, 110),
        ];
        let t = layer_times(&m.spans, &kernel);
        assert_eq!(t.model_self_ns["unix"], 40);
        assert_eq!(t.model_self_ns["dispatch"], 20 + 40);
        assert_eq!(t.model_self_ns["sched"], 10);
        let total: u64 = t.model_self_ns.values().sum();
        assert_eq!(total, 110, "self times sum to the covered time");
    }

    #[test]
    fn untraced_meter_keeps_latencies_but_no_spans() {
        let clock = SimClock::new();
        let mut m = Meter::new(clock.clone(), false);
        m.op("unix", "read", || {
            clock.advance(histar::sim::SimDuration::from_nanos(7));
        });
        assert!(m.spans.is_empty());
        assert_eq!(m.latencies, vec![7]);
    }
}

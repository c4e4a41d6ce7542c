//! The metrics registry: typed counters, gauges and histogram buckets
//! keyed by static dotted names.
//!
//! The registry is pull-based: subsystems keep owning their plain `*Stats`
//! structs (cheap `Copy` snapshots, no shared mutation), and implement
//! [`MetricSource`] to export those counters under stable names.  A
//! [`MetricSet`] is one such snapshot — the kernel's `metrics()` collects
//! every attached source into a single set, which is what the `/metrics`
//! filesystem renders and what tests assert against.
//!
//! Names are `&'static str` by construction: a metric name is part of the
//! code, not data, so the registry can never be used to smuggle dynamic
//! (possibly labeled) bytes into a "global" counter file.  The only
//! dynamic component is a histogram's bucket label, which is derived from
//! static edges.

use crate::hist::Histogram;

/// What a metric's value means.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically non-decreasing count of events.
    Counter,
    /// A point-in-time level (may go down).
    Gauge,
    /// One bucket of a [`Histogram`]; the bucket label names the range.
    HistogramBucket,
}

/// One exported metric value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Metric {
    /// Stable dotted name, e.g. `"kernel.dispatch.batches"`.
    pub name: &'static str,
    /// Bucket label for [`MetricKind::HistogramBucket`] entries.
    pub bucket: Option<String>,
    /// The metric's kind.
    pub kind: MetricKind,
    /// The value at snapshot time.
    pub value: u64,
}

impl Metric {
    /// The full rendered name: `name` plus `.bucket.<label>` for histogram
    /// buckets.
    pub fn full_name(&self) -> String {
        match &self.bucket {
            Some(b) => format!("{}.bucket.{}", self.name, b),
            None => self.name.to_string(),
        }
    }
}

/// A snapshot of exported metrics, in export order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricSet {
    metrics: Vec<Metric>,
}

impl MetricSet {
    /// An empty set.
    pub fn new() -> MetricSet {
        MetricSet::default()
    }

    /// Adds a counter.
    pub fn counter(&mut self, name: &'static str, value: u64) {
        self.metrics.push(Metric {
            name,
            bucket: None,
            kind: MetricKind::Counter,
            value,
        });
    }

    /// Adds a gauge.
    pub fn gauge(&mut self, name: &'static str, value: u64) {
        self.metrics.push(Metric {
            name,
            bucket: None,
            kind: MetricKind::Gauge,
            value,
        });
    }

    /// Appends a copy of every metric in `other` (the kernel merging an
    /// externally-published snapshot into its own).
    pub fn extend(&mut self, other: &MetricSet) {
        self.metrics.extend(other.metrics.iter().cloned());
    }

    /// Adds every non-empty bucket of a histogram.
    pub fn histogram<const N: usize>(&mut self, name: &'static str, hist: &Histogram<N>) {
        for (label, count) in hist.nonzero() {
            self.metrics.push(Metric {
                name,
                bucket: Some(label),
                kind: MetricKind::HistogramBucket,
                value: count,
            });
        }
    }

    /// Collects everything a source exports.
    pub fn collect(&mut self, source: &dyn MetricSource) {
        source.export(self);
    }

    /// Looks a metric up by its full rendered name.
    pub fn get(&self, full_name: &str) -> Option<u64> {
        self.metrics
            .iter()
            .find(|m| m.full_name() == full_name)
            .map(|m| m.value)
    }

    /// The exported metrics, in export order.
    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.metrics.iter()
    }

    /// Number of exported entries.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True when nothing has been exported.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Renders the set as `<full name>\t<value>` lines — the format the
    /// `/metrics` pseudo-files serve.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&m.full_name());
            out.push('\t');
            out.push_str(&m.value.to_string());
            out.push('\n');
        }
        out
    }
}

/// Implemented by every `*Stats` struct that registers its counters: the
/// struct pushes each counter into the set under its stable name.
pub trait MetricSource {
    /// Exports this source's current values into `set`.
    fn export(&self, set: &mut MetricSet);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::BATCH_SIZE_EDGES;

    struct Fake;
    impl MetricSource for Fake {
        fn export(&self, set: &mut MetricSet) {
            set.counter("fake.events", 3);
            set.gauge("fake.level", 9);
        }
    }

    #[test]
    fn collects_and_renders_sources() {
        let mut set = MetricSet::new();
        set.collect(&Fake);
        let mut h = Histogram::new(&BATCH_SIZE_EDGES);
        h.record(1);
        h.record(3);
        set.histogram("fake.sizes", &h);
        assert_eq!(set.get("fake.events"), Some(3));
        assert_eq!(set.get("fake.level"), Some(9));
        assert_eq!(set.get("fake.sizes.bucket.3-4"), Some(1));
        assert_eq!(set.get("fake.sizes.bucket.65+"), None);
        let text = set.render_text();
        assert!(text.contains("fake.events\t3\n"));
        assert!(text.contains("fake.sizes.bucket.1\t1\n"));
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn empty_set_renders_empty() {
        let set = MetricSet::new();
        assert!(set.is_empty());
        assert_eq!(set.render_text(), "");
        assert_eq!(set.get("anything"), None);
    }
}

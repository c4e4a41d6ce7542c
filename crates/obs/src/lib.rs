//! Kernel-wide observability that is itself information-flow safe.
//!
//! Three pieces, deliberately free of dependencies so every other crate can
//! use them:
//!
//! * [`Histogram`] — one shared fixed-bucket histogram type replacing the
//!   hand-rolled bucket arrays that used to live in the dispatch stats and
//!   the file-system benchmark.  Bucket edges and label rendering live
//!   here, in one place.
//! * [`MetricSet`] / [`MetricSource`] — the metrics registry.  Every
//!   subsystem's `*Stats` struct implements [`MetricSource`] and exports
//!   its counters under stable dotted names; one call on the kernel
//!   snapshots the whole machine into a [`MetricSet`].
//! * [`Recorder`] / [`Span`] — the flight recorder: a bounded ring buffer
//!   of causally-tagged spans (tick start/end, thread, sequence number)
//!   emitted from the dispatch choke point, scheduler quanta, WAL and
//!   recovery phases, and exporter RPCs.  Dumps as chrome-trace JSON for
//!   offline profiling, and the [`hook`] module prints the last N spans
//!   when a crash harness panics.
//!
//! Nothing in this crate advances the simulated clock: recording a metric
//! or a span is free in simulated time.  `histar-bench`'s `sched` harness
//! enforces it exactly: its traced login pass must match the untraced one
//! in elapsed ticks and syscall count.
//!
//! Labels are enforced one layer up: the registry and recorder hold plain
//! numbers, and the `/metrics` filesystem in the Unix library decides, per
//! reader and per entry, whether those numbers may be observed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hist;
pub mod hook;
pub mod metrics;
pub mod span;

pub use hist::{Histogram, BATCH_SIZE_EDGES};
pub use metrics::{Metric, MetricKind, MetricSet, MetricSource};
pub use span::{Recorder, Span};

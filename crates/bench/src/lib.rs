//! Benchmark harness: regenerates every table and figure of the paper's
//! evaluation (§7) on the simulated substrate.
//!
//! * [`fig12`] — the microbenchmarks of Figure 12 (IPC, fork/exec, spawn,
//!   LFS small-file and large-file phases) for HiStar and the two baseline
//!   models.
//! * [`fig13`] — the application benchmarks of Figure 13 (kernel build,
//!   wget, virus scan with and without the isolation wrapper).
//! * [`fs`] — file-system throughput through the Unix library's VFS:
//!   open/read/write/readdir ops per simulated second, plus the
//!   submission-batch histogram over the I/O hot path and the `/persist`
//!   read/write/recover workloads.
//! * [`crash`] — the torn-write-ahead-log sweep behind the
//!   `crash-recovery` CI job: truncate the log at every record boundary,
//!   recover, and assert tree invariants, prefix-closed durability and
//!   label enforcement on recovered secrets.
//! * [`rpc`] — cross-node RPC over the exporter subsystem: latency and
//!   throughput of label-checked calls, with and without message batching.
//! * [`httpd`] — the web-server benchmark: the §6.1 label-isolated httpd
//!   serving a burst of concurrent clients (10⁴ in the full run) over real
//!   blocking I/O (requests/sec, tail latency, no-busy-wait quanta bound).
//! * [`sched`] — the multiprogramming benchmark: N concurrent untrusted
//!   logins interleaved by the deterministic scheduler, on one node and
//!   across the two-node fabric (syscalls/sec, context-switch cost).
//! * [`obs`] — the observability overhead benchmark: the login workload
//!   with tracing off vs on (audit trace + flight recorder), gated in CI
//!   so tracing stays within 3% of the untraced throughput.
//! * [`report`] — small helpers for printing paper-style tables, recording
//!   paper-vs-measured comparisons, and emitting machine-readable
//!   `BENCH_<name>.json` files for CI.
//!
//! Absolute numbers are *simulated* time; the tables print the paper's
//! real-hardware measurements beside them so the shapes can be compared.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crash;
pub mod fig12;
pub mod fig13;
pub mod fs;
pub mod httpd;
pub mod obs;
pub mod report;
pub mod rpc;
pub mod sched;

pub use report::{BenchJson, Row, Table};

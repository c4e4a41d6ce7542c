//! Benchmark harness: regenerates the paper's evaluation figures (§7) on
//! the simulated substrate, writes the baselines CI compares, and runs the
//! crash sweeps.
//!
//! * [`fig12`] — the microbenchmarks of Figure 12 (IPC, fork/exec, spawn,
//!   LFS small-file and large-file phases) for HiStar and the two baseline
//!   models.
//! * [`fig13`] — the application benchmarks of Figure 13 (kernel build,
//!   wget, virus scan with and without the isolation wrapper).
//! * [`sched`], [`fs`], [`httpd`] — the three harnesses behind the
//!   `baselines` bin's `BENCH_{sched,fs,httpd}.json`, which CI `cmp`s
//!   against `baselines/`: multiprogrammed logins (traced and untraced),
//!   cross-node echo calls and a mostly-parked user population; VFS and
//!   `/persist` throughput with the recovery phases; and the §6.1 httpd
//!   under a burst of concurrent clients.
//! * [`crash`] — the torn-write-ahead-log and heap-file page-flush sweeps
//!   behind the `crash-recovery` CI job: crash at every cut, recover, and
//!   assert tree invariants, prefix-closed durability and label
//!   enforcement on recovered secrets.
//! * [`report`] — the paper-figure [`Table`] and the machine-readable
//!   [`BenchJson`] report.
//!
//! Absolute numbers are *simulated* time; the figure tables print the
//! paper's real-hardware measurements beside them so the shapes can be
//! compared.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crash;
pub mod fig12;
pub mod fig13;
pub mod fs;
pub mod httpd;
pub mod report;
pub mod sched;

pub use report::{BenchJson, Row, Table};

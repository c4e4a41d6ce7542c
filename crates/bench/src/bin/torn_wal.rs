//! The `crash-recovery` CI gate: a seeded torn-write-ahead-log sweep.
//!
//! For each seed, a deterministic workload fills `/persist` with fsynced
//! (and one deliberately unsynced) files, then the write-ahead log is
//! truncated at every record boundary — and torn mid-record — before
//! recovery; at every record boundary a second disk keeps its whole log
//! but has one bit rotten in the frame starting there, and replay must
//! stop at that frame.  Each recovered machine must satisfy the store's
//! invariants (object map and free space), serve every file whose fsync
//! preceded the cut byte-exact, and keep refusing unprivileged readers of
//! the recovered secret file.
//!
//! Usage: `torn_wal [--seed N]... [--max-cuts N]` (defaults: three seeds,
//! all cuts).  Exits nonzero on the first violated guarantee.

use histar_bench::crash::{run_replay_equivalence, run_torn_wal};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seeds: Vec<u64> = Vec::new();
    let mut max_cuts = 0usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => seeds.push(v),
                None => {
                    eprintln!("torn_wal: --seed needs a number");
                    return ExitCode::FAILURE;
                }
            },
            "--max-cuts" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => max_cuts = v,
                None => {
                    eprintln!("torn_wal: --max-cuts needs a number");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("torn_wal: unknown argument {other}");
                return ExitCode::FAILURE;
            }
        }
    }
    if seeds.is_empty() {
        seeds = vec![0x0dd5_eed5, 42, 0x00c0_ffee];
    }

    for seed in seeds {
        match run_torn_wal(seed, max_cuts) {
            Ok(report) => {
                println!(
                    "torn_wal: seed {seed:#x}: OK — {} cuts, {} rots, {} file recoveries \
                     verified, {} label checks on the recovered secret",
                    report.cuts, report.rots, report.files_verified, report.secret_checks
                );
                // Where recovery time went, from the flight recorder's
                // per-phase spans (summed over every cut's recovery).
                for (phase, total_ns, count) in report.recovery_phases.iter().take(3) {
                    println!(
                        "torn_wal:   recovery phase {phase:<16} {total_ns:>12} ns \
                         across {count} recoveries"
                    );
                }
            }
            Err(e) => {
                eprintln!("torn_wal: seed {seed:#x}: FAIL — {e}");
                return ExitCode::FAILURE;
            }
        }
        // The same cut sweep again, recovering each crashed disk under
        // both replay modes: batched replay must be bit-identical to
        // record-by-record replay.
        match run_replay_equivalence(seed, max_cuts) {
            Ok(report) => {
                println!(
                    "torn_wal: seed {seed:#x}: replay equivalence OK — {} cuts, \
                     {} dual-mode label checks",
                    report.cuts, report.secret_checks
                );
            }
            Err(e) => {
                eprintln!("torn_wal: seed {seed:#x}: replay equivalence FAIL — {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("torn_wal: all seeds passed");
    ExitCode::SUCCESS
}

//! The `crash-recovery` CI gate's heap-file half: a fixed-seed page-flush
//! sweep.
//!
//! For each seed, one heap file is rewritten at random page-aligned and
//! sector-aligned offsets; most rewrites are followed by `fsync_pages`,
//! and after every acknowledged one the machine is crashed and the
//! recovered segment compared byte for byte with what had been
//! acknowledged (see [`histar_bench::crash::run_heap_flush`]).
//!
//! Usage: `heap_flush [--seeds N]` (default: 8 seeds).  Exits nonzero on
//! the first lost or invented byte.

use histar_bench::crash::run_heap_flush;
use std::process::ExitCode;

/// Rewrites per seed.
const REWRITES: usize = 48;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seeds = match args.as_slice() {
        [] => Some(8u64),
        [flag, n] if flag == "--seeds" => n.parse().ok(),
        _ => None,
    };
    let Some(seeds) = seeds else {
        eprintln!("usage: heap_flush [--seeds N]");
        return ExitCode::FAILURE;
    };

    for seed in 1..=seeds {
        match run_heap_flush(seed, REWRITES) {
            Ok(report) => println!(
                "heap_flush: seed {seed}: OK — {} crashes after acknowledged page syncs \
                 ({} flushed in place), {} two-file group syncs, {} segment bytes verified",
                report.crashes, report.in_place, report.group_syncs, report.bytes_verified
            ),
            Err(e) => {
                eprintln!("heap_flush: FAIL — {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("heap_flush: all seeds passed");
    ExitCode::SUCCESS
}

//! The `crash-recovery` CI gate's heap-file half: a fixed-seed page-flush
//! sweep.
//!
//! For each seed, one heap file is rewritten at random page-aligned and
//! sector-aligned offsets; most rewrites are followed by `fsync_pages`,
//! and after every acknowledged one the machine is crashed and the
//! recovered segment compared byte for byte with what had been
//! acknowledged (see [`histar_bench::crash::run_heap_flush`]).
//!
//! Usage: `heap_flush [--seeds N] [--rewrites N]` (defaults: 8 seeds of 48
//! rewrites).  Exits nonzero on the first lost or invented byte.

use histar_bench::crash::run_heap_flush;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut seeds, mut rewrites) = (8u64, 48usize);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let value = it.next().and_then(|v| v.parse::<u64>().ok());
        match (arg.as_str(), value) {
            ("--seeds", Some(v)) => seeds = v,
            ("--rewrites", Some(v)) => rewrites = v as usize,
            _ => {
                eprintln!("usage: heap_flush [--seeds N] [--rewrites N]");
                return ExitCode::FAILURE;
            }
        }
    }

    for seed in 1..=seeds {
        match run_heap_flush(seed, rewrites) {
            Ok(report) => println!(
                "heap_flush: seed {seed}: OK — {} crashes after acknowledged page syncs \
                 ({} flushed in place), {} segment bytes verified",
                report.crashes, report.in_place, report.bytes_verified
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

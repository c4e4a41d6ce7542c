//! The HiStar reproduction's benchmark: seven workloads on two clocks.
//!
//! * `--workload NAME --seed N --seconds S --trace 0|1` measures one
//!   workload and prints one result line (the driver's protocol; see
//!   `BENCHMARK.json`).  `--trace 0` yields the end-to-end metrics with
//!   tracing off, `--trace 1` the per-layer metrics from a traced rep.
//! * With no `--workload`, every workload is run both ways, each in its own
//!   child process (so peak RSS is per workload), and everything is printed
//!   as tables on stderr and as JSON on stdout and in `out/BENCH.json`.
//! * `--check` does that twice and fails unless the two sets agree.
//!
//! `model_*` numbers are simulated time from `SimClock` and repeat exactly
//! for a seed; `host_*` numbers are wall clock from `host_clock.rs` and
//! carry all the noise.

mod host_clock;
mod json;
mod layers;
mod measure;
mod names;
mod probes;
mod report;
mod stats;
mod trace;
mod workloads;

use measure::Policy;
use std::path::PathBuf;
use std::process::ExitCode;

/// The default seed of a full run.
const DEFAULT_SEED: u64 = 0x4177;

/// Parsed command line.
#[derive(Clone, Debug, Default)]
pub struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    policy: Policy,
    trace: bool,
    smoke: bool,
    corrupt: bool,
    check: bool,
    manifest: bool,
}

const USAGE: &str = "usage: histar-benchmark [--workload NAME] [--seed N|0xN] [--seconds S] \
[--reps N] [--trace 0|1] [--smoke] [--check] [--corrupt] [--manifest]";

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    let mut argv = argv.skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| {
            argv.next()
                .ok_or_else(|| format!("{flag} needs {what}\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                let v = value("a number")?;
                args.seed = Some(parse_u64(&v).ok_or_else(|| format!("bad seed `{v}`"))?);
            }
            "--seconds" => {
                let v = value("a number of seconds")?;
                let s = v.parse::<f64>().ok().filter(|s| s.is_finite() && *s > 0.0);
                args.policy.seconds = Some(s.ok_or_else(|| format!("bad seconds `{v}`"))?);
            }
            "--reps" => {
                let v = value("a count")?;
                let n = v.parse::<usize>().ok().filter(|n| *n > 0);
                args.policy.reps = Some(n.ok_or_else(|| format!("bad reps `{v}`"))?);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad trace `{v}`")),
                }
            }
            "--smoke" => args.smoke = true,
            "--corrupt" => args.corrupt = true,
            "--check" => args.check = true,
            "--manifest" => args.manifest = true,
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Where traces and `BENCH.json` go: `out/` beside this package's manifest.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        // One workload or metric per line.
        println!("{}", report::pretty_to(&names::manifest(), 2));
        return ExitCode::SUCCESS;
    }
    let ok = match &args.workload {
        Some(name) => {
            let Some(w) = workloads::find(name) else {
                eprintln!("unknown workload `{name}`");
                return ExitCode::from(2);
            };
            let cfg = workloads::Cfg {
                seed: args.seed.unwrap_or(DEFAULT_SEED),
                smoke: args.smoke,
                tracing: false,
                corrupt: args.corrupt,
            };
            let outcome = if args.trace {
                measure::per_layer(w, cfg, &out_dir())
            } else {
                measure::end_to_end(w, cfg, args.policy)
            };
            // The detail line first; the driver reads only the last line.
            println!("DETAIL {}", outcome.detail.render());
            println!("{}", outcome.result_line());
            outcome.correct
        }
        None if args.check => report::check(&args),
        None => report::full(&args).is_some_and(|set| set.correct),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

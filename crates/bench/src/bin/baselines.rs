//! Writes the three compared baselines — `BENCH_sched.json`,
//! `BENCH_fs.json` and `BENCH_httpd.json` — into the current directory, or
//! `$BENCH_OUT_DIR` when set.  CI `cmp`s each against `baselines/`.
//!
//! `--full` runs the scale targets instead (10⁵ mostly-parked users, a
//! 10⁴-client httpd burst); those reports are not baselines.

use histar_bench::fs::FsBenchParams;
use histar_bench::httpd::HttpdBenchParams;
use histar_bench::sched::SchedBenchParams;
use histar_bench::{fs, httpd, sched};

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let (sched_params, httpd_params) = if full {
        (SchedBenchParams::full(), HttpdBenchParams::full())
    } else {
        (SchedBenchParams::smoke(), HttpdBenchParams::smoke())
    };
    let reports = [
        sched::run(sched_params),
        fs::run(FsBenchParams::full()),
        httpd::run(httpd_params),
    ];
    for json in reports {
        let path = json.write().expect("write BENCH json");
        println!("wrote {}", path.display());
    }
}

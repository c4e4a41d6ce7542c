//! The web-server benchmark: the §6.1 label-isolated httpd under load.
//!
//! A burst of concurrent clients (10⁴ in the full configuration) connect
//! through netd, authenticate, and are each served their own user's
//! private page by that user's worker.  Everything waits on *real
//! blocking I/O* — parked threads in the scheduler's wait set, woken by
//! kernel readiness completions — so the benchmark asserts the
//! no-busy-wait property directly from the scheduler counters: the
//! quanta bill must stay linear in the requests served, regardless of
//! how long anything waited.
//!
//! Reported numbers are *simulated* time, like every other harness in
//! this crate.

use crate::report::BenchJson;
use histar_httpd::{run_httpd, HttpdParams};

/// Parameters of the web-server benchmark.
#[derive(Clone, Copy, Debug)]
pub struct HttpdBenchParams {
    /// Concurrent clients (one request each).
    pub clients: usize,
    /// Distinct user accounts (and therefore workers).
    pub users: usize,
    /// Scheduler seed.
    pub seed: u64,
}

impl HttpdBenchParams {
    /// Quick parameters for tests and the committed baseline.
    pub fn smoke() -> HttpdBenchParams {
        HttpdBenchParams {
            clients: 400,
            users: 8,
            seed: 0x4177,
        }
    }

    /// The scale target `baselines --full` runs: the paper-scale burst of
    /// ten thousand concurrent clients.
    pub fn full() -> HttpdBenchParams {
        HttpdBenchParams {
            clients: 10_000,
            users: 16,
            seed: 0x4177,
        }
    }
}

/// Quanta allowed per resolved request before the run counts as
/// busy-waiting.  Each request needs a bounded number of turns from its
/// client, the launcher and a worker; every wait in between parks.
const QUANTA_PER_REQUEST: u64 = 16;
/// Fixed quanta allowance for boot, worker spawning and shutdown.
const QUANTA_FLOOR: u64 = 512;

/// Runs the scenario, asserts the structural properties the benchmark
/// exists to demonstrate, and returns the `BENCH_httpd.json` report.
pub fn run(params: HttpdBenchParams) -> BenchJson {
    let (world, report) = run_httpd(HttpdParams {
        clients: params.clients,
        users: params.users,
        wrong_every: 0,
        seed: params.seed,
        trace_capacity: 0,
        recorder_capacity: 0,
    })
    .expect("httpd scenario");
    assert!(
        world.failures.is_empty(),
        "httpd failures: {:?}",
        &world.failures[..world.failures.len().min(5)]
    );
    assert_eq!(
        report.served, params.clients as u64,
        "every client must be served"
    );
    assert_eq!(
        report.high_water, params.clients,
        "the whole burst must be concurrently connected at the peak"
    );
    // The no-busy-wait assertion: with every blocked thread parked in the
    // wait set, quanta stay linear in the work.  A polling loop anywhere
    // (launcher re-checking an empty accept queue, a client spinning on
    // its response) breaks this bound immediately at 10⁴ clients.
    let budget = QUANTA_PER_REQUEST * report.served + QUANTA_FLOOR;
    assert!(
        report.sched.quanta <= budget,
        "busy-waiting detected: {} quanta for {} requests (budget {budget})",
        report.sched.quanta,
        report.served
    );
    assert!(
        report.sched.completion_wakeups > 0,
        "wakes must come from kernel readiness completions"
    );

    let ticks = report.elapsed.as_nanos();
    let mut json = BenchJson::new("httpd");
    json.metric("requests_per_sec", report.requests_per_sec, ticks);
    let p50 = report.p50_latency.as_nanos() as f64;
    json.metric("p50_latency_ns", p50, ticks);
    let p99 = report.p99_latency.as_nanos() as f64;
    json.metric("p99_latency_ns", p99, ticks);
    let high_water = report.high_water as f64;
    json.metric("concurrent_clients_high_water", high_water, ticks);
    let quanta = report.sched.quanta as f64 / report.served.max(1) as f64;
    json.metric("quanta_per_request", quanta, ticks);
    let wakeups = report.sched.completion_wakeups as f64;
    json.metric("completion_wakeups", wakeups, ticks);
    // The bound on every daemon's label, as the kernel saw it: the most
    // entries any one label check compared.  O(users), not O(clients).
    let entries = report.kernel.label_check_max_entries as f64;
    json.metric("label_check_max_entries", entries, ticks);
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_configuration_holds_the_structural_assertions() {
        let json = run(HttpdBenchParams::smoke());
        let v = |name| json.value(name).unwrap_or_else(|| panic!("no {name}"));
        assert_eq!(v("concurrent_clients_high_water"), 400.0);
        assert!(v("requests_per_sec") > 0.0);
        assert!(v("p99_latency_ns") >= v("p50_latency_ns"));
    }
}

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

use crate::report::{BenchJson, Row, Table};
use histar_httpd::{run_httpd, HttpdParams, HttpdReport};

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
    /// Quick parameters for tests and CI smoke runs.
    pub fn smoke() -> HttpdBenchParams {
        HttpdBenchParams {
            clients: 400,
            users: 8,
            seed: 0x4177,
        }
    }

    /// The parameters the `httpd_bench` binary reports: the paper-scale
    /// burst of ten thousand concurrent clients.
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

/// Runs the scenario and returns the report, asserting the structural
/// properties the benchmark exists to demonstrate.
pub fn measure(params: HttpdBenchParams) -> HttpdReport {
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
    report
}

/// Runs a smaller flight-recorder-enabled pass and returns its
/// chrome-trace JSON dump — the `TRACE_httpd.json` artifact CI uploads so
/// per-request spans can be inspected in a trace viewer.
pub fn chrome_trace(params: HttpdBenchParams) -> String {
    let (world, _report) = run_httpd(HttpdParams {
        clients: params.clients.min(64),
        users: params.users,
        wrong_every: 0,
        seed: params.seed,
        trace_capacity: 0,
        recorder_capacity: 1 << 16,
    })
    .expect("httpd scenario");
    world.env.machine().kernel().recorder().chrome_trace_json()
}

/// Runs the benchmark and renders the table plus the machine-readable
/// report.
pub fn run(params: HttpdBenchParams) -> (Table, BenchJson) {
    let report = measure(params);

    let mut table = Table::new(&format!(
        "httpd: {} concurrent clients, {} users, blocking I/O (quantum 50us)",
        params.clients, params.users
    ));
    table.push(Row::new("total simulated time").measure("HiStar", report.elapsed));
    table.push(Row::new("p50 request latency").measure("HiStar", report.p50_latency));
    table.push(Row::new("p99 request latency").measure("HiStar", report.p99_latency));

    let ticks = report.elapsed.as_nanos();
    let mut json = BenchJson::new("httpd");
    json.metric("requests_per_sec", report.requests_per_sec, ticks);
    json.metric(
        "p50_latency_ns",
        report.p50_latency.as_nanos() as f64,
        ticks,
    );
    json.metric(
        "p99_latency_ns",
        report.p99_latency.as_nanos() as f64,
        ticks,
    );
    json.metric(
        "concurrent_clients_high_water",
        report.high_water as f64,
        ticks,
    );
    json.metric(
        "quanta_per_request",
        report.sched.quanta as f64 / report.served.max(1) as f64,
        ticks,
    );
    json.metric(
        "completion_wakeups",
        report.sched.completion_wakeups as f64,
        ticks,
    );
    // The bound on every daemon's label, as the kernel saw it: the most
    // entries any one label check compared.  O(users), not O(clients).
    json.metric(
        "label_check_max_entries",
        report.kernel.label_check_max_entries as f64,
        ticks,
    );
    (table, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_configuration_holds_the_structural_assertions() {
        let report = measure(HttpdBenchParams::smoke());
        assert_eq!(report.served, 400);
        assert!(report.requests_per_sec > 0.0);
        assert!(report.p99_latency >= report.p50_latency);
    }

    #[test]
    fn chrome_trace_contains_request_spans() {
        let trace = chrome_trace(HttpdBenchParams::smoke());
        assert!(
            trace.contains("\"request\""),
            "trace: {}",
            &trace[..200.min(trace.len())]
        );
    }
}

//! `httpd_burst`: the §6.1 web server under one burst of concurrent
//! clients — the only path that crosses every layer (netd → launcher → auth
//! gates → grant gate → worker → `/persist` read → socket write).
//!
//! The driver loop cannot be run apart from `build_httpd`
//! (`HttpdWorld::spawned` is private), so the host-timed region is the
//! whole `run_httpd` call, counters are since boot, and `setup_s` is a
//! separate `build_httpd` on its own.

use super::{Cfg, Counters, KernelTrace, Rep};
use crate::host_clock::ScaledTimer;
use crate::trace::Meter;
use histar::httpd::{build_httpd, run_httpd, HttpdParams};
use histar::kernel::StopReason;
use histar::sim::SimClock;

/// Distinct user accounts (and so workers).
const USERS: usize = 16;

/// Concurrent clients, one request each.
fn clients(cfg: &Cfg) -> usize {
    cfg.size(1_500, 24)
}

/// Runs one rep.
pub fn run(cfg: &Cfg) -> Rep {
    let clients = clients(cfg);
    let params = HttpdParams {
        clients,
        users: USERS,
        wrong_every: 0,
        seed: cfg.seed,
        trace_capacity: cfg.trace_capacity(),
        recorder_capacity: cfg.recorder_capacity(),
    };
    let mut rep = Rep {
        ops: clients as u64,
        ..Rep::default()
    };
    let mut meter = Meter::new(SimClock::new(), cfg.tracing);

    let t = ScaledTimer::start();
    drop(build_httpd(params));
    rep.setup = t.stop();

    meter.begin_region();
    let result = meter.span_with("httpd", "run_httpd", |m| {
        let result = run_httpd(params);
        if let Ok((world, _)) = &result {
            // The span opened before its machine existed; close it on that
            // machine's clock.
            m.set_clock(world.env.machine().clock().clone());
        }
        result
    });
    rep.host = meter.end_region();

    let (world, report) = match result {
        Ok(r) => r,
        Err(e) => return rep.abandon(format!("run_httpd: {e}")),
    };
    // Every client must get its own user's page: a 200 with a latency
    // sample, no refusals, no program errors, a clean scheduler exit.
    let expected = clients as u64 - u64::from(cfg.corrupt);
    let ok = (world.latencies.len() as u64).min(report.served);
    if ok != expected {
        rep.failed += ok.abs_diff(expected);
        rep.failures.push(format!(
            "{ok} clients got a 200, expected {expected} ({} served, {} denied, {} refused)",
            report.served, report.denied, report.refused
        ));
    }
    for (pid, err) in &world.failures {
        rep.fail(|| format!("pid {pid}: {err}"));
    }
    if report.stop != StopReason::AllComplete {
        rep.fail(|| format!("scheduler stopped with {:?}", report.stop));
    }

    // `run_httpd` starts its simulated clock once the world is built: the
    // model region, and everything attributed to it, starts there.
    rep.model_ns = report.elapsed.as_nanos();
    rep.model_start = meter.model_now() - rep.model_ns;
    rep.user_bytes = ok * "<html>userNN's private page</html>".len() as u64;
    let kernel = world.env.machine().kernel();
    rep.counters = Counters::snapshot(kernel);
    if cfg.tracing {
        rep.kernel = Some(KernelTrace::collect(kernel));
    }
    rep.layer.insert(
        "httpd.syscalls_per_request",
        report.kernel.syscalls as f64 / clients as f64,
    );
    rep.layer.insert(
        "httpd.quanta_per_request",
        report.sched.quanta as f64 / clients as f64,
    );
    rep.layer
        .insert("httpd.build_host_ms", rep.setup.scaled_s * 1e3);
    rep.layer
        .insert("httpd.build_share", rep.setup.scaled_s / rep.host.scaled_s);
    rep.take_meter(meter);
    rep.latencies = world.latencies;
    rep
}

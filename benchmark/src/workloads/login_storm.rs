//! `login_storm`: thousands of processes gate-call a shared daemon, log in
//! through the untrusted auth service and touch a private file, interleaved
//! by the sharded scheduler.  Gate calls, category allocation, label checks
//! and dispatch dominate; no network, no store, no blocking I/O — the
//! workload on which an httpd-only fix must show no change.

use super::{Cfg, Counters, KernelTrace, Rep};
use crate::host_clock::ScaledTimer;
use crate::trace::Meter;
use histar::apps::multilogin::{build_multilogin, MultiLoginParams};
use histar::auth::LoginOutcome;
use histar::kernel::{RunLimit, StopReason};
use histar::sim::SimClock;
use std::collections::BTreeMap;

/// Every `WRONG_EVERY`-th process presents a wrong password.
const WRONG_EVERY: usize = 7;
/// Distinct user accounts.
const USERS: usize = 16;
/// Wrong passwords in a row the auth service allows before locking.
const RETRY_BUDGET: u32 = 5;

/// Login processes.
fn processes(cfg: &Cfg) -> usize {
    cfg.size(5_000, 70)
}

/// Runs one rep.
pub fn run(cfg: &Cfg) -> Rep {
    let processes = processes(cfg);
    let params = MultiLoginParams {
        processes,
        users: USERS,
        seed: cfg.seed,
        shards: 4,
        wrong_every: WRONG_EVERY,
        trace_capacity: cfg.trace_capacity(),
        recorder_capacity: cfg.recorder_capacity(),
    };
    let mut rep = Rep {
        ops: processes as u64,
        ..Rep::default()
    };
    let mut meter = Meter::new(SimClock::new(), cfg.tracing);

    let t = ScaledTimer::start();
    let built = meter.span_with("apps", "build_multilogin", |m| {
        let built = build_multilogin(params);
        if let Ok((world, _)) = &built {
            m.set_clock(world.env.machine().clock().clone());
        }
        built
    });
    rep.setup = t.stop();
    let (mut world, mut sched) = match built {
        Ok(b) => b,
        Err(e) => return rep.abandon(format!("build_multilogin: {e}")),
    };
    rep.layer.insert(
        "unix.spawn_host_us",
        rep.setup.scaled_s * 1e6 / processes as f64,
    );

    let before = Counters::snapshot(world.env.machine().kernel());
    let start = meter.model_now();
    meter.begin_region();
    let report = meter.span("sched", "run", || {
        sched.run(&mut world, RunLimit::to_completion())
    });
    rep.host = meter.end_region();
    rep.model_start = start;
    rep.model_ns = report.elapsed.as_nanos();

    // Every outcome must be what the auth service's rules give for the
    // order the logins ran in: process `i` presents a wrong password iff
    // `i % WRONG_EVERY == WRONG_EVERY - 1`, and five wrong passwords in a
    // row lock an account for good (so a storm does lock some, on some
    // seeds; those refusals are the expected output, not failures).
    let mut retries = [RETRY_BUDGET; USERS];
    let mut granted = 0u64;
    for (n, (pid, outcome)) in world.outcomes.iter().enumerate() {
        let index = world.env.process(*pid).ok().and_then(|p| {
            p.executable
                .strip_prefix("/bin/login-")?
                .parse::<usize>()
                .ok()
        });
        let Some(i) = index else {
            rep.fail(|| format!("pid {pid}: not a login process"));
            continue;
        };
        let left = &mut retries[i % USERS];
        let mut want = if *left == 0 {
            LoginOutcome::TooManyAttempts
        } else if i % WRONG_EVERY == WRONG_EVERY - 1 {
            *left -= 1;
            LoginOutcome::BadPassword
        } else {
            *left = RETRY_BUDGET;
            LoginOutcome::Granted
        };
        if cfg.corrupt && n == 0 {
            want = LoginOutcome::UnknownUser;
        }
        if *outcome != want {
            rep.fail(|| format!("login-{i}: {outcome:?}, expected {want:?}"));
        }
        granted += u64::from(*outcome == LoginOutcome::Granted);
    }
    if world.outcomes.len() != processes {
        rep.fail(|| format!("{} of {processes} logins resolved", world.outcomes.len()));
    }
    for (pid, err) in &world.failures {
        rep.fail(|| format!("pid {pid}: {err}"));
    }
    if report.stop != StopReason::AllComplete {
        rep.fail(|| format!("scheduler stopped with {:?}", report.stop));
    }
    // Each granted login wrote and read back one session file.
    rep.user_bytes = granted * "session for userNN".len() as u64;

    let kernel = world.env.machine().kernel();
    rep.counters = Counters::snapshot(kernel).since(&before);
    rep.take_meter(meter);
    if cfg.tracing {
        // One op's latency: from the start of the run (every process is
        // admitted at once) to its thread's last audited syscall.
        let mut last: BTreeMap<u64, u64> = world
            .outcomes
            .iter()
            .filter_map(|(pid, _)| world.env.process(*pid).ok())
            .map(|p| (p.thread.raw(), 0))
            .collect();
        if let Some(trace) = kernel.syscall_trace() {
            for r in trace.records() {
                if let Some(tick) = last.get_mut(&r.tid.raw()) {
                    *tick = r.tick;
                }
            }
        }
        rep.latencies = last.values().map(|t| t.saturating_sub(start)).collect();
        rep.kernel = Some(KernelTrace::collect(kernel));
    }
    rep
}

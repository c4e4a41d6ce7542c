//! Multiprogrammed untrusted logins: N concurrent login processes
//! interleaved by the deterministic scheduler on one node.
//!
//! Each process is a scheduled program — a small state machine stepped one
//! quantum at a time — that performs a full gate-call round trip into a
//! shared daemon *split across quanta* (the gate entry, the tainted work
//! and the return gate run in different timeslices, with other processes
//! scheduled in between), then runs the paper's untrusted login protocol
//! and finally touches the user's private files.  Every kernel interaction
//! traps through `Kernel::dispatch`, so the whole workload is visible as
//! one auditable syscall stream, and the same scheduler seed replays the
//! identical interleaving.
//!
//! The gate-call argument spills (return gate + resource container + gate
//! label reads) and the login protocol's category/label pairs cross the
//! boundary as submission batches, so a quantum's kernel work pays one
//! trap cost instead of one per call — visible in the report's
//! [`DispatchStats`] batch-size histogram.

use histar_auth::{AuthService, AuthSystem, LoginOutcome};
use histar_kernel::sched::{
    Program, RunLimit, SchedConfig, SchedContext, ScheduleReport, Scheduler, Step,
};
use histar_kernel::{DispatchStats, Kernel, SyscallStats};
use histar_label::Label;
use histar_sim::SimDuration;
use histar_unix::gatecall::{
    create_service_gate, enter_service, return_from_service, GateSession, ServiceGate,
};
use histar_unix::process::Pid;
use histar_unix::{UnixEnv, UnixError};

/// The shared world the scheduled login processes mutate.
pub struct LoginWorld {
    /// The Unix environment (one machine).
    pub env: UnixEnv,
    /// The authentication system (directory + per-user services).
    pub auth: AuthSystem,
    /// `(pid, outcome)` per completed login, in completion order.
    pub outcomes: Vec<(Pid, LoginOutcome)>,
    /// Errors hit by scheduled programs (empty on a healthy run).
    pub failures: Vec<(Pid, String)>,
}

impl SchedContext for LoginWorld {
    fn sched_kernel(&mut self) -> &mut Kernel {
        self.env.kernel_mut()
    }
}

/// Parameters of the multiprogramming scenario.
#[derive(Clone, Copy, Debug)]
pub struct MultiLoginParams {
    /// Number of concurrent login processes.
    pub processes: usize,
    /// Number of distinct user accounts they log into.
    pub users: usize,
    /// Scheduler seed (fixes the interleaving).
    pub seed: u64,
    /// Ignored: the scheduler has one run queue.  The field stays only
    /// because the `login_storm` workload of the repo benchmark still sets
    /// it; it goes with that benchmark's next change.
    pub shards: usize,
    /// Every `wrong_every`-th process presents a wrong password (0 = none),
    /// exercising the failure path under contention.
    pub wrong_every: usize,
    /// Keep a syscall audit trace of this capacity (0 = tracing off).
    pub trace_capacity: usize,
    /// Keep a flight-recorder span ring of this capacity (0 = recorder
    /// off), capturing dispatch/scheduler/store spans during the run.
    pub recorder_capacity: usize,
}

impl Default for MultiLoginParams {
    fn default() -> MultiLoginParams {
        MultiLoginParams {
            processes: 100,
            users: 8,
            seed: 0x10_91,
            shards: 1,
            wrong_every: 7,
            trace_capacity: 0,
            recorder_capacity: 0,
        }
    }
}

/// What the scenario measured.
#[derive(Clone, Copy, Debug)]
pub struct MultiLoginReport {
    /// The scheduler's view of the run.
    pub schedule: ScheduleReport,
    /// Logins that were granted.
    pub granted: usize,
    /// Logins rejected (wrong password).
    pub rejected: usize,
    /// Dispatched syscalls during the scheduled run.
    pub syscalls: u64,
    /// Kernel activity delta during the scheduled run.
    pub kernel: SyscallStats,
    /// Per-syscall dispatch counters delta during the scheduled run.
    pub dispatch: DispatchStats,
    /// Simulated time the run consumed.
    pub elapsed: SimDuration,
}

/// One login process's lifecycle, stepped one phase per quantum.
enum Phase {
    /// Invoke the shared daemon's service gate (tainted call).
    EnterGate,
    /// Inside the service: allocate scratch state in the donated resource
    /// container, still tainted by the call's taint category.
    TaintedWork(Box<GateSession>),
    /// Invoke the return gate, restoring the caller's own label.
    ReturnGate(Box<GateSession>),
    /// Run the untrusted login protocol against the auth system.
    Login,
    /// Use the granted privilege: write and read back a private file.
    UseFiles,
}

fn login_program(
    pid: Pid,
    service: ServiceGate,
    username: String,
    password: String,
) -> Program<LoginWorld> {
    let mut phase = Some(Phase::EnterGate);
    Box::new(move |world: &mut LoginWorld, _tid| {
        let fail = |world: &mut LoginWorld, err: UnixError| {
            world.failures.push((pid, err.to_string()));
            Step::Done
        };
        match phase.take().expect("program stepped after completion") {
            Phase::EnterGate => match enter_service(&mut world.env, pid, &service, true) {
                Ok(session) => {
                    phase = Some(Phase::TaintedWork(Box::new(session)));
                    Step::Yield
                }
                Err(e) => fail(world, e),
            },
            Phase::TaintedWork(session) => {
                // Tainted by the call's taint category, the thread can only
                // allocate inside the donated resource container.
                let thread = match world.env.process(pid) {
                    Ok(p) => p.thread,
                    Err(e) => return fail(world, e),
                };
                if let (Some(rc), Some(t)) = (session.resource_container, session.taint) {
                    let scratch_label = Label::builder().set(t, histar_label::Level::L3).build();
                    if let Err(e) = world.env.kernel_mut().trap_segment_create(
                        thread,
                        rc.object,
                        scratch_label,
                        128,
                        "gate scratch",
                    ) {
                        return fail(world, e.into());
                    }
                }
                phase = Some(Phase::ReturnGate(session));
                Step::Yield
            }
            Phase::ReturnGate(session) => {
                if let Err(e) = return_from_service(&mut world.env, *session) {
                    return fail(world, e);
                }
                phase = Some(Phase::Login);
                Step::Yield
            }
            Phase::Login => {
                let LoginWorld { env, auth, .. } = world;
                match auth.login(env, pid, &username, &password) {
                    Ok(outcome) => {
                        let granted = outcome == LoginOutcome::Granted;
                        world.outcomes.push((pid, outcome));
                        if granted {
                            phase = Some(Phase::UseFiles);
                            Step::Yield
                        } else {
                            Step::Done
                        }
                    }
                    Err(e) => fail(world, e),
                }
            }
            Phase::UseFiles => {
                let result = (|| -> Result<(), UnixError> {
                    let user = world.env.user(&username)?;
                    let path = format!("/home/{username}/session-{pid}");
                    world.env.write_file_as(
                        pid,
                        &path,
                        format!("session for {username}").as_bytes(),
                        Some(user.private_file_label()),
                    )?;
                    let back = world.env.read_file_as(pid, &path)?;
                    debug_assert!(!back.is_empty());
                    Ok(())
                })();
                match result {
                    Ok(()) => Step::Done,
                    Err(e) => fail(world, e),
                }
            }
        }
    })
}

/// Builds the world: one machine, `users` accounts with home directories, a
/// shared daemon exporting a service gate, and `processes` login processes
/// scheduled but not yet run.
pub fn build_multilogin(
    params: MultiLoginParams,
) -> Result<(LoginWorld, Scheduler<LoginWorld>), UnixError> {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let mut auth = AuthSystem::new();
    env.mkdir(init, "/home", None)?;
    let mut usernames = Vec::new();
    for u in 0..params.users.max(1) {
        let name = format!("user{u}");
        let user = env.create_user(&name)?;
        auth.register(AuthService::new(user, &format!("pw-{name}")));
        env.mkdir(init, &format!("/home/{name}"), None)?;
        usernames.push(name);
    }

    // The shared daemon every process gate-calls into before logging in.
    let daemon = env.spawn(init, "/usr/bin/timestampd", None)?;
    let service = create_service_gate(&mut env, daemon, 0x7100, "timestamp service")?;

    if params.trace_capacity > 0 {
        env.kernel_mut().enable_syscall_trace(params.trace_capacity);
    }
    if params.recorder_capacity > 0 {
        env.kernel_mut()
            .enable_flight_recorder(params.recorder_capacity);
    }

    let mut sched: Scheduler<LoginWorld> = Scheduler::new(SchedConfig::new().seed(params.seed));
    let mut world = LoginWorld {
        env,
        auth,
        outcomes: Vec::new(),
        failures: Vec::new(),
    };
    for i in 0..params.processes {
        let username = usernames[i % usernames.len()].clone();
        let password = if params.wrong_every > 0 && i % params.wrong_every == params.wrong_every - 1
        {
            "wrong-password".to_string()
        } else {
            format!("pw-{username}")
        };
        let pid = world.env.spawn(init, &format!("/bin/login-{i}"), None)?;
        let thread = world.env.process(pid)?.thread;
        sched.spawn(thread, login_program(pid, service, username, password));
    }
    Ok((world, sched))
}

/// Runs the full scenario to completion and reports what happened.
pub fn run_multilogin(
    params: MultiLoginParams,
) -> Result<(LoginWorld, MultiLoginReport), UnixError> {
    let (mut world, mut sched) = build_multilogin(params)?;
    let kernel_before = world.env.machine().kernel().stats();
    let dispatch_before = world.env.machine().kernel().dispatch_stats();
    let schedule = sched.run(&mut world, RunLimit::to_completion());
    let kernel = world.env.machine().kernel().stats().since(&kernel_before);
    let dispatch = world
        .env
        .machine()
        .kernel()
        .dispatch_stats()
        .since(&dispatch_before);
    let granted = world
        .outcomes
        .iter()
        .filter(|(_, o)| *o == LoginOutcome::Granted)
        .count();
    let rejected = world.outcomes.len() - granted;
    let report = MultiLoginReport {
        schedule,
        granted,
        rejected,
        syscalls: dispatch.total(),
        kernel,
        dispatch,
        elapsed: schedule.elapsed,
    };
    Ok((world, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use histar_kernel::sched::StopReason;
    use histar_kernel::TraceRecord;

    #[test]
    fn hundred_processes_complete_deterministically() {
        let params = MultiLoginParams {
            processes: 100,
            users: 8,
            seed: 42,
            wrong_every: 7,
            trace_capacity: 1 << 20,
            recorder_capacity: 1 << 16,
            ..MultiLoginParams::default()
        };
        let (world, report) = run_multilogin(params).unwrap();
        assert_eq!(report.schedule.stop, StopReason::AllComplete);
        assert!(world.failures.is_empty(), "failures: {:?}", world.failures);
        assert_eq!(world.outcomes.len(), 100);
        // ceil-ish arithmetic: processes 6, 13, 20, ... use a wrong password.
        let expected_rejected = 100 / 7;
        assert_eq!(report.rejected, expected_rejected);
        assert_eq!(report.granted, 100 - expected_rejected);
        assert!(report.syscalls > 1000, "got {} syscalls", report.syscalls);
        assert!(report.schedule.stats.context_switches >= 100);
        // The gate-call spills are batched: strictly fewer boundary
        // crossings than dispatched entries.
        assert!(report.dispatch.batches > 0);
        assert!(
            report.dispatch.mean_batch_size() > 1.0,
            "mean batch size {:.3} must exceed 1 when spills are batched",
            report.dispatch.mean_batch_size()
        );

        // Same seed ⇒ identical outcomes AND identical audit trace.
        let (world2, report2) = run_multilogin(params).unwrap();
        assert_eq!(world.outcomes, world2.outcomes);
        assert_eq!(report.syscalls, report2.syscalls);
        assert_eq!(report.schedule.stats.quanta, report2.schedule.stats.quanta);
        let t1: Vec<TraceRecord> = world
            .env
            .machine()
            .kernel()
            .syscall_trace()
            .unwrap()
            .records()
            .copied()
            .collect();
        let t2: Vec<TraceRecord> = world2
            .env
            .machine()
            .kernel()
            .syscall_trace()
            .unwrap()
            .records()
            .copied()
            .collect();
        assert!(!t1.is_empty());
        assert_eq!(t1, t2, "same seed must replay the identical syscall stream");
    }

    #[test]
    fn different_seed_changes_interleaving_not_outcomes() {
        let a = MultiLoginParams {
            processes: 24,
            users: 4,
            seed: 1,
            wrong_every: 0,
            trace_capacity: 0,
            recorder_capacity: 0,
            ..MultiLoginParams::default()
        };
        let b = MultiLoginParams { seed: 2, ..a };
        let (wa, ra) = run_multilogin(a).unwrap();
        let (wb, rb) = run_multilogin(b).unwrap();
        assert_eq!(ra.granted, 24);
        assert_eq!(rb.granted, 24);
        // The multiset of outcomes matches even though the completion order
        // (and hence the trace) may differ.
        let mut oa = wa.outcomes.clone();
        let mut ob = wb.outcomes.clone();
        oa.sort_by_key(|(pid, _)| *pid);
        ob.sort_by_key(|(pid, _)| *pid);
        assert_eq!(oa, ob);
    }

    #[test]
    fn all_trapped_no_direct_syscalls_escape_dispatch() {
        // During the scheduled run, every kernel syscall is dispatched:
        // the aggregate kernel counter and the dispatch counter move in
        // lockstep.
        let (mut world, mut sched) = build_multilogin(MultiLoginParams {
            processes: 10,
            users: 2,
            seed: 3,
            wrong_every: 0,
            trace_capacity: 0,
            recorder_capacity: 0,
            ..MultiLoginParams::default()
        })
        .unwrap();
        let k0 = world.env.machine().kernel().stats().syscalls;
        let d0 = world.env.machine().kernel().dispatch_stats().total();
        sched.run(&mut world, RunLimit::to_completion());
        let dk = world.env.machine().kernel().stats().syscalls - k0;
        let dd = world.env.machine().kernel().dispatch_stats().total() - d0;
        assert_eq!(
            dk, dd,
            "every syscall in the multiprogrammed run must cross dispatch"
        );
    }
}

//! The multiprogramming benchmark behind `BENCH_sched.json`: N concurrent
//! untrusted logins interleaved by the deterministic scheduler (run once
//! untraced and once with the audit trace and flight recorder on), echo
//! calls across the two-node exporter fabric, and a mostly-parked
//! population of users woken one by one.
//!
//! Reported numbers are *simulated* time, like every other harness in this
//! crate: syscalls per simulated second through the dispatch boundary, and
//! the mean context-switch cost actually charged (a mix of full TLB
//! flushes and HiStar's cheap `invlpg` switches, depending on how often
//! adjacent quanta share an address space).

use crate::report::{per_sec, BenchJson};
use histar_apps::multilogin::{run_multilogin, LoginWorld, MultiLoginParams, MultiLoginReport};
use histar_exporter::Fabric;
use histar_kernel::sched::{RunLimit, SchedConfig, Scheduler, Step, StopReason};
use histar_kernel::{Machine, MachineConfig, SyscallStats};
use histar_label::Label;
use histar_sim::{CostModel, LinkConfig, NetConfig, OsFlavor, SimDuration, Topology};

/// Parameters of the scheduler benchmark.
#[derive(Clone, Copy, Debug)]
pub struct SchedBenchParams {
    /// Concurrent login processes on the single node.
    pub processes: usize,
    /// Distinct user accounts.
    pub users: usize,
    /// Scheduler seed.
    pub seed: u64,
    /// Simulated users admitted in the `max_users` phase (mostly parked).
    pub max_users: usize,
    /// Users in the `max_users` phase that actually run a small workload.
    pub max_users_working: usize,
    /// Parked users the `max_users` phase wakes individually at the end.
    pub max_users_wakes: usize,
}

impl SchedBenchParams {
    /// Quick parameters for tests and the committed baseline.
    pub fn smoke() -> SchedBenchParams {
        SchedBenchParams {
            processes: 24,
            users: 4,
            seed: 0xded,
            max_users: 2_000,
            max_users_working: 32,
            max_users_wakes: 8,
        }
    }

    /// The scale targets `baselines --full` runs.
    pub fn full() -> SchedBenchParams {
        SchedBenchParams {
            processes: 200,
            users: 16,
            seed: 0xded,
            max_users: 100_000,
            max_users_working: 512,
            max_users_wakes: 64,
        }
    }
}

/// Ring capacity of the audit trace and the flight recorder in the traced
/// login pass.
const TRACE_CAPACITY: usize = 1 << 16;

/// Echo calls at each batch size (a multiple of the larger batch).
const ECHO_CALLS: usize = 64;

/// Bytes per echo call.
const ECHO_PAYLOAD: usize = 256;

/// Mean context-switch cost implied by the kernel's switch counters, in
/// nanoseconds: the blend of full-flush and `invlpg` switches the run
/// actually performed.
fn mean_switch_cost_ns(stats: &SyscallStats) -> u64 {
    let cost = CostModel::for_flavor(OsFlavor::HiStar);
    let full = stats.context_switches - stats.invlpg_switches;
    (full * cost.context_switch_full.as_nanos()
        + stats.invlpg_switches * cost.context_switch_invlpg.as_nanos())
    .checked_div(stats.context_switches)
    .unwrap_or(0)
}

fn logins(params: SchedBenchParams, capacity: usize) -> (LoginWorld, MultiLoginReport) {
    run_multilogin(MultiLoginParams {
        processes: params.processes,
        users: params.users,
        seed: params.seed,
        wrong_every: 7,
        trace_capacity: capacity,
        recorder_capacity: capacity,
        ..MultiLoginParams::default()
    })
    .expect("multilogin scenario")
}

/// Runs the single-node multiprogrammed-login scenario untraced, then again
/// with the audit trace and the flight recorder on.  Tracing charges no
/// simulated time by construction, so the second pass must match the
/// first tick for tick and syscall for syscall.
pub fn single_node(params: SchedBenchParams, json: &mut BenchJson) {
    let (_, r) = logins(params, 0);
    let ticks = r.elapsed.as_nanos();
    let cost = CostModel::for_flavor(OsFlavor::HiStar);
    let amortized = r.dispatch.amortized_trap_ns(
        cost.syscall.as_nanos(),
        cost.syscall_batched_entry.as_nanos(),
    );
    let syscalls_per_sec = per_sec(r.syscalls, r.elapsed);
    json.metric("single_node.syscalls_per_sec", syscalls_per_sec, ticks);
    let mean_batch = r.dispatch.mean_batch_size();
    json.metric("single_node.mean_batch_size", mean_batch, ticks);
    json.metric("single_node.amortized_trap_ns_per_call", amortized, ticks);
    json.metric("single_node.batches", r.dispatch.batches as f64, ticks);
    let hist = &r.dispatch.batch_size_hist;
    json.histogram("single_node.batch_hist", hist, ticks);
    let switch_ns = mean_switch_cost_ns(&r.kernel) as f64;
    json.metric("single_node.context_switch_cost_ns", switch_ns, ticks);
    json.metric("single_node.syscalls", r.syscalls as f64, ticks);
    let completed = r.schedule.stats.completed as f64;
    json.metric("single_node.completed", completed, ticks);

    let (world, traced) = logins(params, TRACE_CAPACITY);
    assert_eq!(
        (traced.elapsed, traced.syscalls),
        (r.elapsed, r.syscalls),
        "tracing leaked into the cost model"
    );
    let kernel = world.env.machine().kernel();
    let recorder = kernel.recorder();
    let spans = recorder.total_recorded() as f64;
    json.metric("tracing.spans_recorded", spans, ticks);
    json.metric("tracing.spans_dropped", recorder.dropped() as f64, ticks);
    let trace_dropped = traced.dispatch.trace_dropped as f64;
    json.metric("tracing.trace_dropped", trace_dropped, ticks);
    json.metric("registry.metrics", kernel.metrics().len() as f64, ticks);
}

/// Echo calls from node 0 to a service on node 1, [`ECHO_CALLS`] one per
/// frame and then 32 per frame, each on a fresh two-node fabric: the
/// cross-node path (label translation, envelope authentication, netd, the
/// wire) and what batching amortizes of it.
pub fn fabric_echo(json: &mut BenchJson) {
    for batch in [1, 32] {
        // The link `benchmark/`'s `exporter_echo` workload runs on.
        let mut topology = Topology::fully_connected(2);
        topology.set_default_link(LinkConfig {
            net: NetConfig::default(),
            per_message_cpu: SimDuration::from_micros(10),
        });
        let mut fabric = Fabric::with_topology(topology);
        let spawn = |fabric: &mut Fabric, node: usize, path: &str| {
            let init = fabric.nodes[node].init();
            let pid = fabric.nodes[node].env.spawn(init, path, None);
            pid.expect("spawn on a fresh node")
        };
        let echod = spawn(&mut fabric, 1, "/usr/bin/echod");
        fabric
            .register_service(1, "echo", echod, Box::new(|_e, _w, req| req.to_vec()))
            .expect("register echo service");
        let client = spawn(&mut fabric, 0, "/bin/client");

        let requests = vec![vec![0xa5u8; ECHO_PAYLOAD]; batch];
        let start = fabric.nodes[0].env.machine().uptime();
        for _ in 0..ECHO_CALLS / batch {
            let replies = fabric.remote_call_batch(0, client, 1, "echo", &requests, None, &[]);
            for reply in replies.expect("echo batch") {
                let bytes = fabric.read_reply(0, client, &reply.expect("echo reply"));
                assert_eq!(bytes.expect("read reply"), requests[0]);
            }
        }
        let elapsed = fabric.nodes[0].env.machine().uptime() - start;
        json.metric(
            &format!("fabric.echo.b{batch}.calls_per_sec"),
            per_sec(ECHO_CALLS as u64, elapsed),
            elapsed.as_nanos(),
        );
    }
}

/// Admits `params.max_users` threads on a raw machine — a working subset
/// runs a few labeled syscalls and retires, the rest park — then wakes
/// `params.max_users_wakes` parked users one by one via the external-wake
/// path and measures what each wake cost the scheduler.  The O(events)
/// claim: the wake pass examines the dirtied threads, never the parked
/// mass, so `examined_per_wake` stays 1 and `wake_efficiency` (woken over
/// examined, dragged toward zero by any rescan) stays 1.
pub fn max_users(params: SchedBenchParams, json: &mut BenchJson) {
    let mut m = Machine::boot(MachineConfig::default());
    let boot = m.kernel_thread();
    let root = m.kernel().root_container();
    let mut sched: Scheduler<Machine> = Scheduler::new(SchedConfig::new().seed(params.seed));

    let users = params.max_users.max(1);
    let working_stride = (users / params.max_users_working.max(1)).max(1);
    let mut parked_tids = Vec::new();
    for i in 0..users {
        let tid = m
            .kernel_mut()
            .trap_thread_create(
                boot,
                root,
                Label::unrestricted(),
                Label::default_clearance(),
                0,
                &format!("u{i}"),
            )
            .expect("create user thread");
        if i % working_stride == 0 {
            // The working subset: a couple of real syscalls, then done.
            sched.spawn(
                tid,
                Box::new(move |m: &mut Machine, tid| {
                    let _ = m.kernel_mut().trap_self_get_label(tid);
                    Step::Done
                }),
            );
        } else {
            // The idle mass: park on the first quantum, retire if woken.
            parked_tids.push(tid);
            let mut parked = false;
            sched.spawn(
                tid,
                Box::new(move |_m: &mut Machine, _tid| {
                    if parked {
                        Step::Done
                    } else {
                        parked = true;
                        Step::Block
                    }
                }),
            );
        }
    }

    let start = m.kernel().now();
    let admit = m.run_until(&mut sched, RunLimit::to_completion());
    assert_eq!(admit.stop, StopReason::AllBlocked, "the idle mass parks");

    // Wake a spread of parked users, one targeted event each.
    let wakes = params.max_users_wakes.min(parked_tids.len());
    let wake_stride = (parked_tids.len() / wakes.max(1)).max(1);
    for w in 0..wakes {
        let tid = parked_tids[w * wake_stride];
        m.kernel_mut().sched_wake(tid).expect("wake parked user");
    }
    let wake = m.run_until(&mut sched, RunLimit::to_completion());
    assert_eq!(wake.stop, StopReason::AllBlocked, "the rest stay parked");
    assert_eq!(wake.stats.completed, wakes as u64, "each wake retires one");

    let ticks = (m.kernel().now() - start).as_nanos();
    let (wakes, examined) = (wakes as f64, wake.stats.wake_examined as f64);
    json.metric("max_users.users", users as f64, ticks);
    let high_water = sched.stats().parked_high_water as f64;
    json.metric("max_users.parked_high_water", high_water, ticks);
    json.metric("max_users.examined_per_wake", examined / wakes, ticks);
    // Any rescan of the parked mass drags this toward zero.
    let efficiency = if examined == 0.0 {
        1.0
    } else {
        wakes / examined
    };
    json.metric("max_users.wake_efficiency", efficiency, ticks);
    json.metric("max_users.wake_quanta", wake.stats.quanta as f64, ticks);
}

/// Runs every phase into one `BENCH_sched.json` report.
pub fn run(params: SchedBenchParams) -> BenchJson {
    let mut json = BenchJson::new("sched");
    single_node(params, &mut json);
    fabric_echo(&mut json);
    max_users(params, &mut json);
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs one phase at smoke size and returns a lookup of its rows.
    fn smoke(phase: fn(SchedBenchParams, &mut BenchJson)) -> impl Fn(&str) -> f64 {
        let mut json = BenchJson::new("sched");
        phase(SchedBenchParams::smoke(), &mut json);
        move |name| json.value(name).unwrap_or_else(|| panic!("no {name}"))
    }

    #[test]
    fn single_node_smoke_measures_throughput() {
        let v = smoke(single_node);
        assert_eq!(v("single_node.completed"), 24.0);
        assert!(v("single_node.syscalls") > 500.0);
        assert!(v("single_node.syscalls_per_sec") > 0.0);
        assert!(v("single_node.context_switch_cost_ns") > 0.0);
    }

    #[test]
    fn tracing_is_free_on_simulated_time() {
        // Spans and counters never touch the cost model, so the same seed
        // yields bit-identical simulated time with tracing on.
        let params = SchedBenchParams::smoke();
        let (_, untraced) = logins(params, 0);
        let (_, traced) = logins(params, TRACE_CAPACITY);
        assert_eq!(traced.elapsed, untraced.elapsed);
        assert_eq!(traced.syscalls, untraced.syscalls);
    }

    #[test]
    fn enabled_run_captures_spans_and_registry() {
        let (world, _) = logins(SchedBenchParams::smoke(), 0);
        assert_eq!(world.env.machine().kernel().recorder().total_recorded(), 0);
        let v = smoke(single_node);
        assert!(v("tracing.spans_recorded") > 0.0, "recorder saw dispatches");
        assert_eq!(v("tracing.spans_dropped"), 0.0);
        assert_eq!(v("tracing.trace_dropped"), 0.0);
        assert!(
            v("registry.metrics") > 20.0,
            "registry snapshots the machine"
        );
    }

    #[test]
    fn fabric_echo_completes_every_round_trip() {
        // `fabric_echo` asserts each reply equals its request; here, that
        // both batch sizes ran to the end and took simulated time.
        let v = smoke(|_, json| fabric_echo(json));
        for batch in [1, 32] {
            let rate = v(&format!("fabric.echo.b{batch}.calls_per_sec"));
            assert!(rate.is_finite() && rate > 0.0, "batch {batch}: {rate}");
        }
    }

    #[test]
    fn fabric_echo_batching_reduces_per_call_cost() {
        let v = smoke(|_, json| fabric_echo(json));
        assert!(v("fabric.echo.b32.calls_per_sec") > v("fabric.echo.b1.calls_per_sec"));
    }

    #[test]
    fn max_users_wakes_are_o_of_events() {
        let v = smoke(max_users);
        assert_eq!(v("max_users.users"), 2_000.0);
        let high_water = v("max_users.parked_high_water");
        assert!(high_water >= 2_000.0 - 40.0, "high water {high_water}");
        // The wake pass must examine only the dirtied threads, never the
        // parked population, and spend about one quantum per wake.
        assert!(v("max_users.examined_per_wake") <= 2.0);
        assert!(v("max_users.wake_quanta") <= 2.0 * 8.0);
    }

    #[test]
    fn batching_amortizes_the_trap_cost() {
        let v = smoke(single_node);
        // The login workload batches its gate-call spills, so batches are
        // smaller in number than entries and the amortized boundary cost
        // is strictly below the full trap cost.
        assert!(v("single_node.batches") > 0.0);
        assert!(v("single_node.mean_batch_size") > 1.0);
        let full_trap = CostModel::for_flavor(OsFlavor::HiStar).syscall.as_nanos() as f64;
        assert!(v("single_node.amortized_trap_ns_per_call") < full_trap);
        // The histogram sees both single-call traps and multi-call batches.
        assert!(v("single_node.batch_hist.1") > 0.0, "1-entry batches");
        assert!(v("single_node.batch_hist.2") > 0.0, "multi-entry batches");
    }

    #[test]
    fn run_emits_json() {
        let j = run(SchedBenchParams::smoke()).render();
        assert!(j.contains("\"name\": \"sched\""));
        for row in [
            "single_node.syscalls_per_sec",
            "tracing.spans_recorded",
            "fabric.echo.b32.calls_per_sec",
            "max_users.wake_quanta",
        ] {
            assert!(j.contains(row), "missing {row}");
        }
    }
}

//! A deterministic scheduler over kernel threads: one FIFO run queue, one
//! wait set, and O(events) wake.
//!
//! The paper's kernel schedules threads; this reproduction historically let
//! library code drive every thread to completion as nested function calls,
//! so `ThreadState::Runnable` existed with nothing that ever *ran* a
//! thread.  This module closes that gap for the simulated machine:
//!
//! * every scheduled thread is represented by a **program** — a state
//!   machine stepped one quantum at a time, issuing its kernel work through
//!   [`Kernel::dispatch`](crate::kernel::Kernel) on its own thread ID;
//! * the [`Scheduler`] keeps **one run queue**: a thread that yields goes to
//!   its tail, and the head runs next.  Threads spawned before the first
//!   [`Scheduler::run`] form the initial batch, shuffled once by the seed;
//!   every later spawn joins the tail in spawn order;
//! * waking is **O(events)**: parked threads are re-examined only when the
//!   kernel marks them sched-dirty or [`Scheduler::wake`] names them, and
//!   eligibility is a single [`Kernel::wake_eligibility`] probe that reads
//!   the thread object (whether it halted, and whether its alert list and
//!   completion queue are empty) — no derived wake bits, and no walk over
//!   either queue.  Which threads are parked is the scheduler's own state:
//!   the kernel keeps no copy of it.  The eligible ones rejoin the tail in
//!   park order;
//! * scheduling is **deterministic** and **gives no thread a say over
//!   another's order**: the seed fixes the initial batch, and from there
//!   the relative order of any set of threads' quanta is a function of
//!   those threads' own steps, the wakes they are sent and the harness's
//!   actions.  A thread that spawns more threads, blocks, or finishes
//!   early shifts when others run in simulated time, never the order
//!   among them.
//!
//! Programs run against a caller-supplied context type implementing
//! [`SchedContext`] (the kernel itself, a whole [`Machine`], or a library
//! environment wrapping one), which is how untrusted user-level libraries
//! — the Unix environment, the auth services — are multiprogrammed without
//! the kernel crate knowing about them.

use crate::kernel::{Kernel, WakeReason};
use crate::machine::Machine;
use crate::object::ObjectId;
use histar_sim::{SimDuration, SimRng};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// What a program reports at the end of one quantum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// The quantum is used up; schedule me again later.
    Yield,
    /// Block until an alert arrives for this thread.
    Block,
    /// The program is finished; halt the thread and retire it.
    Done,
}

/// A scheduled thread's user-level program: called once per quantum with
/// the shared context and the thread's own ID.
pub type Program<Ctx> = Box<dyn FnMut(&mut Ctx, ObjectId) -> Step>;

/// Anything a scheduler can run programs against.  The only requirement is
/// reaching the kernel (for thread states, wakeups and cost accounting).
pub trait SchedContext {
    /// The kernel the scheduled threads live in.
    fn sched_kernel(&mut self) -> &mut Kernel;
}

impl SchedContext for Kernel {
    fn sched_kernel(&mut self) -> &mut Kernel {
        self
    }
}

impl SchedContext for Machine {
    fn sched_kernel(&mut self) -> &mut Kernel {
        self.kernel_mut()
    }
}

/// CPU time charged per program step (one quantum).
pub const DEFAULT_QUANTUM: SimDuration = SimDuration::from_micros(50);

/// Construction-time parameters for a [`Scheduler`], built fluently:
///
/// ```ignore
/// let sched = Scheduler::new(SchedConfig::new().seed(7));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedConfig {
    /// Seed fixing the order of the initial batch (the threads spawned
    /// before the first [`Scheduler::run`]).
    pub seed: u64,
}

impl SchedConfig {
    /// The default configuration (seed 0).
    pub fn new() -> SchedConfig {
        SchedConfig::default()
    }

    /// Sets the scheduler seed.
    pub fn seed(mut self, seed: u64) -> SchedConfig {
        self.seed = seed;
        self
    }
}

/// Bounds on one [`Scheduler::run`] invocation.
#[derive(Clone, Copy, Debug)]
pub struct RunLimit {
    /// Maximum quanta to execute before returning.
    pub max_quanta: u64,
    /// Stop once the simulated clock passes this time, if set.
    pub deadline: Option<SimDuration>,
}

impl RunLimit {
    /// Run at most `n` quanta.
    pub fn quanta(n: u64) -> RunLimit {
        RunLimit {
            max_quanta: n,
            deadline: None,
        }
    }

    /// Run until every program completes or blocks forever (with a large
    /// safety bound so a buggy program cannot spin the host).
    pub fn to_completion() -> RunLimit {
        RunLimit {
            max_quanta: 10_000_000,
            deadline: None,
        }
    }

    /// Additionally stop at a simulated-time deadline.
    pub fn until(mut self, deadline: SimDuration) -> RunLimit {
        self.deadline = Some(deadline);
        self
    }
}

/// Why [`Scheduler::run`] returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// Every scheduled program has completed (or its thread halted).
    AllComplete,
    /// The quantum budget ran out.
    QuantaExhausted,
    /// The simulated-time deadline passed.
    DeadlinePassed,
    /// Only blocked threads remain and none has a pending wake event.
    AllBlocked,
}

/// Counters describing one or more [`Scheduler::run`] invocations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Quanta executed (program steps).
    pub quanta: u64,
    /// Context switches performed (one per quantum that changed threads).
    pub context_switches: u64,
    /// Programs retired (completed or found halted).
    pub completed: u64,
    /// Blocked threads woken because an alert was pending.
    pub alert_wakeups: u64,
    /// Blocked threads woken because a completion landed on their
    /// completion queue.
    pub completion_wakeups: u64,
    /// Parked threads woken explicitly ([`Scheduler::wake`]).
    pub external_wakeups: u64,
    /// Wake passes that had at least one sched-dirty thread to examine.
    pub wake_passes: u64,
    /// Parked threads re-examined across all wake passes.  The O(events)
    /// guarantee in numbers: this tracks dirtied threads, not the parked
    /// population, so 10⁵ idle users cost nothing here.
    pub wake_examined: u64,
    /// Most threads ever parked at once (a level, not a count).
    pub parked_high_water: u64,
}

impl SchedStats {
    /// The per-run delta between two snapshots: counters subtract;
    /// `parked_high_water` is a level and carries the later value.
    pub fn since(&self, before: &SchedStats) -> SchedStats {
        SchedStats {
            quanta: self.quanta - before.quanta,
            context_switches: self.context_switches - before.context_switches,
            completed: self.completed - before.completed,
            alert_wakeups: self.alert_wakeups - before.alert_wakeups,
            completion_wakeups: self.completion_wakeups - before.completion_wakeups,
            external_wakeups: self.external_wakeups - before.external_wakeups,
            wake_passes: self.wake_passes - before.wake_passes,
            wake_examined: self.wake_examined - before.wake_examined,
            parked_high_water: self.parked_high_water,
        }
    }
}

impl histar_obs::MetricSource for SchedStats {
    fn export(&self, set: &mut histar_obs::MetricSet) {
        set.counter("sched.quanta", self.quanta);
        set.counter("sched.context_switches", self.context_switches);
        set.counter("sched.completed", self.completed);
        set.counter("sched.alert_wakeups", self.alert_wakeups);
        set.counter("sched.completion_wakeups", self.completion_wakeups);
        set.counter("sched.external_wakeups", self.external_wakeups);
        set.counter("sched.wake_passes", self.wake_passes);
        set.counter("sched.wake_examined", self.wake_examined);
        set.gauge("sched.parked_high_water", self.parked_high_water);
    }
}

/// The result of one [`Scheduler::run`] invocation: the per-run
/// [`SchedStats`] delta plus why the run stopped and what it cost.
#[derive(Clone, Copy, Debug)]
pub struct ScheduleReport {
    /// Why the run stopped.
    pub stop: StopReason,
    /// Counter deltas for this run (see [`SchedStats::since`]).
    pub stats: SchedStats,
    /// Programs still scheduled (runnable or blocked) at return.
    pub remaining: usize,
    /// Simulated time consumed by this run.
    pub elapsed: SimDuration,
}

/// A deterministic scheduler over one FIFO run queue.
///
/// `Ctx` is the shared world the programs mutate — see [`SchedContext`].
pub struct Scheduler<Ctx> {
    config: SchedConfig,
    /// Runnable threads, head first.
    queue: VecDeque<ObjectId>,
    /// Parked threads → park sequence number, for deterministic wake order.
    waiting: BTreeMap<ObjectId, u64>,
    /// Parked threads [`Scheduler::wake`] named since the last wake pass.
    woken: BTreeSet<ObjectId>,
    /// Monotonic counter stamping each park.
    park_seq: u64,
    /// Whether `run` has been called, so the initial batch is settled.
    started: bool,
    programs: BTreeMap<ObjectId, Program<Ctx>>,
    last_run: Option<ObjectId>,
    stats: SchedStats,
}

impl<Ctx: SchedContext> Scheduler<Ctx> {
    /// Creates a scheduler from its configuration.
    pub fn new(config: SchedConfig) -> Scheduler<Ctx> {
        Scheduler {
            config,
            queue: VecDeque::new(),
            waiting: BTreeMap::new(),
            woken: BTreeSet::new(),
            park_seq: 0,
            started: false,
            programs: BTreeMap::new(),
            last_run: None,
            stats: SchedStats::default(),
        }
    }

    /// Schedules `program` to run as thread `tid`, at the tail of the run
    /// queue.  Threads spawned before the first `run` are the initial
    /// batch, whose order the seed decides.
    pub fn spawn(&mut self, tid: ObjectId, program: Program<Ctx>) {
        self.programs.insert(tid, program);
        self.queue.push_back(tid);
    }

    /// Number of threads still scheduled (runnable or blocked).
    pub fn scheduled(&self) -> usize {
        self.programs.len()
    }

    /// Aggregate counters across all runs.
    pub fn stats(&self) -> SchedStats {
        self.stats
    }

    /// The configuration this scheduler was built with.
    pub fn config(&self) -> SchedConfig {
        self.config
    }

    /// Parks a thread in the wait set and marks it sched-dirty so the next
    /// wake pass re-checks it once: a completion or alert that landed
    /// during the thread's final quantum (watch-then-block) must not be
    /// lost just because the event preceded the park.
    fn park(&mut self, ctx: &mut Ctx, tid: ObjectId) {
        self.park_seq += 1;
        self.waiting.insert(tid, self.park_seq);
        let parked = self.waiting.len() as u64;
        self.stats.parked_high_water = self.stats.parked_high_water.max(parked);
        ctx.sched_kernel().sched_park(tid);
    }

    /// Wakes parked thread `tid` whatever it waits for: the next wake pass
    /// requeues it, in park order with the threads an event woke.  A thread
    /// that is not parked is unaffected.
    pub fn wake(&mut self, tid: ObjectId) {
        if self.waiting.contains_key(&tid) {
            self.woken.insert(tid);
        }
    }

    /// Drops a thread from the scheduler entirely (halted or deallocated).
    fn retire(&mut self, tid: ObjectId) {
        self.programs.remove(&tid);
        self.stats.completed += 1;
    }

    /// Re-examines exactly the parked threads whose wake conditions may
    /// have changed — the kernel's sched-dirty list and the threads
    /// [`Scheduler::wake`] named — and moves the eligible ones to the tail
    /// of the run queue in park order.
    /// Eligibility is one [`Kernel::wake_eligibility`] probe per dirtied
    /// thread, answered from the emptiness of the queues the thread object
    /// carries, so the pass never walks them.  Threads with no event stay
    /// parked untouched, so 10⁵ idle users cost nothing here.
    fn wake_waiters(&mut self, ctx: &mut Ctx) {
        let dirty = ctx.sched_kernel().take_sched_dirty();
        if dirty.is_empty() && self.woken.is_empty() {
            return;
        }
        self.stats.wake_passes += 1;
        let mut hits: Vec<(u64, ObjectId)> = dirty
            .into_iter()
            .chain(self.woken.iter().copied())
            .filter_map(|tid| self.waiting.get(&tid).map(|&seq| (seq, tid)))
            .collect();
        hits.sort_unstable();
        hits.dedup();
        for (_, tid) in hits {
            self.stats.wake_examined += 1;
            let woken = self.woken.remove(&tid);
            match ctx.sched_kernel().wake_eligibility(tid) {
                WakeReason::Retired => {
                    self.waiting.remove(&tid);
                    self.retire(tid);
                    continue;
                }
                _ if woken => self.stats.external_wakeups += 1,
                WakeReason::Alert => self.stats.alert_wakeups += 1,
                WakeReason::Completion => self.stats.completion_wakeups += 1,
                // The event was spurious: stay parked.
                WakeReason::Parked => continue,
            }
            self.waiting.remove(&tid);
            self.queue.push_back(tid);
        }
    }

    /// Runs scheduled programs, one quantum each from the head of the run
    /// queue, until `limit` is reached, every program completes, or only
    /// hopelessly blocked threads remain.  The first call shuffles the
    /// initial batch by the seed.
    ///
    /// Blocked threads live in the wait set, not the run queue: they are
    /// charged no quanta and never stepped until a completion, an alert or
    /// [`Scheduler::wake`] wakes them.  Each `run` is a fresh occupancy of
    /// the CPU: the first quantum always charges a context switch
    /// (`last_run` does not leak across invocations).
    pub fn run(&mut self, ctx: &mut Ctx, limit: RunLimit) -> ScheduleReport {
        self.last_run = None;
        if !self.started {
            self.started = true;
            SimRng::new(self.config.seed ^ 0x5ced_5ced).shuffle(self.queue.make_contiguous());
        }
        let start = ctx.sched_kernel().now();
        let before = self.stats;
        let stop = loop {
            self.wake_waiters(ctx);
            if self.queue.is_empty() {
                break if self.waiting.is_empty() {
                    StopReason::AllComplete
                } else {
                    StopReason::AllBlocked
                };
            }
            if self.stats.quanta - before.quanta >= limit.max_quanta {
                break StopReason::QuantaExhausted;
            }
            if let Some(deadline) = limit.deadline {
                if ctx.sched_kernel().now() >= deadline {
                    break StopReason::DeadlinePassed;
                }
            }
            let tid = self.queue.pop_front().expect("run queue checked non-empty");
            // A halted (or deallocated) thread is retired without running:
            // self_halt and thread teardown are honored here.
            if ctx.sched_kernel().wake_eligibility(tid) == WakeReason::Retired {
                self.retire(tid);
                continue;
            }

            // Charge the switch onto this thread and its timeslice.
            let (recorder, quantum_start) = {
                let kernel = ctx.sched_kernel();
                let quantum_start = kernel.now().as_nanos();
                if self.last_run != Some(tid) {
                    let _ = kernel.sched_context_switch(tid);
                    self.stats.context_switches += 1;
                    kernel.recorder().record(histar_obs::Span {
                        cat: "sched",
                        name: "context_switch",
                        start: quantum_start,
                        end: kernel.now().as_nanos(),
                        tid: tid.raw(),
                        seq: self.stats.context_switches,
                    });
                }
                kernel.sched_charge(DEFAULT_QUANTUM);
                (kernel.recorder().clone(), quantum_start)
            };
            self.last_run = Some(tid);
            self.stats.quanta += 1;

            let mut program = self
                .programs
                .remove(&tid)
                .expect("every queued thread has a program");
            let step = program(ctx, tid);
            recorder.record(histar_obs::Span {
                cat: "sched",
                name: "quantum",
                start: quantum_start,
                end: ctx.sched_kernel().now().as_nanos(),
                tid: tid.raw(),
                seq: self.stats.quanta,
            });
            match step {
                Step::Yield => {
                    self.programs.insert(tid, program);
                    self.queue.push_back(tid);
                }
                Step::Block => {
                    self.programs.insert(tid, program);
                    self.park(ctx, tid);
                }
                Step::Done => {
                    // Halt through the trap boundary so the audit trace
                    // records the thread's exit like any other syscall.
                    let _ = ctx.sched_kernel().trap_self_halt(tid);
                    self.stats.completed += 1;
                }
            }
        };
        self.publish_metrics(ctx);
        let after = self.stats;
        ScheduleReport {
            stop,
            stats: after.since(&before),
            remaining: self.programs.len(),
            elapsed: ctx.sched_kernel().now() - start,
        }
    }

    /// Publishes the scheduler's counters and its queue-depth and parked
    /// gauges to the kernel's metric registry, making them visible at
    /// `/metrics`.
    fn publish_metrics(&self, ctx: &mut Ctx) {
        let mut set = histar_obs::MetricSet::new();
        set.collect(&self.stats);
        set.gauge("sched.queue_depth", self.queue.len() as u64);
        set.gauge("sched.parked", self.waiting.len() as u64);
        ctx.sched_kernel().publish_sched_metrics(set);
    }
}

impl Machine {
    /// Drives a scheduler over this machine until `limit` is reached or all
    /// programs complete — the machine-level "run the CPU" loop.
    pub fn run_until(&mut self, sched: &mut Scheduler<Machine>, limit: RunLimit) -> ScheduleReport {
        sched.run(self, limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use crate::object::ContainerEntry;
    use histar_label::Label;

    fn spawn_thread(m: &mut Machine, name: &str) -> ObjectId {
        let boot = m.kernel_thread();
        let root = m.kernel().root_container();
        m.kernel_mut()
            .trap_thread_create(
                boot,
                root,
                Label::unrestricted(),
                Label::default_clearance(),
                0,
                name,
            )
            .unwrap()
    }

    /// A program that appends `tag` to a shared segment `n` times, one
    /// write per quantum.
    fn writer(entry: ContainerEntry, tag: u8, n: usize) -> Program<Machine> {
        let mut remaining = n;
        Box::new(move |m: &mut Machine, tid: ObjectId| {
            let len = m.kernel_mut().trap_segment_len(tid, entry).unwrap();
            m.kernel_mut()
                .trap_segment_write(tid, entry, len, &[tag])
                .unwrap();
            remaining -= 1;
            if remaining == 0 {
                Step::Done
            } else {
                Step::Yield
            }
        })
    }

    fn interleaving(config: SchedConfig) -> (Vec<u8>, ScheduleReport) {
        let mut m = Machine::boot(MachineConfig::default());
        let boot = m.kernel_thread();
        let root = m.kernel().root_container();
        let seg = m
            .kernel_mut()
            .trap_segment_create(boot, root, Label::unrestricted(), 0, "log")
            .unwrap();
        let entry = ContainerEntry::new(root, seg);
        let mut sched: Scheduler<Machine> = Scheduler::new(config);
        for (i, tag) in [b'a', b'b', b'c'].into_iter().enumerate() {
            let tid = spawn_thread(&mut m, &format!("w{i}"));
            sched.spawn(tid, writer(entry, tag, 3));
        }
        let report = m.run_until(&mut sched, RunLimit::to_completion());
        let len = {
            let boot = m.kernel_thread();
            m.kernel_mut().trap_segment_len(boot, entry).unwrap()
        };
        let boot = m.kernel_thread();
        let bytes = m
            .kernel_mut()
            .trap_segment_read(boot, entry, 0, len)
            .unwrap();
        (bytes, report)
    }

    fn cfg(seed: u64) -> SchedConfig {
        SchedConfig::new().seed(seed)
    }

    #[test]
    fn round_robin_interleaves_and_completes() {
        let (bytes, report) = interleaving(cfg(7));
        assert_eq!(report.stop, StopReason::AllComplete);
        assert_eq!(report.stats.quanta, 9);
        assert_eq!(report.stats.completed, 3);
        assert_eq!(report.remaining, 0);
        assert!(report.elapsed > SimDuration::ZERO);
        // Nine writes, three per writer, strictly interleaved: the run
        // queue takes one quantum per thread per revolution, never
        // run-to-completion, so every three bytes repeat the first three.
        assert_eq!(bytes.len(), 9);
        let mut first: Vec<u8> = bytes[..3].to_vec();
        assert_eq!(bytes[3..6], first[..]);
        assert_eq!(bytes[6..], first[..]);
        first.sort_unstable();
        assert_eq!(first, vec![b'a', b'b', b'c']);
    }

    #[test]
    fn same_seed_same_interleaving_different_seed_may_differ() {
        let (a1, _) = interleaving(cfg(7));
        let (a2, _) = interleaving(cfg(7));
        assert_eq!(a1, a2, "scheduling must be deterministic per seed");
        // Across seeds the multiset of work is identical.
        for other in [cfg(8), cfg(9), cfg(10)] {
            let (b, _) = interleaving(other);
            let mut sa = a1.clone();
            let mut sb = b.clone();
            sa.sort_unstable();
            sb.sort_unstable();
            assert_eq!(sa, sb);
        }
    }

    #[test]
    fn later_batches_join_the_tail_in_spawn_order() {
        // Only the initial batch is shuffled: once a run has begun, every
        // seed admits a new batch in the order it was spawned.
        for seed in 0..8 {
            let mut m = Machine::boot(MachineConfig::default());
            let mut sched: Scheduler<Machine> = Scheduler::new(cfg(seed));
            let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
            for batch in [b"xyz", b"abc"] {
                for &tag in batch {
                    let log = log.clone();
                    let tid = spawn_thread(&mut m, "t");
                    sched.spawn(
                        tid,
                        Box::new(move |_m, _tid| {
                            log.borrow_mut().push(tag);
                            Step::Done
                        }),
                    );
                }
                m.run_until(&mut sched, RunLimit::to_completion());
            }
            assert_eq!(log.borrow()[3..], b"abc"[..], "seed {seed}");
        }
    }

    #[test]
    fn each_run_charges_its_first_context_switch() {
        // Regression: `last_run` must not leak across `run` invocations.
        // A scheduler that remembers the previous run's last thread would
        // skip the context-switch charge on the first quantum of the next
        // run, under-counting switches and under-charging simulated time.
        let mut m = Machine::boot(MachineConfig::default());
        let t = spawn_thread(&mut m, "spinner");
        let mut sched: Scheduler<Machine> = Scheduler::new(cfg(1));
        assert_eq!(sched.config().seed, 1);
        sched.spawn(t, Box::new(|_m, _tid| Step::Yield));
        let first = m.run_until(&mut sched, RunLimit::quanta(3));
        assert_eq!(first.stats.quanta, 3);
        assert_eq!(
            first.stats.context_switches, 1,
            "one switch onto the only thread, then none"
        );
        let second = m.run_until(&mut sched, RunLimit::quanta(2));
        assert_eq!(second.stats.quanta, 2);
        assert_eq!(
            second.stats.context_switches, 1,
            "a new run is a fresh occupancy: its first quantum pays the switch"
        );
    }

    #[test]
    fn run_publishes_metrics_to_kernel_registry() {
        let mut m = Machine::boot(MachineConfig::default());
        let t = spawn_thread(&mut m, "t");
        let u = spawn_thread(&mut m, "u");
        let mut sched: Scheduler<Machine> = Scheduler::new(cfg(3));
        sched.spawn(t, Box::new(|_m, _tid| Step::Done));
        sched.spawn(u, Box::new(|_m, _tid| Step::Block));
        m.run_until(&mut sched, RunLimit::to_completion());
        let set = m.kernel().metrics();
        assert_eq!(set.get("sched.quanta"), Some(2));
        assert_eq!(set.get("sched.completed"), Some(1));
        assert_eq!(set.get("sched.queue_depth"), Some(0));
        assert_eq!(set.get("sched.parked"), Some(1));
    }

    #[test]
    fn halted_threads_are_retired_and_blocked_threads_wake_on_alert() {
        let mut m = Machine::boot(MachineConfig::default());
        let root = m.kernel().root_container();
        let sleeper = spawn_thread(&mut m, "sleeper");
        let waker = spawn_thread(&mut m, "waker");
        // Give both threads an address space so alerts can be delivered.
        let boot = m.kernel_thread();
        let aspace = m
            .kernel_mut()
            .trap_as_create(boot, root, Label::unrestricted(), "as")
            .unwrap();
        let ae = ContainerEntry::new(root, aspace);
        m.kernel_mut().trap_self_set_as(sleeper, ae).unwrap();

        let mut sched: Scheduler<Machine> = Scheduler::new(cfg(1));
        let woke = std::rc::Rc::new(std::cell::Cell::new(false));
        let woke2 = woke.clone();
        sched.spawn(
            sleeper,
            Box::new(move |m: &mut Machine, tid| {
                if m.kernel_mut().trap_self_take_alert(tid).unwrap().is_some() {
                    woke2.set(true);
                    Step::Done
                } else {
                    Step::Block
                }
            }),
        );
        let mut waker_steps = 0u32;
        sched.spawn(
            waker,
            Box::new(move |m: &mut Machine, tid| {
                waker_steps += 1;
                match waker_steps {
                    // Let the sleeper run (and park) first: the run queue
                    // steps every runnable thread once per revolution, so
                    // by our second quantum it has blocked.
                    1 => Step::Yield,
                    2 => {
                        m.kernel_mut()
                            .trap_thread_alert(tid, ContainerEntry::new(root, sleeper), 9)
                            .unwrap();
                        Step::Yield
                    }
                    _ => Step::Done,
                }
            }),
        );
        let report = m.run_until(&mut sched, RunLimit::to_completion());
        assert_eq!(report.stop, StopReason::AllComplete);
        assert!(woke.get(), "the blocked sleeper must wake on the alert");
        assert!(sched.stats().alert_wakeups >= 1);
    }

    #[test]
    fn all_blocked_is_detected_not_spun() {
        let mut m = Machine::boot(MachineConfig::default());
        let t = spawn_thread(&mut m, "forever");
        let mut sched: Scheduler<Machine> = Scheduler::new(cfg(1));
        sched.spawn(t, Box::new(|_m, _tid| Step::Block));
        let report = m.run_until(&mut sched, RunLimit::to_completion());
        assert_eq!(report.stop, StopReason::AllBlocked);
        assert_eq!(report.remaining, 1);
        assert_eq!(report.stats.parked_high_water, 1);
    }

    #[test]
    fn consumed_alert_does_not_rewake_a_reblocked_thread() {
        // A thread that takes its alert and blocks again must park for
        // good: the alert's completion-queue notification is consumed with
        // the alert, so the stale completion cannot re-wake it every pass
        // (which would spin the run loop instead of reaching AllBlocked).
        let mut m = Machine::boot(MachineConfig::default());
        let root = m.kernel().root_container();
        let sleeper = spawn_thread(&mut m, "sleeper");
        let waker = spawn_thread(&mut m, "waker");
        let boot = m.kernel_thread();
        let aspace = m
            .kernel_mut()
            .trap_as_create(boot, root, Label::unrestricted(), "as")
            .unwrap();
        m.kernel_mut()
            .trap_self_set_as(sleeper, ContainerEntry::new(root, aspace))
            .unwrap();

        let mut sched: Scheduler<Machine> = Scheduler::new(cfg(5));
        let mut taken = 0u32;
        sched.spawn(
            sleeper,
            Box::new(move |m: &mut Machine, tid| {
                // Deliberately no reap_completions: the legacy take_alert
                // convention must not leave a wake-causing stale entry.
                if m.kernel_mut().trap_self_take_alert(tid).unwrap().is_some() {
                    taken += 1;
                }
                if taken >= 2 {
                    Step::Done
                } else {
                    // Wait for the second alert, which never comes.
                    Step::Block
                }
            }),
        );
        let mut sent = false;
        sched.spawn(
            waker,
            Box::new(move |m: &mut Machine, tid| {
                if !sent {
                    sent = true;
                    m.kernel_mut()
                        .trap_thread_alert(tid, ContainerEntry::new(root, sleeper), 1)
                        .unwrap();
                }
                Step::Done
            }),
        );
        let report = m.run_until(&mut sched, RunLimit::quanta(64));
        assert_eq!(
            report.stop,
            StopReason::AllBlocked,
            "a spinning re-wake would exhaust the quantum budget instead"
        );
        assert!(
            report.stats.quanta <= 4,
            "got {} quanta",
            report.stats.quanta
        );
        assert_eq!(report.remaining, 1);
    }

    #[test]
    fn blocked_thread_consumes_zero_quanta_until_woken() {
        // Regression test for the alert busy-poll: a thread that blocks on
        // an empty completion queue must not be stepped (or charged) again
        // until the alert wakes it — exactly two quanta total, no matter
        // how long the waker keeps the CPU busy in between.
        let mut m = Machine::boot(MachineConfig::default());
        let root = m.kernel().root_container();
        let sleeper = spawn_thread(&mut m, "sleeper");
        let waker = spawn_thread(&mut m, "waker");
        let boot = m.kernel_thread();
        let aspace = m
            .kernel_mut()
            .trap_as_create(boot, root, Label::unrestricted(), "as")
            .unwrap();
        m.kernel_mut()
            .trap_self_set_as(sleeper, ContainerEntry::new(root, aspace))
            .unwrap();

        let mut sched: Scheduler<Machine> = Scheduler::new(cfg(9));
        let sleeper_steps = std::rc::Rc::new(std::cell::Cell::new(0u64));
        let steps = sleeper_steps.clone();
        sched.spawn(
            sleeper,
            Box::new(move |m: &mut Machine, tid| {
                steps.set(steps.get() + 1);
                let completions = m.kernel_mut().reap_completions(tid);
                if completions
                    .iter()
                    .any(|c| matches!(c, crate::abi::Completion::AlertPending { .. }))
                {
                    let alert = m.kernel_mut().trap_self_take_alert(tid).unwrap();
                    assert_eq!(alert.map(|a| a.code), Some(44));
                    Step::Done
                } else {
                    Step::Block
                }
            }),
        );
        const BUSY_QUANTA: u64 = 25;
        let mut spins = 0u64;
        sched.spawn(
            waker,
            Box::new(move |m: &mut Machine, tid| {
                spins += 1;
                if spins < BUSY_QUANTA {
                    Step::Yield
                } else {
                    m.kernel_mut()
                        .trap_thread_alert(tid, ContainerEntry::new(root, sleeper), 44)
                        .unwrap();
                    Step::Done
                }
            }),
        );
        let report = m.run_until(&mut sched, RunLimit::to_completion());
        assert_eq!(report.stop, StopReason::AllComplete);
        assert_eq!(sleeper_steps.get(), 2, "one step to block, one to wake");
        assert_eq!(
            report.stats.quanta,
            BUSY_QUANTA + 2,
            "the parked sleeper must be charged no quanta"
        );
        assert_eq!(sched.stats().alert_wakeups, 1);
        // The wake side is O(events): the sleeper was examined at most
        // once per event (its own park mark, then the alert), never per
        // pass of the waker's 25 busy quanta.
        assert!(
            sched.stats().wake_examined <= 3,
            "wake_examined = {}",
            sched.stats().wake_examined
        );
    }

    #[test]
    fn submit_then_block_wakes_on_completion() {
        // A program submits a batch that registers a watch, blocks, and is
        // woken by the completion the kernel pushes when the watched
        // segment is written (not by an alert).
        let mut m = Machine::boot(MachineConfig::default());
        let root = m.kernel().root_container();
        let watcher = spawn_thread(&mut m, "watcher");
        let writer = spawn_thread(&mut m, "writer");
        let boot = m.kernel_thread();
        let seg = m
            .kernel_mut()
            .trap_segment_create(boot, root, Label::unrestricted(), 8, "watched")
            .unwrap();
        let entry = ContainerEntry::new(root, seg);
        let mut sched: Scheduler<Machine> = Scheduler::new(cfg(2));
        let mut submitted = false;
        sched.spawn(
            watcher,
            Box::new(move |m: &mut Machine, tid| {
                if !submitted {
                    submitted = true;
                    let done = m.kernel_mut().submit_calls(
                        tid,
                        vec![
                            crate::dispatch::Syscall::SegmentLen { entry },
                            crate::dispatch::Syscall::SegmentWatch { entry },
                        ],
                    );
                    assert!(done.iter().all(Result::is_ok), "{done:?}");
                    Step::Block
                } else {
                    assert_eq!(
                        m.kernel_mut().reap_completions(tid),
                        vec![crate::abi::Completion::ObjectReady { object: seg }]
                    );
                    Step::Done
                }
            }),
        );
        // Whichever thread the seed runs first, the write lands after
        // the watch: the writer spends its first quantum yielding.
        let mut yielded = false;
        sched.spawn(
            writer,
            Box::new(move |m: &mut Machine, tid| {
                if !yielded {
                    yielded = true;
                    return Step::Yield;
                }
                m.kernel_mut()
                    .trap_segment_write(tid, entry, 0, b"x")
                    .unwrap();
                Step::Done
            }),
        );
        let report = m.run_until(&mut sched, RunLimit::to_completion());
        assert_eq!(report.stop, StopReason::AllComplete);
        assert_eq!(sched.stats().completion_wakeups, 1);
        assert_eq!(sched.stats().alert_wakeups, 0);
    }

    #[test]
    fn quantum_budget_is_respected() {
        let mut m = Machine::boot(MachineConfig::default());
        let t = spawn_thread(&mut m, "spinner");
        let mut sched: Scheduler<Machine> = Scheduler::new(cfg(1));
        sched.spawn(t, Box::new(|_m, _tid| Step::Yield));
        let report = m.run_until(&mut sched, RunLimit::quanta(5));
        assert_eq!(report.stop, StopReason::QuantaExhausted);
        assert_eq!(report.stats.quanta, 5);
        assert_eq!(report.remaining, 1);
    }
}

//! A deterministic scheduler over kernel threads, built on sharded run
//! queues with O(1) wake.
//!
//! The paper's kernel schedules threads; this reproduction historically let
//! library code drive every thread to completion as nested function calls,
//! so `ThreadState::Runnable` existed with nothing that ever *ran* a
//! thread.  This module closes that gap for the simulated machine:
//!
//! * every scheduled thread is represented by a **program** — a state
//!   machine stepped one quantum at a time, issuing its kernel work through
//!   [`Kernel::dispatch`](crate::kernel::Kernel) on its own thread ID;
//! * the [`Scheduler`] spreads threads over **shards**: each shard owns its
//!   own run queue and wait set, a thread's shard is a seeded hash of its
//!   admission order, and a seed-fixed rotation visits the shards taking
//!   one quantum from each non-empty queue per revolution.  With one shard
//!   this degenerates to the classic global round-robin; with many, queue
//!   and wait-set operations touch only the owning shard, which is what
//!   lets the wait side hold 10⁵ parked users without any global scan;
//! * waking is **O(events)**: parked threads are re-examined only when the
//!   kernel marks them sched-dirty, and eligibility is a single
//!   [`Kernel::wake_eligibility`] probe that reads the thread object
//!   (its state, and whether its alert list and completion queue are
//!   empty) — no derived wake bits, and no walk over either queue;
//! * scheduling is **deterministic**: shard assignment, shard visit order
//!   and admission tie-breaks are pure functions of the seed and the spawn
//!   order, and wakes within a shard apply in park order — so the same
//!   seed and shard count replay the identical interleaving, and, with
//!   tracing enabled, the identical syscall audit stream.
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
use std::collections::{BTreeMap, VecDeque};

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

/// Default number of run-queue shards.
pub const DEFAULT_SHARDS: usize = 8;

/// Default quantum charged per program step.
pub const DEFAULT_QUANTUM: SimDuration = SimDuration::from_micros(50);

/// Construction-time parameters for a [`Scheduler`], built fluently:
///
/// ```ignore
/// let sched = Scheduler::new(SchedConfig::new().seed(7).shards(16));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SchedConfig {
    /// Seed fixing every tie-break: shard assignment, shard visit order
    /// and admission-batch shuffles.
    pub seed: u64,
    /// CPU time charged per program step.
    pub quantum: SimDuration,
    /// Number of run-queue shards (at least 1).
    pub shards: usize,
}

impl Default for SchedConfig {
    fn default() -> SchedConfig {
        SchedConfig {
            seed: 0,
            quantum: DEFAULT_QUANTUM,
            shards: DEFAULT_SHARDS,
        }
    }
}

impl SchedConfig {
    /// The default configuration (seed 0, 50µs quantum, 8 shards).
    pub fn new() -> SchedConfig {
        SchedConfig::default()
    }

    /// Sets the scheduler seed.
    pub fn seed(mut self, seed: u64) -> SchedConfig {
        self.seed = seed;
        self
    }

    /// Sets the quantum charged per program step.
    pub fn quantum(mut self, quantum: SimDuration) -> SchedConfig {
        self.quantum = quantum;
        self
    }

    /// Sets the shard count (clamped to at least 1).
    pub fn shards(mut self, shards: usize) -> SchedConfig {
        self.shards = shards.max(1);
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
    /// Parked threads found already runnable (an explicit `sched_wake`).
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

/// One run-queue shard: a FIFO of runnable threads plus the shard's own
/// wait set (parked thread → park sequence number).
#[derive(Default)]
struct Shard {
    queue: VecDeque<ObjectId>,
    waiting: BTreeMap<ObjectId, u64>,
}

/// SplitMix64: the shard-assignment hash.  A fixed, seedable avalanche so
/// shard placement is a pure function of (seed, admission index).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A deterministic scheduler over sharded run queues.
///
/// `Ctx` is the shared world the programs mutate — see [`SchedContext`].
pub struct Scheduler<Ctx> {
    config: SchedConfig,
    rng: SimRng,
    shards: Vec<Shard>,
    /// Seed-fixed shard visit order; the rotation cursor walks this.
    visit: Vec<usize>,
    cursor: usize,
    /// Which shard each scheduled thread was assigned to.
    shard_of: BTreeMap<ObjectId, usize>,
    /// Threads admitted so far; feeds the shard-assignment hash.
    admitted: u64,
    /// Monotonic counter stamping each park, for deterministic wake order.
    park_seq: u64,
    /// Runnable threads across all shard queues.
    queued: usize,
    /// Parked threads across all shard wait sets.
    parked: usize,
    pending: Vec<ObjectId>,
    programs: BTreeMap<ObjectId, Program<Ctx>>,
    last_run: Option<ObjectId>,
    stats: SchedStats,
}

impl<Ctx: SchedContext> Scheduler<Ctx> {
    /// Creates a scheduler from its configuration.
    pub fn new(config: SchedConfig) -> Scheduler<Ctx> {
        let shards = config.shards.max(1);
        let mut visit: Vec<usize> = (0..shards).collect();
        // The visit order is drawn from its own seeded stream so admission
        // shuffles are unaffected by the shard count.
        SimRng::new(config.seed ^ 0x51a2_d0e5).shuffle(&mut visit);
        Scheduler {
            config,
            rng: SimRng::new(config.seed ^ 0x5ced_5ced),
            shards: (0..shards).map(|_| Shard::default()).collect(),
            visit,
            cursor: 0,
            shard_of: BTreeMap::new(),
            admitted: 0,
            park_seq: 0,
            queued: 0,
            parked: 0,
            pending: Vec::new(),
            programs: BTreeMap::new(),
            last_run: None,
            stats: SchedStats::default(),
        }
    }

    /// Schedules `program` to run as thread `tid`.  Threads spawned between
    /// two `run` calls form one admission batch whose queue order is
    /// decided by the scheduler seed.
    pub fn spawn(&mut self, tid: ObjectId, program: Program<Ctx>) {
        self.programs.insert(tid, program);
        self.pending.push(tid);
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

    /// The configured quantum.
    pub fn quantum(&self) -> SimDuration {
        self.config.quantum
    }

    /// Admits the pending batch: seeded-shuffle, then hash each thread to
    /// its shard.  The shuffle is the scheduler's only use of randomness
    /// and is fully determined by the seed and the spawn order; the shard
    /// is a pure function of (seed, admission index).
    fn admit_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let mut batch = std::mem::take(&mut self.pending);
        self.rng.shuffle(&mut batch);
        for tid in batch {
            let shard =
                (splitmix64(self.config.seed ^ self.admitted) % self.shards.len() as u64) as usize;
            self.admitted += 1;
            self.shard_of.insert(tid, shard);
            self.shards[shard].queue.push_back(tid);
            self.queued += 1;
        }
    }

    /// Pops the next thread under the rotation: starting at the cursor,
    /// the first non-empty shard in the seed-fixed visit order gives up
    /// its queue head, and the cursor moves past it — one quantum per
    /// non-empty shard per revolution.
    fn pop_next(&mut self) -> Option<ObjectId> {
        if self.queued == 0 {
            return None;
        }
        let n = self.visit.len();
        for i in 0..n {
            let at = (self.cursor + i) % n;
            let shard = self.visit[at];
            if let Some(tid) = self.shards[shard].queue.pop_front() {
                self.cursor = (at + 1) % n;
                self.queued -= 1;
                return Some(tid);
            }
        }
        None
    }

    /// Requeues a runnable thread at the tail of its own shard.
    fn requeue(&mut self, tid: ObjectId) {
        let shard = self.shard_of[&tid];
        self.shards[shard].queue.push_back(tid);
        self.queued += 1;
    }

    /// Parks a thread in its shard's wait set and marks it sched-dirty so
    /// the next wake pass re-checks it once: a completion or alert that
    /// landed during the thread's final quantum (watch-then-block) must
    /// not be lost just because the event preceded the park.
    fn park(&mut self, ctx: &mut Ctx, tid: ObjectId) {
        self.park_seq += 1;
        let shard = self.shard_of[&tid];
        self.shards[shard].waiting.insert(tid, self.park_seq);
        self.parked += 1;
        self.stats.parked_high_water = self.stats.parked_high_water.max(self.parked as u64);
        ctx.sched_kernel().sched_mark_dirty(tid);
    }

    /// Drops a thread from the scheduler entirely (halted or deallocated).
    fn retire(&mut self, tid: ObjectId) {
        self.programs.remove(&tid);
        self.shard_of.remove(&tid);
        self.stats.completed += 1;
    }

    /// Re-examines exactly the parked threads whose wake conditions may
    /// have changed — the kernel's sched-dirty list — and moves the
    /// eligible ones back to their shard's run queue.  Eligibility is one
    /// [`Kernel::wake_eligibility`] probe per dirtied thread, answered
    /// from the emptiness of the queues the thread object carries, so the
    /// pass never walks them.  Shards are visited in the
    /// seed-fixed order and wakes within a shard apply in park order,
    /// keeping the interleaving a pure function of (seed, shard count).
    /// Threads with no event stay parked untouched, so 10⁵ idle users
    /// cost nothing here.
    fn wake_waiters(&mut self, ctx: &mut Ctx) {
        let dirty = ctx.sched_kernel().take_sched_dirty();
        if dirty.is_empty() {
            return;
        }
        self.stats.wake_passes += 1;
        let mut hits: Vec<Vec<(u64, ObjectId)>> = vec![Vec::new(); self.shards.len()];
        for tid in dirty {
            if let Some(&shard) = self.shard_of.get(&tid) {
                if let Some(&seq) = self.shards[shard].waiting.get(&tid) {
                    hits[shard].push((seq, tid));
                }
            }
        }
        for vi in 0..self.visit.len() {
            let shard = self.visit[vi];
            let mut shard_hits = std::mem::take(&mut hits[shard]);
            shard_hits.sort_unstable();
            for (_, tid) in shard_hits {
                self.stats.wake_examined += 1;
                let kernel = ctx.sched_kernel();
                let unpark = match kernel.wake_eligibility(tid) {
                    WakeReason::Retired => {
                        self.shards[shard].waiting.remove(&tid);
                        self.parked -= 1;
                        self.retire(tid);
                        continue;
                    }
                    WakeReason::External => {
                        // Already runnable: an explicit sched_wake.
                        self.stats.external_wakeups += 1;
                        true
                    }
                    WakeReason::Alert => {
                        let _ = kernel.sched_wake(tid);
                        self.stats.alert_wakeups += 1;
                        true
                    }
                    WakeReason::Completion => {
                        let _ = kernel.sched_wake(tid);
                        self.stats.completion_wakeups += 1;
                        true
                    }
                    // The event was spurious: stay parked.
                    WakeReason::Parked => false,
                };
                if unpark {
                    self.shards[shard].waiting.remove(&tid);
                    self.parked -= 1;
                    self.shards[shard].queue.push_back(tid);
                    self.queued += 1;
                }
            }
        }
    }

    /// Runs scheduled programs under the shard rotation until `limit` is
    /// reached, every program completes, or only hopelessly blocked
    /// threads remain.
    ///
    /// Blocked threads live in their shard's wait set, not the run queue:
    /// they are charged no quanta and never stepped until a completion or
    /// alert wakes them.  Each `run` is a fresh occupancy of the CPU: the
    /// first quantum always charges a context switch (`last_run` does not
    /// leak across invocations).
    pub fn run(&mut self, ctx: &mut Ctx, limit: RunLimit) -> ScheduleReport {
        self.last_run = None;
        self.admit_pending();
        let start = ctx.sched_kernel().now();
        let before = self.stats;
        let stop = loop {
            self.wake_waiters(ctx);
            if self.queued == 0 {
                break if self.parked == 0 {
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
            let tid = self.pop_next().expect("queued count checked non-zero");
            match ctx.sched_kernel().wake_eligibility(tid) {
                // A halted (or deallocated) thread is retired without
                // running: self_halt and thread teardown are honored here.
                WakeReason::Retired => {
                    self.retire(tid);
                    continue;
                }
                WakeReason::Alert | WakeReason::Completion | WakeReason::Parked => {
                    // Blocked outside the scheduler's own Step::Block path
                    // (e.g. a direct sched_block): park it.
                    self.park(ctx, tid);
                    continue;
                }
                WakeReason::External => {}
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
                kernel.sched_charge(self.config.quantum);
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
                    self.requeue(tid);
                }
                Step::Block => {
                    let _ = ctx.sched_kernel().sched_block(tid);
                    self.programs.insert(tid, program);
                    self.park(ctx, tid);
                }
                Step::Done => {
                    // Halt through the trap boundary so the audit trace
                    // records the thread's exit like any other syscall.
                    let _ = ctx.sched_kernel().trap_self_halt(tid);
                    self.shard_of.remove(&tid);
                    self.stats.completed += 1;
                }
            }
            // Admit any threads the program spawned during its quantum.
            self.admit_pending();
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

    /// Publishes the scheduler's counters and per-shard queue gauges to
    /// the kernel's metric registry, making them visible at `/metrics`.
    fn publish_metrics(&self, ctx: &mut Ctx) {
        let mut set = histar_obs::MetricSet::new();
        set.collect(&self.stats);
        for (i, shard) in self.shards.iter().enumerate() {
            set.gauge_indexed("sched.shard_queue_depth", i, shard.queue.len() as u64);
            set.gauge_indexed("sched.shard_parked", i, shard.waiting.len() as u64);
        }
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

    fn cfg(seed: u64, quantum_us: u64) -> SchedConfig {
        SchedConfig::new()
            .seed(seed)
            .quantum(SimDuration::from_micros(quantum_us))
    }

    #[test]
    fn round_robin_interleaves_and_completes() {
        let (bytes, report) = interleaving(cfg(7, 100));
        assert_eq!(report.stop, StopReason::AllComplete);
        assert_eq!(report.stats.quanta, 9);
        assert_eq!(report.stats.completed, 3);
        assert_eq!(report.remaining, 0);
        assert!(report.elapsed > SimDuration::ZERO);
        // Nine writes, three per writer, strictly interleaved: the first
        // three bytes are the three distinct tags (the shard rotation takes
        // one quantum per non-empty shard, never run-to-completion).
        assert_eq!(bytes.len(), 9);
        let mut first: Vec<u8> = bytes[..3].to_vec();
        first.sort_unstable();
        assert_eq!(first, vec![b'a', b'b', b'c']);
    }

    #[test]
    fn same_seed_same_interleaving_different_seed_may_differ() {
        let (a1, _) = interleaving(cfg(7, 100));
        let (a2, _) = interleaving(cfg(7, 100));
        assert_eq!(a1, a2, "scheduling must be deterministic per seed");
        // Across all seeds and shard counts the multiset of work is
        // identical.
        for other in [cfg(8, 100), cfg(7, 100).shards(1), cfg(7, 100).shards(16)] {
            let (b, _) = interleaving(other);
            let mut sa = a1.clone();
            let mut sb = b.clone();
            sa.sort_unstable();
            sb.sort_unstable();
            assert_eq!(sa, sb);
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
        let mut sched: Scheduler<Machine> = Scheduler::new(cfg(1, 10));
        assert_eq!(sched.config().seed, 1);
        assert_eq!(sched.config().shards, DEFAULT_SHARDS);
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
        let mut sched: Scheduler<Machine> = Scheduler::new(cfg(3, 10).shards(4));
        sched.spawn(t, Box::new(|_m, _tid| Step::Done));
        m.run_until(&mut sched, RunLimit::to_completion());
        let set = m.kernel().metrics();
        assert_eq!(set.get("sched.quanta"), Some(1));
        assert_eq!(set.get("sched.completed"), Some(1));
        assert_eq!(set.get("sched.shard_queue_depth.0"), Some(0));
        assert_eq!(set.get("sched.shard_queue_depth.3"), Some(0));
        assert!(set.get("sched.shard_queue_depth.4").is_none());
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

        let mut sched: Scheduler<Machine> = Scheduler::new(cfg(1, 10));
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
                    // Let the sleeper run (and park) first: the rotation
                    // guarantees every runnable thread steps once per
                    // revolution, so by our second quantum it has blocked.
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
        let mut sched: Scheduler<Machine> = Scheduler::new(cfg(1, 10));
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

        let mut sched: Scheduler<Machine> = Scheduler::new(cfg(5, 10));
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

        let mut sched: Scheduler<Machine> = Scheduler::new(cfg(9, 10));
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
        let mut sched: Scheduler<Machine> = Scheduler::new(cfg(2, 10));
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
        // Whichever thread the rotation runs first, the write lands after
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
        let mut sched: Scheduler<Machine> = Scheduler::new(cfg(1, 10));
        sched.spawn(t, Box::new(|_m, _tid| Step::Yield));
        let report = m.run_until(&mut sched, RunLimit::quanta(5));
        assert_eq!(report.stop, StopReason::QuantaExhausted);
        assert_eq!(report.stats.quanta, 5);
        assert_eq!(report.remaining, 1);
    }
}

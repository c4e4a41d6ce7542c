//! A high thread cannot reorder low ones.  With one run queue the relative
//! order of any set of threads' quanta is a function of those threads' own
//! steps, the wakes they are sent and the harness's actions, so the low
//! threads below log the same sequence whether the high thread yields,
//! blocks forever or finishes at once, and however many more high threads
//! the harness spawns.
//!
//! Every slice runs to `AllBlocked` / `AllComplete`, never to a quantum
//! budget or a deadline: those count the high thread's quanta too, like
//! the clock does, and are outside the claim.

use histar_kernel::sched::{Program, RunLimit, SchedConfig, Scheduler, Step, StopReason};
use histar_kernel::{Machine, MachineConfig, ObjectId};
use histar_label::{Label, Level};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

type Log = Rc<RefCell<Vec<u8>>>;

/// What the initial batch's high thread does.
#[derive(Clone, Copy, Debug)]
enum High {
    /// Yields this many quanta, then finishes.
    Yields(u32),
    BlocksForever,
    FinishesAtOnce,
}

fn spawn_thread(m: &mut Machine, label: Label, clearance: Label) -> ObjectId {
    let boot = m.kernel_thread();
    let root = m.kernel().root_container();
    m.kernel_mut()
        .trap_thread_create(boot, root, label, clearance, 0, "t")
        .unwrap()
}

/// A low thread: appends `tag` to the host-side log once per quantum for
/// `quanta` quanta, parking after its `park_after`-th if that is set.
fn low(log: &Log, tag: u8, quanta: u32, park_after: Option<u32>) -> Program<Machine> {
    let log = log.clone();
    let mut ran = 0;
    Box::new(move |_m, _tid| {
        log.borrow_mut().push(tag);
        ran += 1;
        if ran == quanta {
            Step::Done
        } else if Some(ran) == park_after {
            Step::Block
        } else {
            Step::Yield
        }
    })
}

fn high(behaviour: High) -> Program<Machine> {
    let mut ran = 0;
    Box::new(move |_m, _tid| {
        ran += 1;
        match behaviour {
            High::Yields(n) if ran <= n => Step::Yield,
            High::BlocksForever => Step::Block,
            _ => Step::Done,
        }
    })
}

/// Runs two slices and returns the low threads' log.  Slice 1: low `a`,
/// `b`, `c` and one high thread; `c` parks after three quanta.  Slice 2:
/// the harness spawns `extra_high` more high threads, then low `d` and
/// `e`, and wakes `c`.
fn low_log(seed: u64, behaviour: High, extra_high: usize) -> Vec<u8> {
    let mut m = Machine::boot(MachineConfig::default());
    let boot = m.kernel_thread();
    let h = m.kernel_mut().trap_create_category(boot).unwrap();
    let (high_label, high_clearance) = (
        Label::unrestricted().with(h, Level::L3),
        Label::default_clearance().with(h, Level::L3),
    );
    let low_thread =
        |m: &mut Machine| spawn_thread(m, Label::unrestricted(), Label::default_clearance());
    let log: Log = Rc::default();
    let mut sched: Scheduler<Machine> = Scheduler::new(SchedConfig::new().seed(seed));

    let parker = low_thread(&mut m);
    for (tag, park_after) in [(b'a', None), (b'b', None)] {
        let tid = low_thread(&mut m);
        sched.spawn(tid, low(&log, tag, 6, park_after));
    }
    sched.spawn(parker, low(&log, b'c', 6, Some(3)));
    let tid = spawn_thread(&mut m, high_label.clone(), high_clearance.clone());
    sched.spawn(tid, high(behaviour));
    let first = m.run_until(&mut sched, RunLimit::to_completion());
    assert_eq!(first.stop, StopReason::AllBlocked, "`c` is parked");

    // The new low threads are created first so their ids do not depend on
    // the variant; the high ones are admitted ahead of them.
    let news = [low_thread(&mut m), low_thread(&mut m)];
    for _ in 0..extra_high {
        let tid = spawn_thread(&mut m, high_label.clone(), high_clearance.clone());
        sched.spawn(tid, high(High::Yields(5)));
    }
    for (tid, tag) in news.into_iter().zip([b'd', b'e']) {
        sched.spawn(tid, low(&log, tag, 4, None));
    }
    m.kernel_mut().sched_wake(parker).unwrap();
    let second = m.run_until(&mut sched, RunLimit::to_completion());
    assert_ne!(second.stop, StopReason::QuantaExhausted);
    let log = log.take();
    assert_eq!(log.len(), 6 * 3 + 4 * 2, "every low quantum ran");
    log
}

#[test]
fn low_quanta_ignore_what_high_threads_do() {
    let variants = [
        (High::Yields(9), 0),
        (High::BlocksForever, 1),
        (High::FinishesAtOnce, 2),
    ];
    let mut differ = Vec::new();
    let mut logs = BTreeSet::new();
    for seed in 0..16 {
        let (behaviour, extra) = variants[0];
        let reference = low_log(seed, behaviour, extra);
        for &(behaviour, extra) in &variants[1..] {
            if low_log(seed, behaviour, extra) != reference {
                differ.push((seed, behaviour, extra));
            }
        }
        logs.insert(reference);
    }
    assert!(
        differ.is_empty(),
        "{} of 32 (seed, variant) cases reordered the low threads: {differ:?}",
        differ.len()
    );
    assert!(logs.len() > 1, "the seed still orders the initial batch");
}

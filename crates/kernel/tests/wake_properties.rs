//! Seeded property test for the scheduler's wake probe.
//!
//! `Kernel::wake_eligibility` must always equal the answer computed from
//! the three facts it summarises: whether the thread halted, whether its
//! alert list is empty and whether its completion queue is empty.  Random
//! interleavings of every operation that touches one of the three — alerts
//! posted and taken, batches submitted, completions reaped, watched
//! segments written, threads halted and deallocated — are checked after
//! every step.  (Whether a thread is parked is the scheduler's state, not
//! the kernel's, so the probe does not read it.)
//!
//! The generator is the xorshift64* harness of
//! `crates/label/tests/label_properties.rs`, so the suite runs offline.

use histar_kernel::bodies::{ObjectBody, ThreadBody, ThreadState};
use histar_kernel::dispatch::Syscall;
use histar_kernel::kernel::WakeReason;
use histar_kernel::object::{ContainerEntry, ObjectId};
use histar_kernel::Kernel;
use histar_label::Label;
use histar_sim::SimClock;
use histar_store::{SingleLevelStore, StoreConfig};

const SEEDS: u64 = 40;
const STEPS: usize = 400;
const THREADS: usize = 4;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, bound: u64) -> u64 {
        ((self.next() as u128 * bound as u128) >> 64) as u64
    }

    fn pick(&mut self, ids: &[ObjectId]) -> ObjectId {
        ids[self.below(ids.len() as u64) as usize]
    }
}

/// The probe's answer, recomputed from primary state through the public
/// accessors only.
fn expected(k: &Kernel, tid: ObjectId) -> WakeReason {
    let Some(ObjectBody::Thread(t)) = k.raw_object(tid).map(|o| &o.body) else {
        return WakeReason::Retired;
    };
    match t.state {
        ThreadState::Halted => WakeReason::Retired,
        ThreadState::Runnable if !t.pending_alerts.is_empty() => WakeReason::Alert,
        ThreadState::Runnable if k.completion_count(tid) > 0 => WakeReason::Completion,
        ThreadState::Runnable => WakeReason::Parked,
    }
}

#[test]
fn wake_eligibility_is_the_answer_read_off_the_thread() {
    let mut seen = [0usize; 4];
    for seed in 1..=SEEDS {
        let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let clock = SimClock::new();
        let store = SingleLevelStore::format(StoreConfig::default(), clock.clone());
        let init = (
            "init",
            ObjectBody::Thread(ThreadBody::new(Label::default_clearance())),
        );
        let (mut k, [boot]) = Kernel::with_root_objects(seed, clock, store, [init]);
        let root = k.root_container();
        let aspace = k
            .trap_as_create(boot, root, Label::unrestricted(), "as")
            .unwrap();
        k.trap_self_set_as(boot, ContainerEntry::new(root, aspace))
            .unwrap();
        let seg = k
            .trap_segment_create(boot, root, Label::unrestricted(), 64, "watched")
            .unwrap();
        let seg_entry = ContainerEntry::new(root, seg);
        // Children inherit boot's address space, so alerts reach them.
        let mut tids = vec![boot];
        for i in 1..THREADS {
            let t = k
                .trap_thread_create(
                    boot,
                    root,
                    Label::unrestricted(),
                    Label::default_clearance(),
                    0,
                    &format!("t{i}"),
                )
                .unwrap();
            tids.push(t);
        }
        // One id that never names a thread, probed like the rest.
        let probed: Vec<ObjectId> = tids.iter().copied().chain([seg]).collect();

        for step in 0..STEPS {
            let tid = rng.pick(&tids);
            let other = rng.pick(&tids);
            // Results are irrelevant (calls from halted, dead or blocked
            // threads fail typed); only the probe's agreement matters.
            match rng.below(9) {
                0 | 1 => {
                    let _ = k.trap_thread_alert(tid, ContainerEntry::new(root, other), step as u64);
                }
                2 => {
                    let _ = k.trap_self_take_alert(tid);
                }
                3 => {
                    let n = 1 + rng.below(3) as usize;
                    k.submit_calls(tid, vec![Syscall::SelfGetLabel; n]);
                }
                4 | 5 => {
                    let _ = k.reap_completions(tid);
                }
                6 => {
                    let _ = k.trap_segment_watch(tid, seg_entry);
                }
                7 => {
                    let _ = k.trap_segment_write(tid, seg_entry, 0, &[step as u8]);
                }
                _ => match rng.below(40) {
                    // Rare, and never the last live thread's turn twice.
                    0 => {
                        let _ = k.trap_self_halt(tid);
                    }
                    1 if tid != boot => {
                        let _ = k.trap_obj_unref(boot, ContainerEntry::new(root, tid));
                    }
                    _ => {}
                },
            }
            for &t in &probed {
                let got = k.wake_eligibility(t);
                assert_eq!(got, expected(&k, t), "seed {seed} step {step} thread {t:?}");
                seen[got as usize] += 1;
            }
        }
    }
    // The walk must actually visit every answer, or it proves nothing.
    assert!(seen.iter().all(|&n| n > 0), "answers seen: {seen:?}");
}

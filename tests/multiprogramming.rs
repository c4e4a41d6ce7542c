//! Integration test for the trap-dispatch + scheduler stack: a hundred
//! interleaved untrusted login processes on one node complete
//! deterministically, every kernel interaction crossing `Kernel::dispatch`.

use histar::apps::multilogin::{run_multilogin, MultiLoginParams};
use histar::auth::LoginOutcome;
use histar::kernel::sched::StopReason;
use histar::kernel::TraceRecord;

/// FNV-1a over the tick-free projection `(seq, tid, syscall, ok)` of an
/// audit trace: the syscall *stream*.  The tests pin it because a change
/// to what the model charges may move every tick, but not one call.
fn stream_digest(trace: &[TraceRecord]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in trace {
        fold(&r.seq.to_le_bytes());
        fold(&r.tid.raw().to_le_bytes());
        fold(r.syscall.as_bytes());
        fold(&[u8::from(r.ok)]);
    }
    h
}

/// The stream as it was before the library asked the kernel for its own
/// label (ISSUE 21): `self_get_label` / `self_get_clearance` records
/// dropped, `seq` renumbered from the first record.  Those two rows check
/// nothing and change nothing, so everything else a run does — and the
/// label-check bill — must be what it was without them.
fn without_own_label_reads(trace: &[TraceRecord]) -> Vec<TraceRecord> {
    let first = trace.first().map_or(0, |r| r.seq);
    trace
        .iter()
        .filter(|r| !matches!(r.syscall, "self_get_label" | "self_get_clearance"))
        .zip(first..)
        .map(|(r, seq)| TraceRecord { seq, ..*r })
        .collect()
}

/// Every call and every failure of a run is counted once: the kernel's
/// totals are the per-row dispatch counts summed.
fn assert_totals_agree(kernel: &histar::kernel::Kernel) {
    let (totals, rows) = (kernel.stats(), kernel.dispatch_stats());
    assert_eq!(totals.syscalls, rows.total());
    assert_eq!(totals.errors, rows.total_errors());
}

fn trace_of(world: &histar::apps::multilogin::LoginWorld) -> Vec<TraceRecord> {
    world
        .env
        .machine()
        .kernel()
        .syscall_trace()
        .expect("tracing enabled")
        .records()
        .copied()
        .collect()
}

#[test]
fn hundred_interleaved_logins_replay_identically() {
    let params = MultiLoginParams {
        processes: 100,
        users: 10,
        seed: 0xfeed,
        wrong_every: 9,
        trace_capacity: 1 << 20,
        recorder_capacity: 0,
        ..MultiLoginParams::default()
    };
    let (w1, r1) = run_multilogin(params).expect("scenario");
    let (w2, r2) = run_multilogin(params).expect("scenario");

    assert_eq!(r1.schedule.stop, StopReason::AllComplete);
    assert!(w1.failures.is_empty(), "failures: {:?}", w1.failures);
    assert_eq!(w1.outcomes.len(), 100);
    let granted = w1
        .outcomes
        .iter()
        .filter(|(_, o)| *o == LoginOutcome::Granted)
        .count();
    assert_eq!(granted, 100 - 100 / 9);

    // Multiprogramming really happened: far more context switches than
    // processes, and a dense trapped syscall stream.
    assert!(r1.schedule.stats.context_switches > 200);
    assert!(r1.syscalls > 5_000);
    assert_eq!(
        r1.kernel.syscalls, r1.syscalls,
        "every kernel syscall of the run crossed the dispatch boundary"
    );

    // Determinism: same seed ⇒ identical outcome list, identical schedule,
    // identical audit trace, tick for tick.
    assert_eq!(w1.outcomes, w2.outcomes);
    assert_eq!(r1.schedule.stats.quanta, r2.schedule.stats.quanta);
    assert_eq!(r1.elapsed, r2.elapsed);
    let (t1, t2) = (trace_of(&w1), trace_of(&w2));
    assert!(!t1.is_empty());
    assert_eq!(t1, t2);
    // Both re-pinned by ISSUE 24 (descriptors live by hard links).  Two
    // rows moved, by the same 178 — the run's descriptors, each opened and
    // closed by one process: `obj_set_fixed_quota` 0 → 178 (`install_fd`
    // fixes the quota in the batch that writes the state) and `obj_unref`
    // 289 → 467 (`close` drops the process's link, so the kernel frees the
    // segment).  No other row's count moved; every thread id did, because
    // a thread no longer comes with a thread-local segment taking the id
    // after its own.  The full stream still carries the 1,067 reads of the
    // caller's own label ISSUE 21 added.
    // The full stream re-pinned when auth's grant step moved onto
    // `gatecall::grant_categories`: 8,761 → 8,939 records, +178
    // = 2 × 89 granted logins, each a `self_get_label` +
    // `self_get_clearance` batch `enter_grant_gate` reads before it
    // enters.  The projection, which drops exactly those reads, holds.
    // Both digests re-pinned when the scheduler became one FIFO run queue
    // (no shards, no rotation, only the initial batch shuffled): the same
    // 489 quanta run in another order, so every record's slot moved, but
    // no row's count did and both lengths hold.
    // Re-pinned when the library began keeping its own view of each
    // descriptor's state and reading the descriptor segment only when
    // another number may have moved the position: projection 7,694 →
    // 7,249 and full stream 8,939 → 8,494 records, one row — `segment_read`
    // 1,068 → 623 (−445: the state read before each read, write or close
    // of a descriptor no other number names).  No other row moved.
    // Re-pinned when auth became the one holder of a user's pair after
    // the user's first login: projection 7,249 → 7,039 and full stream
    // 8,494 → 8,213 records.  A login no longer allocates two per-attempt
    // categories or saves and restores its label around the check (100
    // attempts × 6 calls: `create_category` −200, `self_get_label`,
    // `self_get_clearance`, `self_set_label` and `self_set_clearance`
    // −100 each); each of the 89 grants first reads the login's label
    // (`self_get_label` +89); and each of the 10 users' first login
    // spawns that user's service process (19 calls: `as_create` +1,
    // `as_map` +3, `container_create` +2, `create_category` +2,
    // `gate_create` +1, `segment_create` +4, `thread_create` +1,
    // `self_set_as` +1, and one read and one set each of label and
    // clearance) and init drops the pair (4 calls: one more of each of
    // those last four).  Row by row: `create_category` 600 → 420,
    // `self_get_label` 756 → 765, `self_get_clearance` 489 → 409,
    // `self_set_label` and `self_set_clearance` 300 → 220, `as_create`,
    // `thread_create` and `self_set_as` 100 → 110, `as_map` 300 → 330,
    // `container_create` 300 → 320, `gate_create` 289 → 299,
    // `segment_create` 767 → 807.  No other row moved.
    let before = without_own_label_reads(&t1);
    assert_eq!(before.len(), 7039);
    assert_eq!(stream_digest(&before), 0xd3fc_f713_2b6d_0715);
    assert_eq!(t1.len(), 8213);
    assert_eq!(stream_digest(&t1), 0x8114_1a9a_2dc5_0440);
    assert_totals_agree(w1.env.machine().kernel());
}

/// The web-server burst under the same scheduler stack: wake order is a
/// pure function of the seed.  Two runs with the same seed produce the
/// same audit trace tick for tick (every park, wake and label check in
/// the same order), while a different seed reorders the interleaving
/// without changing what is served.
#[test]
fn web_server_wake_order_is_deterministic_per_seed() {
    use histar::httpd::{run_httpd, HttpdParams, HttpdWorld};

    fn httpd_trace(world: &HttpdWorld) -> Vec<TraceRecord> {
        world
            .env
            .machine()
            .kernel()
            .syscall_trace()
            .expect("tracing enabled")
            .records()
            .copied()
            .collect()
    }

    let params = HttpdParams {
        clients: 48,
        users: 4,
        wrong_every: 0,
        seed: 0xd1ce,
        trace_capacity: 1 << 20,
        recorder_capacity: 0,
    };
    let (w1, r1) = run_httpd(params).expect("httpd scenario");
    let (w2, r2) = run_httpd(params).expect("httpd scenario");

    assert_eq!(r1.stop, StopReason::AllComplete);
    assert!(w1.failures.is_empty(), "failures: {:?}", w1.failures);
    assert_eq!(r1.served, 48);

    // Same seed: identical latencies, identical quanta bill, identical
    // audit trace — blocked-thread wakes included, since every wake's
    // subsequent syscalls land in the same trace slots.
    assert_eq!(w1.latencies, w2.latencies);
    assert_eq!(r1.sched.quanta, r2.sched.quanta);
    assert_eq!(r1.elapsed, r2.elapsed);
    let (t1, t2) = (httpd_trace(&w1), httpd_trace(&w2));
    assert!(!t1.is_empty());
    assert_eq!(t1, t2);
    // Re-pinned by ISSUE 22 (bounded labels), which changed who calls
    // what and when on the web path and nothing else — the login stream
    // above did not move.  The launcher serves each connection as it
    // accepts it, so its one `poll` over a 48-deep `pending` is gone —
    // the burst's clients write before they yield, so nothing ever waits
    // there (projection 5,359 → 5,307 records: `segment_read` −50, the 48
    // ring-header probes among them, `segment_len` −1, `segment_watch`
    // −1); a connection's pair is taken by the *worker* entering a queued
    // gate when it starts the job, where the launcher's thread used to
    // push it at queue time (same rows, other thread, other order); and
    // the full stream carries 1,135 reads of the caller's own label, one
    // fewer.
    // Re-pinned by ISSUE 24 (descriptors live by hard links; no
    // thread-local segment, so every thread id moved): projection 5,307 →
    // 5,408 records, three rows — `obj_set_fixed_quota` 0 → 200 (one per
    // descriptor installed), `obj_unref` 148 → 300 (one per descriptor a
    // process closes for good), `segment_len` 251 → 0 (it was only ever
    // the probe that located a descriptor segment; a process now names a
    // descriptor through its own container).  Nothing was forked or
    // shared, so `hard_link` does not appear.
    // The full stream re-pinned when auth's grant step moved onto
    // `gatecall::grant_categories`: 6,543 → 6,551 records, +8 = 2 × 4
    // granted logins, each an own-label read batch `enter_grant_gate`
    // makes before it enters; the projection holds.
    // Re-pinned when a `/persist` directory became one record: each of a
    // request's three `/persist` lookups reads the directory's record and
    // no longer range-scans its entries, so projection 5,408 → 5,264 and
    // full stream 6,551 → 6,407 records (−144 = 48 requests × 3
    // `persist_scan`); no other row moved.
    // Re-pinned when the scheduler became one FIFO run queue (no shards,
    // no rotation, only the initial batch shuffled): the new interleaving
    // takes 160 quanta where the sharded one took 162, and the polls it
    // no longer makes are projection 5,264 → 5,258 (`segment_read` −4,
    // `segment_watch` −2) and full stream 6,407 → 6,400 (one
    // `self_get_label` fewer as well).
    // Re-pinned when the library began keeping its own view of each
    // descriptor's state (the segment is read only when another number
    // may have moved the position): projection 5,258 → 4,709 and full
    // stream 6,400 → 5,851 records, one row — `segment_read` 1,494 → 945
    // (−549: the state read before each read, write or close of a
    // descriptor no other number names).  No other row moved.
    // Re-pinned when every request became a login and auth the one
    // holder of a user's pair after the user's first login: projection
    // 4,709 → 4,769 and full stream 5,851 → 5,967 records.  Each of the
    // 4 users' first login spawns the user's service process and init
    // drops the pair (23 calls each, as in the login stream above) and
    // no longer allocates two per-attempt categories or saves and
    // restores its label (−6 calls each); every one of the 48 requests
    // reads the launcher's label once (`self_get_label` +48).  Row by
    // row: `as_create`, `thread_create` and `self_set_as` 52 → 56,
    // `as_map` 156 → 168, `container_create` 104 → 112, `gate_create`,
    // `self_set_label` and `self_set_clearance` 200 → 204,
    // `segment_create` 460 → 476, `self_get_clearance` 348 → 352,
    // `self_get_label` 794 → 846.  No other row moved.
    let before = without_own_label_reads(&t1);
    assert_eq!(before.len(), 4769);
    assert_eq!(stream_digest(&before), 0x6f04_2080_343e_644d);
    assert_eq!(t1.len(), 5967);
    assert_eq!(stream_digest(&t1), 0x548f_216c_1f82_c9a3);

    // The label-check bill is part of simulated time (a cache hit is
    // charged less than a miss), so it is pinned: a faster label
    // representation or cache must reproduce these counts exactly.
    // Last re-pinned by ISSUE 22: labels on the web path stopped growing
    // with the queue, so fewer distinct labels exist to intern (539 → 486)
    // and compare (misses 1,314 → 1,102, hits 6,938 → 7,046), and the
    // 52 calls of the launcher's poll took their two checks each with
    // them (checks 10,588 → 10,484).  ISSUE 24, over the whole run: 205
    // `obj_set_fixed_quota` × 2 checks + 156 more `obj_unref` × 1 − 251
    // `segment_len` × 2 − the 55 container checks that created a
    // thread-local segment beside each thread = +9, every one a cache hit.
    // One-record `/persist` directories: −303 checks, every one a hit —
    // a lookup no longer observe-checks each entry record of the
    // directory it scans.  One FIFO run queue: −12 checks, every one a
    // hit, with the polls above.  The descriptor-state reads the library
    // no longer makes: −1,114 checks, every one a hit.  The 4 users'
    // service processes, less the per-attempt categories and label
    // restores a login no longer makes: +108 checks (hits 5,626 → 5,674,
    // misses 1,102 → 1,122), and 16 more labels interned (486 → 502).
    let kernel = w1.env.machine().kernel();
    let cache = kernel.label_cache().stats();
    assert_eq!(
        (cache.hits, cache.misses, cache.interned),
        (5674, 1122, 502),
        "label cache hits/misses/interned"
    );
    assert_eq!(kernel.stats().label_checks, 9172);
    assert_totals_agree(kernel);

    // A different seed reorders the wake interleaving but serves exactly
    // the same burst.
    let (w3, r3) = run_httpd(HttpdParams {
        seed: params.seed ^ 0xffff,
        ..params
    })
    .expect("httpd scenario");
    assert_eq!(r3.served, 48);
    assert!(w3.failures.is_empty(), "failures: {:?}", w3.failures);
    let t3 = httpd_trace(&w3);
    assert!(
        t1 != t3 || w1.latencies != w3.latencies,
        "a different seed should produce a different interleaving"
    );
}

/// A thread blocked on a socket is still killable while parked: the
/// signal-gate alert lands on its completion queue, the scheduler wakes
/// it (an alert wake, not a readiness wake), and it retires even though
/// the socket never becomes readable.
#[test]
fn thread_blocked_on_a_socket_is_killable_while_parked() {
    use histar::kernel::sched::{RunLimit, SchedConfig, SchedContext, Scheduler, Step};
    use histar::kernel::Kernel;
    use histar::net::Netd;
    use histar::unix::UnixEnv;

    struct ParkWorld {
        env: UnixEnv,
        surfer_turns: u64,
        watchdog_turns: u64,
        taken: Option<u64>,
    }
    impl SchedContext for ParkWorld {
        fn sched_kernel(&mut self) -> &mut Kernel {
            self.env.machine_mut().kernel_mut()
        }
    }

    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let netd = Netd::start(&mut env, init, "internet").unwrap();
    // The server owns the network taint (the launcher's trust) but never
    // accepts or writes anything — the surfer will wait forever.
    let server = env
        .spawn_with_label(init, "/usr/sbin/httpd", vec![netd.taint], vec![])
        .unwrap();
    let listener = netd.listen(&mut env, server).unwrap();
    let surfer = netd
        .spawn_tainted(&mut env, init, "/usr/bin/surfer")
        .unwrap();
    let conn = netd.connect(&mut env, surfer, &listener).unwrap();

    let surfer_thread = env.process(surfer).unwrap().thread;
    let server_thread = env.process(server).unwrap().thread;

    let mut sched: Scheduler<ParkWorld> = Scheduler::new(SchedConfig::new().seed(0x5106));
    sched.spawn(
        surfer_thread,
        Box::new(move |world: &mut ParkWorld, _tid| {
            world.surfer_turns += 1;
            if let Some(sig) = world.env.take_signal(surfer).unwrap() {
                world.taken = Some(sig);
                return Step::Done;
            }
            match world.env.read_blocking(surfer, conn, 128).unwrap() {
                None => Step::Block,
                Some(data) => panic!("no server ever writes this connection: {data:?}"),
            }
        }),
    );
    const WATCHDOG_PATIENCE: u64 = 8;
    sched.spawn(
        server_thread,
        Box::new(move |world: &mut ParkWorld, _tid| {
            world.watchdog_turns += 1;
            if world.watchdog_turns <= WATCHDOG_PATIENCE {
                return Step::Yield;
            }
            // The trusted component gives up on the stalled connection and
            // kills its client — which is parked, not runnable.
            world.env.kill(server, surfer, 9).unwrap();
            Step::Done
        }),
    );

    let mut world = ParkWorld {
        env,
        surfer_turns: 0,
        watchdog_turns: 0,
        taken: None,
    };
    let report = sched.run(&mut world, RunLimit::to_completion());

    // The run completed: the parked surfer was woken by the alert and
    // retired, even though its socket never had a byte to read.
    assert_eq!(report.stop, StopReason::AllComplete);
    assert_eq!(
        world.taken,
        Some(9),
        "the signal must reach the parked thread"
    );
    assert_eq!(
        world.surfer_turns, 2,
        "the surfer runs once to park and once to die; parked turns cost nothing"
    );
    assert!(
        sched.stats().alert_wakeups >= 1,
        "the wake must be counted as an alert wake: {:?}",
        sched.stats()
    );
}

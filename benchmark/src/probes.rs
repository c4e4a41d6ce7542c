//! Layer probes: one public function of one layer, timed from outside in a
//! tight loop on the host clock.  Each is homed on the workload whose
//! `host_ops_per_s` it should move and runs in that workload's traced run;
//! they predict, they do not gate.

use crate::host_clock::{ns_per_call, ScaledTimer};
use crate::workloads::Cfg;
use histar::auth::{AuthService, AuthSystem, LoginOutcome};
use histar::httpd::{run_httpd, HttpdParams};
use histar::kernel::sched::{SchedConfig, Scheduler};
use histar::kernel::{Machine, MachineConfig, RunLimit, Step, Syscall};
use histar::label::cache::LabelCache;
use histar::label::{Category, Label, Level};
use histar::net::Netd;
use histar::sim::{SimClock, SimRng};
use histar::store::bptree::BPlusTree;
use histar::store::{SingleLevelStore, StoreConfig};
use histar::unix::gatecall::{create_service_gate, enter_service, return_from_service};
use histar::unix::UnixEnv;
use std::hint::black_box;

/// Named probe results.
pub type Probes = Vec<(&'static str, f64)>;

/// Figure 12, HiStar column: uncached sequential read of 100 MB, seconds.
const PAPER_UNCACHED_READ_S: f64 = 1.96;

/// Loop length: smoke runs keep every probe but shrink its loop.
fn n(cfg: &Cfg, full: u64) -> u64 {
    if cfg.smoke {
        (full / 50).max(2)
    } else {
        full
    }
}

/// No probe is homed on this workload.
pub fn none(_: &Cfg) -> Result<Probes, String> {
    Ok(Vec::new())
}

/// `login_storm`: label comparison, the trap and batch entry, an empty
/// quantum, a gate call and a login.
pub fn login_storm(cfg: &Cfg) -> Result<Probes, String> {
    let mut out = label(n(cfg, 200_000));
    out.extend(kernel(n(cfg, 100_000)));
    out.push((
        "sched.quantum_host_ns",
        sched_quantum(n(cfg, 1_000), n(cfg, 100)),
    ));
    out.extend(gatecall(n(cfg, 200)).map_err(|e| format!("gatecall probe: {e}"))?);
    out.extend(login(n(cfg, 100)).map_err(|e| format!("login probe: {e}"))?);
    Ok(out)
}

/// `httpd_burst`: sockets, and how host time per request scales.
pub fn httpd_burst(cfg: &Cfg) -> Result<Probes, String> {
    let mut out = net(n(cfg, 200)).map_err(|e| format!("net probe: {e}"))?;
    out.extend(httpd_scaling(cfg)?);
    Ok(out)
}

/// `lfs_large`: in-place flushes and an uncached read of one large object.
pub fn lfs_large(cfg: &Cfg) -> Result<Probes, String> {
    Ok(store_large(n(cfg, 50), if cfg.smoke { 1 } else { 16 }))
}

/// `persist_sync`: the bare store and B+-tree.
pub fn persist_sync(cfg: &Cfg) -> Result<Probes, String> {
    Ok(store_small(n(cfg, 20_000)))
}

/// `persist_recover`: creating a file in a large `/persist` directory.
pub fn persist_recover(cfg: &Cfg) -> Result<Probes, String> {
    persist_create(cfg.size(1_000, 50), 20).map_err(|e| format!("persist create probe: {e}"))
}

fn label(iters: u64) -> Probes {
    // Two 16-category labels, the right one dominating the left.
    let cats: Vec<Category> = (1..=16).map(Category::from_raw).collect();
    let build = |level: Level| {
        cats.iter()
            .fold(Label::builder(), |b, &c| b.set(c, level))
            .build()
    };
    let (low, high) = (build(Level::L1), build(Level::L3));
    let plain = ns_per_call(iters, || {
        black_box(black_box(&low).leq(black_box(&high)));
    });
    let mut cache = LabelCache::new();
    let (a, b) = (cache.intern(&low), cache.intern(&high));
    let cached = ns_per_call(iters, || {
        black_box(cache.leq(black_box(a), black_box(b)));
    });
    vec![
        ("label.leq_host_ns", plain),
        ("label.leq_cached_host_ns", cached),
    ]
}

fn kernel(iters: u64) -> Probes {
    let mut m = Machine::boot(MachineConfig::default());
    let tid = m.kernel_thread();
    let k = m.kernel_mut();
    let trap = ns_per_call(iters, || {
        black_box(k.trap_self_get_label(tid).is_ok());
    });
    let batch = ns_per_call(iters / 16, || {
        black_box(k.submit_calls(tid, vec![Syscall::SelfGetLabel; 16]).len());
    });
    vec![
        ("kernel.trap_host_ns", trap),
        ("kernel.batch_entry_host_ns", batch / 16.0),
    ]
}

/// Host ns per quantum of `threads` threads each yielding `steps` times.
fn sched_quantum(threads: u64, steps: u64) -> f64 {
    let mut m = Machine::boot(MachineConfig::default());
    let boot = m.kernel_thread();
    let root = m.kernel().root_container();
    let mut sched: Scheduler<Machine> = Scheduler::new(SchedConfig::new().seed(1));
    for i in 0..threads {
        let tid = m
            .kernel_mut()
            .trap_thread_create(
                boot,
                root,
                Label::unrestricted(),
                Label::default_clearance(),
                0,
                &format!("t{i}"),
            )
            .expect("thread creation on a fresh machine");
        let mut left = steps;
        sched.spawn(
            tid,
            Box::new(move |_m: &mut Machine, _tid| {
                left -= 1;
                if left == 0 {
                    Step::Done
                } else {
                    Step::Yield
                }
            }),
        );
    }
    let t = ScaledTimer::start();
    let report = m.run_until(&mut sched, RunLimit::to_completion());
    t.stop().scaled_s * 1e9 / report.stats.quanta.max(1) as f64
}

fn gatecall(iters: u64) -> Result<Probes, histar::unix::UnixError> {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let daemon = env.spawn(init, "/usr/bin/timestampd", None)?;
    let service = create_service_gate(&mut env, daemon, 0x7100, "probe service")?;
    let caller = env.spawn(init, "/bin/caller", None)?;
    let t = ScaledTimer::start();
    for _ in 0..iters {
        let session = enter_service(&mut env, caller, &service, true)?;
        return_from_service(&mut env, session)?;
    }
    Ok(vec![(
        "unix.gatecall_host_us",
        t.stop().scaled_s * 1e6 / iters as f64,
    )])
}

fn login(iters: u64) -> Result<Probes, histar::unix::UnixError> {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let mut auth = AuthSystem::new();
    let user = env.create_user("probe")?;
    auth.register(AuthService::new(user, "pw-probe"));
    let pids = (0..iters)
        .map(|i| env.spawn(init, &format!("/bin/login-{i}"), None))
        .collect::<Result<Vec<_>, _>>()?;
    let before = env.machine().kernel().stats().syscalls;
    let t = ScaledTimer::start();
    for pid in pids {
        if auth.login(&mut env, pid, "probe", "pw-probe")? != LoginOutcome::Granted {
            return Err(histar::unix::UnixError::Corrupt("probe login refused"));
        }
    }
    let host_us = t.stop().scaled_s * 1e6 / iters as f64;
    let syscalls = env.machine().kernel().stats().syscalls - before;
    Ok(vec![
        ("auth.login_host_us", host_us),
        ("auth.login_syscalls", syscalls as f64 / iters as f64),
    ])
}

fn net(iters: u64) -> Result<Probes, histar::unix::UnixError> {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let netd = Netd::start(&mut env, init, "internet")?;
    let server = netd.spawn_tainted(&mut env, init, "/sbin/probe-server")?;
    let client = netd.spawn_tainted(&mut env, init, "/bin/probe-client")?;
    let listener = netd.listen(&mut env, server)?;
    let refused = histar::unix::UnixError::Corrupt("probe connection not accepted");

    let t = ScaledTimer::start();
    for _ in 0..iters {
        let cfd = netd.connect(&mut env, client, &listener)?;
        let accepted = netd
            .accept(&mut env, server, listener.fd)?
            .ok_or(refused.clone())?;
        env.close(server, accepted.fd)?;
        env.close(client, cfd)?;
    }
    let connect_us = t.stop().scaled_s * 1e6 / iters as f64;

    let cfd = netd.connect(&mut env, client, &listener)?;
    let sfd = netd
        .accept(&mut env, server, listener.fd)?
        .ok_or(refused)?
        .fd;
    let t = ScaledTimer::start();
    for _ in 0..iters {
        env.write(client, cfd, b"user0 pw-user0 index.html\n")?;
        black_box(env.read(server, sfd, 4096)?);
        env.write(server, sfd, b"200 <html>user0's private page</html>")?;
        black_box(env.read(client, cfd, 4096)?);
    }
    Ok(vec![
        ("net.connect_host_us", connect_us),
        (
            "net.send_recv_host_us",
            t.stop().scaled_s * 1e6 / iters as f64,
        ),
    ])
}

/// How host time per request grows with the burst, 500 clients against
/// 1,500: an exponent of 1.0 is linear.
fn httpd_scaling(cfg: &Cfg) -> Result<Probes, String> {
    let per_request_us = |clients: usize| {
        let t = ScaledTimer::start();
        let (world, report) = run_httpd(HttpdParams {
            clients,
            users: 16,
            wrong_every: 0,
            seed: cfg.seed,
            trace_capacity: 0,
            recorder_capacity: 0,
        })
        .map_err(|e| format!("httpd probe: {e}"))?;
        let us = t.stop().scaled_s * 1e6 / clients as f64;
        if report.served != clients as u64 || !world.failures.is_empty() {
            return Err(format!("httpd probe served {} of {clients}", report.served));
        }
        Ok(us)
    };
    let small = cfg.size(500, 8);
    let (at_small, at_large) = (per_request_us(small)?, per_request_us(3 * small)?);
    Ok(vec![
        ("httpd.host_us_per_request_at_500", at_small),
        ("httpd.host_us_per_request_at_1500", at_large),
        (
            "httpd.host_scaling_exponent",
            1.0 + (at_large / at_small).ln() / 3f64.ln(),
        ),
    ])
}

fn store_small(iters: u64) -> Probes {
    let mut store = SingleLevelStore::format(StoreConfig::default(), SimClock::new());
    let mut i = 0;
    let put = ns_per_call(iters, || {
        store.put(i % iters, vec![0x5a; 256]);
        i += 1;
    });
    let mut i = 0;
    let get = ns_per_call(iters, || {
        black_box(store.get(i % iters).is_ok());
        i += 1;
    });
    let mut rng = SimRng::new(7);
    let mut tree = BPlusTree::new();
    let insert = ns_per_call(iters, || {
        let k = rng.next_u64() >> 4;
        tree.insert(k, k);
    });
    let range = ns_per_call(iters / 10, || {
        let lo = rng.next_u64() >> 4;
        black_box(tree.range(lo, lo + (u64::MAX >> 4) / 1_000).len());
    });
    vec![
        ("store.put_host_ns", put),
        ("store.get_host_ns", get),
        ("store.bptree_insert_host_ns", insert),
        ("store.bptree_range_host_ns", range),
    ]
}

/// In-place page flushes of, and an uncached read of, one `mib`-MiB object.
fn store_large(iters: u64, mib: u64) -> Probes {
    let mut store = SingleLevelStore::format(StoreConfig::default(), SimClock::new());
    store.put(1, vec![0u8; (mib << 20) as usize]);
    store.checkpoint();
    let pages = mib << 8;
    let mut rng = SimRng::new(3);
    let sync_ns = ns_per_call(iters, || {
        let p = rng.next_below(pages - 1);
        black_box(store.sync_pages_in_place(1, &[p, p + 1]).is_ok());
    });
    store.evict_clean();
    let start = store.disk().clock().now();
    let len = store.get(1).map_or(0, |d| d.len() as u64);
    let read_s = (store.disk().clock().now() - start).as_secs_f64();
    let per_100mb_s = read_s * 100.0 / mib as f64;
    vec![
        (
            "store.sync_pages_host_us_per_mib",
            sync_ns / 1e3 / mib as f64,
        ),
        (
            "sim.paper_ratio.lfs_uncached_read",
            if len == mib << 20 {
                per_100mb_s / PAPER_UNCACHED_READ_S
            } else {
                0.0
            },
        ),
    ]
}

/// Host µs to create one file in a `/persist` directory of `entries`.
fn persist_create(entries: usize, creates: usize) -> Result<Probes, histar::unix::UnixError> {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    env.mkdir(init, "/persist/probe", None)?;
    for i in 0..entries {
        env.write_file_as(init, &format!("/persist/probe/f{i}"), b"x", None)?;
    }
    let t = ScaledTimer::start();
    for i in 0..creates {
        env.write_file_as(init, &format!("/persist/probe/new{i}"), b"x", None)?;
    }
    Ok(vec![(
        "unix.persist_create_host_us_at_1k",
        t.stop().scaled_s * 1e6 / creates as f64,
    )])
}

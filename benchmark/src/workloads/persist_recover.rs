//! `persist_recover`: the store's read side.  Set-up populates a
//! 500-file `/persist` directory (where the linear dirent walk shows, in
//! `setup_s`); each timed cycle rewrites and syncs two seeded files,
//! crashes the machine, recovers it (superblock, preload, B+-tree bulk
//! load, WAL replay), remounts and reads both files back byte-exact —
//! so a group-commit change that speeds `persist_sync` by making recovery
//! dearer is caught, and every acknowledged write is checked durable.

use super::{Cfg, Counters, KernelTrace, Rep, TRACE_CAPACITY};
use crate::host_clock::ScaledTimer;
use crate::trace::Meter;
use histar::sim::SimRng;
use histar::unix::{UnixEnv, UnixError};

/// Bytes per populated file.
const FILE_LEN: usize = 4096;
/// Files rewritten, synced and read back per cycle.
const PER_CYCLE: usize = 2;
/// `fsync_paths` group size while populating.
const POPULATE_GROUP: usize = 64;
/// Every this many cycles the directory is listed and its size checked.
const READDIR_EVERY: usize = 100;

/// Populated files and timed cycles.
fn sizes(cfg: &Cfg) -> (usize, usize) {
    (cfg.size(500, 24), cfg.size(1_200, 6))
}

fn path(i: usize) -> String {
    format!("/persist/pop/f{i}")
}

/// Runs one rep.
pub fn run(cfg: &Cfg) -> Rep {
    let (files, cycles) = sizes(cfg);
    let mut rep = Rep {
        ops: cycles as u64,
        ..Rep::default()
    };

    let t = ScaledTimer::start();
    let mut rng = SimRng::new(cfg.seed);
    let noise = rng.bytes(2 * FILE_LEN);
    // File `i` holds the 4 KiB of `noise` starting at `at[i]`.
    let mut at: Vec<usize> = (0..files).map(|i| i % FILE_LEN).collect();
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let built = (|| {
        env.mkdir(init, "/persist/pop", None)?;
        // A file's fsync covers its own directory entry, not the entry
        // that names its directory.
        env.fsync_path(init, "/persist/pop")?;
        for group in (0..files).collect::<Vec<_>>().chunks(POPULATE_GROUP) {
            let paths: Vec<String> = group.iter().map(|&i| path(i)).collect();
            for (&i, p) in group.iter().zip(&paths) {
                env.write_file_as(init, p, &noise[at[i]..at[i] + FILE_LEN], None)?;
            }
            let refs: Vec<&str> = paths.iter().map(String::as_str).collect();
            env.fsync_paths(init, &refs)?;
        }
        for i in 0..files {
            if env.read_file_as(init, &path(i))? != noise[at[i]..at[i] + FILE_LEN] {
                return Err(UnixError::Corrupt("populated file read back wrong"));
            }
        }
        Ok(())
    })();
    rep.setup = t.stop();
    if let Err(e) = built {
        return rep.abandon(format!("set-up: {e}"));
    }

    cfg.arm(env.kernel_mut());
    // Recovery replaces the kernel: one recorder is carried across cycles,
    // the audit trace is re-armed on (and digested from) every kernel, and
    // counters are banked before each crash.  Only the disk survives, so
    // after a crash the `disk.*` counters carry on and the rest restart.
    let recorder = env.machine().kernel().recorder().clone();
    let mut trace = cfg.tracing.then(KernelTrace::default);
    let mut meter = Meter::new(env.machine().clock().clone(), cfg.tracing);
    let mut counters = Counters::default();
    let mut base = Counters::snapshot(env.machine().kernel());
    let mut slot = Some(env);
    let start = meter.model_now();
    meter.begin_region();
    for cycle in 0..cycles {
        let picks: Vec<usize> = (0..PER_CYCLE)
            .map(|_| rng.next_below(files as u64) as usize)
            .collect();
        let paths: Vec<String> = picks.iter().map(|&i| path(i)).collect();
        for &i in &picks {
            at[i] = rng.next_below(FILE_LEN as u64) as usize;
        }
        let r = meter.op_with("store", "recover_cycle", |m| {
            let mut env = slot.take().ok_or("machine lost in an earlier cycle")?;
            let init = env.init_pid();
            m.span("unix", "rewrite", || {
                for (&i, p) in picks.iter().zip(&paths) {
                    env.write_file_as(init, p, &noise[at[i]..at[i] + FILE_LEN], None)?;
                }
                let refs: Vec<&str> = paths.iter().map(String::as_str).collect();
                env.fsync_paths(init, &refs)
            })
            .map_err(|e| format!("rewrite: {e}"))?;

            let last = Counters::snapshot(env.machine().kernel());
            counters.add(&last.since(&base));
            base = last.with_prefix("disk.");
            if let Some(t) = trace.as_mut() {
                t.absorb_audit(env.machine().kernel());
            }
            let machine = env.into_machine();
            let machine = m
                .span("store", "crash_and_recover", || {
                    machine.crash_and_recover_traced(recorder.clone())
                })
                .map_err(|e| format!("recover: {e}"))?;
            let env = slot.insert(m.span("unix", "on_machine", || UnixEnv::on_machine(machine)));
            if cfg.tracing {
                env.kernel_mut().enable_syscall_trace(TRACE_CAPACITY);
            }

            let init = env.init_pid();
            m.span("unix", "read_back", || {
                for (&i, p) in picks.iter().zip(&paths) {
                    let mut want = noise[at[i]..at[i] + FILE_LEN].to_vec();
                    if cfg.corrupt && cycle == 0 {
                        want[0] ^= 1;
                    }
                    match env.read_file_as(init, p) {
                        Ok(got) if got == want => {}
                        Ok(_) => return Err(format!("{p}: recovered bytes differ")),
                        Err(e) => return Err(format!("{p}: {e}")),
                    }
                }
                if cycle % READDIR_EVERY == 0 {
                    match env.readdir(init, "/persist/pop") {
                        Ok(entries) if entries.len() == files => {}
                        Ok(entries) => return Err(format!("readdir saw {} files", entries.len())),
                        Err(e) => return Err(format!("readdir: {e}")),
                    }
                }
                Ok(())
            })
        });
        if let Err(e) = r {
            rep.fail(|| format!("cycle {cycle}: {e}"));
        }
        rep.user_bytes += (PER_CYCLE * FILE_LEN) as u64;
    }
    rep.host = meter.end_region();
    rep.model_start = start;
    rep.model_ns = meter.model_now() - start;

    if let Some(env) = &slot {
        let kernel = env.machine().kernel();
        counters.add(&Counters::snapshot(kernel).since(&base));
        if let Some(t) = trace.as_mut() {
            t.absorb_audit(kernel);
            t.absorb_recorder(&recorder, 0);
        }
    }
    rep.counters = counters;
    rep.kernel = trace;
    rep.take_meter(meter);
    rep
}

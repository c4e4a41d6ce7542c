//! `persist_sync`: sixteen small `/persist` files held open; each round
//! rewrites every one and makes them durable with ONE `fsync_paths`.  WAL
//! group commit, pre-apply checkpointing and the simulated disk dominate;
//! a full-size rep runs through some two hundred log applications, so the
//! store's background work has cycled many times.

use super::{seeded_slice, Cfg, Counters, KernelTrace, Rep};
use crate::host_clock::ScaledTimer;
use crate::trace::Meter;
use histar::sim::SimRng;
use histar::unix::fs::OpenFlags;
use histar::unix::{UnixEnv, UnixError};

/// Files rewritten and synced together per round.
const FILES: usize = 16;
/// Payload lengths are drawn from the seed in `MIN_LEN..=MAX_LEN` (mean
/// 64 B), so the WAL traffic is an input, not a constant.
const MIN_LEN: usize = 48;
const MAX_LEN: usize = 80;

/// Rounds per rep.
fn rounds(cfg: &Cfg) -> usize {
    cfg.size(4_000, 20)
}

/// Runs one rep.
pub fn run(cfg: &Cfg) -> Rep {
    let rounds = rounds(cfg);
    let mut rep = Rep {
        ops: (rounds * FILES) as u64,
        ..Rep::default()
    };

    let t = ScaledTimer::start();
    let mut rng = SimRng::new(cfg.seed);
    let noise = rng.bytes(4096);
    let paths: Vec<String> = (0..FILES).map(|i| format!("/persist/sync{i}")).collect();
    let path_refs: Vec<&str> = paths.iter().map(String::as_str).collect();
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let built = paths
        .iter()
        .map(|path| {
            env.write_file_as(init, path, &noise[..MAX_LEN], None)?;
            env.open(
                init,
                path,
                OpenFlags {
                    read: true,
                    write: true,
                    ..OpenFlags::default()
                },
            )
        })
        .collect::<Result<Vec<_>, UnixError>>();
    rep.setup = t.stop();
    let fds = match built {
        Ok(fds) => fds,
        Err(e) => return rep.abandon(format!("set-up: {e}")),
    };

    cfg.arm(env.kernel_mut());
    let mut meter = Meter::new(env.machine().clock().clone(), cfg.tracing);
    let before = Counters::snapshot(env.machine().kernel());
    // What each file must hold: a prefix of the latest payload over the
    // tail of whatever longer payload came before.
    let mut expect: Vec<Vec<u8>> = vec![noise[..MAX_LEN].to_vec(); FILES];
    let start = meter.model_now();
    meter.begin_region();
    for round in 0..rounds {
        // One latency sample per round: sixteen rewrites and their sync.
        let r = meter.op_with("unix", "sync_round", |m| {
            for (f, &fd) in fds.iter().enumerate() {
                let payload = seeded_slice(&mut rng, &noise, MIN_LEN, MAX_LEN);
                let len = payload.len();
                let n = m
                    .span("unix", "rewrite", || {
                        env.lseek(init, fd, 0)?;
                        env.write(init, fd, payload)
                    })
                    .map_err(|e| format!("rewrite of file {f}: {e}"))?;
                if n != len as u64 {
                    return Err(format!("short write of {n} bytes to file {f}"));
                }
                expect[f][..len].copy_from_slice(payload);
                rep.user_bytes += len as u64;
            }
            m.span("store", "fsync_paths", || env.fsync_paths(init, &path_refs))
                .map_err(|e| format!("fsync_paths: {e}"))
        });
        if let Err(e) = r {
            rep.failed += FILES as u64;
            rep.failures.push(format!("round {round}: {e}"));
            break;
        }
    }
    rep.host = meter.end_region();
    rep.model_start = start;
    rep.model_ns = meter.model_now() - start;

    // Every file must read back as the bytes last written to it.
    if cfg.corrupt {
        expect[0][0] ^= 1;
    }
    for (path, want) in paths.iter().zip(&expect) {
        match env.read_file_as(init, path) {
            Ok(got) if got == *want => {}
            Ok(_) => rep.fail(|| format!("{path}: read back wrong bytes")),
            Err(e) => rep.fail(|| format!("{path}: read back: {e}")),
        }
    }

    let kernel = env.machine().kernel();
    rep.counters = Counters::snapshot(kernel).since(&before);
    if cfg.tracing {
        rep.kernel = Some(KernelTrace::collect(kernel));
    }
    rep.take_meter(meter);
    rep
}

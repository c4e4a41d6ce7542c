//! `fs_mixed`: one booted `UnixEnv`, a 16 MiB heap file and a 64-entry
//! directory; a seeded mix of 4 KiB sequential reads, 4 KiB sequential
//! writes, `open`+`close` and `readdir`.  `unix` vfs/vnode/segfs and the
//! batched ABI do all the work; no scheduler, no store, no net.  Reads run
//! beside writes beside metadata, so a read-path cache that taxes writes
//! shows here.

use super::{Cfg, Counters, KernelTrace, Rep};
use crate::host_clock::ScaledTimer;
use crate::trace::Meter;
use histar::sim::SimRng;
use histar::unix::fs::OpenFlags;
use histar::unix::UnixEnv;

/// Bytes moved per read or write.
pub const IO: usize = 4096;
/// Entries in the directory `readdir` lists.
const DIR_ENTRIES: usize = 64;
/// Distinct seeded 4 KiB blocks the writes cycle through.
const POOL: usize = 64;

/// One generated op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsOp {
    /// Sequential 4 KiB read at the read descriptor's position.
    Read,
    /// Sequential 4 KiB write of pool block `.0` at the write descriptor's
    /// position.
    Write(u8),
    /// `open` + `close` of the big file.
    OpenClose,
    /// `readdir` of the 64-entry directory.
    Readdir,
}

/// The op stream for `seed`: 48% reads, 48% writes, 2% `open`+`close`, 2%
/// `readdir`, each op drawn independently.
///
/// `open`+`close` fails with `QuotaExceeded` after 8,186 opens in one
/// process (a close never refunds the descriptor segment), so `n` × 2%
/// must stay well under that: at the full size it is 6,000 ± 80.
pub fn op_stream(seed: u64, n: usize) -> Vec<FsOp> {
    let mut rng = SimRng::new(seed);
    (0..n)
        .map(|_| match rng.next_below(100) {
            0..=47 => FsOp::Read,
            48..=95 => FsOp::Write(rng.next_below(POOL as u64) as u8),
            96..=97 => FsOp::OpenClose,
            _ => FsOp::Readdir,
        })
        .collect()
}

/// Ops per rep and blocks in the big file.
fn sizes(cfg: &Cfg) -> (usize, usize) {
    (cfg.size(300_000, 2_000), cfg.size(4_096, 64))
}

/// Runs one rep.
pub fn run(cfg: &Cfg) -> Rep {
    let (n_ops, blocks) = sizes(cfg);
    let mut rep = Rep {
        ops: n_ops as u64,
        ..Rep::default()
    };

    let t = ScaledTimer::start();
    let ops = op_stream(cfg.seed, n_ops);
    let mut rng = SimRng::new(cfg.seed ^ 0x66_735f_6d69_7865);
    let pool: Vec<Vec<u8>> = (0..POOL).map(|_| rng.bytes(IO)).collect();
    // `content[b]` is the pool block that file block `b` must hold.
    let mut content: Vec<u8> = (0..blocks).map(|b| (b % POOL) as u8).collect();
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let built = (|| {
        env.mkdir(init, "/bench", None)?;
        env.reserve_quota(init, "/bench", (4 * blocks * IO + (64 << 20)) as u64)?;
        let mut image = Vec::with_capacity(blocks * IO);
        for &p in &content {
            image.extend_from_slice(&pool[p as usize]);
        }
        env.write_file_as(init, "/bench/big", &image, None)?;
        env.mkdir(init, "/bench/dir", None)?;
        for i in 0..DIR_ENTRIES {
            env.write_file_as(init, &format!("/bench/dir/f{i}"), b"x", None)?;
        }
        let rfd = env.open(init, "/bench/big", OpenFlags::read_only())?;
        let wfd = env.open(
            init,
            "/bench/big",
            OpenFlags {
                write: true,
                ..OpenFlags::default()
            },
        )?;
        Ok::<_, histar::unix::UnixError>((rfd, wfd))
    })();
    rep.setup = t.stop();
    let (rfd, wfd) = match built {
        Ok(fds) => fds,
        Err(e) => return rep.abandon(format!("set-up: {e}")),
    };

    cfg.arm(env.kernel_mut());
    let mut meter = Meter::new(env.machine().clock().clone(), cfg.tracing);
    let before = Counters::snapshot(env.machine().kernel());
    let (mut rpos, mut wpos) = (0usize, 0usize);
    let start = meter.model_now();
    meter.begin_region();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            FsOp::Read => {
                let got = meter.op("unix", "read", || {
                    let got = env.read(init, rfd, IO as u64);
                    if rpos + 1 == blocks {
                        env.lseek(init, rfd, 0).and(got)
                    } else {
                        got
                    }
                });
                // `--corrupt` expects the wrong block of the first read.
                let want = content[rpos] ^ u8::from(cfg.corrupt && rep.failed == 0);
                match got {
                    Ok(data) if data == pool[want as usize] => {}
                    Ok(_) => {
                        rep.fail(|| format!("op {i}: read of block {rpos} returned wrong bytes"))
                    }
                    Err(e) => rep.fail(|| format!("op {i}: read: {e}")),
                }
                rpos = (rpos + 1) % blocks;
            }
            FsOp::Write(p) => {
                let wrote = meter.op("unix", "write", || {
                    let wrote = env.write(init, wfd, &pool[p as usize]);
                    if wpos + 1 == blocks {
                        env.lseek(init, wfd, 0).and(wrote)
                    } else {
                        wrote
                    }
                });
                match wrote {
                    Ok(n) if n == IO as u64 => content[wpos] = p,
                    Ok(n) => rep.fail(|| format!("op {i}: short write of {n} bytes")),
                    Err(e) => rep.fail(|| format!("op {i}: write: {e}")),
                }
                rep.user_bytes += IO as u64;
                wpos = (wpos + 1) % blocks;
            }
            FsOp::OpenClose => {
                let r = meter.op("unix", "open_close", || {
                    let fd = env.open(init, "/bench/big", OpenFlags::read_only())?;
                    env.close(init, fd)
                });
                if let Err(e) = r {
                    rep.fail(|| format!("op {i}: open+close: {e}"));
                }
            }
            FsOp::Readdir => {
                match meter.op("unix", "readdir", || env.readdir(init, "/bench/dir")) {
                    Ok(entries) if entries.len() == DIR_ENTRIES => {}
                    Ok(entries) => {
                        rep.fail(|| format!("op {i}: readdir saw {} entries", entries.len()))
                    }
                    Err(e) => rep.fail(|| format!("op {i}: readdir: {e}")),
                }
            }
        }
    }
    rep.host = meter.end_region();
    rep.model_start = start;
    rep.model_ns = meter.model_now() - start;

    let kernel = env.machine().kernel();
    rep.counters = Counters::snapshot(kernel).since(&before);
    if cfg.tracing {
        rep.kernel = Some(KernelTrace::collect(kernel));
        // Per-op-type cost on both clocks, from the benchmark's own spans.
        for (name, host_key, model_key) in [
            ("read", "unix.read_host_ns", "unix.read_model_ns"),
            ("write", "unix.write_host_ns", "unix.write_model_ns"),
            (
                "open_close",
                "unix.open_close_host_ns",
                "unix.open_close_model_ns",
            ),
            ("readdir", "unix.readdir_host_ns", "unix.readdir_model_ns"),
        ] {
            let (mut n, mut host, mut model) = (0u64, 0u64, 0u64);
            for s in meter.spans.iter().filter(|s| s.name == name) {
                n += 1;
                host += s.host_end - s.host_start;
                model += s.model_end - s.model_start;
            }
            rep.layer.insert(host_key, host as f64 / n.max(1) as f64);
            rep.layer.insert(model_key, model as f64 / n.max(1) as f64);
        }
    }
    rep.take_meter(meter);
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_another_seed_another() {
        let a = op_stream(0x4177, 10_000);
        assert_eq!(a, op_stream(0x4177, 10_000));
        assert_ne!(a, op_stream(0x4178, 10_000));
    }

    #[test]
    fn the_mix_is_48_48_2_2() {
        let ops = op_stream(1, 100_000);
        let share = |f: fn(&FsOp) -> bool| ops.iter().filter(|o| f(o)).count() as f64 / 1e5;
        assert!((share(|o| *o == FsOp::Read) - 0.48).abs() < 0.01);
        assert!((share(|o| matches!(o, FsOp::Write(_))) - 0.48).abs() < 0.01);
        assert!((share(|o| *o == FsOp::OpenClose) - 0.02).abs() < 0.005);
        assert!((share(|o| *o == FsOp::Readdir) - 0.02).abs() < 0.005);
    }
}

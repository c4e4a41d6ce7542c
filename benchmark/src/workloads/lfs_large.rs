//! `lfs_large`: Figure 12's large-file phases through the real file API on
//! a heap file — sequential 8 KiB writes and one `sync_all`, seeded random
//! 8 KiB `lseek`+`write`+`fsync_pages`, then sequential 8 KiB reads, all
//! verified.  Nearly all host time is `store::sync_pages_in_place`: the
//! store flushing pages of ONE large object in place, the opposite of
//! `persist_sync`'s many small records.

use super::{Cfg, Counters, KernelTrace, Rep};
use crate::host_clock::ScaledTimer;
use crate::trace::Meter;
use histar::sim::SimRng;
use histar::unix::fs::OpenFlags;
use histar::unix::{UnixEnv, UnixError};

/// Bytes per write, read and sync (the paper's 8 kB).
pub const CHUNK: usize = 8192;
/// Random writes start on a disk-sector boundary.
const SECTOR: usize = 512;
/// Bytes per page `fsync_pages` flushes.
const PAGE: u64 = 4096;
/// 8 KiB writes in the paper's 100 MB file, for scaling to its rows.
const PAPER_CHUNKS: f64 = 100.0 * 1024.0 * 1024.0 / CHUNK as f64;
/// Figure 12, HiStar column, seconds: sequential write, synchronous random
/// write (the values `crates/bench/src/fig12.rs` carries as `paper_value`).
const PAPER_SEQ_WRITE_S: f64 = 2.14;
const PAPER_SYNC_RANDOM_WRITE_S: f64 = 93.0;

/// Sequential chunks (written, then read back) and random synced writes.
fn sizes(cfg: &Cfg) -> (usize, usize) {
    (cfg.size(2_048, 64), cfg.size(512, 16))
}

/// Runs one rep.
pub fn run(cfg: &Cfg) -> Rep {
    let (chunks, random) = sizes(cfg);
    let mut rep = Rep {
        ops: (2 * chunks + 1 + random) as u64,
        ..Rep::default()
    };

    let t = ScaledTimer::start();
    let mut rng = SimRng::new(cfg.seed);
    let mut image = rng.bytes(chunks * CHUNK);
    let fresh = rng.bytes(CHUNK);
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let built = (|| {
        env.mkdir(init, "/bench", None)?;
        env.reserve_quota(init, "/bench", (4 * chunks * CHUNK + (64 << 20)) as u64)?;
        env.open(init, "/bench/large", OpenFlags::read_write_create())
    })();
    rep.setup = t.stop();
    let fd = match built {
        Ok(fd) => fd,
        Err(e) => return rep.abandon(format!("set-up: {e}")),
    };

    cfg.arm(env.kernel_mut());
    let mut meter = Meter::new(env.machine().clock().clone(), cfg.tracing);
    let before = Counters::snapshot(env.machine().kernel());
    let start = meter.model_now();
    meter.begin_region();

    // Phase 1: sequential write of the whole file, then one group sync.
    for c in 0..chunks {
        let data = &image[c * CHUNK..(c + 1) * CHUNK];
        match meter.op("unix", "write", || env.write(init, fd, data)) {
            Ok(n) if n == CHUNK as u64 => {}
            Ok(n) => rep.fail(|| format!("chunk {c}: short write of {n} bytes")),
            Err(e) => rep.fail(|| format!("chunk {c}: write: {e}")),
        }
    }
    meter.op("store", "sync_all", || env.sync_all());
    let seq_write_ns = meter.model_now() - start;

    // Phase 2: random synchronous writes, flushed in place page by page.
    let phase = meter.model_now();
    // Offsets are sector-aligned, so a write dirties two pages or three.
    let sectors = ((chunks - 1) * CHUNK / SECTOR) as u64;
    for i in 0..random {
        let off = rng.next_below(sectors + 1) as usize * SECTOR;
        let pages: Vec<u64> = (off as u64 / PAGE..=(off + CHUNK - 1) as u64 / PAGE).collect();
        let r = meter.op_with("unix", "sync_random_write", |m| {
            m.span("unix", "lseek", || env.lseek(init, fd, off as u64))?;
            let n = m.span("unix", "write", || env.write(init, fd, &fresh))?;
            m.span("store", "fsync_pages", || env.fsync_pages(init, fd, &pages))?;
            Ok::<u64, UnixError>(n)
        });
        match r {
            Ok(n) if n == CHUNK as u64 => image[off..off + CHUNK].copy_from_slice(&fresh),
            Ok(n) => rep.fail(|| format!("random write {i}: short write of {n} bytes")),
            Err(e) => rep.fail(|| format!("random write {i}: {e}")),
        }
    }
    let random_ns = meter.model_now() - phase;

    // Phase 3: sequential read-back of everything written.
    if cfg.corrupt {
        image[CHUNK / 2] ^= 1;
    }
    if let Err(e) = env.lseek(init, fd, 0) {
        rep.fail(|| format!("rewind: {e}"));
    }
    for c in 0..chunks {
        match meter.op("unix", "read", || env.read(init, fd, CHUNK as u64)) {
            Ok(data) if data[..] == image[c * CHUNK..(c + 1) * CHUNK] => {}
            Ok(_) => rep.fail(|| format!("chunk {c}: read returned wrong bytes")),
            Err(e) => rep.fail(|| format!("chunk {c}: read: {e}")),
        }
    }
    rep.host = meter.end_region();
    rep.model_start = start;
    rep.model_ns = meter.model_now() - start;
    rep.user_bytes = ((chunks + random) * CHUNK) as u64;

    // The simulator's error against the paper, scaled per 8 KiB write to
    // the paper's 100 MB file.
    let per_100mb_s = |ns: u64, writes: usize| ns as f64 / writes as f64 * PAPER_CHUNKS / 1e9;
    rep.layer.insert(
        "sim.paper_ratio.lfs_seq_write",
        per_100mb_s(seq_write_ns, chunks) / PAPER_SEQ_WRITE_S,
    );
    rep.layer.insert(
        "sim.paper_ratio.lfs_sync_random_write",
        per_100mb_s(random_ns, random) / PAPER_SYNC_RANDOM_WRITE_S,
    );

    let kernel = env.machine().kernel();
    rep.counters = Counters::snapshot(kernel).since(&before);
    if cfg.tracing {
        rep.kernel = Some(KernelTrace::collect(kernel));
    }
    rep.take_meter(meter);
    rep
}

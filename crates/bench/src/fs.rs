//! The file-system benchmark: open/read/write/readdir operations per
//! simulated second through the Unix library's file API, single node.
//!
//! The interesting number is the hot read/write path: each iteration goes
//! descriptor segment → backing segment → descriptor seek update, so the
//! measured throughput tracks exactly the boundary crossings the VFS layer
//! spends per I/O.  The submission-batch histogram over the I/O phases is
//! emitted alongside, making the batched seek-update (data op + descriptor
//! position write in ONE batch) visible in `BENCH_fs.json`.

use crate::report::{per_sec, BenchJson};
use histar_obs::Recorder;
use histar_sim::SimDuration;
use histar_unix::fs::OpenFlags;
use histar_unix::UnixEnv;

/// Parameters of the file-system benchmark.
#[derive(Clone, Copy, Debug)]
pub struct FsBenchParams {
    /// open+close iterations.
    pub open_ops: u64,
    /// Sequential 4 KiB read iterations.
    pub read_ops: u64,
    /// Sequential 4 KiB write iterations.
    pub write_ops: u64,
    /// readdir iterations.
    pub readdir_ops: u64,
    /// Entries in the readdir target directory.
    pub dir_entries: u64,
    /// Sequential 4 KiB reads through a `/persist` descriptor.
    pub persist_read_ops: u64,
    /// Sequential 4 KiB overwrites through a `/persist` descriptor.
    pub persist_write_ops: u64,
    /// Crash → recover → remount → read-back round trips.
    pub recover_iters: u64,
    /// Small `/persist` files synced together per fsync round.
    pub persist_sync_files: u64,
    /// Rounds of rewrite-everything-then-fsync-everything.
    pub persist_sync_rounds: u64,
}

/// Bytes moved per read/write iteration.
pub const IO_SIZE: u64 = 4096;

impl FsBenchParams {
    /// Quick parameters for tests.
    pub fn smoke() -> FsBenchParams {
        FsBenchParams {
            open_ops: 200,
            read_ops: 400,
            write_ops: 400,
            readdir_ops: 100,
            dir_entries: 32,
            persist_read_ops: 400,
            persist_write_ops: 400,
            recover_iters: 3,
            persist_sync_files: 8,
            persist_sync_rounds: 10,
        }
    }

    /// The parameters of the committed baseline.
    pub fn full() -> FsBenchParams {
        FsBenchParams {
            open_ops: 2_000,
            read_ops: 8_000,
            write_ops: 8_000,
            readdir_ops: 1_000,
            dir_entries: 64,
            persist_read_ops: 8_000,
            persist_write_ops: 8_000,
            recover_iters: 8,
            persist_sync_files: 16,
            persist_sync_rounds: 100,
        }
    }
}

/// Runs `op` `iters` times and returns the simulated time it took.
fn timed(env: &mut UnixEnv, iters: u64, mut op: impl FnMut(&mut UnixEnv, u64)) -> SimDuration {
    let start = env.machine().clock().now();
    for i in 0..iters {
        op(env, i);
    }
    env.machine().clock().now() - start
}

/// Appends `<phase>.ops_per_sec` for `ops` operations that took `elapsed`.
fn throughput(json: &mut BenchJson, phase: &str, ops: u64, elapsed: SimDuration) {
    let rate = per_sec(ops, elapsed);
    json.metric(&format!("{phase}.ops_per_sec"), rate, elapsed.as_nanos());
}

/// Runs the benchmark on a freshly booted environment and returns the
/// `BENCH_fs.json` report.
pub fn run(params: FsBenchParams) -> BenchJson {
    let mut json = BenchJson::new("fs");
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let read_only = OpenFlags::read_only();
    let write_only = OpenFlags {
        write: true,
        ..Default::default()
    };

    // Fixture: one big file for the I/O phases, one populated directory.
    env.mkdir(init, "/bench", None).expect("mkdir /bench");
    let file_size = params.read_ops.max(1) * IO_SIZE;
    env.reserve_quota(init, "/bench", 4 * file_size + 64 * 1024 * 1024)
        .expect("reserve quota");
    env.write_file_as(init, "/bench/big", &vec![0xabu8; file_size as usize], None)
        .expect("create /bench/big");
    env.mkdir(init, "/bench/dir", None)
        .expect("mkdir /bench/dir");
    for i in 0..params.dir_entries {
        env.write_file_as(init, &format!("/bench/dir/f{i}"), b"x", None)
            .expect("populate dir");
    }

    let elapsed = timed(&mut env, params.open_ops, |env, _| {
        let fd = env.open(init, "/bench/big", read_only).expect("open");
        env.close(init, fd).expect("close");
    });
    throughput(&mut json, "open_close", params.open_ops, elapsed);

    // Sequential reads (the descriptor advances through the file; every
    // iteration re-reads descriptor state and updates the seek position,
    // like a real read(2) loop), then sequential overwrites of the same
    // file.  The dispatch counters cover both.
    let dispatch_before = env.machine().kernel().dispatch_stats();
    let fd = env
        .open(init, "/bench/big", read_only)
        .expect("open for reads");
    let read = timed(&mut env, params.read_ops, |env, _| {
        let data = env.read(init, fd, IO_SIZE).expect("read");
        assert_eq!(data.len() as u64, IO_SIZE, "fixture sized for read count");
    });
    throughput(&mut json, "read", params.read_ops, read);
    env.close(init, fd).expect("close read fd");

    let fd = env
        .open(init, "/bench/big", write_only)
        .expect("open for writes");
    let buf = vec![0x5au8; IO_SIZE as usize];
    let write = timed(&mut env, params.write_ops, |env, _| {
        assert_eq!(env.write(init, fd, &buf).expect("write"), IO_SIZE);
    });
    throughput(&mut json, "write", params.write_ops, write);
    env.close(init, fd).expect("close write fd");
    let io = env
        .machine()
        .kernel()
        .dispatch_stats()
        .since(&dispatch_before);

    let elapsed = timed(&mut env, params.readdir_ops, |env, _| {
        let entries = env.readdir(init, "/bench/dir").expect("readdir");
        assert_eq!(entries.len() as u64, params.dir_entries);
    });
    throughput(&mut json, "readdir", params.readdir_ops, elapsed);

    // Fixture for the persist phases: one big file under /persist whose
    // extents live in the single-level store, not the object heap.
    let persist_size = params.persist_read_ops.max(1) * IO_SIZE;
    let persist_bytes = vec![0xcdu8; persist_size as usize];
    env.write_file_as(init, "/persist/bench_big", &persist_bytes, None)
        .expect("create /persist/bench_big");

    // Sequential /persist reads (extent read + seek update, one batch per
    // iteration), then sequential overwrites.
    let fd = env
        .open(init, "/persist/bench_big", read_only)
        .expect("open persist for reads");
    let elapsed = timed(&mut env, params.persist_read_ops, |env, _| {
        let data = env.read(init, fd, IO_SIZE).expect("persist read");
        assert_eq!(data.len() as u64, IO_SIZE);
    });
    throughput(&mut json, "persist_read", params.persist_read_ops, elapsed);
    env.close(init, fd).expect("close persist read fd");

    let fd = env
        .open(init, "/persist/bench_big", write_only)
        .expect("open persist for writes");
    let elapsed = timed(&mut env, params.persist_write_ops, |env, _| {
        assert_eq!(env.write(init, fd, &buf).expect("persist write"), IO_SIZE);
    });
    throughput(
        &mut json,
        "persist_write",
        params.persist_write_ops,
        elapsed,
    );
    env.close(init, fd).expect("close persist write fd");

    // Crash → recover → remount → read one fsynced file back.  This prices
    // the full recovery path: superblock + checkpoint metadata decode,
    // write-ahead-log replay, object-table restore and the /persist
    // reattach; the flight recorder's `recover` spans split it by phase.
    env.write_file_as(init, "/persist/marker", b"recover me", None)
        .expect("create marker");
    env.fsync_path(init, "/persist/marker")
        .expect("fsync marker");
    let recorder = Recorder::with_capacity(1 << 16);
    let start = env.machine().clock().now();
    for _ in 0..params.recover_iters {
        let machine = env
            .into_machine()
            .crash_and_recover_traced(recorder.clone())
            .expect("crash recovery");
        env = UnixEnv::on_machine(machine);
        // The shared ring is for *recovery* phases: detach it before the
        // read-back's dispatch traffic can evict them.
        env.kernel_mut().disable_flight_recorder();
        let init = env.init_pid();
        let back = env
            .read_file_as(init, "/persist/marker")
            .expect("marker survives");
        assert_eq!(back, b"recover me");
    }
    let elapsed = env.machine().clock().now() - start;
    throughput(&mut json, "recover_mount", params.recover_iters, elapsed);
    for (phase, total_ns, _count) in recorder.phase_totals("recover") {
        let name = format!("recover_mount.phase.{phase}");
        json.metric(&name, total_ns as f64, total_ns);
    }

    // fsync-heavy /persist workload.  Every round rewrites all the small
    // files and syncs them with ONE `fsync_paths` call: the library
    // resolves each file to its record keys, issues a single persist_sync,
    // and the store group-commits the whole round into one multi-record
    // WAL frame (§5's group sync) — the per-frame seek is amortised over
    // every file in the round, which the mean-flush-batch row makes
    // visible.
    let init = env.init_pid();
    let sync_paths: Vec<String> = (0..params.persist_sync_files)
        .map(|i| format!("/persist/sync{i}"))
        .collect();
    for path in &sync_paths {
        env.write_file_as(init, path, b"seed", None)
            .expect("create sync file");
    }
    let sync_refs: Vec<&str> = sync_paths.iter().map(String::as_str).collect();
    let wal_before = env.machine().store().wal_stats();
    let elapsed = timed(&mut env, params.persist_sync_rounds, |env, round| {
        let payload = [(round & 0xff) as u8; 64];
        for path in &sync_paths {
            env.write_file_as(init, path, &payload, None)
                .expect("rewrite sync file");
        }
        env.fsync_paths(init, &sync_refs).expect("fsync round");
    });
    let synced = params.persist_sync_files * params.persist_sync_rounds;
    throughput(&mut json, "persist_sync", synced, elapsed);
    let wal_after = env.machine().store().wal_stats();
    let appends = (wal_after.appends - wal_before.appends) as f64;
    let frames = (wal_after.frames - wal_before.frames) as f64;
    let batch = if frames == 0.0 { 0.0 } else { appends / frames };
    json.metric("wal.mean_flush_batch", batch, elapsed.as_nanos());

    let ticks = (read + write).as_nanos();
    json.metric("io.mean_batch_size", io.mean_batch_size(), ticks);
    json.metric("io.batches", io.batches as f64, ticks);
    json.histogram("io.batch_hist", &io.batch_size_hist, ticks);
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_all_metrics() {
        let doc = run(FsBenchParams::smoke()).render();
        for metric in [
            "open_close.ops_per_sec",
            "read.ops_per_sec",
            "write.ops_per_sec",
            "readdir.ops_per_sec",
            "persist_read.ops_per_sec",
            "persist_write.ops_per_sec",
            "recover_mount.ops_per_sec",
            "recover_mount.phase.superblock",
            "recover_mount.phase.btree_rebuild",
            "recover_mount.phase.wal_replay",
            "recover_mount.phase.object_restore",
            "persist_sync.ops_per_sec",
            "wal.mean_flush_batch",
            "io.mean_batch_size",
        ] {
            assert!(doc.contains(metric), "missing {metric} in {doc}");
        }
    }

    #[test]
    fn grouped_fsync_coalesces_records_into_frames() {
        let batch = run(FsBenchParams::smoke()).value("wal.mean_flush_batch");
        // Each round syncs 8 files' record keys through one persist_sync:
        // the WAL must be averaging well more than one record per frame.
        let batch = batch.expect("wal.mean_flush_batch row");
        assert!(
            batch > 2.0,
            "fsync rounds were not group-committed: mean flush batch {batch}"
        );
    }
}

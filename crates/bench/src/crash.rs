//! The torn-write-ahead-log crash harness behind the `crash-recovery` CI
//! job.
//!
//! A seeded workload writes labeled files into `/persist`, fsyncing some
//! of them and recording the write-ahead-log high-water mark after each
//! sync.  The harness then re-runs the identical workload once per *cut
//! point* — every log record boundary, plus a torn position inside each
//! record — zeroes the log from the cut onward, recovers the machine,
//! remounts `/persist`, and asserts:
//!
//! 1. the store's object map and free list satisfy their invariants
//!    after replaying the truncated log;
//! 2. every file whose fsync completed at or before the cut is present
//!    with exactly its original contents (durability is prefix-closed);
//! 3. the secret file, *whenever* it survives, still refuses an
//!    unprivileged reader — labels recover with the data or not at all.

use histar_kernel::{Machine, MachineConfig, SyscallError};
use histar_obs::Recorder;
use histar_store::codec::unframe;
use histar_store::ReplayMode;
use histar_unix::{UnixEnv, UnixError};

/// One file the workload created, with the log offset that made it
/// durable (`None` for the deliberately unsynced file).
#[derive(Clone, Debug)]
struct ManifestEntry {
    path: String,
    content: Vec<u8>,
    synced_at: Option<u64>,
}

/// What one full torn-WAL sweep observed.
#[derive(Clone, Debug, Default)]
pub struct TornReport {
    /// Cut positions exercised (byte offsets into the log region).
    pub cuts: usize,
    /// Files found intact across all cuts.
    pub files_verified: usize,
    /// Cuts at which the secret file had recovered and was label-checked.
    pub secret_checks: usize,
    /// Per-phase recovery tick totals — `(phase, total simulated ns,
    /// occurrences)` summed over every recovery of the sweep, sorted by
    /// total descending (from the flight recorder's `recover` spans).
    pub recovery_phases: Vec<(&'static str, u64, u64)>,
}

/// Runs the seeded workload on a fresh machine, returning the machine
/// plus the manifest of `(path, content, wal offset after fsync)`.
fn run_workload(seed: u64) -> (UnixEnv, Vec<ManifestEntry>) {
    let config = MachineConfig {
        seed,
        ..MachineConfig::default()
    };
    let mut env = UnixEnv::on_machine(Machine::boot(config));
    let init = env.init_pid();
    let mut manifest = Vec::new();

    // A user whose private file must never lose its label.
    let alice = env.create_user("alice").unwrap();
    env.mkdir(init, "/persist/home", None).unwrap();
    let secret = b"alice's torn-wal secret".to_vec();
    env.write_file_as(
        init,
        "/persist/home/secret",
        &secret,
        Some(alice.private_file_label()),
    )
    .unwrap();
    env.fsync_path(init, "/persist/home/secret").unwrap();
    env.fsync_path(init, "/persist/home").unwrap();
    manifest.push(ManifestEntry {
        path: "/persist/home/secret".into(),
        content: secret,
        synced_at: Some(env.machine().store().wal_used()),
    });

    // Public files of varied sizes (including multi-extent), each fsynced
    // in turn so every record boundary is a meaningful cut point.
    let mut x = seed | 1;
    for i in 0..6u64 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let len = 1 + (x % 9000) as usize;
        let content: Vec<u8> = (0..len).map(|j| ((x as usize + j) % 251) as u8).collect();
        let path = format!("/persist/f{i}");
        env.write_file_as(init, &path, &content, None).unwrap();
        env.fsync_path(init, &path).unwrap();
        manifest.push(ManifestEntry {
            path,
            content,
            synced_at: Some(env.machine().store().wal_used()),
        });
    }

    // One file that is written but never synced: it must be cleanly
    // absent after every crash.
    env.write_file_as(init, "/persist/unsynced", b"ephemeral", None)
        .unwrap();
    manifest.push(ManifestEntry {
        path: "/persist/unsynced".into(),
        content: b"ephemeral".to_vec(),
        synced_at: None,
    });
    (env, manifest)
}

/// The record-boundary offsets of the log region `[0, used)`.
fn record_boundaries(region: &[u8], used: u64) -> Vec<u64> {
    let mut cuts = vec![0u64];
    let mut pos = 0usize;
    while (pos as u64) < used {
        match unframe(&region[pos..]) {
            Ok((payload, consumed)) => {
                if payload.is_empty() {
                    break;
                }
                pos += consumed;
                cuts.push(pos as u64);
            }
            Err(_) => break,
        }
    }
    cuts
}

/// What both torn-log sweeps learn from one pristine run of the workload
/// (it is deterministic, so re-running it reproduces this exact disk).
struct TornPlan {
    manifest: Vec<ManifestEntry>,
    config: MachineConfig,
    /// Bytes of the log region the run used.
    used: u64,
    /// The cut positions to exercise (byte offsets into the log region).
    cuts: Vec<u64>,
}

impl TornPlan {
    /// Every record boundary plus a torn position inside each record,
    /// thinned to `max_cuts` (0 = all): the extremes and a deterministic
    /// spread in between.
    fn new(seed: u64, max_cuts: usize) -> Result<TornPlan, String> {
        let (env, manifest) = run_workload(seed);
        let config = MachineConfig {
            seed,
            ..MachineConfig::default()
        };
        let used = env.machine().store().wal_used();
        let mut disk = env.into_machine().into_disk();
        let region = disk.read(config.store.superblock_len, used.max(16));
        let boundaries = record_boundaries(&region, used);
        if boundaries.len() < manifest.len() {
            return Err(format!(
                "expected at least {} log records, found {} boundaries",
                manifest.len(),
                boundaries.len() - 1
            ));
        }
        let mut cuts: Vec<u64> = Vec::new();
        for w in boundaries.windows(2) {
            cuts.push(w[0]);
            cuts.push(w[0] + (w[1] - w[0]) / 2);
        }
        cuts.push(*boundaries.last().expect("at least the zero boundary"));
        if max_cuts > 0 && cuts.len() > max_cuts {
            let step = cuts.len().div_ceil(max_cuts);
            cuts = cuts.iter().copied().step_by(step).collect();
        }
        Ok(TornPlan {
            manifest,
            config,
            used,
            cuts,
        })
    }

    /// The workload's disk after a crash that tore the tail of the log off
    /// mid-write: the log zeroed from `cut` to the end of the used region.
    fn torn_disk(&self, cut: u64) -> histar_sim::SimDisk {
        let (env, _) = run_workload(self.config.seed);
        let mut disk = env.into_machine().into_disk();
        if cut < self.used {
            let zeros = vec![0u8; (self.used - cut) as usize];
            disk.write(self.config.store.superblock_len + cut, &zeros);
        }
        disk
    }
}

/// Runs the full torn-WAL sweep for one seed.  `max_cuts` bounds how many
/// cut points are exercised (0 = all), so the tier-1 unit test stays
/// quick while the CI job sweeps everything.
pub fn run_torn_wal(seed: u64, max_cuts: usize) -> Result<TornReport, String> {
    let plan = TornPlan::new(seed, max_cuts)?;
    let mut report = TornReport {
        cuts: plan.cuts.len(),
        ..TornReport::default()
    };
    // Every recovery of the sweep records its phases into one shared
    // flight recorder; if a guarantee fails and the harness panics, the
    // on-panic hook prints the last spans leading up to the failure.
    let recorder = Recorder::with_capacity(1 << 16);
    histar_obs::hook::arm_crash_dump("torn_wal", &recorder, 32);
    for &cut in &plan.cuts {
        let mut machine =
            Machine::recover_traced(plan.config, plan.torn_disk(cut), recorder.clone())
                .map_err(|e| format!("cut {cut}: recovery failed: {e}"))?;
        machine
            .store()
            .check_invariants()
            .map_err(|e| format!("cut {cut}: store invariants violated: {e}"))?;
        // The shared ring is for *recovery* phases: detach it before the
        // recovered machine's ordinary dispatch traffic can evict them.
        machine.kernel_mut().disable_flight_recorder();
        let mut env = UnixEnv::on_machine(machine);
        let init = env.init_pid();

        for entry in &plan.manifest {
            match entry.synced_at {
                Some(offset) if offset <= cut => {
                    let got = env.read_file_as(init, &entry.path).map_err(|e| {
                        format!(
                            "cut {cut}: {} was fsynced at log offset {offset} but \
                             is unreadable after recovery: {e}",
                            entry.path
                        )
                    })?;
                    if got != entry.content {
                        return Err(format!(
                            "cut {cut}: {} recovered with wrong contents",
                            entry.path
                        ));
                    }
                    report.files_verified += 1;
                }
                _ => {
                    // Not durable by this cut: absence is fine, and a
                    // partially recovered file (the cut landed inside its
                    // fsync) may be visible as a prefix or with
                    // zero-filled holes — but bytes that are neither the
                    // original data nor zeros mean the log replayed
                    // garbage.
                    if let Ok(got) = env.read_file_as(init, &entry.path) {
                        let sparse_ok = got.len() == entry.content.len()
                            && got
                                .iter()
                                .zip(&entry.content)
                                .all(|(g, c)| g == c || *g == 0);
                        if !(entry.content.starts_with(&got) || sparse_ok) {
                            return Err(format!(
                                "cut {cut}: {} recovered with corrupt contents",
                                entry.path
                            ));
                        }
                    }
                }
            }
        }

        // Whenever the secret file recovered, its label must have
        // recovered with it: an unprivileged reader is still refused by
        // the kernel's record label check.
        if env.stat(init, "/persist/home/secret").is_ok() {
            let snoop = env
                .spawn(init, "/bin_snoop", None)
                .map_err(|e| format!("cut {cut}: spawn failed: {e}"))?;
            match env.read_file_as(snoop, "/persist/home/secret") {
                Err(UnixError::Kernel(SyscallError::CannotObserveRecord(_))) => {
                    report.secret_checks += 1;
                }
                other => {
                    return Err(format!(
                        "cut {cut}: tainted reader observed the recovered \
                         secret file (or failed oddly): {other:?}"
                    ));
                }
            }
        }
    }
    report.recovery_phases = recorder.phase_totals("recover");
    histar_obs::hook::disarm_crash_dump("torn_wal");
    Ok(report)
}

/// What one replay-equivalence sweep observed.
#[derive(Clone, Debug, Default)]
pub struct EquivalenceReport {
    /// Cut positions exercised (byte offsets into the log region).
    pub cuts: usize,
    /// Cuts at which the recovered secret passed its label check under
    /// *both* replay modes.
    pub secret_checks: usize,
}

/// Proves batched replay is an optimisation, not a semantic change: for
/// every torn-WAL cut point, recovering the same crashed disk with
/// [`ReplayMode::Batched`] and [`ReplayMode::RecordByRecord`] must yield
/// machines whose post-`snapshot` disk images are byte-identical, and
/// whose recovered secret files refuse an unprivileged reader under both
/// modes.  `max_cuts` bounds the sweep exactly as in [`run_torn_wal`].
pub fn run_replay_equivalence(seed: u64, max_cuts: usize) -> Result<EquivalenceReport, String> {
    let plan = TornPlan::new(seed, max_cuts)?;
    let mut report = EquivalenceReport {
        cuts: plan.cuts.len(),
        ..EquivalenceReport::default()
    };
    for &cut in &plan.cuts {
        let mut images: Vec<Vec<(u64, Vec<u8>)>> = Vec::new();
        let mut secret_ok = true;
        for mode in [ReplayMode::Batched, ReplayMode::RecordByRecord] {
            // The workload is deterministic, so each mode starts from a
            // bit-identical crashed disk.
            let mut config = plan.config;
            config.store.replay_mode = mode;
            let machine = Machine::recover(config, plan.torn_disk(cut))
                .map_err(|e| format!("cut {cut} ({mode:?}): recovery failed: {e}"))?;
            machine
                .store()
                .check_invariants()
                .map_err(|e| format!("cut {cut} ({mode:?}): store invariants violated: {e}"))?;
            let mut env = UnixEnv::on_machine(machine);
            let init = env.init_pid();
            // Labels must recover identically: whenever the secret file
            // survives, both modes must refuse the unprivileged reader.
            if env.stat(init, "/persist/home/secret").is_ok() {
                let snoop = env
                    .spawn(init, "/bin_snoop", None)
                    .map_err(|e| format!("cut {cut} ({mode:?}): spawn failed: {e}"))?;
                match env.read_file_as(snoop, "/persist/home/secret") {
                    Err(UnixError::Kernel(SyscallError::CannotObserveRecord(_))) => {}
                    other => {
                        return Err(format!(
                            "cut {cut} ({mode:?}): tainted reader observed the \
                             recovered secret file (or failed oddly): {other:?}"
                        ));
                    }
                }
            } else {
                secret_ok = false;
            }
            let mut machine = env.into_machine();
            machine.snapshot();
            let disk = machine.into_disk();
            images.push(
                disk.image()
                    .into_iter()
                    .map(|(off, bytes)| (off, bytes.to_vec()))
                    .collect(),
            );
        }
        if images[0] != images[1] {
            let detail = diff_images(&images[0], &images[1]);
            return Err(format!(
                "cut {cut}: batched and record-by-record replay diverged: {detail}"
            ));
        }
        if secret_ok {
            report.secret_checks += 1;
        }
    }
    Ok(report)
}

/// Describes the first difference between two disk images, for error
/// messages when the equivalence sweep fails.
fn diff_images(a: &[(u64, Vec<u8>)], b: &[(u64, Vec<u8>)]) -> String {
    if a.len() != b.len() {
        return format!("{} vs {} populated blocks", a.len(), b.len());
    }
    for ((off_a, bytes_a), (off_b, bytes_b)) in a.iter().zip(b) {
        if off_a != off_b {
            return format!("block offsets diverge: {off_a} vs {off_b}");
        }
        if bytes_a != bytes_b {
            let byte = bytes_a
                .iter()
                .zip(bytes_b)
                .position(|(x, y)| x != y)
                .unwrap_or(0);
            return format!("block at offset {off_a} differs from byte {byte}");
        }
    }
    "images compare equal pairwise (length bookkeeping bug)".into()
}

/// What one heap-file page-flush sweep observed.
#[derive(Clone, Debug, Default)]
pub struct HeapFlushReport {
    /// Acknowledged `fsync_pages` calls, each followed by a crash.
    pub crashes: usize,
    /// How many of them the store flushed in place (the rest took the
    /// whole-object fallback).
    pub in_place: usize,
    /// Whole-file syncs of the file together with its sibling through one
    /// `fsync_paths`.
    pub group_syncs: usize,
    /// Segment bytes compared across all recoveries.
    pub bytes_verified: u64,
}

/// The heap-file half of the `crash-recovery` gate: a seeded run of
/// aligned and unaligned rewrites of one file, some page-synced and some
/// not, with the occasional growth, whole-file `fsync` (alone, or together
/// with a rewritten sibling through one `fsync_paths`) and snapshot in
/// between.  After every acknowledged `fsync_pages` the machine is crashed
/// (recovered from a copy of its disk, so the run continues) and the
/// recovered segment must equal, byte for byte, a page-granular shadow of
/// what has been acknowledged: a synced page holds what the file held when
/// it was synced, an unsynced one what it held at the last whole-object
/// sync — nothing acknowledged is lost and nothing unacknowledged appears.
/// The sibling must recover as last synced, too.
pub fn run_heap_flush(seed: u64, rewrites: usize) -> Result<HeapFlushReport, String> {
    use histar_kernel::bodies::ObjectBody;
    use histar_sim::disk::BLOCK_SIZE;
    use histar_sim::SimRng;
    use histar_unix::fs::OpenFlags;

    const PAGE: usize = BLOCK_SIZE as usize;
    let config = MachineConfig {
        seed,
        ..MachineConfig::default()
    };
    let mut rng = SimRng::new(seed);
    let mut env = UnixEnv::on_machine(Machine::boot(config));
    let init = env.init_pid();
    let unix = |e: UnixError| format!("seed {seed:#x}: {e}");

    // A file whose length is not a page multiple, so the last page is short.
    let len = 40 * 1024 + rng.next_below(160 * 1024) as usize;
    let fd = env
        .open(init, "/heap", OpenFlags::read_write_create())
        .map_err(unix)?;
    env.write(init, fd, &rng.bytes(len)).map_err(unix)?;
    // A small sibling in the same directory, only ever rewritten whole and
    // synced in the same group as the file.
    let sibling_len = 1 + rng.next_below(8 * 1024) as usize;
    env.write_file_as(init, "/sibling", &rng.bytes(sibling_len), None)
        .map_err(unix)?;
    env.sync_all();
    let seg = env.fstat(init, fd).map_err(unix)?.object;
    let sibling = env.stat(init, "/sibling").map_err(unix)?.object;
    let segment = |machine: &Machine, seg| match machine.kernel().raw_object(seg).map(|o| &o.body) {
        Some(ObjectBody::Segment(s)) => Ok(s.to_vec()),
        _ => Err(format!("seed {seed:#x}: the segment of a file is gone")),
    };
    let mut durable = segment(env.machine(), seg)?;
    let mut sibling_durable = segment(env.machine(), sibling)?;
    let mut live_len = durable.len();

    let mut report = HeapFlushReport::default();
    for step in 0..rewrites {
        // One write in eight extends the file: its sync cannot go in place.
        let grows = rng.next_below(8) == 0;
        let unit = if rng.next_below(2) == 0 { PAGE } else { 512 };
        let off = if grows {
            live_len - rng.next_below(3000) as usize
        } else {
            rng.next_below((live_len / unit) as u64) as usize * unit
        };
        let mut n = 1 + rng.next_below(16 * 1024) as usize;
        if !grows {
            n = n.min(live_len - off);
        }
        env.lseek(init, fd, off as u64).map_err(unix)?;
        env.write(init, fd, &rng.bytes(n)).map_err(unix)?;
        live_len = live_len.max(off + n);
        match rng.next_below(8) {
            0 => continue, // written, never synced
            1 => {
                env.fsync_path(init, "/heap").map_err(unix)?;
                durable = segment(env.machine(), seg)?;
                continue;
            }
            2 => {
                env.sync_all();
                durable = segment(env.machine(), seg)?;
                continue;
            }
            3 => {
                // Both files in one group: the directory and its segment
                // are named by both paths and synced once.
                env.write_file_as(init, "/sibling", &rng.bytes(sibling_len), None)
                    .map_err(unix)?;
                env.fsync_paths(init, &["/heap", "/sibling"])
                    .map_err(unix)?;
                durable = segment(env.machine(), seg)?;
                sibling_durable = segment(env.machine(), sibling)?;
                report.group_syncs += 1;
                continue;
            }
            _ => {}
        }
        let pages: Vec<u64> = (off / PAGE..=(off + n - 1) / PAGE)
            .map(|p| p as u64)
            .collect();
        let flushes = env.machine().store().stats().inplace_flushes;
        env.fsync_pages(init, fd, &pages).map_err(unix)?;
        let live = segment(env.machine(), seg)?;
        if env.machine().store().stats().inplace_flushes > flushes {
            report.in_place += 1;
            for &p in &pages {
                let page = p as usize * PAGE..live.len().min((p as usize + 1) * PAGE);
                durable[page.clone()].copy_from_slice(&live[page]);
            }
        } else {
            durable = live;
        }

        // Crash: recover a second machine from a copy of the disk image.
        let disk = env.machine().store().disk().crash_copy();
        let recovered = Machine::recover(config, disk)
            .map_err(|e| format!("seed {seed:#x} step {step}: recovery failed: {e}"))?;
        recovered
            .store()
            .check_invariants()
            .map_err(|e| format!("seed {seed:#x} step {step}: {e}"))?;
        if segment(&recovered, sibling)? != sibling_durable {
            return Err(format!(
                "seed {seed:#x} step {step}: the sibling did not recover as last synced"
            ));
        }
        let got = segment(&recovered, seg)?;
        if got != durable {
            let lost = got.iter().zip(&durable).filter(|(a, b)| a != b).count();
            return Err(format!(
                "seed {seed:#x} step {step}: write of {n} bytes at {off}, pages {pages:?}: \
                 recovered segment has {} bytes (expected {}), {lost} differ",
                got.len(),
                durable.len()
            ));
        }
        report.crashes += 1;
        report.bytes_verified += got.len() as u64;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_flush_sweep_smoke() {
        let report = run_heap_flush(0x5eed, 40).expect("sweep passes");
        assert!(report.crashes >= 15, "got {report:?}");
        assert!(
            0 < report.in_place && report.in_place < report.crashes,
            "both the in-place path and the fallback must be exercised: {report:?}"
        );
        assert!(report.group_syncs > 0, "got {report:?}");
    }

    #[test]
    fn torn_wal_sweep_smoke() {
        let report = run_torn_wal(0x5eed, 6).expect("sweep passes");
        assert!(report.cuts >= 4, "got {report:?}");
        assert!(report.files_verified > 0, "got {report:?}");
        assert!(
            report.secret_checks > 0,
            "the secret file must recover (and be checked) at the full-log cut: {report:?}"
        );
        let phases: Vec<&str> = report.recovery_phases.iter().map(|(n, _, _)| *n).collect();
        for phase in [
            "superblock",
            "btree_rebuild",
            "wal_replay",
            "object_restore",
        ] {
            assert!(phases.contains(&phase), "missing recovery phase {phase}");
        }
        // Sorted by total descending: the top entry dominates the sweep.
        let totals: Vec<u64> = report.recovery_phases.iter().map(|(_, t, _)| *t).collect();
        assert!(totals.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn replay_equivalence_smoke() {
        let report = run_replay_equivalence(0x5eed, 5).expect("replay modes agree");
        assert!(report.cuts >= 4, "got {report:?}");
        assert!(
            report.secret_checks > 0,
            "the secret file must recover (and be checked under both modes) \
             at the full-log cut: {report:?}"
        );
    }
}

//! Applications from the paper: the isolated virus scanner (§6.1) and the
//! application-level workloads of Figure 13.
//!
//! The centrepiece is `wrap`, the 110-line trusted launcher: it allocates an
//! isolation category `v`, creates a private `/tmp` writable at `v 3`,
//! launches the (completely untrusted) scanner tainted `v 3`, and is the
//! only component able to untaint the scanner's one-line result.  Everything
//! the scanner does — including spawning helper programs — stays behind `v`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod multilogin;

use histar_label::{Label, Level};
use histar_store::codec::{DecodeError, Decoder, Encoder, Wire};
use histar_unix::fs::OpenFlags;
use histar_unix::process::{ExitStatus, Pid};
use histar_unix::{UnixEnv, UnixError};

/// Result alias for application code.
pub type Result<T> = core::result::Result<T, UnixError>;

/// A virus signature database (the ClamAV `.cvd` stand-in).
#[derive(Clone, Debug, Default)]
pub struct VirusDb {
    /// Byte signatures considered malicious.
    pub signatures: Vec<Vec<u8>>,
}

impl VirusDb {
    /// A small default database.
    pub fn builtin() -> VirusDb {
        VirusDb {
            signatures: vec![
                b"EICAR-STANDARD-ANTIVIRUS-TEST".to_vec(),
                b"\x4d\x5a\x90\x00MALWARE".to_vec(),
                b"rm -rf --no-preserve-root /".to_vec(),
            ],
        }
    }

    /// Reads the database at `/clamav.cvd` as `pid`.  A database that does
    /// not decode fails the scan rather than passing every file `CLEAN`.
    fn load(env: &mut UnixEnv, pid: Pid) -> Result<VirusDb> {
        let bytes = env.read_file_as(pid, "/clamav.cvd")?;
        VirusDb::decode(&bytes).map_err(|_| UnixError::Corrupt("virus database"))
    }

    /// Scans a byte buffer, returning the matched signature indexes.
    pub fn scan(&self, data: &[u8]) -> Vec<usize> {
        self.signatures
            .iter()
            .enumerate()
            .filter(|(_, sig)| !sig.is_empty() && data.windows(sig.len()).any(|w| w == &sig[..]))
            .map(|(i, _)| i)
            .collect()
    }
}

/// The `.cvd` stand-in: each signature as a `u32` length and its bytes, to
/// the end of the file.  The update daemon writes it, so a length that
/// runs past the end is an error, not the end of the database.
impl Wire<'_> for VirusDb {
    fn put(&self, e: &mut Encoder) {
        for sig in &self.signatures {
            e.put_u32(sig.len() as u32).put_raw(sig);
        }
    }

    fn get(d: &mut Decoder<'_>, (): ()) -> core::result::Result<VirusDb, DecodeError> {
        let mut signatures = Vec::new();
        while d.remaining() > 0 {
            let len = d.get_u32()?;
            signatures.push(d.get_raw(len.into())?.to_vec());
        }
        Ok(VirusDb { signatures })
    }
}

/// The result `wrap` reports back to the user: one line per scanned file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScanReport {
    /// `(path, infected)` for every scanned file.
    pub results: Vec<(String, bool)>,
    /// Whether the scanner was able to leak anything to the network or the
    /// update daemon (always false unless the kernel's checks are broken —
    /// kept here so tests and benchmarks can assert it).
    pub leak_detected: bool,
}

/// The outcome of running the whole ClamAV deployment once.
#[derive(Debug)]
pub struct ClamAvDeployment {
    /// The wrap process (owns the isolation category `v`).
    pub wrap: Pid,
    /// The isolated scanner process (tainted `v 3`).
    pub scanner: Pid,
    /// The update daemon (can write the database, cannot read user data).
    pub update_daemon: Pid,
    /// The isolation category.
    pub isolation: histar_label::Category,
    /// The user whose files are being scanned.
    pub user: histar_unix::users::User,
}

/// Sets up the ClamAV scenario of Figures 1/2/4: a user with private files,
/// a world-readable virus database maintained by an update daemon, and a
/// `wrap` process holding the user's read privilege.
pub fn deploy_clamav(env: &mut UnixEnv, username: &str) -> Result<ClamAvDeployment> {
    let init = env.init_pid();
    let user = match env.users().lookup(username) {
        Some(u) => u.clone(),
        None => env.create_user(username)?,
    };

    // The virus database: world-readable, writable only by the updater.
    let updater_cat = {
        let init_thread = env.process(init)?.thread;
        env.machine_mut()
            .kernel_mut()
            .trap_create_category(init_thread)?
    };
    let db_label = Label::builder().set(updater_cat, Level::L0).build();
    env.write_file_as(
        init,
        "/clamav.cvd",
        &VirusDb::builtin().encode(),
        Some(db_label),
    )?;

    // The update daemon owns the database write category and talks to the
    // network; it must never gain the user's read category.
    let update_daemon =
        env.spawn_with_label(init, "/usr/sbin/freshclam", vec![updater_cat], vec![])?;

    // wrap runs with the user's privilege (ownership of ur/uw) and allocates
    // the isolation category v.
    let wrap = env.spawn(init, "/usr/bin/wrap", Some(username))?;
    let wrap_thread = env.process(wrap)?.thread;
    let isolation = env
        .machine_mut()
        .kernel_mut()
        .trap_create_category(wrap_thread)?;

    // Private /tmp for the scanner, writable at taint level 3 in v.
    let tmp_label = Label::builder()
        .set(isolation, Level::L3)
        .set(user.read_cat, Level::L3)
        .build();
    env.mkdir(wrap, "/scan-tmp", Some(tmp_label))?;

    // The scanner: completely untrusted, launched tainted v 3 (and allowed
    // to taint itself with the user's read category so it can read the
    // files it must scan).
    let scanner = env.spawn_with_label(
        wrap,
        "/usr/bin/clamscan",
        vec![],
        vec![(isolation, Level::L3), (user.read_cat, Level::L3)],
    )?;

    Ok(ClamAvDeployment {
        wrap,
        scanner,
        update_daemon,
        isolation,
        user,
    })
}

/// Runs the scanner over the given user files, exactly as `wrap` would:
/// the *scanner process* reads each file and the database, matches
/// signatures, writes its verdicts into the private `/tmp`, and `wrap`
/// (the only owner of `v`) reads them back and untaints the result.
pub fn wrap_scan(
    env: &mut UnixEnv,
    deployment: &ClamAvDeployment,
    paths: &[&str],
) -> Result<ScanReport> {
    let scanner = deployment.scanner;
    let wrap = deployment.wrap;

    // The scanner loads the database (world-readable, so this works even
    // though the scanner is tainted).
    let db = VirusDb::load(env, scanner)?;

    let mut results = Vec::new();
    for path in paths {
        let data = env.read_file_as(scanner, path)?;
        let infected = !db.scan(&data).is_empty();
        // The scanner records its verdict in the private /tmp (the only
        // place it can write).
        let verdict_path = format!("/scan-tmp/verdict-{}", results.len());
        let verdict_label = Label::builder()
            .set(deployment.isolation, Level::L3)
            .set(deployment.user.read_cat, Level::L3)
            .build();
        env.write_file_as(
            scanner,
            &verdict_path,
            if infected { b"INFECTED" } else { b"CLEAN" },
            Some(verdict_label),
        )?;
        // wrap, owning v and ur, reads the verdict and untaints it.
        let verdict = env.read_file_as(wrap, &verdict_path)?;
        results.push((path.to_string(), verdict == b"INFECTED"));
    }

    // Demonstrate the guarantee the whole construction is for: the scanner
    // cannot leak what it read to anything untainted.
    let leak_detected = env
        .write_file_as(scanner, "/leaked-data", b"user secrets", None)
        .is_ok();

    Ok(ScanReport {
        results,
        leak_detected,
    })
}

/// The Figure 13 virus-scan workload: scan a `size` byte randomized file,
/// returning the simulated time taken.  `isolated` selects whether the scan
/// runs under `wrap` (it makes no measurable difference — that is the row's
/// point).
pub fn scan_benchmark(
    env: &mut UnixEnv,
    size: usize,
    isolated: bool,
) -> Result<histar_sim::SimDuration> {
    let init = env.init_pid();
    let deployment = deploy_clamav(env, "scanuser")?;
    // Build the 100 MB (or scaled) randomized input as the user's file.
    let mut rng = histar_sim::SimRng::new(0x5eed);
    let data = rng.bytes(size);
    let label = deployment.user.private_file_label();
    env.write_file_as(init, "/sample.bin", &data, Some(label))?;

    let start = env.machine().clock().now();
    let pid = if isolated { deployment.scanner } else { init };
    let file = env.read_file_as(pid, "/sample.bin")?;
    // Signature matching is byte-proportional CPU work; charge it to the
    // simulated clock like the cost model does for application compute.
    let cost =
        histar_sim::CostModel::for_flavor(histar_sim::OsFlavor::HiStar).compute(file.len() as u64);
    env.machine().clock().advance(cost);
    let db = VirusDb::load(env, pid)?;
    let _ = db.scan(&file[..file.len().min(1 << 16)]);
    Ok(env.machine().clock().now() - start)
}

/// The Figure 13 "build the HiStar kernel" workload: a make-like driver that
/// spawns one compile process per source file, each of which reads its
/// source, burns CPU proportional to its size, and writes an object file.
pub fn build_benchmark(
    env: &mut UnixEnv,
    files: usize,
    file_size: usize,
) -> Result<histar_sim::SimDuration> {
    let init = env.init_pid();
    env.mkdir(init, "/src", None).ok();
    env.mkdir(init, "/obj", None).ok();
    let mut rng = histar_sim::SimRng::new(7);
    for i in 0..files {
        env.write_file_as(
            init,
            &format!("/src/file{i}.c"),
            &rng.bytes(file_size),
            None,
        )?;
    }
    let cost = histar_sim::CostModel::for_flavor(histar_sim::OsFlavor::HiStar);
    let start = env.machine().clock().now();
    for i in 0..files {
        let cc = env.spawn(init, "/usr/bin/gcc", None)?;
        let source = env.read_file_as(cc, &format!("/src/file{i}.c"))?;
        // "Compilation" costs ~20x the scanner's per-byte work.
        env.machine()
            .clock()
            .advance(cost.compute(source.len() as u64 * 20));
        env.write_file_as(
            cc,
            &format!("/obj/file{i}.o"),
            &source[..source.len() / 2],
            None,
        )?;
        env.exit(cc, ExitStatus::Exited(0))?;
        env.wait(init, cc)?;
    }
    Ok(env.machine().clock().now() - start)
}

/// A tiny `wget`-style download: pulls `size` bytes through netd from the
/// simulated wire into a file, charging wire time to the network model.
pub fn wget_benchmark(
    env: &mut UnixEnv,
    netd: &histar_net::Netd,
    size: u64,
) -> Result<histar_sim::SimDuration> {
    let init = env.init_pid();
    // wget is born network-tainted (`{i 2, 1}` like the paper's browser), so
    // its whole process environment can hold network-derived data.
    let client =
        env.spawn_with_label(init, "/usr/bin/wget", vec![], vec![(netd.taint, Level::L2)])?;
    let net_model = histar_sim::NetConfig::default();
    let mut sim_net = histar_sim::SimNetwork::new(net_model, env.machine().clock().clone());
    let start = env.machine().clock().now();
    // Downloads land in a directory that carries the network taint, so a
    // network-tainted wget can create and write files there.
    let dl_label = Label::builder().set(netd.taint, Level::L2).build();
    env.mkdir(init, "/downloads", Some(dl_label.clone()))?;
    // init (which owns the network taint category) pre-reserves quota so the
    // tainted downloader never needs to touch untainted ancestors.
    env.reserve_quota(init, "/downloads", size * 2 + (1 << 20))?;
    let fd = env.open_labeled(
        client,
        "/downloads/file.bin",
        OpenFlags::write_create(),
        Some(dl_label),
    )?;
    let mut received = 0u64;
    let chunk = vec![0xabu8; 32 * 1024];
    while received < size {
        let n = chunk.len().min((size - received) as usize);
        // Wire time for the chunk (the network is the bottleneck at
        // 100 Mbps), then deliver it through netd and into the file.
        sim_net.receive(n as u64);
        netd.wire_deliver(env, chunk[..n].to_vec())?;
        let data = netd
            .recv(env, client)?
            .expect("frame was just delivered to the device");
        env.write(client, fd, &data)?;
        received += n as u64;
    }
    env.close(client, fd)?;
    Ok(env.machine().clock().now() - start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use histar_kernel::syscall::SyscallError;

    #[test]
    fn virus_db_round_trip_and_scan() {
        let db = VirusDb::builtin();
        let decoded = VirusDb::decode(&db.encode()).unwrap();
        assert_eq!(decoded.signatures, db.signatures);
        assert!(db.scan(b"clean data").is_empty());
        assert_eq!(db.scan(b"xxEICAR-STANDARD-ANTIVIRUS-TESTxx"), vec![0]);
        assert!(VirusDb::decode(&[1, 2]).is_err());
    }

    #[test]
    fn a_database_that_runs_past_its_end_fails_the_scan() {
        let mut env = UnixEnv::boot();
        let init = env.init_pid();
        let deployment = deploy_clamav(&mut env, "bob").unwrap();
        env.write_file_as(
            init,
            "/notes.txt",
            b"EICAR-STANDARD-ANTIVIRUS-TEST",
            Some(deployment.user.private_file_label()),
        )
        .unwrap();
        // One whole signature, then a length longer than what follows.
        let mut db = VirusDb {
            signatures: vec![b"NEWSIG".to_vec()],
        }
        .encode();
        db.extend_from_slice(&100u32.to_le_bytes());
        db.extend_from_slice(b"EICAR");
        let daemon = deployment.update_daemon;
        env.write_file_as(daemon, "/clamav.cvd", &db, None).unwrap();
        let report = wrap_scan(&mut env, &deployment, &["/notes.txt"]);
        assert_eq!(report, Err(UnixError::Corrupt("virus database")));
    }

    #[test]
    fn wrap_isolates_the_scanner() {
        let mut env = UnixEnv::boot();
        let init = env.init_pid();
        let deployment = deploy_clamav(&mut env, "bob").unwrap();

        // Bob's private files.
        env.mkdir(init, "/home", None).unwrap();
        env.write_file_as(
            init,
            "/home/taxes.txt",
            b"very private EICAR-STANDARD-ANTIVIRUS-TEST data",
            Some(deployment.user.private_file_label()),
        )
        .unwrap();
        env.write_file_as(
            init,
            "/home/notes.txt",
            b"plain notes",
            Some(deployment.user.private_file_label()),
        )
        .unwrap();

        let report = wrap_scan(
            &mut env,
            &deployment,
            &["/home/taxes.txt", "/home/notes.txt"],
        )
        .unwrap();
        assert_eq!(report.results[0], ("/home/taxes.txt".to_string(), true));
        assert_eq!(report.results[1], ("/home/notes.txt".to_string(), false));
        assert!(
            !report.leak_detected,
            "the scanner must not write untainted files"
        );
    }

    #[test]
    fn update_daemon_cannot_read_user_files_but_can_update_db() {
        let mut env = UnixEnv::boot();
        let init = env.init_pid();
        let deployment = deploy_clamav(&mut env, "bob").unwrap();
        env.write_file_as(
            init,
            "/private.doc",
            b"secret",
            Some(deployment.user.private_file_label()),
        )
        .unwrap();
        // The update daemon can rewrite the database...
        let new_db = VirusDb {
            signatures: vec![b"NEWSIG".to_vec()],
        };
        env.write_file_as(
            deployment.update_daemon,
            "/clamav.cvd",
            &new_db.encode(),
            None,
        )
        .unwrap();
        // ...but cannot read the user's private data.
        let err = env
            .read_file_as(deployment.update_daemon, "/private.doc")
            .unwrap_err();
        assert!(matches!(
            err,
            UnixError::Kernel(SyscallError::CannotObserve(_))
        ));
    }

    #[test]
    fn scanner_cannot_reach_update_daemon_or_network() {
        let mut env = UnixEnv::boot();
        let init = env.init_pid();
        let netd = histar_net::Netd::start(&mut env, init, "internet").unwrap();
        let deployment = deploy_clamav(&mut env, "bob").unwrap();
        // Directly attempting to exfiltrate over the network fails.
        let err = netd.send(&mut env, deployment.scanner, b"stolen bytes");
        assert!(err.is_err());
        // Writing to /tmp-like world files fails too.
        assert!(env
            .write_file_as(deployment.scanner, "/tmp-drop", b"stolen", None)
            .is_err());
    }

    #[test]
    fn benchmark_workloads_produce_sensible_times() {
        let mut env = UnixEnv::boot();
        let t = scan_benchmark(&mut env, 256 * 1024, true).unwrap();
        assert!(t > histar_sim::SimDuration::ZERO);

        let mut env2 = UnixEnv::boot();
        let t2 = build_benchmark(&mut env2, 3, 8 * 1024).unwrap();
        assert!(t2 > histar_sim::SimDuration::ZERO);

        let mut env3 = UnixEnv::boot();
        let init3 = env3.init_pid();
        let netd = histar_net::Netd::start(&mut env3, init3, "internet").unwrap();
        let t3 = wget_benchmark(&mut env3, &netd, 256 * 1024).unwrap();
        // 256 KiB at 100 Mbps is at least ~20 ms of wire time.
        assert!(t3.as_millis() >= 20, "wget took {t3}");
    }
}

//! Cross-crate integration tests: the end-to-end information-flow
//! guarantees the paper's applications rely on.

use histar::apps::{deploy_clamav, wrap_scan};
use histar::auth::{AuthService, AuthSystem, LoginOutcome};
use histar::kernel::syscall::SyscallError;
use histar::label::{Label, Level};
use histar::net::{Netd, VpnIsolation};
use histar::unix::gatecall::{create_service_gate, enter_service, return_from_service};
use histar::unix::process::ExitStatus;
use histar::unix::{UnixEnv, UnixError};

/// Figure 6: the process structure exposes only the exit segment and signal
/// gate; internals are unreachable by other processes.
#[test]
fn process_structure_matches_figure6() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let a = env.spawn(init, "/bin/a", None).unwrap();
    let b = env.spawn(init, "/bin/b", None).unwrap();
    let a_proc = env.process(a).unwrap().clone();
    let b_thread = env.process(b).unwrap().thread;

    // b may read a's exit status segment (it is {pw 0, 1})...
    let kernel = env.machine_mut().kernel_mut();
    let exit_entry =
        histar::kernel::object::ContainerEntry::new(a_proc.process_container, a_proc.exit_segment);
    assert!(kernel.trap_segment_read(b_thread, exit_entry, 0, 8).is_ok());
    // ...but not write it...
    assert!(matches!(
        kernel.trap_segment_write(b_thread, exit_entry, 0, &[1]),
        Err(SyscallError::CannotModify(_))
    ));
    // ...and cannot observe a's internal container at all.
    assert!(matches!(
        kernel.trap_container_list(b_thread, a_proc.internal_container),
        Err(SyscallError::CannotObserve(_))
    ));
}

/// Figure 7: a gate call grants the daemon's privilege for the duration of
/// the call and the return gate restores the caller exactly.
#[test]
fn gate_call_round_trip() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let client = env.spawn(init, "/bin/client", None).unwrap();
    let daemon = env.spawn(init, "/usr/bin/signd", None).unwrap();
    let service = create_service_gate(&mut env, daemon, 0x1000, "timestamp signer").unwrap();

    let client_thread = env.process(client).unwrap().thread;
    let before = env.machine().kernel().thread_label(client_thread).unwrap();
    let session = enter_service(&mut env, client, &service, true).unwrap();
    let daemon_pr = env.process(daemon).unwrap().read_cat;
    let during = env.machine().kernel().thread_label(client_thread).unwrap();
    assert!(during.owns(daemon_pr));
    assert_eq!(during.level(session.taint.unwrap()), Level::L3);
    return_from_service(&mut env, session).unwrap();
    let after = env.machine().kernel().thread_label(client_thread).unwrap();
    assert_eq!(after, before);
}

/// Figures 8–10: authentication grants exactly one user's privilege, and
/// only on a correct password.
#[test]
fn authentication_flow() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let bob = env.create_user("bob").unwrap();
    let mut auth = AuthSystem::new();
    auth.register(AuthService::new(bob.clone(), "s3cret"));
    let login = env.spawn(init, "/bin/login", None).unwrap();

    assert_eq!(
        auth.login(&mut env, login, "bob", "wrong").unwrap(),
        LoginOutcome::BadPassword
    );
    assert_eq!(
        auth.login(&mut env, login, "bob", "s3cret").unwrap(),
        LoginOutcome::Granted
    );
    let thread = env.process(login).unwrap().thread;
    assert!(env
        .machine()
        .kernel()
        .thread_label(thread)
        .unwrap()
        .owns(bob.read_cat));
}

/// §6.2: no fully-trusted process keeps a user's privilege.  Init, which
/// allocates each account's `ur`/`uw`, holds them only until the user's
/// first login; from then on they live in the user's own service, so once
/// every user has logged in, init's label and clearance are what they
/// were at boot.
#[test]
fn init_keeps_no_logged_in_users_privilege() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let init_thread = env.process(init).unwrap().thread;
    let own = |env: &UnixEnv| {
        let kernel = env.machine().kernel();
        (
            kernel.thread_label(init_thread).unwrap(),
            kernel.thread_clearance(init_thread).unwrap(),
        )
    };
    let boot = own(&env);
    let mut auth = AuthSystem::new();
    let names = ["ann", "ben", "cat", "dan"];
    for name in names {
        let user = env.create_user(name).unwrap();
        auth.register(AuthService::new(user, &format!("pw-{name}")));
    }
    assert_eq!(own(&env).0.len(), boot.0.len() + 2 * names.len());
    for name in names {
        let login = env.spawn(init, "/bin/login", None).unwrap();
        assert_eq!(
            auth.login(&mut env, login, name, &format!("pw-{name}"))
                .unwrap(),
            LoginOutcome::Granted
        );
        let user = env.user(name).unwrap();
        let thread = env.process(login).unwrap().thread;
        let label = env.machine().kernel().thread_label(thread).unwrap();
        assert!(label.owns(user.read_cat) && label.owns(user.write_cat));
    }
    assert_eq!(own(&env), boot);
}

/// Figure 11: VPN isolation keeps the two networks apart end to end.
#[test]
fn vpn_isolation_end_to_end() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let vpn = VpnIsolation::start(&mut env, init).unwrap();
    vpn.internet
        .wire_deliver(&mut env, b"from the internet".to_vec())
        .unwrap();
    assert!(vpn.pump_inbound(&mut env).unwrap());
    let app = env.spawn(init, "/bin/app", None).unwrap();
    let payload = vpn.vpn.recv(&mut env, app).unwrap().unwrap();
    assert_eq!(payload, b"from the internet");
    assert!(vpn.internet.send(&mut env, app, b"leak").is_err());
}

/// Figures 1/2/4: the whole ClamAV scenario, including the attacks listed in
/// the introduction.
#[test]
fn clamav_end_to_end() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let netd = Netd::start(&mut env, init, "internet").unwrap();
    let deployment = deploy_clamav(&mut env, "bob").unwrap();
    env.mkdir(init, "/home", None).unwrap();
    env.write_file_as(
        init,
        "/home/secrets.db",
        b"ssn=123-45-6789 EICAR-STANDARD-ANTIVIRUS-TEST",
        Some(deployment.user.private_file_label()),
    )
    .unwrap();

    let report = wrap_scan(&mut env, &deployment, &["/home/secrets.db"]).unwrap();
    assert!(report.results[0].1, "the test signature is detected");
    assert!(!report.leak_detected);
    // Attack 1: direct TCP exfiltration.
    assert!(netd.send(&mut env, deployment.scanner, b"ssn").is_err());
    // Attack 4: drop the data in /tmp for the update daemon.
    assert!(env
        .write_file_as(deployment.scanner, "/tmp-x", b"ssn", None)
        .is_err());
    // The update daemon itself can never read the user data.
    assert!(env
        .read_file_as(deployment.update_daemon, "/home/secrets.db")
        .is_err());
}

/// Unix semantics over the untrusted library: fork/exec/wait, pipes and the
/// file system all work while every access stays label-checked.
#[test]
fn unix_environment_smoke() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    env.write_file_as(init, "/etc-motd", b"welcome to histar", None)
        .unwrap();
    // The pipe is created before forking so the child inherits both ends.
    let (r, w) = env.pipe(init).unwrap();
    let child = env.fork(init).unwrap();
    assert_eq!(
        env.read_file_as(child, "/etc-motd").unwrap(),
        b"welcome to histar"
    );
    env.write(init, w, b"ping").unwrap();
    assert_eq!(env.read(child, r, 4).unwrap(), b"ping");
    env.exit(child, ExitStatus::Exited(0)).unwrap();
    assert!(env.wait(init, child).unwrap().success());
}

/// The single-level store: a snapshot survives a crash with labels intact,
/// and unsynced work is lost — there is no trusted boot script to rebuild
/// anything.
#[test]
fn persistence_across_crash() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let secret_label = {
        let user = env.create_user("carol").unwrap();
        user.private_file_label()
    };
    env.write_file_as(init, "/persistent", b"survives", Some(secret_label.clone()))
        .unwrap();
    env.sync_all();
    env.write_file_as(init, "/ephemeral", b"lost", None)
        .unwrap();

    let machine = {
        let m = env.machine_mut();
        std::mem::replace(m, histar::kernel::Machine::boot(Default::default()))
    };
    let recovered = machine.crash_and_recover().unwrap();
    let segments: Vec<(Label, Vec<u8>)> = recovered
        .kernel()
        .objects()
        .filter_map(|(_, o)| match &o.body {
            histar::kernel::bodies::ObjectBody::Segment(s) => {
                Some((o.header.label.clone(), s.to_vec()))
            }
            _ => None,
        })
        .collect();
    let persistent = segments
        .iter()
        .find(|(_, bytes)| bytes.windows(8).any(|w| w == b"survives"))
        .expect("synced file survives the crash");
    assert_eq!(persistent.0, secret_label, "labels persist with the data");
    assert!(!segments
        .iter()
        .any(|(_, b)| b.windows(4).any(|w| w == b"lost")));
}

/// Labels can express Unix permission bits, but also policies Unix cannot:
/// a single thread holding two users' privilege at once.
#[test]
fn multi_user_privilege() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let alice = env.create_user("alice").unwrap();
    let bob = env.create_user("bob").unwrap();
    env.write_file_as(init, "/af", b"a", Some(alice.private_file_label()))
        .unwrap();
    env.write_file_as(init, "/bf", b"b", Some(bob.private_file_label()))
        .unwrap();
    // init owns both users' categories (it created the accounts), so it can
    // read both files; a process with only bob's privilege cannot read
    // alice's.
    assert!(env.read_file_as(init, "/af").is_ok());
    assert!(env.read_file_as(init, "/bf").is_ok());
    let bob_shell = env.spawn(init, "/bin/sh", Some("bob")).unwrap();
    assert!(env.read_file_as(bob_shell, "/bf").is_ok());
    assert!(matches!(
        env.read_file_as(bob_shell, "/af"),
        Err(UnixError::Kernel(SyscallError::CannotObserve(_)))
    ));
}

/// §5 over the VFS: `/proc` entries are label-filtered by the kernel.  A
/// tainted observer cannot stat an untainted process's `/proc` entry —
/// entering the PID directory requires observing that process's internal
/// container (`{pr 3, pw 0, 1}`), which the kernel denies — while the
/// process itself (whose label owns `pr`) reads its own entry freely.
#[test]
fn proc_entries_are_label_filtered() {
    use histar::label::Level;

    let mut env = UnixEnv::boot();
    let init = env.init_pid();

    // A taint category owned by init; the observer starts tainted in it.
    let init_thread = env.process(init).unwrap().thread;
    let taint = env.kernel_mut().trap_create_category(init_thread).unwrap();
    let observer = env
        .spawn_with_label(init, "/bin/observer", vec![], vec![(taint, Level::L3)])
        .unwrap();
    let victim = env.spawn(init, "/bin/victim", None).unwrap();

    // PIDs are public: anyone can list /proc.
    let pids = env.readdir(observer, "/proc").unwrap();
    assert!(pids.iter().any(|e| e.name == victim.to_string()));

    // The tainted observer cannot stat (or read) the victim's entry.
    assert!(matches!(
        env.stat(observer, &format!("/proc/{victim}/status")),
        Err(UnixError::Kernel(SyscallError::CannotObserve(_)))
    ));
    assert!(matches!(
        env.read_file_as(observer, &format!("/proc/{victim}/status")),
        Err(UnixError::Kernel(SyscallError::CannotObserve(_)))
    ));

    // An untainted stranger is denied just the same: the gate is the
    // victim's `pr` category, not the observer's taint.
    let stranger = env.spawn(init, "/bin/stranger", None).unwrap();
    assert!(env
        .stat(stranger, &format!("/proc/{victim}/status"))
        .is_err());

    // Labels that admit the entry open it: the victim reads its own.
    let status = env
        .read_file_as(victim, &format!("/proc/{victim}/status"))
        .unwrap();
    assert!(String::from_utf8(status)
        .unwrap()
        .contains("state:\trunning"));
}

/// §6.1's web-server isolation, attacked directly: a worker holding
/// *alice's* privilege (it legitimately serves her files) obtains a
/// descriptor for **bob's** connection and tries to write her secret to
/// it.  Descriptor state is just numbers — the protection is the label on
/// the connection segment, and the kernel stops the write cold.  The
/// denial lands in the syscall audit trace, and the only process that
/// could have bridged the two users is the launcher, the one piece of
/// code trusted with the network taint category.
#[test]
fn compromised_worker_cannot_leak_alice_files_to_bobs_connection() {
    use histar::kernel::TraceRecord;
    use histar::unix::fdtable::{FdKind, FdState, FLAG_SOCK_SERVER};
    use histar::unix::gatecall;

    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let netd = Netd::start(&mut env, init, "internet").unwrap();

    // Two users with private home pages under /persist/home.
    let mut auth = AuthSystem::new();
    let alice = env.create_user("alice").unwrap();
    env.create_user("bob").unwrap();
    auth.register(AuthService::new(alice.clone(), "a-pass"));
    env.mkdir(init, "/persist/home", None).unwrap();
    env.mkdir(init, "/persist/home/alice", None).unwrap();
    let alice_shell = env.spawn(init, "/bin/sh", Some("alice")).unwrap();
    env.write_file_as(
        alice_shell,
        "/persist/home/alice/secret.html",
        b"<html>alice's diary</html>",
        Some(alice.private_file_label()),
    )
    .unwrap();

    // The launcher: the single trusted component, owning the network
    // taint category.  It authenticates as alice (the auth gates grant it
    // her categories, like any login) so it can spawn her worker.
    let launcher = env
        .spawn_with_label(init, "/usr/sbin/httpd", vec![netd.taint], vec![])
        .unwrap();
    let listener = netd.listen(&mut env, launcher).unwrap();
    assert_eq!(
        auth.login(&mut env, launcher, "alice", "a-pass").unwrap(),
        LoginOutcome::Granted
    );

    // Alice and bob connect; the launcher accepts both connections and
    // thereby owns each connection's `c_r`/`c_w` pair.
    let alice_client = netd
        .spawn_tainted(&mut env, init, "/usr/bin/alice-browser")
        .unwrap();
    let bob_client = netd
        .spawn_tainted(&mut env, init, "/usr/bin/bob-browser")
        .unwrap();
    let alice_client_fd = netd.connect(&mut env, alice_client, &listener).unwrap();
    netd.connect(&mut env, bob_client, &listener).unwrap();
    let alice_conn = netd
        .accept(&mut env, launcher, listener.fd)
        .unwrap()
        .unwrap();
    let bob_conn = netd
        .accept(&mut env, launcher, listener.fd)
        .unwrap()
        .unwrap();

    // Alice's worker: her categories, net-tainted from birth, granted
    // *her* connection only.
    let worker = env
        .spawn_with_label(
            launcher,
            "/usr/bin/worker-alice",
            vec![alice.read_cat, alice.write_cat],
            vec![(netd.taint, Level::L2)],
        )
        .unwrap();
    gatecall::grant_categories(
        &mut env,
        launcher,
        worker,
        &[alice_conn.taint_cat, alice_conn.write_cat],
    )
    .unwrap();
    let alice_state = env.fd_snapshot(launcher, alice_conn.fd).unwrap();
    let worker_alice_fd = env
        .install_descriptor(
            worker,
            FdState {
                kind: FdKind::Socket,
                target: alice_state.target,
                target_container: alice_state.target_container,
                position: 0,
                flags: FLAG_SOCK_SERVER,
                refs: 1,
            },
        )
        .unwrap();

    // The legitimate path works end to end: the worker reads alice's
    // secret (it owns her read category) and serves it to alice.
    let secret = env
        .read_file_as(worker, "/persist/home/alice/secret.html")
        .unwrap();
    assert_eq!(secret, b"<html>alice's diary</html>");
    env.write(worker, worker_alice_fd, &secret).unwrap();
    assert_eq!(env.read(alice_client, alice_client_fd, 64).unwrap(), secret);

    // Now the worker goes rogue.  It forges a descriptor for bob's
    // connection — the numbers are no secret — and tries to exfiltrate
    // the page it just read.  Audit tracing is on for the attempt.
    env.kernel_mut().enable_syscall_trace(1 << 16);
    let bob_state = env.fd_snapshot(launcher, bob_conn.fd).unwrap();
    let stolen_fd = env
        .install_descriptor(
            worker,
            FdState {
                kind: FdKind::Socket,
                target: bob_state.target,
                target_container: bob_state.target_container,
                position: 0,
                flags: FLAG_SOCK_SERVER,
                refs: 1,
            },
        )
        .unwrap();

    // Trusted-code surface: of every process in the scenario, exactly one
    // — the launcher — owns the network taint category `i`.  Everything
    // else (netd, workers, clients) runs without cross-user privilege.
    let mut trusted = 0;
    for pid in [netd.pid, launcher, worker, alice_client, bob_client] {
        let thread = env.process(pid).unwrap().thread;
        let label = env.machine().kernel().thread_label(thread).unwrap();
        if label.owns(netd.taint) {
            trusted += 1;
        }
    }
    assert_eq!(
        trusted, 1,
        "trusted surface: {trusted} of 5 server-side processes own the \
         network taint category; only the launcher may"
    );

    // The leak attempt fails closed.  The worker owns neither of bob's
    // connection categories: it cannot even observe the connection ring
    // (`c_r 3` in the connection label), so the descriptor write dies on
    // the very first label check.
    assert!(matches!(
        env.read(worker, stolen_fd, 64),
        Err(UnixError::Kernel(SyscallError::CannotObserve(_)))
    ));
    let err = env.write(worker, stolen_fd, &secret).unwrap_err();
    assert!(
        matches!(
            err,
            UnixError::Kernel(SyscallError::CannotObserve(_) | SyscallError::CannotModify(_))
        ),
        "expected a label-check denial on bob's connection, got {err:?}"
    );
    // Even aiming the raw segment-write syscall straight at bob's
    // connection segment — skipping the descriptor layer entirely — the
    // kernel refuses: `c_w 0` in the connection label, and the worker's
    // level is 1.
    let worker_thread = env.process(worker).unwrap().thread;
    let bob_ring =
        histar::kernel::object::ContainerEntry::new(bob_state.target_container, bob_state.target);
    let raw = env
        .kernel_mut()
        .trap_segment_write(worker_thread, bob_ring, 0, &secret);
    assert!(
        matches!(
            raw,
            Err(SyscallError::CannotModify(_) | SyscallError::CannotObserve(_))
        ),
        "raw segment write must be refused, got {raw:?}"
    );

    // The denial is visible in the audit trace: failed segment syscalls
    // from the worker's thread, with no successful write of bob's
    // connection anywhere.
    let records: Vec<TraceRecord> = env
        .machine()
        .kernel()
        .syscall_trace()
        .expect("tracing enabled")
        .records()
        .copied()
        .collect();
    assert!(
        records
            .iter()
            .any(|r| r.tid == worker_thread && r.syscall == "segment_write" && !r.ok),
        "the refused write must appear in the audit trace"
    );
    // From the worker's first denial onward, none of its segment writes
    // succeeded: the attack window contains denials only.
    let first_denial = records
        .iter()
        .find(|r| r.tid == worker_thread && !r.ok)
        .expect("a denial from the worker's thread")
        .seq;
    assert!(
        !records.iter().any(|r| {
            r.tid == worker_thread && r.syscall == "segment_write" && r.ok && r.seq > first_denial
        }),
        "the worker must not have written any segment after its first denial"
    );
}

/// A process with no privilege forges `FdKind::File` descriptors — the
/// numbers are no secret — for a secret segment in a container it cannot
/// read, for an id that names nothing, and for a thread, each also named
/// through its *own* container.  `fsync_pages` on every one of them is a
/// trap like `read`, refused with the same error `read` gets, so a real
/// id and a made-up one are indistinguishable; nothing reaches the disk,
/// and every attempt is on the audit record.
#[test]
fn forged_file_descriptors_cannot_sync_what_they_cannot_name() {
    use histar::kernel::object::ObjectId;
    use histar::kernel::TraceRecord;
    use histar::unix::fdtable::{FdKind, FdState};

    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let init_thread = env.process(init).unwrap().thread;
    let kroot = env.machine().kernel().root_container();
    let kernel = env.kernel_mut();
    let h = kernel.trap_create_category(init_thread).unwrap();
    let secret_label = Label::unrestricted().with(h, Level::L3);
    let vault = kernel
        .trap_container_create(
            init_thread,
            kroot,
            secret_label.clone(),
            "vault",
            0,
            1 << 16,
        )
        .unwrap();
    let secret = kernel
        .trap_segment_create(init_thread, vault, secret_label, 4096, "secret")
        .unwrap();
    kernel
        .trap_segment_write(
            init_thread,
            histar::kernel::object::ContainerEntry::new(vault, secret),
            0,
            b"the secret",
        )
        .unwrap();

    let mallory = env.spawn(init, "/bin/mallory", None).unwrap();
    let (mallory_thread, own) = {
        let p = env.process(mallory).unwrap();
        (p.thread, p.process_container)
    };
    let made_up = ObjectId::from_raw(0x0bad_c0de);
    let forged: Vec<_> = [vault, own]
        .into_iter()
        .flat_map(|container| [secret, made_up, init_thread].map(|target| (container, target)))
        .map(|(target_container, target)| {
            let state = FdState {
                kind: FdKind::File,
                target,
                target_container,
                position: 0,
                flags: 0,
                refs: 1,
            };
            (state, env.install_descriptor(mallory, state).unwrap())
        })
        .collect();

    env.kernel_mut().enable_syscall_trace(1 << 12);
    let disk_before = {
        let store = env.machine().store();
        (store.disk_stats(), store.wal_stats(), store.stats())
    };
    for (state, fd) in &forged {
        let denied = env.read(mallory, *fd, 16).unwrap_err();
        let expected = if state.target_container == vault {
            SyscallError::CannotObserve(vault)
        } else {
            SyscallError::NotInContainer {
                container: own,
                object: state.target,
            }
        };
        assert_eq!(denied, UnixError::Kernel(expected), "read of {state:?}");
        assert_eq!(
            env.fsync_pages(mallory, *fd, &[0]).unwrap_err(),
            denied,
            "fsync_pages of {state:?} must be refused exactly as read is"
        );
    }
    let store = env.machine().store();
    assert_eq!(
        (store.disk_stats(), store.wal_stats(), store.stats()),
        disk_before,
        "a refused sync writes, flushes and logs nothing"
    );

    let syncs: Vec<TraceRecord> = env
        .machine()
        .kernel()
        .syscall_trace()
        .expect("tracing enabled")
        .records()
        .filter(|r| r.syscall == "obj_sync")
        .copied()
        .collect();
    assert_eq!(syncs.len(), forged.len(), "one audit record per attempt");
    assert!(syncs.iter().all(|r| r.tid == mallory_thread && !r.ok));
}

/// A machine with an unprivileged process `lo` and a process `hi` tainted
/// `{h 2}` in a fresh category: `hi` may read what `lo` writes, never
/// write it.  Returns `hi`'s thread too.
fn boot_with_lo_and_tainted_hi() -> (
    UnixEnv,
    histar::unix::process::Pid,
    histar::unix::process::Pid,
    histar::kernel::object::ObjectId,
) {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let init_thread = env.process(init).unwrap().thread;
    let h = env.kernel_mut().trap_create_category(init_thread).unwrap();
    let lo = env.spawn(init, "/bin/lo", None).unwrap();
    let hi = env
        .spawn_with_label(init, "/bin/hi", vec![], vec![(h, Level::L2)])
        .unwrap();
    let hi_thread = env.process(hi).unwrap().thread;
    (env, lo, hi, hi_thread)
}

/// Durability is a write.  `lo` makes version `A` of a `/persist` file
/// durable and rewrites it to `B` without syncing; `hi`, tainted `{h 2}`,
/// may read the file but not write it — and so may not choose which
/// version survives a crash either: its `persist_sync` of exactly the
/// file's records is refused like its write, on the audit record, and the
/// crash recovers `A`.  (Under the observe rule the sync succeeded and the
/// crash recovered `B`: one bit per record per crash to a reader that
/// never held `h`.)
#[test]
fn a_reader_cannot_choose_which_version_of_a_persist_file_survives_a_crash() {
    use histar::unix::persistfs::{extent_key, inode_key, ROOT_INO};

    let (mut env, lo, hi, hi_thread) = boot_with_lo_and_tainted_hi();

    env.write_file_as(lo, "/persist/f", b"version A", None)
        .unwrap();
    env.fsync_path(lo, "/persist/f").unwrap();
    env.write_file_as(lo, "/persist/f", b"version B", None)
        .unwrap();
    let ino = env.stat(lo, "/persist/f").unwrap().object.raw() as u32;

    // hi reads the live file, and is refused the write.
    assert_eq!(env.read_file_as(hi, "/persist/f").unwrap(), b"version B");
    assert!(matches!(
        env.write_file_as(hi, "/persist/f", b"version C", None),
        Err(UnixError::Kernel(SyscallError::CannotModifyRecord(_)))
    ));
    // The sync is refused the same way: aimed at the file's own records,
    // and through the library (whose first target is the record of the
    // file's directory).
    env.kernel_mut().enable_syscall_trace(1 << 12);
    let keys = vec![inode_key(ino), extent_key(ino, 0)];
    assert_eq!(
        env.kernel_mut().trap_persist_sync(hi_thread, keys),
        Err(SyscallError::CannotModifyRecord(inode_key(ino)))
    );
    assert_eq!(
        env.fsync_path(hi, "/persist/f"),
        Err(UnixError::Kernel(SyscallError::CannotModifyRecord(
            inode_key(ROOT_INO)
        )))
    );
    let trace = env.machine().kernel().syscall_trace().unwrap();
    let refused = trace
        .records()
        .filter(|r| r.tid == hi_thread && r.syscall == "persist_sync")
        .inspect(|r| assert!(!r.ok, "no persist_sync of hi's may succeed"))
        .count();
    assert_eq!(refused, 2);

    let recovered = env.into_machine().crash_and_recover().unwrap();
    let mut env = UnixEnv::on_machine(recovered);
    let init = env.init_pid();
    assert_eq!(env.read_file_as(init, "/persist/f").unwrap(), b"version A");
}

/// A planted record cannot relabel a file.  Inode numbers are sequential
/// and anyone may create a persist record at a label it can allocate, so
/// `lo` plants a `{1}` record at the inode the next file will get.  When
/// `init` then creates a secret file there, the kernel refuses to write
/// under a label other than the record's (it used to keep the planted
/// `{1}` silently, and every extent of the file then took the inode's
/// label): the create fails and `lo` reads nothing.
#[test]
fn a_planted_persist_record_cannot_publish_the_file_created_over_it() {
    use histar::unix::persistfs::{inode_key, META_KEY};

    let (mut env, lo, _, _) = boot_with_lo_and_tainted_hi();
    let init = env.init_pid();
    let init_thread = env.process(init).unwrap().thread;
    let lo_thread = env.process(lo).unwrap().thread;
    let c = env.kernel_mut().trap_create_category(init_thread).unwrap();
    let secret = Label::builder().set(c, Level::L3).build();

    let (_, meta) = env
        .kernel_mut()
        .trap_persist_read(lo_thread, META_KEY, 8, 8)
        .unwrap();
    let next_ino = u64::from_le_bytes(meta.try_into().unwrap()) as u32;
    env.kernel_mut()
        .trap_persist_put(
            lo_thread,
            inode_key(next_ino),
            Some(Label::unrestricted()),
            0,
            &[],
        )
        .unwrap();

    assert_eq!(
        env.write_file_as(init, "/persist/secret", b"top secret", Some(secret)),
        Err(UnixError::Kernel(SyscallError::InvalidArgument(
            "a persist record keeps the label it was created with"
        )))
    );
    assert!(env.read_file_as(lo, "/persist/secret").is_err());
    assert_eq!(
        env.kernel_mut()
            .trap_persist_read(lo_thread, inode_key(next_ino), 0, u64::MAX)
            .unwrap(),
        (Label::unrestricted(), Vec::new()),
        "the planted record is untouched"
    );
}

/// The same for a heap file, whose `fsync` is `obj_sync`: `hi` can read
/// `/f` but its sync of the file's segment — or of the path, whose first
/// target is the directory — is refused like a write, and the crash
/// recovers the version `lo` made durable.
#[test]
fn a_reader_cannot_choose_which_version_of_a_heap_file_survives_a_crash() {
    use histar::kernel::bodies::ObjectBody;
    use histar::kernel::object::ContainerEntry;

    let (mut env, lo, hi, hi_thread) = boot_with_lo_and_tainted_hi();

    env.write_file_as(lo, "/f", b"version A", None).unwrap();
    env.fsync_path(lo, "/f").unwrap();
    env.write_file_as(lo, "/f", b"version B", None).unwrap();
    let root = env.fs_root();
    let seg = env.stat(lo, "/f").unwrap().object;

    assert_eq!(env.read_file_as(hi, "/f").unwrap(), b"version B");
    assert!(matches!(
        env.write_file_as(hi, "/f", b"version C", None),
        Err(UnixError::Kernel(SyscallError::CannotModify(_)))
    ));
    env.kernel_mut().enable_syscall_trace(1 << 12);
    assert_eq!(
        env.kernel_mut()
            .trap_obj_sync(hi_thread, ContainerEntry::new(root, seg), None),
        Err(SyscallError::CannotModify(seg))
    );
    assert_eq!(
        env.fsync_path(hi, "/f"),
        Err(UnixError::Kernel(SyscallError::CannotModify(root)))
    );
    let trace = env.machine().kernel().syscall_trace().unwrap();
    let refused = trace
        .records()
        .filter(|r| r.tid == hi_thread && r.syscall == "obj_sync")
        .inspect(|r| assert!(!r.ok, "no obj_sync of hi's may succeed"))
        .count();
    // The lone trap, then the path's three targets (directory, directory
    // segment, file), which `fsync_path` submits as one batch.
    assert_eq!(refused, 4);

    // `on_machine` formats a fresh `/` on a recovered machine, so the
    // recovered segment is read where it lies.
    let recovered = env.into_machine().crash_and_recover().unwrap();
    match &recovered.kernel().raw_object(seg).unwrap().body {
        ObjectBody::Segment(s) => assert_eq!(s.to_vec(), b"version A"),
        other => panic!("not a segment: {other:?}"),
    }
}

/// Every entry `thread` can name: the containers it can list, walked from
/// the kernel root.
fn entries_named_by(
    env: &mut UnixEnv,
    thread: histar::kernel::object::ObjectId,
) -> Vec<histar::kernel::object::ContainerEntry> {
    use histar::kernel::object::ContainerEntry;
    let kernel = env.kernel_mut();
    let mut to_list = vec![kernel.root_container()];
    let mut named = Vec::new();
    while let Some(container) = to_list.pop() {
        // Only a container the thread may observe lists.
        for object in kernel
            .trap_container_list(thread, container)
            .unwrap_or_default()
        {
            named.push(ContainerEntry::new(container, object));
            to_list.push(object);
        }
    }
    named
}

/// No write down, checked over everything there is rather than over one
/// object someone thought of.  `high` has read a `{h 3}` secret and owns
/// nothing; whatever it can name, a write of the secret lands only in an
/// object labelled at least `{h 3}`, and no byte of it is in anything the
/// untainted `low` can read.  (A thread used to come with a thread-local
/// segment, labelled at thread creation, linked in the thread's own
/// container and exempt from every check when its own thread used it:
/// `high` wrote the secret there and `low` read it back in four calls.)
#[test]
fn nothing_a_tainted_thread_can_write_is_readable_below_it() {
    use histar::kernel::object::ContainerEntry;
    const SECRET: &[u8; 16] = b"TOP-SECRET-BYTES";

    // A populated machine: processes, directories, open descriptors, a pipe.
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let shell = env.spawn(init, "/bin/sh", None).unwrap();
    env.write_file_as(shell, "/notes", b"nothing to see", None)
        .unwrap();
    env.open(shell, "/notes", histar::unix::fs::OpenFlags::read_only())
        .unwrap();
    env.pipe(shell).unwrap();

    let owner = env.process(init).unwrap().thread;
    let kernel = env.kernel_mut();
    let kroot = kernel.root_container();
    let h = kernel.trap_create_category(owner).unwrap();
    let tainted = Label::unrestricted().with(h, Level::L3);
    let secret = kernel
        .trap_segment_create(owner, kroot, tainted.clone(), 16, "secret")
        .unwrap();
    let secret = ContainerEntry::new(kroot, secret);
    kernel.trap_segment_write(owner, secret, 0, SECRET).unwrap();
    let mut thread = |clearance: Label, descrip: &str| {
        kernel
            .trap_thread_create(owner, kroot, Label::unrestricted(), clearance, 0, descrip)
            .unwrap()
    };
    let high = thread(Label::default_clearance().with(h, Level::L3), "high");
    let low = thread(Label::default_clearance(), "low");
    kernel.trap_self_set_label(high, tainted.clone()).unwrap();
    assert_eq!(
        kernel.trap_segment_read(high, secret, 0, 16).unwrap(),
        SECRET
    );

    let named = entries_named_by(&mut env, high);
    assert!(named.len() > 20, "the walk found the machine: {named:?}");
    let mut took_the_write = 0;
    for &entry in &named {
        let kernel = env.kernel_mut();
        if kernel.trap_segment_write(high, entry, 0, SECRET).is_ok() {
            let label = &kernel.raw_object(entry.object).unwrap().header.label;
            assert!(
                tainted.leq(label),
                "{entry:?}, labelled {label}, took a write from a thread tainted {tainted}"
            );
            took_the_write += 1;
        }
    }
    assert_eq!(took_the_write, 1, "the secret segment itself");

    for entry in entries_named_by(&mut env, low) {
        let kernel = env.kernel_mut();
        let Ok(len) = kernel.trap_segment_len(low, entry) else {
            continue;
        };
        let bytes = kernel.trap_segment_read(low, entry, 0, len).unwrap();
        assert!(
            !bytes.windows(SECRET.len()).any(|w| w == SECRET),
            "low reads the secret out of {entry:?}"
        );
    }
}

/// What a thread holds after entering `target`'s signal gate the way
/// `kill` does — asking for everything the gate's label lets it own.
fn label_after_entering_signal_gate(
    env: &mut UnixEnv,
    sender: histar::unix::process::Pid,
    target: histar::unix::process::Pid,
) -> Label {
    use histar::kernel::object::ContainerEntry;
    let thread = env.process(sender).unwrap().thread;
    let t = env.process(target).unwrap().clone();
    let gate = ContainerEntry::new(t.process_container, t.signal_gate);
    let kernel = env.machine_mut().kernel_mut();
    let label = kernel.trap_self_get_label(thread).unwrap();
    let clearance = kernel.trap_self_get_clearance(thread).unwrap();
    let gate_label = kernel.trap_obj_get_label(thread, gate).unwrap();
    let requested = label.ownership_union(&gate_label);
    kernel
        .trap_gate_enter(thread, gate, requested, clearance, label)
        .unwrap()
        .label
}

/// A signal gate carries the process's own `pr`/`pw`, not what it was
/// spawned owning: a daemon spawned owning netd's `i` does not hand `i`
/// to an unprivileged thread that enters its signal gate.
#[test]
fn a_signal_gate_does_not_hand_out_what_its_process_was_spawned_owning() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let netd = Netd::start(&mut env, init, "internet").unwrap();
    let daemon = env
        .spawn_with_label(init, "/usr/sbin/httpd", vec![netd.taint], vec![])
        .unwrap();
    let nobody = env.spawn(init, "/bin/nobody", None).unwrap();
    let got = label_after_entering_signal_gate(&mut env, nobody, daemon);
    assert!(
        !got.owns(netd.taint),
        "entering the gate granted i: {got:?}"
    );
    // The one thing it does hand out, to anyone, is the daemon's own pair
    // (a user-less process's gate is unguarded).
    let d = env.process(daemon).unwrap();
    assert!(got.owns(d.read_cat) && got.owns(d.write_cat));
    // And `kill` still works through it.
    env.kill(nobody, daemon, 15).unwrap();
    assert_eq!(env.take_signal(daemon).unwrap(), Some(15));
}

/// A user's signal gate is guarded by `uw`, and passing the guard grants
/// the process's pair, not the user's read category: a thread that holds
/// only bob's `uw` leaves bob's shell's gate without bob's `ur`.
#[test]
fn holding_a_users_write_category_does_not_buy_their_read_category() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let bob = env.create_user("bob").unwrap();
    let shell = env.spawn(init, "/bin/sh", Some("bob")).unwrap();
    let writer = env.spawn(init, "/bin/writer", None).unwrap();
    // Without `uw` the guard refuses entry outright.
    assert!(env.kill(writer, shell, 15).is_err());
    histar::unix::gatecall::grant_categories(&mut env, init, writer, &[bob.write_cat]).unwrap();
    let got = label_after_entering_signal_gate(&mut env, writer, shell);
    assert!(
        !got.owns(bob.read_cat),
        "entering the gate granted ur: {got:?}"
    );
    assert!(got.owns(bob.write_cat));
}

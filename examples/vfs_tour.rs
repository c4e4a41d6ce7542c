//! A tour of the vnode-based VFS: mounts, `/proc` label filtering,
//! `/dev` devices, and the batched descriptor hot path.
//!
//! Run with `cargo run --release --example vfs_tour`.

use histar::kernel::DispatchStats;
use histar::label::Level;
use histar::unix::fs::OpenFlags;
use histar::unix::UnixEnv;

fn main() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();

    // --- mounts -----------------------------------------------------------
    let exported = env.mkdir(init, "/exported", None).unwrap();
    env.write_file_as(init, "/exported/status", b"ready\n", None)
        .unwrap();
    env.mount("/srv", exported);
    println!(
        "mounted /srv -> /exported; /srv/status reads {:?}",
        String::from_utf8(env.read_file_as(init, "/srv/status").unwrap()).unwrap()
    );

    // --- /dev -------------------------------------------------------------
    let dev = env.readdir(init, "/dev").unwrap();
    println!(
        "/dev holds: {}",
        dev.iter()
            .map(|e| e.name.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let ur = env
        .open(init, "/dev/urandom", OpenFlags::read_only())
        .unwrap();
    let noise = env.read(init, ur, 8).unwrap();
    env.close(init, ur).unwrap();
    println!("/dev/urandom says {noise:02x?}");
    let console = env
        .open(
            init,
            "/dev/console",
            OpenFlags {
                write: true,
                ..Default::default()
            },
        )
        .unwrap();
    env.write(init, console, b"hello from the vfs tour\n")
        .unwrap();
    env.close(init, console).unwrap();
    println!(
        "console device captured {} frame(s)",
        env.console_output().len()
    );

    // --- /proc and label filtering ----------------------------------------
    let init_thread = env.process(init).unwrap().thread;
    let taint = env.kernel_mut().trap_create_category(init_thread).unwrap();
    let observer = env
        .spawn_with_label(init, "/bin/observer", vec![], vec![(taint, Level::L3)])
        .unwrap();
    let victim = env.spawn(init, "/bin/victim", None).unwrap();
    let pids: Vec<String> = env
        .readdir(init, "/proc")
        .unwrap()
        .iter()
        .map(|e| e.name.clone())
        .collect();
    println!("/proc lists pids: {}", pids.join(", "));
    let own = env
        .read_file_as(victim, &format!("/proc/{victim}/status"))
        .unwrap();
    println!(
        "pid {victim} reads its own status:\n{}",
        String::from_utf8(own).unwrap()
    );
    let denied = env.stat(observer, &format!("/proc/{victim}/status"));
    println!("tainted observer stat'ing pid {victim}: {denied:?}");

    // --- the batched hot path ---------------------------------------------
    env.write_file_as(init, "/big", &vec![7u8; 64 * 1024], None)
        .unwrap();
    let before: DispatchStats = env.machine().kernel().dispatch_stats();
    let fd = env.open(init, "/big", OpenFlags::read_only()).unwrap();
    let mut total = 0;
    loop {
        let chunk = env.read(init, fd, 4096).unwrap();
        if chunk.is_empty() {
            break;
        }
        total += chunk.len();
    }
    env.close(init, fd).unwrap();
    let io = env.machine().kernel().dispatch_stats().since(&before);
    println!(
        "read {total} bytes: {} boundary crossings for {} calls (mean batch size {:.2})",
        io.batches,
        io.batch_entries,
        io.mean_batch_size()
    );
    assert!(io.mean_batch_size() > 1.2, "seek updates ride data batches");
    println!("vfs tour complete");
}

//! A ring header is input from the other end: anyone holding the ring
//! segment's write categories can rewrite its `(rpos, wpos, writers)`.
//! A header with the read position past the write position, or more
//! bytes buffered than the ring holds, must be `Corrupt("ring header")`
//! for `read`, `write` and `poll` alike — never an arithmetic panic (debug)
//! or wrapped garbage returned as data (release).

use histar_kernel::object::{ContainerEntry, ObjectId};
use histar_label::Label;
use histar_unix::fdtable::{FdKind, FdState};
use histar_unix::process::Pid;
use histar_unix::{Fd, UnixEnv, UnixError};

/// One 24-byte ring header.
fn header(rpos: u64, wpos: u64, writers: u64) -> Vec<u8> {
    [rpos, wpos, writers]
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect()
}

/// Headers no ring can have: read past write, and more buffered than the
/// largest ring's capacity (so the write side's free space would wrap).
fn hostile_headers() -> [Vec<u8>; 2] {
    [header(10, 5, 1), header(0, 1 << 40, 1)]
}

fn corrupt() -> UnixError {
    UnixError::Corrupt("ring header")
}

/// Writes `bytes` over the start of the segment `fd` names.
fn overwrite(env: &mut UnixEnv, pid: Pid, fd: Fd, bytes: &[u8]) {
    let state = env.fd_snapshot(pid, fd).unwrap();
    let entry = ContainerEntry::new(state.target_container, state.target);
    let thread = env.process(pid).unwrap().thread;
    env.kernel_mut()
        .trap_segment_write(thread, entry, 0, bytes)
        .unwrap();
}

#[test]
fn a_pipe_with_a_hostile_header_is_corrupt_for_read_write_and_poll() {
    for hostile in hostile_headers() {
        let mut env = UnixEnv::boot();
        let init = env.init_pid();
        let (r, w) = env.pipe(init).unwrap();
        overwrite(&mut env, init, r, &hostile);
        assert_eq!(env.read(init, r, 16), Err(corrupt()));
        assert_eq!(env.write(init, w, b"data"), Err(corrupt()));
        assert_eq!(env.poll(init, &[r]), Err(corrupt()));
        assert_eq!(env.poll(init, &[w]), Err(corrupt()));
        // A sound header makes the pipe work again.
        overwrite(&mut env, init, r, &header(0, 0, 1));
        assert_eq!(env.write(init, w, b"data"), Ok(4));
        assert_eq!(env.read(init, r, 16).unwrap(), b"data");
    }
}

#[test]
fn a_socket_with_a_hostile_header_is_corrupt_for_read_write_and_poll() {
    for hostile in hostile_headers() {
        let mut env = UnixEnv::boot();
        let init = env.init_pid();
        let thread = env.process(init).unwrap().thread;
        let container = env.process(init).unwrap().process_container;
        let conn = env
            .kernel_mut()
            .trap_segment_create(thread, container, Label::unrestricted(), 0, "conn")
            .unwrap();
        let entry = ContainerEntry::new(container, conn);
        histar_unix::vnode::init_socket_segment(&mut env.vfs_ctx(thread), entry).unwrap();
        let fd = install_socket(&mut env, init, container, conn);
        assert_eq!(env.write(init, fd, b"ping"), Ok(4));
        // Both rings, the one this end sends on and the one it reads.
        let both: Vec<u8> = [hostile.clone(), hostile].concat();
        overwrite(&mut env, init, fd, &both);
        assert_eq!(env.read(init, fd, 16), Err(corrupt()));
        assert_eq!(env.write(init, fd, b"data"), Err(corrupt()));
        assert_eq!(env.poll(init, &[fd]), Err(corrupt()));
    }
}

fn install_socket(env: &mut UnixEnv, pid: Pid, container: ObjectId, conn: ObjectId) -> Fd {
    env.install_descriptor(
        pid,
        FdState {
            kind: FdKind::Socket,
            target: conn,
            target_container: container,
            position: 0,
            flags: 0,
            refs: 1,
        },
    )
    .unwrap()
}

/// `readiness_from_header` is public and takes whatever bytes it is
/// given: a header shorter than 24 bytes, or longer, is corrupt too (a
/// short one used to panic on the slice).
#[test]
fn a_header_of_the_wrong_length_is_corrupt_for_readiness() {
    use histar_unix::vnode::readiness_from_header;
    let sound = header(0, 0, 1);
    assert_eq!(readiness_from_header(&sound, 64, false), Ok(false));
    for len in [0, 8, 23, 25] {
        let mut bytes = sound.clone();
        bytes.resize(len, 0);
        assert_eq!(readiness_from_header(&bytes, 64, false), Err(corrupt()));
    }
}

//! Seeded model test for descriptor offsets and counts.
//!
//! The library keeps each thread's own view of a descriptor's state and
//! reads the shared descriptor segment only when another number may have
//! moved the position.  This test is the oracle that the views stay
//! coherent with the segment: seeded sequences of `open`, `dup`, `fork`,
//! `share_fd`, `read`, `write`, `lseek` and `close`, across up to three
//! processes on one file, run beside a plain model of open file
//! descriptions — one offset and one count per description, one table of
//! numbers per process — and every answer, refusals included, must be
//! the model's.  After every step each open number's segment must show
//! its description's offset and count.
//!
//! The file keeps its length (`LEN` bytes): a write never runs past the
//! end, so a read's count depends only on the offset, and every vnode's
//! cached length stays true.
//!
//! The generator is the xorshift64* harness of `segment_properties.rs`.

use histar_unix::fs::OpenFlags;
use histar_unix::{Fd, Pid, UnixEnv, UnixError};
use std::collections::BTreeMap;

const SEEDS: u64 = 8;
const STEPS: usize = 300;
const PROCESSES: usize = 3;
/// The file's length, fixed for the whole run.
const LEN: u64 = 64;
const PATH: &str = "/f";

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, bound: u64) -> u64 {
        ((self.next() as u128 * bound as u128) >> 64) as u64
    }

    fn pick<T: Clone>(&mut self, from: &[T]) -> T {
        from[self.below(from.len() as u64) as usize].clone()
    }
}

/// One open file description: what the descriptor segment must hold.
#[derive(Clone, Copy, Debug)]
struct Description {
    offset: u64,
    refs: u32,
}

/// Descriptions by index (closed ones stay, with no number naming them),
/// each process's numbers, and the file's bytes.
struct Model {
    descriptions: Vec<Description>,
    tables: BTreeMap<Pid, BTreeMap<Fd, usize>>,
    file: Vec<u8>,
}

impl Model {
    /// The number a new descriptor of `pid` gets: the lowest free one.
    fn next_fd(&self, pid: Pid) -> Fd {
        let table = &self.tables[&pid];
        (0..)
            .find(|fd| !table.contains_key(fd))
            .expect("a free number")
    }

    fn install(&mut self, pid: Pid, description: usize) -> Fd {
        let fd = self.next_fd(pid);
        self.tables
            .get_mut(&pid)
            .expect("live")
            .insert(fd, description);
        fd
    }

    /// The description `pid`'s number `fd` names, or the refusal.
    fn description(&self, pid: Pid, fd: Fd) -> Result<usize, UnixError> {
        self.tables[&pid]
            .get(&fd)
            .copied()
            .ok_or(UnixError::BadFd(fd))
    }
}

/// A number `pid` holds, mostly; now and then one it does not.
fn pick_fd(rng: &mut Rng, model: &Model, pid: Pid) -> Fd {
    let open: Vec<Fd> = model.tables[&pid].keys().copied().collect();
    if open.is_empty() || rng.below(10) == 0 {
        rng.below(8) as Fd
    } else {
        rng.pick(&open)
    }
}

fn run(seed: u64) {
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let initial: Vec<u8> = (0..LEN).map(|_| rng.next() as u8).collect();
    env.write_file_as(init, PATH, &initial, None).unwrap();
    let mut model = Model {
        descriptions: Vec::new(),
        tables: BTreeMap::from([(init, BTreeMap::new())]),
        file: initial,
    };

    for step in 0..STEPS {
        let pids: Vec<Pid> = model.tables.keys().copied().collect();
        let pid = rng.pick(&pids);
        let at = format!("seed {seed} step {step} pid {pid}");
        match rng.below(16) {
            0 | 1 => {
                let want = model.next_fd(pid);
                let fd = env.open(pid, PATH, OpenFlags::read_write_create()).unwrap();
                assert_eq!(fd, want, "{at}: open");
                model.descriptions.push(Description { offset: 0, refs: 1 });
                let description = model.descriptions.len() - 1;
                model.install(pid, description);
            }
            2 => {
                let fd = pick_fd(&mut rng, &model, pid);
                let want = model.description(pid, fd).map(|description| {
                    model.descriptions[description].refs += 1;
                    model.install(pid, description)
                });
                assert_eq!(env.dup(pid, fd), want, "{at}: dup {fd}");
            }
            3 if pids.len() < PROCESSES => {
                let child = env.fork(pid).unwrap();
                let table = model.tables[&pid].clone();
                for &description in table.values() {
                    model.descriptions[description].refs += 1;
                }
                assert!(model.tables.insert(child, table).is_none(), "{at}: fork");
            }
            4 | 5 => {
                let fd = pick_fd(&mut rng, &model, pid);
                let to = rng.pick(&pids);
                let want = model.description(pid, fd).map(|description| {
                    model.descriptions[description].refs += 1;
                    model.install(to, description)
                });
                assert_eq!(env.share_fd(pid, fd, to), want, "{at}: share {fd} to {to}");
            }
            6..=8 => {
                let fd = pick_fd(&mut rng, &model, pid);
                let len = rng.below(12);
                let want = model.description(pid, fd).map(|description| {
                    let d = &mut model.descriptions[description];
                    let start = d.offset.min(LEN);
                    let end = start + len.min(LEN - start);
                    if end > start {
                        d.offset = end;
                    }
                    model.file[start as usize..end as usize].to_vec()
                });
                assert_eq!(env.read(pid, fd, len), want, "{at}: read {fd} {len}");
            }
            9..=11 => {
                let fd = pick_fd(&mut rng, &model, pid);
                let (want, data) = match model.description(pid, fd) {
                    Err(e) => (Err(e), vec![rng.next() as u8]),
                    Ok(description) => {
                        let d = &mut model.descriptions[description];
                        let room = LEN - d.offset;
                        let data: Vec<u8> = (0..rng.below(room.min(8) + 1))
                            .map(|_| rng.next() as u8)
                            .collect();
                        let start = d.offset as usize;
                        d.offset += data.len() as u64;
                        model.file[start..start + data.len()].copy_from_slice(&data);
                        (Ok(data.len() as u64), data)
                    }
                };
                assert_eq!(env.write(pid, fd, &data), want, "{at}: write {fd}");
            }
            12 => {
                let fd = pick_fd(&mut rng, &model, pid);
                let position = rng.below(LEN + 1);
                let want = model
                    .description(pid, fd)
                    .map(|description| model.descriptions[description].offset = position);
                assert_eq!(env.lseek(pid, fd, position), want, "{at}: lseek {fd}");
            }
            _ => {
                let fd = pick_fd(&mut rng, &model, pid);
                let want = match model.tables.get_mut(&pid).expect("live").remove(&fd) {
                    None => Err(UnixError::BadFd(fd)),
                    Some(description) => {
                        model.descriptions[description].refs -= 1;
                        Ok(())
                    }
                };
                assert_eq!(env.close(pid, fd), want, "{at}: close {fd}");
            }
        }
        for (&pid, table) in &model.tables {
            for (&fd, &description) in table {
                let state = env.fd_snapshot(pid, fd).unwrap();
                let d = model.descriptions[description];
                assert_eq!(
                    (state.position, state.refs),
                    (d.offset, d.refs),
                    "{at}: segment of pid {pid} fd {fd}"
                );
            }
        }
    }
    assert_eq!(
        env.read_file_as(init, PATH).unwrap(),
        model.file,
        "seed {seed}: file"
    );
}

#[test]
fn descriptor_offsets_and_counts_match_the_model() {
    for seed in 0..SEEDS {
        run(seed);
    }
}

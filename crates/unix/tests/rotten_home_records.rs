//! Rotten home records never panic recovery.
//!
//! A Unix environment with files, a pipe, a user and extra processes is
//! snapshotted, so every kernel object type has a home record on disk.
//! For a seeded sample of offsets inside each home record — most of them
//! in its first bytes, where its id and length, and the ids, counts, tags,
//! label words and flags of the object record, lie — one seeded bit of a
//! copy of the disk is flipped and the machine recovered from the copy.
//! Nothing checksums a home record, so a flip may decode: recovery must
//! return a machine or a typed [`MachineError`], never panic, and a
//! machine it returns must pass the store's invariant check.
//!
//! The generator is the xorshift64* of the seeded property suites, so the
//! sweep runs offline and replays exactly.

use histar_kernel::kernel::KObject;
use histar_kernel::machine::{Machine, MachineConfig, MachineError};
use histar_kernel::object::ObjectType;
use histar_sim::SimDisk;
use histar_store::codec::{unframe, Decoder, Wire};
use histar_store::store::Superblock;
use histar_store::Extent;
use histar_unix::UnixEnv;
use std::panic::{catch_unwind, AssertUnwindSafe};

const SEEDS: [u64; 2] = [7, 0x5eed_0b1e];
/// Offsets sampled per home record.
const OFFSETS_PER_RECORD: u64 = 12;
/// The bytes at the start of a record that hold its fields: the home
/// header, the object header (a label of a few entries, the metadata, the
/// descriptive string) and the first fields of the body.
const FIELDS: u64 = 192;

struct Rng(u64);

impl Rng {
    fn below(&mut self, bound: u64) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        ((x.wrapping_mul(0x2545_F491_4F6C_DD1D) as u128 * bound as u128) >> 64) as u64
    }
}

/// Each object's home record as the last checkpoint's map places it.
/// The superblock frame at offset 0 names the map's frame.  The map's
/// first list pairs each id with its record's offset, its third with its
/// body length, and a record is a 16-byte header and the body.
fn home_records(disk: &SimDisk) -> Vec<(u64, Extent)> {
    let frame_at = |at, len| {
        let bytes = disk.lend(at, len);
        unframe(&bytes).expect("an intact frame").0.to_vec()
    };
    let superblock_len = 16 + Decoder::new(&disk.lend(0, 8)).get_u64().unwrap();
    let sb = Superblock::decode_with(&frame_at(0, superblock_len), disk.config().capacity)
        .expect("an intact superblock");
    let map = frame_at(sb.meta_offset, sb.meta_len);
    let mut d = Decoder::new(&map);
    let [mut offsets, _, mut body_lens] = [(); 3].map(|()| Decoder::new(d.get_slice().unwrap()));
    let mut homes = Vec::new();
    while offsets.remaining() > 0 {
        let [(id, offset), (_, body_len)] =
            [&mut offsets, &mut body_lens].map(|l| (l.get_u64().unwrap(), l.get_u64().unwrap()));
        homes.push((id, Extent::new(offset, 16 + body_len)));
    }
    homes
}

/// A snapshotted environment's disk and the home record of each object.
fn snapshotted(config: MachineConfig) -> (SimDisk, Vec<(u64, Extent)>) {
    let mut env = UnixEnv::on_machine(Machine::boot(config));
    let init = env.init_pid();
    env.create_user("alice").unwrap();
    env.write_file_as(init, "/notes", b"a file's bytes", None)
        .unwrap();
    let (_, w) = env.pipe(init).unwrap();
    env.write(init, w, b"in the pipe").unwrap();
    let child = env.spawn(init, "/bin/child", Some("alice")).unwrap();
    env.fork(child).unwrap();
    env.mkdir(init, "/persist/dir", None).unwrap();
    env.write_file_as(init, "/persist/dir/f", b"persisted", None)
        .unwrap();
    env.sync_all();
    let mut machine = env.into_machine();
    let homes = home_records(machine.store().disk());
    let types: Vec<ObjectType> = homes
        .iter()
        .filter_map(|&(id, _)| KObject::decode(&machine.store_mut().get(id).ok()?).ok())
        .map(|obj| obj.header.object_type)
        .collect();
    for ty in ObjectType::ALL {
        assert!(types.contains(&ty), "no {} is on disk", ty.name());
    }
    (machine.into_disk(), homes)
}

/// One recovery from `disk`: whether it refused the disk with a typed
/// error.  A panic, or a recovered machine whose store breaks its
/// invariants, is the finding.
fn recover(config: MachineConfig, disk: SimDisk) -> Result<bool, String> {
    match catch_unwind(AssertUnwindSafe(|| Machine::recover(config, disk))) {
        Err(_) => Err("recovery panicked".into()),
        Ok(Err(MachineError::Store(_) | MachineError::Corrupt(_))) => Ok(true),
        Ok(Err(e)) => Err(format!("recovery failed with a kernel error: {e}")),
        Ok(Ok(machine)) => machine.store().check_invariants().map(|()| false),
    }
}

#[test]
fn a_rotten_home_record_is_an_error_or_a_consistent_machine() {
    for seed in SEEDS {
        let config = MachineConfig {
            seed,
            ..MachineConfig::default()
        };
        let (disk, homes) = snapshotted(config);
        recover(config, disk.crash_copy()).expect("the intact disk recovers");
        let mut rng = Rng(seed | 1);
        let (mut refused, mut flips) = (0, 0);
        for &(id, record) in &homes {
            for i in 0..OFFSETS_PER_RECORD {
                let span = if i % 4 == 3 {
                    record.len
                } else {
                    record.len.min(FIELDS)
                };
                let at = record.offset + rng.below(span);
                let bit = rng.below(8);
                let mut copy = disk.crash_copy();
                let byte = copy.read(at, 1)[0] ^ (1 << bit);
                copy.write(at, &[byte]);
                match recover(config, copy) {
                    Ok(was_refused) => refused += usize::from(was_refused),
                    Err(why) => {
                        panic!("seed {seed:#x}, object {id:#x}: bit {bit} at offset {at:#x}: {why}")
                    }
                }
                flips += 1;
            }
        }
        assert!(
            flips > 0 && refused > 0,
            "seed {seed:#x}: {refused} of {flips} refused"
        );
    }
}

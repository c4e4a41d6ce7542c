//! Seeded model test for `/persist` directories.
//!
//! PersistFs keeps each directory as one record: its inode header, then
//! the entries as a `DirImage`.  Seeded sequences of create, mkdir, write
//! and fsync, unlink, rename (within and across directories), readdir and
//! lookup run on `/persist` beside a plain model, and every answer —
//! refusals included — is compared with the model's.  Every few steps the
//! machine crashes, recovers and remounts, and the tree it shows must be
//! exactly the model's durable projection:
//!
//! * synced names and data survive;
//! * a file that was never synced is absent, or empty where its directory
//!   was synced — never a name whose inode is missing;
//! * the store's `check_invariants` holds.
//!
//! The model keeps, per node, what is live and what is durable.  The
//! durable side follows PersistFs's rule: creating a node logs its inode
//! (empty), a file's `fsync` logs its directory's whole record and the
//! file, and unlink and rename log every directory they edit.  A store
//! checkpoint makes everything live durable, so the model folds live into
//! durable whenever the store's checkpoint count moves: for a create, in
//! the create's own sync, before the new name exists.
//!
//! Odd seeds run on a store that applies its log every few records, so
//! checkpoints land between and inside the steps; even seeds on the
//! default store, where every step between crashes is log replay.
//!
//! The generator is the xorshift64* harness of `segment_properties.rs`.

use histar_kernel::{Machine, MachineConfig};
use histar_store::StoreConfig;
use histar_unix::{UnixEnv, UnixError};
use std::collections::BTreeMap;

const SEEDS: u64 = 8;
const STEPS: usize = 240;
/// Steps between crashes.
const CRASH_EVERY: usize = 24;
/// Names a step picks from: file-like and directory-like, so edits collide
/// and a rename can aim a directory at a file's name and back.
const NAMES: [&str; 6] = ["f0", "f1", "f2", "d0", "d1", "d2"];

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

    /// File contents: empty, a few bytes, or across an extent boundary.
    fn bytes(&mut self) -> Vec<u8> {
        let len = match self.below(4) {
            0 => 0,
            1 => self.below(64),
            _ => self.below(6000),
        };
        (0..len).map(|_| self.next() as u8).collect()
    }
}

/// One file or directory: what is live, and what a crash now recovers.
#[derive(Clone, Default)]
struct Node {
    is_dir: bool,
    data: Vec<u8>,
    synced: Vec<u8>,
    live: BTreeMap<String, usize>,
    durable: BTreeMap<String, usize>,
}

/// The recovered tree: path → `None` for a directory, a file's bytes.
type Tree = BTreeMap<String, Option<Vec<u8>>>;

/// Nodes by index; node 0 is `/persist`.  Unreachable nodes are garbage.
struct Model {
    nodes: Vec<Node>,
}

impl Model {
    fn new() -> Model {
        let root = Node {
            is_dir: true,
            ..Node::default()
        };
        Model { nodes: vec![root] }
    }

    fn lookup(&self, path: &[String]) -> Option<usize> {
        path.iter()
            .try_fold(0, |n, name| self.nodes[n].live.get(name).copied())
    }

    /// Every live path but the root's, with its node, in walk order.
    fn paths(&self) -> Vec<(Vec<String>, usize)> {
        let mut out = Vec::new();
        let mut stack = vec![(Vec::new(), 0)];
        while let Some((path, n)) = stack.pop() {
            for (name, &child) in &self.nodes[n].live {
                let mut p: Vec<String> = path.clone();
                p.push(name.clone());
                out.push((p.clone(), child));
                stack.push((p, child));
            }
        }
        out
    }

    fn dirs(&self) -> Vec<Vec<String>> {
        let mut dirs = vec![Vec::new()];
        dirs.extend(
            self.paths()
                .into_iter()
                .filter(|&(_, n)| self.nodes[n].is_dir)
                .map(|(p, _)| p),
        );
        dirs
    }

    fn checkpoint(&mut self) {
        for n in &mut self.nodes {
            n.durable = n.live.clone();
            n.synced = n.data.clone();
        }
    }

    /// What a crash leaves live: the durable side.
    fn crash(&mut self) {
        for n in &mut self.nodes {
            n.live = n.durable.clone();
            n.data = n.synced.clone();
        }
    }

    /// Logs directory `dir`'s whole record.
    fn sync_dir(&mut self, dir: usize) {
        self.nodes[dir].durable = self.nodes[dir].live.clone();
    }

    /// The tree a recovery must show.
    fn projection(&self) -> Tree {
        let mut out = Tree::new();
        let mut stack = vec![("/persist".to_string(), 0)];
        while let Some((dir, n)) = stack.pop() {
            for (name, &child) in &self.nodes[n].durable {
                let path = format!("{dir}/{name}");
                let node = &self.nodes[child];
                if node.is_dir {
                    stack.push((path.clone(), child));
                }
                out.insert(path, (!node.is_dir).then(|| node.synced.clone()));
            }
        }
        out
    }
}

fn path_of(path: &[String]) -> String {
    format!("/persist/{}", path.join("/"))
}

/// The tree `/persist` shows: every directory listed, every file read.
fn actual(env: &mut UnixEnv) -> Tree {
    let init = env.init_pid();
    let mut out = Tree::new();
    let mut stack = vec!["/persist".to_string()];
    while let Some(dir) = stack.pop() {
        let listing = env.readdir(init, &dir).unwrap();
        for entry in listing {
            let path = format!("{dir}/{}", entry.name);
            let data = if entry.is_dir {
                stack.push(path.clone());
                None
            } else {
                let read = env.read_file_as(init, &path);
                Some(read.unwrap_or_else(|e| panic!("{path} names no readable inode: {e}")))
            };
            assert!(
                out.insert(path.clone(), data).is_none(),
                "{path} listed twice"
            );
        }
    }
    out
}

fn checkpoints(env: &UnixEnv) -> u64 {
    env.machine().store().stats().checkpoints
}

fn crash_and_remount(env: UnixEnv) -> UnixEnv {
    let machine = env.into_machine().crash_and_recover().unwrap();
    UnixEnv::on_machine(machine)
}

/// Runs one seeded sequence against the model.
fn run(seed: u64) {
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let mut config = MachineConfig::default();
    if seed % 2 == 1 {
        config.store = StoreConfig {
            apply_batch: 16,
            ..StoreConfig::default()
        };
    }
    let mut env = UnixEnv::on_machine(Machine::boot(config));
    let mut model = Model::new();
    for step in 0..STEPS {
        let at = format!("seed {seed} step {step}");
        let init = env.init_pid();
        let before = checkpoints(&env);
        let paths = model.paths();
        'op: {
            match rng.below(7) {
                // Create a file, or rewrite one, without syncing.
                0 => {
                    let dir = rng.pick(&model.dirs());
                    let name = rng.pick(&NAMES).to_string();
                    let mut path = dir.clone();
                    path.push(name.clone());
                    let data = rng.bytes();
                    let got = env.write_file_as(init, &path_of(&path), &data, None);
                    match model.lookup(&path) {
                        Some(n) if model.nodes[n].is_dir => {
                            assert!(matches!(got, Err(UnixError::IsADirectory(_))), "{at}");
                        }
                        Some(n) => {
                            got.unwrap();
                            model.nodes[n].data = data;
                        }
                        None => {
                            got.unwrap();
                            if checkpoints(&env) != before {
                                model.checkpoint();
                            }
                            let parent = model.lookup(&dir).unwrap();
                            model.nodes.push(Node {
                                data,
                                ..Node::default()
                            });
                            let n = model.nodes.len() - 1;
                            model.nodes[parent].live.insert(name, n);
                        }
                    }
                }
                // Make a directory, at most two levels down.
                1 => {
                    let dirs: Vec<_> = model.dirs().into_iter().filter(|d| d.len() < 2).collect();
                    let dir = rng.pick(&dirs);
                    let name = rng.pick(&NAMES).to_string();
                    let mut path = dir.clone();
                    path.push(name.clone());
                    let got = env.mkdir(init, &path_of(&path), None);
                    if model.lookup(&path).is_some() {
                        assert!(matches!(got, Err(UnixError::Exists(_))), "{at}");
                    } else {
                        got.unwrap();
                        if checkpoints(&env) != before {
                            model.checkpoint();
                        }
                        let parent = model.lookup(&dir).unwrap();
                        model.nodes.push(Node {
                            is_dir: true,
                            ..Node::default()
                        });
                        let n = model.nodes.len() - 1;
                        model.nodes[parent].live.insert(name, n);
                    }
                }
                // Rewrite a file and fsync it.
                2 => {
                    let files: Vec<_> = paths
                        .iter()
                        .filter(|&&(_, n)| !model.nodes[n].is_dir)
                        .cloned()
                        .collect();
                    if files.is_empty() {
                        break 'op;
                    }
                    let (path, n) = rng.pick(&files);
                    let data = rng.bytes();
                    env.write_file_as(init, &path_of(&path), &data, None)
                        .unwrap();
                    env.fsync_path(init, &path_of(&path)).unwrap();
                    model.nodes[n].data = data;
                    if checkpoints(&env) != before {
                        model.checkpoint();
                    }
                    let parent = model.lookup(&path[..path.len() - 1]).unwrap();
                    model.sync_dir(parent);
                    model.nodes[n].synced = model.nodes[n].data.clone();
                }
                // Unlink a file or an empty directory.
                3 => {
                    if paths.is_empty() {
                        break 'op;
                    }
                    let (path, n) = rng.pick(&paths);
                    let got = env.unlink(init, &path_of(&path));
                    if !model.nodes[n].live.is_empty() {
                        assert!(matches!(got, Err(UnixError::Unsupported(_))), "{at}");
                        break 'op;
                    }
                    got.unwrap();
                    let parent = model.lookup(&path[..path.len() - 1]).unwrap();
                    model.nodes[parent].live.remove(&path[path.len() - 1]);
                    model.sync_dir(parent);
                    if checkpoints(&env) != before {
                        model.checkpoint();
                    }
                }
                // Rename, within a directory or across directories.
                4 => {
                    if paths.is_empty() {
                        break 'op;
                    }
                    let (from, moved) = rng.pick(&paths);
                    let mut to = rng.pick(&model.dirs());
                    to.push(rng.pick(&NAMES).to_string());
                    let got = env.rename(init, &path_of(&from), &path_of(&to));
                    let replaced = model.lookup(&to).filter(|&r| r != moved);
                    let moved_is_dir = model.nodes[moved].is_dir;
                    if to.len() > from.len() && to.starts_with(&from) {
                        assert!(matches!(got, Err(UnixError::Unsupported(_))), "{at}");
                    } else if replaced.is_some_and(|r| model.nodes[r].is_dir) {
                        assert!(matches!(got, Err(UnixError::IsADirectory(_))), "{at}");
                    } else if replaced.is_some() && moved_is_dir {
                        assert!(matches!(got, Err(UnixError::NotADirectory(_))), "{at}");
                    } else if from == to {
                        got.unwrap();
                    } else {
                        got.unwrap();
                        let source = model.lookup(&from[..from.len() - 1]).unwrap();
                        let target = model.lookup(&to[..to.len() - 1]).unwrap();
                        model.nodes[source].live.remove(&from[from.len() - 1]);
                        model.nodes[target]
                            .live
                            .insert(to[to.len() - 1].clone(), moved);
                        model.sync_dir(source);
                        model.sync_dir(target);
                        if checkpoints(&env) != before {
                            model.checkpoint();
                        }
                    }
                }
                // List a directory.
                5 => {
                    let dir = rng.pick(&model.dirs());
                    let mut got: Vec<(String, bool)> = env
                        .readdir(init, &path_of(&dir))
                        .unwrap()
                        .into_iter()
                        .map(|e| (e.name, e.is_dir))
                        .collect();
                    got.sort();
                    let want: Vec<(String, bool)> = model.nodes[model.lookup(&dir).unwrap()]
                        .live
                        .iter()
                        .map(|(name, &n)| (name.clone(), model.nodes[n].is_dir))
                        .collect();
                    assert_eq!(got, want, "{at}");
                }
                // Look a path up, present or not.
                _ => {
                    let mut path = rng.pick(&model.dirs());
                    path.push(rng.pick(&NAMES).to_string());
                    let got = env.stat(init, &path_of(&path));
                    match model.lookup(&path) {
                        Some(n) => {
                            let stat = got.unwrap();
                            let node = &model.nodes[n];
                            let len = if node.is_dir { 0 } else { node.data.len() };
                            assert_eq!((stat.is_dir, stat.len), (node.is_dir, len as u64), "{at}");
                        }
                        None => assert!(matches!(got, Err(UnixError::NotFound(_))), "{at}"),
                    }
                }
            }
        }
        if (step + 1) % CRASH_EVERY == 0 {
            env.machine().store().check_invariants().unwrap();
            let want = model.projection();
            env = crash_and_remount(env);
            env.machine()
                .store()
                .check_invariants()
                .unwrap_or_else(|e| panic!("{at}: {e}"));
            assert_eq!(actual(&mut env), want, "{at}: recovered tree");
            model.crash();
        }
    }
}

#[test]
fn persist_directories_match_the_model_across_crashes() {
    for seed in 0..SEEDS {
        run(seed);
    }
}

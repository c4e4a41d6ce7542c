//! Deterministic simulation substrate for the HiStar reproduction.
//!
//! The paper's evaluation ran on real hardware: a 2.4 GHz Athlon64, a
//! 7,200 RPM IDE disk, and a 100 Mbps Ethernet.  This crate provides
//! deterministic stand-ins for that hardware so that the benchmark harness
//! can reproduce the *shape* of the paper's results without the actual
//! testbed:
//!
//! * [`clock::SimClock`] — a virtual nanosecond clock that all simulated
//!   components charge their costs to.
//! * [`cost::CostModel`] — per-operation CPU costs (system-call entry,
//!   label checks, page zeroing, context switches, ...), with separate
//!   calibrations for the HiStar, Linux-like and OpenBSD-like models.
//! * [`disk::SimDisk`] — a block device with seek/rotational latency,
//!   sequential bandwidth, a write cache and optional read look-ahead,
//!   matching the Seagate ST340014A parameters the paper cites.
//! * [`net::SimNetwork`] — a latency/bandwidth pipe modelling the 100 Mbps
//!   Ethernet used in Figure 13.
//! * [`rng::SimRng`] — a small deterministic PRNG for workload generation.
//! * [`hash::SimHashMap`] — std's `HashMap` over the unkeyed multiply
//!   hasher [`hash::SimHasher`]: the one hash map the workspace's lints
//!   let any crate name.
//!
//! Everything here is deterministic: the same workload produces the same
//! simulated time on every run, which keeps the benchmark harness stable.
//! It is also single-threaded by design, like everything built on it: no
//! crate spawns a thread, so nothing here pays for atomics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod cost;
pub mod disk;
pub mod hash;
pub mod net;
pub mod rng;

pub use clock::{SimClock, SimDuration};
pub use cost::{CostModel, OsFlavor};
pub use disk::{DiskConfig, DiskStats, SimDisk};
pub use hash::{SimHashMap, SimHasher};
pub use net::{LinkConfig, NetConfig, SimNetwork, Topology};
pub use rng::SimRng;

//! CPU cost model for the simulated operating systems.
//!
//! The paper's microbenchmark differences come from *structural* properties:
//! HiStar's fork/exec issues 317 system calls against a lower-level kernel
//! interface where Linux issues 9; HiStar does not pre-zero pages; spawn
//! avoids most of fork's work (127 syscalls); gate calls and label checks
//! have costs proportional to label size; switching address spaces costs a
//! TLB flush unless the `invlpg` optimization applies.  The cost model makes
//! each of those structural costs explicit so that the benchmark harness can
//! charge them to the [`SimClock`](crate::clock::SimClock).
//!
//! The per-operation constants are calibrated to a 2.4 GHz Athlon64-class
//! machine (the paper's testbed).

use crate::clock::SimDuration;

/// Which operating-system model a cost profile describes.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum OsFlavor {
    /// The HiStar kernel plus its user-level Unix library.
    HiStar,
    /// A Linux 2.6-era monolithic kernel with ext3.
    LinuxLike,
    /// An OpenBSD 3.9-era monolithic kernel with an in-memory file system.
    OpenBsdLike,
}

impl OsFlavor {
    /// All modelled flavors, in the column order used by Figure 12/13.
    pub const ALL: [OsFlavor; 3] = [OsFlavor::HiStar, OsFlavor::LinuxLike, OsFlavor::OpenBsdLike];

    /// Human-readable name matching the paper's column headers.
    pub fn name(self) -> &'static str {
        match self {
            OsFlavor::HiStar => "HiStar",
            OsFlavor::LinuxLike => "Linux",
            OsFlavor::OpenBsdLike => "OpenBSD",
        }
    }
}

/// Per-operation CPU costs for one OS flavor.
///
/// All values are simulated time per operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// Which OS this profile models.
    pub flavor: OsFlavor,
    /// Fixed cost of entering and leaving the kernel for one system call.
    pub syscall: SimDuration,
    /// Cost of decoding one additional entry of an already-trapped
    /// submission batch (the kernel is entered once per batch; every entry
    /// after the first pays only this decode cost instead of `syscall`).
    pub syscall_batched_entry: SimDuration,
    /// Cost of comparing one label entry (category/level pair) during a
    /// label check.  Only meaningful for HiStar.
    pub label_check_entry: SimDuration,
    /// Fixed overhead of one label check (hashing, cache lookup).
    pub label_check_base: SimDuration,
    /// Cost of a hit in the immutable-label comparison cache.
    pub label_cache_hit: SimDuration,
    /// Cost of zeroing one 4 KiB page.
    pub page_zero: SimDuration,
    /// Cost of copying one 4 KiB page.
    pub page_copy: SimDuration,
    /// Cost of handling one page fault (kernel entry, lookup, map).
    pub page_fault: SimDuration,
    /// Cost of a context switch that must flush the whole TLB.
    pub context_switch_full: SimDuration,
    /// Cost of a context switch between threads of the same address space
    /// using `invlpg` (HiStar's optimization).
    pub context_switch_invlpg: SimDuration,
    /// Cost of a gate invocation beyond its constituent label checks.
    pub gate_overhead: SimDuration,
    /// Per-byte cost of copying data in memory (pipes, read/write).
    pub copy_per_byte: SimDuration,
    /// Per-byte cost of the scanner/compiler style CPU work in Figure 13.
    pub compute_per_byte: SimDuration,
    /// Scheduler/wakeup latency for blocking IPC.
    pub wakeup: SimDuration,
}

impl CostModel {
    /// Cost profile for the given OS flavor.
    pub fn for_flavor(flavor: OsFlavor) -> CostModel {
        match flavor {
            // HiStar: very small kernel, cheap syscalls, but every call does
            // label checks and the Unix environment is user-level.
            OsFlavor::HiStar => CostModel {
                flavor,
                syscall: SimDuration::from_nanos(250),
                syscall_batched_entry: SimDuration::from_nanos(30),
                label_check_entry: SimDuration::from_nanos(40),
                label_check_base: SimDuration::from_nanos(60),
                label_cache_hit: SimDuration::from_nanos(15),
                page_zero: SimDuration::from_nanos(3_000), // no pre-zeroed pool
                page_copy: SimDuration::from_nanos(1_500),
                page_fault: SimDuration::from_nanos(1_200),
                context_switch_full: SimDuration::from_nanos(1_400),
                context_switch_invlpg: SimDuration::from_nanos(450),
                gate_overhead: SimDuration::from_nanos(800),
                copy_per_byte: SimDuration::from_nanos(1),
                compute_per_byte: SimDuration::from_nanos(170),
                wakeup: SimDuration::from_nanos(400),
            },
            // Linux: heavier syscall path, but highly tuned fork/exec with a
            // pre-zeroed page pool and in-kernel pipes.
            OsFlavor::LinuxLike => CostModel {
                flavor,
                syscall: SimDuration::from_nanos(380),
                syscall_batched_entry: SimDuration::from_nanos(60),
                label_check_entry: SimDuration::ZERO,
                label_check_base: SimDuration::ZERO,
                label_cache_hit: SimDuration::ZERO,
                page_zero: SimDuration::from_nanos(600), // pre-zeroed pool
                page_copy: SimDuration::from_nanos(1_500),
                page_fault: SimDuration::from_nanos(1_000),
                context_switch_full: SimDuration::from_nanos(1_300),
                context_switch_invlpg: SimDuration::from_nanos(1_300),
                gate_overhead: SimDuration::ZERO,
                copy_per_byte: SimDuration::from_nanos(1),
                compute_per_byte: SimDuration::from_nanos(170),
                wakeup: SimDuration::from_nanos(500),
            },
            // OpenBSD: lean kernel with fast IPC; in-memory file system in
            // the paper's configuration.
            OsFlavor::OpenBsdLike => CostModel {
                flavor,
                syscall: SimDuration::from_nanos(300),
                syscall_batched_entry: SimDuration::from_nanos(50),
                label_check_entry: SimDuration::ZERO,
                label_check_base: SimDuration::ZERO,
                label_cache_hit: SimDuration::ZERO,
                page_zero: SimDuration::from_nanos(600),
                page_copy: SimDuration::from_nanos(1_500),
                page_fault: SimDuration::from_nanos(1_100),
                context_switch_full: SimDuration::from_nanos(700),
                context_switch_invlpg: SimDuration::from_nanos(700),
                gate_overhead: SimDuration::ZERO,
                copy_per_byte: SimDuration::from_nanos(1),
                compute_per_byte: SimDuration::from_nanos(190),
                wakeup: SimDuration::from_nanos(250),
            },
        }
    }

    /// Cost of one HiStar label check over a label with `entries`
    /// non-default entries, with or without a comparison-cache hit.
    pub fn label_check(&self, entries: usize, cached: bool) -> SimDuration {
        if cached {
            self.label_cache_hit
        } else {
            self.label_check_base + self.label_check_entry * entries as u64
        }
    }

    /// Cost of copying `bytes` bytes of user data.
    pub fn copy(&self, bytes: u64) -> SimDuration {
        self.copy_per_byte * bytes
    }

    /// Cost of byte-proportional application compute (compression, signature
    /// matching, compilation) over `bytes` bytes.
    pub fn compute(&self, bytes: u64) -> SimDuration {
        self.compute_per_byte * bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_flavors_have_profiles() {
        for f in OsFlavor::ALL {
            let m = CostModel::for_flavor(f);
            assert_eq!(m.flavor, f);
            assert!(m.syscall > SimDuration::ZERO);
        }
    }

    #[test]
    fn batched_entries_are_cheaper_than_full_traps() {
        for f in OsFlavor::ALL {
            let m = CostModel::for_flavor(f);
            assert!(m.syscall_batched_entry < m.syscall, "{f:?}");
            assert!(m.syscall_batched_entry > SimDuration::ZERO, "{f:?}");
        }
    }

    #[test]
    fn histar_syscalls_are_cheaper_than_linux() {
        let h = CostModel::for_flavor(OsFlavor::HiStar);
        let l = CostModel::for_flavor(OsFlavor::LinuxLike);
        assert!(h.syscall < l.syscall, "small kernel => cheap syscall path");
    }

    #[test]
    fn histar_pays_for_label_checks_and_zeroing() {
        let h = CostModel::for_flavor(OsFlavor::HiStar);
        let l = CostModel::for_flavor(OsFlavor::LinuxLike);
        assert!(h.label_check(4, false) > SimDuration::ZERO);
        assert_eq!(l.label_check(4, false), SimDuration::ZERO);
        assert!(
            h.page_zero > l.page_zero,
            "no pre-zeroed page pool on HiStar"
        );
    }

    #[test]
    fn label_cache_hit_is_cheaper_than_miss() {
        let h = CostModel::for_flavor(OsFlavor::HiStar);
        assert!(h.label_check(8, true) < h.label_check(8, false));
        // Cost grows with label size when uncached.
        assert!(h.label_check(16, false) > h.label_check(2, false));
    }

    #[test]
    fn invlpg_beats_full_flush_only_on_histar() {
        let h = CostModel::for_flavor(OsFlavor::HiStar);
        assert!(h.context_switch_invlpg < h.context_switch_full);
    }

    #[test]
    fn flavor_names() {
        assert_eq!(OsFlavor::HiStar.name(), "HiStar");
        assert_eq!(OsFlavor::LinuxLike.name(), "Linux");
        assert_eq!(OsFlavor::OpenBsdLike.name(), "OpenBSD");
    }

    #[test]
    fn copy_and_compute_scale_linearly() {
        let m = CostModel::for_flavor(OsFlavor::HiStar);
        assert_eq!(m.copy(1000).as_nanos(), 1000 * m.copy_per_byte.as_nanos());
        assert_eq!(
            m.compute(100).as_nanos(),
            100 * m.compute_per_byte.as_nanos()
        );
    }
}

//! Figure 13: application-level benchmarks.

use histar_apps::{build_benchmark, scan_benchmark, wget_benchmark};
use histar_baseline::BaselineOs;
use histar_net::Netd;
use histar_sim::SimDuration;
use histar_unix::UnixEnv;

use crate::report::{Row, Table};

/// Parameters for the Figure 13 workloads.
#[derive(Clone, Copy, Debug)]
pub struct Fig13Params {
    /// Number of source files in the kernel-build workload.
    pub build_files: usize,
    /// Size of each source file in bytes.
    pub build_file_size: usize,
    /// Bytes transferred by the wget workload (paper: 100 MB).
    pub wget_bytes: u64,
    /// Bytes scanned by the virus-scan workload (paper: 100 MB).
    pub scan_bytes: usize,
}

impl Default for Fig13Params {
    fn default() -> Fig13Params {
        Fig13Params {
            build_files: 60,
            build_file_size: 24 * 1024,
            wget_bytes: 16 * 1024 * 1024,
            scan_bytes: 32 * 1024 * 1024,
        }
    }
}

impl Fig13Params {
    /// Tiny parameters for unit tests.
    pub fn smoke() -> Fig13Params {
        Fig13Params {
            build_files: 4,
            build_file_size: 8 * 1024,
            wget_bytes: 512 * 1024,
            scan_bytes: 512 * 1024,
        }
    }
}

/// The HiStar build workload.
pub fn histar_build(params: Fig13Params) -> SimDuration {
    let mut env = UnixEnv::boot();
    build_benchmark(&mut env, params.build_files, params.build_file_size)
        .expect("build workload runs")
}

/// The HiStar wget workload.
pub fn histar_wget(params: Fig13Params) -> SimDuration {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let netd = Netd::start(&mut env, init, "internet").expect("netd starts");
    wget_benchmark(&mut env, &netd, params.wget_bytes).expect("wget workload runs")
}

/// The HiStar virus-scan workload, with or without the isolation wrapper.
pub fn histar_scan(params: Fig13Params, isolated: bool) -> SimDuration {
    let mut env = UnixEnv::boot();
    scan_benchmark(&mut env, params.scan_bytes, isolated).expect("scan workload runs")
}

/// Runs every row of Figure 13 and assembles the table.
pub fn run(params: Fig13Params) -> Table {
    let mut table = Table::new("Figure 13: application-level benchmark results (simulated time)");

    let mut linux = BaselineOs::linux();
    let mut bsd = BaselineOs::openbsd();

    table.push(
        Row::new(&format!(
            "Building the HiStar kernel ({} files)",
            params.build_files
        ))
        .measure("HiStar", histar_build(params))
        .measure(
            "Linux",
            linux.build_kernel(params.build_files, params.build_file_size),
        )
        .measure(
            "OpenBSD",
            bsd.build_kernel(params.build_files, params.build_file_size),
        )
        .paper_value("HiStar", "6.2s")
        .paper_value("Linux", "4.7s")
        .paper_value("OpenBSD", "6.0s"),
    );

    table.push(
        Row::new(&format!(
            "Transferring {} MB with wget",
            params.wget_bytes / (1024 * 1024)
        ))
        .measure("HiStar", histar_wget(params))
        .measure("Linux", linux.wget(params.wget_bytes))
        .measure("OpenBSD", bsd.wget(params.wget_bytes))
        .paper_value("HiStar", "9.1s/100MB")
        .paper_value("Linux", "9.0s/100MB")
        .paper_value("OpenBSD", "9.0s/100MB"),
    );

    table.push(
        Row::new(&format!(
            "Virus-checking a {} MB file",
            params.scan_bytes / (1024 * 1024)
        ))
        .measure("HiStar", histar_scan(params, false))
        .measure("Linux", linux.virus_scan(params.scan_bytes as u64))
        .measure("OpenBSD", bsd.virus_scan(params.scan_bytes as u64))
        .paper_value("HiStar", "18.7s/100MB")
        .paper_value("Linux", "18.7s/100MB")
        .paper_value("OpenBSD", "21.2s/100MB"),
    );

    table.push(
        Row::new("... with isolation wrapper")
            .measure("HiStar", histar_scan(params, true))
            .paper_value("HiStar", "18.7s/100MB"),
    );

    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapper_does_not_slow_down_the_scan() {
        let p = Fig13Params::smoke();
        let plain = histar_scan(p, false);
        let wrapped = histar_scan(p, true);
        // The wrapper's overhead is a handful of syscalls; the scan itself
        // dominates, so the two are within a few percent of each other.
        let ratio = wrapped.as_nanos() as f64 / plain.as_nanos() as f64;
        assert!(ratio < 1.1, "wrapper overhead too large: {ratio}");
    }

    #[test]
    fn wget_is_bandwidth_bound_on_all_systems() {
        let p = Fig13Params::smoke();
        let histar = histar_wget(p);
        let linux = BaselineOs::linux().wget(p.wget_bytes);
        // 512 KiB at 100 Mbps is ~42 ms of wire time; both should be close.
        assert!(histar.as_millis() >= 40);
        assert!(linux.as_millis() >= 40);
        let ratio = histar.as_nanos() as f64 / linux.as_nanos() as f64;
        assert!(ratio < 2.0, "HiStar should saturate the link too: {ratio}");
    }

    #[test]
    fn full_table_renders() {
        let text = run(Fig13Params::smoke()).render();
        assert!(text.contains("wget"));
        assert!(text.contains("isolation wrapper"));
    }
}

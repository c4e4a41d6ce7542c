//! Host time: the only module in the tree allowed `std::time::Instant`.
//!
//! Everything the simulator computes runs on `SimClock`; the root
//! `clippy.toml` bans wall-clock types so results never depend on the
//! host.  The benchmark's second clock — what the simulator *costs* — lives
//! here and nowhere else: `benchmark/clippy.toml` repeats the ban for this
//! package and this module alone lifts it.  Also reads the process's peak
//! resident set and CPU time from `/proc`, so a preempted rep shows up as a
//! low CPU share rather than as a silently slow one.

#![allow(clippy::disallowed_types)]

use std::time::Instant;

/// A started stopwatch over wall-clock and process CPU time.
#[derive(Clone, Copy, Debug)]
pub struct HostTimer {
    wall: Instant,
    cpu_s: f64,
}

/// What a [`HostTimer`] measured.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostElapsed {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Process CPU seconds (user + system), over `cpu_wall_s`.
    pub cpu_s: f64,
    /// The wall-clock seconds `cpu_s` was measured over (a [`ScaledTimer`]
    /// includes its calibration passes here, not in `wall_s`).
    pub cpu_wall_s: f64,
    /// Wall-clock seconds restated at the reference speed (see
    /// [`ScaledTimer`]); 0 from a plain [`HostTimer`].
    pub scaled_s: f64,
}

impl HostElapsed {
    /// CPU time ÷ wall time: ≈1.0 for one busy thread, lower when the
    /// process was descheduled.  CPU time ticks at 10 ms, so the share is
    /// only meaningful over regions of a few hundred milliseconds.
    pub fn cpu_share(&self) -> f64 {
        if self.cpu_wall_s > 0.0 {
            self.cpu_s / self.cpu_wall_s
        } else {
            0.0
        }
    }
}

/// Two measured stretches add up (a workload timed in two phases).
impl std::ops::AddAssign for HostElapsed {
    fn add_assign(&mut self, part: HostElapsed) {
        self.wall_s += part.wall_s;
        self.cpu_s += part.cpu_s;
        self.cpu_wall_s += part.cpu_wall_s;
        self.scaled_s += part.scaled_s;
    }
}

impl HostTimer {
    /// Starts timing.
    pub fn start() -> HostTimer {
        HostTimer {
            cpu_s: process_cpu_seconds(),
            wall: Instant::now(),
        }
    }

    /// Wall-clock seconds since [`HostTimer::start`].
    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    /// Wall-clock nanoseconds since [`HostTimer::start`].
    pub fn wall_ns(&self) -> u64 {
        self.wall.elapsed().as_nanos() as u64
    }

    /// Wall and CPU time since [`HostTimer::start`].
    pub fn elapsed(&self) -> HostElapsed {
        let wall_s = self.wall_s();
        HostElapsed {
            wall_s,
            cpu_s: process_cpu_seconds() - self.cpu_s,
            cpu_wall_s: wall_s,
            scaled_s: 0.0,
        }
    }
}

/// Mean host nanoseconds (at the reference speed) per call of `f` over
/// `iters` calls; one untimed call first, so lazy set-up is not billed.
pub fn ns_per_call(iters: u64, mut f: impl FnMut()) -> f64 {
    f();
    let mut t = ScaledTimer::start();
    for i in 0..iters {
        f();
        if i % 32 == 0 {
            t.lap();
        }
    }
    t.stop().scaled_s * 1e9 / iters.max(1) as f64
}

/// Kernel clock ticks per second for `/proc/self/stat` (`USER_HZ`); 100 on
/// every Linux configuration this runs on, and not readable without libc.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds this process has consumed, from
/// `/proc/self/stat` fields 14 and 15.  Zero where `/proc` is absent.
pub fn process_cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || fields.next().and_then(|f| f.parse::<f64>().ok());
    match (tick(), tick()) {
        (Some(utime), Some(stime)) => (utime + stime) / USER_HZ,
        _ => 0.0,
    }
}

/// Peak resident set of this process in MiB (`VmHWM` in
/// `/proc/self/status`).  Zero where `/proc` is absent.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A stopwatch that also states its reading at a reference host speed.
///
/// The box's effective speed drifts by tens of percent within seconds (a
/// shared microVM that is stolen from), which would drown any comparison
/// of two commits.  So a fixed piece of work — [`calibration_ns`] — is timed
/// immediately before and after every measured segment (and every
/// [`SEGMENT_NS`] inside a long one, at [`ScaledTimer::lap`]), and the
/// segment's wall time is scaled by `CALIBRATION_REFERENCE_NS` ÷ the mean of
/// the two readings.  The calibration passes themselves are not billed.
/// Raw wall time is kept alongside.
pub struct ScaledTimer {
    whole: HostTimer,
    segment: HostTimer,
    before_ns: f64,
    raw_ns: u64,
    scaled_ns: f64,
}

/// Longest stretch measured against one pair of calibration readings.
const SEGMENT_NS: u64 = 100_000_000;

impl ScaledTimer {
    /// Calibrates, then starts timing.
    pub fn start() -> ScaledTimer {
        let whole = HostTimer::start();
        let before_ns = calibration_ns();
        ScaledTimer {
            whole,
            before_ns,
            raw_ns: 0,
            scaled_ns: 0.0,
            segment: HostTimer::start(),
        }
    }

    fn close_segment(&mut self) {
        let ns = self.segment.wall_ns();
        let after_ns = calibration_ns();
        self.raw_ns += ns;
        self.scaled_ns +=
            ns as f64 * CALIBRATION_REFERENCE_NS / ((self.before_ns + after_ns) / 2.0);
        self.before_ns = after_ns;
        self.segment = HostTimer::start();
    }

    /// A point between two ops where the timer may stop to recalibrate; it
    /// does so once the current segment is [`SEGMENT_NS`] old.
    pub fn lap(&mut self) {
        if self.segment.wall_ns() >= SEGMENT_NS {
            self.close_segment();
        }
    }

    /// Stops timing: raw wall seconds (calibration excluded), the same at
    /// the reference speed, and CPU seconds (calibration included).
    pub fn stop(mut self) -> HostElapsed {
        self.close_segment();
        let whole = self.whole.elapsed();
        HostElapsed {
            wall_s: self.raw_ns as f64 / 1e9,
            cpu_s: whole.cpu_s,
            cpu_wall_s: whole.wall_s,
            scaled_s: self.scaled_ns / 1e9,
        }
    }
}

/// Host nanoseconds for one pass of a fixed piece of work shaped like the
/// simulator's own (ordered and hashed maps of small heap values, 4 KiB
/// copies, branchy integer code); the median of three passes, so one stolen
/// timeslice does not count.
pub fn calibration_ns() -> f64 {
    let mut passes = [calibration_pass(), calibration_pass(), calibration_pass()];
    passes.sort_unstable();
    passes[1] as f64
}

/// What one calibration pass takes on this box when nothing else runs:
/// host times are scaled by `CALIBRATION_REFERENCE_NS ÷ measured`.
pub const CALIBRATION_REFERENCE_NS: f64 = 1_500_000.0;

/// Steps in one calibration pass.
const CALIBRATION_STEPS: u64 = 30_000;

fn calibration_pass() -> u64 {
    use std::collections::{BTreeMap, HashMap};
    let t = HostTimer::start();
    let mut ordered: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut hashed: HashMap<u64, u64> = HashMap::new();
    let src = vec![0xa5u8; 4096];
    let mut dst = vec![0u8; 4096];
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0u64;
    for i in 0..CALIBRATION_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = x % 8192;
        match i % 4 {
            0 => {
                ordered.insert(key, vec![i as u8; 64]);
            }
            1 => acc += ordered.get(&key).map_or(0, |v| u64::from(v[0])),
            2 => acc += hashed.insert(key, x).unwrap_or(0) & 1,
            _ => {
                dst.copy_from_slice(&src);
                acc += u64::from(dst[(x % 4096) as usize]);
            }
        }
    }
    std::hint::black_box((acc, ordered.len(), hashed.len()));
    t.wall_ns()
}

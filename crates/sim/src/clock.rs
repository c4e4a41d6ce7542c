//! The virtual clock that simulated components charge time to.

use std::cell::Cell;
use std::fmt;
use std::rc::Rc;

/// A span of simulated time, stored in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// Zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Constructs a duration from nanoseconds.
    pub const fn from_nanos(ns: u64) -> SimDuration {
        SimDuration(ns)
    }

    /// Constructs a duration from microseconds.
    pub const fn from_micros(us: u64) -> SimDuration {
        SimDuration(us * 1_000)
    }

    /// Constructs a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms * 1_000_000)
    }

    /// Constructs a duration from seconds.
    pub const fn from_secs(s: u64) -> SimDuration {
        SimDuration(s * 1_000_000_000)
    }

    /// Constructs a duration from fractional seconds.
    pub fn from_secs_f64(s: f64) -> SimDuration {
        SimDuration((s * 1e9).round().max(0.0) as u64)
    }

    /// The duration in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The duration in (truncated) microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// The duration in (truncated) milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// The duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The duration in fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Saturating addition.
    pub fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Scales the duration by an integer factor.
    pub fn scale(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }
}

impl core::ops::Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        self.saturating_add(rhs)
    }
}

impl core::ops::AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = self.saturating_add(rhs);
    }
}

impl core::ops::Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl core::ops::Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        self.scale(rhs)
    }
}

impl core::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3} s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3} ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3} us", self.as_micros_f64())
        } else {
            write!(f, "{} ns", self.0)
        }
    }
}

/// A shared, monotonically increasing virtual clock.
///
/// Handles are cheap to clone and all refer to the same underlying counter,
/// so the kernel, disk, network and workload code can all charge time to a
/// single machine-wide clock.  The clock is single-threaded by design: the
/// counter is a plain `Cell` behind an `Rc`, because the kernel charges it
/// on every trap and nothing runs the simulator on a second thread.  It
/// saturates at `u64::MAX` ns rather than wrap, so it never runs backwards.
#[derive(Clone, Debug, Default)]
pub struct SimClock {
    nanos: Rc<Cell<u64>>,
}

impl SimClock {
    /// Creates a new clock at time zero.
    pub fn new() -> SimClock {
        SimClock::default()
    }

    /// Current simulated time since boot.
    pub fn now(&self) -> SimDuration {
        SimDuration::from_nanos(self.nanos.get())
    }

    /// Advances the clock by `d` and returns the new time.
    pub fn advance(&self, d: SimDuration) -> SimDuration {
        let new = self.now() + d;
        self.nanos.set(new.as_nanos());
        new
    }

    /// Measures the simulated time consumed by `f`.
    pub fn measure<T>(&self, f: impl FnOnce() -> T) -> (T, SimDuration) {
        let start = self.now();
        let out = f();
        (out, self.now() - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_conversions() {
        assert_eq!(SimDuration::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimDuration::from_millis(2).as_micros(), 2_000);
        assert_eq!(SimDuration::from_secs(1).as_millis(), 1_000);
        assert!((SimDuration::from_secs_f64(0.5).as_secs_f64() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_micros(10);
        let b = SimDuration::from_micros(4);
        assert_eq!((a + b).as_micros(), 14);
        assert_eq!((a - b).as_micros(), 6);
        assert_eq!((b - a), SimDuration::ZERO, "subtraction saturates");
        assert_eq!((a * 3).as_micros(), 30);
        let total: SimDuration = [a, b, b].into_iter().sum();
        assert_eq!(total.as_micros(), 18);
        let max = SimDuration::from_nanos(u64::MAX);
        assert_eq!(a + max, max, "addition saturates");
        let mut acc = max;
        acc += a;
        assert_eq!(acc, max);
    }

    #[test]
    fn clock_advances_and_is_shared() {
        let clock = SimClock::new();
        let other = clock.clone();
        assert_eq!(clock.now(), SimDuration::ZERO);
        clock.advance(SimDuration::from_micros(5));
        other.advance(SimDuration::from_micros(7));
        assert_eq!(clock.now().as_micros(), 12);
    }

    /// A saturated charge (`CostModel::copy` caps at `u64::MAX` ns) pins
    /// the clock at the end of time instead of wrapping it back to zero.
    #[test]
    fn clock_saturates_instead_of_running_backwards() {
        let clock = SimClock::new();
        clock.advance(SimDuration::from_nanos(1));
        let end = clock.advance(SimDuration::from_nanos(u64::MAX));
        assert_eq!(end.as_nanos(), u64::MAX);
        assert_eq!(clock.now().as_nanos(), u64::MAX);
    }

    #[test]
    fn measure_reports_elapsed() {
        let clock = SimClock::new();
        let (value, took) = clock.measure(|| {
            clock.advance(SimDuration::from_millis(3));
            42
        });
        assert_eq!(value, 42);
        assert_eq!(took.as_millis(), 3);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12 ns");
        assert_eq!(SimDuration::from_micros(3).to_string(), "3.000 us");
        assert_eq!(SimDuration::from_millis(3).to_string(), "3.000 ms");
        assert_eq!(SimDuration::from_secs(3).to_string(), "3.000 s");
    }
}

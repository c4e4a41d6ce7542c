//! Order statistics and the trace digest.

/// Fewest samples a 99th percentile is reported from: at 1,100 samples
/// ten lie strictly beyond the reported rank.
pub const P99_MIN_SAMPLES: usize = 1_100;

/// The median of `values` (mean of the middle two when even).  Panics on
/// an empty slice: every caller has at least one rep.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, as Python's `statistics.quantiles(v, n=4)`
/// computes them (the exclusive method); both equal the single value when
/// there is only one.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let at = |i: usize| {
        // 1-based rank i*(n+1)/4, interpolated between its neighbours
        // (and, like Python, extrapolated when n is 2).
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Nearest-rank percentile of an ascending-sorted slice: the sample at
/// 1-based rank `ceil(q × n)`, so `q = 0.99` over 1,100 samples is rank
/// 1,089 with eleven samples at or beyond it.  `None` when empty.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input not sorted");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// The 99th percentile, refused (`None`) under [`P99_MIN_SAMPLES`].
pub fn p99(sorted: &[u64]) -> Option<u64> {
    if sorted.len() < P99_MIN_SAMPLES {
        return None;
    }
    percentile(sorted, 0.99)
}

/// FNV-1a over a byte stream, fed incrementally.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one integer into the digest.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.5);
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn percentile_picks_the_documented_rank() {
        let v: Vec<u64> = (1..=1_100).collect();
        assert_eq!(percentile(&v, 0.50), Some(550));
        assert_eq!(percentile(&v, 0.99), Some(1_089));
        assert_eq!(percentile(&v, 1.0), Some(1_100));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn p99_is_refused_under_1100_samples() {
        let short: Vec<u64> = (0..1_099).collect();
        assert_eq!(p99(&short), None);
        let enough: Vec<u64> = (0..1_100).collect();
        assert_eq!(p99(&enough), Some(1_088));
    }

    #[test]
    fn fnv_is_order_sensitive() {
        let mut a = Fnv::default();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = Fnv::default();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
    }
}

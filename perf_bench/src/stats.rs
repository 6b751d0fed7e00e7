//! Exact summary statistics over raw samples, and the seeded generator the
//! workloads draw from.

/// The `p`-th percentile (0..=1) of an ascending-sorted slice by nearest
/// rank, `round((n - 1) * p)` — the rule the repository's own
/// `palaemon_telemetry::summary::percentile_sorted` uses. 0 when empty.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    palaemon_telemetry::summary::percentile_sorted(sorted, p)
}

/// Median of a float sample (mean of the middle pair when even). 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Largest minus smallest. 0 when empty.
pub fn range(values: &[f64]) -> f64 {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if values.is_empty() {
        0.0
    } else {
        hi - lo
    }
}

/// Median, 99th percentile and count of one latency class, in
/// microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencySummary {
    pub count: usize,
    pub p50_us: f64,
    pub p99_us: f64,
}

/// Summarises nanosecond samples (consumed: sorted in place).
pub fn summarise_ns(samples: &mut [u64]) -> LatencySummary {
    samples.sort_unstable();
    LatencySummary {
        count: samples.len(),
        p50_us: percentile_sorted(samples, 0.50) as f64 / 1e3,
        p99_us: percentile_sorted(samples, 0.99) as f64 / 1e3,
    }
}

/// SplitMix64: small, seedable, and the same on every platform, so a seed
/// names one op stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for sub-stream `lane` of `seed` (slots, schedules and
    /// fault plans each draw from their own lane).
    pub fn lane(seed: u64, lane: u64) -> Rng {
        let mut r = Rng(seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// FNV-1a over a byte stream: the op-sequence fingerprint.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    pub fn push(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&sorted, 0.0), 1);
        assert_eq!(percentile_sorted(&sorted, 0.50), 51); // round(99 * 0.5) = 50 -> 51
        assert_eq!(percentile_sorted(&sorted, 0.99), 99);
        assert_eq!(percentile_sorted(&sorted, 1.0), 100);
        assert_eq!(percentile_sorted(&[], 0.99), 0);
        assert_eq!(percentile_sorted(&[7], 0.99), 7);
    }

    #[test]
    fn summary_reports_microseconds_and_count() {
        let mut ns: Vec<u64> = (1..=1000).rev().map(|v| v * 1000).collect();
        let s = summarise_ns(&mut ns);
        assert_eq!(s.count, 1000);
        assert_eq!(s.p50_us, 501.0);
        assert_eq!(s.p99_us, 990.0);
        assert_eq!(summarise_ns(&mut []), LatencySummary::default());
    }

    #[test]
    fn median_and_range() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(range(&[3.0, 1.0, 2.5]), 2.0);
        assert_eq!(range(&[]), 0.0);
    }

    #[test]
    fn rng_is_a_function_of_its_seed_and_lane() {
        let a: Vec<u64> = {
            let mut r = Rng::lane(7, 3);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::lane(7, 3);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::lane(7, 4);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = Rng::lane(1, 0);
        assert!((0..1000).all(|_| r.below(10) < 10));
    }
}

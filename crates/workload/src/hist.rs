//! Log-bucket latency histogram (HdrHistogram-style, simplified).

use fastg_des::snap::SnapError;
use fastg_des::{snap_struct, SimTime};

/// Per-bucket growth factor: ~5 % relative quantile error.
const GROWTH: f64 = 1.05;
/// Smallest resolvable latency (1 µs).
const MIN_US: f64 = 1.0;
/// Number of buckets: covers up to ~“hours” at 5 % growth.
const BUCKETS: usize = 512;

/// A latency histogram with logarithmic buckets.
///
/// Records `SimTime` latencies and answers percentile queries with ≈5 %
/// relative error — the precision at which the paper reports tail
/// latencies.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum_us: u128,
    min: Option<SimTime>,
    max: SimTime,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum_us: 0,
            min: None,
            max: SimTime::ZERO,
        }
    }

    fn bucket_of(latency: SimTime) -> usize {
        let us = latency.as_micros() as f64;
        if us <= MIN_US {
            return 0;
        }
        let b = (us / MIN_US).ln() / GROWTH.ln();
        // f64→usize `as` saturates, and `b` is non-negative (us > MIN_US
        // was checked above, so the log ratio is positive).
        // fastg-lint: allow(no-lossy-cast)
        (b.floor() as usize).min(BUCKETS - 1)
    }

    /// Upper bound of bucket `i` in microseconds.
    fn bucket_upper_us(i: usize) -> f64 {
        MIN_US * GROWTH.powi(i32::try_from(i + 1).unwrap_or(i32::MAX))
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: SimTime) {
        self.counts[Self::bucket_of(latency)] += 1;
        self.count += 1;
        self.sum_us += u128::from(latency.as_micros());
        self.max = self.max.max(latency);
        self.min = Some(match self.min {
            Some(m) => m.min(latency),
            None => latency,
        });
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean latency, or zero when empty.
    pub fn mean(&self) -> SimTime {
        if self.count == 0 {
            SimTime::ZERO
        } else {
            let mean = self.sum_us / u128::from(self.count);
            SimTime::from_micros(u64::try_from(mean).unwrap_or(u64::MAX))
        }
    }

    /// Minimum recorded latency, or zero when empty.
    pub fn min(&self) -> SimTime {
        self.min.unwrap_or(SimTime::ZERO)
    }

    /// Maximum recorded latency.
    pub fn max(&self) -> SimTime {
        self.max
    }

    /// The `q`-quantile (`0.0 ..= 1.0`), e.g. `quantile(0.99)` for p99.
    /// Returns the bucket's upper bound (clamped to the observed max), or
    /// zero when empty.
    pub fn quantile(&self, q: f64) -> SimTime {
        debug_assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        if self.count == 0 {
            return SimTime::ZERO;
        }
        // f64→u64 `as` saturates, and the target is at least 1.0.
        // fastg-lint: allow(no-lossy-cast)
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                if i == BUCKETS - 1 {
                    // Overflow bucket: its upper bound is meaningless.
                    return self.max;
                }
                let upper = SimTime::from_micros_f64(Self::bucket_upper_us(i));
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// Fraction of samples at or below `threshold` (e.g. for SLO
    /// attainment), or 1.0 when empty.
    pub fn fraction_within(&self, threshold: SimTime) -> f64 {
        if self.count == 0 {
            return 1.0;
        }
        let cutoff = Self::bucket_of(threshold);
        let within: u64 = self.counts[..=cutoff].iter().sum();
        within as f64 / self.count as f64
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum_us += other.sum_us;
        self.max = self.max.max(other.max);
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
    }
}

snap_struct!(LatencyHistogram { counts, count, sum_us, min, max } check |h| {
    if h.counts.len() != BUCKETS {
        return Err(SnapError::new("histogram bucket count"));
    }
    // Checked: decoded bucket counts may sum past `u64::MAX`.
    if h.counts.iter().try_fold(0u64, |a, &c| a.checked_add(c)) != Some(h.count) {
        return Err(SnapError::new("histogram total"));
    }
    Ok(())
});

#[cfg(test)]
mod tests {
    use super::*;
    use fastg_des::snap::{Snap, SnapReader, SnapWriter};

    #[test]
    fn empty_histogram() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), SimTime::ZERO);
        assert_eq!(h.quantile(0.99), SimTime::ZERO);
        assert_eq!(h.fraction_within(SimTime::from_millis(1)), 1.0);
    }

    #[test]
    fn quantiles_within_bucket_error() {
        let mut h = LatencyHistogram::new();
        for i in 1..=1000u64 {
            h.record(SimTime::from_micros(i * 100)); // 0.1ms .. 100ms
        }
        let p50 = h.quantile(0.5).as_micros() as f64;
        let p99 = h.quantile(0.99).as_micros() as f64;
        assert!((p50 / 50_000.0 - 1.0).abs() < 0.08, "p50 = {p50}");
        assert!((p99 / 99_000.0 - 1.0).abs() < 0.08, "p99 = {p99}");
        assert_eq!(h.max(), SimTime::from_micros(100_000));
        assert_eq!(h.min(), SimTime::from_micros(100));
    }

    #[test]
    fn mean_is_exact() {
        let mut h = LatencyHistogram::new();
        h.record(SimTime::from_micros(100));
        h.record(SimTime::from_micros(300));
        assert_eq!(h.mean(), SimTime::from_micros(200));
    }

    #[test]
    fn fraction_within_threshold() {
        let mut h = LatencyHistogram::new();
        for _ in 0..90 {
            h.record(SimTime::from_millis(10));
        }
        for _ in 0..10 {
            h.record(SimTime::from_millis(1000));
        }
        let f = h.fraction_within(SimTime::from_millis(50));
        assert!((f - 0.9).abs() < 0.01, "f = {f}");
    }

    #[test]
    fn merge_combines() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(SimTime::from_micros(10));
        b.record(SimTime::from_micros(1_000_000));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), SimTime::from_micros(1_000_000));
        assert_eq!(a.min(), SimTime::from_micros(10));
    }

    #[test]
    fn max_clamps_quantile() {
        let mut h = LatencyHistogram::new();
        h.record(SimTime::from_micros(777));
        assert_eq!(h.quantile(1.0), SimTime::from_micros(777));
        assert_eq!(h.quantile(0.5), SimTime::from_micros(777));
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn bad_quantile_panics() {
        LatencyHistogram::new().quantile(1.5);
    }

    #[test]
    fn giant_latency_lands_in_last_bucket() {
        let mut h = LatencyHistogram::new();
        h.record(SimTime::from_secs(100_000));
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(0.5), SimTime::from_secs(100_000));
    }

    #[test]
    fn decode_rejects_overflowing_bucket_sum() {
        let mut counts = vec![0u64; BUCKETS];
        counts[0] = u64::MAX;
        counts[1] = 1;
        let mut w = SnapWriter::new();
        counts.snap(&mut w);
        w.u64(0); // the wrapped sum
        let bytes = w.finish();
        assert!(LatencyHistogram::unsnap(&mut SnapReader::new(&bytes)).is_err());
    }
}

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
///
/// Only the occupied bucket range is stored: a 10× latency spread spans
/// about 48 buckets, so a function's histogram stays a few hundred bytes
/// however many requests it serves, and never exceeds the full 512.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    /// Index of the first stored bucket.
    base: usize,
    /// Counts of buckets `base .. base + counts.len()`; every bucket
    /// outside that range is empty.
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
            base: 0,
            counts: Vec::new(),
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
        let b = Self::bucket_of(latency);
        // Widen the stored range to reach bucket `b`, in either direction.
        if self.counts.is_empty() {
            self.base = b;
            self.counts.push(0);
        } else if b < self.base {
            let gap = self.base - b;
            self.counts.resize(self.counts.len() + gap, 0);
            self.counts.rotate_right(gap);
            self.base = b;
        } else if b - self.base >= self.counts.len() {
            self.counts.resize(b - self.base + 1, 0);
        }
        self.counts[b - self.base] += 1;
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
        for (i, &c) in (self.base..).zip(&self.counts) {
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
}

snap_struct!(LatencyHistogram { base, counts, count, sum_us, min, max } check |h| {
    // Checked: a decoded `base` may sit anywhere up to `u64::MAX`.
    match h.base.checked_add(h.counts.len()) {
        Some(end) if end <= BUCKETS => {}
        _ => return Err(SnapError::new("histogram bucket range")),
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
    fn max_clamps_quantile() {
        let mut h = LatencyHistogram::new();
        h.record(SimTime::from_micros(777));
        assert_eq!(h.quantile(1.0), SimTime::from_micros(777));
        assert_eq!(h.quantile(0.5), SimTime::from_micros(777));
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "quantile out of range"))]
    fn bad_quantile_panics() {
        let mut h = LatencyHistogram::new();
        for ms in [1, 5, 20] {
            h.record(SimTime::from_millis(ms));
        }
        // Release builds clamp the quantile into [0, 1] instead.
        assert_eq!(h.quantile(1.5), h.quantile(1.0));
        assert_eq!(h.quantile(-0.5), h.quantile(0.0));
    }

    #[test]
    fn giant_latency_lands_in_last_bucket() {
        let mut h = LatencyHistogram::new();
        h.record(SimTime::from_secs(100_000));
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(0.5), SimTime::from_secs(100_000));
    }

    #[test]
    fn range_widens_both_ways() {
        let mut h = LatencyHistogram::new();
        h.record(SimTime::from_millis(10));
        assert_eq!(h.counts.len(), 1);
        h.record(SimTime::from_millis(100)); // upward
        h.record(SimTime::ZERO); // downward, to bucket 0
        assert_eq!(h.base, 0);
        assert_eq!(
            h.counts.len(),
            LatencyHistogram::bucket_of(SimTime::from_millis(100)) + 1
        );
        assert_eq!(h.counts.iter().sum::<u64>(), 3);
        // Two of the three samples lie at or below the 10 ms bucket.
        let to_10ms = LatencyHistogram::bucket_of(SimTime::from_millis(10)) + 1 - h.base;
        assert_eq!(h.counts[..to_10ms].iter().sum::<u64>(), 2);
    }

    /// A histogram encoding with the given stored range and total.
    fn encode(base: u64, counts: &[u64], count: u64) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.u64(base);
        counts.to_vec().snap(&mut w);
        w.u64(count);
        0u128.snap(&mut w);
        None::<SimTime>.snap(&mut w);
        SimTime::ZERO.snap(&mut w);
        w.finish()
    }

    fn decode(bytes: &[u8]) -> Result<LatencyHistogram, SnapError> {
        LatencyHistogram::unsnap(&mut SnapReader::new(bytes))
    }

    #[test]
    fn decode_accepts_a_full_range() {
        let h =
            decode(&encode(BUCKETS as u64 - 2, &[1, 1], 2)).expect("range ends at the last bucket");
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn decode_rejects_a_range_past_the_last_bucket() {
        let err = decode(&encode(BUCKETS as u64 - 1, &[1, 1], 2)).unwrap_err();
        assert_eq!(err.what, "histogram bucket range");
        // `base + len` would wrap without the checked add.
        let err = decode(&encode(u64::MAX, &[1], 1)).unwrap_err();
        assert_eq!(err.what, "histogram bucket range");
        let err = decode(&encode(u64::MAX - 1, &[1, 1, 1], 3)).unwrap_err();
        assert_eq!(err.what, "histogram bucket range");
    }

    #[test]
    fn decode_rejects_overflowing_bucket_sum() {
        let err = decode(&encode(0, &[u64::MAX, 1], 0)).unwrap_err(); // the wrapped sum
        assert_eq!(err.what, "histogram total");
    }
}

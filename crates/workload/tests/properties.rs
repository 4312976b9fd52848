//! Property tests for arrival processes and metrics.

use fastg_des::{SimTime, Snap, SnapWriter};
use fastg_workload::{ArrivalProcess, LatencyHistogram, SloTracker, WarmupCounter};
use proptest::prelude::*;

/// Every arrival of `p` in `[0, until)`, drawn through
/// [`ArrivalProcess::next_after`] as the engine's arrival chain draws them.
fn collect_until(p: &mut ArrivalProcess, until: SimTime) -> Vec<SimTime> {
    let mut out = Vec::new();
    let mut now = SimTime::ZERO;
    while let Some(t) = p.next_after(now).filter(|&t| t < until) {
        out.push(t);
        now = t;
    }
    out
}

proptest! {
    /// Arrival streams are strictly increasing for every process type.
    #[test]
    fn arrivals_strictly_increase(rate in 1.0f64..2_000.0, seed in 0u64..1_000) {
        let mut p = ArrivalProcess::poisson(rate, seed);
        let ts = collect_until(&mut p, SimTime::from_secs(2));
        for w in ts.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        let mut c = ArrivalProcess::constant(rate);
        let ts = collect_until(&mut c, SimTime::from_secs(2));
        for w in ts.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
    }

    /// Poisson arrival counts land near rate × duration (law of large
    /// numbers at 3-sigma).
    #[test]
    fn poisson_count_near_mean(rate in 20.0f64..500.0, seed in 0u64..50) {
        let secs = 20.0;
        let mut p = ArrivalProcess::poisson(rate, seed);
        let n = collect_until(&mut p, SimTime::from_secs_f64(secs)).len() as f64;
        let mean = rate * secs;
        let sigma = mean.sqrt();
        prop_assert!((n - mean).abs() < 4.0 * sigma, "n={n} mean={mean}");
    }

    /// Histogram quantiles are monotone in q and bounded by min/max.
    #[test]
    fn quantiles_monotone_and_bounded(samples in prop::collection::vec(1u64..10_000_000, 1..300)) {
        let mut h = LatencyHistogram::new();
        for &s in &samples {
            h.record(SimTime::from_micros(s));
        }
        let mut prev = SimTime::ZERO;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = h.quantile(q);
            prop_assert!(v >= prev, "quantiles must be monotone");
            prop_assert!(v <= h.max());
            prev = v;
        }
        prop_assert!(h.quantile(1.0) == h.max());
    }

    /// Histogram quantile error stays within the 5 % bucket growth (plus
    /// one bucket) against the exact empirical quantile.
    #[test]
    fn quantile_relative_error(samples in prop::collection::vec(100u64..1_000_000, 20..300)) {
        let mut h = LatencyHistogram::new();
        for &s in &samples {
            h.record(SimTime::from_micros(s));
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.5, 0.9, 0.99] {
            let idx = (((sorted.len() as f64) * q).ceil() as usize).max(1) - 1;
            let exact = sorted[idx] as f64;
            let approx = h.quantile(q).as_micros() as f64;
            let rel = (approx - exact).abs() / exact;
            prop_assert!(rel < 0.12, "q={q}: approx {approx} vs exact {exact}");
        }
    }

    /// SLO tracker: violations + within == total, ratio in [0, 1].
    #[test]
    fn slo_accounting(samples in prop::collection::vec(1u64..200_000, 1..200), slo_us in 1_000u64..150_000) {
        let mut t = SloTracker::new(SimTime::from_micros(slo_us));
        for &s in &samples {
            t.record(SimTime::from_micros(s));
        }
        let exact = samples.iter().filter(|&&s| s > slo_us).count() as u64;
        prop_assert_eq!(t.violations(), exact);
        prop_assert_eq!(t.total(), samples.len() as u64);
        prop_assert!((0.0..=1.0).contains(&t.violation_ratio()));
    }

}

/// The dense layout `LatencyHistogram` stored before it kept only its
/// occupied bucket range: one count for each of all 512 buckets. The
/// bucket constants repeat `hist.rs`'s.
struct DenseHistogram {
    counts: Vec<u64>,
    count: u64,
    sum_us: u128,
    min: Option<SimTime>,
    max: SimTime,
}

impl DenseHistogram {
    const GROWTH: f64 = 1.05;
    const BUCKETS: usize = 512;

    fn new() -> Self {
        DenseHistogram {
            counts: vec![0; Self::BUCKETS],
            count: 0,
            sum_us: 0,
            min: None,
            max: SimTime::ZERO,
        }
    }

    fn bucket_of(latency: SimTime) -> usize {
        let us = latency.as_micros() as f64;
        if us <= 1.0 {
            return 0;
        }
        ((us.ln() / Self::GROWTH.ln()).floor() as usize).min(Self::BUCKETS - 1)
    }

    fn record(&mut self, latency: SimTime) {
        self.counts[Self::bucket_of(latency)] += 1;
        self.count += 1;
        self.sum_us += u128::from(latency.as_micros());
        self.max = self.max.max(latency);
        self.min = Some(self.min.map_or(latency, |m| m.min(latency)));
    }

    fn mean(&self) -> SimTime {
        if self.count == 0 {
            return SimTime::ZERO;
        }
        SimTime::from_micros(u64::try_from(self.sum_us / u128::from(self.count)).unwrap())
    }

    fn quantile(&self, q: f64) -> SimTime {
        if self.count == 0 {
            return SimTime::ZERO;
        }
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                if i == Self::BUCKETS - 1 {
                    return self.max;
                }
                let upper = Self::GROWTH.powi(i32::try_from(i + 1).unwrap());
                return SimTime::from_micros_f64(upper).min(self.max);
            }
        }
        self.max
    }

}

/// Latencies from 0 µs to past the last bucket (1.05^511 µs ≈ 18.6 h),
/// in arbitrary order so the stored range widens in both directions.
fn latency_us() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        0u64..4,
        4u64..100_000,
        100_000u64..10_000_000,
        60_000_000_000u64..200_000_000_000,
    ]
}

/// Event times as non-decreasing µs: zero gaps repeat an instant.
fn record_times() -> impl Strategy<Value = Vec<u64>> {
    let gap = prop_oneof![Just(0u64), 0u64..1_000, 0u64..2_000_000];
    prop::collection::vec(gap, 0..120).prop_map(|gaps| {
        gaps.iter()
            .scan(0u64, |t, &g| {
                *t += g;
                Some(*t)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The range-compact histogram answers every query exactly as the
    /// dense 512-bucket layout does.
    #[test]
    fn range_histogram_matches_dense_reference(
        samples in prop::collection::vec(latency_us(), 0..60),
        q in 0.0f64..=1.0,
        descending in any::<bool>(),
    ) {
        let mut samples = samples;
        if descending {
            // Every record below the first widens the range downward.
            samples.sort_unstable_by(|a, b| b.cmp(a));
        }
        let mut h = LatencyHistogram::new();
        let mut dense = DenseHistogram::new();
        for &us in &samples {
            h.record(SimTime::from_micros(us));
            dense.record(SimTime::from_micros(us));
        }
        prop_assert_eq!(h.count(), dense.count);
        prop_assert_eq!(h.mean(), dense.mean());
        prop_assert_eq!(h.min(), dense.min.unwrap_or(SimTime::ZERO));
        prop_assert_eq!(h.max(), dense.max);
        let grid = [0.0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0];
        for q in grid.into_iter().chain([q]) {
            prop_assert_eq!(h.quantile(q), dense.quantile(q), "q = {}", q);
        }
    }

    /// The warm-up counter's rate is the brute-force count of the records
    /// in `[warmup, now)` over the span, bit for bit, for `now` at the last
    /// record and past it.
    #[test]
    fn warmup_counter_matches_a_brute_force_count(
        times in record_times(),
        pick in 0u8..4,
        idx in 0usize..1_000,
        offset in 0u64..3_000_000,
        past in prop_oneof![Just(0u64), 1u64..3_000_000],
    ) {
        let last = times.last().copied().unwrap_or(0);
        let warmup = SimTime::from_micros(match pick {
            0 => 0,
            1 if !times.is_empty() => times[idx % times.len()], // a record instant
            2 => last + 1 + offset, // past the last record
            _ => offset,
        });
        let mut counter = WarmupCounter::new();
        let check = |counter: &WarmupCounter, recorded: &[SimTime], now: SimTime| {
            prop_assert_eq!(counter.count(), recorded.len() as u64);
            let span = now.saturating_sub(warmup).as_secs_f64();
            let in_window = recorded.iter().filter(|&&t| warmup <= t && t < now).count();
            let rate = if span <= 0.0 { 0.0 } else { in_window as f64 / span };
            prop_assert_eq!(
                counter.rate_since(warmup, now).to_bits(),
                rate.to_bits(),
                "warmup {:?}, now {:?}", warmup, now
            );
            Ok(())
        };
        let mut recorded = Vec::new();
        check(&counter, &recorded, SimTime::from_micros(past))?;
        for &t in &times {
            let t = SimTime::from_micros(t);
            counter.record(t, warmup);
            recorded.push(t);
            check(&counter, &recorded, t)?;
            check(&counter, &recorded, t + SimTime::from_micros(past))?;
        }
        prop_assert!(counter.fits_warmup(warmup));
    }
}

/// A function's SLO state does not grow with the requests it serves: fed
/// 1,000 and then 100,000 samples cycling through one latency
/// distribution, the tracker encodes to the same size.
#[test]
fn slo_tracker_encoding_is_bounded() {
    let latency = |i: u64| SimTime::from_micros(2_000 + (i * 7_919) % 1_000 * 18);
    let encoded_len = |t: &SloTracker| {
        let mut w = SnapWriter::new();
        t.snap(&mut w);
        w.finish().len()
    };
    let mut t = SloTracker::new(SimTime::from_millis(69));
    for i in 0..1_000 {
        t.record(latency(i));
    }
    let small = encoded_len(&t);
    for i in 1_000..100_000 {
        t.record(latency(i));
    }
    assert_eq!(t.total(), 100_000);
    assert_eq!(encoded_len(&t), small);
    // About 48 buckets of a 10× spread, not the full 512.
    assert!(small < 1_000, "{small} bytes");
}

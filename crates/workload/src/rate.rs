//! Throughput measurement and arrival-rate prediction.

use fastg_des::snap::{Snap, SnapError, SnapReader, SnapWriter};
use fastg_des::SimTime;
use std::collections::VecDeque;

/// One run-length-encoded stretch of evenly spaced timestamps:
/// `start, start+gap, …, start+(count−1)×gap` (all in microseconds).
#[derive(Debug, Clone, Copy)]
struct Run {
    start_us: u64,
    gap_us: u64,
    count: u64,
}

impl Run {
    fn last_us(&self) -> u64 {
        self.start_us + self.gap_us * (self.count - 1)
    }

    /// How many of this run's timestamps are strictly before `x` µs.
    fn count_before(&self, x_us: u64) -> u64 {
        if x_us <= self.start_us {
            0
        } else if self.gap_us == 0 {
            self.count
        } else {
            self.count.min((x_us - self.start_us).div_ceil(self.gap_us))
        }
    }
}

/// Measures achieved throughput by recording event timestamps and counting
/// them over windows.
///
/// Timestamps are stored run-length encoded: evenly spaced stretches (the
/// shape every constant-rate load produces) collapse to one
/// `(start, gap, count)` triple, so memory stays O(rate changes) instead of
/// O(events) — the difference between 10⁸ arrivals fitting in RAM or not.
/// Counting queries stay exact.
#[derive(Debug, Clone, Default)]
pub struct RateMeter {
    runs: Vec<Run>,
    total: u64,
}

impl RateMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one event (e.g. a completed request) at `now`. Events must
    /// be recorded in non-decreasing time order.
    pub fn record(&mut self, now: SimTime) {
        let now_us = now.as_micros();
        debug_assert!(self.runs.last().map_or(true, |r| r.last_us() <= now_us));
        self.total += 1;
        if let Some(r) = self.runs.last_mut() {
            if r.count == 1 && now_us >= r.start_us {
                r.gap_us = now_us - r.start_us;
                r.count = 2;
                return;
            }
            if now_us.checked_sub(r.last_us()) == Some(r.gap_us) {
                r.count += 1;
                return;
            }
        }
        self.runs.push(Run {
            start_us: now_us,
            gap_us: 0,
            count: 1,
        });
    }

    /// Total events recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Events strictly before `to`.
    fn count_before(&self, to: SimTime) -> u64 {
        let x_us = to.as_micros();
        let mut n = 0;
        for r in &self.runs {
            if x_us <= r.start_us {
                break;
            }
            n += r.count_before(x_us);
        }
        n
    }

    /// Events in `[from, to)`.
    pub fn count_between(&self, from: SimTime, to: SimTime) -> u64 {
        if to <= from {
            return 0;
        }
        self.count_before(to) - self.count_before(from)
    }

    /// Mean rate (events/second) over `[from, to)`; zero for an empty
    /// window.
    pub fn rate_between(&self, from: SimTime, to: SimTime) -> f64 {
        let span = to.saturating_sub(from).as_secs_f64();
        if span <= 0.0 {
            0.0
        } else {
            self.count_between(from, to) as f64 / span
        }
    }
}

impl Snap for Run {
    fn snap(&self, w: &mut SnapWriter) {
        let Self {
            start_us,
            gap_us,
            count,
        } = self;
        w.u64(*start_us);
        w.u64(*gap_us);
        w.u64(*count);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Run {
            start_us: r.u64()?,
            gap_us: r.u64()?,
            count: r.u64()?,
        })
    }
}

impl Snap for RateMeter {
    fn snap(&self, w: &mut SnapWriter) {
        let Self { runs, total } = self;
        runs.snap(w);
        w.u64(*total);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let runs: Vec<Run> = Vec::unsnap(r)?;
        let total = r.u64()?;
        let sum: u64 = runs.iter().map(|run| run.count).sum();
        if sum != total {
            return Err(SnapError::new("rate meter total"));
        }
        Ok(RateMeter { runs, total })
    }
}

impl Snap for RateEstimator {
    fn snap(&self, w: &mut SnapWriter) {
        let Self {
            window,
            alpha,
            recent,
            smoothed,
            last_update,
        } = self;
        window.snap(w);
        alpha.snap(w);
        recent.snap(w);
        smoothed.snap(w);
        last_update.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(RateEstimator {
            window: SimTime::unsnap(r)?,
            alpha: f64::unsnap(r)?,
            recent: VecDeque::unsnap(r)?,
            smoothed: Option::unsnap(r)?,
            last_update: SimTime::unsnap(r)?,
        })
    }
}

/// Predicts the near-future request rate from recent arrivals — the
/// gateway-side signal `R_j` the Heuristic Scaling Algorithm consumes.
///
/// Maintains a sliding window of arrival timestamps and exponentially
/// smooths per-interval counts: robust to Poisson noise while still
/// tracking ramps within a few control intervals.
#[derive(Debug, Clone)]
pub struct RateEstimator {
    window: SimTime,
    alpha: f64,
    recent: VecDeque<SimTime>,
    smoothed: Option<f64>,
    last_update: SimTime,
}

impl RateEstimator {
    /// Creates an estimator with a sliding `window` and EWMA factor
    /// `alpha` (0 < alpha ≤ 1; higher reacts faster).
    pub fn new(window: SimTime, alpha: f64) -> Self {
        debug_assert!(window > SimTime::ZERO, "zero estimator window");
        debug_assert!((0.0..=1.0).contains(&alpha) && alpha > 0.0, "bad alpha {alpha}");
        let window = window.max(SimTime::from_micros(1));
        let alpha = if alpha.is_finite() && alpha > 0.0 { alpha.min(1.0) } else { 1.0 };
        RateEstimator {
            window,
            alpha,
            recent: VecDeque::new(),
            smoothed: None,
            last_update: SimTime::ZERO,
        }
    }

    /// Records one request arrival.
    pub fn on_arrival(&mut self, now: SimTime) {
        self.recent.push_back(now);
        self.evict(now);
    }

    /// Updates the smoothed estimate; call once per control interval.
    /// Returns the current prediction (requests/second).
    pub fn tick(&mut self, now: SimTime) -> f64 {
        self.evict(now);
        let instantaneous = self.recent.len() as f64 / self.window.as_secs_f64();
        let s = match self.smoothed {
            Some(prev) => prev + self.alpha * (instantaneous - prev),
            None => instantaneous,
        };
        self.smoothed = Some(s);
        self.last_update = now;
        s
    }

    /// The most recent prediction without updating (zero before any tick).
    pub fn predicted(&self) -> f64 {
        self.smoothed.unwrap_or(0.0)
    }

    fn evict(&mut self, now: SimTime) {
        let cutoff = now.saturating_sub(self.window);
        while self.recent.front().is_some_and(|&t| t < cutoff) {
            self.recent.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_counts_windows() {
        let mut m = RateMeter::new();
        for i in 0..100 {
            m.record(SimTime::from_millis(i * 10)); // 100 events over 1s
        }
        assert_eq!(m.count(), 100);
        assert_eq!(
            m.count_between(SimTime::ZERO, SimTime::from_millis(500)),
            50
        );
        let r = m.rate_between(SimTime::ZERO, SimTime::from_secs(1));
        assert!((r - 100.0).abs() < 1e-9);
        assert_eq!(m.rate_between(SimTime::from_secs(5), SimTime::from_secs(5)), 0.0);
    }

    #[test]
    fn rle_meter_matches_pointwise_recording() {
        // Irregular spacings, repeats, and regime changes all count
        // exactly as a flat Vec<SimTime> would.
        let ts: Vec<u64> = vec![0, 0, 3, 6, 9, 9, 9, 14, 15, 16, 17, 40, 41];
        let mut m = RateMeter::new();
        for &t in &ts {
            m.record(SimTime::from_micros(t));
        }
        assert_eq!(m.count(), ts.len() as u64);
        for from in 0..45u64 {
            for to in from..46u64 {
                let expect = ts.iter().filter(|&&t| t >= from && t < to).count() as u64;
                let got = m.count_between(SimTime::from_micros(from), SimTime::from_micros(to));
                assert_eq!(got, expect, "window [{from},{to})");
            }
        }
    }

    #[test]
    fn estimator_converges_to_steady_rate() {
        let mut e = RateEstimator::new(SimTime::from_secs(2), 0.5);
        // 50 rps for 10 seconds, tick each second.
        let mut predicted = 0.0;
        for s in 0..10u64 {
            for i in 0..50u64 {
                e.on_arrival(SimTime::from_secs(s) + SimTime::from_millis(i * 20));
            }
            predicted = e.tick(SimTime::from_secs(s + 1));
        }
        assert!((predicted - 50.0).abs() < 5.0, "predicted {predicted}");
    }

    #[test]
    fn estimator_tracks_rate_drop() {
        let mut e = RateEstimator::new(SimTime::from_secs(1), 0.7);
        for i in 0..100u64 {
            e.on_arrival(SimTime::from_millis(i * 10));
        }
        e.tick(SimTime::from_secs(1));
        assert!(e.predicted() > 50.0);
        // Silence for several intervals.
        for s in 2..8u64 {
            e.tick(SimTime::from_secs(s));
        }
        assert!(e.predicted() < 2.0, "predicted {}", e.predicted());
    }

    #[test]
    fn estimator_starts_at_observed_rate() {
        let mut e = RateEstimator::new(SimTime::from_secs(1), 0.1);
        for i in 0..30u64 {
            e.on_arrival(SimTime::from_millis(500 + i));
        }
        // First tick snaps straight to the instantaneous value.
        let p = e.tick(SimTime::from_secs(1));
        assert!((p - 30.0).abs() < 1e-9, "p = {p}");
    }

    #[test]
    #[should_panic(expected = "zero estimator window")]
    fn zero_window_rejected() {
        RateEstimator::new(SimTime::ZERO, 0.5);
    }
}

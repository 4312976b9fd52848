//! Interval statistics: time-weighted integrators and sampled series.

use crate::snap::{Snap, SnapError, SnapReader, SnapWriter};
use crate::time::SimTime;

/// Integrates a piecewise-constant signal over simulated time.
///
/// Used for SM occupancy: the number of busy SMs is piecewise constant
/// between events; `TimeWeighted` accumulates `value × dt` so the mean over
/// any window is `integral / elapsed`.
///
/// The running integral is kept in `value × microseconds` units and only
/// converted to seconds at read time. For integer-valued signals (SM
/// counts) every accumulated term is then an exact integer in `f64`
/// (products stay far below 2⁵³), which makes the sum associative — the
/// property device fast-forward relies on when it merges same-instant
/// boundaries and still lands bit-identical to per-kernel accumulation.
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    value: f64,
    last_change: SimTime,
    /// Σ value × dt, with dt in microseconds.
    integral_us: f64,
    started: SimTime,
}

impl TimeWeighted {
    /// Starts integrating `initial` at time `start`.
    pub fn new(start: SimTime, initial: f64) -> Self {
        TimeWeighted {
            value: initial,
            last_change: start,
            integral_us: 0.0,
            started: start,
        }
    }

    /// Updates the signal to `value` at time `now`.
    pub fn set(&mut self, now: SimTime, value: f64) {
        self.accumulate(now);
        self.value = value;
    }

    /// Adds `delta` to the signal at time `now`.
    pub fn add(&mut self, now: SimTime, delta: f64) {
        self.accumulate(now);
        self.value += delta;
    }

    /// The current instantaneous value.
    pub fn current(&self) -> f64 {
        self.value
    }

    /// The integral of the signal from the start through `now`, in
    /// `value × seconds` units.
    pub fn integral_at(&self, now: SimTime) -> f64 {
        // u64→f64: dt is far below 2^53 µs (≈ 285 simulated years).
        // fastg-lint: allow(no-lossy-cast)
        let dt = now.saturating_sub(self.last_change).as_micros() as f64;
        (self.integral_us + self.value * dt) / 1e6
    }

    /// The time-weighted mean of the signal from the start through `now`.
    /// Returns zero for an empty interval.
    pub fn mean_at(&self, now: SimTime) -> f64 {
        let elapsed = now.saturating_sub(self.started).as_secs_f64();
        if elapsed <= 0.0 {
            0.0
        } else {
            self.integral_at(now) / elapsed
        }
    }

    /// Resets the integration window to start at `now`, keeping the current
    /// instantaneous value.
    pub fn reset(&mut self, now: SimTime) {
        self.accumulate(now);
        self.integral_us = 0.0;
        self.started = now;
        self.last_change = now;
    }

    fn accumulate(&mut self, now: SimTime) {
        // u64→f64: dt is far below 2^53 µs (≈ 285 simulated years).
        // fastg-lint: allow(no-lossy-cast)
        let dt = now.saturating_sub(self.last_change).as_micros() as f64;
        self.integral_us += self.value * dt;
        self.last_change = self.last_change.max(now);
    }
}

impl Snap for TimeWeighted {
    fn snap(&self, w: &mut SnapWriter) {
        let Self {
            value,
            last_change,
            integral_us,
            started,
        } = self;
        value.snap(w);
        last_change.snap(w);
        integral_us.snap(w);
        started.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(TimeWeighted {
            value: f64::unsnap(r)?,
            last_change: SimTime::unsnap(r)?,
            integral_us: f64::unsnap(r)?,
            started: SimTime::unsnap(r)?,
        })
    }
}

/// Tracks intervals during which a resource is busy (value > 0).
///
/// This is the nvidia-smi notion of "GPU utilization": the fraction of
/// wall-clock time during which at least one kernel was resident, regardless
/// of how many SMs it used.
#[derive(Debug, Clone)]
pub struct BusyTracker {
    active: u32,
    busy_since: Option<SimTime>,
    busy_total: SimTime,
    started: SimTime,
}

impl BusyTracker {
    /// Starts tracking at `start`, initially idle.
    pub fn new(start: SimTime) -> Self {
        BusyTracker {
            active: 0,
            busy_since: None,
            busy_total: SimTime::ZERO,
            started: start,
        }
    }

    /// Marks one more concurrent activity beginning at `now`.
    pub fn begin(&mut self, now: SimTime) {
        if self.active == 0 {
            self.busy_since = Some(now);
        }
        self.active += 1;
    }

    /// Marks one concurrent activity ending at `now`. An unmatched `end`
    /// (no activity in progress) is ignored so a stray completion event
    /// cannot corrupt the busy accounting.
    pub fn end(&mut self, now: SimTime) {
        debug_assert!(self.active > 0, "BusyTracker::end with no active work");
        if self.active == 0 {
            return;
        }
        self.active -= 1;
        if self.active == 0 {
            if let Some(since) = self.busy_since.take() {
                self.busy_total += now.saturating_sub(since);
            } else {
                debug_assert!(false, "busy interval open");
            }
        }
    }

    /// Number of concurrently tracked activities.
    pub fn active(&self) -> u32 {
        self.active
    }

    /// Total busy time accumulated through `now`.
    pub fn busy_at(&self, now: SimTime) -> SimTime {
        match self.busy_since {
            Some(since) => self.busy_total + now.saturating_sub(since),
            None => self.busy_total,
        }
    }

    /// Busy fraction (0..=1) of the window from the start through `now`.
    pub fn utilization_at(&self, now: SimTime) -> f64 {
        let elapsed = now.saturating_sub(self.started).as_secs_f64();
        if elapsed <= 0.0 {
            0.0
        } else {
            self.busy_at(now).as_secs_f64() / elapsed
        }
    }

    /// Restarts the measurement window at `now`, preserving in-progress
    /// activity.
    pub fn reset(&mut self, now: SimTime) {
        self.busy_total = SimTime::ZERO;
        self.started = now;
        if self.active > 0 {
            self.busy_since = Some(now);
        }
    }
}

impl Snap for BusyTracker {
    fn snap(&self, w: &mut SnapWriter) {
        let Self {
            active,
            busy_since,
            busy_total,
            started,
        } = self;
        active.snap(w);
        busy_since.snap(w);
        busy_total.snap(w);
        started.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(BusyTracker {
            active: u32::unsnap(r)?,
            busy_since: Option::<SimTime>::unsnap(r)?,
            busy_total: SimTime::unsnap(r)?,
            started: SimTime::unsnap(r)?,
        })
    }
}

/// A recorded series of `(time, value)` samples, e.g. the per-second GPU
/// utilization exported by DCGM.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    /// Appends a sample. Samples must be appended in non-decreasing time
    /// order.
    pub fn push(&mut self, at: SimTime, value: f64) {
        debug_assert!(
            self.points.last().map_or(true, |&(t, _)| t <= at),
            "TimeSeries samples must be time-ordered"
        );
        self.points.push((at, value));
    }

    /// All samples, in order.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Arithmetic mean of the sample values (unweighted).
    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64
    }

    /// Maximum sample value, or zero when empty.
    pub fn max(&self) -> f64 {
        self.points.iter().map(|&(_, v)| v).fold(0.0, f64::max)
    }

    /// Mean of the samples falling in `[from, to)`.
    pub fn mean_between(&self, from: SimTime, to: SimTime) -> f64 {
        let vals: Vec<f64> = self
            .points
            .iter()
            .filter(|&&(t, _)| t >= from && t < to)
            .map(|&(_, v)| v)
            .collect();
        if vals.is_empty() {
            0.0
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    }
}

impl Snap for TimeSeries {
    fn snap(&self, w: &mut SnapWriter) {
        let Self { points } = self;
        points.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(TimeSeries {
            points: Vec::unsnap(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_weighted_mean() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
        tw.set(SimTime::from_secs(1), 10.0); // 0 for 1s
        tw.set(SimTime::from_secs(3), 0.0); // 10 for 2s
        let mean = tw.mean_at(SimTime::from_secs(4)); // 0 for 1s more
        assert!((mean - 5.0).abs() < 1e-9, "mean = {mean}");
        assert!((tw.integral_at(SimTime::from_secs(4)) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn time_weighted_add_and_reset() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 1.0);
        tw.add(SimTime::from_secs(2), 3.0); // value 1 for 2s -> integral 2
        assert_eq!(tw.current(), 4.0);
        tw.reset(SimTime::from_secs(2));
        assert_eq!(tw.integral_at(SimTime::from_secs(2)), 0.0);
        // After reset, value 4 for 1s.
        assert!((tw.mean_at(SimTime::from_secs(3)) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn busy_tracker_overlapping_intervals() {
        let mut b = BusyTracker::new(SimTime::ZERO);
        b.begin(SimTime::from_secs(1));
        b.begin(SimTime::from_secs(2)); // overlap should not double count
        b.end(SimTime::from_secs(3));
        b.end(SimTime::from_secs(4));
        // Busy from 1..4 = 3s over a 5s window.
        assert!((b.utilization_at(SimTime::from_secs(5)) - 0.6).abs() < 1e-9);
        assert_eq!(b.active(), 0);
    }

    #[test]
    fn busy_tracker_open_interval_counts() {
        let mut b = BusyTracker::new(SimTime::ZERO);
        b.begin(SimTime::from_secs(1));
        assert_eq!(b.busy_at(SimTime::from_secs(3)), SimTime::from_secs(2));
        assert!((b.utilization_at(SimTime::from_secs(4)) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn busy_tracker_reset_preserves_active() {
        let mut b = BusyTracker::new(SimTime::ZERO);
        b.begin(SimTime::from_secs(1));
        b.reset(SimTime::from_secs(2));
        // Still busy after reset; busy 2..3 over window 2..4 = 50 %.
        b.end(SimTime::from_secs(3));
        assert!((b.utilization_at(SimTime::from_secs(4)) - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "no active work")]
    fn busy_tracker_unbalanced_end_panics() {
        let mut b = BusyTracker::new(SimTime::ZERO);
        b.end(SimTime::from_secs(1));
    }

    #[test]
    fn series_stats() {
        let mut s = TimeSeries::new();
        s.push(SimTime::from_secs(0), 1.0);
        s.push(SimTime::from_secs(1), 3.0);
        s.push(SimTime::from_secs(2), 5.0);
        assert_eq!(s.len(), 3);
        assert!((s.mean() - 3.0).abs() < 1e-9);
        assert_eq!(s.max(), 5.0);
        assert!((s.mean_between(SimTime::from_secs(1), SimTime::from_secs(3)) - 4.0).abs() < 1e-9);
        assert_eq!(s.mean_between(SimTime::from_secs(10), SimTime::from_secs(20)), 0.0);
    }
}

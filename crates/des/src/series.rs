//! Interval statistics: busy-interval tracking and sampled series.

use crate::snap_struct;
use crate::time::SimTime;

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

    /// Length of the window from the start through `now`.
    pub fn elapsed_at(&self, now: SimTime) -> SimTime {
        now.saturating_sub(self.started)
    }

    /// Busy fraction (0..=1) of the window from the start through `now`.
    pub fn utilization_at(&self, now: SimTime) -> f64 {
        let elapsed = self.elapsed_at(now).as_secs_f64();
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

snap_struct!(BusyTracker {
    active,
    busy_since,
    busy_total,
    started,
});

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

}

snap_struct!(TimeSeries { points });

#[cfg(test)]
mod tests {
    use super::*;

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

    // The panic is a `debug_assert!`: release builds skip the check.
    #[cfg(debug_assertions)]
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
    }
}

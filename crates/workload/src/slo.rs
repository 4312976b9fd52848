//! Service-level-objective accounting.

use crate::hist::LatencyHistogram;
use fastg_des::snap::{Snap, SnapError, SnapReader, SnapWriter};
use fastg_des::SimTime;

/// Tracks request latencies against a latency SLO (e.g. the paper's 69 ms
/// ResNet objective) and reports the violation ratio.
#[derive(Debug, Clone)]
pub struct SloTracker {
    slo: SimTime,
    histogram: LatencyHistogram,
    violations: u64,
}

impl SloTracker {
    /// Creates a tracker for the given latency objective.
    pub fn new(slo: SimTime) -> Self {
        debug_assert!(slo > SimTime::ZERO, "zero SLO");
        let slo = slo.max(SimTime::from_micros(1));
        SloTracker {
            slo,
            histogram: LatencyHistogram::new(),
            violations: 0,
        }
    }

    /// The objective.
    pub fn slo(&self) -> SimTime {
        self.slo
    }

    /// Records a completed request's latency.
    pub fn record(&mut self, latency: SimTime) {
        if latency > self.slo {
            self.violations += 1;
        }
        self.histogram.record(latency);
    }

    /// Requests observed.
    pub fn total(&self) -> u64 {
        self.histogram.count()
    }

    /// Requests that exceeded the SLO.
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Violation ratio in `[0, 1]`; zero when no requests were observed.
    pub fn violation_ratio(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.violations as f64 / total as f64
        }
    }

    /// Whether the violation ratio is at or below `budget`
    /// (the paper requires < 1 %: `meets(0.01)`).
    pub fn meets(&self, budget: f64) -> bool {
        self.violation_ratio() <= budget
    }

    /// The underlying latency histogram.
    pub fn histogram(&self) -> &LatencyHistogram {
        &self.histogram
    }
}

impl Snap for SloTracker {
    fn snap(&self, w: &mut SnapWriter) {
        let Self {
            slo,
            histogram,
            violations,
        } = self;
        slo.snap(w);
        histogram.snap(w);
        w.u64(*violations);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let slo = SimTime::unsnap(r)?;
        let histogram = LatencyHistogram::unsnap(r)?;
        let violations = r.u64()?;
        if violations > histogram.count() {
            return Err(SnapError::new("slo violations"));
        }
        Ok(SloTracker {
            slo,
            histogram,
            violations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_violations_exactly() {
        let mut t = SloTracker::new(SimTime::from_millis(69));
        for _ in 0..99 {
            t.record(SimTime::from_millis(50));
        }
        t.record(SimTime::from_millis(100));
        assert_eq!(t.total(), 100);
        assert_eq!(t.violations(), 1);
        assert!((t.violation_ratio() - 0.01).abs() < 1e-12);
        assert!(t.meets(0.01));
        assert!(!t.meets(0.005));
    }

    #[test]
    fn exactly_at_slo_is_not_a_violation() {
        let mut t = SloTracker::new(SimTime::from_millis(10));
        t.record(SimTime::from_millis(10));
        assert_eq!(t.violations(), 0);
        t.record(SimTime::from_micros(10_001));
        assert_eq!(t.violations(), 1);
    }

    #[test]
    fn empty_tracker_meets_everything() {
        let t = SloTracker::new(SimTime::from_millis(1));
        assert_eq!(t.violation_ratio(), 0.0);
        assert!(t.meets(0.0));
    }

    #[test]
    #[should_panic(expected = "zero SLO")]
    fn zero_slo_rejected() {
        SloTracker::new(SimTime::ZERO);
    }
}

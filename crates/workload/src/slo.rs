//! Service-level-objective accounting.

use crate::hist::LatencyHistogram;
use fastg_des::snap::SnapError;
use fastg_des::{snap_struct, SimTime};

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

    /// The underlying latency histogram.
    pub fn histogram(&self) -> &LatencyHistogram {
        &self.histogram
    }
}

snap_struct!(SloTracker { slo, histogram, violations } check |t| {
    if t.violations > t.histogram.count() {
        return Err(SnapError::new("slo violations"));
    }
    Ok(())
});

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
        assert!(t.violation_ratio() <= 0.01);
        assert!(t.violation_ratio() > 0.005);
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
        assert!(t.violation_ratio() <= 0.0);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "zero SLO"))]
    fn zero_slo_rejected() {
        // Release builds raise the SLO to one microsecond instead.
        assert_eq!(SloTracker::new(SimTime::ZERO).slo(), SimTime::from_micros(1));
    }
}

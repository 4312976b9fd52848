//! Exponentially weighted duration estimate. The overload control plane
//! keeps one per function (`FuncRt::service_est` in the platform engine):
//! each completion feeds it the request's service time, and
//! deadline-aware shedding drops queued requests whose deadline the
//! smoothed mean says cannot be met.

use fastg_des::snap::SnapError;
use fastg_des::{snap_struct, SimTime};

/// Exponentially weighted moving average of a duration (Gemini's
/// kernel-burst smoothing, applied to request service times).
#[derive(Debug, Clone, Copy)]
pub struct BurstEstimator {
    alpha: f64,
    mean_us: f64,
    observations: u64,
}

impl BurstEstimator {
    /// Creates an estimator with smoothing factor `alpha` (0 < alpha ≤ 1).
    pub fn new(alpha: f64) -> Self {
        debug_assert!(alpha > 0.0 && alpha <= 1.0, "bad alpha {alpha}");
        let alpha = if alpha.is_finite() && alpha > 0.0 { alpha.min(1.0) } else { 1.0 };
        BurstEstimator {
            alpha,
            mean_us: 0.0,
            observations: 0,
        }
    }

    /// Default smoothing used by the platform.
    pub fn default_alpha() -> f64 {
        0.25
    }

    /// Records one observed duration.
    pub fn observe(&mut self, duration: SimTime) {
        let x = duration.as_micros() as f64;
        if self.observations == 0 {
            self.mean_us = x;
        } else {
            self.mean_us += self.alpha * (x - self.mean_us);
        }
        self.observations += 1;
    }

    /// The smoothed mean, or `None` before any observation.
    pub fn mean(&self) -> Option<SimTime> {
        if self.observations == 0 {
            None
        } else {
            Some(SimTime::from_micros_f64(self.mean_us))
        }
    }

    /// Number of durations observed.
    pub fn observations(&self) -> u64 {
        self.observations
    }
}

snap_struct!(BurstEstimator { alpha, mean_us, observations } check |e| {
    if !(e.alpha.is_finite() && e.alpha > 0.0 && e.alpha <= 1.0) {
        return Err(SnapError::new("estimator alpha"));
    }
    Ok(())
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_observation_snaps() {
        let mut e = BurstEstimator::new(0.25);
        assert_eq!(e.mean(), None);
        e.observe(SimTime::from_micros(1_000));
        assert_eq!(e.mean(), Some(SimTime::from_micros(1_000)));
        assert_eq!(e.observations(), 1);
    }

    #[test]
    fn converges_to_steady_burst() {
        let mut e = BurstEstimator::new(0.25);
        for _ in 0..50 {
            e.observe(SimTime::from_micros(2_000));
        }
        let m = e.mean().unwrap().as_micros();
        assert_eq!(m, 2_000);
    }

    #[test]
    fn tracks_level_shift() {
        let mut e = BurstEstimator::new(0.25);
        for _ in 0..20 {
            e.observe(SimTime::from_micros(1_000));
        }
        for _ in 0..20 {
            e.observe(SimTime::from_micros(5_000));
        }
        let m = e.mean().unwrap().as_micros();
        assert!(m > 4_500, "mean {m} should approach 5000");
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "bad alpha"))]
    fn zero_alpha_rejected() {
        let mut e = BurstEstimator::new(0.0);
        // Release builds use alpha 1 instead: the mean is the last
        // observation.
        e.observe(SimTime::from_micros(1_000));
        e.observe(SimTime::from_micros(5_000));
        assert_eq!(e.mean(), Some(SimTime::from_micros(5_000)));
    }
}

//! Kernel-burst estimation (Gemini's mechanism, §3.3.2 of the paper's
//! lineage): the backend learns how much GPU time a pod's bursts take and
//! uses the estimate to size token leases and, optionally, to refuse
//! grants that would overrun the pod's remaining quota.

use fastg_des::snap::SnapError;
use fastg_des::{snap_struct, SimTime};

/// Exponentially weighted estimate of a pod's kernel-burst GPU time.
///
/// Gemini estimates the "kernel burst" — the GPU time between two
/// synchronization points — to pick token lengths that neither overrun
/// quotas nor thrash on token IPC. The estimator tracks both the mean and
/// a pessimistic bound (mean + spread) so admission can be conservative.
#[derive(Debug, Clone, Copy)]
pub struct BurstEstimator {
    alpha: f64,
    mean_us: f64,
    /// Mean absolute deviation, smoothed with the same alpha.
    dev_us: f64,
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
            dev_us: 0.0,
            observations: 0,
        }
    }

    /// Default smoothing used by the backend.
    pub fn default_alpha() -> f64 {
        0.25
    }

    /// Records one observed burst.
    pub fn observe(&mut self, burst: SimTime) {
        let x = burst.as_micros() as f64;
        if self.observations == 0 {
            self.mean_us = x;
            self.dev_us = 0.0;
        } else {
            let err = x - self.mean_us;
            self.mean_us += self.alpha * err;
            self.dev_us += self.alpha * (err.abs() - self.dev_us);
        }
        self.observations += 1;
    }

    /// The smoothed mean burst, or `None` before any observation.
    pub fn mean(&self) -> Option<SimTime> {
        if self.observations == 0 {
            None
        } else {
            Some(SimTime::from_micros_f64(self.mean_us))
        }
    }

    /// A pessimistic burst bound: mean + 2 × deviation.
    pub fn upper(&self) -> Option<SimTime> {
        if self.observations == 0 {
            None
        } else {
            Some(SimTime::from_micros_f64(self.mean_us + 2.0 * self.dev_us))
        }
    }

    /// Number of bursts observed.
    pub fn observations(&self) -> u64 {
        self.observations
    }
}

snap_struct!(BurstEstimator { alpha, mean_us, dev_us, observations } check |e| {
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
        assert_eq!(e.upper(), None);
        e.observe(SimTime::from_micros(1_000));
        assert_eq!(e.mean(), Some(SimTime::from_micros(1_000)));
        assert_eq!(e.upper(), Some(SimTime::from_micros(1_000)));
    }

    #[test]
    fn converges_to_steady_burst() {
        let mut e = BurstEstimator::new(0.25);
        for _ in 0..50 {
            e.observe(SimTime::from_micros(2_000));
        }
        let m = e.mean().unwrap().as_micros();
        assert_eq!(m, 2_000);
        // Steady input: deviation decays toward zero.
        assert!(e.upper().unwrap().as_micros() < 2_100);
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
    fn upper_exceeds_mean_under_variance() {
        let mut e = BurstEstimator::new(0.25);
        for i in 0..40 {
            let v = if i % 2 == 0 { 1_000 } else { 3_000 };
            e.observe(SimTime::from_micros(v));
        }
        assert!(e.upper().unwrap() > e.mean().unwrap());
        assert_eq!(e.observations(), 40);
    }

    #[test]
    #[should_panic(expected = "bad alpha")]
    fn zero_alpha_rejected() {
        BurstEstimator::new(0.0);
    }
}

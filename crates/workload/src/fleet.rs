//! Fleet-scale workload synthesis.
//!
//! Production FaaS fleets are wide and skewed: hundreds of functions whose
//! popularity follows a Zipf law. [`zipf_rates`] splits a fleet's total
//! request rate over its functions by popularity rank, so a fleet of any
//! width is described by three scalars instead of a recorded trace; the
//! temporal shapes to put on top are in [`patterns`](crate::patterns).

/// Zipf-distributed per-function request rates: rank `i` (0-based) gets a
/// share proportional to `1 / (i+1)^exponent` of `total_rps`, so the head
/// function carries the classic heavy tail while the sum stays `total_rps`.
pub fn zipf_rates(funcs: usize, total_rps: f64, exponent: f64) -> Vec<f64> {
    debug_assert!(funcs > 0, "empty fleet");
    debug_assert!(total_rps >= 0.0 && exponent >= 0.0);
    let funcs = funcs.max(1);
    let total_rps = total_rps.max(0.0);
    let exponent = exponent.max(0.0);
    let weights: Vec<f64> = (0..funcs)
        .map(|i| 1.0 / ((i + 1) as f64).powf(exponent))
        .collect();
    let norm: f64 = weights.iter().sum();
    weights.iter().map(|w| total_rps * w / norm).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_rates_sum_and_skew() {
        let r = zipf_rates(100, 1000.0, 1.1);
        let sum: f64 = r.iter().sum();
        assert!((sum - 1000.0).abs() < 1e-6, "sum {sum}");
        assert!(r[0] > r[1] && r[1] > r[50], "must be rank-decreasing");
        assert!(r[0] / r[99] > 50.0, "head/tail skew too flat: {}", r[0] / r[99]);
    }
}

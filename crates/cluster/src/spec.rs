//! CRD-style specifications: functions and their spatio-temporal resource
//! annotations.

use fastg_des::snap::SnapError;
use fastg_des::{snap_struct, ArenaKey, SimTime};

/// Identifies a deployed FaaS function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuncId(pub u32);

impl ArenaKey for FuncId {
    fn index(self) -> usize {
        // u32 → usize is lossless on every supported target.
        // fastg-lint: allow(no-lossy-cast)
        self.0 as usize
    }
    fn from_index(i: usize) -> Self {
        // Arena keys are dense indices; 2^32 functions is unreachable,
        // truncating silently is not. fastg-lint: allow(no-panic-in-lib)
        FuncId(u32::try_from(i).expect("func index exceeds u32"))
    }
}

/// The spatio-temporal GPU resource annotations of a FaSTPod — the
/// `faasshare/sm_partition`, `faasshare/quota_limit`,
/// `faasshare/quota_request` and `faasshare/gpu_mem` fields of the paper's
/// Figure 4, with the same semantics:
///
/// * `sm_partition`: percentage of the GPU's SMs this pod's kernels may
///   occupy concurrently (the MPS active-thread percentage).
/// * `quota_limit` / `quota_request`: maximum and guaranteed fractions of
///   each scheduling window the pod may spend on the GPU. `request ≤ limit`;
///   the gap is the elastic region used when the GPU is otherwise idle.
/// * `gpu_mem`: device memory to reserve for the pod, in bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceSpec {
    /// SM partition percentage in `(0, 100]`.
    pub sm_partition: f64,
    /// Maximum window fraction in `(0, 1]`.
    pub quota_limit: f64,
    /// Guaranteed window fraction in `[0, quota_limit]`.
    pub quota_request: f64,
    /// Device memory reservation in bytes.
    pub gpu_mem: u64,
}

impl ResourceSpec {
    /// Builds and validates a spec.
    ///
    /// Out-of-range values come from the profiler/scheduler, so they are
    /// bugs, not user errors: debug builds assert, release builds clamp
    /// every field into its invariant range and carry on.
    pub fn new(sm_partition: f64, quota_request: f64, quota_limit: f64, gpu_mem: u64) -> Self {
        let s = ResourceSpec {
            sm_partition,
            quota_limit,
            quota_request,
            gpu_mem,
        };
        s.validate();
        s.clamped()
    }

    /// Checks all invariants (debug builds only).
    pub fn validate(&self) {
        debug_assert!(
            self.sm_partition > 0.0 && self.sm_partition <= 100.0,
            "sm_partition {} outside (0, 100]",
            self.sm_partition
        );
        debug_assert!(
            self.quota_limit > 0.0 && self.quota_limit <= 1.0,
            "quota_limit {} outside (0, 1]",
            self.quota_limit
        );
        debug_assert!(
            self.quota_request >= 0.0 && self.quota_request <= self.quota_limit,
            "quota_request {} outside [0, quota_limit={}]",
            self.quota_request,
            self.quota_limit
        );
    }

    /// A copy with every field forced into its invariant range.
    fn clamped(mut self) -> Self {
        let sane = |v: f64, hi: f64| if v.is_finite() && v > 0.0 { v.min(hi) } else { hi };
        self.sm_partition = sane(self.sm_partition, 100.0);
        self.quota_limit = sane(self.quota_limit, 1.0);
        self.quota_request = if self.quota_request.is_finite() {
            self.quota_request.clamp(0.0, self.quota_limit)
        } else {
            self.quota_limit
        };
        self
    }

    /// The paper's "secondCores" area measure: `quota × SM share`, the
    /// uniform size of a spatio-temporal resource rectangle.
    pub fn area(&self) -> f64 {
        self.quota_limit * self.sm_partition / 100.0
    }
}

snap_struct!(FuncId(raw));

// Decoding holds a spec to the ranges `new` clamps into, so the window
// times derived from it stay in range.
snap_struct!(ResourceSpec {
    sm_partition,
    quota_limit,
    quota_request,
    gpu_mem,
} check |s| {
    let in_range = s.sm_partition > 0.0
        && s.sm_partition <= 100.0
        && s.quota_limit > 0.0
        && s.quota_limit <= 1.0
        && s.quota_request >= 0.0
        && s.quota_request <= s.quota_limit;
    if !in_range {
        return Err(SnapError::new("resource spec range"));
    }
    Ok(())
});

snap_struct!(FaSTFuncSpec { name, model, slo });

/// The FaSTFunc CRD analogue: a user-deployed inference function.
#[derive(Debug, Clone, PartialEq)]
pub struct FaSTFuncSpec {
    /// Function name, e.g. `fastsvc-rnnt`.
    pub name: String,
    /// The model this function serves (a `fastg-models` zoo name).
    pub model: String,
    /// Latency SLO for requests to this function.
    pub slo: SimTime,
}

impl FaSTFuncSpec {
    /// Creates a function spec.
    pub fn new(name: &str, model: &str, slo: SimTime) -> Self {
        FaSTFuncSpec {
            name: name.to_string(),
            model: model.to_string(),
            slo,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_spec_passes() {
        let s = ResourceSpec::new(12.0, 0.3, 0.8, 1 << 30);
        assert!((s.area() - 0.096).abs() < 1e-12);
    }

    // Debug builds reject an out-of-range spec; release builds clamp it
    // into range instead, and these tests check the clamp there.

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "sm_partition"))]
    fn zero_partition_rejected() {
        let s = ResourceSpec::new(0.0, 0.1, 0.5, 0);
        // No partition is the whole GPU, as under MPS without one.
        assert_eq!(s.sm_partition, 100.0);
        assert_eq!((s.quota_request, s.quota_limit), (0.1, 0.5));
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "quota_request"))]
    fn request_above_limit_rejected() {
        let s = ResourceSpec::new(10.0, 0.9, 0.5, 0);
        assert_eq!((s.quota_request, s.quota_limit), (0.5, 0.5));
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "quota_limit"))]
    fn limit_above_one_rejected() {
        let s = ResourceSpec::new(10.0, 0.5, 1.5, 0);
        assert_eq!((s.quota_request, s.quota_limit), (0.5, 1.0));
    }
}

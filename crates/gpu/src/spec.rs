//! GPU hardware descriptions.

use fastg_des::snap::SnapError;
use fastg_des::snap_struct;

/// Static description of a GPU device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GpuSpec {
    /// Marketing name, e.g. "Tesla V100".
    pub name: String,
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// Device memory capacity in bytes.
    pub memory_bytes: u64,
}

impl GpuSpec {
    /// NVIDIA Tesla V100 (the paper's testbed GPU): 80 SMs, 16 GiB.
    pub fn v100() -> Self {
        GpuSpec {
            name: "Tesla V100".to_string(),
            sm_count: 80,
            memory_bytes: 16 * GIB,
        }
    }

    /// NVIDIA A100 HGX: 108 SMs, 40 GiB. Used to show the under-utilization
    /// argument worsens on bigger parts.
    // fastg-lint: allow(no-test-only-pub) — the part MIG partitions; MIG stays in scope (paper §2.3)
    pub fn a100() -> Self {
        GpuSpec {
            name: "A100 HGX".to_string(),
            sm_count: 108,
            memory_bytes: 40 * GIB,
        }
    }

    /// A custom part for tests and what-if studies. A zero SM count is
    /// clamped to one — a GPU needs at least one SM.
    // fastg-lint: allow(no-test-only-pub) — MIG's small-parent checks build on it; MIG stays in scope (paper §2.3)
    pub fn custom(name: &str, sm_count: u32, memory_bytes: u64) -> Self {
        debug_assert!(sm_count > 0, "a GPU needs at least one SM");
        GpuSpec {
            name: name.to_string(),
            sm_count: sm_count.max(1),
            memory_bytes,
        }
    }

    /// Number of SMs corresponding to an active-thread percentage, rounded
    /// to the nearest SM but never below one (MPS guarantees a client can
    /// always make progress). Out-of-range percentages are clamped to
    /// `[0, 100]`.
    pub fn sms_for_percentage(&self, pct: f64) -> u32 {
        debug_assert!((0.0..=100.0).contains(&pct), "percentage out of range: {pct}");
        let pct = pct.clamp(0.0, 100.0);
        // fastg-lint: allow(no-lossy-cast) — rounded value is ≤ sm_count.
        ((self.sm_count as f64 * pct / 100.0).round() as u32).max(1)
    }
}

snap_struct!(GpuSpec { name, sm_count, memory_bytes } check |s| {
    if s.sm_count == 0 {
        return Err(SnapError::new("gpu spec sm count"));
    }
    Ok(())
});

/// One gibibyte, in bytes.
pub const GIB: u64 = 1024 * 1024 * 1024;
/// One mebibyte, in bytes.
pub const MIB: u64 = 1024 * 1024;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        let v = GpuSpec::v100();
        assert_eq!(v.sm_count, 80);
        assert_eq!(v.memory_bytes, 16 * GIB);
        assert_eq!(GpuSpec::a100().sm_count, 108);
    }

    #[test]
    fn percentage_to_sms() {
        let v = GpuSpec::v100();
        assert_eq!(v.sms_for_percentage(100.0), 80);
        assert_eq!(v.sms_for_percentage(50.0), 40);
        assert_eq!(v.sms_for_percentage(12.0), 10); // 9.6 rounds to 10
        assert_eq!(v.sms_for_percentage(6.0), 5); // 4.8 rounds to 5
        assert_eq!(v.sms_for_percentage(0.0), 1); // floor of one SM
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "percentage out of range")]
    fn percentage_validated() {
        GpuSpec::v100().sms_for_percentage(120.0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "at least one SM")]
    fn zero_sms_rejected() {
        GpuSpec::custom("bad", 0, GIB);
    }

    /// Without debug assertions the same inputs clamp, as documented.
    #[cfg(not(debug_assertions))]
    #[test]
    fn out_of_range_inputs_clamp_in_release() {
        assert_eq!(GpuSpec::v100().sms_for_percentage(120.0), 80);
        assert_eq!(GpuSpec::custom("bad", 0, GIB).sm_count, 1);
    }
}

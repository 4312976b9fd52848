//! Model profiles: kernel traces and memory footprints.

use fastg_des::SimTime;

/// One kernel launch within a stage burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelSpec {
    /// Thread-blocks in the grid; bounds exploitable SM parallelism.
    pub blocks: u32,
    /// Time for one SM to retire one block.
    pub work_per_block: SimTime,
}

impl KernelSpec {
    /// Residency duration when granted `sms` SMs (wave execution).
    pub fn duration_at(&self, sms: u32) -> SimTime {
        let granted = sms.min(self.blocks.max(1)).max(1);
        self.work_per_block * u64::from(self.blocks.max(1).div_ceil(granted))
    }
}

/// A host phase followed by an asynchronous burst of `n` launches of one
/// kernel, ending at a synchronization point.
///
/// The burst is uniform by construction: [`Stage::uniform`] is the only
/// constructor, and decode rejects a stage whose kernels differ, so a
/// fast-forwarded launch is one run of [`Stage::burst`]. `kernels` stays
/// readable but is not to be edited.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct Stage {
    /// Host-side time before any kernel of the burst launches
    /// (pre-processing, framework overhead, RNN step control flow).
    pub host: SimTime,
    /// The kernels launched back-to-back after the host phase, all equal.
    /// The stage ends with a `cuCtxSynchronize`-style sync once all
    /// complete.
    pub kernels: Vec<KernelSpec>,
}

impl Stage {
    /// Builds a stage of `n` identical kernels.
    pub fn uniform(host_us: u64, n: usize, blocks: u32, work_us: u64) -> Self {
        let spec = KernelSpec {
            blocks,
            work_per_block: SimTime::from_micros(work_us),
        };
        Stage {
            host: SimTime::from_micros(host_us),
            kernels: vec![spec; n],
        }
    }

    /// The burst as one run: its kernel and its launch count. `None` for
    /// an empty burst (or one beyond `u32::MAX` launches).
    pub fn burst(&self) -> Option<(KernelSpec, u32)> {
        let spec = *self.kernels.first()?;
        Some((spec, u32::try_from(self.kernels.len()).ok()?))
    }

    /// Device residency time of the burst when every kernel is granted
    /// `sms` SMs and kernels run back-to-back (in-order stream, no
    /// cross-client contention).
    pub fn device_time_at(&self, sms: u32) -> SimTime {
        self.kernels
            .iter()
            .fold(SimTime::ZERO, |acc, k| acc + k.duration_at(sms))
    }
}

/// GPU memory footprint of one function instance, split the way the
/// model-sharing mechanism cares about.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryFootprint {
    /// Framework/runtime + activations + CUDA context: the part every
    /// instance needs privately, in bytes.
    pub runtime_bytes: u64,
    /// Model parameters: the part model sharing de-duplicates, in bytes.
    pub weights_bytes: u64,
}

impl MemoryFootprint {
    /// Builds a footprint from mebibyte quantities.
    pub fn from_mib(runtime_mib: u64, weights_mib: u64) -> Self {
        MemoryFootprint {
            runtime_bytes: runtime_mib * MIB,
            weights_bytes: weights_mib * MIB,
        }
    }

    /// Total per-instance footprint without model sharing.
    pub fn total(&self) -> u64 {
        self.runtime_bytes + self.weights_bytes
    }

    /// Per-instance footprint when the weights live in the shared store.
    pub fn shared_instance(&self) -> u64 {
        self.runtime_bytes
    }
}

/// One mebibyte, in bytes.
pub const MIB: u64 = 1024 * 1024;

/// A deep-learning model as the GPU-sharing stack observes it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ModelProfile {
    /// Model name (e.g. "resnet50").
    pub name: String,
    /// The per-request stage sequence.
    pub stages: Vec<Stage>,
    /// Device-memory footprint of one instance.
    pub memory: MemoryFootprint,
}

impl ModelProfile {
    /// Total host-side time per request.
    pub fn host_time(&self) -> SimTime {
        self.stages
            .iter()
            .fold(SimTime::ZERO, |acc, s| acc + s.host)
    }

    /// Total device time per request when each kernel is granted `sms` SMs
    /// with no cross-client contention.
    pub fn device_time_at(&self, sms: u32) -> SimTime {
        self.stages
            .iter()
            .fold(SimTime::ZERO, |acc, s| acc + s.device_time_at(sms))
    }

    /// Uncontended request latency at a spatial grant of `sms` SMs.
    pub fn latency_at(&self, sms: u32) -> SimTime {
        self.host_time() + self.device_time_at(sms)
    }

    /// Analytic single-instance throughput estimate (requests/second) under
    /// a spatial partition of `sms` SMs and a temporal quota of `quota`
    /// (fraction of each window the pod may occupy the GPU).
    ///
    /// Two regimes bind: pipeline latency (`1 / (host + device)`) and quota
    /// (`quota / device`). The profiler's measured curves follow this
    /// within queueing noise, which is how Figure 8 shows proportional
    /// growth along the temporal axis and saturation along the spatial
    /// axis.
    pub fn ideal_rps(&self, sms: u32, quota: f64) -> f64 {
        debug_assert!((0.0..=1.0).contains(&quota), "quota out of range: {quota}");
        let quota = if quota.is_nan() { 0.0 } else { quota.clamp(0.0, 1.0) };
        let device = self.device_time_at(sms).as_secs_f64();
        let latency = self.latency_at(sms).as_secs_f64();
        if device <= 0.0 {
            return if latency > 0.0 { 1.0 / latency } else { 0.0 };
        }
        (1.0 / latency).min(quota / device)
    }

    /// The smallest SM grant at which device time is within `tolerance`
    /// (e.g. 0.01 = 1 %) of its value at `max_sms`: the model's spatial
    /// saturation point.
    pub fn saturation_sms(&self, max_sms: u32, tolerance: f64) -> u32 {
        let best = self.device_time_at(max_sms).as_secs_f64();
        for sms in 1..=max_sms {
            let t = self.device_time_at(sms).as_secs_f64();
            if t <= best * (1.0 + tolerance) {
                return sms;
            }
        }
        max_sms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> ModelProfile {
        ModelProfile {
            name: "toy".into(),
            stages: vec![
                Stage::uniform(1_000, 2, 20, 100),
                Stage::uniform(500, 1, 10, 50),
            ],
            memory: MemoryFootprint::from_mib(1000, 200),
        }
    }

    #[test]
    fn kernel_duration_waves() {
        let k = KernelSpec {
            blocks: 20,
            work_per_block: SimTime::from_micros(100),
        };
        assert_eq!(k.duration_at(20), SimTime::from_micros(100));
        assert_eq!(k.duration_at(80), SimTime::from_micros(100)); // capped by blocks
        assert_eq!(k.duration_at(10), SimTime::from_micros(200));
        assert_eq!(k.duration_at(7), SimTime::from_micros(300));
    }

    #[test]
    fn stage_burst_is_one_kernel_and_its_count() {
        let s = Stage::uniform(100, 50, 19, 200);
        let spec = KernelSpec {
            blocks: 19,
            work_per_block: SimTime::from_micros(200),
        };
        assert_eq!(s.burst(), Some((spec, 50)));
        assert_eq!(Stage::uniform(100, 0, 0, 0).burst(), None);
    }

    #[test]
    fn stage_and_profile_times() {
        let m = toy();
        assert_eq!(m.host_time(), SimTime::from_micros(1_500));
        // Full grant: 2×100 + 1×50 = 250us.
        assert_eq!(m.device_time_at(80), SimTime::from_micros(250));
        // 10 SMs: 2×200 + 1×50 = 450us.
        assert_eq!(m.device_time_at(10), SimTime::from_micros(450));
        assert_eq!(m.latency_at(80), SimTime::from_micros(1_750));
        assert_eq!(m.stages.iter().map(|s| s.kernels.len()).sum::<usize>(), 3);
    }

    #[test]
    fn ideal_rps_regimes() {
        let m = toy();
        // Full quota: latency-bound = 1 / 1.75ms.
        let full = m.ideal_rps(80, 1.0);
        assert!((full - 1.0 / 1.75e-3).abs() < 1.0);
        // Tiny quota: quota-bound = 0.01 / 0.25ms.
        let q = m.ideal_rps(80, 0.01);
        assert!((q - 0.01 / 0.25e-3).abs() < 1.0);
        // Quota scaling is proportional in the quota-bound regime.
        assert!((m.ideal_rps(80, 0.02) / q - 2.0).abs() < 0.01);
    }

    #[test]
    fn saturation_point() {
        let m = toy();
        // Largest kernel has 20 blocks: 20 SMs saturate.
        assert_eq!(m.saturation_sms(80, 0.0), 20);
    }

    #[test]
    fn memory_split() {
        let f = MemoryFootprint::from_mib(1427, 98);
        assert_eq!(f.total(), 1525 * MIB);
        assert_eq!(f.shared_instance(), 1427 * MIB);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "quota out of range"))]
    fn bad_quota_panics() {
        // Release builds clamp the quota to 1 instead.
        assert_eq!(toy().ideal_rps(80, 1.5), toy().ideal_rps(80, 1.0));
    }
}

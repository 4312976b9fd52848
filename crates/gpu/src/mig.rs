//! Multi-Instance GPU (MIG) partitioning.
//!
//! Ampere/Hopper parts can be split at the hardware level into up to
//! seven isolated GPU instances. The paper (§2.3) notes FaST-GShare is
//! compatible with MIG: each MIG instance runs its own MPS server, and
//! multiple MPS clients share each instance. This module models the
//! slicing: a [`MigProfile`] consumes compute and memory *slices* of the
//! parent GPU, and [`MigConfig::instances`] yields one [`GpuSpec`] per
//! instance, each of which becomes an independent [`crate::GpuDevice`]
//! (and thus an independent FaST-GShare "node").
//!
//! The paper's criticism stands reproducible here: MIG offers only the
//! seven pre-defined shapes below, far coarser than FaST-Manager's
//! arbitrary spatio-temporal rectangles.

use crate::spec::GpuSpec;

/// Number of compute slices on a MIG-capable part (A100/H100: 7).
pub const COMPUTE_SLICES: u32 = 7;
/// Number of memory slices (A100: 8, of which one profile uses 1/8).
pub const MEMORY_SLICES: u32 = 8;

/// A MIG instance profile, named after the A100 catalogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MigProfile {
    /// `1g.5gb`: 1 compute slice, 1 memory slice.
    P1g,
    /// `2g.10gb`: 2 compute slices, 2 memory slices.
    P2g,
    /// `3g.20gb`: 3 compute slices, 4 memory slices.
    P3g,
    /// `4g.20gb`: 4 compute slices, 4 memory slices.
    P4g,
    /// `7g.40gb`: the whole part.
    P7g,
}

impl MigProfile {
    /// Compute slices this profile consumes.
    pub fn compute_slices(self) -> u32 {
        match self {
            MigProfile::P1g => 1,
            MigProfile::P2g => 2,
            MigProfile::P3g => 3,
            MigProfile::P4g => 4,
            MigProfile::P7g => 7,
        }
    }

    /// Memory slices this profile consumes.
    pub fn memory_slices(self) -> u32 {
        match self {
            MigProfile::P1g => 1,
            MigProfile::P2g => 2,
            MigProfile::P3g => 4,
            MigProfile::P4g => 4,
            MigProfile::P7g => 8,
        }
    }

    /// Catalogue name on an A100-40GB.
    pub fn name(self) -> &'static str {
        match self {
            MigProfile::P1g => "1g.5gb",
            MigProfile::P2g => "2g.10gb",
            MigProfile::P3g => "3g.20gb",
            MigProfile::P4g => "4g.20gb",
            MigProfile::P7g => "7g.40gb",
        }
    }

    /// This profile's compute share of the parent, in whole percent
    /// (rounded up: a `1g` instance owns ⌈100/7⌉ = 15 % of the SMs).
    // fastg-lint: allow(no-test-only-pub) — MIG support is kept in scope by the ROADMAP (paper §2.3)
    pub fn compute_percent(self) -> u32 {
        (self.compute_slices() * 100).div_ceil(COMPUTE_SLICES)
    }

    /// Every profile, ascending by compute share.
    pub const ALL: [MigProfile; 5] = [
        MigProfile::P1g,
        MigProfile::P2g,
        MigProfile::P3g,
        MigProfile::P4g,
        MigProfile::P7g,
    ];
}

/// Errors from MIG configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MigError {
    /// The requested profiles need more compute slices than exist.
    ComputeOverflow {
        /// Slices requested.
        requested: u32,
    },
    /// The requested profiles need more memory slices than exist.
    MemoryOverflow {
        /// Slices requested.
        requested: u32,
    },
    /// MIG requires a part with at least [`COMPUTE_SLICES`] × 2 SMs.
    UnsupportedGpu(String),
}

impl std::fmt::Display for MigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigError::ComputeOverflow { requested } => {
                write!(f, "{requested} compute slices requested, {COMPUTE_SLICES} available")
            }
            MigError::MemoryOverflow { requested } => {
                write!(f, "{requested} memory slices requested, {MEMORY_SLICES} available")
            }
            MigError::UnsupportedGpu(name) => write!(f, "{name} does not support MIG"),
        }
    }
}

impl std::error::Error for MigError {}

/// A validated MIG layout for one physical GPU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigConfig {
    parent: GpuSpec,
    profiles: Vec<MigProfile>,
}

impl MigConfig {
    /// Validates a layout on a parent GPU.
    pub fn new(parent: GpuSpec, profiles: Vec<MigProfile>) -> Result<Self, MigError> {
        if parent.sm_count < COMPUTE_SLICES * 2 {
            return Err(MigError::UnsupportedGpu(parent.name));
        }
        let compute: u32 = profiles.iter().map(|p| p.compute_slices()).sum();
        if compute > COMPUTE_SLICES {
            return Err(MigError::ComputeOverflow { requested: compute });
        }
        let memory: u32 = profiles.iter().map(|p| p.memory_slices()).sum();
        if memory > MEMORY_SLICES {
            return Err(MigError::MemoryOverflow { requested: memory });
        }
        Ok(MigConfig { parent, profiles })
    }

    /// The common "seven small instances" layout.
    // fastg-lint: allow(no-test-only-pub) — MIG support is kept in scope by the ROADMAP (paper §2.3)
    pub fn seven_way(parent: GpuSpec) -> Result<Self, MigError> {
        Self::new(parent, vec![MigProfile::P1g; 7])
    }

    /// The configured profiles.
    pub fn profiles(&self) -> &[MigProfile] {
        &self.profiles
    }

    /// One [`GpuSpec`] per instance. SMs are apportioned per compute
    /// slice (A100: 108 SMs / 7 ≈ 15 per slice, remainder unexposed —
    /// matching real MIG, where each GPC contributes 14 SMs), memory per
    /// memory slice.
    // fastg-lint: allow(no-test-only-pub) — MIG support is kept in scope by the ROADMAP (paper §2.3)
    pub fn instances(&self) -> Vec<GpuSpec> {
        let sm_per_slice = self.parent.sm_count / COMPUTE_SLICES;
        let mem_per_slice = self.parent.memory_bytes / u64::from(MEMORY_SLICES);
        self.profiles
            .iter()
            .enumerate()
            .map(|(i, p)| GpuSpec {
                name: format!("{} MIG {} #{i}", self.parent.name, p.name()),
                sm_count: sm_per_slice * p.compute_slices(),
                memory_bytes: mem_per_slice * u64::from(p.memory_slices()),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::GIB;

    #[test]
    fn slice_percent_snapping_covers_the_catalogue() {
        // Percents are ⌈100·s/7⌉ for s ∈ {1,2,3,4,7}.
        assert_eq!(MigProfile::P1g.compute_percent(), 15);
        assert_eq!(MigProfile::P2g.compute_percent(), 29);
        assert_eq!(MigProfile::P3g.compute_percent(), 43);
        assert_eq!(MigProfile::P4g.compute_percent(), 58);
        assert_eq!(MigProfile::P7g.compute_percent(), 100);
    }

    #[test]
    fn seven_way_split_of_a100() {
        let cfg = MigConfig::seven_way(GpuSpec::a100()).unwrap();
        let inst = cfg.instances();
        assert_eq!(inst.len(), 7);
        // 108 / 7 = 15 SMs per slice.
        assert!(inst.iter().all(|g| g.sm_count == 15));
        // 40 GiB / 8 = 5 GiB per memory slice.
        assert!(inst.iter().all(|g| g.memory_bytes == 5 * GIB));
        assert!(inst[0].name.contains("1g.5gb"));
    }

    #[test]
    fn mixed_layout_apportions_slices() {
        let cfg = MigConfig::new(
            GpuSpec::a100(),
            vec![MigProfile::P4g, MigProfile::P2g, MigProfile::P1g],
        )
        .unwrap();
        let inst = cfg.instances();
        assert_eq!(inst[0].sm_count, 60); // 4 × 15
        assert_eq!(inst[0].memory_bytes, 20 * GIB);
        assert_eq!(inst[1].sm_count, 30);
        assert_eq!(inst[2].sm_count, 15);
    }

    #[test]
    fn compute_overflow_rejected() {
        let err = MigConfig::new(GpuSpec::a100(), vec![MigProfile::P4g, MigProfile::P4g]);
        assert_eq!(err, Err(MigError::ComputeOverflow { requested: 8 }));
    }

    #[test]
    fn memory_overflow_rejected() {
        // 3g (4 mem) + 3g (4 mem) + 1g (1 mem) = 9 > 8, compute 7 ≤ 7.
        let err = MigConfig::new(
            GpuSpec::a100(),
            vec![MigProfile::P3g, MigProfile::P3g, MigProfile::P1g],
        );
        assert_eq!(err, Err(MigError::MemoryOverflow { requested: 9 }));
    }

    #[test]
    fn tiny_gpu_rejected() {
        let err = MigConfig::seven_way(GpuSpec::custom("edge", 8, GIB));
        assert!(matches!(err, Err(MigError::UnsupportedGpu(_))));
    }

    /// The paper's §2.3 scenario: MPS clients run inside a MIG instance.
    #[test]
    fn mps_inside_mig_instance() {
        use crate::device::{GpuDevice, KernelDesc};
        use crate::mps::MpsMode;
        use fastg_des::SimTime;
        let cfg = MigConfig::new(GpuSpec::a100(), vec![MigProfile::P3g]).unwrap();
        let spec = cfg.instances().remove(0);
        assert_eq!(spec.sm_count, 45);
        let mut dev = GpuDevice::new(spec, MpsMode::Shared);
        let a = dev.register_client(50.0).unwrap(); // 22-ish SMs of the instance
        let b = dev.register_client(50.0).unwrap();
        let ka = dev
            .launch(
                SimTime::ZERO,
                a,
                KernelDesc {
                    blocks: 40,
                    work_per_block: SimTime::from_micros(10),
                    tag: 0,
                },
            )
            .unwrap()
            .unwrap();
        let kb = dev
            .launch(
                SimTime::ZERO,
                b,
                KernelDesc {
                    blocks: 40,
                    work_per_block: SimTime::from_micros(10),
                    tag: 1,
                },
            )
            .unwrap()
            .unwrap();
        // Both clients run concurrently within the instance's 45 SMs.
        assert_eq!(ka.granted_sms + kb.granted_sms, 45);
    }
}

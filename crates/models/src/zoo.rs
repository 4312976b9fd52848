//! The benchmark model zoo.
//!
//! Profiles for the six models the paper evaluates, calibrated against its
//! §5 measurements (V100, batch size 1):
//!
//! | model | 1-pod racing RPS | saturation (of 80 SMs) | memory orig / shared |
//! |---|---|---|---|
//! | ResNet-50 | ≈ 71 | ≈ 19 SMs (24 %) | 1525 / 1427 MiB |
//! | RNNT | ≈ 12.5 | ≈ 48 SMs | 2000 / 1780 MiB |
//! | GNMT | ≈ 29 | ≈ 60 SMs | 2100 / 1820 MiB |
//! | BERT-base | ≈ 40 | ≈ 40 SMs (50 %) | 1900 / 1480 MiB |
//! | ResNeXt-101 | ≈ 25 | ≈ 40 SMs | 3900 / 1800 MiB |
//! | ViT-Huge | ≈ 8 | ≈ 64 SMs (80 %) | 4735 / 2101 MiB |
//!
//! The *shape* of each profile encodes why the paper's mechanisms help:
//! ResNet is a single dense burst of small kernels (low SM occupancy, high
//! launch rate); RNNT and GNMT are recurrent — many host-interleaved stages
//! whose gaps leave the GPU idle under exclusive/time sharing; the
//! transformers are fewer, larger kernels that saturate later along the
//! spatial axis.

use crate::profile::{MemoryFootprint, ModelProfile, Stage};

/// ResNet-50 image classification (MLPerf). One preprocessing phase, one
/// dense burst of ~50 convolution/elementwise kernels, light
/// postprocessing.
pub fn resnet50() -> ModelProfile {
    ModelProfile {
        name: "resnet50".into(),
        stages: vec![
            Stage::uniform(3_000, 50, 19, 200),
            Stage::uniform(1_000, 0, 0, 0),
        ],
        memory: MemoryFootprint::from_mib(1427, 98),
    }
}

/// RNNT speech recognition (MLPerf). Recurrent: 40 decoder time-steps,
/// each a host control-flow phase plus a short kernel burst — the
/// host-gap-heavy profile that keeps utilization below 40 % for a single
/// racing pod (Figure 10).
pub fn rnnt() -> ModelProfile {
    ModelProfile {
        name: "rnnt".into(),
        stages: (0..40)
            .map(|_| Stage::uniform(1_300, 4, 48, 175))
            .collect(),
        memory: MemoryFootprint::from_mib(1780, 220),
    }
}

/// GNMT neural machine translation (MLPerf). 30 decoder steps with wide
/// (60-block) matrix kernels: saturates late along the spatial axis.
pub fn gnmt() -> ModelProfile {
    ModelProfile {
        name: "gnmt".into(),
        stages: (0..30)
            .map(|_| Stage::uniform(160, 2, 60, 495))
            .collect(),
        memory: MemoryFootprint::from_mib(1820, 280),
    }
}

/// BERT-base NLP (MLPerf). One transformer burst of 48 GEMM-dominated
/// kernels at 40 blocks each: saturates at 50 % of a V100.
pub fn bert_base() -> ModelProfile {
    ModelProfile {
        name: "bert_base".into(),
        stages: vec![
            Stage::uniform(2_500, 48, 40, 460),
            Stage::uniform(500, 0, 0, 0),
        ],
        memory: MemoryFootprint::from_mib(1480, 420),
    }
}

/// ResNeXt-101 32x8d (larger vision model for the model-sharing study).
pub fn resnext101() -> ModelProfile {
    ModelProfile {
        name: "resnext101".into(),
        stages: vec![
            Stage::uniform(4_000, 70, 40, 500),
            Stage::uniform(1_000, 0, 0, 0),
        ],
        memory: MemoryFootprint::from_mib(1800, 2100),
    }
}

/// ViT-Huge vision transformer (largest model in the paper; weights
/// dominate the footprint, so model sharing saves 55.6 %).
pub fn vit_huge() -> ModelProfile {
    ModelProfile {
        name: "vit_huge".into(),
        stages: vec![
            Stage::uniform(4_000, 120, 64, 1_000),
            Stage::uniform(1_000, 0, 0, 0),
        ],
        memory: MemoryFootprint::from_mib(2101, 2634),
    }
}

/// All six benchmark models, in the paper's order.
pub fn all() -> Vec<ModelProfile> {
    vec![
        resnet50(),
        bert_base(),
        rnnt(),
        gnmt(),
        resnext101(),
        vit_huge(),
    ]
}

/// Looks a model up by name, building only that model's profile.
pub fn by_name(name: &str) -> Option<ModelProfile> {
    let build: fn() -> ModelProfile = match name {
        "resnet50" => resnet50,
        "bert_base" => bert_base,
        "rnnt" => rnnt,
        "gnmt" => gnmt,
        "resnext101" => resnext101,
        "vit_huge" => vit_huge,
        _ => return None,
    };
    Some(build())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Calibration against the paper's §5.3 single-racing-pod throughputs.
    #[test]
    fn single_pod_racing_rps_matches_paper() {
        let cases = [
            (resnet50(), 71.4, 3.0),  // paper: 71.37 req/s
            (rnnt(), 12.5, 1.0),      // paper: 12.51 req/s
            (gnmt(), 29.0, 1.5),      // paper: 28.85 req/s
            (bert_base(), 40.0, 3.0),
            (resnext101(), 25.0, 2.0),
            (vit_huge(), 8.0, 1.0),
        ];
        for (m, target, tol) in cases {
            let rps = m.ideal_rps(80, 1.0);
            assert!(
                (rps - target).abs() <= tol,
                "{}: ideal rps {rps:.2} not within {tol} of {target}",
                m.name
            );
        }
    }

    /// Figure 8: saturation points along the spatial axis.
    #[test]
    fn spatial_saturation_points() {
        assert_eq!(resnet50().saturation_sms(80, 0.0), 19); // ~24 %
        assert_eq!(bert_base().saturation_sms(80, 0.0), 40); // 50 %
        assert_eq!(vit_huge().saturation_sms(80, 0.0), 64); // 80 %
        assert_eq!(rnnt().saturation_sms(80, 0.0), 48);
        assert_eq!(gnmt().saturation_sms(80, 0.0), 60);
    }

    /// §5.3: eight 12 %-partition pods beat the time-sharing ceiling by the
    /// paper's factors (time-sharing ceiling = single racing pod).
    #[test]
    fn eight_pods_at_12pct_vs_time_sharing() {
        // 12 % of 80 SMs rounds to 10.
        let cases = [
            (resnet50(), 296.8, 0.25), // paper total for 8 pods
            (rnnt(), 43.24, 0.15),
            (gnmt(), 43.79, 0.15),
        ];
        for (m, paper_total, rel_tol) in cases {
            let per_pod = m.ideal_rps(10, 1.0);
            let total = per_pod * 8.0;
            let ratio = total / paper_total;
            assert!(
                (1.0 - rel_tol..=1.0 + rel_tol).contains(&ratio),
                "{}: 8-pod total {total:.1} vs paper {paper_total} (ratio {ratio:.2})",
                m.name
            );
        }
    }

    /// Figure 13 memory numbers.
    #[test]
    fn memory_footprints_match_paper() {
        use crate::profile::MIB;
        assert_eq!(resnet50().memory.total() / MIB, 1525);
        assert_eq!(resnet50().memory.shared_instance() / MIB, 1427);
        assert_eq!(vit_huge().memory.total() / MIB, 4735);
        assert_eq!(vit_huge().memory.shared_instance() / MIB, 2101);
        // ViT-Huge sharing saves 55.6 % per additional instance.
        let saved: f64 = 1.0 - 2101.0 / 4735.0;
        assert!((saved - 0.556).abs() < 0.002);
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(by_name("resnet50").unwrap().name, "resnet50");
        assert_eq!(by_name("gnmt").unwrap().name, "gnmt");
        assert!(by_name("nope").is_none());
        assert_eq!(all().len(), 6);
    }

    /// Every model `by_name` builds equals its `all()` entry, and the
    /// lookup misses on anything else.
    #[test]
    fn by_name_builds_exactly_the_named_model() {
        for m in all() {
            assert_eq!(by_name(&m.name).as_ref(), Some(&m), "{}", m.name);
        }
        for unknown in ["", "ResNet50", "resnet", "resnet50 ", "vit"] {
            assert!(by_name(unknown).is_none(), "{unknown:?}");
        }
    }

    /// Temporal proportionality (Figure 8): throughput under quota q is
    /// q-proportional while quota-bound.
    #[test]
    fn quota_proportionality() {
        let m = resnet50();
        let r20 = m.ideal_rps(19, 0.2);
        let r40 = m.ideal_rps(19, 0.4);
        let r60 = m.ideal_rps(19, 0.6);
        assert!((r40 / r20 - 2.0).abs() < 0.05, "r40/r20 = {}", r40 / r20);
        assert!((r60 / r20 - 3.0).abs() < 0.05);
    }
}

//! Property tests for model profiles and the inference cursor.

use fastg_des::SimTime;
use fastg_models::{zoo, InferenceRun, KernelSpec, MemoryFootprint, ModelProfile, Stage, StageOp};
use proptest::prelude::*;

fn arb_profile() -> impl Strategy<Value = ModelProfile> {
    prop::collection::vec(
        (0u64..2_000, 0usize..5, 1u32..100, 1u64..500),
        1..12,
    )
    .prop_map(|stages| ModelProfile {
        name: "prop".into(),
        stages: stages
            .into_iter()
            .map(|(host, n, blocks, work)| Stage::uniform(host, n, blocks, work))
            .collect(),
        memory: MemoryFootprint::from_mib(100, 50),
    })
}

proptest! {
    /// Device time is monotone non-increasing in the SM grant.
    #[test]
    fn device_time_monotone_in_sms(profile in arb_profile()) {
        let mut prev = profile.device_time_at(1);
        for sms in 2..=80 {
            let t = profile.device_time_at(sms);
            prop_assert!(t <= prev, "device time rose at {sms} SMs");
            prev = t;
        }
    }

    /// Ideal RPS is monotone non-decreasing in quota and in SMs.
    #[test]
    fn ideal_rps_monotone(profile in arb_profile()) {
        for sms in [1u32, 10, 40, 80] {
            let mut prev = 0.0f64;
            for q in [0.1, 0.3, 0.5, 0.8, 1.0] {
                let r = profile.ideal_rps(sms, q);
                prop_assert!(r + 1e-9 >= prev, "rps fell with quota at {sms} SMs");
                prev = r;
            }
        }
        for q in [0.2, 1.0] {
            let mut prev = 0.0f64;
            for sms in 1..=80 {
                let r = profile.ideal_rps(sms, q);
                prop_assert!(r + 1e-9 >= prev, "rps fell with SMs at quota {q}");
                prev = r;
            }
        }
    }

    /// The cursor walks exactly the non-empty phases of the profile and
    /// then stays Done; total host time and kernel count match.
    #[test]
    fn cursor_accounts_for_everything(profile in arb_profile()) {
        let expected_host = profile.host_time();
        let expected_kernels: usize = profile.stages.iter().map(|s| s.kernels.len()).sum();
        let mut run = InferenceRun::default();
        let mut host = SimTime::ZERO;
        let mut kernels = 0usize;
        loop {
            match run.advance_indexed(&profile) {
                StageOp::Host(d) => {
                    prop_assert!(d > SimTime::ZERO, "zero host phases must be skipped");
                    host += d;
                }
                StageOp::Burst(i) => {
                    let burst = profile.stages[i].burst();
                    prop_assert!(burst.is_some(), "empty bursts must be skipped");
                    kernels += burst.map_or(0, |(_, n)| n as usize);
                }
                StageOp::Done => break,
            }
        }
        prop_assert_eq!(host, expected_host);
        prop_assert_eq!(kernels, expected_kernels);
        prop_assert_eq!(run.advance_indexed(&profile), StageOp::Done);
    }

    /// Saturation point: past it, granting every SM changes nothing; just
    /// below it (if > 1), device time is strictly worse.
    #[test]
    fn saturation_point_is_tight(profile in arb_profile()) {
        let sat = profile.saturation_sms(80, 0.0);
        prop_assert_eq!(profile.device_time_at(sat), profile.device_time_at(80));
        if sat > 1 {
            prop_assert!(profile.device_time_at(sat - 1) > profile.device_time_at(80));
        }
    }

    /// Kernel wave duration equals ceil(blocks/granted) × work.
    #[test]
    fn kernel_duration_formula(blocks in 1u32..1_000, sms in 1u32..200, work in 1u64..1_000) {
        let k = KernelSpec { blocks, work_per_block: SimTime::from_micros(work) };
        let granted = sms.min(blocks);
        let expected = work * blocks.div_ceil(granted) as u64;
        prop_assert_eq!(k.duration_at(sms), SimTime::from_micros(expected));
    }
}

/// Zoo-wide sanity: every model's analytic estimates stay consistent.
#[test]
fn zoo_models_are_wellformed() {
    for m in zoo::all() {
        assert!(m.stages.iter().any(|s| !s.kernels.is_empty()), "{}", m.name);
        assert!(m.host_time() > SimTime::ZERO, "{}", m.name);
        assert!(m.memory.total() > 0, "{}", m.name);
        assert!(m.memory.weights_bytes < m.memory.total(), "{}", m.name);
        let full = m.ideal_rps(80, 1.0);
        assert!(full > 1.0 && full < 500.0, "{}: {full}", m.name);
        // Quota-bound regime is exactly proportional.
        let r1 = m.ideal_rps(80, 0.1);
        let r2 = m.ideal_rps(80, 0.2);
        assert!((r2 / r1 - 2.0).abs() < 0.02, "{}", m.name);
    }
}

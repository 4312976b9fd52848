//! FaST-Scheduler end-to-end: Figure 11 packing and Figure 12
//! auto-scaling through the full platform.

use fastg_des::SimTime;
use fastg_workload::ArrivalProcess;
use fastgshare::manager::SharingPolicy;
use fastgshare::paper::{self, FIG8_TEMPORAL};
use fastgshare::platform::{FunctionConfig, Platform, PlatformConfig};
use fastgshare::profiler::ProfileDb;

/// Figure 11: the 8-pod set (4 ResNet + 2 RNNT + 2 BERT) needs one GPU
/// under FaST but four under time sharing.
#[test]
fn fig11_gpu_count_fast_vs_time_sharing() {
    let fast = paper::fig11(SharingPolicy::FaST, 1).unwrap();
    assert_eq!(fast.gpus_in_use(), 1, "FaST packs everything on one GPU");
    assert_eq!(fast.scheduler_stats().placements, 8);

    let ts = paper::fig11(SharingPolicy::SingleToken, 1).unwrap();
    assert_eq!(ts.gpus_in_use(), 4, "time sharing spreads over four GPUs");
}

/// Figure 11's metric claim: FaST's consolidated GPU shows higher
/// utilization and much higher SM occupancy than time sharing's four,
/// pinned as tolerance bands. The paper reports 1.34× utilization and
/// 3.13× SM occupancy; EXPERIMENTS.md ("Figure 11" and "Headline
/// summary") measures 1.45× and 3.68×. Re-derived on this test's own
/// 6 s run (1 s warm-up), the ratios are 1.4528× and 3.6836× on every
/// seed: the pods saturate and the run is deterministic. Each ratio must
/// lie within 4 % of its re-derived figure, which catches a drifted model
/// calibration, and within its paper tolerance (10 % for utilization,
/// 20 % for occupancy, whose measured excess is 17.7 %), which is the
/// reproduction claim itself.
#[test]
fn fig11_utilization_and_occupancy_ratios() {
    let run = |policy: SharingPolicy| {
        let (_, report) = paper::run_fig11(policy, 5, 2).unwrap();
        (
            report.gpus_used(),
            report.mean_utilization_active(),
            report.mean_occupancy_active(),
        )
    };
    let (fast_gpus, fast_util, fast_occ) = run(SharingPolicy::FaST);
    let (ts_gpus, ts_util, ts_occ) = run(SharingPolicy::SingleToken);
    assert_eq!(fast_gpus, 1);
    assert_eq!(ts_gpus, 4);
    // (name, measured, re-derived, paper, paper tolerance)
    let bands = [
        ("utilization", fast_util / ts_util, 1.4528, 1.34, 0.10),
        ("SM occupancy", fast_occ / ts_occ, 3.6836, 3.13, 0.20),
    ];
    for (name, ratio, derived, paper, paper_tol) in bands {
        let off = |reference: f64| (ratio / reference - 1.0).abs();
        assert!(
            off(derived) <= 0.04,
            "{name} ratio {ratio:.4} drifted from its re-derived {derived} \
             (fast {fast_util:.4}/{fast_occ:.4}, ts {ts_util:.4}/{ts_occ:.4})"
        );
        assert!(
            off(paper) <= paper_tol,
            "{name} ratio {ratio:.4} is outside {paper_tol} of the paper's {paper}"
        );
    }
}

/// An analytic ResNet profile for auto-scaling tests (shaped like the
/// measured Figure 8 curves; exact values are refreshed by the real
/// profiler in `profiler_integration.rs`).
fn resnet_profile() -> ProfileDb {
    paper::analytic_profile(
        &[fastg_models::zoo::resnet50()],
        &[12.0, 24.0, 50.0],
        &FIG8_TEMPORAL,
    )
}

/// Figure 12: the auto-scaler follows a rising load and keeps ResNet's
/// SLO violations under control.
#[test]
fn autoscaler_tracks_ramp_and_meets_slo() {
    let mut p = Platform::new(
        PlatformConfig::default()
            .nodes(4)
            .policy(SharingPolicy::FaST)
            .warmup(SimTime::from_secs(2))
            .seed(3),
    );
    let f = p
        .deploy(
            FunctionConfig::new("resnet", "resnet50")
                .slo_ms(69)
                .replicas(1)
                .resources(12.0, 0.4, 1.0),
        )
        .unwrap();
    p.enable_autoscaler(resnet_profile());
    // Ramp from 10 to 120 rps over 20 s, then hold.
    p.set_load(
        f,
        ArrivalProcess::ramp(10.0, 120.0, SimTime::from_secs(20), 5),
    );
    let mid = p.run_for(SimTime::from_secs(20));
    let report = p.run_for(SimTime::from_secs(10));
    let fr = &report.functions[&f];
    assert!(
        fr.replicas >= 3,
        "auto-scaler should have added pods: {} replicas",
        fr.replicas
    );
    // Throughput during the 120 rps hold phase must match the offer.
    let hold_rate = (fr.completed - mid.functions[&f].completed) as f64 / 10.0;
    assert!(
        (hold_rate - 120.0).abs() < 15.0,
        "should keep up with the final rate: {hold_rate} rps"
    );
    assert!(
        fr.violation_ratio < 0.05,
        "SLO violations {:.2}% (paper: < 1% in steady state)",
        fr.violation_ratio * 100.0
    );
}

/// Scale-down: when load drops, the auto-scaler drains pods but never
/// below one replica, and never below current demand.
#[test]
fn autoscaler_scales_down_after_load_drop() {
    let mut p = Platform::new(
        PlatformConfig::default()
            .nodes(4)
            .policy(SharingPolicy::FaST)
            .seed(4),
    );
    let f = p
        .deploy(
            FunctionConfig::new("resnet", "resnet50")
                .slo_ms(100)
                .replicas(5)
                .resources(12.0, 0.4, 0.4),
        )
        .unwrap();
    p.enable_autoscaler(resnet_profile());
    // Light load only.
    p.set_load(f, ArrivalProcess::poisson(8.0, 6));
    let report = p.run_for(SimTime::from_secs(20));
    let fr = &report.functions[&f];
    assert!(
        fr.replicas < 5,
        "should have drained over-provisioned pods: {}",
        fr.replicas
    );
    assert!(fr.replicas >= 1, "never below one replica");
    assert!(fr.violation_ratio < 0.05, "drop must not hurt the SLO");
}

/// Placement failure surfaces as unschedulable, not a crash.
#[test]
fn unschedulable_when_cluster_full() {
    let mut p = Platform::new(PlatformConfig::default().nodes(1).seed(5));
    p.deploy(
        FunctionConfig::new("big", "resnet50")
            .replicas(1)
            .resources(100.0, 1.0, 1.0),
    )
    .unwrap();
    let err = p.deploy(
        FunctionConfig::new("more", "resnet50")
            .replicas(1)
            .resources(50.0, 0.5, 0.5),
    );
    assert!(err.is_err());
    assert_eq!(p.unschedulable_pods(), 1);
}

/// Placement cost does not grow with the cluster: deploying the fleet's
/// Figure 11 shapes (BERT 50 %/0.6, RNNT 24 %/0.4 and ResNet 12 %/0.4
/// twice, round-robin, three functions per node) on 256 and on 1,024
/// nodes, every placement asks `mem_fits` about at most two GPUs. The
/// selection walks the cluster's free rectangles in best-fit order, so
/// it asks only the GPUs whose rectangles it reaches. Counted, not timed,
/// so the bound is deterministic.
#[test]
fn fleet_placement_asks_about_at_most_two_gpus() {
    const SHAPES: [(&str, f64, f64); 4] = [
        ("bert_base", 50.0, 0.6),
        ("rnnt", 24.0, 0.4),
        ("resnet50", 12.0, 0.4),
        ("resnet50", 12.0, 0.4),
    ];
    for nodes in [256, 1024] {
        let mut p = Platform::new(PlatformConfig::default().nodes(nodes).seed(1));
        for i in 0..3 * nodes {
            let (model, sm, quota) = SHAPES[i % SHAPES.len()];
            let before = p.scheduler_stats();
            p.deploy(FunctionConfig::new(&format!("fleet-{i:04}"), model).resources(sm, quota, quota))
                .unwrap();
            let after = p.scheduler_stats();
            assert_eq!(after.placements, before.placements + 1);
            let asked = after.probes - before.probes;
            assert!((1..=2).contains(&asked), "{nodes} nodes, function {i}: asked {asked} GPUs");
        }
    }
}

//! End-to-end platform scenarios: the headline comparisons of §5.3.

use fastg_des::SimTime;
use fastg_workload::ArrivalProcess;
use fastgshare::manager::SharingPolicy;
use fastgshare::paper::run_sharing;
use fastgshare::platform::{FunctionConfig, Platform, PlatformConfig};

/// The sharing cell over a 5 s window: `(throughput, p99, utilization,
/// SM occupancy)`.
fn saturated_run(
    policy: SharingPolicy,
    model: &str,
    pods: usize,
    sm: f64,
) -> (f64, SimTime, f64, f64) {
    let o = run_sharing(policy, model, pods, sm, 5, 11).unwrap();
    (o.rps, o.p99, o.utilization, o.sm_occupancy)
}

/// §5.3: eight ResNet pods at 12 % SM partitions vs the time-sharing
/// ceiling (single racing pod). Paper: ≥ 3.15× more throughput.
#[test]
fn spatial_sharing_beats_time_sharing_resnet() {
    let (racing_rps, _, _, _) = saturated_run(SharingPolicy::Racing, "resnet50", 1, 100.0);
    let (spatial_rps, _, _, spatial_occ) = saturated_run(SharingPolicy::FaST, "resnet50", 8, 12.0);
    assert!(
        (racing_rps - 71.4).abs() < 8.0,
        "single racing pod should serve ~71 rps, got {racing_rps}"
    );
    let speedup = spatial_rps / racing_rps;
    assert!(
        speedup > 3.15,
        "spatial sharing speedup {speedup:.2} below the paper's 3.15x \
         ({spatial_rps:.1} vs {racing_rps:.1} rps)"
    );
    // Eight concurrent partitions should multiply SM occupancy.
    let (_, _, _, racing_occ) = saturated_run(SharingPolicy::Racing, "resnet50", 1, 100.0);
    assert!(
        spatial_occ > racing_occ * 2.5,
        "occupancy {spatial_occ:.3} vs racing {racing_occ:.3}"
    );
}

/// §5.3: eight RNNT pods at 12 % reach ~40 req/s vs ~12.5 racing.
#[test]
fn spatial_sharing_beats_time_sharing_rnnt() {
    let (racing_rps, racing_p99, racing_util, _) =
        saturated_run(SharingPolicy::Racing, "rnnt", 1, 100.0);
    let (spatial_rps, spatial_p99, spatial_util, _) =
        saturated_run(SharingPolicy::FaST, "rnnt", 8, 12.0);
    assert!(
        (racing_rps - 12.5).abs() < 2.0,
        "single racing RNNT pod ~12.5 rps, got {racing_rps}"
    );
    assert!(
        spatial_rps > 35.0 && spatial_rps < 55.0,
        "8-pod RNNT total ~40-43 rps, got {spatial_rps}"
    );
    // Paper: 8 spatial pods run with sub-500ms tails and near-full
    // utilization; the single pod leaves the GPU mostly idle.
    assert!(spatial_p99 < SimTime::from_millis(500), "p99 {spatial_p99}");
    assert!(racing_p99 < spatial_p99 * 3, "racing p99 {racing_p99}");
    assert!(
        racing_util < 0.45,
        "single RNNT pod should leave GPU mostly idle, util {racing_util}"
    );
    assert!(
        spatial_util > racing_util * 1.8,
        "util {spatial_util} vs {racing_util}"
    );
}

/// Time sharing's aggregate throughput cannot exceed a single racing pod
/// (§5.3: "the maximum throughput achievable through time sharing is
/// indicated by the throughput in a single racing pod").
#[test]
fn time_sharing_throughput_capped_at_single_pod() {
    let (racing_rps, _, _, _) = saturated_run(SharingPolicy::Racing, "resnet50", 1, 100.0);
    let (ts_rps, _, _, _) = saturated_run(SharingPolicy::SingleToken, "resnet50", 8, 100.0);
    assert!(
        ts_rps <= racing_rps * 1.10,
        "time sharing {ts_rps:.1} rps exceeds the racing ceiling {racing_rps:.1}"
    );
}

/// Figure 1 contrast: under extreme workload the exclusive/time-sharing
/// GPU looks "busy" (utilization) while almost all SMs idle (occupancy).
#[test]
fn utilization_occupancy_divergence_under_time_sharing() {
    let (_, _, util, occ) = saturated_run(SharingPolicy::SingleToken, "resnet50", 8, 100.0);
    assert!(util > 0.5, "time sharing utilization should look high: {util}");
    // ResNet kernels use ~19 of 80 SMs while resident, so occupancy stays
    // below ~20 % even though the GPU is "busy" most of the time (the
    // paper's Figure 1b shows <10 % for its workload mix).
    assert!(occ < 0.2, "SM occupancy should stay low: {occ}");
    assert!(
        util / occ > 4.0,
        "divergence too small: util {util:.2} / occ {occ:.2}"
    );
}

/// Over-subscribed racing degrades tail latency relative to partitioned
/// spatial sharing at equal pod count (Figure 10).
#[test]
fn racing_has_worse_tails_than_partitioned_sharing() {
    let (racing_rps, racing_p99, _, _) = saturated_run(SharingPolicy::Racing, "resnet50", 8, 100.0);
    let (fast_rps, fast_p99, _, _) = saturated_run(SharingPolicy::FaST, "resnet50", 8, 12.0);
    assert!(
        racing_p99 > fast_p99,
        "racing p99 {racing_p99} should exceed partitioned p99 {fast_p99}"
    );
    // Both saturate the GPU's useful capacity within a factor.
    assert!(fast_rps > racing_rps * 0.5, "{fast_rps} vs {racing_rps}");
}

/// Two functions with disjoint partitions coexist without starving each
/// other.
#[test]
fn multi_function_coexistence() {
    let mut p = Platform::new(
        PlatformConfig::default()
            .nodes(1)
            .policy(SharingPolicy::FaST)
            .warmup(SimTime::from_secs(1))
            .seed(5),
    );
    let resnet = p
        .deploy(
            FunctionConfig::new("resnet", "resnet50")
                .replicas(2)
                .resources(24.0, 1.0, 1.0),
        )
        .unwrap();
    let bert = p
        .deploy(
            FunctionConfig::new("bert", "bert_base")
                .replicas(1)
                .resources(50.0, 1.0, 1.0),
        )
        .unwrap();
    p.set_load(resnet, ArrivalProcess::poisson(60.0, 21));
    p.set_load(bert, ArrivalProcess::poisson(25.0, 22));
    let report = p.run_for(SimTime::from_secs(6));
    let r = &report.functions[&resnet];
    let b = &report.functions[&bert];
    // Offered loads are below each function's capacity: both keep up.
    assert!((r.throughput_rps - 60.0).abs() < 8.0, "resnet {}", r.throughput_rps);
    assert!((b.throughput_rps - 25.0).abs() < 5.0, "bert {}", b.throughput_rps);
    assert!(r.p99 < SimTime::from_millis(250), "resnet p99 {}", r.p99);
    assert!(b.p99 < SimTime::from_millis(400), "bert p99 {}", b.p99);
}

/// Pods and requests drain cleanly: no events reference deleted pods.
#[test]
fn drain_during_load_is_clean() {
    let mut p = Platform::new(PlatformConfig::default().nodes(1).seed(9));
    let f = p
        .deploy(
            FunctionConfig::new("f", "resnet50")
                .replicas(4)
                .resources(12.0, 1.0, 1.0),
        )
        .unwrap();
    p.set_load(f, ArrivalProcess::poisson(100.0, 33));
    p.run_for(SimTime::from_secs(2));
    p.scale_to(f, 1);
    let report = p.run_for(SimTime::from_secs(3));
    assert_eq!(report.functions[&f].replicas, 1);
    assert!(report.functions[&f].completed > 100);
}

//! Resource isolation (§5.2–§5.3, Figure 9): temporal quotas bound usage,
//! spatial partitions prevent interference.

use fastg_des::SimTime;
use fastgshare::manager::SharingPolicy;
use fastgshare::paper::{run_fig9, run_sharing};
use fastgshare::platform::{FunctionConfig, Platform, PlatformConfig};

/// Temporal isolation: throughput under a quota is proportional to the
/// quota (Figure 8's temporal axis), so a pod cannot exceed its share.
#[test]
fn quota_bounds_throughput_proportionally() {
    let mut rates = Vec::new();
    for quota in [0.2, 0.4, 0.8] {
        let mut p = Platform::new(
            PlatformConfig::default()
                .nodes(1)
                .policy(SharingPolicy::FaST)
                .oversubscribe(true)
                .warmup(SimTime::from_secs(1))
                .seed(3),
        );
        let f = p
            .deploy(
                FunctionConfig::new("f", "resnet50")
                    .resources(100.0, quota, quota)
                    .saturating(),
            )
            .unwrap();
        let report = p.run_for(SimTime::from_secs(5));
        rates.push(report.functions[&f].throughput_rps);
    }
    let (r20, r40, r80) = (rates[0], rates[1], rates[2]);
    assert!((r40 / r20 - 2.0).abs() < 0.25, "r40/r20 = {}", r40 / r20);
    assert!((r80 / r20 - 4.0).abs() < 0.5, "r80/r20 = {}", r80 / r20);
}

/// Spatial isolation: a pod's partition caps its concurrent SM usage even
/// when the rest of the GPU idles — more partition beyond the model's
/// saturation point buys nothing (Figure 8's spatial axis).
#[test]
fn partition_bounds_and_saturates_throughput() {
    let mut rates = Vec::new();
    for sm in [6.0, 12.0, 24.0, 50.0] {
        rates.push(run_sharing(SharingPolicy::FaST, "resnet50", 1, sm, 4, 4).unwrap().rps);
    }
    let (r6, r12, r24, r50) = (rates[0], rates[1], rates[2], rates[3]);
    // Strong growth up to the saturation point, negligible beyond.
    assert!(r12 > r6 * 1.3, "6→12 %: {r6} → {r12}");
    assert!(r24 > r12 * 1.3, "12→24 %: {r12} → {r24}");
    assert!(
        (r50 - r24).abs() / r24 < 0.08,
        "beyond saturation: {r24} → {r50}"
    );
}

/// Figure 9 with time sharing only: ResNet (50 %–80 % elastic quota) and
/// RNNT (50 %–50 %) over-subscribe the window (80+50 > 100), so starting
/// RNNT mid-run steals ResNet's elastic share — visible interference.
#[test]
fn time_sharing_elastic_quota_interference() {
    // ResNet alone is free to use its 80 % limit.
    let alone = run_fig9(SharingPolicy::SingleToken, false, 3, 7).unwrap();
    let contended = run_fig9(SharingPolicy::SingleToken, true, 3, 7).unwrap();

    assert!(
        contended < alone * 0.92,
        "expected interference: alone {alone:.1} rps vs contended {contended:.1} rps"
    );
}

/// Figure 9 with spatio-temporal sharing: both pods at disjoint 24 %
/// partitions — no mutual influence.
#[test]
fn spatial_partitions_eliminate_interference() {
    let alone = run_fig9(SharingPolicy::FaST, false, 3, 8).unwrap();
    let contended = run_fig9(SharingPolicy::FaST, true, 3, 8).unwrap();

    let drop = (alone - contended) / alone;
    assert!(
        drop < 0.05,
        "spatial sharing should isolate: alone {alone:.1} vs contended {contended:.1} \
         ({:.1}% drop)",
        drop * 100.0
    );
}

/// The SM Allocation Adapter never admits more than 100 % of SM shares:
/// with 8 × 24 % pods, concurrency is throttled but correctness holds.
#[test]
fn sm_adapter_over_subscription_still_serves() {
    let rps = run_sharing(SharingPolicy::FaST, "resnet50", 8, 24.0, 4, 12).unwrap().rps;
    // 4 × 24 % run concurrently; the other four rotate in. Throughput
    // lands near 4 concurrent pods' worth, not 8.
    let four_pods = 4.0 / (0.004 + fastg_models::zoo::resnet50().latency_at(19).as_secs_f64() - 0.004);
    assert!(rps > 100.0, "rps {rps}");
    assert!(rps < four_pods * 1.45, "rps {rps} vs 4-pod bound {four_pods}");
}

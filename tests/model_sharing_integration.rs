//! Model sharing end-to-end (§5.5, Figure 13): footprints on the live
//! platform, with the storage server allocating from the same device
//! memory as the pods.

use fastg_des::SimTime;
use fastg_workload::ArrivalProcess;
use fastgshare::paper::fig13;
use fastgshare::platform::{FunctionConfig, Platform, PlatformConfig, PlatformError};

const MIB: u64 = 1024 * 1024;

fn deploy_n(model: &str, n: usize, sharing: bool) -> Result<(Platform, u64), PlatformError> {
    let p = fig13(model, n, sharing)?;
    let used = p.node_memory_used(0);
    Ok((p, used))
}

/// Figure 13, ViT-Huge with 3 pods: 9237 MiB shared (server 2934 +
/// 3×2101) vs 14205 MiB unshared.
#[test]
fn vit_huge_three_pods_footprint() {
    let (_, shared) = deploy_n("vit_huge", 3, true).unwrap();
    let (_, unshared) = deploy_n("vit_huge", 3, false).unwrap();
    assert_eq!(shared / MIB, 2934 + 3 * 2101);
    assert_eq!(unshared / MIB, 3 * 4735);
    assert!(unshared - shared > 4 * 1024 * MIB, "saves more than 4 GiB");
}

/// Figure 13, single-pod case: sharing costs the 300 MiB context.
#[test]
fn single_pod_pays_context_overhead() {
    let (_, shared) = deploy_n("resnet50", 1, true).unwrap();
    let (_, unshared) = deploy_n("resnet50", 1, false).unwrap();
    assert_eq!(shared / MIB, 1427 + 98 + 300);
    assert_eq!(unshared / MIB, 1525);
    assert_eq!((shared - unshared) / MIB, 300);
}

/// Figure 13 capacity: 7 shared vs 4 unshared ResNeXt pods fit a 16 GB
/// V100, enforced by the device's memory budget at placement.
#[test]
fn resnext_capacity_on_16gb() {
    let deploy_max = |sharing: bool| {
        let mut p = Platform::new(
            PlatformConfig::default()
                .nodes(1)
                .model_sharing(sharing)
                .oversubscribe(true)
                .seed(2),
        );
        let f = p
            .deploy(FunctionConfig::new("rx", "resnext101").replicas(1).resources(12.0, 0.5, 0.5))
            .unwrap();
        let mut count = 1;
        loop {
            p.scale_to(f, count + 1);
            if p.replicas(f) == count + 1 {
                count += 1;
            } else {
                break;
            }
        }
        count
    };
    assert_eq!(deploy_max(true), 7);
    assert_eq!(deploy_max(false), 4);
}

/// Scaling down frees shared memory: the last replica's teardown drops
/// the weights and the storage context too.
#[test]
fn teardown_releases_all_shared_memory() {
    let (mut p, _) = deploy_n("vit_huge", 3, true).unwrap();
    let f = fastg_cluster::FuncId(0);
    p.scale_to(f, 1);
    p.run_for(SimTime::from_secs(1));
    assert_eq!(p.replicas(f), 1);
    let after_one = p.node_memory_used(0);
    assert_eq!(after_one / MIB, 2934 + 2101);
    p.scale_to(f, 0);
    p.run_for(SimTime::from_secs(1));
    assert_eq!(p.node_memory_used(0), 0, "everything freed");
}

/// Sharing does not change serving behaviour, only memory: throughput
/// matches the unshared deployment.
#[test]
fn sharing_is_performance_neutral() {
    let run = |sharing: bool| {
        let mut p = Platform::new(
            PlatformConfig::default()
                .nodes(1)
                .model_sharing(sharing)
                .warmup(SimTime::from_secs(1))
                .seed(3),
        );
        let f = p
            .deploy(
                FunctionConfig::new("f", "resnet50")
                    .replicas(2)
                    .resources(12.0, 1.0, 1.0),
            )
            .unwrap();
        p.set_load(f, ArrivalProcess::poisson(50.0, 4));
        p.run_for(SimTime::from_secs(5)).functions[&f].throughput_rps
    };
    let with = run(true);
    let without = run(false);
    assert!(
        (with - without).abs() < 2.0,
        "sharing changed throughput: {with} vs {without}"
    );
}

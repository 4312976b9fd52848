//! Sensitivity of the FaST-Manager and auto-scaler to the platform
//! settings the workloads use (DESIGN.md §7):
//!
//! 1. Token-lease duration for the time-sharing comparator — the knob
//!    that separates "time sharing" from "racing with extra steps".
//! 2. The auto-scaler's control interval — SLO violations under a ramp.
//!
//! The backend's dispatch order and burst admission are fixed to the
//! paper's choices; EXPERIMENTS.md records the ablations that fixed them.

use fastg_des::SimTime;
use fastg_workload::ArrivalProcess;
use fastgshare::manager::SharingPolicy;
use fastgshare::platform::{FunctionConfig, Platform, PlatformConfig};

/// Time-sharing throughput as a function of lease duration (full
/// platform): short leases behave like per-burst rotation, long leases
/// converge to the paper's single-racing-pod ceiling.
fn ts_throughput(lease_ms: u64) -> f64 {
    let mut p = Platform::new(
        PlatformConfig::default()
            .nodes(1)
            .policy(SharingPolicy::SingleToken)
            .token_lease(SimTime::from_millis(lease_ms))
            .oversubscribe(true)
            .warmup(SimTime::from_secs(1))
            .seed(71),
    );
    let f = p
        .deploy(
            FunctionConfig::new("f", "resnet50")
                .replicas(8)
                .resources(100.0, 1.0, 1.0)
                .saturating(),
        )
        .expect("deploys");
    let _ = f;
    let r = p.run_for(SimTime::from_secs(4));
    r.total_throughput()
}

/// SLO impact of the autoscaler control loop under Poisson load.
fn slo_with_interval(interval: SimTime) -> f64 {
    let mut p = Platform::new(
        PlatformConfig::default()
            .nodes(2)
            .autoscale_interval(interval)
            .warmup(SimTime::from_secs(2))
            .seed(72),
    );
    let f = p
        .deploy(
            FunctionConfig::new("f", "resnet50")
                .slo_ms(69)
                .replicas(1)
                .resources(12.0, 0.4, 1.0),
        )
        .expect("deploys");
    p.enable_autoscaler(fastgshare::paper::fig12_profile());
    p.set_load(f, ArrivalProcess::ramp(10.0, 90.0, SimTime::from_secs(15), 73));
    let r = p.run_for(SimTime::from_secs(25));
    r.functions[&f].violation_ratio
}

fn main() {
    println!("\n=== Ablation 1: time-sharing lease duration (8 ResNet pods) ===");
    for lease in [2u64, 10, 50, 100, 400] {
        println!("lease {lease:>4}ms -> {:>6.1} req/s", ts_throughput(lease));
    }
    println!("(racing ceiling ≈ 71 req/s: long leases converge to it)");

    println!("\n=== Ablation 2: auto-scaler control interval ===");
    for secs in [1u64, 2, 4, 8] {
        println!(
            "interval {secs}s -> {:.2}% SLO violations",
            slo_with_interval(SimTime::from_secs(secs)) * 100.0
        );
    }
}

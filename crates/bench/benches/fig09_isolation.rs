//! Figure 9: effectiveness of spatial sharing — under time sharing alone,
//! an RNNT pod (50 %–50 % quota) interferes with a ResNet pod
//! (50 %–80 % elastic quota) because 80 + 50 > 100 %; with spatial
//! partitions (both at 24 % SMs) the two do not influence each other.

use fastg_des::SimTime;
use fastgshare::manager::SharingPolicy;
use fastgshare::platform::{FunctionConfig, Platform, PlatformConfig};

/// Runs ResNet(0.5–0.8) [+ optional RNNT(0.5–0.5)] and returns ResNet's
/// steady-state throughput.
fn resnet_rps(policy: SharingPolicy, sm: f64, with_rnnt: bool, seed: u64) -> f64 {
    let mut p = Platform::new(
        PlatformConfig::default()
            .nodes(1)
            .policy(policy)
            .oversubscribe(true)
            .warmup(SimTime::from_secs(1))
            .seed(seed),
    );
    let resnet = p
        .deploy(
            FunctionConfig::new("resnet", "resnet50")
                .resources(sm, 0.5, 0.8)
                .saturating(),
        )
        .expect("resnet deploys");
    if with_rnnt {
        p.deploy(
            FunctionConfig::new("rnnt", "rnnt")
                .resources(sm, 0.5, 0.5)
                .saturating(),
        )
        .expect("rnnt deploys");
    }
    p.run_for(SimTime::from_secs(5)).functions[&resnet].throughput_rps
}

fn main() {
    println!("\n=== Figure 9: elastic-quota interference, time sharing vs spatio-temporal ===\n");
    let ts_alone = resnet_rps(SharingPolicy::SingleToken, 100.0, false, 31);
    let ts_both = resnet_rps(SharingPolicy::SingleToken, 100.0, true, 31);
    let fast_alone = resnet_rps(SharingPolicy::FaST, 24.0, false, 31);
    let fast_both = resnet_rps(SharingPolicy::FaST, 24.0, true, 31);
    println!("{:<42} {:>12} {:>12} {:>8}", "mechanism", "alone", "with RNNT", "drop");
    println!(
        "{:<42} {:>10.1}/s {:>10.1}/s {:>7.1}%",
        "time sharing only (ResNet 50-80, RNNT 50-50)",
        ts_alone,
        ts_both,
        100.0 * (ts_alone - ts_both) / ts_alone
    );
    println!(
        "{:<42} {:>10.1}/s {:>10.1}/s {:>7.1}%",
        "spatio-temporal (both at 24% SM partitions)",
        fast_alone,
        fast_both,
        100.0 * (fast_alone - fast_both) / fast_alone
    );
    println!(
        "\npaper shape: the elastic 80+50 > 100 over-subscription makes RNNT \
         steal ResNet's elastic quota under time sharing; disjoint SM \
         partitions remove the interference entirely."
    );
}

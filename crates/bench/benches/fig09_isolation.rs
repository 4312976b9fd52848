//! Figure 9: effectiveness of spatial sharing — under time sharing alone,
//! an RNNT pod (50 %–50 % quota) interferes with a ResNet pod
//! (50 %–80 % elastic quota) because 80 + 50 > 100 %; with spatial
//! partitions (both at 24 % SMs) the two do not influence each other.

use fastgshare::manager::SharingPolicy;
use fastgshare::paper::run_fig9;

/// ResNet's throughput over 4 s after the warm-up.
fn resnet_rps(policy: SharingPolicy, with_rnnt: bool) -> f64 {
    run_fig9(policy, with_rnnt, 4, 31).expect("deploys")
}

fn main() {
    println!("\n=== Figure 9: elastic-quota interference, time sharing vs spatio-temporal ===\n");
    let ts_alone = resnet_rps(SharingPolicy::SingleToken, false);
    let ts_both = resnet_rps(SharingPolicy::SingleToken, true);
    let fast_alone = resnet_rps(SharingPolicy::FaST, false);
    let fast_both = resnet_rps(SharingPolicy::FaST, true);
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

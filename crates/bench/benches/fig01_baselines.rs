//! Figure 1: GPU utilization and SM occupancy under the Kubernetes device
//! plugin (exclusive assignment) and under time sharing, both driven by
//! extreme inference workloads.
//!
//! Paper shape: (a) exclusive — low utilization even when saturated;
//! (b) time sharing — utilization looks high (>90 % in the paper's mix)
//! while SM occupancy stays below ~10 %.

use fastgshare::manager::SharingPolicy;
use fastgshare::paper::run_sharing;

fn main() {
    println!("\n=== Figure 1: device plugin vs time sharing under extreme workload ===\n");
    println!(
        "{:<10} {:<28} {:>10} {:>8} {:>8}",
        "model", "mechanism", "req/s", "util", "SM occ"
    );
    for model in ["resnet50", "rnnt"] {
        let excl = run_sharing(SharingPolicy::Exclusive, model, 1, 100.0, 5, 101).expect("runs");
        let ts = run_sharing(SharingPolicy::SingleToken, model, 8, 100.0, 5, 101).expect("runs");
        println!(
            "{model:<10} {:<28} {:>10.1} {:>7.1}% {:>7.1}%",
            "device plugin (1 pod)",
            excl.rps,
            excl.utilization * 100.0,
            excl.sm_occupancy * 100.0
        );
        println!(
            "{model:<10} {:<28} {:>10.1} {:>7.1}% {:>7.1}%",
            "time sharing (8 pods)",
            ts.rps,
            ts.utilization * 100.0,
            ts.sm_occupancy * 100.0
        );
    }
    println!(
        "\npaper shape: time sharing keeps the GPU 'busy' while SMs idle \
         (util >> SM occupancy); the device plugin under-utilizes outright."
    );
}

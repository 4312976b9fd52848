//! The abstract's headline claims, regenerated: "compared to the time
//! sharing mechanism, FaST-GShare improves throughput by 3.15x, GPU
//! utilization by 1.34x, and SM occupancy by 3.13x on average."

use fastgshare::manager::SharingPolicy;
use fastgshare::paper::{run_fig11, run_sharing};

fn main() {
    println!("\n=== Headline summary: FaST-GShare vs time sharing ===\n");

    // Throughput: §5.3 full-GPU comparison per model (time-sharing ceiling
    // = single racing pod; FaST = 8 pods at 12 % partitions).
    let mut speedups = Vec::new();
    println!("{:<10} {:>14} {:>14} {:>9}", "model", "time-sharing", "FaST (8x12%)", "speedup");
    for model in ["resnet50", "rnnt", "gnmt"] {
        let ts = run_sharing(SharingPolicy::SingleToken, model, 8, 100.0, 5, 7).expect("runs");
        let fast = run_sharing(SharingPolicy::FaST, model, 8, 12.0, 5, 7).expect("runs");
        let s = fast.rps / ts.rps;
        speedups.push(s);
        println!(
            "{model:<10} {:>12.1}/s {:>12.1}/s {:>8.2}x",
            ts.rps, fast.rps, s
        );
    }
    let mean_speedup = speedups.iter().sum::<f64>() / speedups.len() as f64;

    // Utilization / occupancy: the Figure 11 scheduling scenario.
    let (_, fast) = run_fig11(SharingPolicy::FaST, 6, 7).expect("runs");
    let (_, ts) = run_fig11(SharingPolicy::SingleToken, 6, 7).expect("runs");
    let util_ratio = fast.mean_utilization_active() / ts.mean_utilization_active();
    let occ_ratio = fast.mean_occupancy_active() / ts.mean_occupancy_active();

    println!("\n{:<22} {:>10} {:>10}", "metric", "paper", "measured");
    println!("{:<22} {:>10} {:>9.2}x", "throughput", "3.15x", mean_speedup);
    println!("{:<22} {:>10} {:>9.2}x", "GPU utilization", "1.34x", util_ratio);
    println!("{:<22} {:>10} {:>9.2}x", "SM occupancy", "3.13x", occ_ratio);
}

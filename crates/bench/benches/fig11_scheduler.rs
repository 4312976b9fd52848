//! Figure 11: GPU utilization and SM occupancy under FaST-Scheduler vs
//! time-sharing-only scheduling for the evaluation pod set
//! (4 × ResNet (12 %, 40 %), 2 × RNNT (24 %, 40 %), 2 × BERT (50 %, 60 %))
//! on four V100 nodes.
//!
//! Paper: time sharing needs all 4 GPUs; FaST packs everything onto 1 and
//! improves utilization ×1.34 and SM occupancy ×3.13.

use fastgshare::manager::SharingPolicy;
use fastgshare::paper::run_fig11;

fn main() {
    println!("\n=== Figure 11: scheduling the paper's pod set on 4 GPUs ===\n");
    let (fast_gpus, fast) = run_fig11(SharingPolicy::FaST, 6, 111).expect("runs");
    let (ts_gpus, ts) = run_fig11(SharingPolicy::SingleToken, 6, 111).expect("runs");
    println!(
        "{:<26} {:>6} {:>8} {:>8} {:>12}",
        "scheduler", "GPUs", "util", "SM occ", "total req/s"
    );
    println!(
        "{:<26} {:>6} {:>7.1}% {:>7.1}% {:>12.1}",
        "time sharing (KubeShare)",
        ts_gpus,
        ts.mean_utilization_active() * 100.0,
        ts.mean_occupancy_active() * 100.0,
        ts.total_throughput()
    );
    println!(
        "{:<26} {:>6} {:>7.1}% {:>7.1}% {:>12.1}",
        "FaST-Scheduler (MRA)",
        fast_gpus,
        fast.mean_utilization_active() * 100.0,
        fast.mean_occupancy_active() * 100.0,
        fast.total_throughput()
    );
    println!(
        "\nratios (FaST / time sharing): utilization x{:.2} (paper 1.34), \
         SM occupancy x{:.2} (paper 3.13), GPUs {} vs {} (paper 1 vs 4)",
        fast.mean_utilization_active() / ts.mean_utilization_active(),
        fast.mean_occupancy_active() / ts.mean_occupancy_active(),
        fast_gpus,
        ts_gpus
    );
}

//! Figure 10: performance of spatial sharing as pod count grows (1–8) for
//! racing (no partitions, over-subscribed) vs 12 % and 24 % partitions,
//! at 100 % time allocation: throughput, tail latency, utilization and SM
//! occupancy.
//!
//! Paper shape: with enough pods, partitioned sharing delivers much higher
//! throughput, occupancy and utilization than racing, with lower tails;
//! e.g. 8 RNNT pods at 12 % ≈ 40 req/s and p99 < 500 ms vs a racing pod's
//! 12.5 req/s.

use fastg_bench::ms;
use fastgshare::paper::{fig10, sharing_outcome, FIG10_MODELS, FIG10_PODS, FIG10_SETUPS};
use fastgshare::platform::run_sweep;

fn main() {
    println!("\n=== Figure 10: spatial sharing vs racing, growing pod counts ===");
    // The whole grid (3 models × 3 configs × 4 pod counts) fans out over
    // fastg-par worker threads; reports come back in input order, so the
    // table is identical at any thread count.
    let results = run_sweep(fig10(5, 1001), fastg_par::resolve_threads(None)).expect("sweep runs");
    let mut rows = results.iter();
    for model in FIG10_MODELS {
        println!("\n-- {model} --");
        println!(
            "{:<10} {:>5} {:>10} {:>10} {:>8} {:>8}",
            "config", "pods", "req/s", "p99", "util", "SM occ"
        );
        for (label, _, _) in FIG10_SETUPS {
            for pods in FIG10_PODS {
                let (_, report) = rows.next().expect("grid row");
                let o = sharing_outcome(report).expect("grid row shape");
                println!(
                    "{label:<10} {pods:>5} {:>10.1} {:>10} {:>7.1}% {:>7.1}%",
                    o.rps,
                    ms(o.p99),
                    o.utilization * 100.0,
                    o.sm_occupancy * 100.0
                );
            }
        }
    }
    println!(
        "\npaper shape: partitioned curves rise ~linearly in pod count until \
         the SM budget binds; racing saturates early with exploding tails."
    );
}

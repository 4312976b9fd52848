//! Figure 12: auto-scaling to meet the SLO — pod count follows the
//! offered RPS curve. The paper violates ResNet's 69 ms SLO on < 1 % of
//! requests; this reproduction measures 3.07 % (EXPERIMENTS.md,
//! deviation 5).

use fastg_bench::ms;
use fastgshare::paper::run_fig12;

fn main() {
    println!("\n=== Figure 12: auto-scaling to meet the 69ms ResNet SLO ===\n");
    let (intervals, report) = run_fig12(121).expect("runs");
    println!("{:>6} {:>7} {:>12} {:>12}", "t", "pods", "served", "p99 (cum)");
    for i in &intervals {
        println!(
            "{:>5}s {:>7} {:>10.1}/s {:>12}",
            i.end_s,
            i.replicas,
            i.served_rps,
            ms(i.p99)
        );
    }
    let f = report.functions.values().next().expect("one function");
    println!(
        "\nfinal: {} requests, SLO violations {:.2}% (paper: < 1%), \
         peak replica count {}",
        f.completed,
        f.violation_ratio * 100.0,
        intervals.iter().map(|i| i.replicas).max().unwrap_or(0)
    );
    println!(
        "paper shape: the replica curve tracks the RPS curve with a couple of \
         control intervals of lag; violations stay rare."
    );
}

//! Figure 12: auto-scaling to meet the SLO — pod count follows the
//! offered RPS curve and ResNet's 69 ms SLO is violated on < 1 % of
//! requests in steady state.

use fastg_bench::{ms, run_autoscaling};

fn main() {
    println!("\n=== Figure 12: auto-scaling to meet the 69ms ResNet SLO ===\n");
    let (samples, report) = run_autoscaling(121, 12, 5).expect("runs");
    println!("{:>6} {:>7} {:>12} {:>12}", "t", "pods", "served", "p99 (cum)");
    for (t, pods, served, p99) in &samples {
        println!("{t:>5}s {pods:>7} {served:>10.1}/s {:>12}", ms(*p99));
    }
    let f = report.functions.values().next().expect("one function");
    println!(
        "\nfinal: {} requests, SLO violations {:.2}% (paper: < 1%), \
         peak replica count {}",
        f.completed,
        f.violation_ratio * 100.0,
        samples.iter().map(|s| s.1).max().unwrap_or(0)
    );
    println!(
        "paper shape: the replica curve tracks the RPS curve with a couple of \
         control intervals of lag; violations stay rare."
    );
}

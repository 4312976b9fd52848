//! Sharing-policy shoot-out (paper Figures 1 and 10): run the same
//! saturated workload under each GPU-sharing mechanism and compare
//! throughput, tail latency, utilization and SM occupancy.
//!
//! ```sh
//! cargo run --release --example baseline_sharing [model] [pods]
//! ```

use fastgshare::manager::SharingPolicy;
use fastgshare::paper::{run_sharing, SharingOutcome, SHARING_SETUPS};

fn run(policy: SharingPolicy, model: &str, pods: usize, sm: f64) -> SharingOutcome {
    run_sharing(policy, model, pods, sm, 5, 17).expect("deploys")
}

fn main() {
    let model = std::env::args().nth(1).unwrap_or_else(|| "resnet50".into());
    let pods: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);

    println!("== GPU sharing mechanisms, {model}, {pods} pods, one V100 ==\n");
    println!(
        "{:<28} {:>10} {:>12} {:>8} {:>8}",
        "policy", "req/s", "p99", "util", "SM occ"
    );

    let mut baseline = None;
    for (name, policy, sm) in SHARING_SETUPS {
        let o = run(policy, &model, pods, sm);
        if policy == SharingPolicy::SingleToken {
            baseline = Some(o.rps);
        }
        println!(
            "{name:<28} {:>10.1} {:>12} {:>7.1}% {:>7.1}%",
            o.rps,
            o.p99.to_string(),
            o.utilization * 100.0,
            o.sm_occupancy * 100.0
        );
    }
    if let Some(ts) = baseline {
        let fast = run(SharingPolicy::FaST, &model, pods, 12.0).rps;
        println!(
            "\nFaST-GShare vs time sharing: {:.2}x throughput \
             (paper reports 3.15x on average across models)",
            fast / ts
        );
    }
}

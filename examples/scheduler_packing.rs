//! Maximal Rectangles packing demo (paper §3.4.2, Figure 11): bind the
//! evaluation's pod set to GPUs under FaST vs time-sharing placement and
//! show the resource rectangles.
//!
//! ```sh
//! cargo run --release --example scheduler_packing
//! ```

use fastg_cluster::{NodeId, PodId, ResourceSpec};
use fastgshare::scheduler::{NodeSelector, PlacementPolicy, Scheduler};

fn pod_set() -> Vec<(&'static str, ResourceSpec, usize)> {
    vec![
        // Descending area order, as the FaST-Scheduler submits them.
        ("bert (50%,60%)", ResourceSpec::new(50.0, 0.6, 0.6, 0), 2),
        ("rnnt (24%,40%)", ResourceSpec::new(24.0, 0.4, 0.4, 0), 2),
        ("resnet (12%,40%)", ResourceSpec::new(12.0, 0.4, 0.4, 0), 4),
    ]
}

fn pack(policy: PlacementPolicy) -> NodeSelector {
    let mut s = NodeSelector::new(policy);
    for i in 0..4 {
        s.add_gpu(NodeId(i));
    }
    let mut id = 0u64;
    for (name, spec, n) in pod_set() {
        for _ in 0..n {
            match s.place(PodId(id), &spec, |_| true) {
                Some((node, rect)) => println!(
                    "  {name:<18} -> GPU{} at quota[{}..{}] x SM[{}..{}]",
                    node.0,
                    rect.x,
                    rect.right(),
                    rect.y,
                    rect.top()
                ),
                None => println!("  {name:<18} -> UNSCHEDULABLE (new GPU required)"),
            }
            id += 1;
        }
    }
    s
}

fn main() {
    println!("== Node selection for the Figure 11 pod set ==");
    println!("\n-- FaST-Scheduler (Maximal Rectangles, 2D) --");
    let fast = pack(PlacementPolicy::MaximalRectangles);
    println!(
        "GPUs used: {}   total bound area: {} secondCores   mean fragmentation: {:.1}%",
        fast.gpus_in_use(),
        fast.total_used_area(),
        fast.mean_fragmentation() * 100.0
    );

    println!("\n-- Time sharing placement (KubeShare: every pod needs 100% SMs) --");
    let ts = pack(PlacementPolicy::TimeSharingOnly);
    println!(
        "GPUs used: {}   total bound area: {} secondCores",
        ts.gpus_in_use(),
        ts.total_used_area()
    );

    println!(
        "\npaper Figure 11: FaST packs all eight pods onto 1 GPU; \
         time sharing needs all 4 GPUs."
    );
}

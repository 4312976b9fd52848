//! Maximal Rectangles packing demo (paper §3.4.2, Figure 11): bind the
//! evaluation's pod set to GPUs under FaST vs time-sharing placement and
//! show the resource rectangles.
//!
//! ```sh
//! cargo run --release --example scheduler_packing
//! ```

use fastg_cluster::{NodeId, PodId, ResourceSpec};
use fastgshare::paper::fig11_functions;
use fastgshare::scheduler::{NodeSelector, PlacementPolicy, Scheduler};

fn pack(policy: PlacementPolicy) -> NodeSelector {
    let mut s = NodeSelector::new(policy);
    for i in 0..4 {
        s.add_gpu(NodeId(i));
    }
    let mut id = 0u64;
    for fc in fig11_functions() {
        let (sm, request, limit) = fc.resources;
        let name = format!("{} ({sm}%,{:.0}%)", fc.name, request * 100.0);
        let spec = ResourceSpec::new(sm, request, limit, 0);
        for _ in 0..fc.replicas {
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

//! Figure 13: GPU memory footprint of the benchmark models with and
//! without model sharing, measured as the live node's device memory in
//! use (pod reservations plus the model store's weights and context).
//!
//! Paper numbers: ResNet 1525 → 1427 MB (−6.4 %), ViT-Huge 4735 → 2101 MB
//! (−55.6 %); 300 MB storage-context overhead per model; 3 ViT pods need
//! 9282 vs 14205 MB; a 16 GB V100 fits 7 shared vs 4 unshared ResNeXt
//! pods.

use fastg_models::zoo;
use fastgshare::modelshare::footprint;
use fastgshare::paper::fig13;

const MIB: u64 = 1024 * 1024;
const CTX: u64 = 300 * MIB;

fn live_footprint(model: &str, pods: usize, sharing: bool) -> u64 {
    fig13(model, pods, sharing).expect("fits").node_memory_used(0)
}

fn main() {
    println!("\n=== Figure 13: model-sharing memory footprints ===\n");
    println!(
        "{:<12} {:>10} {:>12} {:>12} {:>10}",
        "model", "original", "shared x1", "shared pod", "saved/pod"
    );
    for m in zoo::all() {
        let orig = m.memory.total() / MIB;
        let shared1 = live_footprint(&m.name, 1, true) / MIB;
        let pod = m.memory.shared_instance() / MIB;
        println!(
            "{:<12} {:>9}M {:>11}M {:>11}M {:>9.1}%",
            m.name,
            orig,
            shared1,
            pod,
            100.0 * (1.0 - pod as f64 / orig as f64)
        );
    }
    let vit3_shared = live_footprint("vit_huge", 3, true) / MIB;
    let vit3_plain = live_footprint("vit_huge", 3, false) / MIB;
    println!(
        "\n3 x vit_huge: {vit3_shared} MiB shared vs {vit3_plain} MiB unshared \
         (paper: 9282 vs 14205 MB)"
    );
    let rx = zoo::resnext101().memory;
    println!(
        "capacity: 16 GB V100 fits {} shared vs {} unshared ResNeXt pods (paper: 7 vs 4)",
        footprint::max_pods(&rx, 16 * 1024 * MIB, true, CTX),
        footprint::max_pods(&rx, 16 * 1024 * MIB, false, CTX),
    );
    println!(
        "paper shape: savings grow with model size; single-pod deployments \
         pay the 300 MB context."
    );
}

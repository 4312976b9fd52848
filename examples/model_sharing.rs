//! Model-sharing memory study (paper Figure 13): per-model footprints
//! with and without the model store, as the device memory in use on a
//! simulated 16 GB V100.
//!
//! ```sh
//! cargo run --release --example model_sharing
//! ```

use fastg_models::zoo;
use fastgshare::modelshare::footprint;
use fastgshare::paper::fig13;

const MIB: u64 = 1024 * 1024;
const CTX: u64 = 300 * MIB;

fn live_footprint(model: &str, pods: usize, sharing: bool) -> u64 {
    fig13(model, pods, sharing).expect("fits").node_memory_used(0)
}

fn main() {
    println!("== Model sharing memory footprints (Figure 13) ==\n");
    println!(
        "{:<12} {:>10} {:>12} {:>12} {:>10}",
        "model", "original", "shared(1)", "shared pod", "saved/pod"
    );
    for m in zoo::all() {
        let orig = m.memory.total() / MIB;
        let shared1 = footprint::total_for(&m.memory, 1, true, CTX) / MIB;
        let pod = m.memory.shared_instance() / MIB;
        let saved = 100.0 * (1.0 - pod as f64 / orig as f64);
        println!(
            "{:<12} {:>9}M {:>11}M {:>11}M {:>9.1}%",
            m.name, orig, shared1, pod, saved
        );
    }

    println!("\n-- multi-pod deployments on one 16 GB V100 (live allocator) --");
    for (model, pods) in [("vit_huge", 3usize), ("resnext101", 4), ("resnet50", 8)] {
        let with = live_footprint(model, pods, true);
        let without = live_footprint(model, pods, false);
        println!(
            "{pods} x {model:<12} with sharing {:>6} MiB   without {:>6} MiB   saved {:>5} MiB",
            with / MIB,
            without / MIB,
            (without.saturating_sub(with)) / MIB
        );
    }

    let rx = zoo::resnext101().memory;
    println!(
        "\ncapacity: a 16 GB V100 fits {} ResNeXt pods with sharing vs {} without \
         (paper: 7 vs 4)",
        footprint::max_pods(&rx, 16 * 1024 * MIB, true, CTX),
        footprint::max_pods(&rx, 16 * 1024 * MIB, false, CTX),
    );
}

//! Micro/ablation: the Maximal Rectangles Algorithm vs first-fit — GPU
//! count and fragmentation over a churn trace, plus raw placement cost.
//!
//! This quantifies the design choice §3.4.2 argues for: global
//! best-area-fit with maximal free rectangles consolidates pods onto
//! fewer GPUs and leaves larger contiguous free regions than naive
//! placement.

use criterion::Criterion;
use fastg_cluster::{NodeId, PodId, ResourceSpec};
use fastgshare::scheduler::{NodeSelector, PlacementPolicy, Scheduler};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A churn trace: place/release pods of mixed shapes; returns
/// (GPUs in use, mean fragmentation, failed placements).
fn churn(policy: PlacementPolicy, ops: usize, seed: u64) -> (usize, f64, u32) {
    let mut s = NodeSelector::new(policy);
    for i in 0..8 {
        s.add_gpu(NodeId(i));
    }
    let shapes = [
        (12.0, 0.4),
        (24.0, 0.4),
        (50.0, 0.6),
        (6.0, 0.2),
        (80.0, 0.8),
    ];
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut live: Vec<(PodId, NodeId)> = Vec::new();
    let mut next = 0u64;
    let mut failed = 0u32;
    for _ in 0..ops {
        if live.len() > 24 || (!live.is_empty() && rng.gen_bool(0.45)) {
            let idx = rng.gen_range(0..live.len());
            let (pod, node) = live.swap_remove(idx);
            s.release(node, pod);
        } else {
            let (sm, q) = shapes[rng.gen_range(0..shapes.len())];
            let spec = ResourceSpec::new(sm, q, q, 0);
            let pod = PodId(next);
            next += 1;
            match s.place(pod, &spec, |_| true) {
                Some((node, _)) => live.push((pod, node)),
                None => failed += 1,
            }
        }
    }
    (s.gpus_in_use(), s.mean_fragmentation(), failed)
}

/// Single-GPU packing capacity per fit rule: how many pods of a mixed
/// shape stream fit before the first rejection.
fn fill_capacity(rule: fastgshare::scheduler::FitRule, seed: u64) -> (u32, u64) {
    use fastgshare::scheduler::GpuRects;
    let mut g = GpuRects::with_rule(100, 100, 24, rule);
    let shapes = [
        (40u32, 12u32),
        (40, 24),
        (60, 50),
        (20, 6),
        (25, 33),
        (15, 45),
        (50, 10),
        (10, 10),
    ];
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut placed = 0u32;
    let mut next = 0u64;
    let mut misses = 0u32;
    // Keep offering random shapes until the GPU rejects ten in a row.
    while misses < 10 {
        let (w, h) = shapes[rng.gen_range(0..shapes.len())];
        match g.place(PodId(next), w, h) {
            Some(_) => {
                placed += 1;
                misses = 0;
            }
            None => misses += 1,
        }
        next += 1;
    }
    (placed, g.used_area())
}

fn print_figure() {
    println!("\n=== Ablation: MRA vs first-fit placement over a churn trace ===\n");
    println!(
        "{:<22} {:>10} {:>16} {:>10}",
        "policy", "GPUs used", "fragmentation", "failures"
    );
    for (name, policy) in [
        ("maximal rectangles", PlacementPolicy::MaximalRectangles),
        ("first fit", PlacementPolicy::FirstFit),
    ] {
        let (gpus, frag, failed) = churn(policy, 2_000, 5);
        println!("{name:<22} {gpus:>10} {:>15.1}% {failed:>10}", frag * 100.0);
    }
    println!("\n(lower is better on every column; same 2000-op seed-5 trace)");

    println!("\n=== Ablation: MAXRECTS fit rules, single-GPU fill capacity ===\n");
    println!("{:<22} {:>12} {:>14}", "fit rule", "pods placed", "area filled");
    use fastgshare::scheduler::FitRule;
    for (name, rule) in [
        ("best area (paper)", FitRule::BestAreaFit),
        ("best short side", FitRule::BestShortSideFit),
        ("bottom left", FitRule::BottomLeft),
    ] {
        // Average over a few seeds for stability.
        let mut pods = 0u32;
        let mut area = 0u64;
        for seed in 0..8 {
            let (p, a) = fill_capacity(rule, seed);
            pods += p;
            area += a;
        }
        println!(
            "{name:<22} {:>12.1} {:>13.1}%",
            pods as f64 / 8.0,
            area as f64 / 8.0 / 100.0
        );
    }
}

fn main() {
    print_figure();
    let mut c = Criterion::default().configure_from_args();
    c.bench_function("mra/churn_2000_ops", |b| {
        b.iter(|| churn(PlacementPolicy::MaximalRectangles, 2_000, 5))
    });
    c.bench_function("first_fit/churn_2000_ops", |b| {
        b.iter(|| churn(PlacementPolicy::FirstFit, 2_000, 5))
    });
    c.final_summary();
}

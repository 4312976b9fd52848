//! Paper fidelity, pinned as tolerance bands, and Figure 8's ResNet
//! excerpt pinned cell for cell.
//!
//! §5.3's throughput comparison: eight FaST pods at 12 % SM partitions
//! against time sharing (one token over eight full-GPU pods), per model,
//! and the abstract's headline average of the three speedups. The
//! figures come from EXPERIMENTS.md ("Headline summary": measured 4.49 /
//! 3.35 / 1.49× per model and 3.11× on average over 5 s windows; the
//! paper's ≈ 4.2 / 3.5 / 1.5× and 3.15×).
//!
//! Every scenario is the one `fastgshare::paper` defines for its figure.
//! The speedup windows here are 2 s after the 1 s warm-up, to keep tier-1
//! fast.
//! Re-derived for them, the same scenarios measure 4.486 / 3.333 /
//! 1.517× and 3.112× on average; the workloads are saturating and
//! deterministic, so every seed gives these figures. Each value must lie
//! within 4 % of its re-derived figure, which catches a drifted model
//! calibration, and within 8 % of the paper's, which is the reproduction
//! claim itself.

use fastgshare::manager::SharingPolicy;
use fastgshare::paper::{self, FIG8_TEMPORAL};
use fastgshare::profiler::{ProfileDb, ProfileKey};

/// Measured seconds after the 1 s warm-up.
const WINDOW_S: u64 = 2;
/// Allowed distance from the figure re-derived for `WINDOW_S`.
const MEASURED_TOL: f64 = 0.04;
/// Allowed distance from the paper's figure.
const PAPER_TOL: f64 = 0.08;

/// `(model, paper speedup, re-derived 2 s speedup)`.
const PER_MODEL: [(&str, f64, f64); 3] = [
    ("resnet50", 4.2, 4.486),
    ("rnnt", 3.5, 3.333),
    ("gnmt", 1.5, 1.517),
];
/// The abstract's headline throughput ratio, and its re-derived 2 s value.
const HEADLINE: (f64, f64) = (3.15, 3.112);

/// Throughput of eight saturating `model` pods on one V100 under
/// `policy`, each with `sm` % of the SMs and its full quota.
fn rps(model: &str, policy: SharingPolicy, sm: f64) -> f64 {
    paper::run_sharing(policy, model, 8, sm, WINDOW_S, 7).unwrap().rps
}

/// FaST 8 × 12 % over time sharing's 8 × 100 % for `model`.
fn speedup(model: &str) -> f64 {
    rps(model, SharingPolicy::FaST, 12.0) / rps(model, SharingPolicy::SingleToken, 100.0)
}

fn assert_band(what: &str, got: f64, paper: f64, rederived: f64) {
    let off = |want: f64| (got / want - 1.0).abs();
    assert!(
        off(rederived) <= MEASURED_TOL,
        "{what}: {got:.3} is {:.1} % off its re-derived {rederived}",
        100.0 * off(rederived)
    );
    assert!(
        off(paper) <= PAPER_TOL,
        "{what}: {got:.3} is {:.1} % off the paper's {paper}",
        100.0 * off(paper)
    );
}

/// EXPERIMENTS.md, "Headline summary": per-model speedups (and the
/// Figure 10 text's ResNet 8 × 12 % vs time-sharing ratio), then the
/// summary table's "throughput vs time sharing" row.
#[test]
fn fast_beats_time_sharing_by_the_papers_factors() {
    let mut sum = 0.0;
    for (model, paper, rederived) in PER_MODEL {
        let s = speedup(model);
        assert_band(model, s, paper, rederived);
        sum += s;
    }
    let (paper, rederived) = HEADLINE;
    assert_band("headline throughput", sum / PER_MODEL.len() as f64, paper, rederived);
}

/// EXPERIMENTS.md, "Figure 10" (RNNT excerpt): eight RNNT pods at 12 %
/// SM partitions serve 41.6 req/s and one racing RNNT pod 12.4 req/s
/// (paper: 40 vs 12.51). The test runs the figure's own 5 s window and
/// seed 1001, as `cargo bench -p fastg-bench --bench fig10_spatial_sharing`
/// does, not `WINDOW_S`: over 2 s one racing completion is 4 % of the
/// figure, as wide as the band. Both cells together take well under a
/// second in debug, and they are deterministic, so every seed gives these
/// figures.
#[test]
fn fig10_rnnt_partitions_against_one_racing_pod() {
    let rnnt = |policy, pods, sm| paper::run_sharing(policy, "rnnt", pods, sm, 5, 1001).unwrap().rps;
    let partitioned = rnnt(SharingPolicy::FaST, 8, 12.0);
    let racing = rnnt(SharingPolicy::Racing, 1, 100.0);
    assert_band("8 × 12 % RNNT req/s", partitioned, 40.0, 41.6);
    assert_band("1 racing RNNT req/s", racing, 12.51, 12.4);
}

/// EXPERIMENTS.md, "Figure 12": the paper keeps SLO violations below 1 %
/// and this reproduction does not. The figure's own scenario
/// (`paper::run_fig12` with seed 121, as `cargo bench -p fastg-bench
/// --bench fig12_autoscaling` runs it) measures 3.07 % (3,805 requests)
/// with replicas 1 → 9 → 1 → 3, and one pod serves 37.6 of the 40 req/s
/// offered at 50 s. The bands pin that, ±0.5 points and ±1 replica, so a
/// change to the auto-scaler, the replica list or the drain order shows
/// here; one that meets the paper must move the bands.
#[test]
fn fig12_autoscaling_violations_and_peak_replicas() {
    let (intervals, report) = paper::run_fig12(121).unwrap();
    let violations = report.functions.values().next().unwrap().violation_ratio;
    let peak = intervals.iter().map(|i| i.replicas).max().unwrap();
    assert!(
        (0.0257..=0.0357).contains(&violations),
        "SLO violations {:.2} %, re-derived 3.07 % (paper: < 1 %)",
        100.0 * violations
    );
    assert!((8..=10).contains(&peak), "peak replicas {peak}, re-derived 9");
}

/// EXPERIMENTS.md, "Figure 8": ResNet-50's profiled throughput (req/s)
/// per SM partition, one cell per quota column, as `cargo bench -p
/// fastg-bench --bench fig08_profiler_grid` prints it (the paper grid,
/// 3 s trials after the 0.5 s warm-up, seed 1). The table writes the
/// 50–100 % rows once.
const FIG8_RESNET: [(f64, [f64; 5]); 7] = [
    (6.0, [10.0, 10.0, 20.0, 20.0, 22.3]),
    (12.0, [10.0, 20.0, 30.0, 40.0, 41.7]),
    (24.0, [20.0, 40.0, 60.0, 71.3, 71.3]),
    (50.0, [20.0, 40.0, 60.0, 71.3, 71.3]),
    (60.0, [20.0, 40.0, 60.0, 71.3, 71.3]),
    (80.0, [20.0, 40.0, 60.0, 71.3, 71.3]),
    (100.0, [20.0, 40.0, 60.0, 71.3, 71.3]),
];

/// Figure 8's ResNet excerpt, to 0.1 req/s: proportional in quota up to
/// the latency bound, flat in SMs past the 24 % saturation partition.
/// The trials are deterministic, so every cell must print as recorded.
#[test]
fn fig08_resnet_excerpt_cell_for_cell() {
    let mut db = ProfileDb::new();
    paper::fig8("resnet50").run_parallel(&mut db, 2).unwrap();
    for (sm, row) in FIG8_RESNET {
        for (q, want) in FIG8_TEMPORAL.into_iter().zip(row) {
            let got = db.get("resnet50", ProfileKey::new(sm, q)).unwrap().rps;
            assert_eq!(format!("{got:.1}"), format!("{want:.1}"), "{sm} % SMs, quota {q}");
        }
    }
}


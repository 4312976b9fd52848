//! `sweep_baseline` — prefix-shared sweep evidence, in one JSON file.
//!
//! Measures two things and writes them to `BENCH_8.json`:
//!
//! 1. **The warmup-sharing headline** — a warmup-heavy treatment grid
//!    (every cell simulates the same long warmup, then applies its own
//!    reconfigure) run through `run_sweep_stats` (shared prefixes,
//!    checkpoint + restore per cell) and `run_sweep_unshared` (every
//!    cell replays its own warmup), both at **threads = 1** and timed
//!    min-of-5. On one thread the only speedup available is the warmup
//!    re-simulation the snapshot fan-out avoids — no parallel credit.
//!    Hard bars, asserted in-run: per-cell digests byte-identical across
//!    the two paths, and shared ≥ 3× faster (≥ 2× for `--quick`).
//! 2. **The resume-parity matrix** — a two-cell shared-prefix grid
//!    replayed through every cell of {clean/chaos} × {overload on/off} ×
//!    the four same-instant tie-break orders (16 combinations). Each
//!    combination's shared and unshared canonical reports must match
//!    byte for byte, and sharing must have actually engaged
//!    (`cells_resumed = 2`, never vacuous).
//!
//! ```text
//! sweep_baseline             # full measurement, writes BENCH_8.json
//! sweep_baseline --quick     # smaller grid / shorter warmup (CI smoke)
//! sweep_baseline --out FILE  # write somewhere else
//! ```
//!
//! Timing uses best-of-N wall clock, which is robust against scheduler
//! noise on shared runners; the simulated work itself is deterministic.

use fastg_bench::harness::{best_of, parse_bin_args, peak_rss_bytes, write_json_report};
use fastg_des::{ArenaKey, SimTime};
use fastg_json::ObjectBuilder;
use fastg_workload::ArrivalProcess;
use fastgshare::platform::{
    run_sweep_stats, run_sweep_unshared, FaultKind, FaultPlan, FunctionConfig, Platform,
    PlatformConfig, Scenario, TieBreak, TreatmentAction,
};

/// The headline grid: `cells` scenarios that agree on everything up to
/// the end of `warmup` and then each reconfigure function 0 to a
/// different share of the GPU before a short measured window. The
/// warmup:window ratio is what makes sharing pay — the grid is shaped
/// like a real profiling sweep, where the expensive part is reaching
/// steady state, not measuring it.
fn headline_grid(cells: u64, warmup: SimTime, window: SimTime) -> Vec<Scenario> {
    (0..cells)
        .map(|i| {
            // Spread the treatment over (6.25 %, 12.5 %, …) SM partitions.
            // Bench arithmetic on cell indices far below 2^53.
            // fastg-lint: allow(no-lossy-cast)
            let sm = 6.25 * (i + 1) as f64;
            let quota = (0.1 * (i + 1) as f64).min(1.0);
            Scenario::new(
                format!("headline/sm{sm}"),
                PlatformConfig::default().nodes(2).seed(29),
            )
            .function(
                FunctionConfig::new("f0", "resnet50")
                    .replicas(2)
                    .resources(50.0, 0.5, 0.5),
            )
            .function(
                FunctionConfig::new("f1", "bert_base")
                    .replicas(1)
                    .resources(25.0, 0.25, 0.25),
            )
            .load(0, ArrivalProcess::poisson(40.0, 7))
            .load(1, ArrivalProcess::poisson(15.0, 11))
            .warmup(warmup)
            .then(TreatmentAction::Reconfigure {
                func_index: 0,
                sm_partition: sm,
                quota_request: quota,
                quota_limit: quota,
            })
            .duration(window)
        })
        .collect()
}

/// The matrix chaos plan: a pod crash and a clock degrade inside the
/// warmup (so fault effects ride the snapshot) and a recovery inside
/// the measured window (so a pending fault event must survive restore).
fn matrix_chaos() -> FaultPlan {
    FaultPlan::new()
        .at(SimTime::from_millis(300), FaultKind::PodCrash { func_index: 0 })
        .at(
            SimTime::from_millis(600),
            FaultKind::NodeDegrade {
                node_index: 1,
                factor: 1.5,
            },
        )
        .at(
            SimTime::from_millis(1_200),
            FaultKind::NodeRecover { node_index: 1 },
        )
}

/// One matrix combination: a two-cell shared-prefix grid under the given
/// chaos / overload / tie-break knobs.
fn matrix_grid(chaos: bool, overload: bool, tiebreak: TieBreak) -> Vec<Scenario> {
    let mut config = PlatformConfig::default()
        .nodes(2)
        .seed(43)
        .oversubscribe(true)
        .recovery(true)
        .overload_control(overload)
        .fastforward(true)
        .tiebreak(tiebreak);
    if chaos {
        config = config.fault_plan(matrix_chaos());
    }
    let base = |name: &str| {
        Scenario::new(name, config.clone())
            .function(
                FunctionConfig::new("f0", "resnet50")
                    .replicas(2)
                    .resources(50.0, 0.5, 0.5)
                    .slo_ms(200),
            )
            .function(
                FunctionConfig::new("f1", "rnnt")
                    .replicas(1)
                    .resources(25.0, 0.25, 0.25),
            )
            .load(0, ArrivalProcess::poisson(60.0, 5))
            .load(1, ArrivalProcess::poisson(10.0, 9))
            .warmup(SimTime::from_millis(800))
            .duration(SimTime::from_millis(700))
    };
    vec![
        base("cell/reconfigure").then(TreatmentAction::Reconfigure {
            func_index: 0,
            sm_partition: 25.0,
            quota_request: 0.25,
            quota_limit: 0.5,
        }),
        base("cell/kill").then(TreatmentAction::KillPods {
            func_index: 0,
            count: 1,
        }),
    ]
}

fn tiebreak_name(tb: TieBreak) -> &'static str {
    match tb {
        TieBreak::Fifo => "fifo",
        TieBreak::Lifo => "lifo",
        TieBreak::SeededShuffle(1) => "shuffle-1",
        _ => "shuffle-2",
    }
}

fn main() {
    let opts = parse_bin_args("sweep_baseline", "BENCH_8.json");

    // 1. The headline: shared vs unshared warmup, single-threaded, so
    //    the only speedup on offer is the avoided warmup re-simulation.
    let (cells, warmup_secs, window_ms) = if opts.quick {
        (6u64, 12u64, 500u64)
    } else {
        (8, 24, 1_000)
    };
    let warmup = SimTime::from_secs(warmup_secs);
    let window = SimTime::from_millis(window_ms);
    let grid = || headline_grid(cells, warmup, window);

    // The shared snapshot the grid fans out from, sized for the record.
    let template = &grid()[0];
    let mut prefix = Platform::new(template.config.clone());
    for fc in &template.functions {
        prefix.deploy(fc.clone()).expect("headline function deploys");
    }
    let ids: Vec<_> = (0..template.functions.len())
        .map(fastg_cluster::FuncId::from_index)
        .collect();
    for (index, process) in &template.loads {
        prefix.set_load(ids[*index], process.clone());
    }
    prefix.run_for(warmup);
    let snapshot_bytes = prefix.checkpoint().size_bytes();
    drop(prefix);

    let repeats = 5;
    let (t_shared, (shared, stats)) =
        best_of(repeats, || run_sweep_stats(grid(), 1).expect("shared sweep"));
    let (t_unshared, unshared) =
        best_of(repeats, || run_sweep_unshared(grid(), 1).expect("unshared sweep"));

    assert_eq!(
        stats.prefixes_shared, 1,
        "headline grid should collapse to one shared prefix"
    );
    assert_eq!(
        u64::try_from(stats.cells_resumed).unwrap_or(u64::MAX),
        cells,
        "every headline cell should resume from the shared snapshot"
    );
    let headline_match = shared.len() == unshared.len()
        && shared
            .iter()
            .zip(&unshared)
            .all(|((n1, r1), (n2, r2))| n1 == n2 && r1.digest() == r2.digest());
    assert!(headline_match, "prefix sharing changed a headline digest");
    let speedup = t_unshared / t_shared.max(1e-9);
    let floor = if opts.quick { 2.0 } else { 3.0 };
    println!(
        "sweep headline: {cells} cells, {warmup_secs}s warmup, {window_ms}ms window, \
         threads=1, best-of-{repeats} — shared {:.3}s, unshared {:.3}s, \
         speedup {speedup:.2}x (floor {floor}x), digests match: {headline_match}",
        t_shared, t_unshared,
    );
    println!(
        "warmup factoring: {} prefix simulated once, {} cells resumed from a {} byte \
         snapshot, {:.1} platform-seconds of warmup avoided",
        stats.prefixes_shared,
        stats.cells_resumed,
        snapshot_bytes,
        stats.warmup_avoided.as_secs_f64(),
    );
    assert!(
        speedup >= floor,
        "prefix-shared speedup {speedup:.2}x below the {floor}x floor"
    );
    // The treatment must actually differentiate the cells — a grid whose
    // cells all agree would make the digest bar vacuous.
    let first_digest = shared[0].1.digest();
    assert!(
        shared.iter().any(|(_, r)| r.digest() != first_digest),
        "headline cells are indistinguishable; the treatment is inert"
    );

    // 2. The resume-parity matrix: every chaos × overload × tie-break
    //    combination, shared vs unshared, byte-compared.
    let tiebreaks = [
        TieBreak::Fifo,
        TieBreak::Lifo,
        TieBreak::SeededShuffle(1),
        TieBreak::SeededShuffle(2),
    ];
    let mut matrix = Vec::new();
    let mut matrix_cells = 0u64;
    let mut matrix_matches = 0u64;
    for chaos in [false, true] {
        for overload in [false, true] {
            for tb in tiebreaks {
                let (shared, stats) = run_sweep_stats(matrix_grid(chaos, overload, tb), 1)
                    .expect("matrix shared sweep");
                let unshared = run_sweep_unshared(matrix_grid(chaos, overload, tb), 1)
                    .expect("matrix unshared sweep");
                assert_eq!(stats.cells_resumed, 2, "matrix sharing never engaged");
                let cell_match = shared.iter().zip(&unshared).all(|((n1, r1), (n2, r2))| {
                    n1 == n2 && r1.canonical_text() == r2.canonical_text()
                });
                matrix_cells += 1;
                matrix_matches += u64::from(cell_match);
                assert!(
                    cell_match,
                    "resume parity broke: chaos={chaos} overload={overload} tiebreak={}",
                    tiebreak_name(tb),
                );
                matrix.push(
                    ObjectBuilder::new()
                        .field("chaos", chaos)
                        .field("overload", overload)
                        .field("tiebreak", tiebreak_name(tb))
                        .field("digest", format!("{:016x}", shared[0].1.digest()))
                        .field("shared_matches_unshared", cell_match)
                        .build(),
                );
            }
        }
    }
    println!(
        "resume-parity matrix: {matrix_matches}/{matrix_cells} combinations digest-exact \
         (chaos x overload x 4 tie-breaks)"
    );

    let doc = ObjectBuilder::new()
        .field("bench", "sweep_baseline")
        .field("quick", opts.quick)
        .field("threads", 1u64)
        .field(
            "headline",
            ObjectBuilder::new()
                .field("cells", cells)
                .field("warmup_seconds", warmup_secs)
                .field("window_ms", window_ms)
                .field("repeats", u64::try_from(repeats).unwrap_or(u64::MAX))
                .field("shared_wall_seconds", t_shared)
                .field("unshared_wall_seconds", t_unshared)
                .field("speedup", speedup)
                .field("speedup_floor", floor)
                .field("speedup_floor_met", speedup >= floor)
                .field("digests_match", headline_match)
                .field(
                    "prefixes_shared",
                    u64::try_from(stats.prefixes_shared).unwrap_or(u64::MAX),
                )
                .field(
                    "cells_resumed",
                    u64::try_from(stats.cells_resumed).unwrap_or(u64::MAX),
                )
                .field(
                    "warmup_avoided_seconds",
                    stats.warmup_avoided.as_secs_f64(),
                )
                .field(
                    "snapshot_size_bytes",
                    u64::try_from(snapshot_bytes).unwrap_or(u64::MAX),
                )
                .build(),
        )
        .field(
            "resume_parity",
            ObjectBuilder::new()
                .field("combinations", matrix_cells)
                .field("matching", matrix_matches)
                .field("all_match", matrix_matches == matrix_cells)
                .field("matrix", matrix)
                .build(),
        )
        .field("peak_rss_bytes", peak_rss_bytes())
        .build();
    write_json_report(&opts.out, &doc);
}

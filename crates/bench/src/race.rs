//! Tie-break perturbation race detection (the DES's ThreadSanitizer).
//!
//! `EventQueue` breaks equal-time ties deterministically, so a handler
//! whose outcome depends on same-instant delivery order is *accidentally*
//! deterministic: one reordering away from a digest change. The detector
//! makes that a checked property. It runs every scenario of the
//! determinism/chaos/overload/sweep matrix under several [`TieBreak`]
//! orders and compares [`PlatformReport::digest`]s; a divergence is
//! delta-debugged by re-running the two orders with event tracing on and
//! locating the first differently-ordered event.
//!
//! [`PlatformReport::digest`]: fastgshare::platform::PlatformReport::digest

use fastg_des::SimTime;
use fastg_workload::ArrivalProcess;
use fastgshare::manager::SharingPolicy;
use fastgshare::platform::{
    FaultKind, FaultPlan, FunctionConfig, PlatformConfig, PlatformError, Scenario, TieBreak,
};

use crate::flash_crowd_scenario;

/// The default perturbation set: FIFO (baseline) plus three adversarial
/// orders. Shuffle seeds are arbitrary fixed constants; each scenario
/// additionally folds its own config seed into the permutation.
pub const DEFAULT_ORDERS: [TieBreak; 4] = [
    TieBreak::Fifo,
    TieBreak::Lifo,
    TieBreak::SeededShuffle(1),
    TieBreak::SeededShuffle(2),
];

/// Human-readable label for a tie-break order (also the
/// `FASTG_TIEBREAK` syntax that selects it).
pub fn order_label(tb: TieBreak) -> String {
    match tb {
        TieBreak::Fifo => "fifo".to_string(),
        TieBreak::Lifo => "lifo".to_string(),
        TieBreak::SeededShuffle(s) => format!("shuffle:{s}"),
    }
}

/// The chaos plan shared by the fault-injected matrix entries (mirrors
/// the determinism suite: pod crash, node degrade, node crash, recover).
fn chaos_plan() -> FaultPlan {
    FaultPlan::new()
        .at(SimTime::from_secs(1), FaultKind::PodCrash { func_index: 0 })
        .at(
            SimTime::from_secs(2),
            FaultKind::NodeDegrade {
                node_index: 1,
                factor: 2.0,
            },
        )
        .at(SimTime::from_secs(3), FaultKind::NodeCrash { node_index: 0 })
        .at(SimTime::from_secs(4), FaultKind::NodeRecover { node_index: 1 })
}

/// The mixed two-function workload the determinism fingerprint tests
/// replay, one scenario per sharing policy.
fn policy_scenarios() -> Vec<Scenario> {
    [
        SharingPolicy::FaST,
        SharingPolicy::SingleToken,
        SharingPolicy::Racing,
    ]
    .into_iter()
    .map(|policy| {
        Scenario::new(
            format!("policy-{policy:?}"),
            PlatformConfig::default()
                .nodes(2)
                .policy(policy)
                .oversubscribe(true)
                .seed(7),
        )
        .function(
            FunctionConfig::new("resnet", "resnet50")
                .replicas(3)
                .resources(12.0, 0.5, 0.8),
        )
        .function(
            FunctionConfig::new("rnnt", "rnnt")
                .replicas(2)
                .resources(24.0, 0.4, 0.4),
        )
        .load(0, ArrivalProcess::poisson(60.0, 8))
        .load(1, ArrivalProcess::poisson(8.0, 9))
        .duration(SimTime::from_secs(4))
    })
    .collect()
}

/// Clean and chaotic single-function runs, fast-forward on and off (the
/// FF-parity suite's configuration).
fn chaos_scenarios() -> Vec<Scenario> {
    let mut out = Vec::new();
    for fastforward in [true, false] {
        for chaos in [false, true] {
            let mut cfg = PlatformConfig::default()
                .nodes(2)
                .policy(SharingPolicy::FaST)
                .recovery(true)
                .seed(11)
                .fastforward(fastforward);
            if chaos {
                cfg = cfg.fault_plan(chaos_plan());
            }
            out.push(
                Scenario::new(
                    format!(
                        "chaos-ff{}-{}",
                        u8::from(fastforward),
                        if chaos { "faults" } else { "clean" }
                    ),
                    cfg,
                )
                .function(
                    FunctionConfig::new("resnet", "resnet50")
                        .replicas(2)
                        .resources(25.0, 0.5, 0.8),
                )
                .load(0, ArrivalProcess::poisson(50.0, 13))
                .duration(SimTime::from_secs(6)),
            );
        }
    }
    out
}

/// The seeded sweep grid (with faults) the parallel-sweep determinism
/// tests pin.
fn sweep_scenarios() -> Vec<Scenario> {
    [11u64, 12, 13]
        .into_iter()
        .map(|seed| {
            Scenario::new(
                format!("sweep-seed{seed}"),
                PlatformConfig::default()
                    .nodes(2)
                    .policy(SharingPolicy::FaST)
                    .recovery(true)
                    .seed(seed)
                    .fault_plan(chaos_plan()),
            )
            .function(
                FunctionConfig::new("resnet", "resnet50")
                    .replicas(2)
                    .resources(25.0, 0.5, 0.8),
            )
            .load(0, ArrivalProcess::poisson(50.0, seed.wrapping_add(2)))
            .duration(SimTime::from_secs(5))
        })
        .collect()
}

/// The fleet matrix: single-replica constant-rate functions pinned
/// one-per-node at full quota, {clean, chaos}.
fn fleet_scenarios() -> Vec<Scenario> {
    let mut out = Vec::new();
    for chaos in [false, true] {
        let mut cfg = PlatformConfig::default()
            .nodes(3)
            .policy(SharingPolicy::FaST)
            .oversubscribe(true)
            .recovery(true)
            .seed(23);
        if chaos {
            cfg = cfg.fault_plan(chaos_plan());
        }
        let mut sc = Scenario::new(
            format!("fleet-{}", if chaos { "faults" } else { "clean" }),
            cfg,
        );
        for (i, (name, model, rate)) in [
            ("fleet-resnet", "resnet50", 18.0),
            ("fleet-bert", "bert_base", 30.0),
            ("fleet-rnnt", "rnnt", 9.0),
        ]
        .into_iter()
        .enumerate()
        {
            sc = sc
                .function(
                    FunctionConfig::new(name, model)
                        .replicas(1)
                        .resources(100.0, 1.0, 1.0),
                )
                .load(i, ArrivalProcess::constant(rate));
        }
        out.push(sc.duration(SimTime::from_secs(6)));
    }
    out
}

/// The flash-crowd overload matrix: control {off, on} × fast-forward
/// {on, off} × {clean, chaos}.
fn overload_scenarios() -> Vec<Scenario> {
    let mut out = Vec::new();
    for control in [false, true] {
        for fastforward in [true, false] {
            for chaos in [false, true] {
                out.push(flash_crowd_scenario(
                    format!(
                        "overload-c{}-ff{}-{}",
                        u8::from(control),
                        u8::from(fastforward),
                        if chaos { "faults" } else { "clean" }
                    ),
                    control,
                    fastforward,
                    chaos.then(chaos_plan),
                    30.0,
                    400.0,
                    8,
                    17,
                ));
            }
        }
    }
    out
}

/// Every scenario the detector perturbs: the determinism fingerprint
/// workloads, the chaos/FF-parity runs, the seeded sweep grid, the
/// overload matrix and the fleet matrix.
pub fn race_matrix() -> Vec<Scenario> {
    let mut all = policy_scenarios();
    all.extend(chaos_scenarios());
    all.extend(sweep_scenarios());
    all.extend(overload_scenarios());
    all.extend(fleet_scenarios());
    all
}

/// A context window around the first divergent event of two traces.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Tie-break order of the baseline run.
    pub order_a: String,
    /// Tie-break order of the diverging run.
    pub order_b: String,
    /// Index (0-based) of the first event delivered differently.
    pub first_event: usize,
    /// Baseline trace lines around (and including) the divergence.
    pub context_a: Vec<String>,
    /// Diverging trace lines around (and including) the divergence.
    pub context_b: Vec<String>,
}

/// One scenario's detector verdict: the digest under every order, plus a
/// delta-debugged divergence if any order disagreed with the baseline.
#[derive(Debug, Clone)]
pub struct RaceOutcome {
    /// Scenario label from the matrix.
    pub scenario: String,
    /// `(order label, report digest)` per perturbation, baseline first.
    pub digests: Vec<(String, u64)>,
    /// First divergence found, already delta-debugged. `None` means the
    /// scenario is tie-break clean.
    pub divergence: Option<Divergence>,
}

impl RaceOutcome {
    /// Whether every perturbation reproduced the baseline digest.
    pub fn clean(&self) -> bool {
        self.divergence.is_none()
    }
}

/// Lines of trace context shown on each side of a divergence.
const CONTEXT: usize = 6;

/// Runs `scenario` under `order` and returns its report digest.
fn digest_under(scenario: &Scenario, order: TieBreak) -> Result<u64, PlatformError> {
    let mut sc = scenario.clone();
    sc.config = sc.config.tiebreak(order);
    Ok(sc.run()?.digest())
}

/// Re-runs `scenario` under `order` with event tracing enabled.
fn trace_under(scenario: &Scenario, order: TieBreak) -> Result<Vec<String>, PlatformError> {
    let mut sc = scenario.clone();
    sc.config = sc.config.tiebreak(order).trace_events(true);
    Ok(sc.run_traced()?.1)
}

/// The timestamp prefix of a trace line (`"99570us KernelFinish(..)"`
/// → `"99570us"`).
fn stamp(line: &str) -> &str {
    line.split(' ').next().unwrap_or("")
}

/// Index of the first *semantic* divergence between two traces: the
/// start of the first same-instant group whose event multiset differs.
/// Reordering within an instant is exactly the perturbation under test,
/// so it is skipped; the interesting point is where the two runs start
/// delivering *different events*, not the same events shuffled.
fn first_semantic_divergence(ta: &[String], tb: &[String]) -> usize {
    let mut i = 0;
    while i < ta.len() && i < tb.len() {
        let t = stamp(&ta[i]);
        if t != stamp(&tb[i]) {
            return i;
        }
        let end_a = ta[i..].iter().take_while(|l| stamp(l) == t).count();
        let end_b = tb[i..].iter().take_while(|l| stamp(l) == t).count();
        let mut ga: Vec<&String> = ta[i..i + end_a].iter().collect();
        let mut gb: Vec<&String> = tb[i..i + end_b].iter().collect();
        ga.sort();
        gb.sort();
        if ga != gb {
            return i;
        }
        i += end_a;
    }
    i.min(ta.len().max(tb.len()).saturating_sub(1))
}

/// Delta-debugs two orders of one scenario to the first divergent event,
/// returning context windows from both traces.
fn delta_debug(
    scenario: &Scenario,
    base: TieBreak,
    diverged: TieBreak,
) -> Result<Divergence, PlatformError> {
    let ta = trace_under(scenario, base)?;
    let tb = trace_under(scenario, diverged)?;
    let first = first_semantic_divergence(&ta, &tb);
    let window = |t: &[String]| -> Vec<String> {
        let lo = first.saturating_sub(CONTEXT);
        let hi = (first + CONTEXT + 1).min(t.len());
        t.get(lo..hi).map(<[String]>::to_vec).unwrap_or_default()
    };
    Ok(Divergence {
        order_a: order_label(base),
        order_b: order_label(diverged),
        first_event: first,
        context_a: window(&ta),
        context_b: window(&tb),
    })
}

/// Runs one scenario under every order, comparing digests against the
/// first (baseline) order and delta-debugging the first divergence.
pub fn detect_races_in(
    scenario: &Scenario,
    orders: &[TieBreak],
) -> Result<RaceOutcome, PlatformError> {
    let mut digests = Vec::with_capacity(orders.len());
    let mut divergence = None;
    for &order in orders {
        let digest = digest_under(scenario, order)?;
        digests.push((order_label(order), digest));
    }
    if let Some(&(_, base_digest)) = digests.first() {
        if let Some(bad) = digests.iter().position(|&(_, d)| d != base_digest) {
            divergence = Some(delta_debug(scenario, orders[0], orders[bad])?);
        }
    }
    Ok(RaceOutcome {
        scenario: scenario.name.clone(),
        digests,
        divergence,
    })
}

/// Runs the whole matrix under every order. Outcomes come back in matrix
/// order; any non-clean outcome carries its delta-debugged divergence.
pub fn detect_races(orders: &[TieBreak]) -> Result<Vec<RaceOutcome>, PlatformError> {
    race_matrix()
        .iter()
        .map(|sc| detect_races_in(sc, orders))
        .collect()
}

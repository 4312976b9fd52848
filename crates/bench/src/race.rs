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
use fastg_workload::{patterns, ArrivalProcess};
use fastgshare::manager::SharingPolicy;
use fastgshare::platform::{
    FaultKind, FaultPlan, FunctionConfig, PlatformConfig, PlatformError, Scenario, TieBreak,
};

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

/// The fleet matrix, {clean, chaos}: the Figure 11 token-shared pod set
/// on each of three nodes (two BERT at 50 % SMs, two RNNT at 24 %, four
/// ResNet-50 at 12 %, so 196 % of every GPU's SMs registered), packed by
/// the paper scheduler under Poisson load. Fast-forward coalesces the
/// token holders' bursts here, so the matrix perturbs macro-events too.
fn fleet_scenarios() -> Vec<Scenario> {
    const NODES: usize = 3;
    let mut out = Vec::new();
    for chaos in [false, true] {
        let mut cfg = PlatformConfig::default()
            .nodes(NODES)
            .policy(SharingPolicy::FaST)
            .recovery(true)
            .seed(23);
        if chaos {
            cfg = cfg.fault_plan(chaos_plan());
        }
        let mut sc = Scenario::new(
            format!("fleet-{}", if chaos { "faults" } else { "clean" }),
            cfg,
        );
        for (i, (name, model, sm, quota, rate, stream)) in [
            ("fleet-bert", "bert_base", 50.0, 0.6, 40.0, 31),
            ("fleet-rnnt", "rnnt", 24.0, 0.4, 6.0, 32),
            ("fleet-resnet-a", "resnet50", 12.0, 0.4, 30.0, 33),
            ("fleet-resnet-b", "resnet50", 12.0, 0.4, 20.0, 34),
        ]
        .into_iter()
        .enumerate()
        {
            sc = sc
                .function(
                    FunctionConfig::new(name, model)
                        .replicas(2 * NODES)
                        .resources(sm, quota, quota),
                )
                .load(i, ArrivalProcess::poisson(rate, stream));
        }
        out.push(sc.duration(SimTime::from_secs(6)));
    }
    out
}

/// The flash-crowd overload scenario: two replicas at half quota
/// (~70 rps capacity) on two nodes, hit by a crowd that ramps from
/// 30 req/s at 5 s to 400 req/s at 6 s and holds to the end of the 8 s
/// run, far beyond anything the scaler could absorb. With `control` the overload plane (bounded
/// admission, deadline shedding, circuit breaker, brownout) is armed;
/// without it the platform queues silently without limit. An optional
/// `FaultPlan` layers node chaos on top of the crowd.
fn flash_crowd_scenario(
    name: String,
    control: bool,
    fastforward: bool,
    plan: Option<FaultPlan>,
) -> Scenario {
    const SECONDS: u64 = 8;
    const SEED: u64 = 17;
    let mut cfg = PlatformConfig::default()
        .nodes(2)
        .policy(SharingPolicy::FaST)
        .warmup(SimTime::from_secs(1))
        .fastforward(fastforward)
        .overload_control(control)
        .seed(SEED);
    if let Some(plan) = plan {
        cfg = cfg.fault_plan(plan);
    }
    Scenario::new(name, cfg)
        .function(
            FunctionConfig::new("flash", "resnet50")
                .slo_ms(200)
                .replicas(2)
                .resources(50.0, 0.5, 0.8),
        )
        .load(
            0,
            patterns::flash_crowd(
                30.0,
                400.0,
                SimTime::from_secs(5),
                SimTime::from_secs(1),
                SimTime::from_secs(5),
                SimTime::from_secs(SECONDS),
                1,
                SEED + 1,
            ),
        )
        .duration(SimTime::from_secs(SECONDS))
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
                ));
            }
        }
    }
    out
}

/// Queue timeouts under faults, overload control {off, on}: two
/// half-quota replicas (~70 rps) take 90 req/s, so the queue grows and
/// requests time out 2 SLOs (200 ms) after arrival, while the chaos plan
/// crashes pods with requests on them, which retry once. Timer sheds,
/// superseded timers, crash retries and budget drops all ride the
/// perturbed instants.
fn timeout_scenarios() -> Vec<Scenario> {
    [false, true]
        .into_iter()
        .map(|control| {
            Scenario::new(
                format!("timeouts-c{}", u8::from(control)),
                PlatformConfig::default()
                    .nodes(2)
                    .policy(SharingPolicy::FaST)
                    .recovery(true)
                    .overload_control(control)
                    .request_timeout_factor(2.0)
                    .retry_budget(1)
                    .seed(29)
                    .fault_plan(chaos_plan()),
            )
            .function(
                FunctionConfig::new("timed", "resnet50")
                    .slo_ms(100)
                    .replicas(2)
                    .resources(50.0, 0.5, 0.8),
            )
            .load(0, ArrivalProcess::poisson(90.0, 30))
            .duration(SimTime::from_secs(6))
        })
        .collect()
}

/// One RNNT replica alone on one node under Poisson load, under FaST and
/// under time sharing: the pod runs ahead, taking its steps, its token
/// passes and its sync points inline between arrivals, so the matrix
/// perturbs the instants a stretch stops at.
fn solo_scenarios() -> Vec<Scenario> {
    [SharingPolicy::FaST, SharingPolicy::SingleToken]
        .into_iter()
        .map(|policy| {
            Scenario::new(
                format!("solo-{policy:?}"),
                PlatformConfig::default()
                    .nodes(1)
                    .policy(policy)
                    .fastforward(true)
                    .seed(37),
            )
            .function(FunctionConfig::new("solo", "rnnt").resources(24.0, 0.4, 0.4))
            .load(0, ArrivalProcess::poisson(5.0, 38))
            .duration(SimTime::from_secs(4))
        })
        .collect()
}

/// Four RNNT replicas at 12 % SMs on one node under Poisson load, under
/// FaST, racing and time sharing: the node runs ahead, taking its pods'
/// steps, its passes and its quota windows inline between arrivals, so
/// the matrix perturbs the ties inside node stretches and the instants
/// they stop at.
fn node_scenarios() -> Vec<Scenario> {
    [SharingPolicy::FaST, SharingPolicy::Racing, SharingPolicy::SingleToken]
        .into_iter()
        .map(|policy| {
            Scenario::new(
                format!("node-{policy:?}"),
                PlatformConfig::default()
                    .nodes(1)
                    .policy(policy)
                    .oversubscribe(true)
                    .fastforward(true)
                    .seed(39),
            )
            .function(FunctionConfig::new("node", "rnnt").replicas(4).resources(12.0, 1.0, 1.0))
            .load(0, ArrivalProcess::poisson(12.0, 40))
            .duration(SimTime::from_secs(4))
        })
        .collect()
}

/// Every scenario the detector perturbs: the determinism fingerprint
/// workloads, the chaos/FF-parity runs, the seeded sweep grid, the
/// overload matrix, the fleet matrix, the queue-timeout pair, the solo
/// pair and the node trio.
pub fn race_matrix() -> Vec<Scenario> {
    let mut all = policy_scenarios();
    all.extend(chaos_scenarios());
    all.extend(sweep_scenarios());
    all.extend(overload_scenarios());
    all.extend(fleet_scenarios());
    all.extend(timeout_scenarios());
    all.extend(solo_scenarios());
    all.extend(node_scenarios());
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

#[cfg(test)]
mod tests {
    use super::*;
    use fastgshare::platform::Platform;

    /// The timeout pair exercises what it is there for: the timers shed
    /// queued requests, with overload control off and on.
    #[test]
    fn timeout_scenarios_shed_queued_requests() {
        for sc in timeout_scenarios() {
            let name = sc.name.clone();
            let report = sc.run().expect("runs");
            let dropped: u64 = report.functions.values().map(|f| f.dropped).sum();
            assert!(dropped > 0, "{name}: no queue timeout shed a request");
        }
    }

    /// Runs a one-function scenario and returns its platform.
    fn ran(sc: &Scenario) -> Platform {
        let mut p = Platform::new(sc.config.clone());
        let f = p.deploy(sc.functions[0].clone()).expect("deploys");
        p.set_load(f, sc.loads[0].1.clone());
        p.run_for(sc.duration);
        p
    }

    /// The solo pair exercises what it is there for: the pod runs ahead.
    #[test]
    fn solo_scenarios_run_ahead() {
        for sc in solo_scenarios() {
            let p = ran(&sc);
            let inline = p.handler_counts().inline_bursts;
            assert!(inline > 0, "{}: none of {} bursts ran ahead", sc.name, p.ff_bursts());
        }
    }

    /// The node trio exercises what it is there for: most bursts of the
    /// node's four pods run inside its stretches.
    #[test]
    fn node_scenarios_run_ahead() {
        for sc in node_scenarios() {
            let p = ran(&sc);
            let (inline, bursts) = (p.handler_counts().inline_bursts, p.ff_bursts());
            assert!(inline * 2 > bursts, "{}: {inline} of {bursts} bursts ran ahead", sc.name);
        }
    }
}

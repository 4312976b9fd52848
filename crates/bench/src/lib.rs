//! Shared scenario runners for the figure-regeneration benches.
//!
//! Each `benches/figNN_*.rs` harness prints the paper table/series it
//! regenerates (deterministically) and then lets Criterion time one
//! representative configuration. The scenario builders live here so the
//! benches stay declarative.

use fastg_cluster::{NodeId, PodId, ResourceSpec};
use fastg_des::SimTime;
use fastg_workload::{patterns, ArrivalProcess};
use fastgshare::manager::{SchedPolicy, SharingPolicy};
use fastgshare::scheduler::Scheduler;
use fastgshare::platform::{
    FaultPlan, FunctionConfig, OverloadConfig, Platform, PlatformConfig, PlatformError,
    PlatformReport, Scenario,
};
use fastgshare::profiler::{ProfileDb, ProfileKey, ProfileRecord};

pub mod harness;
pub mod race;

/// Outcome of one saturated sharing run (one function, one node).
#[derive(Debug, Clone, Copy)]
pub struct SharingOutcome {
    /// Total steady-state throughput (req/s).
    pub rps: f64,
    /// Median latency.
    pub p50: SimTime,
    /// Tail latency.
    pub p99: SimTime,
    /// Mean GPU utilization (0..=1).
    pub utilization: f64,
    /// Mean SM occupancy (0..=1).
    pub sm_occupancy: f64,
}

/// The one-node sharing run as a [`Scenario`], so a whole grid of them
/// can fan out over `fastg-par` via `run_sweep`.
pub fn sharing_scenario(
    name: impl Into<String>,
    policy: SharingPolicy,
    model: &str,
    pods: usize,
    sm_pct: f64,
    seconds: u64,
    seed: u64,
) -> Scenario {
    let pods = if policy == SharingPolicy::Exclusive { 1 } else { pods };
    Scenario::new(
        name,
        PlatformConfig::default()
            .nodes(1)
            .policy(policy)
            .oversubscribe(true)
            .warmup(SimTime::from_secs(1))
            .seed(seed),
    )
    .function(
        FunctionConfig::new("bench", model)
            .replicas(pods)
            .resources(sm_pct, 1.0, 1.0)
            .saturating(),
    )
    .duration(SimTime::from_secs(1 + seconds))
}

/// The flash-crowd overload scenario: two replicas at half quota
/// (~70 rps capacity) on two nodes, hit by a crowd that ramps from
/// `base_rps` to `peak_rps` and holds — far beyond anything the scaler
/// could absorb. With `control` the overload plane (bounded admission,
/// deadline shedding, circuit breaker, brownout) is armed; without it the
/// platform queues silently without limit. An optional `FaultPlan` layers
/// node chaos on top of the crowd.
#[allow(clippy::too_many_arguments)]
pub fn flash_crowd_scenario(
    name: impl Into<String>,
    control: bool,
    fastforward: bool,
    plan: Option<FaultPlan>,
    base_rps: f64,
    peak_rps: f64,
    seconds: u64,
    seed: u64,
) -> Scenario {
    let mut cfg = PlatformConfig::default()
        .nodes(2)
        .policy(SharingPolicy::FaST)
        .warmup(SimTime::from_secs(1))
        .fastforward(fastforward)
        .seed(seed);
    if control {
        cfg = cfg.overload(OverloadConfig::default());
    }
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
                base_rps,
                peak_rps,
                SimTime::from_secs(5),
                SimTime::from_secs(1),
                SimTime::from_secs(5),
                SimTime::from_secs(seconds),
                1,
                seed.wrapping_add(1),
            ),
        )
        .duration(SimTime::from_secs(seconds))
}

/// Condenses a single-function, single-node report into the figure row.
pub fn sharing_outcome(report: &PlatformReport) -> Result<SharingOutcome, PlatformError> {
    let fr = report
        .functions
        .values()
        .next()
        .ok_or(PlatformError::Internal("sharing report has no function"))?;
    let node = report
        .nodes
        .first()
        .ok_or(PlatformError::Internal("sharing report has no node"))?;
    Ok(SharingOutcome {
        rps: fr.throughput_rps,
        p50: fr.p50,
        p99: fr.p99,
        utilization: node.utilization,
        sm_occupancy: node.sm_occupancy,
    })
}

/// Runs `pods` saturating replicas of `model` on one V100 under `policy`
/// with `sm_pct` SM partitions, measuring for `seconds` after 1 s warm-up.
pub fn run_sharing(
    policy: SharingPolicy,
    model: &str,
    pods: usize,
    sm_pct: f64,
    seconds: u64,
    seed: u64,
) -> Result<SharingOutcome, PlatformError> {
    let report = sharing_scenario("sharing", policy, model, pods, sm_pct, seconds, seed).run()?;
    sharing_outcome(&report)
}

/// Deploys the Figure 11 pod set (2 BERT + 2 RNNT + 4 ResNet, descending
/// area order) on a 4-node cluster under `policy`, saturating, and runs
/// for `seconds` after 1 s warm-up. Returns `(gpus bound, report)`.
pub fn run_fig11(
    policy: SharingPolicy,
    seconds: u64,
    seed: u64,
) -> Result<(usize, PlatformReport), PlatformError> {
    let mut p = Platform::new(
        PlatformConfig::default()
            .nodes(4)
            .policy(policy)
            .warmup(SimTime::from_secs(1))
            .seed(seed),
    );
    p.deploy(
        FunctionConfig::new("bert", "bert_base")
            .replicas(2)
            .resources(50.0, 0.6, 0.6)
            .saturating(),
    )?;
    p.deploy(
        FunctionConfig::new("rnnt", "rnnt")
            .replicas(2)
            .resources(24.0, 0.4, 0.4)
            .saturating(),
    )?;
    p.deploy(
        FunctionConfig::new("resnet", "resnet50")
            .replicas(4)
            .resources(12.0, 0.4, 0.4)
            .saturating(),
    )?;
    let gpus = p.gpus_in_use();
    let report = p.run_for(SimTime::from_secs(1 + seconds));
    Ok((gpus, report))
}

/// An analytic ResNet-50 profile database (Figure 8 shaped) for
/// auto-scaling scenarios.
pub fn resnet_profile_db() -> ProfileDb {
    let model = fastg_models::zoo::resnet50();
    let mut db = ProfileDb::new();
    for &(sm_pct, sms) in &[(6.0, 5u32), (12.0, 10), (24.0, 19), (50.0, 40)] {
        for &q in &[0.2, 0.4, 0.6, 0.8, 1.0] {
            db.insert(
                "resnet50",
                ProfileKey::new(sm_pct, q),
                ProfileRecord {
                    rps: model.ideal_rps(sms, q),
                    p50: model.latency_at(sms),
                    p99: model.latency_at(sms) * 2,
                    utilization: 0.0,
                    sm_occupancy: 0.0,
                },
            );
        }
    }
    db
}

/// One Figure 12 auto-scaling interval: `(time, replicas, served_rate,
/// p99)`.
pub type ScalingSample = (u64, usize, f64, SimTime);

/// The Figure 12 auto-scaling scenario: returns per-interval
/// [`ScalingSample`]s and the final report.
pub fn run_autoscaling(
    seed: u64,
    intervals: usize,
    interval_secs: u64,
) -> Result<(Vec<ScalingSample>, PlatformReport), PlatformError> {
    let mut p = Platform::new(
        PlatformConfig::default()
            .nodes(4)
            .warmup(SimTime::from_secs(2))
            .seed(seed),
    );
    let f = p.deploy(
        FunctionConfig::new("resnet", "resnet50")
            .slo_ms(69)
            .replicas(1)
            .resources(12.0, 0.4, 1.0),
    )?;
    p.enable_autoscaler(resnet_profile_db());
    let total = u64::try_from(intervals)
        .unwrap_or(u64::MAX)
        .saturating_mul(interval_secs);
    p.set_load(
        f,
        ArrivalProcess::profile(
            vec![
                (SimTime::ZERO, 10.0),
                (SimTime::from_secs(total / 6), 10.0),
                (SimTime::from_secs(total / 2), 130.0),
                (SimTime::from_secs(total * 2 / 3), 130.0),
                (SimTime::from_secs(total * 3 / 4), 40.0),
                (SimTime::from_secs(total), 40.0),
            ],
            seed,
        ),
    );
    let mut samples = Vec::new();
    let mut prev_completed = 0u64;
    let mut last = None;
    let mut elapsed = 0u64;
    for _ in 0..intervals {
        let report = p.run_for(SimTime::from_secs(interval_secs));
        let fr = &report.functions[&f];
        let served = (fr.completed - prev_completed) as f64 / interval_secs as f64;
        prev_completed = fr.completed;
        elapsed += interval_secs;
        samples.push((elapsed, fr.replicas, served, fr.p99));
        last = Some(report);
    }
    let last = last.ok_or(PlatformError::Internal("autoscaling needs >= 1 interval"))?;
    Ok((samples, last))
}

/// Formats a `SimTime` latency as milliseconds for tables.
pub fn ms(t: SimTime) -> String {
    format!("{:.1}ms", t.as_millis_f64())
}

// ----- fleet-scale scenarios ----------------------------------------

/// The fleet model menu: `(zoo name, min rps, max rps)`. The rate caps
/// keep a single full-GPU replica below saturation (constant arrival gap
/// strictly above the model's service latency), so the queue never
/// grows.
pub const FLEET_MODELS: [(&str, f64, f64); 4] = [
    ("resnet50", 6.0, 60.0),
    ("bert_base", 6.0, 35.0),
    ("resnext101", 5.0, 22.0),
    ("gnmt", 5.0, 25.0),
];

/// Per-function `(model, constant rps)` assignments for a fleet of
/// `funcs` single-replica functions: Zipf-popularity rates (exponent 1.1)
/// clamped into each model's [`FLEET_MODELS`] band, models assigned
/// round-robin by rank. Deterministic.
pub fn fleet_rates(funcs: usize) -> Vec<(&'static str, f64)> {
    fastg_workload::fleet::zipf_rates(funcs, funcs as f64 * 30.0, 1.1)
        .iter()
        .enumerate()
        .map(|(i, &r)| {
            let (model, lo, hi) = FLEET_MODELS[i % FLEET_MODELS.len()];
            (model, r.clamp(lo, hi))
        })
        .collect()
}

/// A non-oversubscribed fleet where every function demands the full
/// (100 % quota × 100 % SM) plane, so placement flows through the
/// pluggable scheduler instead of the oversubscribe least-loaded scan.
/// On full-plane demands the paper reference and the guillotine fast
/// path provably agree — an empty plane is the only feasible host and
/// both orderings reduce to "lowest empty node id" — so whole-run
/// canonical reports must match byte for byte across `sched` values.
pub fn parity_fleet(nodes: usize, seed: u64, sched: SchedPolicy) -> Platform {
    let mut p = Platform::new(
        PlatformConfig::default()
            .nodes(nodes)
            .policy(SharingPolicy::FaST)
            .scheduler(sched)
            .window(SimTime::from_secs(1))
            .sample_interval(SimTime::from_secs(2))
            .event_capacity(nodes * 4)
            .seed(seed),
    );
    for (i, (model, rate)) in fleet_rates(nodes).iter().enumerate() {
        let f = p
            .deploy(
                FunctionConfig::new(&format!("fleet-{i:04}"), model)
                    .replicas(1)
                    .resources(100.0, 1.0, 1.0),
            )
            // Bench fixture constructor; a failed deploy is a bug in
            // the fixture itself. fastg-lint: allow(no-panic-in-lib)
            .expect("parity fleet function deploys");
        p.set_load(f, ArrivalProcess::constant(*rate));
    }
    p
}

// ----- scheduler churn storms ---------------------------------------

/// The churn pod menu: `(SM %, quota)` shapes spanning small slivers to
/// near-full planes, so storms exercise every size class of the arena's
/// free-capacity index.
pub const CHURN_SHAPES: [(f64, f64); 6] = [
    (50.0, 0.6),
    (24.0, 0.4),
    (12.0, 0.4),
    (6.0, 0.2),
    (25.0, 0.5),
    (95.0, 0.95),
];

/// The `i`-th storm pod's resource spec (menu round-robin).
pub fn churn_spec(i: u64) -> ResourceSpec {
    let (sm, q) = CHURN_SHAPES[usize::try_from(i).unwrap_or(0) % CHURN_SHAPES.len()];
    ResourceSpec::new(sm, q, q, 0)
}

/// Outcome of one churn storm, for cross-allocator comparison.
#[derive(Debug, Clone, Copy)]
pub struct ChurnOutcome {
    /// Successful placements (select + bind).
    pub placements: u64,
    /// Releases performed.
    pub releases: u64,
    /// Demands no node could host.
    pub rejects: u64,
    /// Bound area across the cluster at storm end.
    pub used_area: u64,
    /// GPUs hosting at least one pod at storm end.
    pub gpus_in_use: usize,
    /// Per-node fit probes the selector performed.
    pub probes: u64,
    /// Placements that took the exact maximal-rects fallback.
    pub fallbacks: u64,
}

/// Drives `sched` through a deterministic place/release storm over
/// `nodes` fresh GPUs: `ops` operations, ~45 % of them releases of a
/// pseudo-randomly chosen live pod (xorshift64, seed-keyed — never
/// wall-clock), the rest placements off the [`CHURN_SHAPES`] menu.
/// Live-pod count is capped at 3 × nodes (~60 % mean occupancy), so the
/// storm measures steady-state placement churn, not the degenerate
/// full-cluster reject scan. The op sequence depends only on
/// `(ops, seed)` and the live-pod count, so allocators processing the
/// same demands see comparable work.
pub fn churn_storm(sched: &mut dyn Scheduler, nodes: usize, ops: u64, seed: u64) -> ChurnOutcome {
    for i in 0..nodes {
        sched.add_gpu(NodeId(u32::try_from(i).unwrap_or(u32::MAX)));
    }
    let max_live = nodes * 3;
    let mut rng = seed | 1;
    let mut live: Vec<(NodeId, PodId)> = Vec::new();
    let mut next_pod = 0u64;
    let mut out = ChurnOutcome {
        placements: 0,
        releases: 0,
        rejects: 0,
        used_area: 0,
        gpus_in_use: 0,
        probes: 0,
        fallbacks: 0,
    };
    for _ in 0..ops {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        if !live.is_empty() && (rng % 100 < 45 || live.len() >= max_live) {
            let len = u64::try_from(live.len()).unwrap_or(1);
            let at = usize::try_from((rng / 100) % len).unwrap_or(0);
            let (node, pod) = live.swap_remove(at);
            sched.release(node, pod);
            out.releases += 1;
        } else {
            let spec = churn_spec(next_pod);
            let pod = PodId(next_pod);
            next_pod += 1;
            match sched.select_node(&spec, &mut |_| true) {
                Some(node) if sched.bind(node, pod, &spec).is_some() => {
                    live.push((node, pod));
                    out.placements += 1;
                }
                _ => out.rejects += 1,
            }
        }
    }
    out.used_area = sched.total_used_area();
    out.gpus_in_use = sched.gpus_in_use();
    let stats = sched.stats();
    out.probes = stats.probes;
    out.fallbacks = stats.exact_fallbacks;
    out
}

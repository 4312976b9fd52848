//! Shared scenario runners for the figure-regeneration benches and the
//! race detector.
//!
//! Each `benches/figNN_*.rs` program prints the paper table or series it
//! regenerates, deterministically; none of them times anything (the
//! `fastg-bench` suite does). The scenario builders live here so the
//! benches stay declarative.

use fastg_des::SimTime;
use fastg_workload::{patterns, ArrivalProcess};
use fastgshare::manager::SharingPolicy;
use fastgshare::platform::{
    FaultPlan, FunctionConfig, OverloadConfig, Platform, PlatformConfig, PlatformError,
    PlatformReport, Scenario,
};
use fastgshare::profiler::{ProfileDb, ProfileKey, ProfileRecord};

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


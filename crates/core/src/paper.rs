//! The paper's evaluation scenarios (§5), each defined once.
//!
//! Every figure has a constructor that returns its configured scenario
//! and a runner that returns the figure's numbers. The figure benches
//! print those numbers, `tests/paper_fidelity.rs` bands them, and the
//! `fastgshare` CLI and the examples call the same functions, so a change
//! to a figure's scenario is made here and nowhere else. EXPERIMENTS.md
//! names the function behind each of its tables.

use fastg_cluster::FuncId;
use fastg_des::SimTime;
use fastg_gpu::GpuSpec;
use fastg_models::{zoo, ModelProfile};
use fastg_workload::ArrivalProcess;

use crate::manager::SharingPolicy;
use crate::platform::{
    FunctionConfig, FunctionReport, Platform, PlatformConfig, PlatformError, PlatformReport,
    Scenario,
};
use crate::profiler::{ConfigServer, Experiment, ProfileDb, ProfileKey, ProfileRecord};

/// A profile database computed from each model's analytic curves instead
/// of measured trials. Each `(SM %, quota)` cell of `spatial × temporal`
/// holds the model's `ideal_rps` and latency on the SMs a V100 gives that
/// partition, with p99 at twice p50.
pub fn analytic_profile(models: &[ModelProfile], spatial: &[f64], temporal: &[f64]) -> ProfileDb {
    let gpu = GpuSpec::v100();
    let mut db = ProfileDb::new();
    for model in models {
        for &sm_pct in spatial {
            let sms = gpu.sms_for_percentage(sm_pct);
            let latency = model.latency_at(sms);
            for &quota in temporal {
                let record = ProfileRecord {
                    rps: model.ideal_rps(sms, quota),
                    p50: latency,
                    p99: latency * 2,
                    utilization: 0.0,
                    sm_occupancy: 0.0,
                };
                db.insert(&model.name, ProfileKey::new(sm_pct, quota), record);
            }
        }
    }
    db
}

/// The SM partitions of the paper's profiling grid (§5.2, Figure 8).
pub const FIG8_SPATIAL: [f64; 7] = [6.0, 12.0, 24.0, 50.0, 60.0, 80.0, 100.0];
/// The time quotas of the paper's profiling grid (§5.2, Figure 8).
pub const FIG8_TEMPORAL: [f64; 5] = [0.2, 0.4, 0.6, 0.8, 1.0];

/// Figure 8: profiling `model` over the paper grid with 3 s trials.
pub fn fig8(model: &str) -> Experiment {
    Experiment::new(model, ConfigServer::paper_grid()).trial_duration(SimTime::from_secs(3))
}

/// Figure 9: a ResNet pod with an elastic 50–80 % quota, alone or beside
/// an RNNT pod at 50–50 %, both saturating on one over-subscribed V100.
/// Time sharing gives both pods the whole GPU; FaST gives each a disjoint
/// 24 % partition. Returns ResNet's throughput over `seconds` after the
/// 1 s warm-up.
pub fn run_fig9(
    policy: SharingPolicy,
    with_rnnt: bool,
    seconds: u64,
    seed: u64,
) -> Result<f64, PlatformError> {
    let sm = if policy == SharingPolicy::FaST {
        24.0
    } else {
        100.0
    };
    let mut p = Platform::new(one_gpu(policy, seed));
    let resnet = p.deploy(
        FunctionConfig::new("resnet", "resnet50")
            .resources(sm, 0.5, 0.8)
            .saturating(),
    )?;
    if with_rnnt {
        p.deploy(
            FunctionConfig::new("rnnt", "rnnt")
                .resources(sm, 0.5, 0.5)
                .saturating(),
        )?;
    }
    let report = p.run_for(SimTime::from_secs(1 + seconds));
    Ok(function_report(&report, resnet)?.throughput_rps)
}

/// One over-subscribed V100 with a 1 s warm-up: the node of the sharing
/// cell and of Figure 9.
fn one_gpu(policy: SharingPolicy, seed: u64) -> PlatformConfig {
    PlatformConfig::default()
        .nodes(1)
        .policy(policy)
        .oversubscribe(true)
        .warmup(SimTime::from_secs(1))
        .seed(seed)
}

/// Outcome of one sharing cell.
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

/// The sharing cell of [`run_sharing`], as a [`Scenario`] so that
/// [`fig10`]'s grid of cells fans out over `run_sweep`.
fn sharing(
    name: impl Into<String>,
    policy: SharingPolicy,
    model: &str,
    pods: usize,
    sm_pct: f64,
    seconds: u64,
    seed: u64,
) -> Scenario {
    let pods = if policy == SharingPolicy::Exclusive {
        1
    } else {
        pods
    };
    Scenario::new(name, one_gpu(policy, seed))
        .function(
            FunctionConfig::new("bench", model)
                .replicas(pods)
                .resources(sm_pct, 1.0, 1.0)
                .saturating(),
        )
        .duration(SimTime::from_secs(1 + seconds))
}

/// Condenses a sharing cell's report into its [`SharingOutcome`].
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

/// The sharing cell of Figures 1 and 10 and the §5.3 speedups: `pods`
/// saturating replicas of `model` on one over-subscribed V100 under
/// `policy`, each with `sm_pct` % of the SMs and its full quota, measured
/// for `seconds` after a 1 s warm-up. Exclusive runs one pod.
pub fn run_sharing(
    policy: SharingPolicy,
    model: &str,
    pods: usize,
    sm_pct: f64,
    seconds: u64,
    seed: u64,
) -> Result<SharingOutcome, PlatformError> {
    sharing_outcome(&sharing("sharing", policy, model, pods, sm_pct, seconds, seed).run()?)
}

/// The five ways to share one GPU that the `fastgshare compare` command
/// and the `baseline_sharing` example print: `(label, policy, SM %)`.
pub const SHARING_SETUPS: [(&str, SharingPolicy, f64); 5] = [
    ("device plugin (exclusive)", SharingPolicy::Exclusive, 100.0),
    (
        "time sharing (KubeShare)",
        SharingPolicy::SingleToken,
        100.0,
    ),
    ("racing (MPS, no control)", SharingPolicy::Racing, 100.0),
    ("FaST-GShare (12% parts)", SharingPolicy::FaST, 12.0),
    ("FaST-GShare (24% parts)", SharingPolicy::FaST, 24.0),
];

/// Figure 10's models.
pub const FIG10_MODELS: [&str; 3] = ["resnet50", "rnnt", "gnmt"];
/// Figure 10's setups: `(label, policy, SM %)`.
pub const FIG10_SETUPS: [(&str, SharingPolicy, f64); 3] = [
    ("racing", SharingPolicy::Racing, 100.0),
    ("12% part", SharingPolicy::FaST, 12.0),
    ("24% part", SharingPolicy::FaST, 24.0),
];
/// Figure 10's pod counts.
pub const FIG10_PODS: [usize; 4] = [1, 2, 4, 8];

/// Figure 10: one sharing cell (see [`run_sharing`]) per model × setup ×
/// pod count, in that nesting order, named `model/label/pods`. Read each
/// report with [`sharing_outcome`].
pub fn fig10(seconds: u64, seed: u64) -> Vec<Scenario> {
    let mut grid = Vec::new();
    for model in FIG10_MODELS {
        for (label, policy, sm) in FIG10_SETUPS {
            for pods in FIG10_PODS {
                let name = format!("{model}/{label}/{pods}");
                grid.push(sharing(name, policy, model, pods, sm, seconds, seed));
            }
        }
    }
    grid
}

/// Figure 11's pod set: 2 BERT at (50 %, 60 %), 2 RNNT at (24 %, 40 %) and
/// 4 ResNet at (12 %, 40 %), each with its quota limit equal to its
/// request, saturating, in the descending-area order in which the
/// FaST-Scheduler submits them.
pub fn fig11_functions() -> [FunctionConfig; 3] {
    let pod = |name: &str, model: &str, replicas: usize, sm: f64, quota: f64| {
        FunctionConfig::new(name, model)
            .replicas(replicas)
            .resources(sm, quota, quota)
            .saturating()
    };
    [
        pod("bert", "bert_base", 2, 50.0, 0.6),
        pod("rnnt", "rnnt", 2, 24.0, 0.4),
        pod("resnet", "resnet50", 4, 12.0, 0.4),
    ]
}

/// Figure 11: the [`fig11_functions`] deployed on four V100 nodes under
/// `policy`, with a 1 s warm-up.
pub fn fig11(policy: SharingPolicy, seed: u64) -> Result<Platform, PlatformError> {
    let mut p = Platform::new(
        PlatformConfig::default()
            .nodes(4)
            .policy(policy)
            .warmup(SimTime::from_secs(1))
            .seed(seed),
    );
    for fc in fig11_functions() {
        p.deploy(fc)?;
    }
    Ok(p)
}

/// Runs [`fig11`] for `seconds` after the warm-up. Returns the GPUs the
/// pod set was bound to and the report.
pub fn run_fig11(
    policy: SharingPolicy,
    seconds: u64,
    seed: u64,
) -> Result<(usize, PlatformReport), PlatformError> {
    let mut p = fig11(policy, seed)?;
    let gpus = p.gpus_in_use();
    Ok((gpus, p.run_for(SimTime::from_secs(1 + seconds))))
}

/// The SM partitions of Figure 12's analytic ResNet profile.
const FIG12_SPATIAL: [f64; 4] = [6.0, 12.0, 24.0, 50.0];
/// Figure 12's control intervals.
const FIG12_INTERVALS: u64 = 12;
/// The length of each of Figure 12's intervals, in seconds.
const FIG12_INTERVAL_S: u64 = 5;

/// The analytic ResNet-50 profile Figure 12's auto-scaler plans from.
pub fn fig12_profile() -> ProfileDb {
    analytic_profile(&[zoo::resnet50()], &FIG12_SPATIAL, &FIG8_TEMPORAL)
}

/// Figure 12's offered load: 10 req/s, a ramp to 130 req/s from 10 s to
/// 30 s, a hold, a drop to 40 req/s from 40 s to 45 s, and 40 req/s to
/// the end at 60 s.
fn fig12_load(seed: u64) -> ArrivalProcess {
    let at = SimTime::from_secs;
    let knots = vec![
        (at(0), 10.0),
        (at(10), 10.0),
        (at(30), 130.0),
        (at(40), 130.0),
        (at(45), 40.0),
        (at(60), 40.0),
    ];
    ArrivalProcess::profile(knots, seed)
}

/// Figure 12: one ResNet-50 function with a 69 ms SLO and elastic 40–100 %
/// quota at 12 % SMs, on four nodes with a 2 s warm-up, auto-scaled from
/// [`fig12_profile`] under the figure's load. `seed` seeds both the
/// platform and the arrivals.
pub fn fig12(seed: u64) -> Result<(Platform, FuncId), PlatformError> {
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
    p.enable_autoscaler(fig12_profile());
    p.set_load(f, fig12_load(seed));
    Ok((p, f))
}

/// One of Figure 12's control intervals, as of its end.
#[derive(Debug, Clone, Copy)]
pub struct Fig12Interval {
    /// Interval end, in seconds from the start.
    pub end_s: u64,
    /// Replicas at the interval end.
    pub replicas: usize,
    /// The load profile's rate at the interval's midpoint. That is its
    /// mean over the interval, since every knot falls on an interval end.
    pub offered_rps: f64,
    /// Requests completed in the interval, per second.
    pub served_rps: f64,
    /// p99 latency of every request completed since the warm-up.
    pub p99: SimTime,
}

/// Runs [`fig12`] over its twelve 5 s intervals. Returns one
/// [`Fig12Interval`] per interval and the final report.
pub fn run_fig12(seed: u64) -> Result<(Vec<Fig12Interval>, PlatformReport), PlatformError> {
    let (mut p, f) = fig12(seed)?;
    let load = fig12_load(seed);
    let mut intervals = Vec::new();
    let mut completed = 0;
    for i in 1..=FIG12_INTERVALS {
        let end_s = i * FIG12_INTERVAL_S;
        let report = p.run_for(SimTime::from_secs(FIG12_INTERVAL_S));
        let fr = function_report(&report, f)?;
        intervals.push(Fig12Interval {
            end_s,
            replicas: fr.replicas,
            offered_rps: load.rate_at(SimTime::from_millis(end_s * 1000 - FIG12_INTERVAL_S * 500)),
            served_rps: (fr.completed - completed) as f64 / FIG12_INTERVAL_S as f64,
            p99: fr.p99,
        });
        completed = fr.completed;
    }
    Ok((intervals, p.report()))
}

/// Figure 13: `pods` replicas of `model` at 12 % SMs and a 50 % quota,
/// deployed on one over-subscribed V100 with or without model sharing.
/// The figure reads the node's device memory.
pub fn fig13(model: &str, pods: usize, sharing: bool) -> Result<Platform, PlatformError> {
    let mut p = Platform::new(
        PlatformConfig::default()
            .nodes(1)
            .model_sharing(sharing)
            .oversubscribe(true)
            .seed(13),
    );
    p.deploy(
        FunctionConfig::new("f", model)
            .replicas(pods)
            .resources(12.0, 0.5, 0.5),
    )?;
    Ok(p)
}

fn function_report(report: &PlatformReport, f: FuncId) -> Result<&FunctionReport, PlatformError> {
    report
        .functions
        .get(&f)
        .ok_or(PlatformError::UnknownFunction)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each grid percentage gets `sms_for_percentage`'s SM count, which for
    /// the paper's partitions is the 6→5, 12→10, 24→19, 50→40, 80→64 the
    /// profile tables used to spell out.
    #[test]
    fn analytic_profile_uses_the_v100_sm_count_of_each_partition() {
        let gpu = GpuSpec::v100();
        for (pct, sms) in [(6.0, 5), (12.0, 10), (24.0, 19), (50.0, 40), (80.0, 64)] {
            assert_eq!(gpu.sms_for_percentage(pct), sms, "{pct} %");
        }
        let models = zoo::all();
        let db = analytic_profile(&models, &FIG8_SPATIAL, &FIG8_TEMPORAL);
        for model in &models {
            for sm in FIG8_SPATIAL {
                let sms = gpu.sms_for_percentage(sm);
                for q in FIG8_TEMPORAL {
                    let cell = db.get(&model.name, ProfileKey::new(sm, q)).unwrap();
                    let what = format!("{} at {sm} %, {q}", model.name);
                    assert_eq!(
                        cell.rps.to_bits(),
                        model.ideal_rps(sms, q).to_bits(),
                        "{what}"
                    );
                    assert_eq!(cell.p50, model.latency_at(sms), "{what}");
                    assert_eq!(cell.p99, model.latency_at(sms) * 2, "{what}");
                }
            }
        }
        let resnet = zoo::resnet50();
        let cell = *fig12_profile()
            .get("resnet50", ProfileKey::new(12.0, 0.4))
            .unwrap();
        assert_eq!(cell.rps.to_bits(), resnet.ideal_rps(10, 0.4).to_bits());
    }
}

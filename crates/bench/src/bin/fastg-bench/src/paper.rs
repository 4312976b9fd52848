//! `paper-pipeline`: the paper's evaluation as one pass of five stages,
//! repeated over consecutive seeds. The only workload that carries paper
//! fidelity, and the one where device fast-forward and token dispatch
//! do the work.
//!
//! * (a) FaST-Profiler grid for four models (`Experiment::run_parallel`);
//! * (b) Figure 9/10 sharing sweep: three models × {FaST, racing, time
//!   sharing} × {1, 2, 4, 8} pods at 12 % SMs (`run_sweep_stats`);
//! * (c) Figure 11 packing, FaST vs time sharing;
//! * (d) Figure 12 autoscaling with the profile database (a) built;
//! * (e) Figure 13 model-sharing memory footprints.

use crate::run::{
    check, conservation, count, pinned, Check, Ctx, Outcome, PodShape, Rep, Reports, Result, Shape,
    Tally, THREADS,
};
use fastg_cluster::FuncId;
use fastg_des::SimTime;
use fastg_workload::ArrivalProcess;
use fastgshare::manager::SharingPolicy;
use fastgshare::modelshare::footprint;
use fastgshare::platform::{
    run_sweep_stats, FunctionConfig, Platform, PlatformConfig, PlatformReport, Scenario, SweepStats,
};
use fastgshare::profiler::{ConfigServer, Experiment, ProfileDb, TrialResult};

#[derive(Debug, Clone, Copy)]
pub struct PaperSize {
    /// Passes per repetition, with seeds `seed .. seed + passes`.
    pub passes: u64,
    /// Measured seconds of each sharing-sweep cell (after 1 s warm-up).
    pub grid_s: u64,
    /// Measured seconds of each Figure 11 run (after 1 s warm-up).
    pub fig11_s: u64,
}

impl PaperSize {
    pub const FULL: PaperSize = PaperSize {
        passes: 8,
        grid_s: 10,
        fig11_s: 6,
    };
    #[cfg(test)]
    pub const TINY: PaperSize = PaperSize {
        passes: 1,
        grid_s: 2,
        fig11_s: 2,
    };
}

const PROFILED: [&str; 4] = ["resnet50", "rnnt", "bert_base", "gnmt"];
const GRID_MODELS: [&str; 3] = ["resnet50", "rnnt", "gnmt"];
const POLICIES: [SharingPolicy; 3] = [
    SharingPolicy::FaST,
    SharingPolicy::Racing,
    SharingPolicy::SingleToken,
];
const PODS: [usize; 4] = [1, 2, 4, 8];
/// FaST-8×12 % over time-sharing throughput, per grid model (§5.3,
/// EXPERIMENTS.md).
const PAPER_SPEEDUP: [f64; 3] = [4.2, 3.5, 1.5];
/// Figure 12: ResNet-50, 69 ms SLO, twelve 5 s autoscaler intervals.
const FIG12_INTERVALS: u64 = 12;
const FIG12_INTERVAL_S: u64 = 5;
const MIB: u64 = 1024 * 1024;

/// Index of a sharing cell in the sweep grid (model-major order).
fn cell(model: usize, policy: usize, pods: usize) -> usize {
    (model * POLICIES.len() + policy) * PODS.len() + pods
}

fn sharing_grid(size: PaperSize, seed: u64) -> Vec<Scenario> {
    let mut grid = Vec::new();
    for model in GRID_MODELS {
        for policy in POLICIES {
            for pods in PODS {
                let cfg = pinned(PlatformConfig::default())
                    .nodes(1)
                    .policy(policy)
                    .oversubscribe(true)
                    .warmup(SimTime::from_secs(1))
                    .seed(seed);
                grid.push(
                    Scenario::new(format!("{model}/{policy}/{pods}"), cfg)
                        .function(
                            FunctionConfig::new("bench", model)
                                .replicas(pods)
                                .resources(12.0, 1.0, 1.0)
                                .saturating(),
                        )
                        .duration(SimTime::from_secs(1 + size.grid_s)),
                );
            }
        }
    }
    grid
}

/// The Figure 11 pod set: 2 × BERT, 2 × RNNT, 4 × ResNet, saturating.
const FIG11_PODS: [(&str, &str, usize, f64, f64); 3] = [
    ("bert", "bert_base", 2, 50.0, 0.6),
    ("rnnt", "rnnt", 2, 24.0, 0.4),
    ("resnet", "resnet50", 4, 12.0, 0.4),
];

fn fig12_load(seed: u64) -> ArrivalProcess {
    let total = FIG12_INTERVALS * FIG12_INTERVAL_S;
    let at = |s: u64| SimTime::from_secs(s);
    ArrivalProcess::profile(
        vec![
            (SimTime::ZERO, 10.0),
            (at(total / 6), 10.0),
            (at(total / 2), 130.0),
            (at(total * 2 / 3), 130.0),
            (at(total * 3 / 4), 40.0),
            (at(total), 40.0),
        ],
        seed,
    )
}

/// Everything one pass simulates, built during set-up.
struct Pass {
    experiments: Vec<Experiment>,
    grid: Vec<Scenario>,
    /// FaST and time-sharing platforms with GPUs bound after deploy.
    fig11: Vec<(Platform, usize, u64)>,
    fig12: (Platform, FuncId),
    /// Live device memory (MiB) of three ViT-Huge pods, shared and not.
    fig13_mib: (u64, u64),
}

fn build_pass(ctx: &mut Ctx, size: PaperSize, seed: u64) -> Result<Pass> {
    let experiments = PROFILED
        .iter()
        .map(|m| {
            let mut e = Experiment::new(m, ConfigServer::paper_grid());
            e.seed = seed;
            e
        })
        .collect();
    let mut fig11 = Vec::new();
    for policy in [SharingPolicy::FaST, SharingPolicy::SingleToken] {
        let cfg = pinned(PlatformConfig::default())
            .nodes(4)
            .policy(policy)
            .warmup(SimTime::from_secs(1))
            .seed(seed);
        let mut p = ctx.new_platform(cfg);
        for (name, model, replicas, sm, q) in FIG11_PODS {
            ctx.deploy(
                &mut p,
                FunctionConfig::new(name, model)
                    .replicas(replicas)
                    .resources(sm, q, q)
                    .saturating(),
            )?;
        }
        let (gpus, placed) = (p.gpus_in_use(), p.scheduler_stats().placements);
        fig11.push((p, gpus, placed));
    }
    let cfg = pinned(PlatformConfig::default())
        .nodes(4)
        .warmup(SimTime::from_secs(2))
        .seed(seed);
    let mut p = ctx.new_platform(cfg);
    let f = ctx.deploy(
        &mut p,
        FunctionConfig::new("resnet", "resnet50")
            .slo_ms(69)
            .replicas(1)
            .resources(12.0, 0.4, 1.0),
    )?;
    ctx.set_load(&mut p, f, fig12_load(seed));
    let mut vit = [0u64; 2];
    for (slot, sharing) in vit.iter_mut().zip([true, false]) {
        let cfg = pinned(PlatformConfig::default())
            .nodes(1)
            .model_sharing(sharing)
            .oversubscribe(true)
            .seed(seed);
        let mut p = ctx.new_platform(cfg);
        ctx.deploy(
            &mut p,
            FunctionConfig::new("vit", "vit_huge")
                .replicas(3)
                .resources(12.0, 0.5, 0.5),
        )?;
        *slot = p.node_memory_used(0) / MIB;
    }
    Ok(Pass {
        experiments,
        grid: sharing_grid(size, seed),
        fig11,
        fig12: (p, f),
        fig13_mib: (vit[0], vit[1]),
    })
}

/// Figure 13's footprints, exactly as EXPERIMENTS.md lists them.
fn fig13_checks(vit3: (u64, u64)) -> Check {
    let zoo = |m: &str| fastg_models::zoo::by_name(m).map(|m| m.memory);
    let mib = |m: &str| zoo(m).map_or((0, 0), |f| (f.total() / MIB, f.shared_instance() / MIB));
    let rx = zoo("resnext101");
    let pods = |sharing| {
        rx.map_or(0, |f| {
            footprint::max_pods(&f, 16 * 1024 * MIB, sharing, 300 * MIB)
        })
    };
    let got = (
        mib("resnet50"),
        mib("vit_huge"),
        vit3,
        (pods(true), pods(false)),
    );
    let want = ((1525, 1427), (4735, 2101), (9237, 14205), (7, 4));
    check(
        "fig13 MiB figures match EXPERIMENTS.md",
        got == want,
        format!("{got:?}"),
    )
}

/// What one pass's simulation returned.
struct Ran {
    trials: Vec<TrialResult>,
    cells: Vec<(String, PlatformReport)>,
    stats: SweepStats,
    fig11: Vec<PlatformReport>,
    fig12: PlatformReport,
}

/// Simulates one pass's stages (a)–(d); stage (e) was measured live at
/// set-up.
fn run_pass(ctx: &mut Ctx, size: PaperSize, pass: &mut Pass) -> Result<Ran> {
    let mut db = ProfileDb::new();
    let mut trials = Vec::new();
    for e in &pass.experiments {
        let found = ctx
            .trace
            .span("profiler.run_parallel", || e.run_parallel(&mut db, THREADS))
            .map_err(|err| format!("profiler: {err}"))?;
        trials.extend(found);
    }
    let (cells, stats) = ctx
        .trace
        .span("platform.run_sweep_stats", || {
            run_sweep_stats(pass.grid.clone(), THREADS)
        })
        .map_err(|e| format!("run_sweep_stats: {e}"))?;
    let fig11 = pass
        .fig11
        .iter_mut()
        .map(|(p, _, _)| ctx.run_for(p, SimTime::from_secs(1 + size.fig11_s)))
        .collect();
    let (p, _) = &mut pass.fig12;
    ctx.trace
        .span("platform.enable_autoscaler", || p.enable_autoscaler(db));
    let mut fig12 = None;
    for _ in 0..FIG12_INTERVALS {
        fig12 = Some(ctx.run_for(p, SimTime::from_secs(FIG12_INTERVAL_S)));
    }
    let fig12 = fig12.ok_or("figure 12 ran no interval")?;
    Ok(Ran {
        trials,
        cells,
        stats,
        fig11,
        fig12,
    })
}

/// One repetition: every pass's platforms and grids are built first
/// (set-up), then simulated; outputs are digested and checked after.
pub fn rep(size: PaperSize, seed: u64, ctx: &mut Ctx) -> Result<Rep> {
    let mut passes = Vec::new();
    for k in 0..size.passes {
        passes.push(build_pass(ctx, size, seed.wrapping_add(k))?);
    }
    ctx.simulating();
    let mut ran = Vec::new();
    for pass in &mut passes {
        ran.push(run_pass(ctx, size, pass)?);
    }
    ctx.done();
    if let Some(last) = passes.last_mut() {
        ctx.probe_report(&mut last.fig12.0);
        ctx.probe_snapshot(&last.fig12.0)?;
    }

    let mut reports = Reports::new(ctx.keep_canon);
    let mut tally = Tally::default();
    let mut checks = Vec::new();
    let (mut fidelity, mut gpus, mut goodput, mut sim_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut fig11_ok, mut beats_ok) = (Vec::new(), Vec::new());
    for (pass, r) in passes.iter().zip(&ran) {
        // Every experiment of a pass runs trials of the same length.
        let trial_s = pass
            .experiments
            .first()
            .map_or(0.0, |e| (e.trial_duration + e.warmup).as_secs_f64());
        sim_s += trial_s * r.trials.len() as f64;
        tally.trials += count(r.trials.len());
        for t in &r.trials {
            reports.add_value(t.record.rps.to_bits());
        }
        tally.prefixes_shared += count(r.stats.prefixes_shared);
        tally.cells_resumed += count(r.stats.cells_resumed);
        tally.warmup_avoided_s += r.stats.warmup_avoided.as_secs_f64();
        let rps = |i: usize| {
            r.cells[i]
                .1
                .functions
                .values()
                .next()
                .map_or(0.0, |f| f.throughput_rps)
        };
        let mut err = 0.0;
        for (m, paper) in PAPER_SPEEDUP.iter().enumerate() {
            let (fast, shared) = (rps(cell(m, 0, 3)), rps(cell(m, 2, 3)));
            beats_ok.push(fast > shared);
            err += (fast / shared / paper - 1.0).abs();
        }
        fidelity += 100.0 * err / PAPER_SPEEDUP.len() as f64;
        for report in r
            .cells
            .iter()
            .map(|(_, c)| c)
            .chain(&r.fig11)
            .chain([&r.fig12])
        {
            reports.add(report);
            sim_s += report.duration.as_secs_f64();
        }
        for ((p, _, placed), report) in pass.fig11.iter().zip(&r.fig11) {
            tally.add(p, report, *placed);
        }
        let bound: Vec<usize> = pass.fig11.iter().map(|(_, gpus, _)| *gpus).collect();
        gpus += bound.first().copied().unwrap_or(0) as f64;
        fig11_ok.push(bound == [1, 4]);
        let (p, f) = &pass.fig12;
        tally.add(p, &r.fig12, 1);
        checks.push(conservation(p, &r.fig12, &[*f]));
        checks.push(fig13_checks(pass.fig13_mib));
        goodput += r.fig12.total_goodput();
    }
    checks.push(check(
        "fig11 uses 1 GPU for FaST vs 4 for time sharing",
        fig11_ok.iter().all(|&ok| ok),
        format!("{fig11_ok:?}"),
    ));
    checks.push(check(
        "FaST beats time sharing at 8 pods for every model",
        beats_ok.iter().all(|&ok| ok),
        format!("{beats_ok:?}"),
    ));
    let n = size.passes.max(1) as f64;
    let mut outcome = Outcome::from_reports(ran.iter().map(|r| &r.fig12), goodput / n, gpus / n);
    outcome.fidelity_err_pct = Some(fidelity / n);
    Ok(reports.finish(ctx, sim_s, outcome, tally, checks))
}

/// Replay inputs: the Figure 11 pod set on four GPUs and Figure 12's load.
pub fn shape(seed: u64) -> Shape {
    let mut pods = Vec::new();
    for (_, model, replicas, sm, quota) in FIG11_PODS {
        pods.extend(std::iter::repeat_n(PodShape { model, sm, quota }, replicas));
    }
    Shape {
        nodes: 4,
        pods,
        loads: vec![fig12_load(seed)],
        horizon: SimTime::from_secs(FIG12_INTERVALS * FIG12_INTERVAL_S),
    }
}

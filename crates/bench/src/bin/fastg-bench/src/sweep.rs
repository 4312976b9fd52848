//! `sweep-fork`: a fleet prefix simulated once and fanned out to many
//! treatment cells through `run_sweep_stats`, then a successive-halving
//! profiler search. Both lean on the snapshot codec: the prefix is
//! encoded once and decoded per cell; the search encodes and decodes
//! every survivor once per round.

use crate::fleet::{self, FleetSize};
use crate::run::{
    check, conservation, count, counter_digest, derive_seed, gpus_with_pods, Ctx, Outcome, Rep,
    Reports, Result, Shape, Tally, THREADS,
};
use fastg_cluster::FuncId;
use fastg_des::SimTime;
use fastg_workload::ArrivalProcess;
use fastgshare::platform::{run_sweep_stats, Platform, Scenario, TreatmentAction};
use fastgshare::profiler::{ProfileDb, SuccessiveHalving};

#[derive(Debug, Clone, Copy)]
pub struct SweepSize {
    pub fleet: FleetSize,
    /// Shared warm-up every cell resumes from.
    pub prefix_s: u64,
    pub cells: usize,
    /// Each cell's measured window after its treatment.
    pub window_ms: u64,
    /// Models the successive-halving search profiles.
    pub search: &'static [&'static str],
}

impl SweepSize {
    pub const FULL: SweepSize = SweepSize {
        fleet: FleetSize {
            nodes: 48,
            funcs: 144,
            warmup_s: 2,
            measured_s: 0,
        },
        prefix_s: 10,
        cells: 64,
        window_ms: 1_000,
        search: &["resnet50", "rnnt", "bert_base", "gnmt"],
    };
    #[cfg(test)]
    pub const TINY: SweepSize = SweepSize {
        fleet: FleetSize {
            nodes: 4,
            funcs: 12,
            warmup_s: 1,
            measured_s: 0,
        },
        prefix_s: 2,
        cells: 8,
        window_ms: 200,
        search: &["resnet50"],
    };

    fn horizon(self) -> SimTime {
        SimTime::from_secs(self.prefix_s) + SimTime::from_millis(self.window_ms)
    }
}

/// Separates the treatment loads' seeds from the fleet's.
const TREATMENT_SALT: u64 = 0x7EA7_3E47;

/// Cell `c`'s treatment, cycling through the four kinds over functions
/// spread across the popularity ranks.
fn treatment(size: SweepSize, seed: u64, fns: &[fleet::FleetFn], c: usize) -> TreatmentAction {
    let func_index = (c * 37) % fns.len();
    let f = fns[func_index];
    match c % 4 {
        0 => TreatmentAction::Reconfigure {
            func_index,
            sm_partition: f.sm / 2.0,
            quota_request: f.quota,
            quota_limit: f.quota,
        },
        1 => TreatmentAction::ScaleTo {
            func_index,
            replicas: 3,
        },
        2 => TreatmentAction::KillPods {
            func_index,
            count: 1,
        },
        _ => TreatmentAction::SetLoad {
            func_index,
            process: ArrivalProcess::poisson(
                2.0 * f.rate,
                derive_seed(seed ^ TREATMENT_SALT, count(c) + count(size.cells)),
            ),
        },
    }
}

fn cells(size: SweepSize, seed: u64) -> Vec<Scenario> {
    let fns = fleet::functions(size.fleet.funcs);
    let mut base = Scenario::new("prefix", fleet::config(size.fleet, seed, false));
    for (i, f) in fns.iter().enumerate() {
        base = base
            .function(f.config(i))
            .load(i, fleet::load(size.fleet, seed, false, i, f));
    }
    let base = base
        .warmup(SimTime::from_secs(size.prefix_s))
        .duration(SimTime::from_millis(size.window_ms));
    (0..size.cells)
        .map(|c| {
            let mut cell = base.clone().then(treatment(size, seed, &fns, c));
            cell.name = format!("cell-{c:02}");
            cell
        })
        .collect()
}

/// Applies a treatment through the platform API, as the sweep does.
fn apply(ctx: &mut Ctx, p: &mut Platform, ids: &[FuncId], action: &TreatmentAction) -> Result<()> {
    match action {
        TreatmentAction::Reconfigure {
            func_index,
            sm_partition,
            quota_request,
            quota_limit,
        } => ctx
            .trace
            .span("platform.reconfigure", || {
                p.reconfigure(
                    ids[*func_index],
                    *sm_partition,
                    *quota_request,
                    *quota_limit,
                )
            })
            .map_err(|e| format!("reconfigure: {e}")),
        TreatmentAction::ScaleTo {
            func_index,
            replicas,
        } => {
            ctx.trace.span("platform.scale_to", || {
                p.scale_to(ids[*func_index], *replicas)
            });
            Ok(())
        }
        TreatmentAction::SetLoad {
            func_index,
            process,
        } => {
            ctx.set_load(p, ids[*func_index], process.clone());
            Ok(())
        }
        TreatmentAction::KillPods { func_index, count } => {
            for pod in p.pods_of(ids[*func_index]).into_iter().take(*count) {
                ctx.trace.span("platform.kill_pod", || p.kill_pod(pod));
            }
            Ok(())
        }
    }
}

/// One repetition. Repetition `index` also re-runs cell `index % cells`
/// straight through, without prefix sharing, and checks its digest.
pub fn rep(size: SweepSize, seed: u64, index: u64, ctx: &mut Ctx) -> Result<Rep> {
    let grid = cells(size, seed);
    let k = usize::try_from(index % count(size.cells)).unwrap_or(0);
    let straight = grid[k].clone();
    let mut p = ctx.new_platform(straight.config.clone());
    let mut ids = Vec::with_capacity(straight.functions.len());
    for fc in &straight.functions {
        ids.push(ctx.deploy(&mut p, fc.clone())?);
    }
    for (i, load) in &straight.loads {
        ctx.set_load(&mut p, ids[*i], load.clone());
    }
    let deployed = p.scheduler_stats().placements;

    ctx.simulating();
    let (results, stats) = ctx
        .trace
        .span("platform.run_sweep_stats", || {
            run_sweep_stats(grid, THREADS)
        })
        .map_err(|e| format!("run_sweep_stats: {e}"))?;
    let mut searches = Vec::new();
    for model in size.search {
        let mut sh = SuccessiveHalving::over_paper_grid(model);
        sh.seed = seed;
        let mut db = ProfileDb::new();
        let found = ctx
            .trace
            .span("profiler.successive_halving", || {
                sh.run_with_threads(&mut db, THREADS)
            })
            .map_err(|e| format!("successive halving: {e}"))?;
        searches.push((found, count(sh.candidate_count())));
    }
    ctx.run_for(&mut p, SimTime::from_secs(size.prefix_s));
    ctx.probe_snapshot(&p)?;
    for action in &straight.treatment {
        apply(ctx, &mut p, &ids, action)?;
    }
    let report = ctx.run_for(&mut p, SimTime::from_millis(size.window_ms));
    ctx.done();
    ctx.probe_report(&mut p);

    // A traced run reads a report per slice, which moves utilization
    // samples (the observer probe); its request counters must still match.
    let shared = &results[k].1;
    let (what, ours, theirs) = if ctx.trace.is_on() {
        (
            "counters",
            counter_digest([&report]),
            counter_digest([shared]),
        )
    } else {
        ("digest", report.digest(), shared.digest())
    };
    let mut checks = vec![
        check(
            format!(
                "straight-through {} matches its prefix-shared run ({what})",
                results[k].0
            ),
            ours == theirs,
            format!("{ours:016x} vs {theirs:016x}"),
        ),
        check(
            "one prefix shared by every cell",
            stats.prefixes_shared == 1 && stats.cells_resumed == size.cells,
            format!("{stats:?}"),
        ),
        conservation(&p, &report, &ids),
    ];
    checks.extend(searches.iter().map(|(found, _)| {
        check(
            "search found a configuration",
            found.best.rps > 0.0,
            format!("{:?}", found.best),
        )
    }));

    // The straight-through cell varies per repetition, so it stays out of
    // the digest; its canonical text still feeds the observer probe.
    let mut reports = Reports::new(ctx.keep_canon);
    for (_, r) in &results {
        reports.add(r);
    }
    for (found, _) in &searches {
        for x in [
            found.best.sm.to_bits(),
            found.best.quota.to_bits(),
            found.best.rps.to_bits(),
            count(found.trials),
        ] {
            reports.add_value(x);
        }
    }
    reports.observe(&report);

    let mut tally = Tally::default();
    tally.add(&p, &report, deployed);
    tally.prefixes_shared = count(stats.prefixes_shared);
    tally.cells_resumed = count(stats.cells_resumed);
    tally.warmup_avoided_s = stats.warmup_avoided.as_secs_f64();
    for (found, candidates) in &searches {
        let trials = count(found.trials);
        tally.trials += trials;
        tally.sh_trials += trials;
        // Every trial after the first round, and the final measurement,
        // resumes a suspended survivor.
        tally.decodes += trials.saturating_sub(*candidates);
    }
    tally.decodes += tally.cells_resumed;

    let cells = results.len() as f64;
    let goodput = results.iter().map(|(_, r)| r.total_goodput()).sum::<f64>() / cells;
    let gpus = results
        .iter()
        .map(|(_, r)| gpus_with_pods(r) as f64)
        .sum::<f64>()
        / cells;
    let outcome = Outcome::from_reports(results.iter().map(|(_, r)| r), goodput, gpus);
    let sim_s = results
        .iter()
        .map(|(_, r)| r.duration.as_secs_f64())
        .sum::<f64>()
        + searches
            .iter()
            .map(|(found, _)| found.sim_seconds)
            .sum::<f64>()
        + report.duration.as_secs_f64();
    Ok(reports.finish(ctx, sim_s, outcome, tally, checks))
}

/// Replay inputs: the prefix fleet's pods and arrival processes.
pub fn shape(size: SweepSize, seed: u64) -> Shape {
    let mut shape = fleet::shape(size.fleet, seed, false);
    shape.horizon = size.horizon();
    shape
}

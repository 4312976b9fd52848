//! `fleet-poisson` and `fleet-chaos`: a fleet of single-replica functions
//! in the Figure 11 shapes under Zipf-popular Poisson load, placed by the
//! default (paper) scheduler. The chaos variant adds overload control,
//! recovery, timeouts, retries, a random fault plan and flash crowds on
//! the most popular functions. `sweep-fork` reuses the same fleet.

use crate::run::{
    check, conservation, count, derive_seed, gpus_with_pods, pinned, sms_of, Ctx, Outcome,
    PodShape, Rep, Reports, Result, Shape, Tally,
};
use fastg_des::SimTime;
use fastg_workload::{patterns, ArrivalProcess};
use fastgshare::manager::SharingPolicy;
use fastgshare::platform::{FaultPlan, FunctionConfig, OverloadConfig, PlatformConfig};

/// The Figure 11 pod shapes `(model, SM %, quota)`, assigned round-robin
/// by popularity rank: BERT, RNNT and ResNet twice.
pub const SHAPES: [(&str, f64, f64); 4] = [
    ("bert_base", 50.0, 0.6),
    ("rnnt", 24.0, 0.4),
    ("resnet50", 12.0, 0.4),
    ("resnet50", 12.0, 0.4),
];

/// Mean offered load per function before clamping (Zipf-distributed).
const RPS_PER_FUNCTION: f64 = 20.0;
const ZIPF_EXPONENT: f64 = 0.8;
/// No function is offered more than this share of its replica's
/// capacity, so the clean fleet never overloads.
const LOAD_CAP: f64 = 0.7;

#[derive(Debug, Clone, Copy)]
pub struct FleetSize {
    pub nodes: usize,
    pub funcs: usize,
    /// Report warm-up (the first seconds steady-state metrics skip).
    pub warmup_s: u64,
    /// Simulated seconds after the warm-up.
    pub measured_s: u64,
}

impl FleetSize {
    pub const FULL: FleetSize = FleetSize {
        nodes: 256,
        funcs: 768,
        warmup_s: 2,
        measured_s: 6,
    };
    #[cfg(test)]
    pub const TINY: FleetSize = FleetSize {
        nodes: 4,
        funcs: 12,
        warmup_s: 1,
        measured_s: 1,
    };

    pub fn total(self) -> SimTime {
        SimTime::from_secs(self.warmup_s + self.measured_s)
    }
}

/// One fleet function: its shape, offered rate and replica capacity.
#[derive(Debug, Clone, Copy)]
pub struct FleetFn {
    pub model: &'static str,
    pub sm: f64,
    pub quota: f64,
    pub rate: f64,
    pub capacity: f64,
}

impl FleetFn {
    pub fn config(&self, i: usize) -> FunctionConfig {
        FunctionConfig::new(&format!("fleet-{i:04}"), self.model)
            .replicas(1)
            .resources(self.sm, self.quota, self.quota)
    }

    pub fn pod(&self) -> PodShape {
        PodShape {
            model: self.model,
            sm: self.sm,
            quota: self.quota,
        }
    }
}

/// The fleet's functions in popularity order (seed-independent).
pub fn functions(funcs: usize) -> Vec<FleetFn> {
    let zipf =
        fastg_workload::fleet::zipf_rates(funcs, funcs as f64 * RPS_PER_FUNCTION, ZIPF_EXPONENT);
    zipf.iter()
        .enumerate()
        .map(|(i, &share)| {
            let (model, sm, quota) = SHAPES[i % SHAPES.len()];
            let capacity =
                fastg_models::zoo::by_name(model).map_or(0.0, |m| m.ideal_rps(sms_of(sm), quota));
            FleetFn {
                model,
                sm,
                quota,
                rate: share.min(LOAD_CAP * capacity),
                capacity,
            }
        })
        .collect()
}

/// The fleet's platform configuration.
pub fn config(size: FleetSize, seed: u64, chaos: bool) -> PlatformConfig {
    let cfg = pinned(PlatformConfig::default())
        .nodes(size.nodes)
        .policy(SharingPolicy::FaST)
        .warmup(SimTime::from_secs(size.warmup_s))
        .seed(seed);
    if chaos {
        cfg.overload(OverloadConfig::default())
            .recovery(true)
            .request_timeout_factor(10.0)
            .retry_budget(2)
            .fault_plan(fault_plan(size, seed))
    } else {
        cfg
    }
}

/// Faults at the rate of one per two nodes per 30 simulated seconds,
/// spread over the whole run.
fn fault_plan(size: FleetSize, seed: u64) -> FaultPlan {
    let secs = usize::try_from(size.warmup_s + size.measured_s).unwrap_or(usize::MAX);
    FaultPlan::random(seed, (size.nodes * secs / 60).max(1), size.total())
}

/// How many of the most popular functions a chaos run hits with a flash
/// crowd (one in sixteen).
fn crowded(size: FleetSize) -> usize {
    (size.funcs / 16).max(1)
}

/// Function `i`'s arrival process, seeded per function from `seed`.
pub fn load(size: FleetSize, seed: u64, chaos: bool, i: usize, f: &FleetFn) -> ArrivalProcess {
    let stream = derive_seed(seed, count(i));
    if chaos && i < crowded(size) {
        let total = size.total();
        patterns::flash_crowd(
            0.5 * f.capacity,
            3.0 * f.capacity,
            total.scale(0.3),
            SimTime::from_secs(1),
            total.scale(0.2),
            total,
            2,
            stream,
        )
    } else {
        ArrivalProcess::poisson(f.rate, stream)
    }
}

/// One repetition: build and deploy the fleet (set-up), run it, check it.
pub fn rep(size: FleetSize, seed: u64, chaos: bool, ctx: &mut Ctx) -> Result<Rep> {
    let fns = functions(size.funcs);
    let mut p = ctx.new_platform(config(size, seed, chaos));
    let mut ids = Vec::with_capacity(fns.len());
    for (i, f) in fns.iter().enumerate() {
        let id = ctx.deploy(&mut p, f.config(i))?;
        ctx.set_load(&mut p, id, load(size, seed, chaos, i, f));
        ids.push(id);
    }
    let deployed = p.scheduler_stats().placements;
    let report = ctx.run_for(&mut p, size.total());
    ctx.done();
    ctx.probe_report(&mut p);
    ctx.probe_snapshot(&p)?;

    let mut checks = vec![conservation(&p, &report, &ids)];
    if chaos {
        let planned = count(fault_plan(size, seed).len());
        checks.push(check(
            "every planned fault fired",
            p.faults_injected() == planned,
            format!("{} of {planned}", p.faults_injected()),
        ));
    }
    let mut reports = Reports::new(ctx.keep_canon);
    reports.add(&report);
    let mut tally = Tally::default();
    tally.add(&p, &report, deployed);
    let outcome = Outcome::from_reports(
        [&report],
        report.total_goodput(),
        gpus_with_pods(&report) as f64,
    );
    Ok(reports.finish(ctx, size.total().as_secs_f64(), outcome, tally, checks))
}

/// Replay inputs: the fleet's pods and arrival processes.
pub fn shape(size: FleetSize, seed: u64, chaos: bool) -> Shape {
    let fns = functions(size.funcs);
    Shape {
        nodes: size.nodes,
        pods: fns.iter().map(FleetFn::pod).collect(),
        loads: fns
            .iter()
            .enumerate()
            .map(|(i, f)| load(size, seed, chaos, i, f))
            .collect(),
        horizon: size.total(),
    }
}

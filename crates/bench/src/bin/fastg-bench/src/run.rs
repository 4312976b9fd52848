//! One repetition of a workload: the context that times and (optionally)
//! traces its calls into the simulator, and what it hands back.

use crate::trace::Tracer;
use fastg_cluster::FuncId;
use fastg_des::{SimTime, TieBreak};
use fastg_workload::ArrivalProcess;
use fastgshare::manager::SchedPolicy;
use fastgshare::platform::{FunctionConfig, Platform, PlatformConfig, PlatformReport};
use std::collections::BTreeMap;
use std::time::Instant;

/// Traced runs advance `run_for` in slices of this much simulated time.
pub const SLICE: SimTime = SimTime::from_millis(250);

/// Worker threads of the parallel stages (`run_sweep_stats`, the
/// profiler): the benchmark host has two CPUs.
pub const THREADS: usize = 2;

pub type Result<T> = std::result::Result<T, String>;

/// Times one repetition's set-up and simulation phases and records
/// spans when traced. Workloads reach the platform through these
/// wrappers so traced and untraced repetitions run the same code.
pub struct Ctx {
    pub trace: Tracer,
    entered: Instant,
    setup_s: Option<f64>,
    run_s: Option<f64>,
    /// Wall seconds spent inside explicit `Platform::run_for` calls.
    pub platform_run_s: f64,
    /// Keep every report's canonical text (observer-neutrality probe).
    pub keep_canon: bool,
    /// Snapshot codec probe of the traced run: bytes, encode and decode ns.
    pub snapshot: Option<(usize, f64, f64)>,
    /// Wall seconds of probes, which do not count as simulation.
    probe_s: f64,
}

impl Ctx {
    pub fn new(trace: Tracer, keep_canon: bool) -> Self {
        Ctx {
            trace,
            entered: Instant::now(),
            setup_s: None,
            run_s: None,
            platform_run_s: 0.0,
            keep_canon,
            snapshot: None,
            probe_s: 0.0,
        }
    }

    /// Ends the set-up phase: called by every wrapper that simulates.
    pub fn simulating(&mut self) {
        if self.setup_s.is_none() {
            self.setup_s = Some(self.entered.elapsed().as_secs_f64());
        }
    }

    /// Ends the simulation phase (output checks that follow are untimed).
    pub fn done(&mut self) {
        self.simulating();
        if self.run_s.is_none() {
            let total = self.entered.elapsed().as_secs_f64();
            self.run_s = Some(total - self.setup_s.unwrap_or(0.0) - self.probe_s);
        }
    }

    pub fn setup_s(&self) -> f64 {
        self.setup_s.unwrap_or(0.0)
    }

    pub fn run_s(&self) -> f64 {
        self.run_s.unwrap_or(0.0)
    }

    pub fn new_platform(&mut self, cfg: PlatformConfig) -> Platform {
        self.trace.span("platform.new", || Platform::new(cfg))
    }

    pub fn deploy(&mut self, p: &mut Platform, fc: FunctionConfig) -> Result<FuncId> {
        self.trace
            .span("platform.deploy", || p.deploy(fc))
            .map_err(|e| format!("deploy: {e}"))
    }

    pub fn set_load(&mut self, p: &mut Platform, func: FuncId, load: ArrivalProcess) {
        self.trace
            .span("platform.set_load", || p.set_load(func, load));
    }

    /// `Platform::run_for`, in [`SLICE`]s when traced. Slicing reads a
    /// report per slice, which the engine does not treat as a pure read
    /// (see the observer-neutrality probe).
    pub fn run_for(&mut self, p: &mut Platform, d: SimTime) -> PlatformReport {
        self.simulating();
        let t0 = Instant::now();
        let report = if self.trace.is_on() {
            let outer = self.trace.begin("platform.run_for");
            let end = p.now() + d;
            let mut last = None;
            while last.is_none() || p.now() < end {
                let step = SLICE.min(end - p.now());
                last = Some(
                    self.trace
                        .span("platform.run_for.slice", || p.run_for(step)),
                );
            }
            self.trace.end(outer);
            last.unwrap_or_else(|| p.run_for(SimTime::ZERO))
        } else {
            p.run_for(d)
        };
        self.platform_run_s += t0.elapsed().as_secs_f64();
        report
    }

    /// Traced runs only: one explicit `Platform::report` read.
    pub fn probe_report(&mut self, p: &mut Platform) {
        if self.trace.is_on() {
            let t0 = Instant::now();
            self.trace.span("platform.report", || p.report());
            self.probe_s += t0.elapsed().as_secs_f64();
        }
    }

    /// Traced runs only: `checkpoint` and `from_snapshot` of `p` (median
    /// of three), the snapshot codec measured on the workload's own state.
    pub fn probe_snapshot(&mut self, p: &Platform) -> Result<()> {
        if !self.trace.is_on() {
            return Ok(());
        }
        let started = Instant::now();
        let (mut enc, mut dec, mut bytes) = (Vec::new(), Vec::new(), 0);
        for _ in 0..3 {
            let t0 = Instant::now();
            let snap = self.trace.span("platform.checkpoint", || p.checkpoint());
            enc.push(t0.elapsed().as_secs_f64() * 1e9);
            bytes = snap.size_bytes();
            let t0 = Instant::now();
            self.trace
                .span("platform.from_snapshot", || Platform::from_snapshot(&snap))
                .map_err(|e| format!("from_snapshot: {e}"))?;
            dec.push(t0.elapsed().as_secs_f64() * 1e9);
        }
        let median = |v: &[f64]| crate::metrics::Summary::of(v).median;
        self.snapshot = Some((bytes, median(&enc), median(&dec)));
        self.probe_s += started.elapsed().as_secs_f64();
        Ok(())
    }
}

/// An output check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

pub fn check(name: impl Into<String>, ok: bool, detail: impl Into<String>) -> Check {
    Check {
        name: name.into(),
        ok,
        detail: detail.into(),
    }
}

/// Simulated end-to-end outcomes of one repetition.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    pub goodput_rps: f64,
    /// Arrivals neither dropped, rejected nor shed, in %.
    pub served_pct: f64,
    /// Completions within their SLO, in %.
    pub slo_kept_pct: f64,
    pub gpus: f64,
    pub fidelity_err_pct: Option<f64>,
}

impl Outcome {
    /// Served and SLO-kept shares summed over `reports`.
    pub fn from_reports<'a>(
        reports: impl IntoIterator<Item = &'a PlatformReport>,
        goodput_rps: f64,
        gpus: f64,
    ) -> Outcome {
        let (mut arrivals, mut completed, mut failed, mut viol) = (0u64, 0u64, 0u64, 0u64);
        for r in reports {
            for f in r.functions.values() {
                arrivals += f.arrivals;
                completed += f.completed;
                failed += f.dropped + f.rejected + f.shed_deadline;
                viol += f.slo_violations;
            }
        }
        // The share of `den` that is not `bad`: 100 when `den` is 0.
        let kept = |bad: u64, den: u64| 100.0 - 100.0 * bad as f64 / den.max(1) as f64;
        Outcome {
            goodput_rps,
            served_pct: kept(failed, arrivals),
            slo_kept_pct: kept(viol, completed),
            gpus,
            fidelity_err_pct: None,
        }
    }
}

/// GPUs hosting at least one pod at the end of a run.
pub fn gpus_with_pods(r: &PlatformReport) -> usize {
    r.nodes.iter().filter(|n| n.pods > 0).count()
}

/// Exact counters of the simulator's layers, summed over the platforms a
/// repetition drove explicitly (platforms built inside `run_sweep` or the
/// profiler are not visible through the public API).
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub events: u64,
    pub kernels: u64,
    pub ff_bursts: u64,
    pub ff_coalesced: u64,
    pub cluster_ff_cycles: u64,
    pub util: Vec<f64>,
    pub occupancy: Vec<f64>,
    pub placements: u64,
    pub releases: u64,
    pub rejects: u64,
    pub probes: u64,
    pub exact_fallbacks: u64,
    pub deploy_placements: u64,
    pub unschedulable: u64,
    pub fragmentation: Vec<f64>,
    pub arrivals: u64,
    pub completed: u64,
    pub dropped: u64,
    pub rejected: u64,
    pub shed: u64,
    pub breaker_trips: u64,
    pub browned_out: u64,
    pub faults: u64,
    pub recovery_ms: Vec<f64>,
    /// Token grants, estimated as completed requests × kernel bursts per
    /// request of the function's model.
    pub tokens: u64,
    pub prefixes_shared: u64,
    pub cells_resumed: u64,
    pub warmup_avoided_s: f64,
    pub trials: u64,
    pub sh_trials: u64,
    pub decodes: u64,
}

impl Tally {
    /// Adds a platform's counters and its final report. `deployed` is the
    /// number of placements made while deploying (set-up, not run time).
    pub fn add(&mut self, p: &Platform, r: &PlatformReport, deployed: u64) {
        self.events += p.events_handled();
        self.ff_bursts += p.ff_bursts();
        self.ff_coalesced += p.coalesced_kernels();
        self.cluster_ff_cycles += p.ff_cluster_cycles();
        let s = p.scheduler_stats();
        self.placements += s.placements;
        self.releases += s.releases;
        self.rejects += s.rejects;
        self.probes += s.probes;
        self.exact_fallbacks += s.exact_fallbacks;
        self.deploy_placements += deployed;
        self.unschedulable += p.unschedulable_pods();
        self.fragmentation.push(p.mean_fragmentation());
        self.kernels += r.nodes.iter().map(|n| n.kernels).sum::<u64>();
        self.util.push(r.mean_utilization_active());
        self.occupancy.push(r.mean_occupancy_active());
        self.faults += r.faults_injected;
        let mut bursts: BTreeMap<&str, u64> = BTreeMap::new();
        for f in r.functions.values() {
            self.arrivals += f.arrivals;
            self.completed += f.completed;
            self.dropped += f.dropped;
            self.rejected += f.rejected;
            self.shed += f.shed_deadline;
            self.breaker_trips += f.breaker_trips;
            self.browned_out += f.browned_out;
            self.recovery_ms
                .extend(f.time_to_recovery.iter().map(|t| t.as_millis_f64()));
            let per_request = *bursts
                .entry(f.model.as_str())
                .or_insert_with(|| bursts_per_request(&f.model));
            self.tokens += f.completed * per_request;
        }
    }
}

/// Kernel bursts (token requests) one request of `model` makes.
pub fn bursts_per_request(model: &str) -> u64 {
    fastg_models::zoo::by_name(model).map_or(0, |m| {
        u64::try_from(m.stages.iter().filter(|s| !s.kernels.is_empty()).count()).unwrap_or(0)
    })
}

/// `arrivals = completed + dropped + rejected + shed + queued + in flight`
/// for every function of `p` that serves open-loop traffic.
pub fn conservation(p: &Platform, r: &PlatformReport, funcs: &[FuncId]) -> Check {
    let mut pending = 0u64;
    let mut bad = Vec::new();
    for &f in funcs {
        let Some(fr) = r.functions.get(&f) else {
            bad.push(format!("{f:?} missing from report"));
            continue;
        };
        let queued = u64::try_from(p.queued_requests(f)).unwrap_or(u64::MAX);
        let settled = fr.completed + fr.dropped + fr.rejected + fr.shed_deadline + queued;
        match fr.arrivals.checked_sub(settled) {
            Some(in_flight) => pending += in_flight,
            None => bad.push(format!(
                "{}: {} arrivals < {settled} settled",
                fr.name, fr.arrivals
            )),
        }
    }
    let in_flight = u64::try_from(p.in_flight_requests()).unwrap_or(u64::MAX);
    if pending != in_flight {
        bad.push(format!("unsettled {pending} != in flight {in_flight}"));
    }
    check("request conservation", bad.is_empty(), bad.join("; "))
}

/// FNV-1a over the bytes of `x`, chained from `acc`.
pub fn fnv(acc: u64, x: u64) -> u64 {
    x.to_le_bytes().iter().fold(acc, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

pub const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Hash of every per-function integer counter of `reports`.
pub fn counter_digest<'a>(reports: impl IntoIterator<Item = &'a PlatformReport>) -> u64 {
    let mut h = FNV_SEED;
    for r in reports {
        for f in r.functions.values() {
            for x in [
                f.arrivals,
                f.completed,
                f.dropped,
                f.rejected,
                f.shed_deadline,
                f.slo_violations,
                f.good_completions,
            ] {
                h = fnv(h, x);
            }
        }
    }
    h
}

/// `cfg` with every knob the environment could override (`FASTG_*`)
/// pinned to its default, so the benchmark measures the same
/// configuration on every host.
pub fn pinned(cfg: PlatformConfig) -> PlatformConfig {
    cfg.scheduler(SchedPolicy::Paper)
        .fastforward(true)
        .cluster_fastforward(false)
        .tiebreak(TieBreak::Fifo)
        .trace_events(false)
}

/// `usize` → `u64`, lossless on every supported target.
pub fn count(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// SMs an MPS client at `sm_pct` percent of a V100 is capped at (the
/// rounding `MpsServer` applies).
pub fn sms_of(sm_pct: f64) -> u32 {
    let sms = f64::from(fastg_gpu::GpuSpec::v100().sm_count) * sm_pct / 100.0;
    // Clamped to [1, 80] before the cast. fastg-lint: allow(no-lossy-cast)
    sms.round().clamp(1.0, 80.0) as u32
}

/// A seed derived from `(seed, i)` by splitmix64, so neighbouring seeds
/// and indices give unrelated streams.
pub fn derive_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What one repetition produced.
#[derive(Debug, Clone)]
pub struct Rep {
    pub setup_s: f64,
    /// Wall seconds of the simulation phase.
    pub run_s: f64,
    /// Simulated seconds covered by the simulation phase.
    pub sim_s: f64,
    /// Wall seconds inside explicit `run_for` calls (the platforms the
    /// [`Tally`] counts).
    pub platform_run_s: f64,
    /// Combined `PlatformReport::digest` of every report, in order.
    pub digest: u64,
    pub canon: Vec<String>,
    pub counters: u64,
    pub outcome: Outcome,
    pub tally: Tally,
    pub checks: Vec<Check>,
}

/// Collects reports into a repetition's digest, counters and (when
/// asked) canonical texts.
pub struct Reports {
    digest: u64,
    counters: u64,
    canon: Vec<String>,
    keep: bool,
}

impl Reports {
    pub fn new(keep_canon: bool) -> Self {
        Reports {
            digest: FNV_SEED,
            counters: FNV_SEED,
            canon: Vec::new(),
            keep: keep_canon,
        }
    }

    pub fn add(&mut self, r: &PlatformReport) {
        self.digest = fnv(self.digest, r.digest());
        self.counters = fnv(self.counters, counter_digest([r]));
        if self.keep {
            self.canon.push(r.canonical_text());
        }
    }

    /// Keeps a report for the observer probe only (its digest is not
    /// the same on every repetition).
    pub fn observe(&mut self, r: &PlatformReport) {
        if self.keep {
            self.canon.push(r.canonical_text());
        }
    }

    /// Folds a non-report result (a profiler measurement) into the digest.
    pub fn add_value(&mut self, x: u64) {
        self.digest = fnv(self.digest, x);
    }

    pub fn finish(
        self,
        ctx: &Ctx,
        sim_s: f64,
        outcome: Outcome,
        tally: Tally,
        checks: Vec<Check>,
    ) -> Rep {
        Rep {
            setup_s: ctx.setup_s(),
            run_s: ctx.run_s(),
            sim_s,
            platform_run_s: ctx.platform_run_s,
            digest: self.digest,
            canon: self.canon,
            counters: self.counters,
            outcome,
            tally,
            checks,
        }
    }
}

/// Inputs the replay drivers rebuild a workload's shapes from.
#[derive(Debug, Clone)]
pub struct Shape {
    pub nodes: usize,
    /// Every pod placed at deploy time, in deploy order.
    pub pods: Vec<PodShape>,
    /// Every function's arrival process, rebuilt exactly as deployed.
    pub loads: Vec<ArrivalProcess>,
    /// Simulated horizon the loads run to.
    pub horizon: SimTime,
}

#[derive(Debug, Clone, Copy)]
pub struct PodShape {
    pub model: &'static str,
    pub sm: f64,
    pub quota: f64,
}

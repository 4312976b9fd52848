//! `fastg-bench`: the simulator's one benchmark command.
//!
//! ```text
//! fastg-bench --workload <name|all> [--seed N] [--repeats R | --seconds S]
//!             [--trace [0|1]] [--out FILE]
//! fastg-bench --compare BASE.json NEW.json
//! ```
//!
//! Each workload runs one discarded warm-up repetition, then timed
//! repetitions (`--repeats`, default 5, or as many as fit in
//! `--seconds`), and reports every end-to-end metric as a median with its
//! quartiles. Every repetition's outputs are checked. `--trace` adds one
//! traced repetition and the replay drivers, prints the per-layer table
//! and writes `trace-<workload>.json` (Chrome trace-event format). The
//! last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and the end-to-end metrics (per-layer metrics
//! with `--trace`). See README.md.

mod calib;
mod compare;
mod fleet;
mod metrics;
mod paper;
mod replay;
mod run;
mod sweep;
mod trace;

use metrics::{Def, Summary, END_TO_END, EXACT, PER_LAYER};
use run::{count, Check, Ctx, Rep, Result, Shape, THREADS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    PaperPipeline,
    FleetPoisson,
    FleetChaos,
    SweepFork,
}

/// The sizes a run simulates: full, or tiny for the smoke test.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    paper: paper::PaperSize,
    fleet: fleet::FleetSize,
    sweep: sweep::SweepSize,
}

const FULL: Sizes = Sizes {
    paper: paper::PaperSize::FULL,
    fleet: fleet::FleetSize::FULL,
    sweep: sweep::SweepSize::FULL,
};

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::PaperPipeline,
        Workload::FleetPoisson,
        Workload::FleetChaos,
        Workload::SweepFork,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::PaperPipeline => "paper-pipeline",
            Workload::FleetPoisson => "fleet-poisson",
            Workload::FleetChaos => "fleet-chaos",
            Workload::SweepFork => "sweep-fork",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn rep(self, sizes: Sizes, seed: u64, index: u64, ctx: &mut Ctx) -> Result<Rep> {
        match self {
            Workload::PaperPipeline => paper::rep(sizes.paper, seed, ctx),
            Workload::FleetPoisson => fleet::rep(sizes.fleet, seed, false, ctx),
            Workload::FleetChaos => fleet::rep(sizes.fleet, seed, true, ctx),
            Workload::SweepFork => sweep::rep(sizes.sweep, seed, index, ctx),
        }
    }

    /// Threads the workload simulates on.
    fn threads(self) -> usize {
        match self {
            Workload::PaperPipeline | Workload::SweepFork => THREADS,
            Workload::FleetPoisson | Workload::FleetChaos => 1,
        }
    }

    fn shape(self, sizes: Sizes, seed: u64) -> Shape {
        match self {
            Workload::PaperPipeline => paper::shape(seed),
            Workload::FleetPoisson => fleet::shape(sizes.fleet, seed, false),
            Workload::FleetChaos => fleet::shape(sizes.fleet, seed, true),
            Workload::SweepFork => sweep::shape(sizes.sweep, seed),
        }
    }
}

#[derive(Debug, Clone)]
struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    repeats: usize,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
    sizes: Sizes,
}

/// Timed repetitions never drop below this many, whatever the budget.
const MIN_TIMED: usize = 3;

const USAGE: &str =
    "usage: fastg-bench --workload <paper-pipeline|fleet-poisson|fleet-chaos|sweep-fork|all> \
[--seed N] [--repeats R | --seconds S] [--trace [0|1]] [--out FILE]\n       \
fastg-bench --compare BASE.json NEW.json";

enum Command {
    Bench(Options),
    Compare(PathBuf, PathBuf),
}

fn parse_args(args: &[String]) -> std::result::Result<Command, String> {
    let mut opts = Options {
        workloads: Vec::new(),
        seed: 1,
        repeats: 5,
        seconds: None,
        trace: false,
        out: None,
        sizes: FULL,
    };
    let mut i = 0;
    let value = |i: usize, flag: &str| {
        args.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                let v = value(i, "--workload")?;
                opts.workloads = if v == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(&v).ok_or(format!("unknown workload `{v}`"))?]
                };
                i += 1;
            }
            "--seed" => {
                opts.seed = value(i, "--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
                i += 1;
            }
            "--repeats" => {
                opts.repeats = value(i, "--repeats")?
                    .parse()
                    .map_err(|e| format!("--repeats: {e}"))?;
                i += 1;
            }
            "--seconds" => {
                let s: f64 = value(i, "--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                opts.seconds = Some(s);
                i += 1;
            }
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    opts.trace = false;
                    i += 1;
                }
                Some("1") => {
                    opts.trace = true;
                    i += 1;
                }
                _ => opts.trace = true,
            },
            "--out" => {
                opts.out = Some(PathBuf::from(value(i, "--out")?));
                i += 1;
            }
            "--compare" => {
                let base = value(i, "--compare")?;
                let new = value(i + 1, "--compare")?;
                return Ok(Command::Compare(base.into(), new.into()));
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
        i += 1;
    }
    if opts.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    if opts.repeats == 0 {
        return Err("--repeats must be at least 1".into());
    }
    Ok(Command::Bench(opts))
}

/// What the observer-neutrality probe found: the traced repetition
/// against the untraced warm-up at the same seed.
#[derive(Debug, Clone)]
struct Observer {
    events_equal: bool,
    counters_equal: bool,
    canon_identical: bool,
    first_diff: Option<(String, String)>,
}

impl Observer {
    fn probe(untraced: &Rep, traced: &Rep) -> Observer {
        let a: Vec<&str> = untraced.canon.iter().flat_map(|t| t.lines()).collect();
        let b: Vec<&str> = traced.canon.iter().flat_map(|t| t.lines()).collect();
        let first_diff = a
            .iter()
            .zip(&b)
            .find(|(x, y)| x != y)
            .map(|(x, y)| (x.to_string(), y.to_string()))
            .or_else(|| {
                (a.len() != b.len())
                    .then(|| (format!("{} lines", a.len()), format!("{} lines", b.len())))
            });
        Observer {
            events_equal: untraced.tally.events == traced.tally.events,
            counters_equal: untraced.counters == traced.counters,
            canon_identical: first_diff.is_none(),
            first_diff,
        }
    }
}

/// Replay-driver results: ns per operation of each layer.
#[derive(Debug, Clone, Copy)]
struct Replays {
    queue_ns: f64,
    cancel_ns: f64,
    kernel_ns: f64,
    token_ns: f64,
    placement_ns: f64,
    request_ns: f64,
    arrival_ns: f64,
    arrivals: u64,
    trial_ms: f64,
}

struct TraceRun {
    rep: Rep,
    tracer: Tracer,
    snapshot: Option<(usize, f64, f64)>,
    replays: Replays,
    observer: Observer,
}

struct WorkloadRun {
    workload: Workload,
    seed: u64,
    /// `reps[0]` is the discarded warm-up.
    reps: Vec<Rep>,
    /// Calibration kernel seconds measured before each repetition and once
    /// after the last, so every repetition lies between two.
    calib_s: Vec<f64>,
    /// Failed checks with the repetition they failed in (the traced one
    /// is `reps.len()`).
    failed: Vec<(usize, Check)>,
    checks: usize,
    failed_reps: usize,
    peak_rss_mib: f64,
    traced: Option<TraceRun>,
}

impl WorkloadRun {
    fn timed(&self) -> &[Rep] {
        &self.reps[1..]
    }

    /// Timed repetitions with their host-speed factor: the reference
    /// kernel time over the mean of the kernel times measured just before
    /// and just after the repetition (below 1 on a slowed host).
    fn timed_scaled(&self) -> impl Iterator<Item = (&Rep, f64)> + '_ {
        self.timed()
            .iter()
            .zip(self.calib_s[1..].windows(2))
            .map(|(r, c)| (r, 2.0 * calib::REFERENCE_S / (c[0] + c[1])))
    }

    fn correct(&self) -> bool {
        self.failed.is_empty()
    }

    fn attempted(&self) -> usize {
        self.reps.len() + usize::from(self.traced.is_some())
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB, 0 without `/proc`.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().strip_suffix("kB"))
                .and_then(|v| v.trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets `VmHWM` so the next workload's peak is its own (`all` runs).
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn bench(w: Workload, opts: &Options) -> Result<WorkloadRun> {
    let started = Instant::now();
    let (mut reps, mut calib_s) = (Vec::new(), Vec::new());
    let mut calibrator = calib::Calibrator::new(w.threads());
    let mut rep = |index: u64, keep_canon: bool| -> Result<f64> {
        let t0 = Instant::now();
        calib_s.push(calibrator.measure());
        let mut ctx = Ctx::new(Tracer::new(false), keep_canon);
        reps.push(w.rep(opts.sizes, opts.seed, index, &mut ctx)?);
        Ok(t0.elapsed().as_secs_f64())
    };
    let mut walls = vec![rep(0, true)?];
    // A traced run also needs room for its traced repetition and replays.
    let reserve = if opts.trace {
        1.3 * walls[0] + 1.0
    } else {
        0.0
    };
    loop {
        let timed = walls.len() - 1;
        let done = match opts.seconds {
            Some(budget) => {
                let next = Summary::of(&walls).median;
                timed >= MIN_TIMED && started.elapsed().as_secs_f64() + next > budget - reserve
            }
            None => timed >= opts.repeats,
        };
        if done {
            break;
        }
        walls.push(rep(count(walls.len()), false)?);
    }
    calib_s.push(calibrator.measure());
    let peak_rss_mib = peak_rss_mib();

    let mut failed = Vec::new();
    let mut checks = 0;
    let mut failed_reps = 0;
    let mut tally_checks = |i: usize, rep_checks: Vec<Check>, failed: &mut Vec<(usize, Check)>| {
        checks += rep_checks.len();
        let before = failed.len();
        failed.extend(rep_checks.into_iter().filter(|c| !c.ok).map(|c| (i, c)));
        failed_reps += usize::from(failed.len() > before);
    };
    let first = reps[0].digest;
    for (i, r) in reps.iter().enumerate() {
        let mut rep_checks = r.checks.clone();
        rep_checks.push(run::check(
            "digest equals the first repetition's",
            r.digest == first,
            format!("{:016x} vs {first:016x}", r.digest),
        ));
        tally_checks(i, rep_checks, &mut failed);
    }

    let traced = if opts.trace {
        let mut ctx = Ctx::new(Tracer::new(true), true);
        ctx.trace
            .set_rep(u32::try_from(reps.len()).unwrap_or(u32::MAX));
        let rep = w.rep(opts.sizes, opts.seed, 0, &mut ctx)?;
        tally_checks(reps.len(), rep.checks.clone(), &mut failed);
        ctx.trace.set_rep(u32::MAX);
        let replays = replay_all(&mut ctx.trace, &w.shape(opts.sizes, opts.seed), &reps[0]);
        let observer = Observer::probe(&reps[0], &rep);
        Some(TraceRun {
            rep,
            snapshot: ctx.snapshot,
            tracer: ctx.trace,
            replays,
            observer,
        })
    } else {
        None
    };
    Ok(WorkloadRun {
        workload: w,
        seed: opts.seed,
        reps,
        calib_s,
        failed,
        checks,
        failed_reps,
        peak_rss_mib,
        traced,
    })
}

/// Runs every replay driver with `rep`'s counts and `shape`'s pod mix.
fn replay_all(t: &mut Tracer, shape: &Shape, rep: &Rep) -> Replays {
    let tally = &rep.tally;
    let depth = shape.pods.len() + shape.nodes;
    let (placement_ns, mixes) = t.span("replay.scheduler", || {
        replay::scheduler(shape, tally.releases)
    });
    let busiest = mixes
        .iter()
        .max_by_key(|m| m.len())
        .cloned()
        .unwrap_or_default();
    let stepped = tally.kernels.saturating_sub(tally.ff_coalesced);
    let (arrivals, arrival_ns) = t.span("replay.workload", || replay::workload(shape));
    Replays {
        queue_ns: t.span("replay.des.queue", || {
            replay::des_queue(depth, tally.events.clamp(100_000, 2_000_000))
        }),
        cancel_ns: t.span("replay.des.cancel", || {
            replay::des_cancel(depth, tally.arrivals.clamp(10_000, 200_000))
        }),
        kernel_ns: t.span("replay.gpu", || {
            replay::gpu(&shape.pods, &mixes, stepped.clamp(10_000, 1_000_000))
        }),
        token_ns: t.span("replay.manager", || {
            replay::manager(&shape.pods, &busiest, tally.tokens.clamp(10_000, 300_000))
        }),
        placement_ns,
        request_ns: t.span("replay.cluster", || {
            replay::gateway(shape.loads.len(), tally.arrivals.clamp(10_000, 1_000_000))
        }),
        arrival_ns,
        arrivals,
        trial_ms: t.span("replay.profiler", || replay::profiler(&shape.pods)),
    }
}

fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    Summary::of(&values.into_iter().collect::<Vec<_>>()).median
}

/// End-to-end samples: one value per timed repetition (per run for peak
/// memory and the check failure share). Wall times are scaled to the
/// reference host speed.
fn end_to_end(run: &WorkloadRun) -> Vec<(&'static Def, Vec<f64>)> {
    let timed = run.timed();
    let per_rep = |f: &dyn Fn(&Rep) -> f64| timed.iter().map(f).collect::<Vec<f64>>();
    let scaled = |f: &dyn Fn(&Rep, f64) -> f64| {
        run.timed_scaled()
            .map(|(r, k)| f(r, k))
            .collect::<Vec<f64>>()
    };
    let check_fail_pct = 100.0 * run.failed.len() as f64 / run.checks.max(1) as f64;
    END_TO_END
        .iter()
        .chain(EXACT)
        .filter_map(|d| {
            let values = match d.name {
                "sim_speed" => scaled(&|r, k| r.sim_s / r.run_s / k),
                "setup_s" => scaled(&|r, k| r.setup_s * k),
                "peak_rss_mib" => vec![run.peak_rss_mib],
                "sim_goodput_rps" => per_rep(&|r| r.outcome.goodput_rps),
                "sim_served_pct" => per_rep(&|r| r.outcome.served_pct),
                "sim_slo_kept_pct" => per_rep(&|r| r.outcome.slo_kept_pct),
                "sim_gpus" => per_rep(&|r| r.outcome.gpus),
                "check_fail_pct" => vec![check_fail_pct],
                "fidelity_err_pct" => timed
                    .iter()
                    .filter_map(|r| r.outcome.fidelity_err_pct)
                    .collect(),
                _ => Vec::new(),
            };
            (!values.is_empty()).then_some((d, values))
        })
        .collect()
}

/// Replay-estimated busy time (ns) of each layer inside `run_for`.
fn attribution(rep: &Rep, r: &Replays) -> Vec<(&'static str, u64, f64)> {
    let t = &rep.tally;
    let runtime_sched = (t.placements + t.releases).saturating_sub(t.deploy_placements);
    vec![
        ("des", t.events, r.queue_ns),
        ("gpu", t.kernels.saturating_sub(t.ff_coalesced), r.kernel_ns),
        ("manager", t.tokens, r.token_ns),
        ("cluster", t.arrivals, r.request_ns),
        ("workload", t.arrivals, r.arrival_ns),
        ("scheduler", runtime_sched, r.placement_ns),
    ]
}

/// Per-layer metrics of a traced run, in catalogue order.
fn layers(run: &WorkloadRun) -> Vec<(&'static Def, f64)> {
    let Some(tr) = &run.traced else {
        return Vec::new();
    };
    let rep0 = &run.reps[0];
    let t = &rep0.tally;
    let r = &tr.replays;
    let run_s = median(run.timed().iter().map(|x| x.platform_run_s));
    let run_ns = run_s * 1e9;
    let events = t.events as f64;
    let mut slices: Vec<f64> = tr.tracer.durations("platform.run_for.slice");
    slices.sort_by(f64::total_cmp);
    let pct = |p: f64| {
        if slices.is_empty() {
            0.0
        } else {
            let rank = (p * slices.len() as f64).ceil().max(1.0) as usize; // fastg-lint: allow(no-lossy-cast)
            slices[rank.min(slices.len()) - 1] / 1e6
        }
    };
    let reports = tr.tracer.durations("platform.report");
    let busy: f64 = attribution(rep0, r)
        .iter()
        .map(|(_, ops, ns)| *ops as f64 * ns)
        .sum();
    let (snap_bytes, enc, dec) = tr.snapshot.unwrap_or((0, 0.0, 0.0));
    let untraced_wall = median(run.timed().iter().map(|x| x.setup_s + x.run_s));
    let traced_wall = tr.rep.setup_s + tr.rep.run_s;
    let mut v: BTreeMap<&str, f64> = BTreeMap::new();
    let mut set = |k: &'static str, x: f64| {
        v.insert(k, x);
    };
    set("platform.events", events);
    set("platform.ns_per_event", run_ns / events.max(1.0));
    set("platform.events_per_s", events / run_s);
    set("platform.run_s", run_s);
    set("platform.slice_ms.p50", pct(0.5));
    set("platform.slice_ms.p90", pct(0.9));
    set(
        "platform.report_ms",
        reports.iter().sum::<f64>() / reports.len().max(1) as f64 / 1e6,
    );
    set(
        "platform.deploy_ms",
        tr.tracer.total_ns("platform.deploy") / 1e6,
    );
    set(
        "platform.observer_neutral",
        if tr.observer.canon_identical {
            1.0
        } else {
            0.0
        },
    );
    set(
        "platform.unattributed_pct",
        100.0 * (run_ns - busy) / run_ns,
    );
    set("des.queue_ns_per_op", r.queue_ns);
    set("des.cancel_ns_per_op", r.cancel_ns);
    set("des.queue_share_pct", 100.0 * events * r.queue_ns / run_ns);
    set("gpu.kernels", t.kernels as f64);
    set("gpu.ff_bursts", t.ff_bursts as f64);
    set("gpu.ff_coalesced_kernels", t.ff_coalesced as f64);
    set(
        "gpu.ff_ratio",
        t.ff_coalesced as f64 / (t.kernels as f64).max(1.0),
    );
    set("gpu.cluster_ff_cycles", t.cluster_ff_cycles as f64);
    set("gpu.ns_per_kernel", r.kernel_ns);
    set("gpu.util_mean", mean(&t.util));
    set("gpu.occupancy_mean", mean(&t.occupancy));
    set("manager.ns_per_token", r.token_ns);
    set("scheduler.placements", t.placements as f64);
    set("scheduler.releases", t.releases as f64);
    set("scheduler.rejects", t.rejects as f64);
    set("scheduler.probes", t.probes as f64);
    set(
        "scheduler.probes_per_placement",
        t.probes as f64 / (t.placements as f64).max(1.0),
    );
    set("scheduler.exact_fallbacks", t.exact_fallbacks as f64);
    set("scheduler.unschedulable", t.unschedulable as f64);
    set("scheduler.fragmentation", mean(&t.fragmentation));
    set("scheduler.ns_per_placement", r.placement_ns);
    set("cluster.arrivals", t.arrivals as f64);
    set("cluster.completed", t.completed as f64);
    set("cluster.dropped", t.dropped as f64);
    set("cluster.rejected", t.rejected as f64);
    set("cluster.shed", t.shed as f64);
    set("cluster.ns_per_request", r.request_ns);
    set("overload.breaker_trips", t.breaker_trips as f64);
    set("overload.browned_out", t.browned_out as f64);
    set("faults.injected", t.faults as f64);
    set(
        "faults.recovery_ms.p50",
        if t.recovery_ms.is_empty() {
            0.0
        } else {
            median(t.recovery_ms.iter().copied())
        },
    );
    set("workload.arrivals", r.arrivals as f64);
    set("workload.ns_per_arrival", r.arrival_ns);
    set("snapshot.bytes", snap_bytes as f64);
    set("snapshot.encode_ms", enc / 1e6);
    set("snapshot.decode_ms", dec / 1e6);
    set("snapshot.decodes", t.decodes as f64);
    set("sweep.prefixes_shared", t.prefixes_shared as f64);
    set("sweep.cells_resumed", t.cells_resumed as f64);
    set("sweep.warmup_avoided_s", t.warmup_avoided_s);
    set("profiler.trials", t.trials as f64);
    set("profiler.sh_trials", t.sh_trials as f64);
    set("profiler.trial_ms", r.trial_ms);
    set(
        "trace.overhead_pct",
        100.0 * (traced_wall - untraced_wall) / untraced_wall,
    );
    PER_LAYER
        .iter()
        .map(|d| (d, v.get(d.name).copied().unwrap_or(f64::NAN)))
        .collect()
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn fmt_value(x: f64) -> String {
    if x.is_nan() {
        "n/a".into()
    } else if x.abs() >= 1e7 || (x.abs() > 0.0 && x.abs() < 1e-3) {
        format!("{x:.4e}")
    } else {
        format!("{x:.4}")
    }
}

/// The human-readable report of one workload.
fn render(run: &WorkloadRun) -> String {
    let mut s = String::new();
    let w = run.workload;
    let _ = writeln!(
        s,
        "== fastg-bench {} (seed {}, host_cpus {}, {} simulation threads) ==",
        w.name(),
        run.seed,
        host_cpus(),
        w.threads(),
    );
    let _ = writeln!(
        s,
        "repetitions: 1 warm-up + {} timed{}",
        run.timed().len(),
        if run.traced.is_some() {
            " + 1 traced"
        } else {
            ""
        }
    );
    let speed: Vec<f64> = run.timed_scaled().map(|(_, k)| k).collect();
    let raw = |f: &dyn Fn(&Rep) -> f64| median(run.timed().iter().map(f));
    let _ = writeln!(
        s,
        "host speed {:.3} of reference (median over timed repetitions); unscaled medians: sim_speed {}, setup_s {}",
        median(speed),
        fmt_value(raw(&|r| r.sim_s / r.run_s)),
        fmt_value(raw(&|r| r.setup_s)),
    );
    let _ = writeln!(s, "end-to-end (median [q1, q3] over timed repetitions):");
    for (d, values) in end_to_end(run) {
        let sm = Summary::of(&values);
        let bound = d
            .bound
            .map_or("exact".to_string(), |b| format!("bound {:.0}%", b * 100.0));
        let _ = writeln!(
            s,
            "  {:<18} {:>14} {:<13} [{}, {}] n={}  {} is better, {bound}",
            d.name,
            fmt_value(sm.median),
            d.unit,
            fmt_value(sm.q1),
            fmt_value(sm.q3),
            sm.n,
            d.better.as_str(),
        );
    }
    let _ = writeln!(
        s,
        "checks: {} of {} passed",
        run.checks - run.failed.len(),
        run.checks
    );
    for (i, c) in &run.failed {
        let _ = writeln!(s, "  FAILED (repetition {i}) {}: {}", c.name, c.detail);
    }
    let Some(tr) = &run.traced else { return s };
    let _ = writeln!(
        s,
        "per-layer (traced repetition, replay drivers, counts of repetition 0):"
    );
    for (d, x) in layers(run) {
        let _ = writeln!(s, "  {:<32} {:>14} {}", d.name, fmt_value(x), d.unit);
    }
    let o = &tr.observer;
    let yes = |b: bool| if b { "yes" } else { "no" };
    let _ = writeln!(
        s,
        "observer probe (traced vs untraced, same seed): events equal {}, per-function counters equal {}, canonical text identical {}",
        yes(o.events_equal),
        yes(o.counters_equal),
        yes(o.canon_identical),
    );
    if let Some((a, b)) = &o.first_diff {
        let clip = |l: &str| l.chars().take(160).collect::<String>();
        let _ = writeln!(
            s,
            "  first differing line:\n    untraced: {}\n    traced:   {}",
            clip(a),
            clip(b)
        );
    }
    let run_ns = tr.tracer.total_ns("platform.run_for");
    let _ = writeln!(
        s,
        "spans of the traced repetition (share of its platform.run_for time):"
    );
    let _ = writeln!(
        s,
        "  {:<30} {:>8} {:>12} {:>14} {:>12} {:>8}",
        "span", "count", "total ms", "ns/op", "self ms", "share"
    );
    for (name, st) in tr.tracer.table() {
        let _ = writeln!(
            s,
            "  {name:<30} {:>8} {:>12.3} {:>14.0} {:>12.3} {:>7.1}%",
            st.count,
            st.total_ns as f64 / 1e6,
            st.total_ns as f64 / st.count.max(1) as f64,
            st.self_ns as f64 / 1e6,
            100.0 * st.total_ns as f64 / run_ns.max(1.0),
        );
    }
    let rep0 = &run.reps[0];
    let run_s = median(run.timed().iter().map(|x| x.platform_run_s));
    let _ = writeln!(
        s,
        "replay attribution (estimated busy time; platform.run_s = {run_s:.4} s untraced):"
    );
    let _ = writeln!(
        s,
        "  {:<12} {:>12} {:>10} {:>12} {:>8}",
        "layer", "ops", "ns/op", "busy ms", "share"
    );
    let mut busy = 0.0;
    for (layer, ops, ns) in attribution(rep0, &tr.replays) {
        let b = ops as f64 * ns;
        busy += b;
        let _ = writeln!(
            s,
            "  {layer:<12} {ops:>12} {ns:>10.1} {:>12.3} {:>7.1}%",
            b / 1e6,
            100.0 * b / (run_s * 1e9)
        );
    }
    let _ = writeln!(
        s,
        "  {:<12} {:>12} {:>10} {:>12.3} {:>7.1}%",
        "unattributed",
        "",
        "",
        (run_s * 1e9 - busy) / 1e6,
        100.0 - 100.0 * busy / (run_s * 1e9)
    );
    s
}

fn metric_json(value: f64, unit: &str) -> fastg_json::Value {
    fastg_json::ObjectBuilder::new()
        .field("value", value)
        .field("unit", unit)
        .build()
}

/// The result line: `correct`, `attempted`, `failed` and the gated
/// metrics (per-layer metrics when traced), keyed by name — prefixed by
/// the workload when several ran. Values are medians.
fn result_line(runs: &[WorkloadRun], traced: bool) -> String {
    let mut metrics = fastg_json::ObjectBuilder::new();
    let prefix = runs.len() > 1;
    for run in runs {
        let key = |name: &str| {
            if prefix {
                format!("{}/{name}", run.workload.name())
            } else {
                name.to_string()
            }
        };
        if traced {
            for (d, x) in layers(run) {
                metrics = metrics.field(&key(d.name), metric_json(x, d.unit));
            }
        } else {
            for (d, values) in end_to_end(run) {
                if END_TO_END.iter().any(|e| e.name == d.name) {
                    metrics = metrics.field(
                        &key(d.name),
                        metric_json(Summary::of(&values).median, d.unit),
                    );
                }
            }
        }
    }
    fastg_json::ObjectBuilder::new()
        .field("correct", runs.iter().all(WorkloadRun::correct))
        .field(
            "attempted",
            count(runs.iter().map(WorkloadRun::attempted).sum()),
        )
        .field("failed", count(runs.iter().map(|r| r.failed_reps).sum()))
        .field("metrics", metrics.build())
        .build()
        .to_string_compact()
}

/// One JSON line per workload run, appended to `--out` for `--compare`.
fn out_line(run: &WorkloadRun) -> String {
    let mut metrics = fastg_json::ObjectBuilder::new();
    for (d, values) in end_to_end(run) {
        let s = Summary::of(&values);
        let obj = fastg_json::ObjectBuilder::new()
            .field("unit", d.unit)
            .field("median", s.median)
            .field("q1", s.q1)
            .field("q3", s.q3)
            .field(
                "values",
                values
                    .into_iter()
                    .map(fastg_json::Value::from)
                    .collect::<Vec<_>>(),
            )
            .build();
        metrics = metrics.field(d.name, obj);
    }
    let mut layer_obj = fastg_json::ObjectBuilder::new();
    for (d, x) in layers(run) {
        layer_obj = layer_obj.field(d.name, metric_json(x, d.unit));
    }
    fastg_json::ObjectBuilder::new()
        .field("schema", "fastg-bench/1")
        .field("workload", run.workload.name())
        .field("seed", run.seed)
        .field("host_cpus", count(host_cpus()))
        .field("threads", count(THREADS))
        .field("timed", count(run.timed().len()))
        .field(
            "calibration_s",
            run.calib_s
                .iter()
                .copied()
                .map(fastg_json::Value::from)
                .collect::<Vec<_>>(),
        )
        .field("correct", run.correct())
        .field("metrics", metrics.build())
        .field("layers", layer_obj.build())
        .build()
        .to_string_compact()
}

/// Makes every thread allocate from one glibc arena. By default each
/// worker thread gets an arena of its own, and which arenas a parallel
/// stage's platforms land in varies from run to run: `sweep-fork`'s peak
/// memory flipped between 76 and 87 MiB at one seed, and between 57 MiB
/// every time with one arena.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn single_malloc_arena() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` is glibc's allocator-tuning call; it takes two
    // integers by value and only changes allocator settings. It runs
    // before the benchmark starts any thread.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn single_malloc_arena() {}

fn main() {
    single_malloc_arena();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(Command::Bench(opts)) => opts,
        Ok(Command::Compare(base, new)) => match compare::compare(&base, &new) {
            Ok(text) => {
                print!("{text}");
                return;
            }
            Err(e) => {
                eprintln!("fastg-bench: {e}");
                std::process::exit(1);
            }
        },
        Err(e) => {
            eprintln!("fastg-bench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    for (k, _) in std::env::vars().filter(|(k, _)| k.starts_with("FASTG_")) {
        eprintln!("fastg-bench: warning: {k} is set; the profiler's trial platforms read it");
    }
    let mut runs = Vec::new();
    for &w in &opts.workloads {
        if opts.workloads.len() > 1 {
            reset_peak_rss();
        }
        let run = match bench(w, &opts) {
            Ok(run) => run,
            Err(e) => {
                eprintln!("fastg-bench: {}: {e}", w.name());
                std::process::exit(1);
            }
        };
        print!("{}", render(&run));
        if let Some(tr) = &run.traced {
            let path = format!("trace-{}.json", w.name());
            match std::fs::write(&path, tr.tracer.chrome_json(w.name())) {
                Ok(()) => println!("trace written to {path}"),
                Err(e) => eprintln!("fastg-bench: cannot write {path}: {e}"),
            }
        }
        if let Some(out) = &opts.out {
            let line = out_line(&run) + "\n";
            let written = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(out)
                .and_then(|mut f| std::io::Write::write_all(&mut f, line.as_bytes()));
            if let Err(e) = written {
                eprintln!("fastg-bench: cannot append to {}: {e}", out.display());
                std::process::exit(1);
            }
        }
        runs.push(run);
    }
    println!("{}", result_line(&runs, opts.trace));
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Sizes = Sizes {
        paper: paper::PaperSize::TINY,
        fleet: fleet::FleetSize::TINY,
        sweep: sweep::SweepSize::TINY,
    };

    fn tiny(w: Workload) -> Options {
        Options {
            workloads: vec![w],
            seed: 3,
            repeats: 1,
            seconds: None,
            trace: true,
            out: None,
            sizes: TINY,
        }
    }

    #[test]
    fn every_workload_passes_its_checks_and_prints_every_metric() {
        for w in Workload::ALL {
            let opts = tiny(w);
            let run = bench(w, &opts).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            assert!(run.correct(), "{}: {:?}", w.name(), run.failed);
            let text = render(&run);
            for d in END_TO_END.iter().chain(EXACT).chain(PER_LAYER) {
                if d.name == "fidelity_err_pct" && w != Workload::PaperPipeline {
                    continue;
                }
                assert!(
                    text.contains(d.name),
                    "{}: {} not printed",
                    w.name(),
                    d.name
                );
            }
            for traced in [false, true] {
                let line =
                    fastg_json::Value::parse(&result_line(std::slice::from_ref(&run), traced))
                        .expect("result line parses");
                let keys: Vec<&String> = line.as_object().expect("object").keys().collect();
                assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
                let want = if traced {
                    PER_LAYER.len()
                } else {
                    END_TO_END.len()
                };
                let metrics = line["metrics"].as_object().expect("metrics object");
                assert_eq!(metrics.len(), want, "{}", w.name());
                assert!(
                    metrics
                        .values()
                        .all(|m| m["value"].as_f64().is_some_and(f64::is_finite)),
                    "{}",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = fastg_json::Value::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            doc[key]
                .as_array()
                .expect("list")
                .iter()
                .map(|m| m["name"].as_str().unwrap_or("").to_string())
                .collect()
        };
        assert_eq!(
            names("workloads"),
            Workload::ALL.map(|w| w.name().to_string())
        );
        assert_eq!(
            names("end_to_end"),
            END_TO_END
                .iter()
                .map(|d| d.name.to_string())
                .collect::<Vec<_>>()
        );
        assert_eq!(
            names("per_layer"),
            PER_LAYER
                .iter()
                .map(|d| d.name.to_string())
                .collect::<Vec<_>>()
        );
        for (m, d) in doc["end_to_end"]
            .as_array()
            .expect("list")
            .iter()
            .zip(END_TO_END)
        {
            assert_eq!(m["unit"].as_str(), Some(d.unit));
            assert_eq!(m["better"].as_str(), Some(d.better.as_str()));
            assert_eq!(m["bound"].as_f64(), d.bound);
        }
        for (m, d) in doc["per_layer"]
            .as_array()
            .expect("list")
            .iter()
            .zip(PER_LAYER)
        {
            assert_eq!(m["unit"].as_str(), Some(d.unit), "{}", d.name);
            assert_eq!(m["better"].as_str(), Some(d.better.as_str()), "{}", d.name);
        }
    }

    /// The benchmark builds the simulator with its own release profile, so
    /// it must stay the simulator workspace's: a change there (LTO,
    /// codegen units) would otherwise not reach what is measured.
    #[test]
    fn release_profile_matches_the_simulator_workspace() {
        let release = |path: &str| -> Vec<String> {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
            text.lines()
                .map(str::trim)
                .skip_while(|l| *l != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.starts_with('['))
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(String::from)
                .collect()
        };
        let root = release(concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../Cargo.toml"));
        assert!(!root.is_empty(), "the workspace has a release profile");
        assert_eq!(
            release(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml")),
            root
        );
    }

    #[test]
    fn benchmark_invocation_parses() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let Ok(Command::Bench(o)) = parse_args(&args(
            "--workload fleet-chaos --seed 7 --seconds 20 --trace 0",
        )) else {
            panic!("the --workload/--seed/--seconds/--trace form must parse")
        };
        assert_eq!(
            (o.workloads, o.seed, o.seconds, o.trace),
            (vec![Workload::FleetChaos], 7, Some(20.0), false)
        );
        let Ok(Command::Bench(o)) = parse_args(&args("--workload all --trace")) else {
            panic!()
        };
        assert!(o.trace && o.workloads.len() == 4);
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
    }
}

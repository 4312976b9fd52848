//! Named scenario grids executed in parallel, with prefix-shared warmup.
//!
//! A [`Scenario`] is a self-contained recipe for one deterministic
//! platform run: config, function set, open-loop loads, an optional
//! shared warmup + treatment split, and a duration. [`run_sweep`] fans a
//! grid of scenarios out over `fastg-par` worker threads and returns the
//! reports **in input order**, so the output — and every digest derived
//! from it — is byte-identical no matter how many threads execute it
//! (including the `threads = 1` sequential path).
//!
//! # Prefix-shared execution
//!
//! Treatment grids (same cluster, same functions, same load, different
//! post-warmup knob per cell) re-simulate the identical warmup once per
//! cell when run naively. [`run_sweep`] factors the grid into a
//! shared-prefix tree instead: scenarios whose `(config, functions,
//! loads, shared_warmup)` encode to the same bytes form one group, the
//! group's warmup is simulated **once** into a platform that every cell
//! shares behind an `Arc`, and each cell `Clone`s its own fork of it
//! before applying its [`TreatmentAction`]s and running its measured
//! window. No snapshot bytes are involved: the cells live in the same
//! process as their prefix. A clone replays exactly what a
//! [`Platform::from_snapshot`] of a [`Platform::checkpoint`] would, and
//! that is byte-identical to running straight through (see
//! [`checkpoint`](crate::platform::checkpoint)), so factoring changes
//! wall-clock time only, never results — each cell's own
//! [`Scenario::run`] is the reference the tests diff canonical reports
//! against.

use crate::platform::config::{FunctionConfig, PlatformConfig};
use crate::platform::Platform;
use crate::platform::error::PlatformError;
use crate::platform::report::PlatformReport;
use fastg_cluster::FuncId;
use fastg_des::snap::{Snap, SnapWriter};
use fastg_des::{ArenaKey, SimTime};
use fastg_workload::ArrivalProcess;
// Prefix grouping is a once-per-sweep cold path keyed by encoded bytes;
// an ordered map keeps group discovery order-deterministic without a
// hasher. fastg-lint: allow(no-btreemap-hot-path)
use std::collections::BTreeMap;
use std::sync::Arc;

/// A deterministic post-warmup mutation: the *treatment* a grid cell
/// applies after the shared prefix, before its measured window.
#[derive(Debug, Clone)]
pub enum TreatmentAction {
    /// Live-reconfigure the `func_index`-th function's resources.
    Reconfigure {
        /// Index into [`Scenario::functions`].
        func_index: usize,
        /// New SM partition percentage.
        sm_partition: f64,
        /// New guaranteed window fraction.
        quota_request: f64,
        /// New maximum window fraction.
        quota_limit: f64,
    },
    /// Reconcile the `func_index`-th function to a replica count.
    ScaleTo {
        /// Index into [`Scenario::functions`].
        func_index: usize,
        /// Target replica count.
        replicas: usize,
    },
    /// Replace the `func_index`-th function's arrival process.
    SetLoad {
        /// Index into [`Scenario::functions`].
        func_index: usize,
        /// The new open-loop process.
        process: ArrivalProcess,
    },
    /// Crash the first `count` running pods of the `func_index`-th
    /// function (chaos cells).
    KillPods {
        /// Index into [`Scenario::functions`].
        func_index: usize,
        /// How many pods to crash.
        count: usize,
    },
}

/// One named, self-contained platform run.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Label carried into the sweep result (figure point, grid cell…).
    pub name: String,
    /// Platform construction parameters (nodes, policy, seed, faults…).
    pub config: PlatformConfig,
    /// Functions deployed, in order, before the clock starts.
    pub functions: Vec<FunctionConfig>,
    /// Open-loop arrival processes keyed by index into `functions`.
    pub loads: Vec<(usize, ArrivalProcess)>,
    /// Simulated warmup run *before* the treatment. Scenarios that agree
    /// on `(config, functions, loads, shared_warmup)` share one warmup
    /// simulation under [`run_sweep`]. Zero (the default) disables
    /// sharing for this scenario.
    pub shared_warmup: SimTime,
    /// Post-warmup mutations applied between the shared prefix and the
    /// measured window.
    pub treatment: Vec<TreatmentAction>,
    /// Simulated time to run *after* warmup + treatment before reporting.
    pub duration: SimTime,
}

impl Scenario {
    /// A scenario with no functions and a 1 s duration; chain the
    /// builder methods to fill it in.
    pub fn new(name: impl Into<String>, config: PlatformConfig) -> Self {
        Scenario {
            name: name.into(),
            config,
            functions: Vec::new(),
            loads: Vec::new(),
            shared_warmup: SimTime::ZERO,
            treatment: Vec::new(),
            duration: SimTime::from_secs(1),
        }
    }

    /// Adds a function deployed at construction.
    pub fn function(mut self, fc: FunctionConfig) -> Self {
        self.functions.push(fc);
        self
    }

    /// Attaches an arrival process to the `func_index`-th function.
    pub fn load(mut self, func_index: usize, process: ArrivalProcess) -> Self {
        self.loads.push((func_index, process));
        self
    }

    /// Sets the shareable warmup prefix (see [`Self::shared_warmup`]).
    pub fn warmup(mut self, warmup: SimTime) -> Self {
        self.shared_warmup = warmup;
        self
    }

    /// Appends a post-warmup treatment action.
    pub fn then(mut self, action: TreatmentAction) -> Self {
        self.treatment.push(action);
        self
    }

    /// Sets the simulated run duration (the measured window).
    pub fn duration(mut self, duration: SimTime) -> Self {
        self.duration = duration;
        self
    }

    /// The scenario's prefix identity: the byte encoding of everything
    /// that happens *before* the treatment. Two scenarios with equal
    /// keys are guaranteed to simulate identical warmups — the encoding
    /// covers the full resolved config (seed, tie-break, fault plan…),
    /// every function, every load (including its RNG seed state) and
    /// the warmup length itself.
    pub fn prefix_key(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.config.snap(&mut w);
        self.functions.snap(&mut w);
        w.len_prefix(self.loads.len());
        for (index, process) in &self.loads {
            w.len_prefix(*index);
            process.snap(&mut w);
        }
        self.shared_warmup.snap(&mut w);
        w.finish()
    }

    /// Builds the platform, deploys every function, attaches loads and
    /// runs warmup + treatment + measured window to completion.
    pub fn run(self) -> Result<PlatformReport, PlatformError> {
        self.run_traced().map(|(report, _)| report)
    }

    /// Like [`Self::run`], but also returns the per-event delivery trace
    /// (empty unless [`PlatformConfig::trace_events`] is set). The race
    /// detector uses this to delta-debug a digest divergence to the first
    /// differently-ordered event.
    pub fn run_traced(self) -> Result<(PlatformReport, Vec<String>), PlatformError> {
        let (mut platform, ids) = build_prefix(&self.config, &self.functions, &self.loads)?;
        if self.shared_warmup > SimTime::ZERO {
            platform.run_for(self.shared_warmup);
        }
        apply_treatment(&mut platform, &ids, &self.treatment)?;
        let report = platform.run_for(self.duration);
        Ok((report, platform.event_trace().to_vec()))
    }

    /// Runs this scenario's cell on `platform`, a fork of its shared
    /// warmup prefix: apply the treatment, run the measured window.
    fn resume(self, mut platform: Platform) -> Result<PlatformReport, PlatformError> {
        // Functions deploy in order onto a fresh platform, so ids are
        // dense from zero; a fork preserves that numbering.
        let ids: Vec<FuncId> = (0..self.functions.len())
            .map(FuncId::from_index)
            .collect();
        apply_treatment(&mut platform, &ids, &self.treatment)?;
        Ok(platform.run_for(self.duration))
    }
}

/// Builds a platform, deploys `functions` in order and attaches `loads`.
fn build_prefix(
    config: &PlatformConfig,
    functions: &[FunctionConfig],
    loads: &[(usize, ArrivalProcess)],
) -> Result<(Platform, Vec<FuncId>), PlatformError> {
    let mut platform = Platform::new(config.clone());
    let mut ids = Vec::with_capacity(functions.len());
    for fc in functions {
        ids.push(platform.deploy(fc.clone())?);
    }
    for (index, process) in loads {
        let Some(&func) = ids.get(*index) else {
            return Err(PlatformError::UnknownFunction);
        };
        platform.set_load(func, process.clone());
    }
    Ok((platform, ids))
}

/// Applies treatment actions in order.
fn apply_treatment(
    platform: &mut Platform,
    ids: &[FuncId],
    actions: &[TreatmentAction],
) -> Result<(), PlatformError> {
    let resolve = |index: usize| ids.get(index).copied().ok_or(PlatformError::UnknownFunction);
    for action in actions {
        match action {
            TreatmentAction::Reconfigure {
                func_index,
                sm_partition,
                quota_request,
                quota_limit,
            } => {
                platform.reconfigure(
                    resolve(*func_index)?,
                    *sm_partition,
                    *quota_request,
                    *quota_limit,
                )?;
            }
            TreatmentAction::ScaleTo {
                func_index,
                replicas,
            } => platform.scale_to(resolve(*func_index)?, *replicas),
            TreatmentAction::SetLoad {
                func_index,
                process,
            } => platform.set_load(resolve(*func_index)?, process.clone()),
            TreatmentAction::KillPods { func_index, count } => {
                let func = resolve(*func_index)?;
                for pod in platform.pods_of(func).into_iter().take(*count) {
                    platform.kill_pod(pod);
                }
            }
        }
    }
    Ok(())
}

/// What prefix factoring saved in one [`run_sweep`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Distinct warmup prefixes simulated once and shared.
    pub prefixes_shared: usize,
    /// Cells that resumed from a shared prefix instead of replaying
    /// their own warmup.
    pub cells_resumed: usize,
    /// Total simulated warmup time the sharing avoided (the sum of
    /// `shared_warmup` over resumed cells, minus the one run per group).
    pub warmup_avoided: SimTime,
}

/// One unit of sweep work after factoring.
enum Cell {
    /// Run the whole scenario in one worker (unique prefix, or sharing
    /// disabled).
    Straight(Scenario),
    /// Fork the shared warmup prefix, then treat + measure.
    Resume(Scenario, Arc<Platform>),
}

/// Runs every scenario, `threads` at a time, returning `(name, report)`
/// pairs in the same order as the input grid, with shared warmup
/// prefixes simulated once (see the module docs). `threads = 1` is
/// exactly the sequential loop; any other count produces byte-identical
/// reports. The first failing scenario's error is returned, and a
/// worker panic surfaces as [`PlatformError::Worker`].
pub fn run_sweep(
    scenarios: Vec<Scenario>,
    threads: usize,
) -> Result<Vec<(String, PlatformReport)>, PlatformError> {
    run_sweep_stats(scenarios, threads).map(|(results, _)| results)
}

/// [`run_sweep`], also reporting how much work prefix sharing avoided.
pub fn run_sweep_stats(
    scenarios: Vec<Scenario>,
    threads: usize,
) -> Result<(Vec<(String, PlatformReport)>, SweepStats), PlatformError> {
    let (cells, stats) = factor_cells(scenarios, threads)?;
    let results = fastg_par::try_par_map(cells, threads, |_, cell| match cell {
        Cell::Straight(scenario) => {
            let name = scenario.name.clone();
            Ok::<_, PlatformError>((name, scenario.run()?))
        }
        Cell::Resume(scenario, prefix) => {
            let name = scenario.name.clone();
            // Clone the platform behind the `Arc`, not the `Arc`.
            Ok((name, scenario.resume(Platform::clone(&prefix))?))
        }
    })?;
    Ok((results, stats))
}

/// Factors `scenarios` into cells, in input order: simulates each shared
/// warmup prefix once and hands every member of its group that prefix.
fn factor_cells(
    scenarios: Vec<Scenario>,
    threads: usize,
) -> Result<(Vec<Cell>, SweepStats), PlatformError> {
    // Group scenarios by prefix identity. Only scenarios that opted into
    // a warmup can share; groups of one gain nothing and run straight.
    let mut groups: BTreeMap<Vec<u8>, Vec<usize>> = BTreeMap::new();
    for (i, s) in scenarios.iter().enumerate() {
        if s.shared_warmup > SimTime::ZERO {
            groups.entry(s.prefix_key()).or_default().push(i);
        }
    }
    groups.retain(|_, members| members.len() >= 2);

    // Simulate each shared prefix once (groups fan out over the same
    // worker pool); the cells fork the resulting platforms.
    let prefix_jobs: Vec<(Vec<usize>, Scenario)> = groups
        .into_values()
        .map(|members| {
            let template = scenarios[members[0]].clone();
            (members, template)
        })
        .collect();
    let mut stats = SweepStats::default();
    let prefixes = fastg_par::try_par_map(
        prefix_jobs.iter().map(|(_, t)| t.clone()).collect(),
        threads,
        |_, template| {
            let (mut platform, _) =
                build_prefix(&template.config, &template.functions, &template.loads)?;
            platform.run_for(template.shared_warmup);
            Ok::<_, PlatformError>(Arc::new(platform))
        },
    )?;

    // Assemble the cell list in input order.
    let mut shared_for: Vec<Option<Arc<Platform>>> = vec![None; scenarios.len()];
    for ((members, template), prefix) in prefix_jobs.iter().zip(&prefixes) {
        stats.prefixes_shared += 1;
        stats.cells_resumed += members.len();
        let resumed_extra = u64::try_from(members.len() - 1).unwrap_or(u64::MAX);
        stats.warmup_avoided += template.shared_warmup * resumed_extra;
        for &i in members {
            shared_for[i] = Some(Arc::clone(prefix));
        }
    }
    let cells: Vec<Cell> = scenarios
        .into_iter()
        .zip(shared_for)
        .map(|(scenario, prefix)| match prefix {
            Some(prefix) => Cell::Resume(scenario, prefix),
            None => Cell::Straight(scenario),
        })
        .collect();
    Ok((cells, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{FaultKind, FaultPlan, TieBreak};

    /// Every cell run straight through, its warmup included: the
    /// reference a shared-prefix sweep must match.
    fn run_unshared(scenarios: Vec<Scenario>) -> Vec<(String, PlatformReport)> {
        scenarios
            .into_iter()
            .map(|s| (s.name.clone(), s.run().expect("unshared cell")))
            .collect()
    }

    fn grid() -> Vec<Scenario> {
        [12.0, 24.0]
            .iter()
            .map(|&sm| {
                Scenario::new(
                    format!("resnet-sm{sm}"),
                    PlatformConfig::default()
                        .nodes(1)
                        .warmup(SimTime::from_millis(200))
                        .seed(7),
                )
                .function(
                    FunctionConfig::new("f", "resnet50")
                        .replicas(1)
                        .resources(sm, 0.4, 1.0)
                        .saturating(),
                )
                .duration(SimTime::from_millis(700))
            })
            .collect()
    }

    /// A treatment grid: identical prefix, per-cell reconfigure.
    fn treatment_grid() -> Vec<Scenario> {
        [(12.0, 0.4), (24.0, 0.4), (50.0, 0.8), (100.0, 1.0)]
            .iter()
            .map(|&(sm, quota)| {
                Scenario::new(
                    format!("treat-sm{sm}-q{quota}"),
                    PlatformConfig::default().nodes(1).seed(11),
                )
                .function(
                    FunctionConfig::new("f", "resnet50")
                        .replicas(1)
                        .resources(100.0, 1.0, 1.0)
                        .saturating(),
                )
                .warmup(SimTime::from_millis(400))
                .then(TreatmentAction::Reconfigure {
                    func_index: 0,
                    sm_partition: sm,
                    quota_request: quota,
                    quota_limit: quota,
                })
                .duration(SimTime::from_millis(400))
            })
            .collect()
    }

    #[test]
    fn sweep_returns_input_order_and_matches_sequential() {
        let seq = run_sweep(grid(), 1).expect("sequential sweep");
        let par = run_sweep(grid(), 3).expect("parallel sweep");
        assert_eq!(seq.len(), 2);
        let names: Vec<&str> = par.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["resnet-sm12", "resnet-sm24"]);
        for ((n1, r1), (n2, r2)) in seq.iter().zip(&par) {
            assert_eq!(n1, n2);
            assert_eq!(r1.digest(), r2.digest());
        }
    }

    #[test]
    fn prefix_sharing_is_digest_exact() {
        let (shared, stats) = run_sweep_stats(treatment_grid(), 2).expect("shared sweep");
        let straight = run_unshared(treatment_grid());
        assert_eq!(stats.prefixes_shared, 1);
        assert_eq!(stats.cells_resumed, 4);
        assert_eq!(stats.warmup_avoided, SimTime::from_millis(1200));
        assert_eq!(shared.len(), straight.len());
        for ((n1, r1), (n2, r2)) in shared.iter().zip(&straight) {
            assert_eq!(n1, n2);
            assert_eq!(r1.digest(), r2.digest(), "cell {n1} diverged");
        }
        // The treatment actually differentiates the cells.
        let rps: Vec<f64> = shared
            .iter()
            .map(|(_, r)| r.functions.values().next().unwrap().throughput_rps)
            .collect();
        assert!(rps[0] < rps[3], "quota sweep should spread throughput: {rps:?}");
    }

    #[test]
    fn distinct_prefixes_do_not_share() {
        // Same shape, different seeds → different prefix keys.
        let mut cells = treatment_grid();
        cells[1].config = cells[1].config.clone().seed(12);
        let (_, stats) = run_sweep_stats(cells, 2).expect("sweep");
        assert_eq!(stats.prefixes_shared, 1);
        assert_eq!(stats.cells_resumed, 3);
    }

    /// Two identical chaos cells: a shared prefix, then a pod kill.
    fn chaos_grid() -> Vec<Scenario> {
        let base = || {
            Scenario::new("kill", PlatformConfig::default().nodes(1).seed(5))
                .function(
                    FunctionConfig::new("f", "resnet50")
                        .replicas(2)
                        .resources(25.0, 0.25, 0.25),
                )
                .load(0, ArrivalProcess::poisson(40.0, 3))
                .warmup(SimTime::from_millis(300))
                .then(TreatmentAction::KillPods {
                    func_index: 0,
                    count: 1,
                })
                .duration(SimTime::from_millis(500))
        };
        vec![base(), base()]
    }

    #[test]
    fn chaos_treatment_round_trips() {
        let (shared, stats) = run_sweep_stats(chaos_grid(), 2).expect("chaos sweep");
        assert_eq!(stats.cells_resumed, 2);
        let straight = run_unshared(chaos_grid());
        assert_eq!(shared[0].1.digest(), straight[0].1.digest());
        assert_eq!(shared[1].1.digest(), straight[1].1.digest());
    }

    /// Prefix sharing simulates each warmup once. Every cell of a group
    /// holds the same prefix platform, and its fork enters the treatment
    /// at the end of the warmup with the warmup's events already handled,
    /// so the cell never simulates the warmup again.
    #[test]
    fn resumed_cells_start_at_the_end_of_the_shared_warmup() {
        let grid = treatment_grid();
        let t = &grid[0];
        let (mut straight, _) = build_prefix(&t.config, &t.functions, &t.loads).expect("prefix");
        straight.run_for(t.shared_warmup);
        assert!(straight.events_handled() > 0, "the warmup simulates nothing");
        let cells = grid.len();
        let (factored, stats) = factor_cells(grid, 2).expect("factor");
        assert_eq!(stats.cells_resumed, cells);
        let mut first: Option<&Arc<Platform>> = None;
        for cell in &factored {
            let Cell::Resume(scenario, prefix) = cell else {
                panic!("a treatment cell ran straight");
            };
            let first = *first.get_or_insert(prefix);
            assert!(Arc::ptr_eq(first, prefix), "{}: a second prefix", scenario.name);
            let fork = Platform::clone(prefix);
            assert_eq!(fork.now(), scenario.shared_warmup, "{}", scenario.name);
            assert_eq!(
                fork.events_handled(),
                straight.events_handled(),
                "{}: the fork does not carry the warmup's events",
                scenario.name
            );
        }
    }

    /// A two-cell grid sharing one prefix: a reconfigure cell and a pod
    /// kill cell, under the given chaos, overload and tie-break knobs.
    /// The chaos plan puts a pod crash and a clock degrade inside the
    /// warmup, so their effects ride the fork, and the recovery inside
    /// the measured window, so a pending fault must survive the fork.
    fn resume_parity_grid(chaos: bool, overload: bool, tiebreak: TieBreak) -> Vec<Scenario> {
        let mut config = PlatformConfig::default()
            .nodes(2)
            .seed(43)
            .oversubscribe(true)
            .recovery(true)
            .overload_control(overload)
            .fastforward(true)
            .tiebreak(tiebreak);
        if chaos {
            config = config.fault_plan(
                FaultPlan::new()
                    .at(SimTime::from_millis(300), FaultKind::PodCrash { func_index: 0 })
                    .at(
                        SimTime::from_millis(600),
                        FaultKind::NodeDegrade {
                            node_index: 1,
                            factor: 1.5,
                        },
                    )
                    .at(
                        SimTime::from_millis(1_200),
                        FaultKind::NodeRecover { node_index: 1 },
                    ),
            );
        }
        let base = |name: &str| {
            Scenario::new(name, config.clone())
                .function(
                    FunctionConfig::new("f0", "resnet50")
                        .replicas(2)
                        .resources(50.0, 0.5, 0.5)
                        .slo_ms(200),
                )
                .function(
                    FunctionConfig::new("f1", "rnnt")
                        .replicas(1)
                        .resources(25.0, 0.25, 0.25),
                )
                .load(0, ArrivalProcess::poisson(60.0, 5))
                .load(1, ArrivalProcess::poisson(10.0, 9))
                .warmup(SimTime::from_millis(800))
                .duration(SimTime::from_millis(700))
        };
        vec![
            base("cell/reconfigure").then(TreatmentAction::Reconfigure {
                func_index: 0,
                sm_partition: 25.0,
                quota_request: 0.25,
                quota_limit: 0.5,
            }),
            base("cell/kill").then(TreatmentAction::KillPods {
                func_index: 0,
                count: 1,
            }),
        ]
    }

    /// Shared and unshared runs agree on every cell's canonical report
    /// over {clean, chaos} × {overload on, off} × the four same-instant
    /// tie-break orders, and sharing engages in every combination.
    #[test]
    fn resume_parity_across_chaos_overload_and_tiebreaks() {
        for chaos in [false, true] {
            for overload in [false, true] {
                for tiebreak in [
                    TieBreak::Fifo,
                    TieBreak::Lifo,
                    TieBreak::SeededShuffle(1),
                    TieBreak::SeededShuffle(2),
                ] {
                    let combo = format!("chaos={chaos} overload={overload} {tiebreak:?}");
                    let grid = || resume_parity_grid(chaos, overload, tiebreak);
                    let (shared, stats) = run_sweep_stats(grid(), 2).expect("shared sweep");
                    let unshared = run_unshared(grid());
                    assert_eq!(stats.cells_resumed, 2, "{combo}: sharing never engaged");
                    assert_eq!(shared.len(), unshared.len());
                    for ((n1, r1), (n2, r2)) in shared.iter().zip(&unshared) {
                        assert_eq!(n1, n2);
                        assert_eq!(
                            r1.canonical_text(),
                            r2.canonical_text(),
                            "{combo}: cell {n1} diverged from its unshared run"
                        );
                    }
                }
            }
        }
    }

    /// Runs every cell of `grid`, whose cells share one prefix, on two
    /// forks of that prefix: one by `Clone`, one through snapshot bytes.
    /// The two must agree on each cell's canonical text.
    fn assert_clone_fork_matches_bytes_fork(grid: Vec<Scenario>) {
        let key = grid[0].prefix_key();
        let t = &grid[0];
        let (mut prefix, _) = build_prefix(&t.config, &t.functions, &t.loads).expect("prefix");
        prefix.run_for(t.shared_warmup);
        let snapshot = prefix.checkpoint();
        for cell in grid {
            assert_eq!(
                cell.prefix_key(),
                key,
                "cell {} has its own prefix",
                cell.name
            );
            let name = cell.name.clone();
            let by_clone = cell.clone().resume(prefix.clone()).expect("clone fork");
            let decoded = Platform::from_snapshot(&snapshot).expect("decode");
            let by_bytes = cell.resume(decoded).expect("bytes fork");
            assert_eq!(
                by_clone.canonical_text(),
                by_bytes.canonical_text(),
                "cell {name}: the clone fork diverged from the bytes fork"
            );
        }
    }

    #[test]
    fn clone_forks_match_bytes_forks() {
        assert_clone_fork_matches_bytes_fork(treatment_grid());
        assert_clone_fork_matches_bytes_fork(chaos_grid());
    }

    /// Prefix sharing hands one platform to every worker thread and
    /// clones it there; an `Rc` or `Cell` anywhere inside would break it.
    #[test]
    fn platform_is_clone_send_sync() {
        fn fork_safe<T: Clone + Send + Sync>() {}
        fork_safe::<Platform>();
    }

    #[test]
    fn bad_load_index_is_a_typed_error() {
        let sc = Scenario::new("bad", PlatformConfig::default().nodes(1))
            .load(0, ArrivalProcess::poisson(10.0, 1));
        assert_eq!(sc.run().unwrap_err(), PlatformError::UnknownFunction);
    }

    #[test]
    fn unknown_model_propagates_through_sweep() {
        let sc = Scenario::new("ghost", PlatformConfig::default().nodes(1))
            .function(FunctionConfig::new("f", "not-a-model"));
        match run_sweep(vec![sc], 2) {
            Err(PlatformError::UnknownModel(name)) => assert_eq!(name, "not-a-model"),
            other => panic!("expected UnknownModel, got {other:?}"),
        }
    }
}

//! The Experiment→Trial workflow: one trial per sampled configuration.

use super::config::{check_point, ConfigServer};
use super::db::{ProfileDb, ProfileKey, ProfileRecord};
use crate::manager::SharingPolicy;
use crate::platform::{FunctionConfig, Platform, PlatformConfig, PlatformError, Snapshot};
use fastg_cluster::FuncId;
use fastg_des::SimTime;

/// One trial's collected metrics (what the Client stores in the DB).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialResult {
    /// The profiled configuration.
    pub key: ProfileKey,
    /// Its measurements.
    pub record: ProfileRecord,
}

/// An automatic profiling experiment for one function image.
///
/// Each trial deploys a fresh single-pod FaSTPod with
/// `quota_request == quota_limit` (§3.3.2) on a dedicated one-GPU
/// cluster, drives it with a closed-loop saturating client, discards a
/// warm-up period, and records throughput, latency percentiles, GPU
/// utilization and SM occupancy.
#[derive(Debug, Clone)]
pub struct Experiment {
    model: String,
    server: ConfigServer,
    /// Simulated measurement duration per trial.
    pub trial_duration: SimTime,
    /// Warm-up discarded at the start of each trial.
    pub warmup: SimTime,
    /// Seed for the trial platforms.
    pub seed: u64,
}

impl Experiment {
    /// Creates an experiment over the given model with a configuration
    /// server.
    pub fn new(model: &str, server: ConfigServer) -> Self {
        Experiment {
            model: model.to_string(),
            server,
            trial_duration: SimTime::from_secs(3),
            warmup: SimTime::from_millis(500),
            seed: 1,
        }
    }

    /// Sets the per-trial measurement duration.
    pub fn trial_duration(mut self, d: SimTime) -> Self {
        self.trial_duration = d;
        self
    }

    /// The model under profiling.
    pub fn model(&self) -> &str {
        &self.model
    }

    /// Starts a trial at `(sm %, quota)` without running any simulated
    /// time: builds the dedicated one-GPU platform and deploys the
    /// saturating pod. Drive it with [`TrialRun::extend_to`].
    pub fn start_trial(&self, sm: f64, quota: f64) -> Result<TrialRun, PlatformError> {
        self.start_trial_in(self.trial_config(), sm, quota)
    }

    /// The dedicated one-GPU platform's configuration.
    pub(crate) fn trial_config(&self) -> PlatformConfig {
        PlatformConfig::default()
            .nodes(1)
            .policy(SharingPolicy::FaST)
            .warmup(self.warmup)
            .seed(self.seed)
    }

    /// [`Self::start_trial`] on a platform built from `cfg`. A point
    /// outside the profiled domain is refused ([`check_point`]): its
    /// trial would run clamped and be filed under a key that never ran.
    pub(crate) fn start_trial_in(
        &self,
        cfg: PlatformConfig,
        sm: f64,
        quota: f64,
    ) -> Result<TrialRun, PlatformError> {
        check_point(sm, quota)?;
        let mut platform = Platform::new(cfg);
        let func = platform.deploy(
            FunctionConfig::new(&format!("profile-{}-p{sm}-q{quota}", self.model), &self.model)
                .resources(sm, quota, quota)
                .saturating(),
        )?;
        Ok(TrialRun {
            platform,
            func,
            key: ProfileKey::new(sm, quota),
            warmup: self.warmup,
        })
    }

    /// Runs one trial at `(sm %, quota)` for the experiment's
    /// `trial_duration`.
    pub fn run_trial(&self, sm: f64, quota: f64) -> Result<TrialResult, PlatformError> {
        Ok(self.start_trial(sm, quota)?.extend_to(self.trial_duration))
    }

    /// Runs the whole experiment, inserting every trial into `db` under
    /// the model's name. Returns the trials in sampling order. A plan
    /// reaching outside the profiled domain is refused before any trial
    /// runs.
    pub fn run(&self, db: &mut ProfileDb) -> Result<Vec<TrialResult>, PlatformError> {
        let mut out = Vec::new();
        for (sm, quota) in self.server.sample()? {
            let trial = self.run_trial(sm, quota)?;
            db.insert(&self.model, trial.key, trial.record);
            out.push(trial);
        }
        Ok(out)
    }

    /// Runs the experiment with trials spread over `threads` worker
    /// threads via `fastg-par`.
    ///
    /// Each trial is a fully independent simulation (own platform, own
    /// seed), so this is embarrassingly parallel; results are returned in
    /// sampling order and the database content is identical to
    /// [`Self::run`] — parallelism changes wall-clock time only, never
    /// results. A panicking trial surfaces as [`PlatformError::Worker`],
    /// and a plan reaching outside the profiled domain is refused before
    /// any trial runs.
    pub fn run_parallel(
        &self,
        db: &mut ProfileDb,
        threads: usize,
    ) -> Result<Vec<TrialResult>, PlatformError> {
        let points = self.server.sample()?;
        let out = fastg_par::try_par_map(points, threads, |_, (sm, quota)| {
            self.run_trial(sm, quota)
        })?;
        for trial in &out {
            db.insert(&self.model, trial.key, trial.record);
        }
        Ok(out)
    }
}

/// A live, resumable trial: the platform keeps its simulated state
/// between measurements, so a search round that doubles the trial
/// duration only pays the *incremental* simulated time instead of
/// re-running the survivor's configuration from scratch.
pub struct TrialRun {
    pub(crate) platform: Platform,
    func: FuncId,
    key: ProfileKey,
    warmup: SimTime,
}

impl TrialRun {
    /// The configuration under measurement.
    pub fn key(&self) -> ProfileKey {
        self.key
    }

    /// Suspends the trial into a compact checkpoint. The live platform —
    /// arenas, event queue, GPU state — can then be dropped; resuming
    /// later replays byte-identically from the snapshot. Search rounds
    /// hold survivors this way between rounds, so eliminated trials
    /// release their simulation memory instead of parking live
    /// platforms until the search ends.
    pub fn suspend(&self) -> TrialSnapshot {
        TrialSnapshot {
            snap: self.platform.checkpoint(),
            func: self.func,
            key: self.key,
            warmup: self.warmup,
        }
    }

    /// Post-warmup simulated time this trial has already measured.
    pub fn measured(&self) -> SimTime {
        self.platform.now().saturating_sub(self.warmup)
    }

    /// Advances the trial until `trial_duration` of post-warmup time has
    /// been measured (a no-op if already there) and reports the
    /// cumulative measurement.
    pub fn extend_to(&mut self, trial_duration: SimTime) -> TrialResult {
        let deadline = self.warmup + trial_duration;
        let delta = deadline.saturating_sub(self.platform.now());
        let report = self.platform.run_for(delta);
        let f = &report.functions[&self.func];
        let node = &report.nodes[0];
        TrialResult {
            key: self.key,
            record: ProfileRecord {
                rps: f.throughput_rps,
                p50: f.p50,
                p99: f.p99,
                utilization: node.utilization,
                sm_occupancy: node.sm_occupancy,
            },
        }
    }
}

/// A suspended [`TrialRun`]: the checkpointed platform plus the
/// measurement context needed to resume it. Holds plain bytes — no
/// arenas, queues or caches — so carrying many of these between search
/// rounds is cheap, and dropping an eliminated one frees everything.
#[derive(Debug, Clone)]
pub struct TrialSnapshot {
    snap: Snapshot,
    func: FuncId,
    key: ProfileKey,
    warmup: SimTime,
}

impl TrialSnapshot {
    /// The configuration under measurement.
    pub fn key(&self) -> ProfileKey {
        self.key
    }

    /// Encoded size of the suspended state.
    pub fn size_bytes(&self) -> usize {
        self.snap.size_bytes()
    }

    /// Rebuilds the live trial from the checkpoint. The resumed run
    /// continues exactly where [`TrialRun::suspend`] left off —
    /// [`TrialRun::extend_to`] produces the same measurements the
    /// never-suspended run would have.
    pub fn resume(&self) -> Result<TrialRun, PlatformError> {
        Ok(TrialRun {
            platform: Platform::from_snapshot(&self.snap)?,
            func: self.func,
            key: self.key,
            warmup: self.warmup,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::config::{SamplePlan, SamplePlanError};

    fn quick_experiment(spatial: Vec<f64>, temporal: Vec<f64>) -> Experiment {
        Experiment::new(
            "resnet50",
            ConfigServer::new(SamplePlan::Grid { spatial, temporal }),
        )
        .trial_duration(SimTime::from_secs(2))
    }

    #[test]
    fn trial_measures_quota_proportional_throughput() {
        let e = quick_experiment(vec![100.0], vec![0.2, 0.4]);
        let mut db = ProfileDb::new();
        let trials = e.run(&mut db).unwrap();
        assert_eq!(trials.len(), 2);
        let r20 = db
            .get("resnet50", ProfileKey::new(100.0, 0.2))
            .unwrap()
            .rps;
        let r40 = db
            .get("resnet50", ProfileKey::new(100.0, 0.4))
            .unwrap()
            .rps;
        // Figure 8's temporal proportionality.
        let ratio = r40 / r20;
        assert!((ratio - 2.0).abs() < 0.3, "ratio {ratio} (r20={r20}, r40={r40})");
    }

    #[test]
    fn trial_measures_spatial_saturation() {
        let e = quick_experiment(vec![12.0, 24.0, 50.0], vec![1.0]);
        let mut db = ProfileDb::new();
        e.run(&mut db).unwrap();
        let r12 = db.get("resnet50", ProfileKey::new(12.0, 1.0)).unwrap().rps;
        let r24 = db.get("resnet50", ProfileKey::new(24.0, 1.0)).unwrap().rps;
        let r50 = db.get("resnet50", ProfileKey::new(50.0, 1.0)).unwrap().rps;
        // ResNet saturates at ~24 %: a visible jump 12→24, a negligible
        // one 24→50.
        assert!(r24 > r12 * 1.3, "r12={r12} r24={r24}");
        assert!((r50 - r24).abs() / r24 < 0.1, "r24={r24} r50={r50}");
    }

    #[test]
    fn suspend_resume_preserves_measurements() {
        let e = quick_experiment(vec![24.0], vec![0.4]);
        // Straight-through reference.
        let mut straight = e.start_trial(24.0, 0.4).unwrap();
        straight.extend_to(SimTime::from_millis(500));
        let reference = straight.extend_to(SimTime::from_secs(2));

        // Suspend mid-search, drop the live platform, resume, extend.
        let mut run = e.start_trial(24.0, 0.4).unwrap();
        run.extend_to(SimTime::from_millis(500));
        let suspended = run.suspend();
        drop(run);
        assert!(suspended.size_bytes() > 0);
        assert_eq!(suspended.key(), ProfileKey::new(24.0, 0.4));
        let mut resumed = suspended.resume().unwrap();
        let measured = resumed.extend_to(SimTime::from_secs(2));
        assert_eq!(measured.key, reference.key);
        assert_eq!(measured.record, reference.record);
    }

    /// A plan reaching outside (0, 100] % × (0, 1] is refused with a
    /// typed error before any trial runs, serial or parallel, whatever
    /// the valid points beside it; so is a lone trial there.
    #[test]
    fn plans_outside_the_profiled_domain_run_no_trial() {
        let plans = [
            (SamplePlan::Grid { spatial: vec![f64::NAN, 150.0], temporal: vec![0.5] }, SamplePlanError::Spatial(f64::NAN)),
            (SamplePlan::Grid { spatial: vec![50.0], temporal: vec![0.5, 1.5] }, SamplePlanError::Temporal(1.5)),
        ];
        for (plan, refused) in plans {
            let e = Experiment::new("resnet50", ConfigServer::new(plan.clone()));
            let mut db = ProfileDb::new();
            for result in [e.run(&mut db), e.run_parallel(&mut db, 2)] {
                let Err(PlatformError::SamplePlan(err)) = result else {
                    panic!("{plan:?} ran");
                };
                assert_eq!(format!("{err:?}"), format!("{refused:?}"), "{plan:?}");
            }
            assert!(db.records_of("resnet50").is_empty(), "{plan:?}: a trial ran");
        }
        assert!(matches!(
            Experiment::new("resnet50", ConfigServer::paper_grid()).start_trial(24.0, 0.0),
            Err(PlatformError::SamplePlan(SamplePlanError::Temporal(_)))
        ));
    }

    #[test]
    fn unknown_model_fails_cleanly() {
        let e = Experiment::new("nope", ConfigServer::paper_grid());
        let mut db = ProfileDb::new();
        assert!(e.run(&mut db).is_err());
        assert!(e.run_parallel(&mut db, 4).is_err());
    }

    /// Parallel execution is a pure wall-clock optimization: identical
    /// trials, identical database.
    #[test]
    fn parallel_run_matches_serial() {
        let e = quick_experiment(vec![12.0, 24.0], vec![0.4, 1.0]);
        let mut serial = ProfileDb::new();
        let a = e.run(&mut serial).unwrap();
        let mut parallel = ProfileDb::new();
        let b = e.run_parallel(&mut parallel, 4).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.key, y.key);
            assert_eq!(x.record, y.record);
        }
        assert_eq!(serial.to_json(), parallel.to_json());
    }
}

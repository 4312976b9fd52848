//! Budget-aware configuration search.
//!
//! The full Figure 8 grid costs `|spatial| × |temporal|` trials per
//! function. Morphling's thesis — which FaST-Profiler builds on — is
//! that near-optimal configurations can be found with far fewer trials.
//! [`SuccessiveHalving`] is a racing-style search: run *all* candidate
//! configurations with short cheap trials, keep the best `1/eta` by RPR
//! (the scheduler's efficiency metric), re-run the survivors with longer
//! trials, repeat. The final survivor is measured at full fidelity and
//! inserted into the [`ProfileDb`].

use super::db::ProfileDb;
use super::experiment::{Experiment, TrialSnapshot};
use crate::platform::PlatformError;
use crate::profiler::config::{check_point, ConfigServer, SamplePlan};
use crate::scheduler::ConfigPoint;
use fastg_des::SimTime;

/// Successive-halving search over a candidate configuration set.
#[derive(Debug, Clone)]
pub struct SuccessiveHalving {
    model: String,
    candidates: Vec<(f64, f64)>,
    /// Keep `1/eta` of candidates each round (default 3).
    pub eta: usize,
    /// Trial duration for the first (cheapest) round; doubles per round.
    pub base_trial: SimTime,
    /// Seed for trial platforms.
    pub seed: u64,
}

/// The outcome of a search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// The best configuration found.
    pub best: ConfigPoint,
    /// Total trials executed (the budget actually spent).
    pub trials: usize,
    /// Simulated seconds spent across all trials.
    pub sim_seconds: f64,
}

impl SuccessiveHalving {
    /// Searches over the paper's grid for `model`.
    pub fn over_paper_grid(model: &str) -> Self {
        SuccessiveHalving {
            model: model.to_string(),
            // The paper grid lies in the profiled domain.
            candidates: ConfigServer::paper_grid().sample().unwrap_or_default(),
            eta: 3,
            base_trial: SimTime::from_millis(500),
            seed: 1,
        }
    }

    /// Runs the search with one worker thread per candidate slot as
    /// resolved from the environment (`FASTG_THREADS`, defaulting to the
    /// machine's parallelism). See [`Self::run_with_threads`].
    pub fn run(&self, db: &mut ProfileDb) -> Result<SearchResult, PlatformError> {
        self.run_with_threads(db, fastg_par::resolve_threads(None))
    }

    /// Runs the search. Every trial's measurement is inserted into `db`
    /// (later rounds overwrite earlier, cheaper measurements of the same
    /// key), and the winner is returned. A candidate outside the
    /// profiled domain is refused before any trial runs.
    ///
    /// All candidates of a round run concurrently over `threads` worker
    /// threads. Between rounds every survivor is *suspended into a
    /// checkpoint* ([`TrialSnapshot`]) and its live platform dropped:
    /// the next round forks the survivor back to life from the snapshot
    /// and pays only the incremental simulated time, while eliminated
    /// candidates release their arenas, queues and GPU state the moment
    /// the round's cut is made — the search's resident memory is a few
    /// compact byte buffers, not `keep` live simulations. Suspension is
    /// digest-exact (restore-then-run ≡ run-through), so results are
    /// identical to carrying live platforms, and the thread count never
    /// changes the result — trials are independent seeded simulations
    /// collected in candidate order.
    pub fn run_with_threads(
        &self,
        db: &mut ProfileDb,
        threads: usize,
    ) -> Result<SearchResult, PlatformError> {
        debug_assert!(self.eta >= 2, "eta must halve at least");
        // Every candidate lies in the profiled domain, or no trial runs.
        for &(sm, q) in &self.candidates {
            check_point(sm, q)?;
        }
        let eta = self.eta.max(2);
        let mut experiment = Experiment::new(
            &self.model,
            ConfigServer::new(SamplePlan::Grid {
                spatial: vec![],
                temporal: vec![],
            }),
        );
        experiment.seed = self.seed;
        let mut pool: Vec<((f64, f64), Option<TrialSnapshot>)> =
            self.candidates.iter().map(|&c| (c, None)).collect();
        let mut duration = self.base_trial;
        let mut trials = 0usize;
        let mut sim_seconds = 0.0f64;
        while pool.len() > 1 {
            let pool_len = pool.len();
            let measured = fastg_par::try_par_map(pool, threads, |_, ((sm, q), suspended)| {
                // Fork the survivor from its checkpoint (or start cold),
                // measure, and suspend again before the live platform
                // leaves the worker.
                let mut run = match &suspended {
                    Some(snap) => snap.resume()?,
                    None => experiment.start_trial(sm, q)?,
                };
                let already = run.measured();
                let trial = run.extend_to(duration);
                let paid = duration.saturating_sub(already);
                Ok::<_, PlatformError>(((sm, q), run.suspend(), trial, paid))
            })?;
            let mut scored = Vec::with_capacity(measured.len());
            for ((sm, q), snap, trial, paid) in measured {
                db.insert(&self.model, trial.key, trial.record);
                trials += 1;
                sim_seconds += paid.as_secs_f64();
                let rpr = trial.record.rps / (sm / 100.0 * q);
                scored.push((((sm, q), snap), rpr));
            }
            // Keep the top 1/eta (at least one), deterministic ties.
            // Dropping the tail here frees the eliminated trials'
            // snapshots — nothing of a loser survives the cut.
            scored.sort_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(
                        (a.0)
                            .0
                            .partial_cmp(&(b.0).0)
                            .unwrap_or(std::cmp::Ordering::Equal),
                    )
            });
            let keep = (pool_len / eta).max(1);
            pool = scored
                .into_iter()
                .take(keep)
                .map(|(((sm, q), snap), _)| ((sm, q), Some(snap)))
                .collect();
            duration = duration * 2;
        }
        // Final high-fidelity measurement of the winner: fork its last
        // checkpoint and extend to 3 s of measured time (paying only the
        // remainder).
        let ((sm, q), suspended) = pool.remove(0);
        let mut run = match &suspended {
            Some(snap) => snap.resume()?,
            None => experiment.start_trial(sm, q)?,
        };
        let fidelity = SimTime::from_secs(3).max(run.measured());
        let paid = fidelity.saturating_sub(run.measured());
        let final_trial = run.extend_to(fidelity);
        db.insert(&self.model, final_trial.key, final_trial.record);
        trials += 1;
        sim_seconds += paid.as_secs_f64();
        Ok(SearchResult {
            best: ConfigPoint {
                sm,
                quota: q,
                rps: final_trial.record.rps,
            },
            trials,
            sim_seconds,
        })
    }

    /// Number of candidates.
    pub fn candidate_count(&self) -> usize {
        self.candidates.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::config::SamplePlanError;

    /// The paper-grid search for `model`, over `candidates` instead.
    fn over(model: &str, candidates: Vec<(f64, f64)>) -> SuccessiveHalving {
        SuccessiveHalving { candidates, ..SuccessiveHalving::over_paper_grid(model) }
    }

    #[test]
    fn search_finds_the_efficient_resnet_config() {
        // ResNet's best RPR is a small partition at modest quota.
        let sh = over(
            "resnet50",
            vec![
                (6.0, 0.4),
                (12.0, 0.4),
                (24.0, 0.4),
                (50.0, 0.4),
                (100.0, 1.0),
                (12.0, 1.0),
            ],
        );
        let mut db = ProfileDb::new();
        let result = sh.run(&mut db).unwrap();
        assert!(
            result.best.sm <= 24.0,
            "expected a small partition, got {} %",
            result.best.sm
        );
        assert!(result.best.rps > 0.0);
        // Far cheaper than profiling the 35-point grid at full fidelity:
        // trials = 6 + 2 + 1 = 9 short rounds + 1 final.
        assert!(result.trials <= 10, "trials {}", result.trials);
    }

    #[test]
    fn search_budget_beats_full_grid() {
        let sh = SuccessiveHalving::over_paper_grid("resnet50");
        assert_eq!(sh.candidate_count(), 35);
        let mut db = ProfileDb::new();
        let result = sh.run(&mut db).unwrap();
        // Full grid at 3 s each = 105 simulated seconds; the search stays
        // well under half that.
        assert!(
            result.sim_seconds < 52.0,
            "search spent {} sim-seconds",
            result.sim_seconds
        );
        // And the winner is a genuinely efficient configuration.
        let rpr = result.best.rps / (result.best.sm / 100.0 * result.best.quota);
        assert!(rpr > 500.0, "winner RPR {rpr}");
    }

    #[test]
    fn candidates_outside_the_profiled_domain_run_no_trial() {
        let mut db = ProfileDb::new();
        let sh = over("resnet50", vec![(24.0, 0.4), (150.0, 0.4)]);
        assert!(matches!(
            sh.run_with_threads(&mut db, 2),
            Err(PlatformError::SamplePlan(SamplePlanError::Spatial(_)))
        ));
        assert!(db.records_of("resnet50").is_empty(), "a trial ran");
    }
}

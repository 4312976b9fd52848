//! The inference cursor: walks a [`ModelProfile`] one operation at a time.

use crate::profile::{KernelSpec, ModelProfile};
use fastg_des::snap::{Snap, SnapError, SnapReader, SnapWriter};
use fastg_des::{snap_enum, SimTime};
use std::sync::Arc;

/// The next thing an in-flight inference needs to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Spend host-side time (GPU idle for this request).
    Host(SimTime),
    /// Launch this kernel burst asynchronously, then synchronize. The
    /// platform routes each launch through the CUDA hook (token checks) and
    /// calls [`InferenceRun::advance`] again after the sync completes.
    Burst(Vec<KernelSpec>),
    /// The request is complete.
    Done,
}

/// The next operation, with the burst identified *by stage index* instead
/// of a cloned kernel vector. [`InferenceRun::advance_indexed`] returns
/// this so per-request hot paths can iterate
/// `profile.stages[i].kernels` through their own `Arc<ModelProfile>`
/// handle — the per-stage `Vec<KernelSpec>` clone in [`Op::Burst`] is the
/// single largest allocation source in a saturated simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageOp {
    /// Spend host-side time (GPU idle for this request).
    Host(SimTime),
    /// Launch the kernels of `profile.stages[index]`, then synchronize.
    Burst(usize),
    /// The request is complete.
    Done,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Host,
    Burst,
}

snap_enum!(Phase, "inference cursor phase" { Host = 0, Burst = 1 });

/// A resumable cursor over one request's stage sequence.
///
/// The platform event loop drives it: call [`advance`](Self::advance) to get
/// the next [`Op`], perform it (schedule a host-delay event, or launch the
/// burst and wait for the sync), then call `advance` again.
#[derive(Debug, Clone)]
pub struct InferenceRun {
    profile: Arc<ModelProfile>,
    stage: usize,
    phase: Phase,
}

impl InferenceRun {
    /// Starts a run at the beginning of the profile.
    pub fn new(profile: Arc<ModelProfile>) -> Self {
        InferenceRun {
            profile,
            stage: 0,
            phase: Phase::Host,
        }
    }

    /// The model being run.
    pub fn profile(&self) -> &Arc<ModelProfile> {
        &self.profile
    }

    /// Yields the next operation and moves the cursor past it. Host phases
    /// of zero length and empty bursts are skipped. After `Done` is
    /// returned, subsequent calls keep returning `Done`.
    pub fn advance(&mut self) -> Op {
        match self.advance_indexed() {
            StageOp::Host(t) => Op::Host(t),
            StageOp::Burst(i) => Op::Burst(self.profile.stages[i].kernels.clone()),
            StageOp::Done => Op::Done,
        }
    }

    /// Allocation-free variant of [`advance`](Self::advance): bursts are
    /// returned as a stage index into [`profile`](Self::profile) rather
    /// than a cloned kernel vector. The indexed stage is guaranteed to
    /// have a non-empty kernel list.
    pub fn advance_indexed(&mut self) -> StageOp {
        loop {
            let Some(stage) = self.profile.stages.get(self.stage) else {
                return StageOp::Done;
            };
            match self.phase {
                Phase::Host => {
                    self.phase = Phase::Burst;
                    if stage.host > SimTime::ZERO {
                        return StageOp::Host(stage.host);
                    }
                }
                Phase::Burst => {
                    let index = self.stage;
                    self.phase = Phase::Host;
                    self.stage += 1;
                    if !stage.kernels.is_empty() {
                        return StageOp::Burst(index);
                    }
                }
            }
        }
    }

    /// Device work (single-grant residency time at `sms` SMs) of the burst
    /// the cursor would yield next, if any. The hook library uses this as
    /// the Gemini-style kernel-burst estimate when sizing token requests.
    pub fn upcoming_burst_estimate(&self, sms: u32) -> Option<SimTime> {
        self.profile
            .stages
            .get(self.stage)
            .filter(|s| !s.kernels.is_empty())
            .map(|s| s.device_time_at(sms))
    }

    /// Fraction of stages completed (for progress displays).
    pub fn progress(&self) -> f64 {
        if self.profile.stages.is_empty() {
            1.0
        } else {
            self.stage as f64 / self.profile.stages.len() as f64
        }
    }

    /// Restarts the cursor (used when a pod re-runs the same request shape).
    pub fn reset(&mut self) {
        self.stage = 0;
        self.phase = Phase::Host;
    }

    /// Encodes the cursor position only — stage index and phase — leaving
    /// the (immutable, shared) profile to be re-attached on restore via
    /// [`Self::unsnap_cursor`]. Checkpoints of a fleet hold one profile
    /// copy per function, not one per in-flight request.
    pub fn snap_cursor(&self, w: &mut SnapWriter) {
        let Self {
            profile: _,
            stage,
            phase,
        } = self;
        stage.snap(w);
        phase.snap(w);
    }

    /// Rebuilds a run from a cursor encoded by [`Self::snap_cursor`],
    /// re-attaching `profile` as the shared model.
    pub fn unsnap_cursor(
        r: &mut SnapReader<'_>,
        profile: Arc<ModelProfile>,
    ) -> Result<Self, SnapError> {
        let stage = usize::unsnap(r)?;
        if stage > profile.stages.len() {
            return Err(SnapError::new("inference cursor stage"));
        }
        let phase = Phase::unsnap(r)?;
        Ok(InferenceRun {
            profile,
            stage,
            phase,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{MemoryFootprint, Stage};

    fn profile(stages: Vec<Stage>) -> Arc<ModelProfile> {
        Arc::new(ModelProfile {
            name: "t".into(),
            stages,
            memory: MemoryFootprint::from_mib(1, 1),
        })
    }

    #[test]
    fn walks_host_then_burst_per_stage() {
        let p = profile(vec![
            Stage::uniform(100, 2, 4, 10),
            Stage::uniform(50, 1, 4, 10),
        ]);
        let mut run = InferenceRun::new(p);
        assert_eq!(run.advance(), Op::Host(SimTime::from_micros(100)));
        match run.advance() {
            Op::Burst(ks) => assert_eq!(ks.len(), 2),
            other => panic!("expected burst, got {other:?}"),
        }
        assert_eq!(run.advance(), Op::Host(SimTime::from_micros(50)));
        match run.advance() {
            Op::Burst(ks) => assert_eq!(ks.len(), 1),
            other => panic!("expected burst, got {other:?}"),
        }
        assert_eq!(run.advance(), Op::Done);
        assert_eq!(run.advance(), Op::Done); // idempotent
    }

    #[test]
    fn skips_empty_phases() {
        let p = profile(vec![
            Stage::uniform(0, 1, 4, 10), // zero host
            Stage::uniform(25, 0, 0, 0), // empty burst
        ]);
        let mut run = InferenceRun::new(p);
        assert!(matches!(run.advance(), Op::Burst(_)));
        assert_eq!(run.advance(), Op::Host(SimTime::from_micros(25)));
        assert_eq!(run.advance(), Op::Done);
    }

    #[test]
    fn empty_profile_is_done_immediately() {
        let mut run = InferenceRun::new(profile(vec![]));
        assert_eq!(run.advance(), Op::Done);
        assert_eq!(run.progress(), 1.0);
    }

    #[test]
    fn burst_estimate_tracks_cursor() {
        let p = profile(vec![Stage::uniform(100, 2, 20, 10)]);
        let mut run = InferenceRun::new(p);
        // Two 20-block 10us kernels at 10 SMs: 2 waves each = 40us.
        assert_eq!(
            run.upcoming_burst_estimate(10),
            Some(SimTime::from_micros(40))
        );
        run.advance(); // host
        run.advance(); // burst
        assert_eq!(run.upcoming_burst_estimate(10), None);
    }

    #[test]
    fn reset_restarts() {
        let p = profile(vec![Stage::uniform(100, 1, 4, 10)]);
        let mut run = InferenceRun::new(p);
        run.advance();
        run.advance();
        assert_eq!(run.advance(), Op::Done);
        run.reset();
        assert_eq!(run.advance(), Op::Host(SimTime::from_micros(100)));
        assert!(run.progress() < 1.0);
    }
}

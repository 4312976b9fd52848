//! The inference cursor: walks a [`ModelProfile`] one operation at a time.

use crate::profile::ModelProfile;
use fastg_des::snap::{Snap, SnapError, SnapReader, SnapWriter};
use fastg_des::{snap_enum, SimTime};
use std::sync::Arc;

/// The next thing an in-flight inference needs to do, with the burst
/// identified *by stage index*: [`InferenceRun::advance_indexed`] returns
/// this so per-request hot paths read `profile.stages[i]` through their
/// own `Arc<ModelProfile>` handle instead of a cloned kernel vector.
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
/// The platform event loop drives it: call
/// [`advance_indexed`](Self::advance_indexed) to get the next [`StageOp`],
/// perform it (schedule a host-delay event, or launch the burst and wait
/// for the sync), then call it again.
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
    /// of zero length and empty bursts are skipped; a burst is returned as
    /// a stage index into [`profile`](Self::profile), and the indexed
    /// stage is guaranteed to have a non-empty kernel list. After `Done`
    /// is returned, subsequent calls keep returning `Done`.
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

    /// Encodes the cursor position only — stage index and phase — leaving
    /// the (immutable, shared) profile to be re-attached on restore via
    /// [`Self::unsnap_cursor`]. Profiles have no encoding of their own:
    /// a platform checkpoint names each function's zoo model instead.
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
        assert_eq!(run.advance_indexed(), StageOp::Host(SimTime::from_micros(100)));
        assert_eq!(run.advance_indexed(), StageOp::Burst(0));
        assert_eq!(run.advance_indexed(), StageOp::Host(SimTime::from_micros(50)));
        assert_eq!(run.advance_indexed(), StageOp::Burst(1));
        assert_eq!(run.advance_indexed(), StageOp::Done);
        assert_eq!(run.advance_indexed(), StageOp::Done); // idempotent
    }

    #[test]
    fn skips_empty_phases() {
        let p = profile(vec![
            Stage::uniform(0, 1, 4, 10), // zero host
            Stage::uniform(25, 0, 0, 0), // empty burst
        ]);
        let mut run = InferenceRun::new(p);
        assert_eq!(run.advance_indexed(), StageOp::Burst(0));
        assert_eq!(run.advance_indexed(), StageOp::Host(SimTime::from_micros(25)));
        assert_eq!(run.advance_indexed(), StageOp::Done);
    }

    #[test]
    fn empty_profile_is_done_immediately() {
        let mut run = InferenceRun::new(profile(vec![]));
        assert_eq!(run.advance_indexed(), StageOp::Done);
    }
}

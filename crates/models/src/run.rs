//! The inference cursor: walks a [`ModelProfile`] one operation at a time.

use crate::profile::ModelProfile;
use fastg_des::{snap_enum, snap_struct, SimTime};

/// The next thing an in-flight inference needs to do, with the burst
/// identified *by stage index*: [`InferenceRun::advance_indexed`] returns
/// this so per-request hot paths read `profile.stages[i]` from the
/// profile they walk instead of a cloned kernel vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageOp {
    /// Spend host-side time (GPU idle for this request).
    Host(SimTime),
    /// Launch the kernels of `profile.stages[index]`, then synchronize.
    Burst(usize),
    /// The request is complete.
    Done,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Phase {
    #[default]
    Host,
    Burst,
}

snap_enum!(Phase, "inference cursor phase" { Host = 0, Burst = 1 });

/// A resumable cursor over one request's stage sequence: a position
/// only. The profile it walks is the caller's, the same one on every
/// call, so a cursor is plain data and starts at its default, the first
/// stage.
///
/// The platform event loop drives it: call
/// [`advance_indexed`](Self::advance_indexed) to get the next [`StageOp`],
/// perform it (schedule a host-delay event, or launch the burst and wait
/// for the sync), then call it again.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InferenceRun {
    stage: usize,
    phase: Phase,
}

snap_struct!(InferenceRun { stage, phase });

impl InferenceRun {
    /// Whether the cursor lies within `profile`: at most past its last
    /// stage. A decoded cursor must, before it walks `profile`.
    pub fn fits(&self, profile: &ModelProfile) -> bool {
        self.stage <= profile.stages.len()
    }

    /// Yields the next operation of `profile` and moves the cursor past
    /// it. Host phases of zero length and empty bursts are skipped; a
    /// burst is returned as a stage index into `profile`, and the indexed
    /// stage is guaranteed to have a non-empty kernel list. After `Done`
    /// is returned, subsequent calls keep returning `Done`.
    pub fn advance_indexed(&mut self, profile: &ModelProfile) -> StageOp {
        loop {
            let Some(stage) = profile.stages.get(self.stage) else {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{MemoryFootprint, Stage};

    fn profile(stages: Vec<Stage>) -> ModelProfile {
        ModelProfile {
            name: "t".into(),
            stages,
            memory: MemoryFootprint::from_mib(1, 1),
        }
    }

    #[test]
    fn walks_host_then_burst_per_stage() {
        let p = profile(vec![
            Stage::uniform(100, 2, 4, 10),
            Stage::uniform(50, 1, 4, 10),
        ]);
        let mut run = InferenceRun::default();
        assert_eq!(run.advance_indexed(&p), StageOp::Host(SimTime::from_micros(100)));
        assert_eq!(run.advance_indexed(&p), StageOp::Burst(0));
        assert_eq!(run.advance_indexed(&p), StageOp::Host(SimTime::from_micros(50)));
        assert_eq!(run.advance_indexed(&p), StageOp::Burst(1));
        assert_eq!(run.advance_indexed(&p), StageOp::Done);
        assert_eq!(run.advance_indexed(&p), StageOp::Done); // idempotent
        assert!(run.fits(&p));
        assert!(!run.fits(&profile(vec![Stage::uniform(100, 2, 4, 10)])));
    }

    #[test]
    fn skips_empty_phases() {
        let p = profile(vec![
            Stage::uniform(0, 1, 4, 10), // zero host
            Stage::uniform(25, 0, 0, 0), // empty burst
        ]);
        let mut run = InferenceRun::default();
        assert_eq!(run.advance_indexed(&p), StageOp::Burst(0));
        assert_eq!(run.advance_indexed(&p), StageOp::Host(SimTime::from_micros(25)));
        assert_eq!(run.advance_indexed(&p), StageOp::Done);
    }

    #[test]
    fn empty_profile_is_done_immediately() {
        let p = profile(vec![]);
        let mut run = InferenceRun::default();
        assert_eq!(run.advance_indexed(&p), StageOp::Done);
    }
}

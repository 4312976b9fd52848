//! A pod's record and where it lives.
//!
//! A pod's one record ([`PodRt`]) sits in its node's slab (see
//! [`NodeRt`](super::node::NodeRt)) at a small *slot*; the engine's
//! `PodId → (node, slot)` map of [`PodAt`]s resolves a pod to it in O(1).
//! Pod ids are handed out in creation order, so the newest pods have the
//! highest ids.

use crate::modelshare::StoreLib;
use fastg_cluster::{FuncId, NodeId, PodId, Request, ResourceSpec};
use fastg_des::snap::{Snap, SnapError, SnapReader, SnapWriter};
use fastg_des::{CancelToken, SimTime};
use fastg_gpu::{ClientId, DevicePtr};
use fastg_models::{InferenceRun, ModelProfile};
use std::sync::Arc;

/// Where a pod's runtime lives: its node and its slot in the node's slab,
/// with the id it is known by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct PodAt {
    pub(super) pod: PodId,
    pub(super) node: NodeId,
    pub(super) slot: usize,
}

#[derive(Clone)]
pub(super) struct ActiveReq {
    pub(super) req: Request,
    /// When service began (wasted-work accounting excludes queue wait).
    pub(super) started: SimTime,
    pub(super) run: InferenceRun,
    /// Stage index (into the run's profile) of a burst waiting for a
    /// token grant. Kept as an index so the hot path never clones the
    /// kernel vector (see [`StageOp`]).
    pub(super) pending_stage: Option<usize>,
    pub(super) outstanding: usize,
    pub(super) burst_gpu_time: SimTime,
    pub(super) waiting_token: bool,
    /// Cancellation token of the burst's pending macro-event, when the
    /// burst was coalesced by the fast-forward layer.
    pub(super) ff: Option<CancelToken>,
}

#[derive(Clone)]
pub(super) struct PodRt {
    pub(super) func: FuncId,
    /// The pod's MPS client on its node's GPU.
    pub(super) client: ClientId,
    /// The pod's resources as registered with MPS: its function's, at a
    /// 100 % SM partition under policies without spatial partitions. The
    /// auto-scaler reads it; a reconfigure rewrites it.
    pub(super) spec: ResourceSpec,
    /// Device memory reserved at creation.
    pub(super) memory: Option<DevicePtr>,
    /// Out of routing: the pod is deleted once its request completes.
    pub(super) draining: bool,
    pub(super) active: Option<ActiveReq>,
    pub(super) storelib: Option<StoreLib>,
    pub(super) bound_rect: bool,
    /// A crashed pod whose kernels are still draining on the GPU: the
    /// number of outstanding kernel completions before final teardown.
    pub(super) zombie: Option<usize>,
}

// ----- checkpoint -------------------------------------------------------

impl ActiveReq {
    /// Encodes the request plus its inference cursor. The model profile
    /// itself is *not* written — checkpoints of a fleet hold one profile
    /// copy per function, not one per in-flight request — so decode takes
    /// the owning function's profile as context.
    fn snap_state(&self, w: &mut SnapWriter) {
        let Self {
            req,
            started,
            run,
            pending_stage,
            outstanding,
            burst_gpu_time,
            waiting_token,
            ff,
        } = self;
        req.snap(w);
        started.snap(w);
        run.snap_cursor(w);
        pending_stage.snap(w);
        w.len_prefix(*outstanding);
        burst_gpu_time.snap(w);
        w.bool(*waiting_token);
        ff.snap(w);
    }

    fn unsnap_state(
        r: &mut SnapReader<'_>,
        profile: &Arc<ModelProfile>,
    ) -> Result<Self, SnapError> {
        let req = Request::unsnap(r)?;
        let started = SimTime::unsnap(r)?;
        let run = InferenceRun::unsnap_cursor(r, Arc::clone(profile))?;
        let pending_stage = Option::unsnap(r)?;
        if pending_stage.is_some_and(|s: usize| s >= profile.stages.len()) {
            return Err(SnapError::new("active request pending stage"));
        }
        Ok(ActiveReq {
            req,
            started,
            run,
            pending_stage,
            outstanding: r.len_prefix()?,
            burst_gpu_time: SimTime::unsnap(r)?,
            waiting_token: r.bool()?,
            ff: Option::unsnap(r)?,
        })
    }
}

impl PodRt {
    pub(super) fn snap_state(&self, w: &mut SnapWriter) {
        let Self {
            func,
            client,
            spec,
            memory,
            draining,
            active,
            storelib,
            bound_rect,
            zombie,
        } = self;
        func.snap(w);
        client.snap(w);
        spec.snap(w);
        memory.snap(w);
        w.bool(*draining);
        match active {
            Some(a) => {
                w.u8(1);
                a.snap_state(w);
            }
            None => w.u8(0),
        }
        storelib.snap(w);
        w.bool(*bound_rect);
        zombie.snap(w);
    }

    /// Decodes one pod, resolving its function's model profile through
    /// `profile_of` (the already decoded function table): a pod of no
    /// function is an error.
    pub(super) fn unsnap_state(
        r: &mut SnapReader<'_>,
        profile_of: impl Fn(FuncId) -> Option<Arc<ModelProfile>>,
    ) -> Result<Self, SnapError> {
        let func = FuncId::unsnap(r)?;
        let profile = profile_of(func).ok_or(SnapError::new("pod function binding"))?;
        let client = ClientId::unsnap(r)?;
        let spec = ResourceSpec::unsnap(r)?;
        let memory = Option::unsnap(r)?;
        let draining = r.bool()?;
        let active = match r.u8()? {
            0 => None,
            1 => Some(ActiveReq::unsnap_state(r, &profile)?),
            _ => return Err(SnapError::new("pod active tag")),
        };
        Ok(PodRt {
            func,
            client,
            spec,
            memory,
            draining,
            active,
            storelib: Option::unsnap(r)?,
            bound_rect: r.bool()?,
            zombie: Option::unsnap(r)?,
        })
    }
}

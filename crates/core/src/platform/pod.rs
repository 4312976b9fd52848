//! A pod's record and where it lives.
//!
//! A pod's one record ([`PodRt`]) sits in its node's slab (see
//! [`NodeRt`](super::node::NodeRt)) at a small *slot*; the engine's
//! `PodId → (node, slot)` map of [`PodAt`]s resolves a pod to it in O(1).
//! Pod ids are handed out in creation order, so the newest pods have the
//! highest ids.

use super::engine::FuncRt;
use fastg_cluster::{FuncId, NodeId, PodId, Request, ResourceSpec};
use fastg_des::{snap_struct, CancelToken, IdArena, SimTime};
use fastg_gpu::ClientId;
use fastg_models::{InferenceRun, ModelProfile};

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
    /// The request's position in its function's model profile.
    pub(super) run: InferenceRun,
    /// Stage index (into the function's profile) of a burst waiting for
    /// a token grant. Kept as an index so the hot path never clones the
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
    /// Device bytes the pod reserved privately at creation. Under model
    /// sharing its function's weights are its node's store's, counted
    /// there once per model.
    pub(super) memory: u64,
    /// Out of routing: the pod is deleted once its request completes.
    pub(super) draining: bool,
    pub(super) active: Option<ActiveReq>,
    pub(super) bound_rect: bool,
    /// A crashed pod whose kernels are still draining on the GPU: the
    /// number of outstanding kernel completions before final teardown.
    pub(super) zombie: Option<usize>,
}

impl PodRt {
    /// The pod's in-flight request and the model profile its cursor
    /// walks, its function's in `funcs`, borrowed together.
    pub(super) fn request_and_profile<'f>(
        &mut self,
        funcs: &'f IdArena<FuncId, FuncRt>,
    ) -> Option<(&mut ActiveReq, &'f ModelProfile)> {
        let profile = &funcs.get(self.func)?.model;
        Some((self.active.as_mut()?, profile))
    }
}

// ----- checkpoint -------------------------------------------------------

// A request's cursor is a position in its function's profile, which the
// engine's decode checks it against: a pod record decodes on its own.
snap_struct!(ActiveReq {
    req, started, run, pending_stage, outstanding, burst_gpu_time, waiting_token, ff,
});

snap_struct!(PodRt {
    func, client, spec, memory, draining, active, bound_rect, zombie,
});

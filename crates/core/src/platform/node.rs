//! The node-owned data plane.
//!
//! Each worker node's runtime is one [`NodeRt`]: the node's GPU device,
//! its FaST Backend and a node-local slab of its pods' runtime. A pod is
//! addressed by a small *slot*, its index in that slab, and the backend
//! keeps the pod's quota row at the same slot, so the hot paths index
//! instead of search. Events keep naming pods by [`PodId`]; the engine's
//! `PodId → (node, slot)` map resolves one in O(1) ([`PodAt`]). The
//! cluster keeps only the node's identity and health.
//!
//! Three hot paths run here, each against one node:
//! - `HostDone` → token request → burst launch ([`Engine::step_pod`]);
//! - `BurstFastForward` → sync point → next phase
//!   ([`Engine::on_burst_ff`]);
//! - the end-of-instant dispatch pass ([`Engine::on_dispatch`]).
//!
//! Per-kernel stepping, fast-forward breaks and zombie drains, the paths
//! fast-forward falls back to, run here too.

use super::engine::{Engine, Event};
use crate::manager::{FastBackend, RequestOutcome};
use crate::modelshare::StoreLib;
use fastg_cluster::{FuncId, NodeId, NodeState, PodId, Request};
use fastg_des::snap::{Snap, SnapError, SnapReader, SnapWriter};
use fastg_des::{CancelToken, EventQueue, SimTime};
use fastg_gpu::{ClientId, GpuDevice, KernelDesc, KernelId};
use fastg_models::{InferenceRun, ModelProfile, StageOp};
use std::sync::Arc;

/// Where a pod's runtime lives: its node and its slot in the node's slab,
/// with the id it is known by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct PodAt {
    pub(super) pod: PodId,
    pub(super) node: NodeId,
    pub(super) slot: usize,
}

/// The engine's `PodId → (node, slot)` map entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct PodLoc {
    pub(super) node: NodeId,
    pub(super) slot: u32,
}

impl PodLoc {
    pub(super) fn slot(self) -> usize {
        // Lossless on every supported target; the fallback is unreachable.
        usize::try_from(self.slot).unwrap_or(usize::MAX)
    }

    pub(super) fn at(self, pod: PodId) -> PodAt {
        PodAt {
            pod,
            node: self.node,
            slot: self.slot(),
        }
    }
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
    pub(super) node: NodeId,
    /// The pod's MPS client id, resolved once at creation so the
    /// per-burst launch path skips the cluster pod-table lookup.
    pub(super) client: ClientId,
    pub(super) active: Option<ActiveReq>,
    pub(super) storelib: Option<StoreLib>,
    pub(super) bound_rect: bool,
    /// A crashed pod whose kernels are still draining on the GPU: the
    /// number of outstanding kernel completions before final teardown.
    pub(super) zombie: Option<usize>,
}

/// One node's data plane: its GPU device, its FaST Backend and the
/// runtime of its pods, in a slab addressed by slot. Slots are reused
/// lowest-first and vacant trailing slots are trimmed, so storage stays
/// proportional to the pods on the node.
#[derive(Clone)]
pub(super) struct NodeRt {
    pub(super) gpu: GpuDevice,
    pub(super) backend: FastBackend,
    pods: Vec<Option<(PodId, PodRt)>>,
}

impl NodeRt {
    pub(super) fn new(backend: FastBackend, gpu: GpuDevice) -> Self {
        NodeRt {
            gpu,
            backend,
            pods: Vec::new(),
        }
    }

    /// The pod at `slot` and the node's device, borrowed together.
    fn pod_and_gpu(&mut self, slot: usize) -> Option<(&mut PodRt, &mut GpuDevice)> {
        let (_, rt) = self.pods.get_mut(slot)?.as_mut()?;
        Some((rt, &mut self.gpu))
    }

    /// Adds a pod at the lowest vacant slot and returns the slot.
    pub(super) fn insert(&mut self, pod: PodId, rt: PodRt) -> usize {
        match self.pods.iter().position(Option::is_none) {
            Some(slot) => {
                self.pods[slot] = Some((pod, rt));
                slot
            }
            None => {
                self.pods.push(Some((pod, rt)));
                self.pods.len() - 1
            }
        }
    }

    pub(super) fn remove(&mut self, slot: usize) -> Option<PodRt> {
        let (_, rt) = self.pods.get_mut(slot)?.take()?;
        while self.pods.last().is_some_and(Option::is_none) {
            self.pods.pop();
        }
        Some(rt)
    }

    pub(super) fn get(&self, slot: usize) -> Option<&PodRt> {
        self.pods.get(slot)?.as_ref().map(|(_, rt)| rt)
    }

    pub(super) fn get_mut(&mut self, slot: usize) -> Option<&mut PodRt> {
        self.pods.get_mut(slot)?.as_mut().map(|(_, rt)| rt)
    }

    /// The pod at `slot`, with its id.
    fn at(&self, node: NodeId, slot: usize) -> Option<PodAt> {
        let (pod, _) = self.pods.get(slot)?.as_ref()?;
        Some(PodAt {
            pod: *pod,
            node,
            slot,
        })
    }

    /// The node's pods, in slot order.
    pub(super) fn pods(&self) -> impl Iterator<Item = &PodRt> {
        self.pods.iter().flatten().map(|(_, rt)| rt)
    }

    /// The pods whose burst is fast-forwarded, in ascending `PodId` order
    /// (the order breaks are applied in, whatever the slots).
    fn fast_forwarded(&self, node: NodeId) -> Vec<PodAt> {
        let mut ff: Vec<PodAt> = self
            .pods
            .iter()
            .enumerate()
            .filter_map(|(slot, p)| {
                let (pod, rt) = p.as_ref()?;
                rt.active.as_ref()?.ff?;
                Some(PodAt {
                    pod: *pod,
                    node,
                    slot,
                })
            })
            .collect();
        ff.sort_unstable_by_key(|at| at.pod);
        ff
    }

    /// After decode: moves every backend row to the slot its pod holds in
    /// the slab.
    pub(super) fn place_backend_rows(&mut self) -> Result<(), SnapError> {
        let Self { backend, pods, .. } = self;
        backend.place_rows(|pod| {
            pods.iter()
                .position(|p| p.as_ref().is_some_and(|(id, _)| *id == pod))
        })
    }
}

impl Engine {
    /// Where `pod`'s runtime lives, if the pod exists.
    pub(super) fn locate(&self, pod: PodId) -> Option<PodAt> {
        self.pod_loc.get(pod).map(|l| l.at(pod))
    }

    pub(super) fn pod_rt(&self, at: PodAt) -> Option<&PodRt> {
        self.nodes.get(at.node)?.get(at.slot)
    }

    pub(super) fn pod_rt_mut(&mut self, at: PodAt) -> Option<&mut PodRt> {
        self.nodes.get_mut(at.node)?.get_mut(at.slot)
    }

    /// Every pod's runtime, node by node.
    pub(super) fn all_pods(&self) -> impl Iterator<Item = &PodRt> {
        self.nodes.values().flat_map(NodeRt::pods)
    }

    /// A host phase ended: step the pod unless it crashed meanwhile.
    pub(super) fn on_host_done(&mut self, now: SimTime, pod: PodId, queue: &mut EventQueue<Event>) {
        let Some(at) = self.locate(pod) else {
            return;
        };
        let alive = self
            .pod_rt(at)
            .is_some_and(|rt| rt.zombie.is_none() && rt.active.is_some());
        if alive {
            self.step_pod(now, at, queue);
        }
    }

    pub(super) fn assign_request(
        &mut self,
        now: SimTime,
        at: PodAt,
        req: Request,
        queue: &mut EventQueue<Event>,
    ) {
        let Engine { nodes, funcs, .. } = self;
        let Some(rt) = nodes.get_mut(at.node).and_then(|n| n.get_mut(at.slot)) else {
            debug_assert!(false, "assigning to a live pod");
            return;
        };
        debug_assert!(rt.active.is_none(), "pod {:?} already busy", at.pod);
        let Some(f) = funcs.get(rt.func) else {
            debug_assert!(false, "function exists");
            return;
        };
        rt.active = Some(ActiveReq {
            req,
            started: now,
            run: InferenceRun::new(Arc::clone(&f.model)),
            pending_stage: None,
            outstanding: 0,
            burst_gpu_time: SimTime::ZERO,
            waiting_token: false,
            ff: None,
        });
        self.step_pod(now, at, queue);
    }

    /// Advances a pod's inference cursor to its next blocking operation
    /// (the cursor itself skips empty phases).
    pub(super) fn step_pod(&mut self, now: SimTime, at: PodAt, queue: &mut EventQueue<Event>) {
        let Some(active) = self.pod_rt_mut(at).and_then(|rt| rt.active.as_mut()) else {
            debug_assert!(false, "stepping requires a live pod with a request");
            return;
        };
        match active.run.advance_indexed() {
            StageOp::Host(d) => {
                queue.schedule(now + d, Event::HostDone(at.pod));
            }
            StageOp::Burst(stage) => {
                active.pending_stage = Some(stage);
                self.try_start_burst(now, at, queue);
            }
            StageOp::Done => {
                self.complete_request(now, at, queue);
            }
        }
    }

    fn try_start_burst(&mut self, now: SimTime, at: PodAt, queue: &mut EventQueue<Event>) {
        let Some(node) = self.nodes.get_mut(at.node) else {
            debug_assert!(false, "runtime per node");
            return;
        };
        let Some(outcome) = node.backend.request_at(now, at.slot) else {
            // The pod's backend row is gone (crash teardown raced this
            // burst); the pod itself is being destroyed, so do nothing.
            return;
        };
        match outcome {
            // Lease expiry is enforced lazily, at the pod's own sync
            // points and re-requests: a real time-slice holder is not
            // preempted during sub-millisecond host gaps, which is
            // precisely why time sharing wastes the GPU on them.
            RequestOutcome::Granted(_) => {
                self.launch_burst(now, at, queue);
            }
            RequestOutcome::Queued | RequestOutcome::BlockedUntilReset => {
                if let Some(active) = node.get_mut(at.slot).and_then(|rt| rt.active.as_mut()) {
                    active.waiting_token = true;
                } else {
                    debug_assert!(false, "burst belongs to a request");
                }
                // The pod waits now (only a token policy queues it).
                self.owe_pass(at.node, queue);
            }
        }
    }

    /// Launches the pod's pending burst: as one fast-forwarded timeline
    /// and macro-event when the device admits it, else kernel by kernel.
    fn launch_burst(&mut self, now: SimTime, at: PodAt, queue: &mut EventQueue<Event>) {
        let Engine {
            cfg,
            nodes,
            ff_bursts,
            ..
        } = self;
        let Some(node) = nodes.get_mut(at.node) else {
            debug_assert!(false, "runtime per node");
            return;
        };
        if node.backend.begin_burst_at(at.slot).is_none() {
            // Crash teardown raced the grant; the pod is being destroyed.
            return;
        }
        let Some((rt, gpu)) = node.pod_and_gpu(at.slot) else {
            debug_assert!(false, "pod exists");
            return;
        };
        let client = rt.client;
        let Some(active) = rt.active.as_mut() else {
            debug_assert!(false, "burst belongs to a request");
            return;
        };
        active.waiting_token = false;
        let Some(stage_index) = active.pending_stage.take() else {
            debug_assert!(false, "launching an empty burst");
            return;
        };
        // The cursor guarantees the stage is non-empty.
        let stage = &active.run.profile().stages[stage_index];
        active.outstanding = stage.kernels.len();
        active.burst_gpu_time = SimTime::ZERO;

        // Fast-forward: an uncontended burst in the capped regime is
        // coalesced into one macro-event at its analytic end instead of
        // one KernelFinish per kernel, built from the stage's burst plan.
        // Any contention change cancels the macro-event and reconstructs
        // per-kernel state (`ff_break_pod`).
        if cfg.fastforward {
            let burst = stage.runs().iter().map(|r| {
                let desc = KernelDesc {
                    blocks: r.spec.blocks,
                    work_per_block: r.spec.work_per_block,
                    tag: at.pod.0,
                };
                (desc, r.count)
            });
            if let Some(end) = gpu.fast_forward_burst(now, client, burst) {
                active.ff =
                    Some(queue.schedule_cancellable(end, Event::BurstFastForward(at.node, at.pod)));
                *ff_bursts += 1;
                return;
            }
        }

        // The per-kernel fallback is the one place a client activates
        // while timelines may be live: if it pushes the active SM caps
        // past the device, the node's timelines fall back first.
        if gpu.has_ff() && !gpu.ff_admits(client) {
            self.ff_break_node(now, at.node, queue);
        }
        self.launch_kernels(now, at, stage_index, queue);
    }

    /// The per-kernel fallback: launches every kernel of the stage into
    /// the pod's stream and schedules a finish for each that starts.
    fn launch_kernels(
        &mut self,
        now: SimTime,
        at: PodAt,
        stage_index: usize,
        queue: &mut EventQueue<Event>,
    ) {
        let Engine {
            nodes,
            burst_scratch,
            ..
        } = self;
        let Some((rt, gpu)) = nodes.get_mut(at.node).and_then(|n| n.pod_and_gpu(at.slot)) else {
            debug_assert!(false, "pod exists");
            return;
        };
        let Some(stage) = rt
            .active
            .as_ref()
            .and_then(|a| a.run.profile().stages.get(stage_index))
        else {
            debug_assert!(false, "burst belongs to a request");
            return;
        };
        debug_assert!(burst_scratch.is_empty(), "scratch drained after each burst");
        for k in &stage.kernels {
            let desc = KernelDesc {
                blocks: k.blocks,
                work_per_block: k.work_per_block,
                tag: at.pod.0,
            };
            match gpu.launch(now, rt.client, desc) {
                Ok(Some(start)) => {
                    burst_scratch
                        .push((start.finish_at, Event::KernelFinish(at.node, start.kernel)));
                }
                Ok(None) => {}
                Err(e) => {
                    // An unlaunchable kernel (client torn down mid-grant)
                    // is dropped instead of crashing the whole run.
                    debug_assert!(false, "kernel launch failed: {e}");
                }
            }
        }
        queue.schedule_batch(burst_scratch.drain(..));
    }

    pub(super) fn on_kernel_finish(
        &mut self,
        now: SimTime,
        node: NodeId,
        kernel: KernelId,
        queue: &mut EventQueue<Event>,
    ) {
        // A finish scheduled before the node crashed: the kernel died with
        // the hardware and was already accounted as aborted.
        if matches!(self.cluster.node_state(node), Ok(NodeState::Down)) {
            return;
        }
        let Some(gpu) = self.nodes.get_mut(node).map(|n| &mut n.gpu) else {
            debug_assert!(false, "runtime per node");
            return;
        };
        // A kernel the device no longer knows (double finish, or a stale
        // event surviving a hard reset) is dropped: the typed error says
        // there is nothing left to account for.
        let mut started = std::mem::take(&mut self.started_scratch);
        debug_assert!(started.is_empty(), "scratch drained after each finish");
        let finish = gpu.on_kernel_finish_into(now, kernel, &mut started);
        queue.schedule_batch(
            started
                .drain(..)
                .map(|s| (s.finish_at, Event::KernelFinish(node, s.kernel))),
        );
        self.started_scratch = started;
        let Ok(done) = finish else {
            return;
        };
        let pod = PodId(done.tag);
        let Some(at) = self.locate(pod) else {
            // The pod was deleted while its last kernels drained — cannot
            // happen by construction (deletion requires an idle pod and
            // crashed pods linger as zombies), so surface it loudly in
            // debug builds.
            debug_assert!(false, "kernel completion for unknown pod {pod:?}");
            return;
        };
        let Some(rt) = self.pod_rt_mut(at) else {
            debug_assert!(false, "located pod has a runtime");
            return;
        };
        // A crashed pod's kernels drain without any request accounting.
        if let Some(outstanding) = rt.zombie.as_mut() {
            *outstanding -= 1;
            if *outstanding == 0 {
                self.teardown_dead_pod(at);
            }
            return;
        }
        let Some(active) = rt.active.as_mut() else {
            debug_assert!(false, "kernel belongs to a request");
            return;
        };
        active.burst_gpu_time += done.gpu_time;
        active.outstanding -= 1;
        if active.outstanding == 0 {
            let gpu_time = active.burst_gpu_time;
            self.burst_sync_point(now, at, gpu_time, queue);
        }
    }

    /// Synchronization point after a burst's last kernel: report usage to
    /// the backend (maybe losing the lease, whose capacity the next
    /// dispatch pass hands on), and advance the pod's inference cursor.
    fn burst_sync_point(
        &mut self,
        now: SimTime,
        at: PodAt,
        gpu_time: SimTime,
        queue: &mut EventQueue<Event>,
    ) {
        let sync = self
            .nodes
            .get_mut(at.node)
            .map(|n| n.backend.sync_point_at(now, at.slot, gpu_time));
        debug_assert!(sync.is_some(), "runtime per node");
        // A dropped lease freed SM budget: re-decide token holders at the
        // end of this instant.
        if let Some(Some(false)) = sync {
            self.poke_dispatch(at.node, queue);
        }
        self.step_pod(now, at, queue);
    }

    /// Delivers a burst's coalesced macro-event: the analytic end of a
    /// fast-forwarded burst. Every invalidation path cancels the token
    /// first, so a delivered macro-event always finds its timeline.
    pub(super) fn on_burst_ff(
        &mut self,
        now: SimTime,
        node: NodeId,
        pod: PodId,
        queue: &mut EventQueue<Event>,
    ) {
        let Some(at) = self.locate(pod) else {
            debug_assert!(false, "macro-event for a dead pod (token not cancelled)");
            return;
        };
        debug_assert_eq!(at.node, node, "macro-event names the pod's node");
        let Engine {
            nodes,
            ff_coalesced_kernels,
            ..
        } = self;
        let Some((rt, gpu)) = nodes.get_mut(at.node).and_then(|n| n.pod_and_gpu(at.slot)) else {
            debug_assert!(false, "located pod has a runtime");
            return;
        };
        let client = rt.client;
        let Some(active) = rt.active.as_mut() else {
            debug_assert!(false, "macro-event without a request");
            return;
        };
        active.ff = None;
        let Some(done) = gpu.ff_complete(now, client) else {
            debug_assert!(
                false,
                "macro-event without a timeline (token not cancelled)"
            );
            return;
        };
        *ff_coalesced_kernels += done.completed;
        debug_assert_eq!(
            usize::try_from(done.completed).ok(),
            Some(active.outstanding),
            "macro-event accounts the whole burst"
        );
        active.outstanding = 0;
        active.burst_gpu_time += done.gpu_time;
        let gpu_time = active.burst_gpu_time;
        self.burst_sync_point(now, at, gpu_time, queue);
    }

    /// Invalidates a pod's fast-forwarded burst (if any): cancels its
    /// macro-event, has the device reconstruct exact per-kernel state, and
    /// resumes normal stepping from the materialized mid-flight kernel.
    pub(super) fn ff_break_pod(&mut self, now: SimTime, at: PodAt, queue: &mut EventQueue<Event>) {
        let Engine {
            nodes,
            ff_coalesced_kernels,
            ..
        } = self;
        let Some((rt, gpu)) = nodes.get_mut(at.node).and_then(|n| n.pod_and_gpu(at.slot)) else {
            return;
        };
        let client = rt.client;
        let Some(active) = rt.active.as_mut() else {
            return;
        };
        let Some(token) = active.ff.take() else {
            return;
        };
        let cancelled = queue.cancel(token);
        debug_assert!(cancelled, "macro token is live until broken or delivered");
        let Some(brk) = gpu.ff_break(now, client) else {
            debug_assert!(false, "live token implies a timeline");
            return;
        };
        *ff_coalesced_kernels += brk.completed;
        queue.schedule(
            brk.resumed.finish_at,
            Event::KernelFinish(at.node, brk.resumed.kernel),
        );
        active.outstanding = active
            .outstanding
            .saturating_sub(usize::try_from(brk.completed).unwrap_or(usize::MAX));
        active.burst_gpu_time += brk.gpu_time;
    }

    /// Invalidates every fast-forwarded burst on a node; called before any
    /// contention change (a client activating past the SM budget,
    /// repartition, clock change). Only the node's own pods are read.
    pub(super) fn ff_break_node(
        &mut self,
        now: SimTime,
        node: NodeId,
        queue: &mut EventQueue<Event>,
    ) {
        let pods = self
            .nodes
            .get(node)
            .map(|n| n.fast_forwarded(node))
            .unwrap_or_default();
        for at in pods {
            self.ff_break_pod(now, at, queue);
        }
    }

    /// The pod has no request to serve: its lease goes back to the node's
    /// next dispatch pass.
    pub(super) fn release_idle(&mut self, at: PodAt, queue: &mut EventQueue<Event>) {
        match self.nodes.get_mut(at.node) {
            Some(n) => n.backend.release_idle_at(at.slot),
            None => debug_assert!(false, "runtime per node"),
        }
        self.poke_dispatch(at.node, queue);
    }

    /// Owes the node (at most once per instant) the batched end-of-instant
    /// dispatch pass. Called by every operation that may change who
    /// should hold a token: queueing a waiter, releasing a lease,
    /// resetting a window, tearing down a pod. Grant decisions are
    /// thereby a function of the instant's final backend state, not of
    /// same-instant event delivery order. A pass is owed only while the
    /// node has a waiter (a pod starts waiting only in `request`, and
    /// `try_start_burst` owes its node the pass right after), and it runs
    /// only if some waiter is grantable by then (see
    /// [`Engine::on_dispatch`]).
    ///
    /// The first poke claims a tie key from the queue, so the
    /// [`TieBreak`](fastg_des::TieBreak) policy orders a node's pass
    /// against the instant's other passes exactly as it would a queue
    /// entry.
    pub(super) fn poke_dispatch(&mut self, node: NodeId, queue: &mut EventQueue<Event>) {
        if !self.cfg.policy.uses_tokens() {
            return;
        }
        if self.nodes.get(node).is_some_and(|n| n.backend.has_waiter()) {
            self.owe_pass(node, queue);
        }
    }

    /// Owes `node` a dispatch pass at this instant, unless it is owed one
    /// already.
    fn owe_pass(&mut self, node: NodeId, queue: &mut EventQueue<Event>) {
        if self.dispatch_pending.iter().any(|&(_, n)| n == node) {
            return;
        }
        let key = queue.claim_tie_key();
        let at = self.dispatch_pending.partition_point(|&(k, _)| k < key);
        self.dispatch_pending.insert(at, (key, node));
    }

    /// Runs a node's owed dispatch pass: one canonical-order walk of the
    /// ready queue, granting tokens until the SM budget stops it, then
    /// launching each granted pod's pending burst. This is the only place
    /// a pod waiting for a token starts. A pass is skipped, and counted
    /// as skipped, when no waiter is grantable (every waiter is
    /// quota-blocked until its window resets), as it would grant nothing.
    pub(super) fn on_dispatch(
        &mut self,
        now: SimTime,
        node: NodeId,
        queue: &mut EventQueue<Event>,
    ) {
        let Some(n) = self.nodes.get_mut(node) else {
            return;
        };
        if !n.backend.has_grantable() {
            self.counts.dispatch_passes_skipped += 1;
            return;
        }
        self.counts.dispatch_passes += 1;
        let mut granted = std::mem::take(&mut self.granted_scratch);
        n.backend
            .dispatch_slots(now, &mut self.ready_scratch, &mut granted);
        for &slot in &granted {
            let Some(n) = self.nodes.get(node) else {
                break;
            };
            let has_burst = n
                .get(slot)
                .and_then(|rt| rt.active.as_ref())
                .is_some_and(|a| a.waiting_token && a.pending_stage.is_some());
            if let Some(at) = n.at(node, slot).filter(|_| has_burst) {
                self.launch_burst(now, at, queue);
            }
        }
        granted.clear();
        self.granted_scratch = granted;
    }

    pub(super) fn on_window_reset(
        &mut self,
        now: SimTime,
        node: NodeId,
        queue: &mut EventQueue<Event>,
    ) {
        // Quota windows die with the node (and stop rescheduling).
        if matches!(self.cluster.node_state(node), Ok(NodeState::Down)) {
            return;
        }
        match self.nodes.get_mut(node) {
            Some(n) => n.backend.on_window_reset(now),
            None => debug_assert!(false, "runtime per node"),
        }
        self.poke_dispatch(node, queue);
        queue.schedule(now + self.cfg.window, Event::WindowReset(node));
    }
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
            node,
            client,
            active,
            storelib,
            bound_rect,
            zombie,
        } = self;
        func.snap(w);
        node.snap(w);
        client.snap(w);
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

    /// Decodes one pod, resolving its active request's model profile
    /// through `profile_of` (the already decoded function table).
    pub(super) fn unsnap_state(
        r: &mut SnapReader<'_>,
        profile_of: impl Fn(FuncId) -> Option<Arc<ModelProfile>>,
    ) -> Result<Self, SnapError> {
        let func = FuncId::unsnap(r)?;
        let node = NodeId::unsnap(r)?;
        let client = ClientId::unsnap(r)?;
        let active = match r.u8()? {
            0 => None,
            1 => {
                let profile = profile_of(func).ok_or(SnapError::new("pod function binding"))?;
                Some(ActiveReq::unsnap_state(r, &profile)?)
            }
            _ => return Err(SnapError::new("pod active tag")),
        };
        Ok(PodRt {
            func,
            node,
            client,
            active,
            storelib: Option::unsnap(r)?,
            bound_rect: r.bool()?,
            zombie: Option::unsnap(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::BackendConfig;
    use fastg_cluster::ResourceSpec;
    use fastg_gpu::{GpuSpec, MpsMode};

    fn node() -> NodeRt {
        NodeRt::new(
            FastBackend::new(BackendConfig::default()),
            GpuDevice::new(GpuSpec::v100(), MpsMode::Shared),
        )
    }

    fn pod_rt() -> PodRt {
        PodRt {
            func: FuncId(0),
            node: NodeId(0),
            client: ClientId(0),
            active: None,
            storelib: None,
            bound_rect: false,
            zombie: None,
        }
    }

    #[test]
    fn slots_are_reused_lowest_first_and_trailing_ones_trimmed() {
        let mut n = node();
        let slots: Vec<usize> = (0..3).map(|i| n.insert(PodId(i), pod_rt())).collect();
        assert_eq!(slots, [0, 1, 2]);
        assert!(n.remove(0).is_some());
        assert!(n.remove(0).is_none(), "a vacant slot removes nothing");
        assert_eq!(n.insert(PodId(7), pod_rt()), 0);
        assert_eq!(n.at(NodeId(0), 0).map(|at| at.pod), Some(PodId(7)));
        assert!(n.remove(2).is_some());
        assert!(n.remove(1).is_some());
        assert_eq!(n.pods.len(), 1, "vacant trailing slots are trimmed");
        assert!(n.get(5).is_none());
    }

    /// Decode lays backend rows out in `PodId` order; placing them moves
    /// each to its pod's slab slot, and a row for a pod the node does not
    /// hold is a typed error.
    #[test]
    fn decoded_backend_rows_move_to_their_pods_slots() {
        let spec = ResourceSpec::new(24.0, 0.5, 0.5, 0);
        let mut n = node();
        // Pod 5 takes slot 0 and pod 3 slot 1, so the rows' PodId order
        // is the reverse of the slab's.
        for pod in [PodId(5), PodId(3)] {
            let slot = n.insert(pod, pod_rt());
            n.backend.register_at(slot, pod, spec);
        }
        let mut w = SnapWriter::new();
        n.backend.snap(&mut w);
        let bytes = w.finish();
        n.backend = FastBackend::unsnap(&mut SnapReader::new(&bytes)).unwrap();
        n.place_backend_rows().unwrap();
        assert!(n.backend.request_at(SimTime::ZERO, 0).is_some());
        assert!(n.backend.request_at(SimTime::ZERO, 1).is_some());
        n.backend.dispatch_pass(SimTime::ZERO);
        assert!(n
            .backend
            .quota_state(PodId(5))
            .is_some_and(|q| q.holds_token));

        let mut stray = node();
        stray.insert(PodId(5), pod_rt());
        stray.backend = FastBackend::unsnap(&mut SnapReader::new(&bytes)).unwrap();
        assert!(
            stray.place_backend_rows().is_err(),
            "pod 3 is not on the node"
        );
    }
}

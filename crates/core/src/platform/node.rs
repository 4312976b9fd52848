//! The node-owned data plane.
//!
//! Each worker node's runtime is one [`NodeRt`]: the node's GPU device,
//! its FaST Backend, its model storage server and a node-local slab of
//! its pods' runtime. It is the only code that touches the device, the
//! backend or the store. A pod is addressed by a small *slot*, its index
//! in that slab, and the backend keeps the pod's quota row at the same
//! slot, so the hot paths index instead of search. Events keep naming
//! pods by [`PodId`]; the engine's `PodId → (node, slot)` map resolves one
//! in O(1) ([`PodAt`]). The cluster keeps only the node's identity and
//! health.
//!
//! Three hot paths run here, each against one node:
//! - `HostDone` → token request → burst launch ([`Engine::step_pod`]);
//! - `BurstFastForward` → sync point → next phase
//!   ([`Engine::on_burst_ff`]);
//! - the end-of-instant dispatch pass ([`Engine::on_dispatch`]).
//!
//! Per-kernel stepping, fast-forward breaks and zombie drains, the paths
//! fast-forward falls back to, run here too.

use super::engine::{schedule_next, Engine, Event};
use super::error::PlatformError;
use super::pod::{ActiveReq, PodAt, PodRt};
use super::report::NodeReport;
use crate::manager::{FastBackend, RequestOutcome};
use crate::modelshare::{ModelStorageServer, StoreLib, DEFAULT_CTX_OVERHEAD};
use fastg_cluster::{Cluster, ClusterError, FuncId, NodeId, NodeState, Pod, PodId, Request, ResourceSpec};
use fastg_des::snap::{Snap, SnapError, SnapReader, SnapWriter};
use fastg_des::{EventQueue, IdArena, SimTime, TimeSeries};
use fastg_gpu::{GpuDevice, KernelDesc, KernelId};
use fastg_models::{InferenceRun, StageOp};
use std::sync::Arc;

/// One node's data plane: its GPU device, its FaST Backend, its model
/// store and the runtime of its pods, in a slab addressed by slot. Slots
/// are reused lowest-first and vacant trailing slots are trimmed, so
/// storage stays proportional to the pods on the node.
#[derive(Clone)]
pub(super) struct NodeRt {
    id: NodeId,
    gpu: GpuDevice,
    backend: FastBackend,
    store: ModelStorageServer,
    pods: Vec<Option<(PodId, PodRt)>>,
}

impl NodeRt {
    /// Node `id` with an empty model store and no pods.
    pub(super) fn new(id: NodeId, backend: FastBackend, gpu: GpuDevice) -> Self {
        NodeRt {
            id,
            gpu,
            backend,
            store: ModelStorageServer::new(DEFAULT_CTX_OVERHEAD),
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
    fn at(&self, slot: usize) -> Option<PodAt> {
        let (pod, _) = self.pods.get(slot)?.as_ref()?;
        Some(PodAt { pod: *pod, node: self.id, slot })
    }

    /// The node's pods, in slot order.
    pub(super) fn pods(&self) -> impl Iterator<Item = &PodRt> {
        self.pods.iter().flatten().map(|(_, rt)| rt)
    }

    /// The pods whose burst is fast-forwarded, in ascending `PodId` order
    /// (the order breaks are applied in, whatever the slots).
    fn fast_forwarded(&self) -> Vec<PodAt> {
        let mut ff: Vec<PodAt> = self
            .pods
            .iter()
            .enumerate()
            .filter_map(|(slot, p)| {
                let (pod, rt) = p.as_ref()?;
                rt.active.as_ref()?.ff?;
                Some(PodAt { pod: *pod, node: self.id, slot })
            })
            .collect();
        ff.sort_unstable_by_key(|at| at.pod);
        ff
    }

    // ----- pod lifecycle ----------------------------------------------

    /// Whether the device has memory for a pod reserving `pod_bytes`,
    /// plus, under model sharing, the store's reservation for the model
    /// (`shared`: its name and those bytes) unless the store holds it.
    pub(super) fn fits(&self, pod_bytes: u64, shared: Option<(&str, u64)>) -> bool {
        let store_bytes = match shared {
            Some((model, bytes)) if self.store.model_bytes(model) == 0 => bytes,
            _ => 0,
        };
        self.gpu.memory().free_bytes() >= pod_bytes + store_bytes
    }

    /// Creates a pod on this node: the cluster's pod, its MPS client
    /// registered at `spec` with `pod_bytes` of device memory, and the
    /// model's weights (`attach`: its name and bytes) attached through
    /// the node's store. The runtime it returns joins the node through
    /// [`Self::admit`].
    pub(super) fn create_pod(
        &mut self,
        cluster: &mut Cluster,
        now: SimTime,
        func: FuncId,
        spec: ResourceSpec,
        pod_bytes: u64,
        attach: Option<(&str, u64)>,
    ) -> Result<(PodId, PodRt), PlatformError> {
        let pod = cluster.create_pod(now, self.id, func, spec, pod_bytes, &mut self.gpu)?;
        let client = cluster.pod(pod)?.client;
        let storelib = match attach {
            Some((model, weights)) => {
                let mut lib = StoreLib::new();
                lib.attach(&mut self.store, self.gpu.memory_mut(), model, &[("weights", weights)])?;
                Some(lib)
            }
            None => None,
        };
        let rt = PodRt {
            func,
            node: self.id,
            client,
            active: None,
            storelib,
            bound_rect: false,
            zombie: None,
        };
        Ok((pod, rt))
    }

    /// Puts a created pod's runtime in the slab, and its backend table
    /// row (the FaSTPod controller's spec sync) at the same slot.
    pub(super) fn admit(&mut self, pod: PodId, rt: PodRt, resources: ResourceSpec) -> PodAt {
        let slot = self.insert(pod, rt);
        self.backend.register_at(slot, pod, resources);
        PodAt { pod, node: self.id, slot }
    }

    /// Re-applies a pod's resources: its MPS partition from its next
    /// kernel launch, its backend row's quotas within this window.
    pub(super) fn respec_pod(
        &mut self,
        slot: usize,
        pod: PodId,
        sm_partition: f64,
        resources: ResourceSpec,
    ) -> Result<(), PlatformError> {
        let client = self.get(slot).ok_or(PlatformError::Internal("runtime missing for pod"))?.client;
        self.gpu.set_partition(client, sm_partition)?;
        self.backend.update_spec(pod, resources);
        Ok(())
    }

    /// A pod crash: its backend row goes at once, and its runtime gives
    /// up its in-flight request and its rectangle binding. Kernels left
    /// on the device drain as a zombie. Returns the request, the kernels
    /// left and whether the pod held a binding.
    pub(super) fn kill_pod(&mut self, slot: usize, pod: PodId) -> Option<(Option<Request>, usize, bool)> {
        self.backend.force_deregister(pod);
        let rt = self.get_mut(slot)?;
        let bound = std::mem::take(&mut rt.bound_rect);
        let (req, outstanding) = rt.active.take().map_or((None, 0), |a| (Some(a.req), a.outstanding));
        if outstanding > 0 {
            rt.zombie = Some(outstanding);
        }
        Some((req, outstanding, bound))
    }

    /// Tears down the pod at `slot`: its runtime leaves the slab, its
    /// backend row goes (a crashed pod's went when it was killed), its
    /// weights detach from the store and the cluster deletes it, freeing
    /// its memory and MPS client. Returns its runtime.
    pub(super) fn delete_pod(&mut self, cluster: &mut Cluster, pod: PodId, slot: usize) -> Option<PodRt> {
        let mut rt = self.remove(slot)?;
        self.backend.deregister(pod);
        if let Some(lib) = rt.storelib.as_mut() {
            lib.detach(&mut self.store, self.gpu.memory_mut());
        }
        let deleted = cluster.delete_pod(pod, &mut self.gpu);
        debug_assert!(deleted.is_ok(), "pod exists in cluster");
        Some(rt)
    }

    // ----- node health ------------------------------------------------

    /// Powers the node off: the cluster marks it down, hard-resets its
    /// device and returns the pods it lost (their runtimes stay in the
    /// slab for the caller to take).
    pub(super) fn crash(&mut self, cluster: &mut Cluster, now: SimTime) -> Result<Vec<Pod>, ClusterError> {
        cluster.crash_node(now, self.id, &mut self.gpu)
    }

    /// The node after a crash: the hard-reset device stays, the backend
    /// table and model store start afresh, and the slab is empty.
    pub(super) fn reboot(self, backend: FastBackend) -> Self {
        debug_assert!(self.pods().next().is_none(), "a crashed node keeps no pod");
        NodeRt::new(self.id, backend, self.gpu)
    }

    /// A clock fault: degrades the node's clock by `factor`, or restores
    /// full clock when `factor` is `None`.
    pub(super) fn reclock(&mut self, cluster: &mut Cluster, factor: Option<f64>) {
        let _ = match factor {
            Some(factor) => cluster.degrade_node(self.id, factor, &mut self.gpu),
            None => cluster.recover_node(self.id, &mut self.gpu),
        };
    }

    // ----- metrics ----------------------------------------------------

    /// Samples the device's metrics window at `now`. Deferred
    /// fast-forward boundaries land first: strictly before `now` for the
    /// periodic sample (same-instant finishes order after it, exactly as
    /// their per-kernel events would), and at `now` too for a report's
    /// closing sample (`inclusive`), since a per-kernel run would have
    /// delivered those finishes before the caller could report.
    pub(super) fn sample_metrics(&mut self, now: SimTime, inclusive: bool) {
        if inclusive {
            self.gpu.ff_sync_inclusive(now);
        } else {
            self.gpu.ff_sync(now);
        }
        self.gpu.metrics_mut().sample(now);
    }

    /// Device memory in use (bytes).
    pub(super) fn memory_used(&self) -> u64 {
        self.gpu.memory().used()
    }

    /// The node's report row; series means count only samples after
    /// `warmup` (all of them if none is).
    pub(super) fn report(&self, name: String, pods: usize, up: bool, warmup: SimTime) -> NodeReport {
        let m = self.gpu.metrics();
        let series_mean = |s: &TimeSeries| {
            let vals: Vec<f64> = s
                .points()
                .iter()
                .filter(|&&(t, _)| t > warmup)
                .map(|&(_, v)| v)
                .collect();
            if vals.is_empty() {
                s.mean()
            } else {
                vals.iter().sum::<f64>() / vals.len() as f64
            }
        };
        NodeReport {
            name,
            gpu: self.gpu.spec().name.clone(),
            utilization: series_mean(m.utilization_series()),
            sm_occupancy: series_mean(m.occupancy_series()),
            kernels: m.total_kernels(),
            pods,
            up,
            memory_used: self.memory_used(),
            utilization_series: m.utilization_series().clone(),
            occupancy_series: m.occupancy_series().clone(),
        }
    }

    // ----- checkpoint -------------------------------------------------

    /// Encodes the device; the cluster writes it inside its node table.
    pub(super) fn snap_device(&self, w: &mut SnapWriter) {
        self.gpu.snap(w);
    }

    /// Encodes the node table: every node's backend table, then every
    /// node's model store, each as one `NodeId`-keyed arena.
    pub(super) fn snap_table(nodes: &IdArena<NodeId, NodeRt>, w: &mut SnapWriter) {
        nodes.snap_with(w, |n, w| n.backend.snap(w));
        nodes.snap_with(w, |n, w| n.store.snap(w));
    }

    /// Decodes [`Self::snap_table`] output, joining each node with its
    /// device from `gpus` (in node order). A backend or store table whose
    /// keys differ from the devices' is an error.
    pub(super) fn unsnap_table(
        r: &mut SnapReader<'_>,
        gpus: Vec<(NodeId, GpuDevice)>,
    ) -> Result<IdArena<NodeId, NodeRt>, SnapError> {
        let mismatch = || SnapError::new("engine per-node services");
        let mut gpus = gpus.into_iter().peekable();
        let mut nodes = IdArena::unsnap_with(r, |id, r| {
            let backend = FastBackend::unsnap(r)?;
            let gpu = gpus.next_if(|&(g, _)| g == id).ok_or_else(mismatch)?.1;
            Ok(NodeRt::new(id, backend, gpu))
        })?;
        if gpus.next().is_some() {
            return Err(mismatch());
        }
        let mut stores: IdArena<NodeId, ModelStorageServer> = IdArena::unsnap(r)?;
        if stores.len() != nodes.len() {
            return Err(mismatch());
        }
        for (id, n) in nodes.iter_mut() {
            n.store = stores.remove(id).ok_or_else(mismatch)?;
        }
        Ok(nodes)
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
        self.pod_loc.get(pod).copied()
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
                self.teardown_pod(at);
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
            .map(NodeRt::fast_forwarded)
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
            if let Some(at) = n.at(slot).filter(|_| has_burst) {
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
        schedule_next(queue, now, self.cfg.window, Event::WindowReset(node));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::BackendConfig;
    use fastg_gpu::{ClientId, GpuSpec, MpsMode};

    fn node() -> NodeRt {
        NodeRt::new(
            NodeId(0),
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
        assert_eq!(n.at(0).map(|at| at.pod), Some(PodId(7)));
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

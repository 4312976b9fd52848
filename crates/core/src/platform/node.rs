//! The node-owned data plane.
//!
//! Each worker node's runtime is one [`NodeRt`]: the node's GPU device,
//! its FaST Backend, its model storage server and a node-local slab of
//! its pods' runtime. It is the only code that touches the device, the
//! backend or the store. A pod is addressed by a small *slot*, its index
//! in that slab, and the backend keeps the pod's quota row at the same
//! slot, so the hot paths index instead of search. Events keep naming
//! pods by [`PodId`]; the engine's `PodId → (node, slot)` map resolves one
//! in O(1) ([`PodAt`]). A node has this one record, which holds its health
//! too, and a pod the one in its node's slab: the node creates, deletes,
//! crashes and reclocks them itself.
//!
//! Three hot paths run here, each against one node:
//! - `HostDone` → token request → burst launch ([`Engine::step_pod`],
//!   [`NodeRt::launch`]);
//! - `BurstFastForward` → sync point → next phase
//!   ([`Engine::on_burst_ff`]);
//! - the end-of-instant dispatch pass ([`Engine::run_pass`]).
//!
//! While the driver's next delivery is one of a node's pods' steps, the
//! node takes them inline, through these same paths (the `ahead`
//! module): the steps they make are kept aside at their claimed ranks,
//! and a step that is certainly next is taken at once, a burst on an
//! idle device run whole ([`GpuDevice::run_alone`]). `run_ahead_tests`
//! below compare it with the queue-stepped run.
//!
//! Per-kernel stepping, fast-forward breaks and zombie drains, the paths
//! fast-forward falls back to, run here too.

use super::engine::{schedule_next, Engine, Event, HandlerCounts};
use super::error::PlatformError;
use super::pod::{ActiveReq, PodAt, PodRt};
use super::report::NodeReport;
use crate::manager::{FastBackend, Ready, RequestOutcome};
use crate::modelshare::{ModelStorageServer, DEFAULT_CTX_OVERHEAD};
use fastg_cluster::{ClusterError, FuncId, NodeId, NodeState, PodId, Request, ResourceSpec};
use fastg_des::snap::{Snap, SnapError, SnapReader};
use fastg_des::{sanitizer, snap_struct, CancelToken, EventQueue, SimTime, TimeSeries};
use fastg_gpu::{ClientId, GpuDevice, KernelDesc, KernelId};
use fastg_models::{InferenceRun, Stage, StageOp};

/// One node's record: its health, its GPU device, its FaST Backend, its
/// model store and its pods' records, in a slab addressed by slot. Slots
/// are reused lowest-first and vacant trailing slots are trimmed, so
/// storage stays proportional to the pods on the node.
#[derive(Clone)]
pub(super) struct NodeRt {
    id: NodeId,
    state: NodeState,
    gpu: GpuDevice,
    backend: FastBackend,
    store: ModelStorageServer,
    pods: Vec<Option<(PodId, PodRt)>>,
}

/// What launching a pod's pending burst did ([`NodeRt::launch`]).
pub(super) enum Launch {
    /// Nothing: the pod is being destroyed.
    Gone,
    /// The burst ran alone to this end, in this many launches.
    Alone(SimTime, u32),
    /// The burst was fast-forwarded, its macro-event scheduled.
    Fast,
    /// The burst (this stage) goes kernel by kernel.
    Kernels(usize),
}

// A node's record is its health, device, backend table and model store.
// Its id is its arena key, and its pods go with the engine's pod records.
snap_struct!(NodeRt { state, gpu, backend, store } skip { id, pods });

impl NodeRt {
    /// Node `id`, up, with an empty model store and no pods.
    pub(super) fn new(id: NodeId, backend: FastBackend, gpu: GpuDevice) -> Self {
        NodeRt {
            id,
            state: NodeState::Up,
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
    pub(super) fn at(&self, slot: usize) -> Option<PodAt> {
        let (pod, _) = self.pods.get(slot)?.as_ref()?;
        Some(PodAt { pod: *pod, node: self.id, slot })
    }

    /// The node's pods, in slot order.
    pub(super) fn pods(&self) -> impl Iterator<Item = &PodRt> {
        self.pods.iter().flatten().map(|(_, rt)| rt)
    }

    /// Pods on the node, draining and crashed ones included.
    pub(super) fn pod_count(&self) -> usize {
        self.pods().count()
    }

    /// Whether the node holds one pod: vacant trailing slots are trimmed,
    /// so its slab's length tells.
    pub(super) fn is_lone(&self) -> bool {
        self.pods.len() == 1
    }

    /// Whether the node crashed.
    pub(super) fn is_down(&self) -> bool {
        self.state == NodeState::Down
    }

    /// The node's device and model store, for tests of their accounting.
    #[cfg(test)]
    pub(super) fn device_and_store(&self) -> (&GpuDevice, &ModelStorageServer) {
        (&self.gpu, &self.store)
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

    /// Launches the burst of the pod at `slot`, its model's `stage` at
    /// `index`: opens it in the backend, then runs it whole on the idle
    /// device if it ends before `alone_before`
    /// ([`GpuDevice::run_alone`]), or fast-forwards it
    /// ([`GpuDevice::fast_forward_burst`]) and has `schedule` schedule its
    /// macro-event at its end. `cap` caches the pod's SM cap on the idle
    /// device.
    // Inlined into `step_pod`'s loop, as are `launched` and `ran_alone`:
    // a pod stepping inline runs every burst through them.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub(super) fn launch(
        &mut self,
        slot: usize,
        now: SimTime,
        (index, stage): (usize, &Stage),
        fastforward: bool,
        alone_before: Option<SimTime>,
        cap: &mut Option<Option<u32>>,
        schedule: impl FnOnce(SimTime) -> CancelToken,
    ) -> Launch {
        // Crash teardown raced the grant; the pod is being destroyed.
        if self.backend.begin_burst_at(slot).is_none() {
            return Launch::Gone;
        }
        let Some((pod, rt)) = self.pods.get_mut(slot).and_then(Option::as_mut) else {
            debug_assert!(false, "pod exists");
            return Launch::Gone;
        };
        let client = rt.client;
        let Some(active) = rt.active.as_mut() else {
            debug_assert!(false, "burst belongs to a request");
            return Launch::Gone;
        };
        active.waiting_token = false;
        active.pending_stage = None;
        // Fast-forward: an uncontended burst in the capped regime is
        // coalesced into one macro-event at its analytic end instead of
        // one KernelFinish per kernel, as the stage's one run. Any
        // contention change cancels the macro-event and reconstructs
        // per-kernel state (`ff_break_pod`).
        let burst = stage.burst().filter(|_| fastforward);
        if let Some((spec, count)) = burst {
            let gpu = &mut self.gpu;
            // Built at each call, each call's copy is its own.
            let desc = || KernelDesc { blocks: spec.blocks, work_per_block: spec.work_per_block, tag: pod.0 };
            // Nothing else can settle a burst on the idle device before
            // it ends: it runs whole, with no record in between.
            if let Some(before) = alone_before.filter(|_| gpu.is_idle()) {
                let cap = *cap.get_or_insert_with(|| gpu.burst_cap(client));
                if let Some(end) = cap.and_then(|cap| gpu.run_alone(now, before, client, cap, desc(), count)) {
                    active.outstanding = 0;
                    active.burst_gpu_time = end - now;
                    return Launch::Alone(end, count);
                }
            }
            active.outstanding = stage.kernels.len();
            active.burst_gpu_time = SimTime::ZERO;
            if let Some(end) = gpu.fast_forward_burst(now, client, desc(), count) {
                active.ff = Some(schedule(end));
                return Launch::Fast;
            }
        }
        active.outstanding = stage.kernels.len();
        active.burst_gpu_time = SimTime::ZERO;
        Launch::Kernels(index)
    }

    /// A dispatch pass's grants, traced (into `trace` when tracing): one
    /// canonical-order walk of the node's ready queue, granting tokens
    /// until the SM budget stops it. The granted slots, in grant order,
    /// are left in `granted`. A pass is skipped, and counted as skipped,
    /// when no waiter is grantable (every waiter is quota-blocked until
    /// its window resets), as it would grant nothing.
    pub(super) fn grant_pass(
        &mut self,
        now: SimTime,
        trace: Option<&mut Vec<String>>,
        counts: &mut HandlerCounts,
        ready: &mut Vec<Ready>,
        granted: &mut Vec<usize>,
    ) {
        if let Some(trace) = trace {
            trace.push(format!("{now:?} dispatch pass {:?}", self.id));
        }
        granted.clear();
        if !self.backend.has_grantable() {
            counts.dispatch_passes_skipped += 1;
            return;
        }
        counts.dispatch_passes += 1;
        self.backend.dispatch_slots(now, ready, granted);
    }

    /// The pod at `slot` asks for its token at `now`
    /// ([`FastBackend::request_at`]).
    pub(super) fn request_at(&mut self, now: SimTime, slot: usize) -> Option<RequestOutcome> {
        self.backend.request_at(now, slot)
    }

    // ----- pod lifecycle ----------------------------------------------

    /// Whether the device has memory for a pod reserving `pod_bytes`,
    /// plus, under model sharing, the store's reservation for the model
    /// (`shared`: its name and those bytes) unless the store holds it.
    /// O(1) unless the answer turns on whether the store holds the
    /// model: free bytes are a running total, and the store is looked up
    /// only when they cover the pod but not the pod and the store's share.
    pub(super) fn fits(&self, pod_bytes: u64, shared: Option<(&str, u64)>) -> bool {
        let free = self.gpu.memory().free_bytes();
        match shared {
            Some((model, bytes)) => {
                free >= pod_bytes.saturating_add(bytes)
                    || (free >= pod_bytes && self.store.model_bytes(model) != 0)
            }
            None => free >= pod_bytes,
        }
    }

    /// Creates a pod's record on this node: on an up node, `pod_bytes` of
    /// device memory reserved, its MPS client registered at `spec` and,
    /// under model sharing, a reference to its model's weights (`shared`:
    /// the model's name and weight bytes) counted by the node's store. A
    /// step that fails undoes the ones before it. The record joins the
    /// node through [`Self::admit`].
    pub(super) fn create_pod(
        &mut self,
        func: FuncId,
        spec: ResourceSpec,
        pod_bytes: u64,
        shared: Option<(&str, u64)>,
    ) -> Result<PodRt, PlatformError> {
        spec.validate();
        if self.is_down() {
            return Err(ClusterError::NodeDown(self.id).into());
        }
        let free = self.gpu.memory().free_bytes();
        if pod_bytes > 0 && self.gpu.memory_mut().reserve(pod_bytes).is_err() {
            return Err(ClusterError::OutOfMemory { requested: pod_bytes, free }.into());
        }
        let client = match self.gpu.register_client(spec.sm_partition) {
            Ok(client) => client,
            Err(e) => {
                let released = self.gpu.memory_mut().release(pod_bytes);
                debug_assert!(released.is_ok(), "the pod's bytes were reserved");
                return Err(ClusterError::Gpu(e.to_string()).into());
            }
        };
        let rt = PodRt {
            func,
            client,
            spec,
            memory: pod_bytes,
            draining: false,
            active: None,
            bound_rect: false,
            zombie: None,
        };
        if let Some((model, weights)) = shared {
            if let Err(e) = self.store.acquire(self.gpu.memory_mut(), model, weights) {
                self.release(&rt);
                return Err(e.into());
            }
        }
        Ok(rt)
    }

    /// Frees a pod's memory reservation and unregisters its MPS client. A
    /// pod with no work in flight releases both cleanly.
    fn release(&mut self, rt: &PodRt) {
        let freed = self.gpu.memory_mut().release(rt.memory);
        let unregistered = self.gpu.unregister_client(rt.client);
        debug_assert!(freed.is_ok() && unregistered.is_ok(), "a pod's reservation and client are live");
    }

    /// Puts a created pod's runtime in the slab, and its backend table
    /// row (the FaSTPod controller's spec sync) at the same slot.
    pub(super) fn admit(&mut self, pod: PodId, rt: PodRt, resources: ResourceSpec) -> PodAt {
        let slot = self.insert(pod, rt);
        self.backend.register_at(slot, pod, resources);
        sanitizer::enforce(|| self.check_memory());
        PodAt { pod, node: self.id, slot }
    }

    /// Re-applies a pod's resources: `spec`, as registered with MPS, is
    /// its partition from its next kernel launch, and `resources` its
    /// backend row's quotas within this window.
    pub(super) fn respec_pod(
        &mut self,
        slot: usize,
        pod: PodId,
        spec: ResourceSpec,
        resources: ResourceSpec,
    ) -> Result<(), PlatformError> {
        let (rt, gpu) = self.pod_and_gpu(slot).ok_or(PlatformError::Internal("runtime missing for pod"))?;
        gpu.set_partition(rt.client, spec.sm_partition)?;
        rt.spec = spec;
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

    /// Tears down the pod at `slot`: its record leaves the slab, its
    /// backend row goes (a crashed pod's went when it was killed), its
    /// reference to the model it shares (`shared`) is dropped from the
    /// store, and its memory and MPS client are freed. Returns its record.
    pub(super) fn delete_pod(&mut self, pod: PodId, slot: usize, shared: Option<&str>) -> Option<PodRt> {
        let rt = self.remove(slot)?;
        self.backend.deregister(pod);
        if let Some(model) = shared {
            let released = self.store.release(self.gpu.memory_mut(), model);
            debug_assert!(released.is_ok(), "a sharing pod holds a store reference");
        }
        self.release(&rt);
        sanitizer::enforce(|| self.check_memory());
        Some(rt)
    }

    // ----- node health ------------------------------------------------

    /// Powers the node off: it goes down for good, its device is
    /// hard-reset (resident kernels abort, MPS clients and all device
    /// memory go), `backend` and an empty model store replace its own,
    /// and its pods leave the slab. Returns them in ascending `PodId`
    /// order; a node already down has none.
    pub(super) fn crash(&mut self, now: SimTime, backend: FastBackend) -> Vec<(PodId, PodRt)> {
        if self.is_down() {
            return Vec::new();
        }
        self.state = NodeState::Down;
        self.gpu.hard_reset(now);
        self.backend = backend;
        self.store = ModelStorageServer::new(DEFAULT_CTX_OVERHEAD);
        let mut lost: Vec<(PodId, PodRt)> = self.pods.drain(..).flatten().collect();
        lost.sort_unstable_by_key(|&(pod, _)| pod);
        sanitizer::enforce(|| self.check_memory());
        lost
    }

    /// A clock fault: degrades the node's clock by `factor`, or restores
    /// full clock when `factor` is `None`. A node that is down stays so.
    pub(super) fn reclock(&mut self, factor: Option<f64>) {
        if self.is_down() {
            return;
        }
        let (state, scale) = match factor {
            Some(factor) => (NodeState::Degraded, factor),
            None => (NodeState::Up, 1.0),
        };
        self.state = state;
        self.gpu.set_clock_scale(scale);
    }

    // ----- metrics ----------------------------------------------------

    /// Samples the device's metrics window at `now`, inclusive of the
    /// finishes at exactly `now` for a report's closing sample (see
    /// `GpuDevice::sample`).
    pub(super) fn sample_metrics(&mut self, now: SimTime, inclusive: bool) {
        self.gpu.sample(now, inclusive);
    }

    /// Device memory in use (bytes).
    pub(super) fn memory_used(&self) -> u64 {
        self.gpu.memory().used()
    }

    /// The node's report row, under its name `gpu-worker-{id}`; series
    /// means count only samples after `warmup` (all of them if none is).
    pub(super) fn report(&self, warmup: SimTime) -> NodeReport {
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
            name: format!("gpu-worker-{}", self.id.0),
            gpu: self.gpu.spec().name.clone(),
            utilization: series_mean(m.utilization_series()),
            sm_occupancy: series_mean(m.occupancy_series()),
            kernels: m.total_kernels(),
            pods: self.pod_count(),
            up: !self.is_down(),
            memory_used: self.memory_used(),
            utilization_series: m.utilization_series().clone(),
            occupancy_series: m.occupancy_series().clone(),
        }
    }

    // ----- checkpoint -------------------------------------------------

    /// Decodes node `id`'s record, with no pods yet.
    pub(super) fn unsnap_at(id: NodeId, r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(NodeRt { id, ..NodeRt::unsnap(r)? })
    }

    // ----- invariant catalogue ----------------------------------------

    /// The node's rules of the invariant catalogue at `now` (`shared` names
    /// the model a function's pods share): besides the ones below and the
    /// store's refcounts, a down node holds no pod, the device started
    /// nothing after `now`, and each backend row sits at its pod's slot.
    pub(super) fn check_invariants<'f>(
        &self,
        now: SimTime,
        shared: impl Fn(FuncId) -> Option<&'f str>,
    ) -> Result<(), SnapError> {
        SnapError::ensure(!self.is_down() || self.pod_count() == 0, "pod on a down node")?;
        self.check_mps_clients()?;
        self.check_memory()?;
        // The store counts, per model, the pods sharing it: one name per
        // reference, in the store's order; a mismatch stops the walk, so a
        // forged count costs no more than the pods.
        let mut sharing: Vec<&str> = self.pods().filter_map(|rt| shared(rt.func)).collect();
        sharing.sort_unstable();
        let counted = self.store.refcounts().flat_map(|(model, refs)| {
            std::iter::repeat(model).take(usize::try_from(refs).unwrap_or(usize::MAX))
        });
        SnapError::ensure(sharing.into_iter().eq(counted), "model store refcount")?;
        let started = self.gpu.latest_start().map_or(true, |t| t <= now);
        SnapError::ensure(started, "device start after the snapshot clock")?;
        self.backend.check_rows(|slot| self.at(slot).map(|at| at.pod))
    }

    /// Each pod's MPS client is live on this node's device and its own,
    /// with no client left over.
    fn check_mps_clients(&self) -> Result<(), SnapError> {
        let mut clients: Vec<ClientId> = self.pods().map(|rt| rt.client).collect();
        clients.sort_unstable();
        clients.dedup();
        let mps = self.gpu.mps();
        let own = clients.len() == self.pod_count()
            && clients.len() == mps.client_count()
            && clients.iter().all(|&c| mps.is_registered(c));
        SnapError::ensure(own, "pod mps client")
    }

    /// The device's bytes in use are the pods' reservations plus the
    /// store's, once the store's own rules hold; the sanitizer runs it
    /// after every pod create, teardown and node crash too.
    fn check_memory(&self) -> Result<(), SnapError> {
        self.store.check_invariants()?;
        let accounted = self.pods().try_fold(self.store.total_bytes(), |sum, rt| sum.checked_add(rt.memory));
        SnapError::ensure(accounted == Some(self.memory_used()), "pod memory reservation")
    }

    /// The device's and the backend's own rules.
    pub(super) fn check_parts(&self) -> Result<(), SnapError> {
        self.gpu.check_invariants()?;
        self.backend.check_sm_running()
    }

    /// After decode: moves every backend row to the slot its pod holds in
    /// the slab.
    pub(super) fn place_backend_rows(&mut self) {
        let Self { backend, pods, .. } = self;
        backend.place_rows(|pod| {
            pods.iter()
                .position(|p| p.as_ref().is_some_and(|(id, _)| *id == pod))
        });
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
            self.run_ahead(now, at, queue);
        }
    }

    /// Gives the idle pod at `at` the request `req` and steps it, without
    /// running ahead: the caller may have more to do at `now`.
    pub(super) fn assign_request(
        &mut self,
        now: SimTime,
        at: PodAt,
        req: Request,
        queue: &mut EventQueue<Event>,
    ) {
        self.start_request(now, at, req);
        self.step_pod(now, at, queue);
    }

    /// Gives the idle pod at `at` the request `req`, its cursor at the
    /// first stage; the caller steps it.
    pub(super) fn start_request(&mut self, now: SimTime, at: PodAt, req: Request) {
        let Some(rt) = self.pod_rt_mut(at) else {
            debug_assert!(false, "assigning to a live pod");
            return;
        };
        debug_assert!(rt.active.is_none(), "pod {:?} already busy", at.pod);
        rt.active = Some(ActiveReq {
            req,
            started: now,
            run: InferenceRun::default(),
            pending_stage: None,
            outstanding: 0,
            burst_gpu_time: SimTime::ZERO,
            waiting_token: false,
            ff: None,
        });
    }

    /// Advances a pod's inference cursor to its next blocking operation
    /// (the cursor itself skips empty phases): the pod's next host phase
    /// is scheduled, its burst's token is requested and a granted burst
    /// launched, or the pod waits for its node's pass; a completed request
    /// takes the next one from the same instant. A data-plane handler that
    /// steps the pod as its last action calls [`Self::run_ahead`] instead.
    pub(super) fn step_pod(&mut self, now: SimTime, at: PodAt, queue: &mut EventQueue<Event>) {
        self.step(now, at, None, queue);
    }

    /// Steps the pod at `at` from `now` ([`Self::step_pod`]). `granted`
    /// is `Some` when its node's pass granted the burst it waits with,
    /// which then launches first: `Some(true)` if it is the pass's last
    /// grant. Inside the node's stretch, a step that is certainly the
    /// next delivery is taken at once, and the pod steps on from it (see
    /// the `ahead` module).
    fn step(&mut self, mut now: SimTime, at: PodAt, mut granted: Option<bool>, queue: &mut EventQueue<Event>) {
        // The SM cap the pod's bursts run alone at, read at the first.
        let mut cap = None;
        loop {
            let Engine { cfg, nodes, funcs, stretch, dispatch_pending, .. } = self;
            let Some(node) = nodes.get_mut(at.node) else {
                debug_assert!(false, "runtime per node");
                return;
            };
            let Some((active, profile)) = node.get_mut(at.slot).and_then(|rt| rt.request_and_profile(funcs)) else {
                debug_assert!(granted.is_some(), "stepping requires a live pod with a request");
                return;
            };
            let grant = granted.take();
            let stage = match grant {
                Some(_) => match active.pending_stage.filter(|_| active.waiting_token) {
                    Some(stage) => stage,
                    None => return,
                },
                None => match active.run.advance_indexed(profile) {
                    StageOp::Host(d) => {
                        let done = now + d;
                        if !(dispatch_pending.is_empty() && stretch.takes_at_once(at, done, queue)) {
                            stretch.push(at, done, false, queue);
                            return;
                        }
                        self.note(done, &Event::HostDone(at.pod));
                        now = done;
                        continue;
                    }
                    StageOp::Done => {
                        if !self.complete_request(now, at, queue) {
                            return;
                        }
                        continue;
                    }
                    StageOp::Burst(stage) => stage,
                },
            };
            if grant.is_none() {
                // A `None` outcome: the pod's backend row is gone (crash
                // teardown raced this burst); the pod itself is being
                // destroyed, so do nothing.
                let Some(outcome) = node.request_at(now, at.slot) else {
                    return;
                };
                if !matches!(outcome, RequestOutcome::Granted(_)) {
                    if let Some(active) = node.get_mut(at.slot).and_then(|rt| rt.active.as_mut()) {
                        active.pending_stage = Some(stage);
                        active.waiting_token = true;
                    }
                    // The pod waits now (only a token policy queues it),
                    // and its node owes the pass.
                    self.owe_pass(at.node, queue);
                    return;
                }
            }
            // Inside the node's stretch, a burst nothing else can settle
            // before it ends runs alone, and its macro-event is delivered
            // at once: its sync point follows, and the pod steps on.
            // Of the bursts a pass grants, only the last may run alone:
            // the others launch at its instant too.
            let before = stretch.alone_before(at.node, dispatch_pending.is_empty()).filter(|_| grant != Some(false));
            let schedule = |end| stretch.push(at, end, true, queue);
            let stage = (stage, &profile.stages[stage]);
            let launch = node.launch(at.slot, now, stage, cfg.fastforward, before, &mut cap, schedule);
            let Some(end) = self.launched(now, at, launch, queue) else {
                return;
            };
            self.sync_burst(end, at, end - now, queue);
            now = end;
        }
    }

    /// Follows up the launch of the pod at `at`'s burst at `now`: counts a
    /// fast-forwarded one, delivers the macro-event of one run alone and
    /// returns its end, or launches it kernel by kernel.
    #[inline(always)]
    fn launched(&mut self, now: SimTime, at: PodAt, launch: Launch, queue: &mut EventQueue<Event>) -> Option<SimTime> {
        match launch {
            Launch::Gone => {}
            Launch::Alone(end, count) => {
                self.ran_alone(end, at, count, queue);
                return Some(end);
            }
            Launch::Fast => self.ff_bursts += 1,
            Launch::Kernels(stage) => {
                // The per-kernel fallback is the one place a client
                // activates while timelines may be live: if it pushes the
                // active SM caps past the device, the node's timelines fall
                // back first.
                let node = self.nodes.get(at.node);
                let client = node.and_then(|n| n.get(at.slot)).map(|rt| rt.client);
                let breaks = node.zip(client).is_some_and(|(n, c)| n.gpu.has_ff() && !n.gpu.ff_admits(c));
                self.close_stretch(queue);
                if breaks {
                    self.ff_break_node(now, at.node, queue);
                }
                self.launch_kernels(now, at, stage, queue);
            }
        }
        None
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
        let Engine { nodes, funcs, burst_scratch, .. } = self;
        let Some((rt, gpu)) = nodes.get_mut(at.node).and_then(|n| n.pod_and_gpu(at.slot)) else {
            debug_assert!(false, "pod exists");
            return;
        };
        let Some(stage) = rt
            .request_and_profile(funcs)
            .and_then(|(_, profile)| profile.stages.get(stage_index))
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
        let Some(n) = self.nodes.get_mut(node) else {
            debug_assert!(false, "runtime per node");
            return;
        };
        // A finish scheduled before the node crashed: the kernel died with
        // the hardware and was already accounted as aborted.
        if n.is_down() {
            return;
        }
        let gpu = &mut n.gpu;
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
            self.sync_burst(now, at, gpu_time, queue);
            self.run_ahead(now, at, queue);
        }
    }

    /// Synchronization point after a burst's last kernel: report usage to
    /// the backend (maybe losing the lease, whose capacity the next
    /// dispatch pass hands on). The caller steps the pod on.
    pub(super) fn sync_burst(
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
    }

    /// Delivers a burst's coalesced macro-event, the analytic end of a
    /// fast-forwarded burst: drops its timeline, accounts its kernels,
    /// runs its sync point and steps the pod on. Every invalidation path
    /// cancels the token first, so a delivered macro-event always finds
    /// its timeline.
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
        self.burst_ended(now, at, queue);
    }

    /// The fast-forwarded burst of the pod at `at` reached its end `now`:
    /// its timeline is dropped and its kernels accounted, its sync point
    /// runs and the pod steps on.
    pub(super) fn burst_ended(&mut self, now: SimTime, at: PodAt, queue: &mut EventQueue<Event>) {
        let Engine { nodes, ff_coalesced_kernels, .. } = self;
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
        self.sync_burst(now, at, gpu_time, queue);
        self.run_ahead(now, at, queue);
    }

    /// Invalidates a pod's fast-forwarded burst (if any): cancels its
    /// macro-event, has the device reconstruct exact per-kernel state, and
    /// resumes normal stepping from the materialized mid-flight kernel.
    pub(super) fn ff_break_pod(&mut self, now: SimTime, at: PodAt, queue: &mut EventQueue<Event>) {
        debug_assert!(self.stretch.is_closed(), "a break inside a stretch: its token may be kept aside");
        let Engine { nodes, ff_coalesced_kernels, .. } = self;
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
    pub(super) fn ff_break_node(&mut self, now: SimTime, node: NodeId, queue: &mut EventQueue<Event>) {
        let pods = self.nodes.get(node).map(NodeRt::fast_forwarded).unwrap_or_default();
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
    /// `step_pod` owes its node the pass right after), and it runs
    /// only if some waiter is grantable by then (see
    /// [`Engine::run_pass`]).
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

    /// Runs a node's owed dispatch pass: its grants
    /// ([`NodeRt::grant_pass`]), then each granted pod's pending burst is
    /// launched, in grant order ([`Self::step`]). This is the only place
    /// a pod waiting for a token starts.
    pub(super) fn run_pass(&mut self, now: SimTime, node: NodeId, queue: &mut EventQueue<Event>) {
        let Engine { cfg, nodes, trace, counts, ready_scratch, granted_scratch, .. } = self;
        let Some(n) = nodes.get_mut(node) else {
            return;
        };
        n.grant_pass(now, cfg.trace_events.then_some(trace), counts, ready_scratch, granted_scratch);
        let granted = std::mem::take(&mut self.granted_scratch);
        for (i, &slot) in granted.iter().enumerate() {
            if let Some(at) = self.nodes.get(node).and_then(|n| n.at(slot)) {
                self.step(now, at, Some(i + 1 == granted.len()), queue);
            }
        }
        self.granted_scratch = granted;
    }

    pub(super) fn on_window_reset(&mut self, now: SimTime, node: NodeId, queue: &mut EventQueue<Event>) {
        match self.nodes.get_mut(node) {
            // Quota windows die with the node (and stop rescheduling).
            Some(n) if n.is_down() => return,
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
    use fastg_des::snap::SnapWriter;
    use fastg_gpu::{GpuSpec, MpsMode};

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
            client: ClientId(0),
            spec: ResourceSpec::new(24.0, 0.5, 0.5, 0),
            memory: 0,
            draining: false,
            active: None,
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
    /// hold breaks the "backend row slot" rule.
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
        n.place_backend_rows();
        assert_eq!(n.backend.check_rows(|slot| n.at(slot).map(|at| at.pod)), Ok(()));
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
        stray.place_backend_rows();
        assert!(
            stray.backend.check_rows(|slot| stray.at(slot).map(|at| at.pod)).is_err(),
            "pod 3 is not on the node"
        );
    }
}

/// Snapshot decode cross-checks each pod's record against its node's
/// device and the gateway. Each forged record below would otherwise
/// decode, and then panic the pod's drain or leave its MPS client and
/// reservation behind when a node crashes.
#[cfg(test)]
mod decode_tests {
    use super::NodeRt;
    use crate::platform::engine::Engine;
    use crate::platform::pod::ActiveReq;
    use crate::platform::{FunctionConfig, Platform, PlatformConfig, Snapshot};
    use crate::profiler::ProfileDb;
    use fastg_cluster::{FuncId, NodeState, PodId, Request, RequestId, ResourceSpec};
    use fastg_des::{SimTime, SnapError};
    use fastg_models::{zoo, InferenceRun, StageOp};
    use fastg_workload::ArrivalProcess;

    /// Two GPUs: "busy" runs three 40 % pods under a backlog, with queue
    /// timeouts on and a scaler recording arrivals, and "idle" one 10 %
    /// pod with no load.
    fn catalogue_platform() -> (Platform, FuncId, FuncId) {
        let mut p = Platform::new(PlatformConfig::default().nodes(2).seed(17).request_timeout_factor(10.0));
        let fc = |name: &str, replicas, sm| FunctionConfig::new(name, "resnet50").replicas(replicas).resources(sm, 1.0, 1.0);
        let busy = p.deploy(fc("busy", 3, 40.0).slo_ms(200)).unwrap();
        let idle = p.deploy(fc("idle", 1, 10.0)).unwrap();
        p.enable_autoscaler(ProfileDb::new());
        p.set_load(busy, ArrivalProcess::constant(300.0));
        p.run_for(SimTime::from_millis(503));
        (p, busy, idle)
    }

    /// A request in flight on some pod.
    fn in_flight(w: &mut Engine) -> &mut ActiveReq {
        let at = *w.pod_loc.values().find(|&&at| w.pod_rt(at).is_some_and(|rt| rt.active.is_some())).expect("busy");
        w.pod_rt_mut(at).and_then(|rt| rt.active.as_mut()).expect("in flight")
    }

    /// A node holding two pods or more.
    fn crowded(w: &mut Engine) -> &mut NodeRt {
        w.nodes.values_mut().find(|n| n.pod_count() >= 2).expect("placement")
    }

    /// The rules of the invariant catalogue that span the engine's parts,
    /// and the backend's own: one forged platform per rule, refused by
    /// decode and by a direct call of the whole catalogue, each under the
    /// rule's name. A row may set the clock both see.
    #[test]
    fn catalogue_rules_refuse_forged_platforms_at_decode_and_live() {
        let (p, busy, idle) = catalogue_platform();
        let now = p.now();
        let us = SimTime::from_micros;
        let stages = zoo::by_name("resnet50").expect("a zoo model").stages.len();
        let past_end = {
            let rnnt = zoo::by_name("rnnt").expect("a zoo model");
            let mut run = InferenceRun::default();
            while run.advance_indexed(&rnnt) != StageOp::Done {}
            run
        };
        let fake = |id, func| Request { id: RequestId(id), func, arrived: now, deadline: SimTime::MAX };
        type Forge<'a> = Box<dyn Fn(&mut Engine) + 'a>;
        let rows: Vec<(&str, SimTime, Forge)> = vec![
            ("function warm-up counters", now, Box::new(|w| w.cfg.warmup = SimTime::MAX)),
            ("function arrival window", now, Box::new(|w| w.funcs[busy].arrival_window.push_back(now + us(1)))),
            ("queue timer before the snapshot clock", now, Box::new(|w| w.funcs[busy].queue_timer = Some(now - us(1)))),
            ("queue timer without timeouts", now, Box::new(|w| w.cfg.request_timeout_factor = None)),
            ("queue timer missing or after the head's timeout", now, Box::new(|w| w.funcs[busy].queue_timer = None)),
            ("inference cursor stage", now, Box::new(|w| in_flight(w).run = past_end)),
            ("active request pending stage", now, Box::new(|w| in_flight(w).pending_stage = Some(stages))),
            ("pod id space", now, Box::new(|w| w.next_pod = 0)),
            ("pod on a down node", now, Box::new(|w| crowded(w).state = NodeState::Down)),
            ("pod mps client", now, Box::new(|w| {
                let n = crowded(w);
                let c = n.pods().next().expect("pod").client;
                n.pods.iter_mut().flatten().for_each(|(_, rt)| rt.client = c);
            })),
            ("pod memory reservation", now, Box::new(|w| crowded(w).pods.iter_mut().flatten().for_each(|(_, rt)| rt.memory += 1))),
            ("model store refcount", now, Box::new(|w| {
                let n = crowded(w);
                n.store.acquire(n.gpu.memory_mut(), "resnet50", 1).expect("stored already");
            })),
            ("model store zero-ref model", now, Box::new(|w| crowded(w).store.forge_model("rnnt", 0, 0))),
            ("model store bytes", now, Box::new(|w| crowded(w).store.forge_model("rnnt", u64::MAX, 1))),
            // An earlier clock, and no recorded arrival to be after it.
            ("device start after the snapshot clock", SimTime::ZERO, Box::new(|w| {
                w.autoscale_db = None;
                w.funcs.values_mut().for_each(|f| f.arrival_window.clear());
            })),
            ("backend row slot", now, Box::new(|w| {
                let n = crowded(w);
                n.backend.register_at(n.pods.len() + 1, PodId(1 << 40), ResourceSpec::new(10.0, 1.0, 1.0, 0));
            })),
            ("backend sm running", now, Box::new(|w| {
                let n = crowded(w);
                n.backend.forge_sm_running(n.backend.sm_running() + 1.0);
            })),
            ("gateway members", now, Box::new(|w| crowded(w).pods.iter_mut().flatten().for_each(|(_, rt)| rt.draining = true))),
            ("function arrival window without a scaler", now, Box::new(|w| w.autoscale_db = None)),
            ("engine dispatch passes", now, Box::new(|w| {
                let nodes: Vec<_> = w.nodes.keys().collect();
                w.dispatch_pending = vec![(2, nodes[0]), (1, nodes[1])];
            })),
            ("overload conservation", now, Box::new(|w| w.gateway.drop_request(&fake(1 << 40, busy)))),
            // Crash retries whose requests are neither queued nor in flight.
            ("gateway retry table", now, Box::new(|w| {
                let live = w.funcs.keys().map(|f| w.gateway.queue_len(f)).sum::<usize>() + w.all_pods().count();
                for id in 0..=live as u64 {
                    let pod = w.gateway.requeue(fake((1 << 40) + id, idle)).expect("an idle pod");
                    assert_eq!(w.gateway.on_pod_idle(idle, pod), None);
                }
            })),
        ];
        assert_eq!(p.sim.world().check_all(now), Ok(()));
        assert!(Platform::from_snapshot(&p.checkpoint()).is_ok());
        for (rule, at, forge) in rows {
            let mut bad = p.clone();
            forge(bad.sim.world_mut());
            assert_eq!(bad.sim.world().check_all(at), Err(SnapError::new(rule)), "live {rule}");
            // The payload opens with the clock, after the 8-byte header.
            let mut bytes = bad.checkpoint().as_bytes().to_vec();
            bytes[8..16].copy_from_slice(&at.as_micros().to_le_bytes());
            let decoded = Platform::from_snapshot(&Snapshot::from_bytes(bytes).unwrap());
            assert_eq!(decoded.map(|_| ()).map_err(|e| e.what), Err(rule), "decode {rule}");
        }
    }

    /// Two GPUs serving three half-GPU pods of one function: two pods on
    /// one node and one on the other.
    fn platform() -> Platform {
        let mut p = Platform::new(PlatformConfig::default().nodes(2).seed(13));
        let f = p
            .deploy(FunctionConfig::new("f", "resnet50").replicas(3).resources(50.0, 1.0, 1.0))
            .unwrap();
        p.set_load(f, ArrivalProcess::constant(60.0));
        p.run_for(SimTime::from_millis(100));
        p
    }

    /// The node holding `n` pods.
    fn holding(w: &mut Engine, n: usize) -> &mut NodeRt {
        w.nodes.values_mut().find(|node| node.pod_count() == n).expect("placement")
    }

    /// The error decoding `platform()`'s checkpoint gives once `forge`
    /// has edited the records it encodes.
    fn refused(forge: impl FnOnce(&mut Engine)) -> &'static str {
        let mut p = platform();
        forge(p.sim.world_mut());
        match Platform::from_snapshot(&p.checkpoint()) {
            Ok(_) => panic!("forged records decoded"),
            Err(e) => e.what,
        }
    }

    #[test]
    fn forged_pod_records_are_refused() {
        assert!(Platform::from_snapshot(&platform().checkpoint()).is_ok());
        // Reservations that do not sum to the device's bytes in use.
        let reservation = refused(|w| {
            holding(w, 1).pods.iter_mut().flatten().for_each(|(_, rt)| rt.memory += 1);
        });
        assert_eq!(reservation, "pod memory reservation");
        // A store counting one more pod of the model than share it.
        let refcount = refused(|w| {
            let crowded = holding(w, 2);
            assert!(crowded.store.refcounts().eq([("resnet50", 2)]));
            crowded.store.acquire(crowded.gpu.memory_mut(), "resnet50", 1).expect("stored already");
        });
        assert_eq!(refcount, "model store refcount");
        // A client registered on the other node and not on the pod's.
        let client = refused(|w| {
            let foreign = holding(w, 2).gpu.mps().client_ids();
            let lone = holding(w, 1);
            let c = foreign.into_iter().find(|&c| !lone.gpu.mps().is_registered(c)).expect("foreign");
            lone.pods.iter_mut().flatten().for_each(|(_, rt)| rt.client = c);
        });
        assert_eq!(client, "pod mps client");
        // Two pods holding one client.
        let shared = refused(|w| {
            let crowded = holding(w, 2);
            let c = crowded.pods().next().expect("pod").client;
            crowded.pods.iter_mut().flatten().for_each(|(_, rt)| rt.client = c);
        });
        assert_eq!(shared, "pod mps client");
        // A pod record naming the other node: it is encoded from there.
        let moved = refused(|w| {
            let (pod, rt) = holding(w, 1).pods.iter().flatten().next().cloned().expect("pod");
            let resources = w.funcs.values().next().expect("func").resources;
            // Into the slab without `admit`, whose sanitizer check would
            // catch the forged record's memory before the decode does.
            let crowded = holding(w, 2);
            let slot = crowded.insert(pod, rt);
            crowded.backend.register_at(slot, pod, resources);
            let at = crowded.at(slot).expect("inserted");
            w.pod_loc.insert(pod, at);
        });
        assert_eq!(moved, "pod mps client");
        // A pod on a node that is down.
        let down = refused(|w| holding(w, 1).state = NodeState::Down);
        assert_eq!(down, "pod on a down node");
        // Gateway members that are not the serving pods: a member drains,
        // or a serving pod is not a member.
        let draining = refused(|w| {
            let lone = holding(w, 1);
            lone.pods.iter_mut().flatten().for_each(|(_, rt)| rt.draining = true);
        });
        assert_eq!(draining, "gateway members");
        let unrouted = refused(|w| {
            let (pod, rt) = holding(w, 1).pods.iter().flatten().next().cloned().expect("pod");
            w.gateway.deregister_pod(rt.func, pod);
        });
        assert_eq!(unrouted, "gateway members");
    }
}

/// Run-ahead parity and engagement.
///
/// A solo pod's inline steps (see the `ahead` module) must leave exactly
/// what the queue-stepped run leaves: the checkpoint bytes, the event
/// count, the per-kind handler counts, the event trace and every report
/// digest, wherever a run stops. Run-ahead rides on fast-forward, so the
/// lone-pod workloads also check fast-forward against per-kernel
/// stepping. And run-ahead must engage where it was built for (the
/// profiler's lone pods) and nowhere else.
#[cfg(test)]
mod run_ahead_tests {
    use crate::platform::{FunctionConfig, HandlerCounts, Platform, PlatformConfig, TieBreak};
    use crate::manager::SharingPolicy;
    use crate::profiler::{ConfigServer, Experiment, TrialResult};
    use fastg_des::SimTime;
    use fastg_workload::ArrivalProcess;
    use proptest::prelude::*;

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    /// Everything a run leaves that run-ahead must not change. The inline
    /// and stretch counters are the ones that differ, so they are left
    /// out.
    fn assert_same_state(on: &Platform, off: &Platform, at: &str) {
        assert_eq!(on.now(), off.now(), "{at}: clock");
        assert_eq!(on.events_handled(), off.events_handled(), "{at}: events handled");
        let counts = HandlerCounts { inline_bursts: 0, stretches: 0, empty_stretches: 0, ..on.handler_counts() };
        assert_eq!(counts, off.handler_counts(), "{at}: handler counts");
        let (a, b) = (on.event_trace(), off.event_trace());
        if let Some(i) = (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i)) {
            panic!("{at}: traces diverge at line {i}: {:?} vs {:?}", a.get(i), b.get(i));
        }
        assert!(
            on.checkpoint().as_bytes() == off.checkpoint().as_bytes(),
            "{at}: checkpoint bytes differ"
        );
    }

    /// Drives `on` and `off` (run-ahead switched off) through the same
    /// `slices` of `run_for`, comparing reports and state after each, and
    /// returns the bursts `on` ran inline.
    fn drive(mut on: Platform, mut off: Platform, slices: &[SimTime], what: &str) -> u64 {
        off.set_run_ahead(false);
        for (i, &d) in slices.iter().enumerate() {
            let at = format!("{what}, slice {i}");
            assert_eq!(on.run_for(d).digest(), off.run_for(d).digest(), "{at}: report digest");
            assert_same_state(&on, &off, &at);
        }
        assert_eq!(off.handler_counts().inline_bursts, 0, "{what}: switched off");
        on.handler_counts().inline_bursts
    }

    /// A profiler-style trial platform: one saturating pod alone on one GPU.
    fn lone(model: &str, policy: SharingPolicy, sm: f64, q: f64, cfg: PlatformConfig) -> Platform {
        let mut p = Platform::new(cfg.nodes(1).policy(policy));
        let f = FunctionConfig::new("lone", model).resources(sm, q, q);
        p.deploy(f.saturating()).unwrap();
        p
    }

    /// `pods` saturating replicas of `model` on one GPU, at `sm` % SMs
    /// and quota `q` each.
    fn shared(model: &str, policy: SharingPolicy, pods: usize, sm: f64, q: f64, cfg: PlatformConfig) -> Platform {
        let mut p = Platform::new(cfg.nodes(1).policy(policy));
        let f = FunctionConfig::new("shared", model).replicas(pods).resources(sm, q, q);
        p.deploy(f.saturating()).unwrap();
        p
    }

    /// A traced configuration with fast-forward on, whatever the
    /// environment says: the event trace is compared too.
    fn traced(seed: u64) -> PlatformConfig {
        PlatformConfig::default().seed(seed).fastforward(true).trace_events(true)
    }

    /// Slices whose deadlines fall mid-run-ahead: off every period of the
    /// model's stages, the quota window and the metrics sample.
    fn odd_slices() -> Vec<SimTime> {
        [333, 1_700, 41_000, 250_000, 777_777, 1_000_003]
            .into_iter()
            .map(SimTime::from_micros)
            .collect()
    }

    #[test]
    fn a_deadline_mid_run_ahead_leaves_the_stepped_state() {
        for policy in [SharingPolicy::FaST, SharingPolicy::Racing, SharingPolicy::SingleToken] {
            for model in ["rnnt", "gnmt", "resnet50"] {
                let build = || lone(model, policy, 12.0, 1.0, traced(3));
                let mut on = build();
                let what = format!("{model} {policy:?}");
                let inline = drive(on.clone(), build(), &odd_slices(), &what);
                assert!(inline > 50, "{model} {policy:?}: {inline} bursts inline");
                // Inline deliveries count under their kinds like the rest.
                on.run_for(SimTime::from_secs(1));
                assert_eq!(on.handler_counts().events(), on.events_handled());
            }
        }
    }

    #[test]
    fn quota_blocked_pod_runs_ahead_between_window_resets() {
        let build = || lone("rnnt", SharingPolicy::FaST, 24.0, 0.2, traced(4));
        let p = build();
        let inline = drive(p, build(), &odd_slices(), "quota 0.2");
        assert!(inline > 50, "{inline} bursts inline");
        // The blocked waits did happen: every window's owed pass is skipped.
        let mut p = build();
        p.run_for(SimTime::from_secs(1));
        assert!(p.handler_counts().dispatch_passes_skipped >= 9, "{:?}", p.handler_counts());
    }

    #[test]
    fn leases_expiring_mid_request_are_regranted_inline() {
        // A 2 ms lease expires inside every RNNT request (≈ 190 ms at 12 %),
        // and SingleToken's 100 ms lease inside some.
        let leases = [(SharingPolicy::FaST, Some(ms(2))), (SharingPolicy::SingleToken, None)];
        for (policy, lease) in leases {
            let cfg = traced(5);
            let cfg = match lease {
                Some(lease) => cfg.token_lease(lease),
                None => cfg,
            };
            let build = || lone("rnnt", policy, 12.0, 1.0, cfg.clone());
            let inline = drive(build(), build(), &odd_slices(), &format!("{policy:?} lease"));
            assert!(inline > 50, "{policy:?}: {inline} bursts inline");
            let mut p = build();
            p.run_for(SimTime::from_secs(1));
            assert!(p.handler_counts().dispatch_passes > 5, "{policy:?}: {:?}", p.handler_counts());
        }
    }

    #[test]
    fn a_restore_from_a_mid_trial_checkpoint_runs_ahead_alike() {
        let mut straight = lone("gnmt", SharingPolicy::FaST, 80.0, 1.0, traced(6));
        straight.run_for(SimTime::from_micros(1_234_567));
        let snap = straight.checkpoint();
        let tail = straight.run_for(SimTime::from_secs(1)).digest();
        let restore = || Platform::from_snapshot(&snap).unwrap();
        let inline = drive(restore(), restore(), &odd_slices(), "restored");
        assert!(inline > 50, "{inline} bursts inline");
        assert_eq!(restore().run_for(SimTime::from_secs(1)).digest(), tail);
    }

    /// A token lease to the end of the clock, which config and snapshot
    /// decode accept, lasts to its end from every grant, and so the run
    /// goes as under a lease longer than the run: alone (its passes run
    /// ahead inline) and beside a second replica.
    #[test]
    fn a_lease_to_the_end_of_the_clock_outlasts_the_run() {
        for policy in [SharingPolicy::FaST, SharingPolicy::SingleToken] {
            for replicas in [1, 2] {
                let run = |lease: SimTime| {
                    let mut p = Platform::new(traced(10).nodes(1).policy(policy).token_lease(lease));
                    let f = FunctionConfig::new("f", "rnnt").replicas(replicas).resources(24.0, 0.5, 0.5);
                    let f = p.deploy(f).unwrap();
                    p.set_load(f, ArrivalProcess::poisson(20.0, 10));
                    let digest = p.run_for(ms(300)).digest();
                    (digest, p.handler_counts(), p.event_trace().to_vec())
                };
                let what = format!("{policy:?} x{replicas}");
                let (end, long) = (run(SimTime::MAX), run(ms(10_000)));
                assert_eq!(end.0, long.0, "{what}: report digest");
                assert_eq!(end.1, long.1, "{what}: handler counts");
                assert!(end.2 == long.2, "{what}: traces differ");
            }
        }
    }

    /// `{time}` of every `HostDone` and `BurstFastForward` line in a trace.
    fn step_times(trace: &[String]) -> Vec<SimTime> {
        trace
            .iter()
            .filter(|l| l.contains("HostDone") || l.contains("BurstFastForward"))
            .filter_map(|l| l.split_once("us ")?.0.parse().ok())
            .map(SimTime::from_micros)
            .collect()
    }

    /// An arrival at the very instant the pod's next step is due: the step
    /// is not strictly before the queue head, so it goes through the queue,
    /// and the tie-break policy orders the two exactly as with run-ahead off.
    #[test]
    fn an_arrival_at_the_instant_of_the_next_step_is_ordered_by_the_tie_break() {
        // ResNet at 100 % serves a request in 14 ms; a backlog of 30 keeps
        // the pod busy past 400 ms, so added arrivals only queue and never
        // move a step.
        let backlog: Vec<SimTime> = (0..30).map(|i| SimTime::from_micros(1_000 + i)).collect();
        let build = |tb: TieBreak, arrivals: &[SimTime]| {
            let mut p = Platform::new(
                traced(7).nodes(1).tiebreak(tb),
            );
            let f = p
                .deploy(FunctionConfig::new("busy", "resnet50").resources(100.0, 1.0, 1.0))
                .unwrap();
            p.set_load(f, ArrivalProcess::trace(arrivals.to_vec()));
            p
        };
        let mut reference = build(TieBreak::Fifo, &backlog);
        reference.set_run_ahead(false);
        reference.run_for(ms(400));
        let steps: Vec<SimTime> = step_times(reference.event_trace())
            .into_iter()
            .filter(|&t| t > ms(20) && t < ms(400))
            .step_by(5)
            .collect();
        assert!(steps.len() > 10, "{} steps", steps.len());
        let mut arrivals = backlog.clone();
        arrivals.extend(&steps);
        arrivals.sort_unstable();
        arrivals.dedup();
        let shuffles = [TieBreak::SeededShuffle(1), TieBreak::SeededShuffle(2)];
        for tb in [TieBreak::Fifo, TieBreak::Lifo].into_iter().chain(shuffles) {
            let slices = [ms(120), ms(95), ms(185)];
            let on = build(tb, &arrivals);
            let inline = drive(on, build(tb, &arrivals), &slices, &format!("{tb:?}"));
            assert!(inline > 5, "{tb:?}: {inline} bursts inline");
            // The coincidences are there: an arrival shares its instant with
            // a step of the pod.
            let mut p = build(tb, &arrivals);
            p.run_for(ms(400));
            let trace = p.event_trace();
            let step = step_times(trace);
            let shared = trace
                .iter()
                .filter(|l| l.contains("Arrival"))
                .filter_map(|l| l.split_once("us ")?.0.parse().ok())
                .filter(|&t| step.contains(&SimTime::from_micros(t)))
                .count();
            assert!(shared > 5, "{tb:?}: {shared} shared instants");
        }
    }

    /// Lockstep pods on one node: deadlines fall between their steps, at
    /// instants where several of them are kept aside, and a checkpoint is
    /// restored at a slice boundary.
    #[test]
    fn a_deadline_and_a_restore_mid_node_stretch_leave_the_stepped_state() {
        for policy in [SharingPolicy::FaST, SharingPolicy::Racing, SharingPolicy::SingleToken] {
            for pods in [2, 5] {
                let cfg = traced(11).oversubscribe(true);
                let build = || shared("gnmt", policy, pods, 12.0, 1.0, cfg.clone());
                let what = format!("{policy:?} x{pods}");
                let inline = drive(build(), build(), &odd_slices(), &what);
                assert!(inline > 50, "{what}: {inline} bursts inline");
                let (mut on, mut off) = (build(), build());
                off.set_run_ahead(false);
                on.run_for(SimTime::from_micros(777_777));
                off.run_for(SimTime::from_micros(777_777));
                let restore = |p: &Platform| Platform::from_snapshot(&p.checkpoint()).unwrap();
                let inline = drive(restore(&on), restore(&off), &odd_slices(), &format!("{what} restored"));
                assert!(inline > 50, "{what} restored: {inline} bursts inline");
            }
        }
    }

    /// Two pods whose leases expire together queue at the same instant;
    /// the pass they owe grants both, inside the node's stretch.
    #[test]
    fn two_pods_queueing_at_one_instant_share_the_inline_pass() {
        let cfg = traced(12).oversubscribe(true).token_lease(ms(3));
        let build = || shared("rnnt", SharingPolicy::FaST, 2, 24.0, 1.0, cfg.clone());
        let inline = drive(build(), build(), &odd_slices(), "FaST");
        assert!(inline > 50, "{inline} bursts inline");
        let mut p = build();
        p.run_for(ms(500));
        // Both pods wait at once: a pass follows two `HostDone`s at its
        // instant.
        let at = |l: &String| l.split_once("us ").map(|(t, _)| t.to_owned());
        let shared = p.event_trace().windows(3).filter(|w| {
            w[2].contains("dispatch pass")
                && w.iter().all(|l| at(l) == at(&w[2]))
                && w[..2].iter().all(|l| l.contains("HostDone"))
        });
        assert!(shared.count() > 5, "no pass owed by two pods at once");
    }

    /// A node's stretch stops at another node's quota window while it
    /// keeps both its pods' bursts aside; its own windows it takes
    /// inline.
    #[test]
    fn a_window_reset_stops_a_stretch_with_bursts_kept_aside() {
        // Placement packs both pods on one node; the other has none, but
        // its windows reset all the same.
        let cfg = traced(13).nodes(2).policy(SharingPolicy::FaST);
        let build = || {
            let mut p = Platform::new(cfg.clone());
            let f = FunctionConfig::new("a", "resnet50").replicas(2).resources(12.0, 1.0, 1.0);
            p.deploy(f.saturating()).unwrap();
            p
        };
        let inline = drive(build(), build(), &odd_slices(), "two nodes");
        assert!(inline > 50, "{inline} bursts inline");
        // The windows reset in phase: each instant's reset of the idle
        // node stops the busy node's stretch, so one opens per window.
        let mut p = build();
        p.run_for(ms(1_000));
        let c = p.handler_counts();
        assert!(c.window_reset >= 18 && c.stretches >= 9, "{c:?}");
    }

    /// A metrics sample due at the very instant of a kept step: the
    /// sample, of a lower class, comes first and stops the stretch; the
    /// step follows through the queue.
    #[test]
    fn a_sample_at_the_instant_of_a_kept_step_comes_first() {
        let build = |sample: SimTime| {
            let cfg = traced(14).oversubscribe(true).sample_interval(sample);
            shared("rnnt", SharingPolicy::FaST, 3, 12.0, 1.0, cfg)
        };
        let mut reference = build(ms(250));
        reference.set_run_ahead(false);
        reference.run_for(ms(60));
        let steps: Vec<SimTime> = step_times(reference.event_trace())
            .into_iter()
            .filter(|&t| t > ms(20))
            .collect();
        for &at in steps.iter().step_by(7).take(4) {
            let what = format!("sample every {at:?}");
            let inline = drive(build(at), build(at), &[ms(150), SimTime::from_micros(333_333)], &what);
            assert!(inline > 10, "{what}: {inline} bursts inline");
            let mut p = build(at);
            p.run_for(at);
            let trace = p.event_trace();
            let sampled = trace.iter().position(|l| l.ends_with("MetricsSample"));
            let step = trace.iter().position(|l| {
                l.starts_with(&format!("{at:?} ")) && (l.contains("HostDone") || l.contains("BurstFastForward"))
            });
            assert!(sampled.zip(step).is_some_and(|(s, t)| s < t), "{what}: the sample comes first");
        }
    }

    /// Arrivals at the instants of kept steps of a shared node, under
    /// every tie-break: the work class orders them by tie key, exactly as
    /// with run-ahead off.
    #[test]
    fn an_arrival_at_the_instant_of_a_kept_step_is_ordered_by_the_tie_break() {
        let build = |tb: TieBreak, arrivals: &[SimTime]| {
            let mut p = Platform::new(traced(15).nodes(1).tiebreak(tb).oversubscribe(true));
            let f = FunctionConfig::new("busy", "resnet50").replicas(3).resources(24.0, 1.0, 1.0);
            let f = p.deploy(f).unwrap();
            p.set_load(f, ArrivalProcess::trace(arrivals.to_vec()));
            p
        };
        let backlog: Vec<SimTime> = (0..90).map(|i| SimTime::from_micros(1_000 + i)).collect();
        let mut reference = build(TieBreak::Fifo, &backlog);
        reference.set_run_ahead(false);
        reference.run_for(ms(400));
        let steps: Vec<SimTime> = step_times(reference.event_trace())
            .into_iter()
            .filter(|&t| t > ms(20) && t < ms(400))
            .step_by(7)
            .collect();
        assert!(steps.len() > 10, "{} steps", steps.len());
        let mut arrivals = backlog.clone();
        arrivals.extend(&steps);
        arrivals.sort_unstable();
        arrivals.dedup();
        let shuffles = [TieBreak::SeededShuffle(3), TieBreak::SeededShuffle(4)];
        for tb in [TieBreak::Fifo, TieBreak::Lifo].into_iter().chain(shuffles) {
            let slices = [ms(120), ms(95), ms(185)];
            let inline = drive(build(tb, &arrivals), build(tb, &arrivals), &slices, &format!("{tb:?}"));
            assert!(inline > 5, "{tb:?}: {inline} bursts inline");
        }
    }

    /// One profiler trial at `(sm, quota)`: its result and its report digest.
    fn trial(e: &Experiment, cfg: PlatformConfig, sm: f64, quota: f64) -> (TrialResult, u64) {
        let mut run = e.start_trial_in(cfg, sm, quota).unwrap();
        let result = run.extend_to(e.trial_duration);
        (result, run.platform.report().digest())
    }

    fn bits(t: &TrialResult) -> [u64; 5] {
        let r = &t.record;
        [
            r.rps.to_bits(),
            r.p50.as_micros(),
            r.p99.as_micros(),
            r.utilization.to_bits(),
            r.sm_occupancy.to_bits(),
        ]
    }

    /// Fast-forward, with the run-ahead it carries, against per-kernel
    /// stepping: every paper-grid trial of the four profiled models gives the
    /// same result bits and report digest.
    #[test]
    fn every_profiler_trial_matches_per_kernel_stepping() {
        for model in ["resnet50", "rnnt", "bert_base", "gnmt"] {
            let e = Experiment::new(model, ConfigServer::paper_grid());
            for (sm, quota) in ConfigServer::paper_grid().sample().unwrap() {
                let (ff, ff_digest) = trial(&e, e.trial_config().fastforward(true), sm, quota);
                let (stepped, digest) = trial(&e, e.trial_config().fastforward(false), sm, quota);
                assert_eq!(bits(&ff), bits(&stepped), "{model} {sm}/{quota}");
                assert_eq!(ff_digest, digest, "{model} {sm}/{quota}");
            }
        }
    }

    /// The same for the sharing sweep's nine one-pod cells.
    #[test]
    fn one_pod_sharing_cells_match_per_kernel_stepping() {
        for model in ["resnet50", "rnnt", "gnmt"] {
            for policy in [SharingPolicy::FaST, SharingPolicy::Racing, SharingPolicy::SingleToken] {
                let run = |ff: bool| {
                    let cfg = PlatformConfig::default()
                        .oversubscribe(true)
                        .warmup(SimTime::from_secs(1))
                        .fastforward(ff);
                    let mut p = lone(model, policy, 12.0, 1.0, cfg);
                    p.run_for(SimTime::from_secs(3)).digest()
                };
                assert_eq!(run(true), run(false), "{model} {policy:?}");
            }
        }
    }

    /// `inline_bursts` over every fast-forwarded burst.
    fn inline_share(counts: &HandlerCounts, ff_bursts: u64) -> f64 {
        counts.inline_bursts as f64 / ff_bursts.max(1) as f64
    }

    #[test]
    fn most_profiler_bursts_run_inline() {
        let (mut inline, mut bursts) = (0, 0);
        for model in ["rnnt", "gnmt"] {
            let e = Experiment::new(model, ConfigServer::paper_grid());
            for (sm, quota) in ConfigServer::paper_grid().sample().unwrap() {
                let cfg = e.trial_config().fastforward(true);
                let mut run = e.start_trial_in(cfg, sm, quota).unwrap();
                run.extend_to(e.trial_duration);
                inline += run.platform.handler_counts().inline_bursts;
                bursts += run.platform.ff_bursts();
            }
        }
        let share = inline as f64 / bursts as f64;
        assert!(share >= 0.8, "{inline} of {bursts} bursts inline");
    }

    /// The sharing grid's shared cells (Figures 9 and 10): 2, 4 and 8
    /// saturating pods at 12 % SMs on one GPU under FaST, racing and time
    /// sharing. Their pods step in lockstep or hand one token round, and
    /// nearly every burst runs inside its node's stretch.
    #[test]
    fn most_bursts_on_shared_nodes_run_inline() {
        for model in ["resnet50", "rnnt"] {
            for policy in [SharingPolicy::FaST, SharingPolicy::Racing, SharingPolicy::SingleToken] {
                for pods in [2, 4, 8] {
                    let cfg = PlatformConfig::default().fastforward(true).oversubscribe(true);
                    let mut p = shared(model, policy, pods, 12.0, 1.0, cfg);
                    p.run_for(SimTime::from_secs(3));
                    let share = inline_share(&p.handler_counts(), p.ff_bursts());
                    let what = format!("{model} {policy:?} x{pods}");
                    assert!(p.ff_bursts() > 50, "{what}: {} bursts", p.ff_bursts());
                    assert!(share >= 0.9, "{what}: {share:.3} of {} bursts inline", p.ff_bursts());
                    let c = p.handler_counts();
                    assert_eq!(c.empty_stretches, 0, "{what}: {c:?}");
                }
            }
        }
    }

    /// A short `fleet-poisson`-shaped run: 256 nodes, 768 Zipf-popular
    /// Poisson functions in the Figure 11 shapes. Other nodes' events fill
    /// the gaps between any one pod's steps, so run-ahead barely engages.
    #[test]
    fn few_bursts_run_inline_on_a_fleet() {
        const SHAPES: [(&str, f64, f64); 4] = [
            ("bert_base", 50.0, 0.6),
            ("rnnt", 24.0, 0.4),
            ("resnet50", 12.0, 0.4),
            ("resnet50", 12.0, 0.4),
        ];
        let funcs = 768;
        let mut p = Platform::new(PlatformConfig::default().nodes(256).seed(9).fastforward(true));
        let rates = fastg_workload::fleet::zipf_rates(funcs, 20.0 * funcs as f64, 0.8);
        for (i, &rate) in rates.iter().enumerate() {
            let (model, sm, quota) = SHAPES[i % SHAPES.len()];
            let fc = FunctionConfig::new(&format!("fleet-{i:04}"), model);
            let f = p.deploy(fc.resources(sm, quota, quota)).unwrap();
            let cap = fastg_models::zoo::by_name(model).unwrap().ideal_rps(10, quota);
            p.set_load(f, ArrivalProcess::poisson(rate.min(0.7 * cap), 9 + i as u64));
        }
        p.run_for(ms(700));
        let share = inline_share(&p.handler_counts(), p.ff_bursts());
        assert!(p.ff_bursts() > 1_000, "{} bursts", p.ff_bursts());
        assert!(share < 0.01, "{:.4} of {} bursts inline", share, p.ff_bursts());
    }

    const MODELS: [&str; 6] = ["resnet50", "bert_base", "rnnt", "gnmt", "resnext101", "vit_huge"];
    const POLICIES: [SharingPolicy; 3] = [SharingPolicy::FaST, SharingPolicy::SingleToken, SharingPolicy::Racing];

    /// One node of `replicas` pods of `model` at `sm_pct` % SMs and
    /// `quota_pct` % quota each under `policy`. Under a third of the load
    /// range the pods saturate; above it, Poisson arrivals come at that
    /// share of the pods' ideal rate. `None` if the GPU's memory cannot
    /// hold the replicas.
    fn random_node(model: &str, replicas: usize, (sm_pct, quota_pct): (u32, u32), policy: SharingPolicy, seed: u64, load_pct: u32) -> Option<Platform> {
        let (sm, quota) = (f64::from(sm_pct), f64::from(quota_pct) / 100.0);
        let cfg = traced(seed).nodes(1).policy(policy).oversubscribe(replicas > 1);
        let mut p = Platform::new(cfg);
        let f = FunctionConfig::new("node", model).replicas(replicas).resources(sm, quota, quota);
        if load_pct < 50 {
            p.deploy(f.saturating()).ok()?;
        } else {
            let f = p.deploy(f).ok()?;
            let sms = (80 * sm_pct / 100).max(1);
            let ideal = fastg_models::zoo::by_name(model).unwrap().ideal_rps(sms, quota);
            let rate = (ideal * replicas as f64 * f64::from(load_pct - 50) / 100.0).max(0.5);
            p.set_load(f, ArrivalProcess::poisson(rate, seed));
        }
        Some(p)
    }

    /// Runs `build()` with run-ahead on and off through `slices` (µs),
    /// with a checkpoint → restore at the boundary before slice
    /// `restore_at`: the digests, the event counts, every handler count
    /// but the inline and stretch counters, the traces and the checkpoint
    /// bytes match after every slice.
    fn parity(build: impl Fn() -> Platform, slices: &[u64], restore_at: usize, what: &str) {
        let (mut on, mut off) = (build(), build());
        off.set_run_ahead(false);
        let restore_at = restore_at % slices.len();
        for (i, &us) in slices.iter().enumerate() {
            let at = format!("{what}, slice {i}");
            if i == restore_at {
                on = Platform::from_snapshot(&on.checkpoint()).unwrap();
                off = Platform::from_snapshot(&off.checkpoint()).unwrap();
                off.set_run_ahead(false);
            }
            let d = SimTime::from_micros(us);
            assert_eq!(on.run_for(d).digest(), off.run_for(d).digest(), "{at}: report digest");
            assert_same_state(&on, &off, &at);
        }
        assert_eq!(off.handler_counts().inline_bursts, 0, "{what}: switched off");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 160 } else { 1024 }))]

        /// Run-ahead on and off ([`parity`]) over a random lone pod (model,
        /// SM %, quota, policy, seed, and a saturating or Poisson load),
        /// through 1–4 random `run_for` slices with a checkpoint → restore
        /// at one slice boundary.
        #[test]
        fn run_ahead_leaves_the_stepped_state_on_random_lone_pods(
            model in 0usize..MODELS.len(),
            sm_pct in 1u32..=100,
            quota_pct in 5u32..=100,
            policy in 0usize..POLICIES.len(),
            seed in any::<u64>(),
            load_pct in 0u32..150,
            slices in prop::collection::vec(1u64..1_500_000, 1..5),
            restore_at in 0usize..4,
        ) {
            let (model, policy) = (MODELS[model], POLICIES[policy]);
            let what = format!("{model} {sm_pct}/{quota_pct} {policy:?} seed {seed} load {load_pct}");
            parity(|| random_node(model, 1, (sm_pct, quota_pct), policy, seed, load_pct).unwrap(), &slices, restore_at, &what);
        }

        /// The same over a random shared node: 2–8 replicas of a model at
        /// one SM % and quota, their partitions summing below or above the
        /// GPU. Where the GPU's memory cannot hold the replicas drawn, the
        /// node holds as many as fit.
        #[test]
        fn run_ahead_leaves_the_stepped_state_on_random_nodes(
            model in 0usize..MODELS.len(),
            replicas in 2usize..=8,
            sm_pct in 1u32..=100,
            quota_pct in 5u32..=100,
            policy in 0usize..POLICIES.len(),
            seed in any::<u64>(),
            load_pct in 0u32..150,
            slices in prop::collection::vec(1u64..1_500_000, 1..5),
            restore_at in 0usize..4,
        ) {
            let (model, policy) = (MODELS[model], POLICIES[policy]);
            let node = |replicas| random_node(model, replicas, (sm_pct, quota_pct), policy, seed, load_pct);
            // One replica always fits.
            let replicas = (2..=replicas).rev().find(|&r| node(r).is_some()).unwrap_or(1);
            let what = format!("{model} x{replicas} {sm_pct}/{quota_pct} {policy:?} seed {seed} load {load_pct}");
            parity(|| node(replicas).unwrap(), &slices, restore_at, &what);
        }
    }
}

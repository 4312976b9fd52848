//! The platform engine: the event loop wiring every component together.

use crate::manager::{BackendConfig, BurstEstimator, FastBackend, Ready, SharingPolicy};
use crate::modelshare::{footprint, ModelStorageServer, StoreLib, DEFAULT_CTX_OVERHEAD};
use crate::platform::checkpoint::Snapshot;
use crate::platform::config::{FunctionConfig, PlatformConfig};
use crate::platform::error::PlatformError;
use crate::platform::faults::FaultKind;
use crate::platform::node::{NodeRt, PodAt, PodLoc, PodRt};
use crate::platform::overload::{
    AdmitDecision, BreakerAction, BreakerState, CircuitBreaker, OverloadConfig,
};
use crate::platform::report::{FunctionReport, NodeReport, PlatformReport};
use crate::profiler::ProfileDb;
use crate::scheduler::{
    heuristic_scale, ConfigPoint, NodeSelector, PlacementPolicy, RunningPod, ScaleAction,
    SchedStats, Scheduler,
};
use fastg_cluster::{
    Cluster, FuncId, FaSTFuncSpec, Gateway, NodeId, NodeState, PodId, PodState, Request,
    RequestId, ResourceSpec,
};
use fastg_des::snap::{Snap, SnapError, SnapReader, SnapWriter};
use fastg_des::{
    sanitizer, snap_enum, snap_struct, ArenaKey, CancelToken, EventQueue, IdArena, SimTime,
    Simulation, TimeSeries, World,
};
use fastg_gpu::{GpuDevice, KernelId, MpsMode};
use fastg_models::{zoo, ModelProfile};
use fastg_workload::{ArrivalProcess, SloTracker, WarmupCounter};
// Report assembly is the one cold path still keyed by ordered maps (the
// report type is part of the public API). fastg-lint: allow(no-btreemap-hot-path)
use std::collections::BTreeMap;
use std::sync::Arc;

/// Events driving the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A request arrives at the gateway for this function.
    Arrival(FuncId),
    /// A pod finished a host-side phase of its active request.
    HostDone(PodId),
    /// A kernel completed on a node's GPU.
    KernelFinish(NodeId, KernelId),
    /// A fast-forwarded burst reached its analytic end: one macro-event
    /// standing in for every per-kernel finish of an uncontended burst.
    /// Scheduled cancellably; every contention change cancels it and
    /// falls back to per-kernel stepping.
    BurstFastForward(NodeId, PodId),
    /// A quota window closed on a node.
    WindowReset(NodeId),
    /// The auto-scaler control loop runs.
    ScaleTick,
    /// DCGM-style metric sampling.
    MetricsSample,
    /// A scheduled fault fires (index into the configured
    /// [`FaultPlan`](crate::platform::FaultPlan)).
    Fault(usize),
    /// The recovery controller's periodic health check runs.
    HealthTick,
    /// A request's queueing deadline passed; shed it if still queued.
    RequestTimeout(FuncId, RequestId),
    /// The overload control plane's periodic breaker evaluation: every
    /// function's circuit breaker advances one window (trip, probe,
    /// close, brownout enter/exit). Scheduled only when overload control
    /// is configured, so legacy runs see an identical event stream.
    BreakerTick,
}

impl Event {
    /// Same-instant delivery rank (see [`EventQueue::set_classifier`]).
    ///
    /// Cross-kind order at a shared instant is part of the platform's
    /// semantics, so it is pinned here instead of left to insertion
    /// order: faults preempt everything, then the control-plane ticks in
    /// a fixed cadence (scaler, health, metrics, breaker, quota window —
    /// matching the order their periodic reschedules produce under FIFO
    /// with the default intervals), and finally the data-plane "work"
    /// events. All work events share one class: their relative order
    /// stays insertion-seq under FIFO (preserving fast-forward's
    /// materialized-finish semantics exactly), and the tie-break
    /// perturbation policies shuffle only within this class — which is
    /// precisely the orderings the race detector asserts are
    /// digest-neutral. Token dispatch passes are not events: they run
    /// after every class, once the instant holds no event (see
    /// [`Engine::end_of_instant`](World::end_of_instant)).
    fn class(&self) -> u8 {
        match self {
            Event::Fault(_) => 0,
            Event::ScaleTick => 1,
            Event::HealthTick => 2,
            Event::MetricsSample => 3,
            Event::BreakerTick => 4,
            Event::WindowReset(_) => 5,
            Event::Arrival(_)
            | Event::HostDone(_)
            | Event::KernelFinish(_, _)
            | Event::BurstFastForward(_, _)
            | Event::RequestTimeout(_, _) => 6,
        }
    }
}

#[derive(Clone)]
pub(super) struct FuncRt {
    spec: FaSTFuncSpec,
    pub(super) model: Arc<ModelProfile>,
    resources: ResourceSpec,
    slo: SloTracker,
    /// Completions, counted against `cfg.warmup`.
    completions: WarmupCounter,
    load: Option<ArrivalProcess>,
    saturate: bool,
    replica_series: TimeSeries,
    /// Replica count the recovery controller restores after failures.
    desired_replicas: usize,
    /// When the controller first saw this function short of replicas.
    outage_since: Option<SimTime>,
    /// Exponential-backoff state for failed recovery attempts.
    backoff_exp: u32,
    backoff_until: SimTime,
    /// Time-to-recovery of every healed outage.
    recoveries: Vec<SimTime>,
    /// EWMA service-time estimate feeding deadline-aware shedding.
    service_est: BurstEstimator,
    /// SLO-met completions (goodput), counted against `cfg.warmup`.
    goodput: WarmupCounter,
    /// Service time burned on completions that missed their SLO.
    wasted_service: SimTime,
    /// Requests admitted while serving browned-out.
    browned_out: u64,
    /// The function's circuit breaker (overload control plane).
    breaker: CircuitBreaker,
    /// Cancellation token of the function's pending self-timed arrival
    /// event; `set_load` cancels it before installing a new process.
    arrival_token: Option<CancelToken>,
    /// Full-quota resources to restore when brownout ends. The snapshot
    /// is taken at brownout entry; an external reconfigure during
    /// brownout is superseded by the restore.
    normal_resources: ResourceSpec,
}

/// How many events of each kind the engine has handled, and how many
/// dispatch passes it has run. Plain counters outside the report digest
/// and the snapshot: a clone carries them, a platform restored from a
/// snapshot starts them at zero. Passes are not events; an owed pass
/// skipped because no waiter was grantable counts as skipped, not run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HandlerCounts {
    /// `Arrival` events.
    pub arrival: u64,
    /// `HostDone` events.
    pub host_done: u64,
    /// `KernelFinish` events.
    pub kernel_finish: u64,
    /// `BurstFastForward` events.
    pub burst_fast_forward: u64,
    /// `WindowReset` events.
    pub window_reset: u64,
    /// `ScaleTick` events.
    pub scale_tick: u64,
    /// `MetricsSample` events.
    pub metrics_sample: u64,
    /// `Fault` events.
    pub fault: u64,
    /// `HealthTick` events.
    pub health_tick: u64,
    /// `RequestTimeout` events.
    pub request_timeout: u64,
    /// `BreakerTick` events.
    pub breaker_tick: u64,
    /// End-of-instant token dispatch passes run (not events).
    pub dispatch_passes: u64,
    /// Owed dispatch passes skipped because no waiter was grantable
    /// (every waiter quota-blocked until its window resets).
    pub dispatch_passes_skipped: u64,
}

impl HandlerCounts {
    /// Events of every kind (passes excluded).
    pub fn events(&self) -> u64 {
        let Self {
            arrival,
            host_done,
            kernel_finish,
            burst_fast_forward,
            window_reset,
            scale_tick,
            metrics_sample,
            fault,
            health_tick,
            request_timeout,
            breaker_tick,
            dispatch_passes: _,
            dispatch_passes_skipped: _,
        } = *self;
        arrival
            + host_done
            + kernel_finish
            + burst_fast_forward
            + window_reset
            + scale_tick
            + metrics_sample
            + fault
            + health_tick
            + request_timeout
            + breaker_tick
    }

    fn count(&mut self, event: &Event) {
        let counter = match event {
            Event::Arrival(_) => &mut self.arrival,
            Event::HostDone(_) => &mut self.host_done,
            Event::KernelFinish(_, _) => &mut self.kernel_finish,
            Event::BurstFastForward(_, _) => &mut self.burst_fast_forward,
            Event::WindowReset(_) => &mut self.window_reset,
            Event::ScaleTick => &mut self.scale_tick,
            Event::MetricsSample => &mut self.metrics_sample,
            Event::Fault(_) => &mut self.fault,
            Event::HealthTick => &mut self.health_tick,
            Event::RequestTimeout(_, _) => &mut self.request_timeout,
            Event::BreakerTick => &mut self.breaker_tick,
        };
        *counter += 1;
    }
}

/// The [`World`] implementation composing cluster, GPUs, manager,
/// scheduler, model sharing and workloads. The per-node data plane (each
/// node's GPU device, backend and pods' runtime) is in [`NodeRt`], and
/// its hot paths in the `node` module.
#[derive(Clone)]
pub struct Engine {
    pub(super) cfg: PlatformConfig,
    pub(super) cluster: Cluster,
    gateway: Gateway,
    /// Each node's data plane: its GPU device, FaST Backend and pods'
    /// runtime.
    pub(super) nodes: IdArena<NodeId, NodeRt>,
    stores: IdArena<NodeId, ModelStorageServer>,
    /// The paper's Algorithm 2 placement engine.
    selector: NodeSelector,
    pub(super) funcs: IdArena<FuncId, FuncRt>,
    /// Where each pod's runtime lives: `PodId → (node, slot)`.
    pub(super) pod_loc: IdArena<PodId, PodLoc>,
    autoscale_db: Option<ProfileDb>,
    next_func: u32,
    next_synth: u64,
    unschedulable: u64,
    killed: u64,
    faults_injected: u64,
    /// Bursts coalesced into a single macro-event so far.
    pub(super) ff_bursts: u64,
    /// Kernel completions applied analytically, counted when a macro-event
    /// is delivered or broken (the per-kernel events the fast-forward
    /// layer never had to schedule).
    pub(super) ff_coalesced_kernels: u64,
    /// Reusable buffer of `(finish_at, KernelFinish)` pairs built while
    /// launching a burst, so a multi-kernel burst costs zero steady-state
    /// allocations before its batched heap push.
    pub(super) burst_scratch: Vec<(SimTime, Event)>,
    /// Reusable buffer for kernels admitted when a completion frees SMs
    /// (the hottest event in the simulation).
    pub(super) started_scratch: Vec<fastg_gpu::KernelStart>,
    /// Reusable buffer for the slots one dispatch pass grants.
    pub(super) granted_scratch: Vec<usize>,
    /// The ready list every node's dispatch pass borrows.
    pub(super) ready_scratch: Vec<Ready>,
    /// Nodes owed a batched dispatch pass at the current instant, at most
    /// once each, in ascending order of the tie key their first poke
    /// claimed from the queue (see [`Engine::poke_dispatch`]). The driver
    /// drains it at the end of the instant.
    pub(super) dispatch_pending: Vec<(u64, NodeId)>,
    /// Per-kind handled events and dispatch passes.
    pub(super) counts: HandlerCounts,
    /// Per-event `{time} {event}` lines when `cfg.trace_events` is set
    /// (the race detector's delta-debugging input); empty otherwise.
    trace: Vec<String>,
    /// One shared profile per distinct model (see [`intern_profile`]).
    /// A cache: not snapshotted, rebuilt while decoding the functions.
    profiles: Vec<Arc<ModelProfile>>,
}

/// The table's copy of `profile`, adding it if no equal profile is there
/// yet. Every function of one model then reads one `Arc`, so a burst
/// loads kernel specs that the model's other functions keep hot. Keyed by
/// full equality, not the name. The table is per platform rather than
/// process-wide: every request clones the `Arc`, and a global profile
/// would bounce its refcount between sweep worker threads. A
/// [`Platform`] clone shares its source's table (the same `Arc`s), so
/// the cells of a prefix-shared sweep do share profiles across threads;
/// giving each clone its own copies measured no faster on `sweep-fork`.
fn intern_profile(
    profiles: &mut Vec<Arc<ModelProfile>>,
    profile: Arc<ModelProfile>,
) -> Arc<ModelProfile> {
    if let Some(shared) = profiles.iter().find(|p| **p == profile) {
        return Arc::clone(shared);
    }
    profiles.push(Arc::clone(&profile));
    profile
}

/// Builds the placement engine for a config: time sharing widens every
/// pod to the full SM axis. Factored out of [`Engine::new`] because
/// snapshot restore must rebuild the same engine before handing it its
/// captured state: the placement policy is config, not snapshot payload.
fn make_selector(cfg: &PlatformConfig) -> NodeSelector {
    NodeSelector::new(if matches!(cfg.policy, SharingPolicy::SingleToken) {
        PlacementPolicy::TimeSharingOnly
    } else {
        PlacementPolicy::MaximalRectangles
    })
}

/// Builds a node's FaST Backend for a config, at start-up and again when
/// a crashed node's backend is replaced.
fn make_backend(cfg: &PlatformConfig) -> FastBackend {
    FastBackend::new(BackendConfig {
        policy: cfg.policy,
        window: cfg.window,
        token_lease: cfg.effective_token_lease(),
        sm_global_limit: cfg.sm_global_limit,
        ..BackendConfig::default()
    })
}

impl Engine {
    fn new(cfg: PlatformConfig) -> Self {
        let mut cluster = Cluster::new();
        let mode = match cfg.policy {
            SharingPolicy::Exclusive => MpsMode::Exclusive,
            _ => MpsMode::Shared,
        };
        let mut selector = make_selector(&cfg);
        let mut node_rts = IdArena::new();
        let mut stores = IdArena::new();
        for spec in cfg.effective_gpus() {
            let n = cluster.add_node();
            selector.add_gpu(n);
            node_rts.insert(n, NodeRt::new(make_backend(&cfg), GpuDevice::new(spec, mode)));
            stores.insert(n, ModelStorageServer::new(DEFAULT_CTX_OVERHEAD));
        }
        Engine {
            cfg,
            cluster,
            gateway: Gateway::new(),
            nodes: node_rts,
            stores,
            selector,
            funcs: IdArena::new(),
            pod_loc: IdArena::new(),
            autoscale_db: None,
            next_func: 0,
            next_synth: 1 << 60,
            unschedulable: 0,
            killed: 0,
            faults_injected: 0,
            ff_bursts: 0,
            ff_coalesced_kernels: 0,
            burst_scratch: Vec::new(),
            started_scratch: Vec::new(),
            granted_scratch: Vec::new(),
            ready_scratch: Vec::new(),
            dispatch_pending: Vec::new(),
            counts: HandlerCounts::default(),
            trace: Vec::new(),
            profiles: Vec::new(),
        }
    }

    // ----- deployment -------------------------------------------------

    fn deploy(
        &mut self,
        now: SimTime,
        fc: &FunctionConfig,
        queue: &mut EventQueue<Event>,
    ) -> Result<FuncId, PlatformError> {
        let model = zoo::by_name(&fc.model)
            .ok_or_else(|| PlatformError::UnknownModel(fc.model.clone()))?;
        let (sm, q_req, q_lim) = fc.resources;
        let resources = ResourceSpec::new(sm, q_req, q_lim, model.memory.total());
        let model = intern_profile(&mut self.profiles, Arc::new(model));
        let id = FuncId(self.next_func);
        self.next_func += 1;
        self.gateway.register_func(id);
        if let Some(o) = &self.cfg.overload {
            self.gateway.set_queue_capacity(id, Some(o.queue_capacity));
        }
        self.funcs.insert(
            id,
            FuncRt {
                spec: FaSTFuncSpec::new(&fc.name, &fc.model, fc.slo),
                model,
                resources,
                slo: SloTracker::new(fc.slo),
                completions: WarmupCounter::new(),
                load: None,
                saturate: fc.saturate,
                replica_series: TimeSeries::new(),
                desired_replicas: fc.replicas,
                outage_since: None,
                backoff_exp: 0,
                backoff_until: SimTime::ZERO,
                recoveries: Vec::new(),
                service_est: BurstEstimator::new(BurstEstimator::default_alpha()),
                goodput: WarmupCounter::new(),
                wasted_service: SimTime::ZERO,
                browned_out: 0,
                breaker: CircuitBreaker::new(),
                arrival_token: None,
                normal_resources: resources,
            },
        );
        for _ in 0..fc.replicas {
            self.create_pod(now, id, resources, queue)?;
        }
        Ok(id)
    }

    /// Creates one pod: node selection, cluster/MPS/memory setup, model
    /// sharing attach, rectangle binding, backend registration, gateway
    /// routing, and (for saturating functions) the first request.
    fn create_pod(
        &mut self,
        now: SimTime,
        func: FuncId,
        resources: ResourceSpec,
        queue: &mut EventQueue<Event>,
    ) -> Result<PodId, PlatformError> {
        let rt = self.funcs.get(func).ok_or(PlatformError::UnknownFunction)?;
        let sharing = self.cfg.model_sharing;
        let mem = &rt.model.memory;
        let model_name = rt.spec.model.clone();
        let pod_bytes = footprint::pod_reservation(mem, sharing);
        let weights = mem.weights_bytes;
        let saturate = rt.saturate;

        // Memory feasibility per node: the pod's private reservation plus,
        // if this node's store does not yet hold the model, the shared
        // weights + storage context.
        let node_ids = self.cluster.node_ids();
        let mut extra_per_node: Vec<u64> = vec![0; node_ids.len()];
        for n in node_ids {
            if sharing && self.stores[n].model_bytes(&model_name) == 0 {
                extra_per_node[n.index()] =
                    footprint::server_reservation(mem, DEFAULT_CTX_OVERHEAD);
            }
        }
        let nodes_ref = &self.nodes;
        let mut mem_fits = |n: NodeId| {
            nodes_ref
                .get(n)
                .map(|node| {
                    node.gpu.memory().free_bytes()
                        >= pod_bytes + extra_per_node.get(n.index()).copied().unwrap_or(0)
                })
                .unwrap_or(false)
        };

        // Node selection: Algorithm 2 best fit, or least-loaded when
        // over-subscription is allowed.
        let node = if self.cfg.oversubscribe {
            self.cluster
                .node_ids()
                .into_iter()
                .filter(|&n| mem_fits(n))
                .min_by_key(|&n| (self.cluster.pods_on(n).len(), n))
        } else {
            self.selector.select_node(&resources, &mut mem_fits)
        };
        let Some(node) = node else {
            self.unschedulable += 1;
            return Err(PlatformError::NoNodeFits);
        };

        // Effective spec for MPS registration: policies without spatial
        // partitioning register at 100 % active threads.
        let eff_sm = if self.cfg.policy.uses_partitions() {
            resources.sm_partition
        } else {
            100.0
        };
        let eff = ResourceSpec::new(eff_sm, resources.quota_request, resources.quota_limit, resources.gpu_mem);
        let nrt = self
            .nodes
            .get_mut(node)
            .ok_or(PlatformError::Internal("runtime missing for node"))?;
        let pod = self
            .cluster
            .create_pod(now, node, func, eff, pod_bytes, &mut nrt.gpu)?;
        let client = self.cluster.pod(pod)?.client;

        // Model sharing: attach the weights through the store library.
        let storelib = if sharing && weights > 0 {
            let mut lib = StoreLib::new();
            let store = self
                .stores
                .get_mut(node)
                .ok_or(PlatformError::Internal("store missing for node"))?;
            lib.attach(store, nrt.gpu.memory_mut(), &model_name, &[("weights", weights)])?;
            Some(lib)
        } else {
            None
        };

        // Spatio-temporal rectangle binding (admission already checked).
        let bound_rect = if self.cfg.oversubscribe {
            false
        } else {
            self.selector
                .bind(node, pod, &resources)
                .map(|_| true)
                .unwrap_or(false)
        };

        // The pod's runtime takes a slot in its node's slab, and its
        // backend table row (the FaSTPod controller's spec sync) the same
        // slot.
        let nrt = self
            .nodes
            .get_mut(node)
            .ok_or(PlatformError::Internal("runtime missing for node"))?;
        let slot = nrt.insert(
            pod,
            PodRt {
                func,
                node,
                client,
                active: None,
                storelib,
                bound_rect,
                zombie: None,
            },
        );
        nrt.backend.register_at(slot, pod, resources);
        let at = PodAt { pod, node, slot };
        let slot = u32::try_from(slot).map_err(|_| PlatformError::Internal("pod slot space"))?;
        self.pod_loc.insert(pod, PodLoc { node, slot });
        self.gateway.register_pod(func, pod);
        if saturate {
            let req = self.synth_request(now, func);
            self.assign_request(now, at, req, queue);
        } else if let Some(req) = self.pull_next(now, func, pod) {
            // Backlog may have accumulated while no pod was routable
            // (e.g. every replica crashed); a new pod picks it up
            // immediately instead of waiting for an arrival.
            self.assign_request(now, at, req, queue);
        }
        Ok(pod)
    }

    fn synth_request(&mut self, now: SimTime, func: FuncId) -> Request {
        let id = RequestId(self.next_synth);
        self.next_synth += 1;
        Request {
            id,
            func,
            arrived: now,
            deadline: SimTime::MAX,
        }
    }

    /// Starts draining a pod; deletes it immediately when idle.
    fn drain_pod(&mut self, pod: PodId, queue: &mut EventQueue<Event>) {
        let Some(at) = self.locate(pod) else {
            return;
        };
        let Some(rt) = self.pod_rt(at) else {
            return;
        };
        if rt.zombie.is_some() {
            return; // already being torn down by the crash path
        }
        let func = rt.func;
        let idle = rt.active.is_none();
        self.gateway.deregister_pod(func, pod);
        let _ = self.cluster.begin_terminate(pod);
        if idle {
            self.delete_pod(at, queue);
        }
    }

    fn delete_pod(&mut self, at: PodAt, queue: &mut EventQueue<Event>) {
        let pod = at.pod;
        let Some(mut rt) = self.take_pod(at) else {
            return;
        };
        debug_assert!(rt.active.is_none(), "deleting pod with a request in flight");
        let node = rt.node;
        match self.nodes.get_mut(node) {
            Some(n) => n.backend.deregister(pod),
            None => debug_assert!(false, "runtime per node"),
        }
        self.release_pod_gpu(pod, &mut rt);
        if rt.bound_rect {
            self.selector.release(node, pod);
        }
        self.poke_dispatch(node, queue);
    }

    /// Returns a removed pod's device share: detaches its model weights
    /// and deletes it from the cluster, freeing its memory and MPS client
    /// on the node's device.
    fn release_pod_gpu(&mut self, pod: PodId, rt: &mut PodRt) {
        let Some(n) = self.nodes.get_mut(rt.node) else {
            debug_assert!(false, "node outlives its pods");
            return;
        };
        if let Some(lib) = rt.storelib.as_mut() {
            match self.stores.get_mut(rt.node) {
                Some(store) => lib.detach(store, n.gpu.memory_mut()),
                None => debug_assert!(false, "store outlives its pods"),
            }
        }
        let deleted = self.cluster.delete_pod(pod, &mut n.gpu);
        debug_assert!(deleted.is_ok(), "pod exists in cluster");
    }

    /// Removes a pod's runtime from its node's slab and the location map.
    fn take_pod(&mut self, at: PodAt) -> Option<PodRt> {
        self.pod_loc.remove(at.pod)?;
        self.nodes.get_mut(at.node)?.remove(at.slot)
    }

    /// Live FaSTPod spec sync (§3.2: resource configurations are filled
    /// by the profiler/scheduler and synchronized to the backend table):
    /// updates the function's default resources and re-applies partition,
    /// quotas, MPS limit and rectangle binding to every running pod.
    fn reconfigure(
        &mut self,
        now: SimTime,
        func: FuncId,
        resources: ResourceSpec,
        queue: &mut EventQueue<Event>,
    ) -> Result<(), PlatformError> {
        resources.validate();
        let rt = self
            .funcs
            .get_mut(func)
            .ok_or(PlatformError::UnknownFunction)?;
        rt.resources = resources;
        let eff_sm = if self.cfg.policy.uses_partitions() {
            resources.sm_partition
        } else {
            100.0
        };
        // Repartitioning changes contention: every fast-forwarded burst
        // on an affected node (this function's or a neighbour's) falls
        // back to per-kernel stepping before MPS caps move.
        let mut touched: Vec<NodeId> = Vec::new();
        for pod in self.cluster.running_pods_of(func) {
            let node = self
                .locate(pod)
                .ok_or(PlatformError::Internal("runtime missing for pod"))?
                .node;
            if !touched.contains(&node) {
                touched.push(node);
            }
        }
        for node in touched {
            self.ff_break_node(now, node, queue);
        }
        for pod in self.cluster.running_pods_of(func) {
            let at = self.locate(pod).ok_or(PlatformError::Internal("runtime missing for pod"))?;
            let node = at.node;
            let (client, old) = self.cluster.pod(pod).map(|p| (p.client, p.resources))?;
            // MPS partition: applies from the pod's next kernel launch.
            self.nodes
                .get_mut(node)
                .ok_or(PlatformError::Internal("runtime missing for node"))?
                .gpu
                .set_partition(client, eff_sm)?;
            self.cluster.pod_mut(pod)?.resources =
                ResourceSpec::new(eff_sm, resources.quota_request, resources.quota_limit, resources.gpu_mem);
            // Backend table row (quotas take effect within this window).
            self.nodes
                .get_mut(node)
                .ok_or(PlatformError::Internal("runtime missing for node"))?
                .backend
                .update_spec(pod, resources);
            // Rectangle binding: swap to the new shape if it fits; keep
            // the old reservation otherwise (conservative).
            if self.pod_rt(at).is_some_and(|rt| rt.bound_rect) {
                self.selector.release(node, pod);
                if self.selector.bind(node, pod, &resources).is_none() {
                    let restored = self
                        .selector
                        .bind(node, pod, &old)
                        .is_some();
                    debug_assert!(restored, "freed rectangle must re-bind");
                }
            }
        }
        Ok(())
    }

    /// Failure injection: the pod crashes right now. Its in-flight
    /// request returns to the gateway (keeping its arrival time, so the
    /// retry latency hits the SLO accounting); kernels already resident
    /// on the GPU drain as a "zombie" before final teardown, exactly as a
    /// dead process's launched work completes on real hardware.
    fn kill_pod(&mut self, now: SimTime, pod: PodId, queue: &mut EventQueue<Event>) -> bool {
        let Some(at) = self.locate(pod) else {
            return false;
        };
        let Some(rt) = self.pod_rt(at) else {
            return false;
        };
        if rt.zombie.is_some() {
            return false; // already dying
        }
        let func = rt.func;
        let node = rt.node;
        self.killed += 1;
        // An in-flight fast-forwarded burst must be broken back to exact
        // per-kernel state before the corpse is inspected: the
        // materialized mid-flight kernel (and the requeued remainder)
        // drain as the zombie, and `outstanding` is reconciled first.
        self.ff_break_pod(now, at, queue);
        self.gateway.deregister_pod(func, pod);
        // The cluster must stop counting the pod as Running right away —
        // otherwise reconciliation would refuse to create replacements
        // while the corpse's kernels drain.
        let _ = self.cluster.begin_terminate(pod);
        match self.nodes.get_mut(node) {
            Some(n) => n.backend.force_deregister(pod),
            None => debug_assert!(false, "runtime per node"),
        }
        // Salvage the request, remember how many kernels must drain.
        let mut release_rect = false;
        let (lost_req, outstanding) = match self.pod_rt_mut(at) {
            Some(rt) => {
                if rt.bound_rect {
                    rt.bound_rect = false;
                    release_rect = true;
                }
                let salvaged = match rt.active.take() {
                    Some(a) => (Some(a.req), a.outstanding),
                    None => (None, 0),
                };
                if salvaged.1 > 0 {
                    rt.zombie = Some(salvaged.1);
                }
                salvaged
            }
            None => (None, 0), // unreachable: presence checked above
        };
        if release_rect {
            self.selector.release(node, pod);
        }
        if outstanding == 0 {
            self.teardown_dead_pod(at);
        }
        // Retry the lost request (synthetic saturating requests are just
        // dropped; a fresh one spawns on whichever pod serves next).
        if let Some(req) = lost_req {
            self.retry_or_shed(now, req, queue);
        }
        self.mark_outage(now, func);
        self.poke_dispatch(node, queue);
        true
    }

    /// Requeues a request lost to a crash, unless it is synthetic or its
    /// retry budget is spent (then the gateway sheds it).
    fn retry_or_shed(&mut self, now: SimTime, req: Request, queue: &mut EventQueue<Event>) {
        if req.id.0 >= 1 << 60 {
            return; // synthetic saturating request: just dropped
        }
        // Every call here is a crash-lost request: feed the breaker's
        // failure counter so a dying node fast-fails instead of queueing.
        if self.cfg.overload.is_some() {
            if let Some(frt) = self.funcs.get_mut(req.func) {
                frt.breaker.on_failure(req.id.0);
            }
        }
        if let Some(budget) = self.cfg.retry_budget {
            if self.gateway.retries_of(&req) >= budget {
                self.gateway.drop_request(&req);
                return;
            }
        }
        if let Some(at) = self.gateway.requeue(req).and_then(|p| self.locate(p)) {
            self.assign_request(now, at, req, queue);
        }
    }

    /// Opens an outage window for the recovery controller when a function
    /// drops below its desired replica count.
    fn mark_outage(&mut self, now: SimTime, func: FuncId) {
        if !self.cfg.recovery {
            return;
        }
        let running = self.cluster.running_pods_of(func).len();
        if let Some(rt) = self.funcs.get_mut(func) {
            if running < rt.desired_replicas && rt.outage_since.is_none() {
                rt.outage_since = Some(now);
            }
        }
    }

    /// Final teardown of a crashed pod once no kernels remain resident.
    pub(super) fn teardown_dead_pod(&mut self, at: PodAt) {
        let pod = at.pod;
        let Some(mut rt) = self.take_pod(at) else {
            return;
        };
        self.release_pod_gpu(pod, &mut rt);
    }

    // ----- fault injection & recovery ---------------------------------

    /// Node-level failure: the node powers off. Every pod on it dies
    /// immediately — resident kernels abort with the hardware, so unlike
    /// a pod crash there is no zombie drain. The node's backend and model
    /// store are replaced with fresh instances, its GPU leaves the
    /// placement pool, and each lost in-flight request retries on a
    /// surviving replica (or is shed once over its retry budget).
    fn crash_node(&mut self, now: SimTime, node: NodeId, queue: &mut EventQueue<Event>) -> bool {
        if !matches!(self.cluster.node_state(node), Ok(s) if s != NodeState::Down) {
            return false;
        }
        // Hardware teardown: marks the node Down, hard-resets its GPU and
        // removes all its pods from the cluster.
        let Some(nrt) = self.nodes.get_mut(node) else {
            debug_assert!(false, "runtime per node");
            return false;
        };
        let Ok(dead) = self.cluster.crash_node(now, node, &mut nrt.gpu) else {
            debug_assert!(false, "node is up (state checked above)");
            return false;
        };
        let mut lost_reqs = Vec::new();
        let mut affected = Vec::new();
        for pod in &dead {
            self.gateway.deregister_pod(pod.func, pod.id);
            let rt = self.locate(pod.id).and_then(|at| self.take_pod(at));
            if let Some(mut rt) = rt {
                // A zombie (a crashed pod whose kernels were still
                // draining) was already counted when it was killed.
                if rt.zombie.is_none() {
                    self.killed += 1;
                }
                if !affected.contains(&rt.func) {
                    affected.push(rt.func);
                }
                if let Some(a) = rt.active.take() {
                    // The device's hard reset already aborted any
                    // fast-forward timeline; only the macro-event in the
                    // queue is left to revoke.
                    if let Some(token) = a.ff {
                        queue.cancel(token);
                    }
                    lost_reqs.push(a.req);
                }
            }
        }
        // Control-plane teardown: rectangle bindings, backend table and
        // model store die with the node (its pod slab is empty by now);
        // the reset device stays.
        self.selector.remove_gpu(node);
        if let Some(old) = self.nodes.remove(node) {
            debug_assert!(old.pods().next().is_none(), "a crashed node keeps no pod");
            self.nodes
                .insert(node, NodeRt::new(make_backend(&self.cfg), old.gpu));
        }
        self.stores
            .insert(node, ModelStorageServer::new(DEFAULT_CTX_OVERHEAD));
        for req in lost_reqs {
            self.retry_or_shed(now, req, queue);
        }
        for func in affected {
            self.mark_outage(now, func);
        }
        true
    }

    /// Fires entry `index` of the configured fault plan.
    fn on_fault(&mut self, now: SimTime, index: usize, queue: &mut EventQueue<Event>) {
        let Some(&ev) = self
            .cfg
            .fault_plan
            .as_ref()
            .and_then(|p| p.events().get(index))
        else {
            return;
        };
        self.faults_injected += 1;
        match ev.kind {
            FaultKind::PodCrash { func_index } => {
                let ids: Vec<FuncId> = self.funcs.keys().collect();
                if ids.is_empty() {
                    return;
                }
                let func = ids[func_index % ids.len()];
                if let Some(&victim) = self.cluster.running_pods_of(func).first() {
                    self.kill_pod(now, victim, queue);
                }
            }
            FaultKind::NodeCrash { node_index } => {
                let ids = self.cluster.node_ids();
                if ids.is_empty() {
                    return;
                }
                self.crash_node(now, ids[node_index % ids.len()], queue);
            }
            FaultKind::NodeDegrade { node_index, factor } => {
                let ids = self.cluster.node_ids();
                if ids.is_empty() {
                    return;
                }
                let node = ids[node_index % ids.len()];
                // A clock change redraws every future kernel duration;
                // analytic schedules on the node are no longer exact.
                self.ff_break_node(now, node, queue);
                if let Some(n) = self.nodes.get_mut(node) {
                    let _ = self.cluster.degrade_node(node, factor, &mut n.gpu);
                }
            }
            FaultKind::NodeRecover { node_index } => {
                let ids = self.cluster.node_ids();
                if ids.is_empty() {
                    return;
                }
                let node = ids[node_index % ids.len()];
                self.ff_break_node(now, node, queue);
                if let Some(n) = self.nodes.get_mut(node) {
                    let _ = self.cluster.recover_node(node, &mut n.gpu);
                }
            }
        }
    }

    /// The recovery controller: one health check pass over every function.
    fn on_health_tick(&mut self, now: SimTime, queue: &mut EventQueue<Event>) {
        queue.schedule(now + self.cfg.health_interval, Event::HealthTick);
        let func_ids: Vec<FuncId> = self.funcs.keys().collect();
        for func in func_ids {
            self.heal_function(now, func, queue);
        }
    }

    /// Compares a function's running replicas against its desired count
    /// and reschedules the missing ones via the regular pod-creation path
    /// (Algorithm 2 node selection over surviving nodes). Placement
    /// failures back off exponentially; a fully restored function records
    /// its time-to-recovery.
    fn heal_function(&mut self, now: SimTime, func: FuncId, queue: &mut EventQueue<Event>) {
        let Some(rt) = self.funcs.get(func) else {
            debug_assert!(false, "function exists");
            return;
        };
        let desired = rt.desired_replicas;
        let resources = rt.resources;
        let backoff_until = rt.backoff_until;
        let running = self.cluster.running_pods_of(func).len();
        if running >= desired {
            let Some(rt) = self.funcs.get_mut(func) else {
                return;
            };
            if let Some(start) = rt.outage_since.take() {
                // Healed outside the controller (e.g. the auto-scaler
                // re-created capacity first): still an outage that ended.
                rt.recoveries.push(now.saturating_sub(start));
                rt.backoff_exp = 0;
                rt.backoff_until = SimTime::ZERO;
            }
            return;
        }
        let Some(rt) = self.funcs.get_mut(func) else {
            return;
        };
        let start = *rt.outage_since.get_or_insert(now);
        // Health probes have at least one interval of detection latency:
        // an outage observed the instant it happened is repaired on the
        // next tick, so time-to-recovery is never zero.
        if now <= start || now < backoff_until {
            return;
        }
        let missing = desired - running;
        let mut failed = false;
        for _ in 0..missing {
            if self.create_pod(now, func, resources, queue).is_err() {
                failed = true;
                break;
            }
        }
        let interval = self.cfg.health_interval;
        let Some(rt) = self.funcs.get_mut(func) else {
            return;
        };
        if failed {
            rt.backoff_exp = (rt.backoff_exp + 1).min(6);
            rt.backoff_until = now + interval * (1u64 << rt.backoff_exp);
        } else if let Some(start) = rt.outage_since.take() {
            rt.recoveries.push(now.saturating_sub(start));
            rt.backoff_exp = 0;
            rt.backoff_until = SimTime::ZERO;
        }
    }

    /// A request's queueing deadline passed: shed it if it is still in
    /// the gateway queue (in-flight requests are left to finish).
    fn on_request_timeout(&mut self, func: FuncId, id: RequestId) {
        if let Some(req) = self.gateway.cancel_queued(func, id) {
            self.gateway.drop_request(&req);
            if self.cfg.overload.is_some() {
                if let Some(frt) = self.funcs.get_mut(func) {
                    frt.breaker.on_shed(req.id.0);
                }
            }
        }
    }

    // ----- overload control plane -------------------------------------

    /// One breaker evaluation window: shed stale queue prefixes, advance
    /// every function's breaker, and apply brownout transitions through
    /// the regular `reconfigure` path (which breaks fast-forward state on
    /// touched nodes, so replay stays digest-exact).
    fn on_breaker_tick(&mut self, now: SimTime, queue: &mut EventQueue<Event>) {
        let Some(o) = self.cfg.overload else {
            return; // overload control disabled after scheduling: disarm
        };
        queue.schedule(now + o.breaker_window, Event::BreakerTick);
        let func_ids: Vec<FuncId> = self.funcs.keys().collect();
        for func in func_ids {
            // Requests can outlive their deadline between dispatch
            // opportunities; sweep them each window so the shed counters
            // see overload even when no pod goes idle.
            self.shed_dead_prefix(now, func);
            let Some(frt) = self.funcs.get_mut(func) else {
                continue;
            };
            match frt.breaker.tick(now, &o) {
                BreakerAction::None => {}
                BreakerAction::EnterBrownout => self.enter_brownout(now, func, &o, queue),
                BreakerAction::ExitBrownout => self.exit_brownout(now, func, queue),
            }
        }
    }

    /// Brownout entry: snapshot full-quota resources and reconfigure
    /// every replica to a reduced quota request (elastic limit kept), so
    /// the function keeps serving degraded instead of hard-failing.
    fn enter_brownout(
        &mut self,
        now: SimTime,
        func: FuncId,
        o: &OverloadConfig,
        queue: &mut EventQueue<Event>,
    ) {
        let Some(frt) = self.funcs.get_mut(func) else {
            return;
        };
        let full = frt.resources;
        frt.normal_resources = full;
        let reduced = ResourceSpec::new(
            full.sm_partition,
            (full.quota_request * o.brownout_quota_factor).max(0.01),
            full.quota_limit,
            full.gpu_mem,
        );
        let applied = self.reconfigure(now, func, reduced, queue);
        debug_assert!(applied.is_ok(), "browning out a deployed function");
    }

    /// Brownout exit: restore the snapshot taken at entry.
    fn exit_brownout(&mut self, now: SimTime, func: FuncId, queue: &mut EventQueue<Event>) {
        let Some(frt) = self.funcs.get(func) else {
            return;
        };
        let full = frt.normal_resources;
        let applied = self.reconfigure(now, func, full, queue);
        debug_assert!(applied.is_ok(), "restoring a deployed function");
    }

    // ----- request lifecycle ------------------------------------------

    fn on_arrival(&mut self, now: SimTime, func: FuncId, queue: &mut EventQueue<Event>) {
        // Schedule the next arrival first (the process is self-timed). The
        // chain event is cancellable so `set_load` can replace the chain.
        if let Some(frt) = self.funcs.get_mut(func) {
            frt.arrival_token = frt
                .load
                .as_mut()
                .and_then(|l| l.next_after(now))
                .map(|t| queue.schedule_cancellable(t, Event::Arrival(func)));
        }
        let overload = self.cfg.overload;
        let slo = self.funcs.get(func).map(|f| f.slo.slo());
        // Breaker admission runs before the request touches the queue: an
        // Open breaker fast-fails (or serves browned-out) without burning
        // queue capacity. The probe id is the id the gateway will assign.
        let mut browned = false;
        if let (Some(o), Some(frt)) = (overload.as_ref(), self.funcs.get_mut(func)) {
            let next_id = self.gateway.next_request_id();
            if frt.breaker.admit(o, next_id) == AdmitDecision::Refuse {
                self.gateway.reject_arrival(now, func);
                return;
            }
            browned = frt.breaker.browned();
        }
        let deadline = match (overload.as_ref(), slo) {
            (Some(o), Some(slo)) => now
                .checked_add(slo.scale(o.deadline_factor))
                .unwrap_or(SimTime::MAX),
            _ => SimTime::MAX,
        };
        match self.gateway.on_arrival(now, func, deadline) {
            fastg_cluster::Admission::Overloaded(req) => {
                // Bounded queue full: counted as rejected by the gateway,
                // and as a shed signal for the breaker's trip ratio.
                if let Some(frt) = self.funcs.get_mut(func) {
                    frt.breaker.on_shed(req.id.0);
                }
            }
            fastg_cluster::Admission::Dispatch(req, pod) => {
                if browned {
                    if let Some(frt) = self.funcs.get_mut(func) {
                        frt.browned_out += 1;
                    }
                }
                self.schedule_request_timeout(now, func, req.id, queue);
                match self.locate(pod) {
                    Some(at) => self.assign_request(now, at, req, queue),
                    None => debug_assert!(false, "the gateway routes to live pods"),
                }
            }
            fastg_cluster::Admission::Queue(req) => {
                if browned {
                    if let Some(frt) = self.funcs.get_mut(func) {
                        frt.browned_out += 1;
                    }
                }
                self.schedule_request_timeout(now, func, req.id, queue);
            }
        }
    }

    fn schedule_request_timeout(
        &self,
        now: SimTime,
        func: FuncId,
        id: RequestId,
        queue: &mut EventQueue<Event>,
    ) {
        if let Some(factor) = self.cfg.request_timeout_factor {
            if let Some(frt) = self.funcs.get(func) {
                // A huge factor scales the SLO to the end of time; the
                // timeout then never fires.
                let deadline = now
                    .checked_add(frt.slo.slo().scale(factor))
                    .unwrap_or(SimTime::MAX);
                queue.schedule(deadline, Event::RequestTimeout(func, id));
            }
        }
    }

    /// Sheds the provably dead queue prefix, then pulls the next request
    /// for an idle pod. With overload control off (or a cold estimator)
    /// this is exactly `gateway.on_pod_idle`.
    fn pull_next(&mut self, now: SimTime, func: FuncId, pod: PodId) -> Option<Request> {
        self.shed_dead_prefix(now, func);
        self.gateway.on_pod_idle(func, pod)
    }

    /// Deadline-aware shedding: drops every queued request whose deadline
    /// is unmeetable even if service started right now, per the EWMA
    /// service-time estimate. Each shed feeds the breaker.
    fn shed_dead_prefix(&mut self, now: SimTime, func: FuncId) {
        if self.cfg.overload.is_none() {
            return;
        }
        let Some(est) = self.funcs.get(func).and_then(|f| f.service_est.mean()) else {
            return; // no completions yet: nothing to estimate with
        };
        let shed = self.gateway.shed_unmeetable(now, func, est);
        if shed.is_empty() {
            return;
        }
        if let Some(frt) = self.funcs.get_mut(func) {
            for r in &shed {
                frt.breaker.on_shed(r.id.0);
            }
        }
    }

    pub(super) fn complete_request(
        &mut self,
        now: SimTime,
        at: PodAt,
        queue: &mut EventQueue<Event>,
    ) {
        let pod = at.pod;
        let Some(rt) = self.pod_rt_mut(at) else {
            debug_assert!(false, "completing on a live pod");
            return;
        };
        let Some(active) = rt.active.take() else {
            debug_assert!(false, "completing a request");
            return;
        };
        let func = rt.func;
        let arrived = active.req.arrived;
        let latency = now - arrived;
        // Terminal state: the gateway drops its retry bookkeeping for
        // this request (a leak otherwise — retry entries must not outlive
        // the requests they describe).
        self.gateway.complete_request(&active.req);
        let Some(frt) = self.funcs.get_mut(func) else {
            debug_assert!(false, "function exists");
            return;
        };
        frt.slo.record(latency);
        frt.completions.record(now, self.cfg.warmup);
        let met = latency <= frt.slo.slo();
        let service = now.saturating_sub(active.started);
        frt.service_est.observe(service);
        if met {
            frt.goodput.record(now, self.cfg.warmup);
        } else {
            // Capacity burned on a request that was already over its SLO:
            // the wasted work overload control exists to avoid.
            frt.wasted_service += service;
        }
        if self.cfg.overload.is_some() && active.req.id.0 < 1 << 60 {
            frt.breaker.on_completion(active.req.id.0, met);
        }
        let saturate = frt.saturate;

        // Terminating pods are deleted as soon as their request finishes.
        if self.cluster.pod(pod).map(|p| p.state) == Ok(PodState::Terminating) {
            self.release_idle(at, queue);
            self.delete_pod(at, queue);
            return;
        }
        // Pull the next request, or park idle.
        match self.pull_next(now, func, pod) {
            Some(req) => self.assign_request(now, at, req, queue),
            None if saturate => {
                let req = self.synth_request(now, func);
                self.assign_request(now, at, req, queue);
            }
            None => self.release_idle(at, queue),
        }
    }

    fn on_metrics_sample(&mut self, now: SimTime, queue: &mut EventQueue<Event>) {
        for n in self.nodes.values_mut() {
            // Land deferred fast-forward boundaries (strictly before
            // `now`; same-instant finishes order after the sample,
            // exactly as their per-kernel events would).
            n.gpu.ff_sync(now);
            n.gpu.metrics_mut().sample(now);
        }
        let counts = self.cluster.pod_counts();
        for (f, rt) in self.funcs.iter_mut() {
            rt.replica_series.push(now, counts.running_of(f) as f64);
        }
        queue.schedule(now + self.cfg.sample_interval, Event::MetricsSample);
    }

    // ----- auto-scaling ------------------------------------------------

    fn on_scale_tick(&mut self, now: SimTime, queue: &mut EventQueue<Event>) {
        queue.schedule(now + self.cfg.autoscale_interval, Event::ScaleTick);
        let Some(db) = self.autoscale_db.take() else {
            return;
        };
        let func_ids: Vec<FuncId> = self.funcs.keys().collect();
        for func in func_ids {
            self.scale_function(now, func, &db, queue);
        }
        self.autoscale_db = Some(db);
    }

    fn scale_function(
        &mut self,
        now: SimTime,
        func: FuncId,
        db: &ProfileDb,
        queue: &mut EventQueue<Event>,
    ) {
        let model_name = &self.funcs[func].spec.model;
        let profile = db.config_points(model_name);
        if profile.is_empty() {
            return;
        }
        let predicted = self
            .gateway
            .predicted_rate(func, now, self.cfg.predict_window)
            * self.cfg.autoscale_headroom;
        let running: Vec<RunningPod> = self
            .cluster
            .running_pods_of(func)
            .into_iter()
            .filter_map(|p| {
                let pod = self.cluster.pod(p).ok()?;
                let sm = pod.resources.sm_partition;
                // Capacity accounting uses the guaranteed share; elastic
                // headroom above the request is a bonus, not a promise.
                let quota = pod.resources.quota_request;
                let rps = db.throughput_of(model_name, sm, quota)?;
                Some(RunningPod {
                    pod: p,
                    config: ConfigPoint { sm, quota, rps },
                })
            })
            .collect();
        let capacity: f64 = running.iter().map(|r| r.config.rps).sum();
        let delta = predicted - capacity;
        let actions = heuristic_scale(delta, &profile, &running);
        let mut remaining = running.len();
        for action in actions {
            match action {
                ScaleAction::Up(p) => {
                    let mem = self.funcs[func].model.memory.total();
                    // Guaranteed share = the profiled quota; the limit is
                    // elastic (the paper's Kubernetes-style allocation:
                    // idle GPU time may be used beyond the request).
                    let spec = ResourceSpec::new(p.sm, p.quota, 1.0, mem);
                    // Placement failure is counted inside create_pod.
                    if self.create_pod(now, func, spec, queue).is_ok() {
                        if let Some(rt) = self.funcs.get_mut(func) {
                            rt.desired_replicas += 1;
                        }
                    }
                }
                ScaleAction::Down(pod) => {
                    if remaining > self.cfg.min_replicas {
                        self.drain_pod(pod, queue);
                        remaining -= 1;
                        let min = self.cfg.min_replicas;
                        if let Some(rt) = self.funcs.get_mut(func) {
                            rt.desired_replicas = rt.desired_replicas.saturating_sub(1).max(min);
                        }
                    }
                }
            }
        }
    }

    // ----- reporting ----------------------------------------------------

    fn build_report(&mut self, now: SimTime) -> PlatformReport {
        // Retry-table leak check: every terminal state clears its entry,
        // so the table can never exceed the live request population.
        if cfg!(debug_assertions) {
            let queued: u64 = self
                .funcs
                .keys()
                .map(|f| u64::try_from(self.gateway.queue_len(f)).unwrap_or(u64::MAX))
                .sum();
            let in_flight =
                u64::try_from(self.all_pods().filter(|p| p.active.is_some()).count())
                    .unwrap_or(u64::MAX);
            debug_assert!(
                self.gateway.retries_total() <= queued + in_flight,
                "gateway retry table leaked: {} entries, {queued} queued, {in_flight} in flight",
                self.gateway.retries_total(),
            );
        }
        // Flush a final metric sample so short runs have data. The report
        // boundary is inclusive: a per-kernel run would have delivered
        // finish events at exactly `now` before the caller could report,
        // so deferred fast-forward boundaries at `now` land first too.
        for n in self.nodes.values_mut() {
            n.gpu.ff_sync_inclusive(now);
            n.gpu.metrics_mut().sample(now);
        }
        let warmup = self.cfg.warmup;
        let counts = self.cluster.pod_counts();
        // fastg-lint: allow(no-btreemap-hot-path)
        let mut functions = BTreeMap::new();
        for (id, rt) in self.funcs.iter() {
            let hist = rt.slo.histogram();
            let steady_rps = rt.completions.rate_since(warmup, now);
            functions.insert(
                id,
                FunctionReport {
                    name: rt.spec.name.clone(),
                    model: rt.spec.model.clone(),
                    arrivals: self.gateway.total_arrivals(id),
                    completed: rt.completions.count(),
                    throughput_rps: steady_rps,
                    p50: hist.quantile(0.5),
                    p95: hist.quantile(0.95),
                    p99: hist.quantile(0.99),
                    max_latency: hist.max(),
                    mean_latency: hist.mean(),
                    slo: rt.slo.slo(),
                    slo_violations: rt.slo.violations(),
                    violation_ratio: rt.slo.violation_ratio(),
                    replicas: counts.running_of(id),
                    replica_series: rt.replica_series.clone(),
                    dropped: self.gateway.dropped(id),
                    rejected: self.gateway.rejected(id),
                    shed_deadline: self.gateway.shed_deadline(id),
                    browned_out: rt.browned_out,
                    breaker_trips: rt.breaker.trips(),
                    good_completions: rt.goodput.count(),
                    goodput_rps: rt.goodput.rate_since(warmup, now),
                    wasted_service: rt.wasted_service,
                    time_to_recovery: rt.recoveries.clone(),
                },
            );
        }
        let mut nodes = Vec::new();
        for id in self.cluster.node_ids() {
            let (Ok(node), Some(nrt)) = (self.cluster.node(id), self.nodes.get(id)) else {
                continue;
            };
            let gpu = &nrt.gpu;
            let m = gpu.metrics();
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
            nodes.push(NodeReport {
                name: node.name.clone(),
                gpu: gpu.spec().name.clone(),
                utilization: series_mean(m.utilization_series()),
                sm_occupancy: series_mean(m.occupancy_series()),
                kernels: m.total_kernels(),
                pods: counts.on_node(id),
                up: !matches!(self.cluster.node_state(id), Ok(NodeState::Down)),
                memory_used: gpu.memory().used(),
                utilization_series: m.utilization_series().clone(),
                occupancy_series: m.occupancy_series().clone(),
            });
        }
        if sanitizer::active() {
            self.sanitize_conservation(&functions);
        }
        PlatformReport {
            duration: now,
            warmup,
            functions,
            nodes,
            unschedulable_pods: self.unschedulable,
            faults_injected: self.faults_injected,
        }
    }

    /// Shadow-check (`FASTG_SANITIZE=1`): the overload conservation
    /// identity at every report flush — every real arrival is accounted
    /// for exactly once across terminal and pending states. Saturating
    /// functions are excluded (their synthetic requests bypass the
    /// gateway's arrival accounting).
    // fastg-lint: allow(no-btreemap-hot-path)
    fn sanitize_conservation(&self, functions: &BTreeMap<FuncId, FunctionReport>) {
        for (&id, fr) in functions {
            if self.funcs.get(id).map_or(true, |rt| rt.saturate) {
                continue;
            }
            let queued = u64::try_from(self.gateway.queue_len(id)).unwrap_or(u64::MAX);
            let in_flight = u64::try_from(
                self.all_pods()
                    .filter(|p| p.func == id)
                    .filter_map(|p| p.active.as_ref())
                    .filter(|a| a.req.id.0 < 1 << 60)
                    .count(),
            )
            .unwrap_or(u64::MAX);
            let accounted = fr.completed
                + fr.rejected
                + fr.shed_deadline
                + fr.dropped
                + queued
                + in_flight;
            sanitizer::check(fr.arrivals == accounted, "overload-conservation", || {
                format!(
                    "function {:?} ({}): arrivals {} != completed {} + rejected {} + shed {} \
                     + dropped {} + queued {} + in_flight {} = {}",
                    id,
                    fr.name,
                    fr.arrivals,
                    fr.completed,
                    fr.rejected,
                    fr.shed_deadline,
                    fr.dropped,
                    queued,
                    in_flight,
                    accounted
                )
            });
        }
    }
}

impl World for Engine {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, queue: &mut EventQueue<Event>) {
        if self.cfg.trace_events {
            self.trace.push(format!("{now:?} {event:?}"));
        }
        self.counts.count(&event);
        match event {
            Event::Arrival(func) => self.on_arrival(now, func, queue),
            // A host phase may complete for a pod that crashed meanwhile.
            Event::HostDone(pod) => self.on_host_done(now, pod, queue),
            Event::KernelFinish(node, kernel) => self.on_kernel_finish(now, node, kernel, queue),
            Event::BurstFastForward(node, pod) => self.on_burst_ff(now, node, pod, queue),
            Event::WindowReset(node) => self.on_window_reset(now, node, queue),
            Event::ScaleTick => self.on_scale_tick(now, queue),
            Event::MetricsSample => self.on_metrics_sample(now, queue),
            Event::Fault(index) => self.on_fault(now, index, queue),
            Event::HealthTick => self.on_health_tick(now, queue),
            Event::RequestTimeout(func, id) => self.on_request_timeout(func, id),
            Event::BreakerTick => self.on_breaker_tick(now, queue),
        }
    }

    /// Runs the pending dispatch pass with the lowest tie key, once the
    /// instant holds no event (a pass no waiter could use is skipped, see
    /// [`Engine::on_dispatch`]). A pass may schedule events at `now` and
    /// poke further passes; the driver delivers those events before the
    /// next call.
    fn end_of_instant(&mut self, now: SimTime, queue: &mut EventQueue<Event>) -> bool {
        if self.dispatch_pending.is_empty() {
            return false;
        }
        let (_, node) = self.dispatch_pending.remove(0);
        if self.cfg.trace_events {
            self.trace.push(format!("{now:?} dispatch pass {node:?}"));
        }
        self.on_dispatch(now, node, queue);
        true
    }
}

/// The user-facing platform façade. See the crate-level example.
pub struct Platform {
    sim: Simulation<Engine>,
}

impl Platform {
    /// Builds a platform: `node_count` worker nodes, each with one GPU, an
    /// MPS server (policy permitting), a FaST Backend and a model storage
    /// server. Metric sampling and (for token policies) quota windows are
    /// armed immediately.
    pub fn new(cfg: PlatformConfig) -> Self {
        // A node-less platform is a configuration bug worth failing fast
        // on at construction, before any simulation state exists.
        assert!( // fastg-lint: allow(no-panic-in-lib)
            !cfg.effective_gpus().is_empty(),
            "a platform needs at least one node"
        );
        let uses_tokens = cfg.policy.uses_tokens();
        let window = cfg.window;
        let sample = cfg.sample_interval;
        // Shuffle permutations are drawn from the scenario seed so two
        // seeds never share an adversarial ordering.
        let tiebreak = cfg.tiebreak.derive(cfg.seed);
        let engine = Engine::new(cfg);
        let mut sim = Simulation::new(engine);
        {
            let (world, queue, _) = sim.parts_mut();
            queue.set_tiebreak(tiebreak);
            queue.set_classifier(|e: &Event| e.class());
            if uses_tokens {
                for node in world.cluster.node_ids() {
                    queue.schedule(window, Event::WindowReset(node));
                }
            }
            queue.schedule(sample, Event::MetricsSample);
            if let Some(plan) = &world.cfg.fault_plan {
                for (i, e) in plan.events().iter().enumerate() {
                    queue.schedule(e.at, Event::Fault(i));
                }
            }
            if world.cfg.recovery {
                queue.schedule(world.cfg.health_interval, Event::HealthTick);
            }
            if let Some(o) = &world.cfg.overload {
                queue.schedule(o.breaker_window, Event::BreakerTick);
            }
        }
        let platform = Platform { sim };
        platform.register_run_context();
        platform
    }

    /// Registers this platform's replay recipe as the sanitizer's run
    /// context on the current thread. A no-op unless the sanitizer is on.
    fn register_run_context(&self) {
        if sanitizer::active() {
            let world = self.sim.world();
            sanitizer::set_run_context(sanitizer::RunContext {
                seed: world.cfg.seed,
                tiebreak: self.sim.queue().tiebreak(),
                fastforward: world.cfg.fastforward,
            });
        }
    }

    /// Deploys a function (FaSTFunc CRD): creates its initial replicas via
    /// node selection and registers them with the gateway and backends.
    pub fn deploy(&mut self, fc: FunctionConfig) -> Result<FuncId, PlatformError> {
        let (world, queue, now) = self.sim.parts_mut();
        world.deploy(now, &fc, queue)
    }

    /// Attaches an open-loop arrival process to a function, replacing
    /// any previous one: the old chain's pending arrival is cancelled,
    /// so two arrival chains never run concurrently.
    pub fn set_load(&mut self, func: FuncId, mut load: ArrivalProcess) {
        let (world, queue, now) = self.sim.parts_mut();
        let Some(rt) = world.funcs.get_mut(func) else {
            debug_assert!(false, "unknown function");
            return;
        };
        if let Some(tok) = rt.arrival_token.take() {
            queue.cancel(tok);
        }
        rt.arrival_token = load
            .next_after(now)
            .map(|t| queue.schedule_cancellable(t, Event::Arrival(func)));
        rt.load = Some(load);
    }

    /// Enables the auto-scaler with the given profile database.
    pub fn enable_autoscaler(&mut self, db: ProfileDb) {
        let (world, queue, now) = self.sim.parts_mut();
        let interval = world.cfg.autoscale_interval;
        world.autoscale_db = Some(db);
        queue.schedule(now + interval, Event::ScaleTick);
    }

    /// Manually reconciles a function to `replicas` pods (scale up with
    /// the function's deploy-time resources, drain newest-first).
    pub fn scale_to(&mut self, func: FuncId, replicas: usize) {
        use fastg_cluster::cluster::ReconcileAction;
        let (world, queue, now) = self.sim.parts_mut();
        if let Some(rt) = world.funcs.get_mut(func) {
            rt.desired_replicas = replicas;
        }
        match world.cluster.reconcile(func, replicas) {
            ReconcileAction::Create(n) => {
                let resources = world.funcs[func].resources;
                for _ in 0..n {
                    let _ = world.create_pod(now, func, resources, queue);
                }
            }
            ReconcileAction::Drain(pods) => {
                for p in pods {
                    world.drain_pod(p, queue);
                }
            }
            ReconcileAction::Steady => {}
        }
    }

    /// Runs for `duration` of simulated time and reports.
    pub fn run_for(&mut self, duration: SimTime) -> PlatformReport {
        // Another platform built later on this thread may have
        // overwritten the sanitizer's recipe.
        self.register_run_context();
        let deadline = self.sim.now() + duration;
        self.sim.run_until(deadline);
        let now = self.sim.now();
        self.sim.world_mut().build_report(now)
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Events processed so far (determinism fingerprinting).
    pub fn events_handled(&self) -> u64 {
        self.sim.events_handled()
    }

    /// Events handled per kind, and dispatch passes run. Outside the
    /// report digest; a clone carries them, a platform restored from a
    /// snapshot counts from zero (see [`HandlerCounts`]).
    pub fn handler_counts(&self) -> HandlerCounts {
        self.sim.world().counts
    }

    /// Pods that could not be placed.
    pub fn unschedulable_pods(&self) -> u64 {
        self.sim.world().unschedulable
    }

    /// Live resource reconfiguration for a function (FaSTPod spec sync):
    /// new `(sm %, quota_request, quota_limit)` applied to every running
    /// pod — MPS partition from the next launch, quotas within the
    /// current window — and to future replicas.
    pub fn reconfigure(
        &mut self,
        func: FuncId,
        sm_partition: f64,
        quota_request: f64,
        quota_limit: f64,
    ) -> Result<(), PlatformError> {
        let mem = self
            .sim
            .world()
            .funcs
            .get(func)
            .ok_or(PlatformError::UnknownFunction)?
            .resources
            .gpu_mem;
        let spec = ResourceSpec::new(sm_partition, quota_request, quota_limit, mem);
        let (world, queue, now) = self.sim.parts_mut();
        world.reconfigure(now, func, spec, queue)
    }

    /// Failure injection: crash a pod immediately. Its in-flight request
    /// retries through the gateway; resident kernels drain before
    /// teardown. Returns whether a live pod was killed.
    pub fn kill_pod(&mut self, pod: fastg_cluster::PodId) -> bool {
        let (world, queue, now) = self.sim.parts_mut();
        world.kill_pod(now, pod, queue)
    }

    /// Running pod ids of a function (targets for [`Self::kill_pod`]).
    pub fn pods_of(&self, func: FuncId) -> Vec<fastg_cluster::PodId> {
        self.sim.world().cluster.running_pods_of(func)
    }

    /// Pods crashed via failure injection so far.
    pub fn killed_pods(&self) -> u64 {
        self.sim.world().killed
    }

    /// Failure injection: power off node `node_index` immediately (same
    /// path the plan's `NodeCrash` takes). Returns whether the node was up.
    pub fn crash_node(&mut self, node_index: usize) -> bool {
        let (world, queue, now) = self.sim.parts_mut();
        let ids = world.cluster.node_ids();
        if node_index >= ids.len() {
            return false;
        }
        world.crash_node(now, ids[node_index], queue)
    }

    /// Whether node `node_index` is still up.
    pub fn node_up(&self, node_index: usize) -> bool {
        let ids = self.sim.world().cluster.node_ids();
        ids.get(node_index)
            .map(|&n| !matches!(self.sim.world().cluster.node_state(n), Ok(NodeState::Down)))
            .unwrap_or(false)
    }

    /// SMs not granted to any resident kernel on a node.
    pub fn node_free_sms(&self, node_index: usize) -> u32 {
        let ids = self.sim.world().cluster.node_ids();
        ids.get(node_index)
            .and_then(|&n| self.sim.world().nodes.get(n))
            .map(|n| n.gpu.free_sms())
            .unwrap_or(0)
    }

    /// Faults fired from the configured plan so far.
    pub fn faults_injected(&self) -> u64 {
        self.sim.world().faults_injected
    }

    /// Bursts the fast-forward layer coalesced into one macro-event.
    pub fn ff_bursts(&self) -> u64 {
        self.sim.world().ff_bursts
    }

    /// Kernel completions covered by coalesced macro-events (per-kernel
    /// events the simulation never had to schedule). Counted as bursts
    /// complete or break, so bursts still in flight do not count yet.
    pub fn coalesced_kernels(&self) -> u64 {
        self.sim.world().ff_coalesced_kernels
    }

    /// Inert: always 0. Cluster-level fast-forward was removed; this
    /// accessor survives only because the `fastg-bench` suite still
    /// reads it, and it goes away together with that suite's
    /// `gpu.cluster_ff_cycles` metric in a later benchmark change.
    pub fn ff_cluster_cycles(&self) -> u64 {
        0
    }

    /// Requests of a function waiting in the gateway queue.
    pub fn queued_requests(&self, func: FuncId) -> usize {
        self.sim.world().gateway.queue_len(func)
    }

    /// Requests of a function shed by the gateway so far.
    pub fn dropped_requests(&self, func: FuncId) -> u64 {
        self.sim.world().gateway.dropped(func)
    }

    /// Requests refused at admission (bounded queue full or breaker
    /// fast-fail).
    pub fn rejected_requests(&self, func: FuncId) -> u64 {
        self.sim.world().gateway.rejected(func)
    }

    /// Requests shed because their deadline was provably unmeetable.
    pub fn shed_requests(&self, func: FuncId) -> u64 {
        self.sim.world().gateway.shed_deadline(func)
    }

    /// The function's circuit-breaker state (`None` if the function is
    /// unknown).
    pub fn breaker_state(&self, func: FuncId) -> Option<BreakerState> {
        self.sim.world().funcs.get(func).map(|f| f.breaker.state())
    }

    /// Times the function's breaker has tripped to Open.
    pub fn breaker_trips(&self, func: FuncId) -> u64 {
        self.sim
            .world()
            .funcs
            .get(func)
            .map(|f| f.breaker.trips())
            .unwrap_or(0)
    }

    /// Whether the function is currently serving browned-out (reduced
    /// quota).
    pub fn brownout_active(&self, func: FuncId) -> bool {
        self.sim
            .world()
            .funcs
            .get(func)
            .is_some_and(|f| f.breaker.browned())
    }

    /// Real (gateway-arrived) requests currently executing on a pod;
    /// synthetic saturating work is excluded.
    pub fn in_flight_requests(&self) -> usize {
        self.sim
            .world()
            .all_pods()
            .filter_map(|rt| rt.active.as_ref())
            .filter(|a| a.req.id.0 < 1 << 60)
            .count()
    }

    /// Running replica count of a function.
    pub fn replicas(&self, func: FuncId) -> usize {
        self.sim.world().cluster.running_pods_of(func).len()
    }

    /// Number of GPUs with at least one pod bound.
    pub fn gpus_in_use(&self) -> usize {
        self.sim.world().selector.gpus_in_use()
    }

    /// Lifetime placement counters of the scheduler.
    pub fn scheduler_stats(&self) -> SchedStats {
        self.sim.world().selector.stats()
    }

    /// Mean spatial fragmentation across GPUs with at least one pod.
    pub fn mean_fragmentation(&self) -> f64 {
        self.sim.world().selector.mean_fragmentation()
    }

    /// Builds a report at the current instant without advancing time.
    pub fn report(&mut self) -> PlatformReport {
        let now = self.sim.now();
        self.sim.world_mut().build_report(now)
    }

    /// The per-event delivery trace (`{time} {event}` lines), recorded
    /// only when [`PlatformConfig::trace_events`] is set. The race
    /// detector diffs two traces to find the first divergent event.
    pub fn event_trace(&self) -> &[String] {
        &self.sim.world().trace
    }

    /// Device memory in use on a node (bytes).
    pub fn node_memory_used(&self, node_index: usize) -> u64 {
        let ids = self.sim.world().cluster.node_ids();
        ids.get(node_index)
            .and_then(|&n| self.sim.world().nodes.get(n))
            .map(|n| n.gpu.memory().used())
            .unwrap_or(0)
    }
}

// ----- checkpoint / fork ------------------------------------------------
//
// Everything below serializes engine state for `Platform::checkpoint`.
// The macro-written impls and every hand-written `snap_state` body
// destructure exhaustively (no `..` rest patterns), so adding a field
// without deciding its snapshot story is a compile error; the
// `exhaustive-snapshot-fields` lint rule keeps the hand-written ones so.

snap_enum!(Event, "event tag" {
    Arrival(func) = 0,
    HostDone(pod) = 1,
    KernelFinish(node, kernel) = 2,
    BurstFastForward(node, pod) = 3,
    WindowReset(node) = 4,
    ScaleTick = 5,
    MetricsSample = 6,
    Fault(index) = 7,
    HealthTick = 8,
    RequestTimeout(func, id) = 9,
    BreakerTick = 10,
});

snap_struct!(FuncRt {
    spec,
    model,
    resources,
    slo,
    completions,
    load,
    saturate,
    replica_series,
    desired_replicas,
    outage_since,
    backoff_exp,
    backoff_until,
    recoveries,
    service_est,
    goodput,
    wasted_service,
    browned_out,
    breaker,
    arrival_token,
    normal_resources,
});

impl Engine {
    /// Serializes the complete engine state. Scratch buffers
    /// (`burst_scratch`, `started_scratch`, `granted_scratch`,
    /// `ready_scratch`) are
    /// recycling caches with no semantic content between events; they
    /// restore empty, and so do the handler counts. The profile table is
    /// rebuilt from the functions on restore.
    ///
    /// The node runtimes go on the wire as the per-node backend table
    /// (a `NodeId`-keyed arena of backends) and the pods as one
    /// `PodId`-keyed arena, the location map's, with each pod's runtime
    /// read from its slot; slots themselves are not encoded.
    fn snap_state(&self, w: &mut SnapWriter) {
        let Self {
            cfg,
            cluster,
            gateway,
            nodes,
            stores,
            selector,
            funcs,
            pod_loc,
            autoscale_db,
            next_func,
            next_synth,
            unschedulable,
            killed,
            faults_injected,
            ff_bursts,
            ff_coalesced_kernels,
            burst_scratch: _,
            started_scratch: _,
            granted_scratch: _,
            ready_scratch: _,
            dispatch_pending,
            counts: _,
            trace,
            profiles: _,
        } = self;
        cfg.snap(w);
        cluster.snap_with(w, |id, w| match nodes.get(id) {
            Some(n) => n.gpu.snap(w),
            None => debug_assert!(false, "runtime per node"),
        });
        gateway.snap(w);
        nodes.snap_with(w, |n, w| n.backend.snap(w));
        stores.snap(w);
        selector.snap_state(w);
        funcs.snap(w);
        pod_loc.snap_with(w, |loc, w| {
            let rt = nodes.get(loc.node).and_then(|n| n.get(loc.slot()));
            match rt {
                Some(rt) => rt.snap_state(w),
                None => debug_assert!(false, "located pod has a runtime"),
            }
        });
        autoscale_db.snap(w);
        w.u32(*next_func);
        w.u64(*next_synth);
        w.u64(*unschedulable);
        w.u64(*killed);
        w.u64(*faults_injected);
        w.u64(*ff_bursts);
        w.u64(*ff_coalesced_kernels);
        dispatch_pending.snap(w);
        trace.snap(w);
    }

    /// Rebuilds an engine from [`Self::snap_state`] output. The scheduler
    /// is reconstructed from the decoded config (its placement policy is
    /// not part of the payload) and then handed its captured planes.
    fn unsnap_state(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let cfg = PlatformConfig::unsnap(r)?;
        // Each node's device is on the wire inside the cluster's node
        // table; it joins the node's backend in its runtime.
        let mut gpus = Vec::new();
        let cluster = Cluster::unsnap_with(r, |id, r| {
            gpus.push((id, GpuDevice::unsnap(r)?));
            Ok(())
        })?;
        let gateway = Gateway::unsnap(r)?;
        let mut gpus = gpus.into_iter().peekable();
        let mut nodes: IdArena<NodeId, NodeRt> = IdArena::unsnap_with(r, |id, r| {
            let backend = FastBackend::unsnap(r)?;
            let gpu = gpus
                .next_if(|&(g, _)| g == id)
                .ok_or(SnapError::new("engine per-node services"))?
                .1;
            Ok(NodeRt::new(backend, gpu))
        })?;
        if gpus.next().is_some() {
            return Err(SnapError::new("engine per-node services"));
        }
        let stores: IdArena<NodeId, ModelStorageServer> = IdArena::unsnap(r)?;
        let mut selector = make_selector(&cfg);
        selector.restore_state(r)?;
        // Functions share their model's profile exactly as after deploy,
        // and the pods' runs below clone the shared `Arc`.
        let mut funcs: IdArena<FuncId, FuncRt> = IdArena::unsnap(r)?;
        let mut profiles = Vec::new();
        for f in funcs.values_mut() {
            f.model = intern_profile(&mut profiles, Arc::clone(&f.model));
            if !f.completions.fits_warmup(cfg.warmup) || !f.goodput.fits_warmup(cfg.warmup) {
                return Err(SnapError::new("function warm-up counters"));
            }
        }
        // Each pod takes a slot in its node's slab, then the backend rows
        // move to their pods' slots.
        let pod_loc = IdArena::unsnap_with(r, |pod, r| {
            let rt = PodRt::unsnap_state(r, |f| funcs.get(f).map(|f| Arc::clone(&f.model)))?;
            let node = rt.node;
            let slot = nodes
                .get_mut(node)
                .ok_or(SnapError::new("pod node"))?
                .insert(pod, rt);
            let slot = u32::try_from(slot).map_err(|_| SnapError::new("pod slot"))?;
            Ok(PodLoc { node, slot })
        })?;
        for n in nodes.values_mut() {
            n.place_backend_rows()?;
        }
        let autoscale_db = Option::unsnap(r)?;
        let next_func = r.u32()?;
        let next_synth = r.u64()?;
        let unschedulable = r.u64()?;
        let killed = r.u64()?;
        let faults_injected = r.u64()?;
        let ff_bursts = r.u64()?;
        let ff_coalesced_kernels = r.u64()?;
        let dispatch_pending: Vec<(u64, NodeId)> = Vec::unsnap(r)?;
        let trace = Vec::unsnap(r)?;
        let node_count = cluster.node_ids().len();
        if nodes.len() != node_count || stores.len() != node_count {
            return Err(SnapError::new("engine per-node services"));
        }
        let keys_ascend = dispatch_pending.windows(2).all(|p| p[0].0 < p[1].0);
        let mut owed: Vec<NodeId> = dispatch_pending.iter().map(|&(_, n)| n).collect();
        owed.sort_unstable();
        owed.dedup();
        if !keys_ascend
            || owed.len() != dispatch_pending.len()
            || owed.iter().any(|&n| nodes.get(n).is_none())
        {
            return Err(SnapError::new("engine dispatch passes"));
        }
        Ok(Engine {
            cfg,
            cluster,
            gateway,
            nodes,
            stores,
            selector,
            funcs,
            pod_loc,
            autoscale_db,
            next_func,
            next_synth,
            unschedulable,
            killed,
            faults_injected,
            ff_bursts,
            ff_coalesced_kernels,
            burst_scratch: Vec::new(),
            started_scratch: Vec::new(),
            granted_scratch: Vec::new(),
            ready_scratch: Vec::new(),
            dispatch_pending,
            counts: HandlerCounts::default(),
            trace,
            profiles,
        })
    }
}

impl Platform {
    /// Captures the complete platform — driver clock, engine state, event
    /// queue — as a versioned, immutable [`Snapshot`].
    ///
    /// The capture is exact, not a quiesced approximation: device
    /// fast-forward timelines, in-flight requests, pending cancellable
    /// events and RNG states are all carried verbatim, so a platform
    /// restored from the snapshot replays the future byte-identically
    /// (equal [`PlatformReport::digest`]) to this one running on.
    pub fn checkpoint(&self) -> Snapshot {
        let mut w = SnapWriter::new();
        self.sim.now().snap(&mut w);
        w.u64(self.sim.events_handled());
        self.sim.world().snap_state(&mut w);
        self.sim.queue().snap_state(&mut w);
        Snapshot::seal(w.finish())
    }

    /// Builds a platform from a [`Snapshot`]: the warm-resume entry point
    /// for state that left the platform as bytes (persisted runs,
    /// suspended successive-halving trials). An in-process fork is a
    /// `clone()` instead, and replays the same future.
    ///
    /// The snapshot carries the resolved [`PlatformConfig`], so restore
    /// is environment-independent: `FASTG_*` variables set at restore
    /// time do not alter a snapshot taken under different ones.
    pub fn from_snapshot(snapshot: &Snapshot) -> Result<Self, SnapError> {
        let mut r = SnapReader::new(snapshot.payload()?);
        let now = SimTime::unsnap(&mut r)?;
        let handled = r.u64()?;
        let engine = Engine::unsnap_state(&mut r)?;
        let mut sim = Simulation::new(engine);
        {
            let (_, queue, _) = sim.parts_mut();
            // The classifier is a function pointer (not serializable);
            // reinstall it before the queue refills. The tie-break policy
            // and sequence counter come from the snapshot itself.
            queue.set_classifier(|e: &Event| e.class());
            queue.restore_state(&mut r)?;
        }
        r.expect_done()?;
        sim.restore_clock(now, handled);
        let platform = Platform { sim };
        platform.register_run_context();
        Ok(platform)
    }

    /// Replaces this platform's entire state with the snapshot's
    /// (successive-halving rewinds survivors this way in place).
    pub fn restore(&mut self, snapshot: &Snapshot) -> Result<(), SnapError> {
        *self = Self::from_snapshot(snapshot)?;
        Ok(())
    }
}

/// An in-process fork: a deep copy of the driver clock, engine and event
/// queue that runs on independently of its source and replays the same
/// future byte for byte, exactly as a [`Platform::from_snapshot`] of a
/// [`Platform::checkpoint`] would. Only the immutable model profiles
/// are shared, by `Arc`. The clone registers its sanitizer context on
/// the thread that makes it, like [`Platform::new`] does.
impl Clone for Platform {
    fn clone(&self) -> Self {
        let platform = Platform {
            sim: self.sim.clone(),
        };
        platform.register_run_context();
        platform
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resnet_platform(policy: SharingPolicy) -> (Platform, FuncId) {
        let mut p = Platform::new(
            PlatformConfig::default()
                .nodes(1)
                .policy(policy)
                .seed(1),
        );
        let f = p
            .deploy(
                FunctionConfig::new("fastsvc-resnet", "resnet50")
                    .slo_ms(200)
                    .replicas(1)
                    .resources(100.0, 1.0, 1.0),
            )
            .unwrap();
        (p, f)
    }

    #[test]
    fn checkpoint_restore_digest_parity() {
        // Straight-through run.
        let (mut straight, f) = resnet_platform(SharingPolicy::FaST);
        straight.set_load(f, ArrivalProcess::poisson(30.0, 3));
        straight.run_for(SimTime::from_secs(2));
        let baseline = straight.run_for(SimTime::from_secs(3));

        // Same scenario, checkpointed mid-run and resumed in a fresh
        // platform: the tail must be byte-identical.
        let (mut p, f) = resnet_platform(SharingPolicy::FaST);
        p.set_load(f, ArrivalProcess::poisson(30.0, 3));
        p.run_for(SimTime::from_secs(2));
        let snap = p.checkpoint();
        let mut resumed = Platform::from_snapshot(&snap).unwrap();
        assert_eq!(resumed.now(), p.now());
        assert_eq!(resumed.events_handled(), p.events_handled());
        let replayed = resumed.run_for(SimTime::from_secs(3));
        assert_eq!(replayed.digest(), baseline.digest());

        // The checkpointed original, running on, agrees too.
        let continued = p.run_for(SimTime::from_secs(3));
        assert_eq!(continued.digest(), baseline.digest());
    }

    #[test]
    fn fork_is_independent() {
        let mut p = Platform::new(PlatformConfig::default().nodes(1).seed(9));
        let f = p
            .deploy(
                FunctionConfig::new("forked", "resnet50")
                    .slo_ms(200)
                    .replicas(1)
                    .resources(25.0, 0.25, 0.25),
            )
            .unwrap();
        p.set_load(f, ArrivalProcess::poisson(25.0, 9));
        p.run_for(SimTime::from_secs(1));
        let mut fork = p.clone();
        // Diverge the fork; the original must not notice.
        fork.scale_to(f, 3);
        fork.run_for(SimTime::from_secs(1));
        let before = p.events_handled();
        let r1 = p.run_for(SimTime::from_secs(1));
        assert!(p.events_handled() > before);
        assert_eq!(p.replicas(f), 1);
        assert_eq!(fork.replicas(f), 3);
        assert!(r1.functions[&f].completed > 0);
    }

    #[test]
    fn snapshot_bytes_round_trip_through_container() {
        let (mut p, f) = resnet_platform(SharingPolicy::FaST);
        p.set_load(f, ArrivalProcess::constant(20.0));
        p.run_for(SimTime::from_secs(1));
        let snap = p.checkpoint();
        let reopened = Snapshot::from_bytes(snap.as_bytes().to_vec()).unwrap();
        let a = Platform::from_snapshot(&snap).unwrap().run_for(SimTime::from_secs(2));
        let b = Platform::from_snapshot(&reopened)
            .unwrap()
            .run_for(SimTime::from_secs(2));
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn single_pod_serves_requests_end_to_end() {
        let (mut p, f) = resnet_platform(SharingPolicy::FaST);
        p.set_load(f, ArrivalProcess::poisson(30.0, 3));
        let report = p.run_for(SimTime::from_secs(5));
        let fr = &report.functions[&f];
        assert!(fr.completed > 100, "completed {}", fr.completed);
        // At 30 rps offered and ~71 rps capacity, all requests complete.
        assert!((fr.throughput_rps - 30.0).abs() < 4.0, "rps {}", fr.throughput_rps);
        assert!(fr.p50 >= SimTime::from_millis(13), "p50 {}", fr.p50);
        assert!(fr.p99 < SimTime::from_millis(100), "p99 {}", fr.p99);
    }

    #[test]
    fn saturating_function_reaches_model_capacity() {
        let mut p = Platform::new(PlatformConfig::default().nodes(1).seed(2));
        let f = p
            .deploy(
                FunctionConfig::new("sat", "resnet50")
                    .resources(100.0, 1.0, 1.0)
                    .saturating(),
            )
            .unwrap();
        let report = p.run_for(SimTime::from_secs(5));
        let fr = &report.functions[&f];
        // Racing single-pod capacity is ~71 rps; token leases cost a
        // little.
        assert!(fr.throughput_rps > 60.0, "rps {}", fr.throughput_rps);
        assert!(fr.throughput_rps < 80.0, "rps {}", fr.throughput_rps);
    }

    #[test]
    fn quota_limits_throughput_proportionally() {
        let mut p = Platform::new(PlatformConfig::default().nodes(1).seed(3));
        let f = p
            .deploy(
                FunctionConfig::new("q40", "resnet50")
                    .resources(100.0, 0.4, 0.4)
                    .saturating(),
            )
            .unwrap();
        let report = p.run_for(SimTime::from_secs(5));
        let fr = &report.functions[&f];
        // ideal: 0.4 / 10ms device = 40 rps.
        assert!(
            (fr.throughput_rps - 40.0).abs() < 6.0,
            "rps {}",
            fr.throughput_rps
        );
    }

    #[test]
    fn exclusive_policy_runs_one_pod() {
        let (mut p, f) = resnet_platform(SharingPolicy::Exclusive);
        p.set_load(f, ArrivalProcess::constant(20.0));
        let report = p.run_for(SimTime::from_secs(3));
        assert!(report.functions[&f].completed > 40);
        // A second pod cannot be deployed on the exclusive node.
        let err = p.deploy(FunctionConfig::new("second", "resnet50"));
        assert!(err.is_err());
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let (mut p, f) = resnet_platform(SharingPolicy::FaST);
            p.set_load(f, ArrivalProcess::poisson(50.0, 9));
            let r = p.run_for(SimTime::from_secs(3));
            (
                p.events_handled(),
                r.functions[&f].completed,
                r.functions[&f].p99,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn scale_to_adds_and_drains_pods() {
        let mut p = Platform::new(PlatformConfig::default().nodes(1).seed(1));
        let f = p
            .deploy(
                FunctionConfig::new("fastsvc-resnet", "resnet50")
                    .slo_ms(200)
                    .replicas(1)
                    .resources(12.0, 1.0, 1.0),
            )
            .unwrap();
        p.scale_to(f, 3);
        assert_eq!(p.replicas(f), 3);
        p.set_load(f, ArrivalProcess::constant(100.0));
        p.run_for(SimTime::from_secs(1));
        p.scale_to(f, 1);
        p.run_for(SimTime::from_secs(2));
        assert_eq!(p.replicas(f), 1);
    }

    /// Requires one profile `Arc` per model: functions 0–2 run
    /// `resnet50` and function 3 `rnnt`, and every in-flight request runs
    /// its function's `Arc`.
    fn assert_one_profile_per_model(p: &Platform, fs: &[FuncId]) {
        let world = p.sim.world();
        let m: Vec<&Arc<ModelProfile>> = fs.iter().map(|&f| &world.funcs[f].model).collect();
        assert!(Arc::ptr_eq(m[0], m[1]) && Arc::ptr_eq(m[1], m[2]));
        assert!(!Arc::ptr_eq(m[0], m[3]));
        let mut active = 0;
        for pod in world.all_pods() {
            if let Some(a) = &pod.active {
                assert!(Arc::ptr_eq(a.run.profile(), &world.funcs[pod.func].model));
                active += 1;
            }
        }
        assert!(active > 0, "no request in flight to check");
    }

    #[test]
    fn functions_of_one_model_share_one_profile() {
        let mut straight = Platform::new(PlatformConfig::default().nodes(2).seed(4));
        let fs: Vec<FuncId> = ["resnet50", "resnet50", "resnet50", "rnnt"]
            .iter()
            .enumerate()
            .map(|(i, model)| {
                let fc = FunctionConfig::new(&format!("f{i}"), model).resources(12.0, 0.25, 0.25);
                straight.deploy(fc).unwrap()
            })
            .collect();
        for &f in &fs {
            straight.set_load(f, ArrivalProcess::constant(300.0));
        }
        straight.run_for(SimTime::from_millis(503));
        assert_one_profile_per_model(&straight, &fs);
        let snap = straight.checkpoint();
        let tail = straight.run_for(SimTime::from_secs(1)).canonical_text();

        let mut restored = Platform::from_snapshot(&snap).unwrap();
        assert_one_profile_per_model(&restored, &fs);
        let mut forked = restored.clone();
        assert_one_profile_per_model(&forked, &fs);
        assert_eq!(restored.run_for(SimTime::from_secs(1)).canonical_text(), tail);
        assert_eq!(forked.run_for(SimTime::from_secs(1)).canonical_text(), tail);
    }

    /// The per-kind handled counts sum to the driver's event count, on a
    /// run that fires every kind but the per-kernel one (fast-forward on)
    /// and on one stepping kernel by kernel. A clone carries the counts;
    /// a platform restored from a snapshot counts from zero.
    #[test]
    fn handler_counts_sum_to_events_handled() {
        use crate::platform::{FaultPlan, OverloadConfig};
        for fastforward in [true, false] {
            let horizon = SimTime::from_secs(3);
            let mut p = Platform::new(
                PlatformConfig::default()
                    .nodes(2)
                    .seed(5)
                    .fastforward(fastforward)
                    .recovery(true)
                    .overload(OverloadConfig::default())
                    .request_timeout_factor(10.0)
                    .fault_plan(FaultPlan::random(5, 4, horizon)),
            );
            let f = p
                .deploy(
                    FunctionConfig::new("counted", "resnet50")
                        .replicas(2)
                        .resources(24.0, 0.5, 0.5),
                )
                .unwrap();
            p.set_load(f, ArrivalProcess::poisson(120.0, 5));
            p.run_for(horizon);
            let c = p.handler_counts();
            assert_eq!(c.events(), p.events_handled(), "fast-forward {fastforward}");
            assert!(c.arrival > 0 && c.host_done > 0 && c.window_reset > 0);
            assert!(c.metrics_sample > 0 && c.fault == 4 && c.health_tick > 0);
            assert!(c.breaker_tick > 0 && c.dispatch_passes > 0);
            if fastforward {
                assert!(c.burst_fast_forward > 0);
            } else {
                assert!(c.kernel_finish > 0 && c.burst_fast_forward == 0);
            }
            assert_eq!(p.clone().handler_counts(), c);
            let restored = Platform::from_snapshot(&p.checkpoint()).unwrap();
            assert_eq!(restored.handler_counts(), HandlerCounts::default());
        }
    }

    /// An owed pass with every waiter quota-blocked is skipped and counted
    /// as such: two pods on one GPU exhaust a 10 % quota under load. A
    /// clone carries the count.
    #[test]
    fn quota_blocked_waiters_skip_owed_passes() {
        let mut p = Platform::new(PlatformConfig::default().nodes(1).seed(3));
        let f = p
            .deploy(
                FunctionConfig::new("blocked", "resnet50")
                    .replicas(2)
                    .resources(24.0, 0.1, 0.1),
            )
            .unwrap();
        p.set_load(f, ArrivalProcess::poisson(200.0, 3));
        p.run_for(SimTime::from_secs(2));
        let c = p.handler_counts();
        assert!(c.dispatch_passes > 0 && c.dispatch_passes_skipped > 0, "{c:?}");
        assert_eq!(p.clone().handler_counts(), c);
    }

    #[test]
    fn unknown_model_rejected() {
        let mut p = Platform::new(PlatformConfig::default());
        assert!(p.deploy(FunctionConfig::new("x", "not-a-model")).is_err());
    }
}

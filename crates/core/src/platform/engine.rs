//! The platform engine: the event loop wiring every component together.

use crate::manager::{
    BackendConfig, BurstEstimator, FastBackend, PodClass, RequestOutcome, SchedPolicy,
    SharingPolicy,
};
use crate::modelshare::{footprint, ModelStorageServer, StoreLib, DEFAULT_CTX_OVERHEAD};
use crate::platform::checkpoint::Snapshot;
use crate::platform::config::{FunctionConfig, PlatformConfig};
use crate::platform::error::PlatformError;
use crate::platform::faults::FaultKind;
use crate::platform::overload::{
    AdmitDecision, BreakerAction, BreakerState, CircuitBreaker, OverloadConfig,
};
use crate::platform::report::{FunctionReport, NodeReport, PlatformReport};
use crate::profiler::ProfileDb;
use crate::scheduler::{
    heuristic_scale, ArenaScheduler, ConfigPoint, NodeSelector, PlacementPolicy, RunningPod,
    ScaleAction, SchedStats, Scheduler,
};
use fastg_cluster::{
    Cluster, FuncId, FaSTFuncSpec, Gateway, NodeId, NodeState, PodId, PodState, Request,
    RequestId, ResourceSpec,
};
use fastg_des::snap::{Snap, SnapError, SnapReader, SnapWriter};
use fastg_des::{
    sanitizer, ArenaKey, CancelToken, EventQueue, IdArena, IdSet, SimTime, Simulation, TimeSeries,
    World,
};
use fastg_gpu::{ClientId, KernelDesc, KernelId, MpsMode};
use fastg_models::{zoo, InferenceRun, ModelProfile, StageOp};
use fastg_workload::{ArrivalProcess, RateMeter, SloTracker};
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
    /// A node's batched token-dispatch pass: grants are decided once per
    /// node per instant, after every same-instant request/release has
    /// landed, so who wins a token never depends on same-instant event
    /// delivery order. Scheduled (deduplicated) by any operation that
    /// frees capacity or queues a waiter.
    Dispatch(NodeId),
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
    /// digest-neutral.
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
            Event::Dispatch(_) => 7,
        }
    }
}

struct FuncRt {
    spec: FaSTFuncSpec,
    model: Arc<ModelProfile>,
    resources: ResourceSpec,
    slo: SloTracker,
    completions: RateMeter,
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
    /// SLO-met completions (goodput).
    goodput: RateMeter,
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

struct ActiveReq {
    req: Request,
    /// When service began (wasted-work accounting excludes queue wait).
    started: SimTime,
    run: InferenceRun,
    /// Stage index (into the run's profile) of a burst waiting for a
    /// token grant. Kept as an index so the hot path never clones the
    /// kernel vector (see [`StageOp`]).
    pending_stage: Option<usize>,
    outstanding: usize,
    burst_gpu_time: SimTime,
    waiting_token: bool,
    /// Cancellation token of the burst's pending macro-event, when the
    /// burst was coalesced by the fast-forward layer.
    ff: Option<CancelToken>,
}

struct PodRt {
    func: FuncId,
    node: NodeId,
    /// The pod's MPS client id, resolved once at creation so the
    /// per-burst launch path skips the cluster pod-table lookup.
    client: ClientId,
    active: Option<ActiveReq>,
    storelib: Option<StoreLib>,
    bound_rect: bool,
    /// A crashed pod whose kernels are still draining on the GPU: the
    /// number of outstanding kernel completions before final teardown.
    zombie: Option<usize>,
}

/// The [`World`] implementation composing cluster, GPUs, manager,
/// scheduler, model sharing and workloads.
pub struct Engine {
    cfg: PlatformConfig,
    cluster: Cluster,
    gateway: Gateway,
    backends: IdArena<NodeId, FastBackend>,
    stores: IdArena<NodeId, ModelStorageServer>,
    /// The placement engine behind the pluggable [`Scheduler`] trait:
    /// the paper's maximal-rects reference ([`NodeSelector`]) or a
    /// guillotine-arena policy ([`ArenaScheduler`]), per
    /// [`PlatformConfig::sched`].
    selector: Box<dyn Scheduler>,
    funcs: IdArena<FuncId, FuncRt>,
    pods: IdArena<PodId, PodRt>,
    autoscale_db: Option<ProfileDb>,
    next_func: u32,
    next_synth: u64,
    unschedulable: u64,
    killed: u64,
    faults_injected: u64,
    /// Bursts coalesced into a single macro-event so far.
    ff_bursts: u64,
    /// Kernel completions those bursts covered (the per-kernel events the
    /// fast-forward layer never had to schedule).
    ff_coalesced_kernels: u64,
    /// Reusable buffer of `(finish_at, KernelFinish)` pairs built while
    /// launching a burst, so a multi-kernel burst costs zero steady-state
    /// allocations before its batched heap push.
    burst_scratch: Vec<(SimTime, Event)>,
    /// Reusable buffer for kernels admitted when a completion frees SMs
    /// (the hottest event in the simulation).
    started_scratch: Vec<fastg_gpu::KernelStart>,
    /// Nodes with a batched [`Event::Dispatch`] pass already scheduled
    /// for the current instant (deduplication set; see
    /// [`Engine::poke_dispatch`]).
    dispatch_pending: IdSet<NodeId>,
    /// Per-event `{time} {event}` lines when `cfg.trace_events` is set
    /// (the race detector's delta-debugging input); empty otherwise.
    trace: Vec<String>,
}

/// Builds the placement engine a config selects. Factored out of
/// [`Engine::new`] because snapshot restore must reconstruct the same
/// engine before handing it its captured state: policy identity is
/// config, not snapshot payload (see [`Scheduler::snap_state`]).
fn make_selector(cfg: &PlatformConfig) -> Box<dyn Scheduler> {
    let time_sharing = matches!(cfg.policy, SharingPolicy::SingleToken);
    if cfg.sched.uses_arena() {
        Box::new(ArenaScheduler::new(cfg.sched, time_sharing))
    } else {
        let placement = if time_sharing {
            PlacementPolicy::TimeSharingOnly
        } else {
            PlacementPolicy::MaximalRectangles
        };
        Box::new(NodeSelector::new(placement))
    }
}

impl Engine {
    fn new(cfg: PlatformConfig) -> Self {
        let mut cluster = Cluster::new();
        let mode = match cfg.policy {
            SharingPolicy::Exclusive => MpsMode::Exclusive,
            _ => MpsMode::Shared,
        };
        let nodes: Vec<NodeId> = cfg
            .effective_gpus()
            .into_iter()
            .map(|spec| cluster.add_node(spec, mode))
            .collect();
        let mut selector = make_selector(&cfg);
        let mut backends = IdArena::new();
        let mut stores = IdArena::new();
        for &n in &nodes {
            selector.add_gpu(n);
            backends.insert(
                n,
                FastBackend::new(BackendConfig {
                    policy: cfg.policy,
                    window: cfg.window,
                    token_lease: cfg.effective_token_lease(),
                    sm_global_limit: cfg.sm_global_limit,
                    deferred_dispatch: true,
                    ..BackendConfig::default()
                }),
            );
            stores.insert(n, ModelStorageServer::new(DEFAULT_CTX_OVERHEAD));
        }
        Engine {
            cfg,
            cluster,
            gateway: Gateway::new(),
            backends,
            stores,
            selector,
            funcs: IdArena::new(),
            pods: IdArena::new(),
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
            dispatch_pending: IdSet::new(),
            trace: Vec::new(),
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
                model: Arc::new(model),
                resources,
                slo: SloTracker::new(fc.slo),
                completions: RateMeter::new(),
                load: None,
                saturate: fc.saturate,
                replica_series: TimeSeries::new(),
                desired_replicas: fc.replicas,
                outage_since: None,
                backoff_exp: 0,
                backoff_until: SimTime::ZERO,
                recoveries: Vec::new(),
                service_est: BurstEstimator::new(BurstEstimator::default_alpha()),
                goodput: RateMeter::new(),
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
        let cluster_ref = &self.cluster;
        let mut mem_fits = |n: NodeId| {
            cluster_ref
                .node(n)
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
        let pod = self.cluster.create_pod(now, node, func, eff, pod_bytes)?;
        let client = self.cluster.pod(pod)?.client;

        // The new client's SM cap may push the node out of the capped
        // regime; fast-forwarded schedules are only exact inside it, so
        // any in-flight macro-event on this node must be invalidated
        // before the pod can contend.
        let regime_ok = self
            .cluster
            .node(node)
            .map(|n| n.gpu.ff_regime_ok())
            .unwrap_or(true);
        if !regime_ok {
            self.ff_break_node(now, node, queue);
        }

        // Model sharing: attach the weights through the store library.
        let storelib = if sharing && weights > 0 {
            let mut lib = StoreLib::new();
            let store = self
                .stores
                .get_mut(node)
                .ok_or(PlatformError::Internal("store missing for node"))?;
            let gpu_mem = self.cluster.node_mut(node)?.gpu.memory_mut();
            lib.attach(store, gpu_mem, &model_name, &[("weights", weights)])?;
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

        // Backend table row (the FaSTPod controller's spec sync). Under
        // the priority co-location policy, pods that burst past their
        // request (quota_request < quota_limit) run as best-effort.
        let class = if self.cfg.sched == SchedPolicy::PriorityColocate
            && resources.quota_request < resources.quota_limit - 1e-9
        {
            PodClass::BestEffort
        } else {
            PodClass::LatencyCritical
        };
        if let Some(backend) = self.backends.get_mut(node) {
            backend.register_class(pod, resources, class);
        } else {
            debug_assert!(false, "backend per node");
        }

        self.gateway.register_pod(func, pod);
        self.pods.insert(
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
        if saturate {
            let req = self.synth_request(now, func);
            self.assign_request(now, pod, req, queue);
        } else if let Some(req) = self.pull_next(now, func, pod) {
            // Backlog may have accumulated while no pod was routable
            // (e.g. every replica crashed); a new pod picks it up
            // immediately instead of waiting for an arrival.
            self.assign_request(now, pod, req, queue);
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
    fn drain_pod(&mut self, now: SimTime, pod: PodId, queue: &mut EventQueue<Event>) {
        let Some(rt) = self.pods.get(pod) else {
            return;
        };
        if rt.zombie.is_some() {
            return; // already being torn down by the crash path
        }
        let func = rt.func;
        self.gateway.deregister_pod(func, pod);
        let _ = self.cluster.begin_terminate(pod);
        if self.pods[pod].active.is_none() {
            self.delete_pod(now, pod, queue);
        }
    }

    fn delete_pod(&mut self, now: SimTime, pod: PodId, queue: &mut EventQueue<Event>) {
        let Some(mut rt) = self.pods.remove(pod) else {
            return;
        };
        debug_assert!(rt.active.is_none(), "deleting pod with a request in flight");
        let node = rt.node;
        let grants = match self.backends.get_mut(node) {
            Some(b) => b.deregister(now, pod),
            None => {
                debug_assert!(false, "backend per node");
                Vec::new()
            }
        };
        if let Some(lib) = rt.storelib.as_mut() {
            if let (Some(store), Ok(n)) = (self.stores.get_mut(node), self.cluster.node_mut(node))
            {
                lib.detach(store, n.gpu.memory_mut());
            } else {
                debug_assert!(false, "store and node outlive their pods");
            }
        }
        if rt.bound_rect {
            self.selector.release(node, pod);
        }
        let deleted = self.cluster.delete_pod(pod);
        debug_assert!(deleted.is_ok(), "pod exists in cluster");
        self.process_grants(now, &grants, queue);
        self.poke_dispatch(now, node, queue);
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
            let node = self.pods[pod].node;
            if !touched.contains(&node) {
                touched.push(node);
            }
        }
        for node in touched {
            self.ff_break_node(now, node, queue);
        }
        for pod in self.cluster.running_pods_of(func) {
            let node = self.pods[pod].node;
            let (client, old) = self.cluster.pod(pod).map(|p| (p.client, p.resources))?;
            // MPS partition: applies from the pod's next kernel launch.
            let gpu = &mut self.cluster.node_mut(node)?.gpu;
            gpu.set_partition(client, eff_sm)?;
            self.cluster.pod_mut(pod)?.resources =
                ResourceSpec::new(eff_sm, resources.quota_request, resources.quota_limit, resources.gpu_mem);
            // Backend table row (quotas take effect within this window).
            self.backends
                .get_mut(node)
                .ok_or(PlatformError::Internal("backend missing for node"))?
                .update_spec(pod, resources);
            // Rectangle binding: swap to the new shape if it fits; keep
            // the old reservation otherwise (conservative).
            if self.pods[pod].bound_rect {
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
        let Some(rt) = self.pods.get_mut(pod) else {
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
        self.ff_break_pod(now, pod, queue);
        self.gateway.deregister_pod(func, pod);
        // The cluster must stop counting the pod as Running right away —
        // otherwise reconciliation would refuse to create replacements
        // while the corpse's kernels drain.
        let _ = self.cluster.begin_terminate(pod);
        let grants = match self.backends.get_mut(node) {
            Some(b) => b.force_deregister(now, pod),
            None => {
                debug_assert!(false, "backend per node");
                Vec::new()
            }
        };
        // Salvage the request, remember how many kernels must drain.
        let mut release_rect = false;
        let (lost_req, outstanding) = match self.pods.get_mut(pod) {
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
            self.teardown_dead_pod(pod);
        }
        // Retry the lost request (synthetic saturating requests are just
        // dropped; a fresh one spawns on whichever pod serves next).
        if let Some(req) = lost_req {
            self.retry_or_shed(now, req, queue);
        }
        self.mark_outage(now, func);
        self.process_grants(now, &grants, queue);
        self.poke_dispatch(now, node, queue);
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
        if let Some(next_pod) = self.gateway.requeue(req) {
            self.assign_request(now, next_pod, req, queue);
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
    fn teardown_dead_pod(&mut self, pod: PodId) {
        let Some(mut rt) = self.pods.remove(pod) else {
            return;
        };
        let node = rt.node;
        if let Some(lib) = rt.storelib.as_mut() {
            if let (Some(store), Ok(n)) = (self.stores.get_mut(node), self.cluster.node_mut(node))
            {
                lib.detach(store, n.gpu.memory_mut());
            } else {
                debug_assert!(false, "store and node outlive their pods");
            }
        }
        let deleted = self.cluster.delete_pod(pod);
        debug_assert!(deleted.is_ok(), "pod exists in cluster");
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
        let Ok(dead) = self.cluster.crash_node(now, node) else {
            debug_assert!(false, "node is up (state checked above)");
            return false;
        };
        let mut lost_reqs = Vec::new();
        let mut affected = Vec::new();
        for pod in &dead {
            self.gateway.deregister_pod(pod.func, pod.id);
            if let Some(mut rt) = self.pods.remove(pod.id) {
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
            self.killed += 1;
        }
        // Control-plane teardown: rectangle bindings, backend table and
        // model store die with the node.
        self.selector.remove_gpu(node);
        self.backends.insert(
            node,
            FastBackend::new(BackendConfig {
                policy: self.cfg.policy,
                window: self.cfg.window,
                token_lease: self.cfg.effective_token_lease(),
                sm_global_limit: self.cfg.sm_global_limit,
                deferred_dispatch: true,
                ..BackendConfig::default()
            }),
        );
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
                let _ = self.cluster.degrade_node(node, factor);
            }
            FaultKind::NodeRecover { node_index } => {
                let ids = self.cluster.node_ids();
                if ids.is_empty() {
                    return;
                }
                let node = ids[node_index % ids.len()];
                self.ff_break_node(now, node, queue);
                let _ = self.cluster.recover_node(node);
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
                self.assign_request(now, pod, req, queue);
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
                let deadline = now + frt.slo.slo().scale(factor);
                queue.schedule(deadline, Event::RequestTimeout(func, id));
            }
        }
    }

    fn assign_request(
        &mut self,
        now: SimTime,
        pod: PodId,
        req: Request,
        queue: &mut EventQueue<Event>,
    ) {
        let Some(rt) = self.pods.get_mut(pod) else {
            debug_assert!(false, "assigning to a live pod");
            return;
        };
        debug_assert!(rt.active.is_none(), "pod {pod:?} already busy");
        let model = Arc::clone(&self.funcs[rt.func].model);
        rt.active = Some(ActiveReq {
            req,
            started: now,
            run: InferenceRun::new(model),
            pending_stage: None,
            outstanding: 0,
            burst_gpu_time: SimTime::ZERO,
            waiting_token: false,
            ff: None,
        });
        self.step_pod(now, pod, queue);
    }

    /// Advances a pod's inference cursor to its next blocking operation
    /// (the cursor itself skips empty phases).
    fn step_pod(&mut self, now: SimTime, pod: PodId, queue: &mut EventQueue<Event>) {
        let Some(rt) = self.pods.get_mut(pod) else {
            debug_assert!(false, "stepping a live pod");
            return;
        };
        let Some(active) = rt.active.as_mut() else {
            debug_assert!(false, "stepping requires a request");
            return;
        };
        match active.run.advance_indexed() {
            StageOp::Host(d) => {
                queue.schedule(now + d, Event::HostDone(pod));
            }
            StageOp::Burst(stage) => {
                active.pending_stage = Some(stage);
                self.try_start_burst(now, pod, queue);
            }
            StageOp::Done => {
                self.complete_request(now, pod, queue);
            }
        }
    }

    fn try_start_burst(&mut self, now: SimTime, pod: PodId, queue: &mut EventQueue<Event>) {
        let node = self.pods[pod].node;
        let Some(backend) = self.backends.get_mut(node) else {
            debug_assert!(false, "backend per node");
            return;
        };
        let Ok((outcome, side_grants)) = backend.request(now, pod) else {
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
                self.launch_burst(now, pod, queue);
            }
            RequestOutcome::Queued | RequestOutcome::BlockedUntilReset => {
                if let Some(active) = self.pods.get_mut(pod).and_then(|rt| rt.active.as_mut()) {
                    active.waiting_token = true;
                } else {
                    debug_assert!(false, "burst belongs to a request");
                }
                self.poke_dispatch(now, node, queue);
            }
        }
        // Capacity released by this request may have admitted other pods.
        self.process_grants(now, &side_grants, queue);
    }

    fn launch_burst(&mut self, now: SimTime, pod: PodId, queue: &mut EventQueue<Event>) {
        let node = self.pods[pod].node;
        let Some(backend) = self.backends.get_mut(node) else {
            debug_assert!(false, "backend per node");
            return;
        };
        if backend.begin_burst(pod).is_err() {
            // Crash teardown raced the grant; the pod is being destroyed.
            return;
        }
        let Some(rt) = self.pods.get_mut(pod) else {
            debug_assert!(false, "pod exists");
            return;
        };
        let Some(active) = rt.active.as_mut() else {
            debug_assert!(false, "burst belongs to a request");
            return;
        };
        active.waiting_token = false;
        let Some(stage) = active.pending_stage.take() else {
            debug_assert!(false, "launching an empty burst");
            return;
        };
        // The profile Arc keeps the kernel specs alive without cloning
        // the spec vector; the cursor guarantees the stage is non-empty.
        let profile = Arc::clone(active.run.profile());
        let kernels = &profile.stages[stage].kernels;
        active.outstanding = kernels.len();
        active.burst_gpu_time = SimTime::ZERO;
        let client = rt.client;
        let Ok(node_rt) = self.cluster.node_mut(node) else {
            debug_assert!(false, "node exists");
            return;
        };
        let gpu = &mut node_rt.gpu;

        // Fast-forward: an uncontended burst in the capped regime is
        // coalesced into one macro-event at its analytic end instead of
        // one KernelFinish per kernel. Any contention change cancels the
        // macro-event and reconstructs per-kernel state (`ff_break_pod`).
        if self.cfg.fastforward {
            let descs = kernels.iter().map(|k| KernelDesc {
                blocks: k.blocks,
                work_per_block: k.work_per_block,
                tag: pod.0,
            });
            if let Some(end) = gpu.fast_forward_burst(now, client, descs) {
                let token = queue.schedule_cancellable(end, Event::BurstFastForward(node, pod));
                if let Some(active) = self.pods.get_mut(pod).and_then(|rt| rt.active.as_mut()) {
                    active.ff = Some(token);
                } else {
                    debug_assert!(false, "burst belongs to a request");
                }
                self.ff_bursts += 1;
                self.ff_coalesced_kernels += u64::try_from(kernels.len()).unwrap_or(u64::MAX);
                return;
            }
        }

        let mut starts = std::mem::take(&mut self.burst_scratch);
        debug_assert!(starts.is_empty(), "scratch drained after each burst");
        for k in kernels {
            let desc = KernelDesc {
                blocks: k.blocks,
                work_per_block: k.work_per_block,
                tag: pod.0,
            };
            match gpu.launch(now, client, desc) {
                Ok(Some(start)) => {
                    starts.push((start.finish_at, Event::KernelFinish(node, start.kernel)));
                }
                Ok(None) => {}
                Err(e) => {
                    // An unlaunchable kernel (client torn down mid-grant)
                    // is dropped instead of crashing the whole run.
                    debug_assert!(false, "kernel launch failed: {e}");
                }
            }
        }
        queue.schedule_batch(starts.drain(..));
        self.burst_scratch = starts;
    }

    fn on_kernel_finish(
        &mut self,
        now: SimTime,
        node: NodeId,
        kernel: KernelId,
        queue: &mut EventQueue<Event>,
    ) {
        let Ok(node_rt) = self.cluster.node_mut(node) else {
            debug_assert!(false, "node exists");
            return;
        };
        // A finish scheduled before the node crashed: the kernel died with
        // the hardware and was already accounted as aborted.
        if node_rt.state == NodeState::Down {
            return;
        }
        let gpu = &mut node_rt.gpu;
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
        let Some(rt) = self.pods.get_mut(pod) else {
            // The pod was deleted while its last kernels drained — cannot
            // happen by construction (deletion requires an idle pod and
            // crashed pods linger as zombies), so surface it loudly in
            // debug builds.
            debug_assert!(false, "kernel completion for unknown pod {pod:?}");
            return;
        };
        // A crashed pod's kernels drain without any request accounting.
        if let Some(outstanding) = rt.zombie.as_mut() {
            *outstanding -= 1;
            if *outstanding == 0 {
                self.teardown_dead_pod(pod);
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
            self.burst_sync_point(now, node, pod, gpu_time, queue);
        }
    }

    /// Synchronization point after a burst's last kernel: report usage to
    /// the backend (maybe losing the lease), admit whoever the released
    /// capacity unblocks, and advance the pod's inference cursor.
    fn burst_sync_point(
        &mut self,
        now: SimTime,
        node: NodeId,
        pod: PodId,
        gpu_time: SimTime,
        queue: &mut EventQueue<Event>,
    ) {
        let sync = self
            .backends
            .get_mut(node)
            .map(|b| b.sync_point(now, pod, gpu_time));
        debug_assert!(sync.is_some(), "backend per node");
        if let Some(Ok(out)) = sync {
            self.process_grants(now, &out.granted, queue);
            // A dropped lease freed SM budget: re-decide token holders at
            // the end of this instant.
            if !out.lease_valid {
                self.poke_dispatch(now, node, queue);
            }
        }
        self.step_pod(now, pod, queue);
    }

    /// Delivers a burst's coalesced macro-event: the analytic end of a
    /// fast-forwarded burst. Every invalidation path cancels the token
    /// first, so a delivered macro-event always finds its timeline.
    fn on_burst_ff(&mut self, now: SimTime, node: NodeId, pod: PodId, queue: &mut EventQueue<Event>) {
        let Some(rt) = self.pods.get_mut(pod) else {
            debug_assert!(false, "macro-event for a dead pod (token not cancelled)");
            return;
        };
        let Some(active) = rt.active.as_mut() else {
            debug_assert!(false, "macro-event without a request");
            return;
        };
        active.ff = None;
        let client = rt.client;
        let Ok(node_rt) = self.cluster.node_mut(node) else {
            debug_assert!(false, "node exists");
            return;
        };
        let Some(done) = node_rt.gpu.ff_complete(now, client) else {
            debug_assert!(false, "macro-event without a timeline (token not cancelled)");
            return;
        };
        let Some(active) = self.pods.get_mut(pod).and_then(|rt| rt.active.as_mut()) else {
            return;
        };
        debug_assert_eq!(
            usize::try_from(done.completed).ok(),
            Some(active.outstanding),
            "macro-event accounts the whole burst"
        );
        active.outstanding = 0;
        active.burst_gpu_time += done.gpu_time;
        let gpu_time = active.burst_gpu_time;
        self.burst_sync_point(now, node, pod, gpu_time, queue);
    }

    /// Invalidates a pod's fast-forwarded burst (if any): cancels its
    /// macro-event, has the device reconstruct exact per-kernel state, and
    /// resumes normal stepping from the materialized mid-flight kernel.
    fn ff_break_pod(&mut self, now: SimTime, pod: PodId, queue: &mut EventQueue<Event>) {
        let Some(rt) = self.pods.get_mut(pod) else {
            return;
        };
        let Some(active) = rt.active.as_mut() else {
            return;
        };
        let Some(token) = active.ff.take() else {
            return;
        };
        let cancelled = queue.cancel(token);
        debug_assert!(cancelled, "macro token is live until broken or delivered");
        let client = rt.client;
        let node = rt.node;
        let Ok(node_rt) = self.cluster.node_mut(node) else {
            debug_assert!(false, "node exists");
            return;
        };
        let Some(brk) = node_rt.gpu.ff_break(now, client) else {
            debug_assert!(false, "live token implies a timeline");
            return;
        };
        queue.schedule(
            brk.resumed.finish_at,
            Event::KernelFinish(node, brk.resumed.kernel),
        );
        if let Some(active) = self.pods.get_mut(pod).and_then(|rt| rt.active.as_mut()) {
            active.outstanding = active
                .outstanding
                .saturating_sub(usize::try_from(brk.completed).unwrap_or(usize::MAX));
            active.burst_gpu_time += brk.gpu_time;
        }
    }

    /// Invalidates every fast-forwarded burst on a node; called before any
    /// contention change (new client, repartition, clock change).
    fn ff_break_node(&mut self, now: SimTime, node: NodeId, queue: &mut EventQueue<Event>) {
        let pods: Vec<PodId> = self
            .pods
            .iter()
            .filter(|(_, rt)| {
                rt.node == node && rt.active.as_ref().is_some_and(|a| a.ff.is_some())
            })
            .map(|(p, _)| p)
            .collect();
        for p in pods {
            self.ff_break_pod(now, p, queue);
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

    fn complete_request(&mut self, now: SimTime, pod: PodId, queue: &mut EventQueue<Event>) {
        let Some(rt) = self.pods.get_mut(pod) else {
            debug_assert!(false, "completing on a live pod");
            return;
        };
        let Some(active) = rt.active.take() else {
            debug_assert!(false, "completing a request");
            return;
        };
        let func = rt.func;
        let node = rt.node;
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
        frt.completions.record(now);
        let met = latency <= frt.slo.slo();
        let service = now.saturating_sub(active.started);
        frt.service_est.observe(service);
        if met {
            frt.goodput.record(now);
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
            let grants = match self.backends.get_mut(node) {
                Some(b) => b.release_idle(now, pod),
                None => {
                    debug_assert!(false, "backend per node");
                    Vec::new()
                }
            };
            self.process_grants(now, &grants, queue);
            self.poke_dispatch(now, node, queue);
            self.delete_pod(now, pod, queue);
            return;
        }
        // Pull the next request, or park idle.
        match self.pull_next(now, func, pod) {
            Some(req) => self.assign_request(now, pod, req, queue),
            None if saturate => {
                let req = self.synth_request(now, func);
                self.assign_request(now, pod, req, queue);
            }
            None => {
                let grants = match self.backends.get_mut(node) {
                    Some(b) => b.release_idle(now, pod),
                    None => {
                        debug_assert!(false, "backend per node");
                        Vec::new()
                    }
                };
                self.process_grants(now, &grants, queue);
                self.poke_dispatch(now, node, queue);
            }
        }
    }

    /// Schedules (at most once per node per instant) the batched
    /// end-of-instant dispatch pass. Called by every operation that may
    /// change who should hold a token: queueing a waiter, releasing a
    /// lease, resetting a window, tearing down a pod. Grant decisions
    /// are thereby a function of the instant's final backend state, not
    /// of same-instant event delivery order.
    fn poke_dispatch(&mut self, now: SimTime, node: NodeId, queue: &mut EventQueue<Event>) {
        if !self.cfg.policy.uses_tokens() {
            return;
        }
        if self.dispatch_pending.insert(node) {
            queue.schedule(now, Event::Dispatch(node));
        }
    }

    /// Delivers a node's batched dispatch pass: one canonical-order walk
    /// of the ready queue, granting tokens until the SM budget stops it.
    fn on_dispatch(&mut self, now: SimTime, node: NodeId, queue: &mut EventQueue<Event>) {
        self.dispatch_pending.remove(node);
        let grants = match self.backends.get_mut(node) {
            Some(b) => b.dispatch_pass(now),
            None => Vec::new(),
        };
        self.process_grants(now, &grants, queue);
    }

    fn process_grants(
        &mut self,
        now: SimTime,
        grants: &[crate::manager::Grant],
        queue: &mut EventQueue<Event>,
    ) {
        for g in grants {
            let has_burst = self
                .pods
                .get(g.pod)
                .and_then(|rt| rt.active.as_ref())
                .is_some_and(|a| a.waiting_token && a.pending_stage.is_some());
            if has_burst {
                self.launch_burst(now, g.pod, queue);
            }
        }
    }

    fn on_window_reset(&mut self, now: SimTime, node: NodeId, queue: &mut EventQueue<Event>) {
        // Quota windows die with the node (and stop rescheduling).
        if matches!(self.cluster.node_state(node), Ok(NodeState::Down)) {
            return;
        }
        let grants = match self.backends.get_mut(node) {
            Some(b) => b.on_window_reset(now),
            None => {
                debug_assert!(false, "backend per node");
                Vec::new()
            }
        };
        self.process_grants(now, &grants, queue);
        self.poke_dispatch(now, node, queue);
        queue.schedule(now + self.cfg.window, Event::WindowReset(node));
    }

    fn on_metrics_sample(&mut self, now: SimTime, queue: &mut EventQueue<Event>) {
        for node in self.cluster.node_ids() {
            if let Ok(n) = self.cluster.node_mut(node) {
                // Land deferred fast-forward boundaries (strictly before
                // `now`; same-instant finishes order after the sample,
                // exactly as their per-kernel events would).
                n.gpu.ff_sync(now);
                n.gpu.metrics_mut().sample(now);
            }
        }
        let counts: Vec<(FuncId, usize)> = self
            .funcs
            .keys()
            .map(|f| (f, self.cluster.running_pods_of(f).len()))
            .collect();
        for (f, n) in counts {
            if let Some(rt) = self.funcs.get_mut(f) {
                rt.replica_series.push(now, n as f64);
            }
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
                        self.drain_pod(now, pod, queue);
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
                u64::try_from(self.pods.values().filter(|p| p.active.is_some()).count())
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
        for node in self.cluster.node_ids() {
            if let Ok(n) = self.cluster.node_mut(node) {
                n.gpu.ff_sync_inclusive(now);
                n.gpu.metrics_mut().sample(now);
            }
        }
        let warmup = self.cfg.warmup;
        // fastg-lint: allow(no-btreemap-hot-path)
        let mut functions = BTreeMap::new();
        for (id, rt) in self.funcs.iter() {
            let hist = rt.slo.histogram();
            let steady_rps = rt.completions.rate_between(warmup, now);
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
                    replicas: self.cluster.running_pods_of(id).len(),
                    replica_series: rt.replica_series.clone(),
                    dropped: self.gateway.dropped(id),
                    rejected: self.gateway.rejected(id),
                    shed_deadline: self.gateway.shed_deadline(id),
                    browned_out: rt.browned_out,
                    breaker_trips: rt.breaker.trips(),
                    good_completions: rt.goodput.count(),
                    goodput_rps: rt.goodput.rate_between(warmup, now),
                    wasted_service: rt.wasted_service,
                    time_to_recovery: rt.recoveries.clone(),
                },
            );
        }
        let mut nodes = Vec::new();
        for id in self.cluster.node_ids() {
            let Ok(node) = self.cluster.node(id) else {
                continue;
            };
            let m = node.gpu.metrics();
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
                gpu: node.gpu.spec().name.clone(),
                utilization: series_mean(m.utilization_series()),
                sm_occupancy: series_mean(m.occupancy_series()),
                kernels: m.total_kernels(),
                pods: self.cluster.pods_on(id).len(),
                up: !matches!(self.cluster.node_state(id), Ok(NodeState::Down)),
                memory_used: node.gpu.memory().used(),
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
                self.pods
                    .values()
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
        match event {
            Event::Arrival(func) => self.on_arrival(now, func, queue),
            // A host phase may complete for a pod that crashed meanwhile.
            Event::HostDone(pod) => {
                let alive = self
                    .pods
                    .get(pod)
                    .is_some_and(|rt| rt.zombie.is_none() && rt.active.is_some());
                if alive {
                    self.step_pod(now, pod, queue);
                }
            }
            Event::KernelFinish(node, kernel) => self.on_kernel_finish(now, node, kernel, queue),
            Event::BurstFastForward(node, pod) => self.on_burst_ff(now, node, pod, queue),
            Event::WindowReset(node) => self.on_window_reset(now, node, queue),
            Event::ScaleTick => self.on_scale_tick(now, queue),
            Event::MetricsSample => self.on_metrics_sample(now, queue),
            Event::Fault(index) => self.on_fault(now, index, queue),
            Event::HealthTick => self.on_health_tick(now, queue),
            Event::RequestTimeout(func, id) => self.on_request_timeout(func, id),
            Event::BreakerTick => self.on_breaker_tick(now, queue),
            Event::Dispatch(node) => self.on_dispatch(now, node, queue),
        }
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
        if sanitizer::active() {
            sanitizer::set_run_context(sanitizer::RunContext {
                seed: cfg.seed,
                tiebreak,
                fastforward: cfg.fastforward,
            });
        }
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
            if let Some(cap) = world.cfg.event_capacity {
                queue.reserve(cap);
            }
        }
        Platform { sim }
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
                    world.drain_pod(now, p, queue);
                }
            }
            ReconcileAction::Steady => {}
        }
    }

    /// Runs for `duration` of simulated time and reports.
    pub fn run_for(&mut self, duration: SimTime) -> PlatformReport {
        if sanitizer::active() {
            // Re-register this platform's replay recipe: another platform
            // built later on this thread may have overwritten it.
            let (world, queue, _) = self.sim.parts_mut();
            sanitizer::set_run_context(sanitizer::RunContext {
                seed: world.cfg.seed,
                tiebreak: queue.tiebreak(),
                fastforward: world.cfg.fastforward,
            });
        }
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
            .and_then(|&n| self.sim.world().cluster.node(n).ok())
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
    /// events the simulation never had to schedule).
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
            .pods
            .values()
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

    /// Name of the active placement policy (e.g. `"paper-algo1"`,
    /// `"fast-path"`).
    pub fn scheduler_name(&self) -> &'static str {
        self.sim.world().selector.name()
    }

    /// Lifetime placement counters of the active scheduler.
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
            .and_then(|&n| self.sim.world().cluster.node(n).ok())
            .map(|n| n.gpu.memory().used())
            .unwrap_or(0)
    }
}

// ----- checkpoint / fork ------------------------------------------------
//
// Everything below serializes engine state for `Platform::checkpoint`.
// Every `snap`/`unsnap` body destructures its struct exhaustively (no
// `..` rest patterns) so adding a field without deciding its snapshot
// story is a compile error, and the `exhaustive-snapshot-fields` lint
// rule keeps it that way.

impl Snap for Event {
    fn snap(&self, w: &mut SnapWriter) {
        match self {
            Event::Arrival(func) => {
                w.u8(0);
                func.snap(w);
            }
            Event::HostDone(pod) => {
                w.u8(1);
                pod.snap(w);
            }
            Event::KernelFinish(node, kernel) => {
                w.u8(2);
                node.snap(w);
                kernel.snap(w);
            }
            Event::BurstFastForward(node, pod) => {
                w.u8(3);
                node.snap(w);
                pod.snap(w);
            }
            Event::WindowReset(node) => {
                w.u8(4);
                node.snap(w);
            }
            Event::ScaleTick => w.u8(5),
            Event::MetricsSample => w.u8(6),
            Event::Fault(index) => {
                w.u8(7);
                w.len_prefix(*index);
            }
            Event::HealthTick => w.u8(8),
            Event::RequestTimeout(func, id) => {
                w.u8(9);
                func.snap(w);
                id.snap(w);
            }
            Event::BreakerTick => w.u8(10),
            Event::Dispatch(node) => {
                w.u8(11);
                node.snap(w);
            }
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => Event::Arrival(FuncId::unsnap(r)?),
            1 => Event::HostDone(PodId::unsnap(r)?),
            2 => Event::KernelFinish(NodeId::unsnap(r)?, KernelId::unsnap(r)?),
            3 => Event::BurstFastForward(NodeId::unsnap(r)?, PodId::unsnap(r)?),
            4 => Event::WindowReset(NodeId::unsnap(r)?),
            5 => Event::ScaleTick,
            6 => Event::MetricsSample,
            7 => Event::Fault(r.len_prefix()?),
            8 => Event::HealthTick,
            9 => Event::RequestTimeout(FuncId::unsnap(r)?, RequestId::unsnap(r)?),
            10 => Event::BreakerTick,
            11 => Event::Dispatch(NodeId::unsnap(r)?),
            // A match over the wire tag, not over `Event`: the wildcard
            // is the mandatory invalid-byte error path.
            // fastg-lint: allow(exhaustive-event-match)
            _ => return Err(SnapError::new("event tag")),
        })
    }
}

impl Snap for FuncRt {
    fn snap(&self, w: &mut SnapWriter) {
        let Self {
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
        } = self;
        spec.snap(w);
        model.snap(w);
        resources.snap(w);
        slo.snap(w);
        completions.snap(w);
        load.snap(w);
        w.bool(*saturate);
        replica_series.snap(w);
        w.len_prefix(*desired_replicas);
        outage_since.snap(w);
        w.u32(*backoff_exp);
        backoff_until.snap(w);
        recoveries.snap(w);
        service_est.snap(w);
        goodput.snap(w);
        wasted_service.snap(w);
        w.u64(*browned_out);
        breaker.snap(w);
        arrival_token.snap(w);
        normal_resources.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(FuncRt {
            spec: FaSTFuncSpec::unsnap(r)?,
            model: Arc::unsnap(r)?,
            resources: ResourceSpec::unsnap(r)?,
            slo: SloTracker::unsnap(r)?,
            completions: RateMeter::unsnap(r)?,
            load: Option::unsnap(r)?,
            saturate: r.bool()?,
            replica_series: TimeSeries::unsnap(r)?,
            desired_replicas: r.len_prefix()?,
            outage_since: Option::unsnap(r)?,
            backoff_exp: r.u32()?,
            backoff_until: SimTime::unsnap(r)?,
            recoveries: Vec::unsnap(r)?,
            service_est: BurstEstimator::unsnap(r)?,
            goodput: RateMeter::unsnap(r)?,
            wasted_service: SimTime::unsnap(r)?,
            browned_out: r.u64()?,
            breaker: CircuitBreaker::unsnap(r)?,
            arrival_token: Option::unsnap(r)?,
            normal_resources: ResourceSpec::unsnap(r)?,
        })
    }
}

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
    fn snap_state(&self, w: &mut SnapWriter) {
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
    /// through the (already decoded) function table.
    fn unsnap_state(
        r: &mut SnapReader<'_>,
        funcs: &IdArena<FuncId, FuncRt>,
    ) -> Result<Self, SnapError> {
        let func = FuncId::unsnap(r)?;
        let node = NodeId::unsnap(r)?;
        let client = ClientId::unsnap(r)?;
        let active = match r.u8()? {
            0 => None,
            1 => {
                let profile = funcs
                    .get(func)
                    .map(|f| Arc::clone(&f.model))
                    .ok_or(SnapError::new("pod function binding"))?;
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

impl Engine {
    /// Serializes the complete engine state. Scratch buffers
    /// (`burst_scratch`, `started_scratch`) are recycling caches with no
    /// semantic content between events; they restore empty.
    fn snap_state(&self, w: &mut SnapWriter) {
        let Self {
            cfg,
            cluster,
            gateway,
            backends,
            stores,
            selector,
            funcs,
            pods,
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
            dispatch_pending,
            trace,
        } = self;
        cfg.snap(w);
        cluster.snap(w);
        gateway.snap(w);
        backends.snap(w);
        stores.snap(w);
        selector.snap_state(w);
        funcs.snap(w);
        pods.snap_with(w, |pod, w| pod.snap_state(w));
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
    /// is reconstructed from the decoded config (policy identity is not
    /// part of the payload) and then handed its captured planes.
    fn unsnap_state(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let cfg = PlatformConfig::unsnap(r)?;
        let cluster = Cluster::unsnap(r)?;
        let gateway = Gateway::unsnap(r)?;
        let backends: IdArena<NodeId, FastBackend> = IdArena::unsnap(r)?;
        let stores: IdArena<NodeId, ModelStorageServer> = IdArena::unsnap(r)?;
        let mut selector = make_selector(&cfg);
        selector.restore_state(r)?;
        let funcs: IdArena<FuncId, FuncRt> = IdArena::unsnap(r)?;
        let pods = IdArena::unsnap_with(r, |_, r| PodRt::unsnap_state(r, &funcs))?;
        let autoscale_db = Option::unsnap(r)?;
        let next_func = r.u32()?;
        let next_synth = r.u64()?;
        let unschedulable = r.u64()?;
        let killed = r.u64()?;
        let faults_injected = r.u64()?;
        let ff_bursts = r.u64()?;
        let ff_coalesced_kernels = r.u64()?;
        let dispatch_pending = IdSet::unsnap(r)?;
        let trace = Vec::unsnap(r)?;
        let nodes = cluster.node_ids().len();
        if backends.len() != nodes || stores.len() != nodes {
            return Err(SnapError::new("engine per-node services"));
        }
        Ok(Engine {
            cfg,
            cluster,
            gateway,
            backends,
            stores,
            selector,
            funcs,
            pods,
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
            dispatch_pending,
            trace,
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

    /// Builds a platform from a [`Snapshot`], the warm-resume entry point
    /// of prefix-shared sweeps: simulate common warmup once, checkpoint,
    /// then fan every treatment cell out from the shared snapshot.
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
            let (world, queue, _) = sim.parts_mut();
            // The classifier is a function pointer (not serializable);
            // reinstall it before the queue refills. The tie-break policy
            // and sequence counter come from the snapshot itself.
            queue.set_classifier(|e: &Event| e.class());
            queue.restore_state(&mut r)?;
            if let Some(cap) = world.cfg.event_capacity {
                queue.reserve(cap);
            }
        }
        r.expect_done()?;
        sim.restore_clock(now, handled);
        if sanitizer::active() {
            let (world, queue, _) = sim.parts_mut();
            sanitizer::set_run_context(sanitizer::RunContext {
                seed: world.cfg.seed,
                tiebreak: queue.tiebreak(),
                fastforward: world.cfg.fastforward,
            });
        }
        Ok(Platform { sim })
    }

    /// Replaces this platform's entire state with the snapshot's
    /// (successive-halving rewinds survivors this way in place).
    pub fn restore(&mut self, snapshot: &Snapshot) -> Result<(), SnapError> {
        *self = Self::from_snapshot(snapshot)?;
        Ok(())
    }

    /// A deep, independent copy of this platform, cloned through the
    /// snapshot path: the fork shares nothing with the original, so
    /// dropping either frees its arenas outright — eliminated sweep
    /// branches actually return their memory.
    pub fn fork(&self) -> Result<Self, SnapError> {
        Self::from_snapshot(&self.checkpoint())
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
        let mut fork = p.fork().unwrap();
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

    #[test]
    fn unknown_model_rejected() {
        let mut p = Platform::new(PlatformConfig::default());
        assert!(p.deploy(FunctionConfig::new("x", "not-a-model")).is_err());
    }
}

//! The platform engine: the event alphabet, the [`Engine`] state and the
//! engine's codec. Its handlers live by level: the node data plane in
//! `node`, the control plane in `deploy`, `lifecycle`, `health`,
//! `autoscale`, `overload` and `report`.

use crate::manager::{BackendConfig, BurstEstimator, FastBackend, Ready, SharingPolicy};
use crate::platform::autoscale::arrival_window_fits;
use crate::platform::config::PlatformConfig;
use crate::platform::lifecycle::FIRST_SYNTHETIC;
use crate::platform::node::NodeRt;
use crate::platform::overload::CircuitBreaker;
use crate::platform::pod::{PodAt, PodRt};
use crate::profiler::ProfileDb;
use crate::scheduler::{NodeSelector, PlacementPolicy, Scheduler};
use fastg_cluster::{FuncId, FaSTFuncSpec, Gateway, NodeId, PodId, RequestId, ResourceSpec};
use fastg_des::snap::{Snap, SnapError, SnapReader, SnapWriter};
use fastg_des::{snap_enum, snap_struct, ArenaKey, CancelToken, EventQueue, IdArena, SimTime, TimeSeries, World};
use fastg_gpu::{GpuDevice, KernelId, MpsMode};
use fastg_models::{zoo, ModelProfile};
use fastg_workload::{ArrivalProcess, SloTracker, WarmupCounter};
use std::collections::VecDeque;
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
    pub(super) fn class(&self) -> u8 {
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

/// Schedules the next firing of a periodic event one `period` after
/// `now`. A tick whose next time overflows the clock never fires again.
pub(super) fn schedule_next(queue: &mut EventQueue<Event>, now: SimTime, period: SimTime, event: Event) {
    if let Some(at) = now.checked_add(period) {
        queue.schedule(at, event);
    }
}

#[derive(Clone)]
pub(super) struct FuncRt {
    pub(super) spec: FaSTFuncSpec,
    pub(super) model: Arc<ModelProfile>,
    pub(super) resources: ResourceSpec,
    pub(super) slo: SloTracker,
    /// Completions, counted against `cfg.warmup`.
    pub(super) completions: WarmupCounter,
    pub(super) load: Option<ArrivalProcess>,
    pub(super) saturate: bool,
    pub(super) replica_series: TimeSeries,
    /// Replica count the recovery controller restores after failures.
    pub(super) desired_replicas: usize,
    /// When the controller first saw this function short of replicas.
    pub(super) outage_since: Option<SimTime>,
    /// Exponential-backoff state for failed recovery attempts.
    pub(super) backoff_exp: u32,
    pub(super) backoff_until: SimTime,
    /// Time-to-recovery of every healed outage.
    pub(super) recoveries: Vec<SimTime>,
    /// EWMA service-time estimate feeding deadline-aware shedding.
    pub(super) service_est: BurstEstimator,
    /// SLO-met completions (goodput), counted against `cfg.warmup`.
    pub(super) goodput: WarmupCounter,
    /// Service time burned on completions that missed their SLO.
    pub(super) wasted_service: SimTime,
    /// Requests admitted while serving browned-out.
    pub(super) browned_out: u64,
    /// The function's circuit breaker (overload control plane).
    pub(super) breaker: CircuitBreaker,
    /// Cancellation token of the function's pending self-timed arrival
    /// event; `set_load` cancels it before installing a new process.
    pub(super) arrival_token: Option<CancelToken>,
    /// Full-quota resources to restore when brownout ends. The snapshot
    /// is taken at brownout entry; an external reconfigure during
    /// brownout is superseded by the restore.
    pub(super) normal_resources: ResourceSpec,
    /// The arrivals the auto-scaler's predictor can still read: those in
    /// `[last − cfg.predict_window, last]`, oldest first, `last` being
    /// the latest (see the `autoscale` module).
    pub(super) arrival_window: VecDeque<SimTime>,
}

/// How many events of each kind the engine has handled, and how many
/// dispatch passes it has run. Plain counters outside the report digest
/// and the snapshot: a clone carries them, a platform restored from a
/// snapshot starts them at zero. Passes are not events; an owed pass
/// skipped because no waiter was grantable counts as skipped, not run.
/// Events a solo pod delivered to itself inline count under their kind,
/// like every other delivery.
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
    /// Bursts whose `BurstFastForward` a solo pod delivered to itself
    /// inline (not events of their own; see the `ahead` module).
    pub solo_steps: u64,
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
            solo_steps: _,
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

/// The [`World`] implementation composing nodes, GPUs, manager,
/// scheduler, model sharing and workloads. Each node has one record, a
/// `NodeRt` (its health, GPU device, backend, model store and pods'
/// records); its hot paths are in the `node` module. A function's
/// running pods are its gateway members.
#[derive(Clone)]
pub struct Engine {
    pub(super) cfg: PlatformConfig,
    pub(super) gateway: Gateway,
    /// Each node's record: its health, GPU device, FaST Backend, model
    /// store and pods' records.
    pub(super) nodes: IdArena<NodeId, NodeRt>,
    /// The paper's Algorithm 2 placement engine.
    pub(super) selector: NodeSelector,
    pub(super) funcs: IdArena<FuncId, FuncRt>,
    /// Where each pod's record lives: `PodId → (node, slot)`.
    pub(super) pod_loc: IdArena<PodId, PodAt>,
    /// The next pod's id: ids follow creation order.
    pub(super) next_pod: u64,
    pub(super) autoscale_db: Option<ProfileDb>,
    pub(super) next_func: u32,
    pub(super) next_synth: u64,
    pub(super) unschedulable: u64,
    pub(super) killed: u64,
    pub(super) faults_injected: u64,
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
    /// Whether solo pods may run ahead (see the `ahead` module) when
    /// fast-forward is on: true, except where a test turns it off to
    /// compare against the queue-stepped run. Not snapshotted; a restored
    /// platform has it on.
    pub(super) run_ahead: bool,
    /// Per-event `{time} {event}` lines when `cfg.trace_events` is set
    /// (the race detector's delta-debugging input); empty otherwise.
    pub(super) trace: Vec<String>,
    /// The zoo profiles built so far, one per model name (see
    /// [`zoo_profile`]). A cache: not snapshotted, refilled by decoding
    /// the functions.
    pub(super) zoo_profiles: Vec<Arc<ModelProfile>>,
}

/// The zoo's profile of the model `name`, built on its first lookup and
/// shared from `cache` after that; `None` if the zoo has no such model.
/// Every function of one model then reads one `Arc`, so a burst loads
/// kernel specs that the model's other functions keep hot. The cache is
/// per platform rather than process-wide: every request clones the `Arc`,
/// and a global profile would bounce its refcount between sweep worker
/// threads. A [`Platform`](super::Platform) clone shares its source's
/// cache (the same `Arc`s), so the cells of a prefix-shared sweep do
/// share profiles across threads; giving each clone its own copies
/// measured no faster on `sweep-fork`.
pub(super) fn zoo_profile(cache: &mut Vec<Arc<ModelProfile>>, name: &str) -> Option<Arc<ModelProfile>> {
    if let Some(p) = cache.iter().find(|p| p.name == name) {
        return Some(Arc::clone(p));
    }
    let p = Arc::new(zoo::by_name(name)?);
    cache.push(Arc::clone(&p));
    Some(p)
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
pub(super) fn make_backend(cfg: &PlatformConfig) -> FastBackend {
    FastBackend::new(BackendConfig {
        policy: cfg.policy,
        window: cfg.window,
        token_lease: cfg.effective_token_lease(),
        sm_global_limit: cfg.sm_global_limit,
        ..BackendConfig::default()
    })
}

impl Engine {
    /// Traces and counts an event delivered at `now`.
    pub(super) fn note(&mut self, now: SimTime, event: &Event) {
        if self.cfg.trace_events {
            self.trace.push(format!("{now:?} {event:?}"));
        }
        self.counts.count(event);
    }

    pub(super) fn new(cfg: PlatformConfig) -> Self {
        let mode = match cfg.policy {
            SharingPolicy::Exclusive => MpsMode::Exclusive,
            _ => MpsMode::Shared,
        };
        let mut selector = make_selector(&cfg);
        let mut nodes = IdArena::new();
        for (i, spec) in cfg.effective_gpus().into_iter().enumerate() {
            let n = NodeId::from_index(i);
            selector.add_gpu(n);
            nodes.insert(n, NodeRt::new(n, make_backend(&cfg), GpuDevice::new(spec, mode)));
        }
        Engine {
            cfg,
            gateway: Gateway::new(),
            nodes,
            selector,
            funcs: IdArena::new(),
            pod_loc: IdArena::new(),
            next_pod: 0,
            autoscale_db: None,
            next_func: 0,
            next_synth: FIRST_SYNTHETIC,
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
            run_ahead: true,
            trace: Vec::new(),
            zoo_profiles: Vec::new(),
        }
    }

    /// The node at `index` in node order.
    pub(super) fn node_at(&self, index: usize) -> Option<NodeId> {
        self.nodes.keys().nth(index)
    }
}

impl World for Engine {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, queue: &mut EventQueue<Event>) {
        self.note(now, &event);
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
    /// `Engine::run_pass`). A pass may schedule events at `now` and
    /// poke further passes; the driver delivers those events before the
    /// next call.
    fn end_of_instant(&mut self, now: SimTime, queue: &mut EventQueue<Event>) -> bool {
        if self.dispatch_pending.is_empty() {
            return false;
        }
        let (_, node) = self.dispatch_pending.remove(0);
        self.run_pass(now, node, queue);
        true
    }
}

// ----- checkpoint -------------------------------------------------------
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

// The model profile is not on the wire: `spec.model` names it, and the
// engine's decode resolves the name through `zoo_profile`.
snap_struct!(FuncRt {
    spec, resources, slo, completions, load, saturate, replica_series, desired_replicas,
    outage_since, backoff_exp, backoff_until, recoveries, service_est, goodput, wasted_service,
    browned_out, breaker, arrival_token, normal_resources, arrival_window,
} skip { model });

impl Engine {
    /// Serializes the complete engine state. Scratch buffers
    /// (`burst_scratch`, `started_scratch`, `granted_scratch`,
    /// `ready_scratch`) are recycling caches with no semantic content
    /// between events; they restore empty, and so do the handler counts.
    /// The run-ahead switch is not state: run-ahead is on after a
    /// restore, and nothing runs ahead between events.
    /// Functions carry their model's name, not its profile, so a
    /// snapshot restores only against a zoo that still has the models it
    /// names.
    ///
    /// Each node goes on the wire as one record
    /// ([`NodeRt::snap_state`]), and each pod as one, its node then its
    /// own record, in one `PodId`-keyed arena, the location map's; slots
    /// themselves are not encoded.
    pub(super) fn snap_state(&self, w: &mut SnapWriter) {
        let Self {
            cfg, gateway, nodes, selector, funcs, pod_loc, next_pod, autoscale_db, next_func,
            next_synth, unschedulable, killed, faults_injected, ff_bursts, ff_coalesced_kernels,
            burst_scratch: _, started_scratch: _, granted_scratch: _, ready_scratch: _,
            dispatch_pending, counts: _, run_ahead: _, trace, zoo_profiles: _,
        } = self;
        cfg.snap(w);
        nodes.snap_with(w, NodeRt::snap_state);
        gateway.snap(w);
        selector.snap_state(w);
        funcs.snap(w);
        pod_loc.snap_with(w, |at, w| {
            at.node.snap(w);
            match nodes.get(at.node).and_then(|n| n.get(at.slot)) {
                Some(rt) => rt.snap_state(w),
                None => debug_assert!(false, "located pod has a record"),
            }
        });
        w.u64(*next_pod);
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

    /// Rebuilds an engine from [`Self::snap_state`] output, taken at
    /// `now`. The scheduler is reconstructed from the decoded config (its
    /// placement policy is not part of the payload) and then handed its
    /// captured planes. The records must agree: see
    /// [`NodeRt::check_decoded`] for a node and its pods, and a
    /// function's gateway members are exactly its pods that neither drain
    /// nor died.
    pub(super) fn unsnap_state(r: &mut SnapReader<'_>, now: SimTime) -> Result<Self, SnapError> {
        let cfg = PlatformConfig::unsnap(r)?;
        let mut nodes = IdArena::unsnap_with(r, NodeRt::unsnap_state)?;
        let gateway = Gateway::unsnap(r)?;
        let mut selector = make_selector(&cfg);
        selector.restore_state(r)?;
        // Functions share their model's profile exactly as after deploy,
        // and the pods' runs below clone the shared `Arc`.
        let mut funcs: IdArena<FuncId, FuncRt> = IdArena::unsnap(r)?;
        let mut zoo_profiles = Vec::new();
        for f in funcs.values_mut() {
            f.model = zoo_profile(&mut zoo_profiles, &f.spec.model).ok_or(SnapError::new("function model"))?;
            if !f.completions.fits_warmup(cfg.warmup) || !f.goodput.fits_warmup(cfg.warmup) {
                return Err(SnapError::new("function warm-up counters"));
            }
            if !arrival_window_fits(&f.arrival_window, now, cfg.predict_window) {
                return Err(SnapError::new("function arrival window"));
            }
        }
        // Each pod takes a slot in its node's slab, then the backend rows
        // move to their pods' slots.
        let mut serving = Vec::new();
        let pod_loc = IdArena::unsnap_with(r, |pod, r| {
            let node = NodeId::unsnap(r)?;
            let rt = PodRt::unsnap_state(r, |f| funcs.get(f).map(|f| Arc::clone(&f.model)))?;
            if !rt.draining && rt.zombie.is_none() {
                serving.push((rt.func, pod));
            }
            let slot = nodes.get_mut(node).ok_or(SnapError::new("pod node"))?.insert(pod, rt);
            Ok(PodAt { pod, node, slot })
        })?;
        let next_pod = r.u64()?;
        if pod_loc.keys().any(|p| p.0 >= next_pod) {
            return Err(SnapError::new("pod id space"));
        }
        for n in nodes.values_mut() {
            n.check_decoded(now)?;
            n.place_backend_rows()?;
        }
        // Each function's member list (sorted, checked by the gateway's
        // decode) holds exactly its serving pods: each serving pod is a
        // member, and no other pod is.
        let members: usize = gateway.funcs().into_iter().map(|f| gateway.member_count(f)).sum();
        if members != serving.len()
            || serving.iter().any(|&(f, pod)| gateway.members(f).binary_search(&pod).is_err())
        {
            return Err(SnapError::new("gateway members"));
        }
        // The remaining fields decode in wire order, which is the order
        // a struct expression evaluates its fields in.
        let engine = Engine {
            cfg,
            gateway,
            nodes,
            selector,
            funcs,
            pod_loc,
            next_pod,
            autoscale_db: Option::unsnap(r)?,
            next_func: r.u32()?,
            next_synth: r.u64()?,
            unschedulable: r.u64()?,
            killed: r.u64()?,
            faults_injected: r.u64()?,
            ff_bursts: r.u64()?,
            ff_coalesced_kernels: r.u64()?,
            burst_scratch: Vec::new(),
            started_scratch: Vec::new(),
            granted_scratch: Vec::new(),
            ready_scratch: Vec::new(),
            dispatch_pending: Vec::unsnap(r)?,
            counts: HandlerCounts::default(),
            run_ahead: true,
            trace: Vec::unsnap(r)?,
            zoo_profiles,
        };
        let pending = &engine.dispatch_pending;
        let keys_ascend = pending.windows(2).all(|p| p[0].0 < p[1].0);
        let mut owed: Vec<NodeId> = pending.iter().map(|&(_, n)| n).collect();
        owed.sort_unstable();
        owed.dedup();
        if !keys_ascend
            || owed.len() != pending.len()
            || owed.iter().any(|&n| engine.nodes.get(n).is_none())
        {
            return Err(SnapError::new("engine dispatch passes"));
        }
        Ok(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{FunctionConfig, Platform, Snapshot};

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

    /// A period whose next tick would overflow the clock ends its tick
    /// instead: the scaler enabled once the clock has moved never ticks.
    #[test]
    fn periodic_ticks_past_the_end_of_time_never_fire() {
        let mut p = Platform::new(PlatformConfig::default().autoscale_interval(SimTime::MAX));
        p.run_for(SimTime::from_millis(1));
        p.enable_autoscaler(ProfileDb::new());
        p.run_for(SimTime::from_secs(1));
        assert_eq!(p.handler_counts().scale_tick, 0);
    }

    /// A health interval so long that the recovery backoff overflows the
    /// clock: the failed recovery is never retried.
    #[test]
    fn recovery_backoff_past_the_end_of_time_never_retries() {
        let half = SimTime::from_micros(u64::MAX / 2);
        let mut p = Platform::new(
            PlatformConfig::default()
                .nodes(1)
                .window(SimTime::MAX)
                .sample_interval(SimTime::MAX)
                .recovery(true)
                .health_interval(half),
        );
        let f = p.deploy(FunctionConfig::new("f", "resnet50")).unwrap();
        assert!(p.crash_node(0));
        // The tick at `half` finds no node for the lost replica and backs
        // off past the end of time.
        p.run_for(half);
        assert_eq!(p.handler_counts().health_tick, 1);
        assert_eq!(p.replicas(f), 0);
    }

    /// Decode refuses a function naming a model the zoo lacks, and an
    /// arrival window `record_arrival` cannot leave: unsorted, later than
    /// the snapshot clock, or holding an arrival the prediction window no
    /// longer reaches. Each forged window below breaks exactly one of the
    /// three, so each row fails if its check is removed.
    #[test]
    fn forged_function_records_are_refused() {
        let (mut p, f) = resnet_platform(SharingPolicy::FaST);
        p.set_load(f, ArrivalProcess::constant(100.0));
        p.run_for(SimTime::from_secs(5));
        let now = p.now();
        let window = p.sim.world().cfg.predict_window;
        let us = SimTime::from_micros;
        let decode = |forge: &dyn Fn(&mut FuncRt)| {
            let mut forged = p.clone();
            forge(&mut forged.sim.world_mut().funcs[f]);
            Platform::from_snapshot(&forged.checkpoint()).map(|_| ()).map_err(|e| e.what)
        };
        let with_window = |times: &[SimTime]| decode(&|rt| rt.arrival_window = times.iter().copied().collect());
        assert_eq!(decode(&|_| ()), Ok(()));
        assert_eq!(with_window(&[now - window, now, now]), Ok(()));
        assert_eq!(decode(&|rt| rt.spec.model = "not-a-model".into()), Err("function model"));
        for (what, times) in [
            ("unsorted", vec![now, now - us(1)]),
            ("after the clock", vec![now + us(1)]),
            ("older than the window", vec![now - window - us(1), now]),
        ] {
            assert_eq!(with_window(&times), Err("function arrival window"), "{what}");
        }
    }

    #[test]
    fn unknown_model_rejected() {
        let mut p = Platform::new(PlatformConfig::default());
        assert!(p.deploy(FunctionConfig::new("x", "not-a-model")).is_err());
    }
}

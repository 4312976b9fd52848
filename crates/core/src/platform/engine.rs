//! The platform engine: the event alphabet, the [`Engine`] state and the
//! engine's codec. Its handlers live by level: the node data plane in
//! `node`, the control plane in `deploy`, `lifecycle`, `health`,
//! `autoscale`, `overload` and `report`.

use crate::manager::{BackendConfig, BurstEstimator, FastBackend, Ready, SharingPolicy};
use crate::platform::ahead::Stretch;
use crate::platform::autoscale::{arrival_window_fits, PREDICT_WINDOW};
use crate::platform::config::PlatformConfig;
use crate::platform::lifecycle::{queue_timer_fits, FIRST_SYNTHETIC};
use crate::platform::node::NodeRt;
use crate::platform::overload::CircuitBreaker;
use crate::platform::pod::{PodAt, PodRt};
use crate::profiler::ProfileDb;
use crate::scheduler::{NodeSelector, PlacementPolicy, Scheduler};
use fastg_cluster::{FuncId, FaSTFuncSpec, Gateway, NodeId, PodId, ResourceSpec};
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
    /// A function's queue timer fires: queued requests whose timeout
    /// has come are shed, unless a newer timer superseded this one.
    QueueTimeout(FuncId),
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
    /// with the default intervals), then queue timeouts, and finally the
    /// data-plane "work" events. A timeout follows the breaker tick, so
    /// its sheds count in the breaker's next window, and precedes the
    /// work events, so a request queued at its timeout instant is shed
    /// before that instant's pulls. All work events share one class:
    /// their relative order stays insertion-seq under FIFO (preserving
    /// fast-forward's materialized-finish semantics exactly), and the
    /// tie-break perturbation policies shuffle only within this class —
    /// which is precisely the orderings the race detector asserts are
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
            Event::QueueTimeout(_) => 6,
            Event::Arrival(_)
            | Event::HostDone(_)
            | Event::KernelFinish(_, _)
            | Event::BurstFastForward(_, _) => 7,
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
    /// The [`fingerprint`] of `model`, as the zoo built it at deploy.
    pub(super) model_fingerprint: u64,
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
    /// EWMA service-time estimate feeding deadline-aware shedding; it
    /// observes completions only under overload control, its one reader.
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
    /// `[last − PREDICT_WINDOW, last]`, oldest first, `last` being
    /// the latest. Recorded only while a scaler is enabled, so empty
    /// without one (see the `autoscale` module).
    pub(super) arrival_window: VecDeque<SimTime>,
    /// The instant of the function's one live queue timer: set while a
    /// `QueueTimeout` is pending there, at or before the timeout of the
    /// request at the head of the queue. A delivered `QueueTimeout` at
    /// any other instant was superseded by an earlier one and does
    /// nothing (see the `lifecycle` module).
    pub(super) queue_timer: Option<SimTime>,
}

impl FuncRt {
    /// The model whose weights the function's pods share through their
    /// node's store: its own under model sharing (`sharing`), else none.
    pub(super) fn shared_model(&self, sharing: bool) -> Option<&str> {
        sharing.then_some(self.spec.model.as_str())
    }
}

/// How many events of each kind the engine has handled, how many
/// dispatch passes it has run, and how much of that ran ahead. Plain
/// counters outside the report digest and the snapshot: a clone carries
/// them, a platform restored from a snapshot starts them at zero. Passes
/// are not events; an owed pass skipped because no waiter was grantable
/// counts as skipped, not run. Events and passes a node's stretch took
/// inline (see the `ahead` module) count under their kind, like every
/// other delivery; the last three counters say how many that was, and
/// only they differ between a run with run-ahead and one without.
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
    /// `QueueTimeout` events, superseded ones included.
    pub queue_timeout: u64,
    /// `BreakerTick` events.
    pub breaker_tick: u64,
    /// End-of-instant token dispatch passes run (not events).
    pub dispatch_passes: u64,
    /// Owed dispatch passes skipped because no waiter was grantable
    /// (every waiter quota-blocked until its window resets).
    pub dispatch_passes_skipped: u64,
    /// Bursts whose `BurstFastForward` a node's stretch delivered without
    /// the heap: kept aside, or delivered the moment the burst launched.
    /// One the stretch took as the queue's head does not count.
    pub inline_bursts: u64,
    /// Stretches opened: a data-plane handler's last step left one of its
    /// node's steps at the queue's head.
    pub stretches: u64,
    /// Stretches that delivered no event: a per-kernel launch in the
    /// node's owed pass stopped them first.
    pub empty_stretches: u64,
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
            queue_timeout,
            breaker_tick,
            dispatch_passes: _,
            dispatch_passes_skipped: _,
            inline_bursts: _,
            stretches: _,
            empty_stretches: _,
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
            + queue_timeout
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
            Event::QueueTimeout(_) => &mut self.queue_timeout,
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
    /// Whether a node's pods may run ahead (see the `ahead` module) when
    /// fast-forward is on: true, except where a test turns it off to
    /// compare against the queue-stepped run. Not snapshotted; a restored
    /// platform has it on.
    pub(super) run_ahead: bool,
    /// The open stretch, if any: the node whose pods step inline and the
    /// steps it keeps aside; closed and empty between events. Not
    /// snapshotted: it changes no result.
    pub(super) stretch: Stretch,
    /// Per-event `{time} {event}` lines when `cfg.trace_events` is set
    /// (the race detector's delta-debugging input); empty otherwise.
    pub(super) trace: Vec<String>,
    /// The zoo profiles built so far, one per model name, each with its
    /// [`fingerprint`] (see [`zoo_profile`]). A cache: not snapshotted,
    /// refilled by decoding the functions.
    pub(super) zoo_profiles: Vec<(Arc<ModelProfile>, u64)>,
}

/// The zoo's profile of the model `name` and its [`fingerprint`], both
/// built on the first lookup and shared from `cache` after that; `None`
/// if the zoo has no such model.
/// Every function of one model then reads one `Arc`, so a burst loads
/// kernel specs that the model's other functions keep hot; a request
/// holds no handle of its own, since its cursor is a stage index. The
/// cache is per platform rather than process-wide. A
/// [`Platform`](super::Platform) clone shares its source's
/// cache (the same `Arc`s), so the cells of a prefix-shared sweep do
/// share profiles across threads; giving each clone its own copies
/// measured no faster on `sweep-fork`.
pub(super) fn zoo_profile(
    cache: &mut Vec<(Arc<ModelProfile>, u64)>,
    name: &str,
) -> Option<(Arc<ModelProfile>, u64)> {
    if let Some((p, print)) = cache.iter().find(|(p, _)| p.name == name) {
        return Some((Arc::clone(p), *print));
    }
    let p = Arc::new(zoo::by_name(name)?);
    let print = fingerprint(&p);
    cache.push((Arc::clone(&p), print));
    Some((p, print))
}

/// FNV-1a, one 64-bit word at a time, over what a run reads from a
/// profile: the name, each stage's host time, kernel count and (uniform)
/// kernel, and the memory footprint. Each step is a bijection of the
/// running hash, so editing any one of these words moves the print. A
/// function's snapshot record carries it, so restoring against a zoo
/// whose profile of that model has since changed fails instead of
/// resuming with other kernels.
fn fingerprint(p: &ModelProfile) -> u64 {
    let count = |n: usize| u64::try_from(n).unwrap_or(u64::MAX);
    let stages = p.stages.iter().flat_map(|s| {
        let (blocks, work) = s.kernels.first().map_or((0, 0), |k| (k.blocks, k.work_per_block.as_micros()));
        [s.host.as_micros(), count(s.kernels.len()), u64::from(blocks), work]
    });
    std::iter::once(count(p.name.len()))
        .chain(p.name.bytes().map(u64::from))
        .chain([count(p.stages.len())])
        .chain(stages)
        .chain([p.memory.runtime_bytes, p.memory.weights_bytes])
        .fold(0xcbf2_9ce4_8422_2325, |h, w| (h ^ w).wrapping_mul(0x0000_0100_0000_01b3))
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
            stretch: Stretch::default(),
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
            Event::QueueTimeout(func) => self.on_queue_timeout(now, func, queue),
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
    QueueTimeout(func) = 9,
    BreakerTick = 10,
});

// The model profile is not on the wire: `spec.model` names it, and the
// engine's decode resolves the name through `zoo_profile` and checks the
// resolved profile against `model_fingerprint`.
snap_struct!(FuncRt {
    spec, model_fingerprint, resources, slo, completions, load, saturate, replica_series,
    desired_replicas, outage_since, backoff_exp, backoff_until, recoveries, service_est, goodput,
    wasted_service, browned_out, breaker, arrival_token, normal_resources, arrival_window,
    queue_timer,
} skip { model });

impl Engine {
    /// Serializes the complete engine state. Scratch buffers
    /// (`burst_scratch`, `started_scratch`, `granted_scratch`,
    /// `ready_scratch`) are recycling caches with no semantic content
    /// between events; they restore empty, and so do the handler counts.
    /// The run-ahead switch is not state: run-ahead is on after a
    /// restore, and no stretch is open between events.
    /// Functions carry their model's name and profile fingerprint, not
    /// the profile, so a snapshot restores only against a zoo that still
    /// has the models it names, profiled as they were.
    ///
    /// Each node goes on the wire as one record (see [`NodeRt`]), and
    /// each pod as one, its node then its own record, in one
    /// `PodId`-keyed arena, the location map's; slots themselves are not
    /// encoded.
    pub(super) fn snap_state(&self, w: &mut SnapWriter) {
        let Self {
            cfg, gateway, nodes, selector, funcs, pod_loc, next_pod, autoscale_db, next_func,
            next_synth, unschedulable, killed, faults_injected, ff_bursts, ff_coalesced_kernels,
            burst_scratch: _, started_scratch: _, granted_scratch: _, ready_scratch: _,
            dispatch_pending, counts: _, run_ahead: _, stretch: _, trace, zoo_profiles: _,
        } = self;
        cfg.snap(w);
        nodes.snap(w);
        gateway.snap(w);
        selector.snap(w);
        funcs.snap(w);
        pod_loc.snap_with(w, |at, w| {
            at.node.snap(w);
            match nodes.get(at.node).and_then(|n| n.get(at.slot)) {
                Some(rt) => rt.snap(w),
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
    /// captured planes. Decode resolves what it builds state from: each
    /// function's model and profile fingerprint, and each pod's function
    /// and node. Then [`Self::check_invariants`] runs the rules that span
    /// the records, once.
    pub(super) fn unsnap_state(r: &mut SnapReader<'_>, now: SimTime) -> Result<Self, SnapError> {
        let cfg = PlatformConfig::unsnap(r)?;
        let mut nodes = IdArena::unsnap_with(r, NodeRt::unsnap_at)?;
        let gateway = Gateway::unsnap(r)?;
        let mut selector = make_selector(&cfg);
        selector.restore_state(r)?;
        // Functions share their model's profile exactly as after deploy;
        // the pods' cursors walk it.
        let mut funcs: IdArena<FuncId, FuncRt> = IdArena::unsnap(r)?;
        let mut zoo_profiles = Vec::new();
        for f in funcs.values_mut() {
            let (model, print) =
                zoo_profile(&mut zoo_profiles, &f.spec.model).ok_or(SnapError::new("function model"))?;
            SnapError::ensure(print == f.model_fingerprint, "function model fingerprint")?;
            f.model = model;
        }
        // Each pod takes a slot in its node's slab, then the backend rows
        // move to their pods' slots.
        let pod_loc = IdArena::unsnap_with(r, |pod, r| {
            let node = NodeId::unsnap(r)?;
            let rt = PodRt::unsnap(r)?;
            SnapError::ensure(funcs.get(rt.func).is_some(), "pod function binding")?;
            let slot = nodes.get_mut(node).ok_or(SnapError::new("pod node"))?.insert(pod, rt);
            Ok(PodAt { pod, node, slot })
        })?;
        for n in nodes.values_mut() {
            n.place_backend_rows();
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
            next_pod: r.u64()?,
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
            stretch: Stretch::default(),
            trace: Vec::unsnap(r)?,
            zoo_profiles,
        };
        engine.check_invariants(now)?;
        Ok(engine)
    }

    /// Every rule that spans the engine's parts, at `now`: decode runs it
    /// once, after each part's own rules ran from its `check`.
    pub(super) fn check_invariants(&self, now: SimTime) -> Result<(), SnapError> {
        for (id, f) in self.funcs.iter() {
            let fits = f.completions.fits_warmup(self.cfg.warmup) && f.goodput.fits_warmup(self.cfg.warmup);
            SnapError::ensure(fits, "function warm-up counters")?;
            let window = arrival_window_fits(&f.arrival_window, now, PREDICT_WINDOW);
            SnapError::ensure(window, "function arrival window")?;
            queue_timer_fits(&self.cfg, f, self.gateway.oldest_queued(id), now)?;
        }
        // Each in-flight request's cursor and pending burst lie within its
        // function's profile.
        for (active, model) in self.all_pods().filter_map(|rt| Some((rt.active.as_ref()?, &self.funcs.get(rt.func)?.model))) {
            SnapError::ensure(active.run.fits(model), "inference cursor stage")?;
            let pending = active.pending_stage.map_or(true, |s| s < model.stages.len());
            SnapError::ensure(pending, "active request pending stage")?;
        }
        SnapError::ensure(self.pod_loc.keys().all(|p| p.0 < self.next_pod), "pod id space")?;
        let shared = |f| self.funcs.get(f).and_then(|f: &FuncRt| f.shared_model(self.cfg.model_sharing));
        self.nodes.values().try_for_each(|n| n.check_invariants(now, shared))?;
        self.check_gateway_members()?;
        // Arrivals are recorded only while a scaler runs.
        let recorded = self.autoscale_db.is_some() || self.funcs.values().all(|f| f.arrival_window.is_empty());
        SnapError::ensure(recorded, "function arrival window without a scaler")?;
        // Owed passes ascend by tie key and name distinct nodes that exist.
        let pending = &self.dispatch_pending;
        let mut owed: Vec<NodeId> = pending.iter().map(|&(_, n)| n).collect();
        owed.sort_unstable();
        let passes = pending.windows(2).all(|p| p[0].0 < p[1].0) && owed.windows(2).all(|n| n[0] < n[1]);
        SnapError::ensure(passes && owed.iter().all(|&n| self.nodes.get(n).is_some()), "engine dispatch passes")?;
        self.check_overload_conservation()?;
        self.check_retry_table()
    }

    /// The whole catalogue, which the sanitizer runs at every metrics
    /// sample and report build: each part's own rules, then the above.
    pub(super) fn check_all(&self, now: SimTime) -> Result<(), SnapError> {
        self.gateway.check_invariants()?;
        self.nodes.values().try_for_each(NodeRt::check_parts)?;
        self.check_invariants(now)
    }

    /// Each function's members are exactly its serving pods: the pods
    /// that neither drain nor died, in ascending order (the gateway's own
    /// rule keeps member lists sorted).
    fn check_gateway_members(&self) -> Result<(), SnapError> {
        let mut serving: Vec<(FuncId, PodId)> = self
            .pod_loc
            .iter()
            .filter_map(|(pod, at)| self.pod_rt(*at).map(|rt| (rt, pod)))
            .filter(|(rt, _)| !rt.draining && rt.zombie.is_none())
            .map(|(rt, pod)| (rt.func, pod))
            .collect();
        serving.sort_unstable();
        let g = &self.gateway;
        let members = g.funcs().into_iter().flat_map(|f| g.members(f).iter().map(move |&pod| (f, pod)));
        SnapError::ensure(serving.into_iter().eq(members), "gateway members")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::pod::ActiveReq;
    use crate::platform::{FunctionConfig, Platform, Snapshot};
    use fastg_models::{InferenceRun, StageOp};

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
    /// `resnet50` and function 3 `rnnt`.
    fn assert_one_profile_per_model(p: &Platform, fs: &[FuncId]) {
        let world = p.sim.world();
        let m: Vec<&Arc<ModelProfile>> = fs.iter().map(|&f| &world.funcs[f].model).collect();
        assert!(Arc::ptr_eq(m[0], m[1]) && Arc::ptr_eq(m[1], m[2]));
        assert!(!Arc::ptr_eq(m[0], m[3]));
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
        use crate::platform::FaultPlan;
        for fastforward in [true, false] {
            let horizon = SimTime::from_secs(3);
            let mut p = Platform::new(
                PlatformConfig::default()
                    .nodes(2)
                    .seed(5)
                    .fastforward(fastforward)
                    .recovery(true)
                    .overload_control(true)
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

    /// Arrivals are recorded only while a scaler is enabled: a function
    /// under load keeps an empty window without one, and after a mid-run
    /// `enable_autoscaler` its window holds exactly the arrivals since.
    #[test]
    fn arrivals_are_recorded_only_while_a_scaler_runs() {
        let (mut p, f) = resnet_platform(SharingPolicy::FaST);
        p.set_load(f, ArrivalProcess::constant(100.0));
        p.run_for(SimTime::from_secs(2));
        let arrivals = |p: &Platform| p.sim.world().gateway.total_arrivals(f);
        let before = arrivals(&p);
        assert!(before > 0);
        assert!(p.sim.world().funcs[f].arrival_window.is_empty());
        let enabled = p.now();
        // An empty profile: the scaler ticks but never acts.
        p.enable_autoscaler(ProfileDb::new());
        p.run_for(SimTime::from_secs(1));
        let window = &p.sim.world().funcs[f].arrival_window;
        assert_eq!(window.len() as u64, arrivals(&p) - before);
        assert!(window.front().is_some_and(|&t| t > enabled), "{:?}", window.front());
        assert!(window.back().is_some_and(|&t| t <= p.now()));
    }

    /// Decode refuses a function naming a model the zoo lacks, one
    /// whose fingerprint differs from the zoo's profile of its model, an
    /// arrival window `record_arrival` cannot leave (unsorted, later
    /// than the snapshot clock, or holding an arrival the prediction
    /// window no longer reaches), and any arrival on a platform without a
    /// scaler. Each forged window below breaks exactly one of the four,
    /// so each row fails if its check is removed.
    #[test]
    fn forged_function_records_are_refused() {
        let (mut p, f) = resnet_platform(SharingPolicy::FaST);
        // An empty profile: the scaler records arrivals but never acts.
        p.enable_autoscaler(ProfileDb::new());
        p.set_load(f, ArrivalProcess::constant(100.0));
        p.run_for(SimTime::from_secs(5));
        assert!(!p.sim.world().funcs[f].arrival_window.is_empty());
        let now = p.now();
        let window = PREDICT_WINDOW;
        let us = SimTime::from_micros;
        let decode = |forge: &dyn Fn(&mut Engine)| {
            let mut forged = p.clone();
            forge(forged.sim.world_mut());
            Platform::from_snapshot(&forged.checkpoint()).map(|_| ()).map_err(|e| e.what)
        };
        let with_func = |forge: &dyn Fn(&mut FuncRt)| decode(&|e| forge(&mut e.funcs[f]));
        let with_window = |times: &[SimTime]| with_func(&|rt| rt.arrival_window = times.iter().copied().collect());
        assert_eq!(decode(&|_| ()), Ok(()));
        assert_eq!(with_window(&[now - window, now, now]), Ok(()));
        assert_eq!(with_func(&|rt| rt.spec.model = "not-a-model".into()), Err("function model"));
        // A record written against another profile of the model.
        assert_eq!(with_func(&|rt| rt.model_fingerprint ^= 1), Err("function model fingerprint"));
        for (what, times) in [
            ("unsorted", vec![now, now - us(1)]),
            ("after the clock", vec![now + us(1)]),
            ("older than the window", vec![now - window - us(1), now]),
        ] {
            assert_eq!(with_window(&times), Err("function arrival window"), "{what}");
        }
        // Without a scaler, an empty window decodes and a recorded one
        // does not.
        let unscaled = |e: &mut Engine| e.autoscale_db = None;
        assert_eq!(
            decode(&|e| {
                unscaled(e);
                e.funcs[f].arrival_window.clear();
            }),
            Ok(())
        );
        assert_eq!(decode(&unscaled), Err("function arrival window without a scaler"));
    }

    /// Decode refuses a queue timer the lifecycle cannot leave: before
    /// the snapshot clock, armed with timeouts off, and missing or later
    /// than the timeout of the request at the head of a non-empty queue.
    /// A timer anywhere from the clock to the head's timeout decodes.
    /// Each refused row breaks exactly one check, so it fails if that
    /// check is removed.
    #[test]
    fn forged_queue_timers_are_refused() {
        let mut p = Platform::new(PlatformConfig::default().nodes(1).seed(6).request_timeout_factor(10.0));
        let f = p
            .deploy(
                FunctionConfig::new("timed", "resnet50")
                    .slo_ms(200)
                    .replicas(1)
                    .resources(100.0, 1.0, 1.0),
            )
            .unwrap();
        p.set_load(f, ArrivalProcess::constant(150.0));
        p.run_for(SimTime::from_secs(1));
        let now = p.now();
        let world = p.sim.world();
        let head = world.gateway.oldest_queued(f).expect("a backlog").arrived + SimTime::from_secs(2);
        assert!(world.funcs[f].queue_timer.is_some_and(|at| now <= at && at <= head));
        let us = SimTime::from_micros;
        let decode = |forge: &dyn Fn(&mut Engine)| {
            let mut forged = p.clone();
            forge(forged.sim.world_mut());
            Platform::from_snapshot(&forged.checkpoint()).map(|_| ()).map_err(|e| e.what)
        };
        let with_timer = |timer: Option<SimTime>| decode(&|e| e.funcs[f].queue_timer = timer);
        assert_eq!(decode(&|_| ()), Ok(()));
        assert_eq!(with_timer(Some(head)), Ok(()));
        assert_eq!(with_timer(Some(now)), Ok(()));
        assert_eq!(with_timer(Some(now - us(1))), Err("queue timer before the snapshot clock"));
        assert_eq!(
            decode(&|e| e.cfg.request_timeout_factor = None),
            Err("queue timer without timeouts")
        );
        for timer in [None, Some(head + us(1))] {
            assert_eq!(with_timer(timer), Err("queue timer missing or after the head's timeout"), "{timer:?}");
        }
    }

    /// Decode refuses a pod bound to no function, and an in-flight
    /// request whose cursor or pending burst is past its model's stages;
    /// a cursor at the end and a pending burst at the last stage decode.
    /// Each row fails if its check is removed.
    #[test]
    fn forged_pod_records_are_refused() {
        let (mut p, f) = resnet_platform(SharingPolicy::FaST);
        p.set_load(f, ArrivalProcess::constant(100.0));
        p.run_for(SimTime::from_millis(503));
        let stages = p.sim.world().funcs[f].model.stages.len();
        let decode = |forge: &dyn Fn(&mut PodRt)| {
            let mut forged = p.clone();
            let world = forged.sim.world_mut();
            let at = *world.pod_loc.values().next().expect("one pod");
            forge(world.pod_rt_mut(at).expect("its record"));
            Platform::from_snapshot(&forged.checkpoint()).map(|_| ()).map_err(|e| e.what)
        };
        fn active(rt: &mut PodRt) -> &mut ActiveReq {
            rt.active.as_mut().expect("a request in flight")
        }
        assert_eq!(decode(&|rt| assert!(rt.active.is_some())), Ok(()));
        assert_eq!(decode(&|rt| rt.func = FuncId(7)), Err("pod function binding"));
        assert_eq!(decode(&|rt| active(rt).pending_stage = Some(stages - 1)), Ok(()));
        assert_eq!(
            decode(&|rt| active(rt).pending_stage = Some(stages)),
            Err("active request pending stage")
        );
        // A cursor walked to the end of `model`'s profile.
        let walked = |model: &str| {
            let profile = zoo::by_name(model).expect("a zoo model");
            let mut run = InferenceRun::default();
            while run.advance_indexed(&profile) != StageOp::Done {}
            run
        };
        let (at_end, past_end) = (walked("resnet50"), walked("rnnt"));
        assert_eq!(decode(&|rt| active(rt).run = at_end), Ok(()));
        assert_eq!(decode(&|rt| active(rt).run = past_end), Err("inference cursor stage"));
    }

    /// Editing any field the fingerprint names moves it.
    #[test]
    fn fingerprint_covers_every_profiled_field() {
        let base = zoo::by_name("resnet50").unwrap();
        let edits: [fn(&mut ModelProfile); 7] = [
            |p| p.name.push('x'),
            |p| p.stages[0].host += SimTime::from_micros(1),
            |p| {
                let k = p.stages[0].kernels[0];
                p.stages[0].kernels.push(k);
            },
            |p| p.stages[0].kernels.iter_mut().for_each(|k| k.blocks += 1),
            |p| {
                for k in &mut p.stages[0].kernels {
                    k.work_per_block += SimTime::from_micros(1);
                }
            },
            |p| p.memory.runtime_bytes += 1,
            |p| p.memory.weights_bytes += 1,
        ];
        for (i, edit) in edits.iter().enumerate() {
            let mut edited = base.clone();
            edit(&mut edited);
            assert_ne!(fingerprint(&edited), fingerprint(&base), "edit {i}");
        }
    }

    #[test]
    fn unknown_model_rejected() {
        let mut p = Platform::new(PlatformConfig::default());
        assert!(p.deploy(FunctionConfig::new("x", "not-a-model")).is_err());
    }
}

//! The user-facing [`Platform`] façade over the engine's simulation:
//! deployment, load, runs and reports, failure injection, read-only
//! accessors, and checkpoint, restore and fork.

use super::checkpoint::Snapshot;
use super::config::{FunctionConfig, PlatformConfig};
use super::engine::{schedule_next, Engine, Event, HandlerCounts};
use super::error::PlatformError;
use super::lifecycle::is_synthetic;
use super::node::NodeRt;
use super::overload::BREAKER_WINDOW;
use super::report::PlatformReport;
use crate::profiler::ProfileDb;
use crate::scheduler::SchedStats;
use fastg_cluster::{FuncId, ResourceSpec};
use fastg_des::snap::{Snap, SnapError, SnapReader, SnapWriter};
use fastg_des::{sanitizer, SimTime, Simulation};
use fastg_workload::ArrivalProcess;

/// The user-facing platform façade. See the crate-level example.
pub struct Platform {
    pub(super) sim: Simulation<Engine>,
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
        // Shuffle permutations are drawn from the scenario seed so two
        // seeds never share an adversarial ordering.
        let tiebreak = cfg.tiebreak.derive(cfg.seed);
        let engine = Engine::new(cfg);
        let mut sim = Simulation::new(engine);
        {
            let (world, queue, _) = sim.parts_mut();
            queue.set_tiebreak(tiebreak);
            queue.set_classifier(|e: &Event| e.class());
            if world.cfg.policy.uses_tokens() {
                for node in world.nodes.keys() {
                    queue.schedule(world.cfg.window, Event::WindowReset(node));
                }
            }
            queue.schedule(world.cfg.sample_interval, Event::MetricsSample);
            if let Some(plan) = &world.cfg.fault_plan {
                for (i, e) in plan.events().iter().enumerate() {
                    queue.schedule(e.at, Event::Fault(i));
                }
            }
            if world.cfg.recovery {
                queue.schedule(world.cfg.health_interval, Event::HealthTick);
            }
            if world.cfg.overload {
                queue.schedule(BREAKER_WINDOW, Event::BreakerTick);
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
        world.autoscale_db = Some(db);
        schedule_next(queue, now, world.cfg.autoscale_interval, Event::ScaleTick);
    }

    /// Manually reconciles a function to `replicas` pods (scale up with
    /// the function's deploy-time resources, drain newest-first: the
    /// highest pod ids).
    pub fn scale_to(&mut self, func: FuncId, replicas: usize) {
        let (world, queue, now) = self.sim.parts_mut();
        if let Some(rt) = world.funcs.get_mut(func) {
            rt.desired_replicas = replicas;
        }
        let running = world.gateway.members(func);
        if let Some(extra) = running.get(replicas..) {
            for pod in extra.iter().rev().copied().collect::<Vec<_>>() {
                world.drain_pod(pod, queue);
            }
        } else {
            let resources = world.funcs[func].resources;
            for _ in running.len()..replicas {
                let _ = world.create_pod(now, func, resources, queue);
            }
        }
    }

    /// Runs for `duration` of simulated time and reports.
    pub fn run_for(&mut self, duration: SimTime) -> PlatformReport {
        // Another platform built later on this thread may have
        // overwritten the sanitizer's recipe.
        self.register_run_context();
        let deadline = self.sim.now() + duration;
        self.sim.run_until(deadline);
        self.report()
    }

    /// Switches solo-pod run-ahead on (the default) or off; off, every
    /// step of every pod goes through the event queue. The parity tests
    /// compare the two.
    #[cfg(test)]
    pub(crate) fn set_run_ahead(&mut self, on: bool) {
        self.sim.world_mut().run_ahead = on;
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
    // fastg-lint: allow(no-test-only-pub) — the only oracle of the run-ahead parity property tests
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
        let func_rt = self.sim.world().funcs.get(func).ok_or(PlatformError::UnknownFunction)?;
        let mem = func_rt.resources.gpu_mem;
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
        self.sim.world().gateway.members(func).to_vec()
    }

    /// Failure injection: power off node `node_index` immediately (same
    /// path the plan's `NodeCrash` takes). Returns whether the node was up.
    pub fn crash_node(&mut self, node_index: usize) -> bool {
        let (world, queue, now) = self.sim.parts_mut();
        world.node_at(node_index).is_some_and(|node| world.crash_node(now, node, queue))
    }

    /// Whether node `node_index` is still up.
    pub fn node_up(&self, node_index: usize) -> bool {
        let world = self.sim.world();
        world
            .node_at(node_index)
            .and_then(|n| world.nodes.get(n))
            .is_some_and(|n| !n.is_down())
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

    /// Real (gateway-arrived) requests currently executing on a pod;
    /// synthetic saturating work is excluded.
    pub fn in_flight_requests(&self) -> usize {
        self.sim
            .world()
            .all_pods()
            .filter_map(|rt| rt.active.as_ref())
            .filter(|a| !is_synthetic(&a.req))
            .count()
    }

    /// Running replica count of a function.
    pub fn replicas(&self, func: FuncId) -> usize {
        self.sim.world().gateway.member_count(func)
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
        let world = self.sim.world();
        world.node_at(node_index).and_then(|n| world.nodes.get(n)).map_or(0, NodeRt::memory_used)
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
        let engine = Engine::unsnap_state(&mut r, now)?;
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
    // fastg-lint: allow(no-test-only-pub) — a checkpoint entry point for ROADMAP item 6's input tests
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
        let platform = Platform { sim: self.sim.clone() };
        platform.register_run_context();
        platform
    }
}

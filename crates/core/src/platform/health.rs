//! Health and faults: fault-plan injection, pod and node crashes, and
//! the recovery controller that restores each function's replicas with
//! exponential backoff.

use super::engine::{make_backend, schedule_next, Engine, Event};
use super::faults::FaultKind;
use crate::scheduler::Scheduler;
use fastg_cluster::{FuncId, NodeId, NodeState, PodId};
use fastg_des::{EventQueue, SimTime};

impl Engine {
    /// Failure injection: the pod crashes right now. Its in-flight
    /// request returns to the gateway (keeping its arrival time, so the
    /// retry latency hits the SLO accounting); kernels already resident
    /// on the GPU drain as a "zombie" before final teardown, exactly as a
    /// dead process's launched work completes on real hardware.
    pub(super) fn kill_pod(&mut self, now: SimTime, pod: PodId, queue: &mut EventQueue<Event>) -> bool {
        let Some(at) = self.locate(pod) else {
            return false;
        };
        // A zombie is already dying.
        let Some(rt) = self.pod_rt(at).filter(|rt| rt.zombie.is_none()) else {
            return false;
        };
        let func = rt.func;
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
        // Salvage the request, remember how many kernels must drain.
        let (lost_req, outstanding, bound) = self
            .nodes
            .get_mut(at.node)
            .and_then(|n| n.kill_pod(at.slot, pod))
            .unwrap_or((None, 0, false)); // unreachable: presence checked above
        if bound {
            self.selector.release(at.node, pod);
        }
        if outstanding == 0 {
            self.teardown_pod(at);
        }
        // Retry the lost request (synthetic saturating requests are just
        // dropped; a fresh one spawns on whichever pod serves next).
        if let Some(req) = lost_req {
            self.retry_or_shed(now, req, queue);
        }
        self.mark_outage(now, func);
        self.poke_dispatch(at.node, queue);
        true
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

    /// Node-level failure: the node powers off. Every pod on it dies
    /// immediately — resident kernels abort with the hardware, so unlike
    /// a pod crash there is no zombie drain. The node's backend and model
    /// store are replaced with fresh instances, its GPU leaves the
    /// placement pool, and each lost in-flight request retries on a
    /// surviving replica (or is shed once over its retry budget).
    pub(super) fn crash_node(&mut self, now: SimTime, node: NodeId, queue: &mut EventQueue<Event>) -> bool {
        if !matches!(self.cluster.node_state(node), Ok(s) if s != NodeState::Down) {
            return false;
        }
        // Hardware teardown: marks the node Down, hard-resets its GPU and
        // removes all its pods from the cluster.
        let Some(Ok(dead)) = self.nodes.get_mut(node).map(|n| n.crash(&mut self.cluster, now)) else {
            debug_assert!(false, "an up node has a runtime");
            return false;
        };
        let mut lost_reqs = Vec::new();
        let mut affected = Vec::new();
        for pod in &dead {
            self.gateway.deregister_pod(pod.func, pod.id);
            let at = self.locate(pod.id);
            let rt = at.and_then(|at| {
                self.pod_loc.remove(at.pod)?;
                self.nodes.get_mut(at.node)?.remove(at.slot)
            });
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
            self.nodes.insert(node, old.reboot(make_backend(&self.cfg)));
        }
        for req in lost_reqs {
            self.retry_or_shed(now, req, queue);
        }
        for func in affected {
            self.mark_outage(now, func);
        }
        true
    }

    /// The node a fault plan names: plan indices wrap around the
    /// topology.
    fn plan_node(&self, index: usize) -> Option<NodeId> {
        index
            .checked_rem(self.nodes.len())
            .and_then(|i| self.node_at(i))
    }

    /// A clock fault on `node` (see [`NodeRt::reclock`](super::node::NodeRt::reclock)).
    /// A clock change redraws every future kernel duration, so analytic
    /// schedules on the node are no longer exact and break first.
    fn reclock(&mut self, now: SimTime, node: NodeId, factor: Option<f64>, queue: &mut EventQueue<Event>) {
        self.ff_break_node(now, node, queue);
        if let Some(n) = self.nodes.get_mut(node) {
            n.reclock(&mut self.cluster, factor);
        }
    }

    /// Fires entry `index` of the configured fault plan.
    pub(super) fn on_fault(&mut self, now: SimTime, index: usize, queue: &mut EventQueue<Event>) {
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
                // Plan indices wrap around the deployed functions too.
                let func = func_index.checked_rem(self.funcs.len()).and_then(|i| self.funcs.keys().nth(i));
                if let Some(victim) = func.and_then(|f| self.cluster.running_pods_of(f).first().copied()) {
                    self.kill_pod(now, victim, queue);
                }
            }
            FaultKind::NodeCrash { node_index } => {
                if let Some(node) = self.plan_node(node_index) {
                    self.crash_node(now, node, queue);
                }
            }
            FaultKind::NodeDegrade { node_index, factor } => {
                if let Some(node) = self.plan_node(node_index) {
                    self.reclock(now, node, Some(factor), queue);
                }
            }
            FaultKind::NodeRecover { node_index } => {
                if let Some(node) = self.plan_node(node_index) {
                    self.reclock(now, node, None, queue);
                }
            }
        }
    }

    /// The recovery controller: one health check pass over every function.
    pub(super) fn on_health_tick(&mut self, now: SimTime, queue: &mut EventQueue<Event>) {
        schedule_next(queue, now, self.cfg.health_interval, Event::HealthTick);
        let func_ids: Vec<FuncId> = self.funcs.keys().collect();
        for func in func_ids {
            self.heal_function(now, func, queue);
        }
    }

    /// Compares a function's running replicas against its desired count
    /// and reschedules the missing ones via the regular pod-creation path
    /// (Algorithm 2 node selection over surviving nodes). Placement
    /// failures back off exponentially; a backoff past the end of time
    /// never retries. A fully restored function records its
    /// time-to-recovery, also when it healed outside the controller (e.g.
    /// the auto-scaler re-created capacity first).
    fn heal_function(&mut self, now: SimTime, func: FuncId, queue: &mut EventQueue<Event>) {
        let Some(rt) = self.funcs.get(func) else {
            debug_assert!(false, "function exists");
            return;
        };
        let desired = rt.desired_replicas;
        let resources = rt.resources;
        let backoff_until = rt.backoff_until;
        let running = self.cluster.running_pods_of(func).len();
        let mut failed = false;
        if running < desired {
            let Some(rt) = self.funcs.get_mut(func) else {
                return;
            };
            let start = *rt.outage_since.get_or_insert(now);
            // Health probes have at least one interval of detection
            // latency: an outage observed the instant it happened is
            // repaired on the next tick, so time-to-recovery is never zero.
            if now <= start || now < backoff_until {
                return;
            }
            for _ in running..desired {
                if self.create_pod(now, func, resources, queue).is_err() {
                    failed = true;
                    break;
                }
            }
        }
        let interval = self.cfg.health_interval.as_micros();
        let Some(rt) = self.funcs.get_mut(func) else {
            return;
        };
        if failed {
            rt.backoff_exp = (rt.backoff_exp + 1).min(6);
            rt.backoff_until = interval
                .checked_mul(1 << rt.backoff_exp)
                .and_then(|d| now.checked_add(SimTime::from_micros(d)))
                .unwrap_or(SimTime::MAX);
        } else if let Some(start) = rt.outage_since.take() {
            rt.recoveries.push(now.saturating_sub(start));
            rt.backoff_exp = 0;
            rt.backoff_until = SimTime::ZERO;
        }
    }
}

//! Deployment, the FaSTPod controller's side of the control plane:
//! functions and their pods, node selection (Algorithm 2) and rectangle
//! binding, draining and teardown, and live spec sync.

use super::engine::{intern_profile, Engine, Event, FuncRt};
use super::config::FunctionConfig;
use super::error::PlatformError;
use super::overload::CircuitBreaker;
use super::pod::{PodAt, PodRt};
use crate::manager::BurstEstimator;
use crate::modelshare::{footprint, DEFAULT_CTX_OVERHEAD};
use crate::scheduler::Scheduler;
use fastg_cluster::{FaSTFuncSpec, FuncId, NodeId, PodId, ResourceSpec};
use fastg_des::{EventQueue, SimTime, TimeSeries};
use fastg_models::zoo;
use fastg_workload::{SloTracker, WarmupCounter};
use std::sync::Arc;

impl Engine {
    pub(super) fn deploy(
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

    /// The spec a pod registers with MPS: policies without spatial
    /// partitioning register at 100 % active threads.
    fn mps_spec(&self, r: ResourceSpec) -> ResourceSpec {
        let sm = if self.cfg.policy.uses_partitions() {
            r.sm_partition
        } else {
            100.0
        };
        ResourceSpec::new(sm, r.quota_request, r.quota_limit, r.gpu_mem)
    }

    /// Creates one pod: node selection, the node's share of the pod
    /// (cluster/MPS/memory setup, model sharing attach, backend
    /// registration), rectangle binding, gateway routing, and (for
    /// saturating functions) the first request.
    pub(super) fn create_pod(
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
        let store_bytes = footprint::server_reservation(mem, DEFAULT_CTX_OVERHEAD);
        let saturate = rt.saturate;

        // Memory feasibility per node: the pod's private reservation plus,
        // if this node's store does not yet hold the model, the shared
        // weights + storage context.
        let shared = sharing.then_some((model_name.as_str(), store_bytes));
        let mut mem_fits =
            |n: NodeId| self.nodes.get(n).is_some_and(|node| node.fits(pod_bytes, shared));

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

        let spec = self.mps_spec(resources);
        let nrt = self
            .nodes
            .get_mut(node)
            .ok_or(PlatformError::Internal("runtime missing for node"))?;
        let attach = (sharing && weights > 0).then_some((model_name.as_str(), weights));
        let (pod, mut rt) = nrt.create_pod(&mut self.cluster, now, func, spec, pod_bytes, attach)?;
        // Spatio-temporal rectangle binding (admission already checked).
        rt.bound_rect = !self.cfg.oversubscribe && self.selector.bind(node, pod, &resources).is_some();
        let at = nrt.admit(pod, rt, resources);
        self.pod_loc.insert(pod, at);
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

    /// Starts draining a pod; deletes it immediately when idle.
    pub(super) fn drain_pod(&mut self, pod: PodId, queue: &mut EventQueue<Event>) {
        let Some(at) = self.locate(pod) else {
            return;
        };
        // A zombie is already being torn down by the crash path.
        let Some(rt) = self.pod_rt(at).filter(|rt| rt.zombie.is_none()) else {
            return;
        };
        let func = rt.func;
        let idle = rt.active.is_none();
        self.gateway.deregister_pod(func, pod);
        let _ = self.cluster.begin_terminate(pod);
        if idle {
            self.delete_pod(at, queue);
        }
    }

    pub(super) fn delete_pod(&mut self, at: PodAt, queue: &mut EventQueue<Event>) {
        let Some(rt) = self.teardown_pod(at) else {
            return;
        };
        debug_assert!(rt.active.is_none(), "deleting pod with a request in flight");
        if rt.bound_rect {
            self.selector.release(at.node, at.pod);
        }
        self.poke_dispatch(at.node, queue);
    }

    /// Removes a pod from the location map and tears down its node's
    /// share (see [`NodeRt::delete_pod`]). Returns its runtime.
    pub(super) fn teardown_pod(&mut self, at: PodAt) -> Option<PodRt> {
        self.pod_loc.remove(at.pod)?;
        self.nodes.get_mut(at.node)?.delete_pod(&mut self.cluster, at.pod, at.slot)
    }

    /// Live FaSTPod spec sync (§3.2: resource configurations are filled
    /// by the profiler/scheduler and synchronized to the backend table):
    /// updates the function's default resources and re-applies partition,
    /// quotas, MPS limit and rectangle binding to every running pod.
    pub(super) fn reconfigure(
        &mut self,
        now: SimTime,
        func: FuncId,
        resources: ResourceSpec,
        queue: &mut EventQueue<Event>,
    ) -> Result<(), PlatformError> {
        resources.validate();
        self.funcs.get_mut(func).ok_or(PlatformError::UnknownFunction)?.resources = resources;
        let spec = self.mps_spec(resources);
        let pods = self
            .cluster
            .running_pods_of(func)
            .into_iter()
            .map(|pod| self.locate(pod).ok_or(PlatformError::Internal("runtime missing for pod")))
            .collect::<Result<Vec<PodAt>, _>>()?;
        // Repartitioning changes contention: every fast-forwarded burst
        // on an affected node (this function's or a neighbour's) falls
        // back to per-kernel stepping before MPS caps move.
        let mut touched: Vec<NodeId> = Vec::new();
        for at in &pods {
            if !touched.contains(&at.node) {
                touched.push(at.node);
                self.ff_break_node(now, at.node, queue);
            }
        }
        for at in pods {
            let old = self.cluster.pod(at.pod)?.resources;
            // MPS partition from the pod's next kernel launch; quotas
            // within this window.
            self.nodes
                .get_mut(at.node)
                .ok_or(PlatformError::Internal("runtime missing for node"))?
                .respec_pod(at.slot, at.pod, spec.sm_partition, resources)?;
            self.cluster.pod_mut(at.pod)?.resources = spec;
            // Rectangle binding: swap to the new shape if it fits; keep
            // the old reservation otherwise (conservative).
            if self.pod_rt(at).is_some_and(|rt| rt.bound_rect) {
                self.selector.release(at.node, at.pod);
                if self.selector.bind(at.node, at.pod, &resources).is_none() {
                    let restored = self.selector.bind(at.node, at.pod, &old).is_some();
                    debug_assert!(restored, "freed rectangle must re-bind");
                }
            }
        }
        Ok(())
    }
}

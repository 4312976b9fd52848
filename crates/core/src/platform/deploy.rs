//! Deployment, the FaSTPod controller's side of the control plane:
//! functions and their pods, node selection (Algorithm 2) and rectangle
//! binding, draining and teardown, and live spec sync.

use super::engine::{zoo_profile, Engine, Event, FuncRt};
use super::config::FunctionConfig;
use super::error::PlatformError;
use super::overload::CircuitBreaker;
use super::pod::{PodAt, PodRt};
use crate::manager::BurstEstimator;
use crate::modelshare::{footprint, DEFAULT_CTX_OVERHEAD};
use crate::scheduler::Scheduler;
use fastg_cluster::{FaSTFuncSpec, FuncId, NodeId, PodId, ResourceSpec};
use fastg_des::{EventQueue, SimTime, TimeSeries};
use fastg_workload::{SloTracker, WarmupCounter};
use std::collections::VecDeque;

impl Engine {
    pub(super) fn deploy(
        &mut self,
        now: SimTime,
        fc: &FunctionConfig,
        queue: &mut EventQueue<Event>,
    ) -> Result<FuncId, PlatformError> {
        let model = zoo_profile(&mut self.zoo_profiles, &fc.model)
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
                arrival_window: VecDeque::new(),
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
    /// (MPS/memory setup, model sharing attach, backend
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
            self.nodes
                .iter()
                .filter(|&(n, _)| mem_fits(n))
                .min_by_key(|&(n, node)| (node.pod_count(), n))
                .map(|(n, _)| n)
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
        let mut rt = nrt.create_pod(func, spec, pod_bytes, attach)?;
        let pod = PodId(self.next_pod);
        self.next_pod += 1;
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
        if idle {
            self.delete_pod(at, queue);
        } else if let Some(rt) = self.pod_rt_mut(at) {
            rt.draining = true;
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
    /// share (see [`NodeRt::delete_pod`]). Returns its record.
    pub(super) fn teardown_pod(&mut self, at: PodAt) -> Option<PodRt> {
        self.pod_loc.remove(at.pod)?;
        self.nodes.get_mut(at.node)?.delete_pod(at.pod, at.slot)
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
            .gateway
            .members(func)
            .iter()
            .map(|&pod| self.locate(pod).ok_or(PlatformError::Internal("runtime missing for pod")))
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
            // MPS partition from the pod's next kernel launch; quotas
            // within this window.
            self.nodes
                .get_mut(at.node)
                .ok_or(PlatformError::Internal("runtime missing for node"))?
                .respec_pod(at.slot, at.pod, spec, resources)?;
            // Rectangle binding: swap to the new shape if it fits; keep
            // the old reservation otherwise (conservative). The old one
            // is the rectangle the pod held, which an earlier reconfigure
            // that did not fit left at an older shape than its spec.
            if self.pod_rt(at).is_some_and(|rt| rt.bound_rect) {
                let old = self.selector.release(at.node, at.pod);
                if self.selector.bind(at.node, at.pod, &resources).is_none() {
                    let restored = old.is_some_and(|rect| self.selector.rebind(at.node, at.pod, rect));
                    debug_assert!(restored, "freed rectangle must re-bind");
                }
            }
        }
        Ok(())
    }
}

/// The FaSTPod controller's lifecycle against the one record per pod and
/// per node: random scale, kill, crash and reconfigure sequences on a
/// loaded four-node platform, with and without model sharing.
#[cfg(test)]
mod tests {
    use super::Engine;
    use crate::modelshare::{footprint, DEFAULT_CTX_OVERHEAD};
    use crate::platform::{FunctionConfig, Platform, PlatformConfig};
    use crate::scheduler::Scheduler;
    use fastg_cluster::{FuncId, NodeId, PodId, ResourceSpec};
    use fastg_des::SimTime;
    use fastg_gpu::GpuSpec;
    use fastg_models::zoo;
    use fastg_workload::ArrivalProcess;
    use proptest::prelude::*;
    use std::cmp::Reverse;

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Run(u16),
        Scale(u8, u8),
        Kill(u8, u8),
        Crash(u8),
        Reconfigure(u8, u8),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (1u16..500).prop_map(Op::Run),
            (1u16..500).prop_map(Op::Run),
            (0u8..2, 0u8..7).prop_map(|(f, n)| Op::Scale(f, n)),
            (0u8..2, 0u8..7).prop_map(|(f, n)| Op::Scale(f, n)),
            (0u8..2, any::<u8>()).prop_map(|(f, i)| Op::Kill(f, i)),
            (0u8..4).prop_map(Op::Crash),
            (0u8..2, 0u8..3).prop_map(|(f, sm)| Op::Reconfigure(f, sm)),
        ]
    }

    /// Every record agrees with every other: a node's memory in use is
    /// its pods' reservations plus its store's, its MPS clients are its
    /// pods', and each function's running pods (`pods_of`) are its
    /// gateway members, which are its pods that neither drain nor died,
    /// ascending.
    fn assert_one_record(p: &Platform, funcs: &[FuncId]) {
        let w: &Engine = p.sim.world();
        for (id, node) in w.nodes.iter() {
            let (gpu, store) = node.device_and_store();
            let reserved: u64 = node.pods().filter_map(|rt| rt.memory).map(|ptr| ptr.len).sum();
            assert_eq!(gpu.memory().used(), reserved + store.total_bytes(), "{id:?} memory");
            assert_eq!(gpu.mps().client_count(), node.pod_count(), "{id:?} clients");
            let located = w.pod_loc.values().filter(|at| at.node == id).count();
            assert_eq!(node.pod_count(), located, "{id:?} pods");
        }
        let mut serving: Vec<(FuncId, PodId)> = Vec::new();
        for (pod, &at) in w.pod_loc.iter() {
            let rt = w.pod_rt(at).expect("a located pod has a record");
            assert_eq!(at.pod, pod);
            if !rt.draining && rt.zombie.is_none() {
                serving.push((rt.func, pod));
            }
        }
        for &f in funcs {
            let live: Vec<PodId> =
                serving.iter().filter(|&&(g, _)| g == f).map(|&(_, pod)| pod).collect();
            assert_eq!(w.gateway.members(f), live.as_slice(), "{f:?} members");
            assert_eq!(p.pods_of(f), live, "{f:?} pods_of");
            assert_eq!(p.replicas(f), live.len(), "{f:?} replicas");
        }
    }

    /// The Figure 11 pod shapes `(model, SM %, quota)`.
    const FIG11: [(&str, f64, f64); 3] =
        [("bert_base", 50.0, 0.6), ("rnnt", 24.0, 0.4), ("resnet50", 12.0, 0.4)];

    #[derive(Debug, Clone, Copy)]
    enum Churn {
        Run(u16),
        Deploy(u8),
        Grow(u8),
        Shrink(u8, u8),
        Kill(u8, u8),
        Crash(u8),
        Reconfigure(u8, u8),
    }

    fn arb_churn() -> impl Strategy<Value = Churn> {
        prop_oneof![
            (1u16..300).prop_map(Churn::Run),
            (0u8..3).prop_map(Churn::Deploy),
            any::<u8>().prop_map(Churn::Grow),
            any::<u8>().prop_map(Churn::Grow),
            (any::<u8>(), 0u8..3).prop_map(|(f, n)| Churn::Shrink(f, n)),
            (any::<u8>(), 0u8..3).prop_map(|(f, n)| Churn::Shrink(f, n)),
            (any::<u8>(), any::<u8>()).prop_map(|(f, i)| Churn::Kill(f, i)),
            any::<u8>().prop_map(Churn::Crash),
            (any::<u8>(), 0u8..3).prop_map(|(f, s)| Churn::Reconfigure(f, s)),
        ]
    }

    /// Algorithm 2 by brute force: the minimum `(slack, Reverse(pod
    /// count), id)` over every GPU with memory for a pod reserving
    /// `pod_bytes`, plus `store_bytes` unless its store keeps bytes for
    /// `model`. Free memory is the capacity less the node's pods' and
    /// store's reservations.
    fn brute_force_node(
        w: &Engine,
        spec: &ResourceSpec,
        pod_bytes: u64,
        (model, store_bytes): (&str, u64),
    ) -> Option<NodeId> {
        let (dw, dh) = w.selector.demand_of(spec);
        w.nodes
            .iter()
            .filter_map(|(id, node)| {
                let g = w.selector.gpu(id)?;
                let (gpu, store) = node.device_and_store();
                let reserved: u64 = node.pods().filter_map(|rt| rt.memory).map(|p| p.len).sum();
                let free = gpu.memory().capacity() - reserved - store.total_bytes();
                let held = store.model_bytes(model) != 0;
                if free < pod_bytes + if held { 0 } else { store_bytes } {
                    return None;
                }
                g.best_fit(dw, dh).map(|(_, slack)| (slack, Reverse(g.pod_count()), id))
            })
            .min()
            .map(|(_, _, id)| id)
    }

    /// Runs one operation that places at most one pod of `model` at
    /// `spec`. Just before it, the selector (on a copy) must pick the
    /// node [`brute_force_node`] picks. After it, a new pod must sit on
    /// that node; or no pod is new, and the platform counted an
    /// unschedulable pod exactly when there was no node to pick.
    fn place_checked<T>(
        p: &mut Platform,
        model: &str,
        spec: ResourceSpec,
        place: impl FnOnce(&mut Platform) -> T,
    ) -> Result<T, TestCaseError> {
        let w: &Engine = p.sim.world();
        let mem = zoo::by_name(model).expect("a zoo model").memory;
        let sharing = w.cfg.model_sharing;
        let pod_bytes = footprint::pod_reservation(&mem, sharing);
        let store_bytes = footprint::server_reservation(&mem, DEFAULT_CTX_OVERHEAD);
        let expected =
            brute_force_node(w, &spec, pod_bytes, (model, if sharing { store_bytes } else { 0 }));
        let shared = sharing.then_some((model, store_bytes));
        let chosen = w.selector.clone().select_node(&spec, &mut |n| {
            w.nodes.get(n).is_some_and(|node| node.fits(pod_bytes, shared))
        });
        prop_assert_eq!(chosen, expected, "{:?}", model);
        let (pods_before, unschedulable) = (w.pod_loc.len(), w.unschedulable);
        let out = place(p);
        let w: &Engine = p.sim.world();
        if w.pod_loc.len() > pods_before {
            let (_, at) = w.pod_loc.iter().last().expect("the new pod");
            prop_assert_eq!(Some(at.node), expected, "{:?}", model);
        }
        prop_assert!(w.pod_loc.len() <= pods_before + 1);
        prop_assert_eq!(w.unschedulable, unschedulable + u64::from(expected.is_none()));
        Ok(out)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 48 } else { 512 }))]

        /// Every placement picks the node a brute-force Algorithm 2 over
        /// every memory-feasible GPU picks, through deploys, scale-ups,
        /// drains, kills with zombie drains, node crashes and
        /// reconfigures on 1 to 12 nodes whose memories differ, with and
        /// without model sharing.
        #[test]
        fn node_choice_is_the_brute_force_best_fit(
            sharing in any::<bool>(),
            seed in 0u64..1000,
            gibs in prop::collection::vec(0usize..4, 1..13),
            ops in prop::collection::vec(arb_churn(), 1..80),
        ) {
            let gpus = gibs
                .iter()
                .map(|&i| GpuSpec { memory_bytes: [2, 4, 8, 16][i] << 30, ..GpuSpec::v100() })
                .collect();
            let cfg = PlatformConfig::default().gpus(gpus).model_sharing(sharing).seed(seed);
            let mut p = Platform::new(cfg);
            let mut funcs: Vec<(FuncId, &str)> = Vec::new();
            let func = |funcs: &[(FuncId, &'static str)], f: u8| {
                funcs.get(usize::from(f) % funcs.len().max(1)).copied()
            };
            for op in ops {
                match op {
                    Churn::Run(ms) => {
                        p.run_for(SimTime::from_millis(u64::from(ms)));
                    }
                    Churn::Deploy(shape) => {
                        let (model, sm, quota) = FIG11[usize::from(shape)];
                        let name = format!("f{}", funcs.len());
                        let fc = FunctionConfig::new(&name, model).resources(sm, quota, quota);
                        let spec = ResourceSpec::new(sm, quota, quota, 0);
                        let deployed = place_checked(&mut p, model, spec, |p| p.deploy(fc))?;
                        if let Ok(f) = deployed {
                            p.set_load(f, ArrivalProcess::poisson(40.0, seed));
                            funcs.push((f, model));
                        }
                    }
                    Churn::Grow(f) => {
                        if let Some((f, model)) = func(&funcs, f) {
                            let spec = p.sim.world().funcs[f].resources;
                            let n = p.pods_of(f).len() + 1;
                            place_checked(&mut p, model, spec, |p| p.scale_to(f, n))?;
                        }
                    }
                    Churn::Shrink(f, n) => {
                        if let Some((f, _)) = func(&funcs, f) {
                            p.scale_to(f, usize::from(n));
                        }
                    }
                    Churn::Kill(f, i) => {
                        if let Some((f, _)) = func(&funcs, f) {
                            let pods = p.pods_of(f);
                            if let Some(&pod) = pods.get(usize::from(i) % pods.len().max(1)) {
                                prop_assert!(p.kill_pod(pod));
                            }
                        }
                    }
                    Churn::Crash(node) => {
                        p.crash_node(usize::from(node) % gibs.len());
                    }
                    Churn::Reconfigure(f, shape) => {
                        if let Some((f, _)) = func(&funcs, f) {
                            let (_, sm, quota) = FIG11[usize::from(shape)];
                            p.reconfigure(f, sm, quota, quota).unwrap();
                        }
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn pod_lifecycle_keeps_one_record(
            sharing in any::<bool>(),
            seed in 0u64..1000,
            ops in prop::collection::vec(arb_op(), 1..40),
        ) {
            let cfg = PlatformConfig::default().nodes(4).model_sharing(sharing).seed(seed);
            let mut p = Platform::new(cfg);
            let funcs: Vec<FuncId> = [("resnet50", 120.0), ("bert_base", 30.0)]
                .into_iter()
                .map(|(model, rate)| {
                    let fc = FunctionConfig::new(model, model).replicas(2).resources(24.0, 0.4, 1.0);
                    let f = p.deploy(fc).unwrap();
                    p.set_load(f, ArrivalProcess::poisson(rate, seed));
                    f
                })
                .collect();
            assert_one_record(&p, &funcs);
            for op in ops {
                match op {
                    Op::Run(ms) => {
                        p.run_for(SimTime::from_millis(u64::from(ms)));
                    }
                    Op::Scale(f, n) => {
                        let f = funcs[usize::from(f)];
                        let (before, n) = (p.pods_of(f), usize::from(n));
                        p.scale_to(f, n);
                        // Drains take the highest ids: the lowest stay. A
                        // scale-up keeps every pod and adds up to the rest.
                        let after = p.pods_of(f);
                        if n <= before.len() {
                            prop_assert_eq!(after, before[..n].to_vec());
                        } else {
                            prop_assert!(after.len() <= n && after.starts_with(&before));
                        }
                    }
                    Op::Kill(f, i) => {
                        let pods = p.pods_of(funcs[usize::from(f)]);
                        if let Some(&pod) = pods.get(usize::from(i) % pods.len().max(1)) {
                            prop_assert!(p.kill_pod(pod));
                        }
                    }
                    Op::Crash(node) => {
                        p.crash_node(usize::from(node));
                    }
                    Op::Reconfigure(f, sm) => {
                        let sm = [12.0, 24.0, 50.0][usize::from(sm)];
                        p.reconfigure(funcs[usize::from(f)], sm, 0.4, 1.0).unwrap();
                    }
                }
                assert_one_record(&p, &funcs);
            }
            let report = p.report();
            for (i, n) in report.nodes.iter().enumerate() {
                prop_assert_eq!(&n.name, &format!("gpu-worker-{i}"));
                prop_assert_eq!(n.up, p.node_up(i));
                prop_assert!(n.up || (n.pods == 0 && n.memory_used == 0));
            }
        }
    }
}

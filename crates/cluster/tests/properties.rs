//! Property tests for the cluster substrate.

use fastg_cluster::{Cluster, FuncId, Gateway, PodId, ResourceSpec};
use fastg_des::SimTime;
use fastg_gpu::{GpuDevice, GpuSpec, MpsMode};
use proptest::prelude::*;

proptest! {
    /// Pod create/delete interleavings conserve GPU memory and MPS client
    /// counts exactly.
    #[test]
    fn pod_lifecycle_conserves_resources(
        ops in prop::collection::vec((0u8..2, 1u64..512), 1..120)
    ) {
        let mut c = Cluster::new();
        let node = c.add_node();
        let mut gpu = GpuDevice::new(GpuSpec::v100(), MpsMode::Shared);
        let spec = ResourceSpec::new(10.0, 0.2, 0.5, 0);
        let mut live: Vec<(PodId, u64)> = Vec::new();
        for &(op, mib) in &ops {
            let bytes = mib * 1024 * 1024;
            if op == 0 || live.is_empty() {
                if let Ok(p) = c.create_pod(SimTime::ZERO, node, FuncId(0), spec, bytes, &mut gpu) {
                    live.push((p, bytes));
                }
            } else {
                let (p, _) = live.swap_remove((mib as usize) % live.len());
                c.delete_pod(p, &mut gpu).unwrap();
            }
            let expected: u64 = live.iter().map(|&(_, b)| b).sum();
            prop_assert_eq!(gpu.memory().used(), expected);
            prop_assert_eq!(gpu.mps().client_count(), live.len());
            prop_assert_eq!(c.pod_count(), live.len());
        }
    }

    /// The gateway conserves requests: arrivals == dispatched + queued,
    /// and never dispatches to a busy or deregistered pod.
    #[test]
    fn gateway_conserves_requests(ops in prop::collection::vec(0u8..4, 1..300)) {
        let mut g = Gateway::new();
        let f = FuncId(0);
        g.register_func(f);
        let mut pods_registered = 0u64;
        let mut busy: Vec<PodId> = Vec::new();
        let mut dispatched = 0u64;
        let mut arrivals = 0u64;
        let mut completed = 0u64;
        let mut now = SimTime::ZERO;
        for &op in &ops {
            now += SimTime::from_micros(1);
            match op {
                // New pod joins.
                0 => {
                    g.register_pod(f, PodId(pods_registered));
                    pods_registered += 1;
                }
                // Request arrives.
                1 => {
                    arrivals += 1;
                    if let fastg_cluster::Admission::Dispatch(_req, p) =
                        g.on_arrival(now, f, SimTime::MAX)
                    {
                        prop_assert!(!busy.contains(&p), "dispatched to busy pod");
                        busy.push(p);
                        dispatched += 1;
                    }
                }
                // A busy pod finishes and pulls more work.
                2 if !busy.is_empty() => {
                    let p = busy.remove(0);
                    completed += 1;
                    if g.on_pod_idle(f, p).is_some() {
                        busy.push(p);
                        dispatched += 1;
                    }
                }
                // Deregister an idle pod if any.
                3 => {
                    let idle_exists = g.idle_count(f) > 0;
                    if idle_exists {
                        // Idle pods are those registered but not busy.
                        for i in 0..pods_registered {
                            let p = PodId(i);
                            if !busy.contains(&p) && g.deregister_pod(f, p) {
                                break;
                            }
                        }
                    }
                }
                _ => {}
            }
            prop_assert_eq!(
                dispatched + g.queue_len(f) as u64,
                arrivals,
                "requests lost or duplicated"
            );
            let _ = completed;
        }
    }

    /// Reconcile always converges: applying its action yields the desired
    /// replica count (when capacity allows).
    #[test]
    fn reconcile_converges(initial in 0usize..10, desired in 0usize..10) {
        use fastg_cluster::cluster::ReconcileAction;
        let mut c = Cluster::new();
        let node = c.add_node();
        let mut gpu = GpuDevice::new(GpuSpec::v100(), MpsMode::Shared);
        let spec = ResourceSpec::new(5.0, 0.1, 0.1, 0);
        for i in 0..initial {
            c.create_pod(SimTime::from_micros(i as u64), node, FuncId(0), spec, 0, &mut gpu)
                .unwrap();
        }
        match c.reconcile(FuncId(0), desired) {
            ReconcileAction::Create(n) => {
                prop_assert_eq!(initial + n, desired);
            }
            ReconcileAction::Drain(pods) => {
                prop_assert_eq!(initial - pods.len(), desired);
                for p in pods {
                    c.begin_terminate(p).unwrap();
                }
                prop_assert_eq!(c.running_pods_of(FuncId(0)).len(), desired);
            }
            ReconcileAction::Steady => prop_assert_eq!(initial, desired),
        }
    }

    /// ResourceSpec areas multiply correctly and stay in [0, 1].
    #[test]
    fn resource_area_bounds(sm in 1u32..=100, q_lim_pct in 1u32..=100) {
        let q = q_lim_pct as f64 / 100.0;
        let spec = ResourceSpec::new(sm as f64, 0.0, q, 0);
        let area = spec.area();
        prop_assert!((0.0..=1.0).contains(&area));
        prop_assert!((area - sm as f64 / 100.0 * q).abs() < 1e-12);
    }
}

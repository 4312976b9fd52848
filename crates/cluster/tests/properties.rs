//! Property tests for the cluster substrate.

use fastg_cluster::{FuncId, Gateway, PodId, ResourceSpec};
use fastg_des::SimTime;
use proptest::prelude::*;

proptest! {
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
                    // Idle pods are those registered but not busy; the
                    // first one that `deregister_pod` finds idle goes.
                    for i in 0..pods_registered {
                        let p = PodId(i);
                        if !busy.contains(&p) && g.deregister_pod(f, p) {
                            break;
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

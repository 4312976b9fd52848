//! Property tests for the FaST-GShare policy components: the Maximal
//! Rectangles Algorithm, the Heuristic Scaling Algorithm, the FaST
//! Backend and the model store.

use fastg_cluster::{PodId, ResourceSpec};
use fastg_des::snap::{Snap, SnapReader, SnapWriter};
use fastg_des::SimTime;
use fastg_gpu::{GpuMemory, MemError};
use fastgshare::manager::{BackendConfig, FastBackend, PodQuotaState, RequestOutcome, SharingPolicy};
use fastgshare::modelshare::{ModelStorageServer, ShareError};
use fastgshare::scheduler::{heuristic_scale, ConfigPoint, GpuRects, Rect, RunningPod, ScaleAction};
use proptest::prelude::*;

/// Checks every MRA free-list invariant directly (release builds don't
/// run the internal debug checks).
fn check_mra_invariants(g: &GpuRects, placements: &[(PodId, Rect)]) -> Result<(), TestCaseError> {
    let bounds = Rect::new(0, 0, 100, 100);
    for r in g.free_rects() {
        prop_assert!(bounds.contains(r), "free rect out of bounds: {r:?}");
        for &(_, p) in placements {
            prop_assert!(!r.intersects(&p), "free rect {r:?} overlaps placement {p:?}");
        }
    }
    for (i, a) in g.free_rects().iter().enumerate() {
        for (j, b) in g.free_rects().iter().enumerate() {
            if i != j {
                prop_assert!(!b.contains(a), "free rect {a:?} contained in {b:?}");
            }
        }
    }
    for (i, &(_, a)) in placements.iter().enumerate() {
        for &(_, b) in placements.iter().skip(i + 1) {
            prop_assert!(!a.intersects(&b), "placements overlap: {a:?} {b:?}");
        }
    }
    Ok(())
}

/// The backend's state as a scan of `quota_state` over `pods` states it:
/// how many pods wait, are grantable (waiting, no lease, quota left) and
/// hold a lease, and the pods the next dispatch pass grants (descending
/// `Q_miss`, then `PodId`, until the first that overruns the SM adapter).
fn backend_by_scan(b: &FastBackend, pods: &[PodId]) -> (usize, usize, usize, Vec<PodId>) {
    let rows: Vec<(PodId, PodQuotaState)> =
        pods.iter().map(|&p| (p, b.quota_state(p).unwrap())).collect();
    let waiting = rows.iter().filter(|(_, q)| q.waiting).count();
    let holders = rows.iter().filter(|(_, q)| q.holds_token).count();
    let mut ready: Vec<&(PodId, PodQuotaState)> = rows
        .iter()
        .filter(|(_, q)| q.waiting && !q.holds_token && q.q_used < q.q_limit)
        .collect();
    ready.sort_by_key(|(p, q)| {
        let miss = i128::from(q.q_request.as_micros()) - i128::from(q.q_used.as_micros());
        (std::cmp::Reverse(miss), *p)
    });
    let mut sm = b.sm_running();
    let mut grants = Vec::new();
    for (p, q) in &ready {
        if sm + q.sm_partition > 100.0 + 1e-9 {
            break;
        }
        sm += q.sm_partition;
        grants.push(*p);
    }
    (waiting, ready.len(), holders, grants)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Algorithm 2 invariants hold under arbitrary place/release churn,
    /// and the free area accounting is exact.
    #[test]
    fn mra_invariants_under_churn(
        ops in prop::collection::vec((0u8..2, 1u32..=60, 1u32..=60), 1..80)
    ) {
        let mut g = GpuRects::new(100, 100, 12);
        let mut placements: Vec<(PodId, Rect)> = Vec::new();
        let mut next = 0u64;
        for &(op, w, h) in &ops {
            if op == 0 || placements.is_empty() {
                let pod = PodId(next);
                next += 1;
                if let Some(rect) = g.place(pod, w, h) {
                    prop_assert_eq!(rect.w, w);
                    prop_assert_eq!(rect.h, h);
                    placements.push((pod, rect));
                }
            } else {
                let idx = (w as usize * h as usize) % placements.len();
                let (pod, rect) = placements.swap_remove(idx);
                let released = g.release(pod).expect("placed pod releases");
                prop_assert_eq!(released, rect);
            }
            let used: u64 = placements.iter().map(|&(_, r)| r.area()).sum();
            prop_assert_eq!(g.used_area(), used);
            prop_assert_eq!(g.free_area(), 10_000 - used);
            check_mra_invariants(&g, &placements)?;
        }
        // Restructuring never breaks anything either.
        g.restructure();
        check_mra_invariants(&g, &placements)?;
    }

    /// Everything placeable before a restructure is placeable after: the
    /// rebuild only consolidates, never loses reachable space.
    #[test]
    fn restructure_preserves_placeability(
        seeds in prop::collection::vec((1u32..=50, 1u32..=50), 1..12),
        probe in (1u32..=100, 1u32..=100)
    ) {
        let mut g = GpuRects::new(100, 100, 1_000); // no auto-restructure
        for (i, &(w, h)) in seeds.iter().enumerate() {
            let _ = g.place(PodId(i as u64), w, h);
        }
        let before = g.best_fit(probe.0, probe.1).is_some();
        g.restructure();
        let after = g.best_fit(probe.0, probe.1).is_some();
        // Restructure computes the *maximal* free rectangles around the
        // same placements, so fit can only improve.
        prop_assert!(!before || after, "restructure lost a feasible placement");
    }

    /// Algorithm 1 scale-up always provisions at least the gap, with at
    /// most one non-p_eff pod.
    #[test]
    fn scaling_up_covers_gap(
        delta in 0.1f64..500.0,
        profile in prop::collection::vec((1u32..=100, 1u32..=100, 0.5f64..200.0), 1..10)
    ) {
        let points: Vec<ConfigPoint> = profile
            .iter()
            .map(|&(sm, q, rps)| ConfigPoint { sm: sm as f64, quota: q as f64 / 100.0, rps })
            .collect();
        let actions = heuristic_scale(delta, &points, &[]);
        let capacity: f64 = actions
            .iter()
            .map(|a| match a {
                ScaleAction::Up(p) => p.rps,
                ScaleAction::Down(_) => 0.0,
            })
            .sum();
        prop_assert!(capacity >= delta - 1e-6, "capacity {capacity} < gap {delta}");
        prop_assert!(actions.iter().all(|a| matches!(a, ScaleAction::Up(_))));
        // Bulk pods all share the p_eff configuration.
        let distinct: std::collections::BTreeSet<u64> = actions
            .iter()
            .map(|a| match a {
                ScaleAction::Up(p) => (p.rps * 1e6) as u64,
                _ => 0,
            })
            .collect();
        prop_assert!(distinct.len() <= 2, "more than bulk + residual configs");
    }

    /// Algorithm 1 scale-down never removes more capacity than the
    /// surplus.
    #[test]
    fn scaling_down_keeps_capacity(
        surplus in 0.1f64..300.0,
        pods in prop::collection::vec((1u32..=100, 1u32..=100, 0.5f64..100.0), 1..12)
    ) {
        let running: Vec<RunningPod> = pods
            .iter()
            .enumerate()
            .map(|(i, &(sm, q, rps))| RunningPod {
                pod: PodId(i as u64),
                config: ConfigPoint { sm: sm as f64, quota: q as f64 / 100.0, rps },
            })
            .collect();
        let total: f64 = running.iter().map(|r| r.config.rps).sum();
        let actions = heuristic_scale(-surplus, &[], &running);
        let removed: f64 = actions
            .iter()
            .map(|a| match a {
                ScaleAction::Down(p) => running
                    .iter()
                    .find(|r| r.pod == *p)
                    .map(|r| r.config.rps)
                    .unwrap_or(0.0),
                _ => 0.0,
            })
            .sum();
        prop_assert!(removed <= surplus + 1e-9, "removed {removed} > surplus {surplus}");
        prop_assert!(total - removed >= total - surplus - 1e-9);
        // No pod drained twice.
        let mut seen = std::collections::BTreeSet::new();
        for a in &actions {
            if let ScaleAction::Down(p) = a {
                prop_assert!(seen.insert(*p), "pod {p:?} drained twice");
            }
        }
    }

    /// Backend safety under the protocol the platform runs: random
    /// request / dispatch-pass / sync / idle / reset sequences. A pod
    /// holds a token only from a dispatch-pass grant or a still-held
    /// lease; the SM adapter never exceeds the global limit, and Q_used
    /// never exceeds Q_limit by more than one burst.
    #[test]
    fn backend_adapter_and_quota_safety(
        ops in prop::collection::vec((0u8..5, 0u64..6, 1u64..5_000), 10..250)
    ) {
        let window = SimTime::from_millis(100);
        let mut b = FastBackend::new(BackendConfig {
            policy: SharingPolicy::FaST,
            window,
            token_lease: SimTime::from_millis(5),
            ..BackendConfig::default()
        });
        let shares = [12.0, 24.0, 50.0, 60.0, 6.0, 80.0];
        for (i, &s) in shares.iter().enumerate() {
            b.register(PodId(i as u64), ResourceSpec::new(s, 0.3, 0.7, 0));
        }
        let mut in_burst = [false; 6];
        // The model's view of who holds a token, credited only by a
        // dispatch-pass grant and kept only while the lease survives.
        let mut has_token = [false; 6];
        let mut now = SimTime::ZERO;
        for &(op, pod_idx, us) in &ops {
            now += SimTime::from_micros(us % 997 + 1);
            let idx = (pod_idx % 6) as usize;
            let pod = PodId(idx as u64);
            match op {
                0 if !in_burst[idx] => {
                    let (outcome, side) = b.request(now, pod).unwrap();
                    prop_assert!(side.is_empty(), "a request granted {side:?}");
                    if let RequestOutcome::Granted(_) = outcome {
                        prop_assert!(has_token[idx], "pod {idx} granted without a lease");
                        b.begin_burst(pod).unwrap();
                        in_burst[idx] = true;
                    } else {
                        // A stale lease is dropped before queueing.
                        has_token[idx] = false;
                    }
                }
                1 if in_burst[idx] => {
                    let burst = SimTime::from_micros(us);
                    has_token[idx] = b.sync_point(now, pod, burst).unwrap();
                    in_burst[idx] = false;
                }
                2 if !in_burst[idx] => {
                    b.release_idle(pod);
                    has_token[idx] = false;
                }
                3 => {
                    b.on_window_reset(now);
                    // Quotas reset.
                    for i in 0..6 {
                        let qs = b.quota_state(PodId(i as u64)).unwrap();
                        prop_assert_eq!(qs.q_used, SimTime::ZERO);
                    }
                }
                4 => {
                    // The engine launches each granted pod's pending burst.
                    for g in b.dispatch_pass(now).to_vec() {
                        let i = g.pod.0 as usize;
                        prop_assert!(!in_burst[i] && !has_token[i], "pod {i} granted twice");
                        has_token[i] = true;
                        b.begin_burst(g.pod).unwrap();
                        in_burst[i] = true;
                    }
                }
                _ => {}
            }
            for i in 0..6u64 {
                let holds = b.quota_state(PodId(i)).unwrap().holds_token;
                prop_assert_eq!(holds, has_token[i as usize], "token of pod {}", i);
            }
            prop_assert!(
                b.sm_running() <= 100.0 + 1e-6,
                "SM adapter exceeded: {}",
                b.sm_running()
            );
            for i in 0..6u64 {
                let qs = b.quota_state(PodId(i)).unwrap();
                // One burst of at most 5 ms may overrun the limit.
                prop_assert!(
                    qs.q_used <= qs.q_limit + SimTime::from_millis(5),
                    "quota overrun on pod {i}: {:?} vs {:?}",
                    qs.q_used,
                    qs.q_limit
                );
            }
        }
    }

    /// The backend's slot summaries answer as a scan of its rows does, on
    /// tables that cross the 64-slot word boundary: `has_waiter`,
    /// `has_grantable`, `waiting()`, `holders()` and the next pass's
    /// grants, after every register, deregister and re-register, request,
    /// burst, idle release, spec update, window reset, pass and snapshot
    /// round trip.
    #[test]
    fn backend_summaries_match_a_scan(
        n in 48usize..=70,
        ops in prop::collection::vec((0u8..9, 0usize..72, 1u64..3_000), 1..200)
    ) {
        let mut b = FastBackend::new(BackendConfig {
            policy: SharingPolicy::FaST,
            window: SimTime::from_millis(10),
            token_lease: SimTime::from_millis(2),
            ..BackendConfig::default()
        });
        let spec = |i: u64, limit: f64| {
            let sm = [6.0, 12.0, 24.0, 50.0][i as usize % 4];
            ResourceSpec::new(sm, limit * [0.0, 0.5, 1.0][i as usize % 3], limit, 0)
        };
        let mut pods: Vec<PodId> = (0..n as u64).map(PodId).collect();
        for &p in &pods {
            b.register(p, spec(p.0, 0.5));
        }
        let mut next = n as u64;
        let mut in_burst = std::collections::BTreeSet::new();
        let mut now = SimTime::ZERO;
        for &(op, idx, us) in &ops {
            now += SimTime::from_micros(us);
            let pod = pods.get(idx % pods.len().max(1)).copied();
            let idle = pod.filter(|p| !in_burst.contains(p));
            match op {
                0 if pods.len() < 72 => {
                    b.register(PodId(next), spec(next, 0.5));
                    pods.push(PodId(next));
                    next += 1;
                }
                // The fresh pod takes the lowest vacant slot: the freed one
                // unless a lower slot is vacant too.
                1 => if let Some(p) = idle {
                    b.deregister(p);
                    pods.retain(|&q| q != p);
                    b.register(PodId(next), spec(next, 0.5));
                    pods.push(PodId(next));
                    next += 1;
                },
                2 => if let Some(p) = idle {
                    if let (RequestOutcome::Granted(_), _) = b.request(now, p).unwrap() {
                        b.begin_burst(p).unwrap();
                        in_burst.insert(p);
                    }
                },
                3 => if let Some(p) = pod.filter(|p| in_burst.remove(p)) {
                    b.sync_point(now, p, SimTime::from_micros(us)).unwrap();
                },
                4 => if let Some(p) = idle {
                    b.release_idle(p);
                },
                // Flip the pod's quota exhaustion: a limit below its usage,
                // or the whole window.
                5 => if let Some(p) = pod {
                    let qs = b.quota_state(p).unwrap();
                    let limit = if qs.q_used >= qs.q_limit { 1.0 } else { 0.01 };
                    b.update_spec(p, spec(p.0, limit));
                },
                6 => b.on_window_reset(now),
                7 => for g in b.dispatch_pass(now).to_vec() {
                    prop_assert!(in_burst.insert(g.pod), "{:?} granted mid-burst", g.pod);
                    b.begin_burst(g.pod).unwrap();
                },
                8 => {
                    let mut w = SnapWriter::new();
                    b.snap(&mut w);
                    let bytes = w.finish();
                    b = FastBackend::unsnap(&mut SnapReader::new(&bytes)).unwrap();
                }
                _ => {}
            }
            let (waiting, grantable, holders, grants) = backend_by_scan(&b, &pods);
            prop_assert_eq!(b.has_waiter(), waiting > 0, "op {}", op);
            prop_assert_eq!(b.has_grantable(), grantable > 0, "op {}", op);
            prop_assert_eq!(b.waiting(), waiting, "op {}", op);
            prop_assert_eq!(b.holders(), holders, "op {}", op);
            let pass: Vec<PodId> = b.clone().dispatch_pass(now).iter().map(|g| g.pod).collect();
            prop_assert_eq!(pass, grants, "op {}", op);
        }
    }

    /// Model store refcount safety: memory usage is exactly
    /// `Σ (ctx + weights)` over the models with a reference, plus a pod's
    /// private bytes, under random acquire / release interleavings on a
    /// device too small for every model at once. A refused acquire leaves
    /// the bytes in use and every refcount unchanged.
    #[test]
    fn model_store_accounting(ops in prop::collection::vec((0u8..3, 0u8..3), 1..150)) {
        const MB: u64 = 1024 * 1024;
        const PRIVATE: u64 = 1024 * MB;
        let mut mem = GpuMemory::new(3 * 1024 * MB);
        let mut server = ModelStorageServer::new(300 * MB);
        let models = ["a", "b", "c"];
        let sizes = [100 * MB, 500 * MB, 2_000 * MB];
        let mut refs = [0u32; 3];
        let mut private = false;
        for &(op, mi) in &ops {
            let i = mi as usize;
            let before = mem.used();
            match op {
                0 => match server.acquire(&mut mem, models[i], sizes[i]) {
                    Ok(stored) => {
                        prop_assert_eq!(stored, refs[i] > 0);
                        refs[i] += 1;
                    }
                    Err(ShareError::Memory(MemError::OutOfMemory { requested, free })) => {
                        prop_assert_eq!(refs[i], 0, "a stored model is shared, not re-reserved");
                        prop_assert_eq!((requested, free), (300 * MB + sizes[i], mem.free_bytes()));
                        prop_assert!(requested > free);
                        prop_assert_eq!(mem.used(), before);
                    }
                    Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                },
                1 if refs[i] > 0 => {
                    server.release(&mut mem, models[i]).unwrap();
                    refs[i] -= 1;
                }
                1 => prop_assert!(server.release(&mut mem, models[i]).is_err()),
                _ if private => {
                    mem.release(PRIVATE).unwrap();
                    private = false;
                }
                _ => private = mem.reserve(PRIVATE).is_ok(),
            }
            let expected: u64 = (0..3)
                .map(|j| if refs[j] > 0 { 300 * MB + sizes[j] } else { 0 })
                .sum::<u64>()
                + if private { PRIVATE } else { 0 };
            prop_assert_eq!(mem.used(), expected);
            prop_assert_eq!(server.total_bytes() + if private { PRIVATE } else { 0 }, expected);
            for j in 0..3 {
                let live = server.refcounts().find(|&(m, _)| m == models[j]).map_or(0, |(_, r)| r);
                prop_assert_eq!(live, refs[j]);
            }
        }
    }
}

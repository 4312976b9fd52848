//! Failure injection: pods crash mid-flight; the platform must not lose
//! requests, leak GPU resources, or panic — and must keep serving.

use fastg_des::SimTime;
use fastg_workload::ArrivalProcess;
use fastgshare::manager::SharingPolicy;
use fastgshare::platform::{FunctionConfig, Platform, PlatformConfig};

/// Requests of `f` shed so far, read from the report of a fork so that
/// `p`'s own run goes on as it would have.
fn dropped(p: &Platform, f: fastg_cluster::FuncId) -> u64 {
    p.clone().report().functions[&f].dropped
}

fn loaded_platform(seed: u64) -> (Platform, fastg_cluster::FuncId) {
    let mut p = Platform::new(
        PlatformConfig::default()
            .nodes(1)
            .policy(SharingPolicy::FaST)
            .seed(seed),
    );
    let f = p
        .deploy(
            FunctionConfig::new("f", "resnet50")
                .replicas(4)
                .resources(12.0, 1.0, 1.0),
        )
        .unwrap();
    p.set_load(f, ArrivalProcess::poisson(80.0, seed + 1));
    (p, f)
}

/// A crashed pod's in-flight request is retried, not dropped: every
/// arrival is eventually completed (or still queued at the end).
#[test]
fn crashed_requests_are_retried() {
    let (mut p, f) = loaded_platform(41);
    p.run_for(SimTime::from_secs(1));
    // Kill two pods mid-load; replace them so capacity recovers.
    let pods = p.pods_of(f);
    assert!(p.kill_pod(pods[0]));
    assert!(p.kill_pod(pods[1]));
    assert_eq!(p.pods_of(f), pods[2..], "two pods died");
    p.scale_to(f, 4);
    let report = p.run_for(SimTime::from_secs(5));
    let fr = &report.functions[&f];
    // Offered 80 rps with capacity ~160: everything completes except the
    // handful still in flight at the horizon.
    assert!(
        fr.arrivals - fr.completed < 8,
        "lost requests: {} arrived, {} completed",
        fr.arrivals,
        fr.completed
    );
    assert!((fr.throughput_rps - 80.0).abs() < 10.0, "rps {}", fr.throughput_rps);
}

/// Killing every pod and rescaling from zero works; memory and MPS
/// clients are fully reclaimed in between.
#[test]
fn total_crash_and_recovery() {
    let (mut p, f) = loaded_platform(42);
    p.run_for(SimTime::from_secs(1));
    for pod in p.pods_of(f) {
        p.kill_pod(pod);
    }
    // Let zombie kernels drain.
    p.run_for(SimTime::from_secs(1));
    assert_eq!(p.replicas(f), 0);
    // All device memory is back (model weights may persist only while a
    // pod references them; with zero pods everything is freed).
    assert_eq!(p.node_memory_used(0), 0, "leaked device memory");
    // Recover.
    p.scale_to(f, 3);
    let report = p.run_for(SimTime::from_secs(4));
    assert_eq!(report.functions[&f].replicas, 3);
    assert!(report.functions[&f].completed > 100);
}

/// Random kill/respawn churn: the platform stays consistent and keeps
/// serving under constant failures (one crash every ~400 ms).
#[test]
fn chaos_churn_keeps_serving() {
    let (mut p, f) = loaded_platform(43);
    let mut victim = 0usize;
    let mut killed = 0;
    for _ in 0..20 {
        p.run_for(SimTime::from_millis(400));
        let pods = p.pods_of(f);
        if !pods.is_empty() {
            killed += u64::from(p.kill_pod(pods[victim % pods.len()]));
            victim += 1;
        }
        p.scale_to(f, 4);
    }
    let report = p.run_for(SimTime::from_secs(2));
    let fr = &report.functions[&f];
    assert_eq!(killed, 20);
    assert!(
        fr.arrivals - fr.completed < 10,
        "{} arrived vs {} completed",
        fr.arrivals,
        fr.completed
    );
    // Serving never collapsed: mean throughput stays near the offer.
    assert!(fr.throughput_rps > 65.0, "rps {}", fr.throughput_rps);
}

/// Determinism holds under failure injection too.
#[test]
fn chaos_is_deterministic() {
    let run = || {
        let (mut p, f) = loaded_platform(44);
        for i in 0..10 {
            p.run_for(SimTime::from_millis(300));
            let pods = p.pods_of(f);
            if !pods.is_empty() {
                p.kill_pod(pods[i % pods.len()]);
            }
            p.scale_to(f, 4);
        }
        let r = p.run_for(SimTime::from_secs(2));
        (p.events_handled(), r.functions[&f].completed, r.functions[&f].p99)
    };
    assert_eq!(run(), run());
}

/// Regression (found by `properties_platform::no_request_is_ever_lost`):
/// requests that queue while *zero* replicas exist must be picked up by
/// the replacement pods the moment they are created.
#[test]
fn backlog_drains_onto_replacement_pods() {
    let mut p = Platform::new(
        PlatformConfig::default()
            .nodes(1)
            .policy(SharingPolicy::FaST)
            .seed(46),
    );
    let f = p
        .deploy(
            FunctionConfig::new("f", "resnet50")
                .replicas(2)
                .resources(12.0, 1.0, 1.0),
        )
        .unwrap();
    p.set_load(f, ArrivalProcess::constant(30.0));
    p.run_for(SimTime::from_millis(500));
    // Wipe out every replica; arrivals keep landing in the gateway queue.
    for pod in p.pods_of(f) {
        p.kill_pod(pod);
    }
    p.run_for(SimTime::from_secs(1));
    assert_eq!(p.replicas(f), 0);
    // Replacements must drain the accumulated backlog unprompted.
    p.scale_to(f, 2);
    p.set_load(f, ArrivalProcess::constant(0.0));
    let report = p.run_for(SimTime::from_secs(4));
    let fr = &report.functions[&f];
    assert_eq!(
        fr.arrivals, fr.completed,
        "backlog stranded: {} arrived, {} completed",
        fr.arrivals, fr.completed
    );
}

// ---------------------------------------------------------------------------
// Fault plans, node-level failures, and the recovery controller.
// ---------------------------------------------------------------------------

use fastgshare::platform::{FaultKind, FaultPlan};

/// Acceptance scenario: a planned `NodeCrash` at t=30s on a two-node
/// cluster with recovery enabled. The health controller must reschedule
/// the lost replicas onto the surviving node and record a nonzero
/// time-to-recovery — and the whole thing must replay event-for-event.
#[test]
fn planned_node_crash_recovers_on_survivor() {
    let run = || {
        let mut p = Platform::new(
            PlatformConfig::default()
                .nodes(2)
                .policy(SharingPolicy::FaST)
                .fault_plan(
                    FaultPlan::new()
                        .at(SimTime::from_secs(30), FaultKind::NodeCrash { node_index: 0 }),
                )
                .recovery(true)
                .seed(50),
        );
        let f = p
            .deploy(
                FunctionConfig::new("f", "resnet50")
                    .replicas(2)
                    .resources(12.0, 0.5, 1.0),
            )
            .unwrap();
        p.set_load(f, ArrivalProcess::poisson(30.0, 51));
        let report = p.run_for(SimTime::from_secs(45));
        (p, f, report)
    };

    let (p, f, report) = run();
    assert_eq!(p.faults_injected(), 1);
    assert!(!p.node_up(0), "crashed node should stay down");
    assert!(p.node_up(1));
    assert!(!report.nodes[0].up);
    assert!(report.nodes[1].up);
    // The Maximal-Rectangles packer consolidates both replicas onto node 0,
    // so the crash wipes out the function; recovery must rebuild it on the
    // survivor — the only node left that can hold pods.
    assert_eq!(p.replicas(f), 2, "replicas not restored after node crash");
    let fr = &report.functions[&f];
    assert!(
        !fr.time_to_recovery.is_empty(),
        "recovery controller recorded no outage repair"
    );
    for &ttr in &fr.time_to_recovery {
        assert!(ttr > SimTime::ZERO, "time-to-recovery must be nonzero");
    }
    // Service resumed: completions keep accruing well past the crash.
    assert!(
        fr.completed > 30 * 30,
        "serving collapsed after the crash: {} completed",
        fr.completed
    );

    // Event-for-event determinism with the plan active.
    let (p2, f2, report2) = run();
    assert_eq!(p.events_handled(), p2.events_handled());
    assert_eq!(report.functions[&f].completed, report2.functions[&f2].completed);
    assert_eq!(report.functions[&f].p99, report2.functions[&f2].p99);
    assert_eq!(
        report.functions[&f].time_to_recovery,
        report2.functions[&f2].time_to_recovery
    );
}

/// A degraded node stretches kernels by the plan's factor; recovery
/// restores full clock. Latency while degraded must be visibly worse
/// than an undegraded control run.
#[test]
fn degrade_and_recover_stretch_latency() {
    let fingerprint = |plan: FaultPlan| {
        let mut p = Platform::new(
            PlatformConfig::default()
                .nodes(1)
                .policy(SharingPolicy::FaST)
                .fault_plan(plan)
                .seed(52),
        );
        let f = p
            .deploy(
                FunctionConfig::new("f", "resnet50")
                    .replicas(2)
                    .resources(12.0, 1.0, 1.0),
            )
            .unwrap();
        p.set_load(f, ArrivalProcess::poisson(40.0, 53));
        let report = p.run_for(SimTime::from_secs(10));
        let fr = &report.functions[&f];
        (fr.completed, fr.p99, fr.mean_latency)
    };
    let degraded = FaultPlan::new()
        .at(
            SimTime::from_secs(2),
            FaultKind::NodeDegrade {
                node_index: 0,
                factor: 3.0,
            },
        )
        .at(SimTime::from_secs(8), FaultKind::NodeRecover { node_index: 0 });
    let (slow_done, slow_p99, slow_mean) = fingerprint(degraded);
    let (fast_done, _fast_p99, fast_mean) = fingerprint(FaultPlan::new());
    assert!(
        slow_mean > fast_mean,
        "3x degrade should raise mean latency: {slow_mean} vs {fast_mean}"
    );
    assert!(slow_p99 > SimTime::ZERO);
    // Still serving throughout (slower, not dead).
    assert!(slow_done > fast_done / 2, "{slow_done} vs {fast_done}");
}

/// Request timeouts + a bounded retry budget shed excess work as
/// `dropped` instead of queueing it forever: with capacity gone and a
/// tight timeout, arrivals are accounted for as completed, dropped,
/// queued, or in flight — never silently lost.
#[test]
fn timeouts_shed_requests_when_capacity_dies() {
    let mut p = Platform::new(
        PlatformConfig::default()
            .nodes(2)
            .policy(SharingPolicy::FaST)
            .fault_plan(
                FaultPlan::new()
                    .at(SimTime::from_secs(2), FaultKind::NodeCrash { node_index: 0 })
                    .at(SimTime::from_secs(3), FaultKind::NodeCrash { node_index: 1 }),
            )
            .request_timeout_factor(4.0)
            .retry_budget(2)
            .seed(54),
    );
    let f = p
        .deploy(
            FunctionConfig::new("f", "resnet50")
                .replicas(2)
                .resources(12.0, 0.5, 1.0),
        )
        .unwrap();
    p.set_load(f, ArrivalProcess::poisson(50.0, 55));
    let report = p.run_for(SimTime::from_secs(10));
    let fr = &report.functions[&f];
    assert!(!p.node_up(0) && !p.node_up(1));
    assert!(
        fr.dropped > 0,
        "with the whole cluster dead, timed-out requests must be shed"
    );
    let accounted =
        fr.completed + fr.dropped + p.queued_requests(f) as u64 + p.in_flight_requests() as u64;
    assert_eq!(
        fr.arrivals, accounted,
        "request conservation violated: {} arrived, {} accounted",
        fr.arrivals, accounted
    );
}

/// Seeded random chaos plans: whatever the mix of pod crashes, node
/// crashes and degrades, the conservation invariant holds, surviving
/// nodes stay consistent, and the run replays deterministically.
#[test]
fn random_chaos_plans_conserve_requests() {
    for seed in [60u64, 61, 62, 63] {
        let run = |seed: u64| {
            let mut p = Platform::new(
                PlatformConfig::default()
                    .nodes(3)
                    .policy(SharingPolicy::FaST)
                    .fault_plan(FaultPlan::random(seed, 12, SimTime::from_secs(8)))
                    .recovery(true)
                    .request_timeout_factor(6.0)
                    .retry_budget(3)
                    .seed(seed),
            );
            let f = p
                .deploy(
                    FunctionConfig::new("f", "resnet50")
                        .replicas(3)
                        .resources(12.0, 0.5, 1.0),
                )
                .unwrap();
            p.set_load(f, ArrivalProcess::poisson(40.0, seed + 1));
            let report = p.run_for(SimTime::from_secs(12));
            (p, f, report)
        };
        let (p, f, report) = run(seed);
        assert_eq!(p.faults_injected(), 12, "seed {seed}: plan not fully injected");
        let fr = &report.functions[&f];
        let accounted = fr.completed
            + fr.dropped
            + p.queued_requests(f) as u64
            + p.in_flight_requests() as u64;
        assert_eq!(
            fr.arrivals, accounted,
            "seed {seed}: conservation violated ({} arrived, {} accounted)",
            fr.arrivals, accounted
        );
        // Surviving nodes stay structurally sound: free SMs never exceed
        // the device total, and dead nodes report down.
        for i in 0..3 {
            if p.node_up(i) {
                assert!(report.nodes[i].up);
            } else {
                assert!(!report.nodes[i].up);
                assert_eq!(p.node_memory_used(i), 0, "seed {seed}: dead node holds memory");
            }
        }
        // Determinism: replaying the same chaos gives the same trace.
        let (p2, f2, report2) = run(seed);
        assert_eq!(p.events_handled(), p2.events_handled(), "seed {seed} diverged");
        assert_eq!(
            report.functions[&f].completed,
            report2.functions[&f2].completed
        );
        assert_eq!(fr.dropped, report2.functions[&f2].dropped);
    }
}

/// Pod-crash faults from a plan behave like direct `kill_pod` calls:
/// replicas drop, and with recovery on the controller restores them.
#[test]
fn planned_pod_crash_is_healed() {
    let mut p = Platform::new(
        PlatformConfig::default()
            .nodes(1)
            .policy(SharingPolicy::FaST)
            .fault_plan(
                FaultPlan::new()
                    .at(SimTime::from_secs(1), FaultKind::PodCrash { func_index: 0 })
                    .at(SimTime::from_secs(2), FaultKind::PodCrash { func_index: 0 }),
            )
            .recovery(true)
            .seed(56),
    );
    let f = p
        .deploy(
            FunctionConfig::new("f", "resnet50")
                .replicas(3)
                .resources(12.0, 0.5, 1.0),
        )
        .unwrap();
    p.set_load(f, ArrivalProcess::poisson(20.0, 57));
    let report = p.run_for(SimTime::from_secs(6));
    assert_eq!(p.faults_injected(), 2);
    assert_eq!(report.functions[&f].time_to_recovery.len(), 2, "each crash killed a pod");
    assert_eq!(p.replicas(f), 3, "recovery should restore the desired count");
    assert!(!report.functions[&f].time_to_recovery.is_empty());
}

/// With recovery *off*, a planned crash leaves the function degraded —
/// the controller must not act unless enabled.
#[test]
fn no_recovery_without_opt_in() {
    let mut p = Platform::new(
        PlatformConfig::default()
            .nodes(1)
            .policy(SharingPolicy::FaST)
            .fault_plan(
                FaultPlan::new().at(SimTime::from_secs(1), FaultKind::PodCrash { func_index: 0 }),
            )
            .seed(58),
    );
    let f = p
        .deploy(
            FunctionConfig::new("f", "resnet50")
                .replicas(2)
                .resources(12.0, 0.5, 1.0),
        )
        .unwrap();
    let report = p.run_for(SimTime::from_secs(4));
    assert_eq!(p.faults_injected(), 1);
    assert_eq!(p.replicas(f), 1, "nothing should heal the lost replica");
    assert!(report.functions[&f].time_to_recovery.is_empty());
}

/// An empty or absent plan changes nothing: the event trace with chaos
/// features left at their defaults is identical to the seed behaviour.
#[test]
fn default_config_injects_nothing() {
    let (mut p, f) = loaded_platform(59);
    let report = p.run_for(SimTime::from_secs(3));
    assert_eq!(p.faults_injected(), 0);
    assert_eq!(report.faults_injected, 0);
    assert_eq!(report.functions[&f].dropped, 0);
    assert!(report.functions[&f].time_to_recovery.is_empty());
    assert!(report.nodes.iter().all(|n| n.up));
}

// ---------------------------------------------------------------------------
// Retry-budget edge cases: budget exhaustion at the crash instant, retries
// racing gateway timeouts, and `dropped` never double-counting.
// ---------------------------------------------------------------------------

/// A zero retry budget exhausts exactly at the pod crash: the in-flight
/// request is dropped at the crash instant instead of requeueing, and the
/// accounting identity still balances.
#[test]
fn zero_retry_budget_drops_at_the_crash_instant() {
    let mut p = Platform::new(
        PlatformConfig::default()
            .nodes(1)
            .policy(SharingPolicy::FaST)
            .retry_budget(0)
            .seed(70),
    );
    let f = p
        .deploy(
            FunctionConfig::new("f", "resnet50")
                .replicas(1)
                .resources(50.0, 1.0, 1.0),
        )
        .unwrap();
    p.set_load(f, ArrivalProcess::constant(30.0));
    p.run_for(SimTime::from_millis(500));
    let before = dropped(&p, f);
    // The single replica is saturated at 30 rps, so it has a request in
    // flight; killing it must shed that request immediately (budget 0).
    let pods = p.pods_of(f);
    assert!(p.kill_pod(pods[0]));
    assert_eq!(
        dropped(&p, f),
        before + 1,
        "budget 0 must drop the crash-lost request at the crash"
    );
    // Quiesce and check conservation end to end.
    p.set_load(f, ArrivalProcess::constant(0.0));
    p.scale_to(f, 1);
    let report = p.run_for(SimTime::from_secs(3));
    let fr = &report.functions[&f];
    let accounted =
        fr.completed + fr.dropped + p.queued_requests(f) as u64 + p.in_flight_requests() as u64;
    assert_eq!(fr.arrivals, accounted, "conservation violated");
}

/// A crash-requeued request racing its own gateway timeout: with capacity
/// gone, the retried request sits queued until its function's queue
/// timer fires and sheds it. The drop must land exactly once.
#[test]
fn retry_races_gateway_timeout_without_losing_requests() {
    let mut p = Platform::new(
        PlatformConfig::default()
            .nodes(1)
            .policy(SharingPolicy::FaST)
            .request_timeout_factor(2.0) // 400 ms on a 200 ms SLO
            .retry_budget(3)
            .seed(71),
    );
    let f = p
        .deploy(
            FunctionConfig::new("f", "resnet50")
                .replicas(2)
                .resources(50.0, 0.5, 1.0),
        )
        .unwrap();
    p.set_load(f, ArrivalProcess::poisson(40.0, 72));
    p.run_for(SimTime::from_secs(1));
    // Kill all capacity: in-flight requests requeue (budget allows), each
    // arming the queue timer if its timeout is the earliest, and wait in
    // a queue no pod drains.
    for pod in p.pods_of(f) {
        p.kill_pod(pod);
    }
    p.run_for(SimTime::from_secs(2));
    assert_eq!(p.replicas(f), 0);
    let report = p.report();
    let fr = &report.functions[&f];
    assert!(fr.dropped > 0, "timeouts must shed the stranded retries");
    // Every arrival is accounted exactly once.
    let accounted =
        fr.completed + fr.dropped + p.queued_requests(f) as u64 + p.in_flight_requests() as u64;
    assert_eq!(
        fr.arrivals, accounted,
        "retry/timeout race lost or double-counted requests"
    );
    // The whole race replays deterministically.
    let rerun = || {
        let mut p = Platform::new(
            PlatformConfig::default()
                .nodes(1)
                .policy(SharingPolicy::FaST)
                .request_timeout_factor(2.0)
                .retry_budget(3)
                .seed(71),
        );
        let f = p
            .deploy(
                FunctionConfig::new("f", "resnet50")
                    .replicas(2)
                    .resources(50.0, 0.5, 1.0),
            )
            .unwrap();
        p.set_load(f, ArrivalProcess::poisson(40.0, 72));
        p.run_for(SimTime::from_secs(1));
        for pod in p.pods_of(f) {
            p.kill_pod(pod);
        }
        let report = p.run_for(SimTime::from_secs(2));
        (p.events_handled(), report.functions[&f].dropped)
    };
    assert_eq!(rerun(), rerun());
}

/// A request can be *both* over its retry budget (dropped at a crash) and
/// due to time out later: the queue timer must not find it, and
/// `dropped` counts it once.
#[test]
fn over_budget_and_timed_out_requests_count_once() {
    let mut p = Platform::new(
        PlatformConfig::default()
            .nodes(2)
            .policy(SharingPolicy::FaST)
            .request_timeout_factor(10.0) // 2 s on a 200 ms SLO
            .retry_budget(0) // crash losses drop instantly, timeout pending
            .fault_plan(
                FaultPlan::new()
                    .at(SimTime::from_secs(1), FaultKind::NodeCrash { node_index: 0 })
                    .at(
                        SimTime::from_millis(1200),
                        FaultKind::NodeCrash { node_index: 1 },
                    ),
            )
            .seed(73),
    );
    let f = p
        .deploy(
            FunctionConfig::new("f", "resnet50")
                .slo_ms(200)
                .replicas(2)
                .resources(50.0, 0.5, 1.0),
        )
        .unwrap();
    p.set_load(f, ArrivalProcess::poisson(60.0, 74));
    // Run long past every timeout: requests dropped over budget at the
    // crashes have left the queue the timer sheds from, and queued
    // survivors time out normally. Any double-count would break the
    // conservation identity below.
    let report = p.run_for(SimTime::from_secs(6));
    let fr = &report.functions[&f];
    assert!(!p.node_up(0) && !p.node_up(1));
    assert!(fr.dropped > 0);
    assert!(
        fr.dropped <= fr.arrivals,
        "dropped {} exceeds arrivals {} — double counting",
        fr.dropped,
        fr.arrivals
    );
    let accounted =
        fr.completed + fr.dropped + p.queued_requests(f) as u64 + p.in_flight_requests() as u64;
    assert_eq!(
        fr.arrivals, accounted,
        "a request was counted both over-budget and timed-out"
    );
}

/// Killing an idle pod (no request in flight) tears down immediately.
#[test]
fn idle_pod_kill_is_immediate() {
    let mut p = Platform::new(PlatformConfig::default().nodes(1).seed(45));
    let f = p
        .deploy(
            FunctionConfig::new("f", "resnet50")
                .replicas(2)
                .resources(12.0, 1.0, 1.0),
        )
        .unwrap();
    let pods = p.pods_of(f);
    assert!(p.kill_pod(pods[0]));
    assert_eq!(p.replicas(f), 1);
    // Double-kill is a no-op.
    assert!(!p.kill_pod(pods[0]));
    assert_eq!(p.pods_of(f), pods[1..], "one pod died");
}

/// A node crash kills only the pods still serving: a pod already killed,
/// whose resident kernels are still draining on the GPU, left the member
/// list at its kill and does not die a second time.
#[test]
fn node_crash_does_not_recount_a_draining_pod() {
    let mut p = Platform::new(
        PlatformConfig::default()
            .nodes(1)
            .policy(SharingPolicy::FaST)
            .seed(3),
    );
    let f = p
        .deploy(
            FunctionConfig::new("f", "resnet50")
                .replicas(2)
                .resources(50.0, 0.5, 1.0)
                .saturating(),
        )
        .unwrap();
    // Mid-burst: the killed pod's kernels are still resident.
    p.run_for(SimTime::from_millis(137));
    let pods = p.pods_of(f);
    assert!(p.kill_pod(pods[0]));
    assert_eq!(p.pods_of(f), pods[1..], "one pod died");
    assert!(p.crash_node(0));
    assert!(p.pods_of(f).is_empty(), "the crash took the live pod");
    assert!(Platform::from_snapshot(&p.checkpoint()).is_ok(), "the catalogue refused the crash");
}

/// A degrade factor beyond the clock bound is clamped to it. A factor of
/// 1e30 used to overflow the burst-end sum of the fast-forward layer:
/// debug builds panicked, and release builds wrapped the kernel clock
/// and reported more completions than a millionfold slowdown allows.
#[test]
fn huge_degrade_factor_clamps_to_the_clock_bound() {
    let completed = |factor: f64| {
        let plan = FaultPlan::new().at(
            SimTime::from_millis(500),
            FaultKind::NodeDegrade {
                node_index: 0,
                factor,
            },
        );
        let mut p = Platform::new(
            PlatformConfig::default()
                .nodes(1)
                .policy(SharingPolicy::FaST)
                .fault_plan(plan)
                .seed(7),
        );
        let f = p
            .deploy(
                FunctionConfig::new("f", "resnet50")
                    .replicas(1)
                    .resources(12.0, 0.5, 1.0),
            )
            .unwrap();
        p.set_load(f, ArrivalProcess::poisson(40.0, 7));
        p.run_for(SimTime::from_secs(2)).functions[&f].completed
    };
    let bounded = completed(fastg_gpu::MAX_CLOCK_SCALE);
    for factor in [1e30, f64::INFINITY, 1e12] {
        assert_eq!(completed(factor), bounded, "factor {factor}");
    }
    assert!(bounded < completed(1.0), "a stalled node serves less");
}

/// A request that waited in the queue, reached a pod before its timeout
/// and lost the pod after it is dropped at the retry, not requeued: it
/// was past its timeout when it would have queued again. The single
/// replica serves `a` (arriving at 1 ms) for about 14 ms; `b` arrives at
/// 5 ms, queues behind it, times out at 25 ms (factor 1 on a 20 ms SLO)
/// and reaches the pod when `a` completes, before that. The pod dies at
/// 26 ms with `b` on it.
#[test]
fn a_retry_past_its_timeout_is_dropped_once() {
    let ms = SimTime::from_millis;
    let mut p = Platform::new(
        PlatformConfig::default()
            .nodes(1)
            .policy(SharingPolicy::FaST)
            .request_timeout_factor(1.0)
            .retry_budget(3)
            .seed(75),
    );
    let f = p
        .deploy(
            FunctionConfig::new("f", "resnet50")
                .slo_ms(20)
                .replicas(1)
                .resources(100.0, 1.0, 1.0),
        )
        .unwrap();
    p.set_load(f, ArrivalProcess::trace(vec![ms(1), ms(5)]));
    let report = p.run_for(ms(26));
    // `a` is done and `b`, having queued behind it, is on the pod past
    // its timeout.
    let fr = &report.functions[&f];
    assert_eq!((fr.arrivals, fr.completed, fr.dropped), (2, 1, 0));
    assert_eq!(
        (p.queued_requests(f), p.in_flight_requests()),
        (0, 1),
        "b must reach the pod before its timeout"
    );
    assert!(p.kill_pod(p.pods_of(f)[0]));
    assert_eq!(dropped(&p, f), 1, "b is dropped at the retry");
    assert_eq!(p.queued_requests(f), 0, "b is not requeued");
    // A new pod finds nothing to serve, and nothing drops b again.
    p.scale_to(f, 1);
    let report = p.run_for(SimTime::from_secs(1));
    let fr = &report.functions[&f];
    assert_eq!((fr.arrivals, fr.completed, fr.dropped), (2, 1, 1));
    let accounted =
        fr.completed + fr.dropped + p.queued_requests(f) as u64 + p.in_flight_requests() as u64;
    assert_eq!(fr.arrivals, accounted, "conservation violated");
}

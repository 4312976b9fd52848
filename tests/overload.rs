//! Overload control plane behaviour: bounded admission, deadline-aware
//! shedding, circuit breaking and brownout serving under flash crowds.

use fastg_cluster::FuncId;
use fastg_des::SimTime;
use fastg_workload::patterns;
use fastgshare::manager::SharingPolicy;
use fastgshare::platform::{
    BreakerState, FunctionConfig, OverloadConfig, Platform, PlatformConfig,
};

/// Two replicas at half quota (~70 rps capacity) hit by a 400 rps flash
/// crowd: the canonical overload scenario.
fn flash_platform(overload: Option<OverloadConfig>, seed: u64) -> (Platform, FuncId) {
    let mut cfg = PlatformConfig::default()
        .nodes(2)
        .policy(SharingPolicy::FaST)
        .seed(seed);
    if let Some(o) = overload {
        cfg = cfg.overload(o);
    }
    let mut p = Platform::new(cfg);
    let f = p
        .deploy(
            FunctionConfig::new("flash", "resnet50")
                .slo_ms(200)
                .replicas(2)
                .resources(50.0, 0.5, 0.8),
        )
        .unwrap();
    p.set_load(
        f,
        patterns::flash_crowd(
            30.0,
            400.0,
            SimTime::from_secs(5),
            SimTime::from_secs(1),
            SimTime::from_secs(5),
            SimTime::from_secs(30),
            0,
            seed,
        ),
    );
    (p, f)
}

/// The conservation identity every run must satisfy: arrivals are either
/// completed, refused at admission, shed/dropped, still queued, or still
/// in flight. Nothing is lost or double-counted.
fn assert_conserved(p: &mut Platform, f: FuncId) {
    let r = p.report();
    let fr = &r.functions[&f];
    let accounted = fr.completed
        + fr.rejected
        + fr.shed_deadline
        + fr.dropped
        + p.queued_requests(f) as u64
        + p.in_flight_requests() as u64;
    assert_eq!(
        fr.arrivals, accounted,
        "arrivals {} != completed {} + rejected {} + shed {} + dropped {} + queued {} + in-flight {}",
        fr.arrivals, fr.completed, fr.rejected, fr.shed_deadline, fr.dropped,
        p.queued_requests(f), p.in_flight_requests()
    );
}

#[test]
fn bounded_queue_rejects_under_flash_crowd() {
    let (mut p, f) = flash_platform(Some(OverloadConfig::default()), 41);
    let r = p.run_for(SimTime::from_secs(12));
    let cap = OverloadConfig::default().queue_capacity;
    assert!(p.queued_requests(f) <= cap, "queue {} over cap {cap}", p.queued_requests(f));
    assert!(r.functions[&f].rejected > 0, "flash crowd never hit the bound");
    assert_conserved(&mut p, f);
}

#[test]
fn without_overload_control_the_queue_grows_unbounded() {
    let (mut p, f) = flash_platform(None, 41);
    p.run_for(SimTime::from_secs(11));
    let r = p.report();
    let fr = &r.functions[&f];
    assert_eq!(fr.rejected, 0);
    assert_eq!(fr.shed_deadline, 0);
    assert_eq!(fr.breaker_trips, 0);
    assert!(
        p.queued_requests(f) > OverloadConfig::default().queue_capacity,
        "silent unbounded queueing should exceed the bounded cap (got {})",
        p.queued_requests(f)
    );
    assert_conserved(&mut p, f);
}

#[test]
fn deadline_shedding_drops_provably_dead_requests() {
    let (mut p, f) = flash_platform(Some(OverloadConfig::default()), 43);
    let r = p.run_for(SimTime::from_secs(15));
    assert!(
        r.functions[&f].shed_deadline > 0,
        "a 200 ms deadline cannot survive a 400 rps crowd over ~70 rps capacity"
    );
    assert_conserved(&mut p, f);
}

#[test]
fn breaker_trips_and_brownout_serves_degraded() {
    let (mut p, f) = flash_platform(Some(OverloadConfig::default()), 47);
    // Run to mid-crowd: breaker must have tripped on shed rate.
    let r = p.run_for(SimTime::from_secs(9));
    assert!(r.functions[&f].breaker_trips >= 1, "no trip during the crowd");
    assert!(p.brownout_active(f), "shed-rate trip should engage brownout");
    assert!(
        r.functions[&f].browned_out > 0,
        "brownout mode admitted no requests"
    );
    assert_conserved(&mut p, f);
}

#[test]
fn brownout_recovers_to_full_quota_after_the_crowd() {
    let (mut p, f) = flash_platform(Some(OverloadConfig::default()), 53);
    p.run_for(SimTime::from_secs(9));
    assert!(p.brownout_active(f), "crowd should brown the function out");
    // Long quiet tail: hysteresis must close the breaker and restore quota.
    p.run_for(SimTime::from_secs(21));
    assert!(!p.brownout_active(f), "brownout never recovered");
    assert_eq!(p.breaker_state(f), Some(BreakerState::Closed));
    assert_conserved(&mut p, f);
}

#[test]
fn node_crash_trips_the_breaker_to_fast_fail() {
    // Brownout off: a failure-cause trip must hard fast-fail arrivals.
    let o = OverloadConfig::default().brownout(false);
    let mut p = Platform::new(
        PlatformConfig::default()
            .nodes(1)
            .policy(SharingPolicy::FaST)
            .seed(59)
            .overload(o),
    );
    let f = p
        .deploy(
            FunctionConfig::new("crashy", "resnet50")
                .slo_ms(200)
                .replicas(2)
                .resources(50.0, 0.5, 0.8),
        )
        .unwrap();
    p.set_load(f, fastg_workload::ArrivalProcess::poisson(60.0, 59));
    p.run_for(SimTime::from_secs(2));
    assert!(p.crash_node(0));
    // Crash-lost requests are breaker failures; with every replica gone,
    // new arrivals queue until the next tick trips the breaker, after
    // which they are refused outright.
    let r = p.run_for(SimTime::from_secs(3));
    assert_eq!(p.breaker_state(f), Some(BreakerState::Open));
    assert!(r.functions[&f].breaker_trips >= 1);
    assert!(
        r.functions[&f].rejected > 0,
        "an Open breaker without brownout must fast-fail arrivals"
    );
    assert_conserved(&mut p, f);
}

#[test]
fn overload_control_improves_goodput_and_cuts_waste() {
    let run = |overload: Option<OverloadConfig>| {
        let (mut p, f) = flash_platform(overload, 61);
        let r = p.run_for(SimTime::from_secs(30));
        (
            r.functions[&f].goodput_rps,
            r.functions[&f].wasted_service,
        )
    };
    let (good_on, waste_on) = run(Some(OverloadConfig::default()));
    let (good_off, waste_off) = run(None);
    assert!(
        good_on > good_off,
        "goodput with control on ({good_on:.2} rps) must beat off ({good_off:.2} rps)"
    );
    assert!(
        waste_on < waste_off,
        "wasted work with control on ({waste_on}) must be below off ({waste_off})"
    );
}

#[test]
fn overload_runs_replay_digest_identically() {
    let digest = || {
        let (mut p, _) = flash_platform(Some(OverloadConfig::default()), 67);
        let r = p.run_for(SimTime::from_secs(20));
        (r.digest(), p.events_handled())
    };
    assert_eq!(digest(), digest());
}

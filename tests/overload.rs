//! Overload control plane behaviour: bounded admission, deadline-aware
//! shedding, circuit breaking and brownout serving under flash crowds.

use fastg_cluster::FuncId;
use fastg_des::SimTime;
use fastg_workload::patterns;
use fastgshare::manager::SharingPolicy;
use fastg_workload::ArrivalProcess;
use fastgshare::platform::overload::{BREAKER_WINDOW, HALF_OPEN_PROBES, QUEUE_CAPACITY};
use fastgshare::platform::{FunctionConfig, FunctionReport, Platform, PlatformConfig};

/// Two replicas at half quota (~70 rps capacity) hit by a 400 rps flash
/// crowd: the canonical overload scenario.
fn flash_platform(overload: bool, seed: u64) -> (Platform, FuncId) {
    let mut p = Platform::new(
        PlatformConfig::default()
            .nodes(2)
            .policy(SharingPolicy::FaST)
            .seed(seed)
            .overload_control(overload),
    );
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

/// The report of `f` after a fork of `p` runs on to just before the next
/// breaker tick, under `load` if given. No tick falls inside, so the
/// breaker's admission policy is the one `p` holds now. The fork leaves
/// `p`'s own run untouched.
fn fork_to_next_tick(p: &Platform, f: FuncId, load: Option<ArrivalProcess>) -> FunctionReport {
    let mut fork = p.clone();
    if let Some(load) = load {
        fork.set_load(f, load);
    }
    let report = fork.run_for(BREAKER_WINDOW - SimTime::from_micros(1));
    report.functions[&f].clone()
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
    let (mut p, f) = flash_platform(true, 41);
    let r = p.run_for(SimTime::from_secs(12));
    let queued = p.queued_requests(f);
    assert!(queued <= QUEUE_CAPACITY, "queue {queued} over cap {QUEUE_CAPACITY}");
    assert!(r.functions[&f].rejected > 0, "flash crowd never hit the bound");
    assert_conserved(&mut p, f);
}

#[test]
fn without_overload_control_the_queue_grows_unbounded() {
    let (mut p, f) = flash_platform(false, 41);
    p.run_for(SimTime::from_secs(11));
    let r = p.report();
    let fr = &r.functions[&f];
    assert_eq!(fr.rejected, 0);
    assert_eq!(fr.shed_deadline, 0);
    assert_eq!(fr.breaker_trips, 0);
    assert!(
        p.queued_requests(f) > QUEUE_CAPACITY,
        "silent unbounded queueing should exceed the bounded cap (got {})",
        p.queued_requests(f)
    );
    assert_conserved(&mut p, f);
}

#[test]
fn deadline_shedding_drops_provably_dead_requests() {
    let (mut p, f) = flash_platform(true, 43);
    let r = p.run_for(SimTime::from_secs(15));
    assert!(
        r.functions[&f].shed_deadline > 0,
        "a 200 ms deadline cannot survive a 400 rps crowd over ~70 rps capacity"
    );
    assert_conserved(&mut p, f);
}

#[test]
fn breaker_trips_and_brownout_serves_degraded() {
    let (mut p, f) = flash_platform(true, 47);
    // Run to mid-crowd: breaker must have tripped on shed rate.
    let r = p.run_for(SimTime::from_secs(9));
    assert!(r.functions[&f].breaker_trips >= 1, "no trip during the crowd");
    let next = fork_to_next_tick(&p, f, None);
    assert!(
        next.browned_out > r.functions[&f].browned_out,
        "shed-rate trip should engage brownout"
    );
    assert!(
        r.functions[&f].browned_out > 0,
        "brownout mode admitted no requests"
    );
    assert_conserved(&mut p, f);
}

#[test]
fn brownout_recovers_to_full_quota_after_the_crowd() {
    let (mut p, f) = flash_platform(true, 53);
    let r = p.run_for(SimTime::from_secs(9));
    let next = fork_to_next_tick(&p, f, None);
    assert!(
        next.browned_out > r.functions[&f].browned_out,
        "crowd should brown the function out"
    );
    // Long quiet tail: hysteresis must close the breaker and restore quota.
    let r = &p.run_for(SimTime::from_secs(21)).functions[&f];
    // A closed breaker admits every arrival, past the half-open probes,
    // and none browned-out.
    let next = fork_to_next_tick(&p, f, Some(ArrivalProcess::constant(40.0)));
    assert!(next.arrivals - r.arrivals > HALF_OPEN_PROBES, "the fork offered too few arrivals");
    assert_eq!(next.browned_out, r.browned_out, "brownout never recovered");
    assert_eq!(next.rejected, r.rejected, "the breaker is not closed");
    assert_conserved(&mut p, f);
}

/// A node crash loses in-flight requests; the breaker counts them as
/// failures, trips with cause `Failure` and fast-fails new arrivals, even
/// though a shed-cause trip would serve them browned-out. At 150 rps the
/// crash at 2 s loses two requests, enough for a failure trip at the
/// 2.25 s tick. The run is stepped 5 ms at a time: a step that refuses
/// arrivals while its queue could not have reached [`QUEUE_CAPACITY`]
/// (the queue before the step plus the step's arrivals stays below it)
/// refused them at the breaker, and only a failure-cause trip refuses
/// there.
#[test]
fn node_crash_trips_the_breaker_to_fast_fail() {
    let mut p = Platform::new(
        PlatformConfig::default()
            .nodes(1)
            .policy(SharingPolicy::FaST)
            .seed(59)
            .overload_control(true),
    );
    let f = p
        .deploy(
            FunctionConfig::new("crashy", "resnet50")
                .slo_ms(200)
                .replicas(2)
                .resources(50.0, 0.5, 0.8),
        )
        .unwrap();
    p.set_load(f, fastg_workload::ArrivalProcess::poisson(150.0, 59));
    let before = p.run_for(SimTime::from_secs(2));
    assert_eq!(before.functions[&f].breaker_trips, 0, "tripped before the crash");
    assert!(p.crash_node(0));
    let (mut arrivals, mut rejected) = (before.functions[&f].arrivals, before.functions[&f].rejected);
    let mut breaker_refusals = 0;
    for _ in 0..600 {
        let queued = p.queued_requests(f) as u64;
        let r = p.run_for(SimTime::from_millis(5));
        let fr = &r.functions[&f];
        if fr.rejected > rejected && queued + (fr.arrivals - arrivals) < QUEUE_CAPACITY as u64 {
            breaker_refusals += fr.rejected - rejected;
        }
        (arrivals, rejected) = (fr.arrivals, fr.rejected);
    }
    assert!(p.report().functions[&f].breaker_trips >= 1);
    assert!(
        breaker_refusals > 0,
        "a failure-cause trip must fast-fail arrivals below the queue bound"
    );
    assert_conserved(&mut p, f);
}

#[test]
fn overload_control_improves_goodput_and_cuts_waste() {
    let run = |overload: bool| {
        let (mut p, f) = flash_platform(overload, 61);
        let r = p.run_for(SimTime::from_secs(30));
        (
            r.functions[&f].goodput_rps,
            r.functions[&f].wasted_service,
        )
    };
    let (good_on, waste_on) = run(true);
    let (good_off, waste_off) = run(false);
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
        let (mut p, _) = flash_platform(true, 67);
        let r = p.run_for(SimTime::from_secs(20));
        (r.digest(), p.events_handled())
    };
    assert_eq!(digest(), digest());
}

//! Overload control plane: bounded admission, deadline-aware shedding,
//! per-function circuit breaking and brownout serving.
//!
//! FaST-GShare's SLO machinery (Algorithms 1–2) holds only while the
//! auto-scaler can keep up. During a flash crowd — or while a node from
//! the fault plan is down — the platform needs to *refuse, shed or
//! degrade* work instead of queueing it without limit. This module holds
//! the pure state machines; the engine drives them from DES events so the
//! whole plane replays digest-identically at any thread count, with
//! fast-forward on or off, clean or under chaos.
//!
//! Control loop, per function:
//!
//! * the gateway bounds the admission queue
//!   ([`queue_capacity`](OverloadConfig::queue_capacity)) and refuses the
//!   excess (`Admission::Overloaded`);
//! * every admitted request carries an absolute deadline
//!   (`arrival + deadline_factor × SLO`); at each dispatch opportunity the
//!   queue prefix whose deadlines are provably unmeetable — queue wait
//!   plus the smoothed service-time estimate exceeds the deadline — is
//!   shed before any capacity is burned on it;
//! * a [`CircuitBreaker`] watches per-window shed and failure ratios and
//!   trips Closed → Open; Open transitions to HalfOpen on a deterministic
//!   timer and lets a bounded number of probe requests through; probes
//!   must stay healthy for a hysteresis streak before the breaker closes;
//! * a shed-rate trip enters **brownout**: the engine reconfigures the
//!   function's replicas to a reduced quota request (serving degraded
//!   instead of hard-failing) and restores full quota only after a
//!   recovery-hysteresis streak of healthy windows; a failure-rate trip
//!   (node crash) fast-fails new arrivals until probes succeed.

use fastg_des::snap::SnapError;
use fastg_des::{snap_enum, snap_struct, SimTime};
use std::collections::BTreeSet;

/// Tuning for the overload control plane. Attached to
/// [`PlatformConfig`](super::PlatformConfig) via
/// [`overload`](super::PlatformConfig::overload); `None` disables the
/// whole plane (legacy unbounded queueing).
#[derive(Debug, Clone, Copy)]
pub struct OverloadConfig {
    /// Bound on each function's admission queue; arrivals beyond it are
    /// rejected with `Admission::Overloaded`.
    pub queue_capacity: usize,
    /// Absolute deadline as a multiple of the function's SLO
    /// (deadline = arrival + factor × SLO). 1.0 sheds everything that
    /// cannot meet the SLO itself.
    pub deadline_factor: f64,
    /// Breaker evaluation period (one `BreakerTick` per window).
    pub breaker_window: SimTime,
    /// Closed → Open when `(shed + rejected) / arrivals` in a window
    /// reaches this ratio (with at least `min_window_arrivals` arrivals).
    pub trip_shed_ratio: f64,
    /// Closed → Open when `failures / (failures + successes)` in a window
    /// reaches this ratio (with at least `min_failures` failures).
    /// Failures are crash-lost requests — this is the fast-fail path for
    /// node crashes.
    pub trip_failure_ratio: f64,
    /// Minimum arrivals in a window before the shed ratio can trip.
    pub min_window_arrivals: u64,
    /// Minimum failures in a window before the failure ratio can trip.
    pub min_failures: u64,
    /// How long the breaker stays Open before probing (Open → HalfOpen).
    pub open_duration: SimTime,
    /// Probe admissions allowed per window while HalfOpen.
    pub half_open_probes: u64,
    /// Consecutive all-healthy HalfOpen windows required to close.
    pub close_healthy_windows: u32,
    /// Serve degraded instead of hard-failing on shed-rate trips.
    pub brownout: bool,
    /// Quota-request multiplier applied to replicas while browned out.
    pub brownout_quota_factor: f64,
    /// Consecutive healthy Closed windows before full quota is restored.
    pub recover_healthy_windows: u32,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            queue_capacity: 64,
            deadline_factor: 1.0,
            breaker_window: SimTime::from_millis(250),
            trip_shed_ratio: 0.5,
            trip_failure_ratio: 0.5,
            min_window_arrivals: 10,
            min_failures: 2,
            open_duration: SimTime::from_millis(500),
            half_open_probes: 4,
            close_healthy_windows: 2,
            brownout: true,
            brownout_quota_factor: 0.5,
            recover_healthy_windows: 3,
        }
    }
}

impl OverloadConfig {
    /// Sets the admission-queue bound.
    pub fn queue_capacity(mut self, cap: usize) -> Self {
        self.queue_capacity = cap.max(1);
        self
    }

    /// Sets the deadline as a multiple of the SLO.
    pub fn deadline_factor(mut self, f: f64) -> Self {
        debug_assert!(f > 0.0, "non-positive deadline factor");
        if f.is_finite() && f > 0.0 {
            self.deadline_factor = f;
        }
        self
    }

    /// Sets the breaker evaluation window.
    pub fn breaker_window(mut self, w: SimTime) -> Self {
        debug_assert!(w > SimTime::ZERO, "zero breaker window");
        self.breaker_window = w.max(SimTime::from_micros(1));
        self
    }

    /// Sets the Open dwell time before probing.
    pub fn open_duration(mut self, d: SimTime) -> Self {
        self.open_duration = d;
        self
    }

    /// Enables/disables brownout serving on shed-rate trips.
    pub fn brownout(mut self, on: bool) -> Self {
        self.brownout = on;
        self
    }

    /// Sets the browned-out quota-request multiplier, clamped to (0, 1].
    pub fn brownout_quota_factor(mut self, f: f64) -> Self {
        debug_assert!(f > 0.0 && f <= 1.0, "brownout factor out of (0, 1]");
        if f.is_finite() {
            self.brownout_quota_factor = f.clamp(0.05, 1.0);
        }
        self
    }
}

/// Circuit-breaker states (the classic three-state machine, driven by
/// deterministic DES timers instead of wall clocks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal admission; window ratios are watched for trips.
    Closed,
    /// Tripped: arrivals fast-fail (or serve browned-out after a
    /// shed-rate trip) until `open_duration` elapses.
    Open,
    /// Probing: a bounded number of requests per window are admitted and
    /// their outcomes decide between re-opening and closing.
    HalfOpen,
}

impl BreakerState {
    /// Canonical lowercase name (used in reports and displays).
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// Why the breaker last tripped — decides Open-state behaviour (brownout
/// serving for overload, fast-fail for crash-driven failures).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TripCause {
    /// Shed/reject ratio over threshold (flash crowd).
    Shed,
    /// Failure ratio over threshold (crash-lost requests).
    Failure,
}

/// What the engine must do after a breaker tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerAction {
    /// Nothing beyond internal state bookkeeping.
    None,
    /// The breaker tripped on shed rate with brownout enabled: degrade
    /// the function's replicas to the brownout quota.
    EnterBrownout,
    /// Recovery hysteresis satisfied: restore full quota.
    ExitBrownout,
}

/// Per-arrival admission decision from [`CircuitBreaker::admit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitDecision {
    /// Admit normally.
    Admit,
    /// Admit as a HalfOpen probe (outcome feeds the close decision).
    Probe,
    /// Fast-fail without queueing.
    Refuse,
}

/// Per-function circuit breaker. All state is integer counters, BTree
/// collections and `SimTime`s — replay is digest-exact by construction.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    state: BreakerState,
    cause: TripCause,
    opened_at: SimTime,
    trips: u64,
    /// Current-window counters, reset every tick.
    arrivals: u64,
    sheds: u64,
    failures: u64,
    successes: u64,
    /// HalfOpen probe bookkeeping (ids survive across windows until their
    /// outcome arrives).
    probe_ids: BTreeSet<u64>,
    probes_admitted: u64,
    probe_successes: u64,
    probe_failures: u64,
    healthy_windows: u32,
    /// Brownout latch: set on a shed trip, cleared by recovery hysteresis.
    browned: bool,
}

impl Default for CircuitBreaker {
    fn default() -> Self {
        Self::new()
    }
}

impl CircuitBreaker {
    /// A closed breaker with no history.
    pub fn new() -> Self {
        CircuitBreaker {
            state: BreakerState::Closed,
            cause: TripCause::Shed,
            opened_at: SimTime::ZERO,
            trips: 0,
            arrivals: 0,
            sheds: 0,
            failures: 0,
            successes: 0,
            probe_ids: BTreeSet::new(),
            probes_admitted: 0,
            probe_successes: 0,
            probe_failures: 0,
            healthy_windows: 0,
            browned: false,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Why the breaker last tripped.
    pub fn cause(&self) -> TripCause {
        self.cause
    }

    /// Times the breaker has tripped Closed/HalfOpen → Open.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Whether the function is currently serving browned-out.
    pub fn browned(&self) -> bool {
        self.browned
    }

    /// Decides admission for one arrival. Counts the arrival; a refusal
    /// also counts as a shed in the current window.
    pub fn admit(&mut self, cfg: &OverloadConfig, id: u64) -> AdmitDecision {
        self.arrivals += 1;
        match self.state {
            BreakerState::Closed => AdmitDecision::Admit,
            BreakerState::Open => self.degraded_admit(cfg),
            BreakerState::HalfOpen => {
                if self.probes_admitted < cfg.half_open_probes {
                    self.probes_admitted += 1;
                    self.probe_ids.insert(id);
                    AdmitDecision::Probe
                } else {
                    self.degraded_admit(cfg)
                }
            }
        }
    }

    /// Open-state policy: brownout serving after a shed trip (if
    /// enabled), otherwise fast-fail.
    fn degraded_admit(&mut self, cfg: &OverloadConfig) -> AdmitDecision {
        if cfg.brownout && self.cause == TripCause::Shed {
            AdmitDecision::Admit
        } else {
            self.sheds += 1;
            AdmitDecision::Refuse
        }
    }

    /// Records a request shed or rejected after admission (queue full,
    /// deadline unmeetable, queue timeout).
    pub fn on_shed(&mut self, id: u64) {
        self.sheds += 1;
        if self.probe_ids.remove(&id) {
            self.probe_failures += 1;
        }
    }

    /// Records a request lost to a pod/node crash.
    pub fn on_failure(&mut self, id: u64) {
        self.failures += 1;
        if self.probe_ids.remove(&id) {
            self.probe_failures += 1;
        }
    }

    /// Records a completion; `met_slo` decides probe health.
    pub fn on_completion(&mut self, id: u64, met_slo: bool) {
        self.successes += 1;
        if self.probe_ids.remove(&id) {
            if met_slo {
                self.probe_successes += 1;
            } else {
                self.probe_failures += 1;
            }
        }
    }

    /// One deterministic evaluation tick at `now`. Advances the state
    /// machine, resets window counters and tells the engine what (if
    /// anything) to reconfigure.
    pub fn tick(&mut self, now: SimTime, cfg: &OverloadConfig) -> BreakerAction {
        let action = match self.state {
            BreakerState::Closed => self.tick_closed(now, cfg),
            BreakerState::Open => {
                if now.saturating_sub(self.opened_at) >= cfg.open_duration {
                    self.state = BreakerState::HalfOpen;
                    self.reset_probes();
                    self.healthy_windows = 0;
                }
                BreakerAction::None
            }
            BreakerState::HalfOpen => {
                if self.probe_failures > 0 {
                    // A probe died: re-open and wait another full dwell.
                    self.trip(now, self.cause, cfg)
                } else if self.probe_successes > 0 {
                    // Every resolved probe this window was healthy.
                    self.healthy_windows += 1;
                    if self.healthy_windows >= cfg.close_healthy_windows {
                        self.state = BreakerState::Closed;
                        self.healthy_windows = 0;
                        self.probe_ids.clear();
                    } else {
                        self.reset_probes();
                    }
                    BreakerAction::None
                } else {
                    // No probe outcomes yet: keep waiting (idle functions
                    // stay HalfOpen until traffic probes them).
                    BreakerAction::None
                }
            }
        };
        self.arrivals = 0;
        self.sheds = 0;
        self.failures = 0;
        self.successes = 0;
        action
    }

    fn tick_closed(&mut self, now: SimTime, cfg: &OverloadConfig) -> BreakerAction {
        let shed_trip = self.arrivals >= cfg.min_window_arrivals
            && self.sheds as f64 >= cfg.trip_shed_ratio * self.arrivals as f64;
        let outcomes = self.failures + self.successes;
        let failure_trip = self.failures >= cfg.min_failures
            && outcomes > 0
            && self.failures as f64 >= cfg.trip_failure_ratio * outcomes as f64;
        if failure_trip || shed_trip {
            // Failure trips dominate: a crashed node must fast-fail even
            // if the dead capacity also inflates the shed ratio.
            let cause = if failure_trip {
                TripCause::Failure
            } else {
                TripCause::Shed
            };
            return self.trip(now, cause, cfg);
        }
        // Healthy Closed window: advance brownout-recovery hysteresis.
        if self.browned {
            let unhealthy = self.sheds > 0 || self.failures > 0;
            if unhealthy {
                self.healthy_windows = 0;
            } else {
                self.healthy_windows += 1;
                if self.healthy_windows >= cfg.recover_healthy_windows {
                    self.browned = false;
                    self.healthy_windows = 0;
                    return BreakerAction::ExitBrownout;
                }
            }
        }
        BreakerAction::None
    }

    fn trip(&mut self, now: SimTime, cause: TripCause, cfg: &OverloadConfig) -> BreakerAction {
        self.state = BreakerState::Open;
        self.cause = cause;
        self.opened_at = now;
        self.trips += 1;
        self.healthy_windows = 0;
        self.probe_ids.clear();
        if cause == TripCause::Shed && cfg.brownout && !self.browned {
            self.browned = true;
            BreakerAction::EnterBrownout
        } else {
            BreakerAction::None
        }
    }

    fn reset_probes(&mut self) {
        self.probes_admitted = 0;
        self.probe_successes = 0;
        self.probe_failures = 0;
        self.probe_ids.clear();
    }
}

snap_struct!(OverloadConfig {
    queue_capacity, deadline_factor, breaker_window, trip_shed_ratio, trip_failure_ratio,
    min_window_arrivals, min_failures, open_duration, half_open_probes, close_healthy_windows,
    brownout, brownout_quota_factor, recover_healthy_windows,
} check |cfg| {
    if cfg.queue_capacity == 0
        || cfg.breaker_window == SimTime::ZERO
        || !(cfg.deadline_factor.is_finite() && cfg.deadline_factor > 0.0)
    {
        return Err(SnapError::new("overload config bounds"));
    }
    Ok(())
});

snap_enum!(BreakerState, "breaker state tag" { Closed = 0, Open = 1, HalfOpen = 2 });

snap_enum!(TripCause, "trip cause tag" { Shed = 0, Failure = 1 });

snap_struct!(CircuitBreaker {
    state, cause, opened_at, trips, arrivals, sheds, failures, successes, probe_ids,
    probes_admitted, probe_successes, probe_failures, healthy_windows, browned,
} check |b| {
    let probe_count =
        u64::try_from(b.probe_ids.len()).map_err(|_| SnapError::new("breaker probe count"))?;
    if probe_count > b.probes_admitted {
        return Err(SnapError::new("breaker probe accounting"));
    }
    Ok(())
});

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> OverloadConfig {
        OverloadConfig::default()
            .breaker_window(SimTime::from_millis(100))
            .open_duration(SimTime::from_millis(200))
    }

    /// Drives `n` arrivals, shedding `shed` of them.
    fn window(b: &mut CircuitBreaker, cfg: &OverloadConfig, n: u64, shed: u64) {
        for i in 0..n {
            b.admit(cfg, 1000 + i);
            if i < shed {
                b.on_shed(1000 + i);
            } else {
                b.on_completion(1000 + i, true);
            }
        }
    }

    #[test]
    fn shed_ratio_trips_into_brownout() {
        let c = cfg();
        let mut b = CircuitBreaker::new();
        window(&mut b, &c, 20, 4); // 20 % shed: below threshold
        assert_eq!(b.tick(SimTime::from_millis(100), &c), BreakerAction::None);
        assert_eq!(b.state(), BreakerState::Closed);
        window(&mut b, &c, 20, 15); // 75 % shed: trip
        let act = b.tick(SimTime::from_millis(200), &c);
        assert_eq!(act, BreakerAction::EnterBrownout);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.cause(), TripCause::Shed);
        assert_eq!(b.trips(), 1);
        assert!(b.browned());
        // Brownout serving: Open still admits.
        assert_eq!(b.admit(&c, 1), AdmitDecision::Admit);
    }

    #[test]
    fn failure_trip_fast_fails() {
        let c = cfg();
        let mut b = CircuitBreaker::new();
        for id in 0..6u64 {
            b.admit(&c, id);
            b.on_failure(id);
        }
        assert_eq!(b.tick(SimTime::from_millis(100), &c), BreakerAction::None);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.cause(), TripCause::Failure);
        assert!(!b.browned(), "failure trips never brown out");
        // Fast-fail, not brownout serving.
        assert_eq!(b.admit(&c, 99), AdmitDecision::Refuse);
    }

    #[test]
    fn open_probes_then_closes_with_hysteresis() {
        let c = cfg();
        let mut b = CircuitBreaker::new();
        for id in 0..6u64 {
            b.admit(&c, id);
            b.on_failure(id);
        }
        b.tick(SimTime::from_millis(100), &c);
        assert_eq!(b.state(), BreakerState::Open);
        // Dwell not yet over.
        b.tick(SimTime::from_millis(200), &c);
        assert_eq!(b.state(), BreakerState::Open);
        // Dwell over: HalfOpen, probes admitted.
        b.tick(SimTime::from_millis(300), &c);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(b.admit(&c, 50), AdmitDecision::Probe);
        b.on_completion(50, true);
        b.tick(SimTime::from_millis(400), &c);
        assert_eq!(b.state(), BreakerState::HalfOpen, "needs 2 healthy windows");
        assert_eq!(b.admit(&c, 51), AdmitDecision::Probe);
        b.on_completion(51, true);
        b.tick(SimTime::from_millis(500), &c);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn failed_probe_reopens() {
        let c = cfg();
        let mut b = CircuitBreaker::new();
        for id in 0..6u64 {
            b.admit(&c, id);
            b.on_failure(id);
        }
        b.tick(SimTime::from_millis(100), &c);
        b.tick(SimTime::from_millis(300), &c);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(b.admit(&c, 50), AdmitDecision::Probe);
        b.on_failure(50);
        b.tick(SimTime::from_millis(400), &c);
        assert_eq!(b.state(), BreakerState::Open, "dead probe must re-open");
        assert_eq!(b.trips(), 2);
    }

    #[test]
    fn probe_budget_is_bounded() {
        let c = cfg();
        let mut b = CircuitBreaker::new();
        for id in 0..6u64 {
            b.admit(&c, id);
            b.on_failure(id);
        }
        b.tick(SimTime::from_millis(100), &c);
        b.tick(SimTime::from_millis(300), &c);
        let mut probes = 0;
        let mut refused = 0;
        for id in 100..120u64 {
            match b.admit(&c, id) {
                AdmitDecision::Probe => probes += 1,
                AdmitDecision::Refuse => refused += 1,
                AdmitDecision::Admit => panic!("failure-cause HalfOpen must not admit freely"),
            }
        }
        assert_eq!(probes, c.half_open_probes);
        assert_eq!(refused, 20 - c.half_open_probes);
    }

    #[test]
    fn brownout_recovery_needs_consecutive_healthy_windows() {
        let c = cfg();
        let mut b = CircuitBreaker::new();
        window(&mut b, &c, 20, 15);
        assert_eq!(
            b.tick(SimTime::from_millis(100), &c),
            BreakerAction::EnterBrownout
        );
        // Probe back to Closed.
        b.tick(SimTime::from_millis(300), &c); // HalfOpen
        for t in [400u64, 500] {
            let id = t;
            assert_eq!(b.admit(&c, id), AdmitDecision::Probe);
            b.on_completion(id, true);
            b.tick(SimTime::from_millis(t), &c);
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.browned(), "quota stays degraded until hysteresis clears");
        // One unhealthy window resets the streak.
        window(&mut b, &c, 10, 1);
        assert_eq!(b.tick(SimTime::from_millis(600), &c), BreakerAction::None);
        // Three clean windows restore full quota.
        for t in [700u64, 800] {
            window(&mut b, &c, 10, 0);
            assert_eq!(b.tick(SimTime::from_millis(t), &c), BreakerAction::None);
        }
        window(&mut b, &c, 10, 0);
        assert_eq!(
            b.tick(SimTime::from_millis(900), &c),
            BreakerAction::ExitBrownout
        );
        assert!(!b.browned());
    }
}

//! Overload control plane: bounded admission, deadline-aware shedding,
//! per-function circuit breaking and brownout serving.
//!
//! FaST-GShare's SLO machinery (Algorithms 1–2) holds only while the
//! auto-scaler can keep up. During a flash crowd — or while a node from
//! the fault plan is down — the platform needs to *refuse, shed or
//! degrade* work instead of queueing it without limit. This module holds
//! the pure state machines and the engine's breaker tick, which drives
//! them from DES events so the whole plane replays digest-identically at
//! any thread count, with fast-forward on or off, clean or under chaos.
//!
//! Control loop, per function:
//!
//! * the gateway bounds the admission queue ([`QUEUE_CAPACITY`]) and
//!   refuses the excess (`Admission::Overloaded`);
//! * every admitted request carries an absolute deadline
//!   (`arrival + DEADLINE_FACTOR × SLO`); at each dispatch opportunity
//!   the queue prefix whose deadlines are provably unmeetable — queue
//!   wait plus the smoothed service-time estimate exceeds the deadline —
//!   is shed before any capacity is burned on it;
//! * a [`CircuitBreaker`] watches per-window shed and failure ratios and
//!   trips Closed → Open; Open transitions to HalfOpen on a deterministic
//!   timer and lets a bounded number of probe requests through; probes
//!   must stay healthy for a hysteresis streak before the breaker closes;
//! * a shed-rate trip enters **brownout**: the engine reconfigures the
//!   function's replicas to a reduced quota request (serving degraded
//!   instead of hard-failing) and restores full quota only after a
//!   recovery-hysteresis streak of healthy windows; a failure-rate trip
//!   (node crash) fast-fails new arrivals until probes succeed.
//!
//! The plane's tuning is the constants below, one value each.

use super::engine::{schedule_next, Engine, Event};
use fastg_cluster::{FuncId, ResourceSpec};
use fastg_des::snap::SnapError;
use fastg_des::{snap_enum, snap_struct, EventQueue, SimTime};
use std::collections::BTreeSet;

/// Bound on each function's admission queue; arrivals beyond it are
/// rejected with `Admission::Overloaded`.
pub const QUEUE_CAPACITY: usize = 64;
/// Absolute deadline as a multiple of the function's SLO
/// (deadline = arrival + factor × SLO): 1.0 sheds everything that cannot
/// meet the SLO itself.
pub const DEADLINE_FACTOR: f64 = 1.0;
/// Breaker evaluation period (one `BreakerTick` per window).
pub const BREAKER_WINDOW: SimTime = SimTime::from_millis(250);
/// Closed → Open when `(shed + rejected) / arrivals` in a window reaches
/// this ratio (with at least [`MIN_WINDOW_ARRIVALS`] arrivals).
pub const TRIP_SHED_RATIO: f64 = 0.5;
/// Closed → Open when `failures / (failures + successes)` in a window
/// reaches this ratio (with at least [`MIN_FAILURES`] failures).
/// Failures are crash-lost requests: this is the fast-fail path for node
/// crashes.
pub const TRIP_FAILURE_RATIO: f64 = 0.5;
/// Minimum arrivals in a window before the shed ratio can trip.
pub const MIN_WINDOW_ARRIVALS: u64 = 10;
/// Minimum failures in a window before the failure ratio can trip.
pub const MIN_FAILURES: u64 = 2;
/// How long the breaker stays Open before probing (Open → HalfOpen).
pub const OPEN_DURATION: SimTime = SimTime::from_millis(500);
/// Probe admissions allowed per window while HalfOpen.
pub const HALF_OPEN_PROBES: u64 = 4;
/// Consecutive all-healthy HalfOpen windows required to close.
pub const CLOSE_HEALTHY_WINDOWS: u32 = 2;
/// Quota-request multiplier applied to replicas while browned out.
pub const BROWNOUT_QUOTA_FACTOR: f64 = 0.5;
/// Consecutive healthy Closed windows before full quota is restored.
pub const RECOVER_HEALTHY_WINDOWS: u32 = 3;

/// Turns the overload control plane on through
/// [`PlatformConfig::overload`](super::PlatformConfig::overload). It
/// carries no tuning: the plane's values are this module's constants.
#[derive(Debug, Clone, Copy, Default)]
pub struct OverloadConfig;

/// Circuit-breaker states (the classic three-state machine, driven by
/// deterministic DES timers instead of wall clocks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal admission; window ratios are watched for trips.
    Closed,
    /// Tripped: arrivals fast-fail (or serve browned-out after a
    /// shed-rate trip) until [`OPEN_DURATION`] elapses.
    Open,
    /// Probing: a bounded number of requests per window are admitted and
    /// their outcomes decide between re-opening and closing.
    HalfOpen,
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
    /// The breaker tripped on shed rate: degrade the function's replicas
    /// to the brownout quota.
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
    pub fn admit(&mut self, id: u64) -> AdmitDecision {
        self.arrivals += 1;
        match self.state {
            BreakerState::Closed => AdmitDecision::Admit,
            BreakerState::Open => self.degraded_admit(),
            BreakerState::HalfOpen => {
                if self.probes_admitted < HALF_OPEN_PROBES {
                    self.probes_admitted += 1;
                    self.probe_ids.insert(id);
                    AdmitDecision::Probe
                } else {
                    self.degraded_admit()
                }
            }
        }
    }

    /// Open-state policy: brownout serving after a shed trip, fast-fail
    /// after a failure trip.
    fn degraded_admit(&mut self) -> AdmitDecision {
        if self.cause == TripCause::Shed {
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
    pub fn tick(&mut self, now: SimTime) -> BreakerAction {
        let action = match self.state {
            BreakerState::Closed => self.tick_closed(now),
            BreakerState::Open => {
                if now.saturating_sub(self.opened_at) >= OPEN_DURATION {
                    self.state = BreakerState::HalfOpen;
                    self.reset_probes();
                    self.healthy_windows = 0;
                }
                BreakerAction::None
            }
            BreakerState::HalfOpen => {
                if self.probe_failures > 0 {
                    // A probe died: re-open and wait another full dwell.
                    self.trip(now, self.cause)
                } else if self.probe_successes > 0 {
                    // Every resolved probe this window was healthy.
                    self.healthy_windows += 1;
                    if self.healthy_windows >= CLOSE_HEALTHY_WINDOWS {
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

    fn tick_closed(&mut self, now: SimTime) -> BreakerAction {
        let shed_trip = self.arrivals >= MIN_WINDOW_ARRIVALS
            && self.sheds as f64 >= TRIP_SHED_RATIO * self.arrivals as f64;
        let outcomes = self.failures + self.successes;
        let failure_trip = self.failures >= MIN_FAILURES
            && outcomes > 0
            && self.failures as f64 >= TRIP_FAILURE_RATIO * outcomes as f64;
        if failure_trip || shed_trip {
            // Failure trips dominate: a crashed node must fast-fail even
            // if the dead capacity also inflates the shed ratio.
            let cause = if failure_trip {
                TripCause::Failure
            } else {
                TripCause::Shed
            };
            return self.trip(now, cause);
        }
        // Healthy Closed window: advance brownout-recovery hysteresis.
        if self.browned {
            let unhealthy = self.sheds > 0 || self.failures > 0;
            if unhealthy {
                self.healthy_windows = 0;
            } else {
                self.healthy_windows += 1;
                if self.healthy_windows >= RECOVER_HEALTHY_WINDOWS {
                    self.browned = false;
                    self.healthy_windows = 0;
                    return BreakerAction::ExitBrownout;
                }
            }
        }
        BreakerAction::None
    }

    fn trip(&mut self, now: SimTime, cause: TripCause) -> BreakerAction {
        self.state = BreakerState::Open;
        self.cause = cause;
        self.opened_at = now;
        self.trips += 1;
        self.healthy_windows = 0;
        self.probe_ids.clear();
        if cause == TripCause::Shed && !self.browned {
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

impl Engine {
    /// One breaker evaluation window: shed stale queue prefixes, advance
    /// every function's breaker, and apply brownout transitions through
    /// the regular `reconfigure` path (which breaks fast-forward state on
    /// touched nodes, so replay stays digest-exact).
    pub(super) fn on_breaker_tick(&mut self, now: SimTime, queue: &mut EventQueue<Event>) {
        if !self.cfg.overload {
            return; // overload control disabled after scheduling: disarm
        }
        schedule_next(queue, now, BREAKER_WINDOW, Event::BreakerTick);
        let func_ids: Vec<FuncId> = self.funcs.keys().collect();
        for func in func_ids {
            // Requests can outlive their deadline between dispatch
            // opportunities; sweep them each window so the shed counters
            // see overload even when no pod goes idle.
            self.shed_dead_prefix(now, func);
            let Some(frt) = self.funcs.get_mut(func) else {
                continue;
            };
            match frt.breaker.tick(now) {
                BreakerAction::None => {}
                BreakerAction::EnterBrownout => self.enter_brownout(now, func, queue),
                BreakerAction::ExitBrownout => self.exit_brownout(now, func, queue),
            }
        }
    }

    /// Brownout entry: snapshot full-quota resources and reconfigure
    /// every replica to a reduced quota request (elastic limit kept), so
    /// the function keeps serving degraded instead of hard-failing.
    fn enter_brownout(&mut self, now: SimTime, func: FuncId, queue: &mut EventQueue<Event>) {
        let Some(frt) = self.funcs.get_mut(func) else {
            return;
        };
        let full = frt.resources;
        frt.normal_resources = full;
        let reduced = ResourceSpec::new(
            full.sm_partition,
            (full.quota_request * BROWNOUT_QUOTA_FACTOR).max(0.01),
            full.quota_limit,
            full.gpu_mem,
        );
        let applied = self.reconfigure(now, func, reduced, queue);
        debug_assert!(applied.is_ok(), "browning out a deployed function");
    }

    /// Brownout exit: restore the snapshot taken at entry.
    fn exit_brownout(&mut self, now: SimTime, func: FuncId, queue: &mut EventQueue<Event>) {
        let Some(frt) = self.funcs.get(func) else {
            return;
        };
        let full = frt.normal_resources;
        let applied = self.reconfigure(now, func, full, queue);
        debug_assert!(applied.is_ok(), "restoring a deployed function");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(t: u64) -> SimTime {
        SimTime::from_millis(t)
    }

    /// Drives `n` arrivals, shedding `shed` of them.
    fn window(b: &mut CircuitBreaker, n: u64, shed: u64) {
        for i in 0..n {
            b.admit(1000 + i);
            if i < shed {
                b.on_shed(1000 + i);
            } else {
                b.on_completion(1000 + i, true);
            }
        }
    }

    /// A breaker tripped on failures by its tick at 100 ms.
    fn failure_tripped() -> CircuitBreaker {
        let mut b = CircuitBreaker::new();
        for id in 0..6u64 {
            b.admit(id);
            b.on_failure(id);
        }
        assert_eq!(b.tick(ms(100)), BreakerAction::None);
        b
    }

    #[test]
    fn shed_ratio_trips_into_brownout() {
        let mut b = CircuitBreaker::new();
        window(&mut b, 20, 4); // 20 % shed: below threshold
        assert_eq!(b.tick(ms(100)), BreakerAction::None);
        assert_eq!(b.state, BreakerState::Closed);
        window(&mut b, 20, 15); // 75 % shed: trip
        let act = b.tick(ms(200));
        assert_eq!(act, BreakerAction::EnterBrownout);
        assert_eq!(b.state, BreakerState::Open);
        assert_eq!(b.cause, TripCause::Shed);
        assert_eq!(b.trips(), 1);
        assert!(b.browned());
        // Brownout serving: Open still admits.
        assert_eq!(b.admit(1), AdmitDecision::Admit);
    }

    #[test]
    fn failure_trip_fast_fails() {
        let mut b = failure_tripped();
        assert_eq!(b.state, BreakerState::Open);
        assert_eq!(b.cause, TripCause::Failure);
        assert!(!b.browned(), "failure trips never brown out");
        // Fast-fail, not brownout serving.
        assert_eq!(b.admit(99), AdmitDecision::Refuse);
    }

    #[test]
    fn open_probes_then_closes_with_hysteresis() {
        let mut b = failure_tripped();
        assert_eq!(b.state, BreakerState::Open);
        // Dwell not yet over, even one tick short of `OPEN_DURATION`.
        b.tick(ms(200));
        assert_eq!(b.state, BreakerState::Open);
        b.tick(ms(599));
        assert_eq!(b.state, BreakerState::Open);
        // Dwell over: HalfOpen, probes admitted.
        b.tick(ms(600));
        assert_eq!(b.state, BreakerState::HalfOpen);
        assert_eq!(b.admit(50), AdmitDecision::Probe);
        b.on_completion(50, true);
        b.tick(ms(700));
        assert_eq!(b.state, BreakerState::HalfOpen, "needs 2 healthy windows");
        assert_eq!(b.admit(51), AdmitDecision::Probe);
        b.on_completion(51, true);
        b.tick(ms(800));
        assert_eq!(b.state, BreakerState::Closed);
    }

    #[test]
    fn failed_probe_reopens() {
        let mut b = failure_tripped();
        b.tick(ms(600));
        assert_eq!(b.state, BreakerState::HalfOpen);
        assert_eq!(b.admit(50), AdmitDecision::Probe);
        b.on_failure(50);
        b.tick(ms(700));
        assert_eq!(b.state, BreakerState::Open, "dead probe must re-open");
        assert_eq!(b.trips(), 2);
    }

    #[test]
    fn probe_budget_is_bounded() {
        let mut b = failure_tripped();
        b.tick(ms(600));
        let mut probes = 0;
        let mut refused = 0;
        for id in 100..120u64 {
            match b.admit(id) {
                AdmitDecision::Probe => probes += 1,
                AdmitDecision::Refuse => refused += 1,
                AdmitDecision::Admit => panic!("failure-cause HalfOpen must not admit freely"),
            }
        }
        assert_eq!(probes, HALF_OPEN_PROBES);
        assert_eq!(refused, 20 - HALF_OPEN_PROBES);
    }

    #[test]
    fn brownout_recovery_needs_consecutive_healthy_windows() {
        let mut b = CircuitBreaker::new();
        window(&mut b, 20, 15);
        assert_eq!(b.tick(ms(100)), BreakerAction::EnterBrownout);
        // Probe back to Closed.
        b.tick(ms(600)); // HalfOpen
        for t in [700u64, 800] {
            let id = t;
            assert_eq!(b.admit(id), AdmitDecision::Probe);
            b.on_completion(id, true);
            b.tick(ms(t));
        }
        assert_eq!(b.state, BreakerState::Closed);
        assert!(b.browned(), "quota stays degraded until hysteresis clears");
        // One unhealthy window resets the streak.
        window(&mut b, 10, 1);
        assert_eq!(b.tick(ms(900)), BreakerAction::None);
        // Three clean windows restore full quota.
        for t in [1000u64, 1100] {
            window(&mut b, 10, 0);
            assert_eq!(b.tick(ms(t)), BreakerAction::None);
        }
        window(&mut b, 10, 0);
        assert_eq!(b.tick(ms(1200)), BreakerAction::ExitBrownout);
        assert!(!b.browned());
    }
}

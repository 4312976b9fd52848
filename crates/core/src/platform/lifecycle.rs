//! The request lifecycle, from the gateway's side: admission at
//! arrival, queue timeouts, pulling the next request for an idle pod,
//! completion accounting, and the retry of a request a crash lost.
//!
//! ## Queue timeouts
//!
//! With `request_timeout_factor` k set, a request times out k SLOs after
//! it arrived ([`Engine::queue_timeout`]). Each function keeps one timer,
//! at the instant in [`FuncRt::queue_timer`]. Queueing a request, at
//! arrival or by a crash retry, arms the timer at the request's timeout
//! when that is earlier than the live timer. When the timer fires, every
//! queued request whose timeout has come is shed, and the timer re-arms
//! at the new head's timeout. The queue is ordered by `(arrived, id)`
//! and every request of a function waits the same k SLOs, so the timed
//! out requests form a prefix and the head's timeout is the earliest.
//! A timer superseded by an earlier one stays queued, and does nothing
//! when it fires. A crash-lost request whose timeout has passed is
//! dropped at the retry instead of queueing.

use super::autoscale::{record_arrival, PREDICT_WINDOW};
use super::config::PlatformConfig;
use super::engine::{Engine, Event, FuncRt};
use super::overload::{AdmitDecision, DEADLINE_FACTOR};
use super::pod::PodAt;
use fastg_cluster::{Admission, FuncId, PodId, Request, RequestId};
use fastg_des::snap::SnapError;
use fastg_des::{EventQueue, SimTime};

/// The first id of the synthetic requests that keep saturating
/// functions busy; the gateway numbers real requests from 0, far below.
pub(super) const FIRST_SYNTHETIC: u64 = 1 << 60;

/// Whether a request is synthetic saturating work rather than one that
/// arrived at the gateway.
pub(super) fn is_synthetic(req: &Request) -> bool {
    req.id.0 >= FIRST_SYNTHETIC
}

impl Engine {
    pub(super) fn on_arrival(&mut self, now: SimTime, func: FuncId, queue: &mut EventQueue<Event>) {
        // Schedule the next arrival first (the process is self-timed). The
        // chain event is cancellable so `set_load` can replace the chain.
        // While a scaler runs, every arrival feeds its prediction, refused
        // or not; nothing else reads the window.
        if let Some(frt) = self.funcs.get_mut(func) {
            if self.autoscale_db.is_some() {
                record_arrival(&mut frt.arrival_window, now, PREDICT_WINDOW);
            }
            frt.arrival_token = frt
                .load
                .as_mut()
                .and_then(|l| l.next_after(now))
                .map(|t| queue.schedule_cancellable(t, Event::Arrival(func)));
        }
        // Breaker admission runs before the request touches the queue: an
        // Open breaker fast-fails (or serves browned-out) without burning
        // queue capacity. The probe id is the id the gateway will assign.
        // The deadline that shedding reads is set only under overload
        // control.
        let mut browned = false;
        let mut deadline = SimTime::MAX;
        if let (true, Some(frt)) = (self.cfg.overload, self.funcs.get_mut(func)) {
            let next_id = self.gateway.next_request_id();
            if frt.breaker.admit(next_id) == AdmitDecision::Refuse {
                self.gateway.reject_arrival(now, func);
                return;
            }
            browned = frt.breaker.browned();
            deadline = now
                .checked_add(frt.slo.slo().scale(DEADLINE_FACTOR))
                .unwrap_or(SimTime::MAX);
        }
        let (req, pod) = match self.gateway.on_arrival(now, func, deadline) {
            Admission::Overloaded(req) => {
                // Bounded queue full: counted as rejected by the gateway,
                // and as a shed signal for the breaker's trip ratio.
                if let Some(frt) = self.funcs.get_mut(func) {
                    frt.breaker.on_shed(req.id.0);
                }
                return;
            }
            Admission::Dispatch(req, pod) => (req, Some(pod)),
            Admission::Queue(req) => (req, None),
        };
        if let Some(frt) = self.funcs.get_mut(func) {
            frt.browned_out += u64::from(browned);
        }
        let Some(pod) = pod else {
            self.arm_queue_timer(&req, queue);
            return;
        };
        match self.locate(pod) {
            // The handler's last action: the pod may run ahead.
            Some(at) => {
                self.start_request(now, at, req);
                self.run_ahead(now, at, queue);
            }
            None => debug_assert!(false, "the gateway routes to live pods"),
        }
    }

    /// When `req` times out in its function's queue, or `None` if it
    /// never does: timeouts are off, or the instant is past the end of
    /// time.
    pub(super) fn queue_timeout(&self, req: &Request) -> Option<SimTime> {
        req.timeout(timeout_wait(&self.cfg, self.funcs.get(req.func)?)?)
    }

    /// Arms the queue timer of `req`'s function, which `req` just joined,
    /// at `req`'s timeout if that is earlier than the live timer.
    fn arm_queue_timer(&mut self, req: &Request, queue: &mut EventQueue<Event>) {
        let Some(at) = self.queue_timeout(req) else {
            return;
        };
        let Some(frt) = self.funcs.get_mut(req.func) else {
            return;
        };
        if frt.queue_timer.is_some_and(|live| live <= at) {
            return;
        }
        frt.queue_timer = Some(at);
        queue.schedule(at, Event::QueueTimeout(req.func));
    }

    /// A function's queue timer fired at `now`. Unless it was superseded,
    /// sheds every queued request whose timeout has come, each a drop and,
    /// under overload control, a shed for the breaker, then re-arms at the
    /// new head's timeout (in-flight requests are left to finish).
    pub(super) fn on_queue_timeout(&mut self, now: SimTime, func: FuncId, queue: &mut EventQueue<Event>) {
        let Some(frt) = self.funcs.get_mut(func) else {
            return;
        };
        if frt.queue_timer != Some(now) {
            return;
        }
        frt.queue_timer = None;
        let Some(wait) = timeout_wait(&self.cfg, frt) else {
            return;
        };
        let shed = self.gateway.time_out(now, func, wait);
        if self.cfg.overload {
            for req in &shed {
                frt.breaker.on_shed(req.id.0);
            }
        }
        if let Some(&head) = self.gateway.oldest_queued(func) {
            self.arm_queue_timer(&head, queue);
        }
    }

    /// Sheds the provably dead queue prefix, then pulls the next request
    /// for an idle pod. With overload control off (or a cold estimator)
    /// this is exactly `gateway.on_pod_idle`.
    pub(super) fn pull_next(&mut self, now: SimTime, func: FuncId, pod: PodId) -> Option<Request> {
        self.shed_dead_prefix(now, func);
        self.gateway.on_pod_idle(func, pod)
    }

    /// Deadline-aware shedding: drops every queued request whose deadline
    /// is unmeetable even if service started right now, per the EWMA
    /// service-time estimate. Each shed feeds the breaker.
    pub(super) fn shed_dead_prefix(&mut self, now: SimTime, func: FuncId) {
        if !self.cfg.overload {
            return;
        }
        let Some(est) = self.funcs.get(func).and_then(|f| f.service_est.mean()) else {
            return; // no completions yet: nothing to estimate with
        };
        let shed = self.gateway.shed_unmeetable(now, func, est);
        if shed.is_empty() {
            return;
        }
        if let Some(frt) = self.funcs.get_mut(func) {
            for r in &shed {
                frt.breaker.on_shed(r.id.0);
            }
        }
    }

    /// The next synthetic request of a saturating function.
    pub(super) fn synth_request(&mut self, now: SimTime, func: FuncId) -> Request {
        let id = RequestId(self.next_synth);
        self.next_synth += 1;
        Request {
            id,
            func,
            arrived: now,
            deadline: SimTime::MAX,
        }
    }

    /// Accounts the pod's finished request, then gives the pod its next
    /// one, or parks it idle, or deletes it if it is draining. Returns
    /// whether the pod took a next request, which the caller steps from
    /// `now`.
    pub(super) fn complete_request(
        &mut self,
        now: SimTime,
        at: PodAt,
        queue: &mut EventQueue<Event>,
    ) -> bool {
        let pod = at.pod;
        let Some(rt) = self.pod_rt_mut(at) else {
            debug_assert!(false, "completing on a live pod");
            return false;
        };
        let Some(active) = rt.active.take() else {
            debug_assert!(false, "completing a request");
            return false;
        };
        let func = rt.func;
        let draining = rt.draining;
        let arrived = active.req.arrived;
        let latency = now - arrived;
        // Terminal state: the gateway drops its retry bookkeeping for
        // this request (a leak otherwise — retry entries must not outlive
        // the requests they describe).
        self.gateway.complete_request(&active.req);
        let Some(frt) = self.funcs.get_mut(func) else {
            debug_assert!(false, "function exists");
            return false;
        };
        frt.slo.record(latency);
        frt.completions.record(now, self.cfg.warmup);
        let met = latency <= frt.slo.slo();
        let service = now.saturating_sub(active.started);
        if met {
            frt.goodput.record(now, self.cfg.warmup);
        } else {
            // Capacity burned on a request that was already over its SLO:
            // the wasted work overload control exists to avoid.
            frt.wasted_service += service;
        }
        // Only deadline shedding reads the service estimate.
        if self.cfg.overload {
            frt.service_est.observe(service);
            if !is_synthetic(&active.req) {
                frt.breaker.on_completion(active.req.id.0, met);
            }
        }
        let saturate = frt.saturate;

        // Draining pods are deleted as soon as their request finishes.
        if draining {
            self.release_idle(at, queue);
            self.delete_pod(at, queue);
            return false;
        }
        // Pull the next request, or park idle.
        let next = match self.pull_next(now, func, pod) {
            Some(req) => req,
            None if saturate => self.synth_request(now, func),
            None => {
                self.release_idle(at, queue);
                return false;
            }
        };
        self.start_request(now, at, next);
        true
    }

    /// Requeues a request lost to a crash, unless it is synthetic, or its
    /// retry budget is spent or its queue timeout has passed (then the
    /// gateway sheds it; a timed-out one is also a shed for the breaker).
    pub(super) fn retry_or_shed(&mut self, now: SimTime, req: Request, queue: &mut EventQueue<Event>) {
        if is_synthetic(&req) {
            return; // synthetic saturating request: just dropped
        }
        // Every call here is a crash-lost request: feed the breaker's
        // failure counter so a dying node fast-fails instead of queueing.
        if self.cfg.overload {
            if let Some(frt) = self.funcs.get_mut(req.func) {
                frt.breaker.on_failure(req.id.0);
            }
        }
        if let Some(budget) = self.cfg.retry_budget {
            if self.gateway.retries_of(&req) >= budget {
                self.gateway.drop_request(&req);
                return;
            }
        }
        if self.queue_timeout(&req).is_some_and(|at| at <= now) {
            self.gateway.drop_request(&req);
            if let (true, Some(frt)) = (self.cfg.overload, self.funcs.get_mut(req.func)) {
                frt.breaker.on_shed(req.id.0);
            }
            return;
        }
        match self.gateway.requeue(req) {
            Some(pod) => {
                if let Some(at) = self.locate(pod) {
                    self.assign_request(now, at, req, queue);
                }
            }
            None => self.arm_queue_timer(&req, queue),
        }
    }
}

/// How long a request of function `f` may wait before it times out:
/// `request_timeout_factor` SLOs, or `None` with timeouts off.
fn timeout_wait(cfg: &PlatformConfig, f: &FuncRt) -> Option<SimTime> {
    Some(f.slo.slo().scale(cfg.request_timeout_factor?))
}

/// The catalogue's three queue-timer rules for function `f` at `now`,
/// with `head` at the head of its queue: a timer is never before the
/// clock, is armed only with timeouts on, and is armed at or before the
/// head's timeout whenever the head has one.
pub(super) fn queue_timer_fits(
    cfg: &PlatformConfig,
    f: &FuncRt,
    head: Option<&Request>,
    now: SimTime,
) -> Result<(), SnapError> {
    let wait = timeout_wait(cfg, f);
    SnapError::ensure(f.queue_timer.map_or(true, |at| at >= now), "queue timer before the snapshot clock")?;
    SnapError::ensure(f.queue_timer.is_none() || wait.is_some(), "queue timer without timeouts")?;
    let head_timeout = head.zip(wait).and_then(|(r, wait)| r.timeout(wait));
    let armed = head_timeout.map_or(true, |due| f.queue_timer.is_some_and(|at| at <= due));
    SnapError::ensure(armed, "queue timer missing or after the head's timeout")
}

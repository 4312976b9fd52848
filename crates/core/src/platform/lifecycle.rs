//! The request lifecycle, from the gateway's side: admission at
//! arrival, queueing deadlines, pulling the next request for an idle
//! pod, completion accounting, and the retry of a request a crash lost.

use super::autoscale::record_arrival;
use super::engine::{Engine, Event};
use super::overload::AdmitDecision;
use super::pod::PodAt;
use fastg_cluster::{Admission, FuncId, PodId, Request, RequestId};
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
        // Every arrival feeds the scaler's prediction, refused or not.
        if let Some(frt) = self.funcs.get_mut(func) {
            record_arrival(&mut frt.arrival_window, now, self.cfg.predict_window);
            frt.arrival_token = frt
                .load
                .as_mut()
                .and_then(|l| l.next_after(now))
                .map(|t| queue.schedule_cancellable(t, Event::Arrival(func)));
        }
        let overload = self.cfg.overload;
        let slo = self.funcs.get(func).map(|f| f.slo.slo());
        // Breaker admission runs before the request touches the queue: an
        // Open breaker fast-fails (or serves browned-out) without burning
        // queue capacity. The probe id is the id the gateway will assign.
        let mut browned = false;
        if let (Some(o), Some(frt)) = (overload.as_ref(), self.funcs.get_mut(func)) {
            let next_id = self.gateway.next_request_id();
            if frt.breaker.admit(o, next_id) == AdmitDecision::Refuse {
                self.gateway.reject_arrival(now, func);
                return;
            }
            browned = frt.breaker.browned();
        }
        let deadline = match (overload.as_ref(), slo) {
            (Some(o), Some(slo)) => now
                .checked_add(slo.scale(o.deadline_factor))
                .unwrap_or(SimTime::MAX),
            _ => SimTime::MAX,
        };
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
        self.schedule_request_timeout(now, func, req.id, queue);
        if let Some(pod) = pod {
            match self.locate(pod) {
                // The handler's last action: the pod may run ahead.
                Some(at) => {
                    self.start_request(now, at, req);
                    self.run_ahead(now, at, queue);
                }
                None => debug_assert!(false, "the gateway routes to live pods"),
            }
        }
    }

    fn schedule_request_timeout(
        &self,
        now: SimTime,
        func: FuncId,
        id: RequestId,
        queue: &mut EventQueue<Event>,
    ) {
        if let Some(factor) = self.cfg.request_timeout_factor {
            if let Some(frt) = self.funcs.get(func) {
                // A huge factor scales the SLO to the end of time; the
                // timeout then never fires.
                let deadline = now
                    .checked_add(frt.slo.slo().scale(factor))
                    .unwrap_or(SimTime::MAX);
                queue.schedule(deadline, Event::RequestTimeout(func, id));
            }
        }
    }

    /// A request's queueing deadline passed: shed it if it is still in
    /// the gateway queue (in-flight requests are left to finish).
    pub(super) fn on_request_timeout(&mut self, func: FuncId, id: RequestId) {
        if let Some(req) = self.gateway.cancel_queued(func, id) {
            self.gateway.drop_request(&req);
            if self.cfg.overload.is_some() {
                if let Some(frt) = self.funcs.get_mut(func) {
                    frt.breaker.on_shed(req.id.0);
                }
            }
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
        if self.cfg.overload.is_none() {
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
        frt.service_est.observe(service);
        if met {
            frt.goodput.record(now, self.cfg.warmup);
        } else {
            // Capacity burned on a request that was already over its SLO:
            // the wasted work overload control exists to avoid.
            frt.wasted_service += service;
        }
        if self.cfg.overload.is_some() && !is_synthetic(&active.req) {
            frt.breaker.on_completion(active.req.id.0, met);
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

    /// Requeues a request lost to a crash, unless it is synthetic or its
    /// retry budget is spent (then the gateway sheds it).
    pub(super) fn retry_or_shed(&mut self, now: SimTime, req: Request, queue: &mut EventQueue<Event>) {
        if is_synthetic(&req) {
            return; // synthetic saturating request: just dropped
        }
        // Every call here is a crash-lost request: feed the breaker's
        // failure counter so a dying node fast-fails instead of queueing.
        if self.cfg.overload.is_some() {
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
        if let Some(at) = self.gateway.requeue(req).and_then(|p| self.locate(p)) {
            self.assign_request(now, at, req, queue);
        }
    }
}

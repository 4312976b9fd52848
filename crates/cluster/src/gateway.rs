//! The OpenFaaS gateway analogue: request queues, idle-pod dispatch and
//! admission accounting.

use crate::cluster::PodId;
use crate::spec::FuncId;
use fastg_des::snap::SnapError;
use fastg_des::{snap_struct, IdArena, SimTime};
use std::collections::VecDeque;

/// Identifies one end-user request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

/// An inference request waiting at (or dispatched by) the gateway.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Request id.
    pub id: RequestId,
    /// Target function.
    pub func: FuncId,
    /// Gateway arrival time (latency is measured from here, as the load
    /// generator observes it).
    pub arrived: SimTime,
    /// Absolute completion deadline; [`SimTime::MAX`] means no deadline.
    /// The overload control plane sheds the request once queue wait plus
    /// estimated service time proves the deadline unmeetable.
    pub deadline: SimTime,
}

/// Outcome of offering a request to the gateway.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// An idle pod existed; the request was dispatched to it.
    Dispatch(Request, PodId),
    /// All pods busy; the request joined the function's queue.
    Queue(Request),
    /// The function's bounded admission queue is full: the request is
    /// refused immediately instead of queueing without limit.
    Overloaded(Request),
}

/// Hot-path per-function state. Pod sets are small sorted vectors (a
/// function has a handful of replicas; ascending order keeps "pick the
/// lowest idle pod" deterministic and identical to the `BTreeSet` min it
/// replaced), and retry counts live in a tiny sorted vec that is cleared
/// on every terminal state.
#[derive(Debug, Clone, Default)]
struct FuncState {
    queue: VecDeque<Request>,
    /// Idle replicas, sorted ascending; dispatch always takes the first.
    idle_pods: Vec<PodId>,
    /// Registered replicas, sorted ascending.
    members: Vec<PodId>,
    /// Requests offered, admitted or refused.
    arrivals: u64,
    /// Requests shed at the gateway (queue timeout or retry budget).
    dropped: u64,
    /// Bound on `queue` depth; `None` = unbounded (legacy behaviour).
    capacity: Option<usize>,
    /// Requests refused at admission (queue full or breaker fast-fail).
    rejected: u64,
    /// Requests shed because their deadline became provably unmeetable.
    shed_deadline: u64,
    /// Crash-retry counts for requests re-admitted at least once, sorted
    /// by id. Entries are removed on every terminal state (completion,
    /// drop, deadline shed), so the vec only ever holds in-flight or
    /// queued retried requests.
    retries: Vec<(RequestId, u32)>,
}

/// Inserts `pod` into a sorted vec if absent.
fn sorted_insert(v: &mut Vec<PodId>, pod: PodId) {
    if let Err(at) = v.binary_search(&pod) {
        v.insert(at, pod);
    }
}

/// Removes `pod` from a sorted vec; returns whether it was present.
fn sorted_remove(v: &mut Vec<PodId>, pod: PodId) -> bool {
    match v.binary_search(&pod) {
        Ok(at) => {
            v.remove(at);
            true
        }
        Err(_) => false,
    }
}

impl FuncState {
    fn clear_retries(&mut self, id: RequestId) {
        if let Ok(at) = self.retries.binary_search_by_key(&id, |&(rid, _)| rid) {
            self.retries.remove(at);
        }
    }
}

/// The gateway: per-function FIFO queues and pull-based dispatch.
///
/// Pods *pull*: an idle pod is handed the head of its function's queue; if
/// the queue is empty it parks in the idle set and the next arrival is
/// dispatched to it directly. Because every pod serves one request at a
/// time, this implements least-outstanding routing.
///
/// Function state is arena-indexed by the dense `FuncId` (ascending-id
/// iteration, same order the former `BTreeMap` gave) so the per-request
/// lookup is one bounds-checked array access.
#[derive(Debug, Clone, Default)]
pub struct Gateway {
    funcs: IdArena<FuncId, FuncState>,
    next_request: u64,
}

impl Gateway {
    /// Creates an empty gateway.
    pub fn new() -> Self {
        Self::default()
    }

    /// The function's state, created on first touch.
    fn func_mut(&mut self, func: FuncId) -> &mut FuncState {
        if !self.funcs.contains(func) {
            self.funcs.insert(func, FuncState::default());
        }
        // The entry was inserted just above; the arena cannot have
        // evicted it. fastg-lint: allow(no-panic-in-lib)
        self.funcs.get_mut(func).expect("just ensured")
    }

    /// Ensures the function is known to the gateway.
    pub fn register_func(&mut self, func: FuncId) {
        self.func_mut(func);
    }

    /// Adds a pod to a function's routing set, initially idle.
    pub fn register_pod(&mut self, func: FuncId, pod: PodId) {
        let st = self.func_mut(func);
        sorted_insert(&mut st.members, pod);
        sorted_insert(&mut st.idle_pods, pod);
    }

    /// Removes a pod from routing (scale-down / drain). Returns whether the
    /// pod was idle — if it was busy, the platform lets its in-flight
    /// request finish before deletion.
    pub fn deregister_pod(&mut self, func: FuncId, pod: PodId) -> bool {
        let Some(st) = self.funcs.get_mut(func) else {
            return false;
        };
        sorted_remove(&mut st.members, pod);
        sorted_remove(&mut st.idle_pods, pod)
    }

    /// Offers a new request at `now` carrying an absolute `deadline`
    /// ([`SimTime::MAX`] = none). If an idle pod exists it is dispatched
    /// immediately; otherwise it queues — unless the function's bounded
    /// admission queue is at capacity, in which case the request is
    /// refused with [`Admission::Overloaded`] instead of queueing
    /// silently without limit.
    pub fn on_arrival(&mut self, now: SimTime, func: FuncId, deadline: SimTime) -> Admission {
        let id = RequestId(self.next_request);
        self.next_request += 1;
        let req = Request {
            id,
            func,
            arrived: now,
            deadline,
        };
        let st = self.func_mut(func);
        st.arrivals += 1;
        if !st.idle_pods.is_empty() {
            let pod = st.idle_pods.remove(0);
            Admission::Dispatch(req, pod)
        } else if st.capacity.is_some_and(|cap| st.queue.len() >= cap) {
            st.rejected += 1;
            Admission::Overloaded(req)
        } else {
            st.queue.push_back(req);
            Admission::Queue(req)
        }
    }

    /// The id the next arrival will be assigned (peek only). Admission
    /// controllers use this to register probe outcomes before calling
    /// [`Self::on_arrival`].
    pub fn next_request_id(&self) -> u64 {
        self.next_request
    }

    /// Counts an arrival that the overload control plane refused before it
    /// ever reached the queue (circuit breaker fast-fail). The request is
    /// materialised so accounting stays uniform but never queues.
    pub fn reject_arrival(&mut self, now: SimTime, func: FuncId) -> Request {
        let id = RequestId(self.next_request);
        self.next_request += 1;
        let st = self.func_mut(func);
        st.arrivals += 1;
        st.rejected += 1;
        Request {
            id,
            func,
            arrived: now,
            deadline: now,
        }
    }

    /// Bounds (or unbounds, with `None`) a function's admission queue.
    pub fn set_queue_capacity(&mut self, func: FuncId, capacity: Option<usize>) {
        self.func_mut(func).capacity = capacity;
    }

    /// Sheds the queue prefix whose deadlines are provably unmeetable:
    /// every queued request with `now + est_service > deadline`. The queue
    /// is ordered by `(arrived, id)` and deadlines are monotone in arrival
    /// time per function, so the unmeetable requests form a prefix and
    /// capacity is never burned on already-dead work. Returns the shed
    /// requests in queue order.
    pub fn shed_unmeetable(
        &mut self,
        now: SimTime,
        func: FuncId,
        est_service: SimTime,
    ) -> Vec<Request> {
        let Some(st) = self.funcs.get_mut(func) else {
            return Vec::new();
        };
        let eta = now.checked_add(est_service).unwrap_or(SimTime::MAX);
        let mut shed = Vec::new();
        while let Some(head) = st.queue.front().copied() {
            if eta <= head.deadline {
                break;
            }
            st.queue.pop_front();
            st.shed_deadline += 1;
            st.clear_retries(head.id);
            shed.push(head);
        }
        shed
    }

    /// Re-admits a request that was dispatched but never completed (its
    /// pod crashed). It keeps its original id and arrival time — the
    /// retry latency counts against the SLO — and re-enters the queue at
    /// its arrival-order position (usually the head: an in-flight request
    /// is older than anything still queued), or goes straight to an idle
    /// pod. The retry is counted against the request's budget (see
    /// [`Gateway::retries_of`]).
    pub fn requeue(&mut self, req: Request) -> Option<PodId> {
        let st = self.func_mut(req.func);
        match st.retries.binary_search_by_key(&req.id, |&(rid, _)| rid) {
            Ok(at) => st.retries[at].1 += 1,
            Err(at) => st.retries.insert(at, (req.id, 1)),
        }
        if !st.idle_pods.is_empty() {
            let pod = st.idle_pods.remove(0);
            Some(pod)
        } else {
            // Ordered insert by (arrived, id): two crash retries in a row
            // must not invert each other, and a retried request must not
            // jump ahead of an even older one.
            let key = (req.arrived, req.id.0);
            let at = st
                .queue
                .iter()
                .position(|r| (r.arrived, r.id.0) > key)
                .unwrap_or(st.queue.len());
            st.queue.insert(at, req);
            None
        }
    }

    /// How many times a request has been crash-retried so far.
    pub fn retries_of(&self, req: &Request) -> u32 {
        self.funcs
            .get(req.func)
            .and_then(|st| {
                st.retries
                    .binary_search_by_key(&req.id, |&(rid, _)| rid)
                    .ok()
                    .map(|at| st.retries[at].1)
            })
            .unwrap_or(0)
    }

    /// Marks a dispatched request completed: its terminal state. Clears
    /// any crash-retry entry so the retry table only ever holds requests
    /// that are still queued or in flight (the fleet-scale leak fix).
    pub fn complete_request(&mut self, req: &Request) {
        if let Some(st) = self.funcs.get_mut(req.func) {
            st.clear_retries(req.id);
        }
    }

    /// Total crash-retry entries currently held across all functions.
    /// Bounded by in-flight + queued requests (every terminal state clears
    /// its entry); report assembly asserts that invariant in debug builds.
    pub fn retries_total(&self) -> u64 {
        self.funcs
            .values()
            .map(|st| u64::try_from(st.retries.len()).unwrap_or(u64::MAX))
            .sum()
    }

    /// Removes a still-queued request (gateway timeout). Returns the
    /// removed request — a dispatched or completed request is left alone
    /// and `None` is returned.
    pub fn cancel_queued(&mut self, func: FuncId, id: RequestId) -> Option<Request> {
        let st = self.funcs.get_mut(func)?;
        let at = st.queue.iter().position(|r| r.id == id)?;
        st.queue.remove(at)
    }

    /// Counts a request as shed (timed out in queue or over its retry
    /// budget) for the function's report.
    pub fn drop_request(&mut self, req: &Request) {
        let st = self.func_mut(req.func);
        st.dropped += 1;
        st.clear_retries(req.id);
    }

    /// Requests shed at the gateway for a function.
    pub fn dropped(&self, func: FuncId) -> u64 {
        self.funcs.get(func).map_or(0, |st| st.dropped)
    }

    /// Requests refused at admission (bounded queue full or breaker
    /// fast-fail) for a function.
    pub fn rejected(&self, func: FuncId) -> u64 {
        self.funcs.get(func).map_or(0, |st| st.rejected)
    }

    /// Requests shed because their deadline became unmeetable.
    pub fn shed_deadline(&self, func: FuncId) -> u64 {
        self.funcs.get(func).map_or(0, |st| st.shed_deadline)
    }

    /// A pod finished its request and asks for more work. Returns the next
    /// queued request, or parks the pod idle and returns `None`. Pods that
    /// were deregistered while busy are not parked (the caller deletes
    /// them).
    pub fn on_pod_idle(&mut self, func: FuncId, pod: PodId) -> Option<Request> {
        let st = self.funcs.get_mut(func)?;
        if st.members.binary_search(&pod).is_err() {
            return None;
        }
        // The pod may already be parked (e.g. a freshly registered pod
        // polling for backlog); it must leave the idle set while serving.
        sorted_remove(&mut st.idle_pods, pod);
        match st.queue.pop_front() {
            Some(req) => Some(req),
            None => {
                sorted_insert(&mut st.idle_pods, pod);
                None
            }
        }
    }

    /// Queue depth for a function.
    pub fn queue_len(&self, func: FuncId) -> usize {
        self.funcs.get(func).map_or(0, |st| st.queue.len())
    }

    /// Number of idle pods for a function.
    pub fn idle_count(&self, func: FuncId) -> usize {
        self.funcs.get(func).map_or(0, |st| st.idle_pods.len())
    }

    /// Registered pods for a function.
    pub fn member_count(&self, func: FuncId) -> usize {
        self.funcs.get(func).map_or(0, |st| st.members.len())
    }

    /// A function's registered pods, ascending: its running replicas
    /// (a pod leaves the list when it starts draining or crashes).
    pub fn members(&self, func: FuncId) -> &[PodId] {
        self.funcs.get(func).map_or(&[], |st| &st.members)
    }

    /// Total requests ever offered to a function, refused ones included.
    pub fn total_arrivals(&self, func: FuncId) -> u64 {
        self.funcs.get(func).map_or(0, |st| st.arrivals)
    }

    /// Functions with registered state.
    pub fn funcs(&self) -> Vec<FuncId> {
        self.funcs.keys().collect()
    }
}

snap_struct!(RequestId(raw));

snap_struct!(Request {
    id,
    func,
    arrived,
    deadline,
});

snap_struct!(FuncState {
    queue, idle_pods, members, arrivals, dropped, capacity, rejected, shed_deadline, retries,
} check |f| {
    if f.idle_pods.windows(2).any(|w| w[0] >= w[1]) || f.members.windows(2).any(|w| w[0] >= w[1]) {
        return Err(SnapError::new("gateway pod set order"));
    }
    if f.idle_pods.iter().any(|p| f.members.binary_search(p).is_err()) {
        return Err(SnapError::new("gateway idle pod not a member"));
    }
    Ok(())
});

snap_struct!(Gateway {
    funcs,
    next_request,
});

#[cfg(test)]
mod tests {
    use super::*;

    const F: FuncId = FuncId(0);

    /// Legacy-shaped arrival helper: no deadline, `(request, maybe pod)`.
    fn arrive(g: &mut Gateway, now: SimTime, func: FuncId) -> (Request, Option<PodId>) {
        match g.on_arrival(now, func, SimTime::MAX) {
            Admission::Dispatch(req, pod) => (req, Some(pod)),
            Admission::Queue(req) | Admission::Overloaded(req) => (req, None),
        }
    }

    #[test]
    fn dispatches_to_idle_pod_immediately() {
        let mut g = Gateway::new();
        g.register_pod(F, PodId(1));
        let (req, pod) = arrive(&mut g, SimTime::ZERO, F);
        assert_eq!(pod, Some(PodId(1)));
        assert_eq!(req.id, RequestId(0));
        assert_eq!(g.idle_count(F), 0);
    }

    #[test]
    fn bounded_queue_rejects_at_capacity() {
        let mut g = Gateway::new();
        g.register_pod(F, PodId(1));
        g.set_queue_capacity(F, Some(2));
        // One dispatches, two queue, the rest are refused.
        for i in 0..5u64 {
            g.on_arrival(SimTime::from_millis(i), F, SimTime::MAX);
        }
        assert_eq!(g.queue_len(F), 2);
        assert_eq!(g.rejected(F), 2);
        assert_eq!(g.total_arrivals(F), 5);
        // Refusals are explicit.
        let adm = g.on_arrival(SimTime::from_millis(9), F, SimTime::MAX);
        assert!(matches!(adm, Admission::Overloaded(_)));
        assert_eq!(g.rejected(F), 3);
        // Draining one slot re-opens admission.
        assert!(g.on_pod_idle(F, PodId(1)).is_some());
        let adm = g.on_arrival(SimTime::from_millis(10), F, SimTime::MAX);
        assert!(matches!(adm, Admission::Queue(_)));
    }

    #[test]
    fn unbounded_queue_never_rejects() {
        let mut g = Gateway::new();
        g.register_func(F);
        for i in 0..1_000u64 {
            let adm = g.on_arrival(SimTime::from_millis(i), F, SimTime::MAX);
            assert!(matches!(adm, Admission::Queue(_)));
        }
        assert_eq!(g.rejected(F), 0);
        assert_eq!(g.queue_len(F), 1_000);
    }

    #[test]
    fn shed_unmeetable_pops_exactly_the_dead_prefix() {
        let mut g = Gateway::new();
        g.register_func(F);
        // Deadlines 10 ms, 20 ms, 30 ms after a common arrival ordering.
        for (i, dl) in [10u64, 20, 30].iter().enumerate() {
            g.on_arrival(SimTime::from_millis(i as u64), F, SimTime::from_millis(*dl));
        }
        // At t = 12 ms with 5 ms estimated service: eta 17 ms kills only
        // the 10 ms deadline.
        let shed = g.shed_unmeetable(SimTime::from_millis(12), F, SimTime::from_millis(5));
        assert_eq!(shed.len(), 1);
        assert_eq!(shed[0].deadline, SimTime::from_millis(10));
        assert_eq!(g.shed_deadline(F), 1);
        assert_eq!(g.queue_len(F), 2);
        // A huge estimate kills the rest; MAX deadlines never shed.
        g.on_arrival(SimTime::from_millis(13), F, SimTime::MAX);
        let shed = g.shed_unmeetable(SimTime::from_millis(14), F, SimTime::from_secs(10));
        assert_eq!(shed.len(), 2);
        assert_eq!(g.shed_deadline(F), 3);
        assert_eq!(g.queue_len(F), 1, "MAX-deadline request survives");
    }

    #[test]
    fn reject_arrival_counts_without_queueing() {
        let mut g = Gateway::new();
        g.register_func(F);
        let req = g.reject_arrival(SimTime::from_millis(5), F);
        assert_eq!(req.arrived, SimTime::from_millis(5));
        assert_eq!(g.total_arrivals(F), 1);
        assert_eq!(g.rejected(F), 1);
        assert_eq!(g.queue_len(F), 0);
    }

    #[test]
    fn queues_when_all_busy_and_drains_fifo() {
        let mut g = Gateway::new();
        g.register_pod(F, PodId(1));
        let (_r0, _) = arrive(&mut g, SimTime::ZERO, F);
        let (r1, p1) = arrive(&mut g, SimTime::from_millis(1), F);
        let (r2, p2) = arrive(&mut g, SimTime::from_millis(2), F);
        assert_eq!(p1, None);
        assert_eq!(p2, None);
        assert_eq!(g.queue_len(F), 2);
        // Pod comes back: gets r1 then r2 in order.
        assert_eq!(g.on_pod_idle(F, PodId(1)).unwrap().id, r1.id);
        assert_eq!(g.on_pod_idle(F, PodId(1)).unwrap().id, r2.id);
        // Nothing left: pod parks idle.
        assert_eq!(g.on_pod_idle(F, PodId(1)), None);
        assert_eq!(g.idle_count(F), 1);
    }

    #[test]
    fn multiple_idle_pods_fan_out() {
        let mut g = Gateway::new();
        g.register_pod(F, PodId(1));
        g.register_pod(F, PodId(2));
        let (_, pa) = arrive(&mut g, SimTime::ZERO, F);
        let (_, pb) = arrive(&mut g, SimTime::ZERO, F);
        let mut got = vec![pa.unwrap(), pb.unwrap()];
        got.sort();
        assert_eq!(got, vec![PodId(1), PodId(2)]);
    }

    #[test]
    fn parked_pod_can_poll_for_backlog() {
        let mut g = Gateway::new();
        // Requests queue while no pod exists.
        let (r0, p0) = arrive(&mut g, SimTime::ZERO, F);
        assert_eq!(p0, None);
        g.register_pod(F, PodId(1)); // registers idle
        // The new pod polls and gets the backlog — and leaves the idle
        // set so arrivals cannot double-dispatch to it.
        assert_eq!(g.on_pod_idle(F, PodId(1)).unwrap().id, r0.id);
        assert_eq!(g.idle_count(F), 0);
        let (_, p1) = arrive(&mut g, SimTime::from_millis(1), F);
        assert_eq!(p1, None, "busy pod must not be double-dispatched");
    }

    #[test]
    fn deregistered_pod_is_not_parked() {
        let mut g = Gateway::new();
        g.register_pod(F, PodId(1));
        let (_, p) = arrive(&mut g, SimTime::ZERO, F);
        assert_eq!(p, Some(PodId(1)));
        // Drained while busy.
        let was_idle = g.deregister_pod(F, PodId(1));
        assert!(!was_idle);
        assert_eq!(g.on_pod_idle(F, PodId(1)), None);
        assert_eq!(g.idle_count(F), 0);
    }

    #[test]
    fn deregistering_idle_pod_reports_idle() {
        let mut g = Gateway::new();
        g.register_pod(F, PodId(1));
        assert!(g.deregister_pod(F, PodId(1)));
        assert_eq!(g.member_count(F), 0);
    }

    #[test]
    fn unknown_function_is_harmless() {
        let mut g = Gateway::new();
        assert_eq!(g.queue_len(FuncId(7)), 0);
        assert_eq!(g.on_pod_idle(FuncId(7), PodId(1)), None);
        assert_eq!(g.total_arrivals(FuncId(7)), 0);
    }

    #[test]
    fn requeued_request_dispatches_before_younger_queued_requests() {
        let mut g = Gateway::new();
        g.register_pod(F, PodId(1));
        // r0 dispatches to the only pod; r1 and r2 queue behind it.
        let (r0, p0) = arrive(&mut g, SimTime::ZERO, F);
        assert_eq!(p0, Some(PodId(1)));
        let (r1, _) = arrive(&mut g, SimTime::from_millis(1), F);
        let (r2, _) = arrive(&mut g, SimTime::from_millis(2), F);
        // The pod crashes: r0 (the oldest request) is re-admitted and
        // must dispatch before the younger r1 and r2.
        assert_eq!(g.requeue(r0), None);
        g.register_pod(F, PodId(2));
        assert_eq!(g.on_pod_idle(F, PodId(2)).unwrap().id, r0.id);
        assert_eq!(g.on_pod_idle(F, PodId(2)).unwrap().id, r1.id);
        assert_eq!(g.on_pod_idle(F, PodId(2)).unwrap().id, r2.id);
    }

    #[test]
    fn successive_requeues_keep_arrival_order() {
        let mut g = Gateway::new();
        g.register_pod(F, PodId(1));
        g.register_pod(F, PodId(2));
        let (ra, _) = arrive(&mut g, SimTime::ZERO, F); // → pod 1
        let (rb, _) = arrive(&mut g, SimTime::from_millis(1), F); // → pod 2
        let (rc, _) = arrive(&mut g, SimTime::from_millis(2), F); // queued
        // Both pods crash; their requests requeue youngest-first — the
        // order a node-level crash tears pods down in is arbitrary.
        assert_eq!(g.requeue(rb), None);
        assert_eq!(g.requeue(ra), None);
        // Arrival order must be restored: ra, rb, rc.
        g.register_pod(F, PodId(3));
        assert_eq!(g.on_pod_idle(F, PodId(3)).unwrap().id, ra.id);
        assert_eq!(g.on_pod_idle(F, PodId(3)).unwrap().id, rb.id);
        assert_eq!(g.on_pod_idle(F, PodId(3)).unwrap().id, rc.id);
    }

    #[test]
    fn retries_are_counted_per_request() {
        let mut g = Gateway::new();
        g.register_func(F);
        let (r, _) = arrive(&mut g, SimTime::ZERO, F);
        assert_eq!(g.retries_of(&r), 0);
        g.requeue(r);
        assert_eq!(g.retries_of(&r), 1);
        // Drain it, crash again, requeue again.
        g.register_pod(F, PodId(1));
        assert_eq!(g.on_pod_idle(F, PodId(1)).unwrap().id, r.id);
        g.requeue(r);
        assert_eq!(g.retries_of(&r), 2);
    }

    #[test]
    fn cancel_queued_sheds_only_waiting_requests() {
        let mut g = Gateway::new();
        g.register_pod(F, PodId(1));
        let (r0, _) = arrive(&mut g, SimTime::ZERO, F); // dispatched
        let (r1, _) = arrive(&mut g, SimTime::from_millis(1), F); // queued
        assert_eq!(g.cancel_queued(F, r0.id), None, "in-flight is untouchable");
        let got = g.cancel_queued(F, r1.id).unwrap();
        assert_eq!(got.id, r1.id);
        assert_eq!(g.queue_len(F), 0);
        assert_eq!(g.cancel_queued(F, r1.id), None, "already cancelled");
        g.drop_request(&r1);
        assert_eq!(g.dropped(F), 1);
        assert_eq!(g.dropped(FuncId(9)), 0);
    }

    #[test]
    fn request_ids_are_globally_unique() {
        let mut g = Gateway::new();
        g.register_func(F);
        g.register_func(FuncId(1));
        let (a, _) = arrive(&mut g, SimTime::ZERO, F);
        let (b, _) = arrive(&mut g, SimTime::ZERO, FuncId(1));
        assert_ne!(a.id, b.id);
    }
}

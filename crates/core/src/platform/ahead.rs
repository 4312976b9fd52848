//! Run-ahead by the node: the pods of a busy node step inline, in rank
//! order, while the next event is one of theirs.
//!
//! A pod's steps, each a `HostDone` or a `BurstFastForward`, go through
//! the queue: the handler pushes the step, the driver pops it back and
//! dispatches it. On a node that has the queue to itself, as in the
//! profiler's trials and the sharing grid's cells, that round trip is
//! most of a step's cost. Under spatio-temporal isolation a pod's
//! timeline depends on its node's state alone, so while the next
//! delivery is one of the node's steps, the node takes it here, inline,
//! through the same handlers.
//!
//! **Entry.** A data-plane handler steps a pod as its last action
//! ([`Engine::run_ahead`]: `Arrival`, `HostDone`, `KernelFinish` and
//! `BurstFastForward`; never a pass, a control-plane tick, a fault or an
//! API call, which step pods through [`Engine::step_pod`]). Inside a run,
//! with fast-forward on, the node's stretch opens if then the queue's
//! head, the driver's next delivery after at most the node's own owed
//! pass, is one of the node's steps: the pod's own next one, or a
//! node-mate's; on a node with node-mates, the entry after it must be
//! the node's too ([`EventQueue::second`]). It is looked for only when
//! the handler's step follows one of the same node's: a stretch pays
//! only where a node's steps come back to back, which on a fleet they
//! seldom do, and the look costs a queue peek per handler.
//!
//! **What a stretch delivers.** In exact rank order, the lesser of:
//! - the steps the stretch pushed. Each push claims its sequence number,
//!   and so its rank, as the queue-stepped push would
//!   ([`EventQueue::claim`]), and waits aside in the stretch's buffer;
//! - the queue's head, while it is a `HostDone` of one of the node's
//!   pods, a `BurstFastForward` on the node, or the node's own
//!   `WindowReset`.
//!
//! Each goes through the driver's accounting ([`EventQueue::deliver_claimed`],
//! [`EventQueue::deliver_head`]) and is traced and counted per kind, and
//! then to its handler, whose last step of a pod is kept aside in turn.
//! Once nothing is left at an instant, the node's owed dispatch pass runs
//! there ([`Engine::run_pass`]), as the driver's end of the instant would
//! run it.
//!
//! **At once.** A step that is certainly the next delivery, before every
//! kept step, the queue's head and the run's deadline, with no pass
//! owed, is taken the moment it is made, in the pod's own step
//! ([`Engine::step_pod`]): a host phase is delivered inline
//! ([`EventQueue::deliver_inline`]), and a burst launched as the
//! instant's last work on an idle device (by the pod's token request or
//! as a pass's last grant) runs whole
//! ([`GpuDevice::run_alone`](fastg_gpu::GpuDevice::run_alone)), without
//! a resident record, its `BurstFastForward` delivered inline. On a node
//! with one pod nearly every step is taken so.
//!
//! **Stops.** The stretch stops at the first thing it cannot take this
//! way: another event, a pass owed by another node, a step past the
//! run's deadline, or a per-kernel launch (before the break it may
//! bring). It then pushes its buffer at the ranks already claimed
//! ([`EventQueue::push_claimed`]), so the queue, the sequence space, the
//! event count, the traces and the checkpoint bytes are exactly what the
//! queue-stepped run leaves. `run_ahead_tests` in the `node` module
//! compare the two.

use super::engine::{Engine, Event};
use super::node::NodeRt;
use super::pod::PodAt;
use fastg_cluster::{NodeId, PodId};
use fastg_des::{CancelToken, EventQueue, Rank, SimTime};

/// A step kept aside at the rank its push claimed: the `HostDone` of
/// `pod`, at `slot` of the stretch's node, or the `BurstFastForward` of
/// its burst.
#[derive(Clone, Copy)]
struct Kept {
    rank: Rank,
    pod: PodId,
    slot: u32,
    /// A `BurstFastForward` (else a `HostDone`).
    burst: bool,
}

impl Kept {
    /// Where the step's pod lives on `node`.
    fn at(self, node: NodeId) -> PodAt {
        PodAt { pod: self.pod, node, slot: usize::try_from(self.slot).unwrap_or(usize::MAX) }
    }
}

/// The step of `pod` on `node`: its `BurstFastForward` if `burst`, else
/// its `HostDone`.
fn step_event(node: NodeId, pod: PodId, burst: bool) -> Event {
    if burst {
        Event::BurstFastForward(node, pod)
    } else {
        Event::HostDone(pod)
    }
}

/// The open stretch: the node whose pods step inline, the steps it keeps
/// aside, and what it reads of the queue. Closed and empty between
/// events.
#[derive(Clone, Default)]
pub(super) struct Stretch {
    /// The node whose pods step inline; `None` while no stretch is open.
    node: Option<NodeId>,
    /// The run's deadline.
    deadline: SimTime,
    /// The queue's head: while a stretch is open, only the stretch
    /// changes the queue.
    head: Option<(Rank, Event)>,
    /// The earlier of the first kept step's time and the head's, or
    /// `SimTime::MAX`: a step strictly before it is the next delivery.
    before: SimTime,
    /// The steps pushed while open, in rank order from `first`; those
    /// before it are delivered, and dropped once the buffer is full or
    /// every step is.
    kept: Vec<Kept>,
    /// The first step kept aside not yet delivered.
    first: usize,
    /// The node of the last pod a data-plane handler stepped outside a
    /// stretch.
    last: Option<NodeId>,
}

impl Stretch {
    /// Schedules the step of the pod at `at` at `time`, its
    /// `BurstFastForward` if `burst` and else its `HostDone`: kept aside
    /// at the rank it claims while the pod's node's stretch is open, else
    /// pushed. Returns the entry's token.
    pub(super) fn push(&mut self, at: PodAt, time: SimTime, burst: bool, queue: &mut EventQueue<Event>) -> CancelToken {
        let event = step_event(at.node, at.pod, burst);
        if self.node != Some(at.node) {
            return queue.schedule_cancellable(time, event);
        }
        let (rank, token) = queue.claim(time, &event);
        let slot = u32::try_from(at.slot).unwrap_or(u32::MAX);
        if self.kept.len() == self.kept.capacity() {
            self.kept.drain(..self.first);
            self.first = 0;
        }
        // A new step is most often the latest, or near it.
        let i = self.kept[self.first..].iter().rposition(|k| k.rank < rank).map_or(self.first, |i| self.first + i + 1);
        self.kept.insert(i, Kept { rank, pod: at.pod, slot, burst });
        self.before = self.before.min(time);
        token
    }

    /// Whether a step of the pod at `at` at `time` is certainly the next
    /// delivery: the pod's node's stretch is open, and `time` is before
    /// every step kept aside and the queue's head, and within the run.
    /// The caller rules out an owed pass.
    fn is_next(&self, at: PodAt, time: SimTime) -> bool {
        self.node == Some(at.node) && time < self.before && time <= self.deadline
    }

    /// Reads the queue's head again, after the stretch changed the queue.
    fn read_head(&mut self, queue: &EventQueue<Event>) {
        self.head = queue.head().map(|(rank, &event)| (rank, event));
        self.refresh();
    }

    /// Recomputes [`Self::before`] after the first kept step or the head
    /// changed.
    fn refresh(&mut self) {
        let kept = self.kept.get(self.first).map(|k| k.rank.time());
        let head = self.head.map(|(rank, _)| rank.time());
        self.before = [kept, head].into_iter().flatten().fold(SimTime::MAX, SimTime::min);
    }

    /// Delivers at once the `HostDone` of the pod at `at` at `time` if it
    /// is certainly the next delivery ([`Self::is_next`]); returns whether
    /// it did.
    pub(super) fn takes_at_once(&mut self, at: PodAt, time: SimTime, queue: &mut EventQueue<Event>) -> bool {
        let next = self.is_next(at, time);
        if next {
            queue.deliver_inline(time);
        }
        next
    }

    /// The instant before which a burst launched now on `node` must end
    /// to run alone: inside the node's stretch, with no pass owed
    /// (`no_pass_owed`), the end comes before every step kept aside, the
    /// queue's head and the run's deadline. The launch must be the
    /// instant's last work on the node. `None` if it may not run alone.
    pub(super) fn alone_before(&self, node: NodeId, no_pass_owed: bool) -> Option<SimTime> {
        (self.node == Some(node) && no_pass_owed).then_some(self.before.min(self.deadline))
    }

    /// Takes the first step kept aside.
    fn pop(&mut self) -> Option<Kept> {
        let k = self.kept.get(self.first).copied()?;
        self.first += 1;
        if self.first == self.kept.len() {
            self.kept.clear();
            self.first = 0;
        }
        Some(k)
    }

    /// Whether no stretch is open.
    pub(super) fn is_closed(&self) -> bool {
        self.node.is_none()
    }

    /// The next event: the first step kept aside if it ranks below the
    /// queue's head, else the head.
    fn next(&self) -> Option<(Rank, bool)> {
        match (self.kept.get(self.first), self.head) {
            (Some(&k), head) if head.map_or(true, |(rank, _)| k.rank < rank) => Some((k.rank, true)),
            (_, head) => head.map(|(rank, _)| (rank, false)),
        }
    }
}

impl Engine {
    /// Steps the pod at `at` from `now`, a data-plane handler's last
    /// action, and runs its node ahead from there while the next delivery
    /// is one of the node's steps (see the module docs). Inside a stretch
    /// it only steps the pod.
    pub(super) fn run_ahead(&mut self, now: SimTime, at: PodAt, queue: &mut EventQueue<Event>) {
        self.step_pod(now, at, queue);
        if !(self.stretch.is_closed() && self.run_ahead && self.cfg.fastforward) {
            return;
        }
        // A stretch pays only where a node's steps come back to back: it
        // is looked for when the last step a handler made was the node's
        // too.
        if self.stretch.last.replace(at.node) != Some(at.node) {
            return;
        }
        let Some((deadline, head)) = self.opens(at, queue) else {
            return;
        };
        let s = &mut self.stretch;
        (s.node, s.deadline, s.head) = (Some(at.node), deadline, Some(head));
        s.refresh();
        self.counts.stretches += 1;
        let delivered = queue.delivered();
        self.run_stretch(at.node, queue);
        self.counts.empty_stretches += u64::from(queue.delivered() == delivered);
        self.close_stretch(queue);
    }

    /// The run's deadline and the queue's head, if the stretch of the pod
    /// at `at`'s node opens now: the head is one of the node's steps,
    /// within the run, and any pass that runs before it is the node's
    /// own. A node with node-mates also needs the entry after the head to
    /// be one of its events (or none): on a fleet the head is now and
    /// then a step of the same node, between other nodes' events, and a
    /// stretch there would take that one step.
    fn opens(&self, at: PodAt, queue: &EventQueue<Event>) -> Option<(SimTime, (Rank, Event))> {
        let node = at.node;
        let (rank, &event) = queue.head()?;
        // The pod's own next step is the most common head.
        if !(event == Event::HostDone(at.pod) || self.is_own_step(node, event)) {
            return None;
        }
        let deadline = queue.deadline().filter(|&deadline| rank.time() <= deadline)?;
        let passes = match self.dispatch_pending.as_slice() {
            [] => true,
            // The instant's events come before its passes.
            _ if rank.time() <= queue.now() => true,
            [(_, owed)] => *owed == node,
            _ => false,
        };
        let mine = |event| self.is_own_step(node, event) || event == Event::WindowReset(node);
        let alone = || self.nodes.get(node).is_some_and(NodeRt::is_lone);
        let opens = passes && (alone() || queue.second().map_or(true, |(_, &event)| mine(event)));
        opens.then_some((deadline, (rank, event)))
    }

    /// Takes the node's steps and its owed passes in the driver's order,
    /// until the next is neither.
    fn run_stretch(&mut self, node: NodeId, queue: &mut EventQueue<Event>) {
        while self.stretch.node.is_some() {
            debug_assert!(
                self.stretch.head == queue.head().map(|(rank, &event)| (rank, event)),
                "only the stretch changes the queue"
            );
            let now = queue.now();
            let next = self.stretch.next();
            if next.map_or(true, |(rank, _)| rank.time() > now) && !self.dispatch_pending.is_empty() {
                // The instant is over: its first owed pass runs, if it is
                // the node's.
                if self.dispatch_pending[0].1 != node {
                    break;
                }
                self.dispatch_pending.remove(0);
                self.run_pass(now, node, queue);
                continue;
            }
            let Some((rank, kept)) = next.filter(|(rank, _)| rank.time() <= self.stretch.deadline) else {
                break;
            };
            let now = rank.time();
            if kept {
                let Some(k) = self.stretch.pop() else {
                    break;
                };
                let (at, burst) = (k.at(node), k.burst);
                debug_assert_eq!(self.nodes.get(node).and_then(|n| n.at(at.slot)), Some(at), "a kept step's pod lives");
                self.stretch.refresh();
                queue.deliver_claimed(rank);
                self.note(now, &step_event(node, at.pod, burst));
                if burst {
                    self.counts.inline_bursts += 1;
                    self.burst_ended(now, at, queue);
                } else {
                    self.step_pod(now, at, queue);
                }
                continue;
            }
            let own = |event| self.is_own_step(node, event) || event == Event::WindowReset(node);
            let Some((_, event)) = self.stretch.head.filter(|&(_, event)| own(event)) else {
                break;
            };
            queue.deliver_head();
            self.stretch.read_head(queue);
            self.note(now, &event);
            match event {
                Event::HostDone(pod) => self.on_host_done(now, pod, queue),
                Event::BurstFastForward(node, pod) => self.on_burst_ff(now, node, pod, queue),
                // It schedules the next reset.
                Event::WindowReset(node) => {
                    self.on_window_reset(now, node, queue);
                    self.stretch.read_head(queue);
                }
                Event::Arrival(_)
                | Event::KernelFinish(..)
                | Event::ScaleTick
                | Event::MetricsSample
                | Event::Fault(_)
                | Event::HealthTick
                | Event::QueueTimeout(_)
                | Event::BreakerTick => debug_assert!(false, "a stretch delivers its node's events only"),
            }
        }
    }

    /// Whether `event` is a step of a pod on `node`.
    fn is_own_step(&self, node: NodeId, event: Event) -> bool {
        match event {
            Event::BurstFastForward(n, _) => n == node,
            Event::HostDone(pod) => self.locate(pod).is_some_and(|at| at.node == node),
            Event::Arrival(_)
            | Event::KernelFinish(..)
            | Event::WindowReset(_)
            | Event::ScaleTick
            | Event::MetricsSample
            | Event::Fault(_)
            | Event::HealthTick
            | Event::QueueTimeout(_)
            | Event::BreakerTick => false,
        }
    }

    /// Counts the burst of `count` launches the pod at `at` ran alone to
    /// `end`, and delivers its `BurstFastForward` at once: the stretch's
    /// next delivery, as [`Stretch::alone_before`] made sure.
    #[inline(always)]
    pub(super) fn ran_alone(&mut self, end: SimTime, at: PodAt, count: u32, queue: &mut EventQueue<Event>) {
        self.ff_bursts += 1;
        self.ff_coalesced_kernels += u64::from(count);
        let event = Event::BurstFastForward(at.node, at.pod);
        queue.deliver_inline(end);
        self.counts.inline_bursts += 1;
        self.note(end, &event);
    }

    /// Closes the open stretch, if any: its steps are pushed at the ranks
    /// they claimed.
    pub(super) fn close_stretch(&mut self, queue: &mut EventQueue<Event>) {
        let Some(node) = self.stretch.node.take() else {
            return;
        };
        let s = &mut self.stretch;
        for k in s.kept.drain(..).skip(s.first) {
            queue.push_claimed(k.rank, step_event(node, k.pod, k.burst));
        }
        s.first = 0;
    }
}

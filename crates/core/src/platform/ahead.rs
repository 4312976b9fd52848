//! Solo-pod run-ahead: a pod alone on its GPU advances a whole stretch
//! of stages at a time.
//!
//! A pod alone on its node (the profiler's trials, the one-pod sharing
//! cells) would push each next step, a `HostDone` or a
//! `BurstFastForward`, only for the driver to pop it straight back, and
//! under spatio-temporal isolation its timeline depends on its own state
//! alone. So while its steps would be the driver's next deliveries, the
//! pod takes them here, inline.
//!
//! **Entry.** A data-plane handler steps the pod as its last action
//! ([`Engine::run_ahead`]: `Arrival`, `HostDone`, `KernelFinish` and
//! `BurstFastForward`; never a pass, a control-plane tick, a fault or an
//! API call, which step pods through [`Engine::step_pod`]), and at that
//! moment:
//! - fast-forward is on;
//! - the pod is solo ([`NodeRt::is_solo`](super::node::NodeRt::is_solo),
//!   asked first: a pod at any slot but 0 fails at once, and at slot 0
//!   one load of the slab's length tells a shared node apart);
//! - no dispatch pass is owed at the current instant;
//! - a run is in progress, so the queue has a limit
//!   ([`EventQueue::next_limit`]: the earlier of its head and the run's
//!   deadline). Until the pod stops, nothing else moves and nothing is
//!   pushed, so the limit holds for the whole stretch.
//!
//! **A stretch.** It reads the limit and the pod's SM cap once, when it
//! opens, and takes each stage as the queue-stepped run would, through
//! the same calls on the node:
//! - a host phase ending before the limit is delivered inline;
//! - a burst's token is requested from the backend
//!   ([`FastBackend::request_at`](crate::manager::FastBackend::request_at)).
//!   A held lease is granted at once. A pod that queues is owed its
//!   node's pass, and that pass runs at once: the stretch claims the tie
//!   key `owe_pass` would claim, then runs the pass's grants
//!   ([`Engine::grant_pass`]), which a lone waiter always gets;
//! - the burst runs whole on the device
//!   ([`GpuDevice::run_alone`](fastg_gpu::GpuDevice::run_alone)) if it
//!   ends before the limit. It opens in the backend, its
//!   `BurstFastForward` is delivered inline and its sync point runs
//!   ([`Engine::sync_burst`]), and the fast-forward counters and the
//!   request's burst GPU time are updated;
//! - a completed request goes through [`Engine::complete_request`], and a
//!   new stretch opens if the pod takes a next request.
//!
//! Each inline delivery takes the sequence number its push would have
//! taken and counts as a delivered event
//! ([`EventQueue::deliver_inline`]), traced and counted per kind like the
//! driver's.
//!
//! **Stops.** The stretch ends at the first step it cannot take inline,
//! and the normal path takes that step:
//! - a host phase ending at or past the limit is pushed;
//! - a token requested at the limit itself, or refused until the window
//!   resets, is requested by [`Engine::try_start_burst`]: repeating a
//!   refused request changes nothing on the row, and the pod owes its
//!   node the pass as usual;
//! - a burst holding its token and ending at or past the limit launches
//!   as a real timeline, so samples, checkpoints and breaks find the
//!   state they always did.
//!
//! Nothing is deferred, so nothing is written back: the node is left as
//! the stepped run leaves it because it went through the stepped run's
//! own code. `run_ahead_tests` in the `node` module compare the two.

use super::engine::{Engine, Event};
use super::pod::PodAt;
use crate::manager::RequestOutcome;
use fastg_des::{EventQueue, SimTime};
use fastg_gpu::KernelDesc;
use fastg_models::StageOp;

/// The step a stretch stopped at, for the normal path to take.
enum Stop {
    /// A host phase ending at this instant, at or past the limit.
    Host(SimTime),
    /// A burst (stage index) whose token is requested at this instant.
    Request(SimTime, usize),
    /// A burst holding its token, launched at this instant, ending at or
    /// past the limit.
    Launch(SimTime, usize),
    /// A burst whose pass did not grant it: the pod waits for its token.
    Wait(usize),
    /// The request completed at this instant.
    Done(SimTime),
    /// The pod has no request to step.
    Idle,
}

impl Engine {
    /// Steps the pod at `at` from `now`, running it ahead while it is solo
    /// (see the module docs), else through [`Engine::step_pod`].
    pub(super) fn run_ahead(&mut self, mut now: SimTime, at: PodAt, queue: &mut EventQueue<Event>) {
        loop {
            let Some((limit, cap)) = self.open_stretch(at, queue) else {
                return self.step_pod(now, at, queue);
            };
            let stop = self.run_stretch(limit, cap, now, at, queue);
            match stop {
                Stop::Host(done) => queue.schedule(done, Event::HostDone(at.pod)),
                Stop::Request(t, stage) | Stop::Launch(t, stage) => {
                    let Some(active) = self.pod_rt_mut(at).and_then(|rt| rt.active.as_mut()) else {
                        debug_assert!(false, "burst belongs to a request");
                        return;
                    };
                    active.pending_stage = Some(stage);
                    if matches!(stop, Stop::Launch(..)) {
                        self.launch_burst(t, at, queue);
                    } else {
                        self.try_start_burst(t, at, queue);
                    }
                }
                // Left waiting, as the stepped pass leaves a waiter it
                // does not grant.
                Stop::Wait(stage) => {
                    if let Some(active) = self.pod_rt_mut(at).and_then(|rt| rt.active.as_mut()) {
                        active.pending_stage = Some(stage);
                        active.waiting_token = true;
                    }
                }
                Stop::Done(t) => {
                    if self.complete_request(t, at, queue) {
                        now = t;
                        continue;
                    }
                }
                Stop::Idle => debug_assert!(false, "stepping requires a live pod with a request"),
            }
            return;
        }
    }

    /// The limit and the pod's SM cap for a stretch of the pod at `at`,
    /// if it may run ahead now.
    fn open_stretch(&self, at: PodAt, queue: &EventQueue<Event>) -> Option<(SimTime, u32)> {
        // Solo first: on a shared node the slot, or the slab's length,
        // fails it.
        if at.slot != 0 {
            return None;
        }
        let node = self.nodes.get(at.node).filter(|n| n.is_solo(at.slot))?;
        if !(self.run_ahead && self.cfg.fastforward && self.dispatch_pending.is_empty()) {
            return None;
        }
        let limit = queue.next_limit()?;
        Some((limit, node.solo_cap(at.slot)?))
    }

    /// Takes the pod's steps inline from `now` until one of them cannot
    /// be, and returns that one.
    fn run_stretch(
        &mut self,
        limit: SimTime,
        cap: u32,
        mut now: SimTime,
        at: PodAt,
        queue: &mut EventQueue<Event>,
    ) -> Stop {
        loop {
            let Engine { nodes, funcs, .. } = self;
            let pod = nodes.get_mut(at.node).and_then(|n| n.get_mut(at.slot));
            let Some((active, profile)) = pod.and_then(|rt| rt.request_and_profile(funcs)) else {
                return Stop::Idle;
            };
            let stage = match active.run.advance_indexed(profile) {
                StageOp::Host(d) => {
                    let done = now + d;
                    if done >= limit {
                        return Stop::Host(done);
                    }
                    self.deliver_inline(done, &Event::HostDone(at.pod), queue);
                    now = done;
                    continue;
                }
                StageOp::Done => return Stop::Done(now),
                StageOp::Burst(stage) => stage,
            };
            // A token is requested inline only before the limit.
            let burst = profile.stages.get(stage).and_then(|st| st.burst());
            let Some((spec, count)) = burst.filter(|_| now < limit) else {
                return Stop::Request(now, stage);
            };
            let desc = KernelDesc {
                blocks: spec.blocks,
                work_per_block: spec.work_per_block,
                tag: at.pod.0,
            };
            match self.nodes.get_mut(at.node).and_then(|n| n.request_at(now, at.slot)) {
                Some(RequestOutcome::Granted(_)) => {}
                // The pass the pod's wait owes its node runs now.
                Some(RequestOutcome::Queued) => {
                    queue.claim_tie_key();
                    self.grant_pass(now, at.node);
                    let granted = self.granted_scratch == [at.slot];
                    debug_assert!(granted, "a lone waiter's pass grants it");
                    if !granted {
                        return Stop::Wait(stage);
                    }
                }
                Some(RequestOutcome::BlockedUntilReset) | None => return Stop::Request(now, stage),
            }
            let Some(node) = self.nodes.get_mut(at.node) else {
                return Stop::Idle;
            };
            let Some(end) = node.run_alone(at.slot, now, limit, cap, desc, count) else {
                return Stop::Launch(now, stage);
            };
            let gpu_time = end - now;
            if let Some(active) = node.get_mut(at.slot).and_then(|rt| rt.active.as_mut()) {
                active.burst_gpu_time = gpu_time;
            }
            self.ff_bursts += 1;
            self.ff_coalesced_kernels += u64::from(count);
            self.counts.solo_steps += 1;
            self.deliver_inline(end, &Event::BurstFastForward(at.node, at.pod), queue);
            self.sync_burst(end, at, gpu_time, queue);
            debug_assert!(self.dispatch_pending.is_empty(), "a solo pod's sync point owes no pass");
            now = end;
        }
    }

    /// Delivers `event` at `at` inline, traced and counted as the
    /// driver's delivery would be.
    fn deliver_inline(&mut self, at: SimTime, event: &Event, queue: &mut EventQueue<Event>) {
        queue.deliver_inline(at);
        self.note(at, event);
    }
}

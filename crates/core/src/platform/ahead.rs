//! Solo-pod run-ahead: a pod alone on its GPU advances a whole stretch
//! of stages at a time.
//!
//! A pod alone on its node (the profiler's trials, the one-pod sharing
//! cells) would push each next step, a `HostDone` or a
//! `BurstFastForward`, only for the driver to pop it straight back, and
//! under spatio-temporal isolation its timeline depends on its own state
//! alone. So while its steps would be the driver's next deliveries, the
//! pod takes them here, inline, and defers their effects on the node.
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
//! **A stretch.** The pod's backend row ([`SoloRow`]) and its device lane
//! ([`SoloLane`]) are lifted out, and each stage goes as the queue-stepped
//! run would take it:
//! - a host phase ending before the limit is delivered inline;
//! - a burst's token comes from the row: a valid lease is held, and an
//!   expired one with quota left gets the grant the node's pass would
//!   give it at once, with that pass's tie key claimed, counted and
//!   traced;
//! - the burst's span comes from its kernel spec at the pod's cap, by the
//!   arithmetic of [`GpuDevice::fast_forward_burst`](fastg_gpu::GpuDevice::fast_forward_burst);
//!   no timeline is built and nothing settles. If it ends before the
//!   limit, its `BurstFastForward` is delivered inline and its sync point
//!   charged to the row;
//! - a completed request still goes through
//!   [`Engine::complete_request`], after the stretch folds.
//!
//! Each inline delivery takes the sequence number its push would have
//! taken and counts as a delivered event
//! ([`EventQueue::deliver_inline`]), traced and counted per kind like the
//! driver's.
//!
//! **Stops.** The stretch ends at the first step it cannot take inline,
//! and the normal path takes that step: a host phase or a burst ending at
//! or past the limit is pushed (the burst as a real timeline, so samples,
//! checkpoints and breaks find the state they always did), and a token
//! the row cannot grant at once (quota exhausted, a share the adapter
//! refuses, or a request at the limit itself) is requested as usual.
//!
//! **The fold.** Before that step, the stretch writes back in one update
//! each what its stages did: the row (usage, lease, flags, with the
//! adapter's running share and the tokens dispatched) through the
//! table's update, so its slot bits follow; the device's busy time,
//! occupied area and completions
//! ([`GpuDevice::credit_solo`](fastg_gpu::GpuDevice::credit_solo)); and
//! the engine's fast-forward counters. Each is an exact integer or
//! `SimTime` sum, or the same floating-point operations in the same
//! order, so the node is left bit for bit as the stepped run leaves it.
//! `run_ahead_tests` in the `node` module compare the two.

use super::engine::{Engine, Event};
use super::pod::PodAt;
use crate::manager::{SoloRow, SoloToken};
use fastg_des::{EventQueue, SimTime};
use fastg_gpu::{BurstTally, KernelDesc, SoloLane};
use fastg_models::StageOp;

/// What a stretch defers until it folds.
struct Stretch {
    /// Deliveries strictly before this are the driver's next ones.
    limit: SimTime,
    row: SoloRow,
    lane: SoloLane,
    bursts: BurstTally,
    /// The GPU time of the stretch's last burst, which its request keeps.
    last_burst: Option<SimTime>,
}

/// The step a stretch stopped at, for the normal path to take.
enum Stop {
    /// A host phase ending at this instant, at or past the limit.
    Host(SimTime),
    /// A burst (stage index) whose token is requested at this instant.
    Request(SimTime, usize),
    /// A granted burst launched at this instant, ending at or past the
    /// limit.
    Launch(SimTime, usize),
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
            let Some(mut stretch) = self.open_stretch(at, queue) else {
                return self.step_pod(now, at, queue);
            };
            let stop = self.run_stretch(&mut stretch, now, at, queue);
            self.fold(at, stretch);
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

    /// Lifts out a stretch for the pod at `at` if it may run ahead now.
    fn open_stretch(&self, at: PodAt, queue: &EventQueue<Event>) -> Option<Stretch> {
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
        let (row, lane) = node.solo_parts(at.slot)?;
        Some(Stretch {
            limit,
            row,
            lane,
            bursts: BurstTally::default(),
            last_burst: None,
        })
    }

    /// Takes the pod's steps inline from `now` until one of them cannot
    /// be, and returns that one.
    fn run_stretch(
        &mut self,
        s: &mut Stretch,
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
                    if done >= s.limit {
                        return Stop::Host(done);
                    }
                    self.deliver_inline(done, &Event::HostDone(at.pod), queue);
                    now = done;
                    continue;
                }
                StageOp::Done => return Stop::Done(now),
                StageOp::Burst(stage) => stage,
            };
            let burst = profile
                .stages
                .get(stage)
                .and_then(|st| st.burst())
                .and_then(|(spec, count)| {
                    let desc = KernelDesc {
                        blocks: spec.blocks,
                        work_per_block: spec.work_per_block,
                        tag: at.pod.0,
                    };
                    s.lane.burst(desc, count)
                });
            // A pass granting the token runs inline only before the limit.
            let Some(burst) = burst.filter(|b| now < s.limit && s.row.can_charge(b.span)) else {
                return Stop::Request(now, stage);
            };
            match s.row.token(now) {
                SoloToken::Held => {}
                SoloToken::Passed => {
                    queue.claim_tie_key();
                    self.trace_pass(now, at.node);
                    self.counts.dispatch_passes += 1;
                }
                SoloToken::Refused => return Stop::Request(now, stage),
            }
            let end = now.checked_add(burst.span).filter(|&end| end < s.limit);
            let Some(end) = end.filter(|_| s.bursts.add(&burst)) else {
                return Stop::Launch(now, stage);
            };
            s.row.charge(end, burst.span);
            s.last_burst = Some(burst.span);
            self.deliver_inline(end, &Event::BurstFastForward(at.node, at.pod), queue);
            now = end;
        }
    }

    /// Writes a stretch back to the node, the pod and the engine's
    /// counters.
    fn fold(&mut self, at: PodAt, s: Stretch) {
        let Stretch {
            limit: _,
            row,
            lane: _,
            bursts,
            last_burst,
        } = s;
        let Some(node) = self.nodes.get_mut(at.node) else {
            debug_assert!(false, "runtime per node");
            return;
        };
        node.put_solo_parts(at.slot, row, &bursts);
        if let Some(span) = last_burst {
            if let Some(active) = node.get_mut(at.slot).and_then(|rt| rt.active.as_mut()) {
                active.burst_gpu_time = span;
            }
        }
        self.ff_bursts += bursts.bursts;
        self.ff_coalesced_kernels += bursts.kernels;
        self.counts.solo_steps += bursts.bursts;
    }

    /// Delivers `event` at `at` inline, traced and counted as the
    /// driver's delivery would be.
    fn deliver_inline(&mut self, at: SimTime, event: &Event, queue: &mut EventQueue<Event>) {
        queue.deliver_inline(at);
        self.note(at, event);
    }
}

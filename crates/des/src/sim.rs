//! The simulation driver.

use crate::queue::EventQueue;
use crate::time::SimTime;

/// The state and event handler of a simulated system.
///
/// A `World` owns all mutable simulation state; the [`Simulation`] driver
/// owns the clock and the event queue and calls [`World::handle`] for each
/// event in timestamp order. Handlers may schedule further events through
/// the queue they are handed.
pub trait World {
    /// The event type delivered by the queue. Events are `Copy`: the
    /// driver delivers a copy of the queue head and leaves its slot held
    /// for the handler's first push (see [`EventQueue`]'s held root).
    type Event: Copy;

    /// Handles one event at simulated time `now`.
    fn handle(&mut self, now: SimTime, event: Self::Event, queue: &mut EventQueue<Self::Event>);

    /// Runs one unit of end-of-instant work at `now` and returns whether
    /// there was any. The driver calls this only once no live event
    /// remains at `now`. Whatever the work schedules at `now` is
    /// delivered before the next call, and the clock moves on only after
    /// a call returns `false`. Work of this kind decides on the instant's
    /// final state, whatever order its events were delivered in, without
    /// a queue entry of its own. The default has none.
    fn end_of_instant(&mut self, _now: SimTime, _queue: &mut EventQueue<Self::Event>) -> bool {
        false
    }
}

/// The outcome of a single [`Simulation::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// An event was delivered, or a unit of end-of-instant work ran.
    Handled,
    /// The queue was empty and no end-of-instant work remained; nothing
    /// happened.
    Idle,
}

/// Drives a [`World`] by delivering events in timestamp order.
///
/// The clock (the current instant and the count of delivered events)
/// lives in the queue, so that a world may deliver to itself the event
/// the driver would deliver next: one it claimed a rank for instead of
/// pushing it ([`EventQueue::claim`], [`EventQueue::deliver_claimed`]),
/// or the queue's head ([`EventQueue::deliver_head`]). Such a delivery
/// moves the clock and counts exactly as the driver's would. A world may
/// do so only inside [`Self::run_until`], whose deadline it reads from
/// [`EventQueue::deadline`].
#[derive(Clone)]
pub struct Simulation<W: World> {
    world: W,
    queue: EventQueue<W::Event>,
}

impl<W: World> Simulation<W> {
    /// Creates a simulation at time zero with an empty queue.
    pub fn new(world: W) -> Self {
        Simulation {
            world,
            queue: EventQueue::new(),
        }
    }

    /// The current simulated time (the timestamp of the last delivered
    /// event, or zero before the first).
    pub fn now(&self) -> SimTime {
        self.queue.clock().0
    }

    /// Total number of events delivered so far, inline deliveries
    /// included ([`World::end_of_instant`] work is not an event and does
    /// not count).
    pub fn events_handled(&self) -> u64 {
        self.queue.clock().1
    }

    /// Immutable access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable access to the world (e.g. to seed initial state).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Immutable access to the event queue (e.g. to snapshot its state).
    pub fn queue(&self) -> &EventQueue<W::Event> {
        &self.queue
    }

    /// Simultaneous mutable access to world and queue, for drivers that
    /// invoke world methods which schedule events outside of `handle`.
    pub fn parts_mut(&mut self) -> (&mut W, &mut EventQueue<W::Event>, SimTime) {
        let now = self.now();
        (&mut self.world, &mut self.queue, now)
    }

    /// Restores the driver clock from a checkpoint: the current simulated
    /// time and the delivered-event counter. Event-queue state is restored
    /// separately through [`EventQueue::restore_state`].
    pub fn restore_clock(&mut self, now: SimTime, handled: u64) {
        self.queue.set_clock(now, handled);
    }

    /// Delivers the next event, or runs one unit of end-of-instant work
    /// when no event remains at the current instant (see
    /// [`World::end_of_instant`]).
    ///
    /// An event stamped earlier than the current time means something
    /// scheduled into the past; time never moves backwards (the event is
    /// delivered at the current time instead), and debug builds assert.
    pub fn step(&mut self) -> StepOutcome {
        if self.advance(SimTime::MAX) {
            StepOutcome::Handled
        } else {
            StepOutcome::Idle
        }
    }

    /// The one drive step every loop shares: the next live event at the
    /// current instant; else one unit of the world's end-of-instant work;
    /// else the next event at or before `deadline`. Returns `false` when
    /// none of the three remains.
    fn advance(&mut self, deadline: SimTime) -> bool {
        let now = self.now();
        let instant_open = self.queue.peek_time().is_some_and(|t| t <= now);
        if !instant_open && self.world.end_of_instant(now, &mut self.queue) {
            return true;
        }
        match self.queue.take_before(deadline) {
            Some((t, ev)) => {
                self.deliver(t, ev);
                true
            }
            None => false,
        }
    }

    /// Advances the clock to `t` and hands `ev` to the world.
    fn deliver(&mut self, t: SimTime, ev: W::Event) {
        self.queue.record_delivery(t);
        let now = self.now();
        self.world.handle(now, ev, &mut self.queue);
    }

    /// Runs until the next pending event would be strictly after `deadline`
    /// (events at exactly `deadline` are delivered), or the queue empties.
    /// Every instant it reaches is closed: its end-of-instant work has
    /// run, the current one's included, also when `deadline` is the
    /// current instant. Finally advances the clock to `deadline` if it is
    /// ahead of the last event, so interval statistics can be closed at a
    /// known instant.
    ///
    /// While it runs, the world reads `deadline` from
    /// [`EventQueue::deadline`] and may deliver events to itself inline.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.queue.set_deadline(Some(deadline));
        while self.advance(deadline) {}
        self.queue.set_deadline(None);
        let (now, handled) = self.queue.clock();
        if now < deadline {
            self.queue.set_clock(deadline, handled);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Steps until neither an event nor end-of-instant work is left; the
    /// clock stops at the last event.
    fn run_until_idle<W: World>(sim: &mut Simulation<W>) {
        while sim.step() == StepOutcome::Handled {}
    }

    struct Ping {
        count: u32,
        limit: u32,
    }

    impl World for Ping {
        type Event = u32;
        fn handle(&mut self, now: SimTime, ev: u32, queue: &mut EventQueue<u32>) {
            self.count += ev;
            if self.count < self.limit {
                queue.schedule(now + SimTime::from_micros(10), 1);
            }
        }
    }

    #[test]
    fn run_until_idle_drains() {
        let mut sim = Simulation::new(Ping { count: 0, limit: 5 });
        sim.parts_mut().1.schedule(SimTime::ZERO, 1);
        run_until_idle(&mut sim);
        assert_eq!(sim.world().count, 5);
        assert_eq!(sim.now(), SimTime::from_micros(40));
        assert_eq!(sim.events_handled(), 5);
    }

    #[test]
    fn run_until_stops_at_deadline_and_advances_clock() {
        let mut sim = Simulation::new(Ping { count: 0, limit: 100 });
        sim.parts_mut().1.schedule(SimTime::ZERO, 1);
        sim.run_until(SimTime::from_micros(25));
        // Events at 0, 10, 20 delivered; 30 pending.
        assert_eq!(sim.world().count, 3);
        assert_eq!(sim.now(), SimTime::from_micros(25));
        sim.run_until(SimTime::from_micros(30));
        assert_eq!(sim.world().count, 4);
    }

    /// Logs deliveries and end-of-instant passes. Every delivered event
    /// owes one pass at its instant (deduplicated); the pass at `echo_at`
    /// schedules one more event at the same instant, which owes another.
    #[derive(Default)]
    struct Closer {
        log: Vec<String>,
        owed: bool,
        echo_at: Option<SimTime>,
        /// Set if a pass ever ran while an event remained at its instant.
        early: bool,
    }

    impl World for Closer {
        type Event = &'static str;
        fn handle(
            &mut self,
            now: SimTime,
            ev: &'static str,
            _queue: &mut EventQueue<&'static str>,
        ) {
            self.log.push(format!("{} {ev}", now.as_micros()));
            self.owed = true;
        }
        fn end_of_instant(&mut self, now: SimTime, queue: &mut EventQueue<&'static str>) -> bool {
            self.early |= queue.peek_time() == Some(now);
            if !std::mem::take(&mut self.owed) {
                return false;
            }
            self.log.push(format!("{} pass", now.as_micros()));
            if self.echo_at == Some(now) {
                self.echo_at = None;
                queue.schedule(now, "echo");
            }
            true
        }
    }

    fn closer(events: &[(u64, &'static str)]) -> Simulation<Closer> {
        let mut sim = Simulation::new(Closer::default());
        for &(t, ev) in events {
            sim.parts_mut().1.schedule(SimTime::from_micros(t), ev);
        }
        sim
    }

    #[test]
    fn end_of_instant_runs_once_the_instant_holds_no_event() {
        let mut sim = closer(&[(10, "a"), (10, "b"), (20, "c"), (10, "d")]);
        run_until_idle(&mut sim);
        assert_eq!(
            sim.world().log,
            ["10 a", "10 b", "10 d", "10 pass", "20 c", "20 pass"]
        );
        assert!(!sim.world().early);
        assert_eq!(sim.events_handled(), 4, "passes are not events");
    }

    #[test]
    fn an_event_a_pass_schedules_now_lands_before_the_next_pass_and_later_events() {
        let mut sim = closer(&[(10, "a"), (20, "b")]);
        sim.world_mut().echo_at = Some(SimTime::from_micros(10));
        sim.run_until(SimTime::from_micros(30));
        assert_eq!(
            sim.world().log,
            ["10 a", "10 pass", "10 echo", "10 pass", "20 b", "20 pass"]
        );
        assert!(!sim.world().early);
    }

    #[test]
    fn run_until_closes_the_instant_it_stops_at() {
        // The last event sits exactly at the deadline: its pass still runs.
        let mut sim = closer(&[(10, "a"), (30, "b")]);
        sim.run_until(SimTime::from_micros(10));
        assert_eq!(sim.world().log, ["10 a", "10 pass"]);
        assert!(!sim.world().owed);
        // Work owed between runs (as an API call leaves it) runs even
        // when the deadline is the current instant.
        sim.world_mut().owed = true;
        sim.run_until(sim.now());
        assert_eq!(sim.world().log, ["10 a", "10 pass", "10 pass"]);
        assert!(!sim.world().owed);
        assert_eq!(sim.now(), SimTime::from_micros(10));
        // Stepping runs it too, one unit per step, before the next event.
        sim.world_mut().owed = true;
        assert_eq!(sim.step(), StepOutcome::Handled);
        assert_eq!(sim.world().log.last().map(String::as_str), Some("10 pass"));
        assert_eq!(sim.step(), StepOutcome::Handled);
        assert_eq!(sim.world().log.last().map(String::as_str), Some("30 b"));
        assert_eq!(sim.step(), StepOutcome::Handled);
        assert_eq!(sim.step(), StepOutcome::Idle);
    }

    #[test]
    fn a_world_without_end_of_instant_work_steps_event_by_event() {
        let mut sim = Simulation::new(Ping { count: 0, limit: 4 });
        sim.parts_mut().1.schedule(SimTime::ZERO, 1);
        sim.parts_mut().1.schedule(SimTime::ZERO, 1);
        let mut steps = 0;
        while sim.step() == StepOutcome::Handled {
            steps += 1;
            assert_eq!(u64::from(sim.world().count), sim.events_handled());
        }
        // Two chains of 10 µs pings: each step delivered one event.
        assert_eq!(steps, 5);
        assert_eq!(sim.events_handled(), 5);
        assert_eq!(sim.now(), SimTime::from_micros(20));
        assert!(sim.queue().is_empty());
    }

    /// Pings (event `1`) every 10 µs, recording the deadline each ping
    /// reads. Every `inline_every`-th ping claims its rank instead of
    /// being scheduled, and is delivered inline when that rank is below
    /// the head's and within the run, else pushed at it. Other events do
    /// nothing.
    struct Ahead {
        deadlines: Vec<Option<SimTime>>,
        inline_every: u32,
        count: u32,
        limit: u32,
        inlined: u64,
    }

    impl Ahead {
        fn new(inline_every: u32, limit: u32) -> Self {
            Ahead { deadlines: Vec::new(), inline_every, count: 0, limit, inlined: 0 }
        }
    }

    impl World for Ahead {
        type Event = u32;
        fn handle(&mut self, mut now: SimTime, ev: u32, queue: &mut EventQueue<u32>) {
            if ev != 1 {
                return;
            }
            loop {
                self.deadlines.push(queue.deadline());
                self.count += 1;
                if self.count >= self.limit {
                    return;
                }
                let next = now + SimTime::from_micros(10);
                if self.inline_every == 0 || self.count % self.inline_every != 0 {
                    queue.schedule(next, 1);
                    return;
                }
                let (rank, _) = queue.claim(next, &1);
                let before_head = queue.head().map_or(true, |(head, _)| rank < head);
                if !(before_head && queue.deadline().is_some_and(|d| next <= d)) {
                    queue.push_claimed(rank, 1);
                    return;
                }
                queue.deliver_claimed(rank);
                self.inlined += 1;
                now = next;
            }
        }
    }

    #[test]
    fn the_world_reads_the_deadline_run_until_was_given() {
        let mut sim = Simulation::new(Ahead::new(0, 100));
        assert_eq!(sim.queue().deadline(), None, "no run before the first");
        sim.parts_mut().1.schedule(SimTime::ZERO, 1);
        sim.run_until(SimTime::from_micros(45));
        let deadline = Some(SimTime::from_micros(45));
        assert_eq!(sim.world().deadlines, [deadline; 5]);
        assert_eq!(sim.queue().deadline(), None, "closed after the run");
        sim.step();
        assert_eq!(sim.world().deadlines.last(), Some(&None), "stepping has none");
        sim.run_until(SimTime::from_micros(75));
        assert_eq!(sim.world().deadlines.last(), Some(&Some(SimTime::from_micros(75))));
    }

    /// Inline deliveries count as delivered events and take the sequence
    /// numbers their pushes would have: the clock, the event count and
    /// the rank of every later push (here: a same-instant race resolved
    /// by tie keys under every policy) match the run that pushes every
    /// ping, and the deadline bounds what runs inline.
    #[test]
    fn inline_deliveries_count_and_keep_every_later_rank() {
        use crate::TieBreak;
        let shuffles = [TieBreak::SeededShuffle(7), TieBreak::SeededShuffle(8)];
        for tb in [TieBreak::Fifo, TieBreak::Lifo].into_iter().chain(shuffles) {
            let run = |inline_every| {
                let mut sim = Simulation::new(Ahead::new(inline_every, 1_000));
                sim.parts_mut().1.set_tiebreak(tb);
                sim.parts_mut().1.schedule(SimTime::ZERO, 1);
                // An entry the pings run up to: none passes it inline.
                sim.parts_mut().1.schedule(SimTime::from_micros(95), 7);
                sim.run_until(SimTime::from_micros(300));
                let now = sim.now();
                let handled = sim.events_handled();
                // Two entries pushed now race at one instant; their order
                // is decided by the tie keys the inline deliveries left.
                let q = sim.parts_mut().1;
                q.schedule(SimTime::from_micros(400), 1);
                q.schedule(SimTime::from_micros(400), 2);
                let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
                (now, handled, order, sim.world().inlined)
            };
            let pushed = run(0);
            let inlined = run(2);
            assert_eq!(pushed.3, 0);
            assert!(inlined.3 > 5, "{tb:?}: {} inline", inlined.3);
            assert_eq!(inlined.0, pushed.0, "{tb:?}");
            assert_eq!(inlined.1, pushed.1, "{tb:?}: every inline delivery counts");
            assert_eq!(inlined.2, pushed.2, "{tb:?}: later ranks unchanged");
        }
    }

    /// A claimed entry pushed at its rank pops where the scheduled one
    /// would, its token revokes it, and the head delivered inline moves
    /// the clock and counts like the driver's delivery.
    #[test]
    fn a_claimed_entry_keeps_its_rank_and_the_head_delivers_inline() {
        use crate::TieBreak;
        for tb in [TieBreak::Fifo, TieBreak::Lifo, TieBreak::SeededShuffle(3)] {
            let order = |claimed: bool| {
                let mut queue = EventQueue::new();
                queue.set_tiebreak(tb);
                queue.schedule(SimTime::from_micros(20), 1);
                let (rank, token) = queue.claim(SimTime::from_micros(20), &2);
                queue.schedule(SimTime::from_micros(20), 3);
                if claimed {
                    assert_eq!(rank.time(), SimTime::from_micros(20));
                    queue.push_claimed(rank, 2);
                }
                queue.schedule(SimTime::from_micros(10), 4);
                let head = queue.head().map(|(r, &e)| (r.time(), e));
                assert_eq!(head, Some((SimTime::from_micros(10), 4)), "{tb:?}");
                if claimed {
                    let mut cancelled = queue.clone();
                    assert!(cancelled.cancel(token), "{tb:?}: the token revokes a pushed claim");
                    assert_eq!(cancelled.len(), 3, "{tb:?}");
                }
                std::iter::from_fn(|| queue.pop().map(|(_, e)| e)).collect::<Vec<u32>>()
            };
            let (pushed, kept_aside) = (order(true), order(false));
            assert_eq!(pushed.len(), 4, "{tb:?}");
            let mut without = pushed.clone();
            without.retain(|&e| e != 2);
            assert_eq!(without, kept_aside, "{tb:?}: later entries keep their ranks");
        }
        let mut sim = Simulation::new(Ahead::new(0, 1));
        let (_, queue, _) = sim.parts_mut();
        queue.schedule(SimTime::from_micros(20), 5);
        queue.schedule(SimTime::from_micros(30), 6);
        queue.set_deadline(Some(SimTime::from_micros(50)));
        let before = queue.clock();
        assert_eq!(queue.deliver_head(), Some((SimTime::from_micros(20), 5)));
        assert_eq!(queue.clock(), (SimTime::from_micros(20), before.1 + 1));
        assert_eq!(queue.delivered(), before.1 + 1);
        assert_eq!(queue.head().map(|(r, &e)| (r.time(), e)), Some((SimTime::from_micros(30), 6)));
        assert_eq!(queue.len(), 1, "the taken head is gone");
    }

    // The panic is a `debug_assert!`: release builds skip the check.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn past_event_panics() {
        struct Bad;
        impl World for Bad {
            type Event = bool;
            fn handle(&mut self, _now: SimTime, first: bool, queue: &mut EventQueue<bool>) {
                if first {
                    queue.schedule(SimTime::ZERO, false);
                }
            }
        }
        let mut sim = Simulation::new(Bad);
        sim.parts_mut().1.schedule(SimTime::from_micros(10), true);
        run_until_idle(&mut sim);
    }
}

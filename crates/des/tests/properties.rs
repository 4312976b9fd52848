//! Property tests for the event engine.

use fastg_des::{
    BusyTracker, CancelToken, EventQueue, SimTime, Simulation, SnapReader, SnapWriter, TieBreak,
    World,
};
use proptest::prelude::*;
use std::cmp::Reverse;

/// One step of the differential queue test. Indices pick among the
/// tokens issued so far (modulo their count).
#[derive(Debug, Clone)]
enum QueueOp {
    /// Schedule at `time` an event of class `class` (0..3).
    Schedule(u64, u64),
    ScheduleCancellable(u64, u64),
    /// Cancel an issued token: a fresh cancel while its entry is live, a
    /// double cancel while its dead entry is still queued. Tokens whose
    /// entry has left the queue are not passed (the caller contract).
    Cancel(usize),
    /// Cancel a token from beyond this queue's sequence space.
    CancelForeign,
    Pop,
    /// Take the head the way the simulation driver does, leaving the
    /// root held for the next push.
    Take,
    /// Replace the queue by a `snap_state` → `restore_state` copy.
    RoundTrip,
}

/// One second, the unit the drawn entry times are spread over.
const WIDTH: u64 = 1_000_000;

/// Entry times: colliding instants, times within the first two seconds,
/// times a few µs either side of whole seconds, times tens of seconds
/// ahead, and the end of time (a saturated deadline).
fn queue_time() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..4,
        0u64..4,
        0u64..2 * WIDTH,
        (1u64..6, 0u64..8).prop_map(|(k, d)| k * WIDTH - 4 + d),
        2 * WIDTH..40 * WIDTH,
        (0u64..3).prop_map(|d| u64::MAX - d),
    ]
}

fn queue_op() -> impl Strategy<Value = QueueOp> {
    // Repeated arms weight the draw toward scheduling, cancels and
    // removals.
    prop_oneof![
        (queue_time(), 0u64..3).prop_map(|(t, c)| QueueOp::Schedule(t, c)),
        (queue_time(), 0u64..3).prop_map(|(t, c)| QueueOp::Schedule(t, c)),
        (queue_time(), 0u64..3).prop_map(|(t, c)| QueueOp::ScheduleCancellable(t, c)),
        (queue_time(), 0u64..3).prop_map(|(t, c)| QueueOp::ScheduleCancellable(t, c)),
        (0usize..64).prop_map(QueueOp::Cancel),
        (0usize..64).prop_map(QueueOp::Cancel),
        Just(QueueOp::CancelForeign),
        Just(QueueOp::Pop),
        Just(QueueOp::Take),
        Just(QueueOp::Take),
        Just(QueueOp::RoundTrip),
    ]
}

/// The reference model's view of one queued entry. Events are
/// `seq * 3 + class`, so a popped event names its entry.
#[derive(Debug, Clone, Copy)]
struct ModelEntry {
    time: u64,
    seq: u64,
    event: u64,
    dead: bool,
}

fn class_of(event: &u64) -> u8 {
    u8::try_from(event % 3).unwrap()
}

/// A sorted-`Vec` reference model of `EventQueue`: entries stay queued
/// (dead or alive) until popped, and a dead head is dropped eagerly.
struct QueueModel {
    tiebreak: TieBreak,
    entries: Vec<ModelEntry>,
    next_seq: u64,
}

impl QueueModel {
    /// The queue's documented order: `(time, class, tiebreak.key(seq))`.
    fn sort(&mut self) {
        let tb = self.tiebreak;
        self.entries
            .sort_by_key(|e| (e.time, class_of(&e.event), tb.key(e.seq)));
        // FIFO and LIFO must also keep the orders they had before tie
        // keys were packed: `(time, class, ±seq)`.
        let seq_order: Vec<u64> = self.entries.iter().map(|e| e.seq).collect();
        let mut pinned = self.entries.clone();
        match tb {
            TieBreak::Fifo => pinned.sort_by_key(|e| (e.time, class_of(&e.event), e.seq)),
            TieBreak::Lifo => pinned.sort_by_key(|e| (e.time, class_of(&e.event), Reverse(e.seq))),
            TieBreak::SeededShuffle(_) => return,
        }
        let pinned: Vec<u64> = pinned.iter().map(|e| e.seq).collect();
        assert_eq!(
            seq_order, pinned,
            "{tb:?} order moved from (time, class, ±seq)"
        );
    }

    fn purge_dead_head(&mut self) {
        while self.entries.first().is_some_and(|e| e.dead) {
            self.entries.remove(0);
        }
    }

    fn schedule(&mut self, time: u64, class: u64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push(ModelEntry {
            time,
            seq,
            event: seq * 3 + class,
            dead: false,
        });
        self.sort();
        seq
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        if self.entries.is_empty() {
            return None;
        }
        let e = self.entries.remove(0);
        assert!(!e.dead, "model head must be live");
        self.purge_dead_head();
        Some((SimTime::from_micros(e.time), e.event))
    }

    fn len(&self) -> usize {
        self.entries.iter().filter(|e| !e.dead).count()
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.entries.first().map(|e| SimTime::from_micros(e.time))
    }
}

fn restored_copy(q: &EventQueue<u64>) -> EventQueue<u64> {
    let mut w = SnapWriter::new();
    q.snap_state(&mut w);
    let bytes = w.finish();
    let mut copy = EventQueue::new();
    copy.set_classifier(class_of);
    let mut r = SnapReader::new(&bytes);
    copy.restore_state(&mut r).unwrap();
    r.expect_done().unwrap();
    copy
}

/// What a scripted world does on one delivery.
#[derive(Debug, Clone)]
struct Step {
    /// Entries to schedule: `(delay µs, class, cancellable)`. A zero delay
    /// schedules at the delivery instant.
    pushes: Vec<(u64, u64, bool)>,
    /// Cancel the live token at this index (modulo their count).
    cancel: Option<usize>,
    /// Cancel the live token due earliest: often the next head.
    cancel_earliest: bool,
    /// Claim a tie key before scheduling.
    claim: bool,
}

/// Push delays: mostly at or just after the delivery instant, sometimes
/// about a second or several seconds ahead, so the driver takes while
/// entries due much later wait.
fn delay() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..4,
        0u64..4,
        0u64..4,
        WIDTH - 2..WIDTH + 2,
        2 * WIDTH..20 * WIDTH,
    ]
}

fn step() -> impl Strategy<Value = Step> {
    (
        prop::collection::vec((delay(), 0u64..3, 0u8..3), 0..4),
        prop_oneof![Just(None), (0usize..16).prop_map(Some)],
        0u8..4,
        0u8..3,
    )
        .prop_map(|(pushes, cancel, earliest, claim)| Step {
            pushes: pushes.into_iter().map(|(d, c, k)| (d, c, k > 0)).collect(),
            cancel,
            cancel_earliest: earliest == 0,
            claim: claim == 0,
        })
}

/// A world that follows a script, one step per delivery, and logs every
/// delivery together with the queue reads it makes inside the handler.
/// Events are ids (`id % 3` is the class); the world remembers the
/// tokens of its live cancellable entries and when they are due.
struct Scripted {
    script: Vec<Step>,
    delivered: usize,
    /// Deliveries after which the world stops scheduling.
    budget: usize,
    next_id: u64,
    live: Vec<(u64, CancelToken, u64)>,
    log: Vec<String>,
}

impl Scripted {
    fn new(script: Vec<Step>, budget: usize) -> Self {
        Scripted { script, delivered: 0, budget, next_id: 0, live: Vec::new(), log: Vec::new() }
    }

    fn schedule(&mut self, at: u64, class: u64, cancellable: bool, queue: &mut EventQueue<u64>) {
        let id = self.next_id * 3 + class;
        self.next_id += 1;
        let t = SimTime::from_micros(at);
        if cancellable {
            self.live.push((id, queue.schedule_cancellable(t, id), at));
        } else {
            queue.schedule(t, id);
        }
    }

    fn cancel_at(&mut self, i: usize, queue: &mut EventQueue<u64>) {
        let (id, token, _) = self.live.remove(i);
        let cancelled = queue.cancel(token);
        self.log.push(format!("cancel {id} {cancelled} len {}", queue.len()));
    }
}

impl World for Scripted {
    type Event = u64;
    fn handle(&mut self, now: SimTime, id: u64, queue: &mut EventQueue<u64>) {
        self.live.retain(|&(live, _, _)| live != id);
        self.log.push(format!(
            "{} {id} peek {:?} len {}",
            now.as_micros(),
            queue.peek_time(),
            queue.len()
        ));
        self.delivered += 1;
        if self.delivered > self.budget || self.script.is_empty() {
            return;
        }
        let step = self.script[self.delivered % self.script.len()].clone();
        if step.claim {
            let key = queue.claim_tie_key();
            self.log.push(format!("claim {key}"));
        }
        if step.cancel_earliest {
            if let Some(i) = (0..self.live.len()).min_by_key(|&i| (self.live[i].2, i)) {
                self.cancel_at(i, queue);
            }
        }
        for &(delay, class, cancellable) in &step.pushes {
            self.schedule(now.as_micros() + delay, class, cancellable, queue);
            self.log.push(format!("push peek {:?} len {}", queue.peek_time(), queue.len()));
        }
        if let Some(i) = step.cancel {
            if !self.live.is_empty() {
                let i = i % self.live.len();
                self.cancel_at(i, queue);
            }
        }
        self.log.push(format!("end peek {:?} len {}", queue.peek_time(), queue.len()));
    }

    /// Every fifth instant, one unit of end-of-instant work schedules an
    /// entry at the same instant.
    fn end_of_instant(&mut self, now: SimTime, queue: &mut EventQueue<u64>) -> bool {
        let at = now.as_micros();
        let passed = self.log.last().is_some_and(|l| l == "pass");
        if self.delivered > self.budget || at % 5 != 0 || passed {
            return false;
        }
        self.log.push("pass".into());
        self.schedule(at, 1, true, queue);
        true
    }
}

fn queue_bytes(q: &EventQueue<u64>) -> Vec<u8> {
    let mut w = SnapWriter::new();
    q.snap_state(&mut w);
    w.finish()
}

/// Seeds a scripted world's queue: a few entries at and after zero.
fn seed_queue(world: &mut Scripted, queue: &mut EventQueue<u64>, tiebreak: TieBreak) {
    queue.set_tiebreak(tiebreak);
    queue.set_classifier(class_of);
    for (at, class) in [(0, 0), (0, 2), (1, 1), (3, 0), (3, 1)] {
        world.schedule(at, class, true, queue);
    }
}

proptest! {
    /// The driver's held queue root is invisible: a scripted world that
    /// schedules 0–3 entries per delivery (at the current instant too),
    /// cancels live tokens (the next head among them), claims tie keys and
    /// reads `peek_time`/`len` inside its handler sees exactly what it
    /// sees under a reference driver of plain `pop`/`schedule`, and the
    /// queue left at the deadline encodes to the same bytes.
    #[test]
    fn held_root_driver_matches_plain_pop_and_schedule(
        policy in 0u8..3,
        seed in any::<u64>(),
        script in prop::collection::vec(step(), 1..24),
        budget in 1usize..200,
        deadline in prop_oneof![0u64..60, 0u64..30 * WIDTH],
    ) {
        let tiebreak = tiebreak_of(policy, seed);
        let deadline = SimTime::from_micros(deadline);

        let mut sim = Simulation::new(Scripted::new(script.clone(), budget));
        {
            let (world, queue, _) = sim.parts_mut();
            seed_queue(world, queue, tiebreak);
        }
        sim.run_until(deadline);

        // The reference: `Simulation::advance` spelled out with `pop`.
        let mut world = Scripted::new(script, budget);
        let mut queue = EventQueue::new();
        seed_queue(&mut world, &mut queue, tiebreak);
        let mut now = SimTime::ZERO;
        loop {
            let open = queue.peek_time().is_some_and(|t| t <= now);
            if !open && world.end_of_instant(now, &mut queue) {
                continue;
            }
            match queue.peek_time().filter(|&t| t <= deadline).and_then(|_| queue.pop()) {
                Some((t, id)) => {
                    now = now.max(t);
                    world.handle(now, id, &mut queue);
                }
                None => break,
            }
        }

        prop_assert_eq!(&sim.world().log, &world.log);
        prop_assert_eq!(sim.queue().len(), queue.len());
        prop_assert_eq!(sim.queue().peek_time(), queue.peek_time());
        prop_assert_eq!(queue_bytes(sim.queue()), queue_bytes(&queue));
    }
}

/// A world that only records what the driver delivers, so a
/// differential test can take the queue head through
/// [`Simulation::step`], the only caller of the driver's take.
#[derive(Default)]
struct Taker {
    taken: Option<(SimTime, u64)>,
}

impl World for Taker {
    type Event = u64;
    fn handle(&mut self, now: SimTime, event: u64, _queue: &mut EventQueue<u64>) {
        self.taken = Some((now, event));
    }
}

fn tiebreak_of(policy: u8, seed: u64) -> TieBreak {
    match policy {
        0 => TieBreak::Fifo,
        1 => TieBreak::Lifo,
        _ => TieBreak::SeededShuffle(seed),
    }
}

/// Runs `ops` on a queue and on the sorted-`Vec` model, checking after
/// every step that they agree: same removals, same `len()`, same
/// `peek_time()`, same cancel verdicts. Then drains both.
fn check_against_model(tiebreak: TieBreak, ops: &[QueueOp]) -> Result<(), TestCaseError> {
    // The queue lives in a driver so that `Take` can reach the held root.
    let mut sim = Simulation::new(Taker::default());
    let (_, q, _) = sim.parts_mut();
    q.set_tiebreak(tiebreak);
    q.set_classifier(class_of);
    let mut model = QueueModel {
        tiebreak,
        entries: Vec::new(),
        next_seq: 0,
    };
    // A token from a queue that has issued more sequence numbers than
    // this one ever will.
    let mut donor: EventQueue<u64> = EventQueue::new();
    let mut foreign = None;
    for _ in 0..=ops.len() {
        foreign = Some(donor.schedule_cancellable(SimTime::ZERO, 0));
    }
    let foreign = foreign.unwrap();
    let mut tokens: Vec<(CancelToken, u64)> = Vec::new();
    for op in ops {
        let q = sim.parts_mut().1;
        match *op {
            QueueOp::Schedule(t, c) => {
                let seq = model.schedule(t, c);
                q.schedule(SimTime::from_micros(t), seq * 3 + c);
            }
            QueueOp::ScheduleCancellable(t, c) => {
                let seq = model.schedule(t, c);
                tokens.push((
                    q.schedule_cancellable(SimTime::from_micros(t), seq * 3 + c),
                    seq,
                ));
            }
            QueueOp::Cancel(i) => {
                if tokens.is_empty() {
                    continue;
                }
                let (token, seq) = tokens[i % tokens.len()];
                let Some(entry) = model.entries.iter_mut().find(|e| e.seq == seq) else {
                    continue;
                };
                let expected = !entry.dead;
                entry.dead = true;
                model.purge_dead_head();
                prop_assert_eq!(q.cancel(token), expected, "cancel of seq {}", seq);
            }
            QueueOp::CancelForeign => {
                // The armed sanitizer aborts on a foreign token by design.
                if !fastg_des::sanitizer::active() {
                    prop_assert!(!q.cancel(foreign), "foreign token cancelled an entry");
                }
            }
            QueueOp::Pop => prop_assert_eq!(q.pop(), model.pop()),
            QueueOp::Take => {
                // The model has no clock: rewind the driver's, so that an
                // entry scheduled before the last take is no past event.
                sim.restore_clock(SimTime::ZERO, 0);
                sim.step();
                prop_assert_eq!(sim.world_mut().taken.take(), model.pop());
            }
            QueueOp::RoundTrip => {
                *q = restored_copy(q);
                // Cancelled entries are not encoded.
                model.entries.retain(|e| !e.dead);
            }
        }
        let q = sim.queue();
        prop_assert_eq!(q.len(), model.len(), "len after {:?}", op);
        prop_assert_eq!(q.peek_time(), model.peek_time(), "peek_time after {:?}", op);
    }
    let q = sim.parts_mut().1;
    while let Some(expected) = model.pop() {
        prop_assert_eq!(q.pop(), Some(expected));
    }
    prop_assert_eq!(q.pop(), None);
    Ok(())
}

/// Sequences the random draw rarely lines up, run under every tie-break
/// policy: out-of-order pushes seconds apart before the first take, a
/// round trip while entries seconds ahead wait, takes of the last entry
/// the heap holds, and one run of pushes and takes with and without a
/// round trip first.
#[test]
fn queue_matches_sorted_model_on_horizon_sequences() {
    use QueueOp::*;
    let w = WIDTH;
    let end = u64::MAX;
    let setup = [
        Schedule(0, 0),
        Schedule(w, 0),
        Schedule(w + 5, 1),
        Schedule(2 * w + 10, 2),
        Schedule(3 * w, 2),
    ];
    let moves = [
        Take,
        Take,
        Schedule(2 * w + 20, 0),
        Schedule(3 * w, 0),
        Take,
        Take,
        Take,
        Take,
        Take,
    ];
    let spread = [&setup[..], &moves[..]].concat();
    let spread_restored = [&setup[..], &[RoundTrip], &moves[..]].concat();
    let out_of_order = vec![
        Schedule(5 * w, 0),
        ScheduleCancellable(3, 1),
        Schedule(end, 2),
        Schedule(2 * w + 3, 0),
        ScheduleCancellable(2 * w + 2, 2),
        Schedule(0, 1),
        Schedule(3, 1),
        Schedule(end, 0),
        Cancel(0),
        Take,
        Schedule(1, 0),
        Take,
        Take,
        Pop,
        Take,
    ];
    let round_trip = vec![
        Schedule(0, 0),
        ScheduleCancellable(12 * w, 1),
        ScheduleCancellable(w, 2),
        Schedule(end - 1, 0),
        Take,
        Schedule(w + 1, 1),
        Cancel(0),
        RoundTrip,
        Schedule(w, 0),
        Take,
        Cancel(1),
        Take,
        RoundTrip,
        Take,
    ];
    let lone_heap_entry = vec![
        Schedule(7, 0),
        ScheduleCancellable(3 * w, 1),
        Schedule(4 * w, 2),
        Take,
        Schedule(3 * w, 0),
        Take,
        Cancel(0),
        Take,
        Take,
        Schedule(end, 1),
        Schedule(w, 1),
        Take,
        Take,
    ];
    for tiebreak in [
        TieBreak::Fifo,
        TieBreak::Lifo,
        TieBreak::SeededShuffle(7),
        TieBreak::SeededShuffle(u64::MAX),
    ] {
        for ops in [
            &out_of_order,
            &round_trip,
            &lone_heap_entry,
            &spread,
            &spread_restored,
        ] {
            if let Err(e) = check_against_model(tiebreak, ops) {
                panic!("{tiebreak:?} {ops:?}: {e}");
            }
        }
    }
}

proptest! {
    /// Random interleavings of every queue operation, under all three
    /// tie-break policies and three classes, agree with a sorted-`Vec`
    /// model after every step. The run starts with out-of-order pushes
    /// and round-trips the queue mid-stream.
    #[test]
    fn queue_matches_sorted_model(
        policy in 0u8..3,
        seed in any::<u64>(),
        setup in prop::collection::vec((queue_time(), 0u64..3), 0..24),
        mut ops in prop::collection::vec(queue_op(), 1..160),
    ) {
        let mut all: Vec<QueueOp> =
            setup.into_iter().map(|(t, c)| QueueOp::Schedule(t, c)).collect();
        ops.insert(ops.len() / 2, QueueOp::RoundTrip);
        all.extend(ops);
        check_against_model(tiebreak_of(policy, seed), &all)?;
    }

    /// Events pop globally sorted by time, with FIFO order inside equal
    /// timestamps.
    #[test]
    fn queue_pops_sorted_with_fifo_ties(times in prop::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
        }
        let mut popped = Vec::new();
        while let Some((t, idx)) = q.pop() {
            popped.push((t, idx));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO violated at {:?}", w[0].0);
            }
        }
    }

    /// peek_time always matches the next pop.
    #[test]
    fn peek_matches_pop(times in prop::collection::vec(0u64..1_000, 1..100)) {
        let mut q = EventQueue::new();
        for &t in &times {
            q.schedule(SimTime::from_micros(t), ());
        }
        while let Some(peeked) = q.peek_time() {
            let (t, ()) = q.pop().unwrap();
            prop_assert_eq!(peeked, t);
        }
        prop_assert!(q.is_empty());
    }

    /// Busy fraction is always within [0, 1] and equals total marked busy
    /// time for non-overlapping intervals.
    #[test]
    fn busy_tracker_fraction_bounds(
        gaps in prop::collection::vec((1u64..500, 1u64..500), 1..40)
    ) {
        let mut b = BusyTracker::new(SimTime::ZERO);
        let mut now = SimTime::ZERO;
        let mut busy_total = 0u64;
        for &(idle, busy) in &gaps {
            now += SimTime::from_micros(idle);
            b.begin(now);
            now += SimTime::from_micros(busy);
            b.end(now);
            busy_total += busy;
        }
        let u = b.utilization_at(now);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&u));
        let expected = busy_total as f64 / now.as_micros() as f64;
        prop_assert!((u - expected).abs() < 1e-9);
    }

    /// SimTime::scale never overflows for sane factors and rounds to the
    /// nearest microsecond.
    #[test]
    fn scale_rounding(us in 0u64..1_000_000_000, pct in 0u32..=100) {
        let t = SimTime::from_micros(us);
        let f = pct as f64 / 100.0;
        let scaled = t.scale(f);
        let exact = us as f64 * f;
        prop_assert!((scaled.as_micros() as f64 - exact).abs() <= 0.5 + 1e-9);
    }
}

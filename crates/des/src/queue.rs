//! The timed event queue.
//!
//! Every pending entry is ordered by one packed `u128` *rank*:
//!
//! ```text
//! rank = time << 64 | class << 56 | tie
//! ```
//!
//! `time` is the entry's [`SimTime`] in microseconds, `class` the
//! classifier's byte (see [`EventQueue::set_classifier`]) and `tie` the
//! [`TieBreak`] policy's 56-bit key for the entry's insertion sequence
//! number. The tie key is a bijection of the 56-bit sequence space, so
//! ranks are unique and a single integer compare orders two entries.
//!
//! Every entry lives in one 4-ary implicit min-heap of ranks, whose root
//! is the queue's head; the payloads sit in a parallel vector and move
//! along the same paths.

use crate::sanitizer;
use crate::snap::{reservation, Snap, SnapError, SnapReader, SnapWriter};
use crate::time::SimTime;
use crate::{snap_enum, snap_struct};
use std::collections::BTreeSet;

/// Width of the tie key, the low bits of a rank. Sequence numbers must
/// stay below `2^TIE_BITS`.
const TIE_BITS: u32 = 56;
/// The tie-key (and sequence-number) mask.
const TIE_MASK: u64 = (1 << TIE_BITS) - 1;

/// Children per heap node: a node's four 16-byte child ranks span 64
/// bytes, about one cache line, and the heap is half as deep as a binary
/// one.
const ARITY: usize = 4;

/// The smallest encoded queue entry: 8-byte time, 8-byte order word and
/// at least one byte of event. Bounds the restore reservation.
const MIN_ENTRY_BYTES: usize = 17;

/// How the queue orders entries scheduled for the same instant *within one
/// semantic class* (see [`EventQueue::set_classifier`]). Cross-class order
/// is always fixed by the class rank; the tie-break policy only permutes
/// entries the simulation claims are order-insensitive. Running the same
/// scenario under several policies and diffing report digests is the
/// repo's determinism-race detector (`race_detector` bench bin): any
/// digest divergence means a handler silently depended on same-instant
/// arrival order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TieBreak {
    /// Insertion order (the default, and the historical behaviour).
    Fifo,
    /// Reverse insertion order — the cheapest adversarial permutation.
    Lifo,
    /// A deterministic pseudo-random permutation keyed by the given seed
    /// (mix of seed and insertion sequence — never wall-clock). The seed's
    /// low 56 bits select the permutation.
    SeededShuffle(u64),
}

impl TieBreak {
    /// The tie key for insertion sequence `seq` under this policy: a
    /// bijection of the 56-bit sequence space (higher bits of `seq` are
    /// ignored). Lower keys pop first among same-time, same-class entries.
    pub fn key(self, seq: u64) -> u64 {
        let seq = seq & TIE_MASK;
        match self {
            TieBreak::Fifo => seq,
            TieBreak::Lifo => TIE_MASK - seq,
            TieBreak::SeededShuffle(seed) => mix56(seq ^ (seed & TIE_MASK)),
        }
    }

    /// The inverse of [`Self::key`]: the sequence number whose tie key is
    /// `key` (higher bits of `key` are ignored).
    fn seq_of(self, key: u64) -> u64 {
        let key = key & TIE_MASK;
        match self {
            TieBreak::Fifo => key,
            TieBreak::Lifo => TIE_MASK - key,
            TieBreak::SeededShuffle(seed) => unmix56(key) ^ (seed & TIE_MASK),
        }
    }

    /// Parses an environment override: `fifo`, `lifo`, `shuffle` (seed 1)
    /// or `shuffle:<seed>`. Returns `None` for anything else.
    pub fn parse(s: &str) -> Option<TieBreak> {
        match s {
            "fifo" => Some(TieBreak::Fifo),
            "lifo" => Some(TieBreak::Lifo),
            "shuffle" => Some(TieBreak::SeededShuffle(1)),
            _ => s
                .strip_prefix("shuffle:")
                .and_then(|n| n.parse().ok())
                .map(TieBreak::SeededShuffle),
        }
    }

    /// Folds the scenario seed into a shuffle so the permutation is drawn
    /// from the run's own randomness (`Fifo`/`Lifo` are unaffected).
    #[must_use]
    pub fn derive(self, scenario_seed: u64) -> TieBreak {
        match self {
            TieBreak::SeededShuffle(s) => {
                TieBreak::SeededShuffle(splitmix64(s.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ scenario_seed))
            }
            other => other,
        }
    }
}

snap_enum!(TieBreak, "TieBreak tag" { Fifo = 0, Lifo = 1, SeededShuffle(seed) = 2 });

/// splitmix64's constants; both multipliers are odd, so multiplication by
/// them is invertible modulo `2^56` (see [`mix56`]).
const MIX_ADD: u64 = 0x9E37_79B9_7F4A_7C15;
const MIX_MUL1: u64 = 0xBF58_476D_1CE4_E5B9;
const MIX_MUL2: u64 = 0x94D0_49BB_1331_11EB;
const MIX_INV1: u64 = inverse_mod_2_64(MIX_MUL1);
const MIX_INV2: u64 = inverse_mod_2_64(MIX_MUL2);

/// The splitmix64 finalizer: a cheap, high-quality 64-bit mixer.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(MIX_ADD);
    z = (z ^ (z >> 30)).wrapping_mul(MIX_MUL1);
    z = (z ^ (z >> 27)).wrapping_mul(MIX_MUL2);
    z ^ (z >> 31)
}

/// The multiplicative inverse of odd `m` modulo `2^64` (hence also modulo
/// `2^56`): Newton's iteration doubles the correct low bits each step,
/// starting from the 3 that `m * m ≡ 1 (mod 8)` gives.
const fn inverse_mod_2_64(m: u64) -> u64 {
    let mut x = m;
    let mut i = 0;
    while i < 5 {
        x = x.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(x)));
        i += 1;
    }
    x
}

/// splitmix64's finalizer restricted to 56 bits. The add, each xorshift
/// and each odd multiply is taken modulo `2^56`, so every step — and the
/// whole mix — is a bijection of the 56-bit space ([`unmix56`] inverts it).
fn mix56(z: u64) -> u64 {
    let z = z.wrapping_add(MIX_ADD) & TIE_MASK;
    let z = (z ^ (z >> 30)).wrapping_mul(MIX_MUL1) & TIE_MASK;
    let z = (z ^ (z >> 27)).wrapping_mul(MIX_MUL2) & TIE_MASK;
    z ^ (z >> 31)
}

/// The inverse of [`mix56`].
fn unmix56(z: u64) -> u64 {
    let z = unxorshift56(z, 31).wrapping_mul(MIX_INV2) & TIE_MASK;
    let z = unxorshift56(z, 27).wrapping_mul(MIX_INV1) & TIE_MASK;
    unxorshift56(z, 30).wrapping_sub(MIX_ADD) & TIE_MASK
}

/// Inverts `y = z ^ (z >> k)` on 56-bit values: `z` is the xor of
/// `y >> (i * k)` over every shift still inside the word.
fn unxorshift56(y: u64, k: u32) -> u64 {
    let mut z = y;
    let mut shift = k;
    while shift < TIE_BITS {
        z ^= y >> shift;
        shift += k;
    }
    z
}

/// Packs a timestamp and an order word (`class << 56 | tie`) into a rank.
fn pack(time: SimTime, order: u64) -> u128 {
    u128::from(time.as_micros()) << 64 | u128::from(order)
}

/// The timestamp half of a rank.
fn time_of(rank: u128) -> SimTime {
    // The high half of a u128 always fits; the fallback is unreachable.
    SimTime::from_micros(u64::try_from(rank >> 64).unwrap_or(u64::MAX))
}

/// The order word (`class << 56 | tie`), the low half of a rank.
fn order_of(rank: u128) -> u64 {
    // The masked value always fits; the fallback is unreachable.
    u64::try_from(rank & u128::from(u64::MAX)).unwrap_or(0)
}

/// The tie key, the low 56 bits of a rank.
fn tie_of(rank: u128) -> u64 {
    order_of(rank) & TIE_MASK
}

/// An entry's place in pop order: its time, then its order word
/// (`class << 56 | tie`), the two halves of its packed rank (see the
/// module docs). Ranks are unique, and the lower one pops first. Kept as
/// two words, so a world that holds ranks aside moves them as words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Rank {
    time: SimTime,
    order: u64,
}

impl Rank {
    /// The entry's timestamp.
    pub fn time(self) -> SimTime {
        self.time
    }

    fn of(rank: u128) -> Self {
        Rank { time: time_of(rank), order: order_of(rank) }
    }

    fn packed(self) -> u128 {
        pack(self.time, self.order)
    }
}

/// A handle to a cancellable entry, returned by
/// [`EventQueue::schedule_cancellable`]. The token is generation-stamped:
/// it wraps the entry's unique insertion sequence number, so a stale token
/// (from an entry that already fired) can never alias a newer one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CancelToken(u64);

snap_struct!(CancelToken(seq));

/// A priority queue of `(SimTime, E)` pairs, ordered by time, then the
/// classifier's class, then the [`TieBreak`] policy (FIFO by default).
///
/// Entries scheduled through [`Self::schedule_cancellable`] can later be
/// revoked with [`Self::cancel`]; dead entries are skipped by [`Self::pop`]
/// and never surface through [`Self::peek_time`] (the queue eagerly purges
/// a cancelled head so the reported head is always a live event).
///
/// ## The held root
///
/// The [`Simulation`](crate::Simulation) driver takes the head without
/// removing it: the entry is delivered and the root slot stays *held*, a
/// hole above two valid sub-heaps. The next entry scheduled into the heap
/// fills the hole and sinks with one `sift_down`, instead of the
/// removal's `sift_down` plus the push's `sift_up`. If nothing is
/// scheduled before the next removal, the hole is settled by the normal
/// removal then. A root is held only while no cancelled entry is queued,
/// and [`Self::cancel`] settles it first, so every read stays exact while
/// the root is held: [`Self::peek_time`] reads the least child,
/// [`Self::len`] and [`Self::snap_state`] skip the hole. Entries keep the
/// ranks they would have had, so pop order is unchanged.
#[derive(Clone)]
pub struct EventQueue<E> {
    /// Packed ranks of every entry (live or cancelled), as a 4-ary
    /// min-heap: the children of slot `i` are `4i+1 ..= 4i+4`.
    ranks: Vec<u128>,
    /// Payloads, parallel to `ranks`.
    events: Vec<E>,
    next_seq: u64,
    /// Tie keys of cancelled entries still queued.
    cancelled: BTreeSet<u64>,
    /// Whether slot 0 is a hole: its entry was taken by the driver and
    /// awaits the next push or removal (see the type docs). Implies that
    /// `cancelled` is empty.
    held: bool,
    tiebreak: TieBreak,
    classify: fn(&E) -> u8,
    /// The driver's delivery clock (see [`Clock`]).
    clock: Clock,
}

/// The [`Simulation`](crate::Simulation) driver's clock, kept in the
/// queue so that a world can deliver an event to itself inline (see
/// [`EventQueue::deliver_claimed`] and [`EventQueue::deliver_head`]) and
/// the driver sees the delivery.
/// Not part of [`EventQueue::snap_state`]: a checkpoint encodes the
/// clock on its own, and [`EventQueue::clear`] leaves it alone.
#[derive(Debug, Clone, Copy)]
struct Clock {
    /// The instant of the last delivery, or of the last deadline a run
    /// reached.
    now: SimTime,
    /// Events delivered so far, inline deliveries included.
    handled: u64,
    /// The deadline of the [`Simulation::run_until`](crate::Simulation::run_until)
    /// in progress, and `None` outside one.
    deadline: Option<SimTime>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with FIFO tie-breaking and a single event
    /// class.
    pub fn new() -> Self {
        EventQueue {
            ranks: Vec::new(),
            events: Vec::new(),
            next_seq: 0,
            cancelled: BTreeSet::new(),
            held: false,
            tiebreak: TieBreak::Fifo,
            classify: |_| 0,
            clock: Clock {
                now: SimTime::ZERO,
                handled: 0,
                deadline: None,
            },
        }
    }

    /// Creates an empty queue with heap capacity for `capacity` pending
    /// entries pre-reserved. Fleet-scale scenarios size this from their
    /// expected concurrent event count so the heap never regrows mid-run.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            ranks: Vec::with_capacity(capacity),
            events: Vec::with_capacity(capacity),
            ..Self::new()
        }
    }

    /// Reserves heap capacity for at least `additional` more pending
    /// entries.
    pub fn reserve(&mut self, additional: usize) {
        self.ranks.reserve(additional);
        self.events.reserve(additional);
    }

    /// The current allocated capacity (pending + free slots).
    pub fn capacity(&self) -> usize {
        self.ranks.capacity()
    }

    /// Sets the same-instant, same-class ordering policy. Must be called
    /// before any events are scheduled (already-pushed entries keep the
    /// keys they were assigned at insertion).
    pub fn set_tiebreak(&mut self, tiebreak: TieBreak) {
        debug_assert!(
            self.ranks.is_empty(),
            "tie-break policy must be set before scheduling"
        );
        self.tiebreak = tiebreak;
    }

    /// The active same-instant ordering policy.
    pub fn tiebreak(&self) -> TieBreak {
        self.tiebreak
    }

    /// Sets the semantic event classifier. Same-instant entries always pop
    /// in ascending class order regardless of the tie-break policy; the
    /// policy only permutes within a class. Simulations use this to pin
    /// the cross-kind orderings that are part of their semantics (e.g.
    /// "metric samples observe state before same-instant completions land")
    /// while leaving genuinely commutative orderings free for the race
    /// detector to perturb. Must be called before any events are scheduled.
    pub fn set_classifier(&mut self, classify: fn(&E) -> u8) {
        debug_assert!(
            self.ranks.is_empty(),
            "classifier must be set before scheduling"
        );
        self.classify = classify;
    }

    /// The single insertion point: assigns the next sequence number, packs
    /// the rank, pushes the entry onto the heap, and returns the
    /// sequence. All scheduling paths (`schedule`, `schedule_batch`,
    /// `schedule_cancellable`) funnel through here so the tie-break policy
    /// lives in exactly one place.
    fn push_entry(&mut self, at: SimTime, event: E) -> u64 {
        let seq = self.take_seq();
        self.insert(self.rank_of(at, &event, seq), event);
        seq
    }

    /// The rank of `event` at `at` with insertion sequence `seq`.
    fn rank_of(&self, at: SimTime, event: &E, seq: u64) -> u128 {
        pack(at, self.order_of(event, seq))
    }

    /// The order word (`class << 56 | tie`) of `event` with insertion
    /// sequence `seq`.
    fn order_of(&self, event: &E, seq: u64) -> u64 {
        u64::from((self.classify)(event)) << TIE_BITS | self.tiebreak.key(seq)
    }

    /// Puts an entry of `rank` on the heap.
    fn insert(&mut self, rank: u128, event: E) {
        if std::mem::take(&mut self.held) {
            // Fill the held root: the entry sinks from the top.
            self.events[0] = event;
            self.sift_down(rank);
            return;
        }
        let pos = self.ranks.len();
        self.ranks.push(0);
        self.events.push(event);
        self.sift_up(pos, rank);
    }

    /// Claims the next insertion sequence number without scheduling
    /// anything and returns its tie key under the active policy. Work a
    /// world keeps outside the queue (see
    /// [`World::end_of_instant`](crate::World::end_of_instant)) orders by
    /// such keys, so the [`TieBreak`] policy permutes it exactly as it
    /// would a same-instant, same-class entry pushed now, and later
    /// entries keep the sequence numbers they would have had.
    pub fn claim_tie_key(&mut self) -> u64 {
        let seq = self.take_seq();
        self.tiebreak.key(seq)
    }

    /// The driver clock's instant: the time of the last delivery, or of
    /// the last deadline a run reached.
    pub fn now(&self) -> SimTime {
        self.clock.now
    }

    /// The events delivered so far, by the driver or inline.
    pub fn delivered(&self) -> u64 {
        self.clock.handled
    }

    /// The deadline of the [`Simulation::run_until`](crate::Simulation::run_until)
    /// in progress, as the driver was given it; `None` outside a run
    /// (stepping, API calls between runs).
    pub fn deadline(&self) -> Option<SimTime> {
        self.clock.deadline
    }

    /// The entry the driver delivers next, if any, with its rank.
    pub fn head(&self) -> Option<(Rank, &E)> {
        let i = self.head_index()?;
        Some((Rank::of(self.ranks[i]), &self.events[i]))
    }

    /// The entry ranked next after the head, if any, with its rank: what
    /// [`Self::head`] names once the head is taken, unless that entry
    /// was cancelled meanwhile (a cancelled entry may show here).
    pub fn second(&self) -> Option<(Rank, &E)> {
        let head = self.head_index()?;
        let n = self.ranks.len();
        // The head's children, and with a held root its siblings, the
        // roots of the other sub-heaps.
        let children = (ARITY * head + 1)..n.min(ARITY * head + ARITY + 1);
        let siblings = if self.held { 1..n.min(ARITY + 1) } else { 0..0 };
        let i = siblings.filter(|&i| i != head).chain(children).min_by_key(|&i| self.ranks[i])?;
        Some((Rank::of(self.ranks[i]), &self.events[i]))
    }

    /// Claims the rank that scheduling `event` at `at` now would give it,
    /// and the token that would revoke it, without pushing it: the
    /// sequence number is taken, so later entries keep theirs. A world
    /// keeping the entry aside then either delivers it inline
    /// ([`Self::deliver_claimed`]) or pushes it at that rank
    /// ([`Self::push_claimed`]), which leaves the queue as
    /// [`Self::schedule_cancellable`] would have. Its token revokes it
    /// only once it is pushed.
    pub fn claim(&mut self, at: SimTime, event: &E) -> (Rank, CancelToken) {
        let seq = self.take_seq();
        (Rank { time: at, order: self.order_of(event, seq) }, CancelToken(seq))
    }

    /// Pushes an entry at the rank [`Self::claim`] gave it.
    pub fn push_claimed(&mut self, rank: Rank, event: E) {
        debug_assert!(self.tiebreak.seq_of(rank.order) < self.next_seq, "pushing an unclaimed rank");
        self.insert(rank.packed(), event);
    }

    /// Delivers a claimed entry inline: the world handles it at its time
    /// instead of pushing it and having the driver pop it straight back.
    /// It must be the next delivery: a run is in progress, and the rank
    /// is below the head's and at or before the run's deadline. The clock
    /// moves to its time and it counts as a delivered event, so
    /// [`Simulation::events_handled`](crate::Simulation::events_handled)
    /// and a checkpoint's bytes are what the pushed entry would have left.
    pub fn deliver_claimed(&mut self, rank: Rank) {
        debug_assert!(self.head_rank().map_or(true, |head| rank.packed() < head), "{rank:?} is not next");
        debug_assert!(self.clock.deadline.is_some_and(|d| rank.time() <= d), "{rank:?} is past the run");
        self.record_delivery(rank.time());
    }

    /// Delivers inline an event the world would otherwise schedule at `at`
    /// now and have the driver pop straight back: it takes the sequence
    /// number the push would have taken, and must be the next delivery,
    /// as for [`Self::deliver_claimed`]. The clock moves to `at` and it
    /// counts as a delivered event.
    pub fn deliver_inline(&mut self, at: SimTime) {
        debug_assert!(self.peek_time().map_or(true, |head| at < head), "{at:?} is not next");
        debug_assert!(self.clock.deadline.is_some_and(|d| at <= d), "{at:?} is past the run");
        self.take_seq();
        self.record_delivery(at);
    }

    /// Takes the head entry and delivers it inline, as the driver would:
    /// the world handles it at its time. A run must be in progress, and
    /// the head at or before its deadline.
    pub fn deliver_head(&mut self) -> Option<(SimTime, E)>
    where
        E: Copy,
    {
        let deadline = self.clock.deadline;
        debug_assert!(deadline.is_some(), "inline delivery outside a run");
        let (at, event) = self.take_before(deadline.unwrap_or(SimTime::MAX))?;
        self.record_delivery(at);
        Some((at, event))
    }

    /// Moves the driver clock to `at`, a delivery, and counts it. Time
    /// never moves backwards: an event stamped before the current time is
    /// delivered at the current time, and debug builds assert.
    pub(crate) fn record_delivery(&mut self, at: SimTime) {
        let clock = &mut self.clock;
        if sanitizer::active() {
            sanitizer::on_event(clock.handled, at);
            sanitizer::check(at >= clock.now, "monotone-dispatch", || {
                format!("event scheduled in the past: {at:?} < {:?}", clock.now)
            });
        }
        debug_assert!(at >= clock.now, "event scheduled in the past: {at:?} < {:?}", clock.now);
        clock.now = clock.now.max(at);
        clock.handled += 1;
    }

    /// The driver clock: the current instant and the events delivered.
    pub(crate) fn clock(&self) -> (SimTime, u64) {
        (self.clock.now, self.clock.handled)
    }

    /// Sets the driver clock (a run reaching its deadline, or a restore).
    pub(crate) fn set_clock(&mut self, now: SimTime, handled: u64) {
        self.clock.now = now;
        self.clock.handled = handled;
    }

    /// Opens (`Some`) or closes (`None`) a run's deadline.
    pub(crate) fn set_deadline(&mut self, deadline: Option<SimTime>) {
        self.clock.deadline = deadline;
    }

    /// Assigns the next insertion sequence number.
    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        debug_assert!(seq <= TIE_MASK, "sequence space exhausted");
        self.next_seq += 1;
        seq
    }

    /// Schedules `event` to fire at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        self.push_entry(at, event);
    }

    /// Schedules `event` to fire at absolute time `at` and returns a token
    /// that can later revoke it via [`Self::cancel`]. The entry otherwise
    /// behaves exactly like one from [`Self::schedule`] (same tie-break
    /// policy, same sequence space).
    pub fn schedule_cancellable(&mut self, at: SimTime, event: E) -> CancelToken {
        CancelToken(self.push_entry(at, event))
    }

    /// Revokes the entry behind `token`. Returns `true` if the entry was
    /// still pending and is now dead, and `false` for a token from beyond
    /// this queue's sequence space or a repeat cancel of an entry that is
    /// still queued. A token whose entry has left the queue — it fired, or
    /// it was cancelled and then purged — must not be passed: the caller
    /// drops its token when the event fires or when it cancels. The
    /// sanitizer's `cancel-token-generation` rule catches violations.
    pub fn cancel(&mut self, token: CancelToken) -> bool {
        self.settle();
        if sanitizer::active() {
            self.sanitize_cancel(token);
        }
        if token.0 >= self.next_seq || !self.cancelled.insert(self.tiebreak.key(token.0)) {
            return false;
        }
        // Eagerly drop a dead head so `peek_time` never reports a cancelled
        // entry's timestamp (which would make drivers overrun deadlines).
        self.purge_dead_head();
        true
    }

    /// Shadow-check for [`Self::cancel`]: a token must come from this
    /// queue's own sequence space (generation validity) and, if it is not
    /// a detected double-cancel, its tie key must still be queued. O(n)
    /// scan — only ever runs under `FASTG_SANITIZE=1`.
    #[cfg(debug_assertions)]
    fn sanitize_cancel(&self, token: CancelToken) {
        sanitizer::check(token.0 < self.next_seq, "cancel-token-generation", || {
            format!(
                "token seq {} is from the future (next_seq {}): token from another queue?",
                token.0, self.next_seq
            )
        });
        let key = self.tiebreak.key(token.0);
        if token.0 < self.next_seq && !self.cancelled.contains(&key) {
            sanitizer::check(
                self.ranks.iter().any(|&rank| tie_of(rank) == key),
                "cancel-token-generation",
                || {
                    format!(
                        "token seq {} names an entry that already fired — stale token",
                        token.0
                    )
                },
            );
        }
    }

    /// Release builds compile the cancel shadow-check out entirely.
    #[cfg(not(debug_assertions))]
    #[inline(always)]
    fn sanitize_cancel(&self, _token: CancelToken) {}

    /// Schedules a batch of `(time, event)` pairs, reserving exact heap
    /// capacity up front (the iterator must be [`ExactSizeIterator`]) so a
    /// multi-kernel burst pays one allocation check instead of one per
    /// push. Sequence numbers are assigned in iteration order, so
    /// same-instant batch entries pop in the same order as individual
    /// [`Self::schedule`] calls would under the active tie-break policy.
    pub fn schedule_batch<I>(&mut self, events: I)
    where
        I: IntoIterator<Item = (SimTime, E)>,
        I::IntoIter: ExactSizeIterator,
    {
        let iter = events.into_iter();
        self.reserve(iter.len());
        for (at, event) in iter {
            self.push_entry(at, event);
        }
    }

    /// Removes and returns the earliest live event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.settle();
        let (rank, event) = self.pop_head()?;
        // The head is always live (see `purge_dead_head`), but an entry
        // cancelled while buried may have risen to the head just now.
        debug_assert!(
            !self.cancelled.contains(&tie_of(rank)),
            "popped a cancelled entry"
        );
        self.purge_dead_head();
        Some((time_of(rank), event))
    }

    /// Takes the earliest live event if its timestamp is at or before
    /// `deadline`, leaving the root held (see the type docs) when no
    /// cancelled entry is queued, and removing it otherwise. The taker
    /// delivers the event at once.
    pub(crate) fn take_before(&mut self, deadline: SimTime) -> Option<(SimTime, E)>
    where
        E: Copy,
    {
        self.settle();
        let &rank = self.ranks.first()?;
        if time_of(rank) > deadline {
            return None;
        }
        if !self.cancelled.is_empty() {
            return self.pop();
        }
        self.held = true;
        Some((time_of(rank), self.events[0]))
    }

    /// Removes a held root's hole the normal way: the last entry takes the
    /// slot and sinks.
    fn settle(&mut self) {
        if std::mem::take(&mut self.held) {
            self.pop_head();
        }
    }

    /// The rank of the earliest pending entry: the root, or while the root
    /// is held, its least child.
    fn head_rank(&self) -> Option<u128> {
        Some(self.ranks[self.head_index()?])
    }

    /// Where the earliest pending entry sits (see [`Self::head_rank`]).
    fn head_index(&self) -> Option<usize> {
        if !self.held {
            return (!self.ranks.is_empty()).then_some(0);
        }
        let end = self.ranks.len().min(ARITY + 1);
        (1..end).min_by_key(|&i| self.ranks[i])
    }

    /// The timestamp of the earliest live pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        let head = self.head_rank();
        debug_assert!(
            head.map_or(true, |rank| !self.cancelled.contains(&tie_of(rank))),
            "queue head must never be a cancelled entry"
        );
        head.map(time_of)
    }

    /// Number of live pending events.
    pub fn len(&self) -> usize {
        self.ranks.len() - self.cancelled.len() - usize::from(self.held)
    }

    /// Whether no live events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.ranks.clear();
        self.events.clear();
        self.cancelled.clear();
        self.held = false;
    }

    /// Serializes the queue's full ordering state: tie-break policy, the
    /// sequence counter, and every *live* entry as `(time, order, event)`,
    /// where `order = class << 56 | tie` is the low half of its rank,
    /// stored verbatim (cancelled entries are dropped — their tokens are
    /// dead and nothing restores them). Entries are written in ascending
    /// rank order, i.e. pop order, so the encoding is independent of the
    /// heap's internal layout. The
    /// classifier is a function pointer and is not encoded;
    /// [`Self::restore_state`] keeps whichever classifier the restored
    /// queue was constructed with.
    pub fn snap_state(&self, w: &mut SnapWriter)
    where
        E: Snap,
    {
        self.tiebreak.snap(w);
        w.u64(self.next_seq);
        let mut live: Vec<(u128, &E)> = self
            .ranks
            .iter()
            .copied()
            .zip(&self.events)
            .skip(usize::from(self.held))
            .filter(|&(rank, _)| !self.cancelled.contains(&tie_of(rank)))
            .collect();
        // Ranks are unique, so the unstable sort is deterministic.
        live.sort_unstable_by_key(|&(rank, _)| rank);
        w.len_prefix(live.len());
        for (rank, event) in live {
            time_of(rank).snap(w);
            w.u64(order_of(rank));
            event.snap(w);
        }
    }

    /// Restores state captured by [`Self::snap_state`], replacing all
    /// pending entries. Stored order words are reused verbatim (not
    /// recomputed), so the restored queue pops in exactly the order the
    /// original would have; the sequence counter resumes where it left
    /// off, so future scheduling continues the same sequence space and
    /// outstanding [`CancelToken`]s stay valid.
    ///
    /// Rejects, with a [`SnapError`], a sequence counter beyond the 56-bit
    /// space, ranks that are not strictly ascending, an entry whose
    /// sequence number is at or above the counter, and class bits that
    /// disagree with the classifier. A rejected restore leaves the queue
    /// empty.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>
    where
        E: Snap,
    {
        self.clear();
        let restored = self.restore_entries(r);
        if restored.is_err() {
            self.clear();
        }
        restored
    }

    /// Decodes [`Self::restore_state`]'s input into an empty queue.
    fn restore_entries(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>
    where
        E: Snap,
    {
        self.tiebreak = TieBreak::unsnap(r)?;
        self.next_seq = r.u64()?;
        if self.next_seq > TIE_MASK + 1 {
            return Err(SnapError::new("queue next_seq"));
        }
        let n = r.len_prefix()?;
        // At most one entry per `MIN_ENTRY_BYTES` of input, and neither
        // vector more bytes than the input holds: an in-memory event may
        // be far wider than its encoding.
        let remaining = r.remaining();
        let bound = n.min(remaining / MIN_ENTRY_BYTES);
        self.ranks
            .reserve_exact(reservation::<u128>(bound, remaining));
        self.events
            .reserve_exact(reservation::<E>(bound, remaining));
        for _ in 0..n {
            let time = SimTime::unsnap(r)?;
            let order = r.u64()?;
            let event = E::unsnap(r)?;
            let rank = pack(time, order);
            if self.ranks.last().is_some_and(|&prev| prev >= rank) {
                return Err(SnapError::new("queue entry order"));
            }
            if self.tiebreak.seq_of(order) >= self.next_seq {
                return Err(SnapError::new("queue entry seq"));
            }
            if order >> TIE_BITS != u64::from((self.classify)(&event)) {
                return Err(SnapError::new("queue entry class"));
            }
            // Ascending ranks already form a valid min-heap.
            self.ranks.push(rank);
            self.events.push(event);
        }
        Ok(())
    }

    /// Pops cancelled entries off the head so the next live event (or
    /// nothing) is on top.
    fn purge_dead_head(&mut self) {
        while !self.cancelled.is_empty() {
            match self.ranks.first() {
                Some(&head) if self.cancelled.remove(&tie_of(head)) => {
                    self.pop_head();
                }
                _ => break,
            }
        }
    }

    /// Removes the minimum-rank entry, live or dead.
    fn pop_head(&mut self) -> Option<(u128, E)> {
        let last = self.ranks.pop()?;
        let mut event = self.events.pop()?;
        let Some(&head) = self.ranks.first() else {
            return Some((last, event));
        };
        // The last entry takes the head's slot and sinks from there.
        std::mem::swap(&mut event, &mut self.events[0]);
        self.sift_down(last);
        Some((head, event))
    }

    /// Sifts the entry at `pos` up. Its rank slot is a hole: ancestors'
    /// ranks move down into it until `rank` fits, and `rank` is stored
    /// once, at the end. Its payload follows by swaps.
    #[inline(always)]
    fn sift_up(&mut self, mut pos: usize, rank: u128) {
        while pos > 0 {
            let parent = (pos - 1) / ARITY;
            let above = self.ranks[parent];
            if above < rank {
                break;
            }
            self.ranks[pos] = above;
            self.events.swap(pos, parent);
            pos = parent;
        }
        self.ranks[pos] = rank;
    }

    /// Sifts the entry at the root down, the mirror of [`Self::sift_up`]:
    /// the smallest child's rank moves up into the hole until `rank` fits.
    fn sift_down(&mut self, rank: u128) {
        let n = self.ranks.len();
        let mut pos = 0;
        loop {
            let first = ARITY * pos + 1;
            let (child, low) = if first + ARITY <= n {
                // A branch-free tournament: which child is smallest is
                // data-dependent, so branching on it mispredicts often.
                let c = &self.ranks[first..first + ARITY];
                let left = usize::from(c[1] < c[0]);
                let right = 2 + usize::from(c[3] < c[2]);
                let i = if c[right] < c[left] { right } else { left };
                (first + i, c[i])
            } else if first < n {
                let i = (first..n).min_by_key(|&i| self.ranks[i]).unwrap_or(first);
                (i, self.ranks[i])
            } else {
                break;
            };
            if rank < low {
                break;
            }
            self.ranks[pos] = low;
            self.events.swap(pos, child);
            pos = child;
        }
        self.ranks[pos] = rank;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `second` names the entry the next pop after the head's returns,
    /// with the root held by a take or not.
    #[test]
    fn the_second_entry_is_the_next_after_the_head() {
        let mut z = 0x9E37_79B9_7F4A_7C15u64;
        let mut rand = |m: u64| {
            z = splitmix64(z);
            z % m
        };
        for _ in 0..200 {
            let mut q = EventQueue::new();
            for e in 0..rand(40) {
                q.schedule(SimTime::from_micros(rand(50)), e);
            }
            if rand(2) == 0 {
                q.take_before(SimTime::MAX);
            }
            let mut after = q.clone();
            after.pop();
            let second = q.second().map(|(rank, &e)| (rank.time(), e));
            assert_eq!(second, after.pop(), "{} entries", q.len());
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(30), "c");
        q.schedule(SimTime::from_micros(10), "a");
        q.schedule(SimTime::from_micros(20), "b");
        assert_eq!(q.pop(), Some((SimTime::from_micros(10), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_micros(20), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_micros(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_instant_is_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::ZERO, 1);
        q.schedule(SimTime::ZERO, 2);
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn schedule_batch_matches_individual_schedules() {
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        let events = [
            (SimTime::from_micros(30), "c"),
            (SimTime::from_micros(10), "a"),
            (SimTime::from_micros(10), "b"),
            (SimTime::from_micros(20), "x"),
        ];
        for &(t, e) in &events {
            a.schedule(t, e);
        }
        b.schedule_batch(events.iter().copied());
        for _ in 0..events.len() {
            assert_eq!(a.pop(), b.pop());
        }
        assert_eq!(a.pop(), None);
        assert_eq!(b.pop(), None);
    }

    #[test]
    fn interleaved_schedule_and_pop_keeps_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(1);
        q.schedule(t, 0);
        q.schedule(t, 1);
        assert_eq!(q.pop(), Some((t, 0)));
        q.schedule(t, 2);
        assert_eq!(q.pop(), Some((t, 1)));
        assert_eq!(q.pop(), Some((t, 2)));
    }

    #[test]
    fn cancelled_entry_is_skipped() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(10), "live");
        let tok = q.schedule_cancellable(SimTime::from_micros(20), "dead");
        q.schedule(SimTime::from_micros(30), "later");
        assert!(q.cancel(tok));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((SimTime::from_micros(10), "live")));
        assert_eq!(q.pop(), Some((SimTime::from_micros(30), "later")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancelling_head_updates_peek_time() {
        let mut q = EventQueue::new();
        let tok = q.schedule_cancellable(SimTime::from_micros(10), "head");
        q.schedule(SimTime::from_micros(40), "next");
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(10)));
        assert!(q.cancel(tok));
        // The dead head must not pin the head time at t=10.
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(40)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn double_cancel_is_noop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(5), "x");
        let tok = q.schedule_cancellable(SimTime::from_micros(20), "dead");
        assert!(q.cancel(tok));
        assert!(!q.cancel(tok));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn pop_before_respects_deadline_inclusively() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(10), "a");
        q.schedule(SimTime::from_micros(20), "b");
        q.schedule(SimTime::from_micros(30), "c");
        assert_eq!(
            q.take_before(SimTime::from_micros(20)),
            Some((SimTime::from_micros(10), "a"))
        );
        // Exactly at the deadline: delivered.
        assert_eq!(
            q.take_before(SimTime::from_micros(20)),
            Some((SimTime::from_micros(20), "b"))
        );
        // Strictly after: held back.
        assert_eq!(q.take_before(SimTime::from_micros(20)), None);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn lifo_reverses_same_instant_order() {
        let mut q = EventQueue::new();
        q.set_tiebreak(TieBreak::Lifo);
        let t = SimTime::from_micros(5);
        for i in 0..10 {
            q.schedule(t, i);
        }
        // Later time still pops later regardless of policy.
        q.schedule(SimTime::from_micros(6), 99);
        for i in (0..10).rev() {
            assert_eq!(q.pop(), Some((t, i)));
        }
        assert_eq!(q.pop(), Some((SimTime::from_micros(6), 99)));
    }

    #[test]
    fn shuffle_is_a_deterministic_permutation() {
        let drain = |seed: u64| {
            let mut q = EventQueue::new();
            q.set_tiebreak(TieBreak::SeededShuffle(seed));
            let t = SimTime::from_micros(5);
            for i in 0..32 {
                q.schedule(t, i);
            }
            let mut order = Vec::new();
            while let Some((_, i)) = q.pop() {
                order.push(i);
            }
            order
        };
        let a = drain(7);
        assert_eq!(a, drain(7), "same seed must replay the same permutation");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>(), "must be a permutation");
        assert_ne!(a, drain(8), "different seeds should permute differently");
        assert_ne!(a, (0..32).collect::<Vec<_>>(), "should not be identity");
    }

    #[test]
    fn class_order_beats_tiebreak_policy() {
        // Odd events are class 0, even events class 1: all odds pop first
        // at a shared instant, even under LIFO within each class.
        let mut q = EventQueue::new();
        q.set_classifier(|e: &i32| if e % 2 == 0 { 1 } else { 0 });
        q.set_tiebreak(TieBreak::Lifo);
        let t = SimTime::from_micros(5);
        for i in 0..6 {
            q.schedule(t, i);
        }
        let mut order = Vec::new();
        while let Some((_, i)) = q.pop() {
            order.push(i);
        }
        assert_eq!(order, vec![5, 3, 1, 4, 2, 0]);
    }

    #[test]
    fn tiebreak_parse_round_trips() {
        assert_eq!(TieBreak::parse("fifo"), Some(TieBreak::Fifo));
        assert_eq!(TieBreak::parse("lifo"), Some(TieBreak::Lifo));
        assert_eq!(TieBreak::parse("shuffle"), Some(TieBreak::SeededShuffle(1)));
        assert_eq!(
            TieBreak::parse("shuffle:42"),
            Some(TieBreak::SeededShuffle(42))
        );
        assert_eq!(TieBreak::parse("random"), None);
        assert_eq!(TieBreak::parse("shuffle:x"), None);
    }

    #[test]
    fn derive_mixes_scenario_seed_into_shuffle_only() {
        assert_eq!(TieBreak::Fifo.derive(9), TieBreak::Fifo);
        assert_eq!(TieBreak::Lifo.derive(9), TieBreak::Lifo);
        let a = TieBreak::SeededShuffle(1).derive(9);
        let b = TieBreak::SeededShuffle(1).derive(10);
        assert_ne!(a, b, "scenario seed must perturb the permutation");
        assert_eq!(a, TieBreak::SeededShuffle(1).derive(9), "derive is pure");
    }

    #[test]
    fn snapshot_round_trip_preserves_pop_order_and_seq_space() {
        use crate::snap::{SnapReader, SnapWriter};
        for tiebreak in [
            TieBreak::Fifo,
            TieBreak::Lifo,
            TieBreak::SeededShuffle(7),
        ] {
            let mut q = EventQueue::new();
            q.set_tiebreak(tiebreak);
            q.set_classifier(|e: &u64| u8::try_from(e % 3).unwrap());
            let t = SimTime::from_micros(5);
            for i in 0..20u64 {
                q.schedule(t, i);
            }
            let dead = q.schedule_cancellable(SimTime::from_micros(9), 99);
            q.schedule(SimTime::from_micros(12), 100);
            assert!(q.cancel(dead));
            // Pop a few so the heap layout diverges from insertion order.
            let mut popped = Vec::new();
            for _ in 0..5 {
                popped.push(q.pop().unwrap());
            }

            let mut w = SnapWriter::new();
            q.snap_state(&mut w);
            let bytes = w.finish();
            let mut restored: EventQueue<u64> = EventQueue::new();
            restored.set_classifier(|e: &u64| u8::try_from(e % 3).unwrap());
            restored
                .restore_state(&mut SnapReader::new(&bytes))
                .expect("restore");

            assert_eq!(restored.len(), q.len());
            assert_eq!(restored.tiebreak(), q.tiebreak());
            // Future scheduling lands in the same sequence space: schedule
            // one more same-instant event into both and drain.
            q.schedule(t, 7777);
            restored.schedule(t, 7777);
            let mut a = Vec::new();
            let mut b = Vec::new();
            while let Some(e) = q.pop() {
                a.push(e);
            }
            while let Some(e) = restored.pop() {
                b.push(e);
            }
            assert_eq!(a, b, "tiebreak {tiebreak:?} diverged after restore");
        }
    }

    /// Encodes a queue snapshot by hand: `(time, order, event)` entries
    /// written in the given order.
    fn encode_queue(tiebreak: TieBreak, next_seq: u64, entries: &[(u64, u64, u64)]) -> Vec<u8> {
        let mut w = SnapWriter::new();
        tiebreak.snap(&mut w);
        w.u64(next_seq);
        w.len_prefix(entries.len());
        for &(time, order, event) in entries {
            w.u64(time);
            w.u64(order);
            event.snap(&mut w);
        }
        w.finish()
    }

    #[test]
    fn snapshot_rejects_corrupt_entries() {
        let order = |class: u64, tb: TieBreak, seq: u64| class << TIE_BITS | tb.key(seq);
        let shuffle = TieBreak::SeededShuffle(7);
        let fifo = TieBreak::Fifo;
        // Events classify as `e % 3`.
        let restore = |bytes: &[u8]| {
            let mut q: EventQueue<u64> = EventQueue::new();
            q.set_classifier(|e: &u64| u8::try_from(e % 3).unwrap());
            q.restore_state(&mut SnapReader::new(bytes))
        };
        let valid = [
            (
                fifo,
                2,
                vec![(5, order(0, fifo, 1), 3), (6, order(1, fifo, 0), 4)],
            ),
            (
                shuffle,
                2,
                vec![(5, order(0, shuffle, 1), 3), (6, order(2, shuffle, 0), 5)],
            ),
        ];
        for (tb, next_seq, entries) in valid {
            let bytes = encode_queue(tb, next_seq, &entries);
            assert_eq!(restore(&bytes), Ok(()), "{tb:?} {entries:?}");
        }
        let corrupt = [
            ("future seq", fifo, 1, vec![(0, order(0, fifo, 5), 3)]),
            (
                "future seq, lifo",
                TieBreak::Lifo,
                1,
                vec![(0, order(0, TieBreak::Lifo, 1), 3)],
            ),
            (
                "future seq, shuffle",
                shuffle,
                1,
                vec![(0, order(0, shuffle, 5), 3)],
            ),
            (
                "unsorted ranks",
                fifo,
                2,
                vec![(6, order(0, fifo, 0), 3), (5, order(0, fifo, 1), 6)],
            ),
            (
                "duplicate ranks",
                fifo,
                1,
                vec![(5, order(0, fifo, 0), 3), (5, order(0, fifo, 0), 3)],
            ),
            (
                "class bits disagree",
                fifo,
                1,
                vec![(5, order(0, fifo, 0), 4)],
            ),
            ("next_seq beyond 56 bits", fifo, TIE_MASK + 2, vec![]),
        ];
        for (what, tb, next_seq, entries) in corrupt {
            let bytes = encode_queue(tb, next_seq, &entries);
            assert!(restore(&bytes).is_err(), "accepted: {what}");
        }
    }

    #[test]
    fn restore_reserves_no_more_than_the_input_can_hold() {
        // The second bomb's entries decode before it fails, seconds
        // apart.
        let far = [(0, 0, 3), (5_000_000, 1, 3), (60_000_000, 2, 3)];
        for entries in [&[][..], &far[..]] {
            let mut bytes = encode_queue(TieBreak::Fifo, 3, entries);
            // Overwrite the entry count with a length bomb; the padding
            // decodes as an entry from the future, which fails.
            let len_at = encode_queue(TieBreak::Fifo, 3, &[]).len() - 8;
            bytes[len_at..len_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            bytes.extend([0xff; 40]);
            let mut q: EventQueue<u64> = EventQueue::new();
            assert!(q.restore_state(&mut SnapReader::new(&bytes)).is_err());
            assert!(
                q.capacity() <= bytes.len() / MIN_ENTRY_BYTES,
                "reserved {} entries from {} bytes",
                q.capacity(),
                bytes.len()
            );
            assert!(q.is_empty(), "a rejected restore leaves the queue empty");
        }
    }

    #[test]
    fn a_far_bound_push_into_a_held_empty_heap_fills_the_hole() {
        let mut q = EventQueue::new();
        let at = SimTime::from_micros;
        q.schedule(at(0), 0);
        assert_eq!(q.take_before(SimTime::MAX), Some((at(0), 0)));
        assert!(q.held);
        assert_eq!((q.peek_time(), q.len()), (None, 0));
        // An entry far ahead fills the held root.
        q.schedule(at(30_000_000), 1);
        assert!(!q.held);
        assert_eq!(q.pop(), Some((at(30_000_000), 1)));
    }

    /// Under `FASTG_SANITIZE=1` the `cancel-token-generation` shadow check
    /// runs on every cancel: a live token whose entry is due far ahead
    /// must not read as stale.
    #[test]
    fn cancelling_a_far_entry_passes_the_token_check() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, 0);
        let far = q.schedule_cancellable(SimTime::from_secs(60), 1);
        let end = q.schedule_cancellable(SimTime::MAX, 2);
        assert!(q.cancel(far));
        assert!(!q.cancel(far), "a repeat cancel of a queued entry");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((SimTime::ZERO, 0)));
        // The dead entry was purged on its way to the head.
        assert_eq!(q.peek_time(), Some(SimTime::MAX));
        assert!(q.cancel(end));
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn tie_keys_are_a_56_bit_bijection() {
        assert_eq!(MIX_MUL1.wrapping_mul(MIX_INV1), 1);
        assert_eq!(MIX_MUL2.wrapping_mul(MIX_INV2), 1);
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut seqs = vec![0, 1, TIE_MASK];
        for _ in 0..1000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            seqs.push(x & TIE_MASK);
        }
        for tb in [
            TieBreak::Fifo,
            TieBreak::Lifo,
            TieBreak::SeededShuffle(7),
            TieBreak::SeededShuffle(u64::MAX),
        ] {
            for &s in &seqs {
                let k = tb.key(s);
                assert!(k <= TIE_MASK, "{tb:?}: key of {s} exceeds 56 bits");
                assert_eq!(tb.seq_of(k), s, "{tb:?}: seq_of does not invert key at {s}");
            }
        }
        assert_eq!(TieBreak::Fifo.key(42), 42);
        assert_eq!(TieBreak::Lifo.key(42), TIE_MASK - 42);
    }

    #[test]
    fn pop_before_skips_cancelled_head() {
        let mut q = EventQueue::new();
        let tok = q.schedule_cancellable(SimTime::from_micros(10), "dead");
        q.schedule(SimTime::from_micros(15), "live");
        q.cancel(tok);
        assert_eq!(
            q.take_before(SimTime::from_micros(20)),
            Some((SimTime::from_micros(15), "live"))
        );
    }
}

//! The FaST Backend: pod table, multi-token scheduler and SM Allocation
//! Adapter.

use super::policy::SharingPolicy;
use fastg_cluster::{PodId, ResourceSpec};
use fastg_des::snap::{Snap, SnapError, SnapReader, SnapWriter};
use fastg_des::{sanitizer, snap_struct, SimTime};

/// The SM Allocation Adapter's global limit (percent): lease holders'
/// shares never sum past it. The paper pins it at 100 %, because
/// over-allocating SMs causes interference.
pub const SM_GLOBAL_LIMIT: f64 = 100.0;

/// Backend configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackendConfig {
    /// Sharing policy this backend enforces.
    pub policy: SharingPolicy,
    /// The scheduling window over which quotas are accounted (paper
    /// example: 1 s, so `quota_limit = 0.8` means 800 ms of GPU time).
    pub window: SimTime,
    /// Token lease duration: how long a granted pod may keep launching
    /// bursts before it must re-request. Longer leases amortize token IPC
    /// but waste GPU during the holder's host gaps (the fundamental
    /// time-sharing inefficiency); shorter leases rotate access faster.
    pub token_lease: SimTime,
    /// Inert. Tokens are granted only by [`FastBackend::dispatch_pass`],
    /// whatever this holds; the field remains because the benchmark suite
    /// still sets it, and it is not snapshotted.
    pub deferred_dispatch: bool,
}

impl Default for BackendConfig {
    fn default() -> Self {
        BackendConfig {
            policy: SharingPolicy::FaST,
            window: SimTime::from_secs(1),
            token_lease: SimTime::from_millis(5),
            deferred_dispatch: false,
        }
    }
}

/// Errors from backend operations.
///
/// The hot-path operations ([`FastBackend::request`],
/// [`FastBackend::begin_burst`], [`FastBackend::sync_point`]) return this
/// instead of panicking so that racy teardown — a pod deregistered by a
/// crash while its hook still has a call in flight — degrades gracefully.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendError {
    /// The pod has no row in the backend table: never registered, or
    /// already deregistered (e.g. torn down by a crash).
    UnknownPod(PodId),
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::UnknownPod(p) => {
                write!(f, "pod {p:?} is not registered in the backend")
            }
        }
    }
}

impl std::error::Error for BackendError {}

/// A token grant: `pod` may launch bursts until `expires`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// The pod granted the token.
    pub pod: PodId,
    /// Lease expiry (absolute), enforced at the pod's next sync point or
    /// re-request.
    pub expires: SimTime,
}

/// Outcome of a token request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    /// The pod may launch now: its lease is still valid, or the policy
    /// uses no tokens.
    Granted(Grant),
    /// The pod is in the ready queue; a later
    /// [`FastBackend::dispatch_pass`] grants it.
    Queued,
    /// The pod exhausted `Q_limit` for this window; it will become ready
    /// again at the next window reset.
    BlockedUntilReset,
}

/// Public snapshot of one pod's quota accounting (the backend table row of
/// Figure 5b).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PodQuotaState {
    /// GPU time consumed in the current window.
    pub q_used: SimTime,
    /// Guaranteed GPU time per window (`quota_request × window`).
    pub q_request: SimTime,
    /// Maximum GPU time per window (`quota_limit × window`).
    pub q_limit: SimTime,
    /// SM partition percentage.
    pub sm_partition: f64,
    /// Whether the pod currently holds a token lease.
    pub holds_token: bool,
    /// Whether the pod waits in the ready queue for a token.
    pub waiting: bool,
}

#[derive(Debug, Clone)]
struct PodEntry {
    spec: ResourceSpec,
    q_used: SimTime,
    lease: Option<Lease>,
    waiting: bool,
    in_burst: bool,
    /// `quota_request × window`, derived from `spec` whenever it is set,
    /// so the token path compares integers only.
    q_request: SimTime,
    /// `quota_limit × window`, derived like `q_request`.
    q_limit: SimTime,
}

#[derive(Debug, Clone, Copy)]
struct Lease {
    expires: SimTime,
    /// Adapter share reserved at grant time. Releases subtract exactly
    /// this value, so a spec update while the lease is held can never
    /// corrupt the SM accounting.
    share: f64,
}

/// One row of the backend table: the pod and its quota accounting.
#[derive(Debug, Clone)]
struct Row {
    pod: PodId,
    entry: PodEntry,
}

/// The backend pod table, addressed by *slot*. The platform registers each
/// pod at the slot it holds in its node's pod slab, so the token path
/// indexes a row instead of searching for it. Callers that know only the
/// `PodId` (the public API) find its slot with a linear probe: a node
/// hosts a handful of pods. Freed slots are reused; vacant trailing slots
/// are trimmed, so the table stays proportional to the node's pods.
///
/// Three slot bitsets summarize the rows for the token path: bit `s` of
/// `waiting`, `grantable` and `holders` is set exactly when slot `s` holds
/// a row that waits, that [`PodEntry::grantable`] accepts, and that holds
/// a lease. Rows change only through [`Self::insert`], [`Self::remove`]
/// and [`Self::update`], and each of them refreshes the slot's bits, so
/// the invariant holds after every mutation. The bits are derived: they
/// are not encoded, and decode rebuilds them as it inserts the rows.
#[derive(Debug, Clone, Default)]
struct PodTable {
    rows: Vec<Option<Row>>,
    waiting: SlotBits,
    grantable: SlotBits,
    holders: SlotBits,
}

impl PodTable {
    /// The slot of `pod`'s row.
    fn slot_of(&self, pod: PodId) -> Option<usize> {
        self.rows
            .iter()
            .position(|r| r.as_ref().is_some_and(|r| r.pod == pod))
    }

    /// The lowest vacant slot.
    fn free_slot(&self) -> usize {
        self.rows
            .iter()
            .position(Option::is_none)
            .unwrap_or(self.rows.len())
    }

    fn row(&self, slot: usize) -> Option<&Row> {
        self.rows.get(slot)?.as_ref()
    }

    fn get(&self, slot: usize) -> Option<&PodEntry> {
        self.row(slot).map(|r| &r.entry)
    }

    /// Fills a vacant slot; returns `false` (keeping the table as it was)
    /// if the slot is taken or the pod already has a row.
    fn insert(&mut self, slot: usize, pod: PodId, entry: PodEntry) -> bool {
        if self.get(slot).is_some() || self.slot_of(pod).is_some() {
            return false;
        }
        if slot >= self.rows.len() {
            self.rows.resize_with(slot + 1, || None);
        }
        self.rows[slot] = Some(Row { pod, entry });
        self.refresh(slot);
        true
    }

    fn remove(&mut self, slot: usize) -> Option<PodEntry> {
        let row = self.rows.get_mut(slot)?.take()?;
        while self.rows.last().is_some_and(Option::is_none) {
            self.rows.pop();
        }
        self.refresh(slot);
        Some(row.entry)
    }

    /// Applies `f` to the row at `slot` and refreshes the slot's bits;
    /// `None` if the slot is vacant.
    fn update<R>(&mut self, slot: usize, f: impl FnOnce(&mut PodEntry) -> R) -> Option<R> {
        let e = &mut self.rows.get_mut(slot)?.as_mut()?.entry;
        let out = f(e);
        let bits = e.bits();
        self.set_bits(slot, bits);
        Some(out)
    }

    /// [`Self::update`] on every row.
    fn update_all(&mut self, mut f: impl FnMut(&mut PodEntry)) {
        for slot in 0..self.rows.len() {
            self.update(slot, &mut f);
        }
    }

    /// Sets the slot's bits from its row (all clear if it is vacant).
    fn refresh(&mut self, slot: usize) {
        let bits = self.get(slot).map_or((false, false, false), PodEntry::bits);
        self.set_bits(slot, bits);
    }

    /// Sets the slot's `(waiting, grantable, holders)` bits.
    fn set_bits(&mut self, slot: usize, (waiting, grantable, holds): (bool, bool, bool)) {
        self.waiting.assign(slot, waiting);
        self.grantable.assign(slot, grantable);
        self.holders.assign(slot, holds);
    }

    /// Occupied rows' entries, in slot order: the sanitizer's oracle.
    #[cfg(debug_assertions)]
    fn values(&self) -> impl Iterator<Item = &PodEntry> {
        self.rows.iter().flatten().map(|r| &r.entry)
    }
}

/// A set of table slots, one bit per slot. Slots 0–63 live in the inline
/// word `first`, so a table of up to 64 slots never touches the heap;
/// later slots spill into `rest`, 64 per word, under the same operations.
/// `rest` never ends in a zero word, so emptiness is a test of `first`
/// and of `rest`'s length.
#[derive(Debug, Clone, Default)]
struct SlotBits {
    first: u64,
    rest: Vec<u64>,
}

impl SlotBits {
    /// Sets (`on`) or clears slot `slot`.
    #[inline]
    fn assign(&mut self, slot: usize, on: bool) {
        if slot < 64 {
            self.first = self.first & !(1 << slot) | u64::from(on) << slot;
        } else {
            self.assign_spilled(slot, on);
        }
    }

    #[cold]
    fn assign_spilled(&mut self, slot: usize, on: bool) {
        let (w, bit) = (slot / 64 - 1, 1u64 << (slot % 64));
        if on {
            if self.rest.len() <= w {
                self.rest.resize(w + 1, 0);
            }
            self.rest[w] |= bit;
        } else if let Some(word) = self.rest.get_mut(w) {
            *word &= !bit;
            while self.rest.last() == Some(&0) {
                self.rest.pop();
            }
        }
    }

    /// Whether any slot is set.
    fn any(&self) -> bool {
        self.first != 0 || !self.rest.is_empty()
    }

    /// How many slots are set.
    fn count(&self) -> usize {
        let set: u32 = std::iter::once(&self.first)
            .chain(&self.rest)
            .map(|w| w.count_ones())
            .sum();
        usize::try_from(set).unwrap_or(usize::MAX)
    }

    /// The set slots, ascending.
    fn iter(&self) -> SetSlots<'_> {
        SetSlots {
            word: self.first,
            base: 0,
            rest: self.rest.iter(),
        }
    }
}

/// [`SlotBits::iter`]: the current word's remaining bits, then the later
/// words'.
struct SetSlots<'a> {
    word: u64,
    base: usize,
    rest: std::slice::Iter<'a, u64>,
}

impl Iterator for SetSlots<'_> {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            self.word = *self.rest.next()?;
            self.base += 64;
        }
        // A nonzero word's lowest set bit is below 64.
        let bit = usize::try_from(self.word.trailing_zeros()).unwrap_or(63);
        self.word &= self.word - 1;
        Some(self.base + bit)
    }
}

impl PodEntry {
    /// Installs `spec` and derives the window's quota times from it.
    fn set_spec(&mut self, spec: ResourceSpec, window: SimTime) {
        self.spec = spec;
        self.q_request = window.scale(spec.quota_request);
        self.q_limit = window.scale(spec.quota_limit);
    }
    /// `Q_miss = Q_request − Q_used`, in signed microseconds.
    fn q_miss(&self) -> i128 {
        i128::from(self.q_request.as_micros()) - i128::from(self.q_used.as_micros())
    }
    fn quota_exhausted(&self) -> bool {
        self.q_used >= self.q_limit
    }
    /// Whether the row's lease lets it launch at `now`: a token request is
    /// granted on it, and a sync point keeps it. Expiry is enforced only
    /// here, at the pod's own requests and sync points: a real time-slice
    /// holder is not preempted during its sub-millisecond host gaps,
    /// which is precisely why time sharing wastes the GPU on them.
    fn lease_valid(&self, now: SimTime) -> bool {
        self.lease.is_some_and(|l| now < l.expires) && !self.quota_exhausted()
    }
    /// Takes a fresh lease until `expires`, reserving `share`: the pod
    /// stops waiting.
    fn take_lease(&mut self, expires: SimTime, share: f64) {
        self.waiting = false;
        self.lease = Some(Lease { expires, share });
    }
    /// Whether a dispatch pass may grant this row: it waits, holds no
    /// lease and has quota left.
    fn grantable(&self) -> bool {
        self.waiting && self.lease.is_none() && !self.quota_exhausted()
    }
    /// The row's `(waiting, grantable, holders)` slot bits.
    fn bits(&self) -> (bool, bool, bool) {
        (self.waiting, self.grantable(), self.lease.is_some())
    }
}

/// The FaST Backend for one GPU node.
///
/// A complete token round-trip, as the CUDA hook library and the node's
/// end-of-instant dispatch pass drive it:
///
/// ```
/// use fastgshare::manager::{BackendConfig, FastBackend, RequestOutcome};
/// use fastg_cluster::{PodId, ResourceSpec};
/// use fastg_des::SimTime;
///
/// let mut backend = FastBackend::new(BackendConfig::default());
/// backend.register(PodId(0), ResourceSpec::new(24.0, 0.3, 0.8, 0));
///
/// // The hook intercepts the first kernel launch and asks for a token;
/// // the pod waits in the ready queue until the dispatch pass grants it.
/// let (outcome, _) = backend.request(SimTime::ZERO, PodId(0)).unwrap();
/// assert_eq!(outcome, RequestOutcome::Queued);
/// let grants = backend.dispatch_pass(SimTime::ZERO);
/// assert_eq!(grants[0].pod, PodId(0));
///
/// // Kernels run; the sync point reports 2 ms of GPU time.
/// backend.begin_burst(PodId(0)).unwrap();
/// let lease_valid = backend
///     .sync_point(SimTime::from_millis(2), PodId(0), SimTime::from_millis(2))
///     .unwrap();
/// assert!(lease_valid); // within lease and quota
/// assert_eq!(
///     backend.quota_state(PodId(0)).unwrap().q_used,
///     SimTime::from_millis(2)
/// );
/// ```
#[derive(Debug, Clone)]
pub struct FastBackend {
    cfg: BackendConfig,
    pods: PodTable,
    /// Sum of adapter shares of current lease holders.
    sm_running: f64,
    tokens_dispatched: u64,
    /// [`Self::dispatch_pass`]'s ready list, reused across passes: a
    /// recycling buffer with no content between passes, so it is not
    /// snapshotted.
    ready: Vec<Ready>,
    /// The last dispatch pass's grants, reused across passes like `ready`.
    grants: Vec<Grant>,
}

/// A dispatch pass's ready-list entry: `(Q_miss, pod, slot)`.
pub(crate) type Ready = (i128, PodId, usize);

impl FastBackend {
    /// Creates a backend.
    pub fn new(cfg: BackendConfig) -> Self {
        debug_assert!(cfg.window > SimTime::ZERO, "zero scheduling window");
        debug_assert!(cfg.token_lease > SimTime::ZERO, "zero token lease");
        let mut cfg = cfg;
        cfg.window = cfg.window.max(SimTime::from_micros(1));
        cfg.token_lease = cfg.token_lease.max(SimTime::from_micros(1));
        FastBackend {
            cfg,
            pods: PodTable::default(),
            sm_running: 0.0,
            tokens_dispatched: 0,
            ready: Vec::new(),
            grants: Vec::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &BackendConfig {
        &self.cfg
    }

    /// Registers a pod's resource configuration in the backend table (the
    /// FaSTPod controller does this when the pod starts).
    pub fn register(&mut self, pod: PodId, spec: ResourceSpec) {
        let slot = self.pods.free_slot();
        self.register_at(slot, pod, spec);
    }

    /// [`Self::register`] at a chosen vacant slot: the platform uses the
    /// slot the pod holds in its node's pod slab, so every slot-addressed
    /// call below names the same pod there and here.
    pub(crate) fn register_at(&mut self, slot: usize, pod: PodId, spec: ResourceSpec) {
        spec.validate();
        let mut entry = PodEntry {
            spec,
            q_used: SimTime::ZERO,
            lease: None,
            waiting: false,
            in_burst: false,
            q_request: SimTime::ZERO,
            q_limit: SimTime::ZERO,
        };
        entry.set_spec(spec, self.cfg.window);
        let fresh = self.pods.insert(slot, pod, entry);
        debug_assert!(fresh, "pod {pod:?} registered twice");
    }

    /// Updates a pod's resource configuration (FaSTPod spec sync). Takes
    /// effect from the next grant; a held lease keeps its original share
    /// until released.
    pub fn update_spec(&mut self, pod: PodId, spec: ResourceSpec) {
        spec.validate();
        let window = self.cfg.window;
        if let Some(slot) = self.pods.slot_of(pod) {
            // Safe even while the pod holds a token: the lease carries
            // the share it reserved, so accounting stays exact; the new
            // partition/quota apply from the next grant and the current
            // window's Q_used carries over.
            self.pods.update(slot, |e| e.set_spec(spec, window));
        }
    }

    /// Removes a pod, freeing its SM reservation for the next dispatch
    /// pass.
    ///
    /// Deregistering a pod mid-burst is a platform bug (the caller drains
    /// first); debug builds assert, release builds fall through to the
    /// forced path, which reconciles the accounting either way.
    pub fn deregister(&mut self, pod: PodId) {
        if let Some(e) = self.pods.slot_of(pod).and_then(|s| self.pods.get(s)) {
            debug_assert!(!e.in_burst, "deregistering {pod:?} mid-burst");
        }
        self.force_deregister(pod);
    }

    /// Removes a pod unconditionally — the failure-injection path: a
    /// crashed pod's kernels may still be draining on the GPU, but its
    /// table row, queue slot and SM reservation go away immediately.
    pub fn force_deregister(&mut self, pod: PodId) {
        let row = self.pods.slot_of(pod).and_then(|s| self.pods.remove(s));
        if let Some(lease) = row.and_then(|e| e.lease) {
            self.release_share(lease);
        }
    }

    /// A pod's hook asks for a token so it can launch its next burst.
    ///
    /// Returns `Granted` for a still-valid lease (or unconditionally under
    /// a policy without tokens). Otherwise the pod joins the ready queue,
    /// releasing any stale lease, and a later [`Self::dispatch_pass`]
    /// grants it. The second element is always empty, because no request
    /// grants another pod a token; it remains because the benchmark suite
    /// still destructures it.
    ///
    /// # Errors
    /// [`BackendError::UnknownPod`] if the pod is not registered.
    pub fn request(
        &mut self,
        now: SimTime,
        pod: PodId,
    ) -> Result<(RequestOutcome, Vec<Grant>), BackendError> {
        let slot = self.slot(pod)?;
        let outcome = self.request_at(now, slot).ok_or(BackendError::UnknownPod(pod))?;
        Ok((outcome, Vec::new()))
    }

    /// [`Self::request`] for the pod at `slot`; `None` if the slot is
    /// vacant.
    pub(crate) fn request_at(&mut self, now: SimTime, slot: usize) -> Option<RequestOutcome> {
        let row = self.pods.row(slot)?;
        let (pod, e) = (row.pod, &row.entry);
        if !self.cfg.policy.uses_tokens() {
            // Racing / exclusive: permission is unconditional.
            let grant = Grant {
                pod,
                expires: SimTime::MAX,
            };
            return Some(RequestOutcome::Granted(grant));
        }
        if let Some(lease) = e.lease.filter(|_| e.lease_valid(now)) {
            let grant = Grant {
                pod,
                expires: lease.expires,
            };
            return Some(RequestOutcome::Granted(grant));
        }
        let (outcome, stale) = self.pods.update(slot, |e| {
            e.waiting = true;
            let outcome = if e.quota_exhausted() {
                RequestOutcome::BlockedUntilReset
            } else {
                RequestOutcome::Queued
            };
            (outcome, e.lease.take())
        })?;
        // Any stale lease is released before queueing.
        if let Some(lease) = stale {
            self.release_share(lease);
        }
        Some(outcome)
    }

    /// Marks the pod as executing a burst (launched kernels, sync pending).
    /// A pod mid-burst never loses its SM reservation.
    ///
    /// # Errors
    /// [`BackendError::UnknownPod`] if the pod is not registered.
    pub fn begin_burst(&mut self, pod: PodId) -> Result<(), BackendError> {
        let slot = self.slot(pod)?;
        self.begin_burst_at(slot).ok_or(BackendError::UnknownPod(pod))
    }

    /// [`Self::begin_burst`] for the pod at `slot`; `None` if the slot is
    /// vacant.
    pub(crate) fn begin_burst_at(&mut self, slot: usize) -> Option<()> {
        self.pods.update(slot, |e| {
            debug_assert!(!e.in_burst, "nested burst at slot {slot}");
            e.in_burst = true;
        })
    }

    /// The pod's burst synchronized: charge `gpu_time` against its quota
    /// (the CUDA-event usage monitor) and decide whether its lease
    /// survives. Returns whether it did: the pod may launch its next
    /// burst without a new request.
    ///
    /// # Errors
    /// [`BackendError::UnknownPod`] if the pod is not registered (e.g. it
    /// was force-deregistered by a crash while the burst was in flight).
    pub fn sync_point(
        &mut self,
        now: SimTime,
        pod: PodId,
        gpu_time: SimTime,
    ) -> Result<bool, BackendError> {
        let slot = self.slot(pod)?;
        self.sync_point_at(now, slot, gpu_time)
            .ok_or(BackendError::UnknownPod(pod))
    }

    /// [`Self::sync_point`] for the pod at `slot`; `None` if the slot is
    /// vacant.
    pub(crate) fn sync_point_at(
        &mut self,
        now: SimTime,
        slot: usize,
        gpu_time: SimTime,
    ) -> Option<bool> {
        let uses_tokens = self.cfg.policy.uses_tokens();
        let (valid, stale) = self.pods.update(slot, |e| {
            debug_assert!(e.in_burst, "sync without burst at slot {slot}");
            e.in_burst = false;
            e.q_used += gpu_time;
            if !uses_tokens {
                return (true, None);
            }
            let valid = e.lease_valid(now);
            (valid, if valid { None } else { e.lease.take() })
        })?;
        if let Some(lease) = stale {
            self.release_share(lease);
        }
        Some(valid)
    }

    /// The pod went idle (no queued request): release its lease so other
    /// pods can use the capacity.
    pub fn release_idle(&mut self, pod: PodId) {
        if let Some(slot) = self.pods.slot_of(pod) {
            self.release_idle_at(slot);
        }
    }

    /// [`Self::release_idle`] for the pod at `slot` (a vacant slot is a
    /// no-op).
    pub(crate) fn release_idle_at(&mut self, slot: usize) {
        let stale = self.pods.update(slot, |e| {
            e.waiting = false;
            e.lease.take()
        });
        if let Some(lease) = stale.flatten() {
            self.release_share(lease);
        }
    }

    /// Window boundary: every pod's `Q_used` resets, so quota-blocked
    /// waiters become grantable again (Figure 5b's `F_3` re-entering the
    /// queue) at the next dispatch pass. `_now` is unused; the benchmark
    /// suite still passes it.
    pub fn on_window_reset(&mut self, _now: SimTime) {
        self.pods.update_all(|e| e.q_used = SimTime::ZERO);
    }

    /// The multi-token dispatch pass, and the only place tokens are
    /// granted: filtering → priority queue → SM Allocation Adapter. The
    /// platform owes a node a pass at an instant where something may have
    /// changed who should hold a token while the node has a waiter, and
    /// runs it at the end of that instant only if some waiter is
    /// grantable ([`Self::has_grantable`]). Grants thereby depend only on
    /// the set of same-instant requests, never on the order they were
    /// delivered in. Returns the pass's grants.
    pub fn dispatch_pass(&mut self, now: SimTime) -> &[Grant] {
        let mut ready = std::mem::take(&mut self.ready);
        let mut grants = std::mem::take(&mut self.grants);
        grants.clear();
        self.dispatch_into(now, &mut ready, |pod, _, expires| grants.push(Grant { pod, expires }));
        self.ready = ready;
        self.grants = grants;
        &self.grants
    }

    /// [`Self::dispatch_pass`], appending the slots of the granted pods
    /// (in grant order) to `granted`. The caller lends the ready list, so
    /// a platform's passes over many nodes share one warm buffer.
    pub(crate) fn dispatch_slots(
        &mut self,
        now: SimTime,
        ready: &mut Vec<Ready>,
        granted: &mut Vec<usize>,
    ) {
        self.dispatch_into(now, ready, |_, slot, _| granted.push(slot));
    }

    /// The pass itself: reports each grant as `(pod, slot, expires)`.
    fn dispatch_into(
        &mut self,
        now: SimTime,
        ready: &mut Vec<Ready>,
        mut grant: impl FnMut(PodId, usize, SimTime),
    ) {
        if !self.cfg.policy.uses_tokens() {
            return;
        }
        // Filtering: waiting pods that still have quota this window, read
        // off the grantable bits.
        ready.clear();
        let pods = &self.pods;
        ready.extend(pods.grantable.iter().filter_map(|slot| {
            let row = pods.row(slot)?;
            Some((row.entry.q_miss(), row.pod, slot))
        }));
        // Priority: descending Q_miss (largest timing gap first, the
        // paper's rule); PodId breaks remaining ties deterministically.
        ready.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));

        for &(_miss, pod, slot) in ready.iter() {
            // The ready list was read from the table above, so the row
            // exists — but stay panic-free and skip if it is gone.
            let Some(e) = self.pods.get(slot) else {
                continue;
            };
            let share = self.cfg.policy.adapter_share(e.spec.sm_partition);
            // SM Allocation Adapter: stop at the first head pod that does
            // not fit (head-of-line, as in the paper).
            let fits = self.sm_running + share <= SM_GLOBAL_LIMIT + 1e-9;
            if !fits {
                break;
            }
            // A lease past the end of the clock lasts to its end.
            let expires = now.checked_add(self.cfg.token_lease).unwrap_or(SimTime::MAX);
            self.pods.update(slot, |e| e.take_lease(expires, share));
            self.sm_running += share;
            self.tokens_dispatched += 1;
            grant(pod, slot, expires);
        }
        debug_assert!(self.sm_running <= SM_GLOBAL_LIMIT + 1e-6);
    }

    /// Snapshot of one pod's quota row.
    // fastg-lint: allow(no-test-only-pub) — the only oracle of the backend property tests' scan model
    pub fn quota_state(&self, pod: PodId) -> Option<PodQuotaState> {
        let e = self.pods.get(self.pods.slot_of(pod)?)?;
        Some(PodQuotaState {
            q_used: e.q_used,
            q_request: e.q_request,
            q_limit: e.q_limit,
            sm_partition: e.spec.sm_partition,
            holds_token: e.lease.is_some(),
            waiting: e.waiting,
        })
    }

    /// Sum of lease holders' adapter shares (≤ [`SM_GLOBAL_LIMIT`]).
    pub fn sm_running(&self) -> f64 {
        self.sm_running
    }

    /// Number of pods currently holding a lease.
    pub fn holders(&self) -> usize {
        self.pods.holders.count()
    }

    /// Number of pods waiting in the ready queue.
    pub fn waiting(&self) -> usize {
        self.pods.waiting.count()
    }

    /// Whether any pod waits in the ready queue. A dispatch pass grants
    /// only waiting pods, so without one it is a no-op.
    pub fn has_waiter(&self) -> bool {
        let any = self.pods.waiting.any();
        if sanitizer::active() {
            self.sanitize_summary("has_waiter", any, |e| e.waiting);
        }
        any
    }

    /// Whether a dispatch pass could grant anyone: some pod waits without
    /// a lease and with quota left this window. A waiter blocked by its
    /// quota becomes grantable only at a window reset, so a pass while
    /// every waiter is quota-blocked grants nothing.
    pub fn has_grantable(&self) -> bool {
        let any = self.pods.grantable.any();
        if sanitizer::active() {
            self.sanitize_summary("has_grantable", any, PodEntry::grantable);
        }
        any
    }

    /// Shadow-check (`FASTG_SANITIZE=1`, rule `admission-summary`): a
    /// summary's answer equals the row scan it replaces.
    #[cfg(debug_assertions)]
    fn sanitize_summary(&self, call: &str, answer: bool, by_row: fn(&PodEntry) -> bool) {
        let scan = self.pods.values().any(by_row);
        sanitizer::check(answer == scan, "admission-summary", || {
            format!("backend {call} answered {answer}, the row scan {scan}")
        });
    }

    /// Release builds compile the summary shadow-check out.
    #[cfg(not(debug_assertions))]
    #[inline(always)]
    fn sanitize_summary(&self, _call: &str, _answer: bool, _by_row: fn(&PodEntry) -> bool) {}

    /// Total tokens dispatched since creation.
    pub fn tokens_dispatched(&self) -> u64 {
        self.tokens_dispatched
    }

    /// Returns a released lease's reserved share to the adapter budget.
    fn release_share(&mut self, lease: Lease) {
        self.sm_running = (self.sm_running - lease.share).max(0.0);
    }

    /// The slot of a registered pod's row.
    fn slot(&self, pod: PodId) -> Result<usize, BackendError> {
        self.pods.slot_of(pod).ok_or(BackendError::UnknownPod(pod))
    }

    /// The catalogue's "backend row slot" rule: each row sits at the slot
    /// `pod_at` names its pod at (a crashed pod keeps a slot, not a row).
    pub(crate) fn check_rows(&self, pod_at: impl Fn(usize) -> Option<PodId>) -> Result<(), SnapError> {
        let placed = self.pods.rows.iter().enumerate().all(|(s, r)| r.as_ref().map_or(true, |r| pod_at(s) == Some(r.pod)));
        SnapError::ensure(placed, "backend row slot")
    }

    /// The backend's own rule of the catalogue: the adapter's running sum
    /// is the held leases' shares, within 1e-6, and at most
    /// [`SM_GLOBAL_LIMIT`].
    pub(crate) fn check_sm_running(&self) -> Result<(), SnapError> {
        let leased: f64 = self.pods.rows.iter().flatten().filter_map(|r| r.entry.lease).map(|l| l.share).sum();
        let held = (self.sm_running - leased).abs() <= 1e-6 && self.sm_running <= SM_GLOBAL_LIMIT + 1e-6;
        SnapError::ensure(held, "backend sm running")
    }

    /// Moves every row to the slot `slot_of` names for its pod: the
    /// platform's decode places each restored row at the slot its pod
    /// holds in the node's pod slab. A row whose pod has no free slot
    /// there takes a vacant one, where the catalogue's "backend row slot"
    /// rule refuses it.
    pub(crate) fn place_rows(&mut self, mut slot_of: impl FnMut(PodId) -> Option<usize>) {
        let table = std::mem::take(&mut self.pods);
        for row in table.rows.into_iter().flatten() {
            let slot = slot_of(row.pod).filter(|&s| self.pods.get(s).is_none());
            // Decode's row order check keeps each pod to one row.
            self.pods.insert(slot.unwrap_or_else(|| self.pods.free_slot()), row.pod, row.entry);
        }
    }
}

// `deferred_dispatch` is inert, so it is not on the wire.
snap_struct!(BackendConfig {
    policy, window, token_lease,
} skip { deferred_dispatch } check |cfg| {
    SnapError::ensure(cfg.window > SimTime::ZERO && cfg.token_lease > SimTime::ZERO, "backend config bounds")
});

snap_struct!(Lease { expires, share });

// The quota times are derived from the spec and the backend's window,
// which the backend's own decode supplies.
snap_struct!(PodEntry {
    spec,
    q_used,
    lease,
    waiting,
    in_burst
} skip { q_request, q_limit });

/// The table goes on the wire as its rows sorted by `PodId`, whatever
/// their slots; decode lays them out in that order, and the platform then
/// moves them to its own slots ([`FastBackend::place_rows`]).
impl Snap for PodTable {
    fn snap(&self, w: &mut SnapWriter) {
        // The slot bits are derived from the rows.
        let Self {
            rows,
            waiting: _,
            grantable: _,
            holders: _,
        } = self;
        let mut sorted: Vec<(PodId, &PodEntry)> =
            rows.iter().flatten().map(|r| (r.pod, &r.entry)).collect();
        sorted.sort_unstable_by_key(|&(pod, _)| pod);
        w.len_prefix(sorted.len());
        for (pod, entry) in sorted {
            pod.snap(w);
            entry.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let rows: Vec<(PodId, PodEntry)> = Vec::unsnap(r)?;
        SnapError::ensure(rows.windows(2).all(|pair| pair[0].0 < pair[1].0), "backend row order")?;
        let mut table = PodTable::default();
        for (slot, (pod, entry)) in rows.into_iter().enumerate() {
            table.insert(slot, pod, entry);
        }
        Ok(table)
    }
}

// The ready and grant lists are dispatch scratch space.
snap_struct!(FastBackend {
    cfg, pods, sm_running, tokens_dispatched,
} skip { ready, grants } rebuild |b| {
    let window = b.cfg.window;
    b.pods.update_all(|e| e.set_spec(e.spec, window));
    Ok(())
} check |b| {
    b.check_sm_running()
});

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000;

    fn fast_backend(lease_ms: u64) -> FastBackend {
        FastBackend::new(BackendConfig {
            policy: SharingPolicy::FaST,
            window: SimTime::from_secs(1),
            token_lease: SimTime::from_millis(lease_ms),
            ..BackendConfig::default()
        })
    }

    fn spec(sm: f64, req: f64, lim: f64) -> ResourceSpec {
        ResourceSpec::new(sm, req, lim, 0)
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_micros(ms * MS)
    }

    /// A field edit a forged snapshot could make, for the platform's
    /// catalogue tests.
    impl FastBackend {
        pub(crate) fn forge_sm_running(&mut self, sum: f64) {
            self.sm_running = sum;
        }
    }

    fn round_trip(b: &FastBackend) -> Result<FastBackend, SnapError> {
        let mut w = SnapWriter::new();
        b.snap(&mut w);
        FastBackend::unsnap(&mut SnapReader::new(&w.finish()))
    }

    /// The adapter's running sum is the held leases' shares. Two 60 %
    /// pods: one holds a lease and the other waits, since 120 % does not
    /// fit. Forged to 0, the sum would let the next pass grant the waiter
    /// too; decoded or checked live, it is refused, as are sums that are
    /// not numbers or pass the limit.
    #[test]
    fn a_forged_adapter_sum_is_refused() {
        let mut b = fast_backend(5);
        for pod in [PodId(0), PodId(1)] {
            b.register(pod, spec(60.0, 0.5, 1.0));
            req(&mut b, t(0), pod);
        }
        assert_eq!((b.holders(), b.waiting(), b.sm_running()), (1, 1, 60.0));
        assert_eq!(round_trip(&b).map(|b| b.sm_running()), Ok(60.0));
        for forged in [0.0, 59.9, 120.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut bad = b.clone();
            bad.forge_sm_running(forged);
            let refused = Err(SnapError::new("backend sm running"));
            assert_eq!(bad.check_sm_running(), refused, "{forged}");
            assert_eq!(round_trip(&bad).map(|_| ()), refused, "{forged}");
        }
    }

    /// Requests a token, then runs the dispatch pass the engine would run
    /// at the end of the instant. Returns the requester's outcome: a
    /// queued pod that the pass admits reads as `Granted`. Asserts that
    /// neither the request nor the pass grants anyone else — every call
    /// site here expects that.
    fn req(b: &mut FastBackend, now: SimTime, pod: PodId) -> RequestOutcome {
        let (outcome, side) = b.request(now, pod).unwrap();
        assert!(side.is_empty(), "unexpected side grants: {side:?}");
        let grants = b.dispatch_pass(now);
        assert!(
            grants.iter().all(|g| g.pod == pod),
            "unexpected grants: {grants:?}"
        );
        match grants.first() {
            Some(&g) => RequestOutcome::Granted(g),
            None => outcome,
        }
    }

    /// The pods one dispatch pass grants.
    fn pass(b: &mut FastBackend, now: SimTime) -> Vec<PodId> {
        b.dispatch_pass(now).iter().map(|g| g.pod).collect()
    }

    /// A lease longer than the clock has left lasts to the clock's end
    /// instead of overflowing it.
    #[test]
    fn a_lease_past_the_end_of_the_clock_saturates() {
        let mut b = FastBackend::new(BackendConfig {
            token_lease: SimTime::MAX,
            ..BackendConfig::default()
        });
        b.register(PodId(0), spec(24.0, 1.0, 1.0));
        let RequestOutcome::Granted(g) = req(&mut b, t(3), PodId(0)) else {
            panic!()
        };
        assert_eq!(g.expires, SimTime::MAX);
        b.begin_burst(PodId(0)).unwrap();
        assert!(b.sync_point(t(5), PodId(0), t(2)).unwrap(), "the lease holds");
    }

    #[test]
    fn grant_within_sm_budget() {
        let mut b = fast_backend(5);
        for i in 0..4 {
            b.register(PodId(i), spec(24.0, 1.0, 1.0));
        }
        // 4 × 24 = 96 ≤ 100: everyone granted by the first pass.
        for i in 0..4 {
            assert_eq!(
                b.request(SimTime::ZERO, PodId(i)).unwrap().0,
                RequestOutcome::Queued
            );
        }
        assert_eq!(
            pass(&mut b, SimTime::ZERO),
            (0..4).map(PodId).collect::<Vec<_>>()
        );
        assert_eq!(b.holders(), 4);
        assert!((b.sm_running() - 96.0).abs() < 1e-9);
    }

    #[test]
    fn sm_adapter_blocks_over_allocation() {
        let mut b = fast_backend(5);
        for i in 0..5 {
            b.register(PodId(i), spec(24.0, 1.0, 1.0));
        }
        for i in 0..4 {
            assert!(matches!(
                req(&mut b, SimTime::ZERO, PodId(i)),
                RequestOutcome::Granted(_)
            ));
        }
        // Fifth pod: 96 + 24 > 100 → stays queued.
        assert_eq!(req(&mut b, SimTime::ZERO, PodId(4)), RequestOutcome::Queued);
        assert_eq!(b.waiting(), 1);
        // One holder goes idle → the next pass grants the fifth.
        b.release_idle(PodId(0));
        assert_eq!(pass(&mut b, t(1)), vec![PodId(4)]);
    }

    #[test]
    fn quota_exhaustion_blocks_until_reset() {
        let mut b = fast_backend(5);
        b.register(PodId(0), spec(24.0, 0.3, 0.3));
        let RequestOutcome::Granted(_) = req(&mut b, SimTime::ZERO, PodId(0)) else {
            panic!()
        };
        b.begin_burst(PodId(0)).unwrap();
        // Burn the whole 300ms quota in one burst.
        assert!(!b.sync_point(t(300), PodId(0), t(300)).unwrap());
        assert_eq!(
            req(&mut b, t(300), PodId(0)),
            RequestOutcome::BlockedUntilReset
        );
        // Window reset re-admits it.
        b.on_window_reset(t(1000));
        assert_eq!(b.quota_state(PodId(0)).unwrap().q_used, SimTime::ZERO);
        assert_eq!(pass(&mut b, t(1000)), vec![PodId(0)]);
    }

    #[test]
    fn q_miss_priority_orders_dispatch() {
        let mut b = fast_backend(5);
        // One holder plus two waiters that each need the whole remaining
        // adapter budget.
        b.register(PodId(0), spec(60.0, 0.5, 1.0));
        b.register(PodId(1), spec(60.0, 0.2, 1.0)); // Q_miss = 200ms
        b.register(PodId(2), spec(60.0, 0.8, 1.0)); // Q_miss = 800ms
        assert!(matches!(
            req(&mut b, SimTime::ZERO, PodId(0)),
            RequestOutcome::Granted(_)
        ));
        // Pod 1 requests before pod 2 and has the lower id — but pod 2's
        // larger timing gap must win the next token.
        assert_eq!(req(&mut b, SimTime::ZERO, PodId(1)), RequestOutcome::Queued);
        assert_eq!(req(&mut b, SimTime::ZERO, PodId(2)), RequestOutcome::Queued);
        b.release_idle(PodId(0));
        assert_eq!(pass(&mut b, t(1)), vec![PodId(2)]);
        assert_eq!(b.waiting(), 1); // pod 1 still queued behind
    }

    #[test]
    fn lease_survives_within_duration_and_quota() {
        let mut b = fast_backend(10);
        b.register(PodId(0), spec(24.0, 1.0, 1.0));
        let RequestOutcome::Granted(g) = req(&mut b, SimTime::ZERO, PodId(0)) else {
            panic!()
        };
        b.begin_burst(PodId(0)).unwrap();
        assert!(b.sync_point(t(2), PodId(0), t(2)).unwrap());
        // Re-request within lease: the same lease, no new dispatch.
        let RequestOutcome::Granted(g2) = req(&mut b, t(3), PodId(0)) else {
            panic!()
        };
        assert_eq!(g2, g);
        assert_eq!(b.tokens_dispatched(), 1);
    }

    #[test]
    fn lease_expiry_at_sync_releases_and_dispatches() {
        let mut b = fast_backend(5);
        b.register(PodId(0), spec(60.0, 1.0, 1.0));
        b.register(PodId(1), spec(60.0, 1.0, 1.0));
        assert!(matches!(
            req(&mut b, SimTime::ZERO, PodId(0)),
            RequestOutcome::Granted(_)
        ));
        assert_eq!(req(&mut b, SimTime::ZERO, PodId(1)), RequestOutcome::Queued);
        b.begin_burst(PodId(0)).unwrap();
        // Sync after the 5ms lease expired → the next pass grants pod 1.
        assert!(!b.sync_point(t(6), PodId(0), t(6)).unwrap());
        assert_eq!(pass(&mut b, t(6)), vec![PodId(1)]);
    }

    #[test]
    fn single_token_admits_one_at_a_time() {
        let mut b = FastBackend::new(BackendConfig {
            policy: SharingPolicy::SingleToken,
            ..BackendConfig::default()
        });
        b.register(PodId(0), spec(100.0, 1.0, 1.0));
        b.register(PodId(1), spec(100.0, 1.0, 1.0));
        b.register(PodId(2), spec(12.0, 1.0, 1.0)); // partition irrelevant
        for i in 0..3 {
            b.request(SimTime::ZERO, PodId(i)).unwrap();
        }
        assert_eq!(pass(&mut b, SimTime::ZERO), vec![PodId(0)]);
        assert_eq!(b.holders(), 1);
        b.release_idle(PodId(0));
        assert_eq!(
            pass(&mut b, t(1)).len(),
            1,
            "only one successor under time sharing"
        );
    }

    #[test]
    fn racing_policy_grants_unconditionally() {
        let mut b = FastBackend::new(BackendConfig {
            policy: SharingPolicy::Racing,
            ..BackendConfig::default()
        });
        for i in 0..10 {
            b.register(PodId(i), spec(100.0, 1.0, 1.0));
            assert!(matches!(
                req(&mut b, SimTime::ZERO, PodId(i)),
                RequestOutcome::Granted(_)
            ));
        }
        // No lease accounting under racing.
        assert_eq!(b.holders(), 0);
        assert_eq!(b.sm_running(), 0.0);
    }

    #[test]
    fn elastic_quota_allows_usage_beyond_request() {
        let mut b = fast_backend(1000);
        b.register(PodId(0), spec(24.0, 0.3, 0.8));
        assert!(matches!(
            req(&mut b, SimTime::ZERO, PodId(0)),
            RequestOutcome::Granted(_)
        ));
        b.begin_burst(PodId(0)).unwrap();
        // Used 500ms: beyond request (300) but below limit (800) → keeps
        // going while idle capacity exists.
        assert!(b.sync_point(t(500), PodId(0), t(500)).unwrap());
        b.begin_burst(PodId(0)).unwrap();
        // Hits the 800ms limit → blocked.
        assert!(!b.sync_point(t(900), PodId(0), t(400)).unwrap());
        assert_eq!(
            req(&mut b, t(900), PodId(0)),
            RequestOutcome::BlockedUntilReset
        );
    }

    #[test]
    fn deregister_frees_capacity() {
        let mut b = fast_backend(5);
        b.register(PodId(0), spec(60.0, 1.0, 1.0));
        b.register(PodId(1), spec(60.0, 1.0, 1.0));
        assert!(matches!(
            req(&mut b, SimTime::ZERO, PodId(0)),
            RequestOutcome::Granted(_)
        ));
        assert_eq!(req(&mut b, SimTime::ZERO, PodId(1)), RequestOutcome::Queued);
        b.deregister(PodId(0));
        assert_eq!(pass(&mut b, t(1)), vec![PodId(1)]);
        assert!(b.quota_state(PodId(0)).is_none());
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "registered twice"))]
    fn double_registration_panics() {
        let mut b = fast_backend(5);
        b.register(PodId(0), spec(10.0, 0.5, 0.5));
        b.register(PodId(0), spec(24.0, 1.0, 1.0));
        // Release builds ignore the second registration instead.
        assert_eq!(b.pods.rows.len(), 1);
        assert_eq!(b.quota_state(PodId(0)).map(|q| q.sm_partition), Some(10.0));
    }

    #[test]
    fn operations_on_deregistered_pod_return_error_not_panic() {
        let mut b = fast_backend(5);
        b.register(PodId(0), spec(24.0, 1.0, 1.0));
        assert!(matches!(
            req(&mut b, SimTime::ZERO, PodId(0)),
            RequestOutcome::Granted(_)
        ));
        // A crash force-deregisters the pod while its hook still holds a
        // token; every subsequent backend call must degrade gracefully.
        b.force_deregister(PodId(0));
        let ghost = PodId(0);
        assert_eq!(
            b.request(t(2), ghost).unwrap_err(),
            BackendError::UnknownPod(ghost)
        );
        assert_eq!(
            b.begin_burst(ghost).unwrap_err(),
            BackendError::UnknownPod(ghost)
        );
        assert_eq!(
            b.sync_point(t(2), ghost, t(1)).unwrap_err(),
            BackendError::UnknownPod(ghost)
        );
        // Never-registered pods behave identically, also under non-token
        // policies (the racing path used to panic in entry_mut).
        let mut racing = FastBackend::new(BackendConfig {
            policy: SharingPolicy::Racing,
            ..BackendConfig::default()
        });
        assert_eq!(
            racing.request(SimTime::ZERO, PodId(7)).unwrap_err(),
            BackendError::UnknownPod(PodId(7))
        );
        // Tolerant paths stay tolerant.
        b.release_idle(ghost);
        b.force_deregister(ghost);
        assert_eq!(b.sm_running(), 0.0);
    }

    #[test]
    fn has_waiter_tracks_the_ready_queue() {
        let mut b = fast_backend(5);
        b.register(PodId(0), spec(60.0, 0.3, 0.3));
        b.register(PodId(1), spec(60.0, 1.0, 1.0));
        assert!(!b.has_waiter());
        // A request waits until the pass grants it.
        b.request(SimTime::ZERO, PodId(0)).unwrap();
        assert!(b.has_waiter());
        assert_eq!(pass(&mut b, SimTime::ZERO), vec![PodId(0)]);
        assert!(!b.has_waiter());
        // The adapter budget is taken: pod 1 queues.
        assert_eq!(req(&mut b, SimTime::ZERO, PodId(1)), RequestOutcome::Queued);
        assert!(b.has_waiter());
        // Pod 0 burns its quota; the next pass grants pod 1 the released
        // budget.
        b.begin_burst(PodId(0)).unwrap();
        assert!(!b.sync_point(t(300), PodId(0), t(300)).unwrap());
        assert_eq!(pass(&mut b, t(300)), vec![PodId(1)]);
        assert!(!b.has_waiter());
        // A quota-blocked pod still waits: a window reset re-admits it
        // without a new request.
        assert_eq!(
            req(&mut b, t(300), PodId(0)),
            RequestOutcome::BlockedUntilReset
        );
        assert!(b.has_waiter());
        // Going idle leaves the queue.
        b.release_idle(PodId(0));
        assert!(!b.has_waiter());
    }

    #[test]
    fn quota_times_follow_the_spec_and_are_rederived_on_decode() {
        use fastg_des::snap::{Snap, SnapReader, SnapWriter};
        let mut b = fast_backend(5);
        b.register(PodId(0), spec(12.0, 0.3, 0.8));
        b.update_spec(PodId(0), spec(12.0, 0.25, 0.5));
        let qs = b.quota_state(PodId(0)).unwrap();
        assert_eq!((qs.q_request, qs.q_limit), (t(250), t(500)));
        let mut w = SnapWriter::new();
        b.snap(&mut w);
        let bytes = w.finish();
        let mut back = FastBackend::unsnap(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(back.quota_state(PodId(0)), Some(qs));
        // The decoded row enforces the updated limit.
        assert!(matches!(
            req(&mut back, SimTime::ZERO, PodId(0)),
            RequestOutcome::Granted(_)
        ));
        back.begin_burst(PodId(0)).unwrap();
        assert!(!back.sync_point(t(4), PodId(0), t(500)).unwrap());
    }

    #[test]
    fn slot_bits_stay_inline_to_64_slots_and_spill_past_them() {
        let mut bits = SlotBits::default();
        for slot in [0, 5, 63] {
            bits.assign(slot, true);
        }
        bits.assign(200, false);
        assert_eq!(bits.rest.capacity(), 0, "64 slots or fewer never allocate");
        assert_eq!(bits.iter().collect::<Vec<_>>(), [0, 5, 63]);
        bits.assign(64, true);
        bits.assign(130, true);
        assert_eq!(bits.iter().collect::<Vec<_>>(), [0, 5, 63, 64, 130]);
        assert_eq!(bits.count(), 5);
        // Clearing trims trailing zero words, so emptiness stays a word test.
        bits.assign(130, false);
        assert_eq!(bits.rest.len(), 1);
        bits.assign(64, false);
        assert!(bits.rest.is_empty() && bits.any());
        for slot in [0, 5, 63] {
            bits.assign(slot, false);
        }
        assert!(!bits.any());
    }

    #[test]
    fn quota_state_reflects_configuration() {
        let mut b = fast_backend(5);
        b.register(PodId(0), spec(12.0, 0.3, 0.8));
        let qs = b.quota_state(PodId(0)).unwrap();
        assert_eq!(qs.q_request, t(300));
        assert_eq!(qs.q_limit, t(800));
        assert_eq!(qs.q_used, SimTime::ZERO);
        assert!(!qs.holds_token);
        assert_eq!(qs.sm_partition, 12.0);
    }
}

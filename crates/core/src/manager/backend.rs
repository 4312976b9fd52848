//! The FaST Backend: pod table, multi-token scheduler and SM Allocation
//! Adapter.

use super::estimator::BurstEstimator;
use super::policy::SharingPolicy;
use fastg_cluster::{PodId, ResourceSpec};
use fastg_des::snap::{Snap, SnapError, SnapReader, SnapWriter};
use fastg_des::SimTime;

/// Order in which the Ready-function Priority Queue is drained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchOrder {
    /// The paper's policy: descending `Q_miss = Q_request − Q_used`, so
    /// the pod with the largest timing gap is always served first.
    QMissDesc,
    /// Ablation baseline: plain arrival order.
    Fifo,
}

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
    /// The SM Allocation Adapter's global limit (percent). The paper pins
    /// this at 100 %: over-allocating SMs causes interference.
    pub sm_global_limit: f64,
    /// Ready-queue ordering (ablation knob; the paper uses
    /// [`DispatchOrder::QMissDesc`]).
    pub dispatch_order: DispatchOrder,
    /// Strict burst admission: refuse a token when the pod's estimated
    /// next burst (Gemini's kernel-burst estimate, pessimistic bound)
    /// would overrun its remaining window quota. Off by default — the
    /// paper tolerates one burst of overrun instead.
    pub strict_admission: bool,
    /// Adaptive leases: size each lease from the pod's burst estimate
    /// (clamped to `[1 ms, token_lease]`) instead of the fixed duration.
    pub adaptive_lease: bool,
    /// Defer grant passes to an explicit [`FastBackend::dispatch_pass`]
    /// call instead of dispatching inline from `request`/`sync_point`/
    /// release paths. The platform engine turns this on and runs one
    /// batched pass per node at the end of each simulated instant, so
    /// that token grants depend only on the set of same-instant requests
    /// — never on the order they were delivered in (a tie-break race
    /// otherwise: the first requester would grab free capacity before
    /// the others even queued).
    pub deferred_dispatch: bool,
}

impl Default for BackendConfig {
    fn default() -> Self {
        BackendConfig {
            policy: SharingPolicy::FaST,
            window: SimTime::from_secs(1),
            token_lease: SimTime::from_millis(5),
            sm_global_limit: 100.0,
            dispatch_order: DispatchOrder::QMissDesc,
            strict_admission: false,
            adaptive_lease: false,
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
    /// Lease expiry (absolute). The platform schedules a lease timer here.
    pub expires: SimTime,
    /// Lease epoch, for matching stale timers.
    pub epoch: u64,
}

/// Outcome of a token request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    /// The pod may launch now (fresh or still-valid lease).
    Granted(Grant),
    /// No capacity; the pod is in the ready queue and will be granted
    /// later (returned from a future dispatch).
    Queued,
    /// The pod exhausted `Q_limit` for this window; it will become ready
    /// again at the next window reset.
    BlockedUntilReset,
}

/// Outcome of reporting a synchronization point.
#[derive(Debug, Clone)]
pub struct SyncOutcome {
    /// Whether the pod's lease is still valid (it may launch its next
    /// burst without a new request).
    pub lease_valid: bool,
    /// Pods granted tokens as a consequence (lease released → capacity
    /// freed). The platform must start their pending bursts.
    pub granted: Vec<Grant>,
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
}

/// Token-dispatch priority class, the temporal half of Tally-style
/// priority co-location: latency-critical pods outrank best-effort pods
/// in every dispatch pass, so BE kernels only absorb SM budget LC pods
/// left idle. The default is latency-critical, which leaves the paper's
/// dispatch order untouched (every rank equal ⇒ the original Q_miss/FIFO
/// comparison decides).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum PodClass {
    /// Strict-priority tier: dispatched first, in paper order.
    #[default]
    LatencyCritical,
    /// Opportunistic tier: dispatched only after every ready LC pod.
    BestEffort,
}

impl PodClass {
    /// Sort rank (lower dispatches first).
    fn rank(self) -> u8 {
        match self {
            PodClass::LatencyCritical => 0,
            PodClass::BestEffort => 1,
        }
    }
}

#[derive(Debug, Clone)]
struct PodEntry {
    spec: ResourceSpec,
    class: PodClass,
    q_used: SimTime,
    lease: Option<Lease>,
    waiting: bool,
    /// Simulated time at which the pod last entered the ready queue, for
    /// FIFO dispatch. Sim time, not an enqueue sequence number: pods that
    /// queue at the same instant are logically concurrent, and ordering
    /// them by arrival history would make token grants depend on
    /// same-instant event delivery order (a tie-break race the detector
    /// caught under `SingleToken`). Equal times fall through to the
    /// dispatch sort's PodId tie-break instead.
    waiting_since: SimTime,
    in_burst: bool,
    next_epoch: u64,
    estimator: BurstEstimator,
}

#[derive(Debug, Clone, Copy)]
struct Lease {
    expires: SimTime,
    epoch: u64,
    /// Adapter share reserved at grant time. Releases subtract exactly
    /// this value, so a spec update while the lease is held can never
    /// corrupt the SM accounting.
    share: f64,
}

/// The backend pod table: a Vec of rows sorted by `PodId`. Per-node tables
/// hold at most a handful of pods, so binary search over contiguous rows
/// beats pointer-chasing a tree on the token hot path, and ascending-id
/// iteration keeps the dispatch snapshot order identical to the old
/// `BTreeMap`.
#[derive(Debug, Default)]
struct PodTable {
    rows: Vec<(PodId, PodEntry)>,
}

impl PodTable {
    fn idx(&self, pod: PodId) -> Result<usize, usize> {
        self.rows.binary_search_by_key(&pod, |(id, _)| *id)
    }

    fn get(&self, pod: PodId) -> Option<&PodEntry> {
        self.idx(pod).ok().map(|i| &self.rows[i].1)
    }

    fn get_mut(&mut self, pod: PodId) -> Option<&mut PodEntry> {
        match self.idx(pod) {
            Ok(i) => Some(&mut self.rows[i].1),
            Err(_) => None,
        }
    }

    /// Inserts a fresh row; returns `false` if the pod already had one (the
    /// existing row is kept).
    fn insert(&mut self, pod: PodId, entry: PodEntry) -> bool {
        match self.idx(pod) {
            Ok(_) => false,
            Err(i) => {
                self.rows.insert(i, (pod, entry));
                true
            }
        }
    }

    fn remove(&mut self, pod: PodId) -> Option<PodEntry> {
        match self.idx(pod) {
            Ok(i) => Some(self.rows.remove(i).1),
            Err(_) => None,
        }
    }

    fn iter(&self) -> impl Iterator<Item = (PodId, &PodEntry)> {
        self.rows.iter().map(|(id, e)| (*id, e))
    }

    fn values(&self) -> impl Iterator<Item = &PodEntry> {
        self.rows.iter().map(|(_, e)| e)
    }

    fn values_mut(&mut self) -> impl Iterator<Item = &mut PodEntry> {
        self.rows.iter_mut().map(|(_, e)| e)
    }
}

impl PodEntry {
    fn q_limit_time(&self, window: SimTime) -> SimTime {
        window.scale(self.spec.quota_limit)
    }
    fn q_request_time(&self, window: SimTime) -> SimTime {
        window.scale(self.spec.quota_request)
    }
    /// `Q_miss = Q_request − Q_used`, in signed microseconds.
    fn q_miss(&self, window: SimTime) -> i128 {
        i128::from(self.q_request_time(window).as_micros()) - i128::from(self.q_used.as_micros())
    }
    fn quota_exhausted(&self, window: SimTime) -> bool {
        self.q_used >= self.q_limit_time(window)
    }
}

/// The FaST Backend for one GPU node.
///
/// A complete token round-trip, as the CUDA hook library drives it:
///
/// ```
/// use fastgshare::manager::{BackendConfig, FastBackend, RequestOutcome};
/// use fastg_cluster::{PodId, ResourceSpec};
/// use fastg_des::SimTime;
///
/// let mut backend = FastBackend::new(BackendConfig::default());
/// backend.register(PodId(0), ResourceSpec::new(24.0, 0.3, 0.8, 0));
///
/// // The hook intercepts the first kernel launch and asks for a token.
/// let (outcome, _side_grants) = backend.request(SimTime::ZERO, PodId(0)).unwrap();
/// assert!(matches!(outcome, RequestOutcome::Granted(_)));
///
/// // Kernels run; the sync point reports 2 ms of GPU time.
/// backend.begin_burst(PodId(0)).unwrap();
/// let sync = backend
///     .sync_point(SimTime::from_millis(2), PodId(0), SimTime::from_millis(2))
///     .unwrap();
/// assert!(sync.lease_valid); // within lease and quota
/// assert_eq!(
///     backend.quota_state(PodId(0)).unwrap().q_used,
///     SimTime::from_millis(2)
/// );
/// ```
#[derive(Debug)]
pub struct FastBackend {
    cfg: BackendConfig,
    pods: PodTable,
    /// Sum of adapter shares of current lease holders.
    sm_running: f64,
    tokens_dispatched: u64,
}

impl FastBackend {
    /// Creates a backend.
    pub fn new(cfg: BackendConfig) -> Self {
        debug_assert!(cfg.window > SimTime::ZERO, "zero scheduling window");
        debug_assert!(cfg.token_lease > SimTime::ZERO, "zero token lease");
        debug_assert!(cfg.sm_global_limit > 0.0, "zero SM global limit");
        let mut cfg = cfg;
        cfg.window = cfg.window.max(SimTime::from_micros(1));
        cfg.token_lease = cfg.token_lease.max(SimTime::from_micros(1));
        cfg.sm_global_limit = cfg.sm_global_limit.max(f64::EPSILON);
        FastBackend {
            cfg,
            pods: PodTable::default(),
            sm_running: 0.0,
            tokens_dispatched: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &BackendConfig {
        &self.cfg
    }

    /// Registers a pod's resource configuration in the backend table (the
    /// FaSTPod controller does this when the pod starts). The pod joins
    /// the latency-critical class, i.e. paper dispatch semantics.
    pub fn register(&mut self, pod: PodId, spec: ResourceSpec) {
        self.register_class(pod, spec, PodClass::LatencyCritical);
    }

    /// Registers a pod with an explicit dispatch class (the co-location
    /// policy marks elastic pods best-effort).
    pub fn register_class(&mut self, pod: PodId, spec: ResourceSpec, class: PodClass) {
        spec.validate();
        let fresh = self.pods.insert(
            pod,
            PodEntry {
                spec,
                class,
                q_used: SimTime::ZERO,
                lease: None,
                waiting: false,
                waiting_since: SimTime::ZERO,
                in_burst: false,
                next_epoch: 0,
                estimator: BurstEstimator::new(BurstEstimator::default_alpha()),
            },
        );
        debug_assert!(fresh, "pod {pod:?} registered twice");
    }

    /// A pod's dispatch class, if registered.
    pub fn class_of(&self, pod: PodId) -> Option<PodClass> {
        self.pods.get(pod).map(|e| e.class)
    }

    /// Updates a pod's resource configuration (FaSTPod spec sync). Takes
    /// effect from the next grant; a held lease keeps its original share
    /// until released.
    pub fn update_spec(&mut self, pod: PodId, spec: ResourceSpec) {
        spec.validate();
        if let Some(e) = self.pods.get_mut(pod) {
            // Safe even while the pod holds a token: the lease carries
            // the share it reserved, so accounting stays exact; the new
            // partition/quota apply from the next grant and the current
            // window's Q_used carries over.
            e.spec = spec;
        }
    }

    /// Removes a pod. Returns grants unblocked by the freed capacity.
    ///
    /// Deregistering a pod mid-burst is a platform bug (the caller drains
    /// first); debug builds assert, release builds fall through to the
    /// forced path, which reconciles the accounting either way.
    pub fn deregister(&mut self, now: SimTime, pod: PodId) -> Vec<Grant> {
        if let Some(e) = self.pods.get(pod) {
            debug_assert!(!e.in_burst, "deregistering {pod:?} mid-burst");
        }
        self.force_deregister(now, pod)
    }

    /// Removes a pod unconditionally — the failure-injection path: a
    /// crashed pod's kernels may still be draining on the GPU, but its
    /// table row, queue slot and SM reservation go away immediately.
    pub fn force_deregister(&mut self, now: SimTime, pod: PodId) -> Vec<Grant> {
        let Some(e) = self.pods.remove(pod) else {
            return Vec::new();
        };
        if let Some(lease) = e.lease {
            self.sm_running = (self.sm_running - lease.share).max(0.0);
        }
        self.dispatch_or_defer(now)
    }

    /// A pod's hook asks for a token so it can launch its next burst.
    ///
    /// Returns the requester's outcome plus any *side grants*: releasing
    /// the requester's stale lease can free enough SM budget to admit
    /// other queued pods, and the caller must start their pending bursts.
    ///
    /// # Errors
    /// [`BackendError::UnknownPod`] if the pod is not registered.
    pub fn request(
        &mut self,
        now: SimTime,
        pod: PodId,
    ) -> Result<(RequestOutcome, Vec<Grant>), BackendError> {
        if !self.cfg.policy.uses_tokens() {
            // Racing / exclusive: permission is unconditional.
            let e = self.entry_mut(pod)?;
            e.next_epoch += 1;
            let grant = Grant {
                pod,
                expires: SimTime::MAX,
                epoch: e.next_epoch,
            };
            return Ok((RequestOutcome::Granted(grant), Vec::new()));
        }
        let window = self.cfg.window;
        let strict = self.cfg.strict_admission;
        let e = self.entry_mut(pod)?;
        // Strict admission applies per burst, even on a held lease: if the
        // estimated next burst would overrun the remaining quota, the pod
        // yields until the window resets (unless its window is untouched,
        // which guarantees progress).
        let strict_defer = strict
            && e.q_used > SimTime::ZERO
            && e.estimator
                .upper()
                .is_some_and(|est| e.q_used + est > e.q_limit_time(window));
        if !strict_defer {
            if let Some(lease) = e.lease {
                if now < lease.expires && !e.quota_exhausted(window) {
                    let grant = Grant {
                        pod,
                        expires: lease.expires,
                        epoch: lease.epoch,
                    };
                    return Ok((RequestOutcome::Granted(grant), Vec::new()));
                }
            }
        }
        // Any stale lease is released before queueing.
        let released = e.lease.take();
        if !e.waiting {
            e.waiting = true;
            e.waiting_since = now;
        }
        if let Some(lease) = released {
            self.sm_running = (self.sm_running - lease.share).max(0.0);
        }
        let blocked = self.entry(pod)?.quota_exhausted(window);
        // Dispatch regardless: the released capacity may admit others
        // even when the requester itself is quota-blocked.
        let mut grants = self.dispatch_or_defer(now);
        let own = grants.iter().position(|g| g.pod == pod);
        Ok(match own {
            Some(i) => {
                let g = grants.remove(i);
                (RequestOutcome::Granted(g), grants)
            }
            None if blocked => (RequestOutcome::BlockedUntilReset, grants),
            None => (RequestOutcome::Queued, grants),
        })
    }

    /// Marks the pod as executing a burst (launched kernels, sync pending).
    /// A pod mid-burst never loses its SM reservation.
    ///
    /// # Errors
    /// [`BackendError::UnknownPod`] if the pod is not registered.
    pub fn begin_burst(&mut self, pod: PodId) -> Result<(), BackendError> {
        let e = self.entry_mut(pod)?;
        debug_assert!(!e.in_burst, "nested burst for {pod:?}");
        e.in_burst = true;
        Ok(())
    }

    /// The pod's burst synchronized: charge `gpu_time` against its quota
    /// (the CUDA-event usage monitor) and decide whether its lease
    /// survives.
    ///
    /// # Errors
    /// [`BackendError::UnknownPod`] if the pod is not registered (e.g. it
    /// was force-deregistered by a crash while the burst was in flight).
    pub fn sync_point(
        &mut self,
        now: SimTime,
        pod: PodId,
        gpu_time: SimTime,
    ) -> Result<SyncOutcome, BackendError> {
        let window = self.cfg.window;
        let policy = self.cfg.policy;
        let e = self.entry_mut(pod)?;
        debug_assert!(e.in_burst, "sync without burst for {pod:?}");
        e.in_burst = false;
        e.q_used += gpu_time;
        e.estimator.observe(gpu_time);
        if !policy.uses_tokens() {
            return Ok(SyncOutcome {
                lease_valid: true,
                granted: Vec::new(),
            });
        }
        let expired = match e.lease {
            Some(l) => now >= l.expires,
            None => true,
        };
        Ok(if expired || e.quota_exhausted(window) {
            if let Some(lease) = e.lease.take() {
                self.sm_running = (self.sm_running - lease.share).max(0.0);
            }
            SyncOutcome {
                lease_valid: false,
                granted: self.dispatch_or_defer(now),
            }
        } else {
            SyncOutcome {
                lease_valid: true,
                granted: Vec::new(),
            }
        })
    }

    /// The pod went idle (no queued request): release its lease so other
    /// pods can use the capacity.
    pub fn release_idle(&mut self, now: SimTime, pod: PodId) -> Vec<Grant> {
        let Some(e) = self.pods.get_mut(pod) else {
            return Vec::new();
        };
        e.waiting = false;
        if let Some(lease) = e.lease.take() {
            self.sm_running = (self.sm_running - lease.share).max(0.0);
            self.dispatch_or_defer(now)
        } else {
            Vec::new()
        }
    }

    /// A lease timer fired. If the lease is still current and the pod is
    /// between bursts, the lease is reclaimed (host-gap reclamation);
    /// mid-burst leases are reclaimed at the next sync instead.
    pub fn on_lease_timer(&mut self, now: SimTime, pod: PodId, epoch: u64) -> Vec<Grant> {
        let Some(e) = self.pods.get_mut(pod) else {
            return Vec::new();
        };
        match e.lease {
            Some(l) if l.epoch == epoch && !e.in_burst => {
                e.lease = None;
                self.sm_running = (self.sm_running - l.share).max(0.0);
                self.dispatch_or_defer(now)
            }
            _ => Vec::new(),
        }
    }

    /// Runs one explicit grant pass over the ready queue (the engine's
    /// end-of-instant batched dispatch under
    /// [`BackendConfig::deferred_dispatch`]).
    pub fn dispatch_pass(&mut self, now: SimTime) -> Vec<Grant> {
        self.dispatch(now)
    }

    /// Inline dispatch, suppressed under deferred dispatch (the engine
    /// will run [`Self::dispatch_pass`] at the end of the instant).
    fn dispatch_or_defer(&mut self, now: SimTime) -> Vec<Grant> {
        if self.cfg.deferred_dispatch {
            Vec::new()
        } else {
            self.dispatch(now)
        }
    }

    /// Window boundary: every pod's `Q_used` resets and blocked pods become
    /// ready again (Figure 5b's `F_3` re-entering the queue).
    pub fn on_window_reset(&mut self, now: SimTime) -> Vec<Grant> {
        for e in self.pods.values_mut() {
            e.q_used = SimTime::ZERO;
        }
        self.dispatch_or_defer(now)
    }

    /// The multi-token dispatch pass: filtering → priority queue →
    /// SM Allocation Adapter.
    fn dispatch(&mut self, now: SimTime) -> Vec<Grant> {
        if !self.cfg.policy.uses_tokens() {
            return Vec::new();
        }
        let window = self.cfg.window;
        // Filtering: waiting pods that still have quota this window.
        // Under strict admission, a pod whose estimated next burst would
        // overrun its remaining quota also waits — unless its window is
        // still untouched, which guarantees forward progress even for
        // bursts larger than the whole quota.
        let strict = self.cfg.strict_admission;
        let mut ready: Vec<(u8, i128, SimTime, PodId)> = self
            .pods
            .iter()
            .filter(|(_, e)| e.waiting && e.lease.is_none() && !e.quota_exhausted(window))
            .filter(|(_, e)| {
                if !strict || e.q_used == SimTime::ZERO {
                    return true;
                }
                match e.estimator.upper() {
                    Some(est) => e.q_used + est <= e.q_limit_time(window),
                    None => true,
                }
            })
            .map(|(id, e)| (e.class.rank(), e.q_miss(window), e.waiting_since, id))
            .collect();
        // Priority: the co-location class rank first (LC strictly before
        // BE; all-LC tables degenerate to the paper's order), then
        // descending Q_miss (largest timing gap first, the paper's rule)
        // or plain FIFO for the ablation; PodId breaks remaining ties
        // deterministically.
        match self.cfg.dispatch_order {
            DispatchOrder::QMissDesc => {
                ready.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)).then(a.3.cmp(&b.3)));
            }
            DispatchOrder::Fifo => {
                ready.sort_by(|a, b| a.0.cmp(&b.0).then(a.2.cmp(&b.2)).then(a.3.cmp(&b.3)));
            }
        }

        let mut grants = Vec::new();
        for (_class, _miss, _since, pod) in ready {
            // The ready list was snapshotted from the table above, so the
            // row exists — but stay panic-free and skip if it is gone.
            let Some(entry) = self.pods.get(pod) else {
                continue;
            };
            let share = self.cfg.policy.adapter_share(entry.spec.sm_partition);
            // SM Allocation Adapter: stop at the first head pod that does
            // not fit (head-of-line, as in the paper).
            if self.sm_running + share > self.cfg.sm_global_limit + 1e-9 {
                break;
            }
            let Some(e) = self.pods.get_mut(pod) else {
                continue;
            };
            e.waiting = false;
            e.next_epoch += 1;
            let duration = if self.cfg.adaptive_lease {
                match e.estimator.mean() {
                    // A few bursts per lease amortizes the token IPC
                    // without monopolizing the adapter budget.
                    Some(m) => (m * 4)
                        .max(SimTime::from_millis(1))
                        .min(self.cfg.token_lease),
                    None => self.cfg.token_lease,
                }
            } else {
                self.cfg.token_lease
            };
            let lease = Lease {
                expires: now + duration,
                epoch: e.next_epoch,
                share,
            };
            e.lease = Some(lease);
            self.sm_running += share;
            self.tokens_dispatched += 1;
            grants.push(Grant {
                pod,
                expires: lease.expires,
                epoch: lease.epoch,
            });
        }
        debug_assert!(self.sm_running <= self.cfg.sm_global_limit + 1e-6);
        grants
    }

    /// Snapshot of one pod's quota row.
    pub fn quota_state(&self, pod: PodId) -> Option<PodQuotaState> {
        self.pods.get(pod).map(|e| PodQuotaState {
            q_used: e.q_used,
            q_request: e.q_request_time(self.cfg.window),
            q_limit: e.q_limit_time(self.cfg.window),
            sm_partition: e.spec.sm_partition,
            holds_token: e.lease.is_some(),
        })
    }

    /// The pod's smoothed kernel-burst estimate (Gemini mechanism), if
    /// any bursts have been observed.
    pub fn burst_estimate(&self, pod: PodId) -> Option<SimTime> {
        self.pods.get(pod).and_then(|e| e.estimator.mean())
    }

    /// Sum of lease holders' adapter shares (≤ `sm_global_limit`).
    pub fn sm_running(&self) -> f64 {
        self.sm_running
    }

    /// Number of pods currently holding a lease.
    pub fn holders(&self) -> usize {
        self.pods.values().filter(|e| e.lease.is_some()).count()
    }

    /// Number of pods waiting in the ready queue.
    pub fn waiting(&self) -> usize {
        self.pods.values().filter(|e| e.waiting).count()
    }

    /// Total tokens dispatched since creation.
    pub fn tokens_dispatched(&self) -> u64 {
        self.tokens_dispatched
    }

    fn entry(&self, pod: PodId) -> Result<&PodEntry, BackendError> {
        self.pods.get(pod).ok_or(BackendError::UnknownPod(pod))
    }

    fn entry_mut(&mut self, pod: PodId) -> Result<&mut PodEntry, BackendError> {
        self.pods.get_mut(pod).ok_or(BackendError::UnknownPod(pod))
    }
}

impl Snap for DispatchOrder {
    fn snap(&self, w: &mut SnapWriter) {
        w.u8(match self {
            DispatchOrder::QMissDesc => 0,
            DispatchOrder::Fifo => 1,
        });
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => DispatchOrder::QMissDesc,
            1 => DispatchOrder::Fifo,
            _ => return Err(SnapError::new("dispatch order tag")),
        })
    }
}

impl Snap for BackendConfig {
    fn snap(&self, w: &mut SnapWriter) {
        let Self {
            policy,
            window,
            token_lease,
            sm_global_limit,
            dispatch_order,
            strict_admission,
            adaptive_lease,
            deferred_dispatch,
        } = self;
        policy.snap(w);
        window.snap(w);
        token_lease.snap(w);
        sm_global_limit.snap(w);
        dispatch_order.snap(w);
        strict_admission.snap(w);
        adaptive_lease.snap(w);
        deferred_dispatch.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let cfg = BackendConfig {
            policy: SharingPolicy::unsnap(r)?,
            window: SimTime::unsnap(r)?,
            token_lease: SimTime::unsnap(r)?,
            sm_global_limit: f64::unsnap(r)?,
            dispatch_order: DispatchOrder::unsnap(r)?,
            strict_admission: bool::unsnap(r)?,
            adaptive_lease: bool::unsnap(r)?,
            deferred_dispatch: bool::unsnap(r)?,
        };
        if cfg.window == SimTime::ZERO
            || cfg.token_lease == SimTime::ZERO
            || !(cfg.sm_global_limit.is_finite() && cfg.sm_global_limit > 0.0)
        {
            return Err(SnapError::new("backend config bounds"));
        }
        Ok(cfg)
    }
}

impl Snap for PodClass {
    fn snap(&self, w: &mut SnapWriter) {
        w.u8(self.rank());
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => PodClass::LatencyCritical,
            1 => PodClass::BestEffort,
            _ => return Err(SnapError::new("pod class tag")),
        })
    }
}

impl Snap for Lease {
    fn snap(&self, w: &mut SnapWriter) {
        let Self {
            expires,
            epoch,
            share,
        } = self;
        expires.snap(w);
        w.u64(*epoch);
        share.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Lease {
            expires: SimTime::unsnap(r)?,
            epoch: r.u64()?,
            share: f64::unsnap(r)?,
        })
    }
}

impl Snap for PodEntry {
    fn snap(&self, w: &mut SnapWriter) {
        let Self {
            spec,
            class,
            q_used,
            lease,
            waiting,
            waiting_since,
            in_burst,
            next_epoch,
            estimator,
        } = self;
        spec.snap(w);
        class.snap(w);
        q_used.snap(w);
        lease.snap(w);
        waiting.snap(w);
        waiting_since.snap(w);
        in_burst.snap(w);
        w.u64(*next_epoch);
        estimator.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let entry = PodEntry {
            spec: ResourceSpec::unsnap(r)?,
            class: PodClass::unsnap(r)?,
            q_used: SimTime::unsnap(r)?,
            lease: Option::unsnap(r)?,
            waiting: bool::unsnap(r)?,
            waiting_since: SimTime::unsnap(r)?,
            in_burst: bool::unsnap(r)?,
            next_epoch: r.u64()?,
            estimator: BurstEstimator::unsnap(r)?,
        };
        if entry
            .lease
            .is_some_and(|lease| lease.epoch > entry.next_epoch)
        {
            return Err(SnapError::new("backend lease epoch"));
        }
        Ok(entry)
    }
}

impl Snap for FastBackend {
    fn snap(&self, w: &mut SnapWriter) {
        let Self {
            cfg,
            pods,
            sm_running,
            tokens_dispatched,
        } = self;
        cfg.snap(w);
        pods.rows.snap(w);
        sm_running.snap(w);
        w.u64(*tokens_dispatched);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let cfg = BackendConfig::unsnap(r)?;
        let rows: Vec<(PodId, PodEntry)> = Vec::unsnap(r)?;
        if rows.windows(2).any(|pair| pair[0].0 >= pair[1].0) {
            return Err(SnapError::new("backend row order"));
        }
        let sm_running = f64::unsnap(r)?;
        if !(sm_running.is_finite() && sm_running >= 0.0) {
            return Err(SnapError::new("backend sm accounting"));
        }
        Ok(FastBackend {
            cfg,
            pods: PodTable { rows },
            sm_running,
            tokens_dispatched: r.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000;

    fn fast_backend(lease_ms: u64) -> FastBackend {
        FastBackend::new(BackendConfig {
            policy: SharingPolicy::FaST,
            window: SimTime::from_secs(1),
            token_lease: SimTime::from_millis(lease_ms),
            sm_global_limit: 100.0,
            ..BackendConfig::default()
        })
    }

    fn spec(sm: f64, req: f64, lim: f64) -> ResourceSpec {
        ResourceSpec::new(sm, req, lim, 0)
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_micros(ms * MS)
    }

    /// Unwraps the requester-facing outcome, asserting no side grants —
    /// every call site here either expects none or checks them itself.
    fn req(b: &mut FastBackend, now: SimTime, pod: PodId) -> RequestOutcome {
        let (outcome, side) = b.request(now, pod).unwrap();
        assert!(side.is_empty(), "unexpected side grants: {side:?}");
        outcome
    }

    #[test]
    fn grant_within_sm_budget() {
        let mut b = fast_backend(5);
        for i in 0..4 {
            b.register(PodId(i), spec(24.0, 1.0, 1.0));
        }
        // 4 × 24 = 96 ≤ 100: everyone granted immediately.
        for i in 0..4 {
            assert!(matches!(
                req(&mut b, SimTime::ZERO, PodId(i)),
                RequestOutcome::Granted(_)
            ));
        }
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
        // Fifth pod: 96 + 24 > 100 → queued.
        assert_eq!(req(&mut b, SimTime::ZERO, PodId(4)), RequestOutcome::Queued);
        assert_eq!(b.waiting(), 1);
        // One holder goes idle → fifth gets the token.
        let grants = b.release_idle(t(1), PodId(0));
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].pod, PodId(4));
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
        let out = b.sync_point(t(300), PodId(0), t(300)).unwrap();
        assert!(!out.lease_valid);
        assert_eq!(
            req(&mut b, t(300), PodId(0)),
            RequestOutcome::BlockedUntilReset
        );
        // Window reset re-admits it.
        let grants = b.on_window_reset(t(1000));
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].pod, PodId(0));
        assert_eq!(b.quota_state(PodId(0)).unwrap().q_used, SimTime::ZERO);
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
        let grants = b.release_idle(t(1), PodId(0));
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].pod, PodId(2));
        assert_eq!(b.waiting(), 1); // pod 1 still queued behind
    }

    #[test]
    fn class_rank_outranks_q_miss() {
        let mut b = fast_backend(5);
        // One holder plus two waiters: a best-effort pod with a huge
        // timing gap and a latency-critical pod with a small one. The LC
        // pod must win the next token despite losing on Q_miss.
        b.register(PodId(0), spec(60.0, 0.5, 1.0));
        b.register_class(PodId(1), spec(60.0, 0.8, 1.0), PodClass::BestEffort);
        b.register_class(PodId(2), spec(60.0, 0.2, 1.0), PodClass::LatencyCritical);
        assert_eq!(b.class_of(PodId(1)), Some(PodClass::BestEffort));
        assert_eq!(b.class_of(PodId(0)), Some(PodClass::LatencyCritical));
        assert!(matches!(
            req(&mut b, SimTime::ZERO, PodId(0)),
            RequestOutcome::Granted(_)
        ));
        assert_eq!(req(&mut b, SimTime::ZERO, PodId(1)), RequestOutcome::Queued);
        assert_eq!(req(&mut b, SimTime::ZERO, PodId(2)), RequestOutcome::Queued);
        let grants = b.release_idle(t(1), PodId(0));
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].pod, PodId(2), "LC dispatches before BE");
    }

    #[test]
    fn lease_survives_within_duration_and_quota() {
        let mut b = fast_backend(10);
        b.register(PodId(0), spec(24.0, 1.0, 1.0));
        let RequestOutcome::Granted(g) = req(&mut b, SimTime::ZERO, PodId(0)) else {
            panic!()
        };
        b.begin_burst(PodId(0)).unwrap();
        let out = b.sync_point(t(2), PodId(0), t(2)).unwrap();
        assert!(out.lease_valid);
        // Re-request within lease: same epoch, no new dispatch.
        let RequestOutcome::Granted(g2) = req(&mut b, t(3), PodId(0)) else {
            panic!()
        };
        assert_eq!(g2.epoch, g.epoch);
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
        // Sync after the 5ms lease expired → pod 1 granted.
        let out = b.sync_point(t(6), PodId(0), t(6)).unwrap();
        assert!(!out.lease_valid);
        assert_eq!(out.granted.len(), 1);
        assert_eq!(out.granted[0].pod, PodId(1));
    }

    #[test]
    fn lease_timer_reclaims_host_gap_holder() {
        let mut b = fast_backend(5);
        b.register(PodId(0), spec(60.0, 1.0, 1.0));
        b.register(PodId(1), spec(60.0, 1.0, 1.0));
        let RequestOutcome::Granted(g) = req(&mut b, SimTime::ZERO, PodId(0)) else {
            panic!()
        };
        assert_eq!(req(&mut b, SimTime::ZERO, PodId(1)), RequestOutcome::Queued);
        // Pod 0 sits in a host phase (no burst). Timer fires at expiry.
        let grants = b.on_lease_timer(g.expires, PodId(0), g.epoch);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].pod, PodId(1));
        assert_eq!(b.holders(), 1);
    }

    #[test]
    fn stale_lease_timer_is_ignored() {
        let mut b = fast_backend(5);
        b.register(PodId(0), spec(24.0, 1.0, 1.0));
        let RequestOutcome::Granted(g1) = req(&mut b, SimTime::ZERO, PodId(0)) else {
            panic!()
        };
        // Pod releases and re-acquires: epoch moves on.
        b.release_idle(t(1), PodId(0));
        let RequestOutcome::Granted(g2) = req(&mut b, t(2), PodId(0)) else {
            panic!()
        };
        assert_ne!(g1.epoch, g2.epoch);
        // The old timer fires and must not reclaim the new lease.
        let grants = b.on_lease_timer(g1.expires, PodId(0), g1.epoch);
        assert!(grants.is_empty());
        assert_eq!(b.holders(), 1);
    }

    #[test]
    fn lease_timer_mid_burst_defers_to_sync() {
        let mut b = fast_backend(5);
        b.register(PodId(0), spec(60.0, 1.0, 1.0));
        b.register(PodId(1), spec(60.0, 1.0, 1.0));
        let RequestOutcome::Granted(g) = req(&mut b, SimTime::ZERO, PodId(0)) else {
            panic!()
        };
        assert_eq!(req(&mut b, SimTime::ZERO, PodId(1)), RequestOutcome::Queued);
        b.begin_burst(PodId(0)).unwrap();
        // Timer fires mid-burst: nothing happens (SMs are busy).
        assert!(b.on_lease_timer(g.expires, PodId(0), g.epoch).is_empty());
        assert_eq!(b.holders(), 1);
        // The sync then releases.
        let out = b.sync_point(t(7), PodId(0), t(7)).unwrap();
        assert!(!out.lease_valid);
        assert_eq!(out.granted[0].pod, PodId(1));
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
        assert!(matches!(
            req(&mut b, SimTime::ZERO, PodId(0)),
            RequestOutcome::Granted(_)
        ));
        assert_eq!(req(&mut b, SimTime::ZERO, PodId(1)), RequestOutcome::Queued);
        assert_eq!(req(&mut b, SimTime::ZERO, PodId(2)), RequestOutcome::Queued);
        assert_eq!(b.holders(), 1);
        let grants = b.release_idle(t(1), PodId(0));
        assert_eq!(grants.len(), 1, "only one successor under time sharing");
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
        let out = b.sync_point(t(500), PodId(0), t(500)).unwrap();
        assert!(out.lease_valid);
        b.begin_burst(PodId(0)).unwrap();
        // Hits the 800ms limit → blocked.
        let out = b.sync_point(t(900), PodId(0), t(400)).unwrap();
        assert!(!out.lease_valid);
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
        let grants = b.deregister(t(1), PodId(0));
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].pod, PodId(1));
        assert!(b.quota_state(PodId(0)).is_none());
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn double_registration_panics() {
        let mut b = fast_backend(5);
        b.register(PodId(0), spec(10.0, 0.5, 0.5));
        b.register(PodId(0), spec(10.0, 0.5, 0.5));
    }

    #[test]
    fn fifo_dispatch_ignores_q_miss() {
        let mut b = FastBackend::new(BackendConfig {
            policy: SharingPolicy::FaST,
            window: SimTime::from_secs(1),
            token_lease: SimTime::from_millis(5),
            dispatch_order: DispatchOrder::Fifo,
            ..BackendConfig::default()
        });
        b.register(PodId(0), spec(60.0, 0.5, 1.0));
        b.register(PodId(1), spec(60.0, 0.2, 1.0)); // low Q_miss, queues first
        b.register(PodId(2), spec(60.0, 0.8, 1.0)); // high Q_miss, queues later
        assert!(matches!(
            req(&mut b, SimTime::ZERO, PodId(0)),
            RequestOutcome::Granted(_)
        ));
        assert_eq!(req(&mut b, SimTime::ZERO, PodId(1)), RequestOutcome::Queued);
        assert_eq!(req(&mut b, SimTime::ZERO, PodId(2)), RequestOutcome::Queued);
        // Under FIFO, pod 1 (earlier arrival) wins despite the smaller
        // timing gap — the opposite of q_miss_priority_orders_dispatch.
        let grants = b.release_idle(t(1), PodId(0));
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].pod, PodId(1));
    }

    #[test]
    fn burst_estimator_learns_from_syncs() {
        let mut b = fast_backend(50);
        b.register(PodId(0), spec(24.0, 1.0, 1.0));
        assert_eq!(b.burst_estimate(PodId(0)), None);
        for _ in 0..5 {
            let RequestOutcome::Granted(_) = req(&mut b, SimTime::ZERO, PodId(0)) else {
                panic!()
            };
            b.begin_burst(PodId(0)).unwrap();
            b.sync_point(t(1), PodId(0), t(2)).unwrap();
        }
        assert_eq!(b.burst_estimate(PodId(0)), Some(t(2)));
    }

    #[test]
    fn strict_admission_defers_overrunning_burst() {
        let mut b = FastBackend::new(BackendConfig {
            policy: SharingPolicy::FaST,
            window: SimTime::from_secs(1),
            token_lease: SimTime::from_millis(500),
            strict_admission: true,
            ..BackendConfig::default()
        });
        // Quota 300ms/window; bursts measure ~200ms.
        b.register(PodId(0), spec(24.0, 0.3, 0.3));
        let RequestOutcome::Granted(_) = req(&mut b, SimTime::ZERO, PodId(0)) else {
            panic!()
        };
        b.begin_burst(PodId(0)).unwrap();
        let out = b.sync_point(t(200), PodId(0), t(200)).unwrap();
        // Lease (500ms) still valid and quota (200 < 300) not exhausted…
        assert!(out.lease_valid);
        b.begin_burst(PodId(0)).unwrap();
        let out = b.sync_point(t(400), PodId(0), t(200)).unwrap();
        // …but now 400ms > 300ms limit: blocked to the next window.
        assert!(!out.lease_valid);
        assert_eq!(
            req(&mut b, t(400), PodId(0)),
            RequestOutcome::BlockedUntilReset
        );
        // After the reset, q_used = 0: strict admission still grants
        // (fresh-window progress guarantee) even though one estimated
        // burst (200ms) fits 300ms anyway.
        let grants = b.on_window_reset(t(1000));
        assert_eq!(grants.len(), 1);
        b.begin_burst(PodId(0)).unwrap();
        let _ = b.sync_point(t(1200), PodId(0), t(200)).unwrap();
        // q_used = 200, estimate ~200: 200 + 200 > 300 → strict admission
        // defers the pod to the next window instead of letting it overrun.
        let outcome = req(&mut b, t(1200), PodId(0));
        assert_eq!(outcome, RequestOutcome::Queued);
        assert_eq!(b.holders(), 0);
        // The next reset re-admits it.
        let grants = b.on_window_reset(t(2000));
        assert_eq!(grants.len(), 1);
    }

    #[test]
    fn adaptive_lease_follows_estimate() {
        let mut b = FastBackend::new(BackendConfig {
            policy: SharingPolicy::FaST,
            window: SimTime::from_secs(1),
            token_lease: SimTime::from_millis(100),
            adaptive_lease: true,
            ..BackendConfig::default()
        });
        b.register(PodId(0), spec(24.0, 1.0, 1.0));
        // First grant: no estimate yet → full lease.
        let RequestOutcome::Granted(g) = req(&mut b, SimTime::ZERO, PodId(0)) else {
            panic!()
        };
        assert_eq!(g.expires, t(100));
        b.begin_burst(PodId(0)).unwrap();
        // Burn past the lease so it is re-acquired with an estimate.
        let _ = b.sync_point(t(150), PodId(0), t(2)).unwrap();
        let RequestOutcome::Granted(g) = req(&mut b, t(150), PodId(0)) else {
            panic!()
        };
        // Estimate 2ms → lease 4 × 2 = 8ms.
        assert_eq!(g.expires, t(150) + t(8));
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
        b.force_deregister(t(1), PodId(0));
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
        assert!(b.release_idle(t(3), ghost).is_empty());
        assert!(b.on_lease_timer(t(3), ghost, 0).is_empty());
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

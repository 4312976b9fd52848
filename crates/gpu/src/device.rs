//! The GPU execution engine: per-client in-order kernel streams over a
//! shared SM pool.
//!
//! The device is a *pure state machine*. `launch` and `on_kernel_finish`
//! return [`KernelStart`] effects carrying absolute finish timestamps; the
//! caller owns the event loop and schedules a finish callback for each
//! effect. This inversion keeps the device independently testable and free
//! of event-queue coupling.
//!
//! ## Execution model
//!
//! * Each MPS client has one in-order stream (CUDA default-stream
//!   semantics): at most one of its kernels is resident at a time; queued
//!   launches wait behind it. Cross-client kernels run concurrently — that
//!   is the Hyper-Q/MPS behaviour FaST-GShare's spatial sharing exploits.
//! * A kernel with `blocks` thread-blocks starting when `free` SMs are
//!   available is granted `granted = min(sm_cap(client), blocks, free)` SMs
//!   and runs for `ceil(blocks / granted) × work_per_block` (wave
//!   execution). It holds `granted` SMs for its whole residency
//!   (non-preemptive; real SMs run resident blocks to completion, and MPS
//!   partitions are enforced at block dispatch).
//! * A kernel needing SMs when none are free waits in a FIFO of ready
//!   clients; this creates the queueing contention that blows up tail
//!   latency in the paper's "racing" (over-subscribed, no temporal control)
//!   configuration.

use crate::error::GpuError;
use crate::memory::GpuMemory;
use crate::metrics::GpuMetrics;
use crate::mps::{MpsError, MpsMode, MpsServer};
use crate::spec::GpuSpec;
use fastg_des::snap::SnapError;
use fastg_des::{sanitizer, snap_struct, SimTime};
use std::collections::VecDeque;

pub use crate::mps::ClientId;

/// The largest kernel-duration multiplier a device accepts (see
/// [`GpuDevice::set_clock_scale`]): a millionfold slowdown, under which a
/// 1 µs kernel takes a second. A device that slow has stopped serving
/// within any simulated horizon, and the bound keeps every scaled kernel
/// duration, and every burst end summed from them, far inside the
/// microsecond clock.
pub const MAX_CLOCK_SCALE: f64 = 1e6;

/// The multiplier [`GpuDevice::set_clock_scale`] installs for `factor`:
/// values ≤ 0 (and NaN) become 1.0, values above [`MAX_CLOCK_SCALE`] the
/// bound.
pub fn clamp_clock_scale(factor: f64) -> f64 {
    if factor > 0.0 {
        factor.min(MAX_CLOCK_SCALE)
    } else {
        1.0
    }
}

/// Identifies one kernel launch on one device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KernelId(pub u64);

/// Description of a kernel launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelDesc {
    /// Number of thread-blocks in the grid. Bounds the kernel's usable
    /// parallelism: granting more SMs than blocks cannot speed it up —
    /// this is what makes throughput saturate along the spatial axis
    /// (paper Figure 8).
    pub blocks: u32,
    /// Time for one SM to retire one block (one wave slot).
    pub work_per_block: SimTime,
    /// Caller-defined tag threaded through to [`KernelStart`] /
    /// [`KernelDone`] (the platform stores a request/stage cookie here).
    pub tag: u64,
}

impl KernelDesc {
    /// Total SM-time this kernel needs regardless of how it is scheduled.
    pub fn total_work(&self) -> SimTime {
        self.work_per_block * u64::from(self.blocks)
    }
}

/// Effect: a kernel became resident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelStart {
    /// The launch this effect belongs to.
    pub kernel: KernelId,
    /// Owning MPS client.
    pub client: ClientId,
    /// Caller tag from the [`KernelDesc`].
    pub tag: u64,
    /// SMs granted for the kernel's residency.
    pub granted_sms: u32,
    /// When it became resident.
    pub started: SimTime,
    /// Absolute time at which the caller must invoke
    /// [`GpuDevice::on_kernel_finish`].
    pub finish_at: SimTime,
}

/// Result of completing a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelDone {
    /// The completed launch.
    pub kernel: KernelId,
    /// Owning MPS client.
    pub client: ClientId,
    /// Caller tag from the [`KernelDesc`].
    pub tag: u64,
    /// Residency duration (the GPU time the FaST Backend charges against
    /// the pod's quota).
    pub gpu_time: SimTime,
    /// SMs the kernel held.
    pub granted_sms: u32,
}

#[derive(Debug, Clone)]
struct Running {
    client: ClientId,
    tag: u64,
    granted: u32,
    started: SimTime,
}

/// A fast-forwarded burst: `count` back-to-back launches of `desc`, each
/// granted `granted` SMs for `duration` (the wave arithmetic is paid once
/// per burst).
#[derive(Debug, Clone, Copy, PartialEq)]
struct FfRun {
    desc: KernelDesc,
    count: u32,
    granted: u32,
    duration: SimTime,
}

impl FfRun {
    /// `count` launches of `desc` at SM cap `cap`, on a clock scaled by
    /// `clock_scale`. Same wave arithmetic as `start_head`; in the capped
    /// regime `free_sms` never binds below `min(cap, blocks)`. A kernel
    /// that fits its cap runs one wave, without a division.
    fn capped(desc: KernelDesc, count: u32, cap: u32, clock_scale: f64) -> Self {
        let blocks = desc.blocks.max(1);
        let granted = cap.min(blocks);
        let waves = if granted == blocks {
            1
        } else {
            u64::from(blocks.div_ceil(granted))
        };
        let nominal = desc.work_per_block * waves;
        let duration = if (clock_scale - 1.0).abs() < f64::EPSILON {
            nominal
        } else {
            nominal.scale(clock_scale)
        };
        FfRun {
            desc,
            count,
            granted,
            duration,
        }
    }

    /// The whole burst's span, `count` kernels back to back; `None` if it
    /// does not fit the microsecond clock.
    fn span(&self) -> Option<SimTime> {
        let span = self.duration.as_micros().checked_mul(u64::from(self.count))?;
        Some(SimTime::from_micros(span))
    }
}

/// The analytic schedule of one client's uncontended burst, settled up to
/// some instant. Kernel `done` is the resident kernel: its grant is out of
/// `free_sms`, and every earlier kernel's finish is in the completion
/// tallies (each finish hands its SMs straight to its successor). The
/// occupied area of `[start, credited]` has been credited to the occupancy
/// integral; `credited` always lies inside the resident kernel's interval.
#[derive(Debug, Clone)]
struct FfTimeline {
    client: ClientId,
    /// The SM cap the client had when the burst was admitted, which the
    /// run's grant is computed from and which the timeline adds to the
    /// device's cap sum while it lives (derived from the MPS table on
    /// decode). The platform breaks a node's timelines before it
    /// repartitions, so in practice it is always the client's current
    /// cap.
    cap: u32,
    /// The burst, back to back (gapless).
    run: FfRun,
    /// When the burst's first kernel started.
    start: SimTime,
    /// Finished kernels; `run.count` once the burst ended.
    done: u32,
    /// Instant up to which the occupied area has been credited.
    credited: SimTime,
    /// When the burst's final kernel finishes (derived).
    end: SimTime,
}

impl FfTimeline {
    /// Rebuilds a timeline from its encoded parts, deriving the burst end.
    /// A live timeline has a resident kernel whose interval holds the
    /// credited point, and its whole burst fits the clock. The cap is left
    /// 0 for the device's decode to derive.
    fn from_parts(
        client: ClientId,
        run: FfRun,
        start: SimTime,
        done: u32,
        credited: SimTime,
    ) -> Result<Self, SnapError> {
        if done >= run.count {
            return Err(SnapError::new("ff resident kernel"));
        }
        let end = run
            .span()
            .and_then(|span| start.checked_add(span))
            .ok_or(SnapError::new("ff timeline span"))?;
        let kernel_start = start + run.duration * u64::from(done);
        if credited < kernel_start || credited > kernel_start + run.duration {
            return Err(SnapError::new("ff credited point"));
        }
        Ok(FfTimeline {
            client,
            cap: 0,
            run,
            start,
            done,
            credited,
            end,
        })
    }

    /// When the resident kernel started (the burst end once it ended).
    fn resident_start(&self) -> SimTime {
        self.start + self.served()
    }

    /// GPU time of the settled finishes (the burst is gapless, so it is
    /// the span from the burst start to the resident kernel's start).
    fn served(&self) -> SimTime {
        self.run.duration * u64::from(self.done)
    }

    /// Brings this timeline alone up to `now`. The finishes strictly
    /// before `now` (or at `now` too, when `inclusive`) are settled, up to
    /// the last kernel only when `end_burst`, and counted with one
    /// division of the time elapsed since the burst started; the burst's
    /// end hands its grant back to `free_sms`. The occupied area since the
    /// credited point goes to the occupancy integral as one exact integer
    /// (SM × µs), so the order in which timelines settle cannot change any
    /// metric bit.
    fn settle(
        &mut self,
        now: SimTime,
        inclusive: bool,
        end_burst: bool,
        free_sms: &mut u32,
        metrics: &mut GpuMetrics,
    ) {
        let r = self.run;
        let stop = if end_burst { r.count } else { r.count - 1 };
        // Kernel `i` finishes at `start + (i + 1) × duration`; count those
        // at or (strictly) before `now`. A zero-duration burst finishes
        // whole at its start, so it takes one of the first two arms and
        // never reaches the division.
        let done = if now > self.end || (now == self.end && inclusive) {
            r.count
        } else if now <= self.start {
            0
        } else {
            let elapsed = (now - self.start).as_micros() - u64::from(!inclusive);
            u32::try_from(elapsed / r.duration.as_micros()).unwrap_or(u32::MAX)
        }
        .min(stop);
        let (mut area, mut finished, mut busy) = (0u64, 0u32, SimTime::ZERO);
        if done > self.done {
            let (from, to) = (self.resident_start(), self.start + r.duration * u64::from(done));
            area = u64::from(r.granted) * to.saturating_sub(self.credited).as_micros();
            finished = done - self.done;
            busy = to - from;
            self.credited = to;
            self.done = done;
            if done == r.count {
                *free_sms += r.granted;
            }
        }
        if self.done < r.count {
            let upto = now.min(self.end);
            if sanitizer::active() {
                let credited = self.credited;
                sanitizer::check(upto >= credited, "ff-credit-order", || {
                    format!(
                        "{:?}: credited point {credited:?} would move back to {upto:?} (now {now:?}, burst end {:?})",
                        self.client, self.end
                    )
                });
            }
            area += u64::from(r.granted) * upto.saturating_sub(self.credited).as_micros();
            self.credited = self.credited.max(upto);
        }
        metrics.ff_settled(self.client, area, u64::from(finished), busy);
    }
}

/// Result of completing an entire fast-forwarded burst
/// ([`GpuDevice::ff_complete`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FfDone {
    /// Kernels the burst completed.
    pub completed: u64,
    /// Total GPU residency time across all of them (what the FaST Backend
    /// charges at the synchronization point).
    pub gpu_time: SimTime,
}

/// Result of invalidating a fast-forwarded burst mid-flight
/// ([`GpuDevice::ff_break`]): the analytically reconstructed per-kernel
/// state the caller resumes stepping from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FfBreak {
    /// Kernels whose completion had already been accounted.
    pub completed: u64,
    /// Total GPU time of those completions.
    pub gpu_time: SimTime,
    /// The kernel that was mid-flight at the break instant, now a real
    /// resident; the caller must schedule its finish at
    /// [`KernelStart::finish_at`]. Remaining kernels were requeued into
    /// the client's stream and start through the normal per-kernel path.
    pub resumed: KernelStart,
}

/// A client alone on an idle device, inside the capped regime: every
/// burst it launches would run as [`GpuDevice::fast_forward_burst`] runs
/// it, with its full grant and nothing settling it before its end. The
/// lane computes such a burst's shape without building a timeline
/// ([`Self::burst`]), and [`GpuDevice::credit_solo`] credits whole
/// bursts in one update. Valid while nothing else touches the device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoloLane {
    client: ClientId,
    cap: u32,
    clock_scale: f64,
}

/// One burst on a [`SoloLane`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoloBurst {
    /// Kernels in the burst.
    pub kernels: u32,
    /// SMs each kernel holds.
    pub granted: u32,
    /// The burst's span, its kernels back to back: the GPU time its sync
    /// point charges.
    pub span: SimTime,
}

impl SoloLane {
    /// `count` back-to-back launches of `desc`, shaped by the arithmetic
    /// [`GpuDevice::fast_forward_burst`] uses; `None` when that call would
    /// refuse the burst (empty, or its span past the end of the clock).
    pub fn burst(&self, desc: KernelDesc, count: u32) -> Option<SoloBurst> {
        if count == 0 {
            return None;
        }
        let run = FfRun::capped(desc, count, self.cap, self.clock_scale);
        Some(SoloBurst {
            kernels: count,
            granted: run.granted,
            span: run.span()?,
        })
    }
}

/// Whole bursts run on a [`SoloLane`], summed for
/// [`GpuDevice::credit_solo`]. Every sum is checked.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BurstTally {
    /// Bursts.
    pub bursts: u64,
    /// Kernels of those bursts.
    pub kernels: u64,
    /// Their spans: the device's busy time and the client's GPU time.
    pub busy: SimTime,
    /// Their occupied area, grant × span (SM × µs).
    pub occupied_sm_us: u64,
}

impl BurstTally {
    /// Adds `burst`. Returns false, leaving the tally as it was, when a
    /// sum would overflow.
    pub fn add(&mut self, burst: &SoloBurst) -> bool {
        match self.plus(burst) {
            Some(sums) => {
                *self = sums;
                true
            }
            None => false,
        }
    }

    fn plus(&self, burst: &SoloBurst) -> Option<BurstTally> {
        let span = burst.span.as_micros();
        Some(BurstTally {
            bursts: self.bursts.checked_add(1)?,
            kernels: self.kernels.checked_add(u64::from(burst.kernels))?,
            busy: SimTime::from_micros(self.busy.as_micros().checked_add(span)?),
            occupied_sm_us: u64::from(burst.granted)
                .checked_mul(span)
                .and_then(|area| self.occupied_sm_us.checked_add(area))?,
        })
    }
}

#[derive(Debug, Clone, Default)]
struct ClientStream {
    queued: VecDeque<KernelDesc>,
    running: Option<KernelId>,
    waiting: bool,
}

/// A simulated GPU: spec, MPS server, SM pool, memory and metrics.
///
/// ```
/// use fastg_gpu::{GpuDevice, GpuSpec, KernelDesc, MpsMode};
/// use fastg_des::SimTime;
///
/// let mut gpu = GpuDevice::new(GpuSpec::v100(), MpsMode::Shared);
/// let client = gpu.register_client(12.0).unwrap(); // 12 % ≈ 10 SMs
/// let start = gpu
///     .launch(SimTime::ZERO, client, KernelDesc {
///         blocks: 19,
///         work_per_block: SimTime::from_micros(200),
///         tag: 0,
///     })
///     .unwrap()
///     .expect("idle stream starts immediately");
/// // 19 blocks on 10 SMs = 2 waves of 200 µs.
/// assert_eq!(start.finish_at, SimTime::from_micros(400));
/// let (done, _) = gpu.on_kernel_finish(start.finish_at, start.kernel).unwrap();
/// assert_eq!(done.gpu_time, SimTime::from_micros(400));
/// ```
#[derive(Debug, Clone)]
pub struct GpuDevice {
    spec: GpuSpec,
    mps: MpsServer,
    memory: GpuMemory,
    metrics: GpuMetrics,
    free_sms: u32,
    /// Per-client streams, keyed by linear scan: a device hosts a handful
    /// of clients, and the kernel-completion path runs hot enough that a
    /// short Vec probe beats tree traversal.
    streams: Vec<(ClientId, ClientStream)>,
    /// Resident kernels (same linear-scan rationale; at most one kernel
    /// per client stream is resident at a time).
    running: Vec<(KernelId, Running)>,
    /// Clients whose stream head is ready but could not be granted SMs,
    /// in arrival order.
    wait_queue: VecDeque<ClientId>,
    next_kernel: u64,
    /// Kernel-duration multiplier (≥ 1.0). 1.0 is full speed; a degraded
    /// device (thermal throttling analogue) stretches every kernel started
    /// while the scale is raised. Resident kernels keep their durations.
    clock_scale: f64,
    /// Active fast-forward timelines, one per coalesced client burst.
    /// Each settles on its own, only where device state is read (see
    /// [`Self::ff_sync`]).
    ff: Vec<FfTimeline>,
    /// The capped regime's running cap sum: each live timeline's cap, plus
    /// the MPS cap of each client whose stream has a resident or queued
    /// kernel. Derived; every change of one client's state adds that
    /// client's delta (see [`Self::footprint`]).
    active_caps: u64,
    /// Resident kernels granted more SMs than their owner's current cap
    /// (only a repartition under a resident kernel makes one). Derived
    /// like `active_caps`.
    over_cap: u32,
}

impl GpuDevice {
    /// Creates a device with the given spec and MPS mode.
    pub fn new(spec: GpuSpec, mode: MpsMode) -> Self {
        let mps = MpsServer::new(&spec, mode);
        let memory = GpuMemory::new(spec.memory_bytes);
        let metrics = GpuMetrics::new(spec.sm_count);
        let free_sms = spec.sm_count;
        GpuDevice {
            spec,
            mps,
            memory,
            metrics,
            free_sms,
            streams: Vec::new(),
            running: Vec::new(),
            wait_queue: VecDeque::new(),
            next_kernel: 0,
            clock_scale: 1.0,
            ff: Vec::new(),
            active_caps: 0,
            over_cap: 0,
        }
    }

    /// The hardware spec.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// The MPS server (client registry, spatial partitions).
    pub fn mps(&self) -> &MpsServer {
        &self.mps
    }

    /// Device memory allocator.
    pub fn memory(&self) -> &GpuMemory {
        &self.memory
    }

    /// Mutable device memory allocator.
    pub fn memory_mut(&mut self) -> &mut GpuMemory {
        &mut self.memory
    }

    /// Metric accounting.
    pub fn metrics(&self) -> &GpuMetrics {
        &self.metrics
    }

    /// Mutable metric accounting (for window sampling).
    pub fn metrics_mut(&mut self) -> &mut GpuMetrics {
        &mut self.metrics
    }

    /// SMs not currently granted to any resident kernel.
    pub fn free_sms(&self) -> u32 {
        self.free_sms
    }

    /// Current kernel-duration multiplier (1.0 = full speed).
    pub fn clock_scale(&self) -> f64 {
        self.clock_scale
    }

    /// Sets the kernel-duration multiplier. Values above 1.0 model a
    /// degraded device (clock throttling): every *subsequently started*
    /// kernel takes `factor ×` its nominal duration. Resident kernels are
    /// unaffected. The factor is clamped by [`clamp_clock_scale`].
    pub fn set_clock_scale(&mut self, factor: f64) {
        debug_assert!(
            self.ff.is_empty(),
            "clock change invalidates fast-forward (caller must ff_break first)"
        );
        self.clock_scale = clamp_clock_scale(factor);
    }

    fn stream_mut(&mut self, client: ClientId) -> Option<&mut ClientStream> {
        self.streams
            .iter_mut()
            .find(|(id, _)| *id == client)
            .map(|(_, s)| s)
    }

    /// Hard-resets the device, as when its node loses power: every resident
    /// kernel is aborted (accounted as busy time but not as a completion),
    /// all queued work is discarded, every MPS client is unregistered, all
    /// device memory is reclaimed and the full SM pool is freed. The clock
    /// scale returns to 1.0.
    ///
    /// [`KernelId`]s are *not* reused after a reset, so stale finish events
    /// scheduled before the crash can be recognised and dropped by the
    /// caller ([`Self::on_kernel_finish`] returns
    /// [`GpuError::KernelNotResident`] for them).
    pub fn hard_reset(&mut self, now: SimTime) {
        // Settle every timeline up to the crash instant, then abort its
        // in-flight kernel: its area is credited and its SMs never entered
        // the live occupancy value, so only the busy interval ends (busy
        // time accounted, no completion).
        self.ff_sync(now);
        for _ in self.ff.drain(..) {
            self.metrics.ff_end(now);
        }
        let running = std::mem::take(&mut self.running);
        for (_, run) in running {
            self.metrics.kernel_aborted(now, run.granted);
        }
        self.streams.clear();
        self.wait_queue.clear();
        self.active_caps = 0;
        self.over_cap = 0;
        self.free_sms = self.spec.sm_count;
        self.memory = GpuMemory::new(self.spec.memory_bytes);
        for client in self.mps.client_ids() {
            let _ = self.mps.unregister(client);
        }
        self.clock_scale = 1.0;
    }

    /// Whether a kernel id refers to a currently resident kernel. After a
    /// [`Self::hard_reset`] all previously resident kernels report `false`;
    /// callers use this to discard stale finish events.
    pub fn is_resident(&self, kernel: KernelId) -> bool {
        self.running.iter().any(|(id, _)| *id == kernel)
    }

    /// Number of kernels currently resident.
    pub fn resident_kernels(&self) -> usize {
        self.running.len()
    }

    /// The latest start among the resident kernels and the fast-forward
    /// timelines' bursts, if any is on the device. A snapshot's device
    /// can have started nothing after the snapshot's clock.
    pub fn latest_start(&self) -> Option<SimTime> {
        let resident = self.running.iter().map(|(_, r)| r.started);
        resident.chain(self.ff.iter().map(|t| t.start)).max()
    }

    /// Registers an MPS client with an active-thread percentage.
    pub fn register_client(&mut self, percentage: f64) -> Result<ClientId, MpsError> {
        let id = self.mps.register(percentage)?;
        self.streams.push((id, ClientStream::default()));
        Ok(id)
    }

    /// Changes a client's spatial partition. Takes effect for subsequent
    /// kernel starts; resident kernels keep their grant, and a live
    /// timeline keeps the cap its grants were computed from, so the cap
    /// sum moves by the client's stream share alone.
    pub fn set_partition(&mut self, client: ClientId, percentage: f64) -> Result<(), MpsError> {
        debug_assert!(
            self.ff.is_empty(),
            "repartition invalidates fast-forward (caller must ff_break first)"
        );
        let (caps, over) = self.footprint(client);
        self.mps.set_percentage(client, percentage)?;
        let (new_caps, new_over) = self.footprint(client);
        self.active_caps = self.active_caps + new_caps - caps;
        self.over_cap = self.over_cap + new_over - over;
        Ok(())
    }

    /// `client`'s share of the running counts: each live timeline's cap,
    /// its MPS cap if its stream has a resident or queued kernel, and 1 if
    /// its resident kernel is granted more than that cap.
    fn footprint(&self, client: ClientId) -> (u64, u32) {
        let Ok(cap) = self.mps.sm_cap(client) else {
            return (0, 0);
        };
        let timelines: u64 = self
            .ff
            .iter()
            .filter(|t| t.client == client)
            .map(|t| u64::from(t.cap))
            .sum();
        let stream = self.streams.iter().find(|(id, _)| *id == client).map(|(_, s)| s);
        let busy = stream.is_some_and(|s| s.running.is_some() || !s.queued.is_empty());
        let over = stream.and_then(|s| s.running).is_some_and(|k| {
            self.running.iter().any(|(rk, r)| *rk == k && r.granted > cap)
        });
        let stream_cap = if busy { u64::from(cap) } else { 0 };
        (timelines + stream_cap, u32::from(over))
    }

    /// Unregisters a client.
    ///
    /// # Errors
    /// [`GpuError::WorkInFlight`] if the client still has queued or
    /// resident kernels — the caller (pod teardown) must drain first; the
    /// client stays registered.
    pub fn unregister_client(&mut self, client: ClientId) -> Result<(), GpuError> {
        if let Some((_, s)) = self.streams.iter().find(|(id, _)| *id == client) {
            if !s.queued.is_empty() || s.running.is_some() {
                return Err(GpuError::WorkInFlight(client));
            }
        }
        // A fast-forwarded burst is in-flight work even though the stream
        // looks idle (its kernels live in the timeline, not the queue).
        if self.ff.iter().any(|t| t.client == client) {
            return Err(GpuError::WorkInFlight(client));
        }
        self.streams.retain(|(id, _)| *id != client);
        self.wait_queue.retain(|&c| c != client);
        self.mps.unregister(client)?;
        Ok(())
    }

    /// Launches a kernel into `client`'s stream at time `now`. If the stream
    /// is idle and SMs are free the kernel becomes resident immediately and
    /// a [`KernelStart`] is returned; otherwise it waits.
    pub fn launch(
        &mut self,
        now: SimTime,
        client: ClientId,
        desc: KernelDesc,
    ) -> Result<Option<KernelStart>, GpuError> {
        self.ff_sync(now);
        debug_assert!(
            !self.ff.iter().any(|t| t.client == client),
            "launch into a fast-forwarded stream (caller must ff_break first)"
        );
        let cap = self.mps.sm_cap(client)?;
        let has_free_sms = self.free_sms > 0;
        let Some(stream) = self.stream_mut(client) else {
            debug_assert!(false, "registered client {client:?} has no stream");
            return Err(GpuError::MissingStream(client));
        };
        let was_idle = stream.running.is_none() && stream.queued.is_empty();
        stream.queued.push_back(desc);
        let head = stream.running.is_none() && !stream.waiting;
        if head && !has_free_sms {
            stream.waiting = true;
        }
        if was_idle {
            self.active_caps += u64::from(cap);
        }
        if head {
            if has_free_sms {
                return self.start_head(now, client).map(Some);
            }
            self.wait_queue.push_back(client);
        }
        Ok(None)
    }

    /// Completes a resident kernel. Returns its [`KernelDone`] record plus
    /// any kernels that became resident because SMs (or the stream) freed
    /// up.
    ///
    /// # Errors
    /// [`GpuError::KernelNotResident`] if `kernel` is not resident (e.g.
    /// completed twice, or a stale event from before a hard reset); the
    /// device state is unchanged.
    pub fn on_kernel_finish(
        &mut self,
        now: SimTime,
        kernel: KernelId,
    ) -> Result<(KernelDone, Vec<KernelStart>), GpuError> {
        let mut started = Vec::new();
        let done = self.on_kernel_finish_into(now, kernel, &mut started)?;
        Ok((done, started))
    }

    /// Like [`Self::on_kernel_finish`], but appends the newly started
    /// kernels to a caller-supplied buffer so the simulation's hottest
    /// event handler can reuse one allocation across every completion.
    pub fn on_kernel_finish_into(
        &mut self,
        now: SimTime,
        kernel: KernelId,
        started: &mut Vec<KernelStart>,
    ) -> Result<KernelDone, GpuError> {
        self.ff_sync(now);
        let i = self
            .running
            .iter()
            .position(|(id, _)| *id == kernel)
            .ok_or(GpuError::KernelNotResident(kernel))?;
        let (_, run) = self.running.swap_remove(i);
        self.free_sms += run.granted;
        debug_assert!(self.free_sms <= self.spec.sm_count);
        let gpu_time = now - run.started;
        self.metrics
            .kernel_finished(now, run.client, run.granted, gpu_time);
        let done = KernelDone {
            kernel,
            client: run.client,
            tag: run.tag,
            gpu_time,
            granted_sms: run.granted,
        };

        // The owner's stream is now idle; if it has queued work it joins the
        // back of the wait queue (round-robin fairness across clients).
        let mut went_idle = false;
        if let Some(stream) = self.stream_mut(run.client) {
            stream.running = None;
            went_idle = stream.queued.is_empty();
            if !went_idle && !stream.waiting {
                stream.waiting = true;
                self.wait_queue.push_back(run.client);
            }
        } else {
            debug_assert!(false, "resident kernel's client {:?} has no stream", run.client);
        }
        // The resident leaves the running counts, and so does its owner's
        // cap if the stream went idle.
        if let Ok(cap) = self.mps.sm_cap(run.client) {
            self.over_cap -= u32::from(run.granted > cap);
            if went_idle {
                self.active_caps -= u64::from(cap);
            }
        }

        // Admit waiting clients while SMs remain.
        while self.free_sms > 0 {
            let Some(client) = self.wait_queue.pop_front() else {
                break;
            };
            let Some(stream) = self.stream_mut(client) else {
                debug_assert!(false, "waiting client {client:?} has no stream");
                continue;
            };
            stream.waiting = false;
            if stream.queued.is_empty() || stream.running.is_some() {
                continue;
            }
            started.push(self.start_head(now, client)?);
        }
        if sanitizer::active() {
            self.sanitize_sm_conservation("on_kernel_finish");
        }
        Ok(done)
    }

    /// Starts the head kernel of `client`'s stream. Caller guarantees the
    /// stream is non-empty, not running, and `free_sms > 0`; a broken
    /// precondition surfaces as [`GpuError::MissingStream`].
    fn start_head(&mut self, now: SimTime, client: ClientId) -> Result<KernelStart, GpuError> {
        let Ok(cap) = self.mps.sm_cap(client) else {
            debug_assert!(false, "start_head on unregistered client {client:?}");
            return Err(GpuError::Mps(MpsError::UnknownClient(client)));
        };
        let Some(desc) = self.stream_mut(client).and_then(|s| s.queued.pop_front()) else {
            debug_assert!(false, "start_head on empty stream for {client:?}");
            return Err(GpuError::MissingStream(client));
        };
        let granted = cap.min(desc.blocks.max(1)).min(self.free_sms);
        debug_assert!(granted >= 1);
        if sanitizer::active() {
            sanitizer::check(
                granted <= cap && cap <= self.spec.sm_count,
                "sm-conservation",
                || {
                    format!(
                        "grant chain broken for {client:?}: granted {granted} <= cap {cap} <= device {}",
                        self.spec.sm_count
                    )
                },
            );
        }
        let waves = u64::from(desc.blocks.max(1).div_ceil(granted));
        let nominal = desc.work_per_block * waves;
        // `clock_scale` is only ever assigned exact values (1.0 or a
        // caller-provided factor), so a tight epsilon test is safe here.
        let duration = if (self.clock_scale - 1.0).abs() < f64::EPSILON {
            nominal
        } else {
            nominal.scale(self.clock_scale)
        };
        let id = KernelId(self.next_kernel);
        self.next_kernel += 1;
        self.free_sms -= granted;
        if let Some(stream) = self.stream_mut(client) {
            stream.running = Some(id);
        }
        self.running.push((
            id,
            Running {
                client,
                tag: desc.tag,
                granted,
                started: now,
            },
        ));
        self.metrics.kernel_started(now, granted);
        Ok(KernelStart {
            kernel: id,
            client,
            tag: desc.tag,
            granted_sms: granted,
            started: now,
            finish_at: now + duration,
        })
    }

    // ----- analytic fast-forward --------------------------------------
    //
    // When a burst runs in the *capped regime* — the SM caps of the
    // *active* clients (a resident kernel, queued kernels, a wait-queue
    // slot or a fast-forward timeline) fit in the device, nobody is
    // waiting for SMs, and no resident grant exceeds its owner's cap —
    // each kernel start is guaranteed its full `min(cap, blocks)` grant no
    // matter what other clients do, so a client's whole burst schedule can
    // be computed up front with wave arithmetic. Idle registered clients
    // hold no SMs and do not count: under token-based time sharing their
    // partitions may over-commit the device. The caller keeps the regime
    // while timelines live by breaking them before a client activates past
    // the budget (see [`GpuDevice::ff_admits`]). The device holds each
    // schedule as a timeline and settles it lazily, each timeline on its
    // own and only where device state is read (`ff_sync`). A timeline's
    // busy interval opens at burst start and closes at burst end; its SMs
    // stay out of the live occupancy value, and each settle credits the
    // elapsed occupied area as one integer (SM × µs). Per-kernel stepping
    // sums integer SMs × integer µs too, so every partial sum is an exact
    // integer below 2^53 and any grouping lands on the same bits:
    // utilization, occupancy, per-client busy time and completion counters
    // stay byte-identical to per-kernel stepping.

    /// Whether `client` may run inside the capped regime (see the comment
    /// above): nobody waits for SMs, every resident grant is within its
    /// owner's cap, and the caps of the active clients plus `client`'s own
    /// (if it is idle) sum to at most the device's SM count. This gates
    /// [`Self::fast_forward_burst`]; while timelines are live, a caller
    /// about to activate `client` per kernel must break them first when
    /// this is false.
    ///
    /// The device keeps the active clients' cap sum and the count of
    /// over-cap residents as it goes, so the test costs one lookup of
    /// `client`. A client with a timeline has an idle stream, so no client
    /// counts twice.
    pub fn ff_admits(&self, client: ClientId) -> bool {
        self.admission(client).is_some()
    }

    /// [`Self::ff_admits`]'s test: `None` when the capped regime refuses
    /// `client`, else `client`'s SM cap if it can start a timeline now
    /// (its stream is idle and it has none), which is what
    /// [`Self::fast_forward_burst`] needs.
    fn admission(&self, client: ClientId) -> Option<Option<u32>> {
        let admitted = self.admission_by_summary(client);
        if sanitizer::active() {
            self.sanitize_admission(client, admitted);
        }
        admitted
    }

    /// [`Self::admission`] from the running counts.
    fn admission_by_summary(&self, client: ClientId) -> Option<Option<u32>> {
        if !self.wait_queue.is_empty() || self.over_cap > 0 {
            return None;
        }
        // An idle `client` adds its own cap; an active one is counted. The
        // MPS table lists the streams' clients in the same order.
        let i = self.streams.iter().position(|(id, _)| *id == client);
        let (own, idle_cap) = match i.map(|i| (&self.streams[i].1, self.mps.cap_at(i))) {
            Some((s, Some((id, cap))))
                if s.running.is_none() && s.queued.is_empty() && !self.ff_active(client) =>
            {
                debug_assert_eq!(id, client, "stream table out of step with MPS");
                (u64::from(cap), (!s.waiting).then_some(cap))
            }
            _ => (0, None),
        };
        (self.active_caps + own <= u64::from(self.spec.sm_count)).then_some(idle_cap)
    }

    /// Shadow-check (`FASTG_SANITIZE=1`, rule `admission-summary`): the
    /// summary's answer equals [`Self::admission_by_scan`].
    #[cfg(debug_assertions)]
    fn sanitize_admission(&self, client: ClientId, admitted: Option<Option<u32>>) {
        let scan = self.admission_by_scan(client);
        sanitizer::check(admitted == scan, "admission-summary", || {
            format!(
                "admission of {client:?} answered {admitted:?}, the scan {scan:?} (cap sum {}, over-cap residents {})",
                self.active_caps, self.over_cap
            )
        });
    }

    /// Release builds compile the admission shadow-check out.
    #[cfg(not(debug_assertions))]
    #[inline(always)]
    fn sanitize_admission(&self, _client: ClientId, _admitted: Option<Option<u32>>) {}

    /// The admission test by scan, the sanitizer's oracle: one pass over
    /// the timelines, then one over the streams beside the MPS table,
    /// which lists the same clients in the same order.
    #[cfg(debug_assertions)]
    fn admission_by_scan(&self, client: ClientId) -> Option<Option<u32>> {
        if !self.wait_queue.is_empty() {
            return None;
        }
        let mut caps = 0u64;
        let mut counted = false;
        for t in &self.ff {
            caps += u64::from(t.cap);
            counted |= t.client == client;
        }
        // Waiting clients are active too, but any waiter refused above.
        let mut idle_cap = None;
        for ((id, s), (mps_id, cap)) in self.streams.iter().zip(self.mps.caps()) {
            debug_assert_eq!(*id, mps_id, "stream table out of step with MPS");
            if let Some(kernel) = s.running {
                let capped = self
                    .running
                    .iter()
                    .any(|(k, r)| *k == kernel && r.granted <= cap);
                if !capped {
                    return None;
                }
            } else if s.queued.is_empty() && (*id != client || counted) {
                continue;
            } else if *id == client && s.queued.is_empty() && !s.waiting {
                idle_cap = Some(cap);
            }
            caps += u64::from(cap);
        }
        (caps <= u64::from(self.spec.sm_count)).then_some(idle_cap)
    }

    /// Whether `client` has an active fast-forward timeline.
    pub fn ff_active(&self, client: ClientId) -> bool {
        self.ff.iter().any(|t| t.client == client)
    }

    /// Whether any fast-forward timeline is active on this device.
    pub fn has_ff(&self) -> bool {
        !self.ff.is_empty()
    }

    /// Attempts to coalesce a burst of `count` back-to-back launches of
    /// `desc` for `client` into one analytic timeline. On success the first
    /// kernel becomes (virtually) resident immediately — exactly as
    /// [`Self::launch`] would start it — and the completion time of the
    /// burst's final kernel is returned so the caller can schedule a single
    /// macro-event for it. Returns `None` (leaving the device untouched)
    /// when the burst is empty, ends past the end of the clock or is not
    /// provably uncontended: the caller must fall back to per-kernel
    /// launches.
    ///
    /// Other timelines are not settled: admission reads only the streams,
    /// the wait queue, the timeline list and the running counts, which
    /// pending boundaries never change, and in the capped regime the stale
    /// `free_sms` still covers this client's whole cap.
    pub fn fast_forward_burst(
        &mut self,
        now: SimTime,
        client: ClientId,
        desc: KernelDesc,
        count: u32,
    ) -> Option<SimTime> {
        if count == 0 {
            return None;
        }
        let cap = self.admission(client).flatten()?;
        let run = FfRun::capped(desc, count, cap, self.clock_scale);
        let end = run.span().and_then(|span| now.checked_add(span))?;
        debug_assert!(self.free_sms >= run.granted, "capped regime violated");
        self.free_sms -= run.granted;
        if sanitizer::active() {
            sanitizer::check(run.granted <= self.spec.sm_count, "sm-conservation", || {
                format!(
                    "fast-forward grant {} exceeds device {}",
                    run.granted, self.spec.sm_count
                )
            });
        }
        self.metrics.ff_begin(now);
        self.active_caps += u64::from(cap);
        self.ff.push(FfTimeline {
            client,
            cap,
            run,
            start: now,
            done: 0,
            credited: now,
            end,
        });
        Some(end)
    }

    /// `client`'s [`SoloLane`] when it could fast-forward a burst on a
    /// device where nothing is active; `None` otherwise.
    pub fn solo_lane(&self, client: ClientId) -> Option<SoloLane> {
        if !self.is_idle() {
            return None;
        }
        let cap = self.admission(client).flatten()?;
        Some(SoloLane {
            client,
            cap,
            clock_scale: self.clock_scale,
        })
    }

    /// Credits whole bursts `lane` ran while the device stayed idle, as
    /// if each had been fast-forwarded and completed in turn: the busy
    /// time, occupied area, completions and the client's GPU time that
    /// [`Self::fast_forward_burst`] and [`Self::ff_complete`] leave, as
    /// one exact integer sum each. Nothing else changes: each such pair
    /// hands its grant and its cap back.
    pub fn credit_solo(&mut self, lane: &SoloLane, tally: &BurstTally) {
        debug_assert!(self.is_idle(), "solo bursts credited on a busy device");
        if tally.bursts == 0 {
            return;
        }
        self.metrics
            .ff_bursts_credited(lane.client, tally.busy, tally.occupied_sm_us, tally.kernels);
    }

    /// Whether no client is active: none has a timeline, a resident or
    /// queued kernel, or a place in the wait queue. The running cap sum
    /// answers first, so a busy device is told apart in one load.
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.active_caps == 0
            && self.ff.is_empty()
            && self.running.is_empty()
            && self.wait_queue.is_empty()
    }

    /// Settles every timeline up to `now`, each on its own, applying
    /// finishes *strictly before* `now`. Called where device state is
    /// read: per-kernel launches and finishes (they need the true
    /// `free_sms`), breaks, resets, and the caller's metric samples.
    /// Finishes at exactly `now` stay pending, matching the event-queue
    /// order in which per-kernel stepping would deliver them (a finish
    /// scheduled in the past always outranks one scheduled at the current
    /// instant).
    pub fn ff_sync(&mut self, now: SimTime) {
        self.ff_sync_to(now, false);
    }

    /// Like [`Self::ff_sync`] but inclusive of finishes at exactly `now`:
    /// the report/sampling flush at the end of a run, where per-kernel
    /// stepping would already have delivered same-instant finish events.
    pub fn ff_sync_inclusive(&mut self, now: SimTime) {
        self.ff_sync_to(now, true);
    }

    fn ff_sync_to(&mut self, now: SimTime, inclusive: bool) {
        if self.ff.is_empty() {
            return;
        }
        for tl in &mut self.ff {
            tl.settle(now, inclusive, false, &mut self.free_sms, &mut self.metrics);
        }
        if sanitizer::active() {
            self.sanitize_sm_conservation("ff_sync");
        }
    }

    /// Shadow-check (`FASTG_SANITIZE=1`): every SM is either free or
    /// granted to exactly one resident kernel — real or fast-forwarded —
    /// at all times. Timelines settled to different instants each hold
    /// their resident kernel's grant, so the identity holds between
    /// settles too. O(residents); only ever runs with the sanitizer armed.
    fn sanitize_sm_conservation(&self, site: &'static str) {
        let granted: u32 = self
            .running
            .iter()
            .map(|(_, r)| r.granted)
            .chain(self.ff.iter().map(|t| t.run.granted))
            .sum();
        sanitizer::check(
            granted + self.free_sms == self.spec.sm_count,
            "sm-conservation",
            || {
                format!(
                    "{site}: granted {granted} + free {} != device {} ({} running, {} ff timelines)",
                    self.free_sms,
                    self.spec.sm_count,
                    self.running.len(),
                    self.ff.len()
                )
            },
        );
    }

    /// Completes a fast-forwarded burst at its macro-event time `now` (the
    /// analytic finish of its final kernel): settles this timeline alone
    /// to its end — its remaining area, completions and GPU time, its
    /// grant back into `free_sms`, and its busy interval's end — and
    /// returns the burst's totals for the caller's synchronization point.
    /// Returns `None` if `client` has no timeline (e.g. a stale
    /// macro-event after an invalidation the caller missed).
    pub fn ff_complete(&mut self, now: SimTime, client: ClientId) -> Option<FfDone> {
        let i = self.ff.iter().position(|t| t.client == client)?;
        let mut tl = self.ff.swap_remove(i);
        self.active_caps -= u64::from(tl.cap);
        let end = tl.end;
        debug_assert_eq!(end, now, "burst end mismatch");
        if sanitizer::active() {
            sanitizer::check(end == now, "ff-credit-order", || {
                format!("macro-event for {client:?} fired at {now:?} but its burst ends at {end:?}")
            });
        }
        tl.settle(end, true, true, &mut self.free_sms, &mut self.metrics);
        self.metrics.ff_end(now);
        if sanitizer::active() {
            self.sanitize_sm_conservation("ff_complete");
        }
        Some(FfDone {
            completed: u64::from(tl.done),
            gpu_time: tl.served(),
        })
    }

    /// Invalidates `client`'s fast-forwarded burst at `now`, analytically
    /// reconstructing exact per-kernel state: finishes strictly before
    /// `now` are settled, the mid-flight kernel is materialized as a real
    /// resident (its SMs rejoin the live occupancy value; the caller
    /// schedules its finish), and the untouched remainder is requeued into
    /// the client's stream for normal stepping under whatever contention
    /// change triggered the break.
    pub fn ff_break(&mut self, now: SimTime, client: ClientId) -> Option<FfBreak> {
        self.ff_sync(now);
        let i = self.ff.iter().position(|t| t.client == client)?;
        let tl = self.ff.swap_remove(i);
        let k = tl.run;
        let started = tl.resident_start();
        let finish = started + k.duration;
        if sanitizer::active() {
            // Strict-< sync left the mid-flight kernel resident: it must
            // span the break instant, or the reconstruction re-runs (or
            // drops) GPU time.
            sanitizer::check(started <= now && finish >= now, "ff-credit-order", || {
                format!("materialized kernel [{started:?}, {finish:?}] does not span break at {now:?}")
            });
        }
        self.metrics.ff_materialize(now, k.granted);
        let id = KernelId(self.next_kernel);
        self.next_kernel += 1;
        self.running.push((
            id,
            Running {
                client,
                tag: k.desc.tag,
                granted: k.granted,
                started,
            },
        ));
        let mut was_idle = false;
        if let Some(stream) = self.stream_mut(client) {
            was_idle = stream.running.is_none() && stream.queued.is_empty();
            stream.running = Some(id);
            let rest = usize::try_from(k.count - tl.done - 1).unwrap_or(usize::MAX);
            stream.queued.extend(std::iter::repeat(k.desc).take(rest));
        } else {
            debug_assert!(false, "fast-forwarded client {client:?} has no stream");
        }
        // The timeline's share of the running counts passes to the stream
        // (an idle one, unless a launch broke the contract), and the
        // materialized kernel may exceed a cap repartitioned since.
        self.active_caps -= u64::from(tl.cap);
        if let Ok(cap) = self.mps.sm_cap(client) {
            if was_idle {
                self.active_caps += u64::from(cap);
            }
            self.over_cap += u32::from(k.granted > cap);
        }
        Some(FfBreak {
            completed: u64::from(tl.done),
            gpu_time: tl.served(),
            resumed: KernelStart {
                kernel: id,
                client,
                tag: k.desc.tag,
                granted_sms: k.granted,
                started,
                finish_at: finish,
            },
        })
    }
}

snap_struct!(KernelId(raw));

snap_struct!(KernelDesc {
    blocks,
    work_per_block,
    tag,
});

snap_struct!(Running {
    client,
    tag,
    granted,
    started,
});

snap_struct!(FfRun {
    desc,
    count,
    granted,
    duration,
});

// The burst end is derived again on decode, and the cap by the device's
// decode.
snap_struct!(FfTimeline { client, run, start, done, credited } skip { cap, end } rebuild |t| {
    *t = FfTimeline::from_parts(t.client, t.run, t.start, t.done, t.credited)?;
    Ok(())
});

snap_struct!(ClientStream {
    queued,
    running,
    waiting,
});

// Each timeline's cap comes from the MPS table, and the running counts are
// the sum of every client's footprint.
snap_struct!(GpuDevice {
    spec, mps, memory, metrics, free_sms, streams, running, wait_queue, next_kernel,
    clock_scale, ff,
} skip { active_caps, over_cap } rebuild |d| {
    for t in &mut d.ff {
        t.cap = d.mps.sm_cap(t.client).map_err(|_| SnapError::new("gpu ff client"))?;
    }
    let (caps, over) = d
        .mps
        .caps()
        .map(|(id, _)| d.footprint(id))
        .fold((0, 0), |(c, o), (dc, dov)| (c + dc, o + dov));
    d.active_caps = caps;
    d.over_cap = over;
    Ok(())
} check |d| {
    if d.free_sms > d.spec.sm_count {
        return Err(SnapError::new("gpu free sms"));
    }
    // Every SM is free or granted to exactly one resident kernel, real or
    // fast-forwarded (summed wide, so no forged grant can wrap it).
    let granted: u64 = d
        .running
        .iter()
        .map(|(_, r)| u64::from(r.granted))
        .chain(d.ff.iter().map(|t| u64::from(t.run.granted)))
        .sum();
    if u64::from(d.free_sms) + granted != u64::from(d.spec.sm_count) {
        return Err(SnapError::new("gpu sm conservation"));
    }
    if !(d.clock_scale > 0.0 && d.clock_scale <= MAX_CLOCK_SCALE) {
        return Err(SnapError::new("gpu clock scale"));
    }
    if !d.streams.iter().map(|(id, _)| *id).eq(d.mps.caps().map(|(id, _)| id)) {
        return Err(SnapError::new("gpu stream table"));
    }
    // Each resident kernel is its client's stream head, and each
    // timeline's client has an idle stream and no other timeline.
    let heads = d.streams.iter().filter_map(|(id, s)| s.running.map(|k| (k, *id)));
    let resident = |(k, id): (KernelId, ClientId)| {
        d.running.iter().any(|(rk, r)| *rk == k && r.client == id)
    };
    if heads.clone().count() != d.running.len() || !heads.clone().all(resident) {
        return Err(SnapError::new("gpu resident table"));
    }
    let idle = |c: ClientId| {
        d.streams
            .iter()
            .any(|(id, s)| *id == c && s.running.is_none() && s.queued.is_empty())
    };
    for (i, t) in d.ff.iter().enumerate() {
        if !idle(t.client) || d.ff[..i].iter().any(|u| u.client == t.client) {
            return Err(SnapError::new("gpu ff stream"));
        }
    }
    if d.running.iter().any(|(id, _)| id.0 >= d.next_kernel) {
        return Err(SnapError::new("gpu kernel id space"));
    }
    Ok(())
});

#[cfg(test)]
mod tests {
    use super::*;
    use fastg_des::snap::{Snap, SnapReader, SnapWriter};

    fn v100() -> GpuDevice {
        GpuDevice::new(GpuSpec::v100(), MpsMode::Shared)
    }

    fn kernel(blocks: u32, work_us: u64) -> KernelDesc {
        KernelDesc {
            blocks,
            work_per_block: SimTime::from_micros(work_us),
            tag: 0,
        }
    }

    #[test]
    fn single_kernel_single_wave() {
        let mut gpu = v100();
        let c = gpu.register_client(100.0).unwrap();
        let start = gpu
            .launch(SimTime::ZERO, c, kernel(20, 10))
            .unwrap()
            .expect("starts immediately");
        assert_eq!(start.granted_sms, 20); // blocks bound the grant
        assert_eq!(start.finish_at, SimTime::from_micros(10)); // one wave
        assert_eq!(gpu.free_sms(), 60);
        let (done, next) = gpu.on_kernel_finish(start.finish_at, start.kernel).unwrap();
        assert_eq!(done.gpu_time, SimTime::from_micros(10));
        assert!(next.is_empty());
        assert_eq!(gpu.free_sms(), 80);
    }

    #[test]
    fn partition_caps_grant_and_stretches_duration() {
        let mut gpu = v100();
        let c = gpu.register_client(12.0).unwrap(); // 10 SMs
        let start = gpu.launch(SimTime::ZERO, c, kernel(20, 10)).unwrap().unwrap();
        assert_eq!(start.granted_sms, 10);
        // ceil(20/10) = 2 waves.
        assert_eq!(start.finish_at, SimTime::from_micros(20));
    }

    #[test]
    fn in_order_stream_serializes_same_client() {
        let mut gpu = v100();
        let c = gpu.register_client(100.0).unwrap();
        let s1 = gpu.launch(SimTime::ZERO, c, kernel(10, 10)).unwrap().unwrap();
        // Second launch queues behind the first.
        assert!(gpu.launch(SimTime::ZERO, c, kernel(10, 10)).unwrap().is_none());
        let (_, started) = gpu.on_kernel_finish(s1.finish_at, s1.kernel).unwrap();
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].started, SimTime::from_micros(10));
        assert_eq!(started[0].finish_at, SimTime::from_micros(20));
    }

    #[test]
    fn cross_client_kernels_run_concurrently() {
        let mut gpu = v100();
        let a = gpu.register_client(50.0).unwrap();
        let b = gpu.register_client(50.0).unwrap();
        let sa = gpu.launch(SimTime::ZERO, a, kernel(40, 10)).unwrap().unwrap();
        let sb = gpu.launch(SimTime::ZERO, b, kernel(40, 10)).unwrap().unwrap();
        assert_eq!(sa.granted_sms, 40);
        assert_eq!(sb.granted_sms, 40);
        assert_eq!(gpu.free_sms(), 0);
        assert_eq!(gpu.resident_kernels(), 2);
    }

    #[test]
    fn sm_exhaustion_queues_and_fifo_admits() {
        let mut gpu = v100();
        let a = gpu.register_client(100.0).unwrap();
        let b = gpu.register_client(100.0).unwrap();
        let c = gpu.register_client(100.0).unwrap();
        let sa = gpu.launch(SimTime::ZERO, a, kernel(80, 10)).unwrap().unwrap();
        assert_eq!(sa.granted_sms, 80);
        // b and c wait: no SMs free.
        assert!(gpu.launch(SimTime::ZERO, b, kernel(80, 10)).unwrap().is_none());
        assert!(gpu.launch(SimTime::ZERO, c, kernel(80, 10)).unwrap().is_none());
        let (_, started) = gpu.on_kernel_finish(sa.finish_at, sa.kernel).unwrap();
        // b arrived first; it takes everything, c keeps waiting.
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].client, b);
        let (_, started) = gpu.on_kernel_finish(started[0].finish_at, started[0].kernel).unwrap();
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].client, c);
    }

    #[test]
    fn contended_start_gets_partial_grant() {
        let mut gpu = v100();
        let a = gpu.register_client(100.0).unwrap();
        let b = gpu.register_client(100.0).unwrap();
        let _sa = gpu.launch(SimTime::ZERO, a, kernel(60, 10)).unwrap().unwrap();
        // 20 SMs left: b's 40-block kernel gets 20 and needs 2 waves.
        let sb = gpu.launch(SimTime::ZERO, b, kernel(40, 10)).unwrap().unwrap();
        assert_eq!(sb.granted_sms, 20);
        assert_eq!(sb.finish_at, SimTime::from_micros(20));
        assert_eq!(gpu.free_sms(), 0);
    }

    #[test]
    fn round_robin_between_backlogged_clients() {
        let mut gpu = GpuDevice::new(GpuSpec::custom("one-sm", 1, 1 << 30), MpsMode::Shared);
        let a = gpu.register_client(100.0).unwrap();
        let b = gpu.register_client(100.0).unwrap();
        let s = gpu.launch(SimTime::ZERO, a, kernel(1, 10)).unwrap().unwrap();
        // Both clients have another kernel queued.
        assert!(gpu.launch(SimTime::ZERO, a, kernel(1, 10)).unwrap().is_none());
        assert!(gpu.launch(SimTime::ZERO, b, kernel(1, 10)).unwrap().is_none());
        let (_, next) = gpu.on_kernel_finish(s.finish_at, s.kernel).unwrap();
        // b was enqueued to the wait queue before a finished -> b runs next.
        assert_eq!(next[0].client, b);
        let (_, next) = gpu.on_kernel_finish(next[0].finish_at, next[0].kernel).unwrap();
        assert_eq!(next[0].client, a);
    }

    #[test]
    fn metrics_track_occupancy() {
        let mut gpu = v100();
        let c = gpu.register_client(50.0).unwrap();
        let s = gpu.launch(SimTime::ZERO, c, kernel(40, 1000)).unwrap().unwrap();
        gpu.on_kernel_finish(s.finish_at, s.kernel).unwrap();
        let stats = gpu.metrics().window_stats(SimTime::from_micros(2000));
        // 40 SMs busy for 1000us of a 2000us window = 25 % occupancy.
        assert!((stats.sm_occupancy - 0.25).abs() < 1e-9);
        assert!((stats.utilization - 0.5).abs() < 1e-9);
        assert_eq!(gpu.metrics().client_busy(c), SimTime::from_micros(1000));
    }

    #[test]
    fn unknown_client_launch_rejected() {
        let mut gpu = v100();
        let err = gpu.launch(SimTime::ZERO, ClientId(99), kernel(1, 1));
        assert!(err.is_err());
    }

    #[test]
    fn double_finish_is_a_typed_error() {
        let mut gpu = v100();
        let c = gpu.register_client(100.0).unwrap();
        let s = gpu.launch(SimTime::ZERO, c, kernel(1, 1)).unwrap().unwrap();
        gpu.on_kernel_finish(s.finish_at, s.kernel).unwrap();
        let err = gpu.on_kernel_finish(s.finish_at, s.kernel);
        assert_eq!(err.unwrap_err(), GpuError::KernelNotResident(s.kernel));
        // The device stays usable after the bad completion.
        assert_eq!(gpu.free_sms(), gpu.spec().sm_count);
    }

    #[test]
    fn unregister_with_resident_kernel_is_a_typed_error() {
        let mut gpu = v100();
        let c = gpu.register_client(100.0).unwrap();
        let s = gpu.launch(SimTime::ZERO, c, kernel(1, 1)).unwrap().unwrap();
        let err = gpu.unregister_client(c);
        assert_eq!(err.unwrap_err(), GpuError::WorkInFlight(c));
        // The client is untouched: drain and retry succeeds.
        gpu.on_kernel_finish(s.finish_at, s.kernel).unwrap();
        gpu.unregister_client(c).unwrap();
    }

    #[test]
    fn unregister_clean_client() {
        let mut gpu = v100();
        let c = gpu.register_client(100.0).unwrap();
        let s = gpu.launch(SimTime::ZERO, c, kernel(1, 1)).unwrap().unwrap();
        gpu.on_kernel_finish(s.finish_at, s.kernel).unwrap();
        gpu.unregister_client(c).unwrap();
        assert_eq!(gpu.mps().client_count(), 0);
    }

    #[test]
    fn clock_scale_stretches_new_kernels_only() {
        let mut gpu = v100();
        let c = gpu.register_client(100.0).unwrap();
        let s1 = gpu.launch(SimTime::ZERO, c, kernel(20, 10)).unwrap().unwrap();
        assert_eq!(s1.finish_at, SimTime::from_micros(10));
        gpu.set_clock_scale(2.0);
        assert_eq!(gpu.clock_scale(), 2.0);
        // Queued behind s1; starts at s1's finish with the degraded clock.
        assert!(gpu.launch(SimTime::ZERO, c, kernel(20, 10)).unwrap().is_none());
        let (_, started) = gpu.on_kernel_finish(s1.finish_at, s1.kernel).unwrap();
        assert_eq!(started[0].finish_at - started[0].started, SimTime::from_micros(20));
        gpu.set_clock_scale(1.0);
        let (_, _) = gpu.on_kernel_finish(started[0].finish_at, started[0].kernel).unwrap();
        let s3 = gpu
            .launch(SimTime::from_micros(100), c, kernel(20, 10))
            .unwrap()
            .unwrap();
        assert_eq!(s3.finish_at - s3.started, SimTime::from_micros(10));
    }

    #[test]
    fn hard_reset_aborts_and_clears_everything() {
        let mut gpu = v100();
        let a = gpu.register_client(50.0).unwrap();
        let b = gpu.register_client(100.0).unwrap();
        gpu.memory_mut().alloc(1 << 20).unwrap();
        let sa = gpu.launch(SimTime::ZERO, a, kernel(40, 1000)).unwrap().unwrap();
        // b's kernel queues behind a full pool? No — 40 SMs remain, it runs.
        let _sb = gpu.launch(SimTime::ZERO, b, kernel(40, 1000)).unwrap().unwrap();
        // A third launch from a waits in-stream.
        assert!(gpu.launch(SimTime::ZERO, a, kernel(10, 10)).unwrap().is_none());
        assert_eq!(gpu.resident_kernels(), 2);

        gpu.hard_reset(SimTime::from_micros(500));
        assert_eq!(gpu.resident_kernels(), 0);
        assert_eq!(gpu.free_sms(), gpu.spec().sm_count);
        assert_eq!(gpu.mps().client_count(), 0);
        assert_eq!(gpu.memory().used(), 0);
        assert!(!gpu.is_resident(sa.kernel));
        // Aborted kernels count busy time but no completions.
        assert_eq!(gpu.metrics().total_kernels(), 0);
        let stats = gpu.metrics().window_stats(SimTime::from_micros(1000));
        assert!((stats.utilization - 0.5).abs() < 1e-9);
        // The device is reusable after the reset.
        let c = gpu.register_client(100.0).unwrap();
        let s = gpu.launch(SimTime::from_micros(1000), c, kernel(1, 1)).unwrap().unwrap();
        assert_ne!(s.kernel, sa.kernel); // ids are not reused
    }

    #[test]
    fn zero_block_kernel_treated_as_one() {
        let mut gpu = v100();
        let c = gpu.register_client(100.0).unwrap();
        let s = gpu.launch(SimTime::ZERO, c, kernel(0, 10)).unwrap().unwrap();
        assert_eq!(s.granted_sms, 1);
        assert_eq!(s.finish_at, SimTime::from_micros(10));
    }

    /// Steps a burst through the per-kernel path: launch everything, then
    /// drive each finish at its scheduled time. Returns the last finish.
    fn run_per_kernel(gpu: &mut GpuDevice, client: ClientId, descs: &[KernelDesc]) -> SimTime {
        let mut pending: VecDeque<KernelStart> = VecDeque::new();
        for &d in descs {
            if let Some(s) = gpu.launch(SimTime::ZERO, client, d).unwrap() {
                pending.push_back(s);
            }
        }
        let mut last = SimTime::ZERO;
        while let Some(s) = pending.pop_front() {
            last = s.finish_at;
            let (_, started) = gpu.on_kernel_finish(s.finish_at, s.kernel).unwrap();
            pending.extend(started);
        }
        last
    }

    #[test]
    fn fast_forward_matches_per_kernel_metrics() {
        let (desc, count) = (kernel(19, 200), 3);
        let mut stepped = v100();
        let cs = stepped.register_client(12.0).unwrap();
        let end_stepped = run_per_kernel(&mut stepped, cs, &[desc; 3]);

        let mut ffwd = v100();
        let cf = ffwd.register_client(12.0).unwrap();
        let end_ff = ffwd
            .fast_forward_burst(SimTime::ZERO, cf, desc, count)
            .expect("idle capped-regime burst coalesces");
        assert_eq!(end_ff, end_stepped);
        let done = ffwd.ff_complete(end_ff, cf).unwrap();
        assert_eq!(done.completed, u64::from(count));

        assert_eq!(ffwd.free_sms(), stepped.free_sms());
        assert_eq!(ffwd.metrics().total_kernels(), stepped.metrics().total_kernels());
        assert_eq!(ffwd.metrics().client_busy(cf), stepped.metrics().client_busy(cs));
        let w = end_ff + SimTime::from_micros(1);
        let a = ffwd.metrics_mut().sample(w);
        let b = stepped.metrics_mut().sample(w);
        assert_eq!(a.utilization.to_bits(), b.utilization.to_bits());
        assert_eq!(a.sm_occupancy.to_bits(), b.sm_occupancy.to_bits());
    }

    /// A timeline completed with nothing settled and one synced on the way
    /// leave the same device, bytes and metric bits, on a slowed clock
    /// too, whether the sync falls on a finish or mid-kernel, and for a
    /// zero-duration burst.
    #[test]
    fn a_fresh_burst_completes_as_a_settled_one_does() {
        let bytes = |gpu: &GpuDevice| {
            let mut w = SnapWriter::new();
            gpu.snap(&mut w);
            w.finish()
        };
        for (desc, count, scale, sync_at) in [
            (kernel(19, 200), 4, 1.0, 200),
            (kernel(19, 200), 4, 1.5, 333),
            (kernel(40, 100), 3, 1.0, 650),
            (kernel(40, 100), 3, 1.5, 1),
            (kernel(5, 0), 2, 1.0, 0),
        ] {
            let (mut fresh, mut synced) = (v100(), v100());
            let c = fresh.register_client(12.0).unwrap();
            assert_eq!(synced.register_client(12.0).unwrap(), c);
            let start = SimTime::from_micros(70);
            let mut ends = Vec::new();
            for gpu in [&mut fresh, &mut synced] {
                gpu.set_clock_scale(scale);
                ends.push(gpu.fast_forward_burst(start, c, desc, count).unwrap());
            }
            synced.ff_sync(start + SimTime::from_micros(sync_at));
            let end = ends[0];
            assert_eq!(fresh.ff_complete(end, c), synced.ff_complete(end, c));
            assert_eq!(bytes(&fresh), bytes(&synced));
            assert_eq!(fresh.metrics().client_busy(c), synced.metrics().client_busy(c));
            let later = end + SimTime::from_micros(10);
            let (a, b) = (fresh.metrics_mut().sample(later), synced.metrics_mut().sample(later));
            assert_eq!(a.utilization.to_bits(), b.utilization.to_bits());
            assert_eq!(a.sm_occupancy.to_bits(), b.sm_occupancy.to_bits());
        }
    }

    /// A solo lane's bursts, credited in one update, leave the device
    /// bytes, metric bits and client GPU time that fast-forwarding and
    /// completing each of them in turn leaves, at full and at a scaled
    /// clock; each burst's span is its timeline's.
    #[test]
    fn solo_bursts_credit_what_fast_forwarded_ones_leave() {
        let bytes = |gpu: &GpuDevice| {
            let mut w = SnapWriter::new();
            gpu.snap(&mut w);
            w.finish()
        };
        let bursts = [(kernel(19, 200), 4), (kernel(40, 100), 3), (kernel(5, 0), 2), (kernel(90, 7), 11)];
        for scale in [1.0, 1.5] {
            let (mut stepped, mut credited) = (v100(), v100());
            let c = stepped.register_client(12.0).unwrap();
            assert_eq!(credited.register_client(12.0).unwrap(), c);
            stepped.set_clock_scale(scale);
            credited.set_clock_scale(scale);
            let lane = credited.solo_lane(c).unwrap();
            let mut tally = BurstTally::default();
            let mut now = SimTime::from_micros(70);
            for (desc, count) in bursts {
                let end = stepped.fast_forward_burst(now, c, desc, count).unwrap();
                let done = stepped.ff_complete(end, c).unwrap();
                let burst = lane.burst(desc, count).unwrap();
                assert_eq!(now + burst.span, end, "span at scale {scale}");
                assert_eq!(burst.span, done.gpu_time);
                assert_eq!(u64::from(burst.kernels), done.completed);
                assert!(tally.add(&burst));
                // A host gap before the next burst.
                now = end + SimTime::from_micros(1_300);
            }
            assert_eq!(lane.burst(kernel(19, 200), 0), None, "an empty burst");
            credited.credit_solo(&lane, &tally);
            assert_eq!(bytes(&stepped), bytes(&credited));
            assert_eq!(stepped.metrics().client_busy(c), credited.metrics().client_busy(c));
            let (a, b) = (stepped.metrics_mut().sample(now), credited.metrics_mut().sample(now));
            assert_eq!(a.utilization.to_bits(), b.utilization.to_bits());
            assert_eq!(a.sm_occupancy.to_bits(), b.sm_occupancy.to_bits());
            assert_eq!(a.kernels_completed, b.kernels_completed);
        }
        // A busy device has no solo lane, and a tally refuses a sum that
        // would overflow.
        let mut gpu = v100();
        let c = gpu.register_client(12.0).unwrap();
        gpu.fast_forward_burst(SimTime::ZERO, c, kernel(19, 200), 2).unwrap();
        assert!(gpu.solo_lane(c).is_none());
        let huge = SoloBurst { kernels: 1, granted: 80, span: SimTime::from_micros(u64::MAX / 64) };
        let mut tally = BurstTally::default();
        assert!(!tally.add(&huge));
        assert_eq!(tally, BurstTally::default());
    }

    #[test]
    fn fast_forward_sync_interleaves_two_clients_in_time_order() {
        // Two concurrent FF bursts whose boundaries interleave; a third
        // per-kernel client observes the pool afterwards.
        let mut gpu = v100();
        let a = gpu.register_client(25.0).unwrap(); // 20 SMs
        let b = gpu.register_client(50.0).unwrap(); // 40 SMs
        let end_a = gpu.fast_forward_burst(SimTime::ZERO, a, kernel(20, 100), 2).unwrap();
        let end_b = gpu.fast_forward_burst(SimTime::ZERO, b, kernel(40, 70), 3).unwrap();
        assert_eq!(end_a, SimTime::from_micros(200));
        assert_eq!(end_b, SimTime::from_micros(210));
        gpu.ff_complete(end_a, a).unwrap();
        gpu.ff_complete(end_b, b).unwrap();
        assert_eq!(gpu.metrics().total_kernels(), 5);
        assert_eq!(gpu.free_sms(), 80);
        assert_eq!(gpu.metrics().client_busy(a), SimTime::from_micros(200));
        assert_eq!(gpu.metrics().client_busy(b), SimTime::from_micros(210));
    }

    /// Two overlapping bursts with a different kernel and grant per
    /// client: `a` (20-SM cap, one wave) finishes at 50, 100, 150 and
    /// 200 µs; `b` (40-SM cap, two waves) at 70, 140, 210 and 280 µs.
    fn lazy_bursts() -> [(KernelDesc, u32); 2] {
        [(kernel(20, 50), 4), (kernel(80, 35), 4)]
    }

    /// A V100 with the lazy-settle clients registered in a fixed order
    /// (so ids match across devices): `a` 20 SMs, `b` 40, `c` 10.
    fn three_clients() -> (GpuDevice, ClientId, ClientId, ClientId) {
        let mut gpu = v100();
        let a = gpu.register_client(25.0).unwrap();
        let b = gpu.register_client(50.0).unwrap();
        let c = gpu.register_client(12.0).unwrap();
        (gpu, a, b, c)
    }

    /// The per-kernel reference: every kernel of both bursts launched at
    /// time zero, finishes pending.
    fn stepped_reference() -> (GpuDevice, Vec<KernelStart>) {
        let (mut gpu, a, b, _) = three_clients();
        let mut pending = Vec::new();
        for (client, (desc, count)) in [a, b].into_iter().zip(lazy_bursts()) {
            for _ in 0..count {
                pending.extend(gpu.launch(SimTime::ZERO, client, desc).unwrap());
            }
        }
        (gpu, pending)
    }

    /// Delivers the reference's pending finishes strictly before `until`,
    /// in time order.
    fn step_until(gpu: &mut GpuDevice, pending: &mut Vec<KernelStart>, until: SimTime) {
        while let Some(i) = pending
            .iter()
            .enumerate()
            .filter(|(_, s)| s.finish_at < until)
            .min_by_key(|(_, s)| (s.finish_at, s.kernel))
            .map(|(i, _)| i)
        {
            let s = pending.swap_remove(i);
            let (_, started) = gpu.on_kernel_finish(s.finish_at, s.kernel).unwrap();
            pending.extend(started);
        }
    }

    /// Samples both devices at `at` (the fast-forwarded one after the
    /// sync the engine's sample path does) and requires every counter and
    /// the window's utilization/occupancy bits to agree.
    fn assert_same_sample(ff: &mut GpuDevice, stepped: &mut GpuDevice, at: SimTime) {
        ff.ff_sync(at);
        assert_eq!(ff.free_sms(), stepped.free_sms(), "free SMs at {at:?}");
        assert_eq!(ff.metrics().total_kernels(), stepped.metrics().total_kernels());
        for c in ff.mps().client_ids() {
            assert_eq!(ff.metrics().client_busy(c), stepped.metrics().client_busy(c));
        }
        let x = ff.metrics_mut().sample(at);
        let y = stepped.metrics_mut().sample(at);
        assert_eq!(x.utilization.to_bits(), y.utilization.to_bits(), "util at {at:?}");
        assert_eq!(x.sm_occupancy.to_bits(), y.sm_occupancy.to_bits(), "occ at {at:?}");
        assert_eq!(x.kernels_completed, y.kernels_completed);
    }

    /// Starts both lazy bursts at time zero on a fresh device.
    fn fast_forwarded() -> (GpuDevice, ClientId, ClientId, ClientId) {
        let (mut gpu, a, b, c) = three_clients();
        let [(da, na), (db, nb)] = lazy_bursts();
        let end_a = gpu.fast_forward_burst(SimTime::ZERO, a, da, na).unwrap();
        let end_b = gpu.fast_forward_burst(SimTime::ZERO, b, db, nb).unwrap();
        assert_eq!(end_a, SimTime::from_micros(200));
        assert_eq!(end_b, SimTime::from_micros(280));
        (gpu, a, b, c)
    }

    #[test]
    fn completing_one_burst_leaves_the_other_unsettled_but_exact() {
        let (mut ff, a, b, _) = fast_forwarded();
        let (mut stepped, mut pending) = stepped_reference();
        // `a` completes while `b` is mid-burst, with no sync in between:
        // only `a` settles.
        let done = ff.ff_complete(SimTime::from_micros(200), a).unwrap();
        assert_eq!(done.completed, 4);
        assert_eq!(done.gpu_time, SimTime::from_micros(200));
        assert_eq!(ff.metrics().client_busy(b), SimTime::ZERO, "b not settled yet");
        // A mid-burst sample settles `b` and matches per-kernel stepping.
        let t = SimTime::from_micros(250);
        step_until(&mut stepped, &mut pending, t);
        assert_same_sample(&mut ff, &mut stepped, t);
        let t = SimTime::from_micros(300);
        ff.ff_complete(SimTime::from_micros(280), b).unwrap();
        step_until(&mut stepped, &mut pending, t);
        assert_same_sample(&mut ff, &mut stepped, t);
        assert_eq!(ff.free_sms(), 80);
    }

    #[test]
    fn per_kernel_launch_mid_burst_settles_every_timeline() {
        let (mut ff, a, b, c) = fast_forwarded();
        let (mut stepped, mut pending) = stepped_reference();
        // `c` launches per kernel mid-burst (caps 20 + 40 + 10 fit): the
        // launch settles both timelines first, so it sees the true pool.
        let t = SimTime::from_micros(120);
        assert!(ff.ff_admits(c));
        let sc = ff.launch(t, c, kernel(10, 30)).unwrap().unwrap();
        step_until(&mut stepped, &mut pending, t);
        pending.extend(stepped.launch(t, c, kernel(10, 30)).unwrap());
        assert_eq!(ff.free_sms(), 80 - 20 - 40 - 10);
        assert_eq!(ff.free_sms(), stepped.free_sms());
        // Its finish at 150 ties `a`'s third boundary, which stays pending.
        ff.on_kernel_finish(sc.finish_at, sc.kernel).unwrap();
        ff.ff_complete(SimTime::from_micros(200), a).unwrap();
        let t = SimTime::from_micros(250);
        step_until(&mut stepped, &mut pending, t);
        assert_same_sample(&mut ff, &mut stepped, t);
        ff.ff_complete(SimTime::from_micros(280), b).unwrap();
        let t = SimTime::from_micros(300);
        step_until(&mut stepped, &mut pending, t);
        assert_same_sample(&mut ff, &mut stepped, t);
    }

    #[test]
    fn break_mid_burst_matches_per_kernel_stepping() {
        let (mut ff, a, b, _) = fast_forwarded();
        let (mut stepped, mut pending) = stepped_reference();
        // `a` falls back to per-kernel stepping mid-flight of its third
        // kernel; `b` stays coalesced.
        let brk = ff.ff_break(SimTime::from_micros(120), a).unwrap();
        assert_eq!(brk.completed, 2);
        assert_eq!(brk.resumed.granted_sms, 20);
        let mut resumed = vec![brk.resumed];
        for t in [250, 300].map(SimTime::from_micros) {
            if t > SimTime::from_micros(280) {
                ff.ff_complete(SimTime::from_micros(280), b).unwrap();
            }
            step_until(&mut ff, &mut resumed, t);
            step_until(&mut stepped, &mut pending, t);
            assert_same_sample(&mut ff, &mut stepped, t);
        }
        assert_eq!(ff.free_sms(), 80);
    }

    #[test]
    fn snapshot_after_partial_credit_resumes_exactly() {
        let (mut gpu, a, b, _) = fast_forwarded();
        // A sample mid-kernel leaves both credited points inside their
        // resident kernels.
        let (mut reference, mut pending) = stepped_reference();
        let t = SimTime::from_micros(120);
        step_until(&mut reference, &mut pending, t);
        assert_same_sample(&mut gpu, &mut reference, t);

        let mut w = SnapWriter::new();
        gpu.snap(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes);
        let restored = GpuDevice::unsnap(&mut r).unwrap();
        r.expect_done().unwrap();

        for mut dev in [gpu, restored] {
            let (mut stepped, mut pending) = stepped_reference();
            step_until(&mut stepped, &mut pending, t);
            stepped.metrics_mut().sample(t);
            dev.ff_complete(SimTime::from_micros(200), a).unwrap();
            let t = SimTime::from_micros(250);
            step_until(&mut stepped, &mut pending, t);
            assert_same_sample(&mut dev, &mut stepped, t);
            dev.ff_complete(SimTime::from_micros(280), b).unwrap();
            let t = SimTime::from_micros(300);
            step_until(&mut stepped, &mut pending, t);
            assert_same_sample(&mut dev, &mut stepped, t);
        }
    }

    fn ff_run(desc: KernelDesc, count: u32, granted: u32, duration_us: u64) -> FfRun {
        FfRun {
            desc,
            count,
            granted,
            duration: SimTime::from_micros(duration_us),
        }
    }

    /// A timeline's wire bytes from raw parts: its run, the start, the
    /// finished count and the credited point.
    fn timeline_bytes(run: FfRun, start: u64, done: u32, credited: u64) -> Vec<u8> {
        let mut w = SnapWriter::new();
        ClientId(0).snap(&mut w);
        run.snap(&mut w);
        SimTime::from_micros(start).snap(&mut w);
        w.u32(done);
        SimTime::from_micros(credited).snap(&mut w);
        w.finish()
    }

    /// Whether a timeline encoded from these raw parts decodes.
    fn timeline_decodes(run: FfRun, start: u64, done: u32, credited: u64) -> bool {
        let bytes = timeline_bytes(run, start, done, credited);
        let mut r = SnapReader::new(&bytes);
        FfTimeline::unsnap(&mut r).is_ok_and(|_| r.expect_done().is_ok())
    }

    #[test]
    fn snapshot_rejects_a_credited_point_outside_the_resident_kernel() {
        // One 100 µs kernel: the credited point must lie in [0, 100].
        let single = ff_run(kernel(10, 100), 1, 10, 100);
        assert!(!timeline_decodes(single, 0, 0, 101));
        assert!(timeline_decodes(single, 0, 0, 50));

        // Three 100 µs kernels starting at 1000 µs. With one finished, the
        // resident kernel spans [1100, 1200].
        let max = SimTime::MAX.as_micros();
        let run = ff_run(kernel(10, 100), 3, 10, 100);
        let cases = [
            ("resident start", run, 1000, 1, 1100, true),
            ("resident finish", run, 1000, 1, 1200, true),
            ("last kernel", run, 1000, 2, 1250, true),
            ("credited before the resident kernel", run, 1000, 1, 1099, false),
            ("credited after the resident kernel", run, 1000, 1, 1201, false),
            ("zero-count run", ff_run(kernel(10, 100), 0, 10, 100), 1000, 0, 1000, false),
            ("done = count", run, 1000, 3, 1300, false),
            ("done > count", run, 1000, 7, 1300, false),
            ("run span overflows", ff_run(kernel(1, max / 2), 3, 1, max / 2), 0, 0, 0, false),
            ("burst end overflows", run, max - 299, 0, max - 299, false),
        ];
        for (name, run, start, done, credited, ok) in cases {
            assert_eq!(timeline_decodes(run, start, done, credited), ok, "{name}");
        }
    }

    #[test]
    fn timeline_round_trip_derives_the_cursor_state() {
        let run = ff_run(kernel(10, 100), 3, 10, 100);
        let at = |us| SimTime::from_micros(us);
        let tl = FfTimeline::from_parts(ClientId(0), run, at(1000), 1, at(1150)).unwrap();
        assert_eq!(tl.end, at(1300));
        assert_eq!(tl.resident_start(), at(1100));
        assert_eq!(tl.served(), at(100));
        let mut w = SnapWriter::new();
        tl.snap(&mut w);
        let bytes = w.finish();
        // The wire layout is the encoded parts; the end is derived.
        assert_eq!(bytes, timeline_bytes(run, 1000, 1, 1150));
        let back = FfTimeline::unsnap(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(
            (back.client, back.run, back.done, back.credited, back.end),
            (tl.client, tl.run, tl.done, tl.credited, tl.end)
        );
    }

    #[test]
    fn uniform_burst_is_one_run_and_settles_by_division() {
        // Ten 2-wave kernels on a 10-SM client: one run of 40 µs kernels.
        let mut gpu = v100();
        let c = gpu.register_client(12.0).unwrap();
        // An empty burst is refused and leaves the device untouched.
        assert_eq!(gpu.fast_forward_burst(SimTime::ZERO, c, kernel(20, 20), 0), None);
        assert!(!gpu.has_ff());
        let end = gpu.fast_forward_burst(SimTime::ZERO, c, kernel(20, 20), 10).unwrap();
        assert_eq!(end, SimTime::from_micros(400));
        // Finishes at 40, 80, 120: strictly before 120 are two.
        gpu.ff_sync(SimTime::from_micros(120));
        assert_eq!(gpu.metrics().total_kernels(), 2);
        gpu.ff_sync_inclusive(SimTime::from_micros(120));
        assert_eq!(gpu.metrics().total_kernels(), 3);
        assert_eq!(gpu.metrics().client_busy(c), SimTime::from_micros(120));
        // A strict sync past the end stops at the last kernel.
        gpu.ff_sync(SimTime::from_micros(1000));
        assert_eq!(gpu.metrics().total_kernels(), 9);
        assert_eq!(gpu.free_sms(), 70);
        let done = gpu.ff_complete(end, c).unwrap();
        assert_eq!(done, FfDone { completed: 10, gpu_time: end });
        assert_eq!(gpu.free_sms(), 80);
    }

    #[test]
    fn zero_duration_runs_finish_at_their_start() {
        let mut gpu = v100();
        let c = gpu.register_client(12.0).unwrap();
        let t0 = SimTime::from_micros(10);
        let end = gpu.fast_forward_burst(t0, c, kernel(10, 0), 3).unwrap();
        assert_eq!(end, t0);
        // At the start instant the kernels are pending under a strict
        // sync; an inclusive one finishes all but the last.
        gpu.ff_sync(t0);
        assert_eq!(gpu.metrics().total_kernels(), 0);
        gpu.ff_sync_inclusive(t0);
        assert_eq!(gpu.metrics().total_kernels(), 2);
        // A break at the same instant materializes the last kernel, with
        // nothing left to requeue.
        let brk = gpu.ff_break(t0, c).unwrap();
        assert_eq!(brk.completed, 2);
        assert_eq!(brk.gpu_time, SimTime::ZERO);
        assert_eq!((brk.resumed.started, brk.resumed.finish_at), (t0, t0));
        let (_, started) = gpu.on_kernel_finish(t0, brk.resumed.kernel).unwrap();
        assert!(started.is_empty());
        assert_eq!(gpu.metrics().total_kernels(), 3);
        assert_eq!(gpu.free_sms(), 80);
    }

    #[test]
    fn fast_forward_refused_outside_capped_regime() {
        let mut gpu = v100();
        let a = gpu.register_client(25.0).unwrap(); // 20 SMs
        let b = gpu.register_client(100.0).unwrap(); // 80 SMs: 125 % registered
        let burst = kernel(20, 10);

        // An idle registered client holds no SMs: it does not refuse.
        let end = gpu
            .fast_forward_burst(SimTime::ZERO, a, burst, 2)
            .expect("idle neighbour leaves the capped regime intact");
        // While the timeline runs, activating b would over-commit the SMs.
        assert!(!gpu.ff_admits(b));
        gpu.ff_complete(end, a).unwrap();

        // Once b has a resident kernel, coalescing is refused.
        let sb = gpu.launch(end, b, kernel(80, 100)).unwrap().unwrap();
        assert!(!gpu.ff_admits(a));
        assert!(gpu.fast_forward_burst(end, a, burst, 2).is_none());

        // After it finishes, the regime holds again.
        gpu.on_kernel_finish(sb.finish_at, sb.kernel).unwrap();
        assert!(gpu.fast_forward_burst(sb.finish_at, a, burst, 2).is_some());
    }

    #[test]
    fn ff_break_reconstructs_exact_per_kernel_state() {
        let mut gpu = v100();
        let c = gpu.register_client(12.0).unwrap(); // 10 SMs, 1 wave each
        let end = gpu.fast_forward_burst(SimTime::ZERO, c, kernel(10, 100), 3).unwrap();
        assert_eq!(end, SimTime::from_micros(300));

        // Break mid-flight of kernel #2 (t = 150): kernel #1's boundary is
        // applied, #2 is materialized as a real resident, #3 requeues.
        let brk = gpu.ff_break(SimTime::from_micros(150), c).unwrap();
        assert_eq!(brk.completed, 1);
        assert_eq!(brk.gpu_time, SimTime::from_micros(100));
        assert_eq!(brk.resumed.started, SimTime::from_micros(100));
        assert_eq!(brk.resumed.finish_at, SimTime::from_micros(200));
        assert_eq!(brk.resumed.granted_sms, 10);
        assert!(gpu.is_resident(brk.resumed.kernel));
        assert!(!gpu.has_ff());
        assert_eq!(gpu.free_sms(), 70);
        assert_eq!(gpu.metrics().total_kernels(), 1);

        // Normal stepping resumes and finishes the burst identically.
        let (done, started) = gpu
            .on_kernel_finish(brk.resumed.finish_at, brk.resumed.kernel)
            .unwrap();
        assert_eq!(done.gpu_time, SimTime::from_micros(100));
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].finish_at, SimTime::from_micros(300));
        gpu.on_kernel_finish(started[0].finish_at, started[0].kernel).unwrap();
        assert_eq!(gpu.metrics().total_kernels(), 3);
        assert_eq!(gpu.metrics().client_busy(c), SimTime::from_micros(300));
        assert_eq!(gpu.free_sms(), 80);
    }

    #[test]
    fn hard_reset_aborts_ff_timeline() {
        let mut gpu = v100();
        let c = gpu.register_client(50.0).unwrap();
        gpu.fast_forward_burst(SimTime::ZERO, c, kernel(40, 1000), 2).unwrap();
        gpu.hard_reset(SimTime::from_micros(500));
        assert!(!gpu.has_ff());
        assert_eq!(gpu.free_sms(), gpu.spec().sm_count);
        // The in-flight kernel was aborted: busy time, no completion.
        assert_eq!(gpu.metrics().total_kernels(), 0);
        let stats = gpu.metrics().window_stats(SimTime::from_micros(1000));
        assert!((stats.utilization - 0.5).abs() < 1e-9);
    }

    #[test]
    fn snapshot_round_trip_continues_identically() {
        // Build a device mid-flight: one resident kernel, one queued, one
        // waiting client, and an active fast-forward timeline on a third.
        let mut gpu = v100();
        let a = gpu.register_client(25.0).unwrap(); // 20 SMs
        let b = gpu.register_client(50.0).unwrap(); // 40 SMs
        let c = gpu.register_client(12.0).unwrap(); // 10 SMs
        let sa = gpu.launch(SimTime::ZERO, a, kernel(20, 100)).unwrap().unwrap();
        assert!(gpu.launch(SimTime::ZERO, a, kernel(20, 50)).unwrap().is_none());
        let _sb = gpu.launch(SimTime::ZERO, b, kernel(40, 70)).unwrap().unwrap();
        let end_c = gpu.fast_forward_burst(SimTime::ZERO, c, kernel(10, 30), 2).unwrap();

        let mut w = SnapWriter::new();
        gpu.snap(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes);
        let mut restored = GpuDevice::unsnap(&mut r).unwrap();
        r.expect_done().unwrap();

        // Drive both devices through the same tail and compare.
        for dev in [&mut gpu, &mut restored] {
            dev.ff_complete(end_c, c).unwrap();
            let (done, started) = dev.on_kernel_finish(sa.finish_at, sa.kernel).unwrap();
            assert_eq!(done.gpu_time, SimTime::from_micros(100));
            for s in started {
                dev.on_kernel_finish(s.finish_at, s.kernel).unwrap();
            }
        }
        assert_eq!(gpu.free_sms(), restored.free_sms());
        assert_eq!(gpu.metrics().total_kernels(), restored.metrics().total_kernels());
        for cl in [a, b, c] {
            assert_eq!(gpu.metrics().client_busy(cl), restored.metrics().client_busy(cl));
        }
        let t = SimTime::from_micros(500);
        let x = gpu.metrics_mut().sample(t);
        let y = restored.metrics_mut().sample(t);
        assert_eq!(x.utilization.to_bits(), y.utilization.to_bits());
        assert_eq!(x.sm_occupancy.to_bits(), y.sm_occupancy.to_bits());
    }

    #[test]
    fn snapshot_rejects_corrupt_free_sms() {
        let gpu = v100();
        let mut w = SnapWriter::new();
        gpu.spec().snap(&mut w);
        gpu.mps().snap(&mut w);
        gpu.memory().snap(&mut w);
        gpu.metrics().snap(&mut w);
        w.u32(81); // free_sms beyond the V100's 80
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes);
        assert!(GpuDevice::unsnap(&mut r).is_err());
    }

    #[test]
    fn unregister_with_ff_timeline_is_a_typed_error() {
        let mut gpu = v100();
        let c = gpu.register_client(50.0).unwrap();
        let end = gpu.fast_forward_burst(SimTime::ZERO, c, kernel(1, 10), 1).unwrap();
        assert_eq!(gpu.unregister_client(c).unwrap_err(), GpuError::WorkInFlight(c));
        gpu.ff_complete(end, c).unwrap();
        gpu.unregister_client(c).unwrap();
    }

    fn round_trip(gpu: &GpuDevice) -> Result<GpuDevice, SnapError> {
        let mut w = SnapWriter::new();
        gpu.snap(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes);
        GpuDevice::unsnap(&mut r)
    }

    #[test]
    fn clock_scale_clamps_to_its_bound() {
        let mut gpu = v100();
        gpu.set_clock_scale(1e30);
        assert_eq!(gpu.clock_scale(), MAX_CLOCK_SCALE);
        gpu.set_clock_scale(f64::INFINITY);
        assert_eq!(gpu.clock_scale(), MAX_CLOCK_SCALE);
        for below in [0.0, -2.0, f64::NAN] {
            gpu.set_clock_scale(below);
            assert_eq!(gpu.clock_scale(), 1.0);
        }
        // The slowest kernel a bounded clock allows still fits the clock,
        // and so does a burst of them.
        let c = gpu.register_client(100.0).unwrap();
        gpu.set_clock_scale(MAX_CLOCK_SCALE);
        let slow = kernel(1, 1_000_000);
        let end = gpu.fast_forward_burst(SimTime::ZERO, c, slow, 50);
        assert_eq!(end, Some(SimTime::from_secs(50_000_000)));
    }

    #[test]
    fn snapshot_rejects_a_clock_scale_outside_its_bound() {
        let mut gpu = v100();
        gpu.set_clock_scale(MAX_CLOCK_SCALE);
        assert!(round_trip(&gpu).is_ok());
        for bad in [MAX_CLOCK_SCALE * 2.0, 1e30, 0.0, -1.0, f64::NAN] {
            gpu.clock_scale = bad;
            assert_eq!(
                round_trip(&gpu).err(),
                Some(SnapError::new("gpu clock scale")),
                "clock scale {bad}"
            );
        }
    }

    #[test]
    fn snapshot_rejects_tables_out_of_step() {
        let mut gpu = v100();
        let a = gpu.register_client(25.0).unwrap();
        let b = gpu.register_client(25.0).unwrap();
        gpu.launch(SimTime::ZERO, a, kernel(40, 10)).unwrap();
        gpu.fast_forward_burst(SimTime::ZERO, b, kernel(1, 10), 1).unwrap();
        assert!(round_trip(&gpu).is_ok());
        let reject = |gpu: &GpuDevice, what| {
            assert_eq!(round_trip(gpu).err(), Some(SnapError::new(what)));
        };
        // A stream without an MPS client.
        let mut bad = round_trip(&gpu).unwrap();
        bad.streams.push((ClientId(9), ClientStream::default()));
        reject(&bad, "gpu stream table");
        // A resident kernel that is no stream's head.
        let mut bad = round_trip(&gpu).unwrap();
        bad.streams[0].1.running = None;
        reject(&bad, "gpu resident table");
        // A timeline whose stream is busy.
        let mut bad = round_trip(&gpu).unwrap();
        bad.streams[1].1.queued.push_back(kernel(1, 10));
        reject(&bad, "gpu ff stream");
    }

    /// A device with a resident kernel on `a` (20 SMs) and a timeline on
    /// `b` (10 SMs): 50 SMs free.
    fn resident_and_timeline() -> GpuDevice {
        let mut gpu = v100();
        let a = gpu.register_client(25.0).unwrap();
        let b = gpu.register_client(12.0).unwrap();
        gpu.launch(SimTime::ZERO, a, kernel(20, 100)).unwrap().unwrap();
        gpu.fast_forward_burst(SimTime::ZERO, b, kernel(10, 30), 4).unwrap();
        assert_eq!(gpu.free_sms(), 50);
        assert!(round_trip(&gpu).is_ok());
        gpu
    }

    #[test]
    fn snapshot_rejects_a_forged_resident_grant() {
        // Decoded, it would overflow `free_sms` at the kernel's finish.
        let mut bad = resident_and_timeline();
        bad.running[0].1.granted = u32::MAX;
        assert_eq!(round_trip(&bad).err(), Some(SnapError::new("gpu sm conservation")));
    }

    #[test]
    fn snapshot_rejects_a_forged_timeline_grant() {
        // Decoded, it would overflow `free_sms` at the burst's end.
        let mut bad = resident_and_timeline();
        bad.ff[0].run.granted = u32::MAX;
        assert_eq!(round_trip(&bad).err(), Some(SnapError::new("gpu sm conservation")));
    }

    #[test]
    fn snapshot_rejects_a_timeline_grant_beyond_the_pool() {
        // 70 SMs on a 10-SM client: decoded, the burst's end would leave
        // 110 of 80 SMs free.
        let mut bad = resident_and_timeline();
        bad.ff[0].run.granted = 70;
        assert_eq!(round_trip(&bad).err(), Some(SnapError::new("gpu sm conservation")));
    }

    #[test]
    fn snapshot_derives_timeline_caps_from_the_mps_table() {
        let mut gpu = v100();
        let a = gpu.register_client(25.0).unwrap();
        let b = gpu.register_client(50.0).unwrap();
        gpu.fast_forward_burst(SimTime::ZERO, a, kernel(40, 10), 1).unwrap();
        let back = round_trip(&gpu).unwrap();
        assert_eq!(back.ff[0].cap, gpu.mps.sm_cap(a).unwrap());
        assert_eq!(back.active_caps, u64::from(back.ff[0].cap));
        // 20 + 40 SMs fit the device; a third 50 % client would not.
        assert!(back.ff_admits(b));
        let c = gpu.register_client(50.0).unwrap();
        gpu.fast_forward_burst(SimTime::ZERO, b, kernel(40, 10), 1).unwrap();
        assert!(!round_trip(&gpu).unwrap().ff_admits(c));
    }

    /// The admission rule as the MPS table states it, written before
    /// timelines carried their caps: nobody waits for SMs, every resident
    /// grant is within its owner's cap, and the caps of the clients with a
    /// resident kernel, queued kernels or a timeline, plus `client`'s own,
    /// fit the device.
    fn admits_by_mps_table(d: &GpuDevice, client: ClientId) -> bool {
        if !d.wait_queue.is_empty() {
            return false;
        }
        let grants_capped = d
            .running
            .iter()
            .all(|(_, r)| d.mps.sm_cap(r.client).is_ok_and(|cap| r.granted <= cap));
        if !grants_capped {
            return false;
        }
        let mut caps = 0u64;
        for (id, s) in &d.streams {
            let active = s.running.is_some() || !s.queued.is_empty() || d.ff_active(*id);
            if active || *id == client {
                let Ok(cap) = d.mps.sm_cap(*id) else {
                    return false;
                };
                caps += u64::from(cap);
            }
        }
        caps <= u64::from(d.spec.sm_count)
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `ff_admits` equals the MPS-table rule in every state a device
        /// reaches: over-committed partitions, SM waiters, repartitions
        /// under resident kernels, breaks, re-registrations, hard resets
        /// and snapshot round trips, checked for every client after every
        /// operation.
        #[test]
        fn ff_admits_matches_the_mps_table_rule(
            pcts in prop::collection::vec(1u32..=100, 2..5),
            ops in prop::collection::vec((0u64..80, 0u8..8, 0usize..5, 1u32..=100), 1..60),
        ) {
            let mut gpu = v100();
            let mut clients: Vec<ClientId> = pcts
                .iter()
                .map(|&p| gpu.register_client(f64::from(p)).unwrap())
                .collect();
            let mut resident: Vec<KernelStart> = Vec::new();
            let mut macros: Vec<(SimTime, ClientId)> = Vec::new();
            let mut now = SimTime::ZERO;
            for &(dt, op, i, arg) in &ops {
                now += SimTime::from_micros(dt);
                // Deliver every finish due by `now`, in time order.
                loop {
                    let k = resident.iter().enumerate().min_by_key(|(_, s)| (s.finish_at, s.kernel));
                    let m = macros.iter().enumerate().min_by_key(|(_, &(t, c))| (t, c));
                    match (k, m) {
                        (Some((ki, s)), m) if s.finish_at <= now && m.map_or(true, |(_, &(t, _))| s.finish_at <= t) => {
                            let s = resident.swap_remove(ki);
                            let (_, started) = gpu.on_kernel_finish(s.finish_at, s.kernel).unwrap();
                            resident.extend(started);
                        }
                        (_, Some((mi, &(t, c)))) if t <= now => {
                            macros.swap_remove(mi);
                            gpu.ff_complete(t, c).unwrap();
                        }
                        _ => break,
                    }
                }
                let c = clients[i % clients.len()];
                let desc = kernel(arg, u64::from(arg % 7));
                match op {
                    // Launch per kernel; timelines that no longer fit the
                    // device are broken first, as the platform does.
                    0 if !gpu.ff_active(c) => {
                        if gpu.has_ff() && !gpu.ff_admits(c) {
                            for &(_, m) in &macros {
                                resident.extend(gpu.ff_break(now, m).map(|b| b.resumed));
                            }
                            macros.clear();
                        }
                        resident.extend(gpu.launch(now, c, desc).unwrap());
                    }
                    1 => {
                        if let Some(end) = gpu.fast_forward_burst(now, c, desc, arg % 4) {
                            macros.push((end, c));
                        }
                    }
                    2 => {
                        if let Some(b) = gpu.ff_break(now, c) {
                            macros.retain(|&(_, m)| m != c);
                            resident.push(b.resumed);
                        }
                    }
                    // Repartition (after breaking every timeline, as the
                    // platform does): resident kernels keep their grants.
                    3 => {
                        for &(_, m) in &macros {
                            resident.extend(gpu.ff_break(now, m).map(|b| b.resumed));
                        }
                        macros.clear();
                        gpu.set_partition(c, f64::from(arg)).unwrap();
                    }
                    4 => gpu = round_trip(&gpu).unwrap(),
                    // Replace an idle client with a fresh registration.
                    5 => {
                        if gpu.unregister_client(c).is_ok() {
                            clients.retain(|&x| x != c);
                            clients.push(gpu.register_client(f64::from(arg)).unwrap());
                        }
                    }
                    // The node loses power: every kernel and timeline is
                    // aborted and every client unregistered; the pods come
                    // back as fresh registrations.
                    6 => {
                        gpu.hard_reset(now);
                        resident.clear();
                        macros.clear();
                        let n = clients.len();
                        clients = (0..n)
                            .map(|j| gpu.register_client(f64::from(pcts[j % pcts.len()])).unwrap())
                            .collect();
                    }
                    _ => gpu.ff_sync(now),
                }
                for &c in &clients {
                    prop_assert_eq!(gpu.ff_admits(c), admits_by_mps_table(&gpu, c), "{:?} after op {}", c, op);
                }
            }
        }
    }
}

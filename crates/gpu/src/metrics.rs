//! DCGM-exporter-style GPU metrics.
//!
//! Two headline signals, with the exact semantics the paper's measurements
//! rely on:
//!
//! * **Utilization** (`nvidia-smi` "GPU-Util"): the fraction of wall-clock
//!   time during which *at least one* kernel was resident. A single tiny
//!   kernel keeps utilization at 100 %, which is why Figure 1b can show
//!   > 95 % utilization with < 10 % SM occupancy.
//! * **SM occupancy**: the time-weighted mean fraction of SMs occupied by
//!   resident kernels.

use crate::device::ClientId;
use fastg_des::snap::{Snap, SnapError, SnapReader, SnapWriter};
use fastg_des::{BusyTracker, SimTime, TimeSeries, TimeWeighted};
use std::collections::BTreeMap;

/// A snapshot of the GPU's aggregate counters over a window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuWindowStats {
    /// Busy fraction (0..=1) of the window.
    pub utilization: f64,
    /// Mean fraction (0..=1) of SMs occupied over the window.
    pub sm_occupancy: f64,
    /// Kernels completed during the window.
    pub kernels_completed: u64,
}

/// Live metric accounting for one GPU.
#[derive(Debug, Clone)]
pub struct GpuMetrics {
    sm_count: u32,
    util: BusyTracker,
    occupied_sms: TimeWeighted,
    kernels_completed: u64,
    window_kernels: u64,
    per_client_busy: BTreeMap<ClientId, SimTime>,
    util_series: TimeSeries,
    occ_series: TimeSeries,
    window_start: SimTime,
}

impl GpuMetrics {
    /// Creates metric accounting for a GPU with `sm_count` SMs, starting at
    /// time zero.
    pub fn new(sm_count: u32) -> Self {
        GpuMetrics {
            sm_count,
            util: BusyTracker::new(SimTime::ZERO),
            occupied_sms: TimeWeighted::new(SimTime::ZERO, 0.0),
            kernels_completed: 0,
            window_kernels: 0,
            per_client_busy: BTreeMap::new(),
            util_series: TimeSeries::new(),
            occ_series: TimeSeries::new(),
            window_start: SimTime::ZERO,
        }
    }

    /// Records a kernel starting with `granted_sms` SMs.
    pub fn kernel_started(&mut self, now: SimTime, granted_sms: u32) {
        self.util.begin(now);
        self.occupied_sms.add(now, granted_sms as f64);
    }

    /// Records a kernel finishing; `gpu_time` is its residency duration and
    /// `client` the MPS client it belonged to.
    pub fn kernel_finished(
        &mut self,
        now: SimTime,
        client: ClientId,
        granted_sms: u32,
        gpu_time: SimTime,
    ) {
        self.util.end(now);
        self.occupied_sms.add(now, -(granted_sms as f64));
        self.kernels_completed += 1;
        self.window_kernels += 1;
        *self
            .per_client_busy
            .entry(client)
            .or_insert(SimTime::ZERO) += gpu_time;
    }

    /// The pure time-integral half of [`Self::kernel_finished`] — busy
    /// interval end plus SM release — without the completion tallies. The
    /// fast-forward drain applies these boundaries one by one (their order
    /// against other clients' boundaries is what report parity hangs on)
    /// and batches the commutative integer counters through
    /// [`Self::tally_finished`] instead.
    pub fn kernel_finish_boundary(&mut self, now: SimTime, granted_sms: u32) {
        self.util.end(now);
        self.occupied_sms.add(now, -(granted_sms as f64));
    }

    /// The merged boundary of a back-to-back kernel handoff: one kernel
    /// finishes and its successor starts at the same instant `now`.
    /// Bit-identical to [`Self::kernel_finish_boundary`] followed by
    /// [`Self::kernel_started`] at equal timestamps: the busy tracker's
    /// end+begin pair telescopes to a no-op (integer busy sums are
    /// associative and the active count is unchanged), and the two
    /// occupancy deltas — exact small integers in `f64` — sum into one.
    pub fn kernel_handoff(&mut self, now: SimTime, finished_sms: u32, started_sms: u32) {
        self.occupied_sms
            .add(now, f64::from(started_sms) - f64::from(finished_sms));
    }

    /// Batched counter updates equivalent to `kernels` individual
    /// [`Self::kernel_finished`] calls whose boundary halves were already
    /// applied via [`Self::kernel_finish_boundary`]: pure integer sums, so
    /// one call per sync is bit-identical to one call per kernel.
    pub fn tally_finished(&mut self, client: ClientId, kernels: u64, busy: SimTime) {
        if kernels == 0 {
            return;
        }
        self.kernels_completed += kernels;
        self.window_kernels += kernels;
        *self
            .per_client_busy
            .entry(client)
            .or_insert(SimTime::ZERO) += busy;
    }

    /// Records a resident kernel being aborted (node crash / hard reset):
    /// its busy interval and SM occupancy end at `now`, but it counts
    /// neither as a completion nor toward any client's busy time — the work
    /// was lost, not served.
    pub fn kernel_aborted(&mut self, now: SimTime, granted_sms: u32) {
        self.util.end(now);
        self.occupied_sms.add(now, -(granted_sms as f64));
    }

    /// Closes the current sampling window at `now`, appends the samples to
    /// the exported series, and opens a new window. Returns the window's
    /// stats (the DCGM-exporter scrape analogue).
    pub fn sample(&mut self, now: SimTime) -> GpuWindowStats {
        let stats = self.window_stats(now);
        self.util_series.push(now, stats.utilization);
        self.occ_series.push(now, stats.sm_occupancy);
        self.util.reset(now);
        self.occupied_sms.reset(now);
        self.window_start = now;
        self.window_kernels = 0;
        stats
    }

    /// Stats for the window open since the last [`Self::sample`] (or start),
    /// without closing it.
    pub fn window_stats(&self, now: SimTime) -> GpuWindowStats {
        GpuWindowStats {
            utilization: self.util.utilization_at(now),
            sm_occupancy: self.occupied_sms.mean_at(now) / self.sm_count as f64,
            kernels_completed: self.window_kernels,
        }
    }

    /// Total kernels completed since creation.
    pub fn total_kernels(&self) -> u64 {
        self.kernels_completed
    }

    /// Cumulative GPU busy time attributed to `client` (the Gemini-style
    /// usage monitor the FaST Backend charges quotas from).
    pub fn client_busy(&self, client: ClientId) -> SimTime {
        self.per_client_busy
            .get(&client)
            .copied()
            .unwrap_or(SimTime::ZERO)
    }

    /// The exported utilization series (one point per sample call).
    pub fn utilization_series(&self) -> &TimeSeries {
        &self.util_series
    }

    /// The exported SM-occupancy series (one point per sample call).
    pub fn occupancy_series(&self) -> &TimeSeries {
        &self.occ_series
    }

    /// Number of SMs this accounting was created for.
    pub fn sm_count(&self) -> u32 {
        self.sm_count
    }

    /// Number of kernels currently resident.
    pub fn resident_kernels(&self) -> u32 {
        self.util.active()
    }
}

impl Snap for GpuMetrics {
    fn snap(&self, w: &mut SnapWriter) {
        let Self {
            sm_count,
            util,
            occupied_sms,
            kernels_completed,
            window_kernels,
            per_client_busy,
            util_series,
            occ_series,
            window_start,
        } = self;
        w.u32(*sm_count);
        util.snap(w);
        occupied_sms.snap(w);
        w.u64(*kernels_completed);
        w.u64(*window_kernels);
        per_client_busy.snap(w);
        util_series.snap(w);
        occ_series.snap(w);
        window_start.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(GpuMetrics {
            sm_count: r.u32()?,
            util: BusyTracker::unsnap(r)?,
            occupied_sms: TimeWeighted::unsnap(r)?,
            kernels_completed: r.u64()?,
            window_kernels: r.u64()?,
            per_client_busy: BTreeMap::unsnap(r)?,
            util_series: TimeSeries::unsnap(r)?,
            occ_series: TimeSeries::unsnap(r)?,
            window_start: SimTime::unsnap(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_vs_occupancy_divergence() {
        // One 8-SM kernel resident the whole time on an 80-SM GPU:
        // utilization 100 %, occupancy 10 %. This is the Figure 1 effect.
        let mut m = GpuMetrics::new(80);
        m.kernel_started(SimTime::ZERO, 8);
        let stats = m.window_stats(SimTime::from_secs(1));
        assert!((stats.utilization - 1.0).abs() < 1e-9);
        assert!((stats.sm_occupancy - 0.1).abs() < 1e-9);
    }

    #[test]
    fn idle_gaps_lower_utilization() {
        let mut m = GpuMetrics::new(80);
        m.kernel_started(SimTime::ZERO, 80);
        m.kernel_finished(SimTime::from_millis(250), ClientId(0), 80, SimTime::from_millis(250));
        let stats = m.window_stats(SimTime::from_secs(1));
        assert!((stats.utilization - 0.25).abs() < 1e-9);
        assert!((stats.sm_occupancy - 0.25).abs() < 1e-9);
        assert_eq!(stats.kernels_completed, 1);
    }

    #[test]
    fn sampling_resets_window() {
        let mut m = GpuMetrics::new(10);
        m.kernel_started(SimTime::ZERO, 10);
        m.kernel_finished(SimTime::from_millis(500), ClientId(1), 10, SimTime::from_millis(500));
        let w1 = m.sample(SimTime::from_secs(1));
        assert!((w1.utilization - 0.5).abs() < 1e-9);
        assert_eq!(w1.kernels_completed, 1);
        // Second window: idle.
        let w2 = m.sample(SimTime::from_secs(2));
        assert_eq!(w2.utilization, 0.0);
        assert_eq!(w2.kernels_completed, 0);
        assert_eq!(m.utilization_series().len(), 2);
        assert_eq!(m.total_kernels(), 1);
    }

    #[test]
    fn per_client_busy_accumulates() {
        let mut m = GpuMetrics::new(80);
        let c = ClientId(3);
        m.kernel_started(SimTime::ZERO, 4);
        m.kernel_finished(SimTime::from_millis(10), c, 4, SimTime::from_millis(10));
        m.kernel_started(SimTime::from_millis(20), 4);
        m.kernel_finished(SimTime::from_millis(35), c, 4, SimTime::from_millis(15));
        assert_eq!(m.client_busy(c), SimTime::from_millis(25));
        assert_eq!(m.client_busy(ClientId(9)), SimTime::ZERO);
    }

    #[test]
    fn overlapping_kernels_sum_occupancy() {
        let mut m = GpuMetrics::new(80);
        m.kernel_started(SimTime::ZERO, 20);
        m.kernel_started(SimTime::ZERO, 20);
        assert_eq!(m.resident_kernels(), 2);
        let stats = m.window_stats(SimTime::from_secs(1));
        assert!((stats.sm_occupancy - 0.5).abs() < 1e-9);
        assert!((stats.utilization - 1.0).abs() < 1e-9);
    }
}

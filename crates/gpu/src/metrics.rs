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
//!
//! The counters are device-wide. A client's GPU time is not kept here:
//! the device returns it at each synchronization point (`KernelDone`,
//! `FfDone`, `FfBreak`), and the FaST Backend charges quota from those.

use fastg_des::{snap_struct, BusyTracker, SimTime, TimeSeries, TimeWeighted};

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

/// Live metric accounting for one GPU: utilization, SM occupancy and
/// completions, with their exported series.
#[derive(Debug, Clone)]
pub struct GpuMetrics {
    sm_count: u32,
    util: BusyTracker,
    occupied_sms: TimeWeighted,
    kernels_completed: u64,
    window_kernels: u64,
    util_series: TimeSeries,
    occ_series: TimeSeries,
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
            util_series: TimeSeries::new(),
            occ_series: TimeSeries::new(),
        }
    }

    /// Records a kernel starting with `granted_sms` SMs.
    pub fn kernel_started(&mut self, now: SimTime, granted_sms: u32) {
        self.util.begin(now);
        self.occupied_sms.add(now, granted_sms as f64);
    }

    /// Records a kernel that held `granted_sms` SMs finishing at `now`.
    pub fn kernel_finished(&mut self, now: SimTime, granted_sms: u32) {
        self.util.end(now);
        self.occupied_sms.add(now, -(granted_sms as f64));
        self.kernels_completed += 1;
        self.window_kernels += 1;
    }

    /// A fast-forwarded burst becomes resident at `now`. Only its busy
    /// interval opens: a gapless burst keeps the device busy until
    /// [`Self::ff_end`], and its SMs never enter the live occupancy value
    /// (the device credits their area through [`Self::ff_settled`]).
    pub fn ff_begin(&mut self, now: SimTime) {
        self.util.begin(now);
    }

    /// Settles part of a fast-forwarded burst: `occupied_sm_us` is the
    /// exact SM × µs area its kernels occupied since the last settle, and
    /// `kernels` of them finished. Per-kernel stepping adds the same
    /// integers one kernel at a time; as every partial sum is an exact
    /// integer, batching them is bit-identical.
    pub fn ff_settled(&mut self, occupied_sm_us: u64, kernels: u64) {
        self.occupied_sms.credit_us(occupied_sm_us);
        self.kernels_completed += kernels;
        self.window_kernels += kernels;
    }

    /// Whole fast-forwarded bursts that began and ended while the device
    /// was otherwise idle, with nothing settling them in between: their
    /// busy intervals total `busy`, and [`Self::ff_settled`] takes the
    /// rest. The same integers [`Self::ff_begin`], [`Self::ff_settled`]
    /// and [`Self::ff_end`] add burst by burst.
    pub fn ff_bursts_credited(&mut self, busy: SimTime, occupied_sm_us: u64, kernels: u64) {
        self.util.credit(busy);
        self.ff_settled(occupied_sm_us, kernels);
    }

    /// A fast-forwarded burst's busy interval ends at `now`: its last
    /// kernel finished, or the device was reset under it.
    pub fn ff_end(&mut self, now: SimTime) {
        self.util.end(now);
    }

    /// A fast-forwarded kernel becomes a real resident at `now` (its burst
    /// was broken): its `granted_sms` rejoin the live occupancy value,
    /// which [`Self::kernel_finished`] later releases. Its busy interval
    /// opened with the burst.
    pub fn ff_materialize(&mut self, now: SimTime, granted_sms: u32) {
        self.occupied_sms.add(now, f64::from(granted_sms));
    }

    /// Records a resident kernel being aborted (node crash / hard reset):
    /// its busy interval and SM occupancy end at `now`, but it does not
    /// count as a completion — the work was lost, not served.
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

snap_struct!(GpuMetrics {
    sm_count,
    util,
    occupied_sms,
    kernels_completed,
    window_kernels,
    util_series,
    occ_series,
});

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
        m.kernel_finished(SimTime::from_millis(250), 80);
        let stats = m.window_stats(SimTime::from_secs(1));
        assert!((stats.utilization - 0.25).abs() < 1e-9);
        assert!((stats.sm_occupancy - 0.25).abs() < 1e-9);
        assert_eq!(stats.kernels_completed, 1);
    }

    #[test]
    fn sampling_resets_window() {
        let mut m = GpuMetrics::new(10);
        m.kernel_started(SimTime::ZERO, 10);
        m.kernel_finished(SimTime::from_millis(500), 10);
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

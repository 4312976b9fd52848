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

use fastg_des::{sanitizer, snap_struct, BusyTracker, SimTime, TimeSeries};

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
///
/// The device feeds it through three entry points: `begin` and `end`
/// around each resident run's busy interval, and `settled` for the
/// occupied area and completions a settle credits. The occupied area is
/// an integer (SM × µs), so the order in which runs settle cannot change
/// a bit of the occupancy; it is converted to a fraction once, when a
/// window is read.
#[derive(Debug, Clone)]
pub struct GpuMetrics {
    sm_count: u32,
    util: BusyTracker,
    /// SM × µs occupied in the open window, as far as settled.
    area: u64,
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
            area: 0,
            kernels_completed: 0,
            window_kernels: 0,
            util_series: TimeSeries::new(),
            occ_series: TimeSeries::new(),
        }
    }

    /// A resident run (one kernel or a gapless burst) opens its busy
    /// interval at `now`.
    pub(crate) fn begin(&mut self, now: SimTime) {
        self.util.begin(now);
    }

    /// A settle credits `area` (SM × µs) of occupied SMs, and `kernels`
    /// finished.
    pub(crate) fn settled(&mut self, area: u64, kernels: u64) {
        self.area += area;
        self.kernels_completed += kernels;
        self.window_kernels += kernels;
    }

    /// A resident run's busy interval ends at `now`: its last kernel
    /// finished, or the device was reset under it.
    pub(crate) fn end(&mut self, now: SimTime) {
        self.util.end(now);
    }

    /// Closes the current sampling window at `now`, appends the samples to
    /// the exported series, and opens a new window. Returns the window's
    /// stats (the DCGM-exporter scrape analogue). The device settles every
    /// resident run to `now` first.
    pub(crate) fn sample(&mut self, now: SimTime) -> GpuWindowStats {
        if sanitizer::active() {
            let busy = self.util.busy_at(now).as_micros();
            let (area, sms) = (self.area, self.sm_count);
            sanitizer::check(
                u128::from(area) <= u128::from(sms) * u128::from(busy),
                "window-area",
                || format!("window area {area} SM·µs exceeds {sms} SMs × {busy} busy µs at {now:?}"),
            );
        }
        let stats = self.window_stats(now);
        self.util_series.push(now, stats.utilization);
        self.occ_series.push(now, stats.sm_occupancy);
        self.util.reset(now);
        self.area = 0;
        self.window_kernels = 0;
        stats
    }

    /// Stats for the window open since the last sample (or start), without
    /// closing it, as far as the device has settled it.
    pub(crate) fn window_stats(&self, now: SimTime) -> GpuWindowStats {
        let elapsed = self.util.elapsed_at(now).as_secs_f64();
        let sm_occupancy = if elapsed <= 0.0 {
            0.0
        } else {
            // u64→f64: the area is an integer far below 2^53, so it
            // converts exactly.
            // fastg-lint: allow(no-lossy-cast)
            (self.area as f64 / 1e6) / elapsed / f64::from(self.sm_count)
        };
        GpuWindowStats {
            utilization: self.util.utilization_at(now),
            sm_occupancy,
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

    /// Number of resident runs.
    pub fn resident_kernels(&self) -> u32 {
        self.util.active()
    }
}

snap_struct!(GpuMetrics {
    sm_count,
    util,
    area,
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
        m.begin(SimTime::ZERO);
        m.settled(8 * 1_000_000, 0);
        let stats = m.window_stats(SimTime::from_secs(1));
        assert!((stats.utilization - 1.0).abs() < 1e-9);
        assert!((stats.sm_occupancy - 0.1).abs() < 1e-9);
    }

    #[test]
    fn idle_gaps_lower_utilization() {
        let mut m = GpuMetrics::new(80);
        m.begin(SimTime::ZERO);
        m.settled(80 * 250_000, 1);
        m.end(SimTime::from_millis(250));
        let stats = m.window_stats(SimTime::from_secs(1));
        assert!((stats.utilization - 0.25).abs() < 1e-9);
        assert!((stats.sm_occupancy - 0.25).abs() < 1e-9);
        assert_eq!(stats.kernels_completed, 1);
    }

    #[test]
    fn sampling_resets_window() {
        let mut m = GpuMetrics::new(10);
        m.begin(SimTime::ZERO);
        m.settled(10 * 500_000, 1);
        m.end(SimTime::from_millis(500));
        let w1 = m.sample(SimTime::from_secs(1));
        assert!((w1.utilization - 0.5).abs() < 1e-9);
        assert!((w1.sm_occupancy - 0.5).abs() < 1e-9);
        assert_eq!(w1.kernels_completed, 1);
        // Second window: idle.
        let w2 = m.sample(SimTime::from_secs(2));
        assert_eq!(w2.utilization, 0.0);
        assert_eq!(w2.sm_occupancy, 0.0);
        assert_eq!(w2.kernels_completed, 0);
        assert_eq!(m.utilization_series().len(), 2);
        assert_eq!(m.total_kernels(), 1);
    }

    #[test]
    fn overlapping_kernels_sum_occupancy() {
        let mut m = GpuMetrics::new(80);
        m.begin(SimTime::ZERO);
        m.begin(SimTime::ZERO);
        assert_eq!(m.resident_kernels(), 2);
        m.settled(20 * 1_000_000, 0);
        m.settled(20 * 1_000_000, 0);
        let stats = m.window_stats(SimTime::from_secs(1));
        assert!((stats.sm_occupancy - 0.5).abs() < 1e-9);
        assert!((stats.utilization - 1.0).abs() < 1e-9);
    }
}

//! The metric catalogue and the order statistics every metric is reported
//! with.
//!
//! Three lists. [`END_TO_END`] is what a user of the simulator sees and
//! what `BENCHMARK.json` gates with a bound. [`EXACT`] are outcomes that
//! read 0 or exist on one workload only, so they are printed and compared
//! bit for bit at equal seeds but carry no bound. [`PER_LAYER`]
//! attributes the work to the simulator's modules; they come from the
//! traced run and have no bound.

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// Whether moving from `base` to `new` is a worsening.
    pub fn worse(self, base: f64, new: f64) -> bool {
        match self {
            Better::Higher => new < base,
            Better::Lower => new > base,
        }
    }
}

/// One metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The share of the baseline median by which the metric may worsen
    /// before a change counts as a regression. `None`: the metric is
    /// simulated and exact at a fixed seed, so any change is a change.
    pub bound: Option<f64>,
    /// Simulated (bit-for-bit reproducible at a fixed seed).
    pub exact: bool,
}

const fn def(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: Option<f64>,
    exact: bool,
) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
        exact,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics gated by `BENCHMARK.json`. The two wall-time
/// metrics are scaled to the reference host speed (see `calib`). Every
/// bound is at least three times the widest spread of the metric over ten
/// seeds on any workload (README, Baseline). A simulated metric must not
/// move at all at one seed; its bound covers runs at different seeds.
/// `sim_gpus` does not vary with the seed, so one more GPU on a fleet
/// already breaks its bound.
pub const END_TO_END: &[Def] = &[
    def("sim_speed", "platform-s/s", Higher, Some(0.24), false),
    def("setup_s", "s", Lower, Some(0.25), false),
    def("peak_rss_mib", "MiB", Lower, Some(0.10), false),
    def("sim_goodput_rps", "req/s", Higher, Some(0.06), true),
    def("sim_served_pct", "%", Higher, Some(0.04), true),
    def("sim_slo_kept_pct", "%", Higher, Some(0.02), true),
    def("sim_gpus", "GPUs", Lower, Some(0.001), true),
];

/// End-to-end outcomes reported and compared, but not gated: the first
/// reads 0 on a correct build, the second exists on `paper-pipeline` only.
pub const EXACT: &[Def] = &[
    def("check_fail_pct", "%", Lower, None, true),
    def("fidelity_err_pct", "%", Lower, None, true),
];

/// Per-layer metrics, named by module. Counts are exact; times come from
/// the traced run's spans and replay drivers.
pub const PER_LAYER: &[Def] = &[
    def("platform.events", "count", Lower, None, true),
    def("platform.ns_per_event", "ns", Lower, None, false),
    def("platform.events_per_s", "1/s", Higher, None, false),
    def("platform.run_s", "s", Lower, None, false),
    def("platform.slice_ms.p50", "ms", Lower, None, false),
    def("platform.slice_ms.p90", "ms", Lower, None, false),
    def("platform.report_ms", "ms", Lower, None, false),
    def("platform.deploy_ms", "ms", Lower, None, false),
    def("platform.observer_neutral", "bool", Higher, None, true),
    def("platform.unattributed_pct", "%", Lower, None, false),
    def("des.queue_ns_per_op", "ns", Lower, None, false),
    def("des.cancel_ns_per_op", "ns", Lower, None, false),
    def("des.queue_share_pct", "%", Lower, None, false),
    def("gpu.kernels", "count", Lower, None, true),
    def("gpu.ff_bursts", "count", Higher, None, true),
    def("gpu.ff_coalesced_kernels", "count", Higher, None, true),
    def("gpu.ff_ratio", "ratio", Higher, None, true),
    def("gpu.cluster_ff_cycles", "count", Higher, None, true),
    def("gpu.ns_per_kernel", "ns", Lower, None, false),
    def("gpu.util_mean", "ratio", Higher, None, true),
    def("gpu.occupancy_mean", "ratio", Higher, None, true),
    def("manager.ns_per_token", "ns", Lower, None, false),
    def("scheduler.placements", "count", Higher, None, true),
    def("scheduler.releases", "count", Higher, None, true),
    def("scheduler.rejects", "count", Lower, None, true),
    def("scheduler.probes", "count", Lower, None, true),
    def(
        "scheduler.probes_per_placement",
        "probes/op",
        Lower,
        None,
        true,
    ),
    def("scheduler.exact_fallbacks", "count", Lower, None, true),
    def("scheduler.unschedulable", "count", Lower, None, true),
    def("scheduler.fragmentation", "ratio", Lower, None, true),
    def("scheduler.ns_per_placement", "ns", Lower, None, false),
    def("cluster.arrivals", "count", Higher, None, true),
    def("cluster.completed", "count", Higher, None, true),
    def("cluster.dropped", "count", Lower, None, true),
    def("cluster.rejected", "count", Lower, None, true),
    def("cluster.shed", "count", Lower, None, true),
    def("cluster.ns_per_request", "ns", Lower, None, false),
    def("overload.breaker_trips", "count", Lower, None, true),
    def("overload.browned_out", "count", Lower, None, true),
    def("faults.injected", "count", Lower, None, true),
    def("faults.recovery_ms.p50", "sim-ms", Lower, None, true),
    def("workload.arrivals", "count", Higher, None, true),
    def("workload.ns_per_arrival", "ns", Lower, None, false),
    def("snapshot.bytes", "B", Lower, None, true),
    def("snapshot.encode_ms", "ms", Lower, None, false),
    def("snapshot.decode_ms", "ms", Lower, None, false),
    def("snapshot.decodes", "count", Lower, None, true),
    def("sweep.prefixes_shared", "count", Higher, None, true),
    def("sweep.cells_resumed", "count", Higher, None, true),
    def("sweep.warmup_avoided_s", "sim-s", Higher, None, true),
    def("profiler.trials", "count", Lower, None, true),
    def("profiler.sh_trials", "count", Lower, None, true),
    def("profiler.trial_ms", "ms", Lower, None, false),
    def("trace.overhead_pct", "%", Lower, None, false),
];

/// Looks a metric up in every list.
pub fn find(name: &str) -> Option<&'static Def> {
    END_TO_END
        .iter()
        .chain(EXACT)
        .chain(PER_LAYER)
        .find(|d| d.name == name)
}

/// Median and quartiles of a sample, computed the way Python's
/// `statistics.median` and `statistics.quantiles(values, n=4)` do, so
/// spreads read the same here as in any script that checks them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let mut v: Vec<f64> = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 0 {
            return Summary {
                median: f64::NAN,
                q1: f64::NAN,
                q3: f64::NAN,
                n,
            };
        }
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        if n == 1 {
            return Summary {
                median,
                q1: median,
                q3: median,
                n,
            };
        }
        // The "exclusive" method: cut points at i·(n+1)/4, clamped to the
        // sample and interpolated (or, for tiny samples, extrapolated)
        // between neighbours.
        let quartile = |i: usize| {
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Summary {
            median,
            q1: quartile(1),
            q3: quartile(3),
            n,
        }
    }

    /// Interquartile distance as a share of the median (0 for a zero
    /// median with no spread).
    pub fn spread(&self) -> f64 {
        let width = self.q3 - self.q1;
        if width <= 0.0 {
            0.0
        } else {
            width / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&Def> = END_TO_END
            .iter()
            .chain(EXACT)
            .chain(PER_LAYER)
            .collect();
        for (i, d) in all.iter().enumerate() {
            assert!(
                all[..i].iter().all(|o| o.name != d.name),
                "duplicate {}",
                d.name
            );
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
            assert!(d.name.chars().all(ok), "bad name {}", d.name);
        }
    }
}

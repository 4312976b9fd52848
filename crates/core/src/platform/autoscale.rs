//! The auto-scaler control loop: predicted RPS → Algorithm 1 (Heuristic
//! Scaling) → pod creation through Algorithm 2 placement, or draining.
//!
//! The prediction reads only the arrivals in the trailing
//! [`PREDICT_WINDOW`], so each function keeps just those (its
//! `arrival_window`): recorded once per arrival, refused or not, and
//! pruned as each is recorded. The scaler is the window's only reader,
//! so arrivals are recorded only while one is enabled. A scaler enabled
//! mid-run therefore predicts from the arrivals since it was enabled:
//! its first ticks see a window that covers only part of
//! [`PREDICT_WINDOW`].

use super::engine::{schedule_next, Engine, Event};
use crate::profiler::ProfileDb;
use crate::scheduler::{heuristic_scale, ConfigPoint, RunningPod, ScaleAction};
use fastg_cluster::{FuncId, ResourceSpec};
use fastg_des::{EventQueue, SimTime};
use std::collections::VecDeque;

/// Trailing window of arrivals the rate prediction reads.
pub(super) const PREDICT_WINDOW: SimTime = SimTime::from_secs(4);

/// Capacity headroom the scaler plans for: 1.15 provisions 15 % above
/// the predicted rate, absorbing Poisson bursts within a window.
const HEADROOM: f64 = 1.15;

/// The scaler never drains a function below this replica count.
const MIN_REPLICAS: usize = 1;

/// Records an arrival at `now` (no earlier than the last one) and drops
/// the arrivals before `now − window`, which no later prediction reads.
pub(super) fn record_arrival(arrivals: &mut VecDeque<SimTime>, now: SimTime, window: SimTime) {
    debug_assert!(arrivals.back().map_or(true, |&last| last <= now), "arrivals out of order");
    let oldest = now.saturating_sub(window);
    while arrivals.front().is_some_and(|&t| t < oldest) {
        arrivals.pop_front();
    }
    arrivals.push_back(now);
}

/// Whether a decoded window is one [`record_arrival`] can leave by `now`:
/// sorted, no later than `now`, and nothing before `last − window`.
pub(super) fn arrival_window_fits(arrivals: &VecDeque<SimTime>, now: SimTime, window: SimTime) -> bool {
    let Some(&last) = arrivals.back() else {
        return true;
    };
    let sorted = arrivals.iter().zip(arrivals.iter().skip(1)).all(|(a, b)| a <= b);
    sorted && last <= now && arrivals.front().is_some_and(|&t| t >= last.saturating_sub(window))
}

/// Predicted near-future arrival rate at `now`: the rate over the
/// trailing half-window plus its trend against the half-window before,
/// extrapolated one half-window ahead. During ramps a plain trailing mean
/// lags the true rate by about half the window, which is exactly the
/// under-provisioning that blows SLOs during scale-up; the trend term
/// cancels that lag. Never negative. Reads `arrivals` in
/// `[now − window, now)`, which [`record_arrival`] keeps for any `now` at
/// or after the last arrival.
fn predicted_rps(arrivals: &VecDeque<SimTime>, now: SimTime, window: SimTime) -> f64 {
    let half = window / 2;
    let mid = now.saturating_sub(half);
    let r_old = rate_in(arrivals, now.saturating_sub(window), mid);
    let r_new = rate_in(arrivals, mid, now);
    (r_new + (r_new - r_old)).max(0.0)
}

/// Mean arrival rate over `[from, to)`; zero for an empty span.
fn rate_in(arrivals: &VecDeque<SimTime>, from: SimTime, to: SimTime) -> f64 {
    let span = to.saturating_sub(from).as_secs_f64();
    if span <= 0.0 {
        return 0.0;
    }
    let before = |x: SimTime| arrivals.partition_point(|&t| t < x);
    (before(to) - before(from)) as f64 / span
}

impl Engine {
    pub(super) fn on_scale_tick(&mut self, now: SimTime, queue: &mut EventQueue<Event>) {
        schedule_next(queue, now, self.cfg.autoscale_interval, Event::ScaleTick);
        let Some(db) = self.autoscale_db.take() else {
            return;
        };
        let func_ids: Vec<FuncId> = self.funcs.keys().collect();
        for func in func_ids {
            self.scale_function(now, func, &db, queue);
        }
        self.autoscale_db = Some(db);
    }

    fn scale_function(
        &mut self,
        now: SimTime,
        func: FuncId,
        db: &ProfileDb,
        queue: &mut EventQueue<Event>,
    ) {
        let rt = &self.funcs[func];
        let model_name = &rt.spec.model;
        let profile = db.config_points(model_name);
        if profile.is_empty() {
            return;
        }
        let predicted = predicted_rps(&rt.arrival_window, now, PREDICT_WINDOW) * HEADROOM;
        let running: Vec<RunningPod> = self
            .gateway
            .members(func)
            .iter()
            .filter_map(|&p| {
                let spec = self.pod_rt(self.locate(p)?)?.spec;
                let sm = spec.sm_partition;
                // Capacity accounting uses the guaranteed share; elastic
                // headroom above the request is a bonus, not a promise.
                let quota = spec.quota_request;
                let rps = db.throughput_of(model_name, sm, quota)?;
                Some(RunningPod {
                    pod: p,
                    config: ConfigPoint { sm, quota, rps },
                })
            })
            .collect();
        let capacity: f64 = running.iter().map(|r| r.config.rps).sum();
        let delta = predicted - capacity;
        let actions = heuristic_scale(delta, &profile, &running);
        let mut remaining = running.len();
        for action in actions {
            match action {
                ScaleAction::Up(p) => {
                    let mem = self.funcs[func].model.memory.total();
                    // Guaranteed share = the profiled quota; the limit is
                    // elastic (the paper's Kubernetes-style allocation:
                    // idle GPU time may be used beyond the request).
                    let spec = ResourceSpec::new(p.sm, p.quota, 1.0, mem);
                    // Placement failure is counted inside create_pod.
                    if self.create_pod(now, func, spec, queue).is_ok() {
                        if let Some(rt) = self.funcs.get_mut(func) {
                            rt.desired_replicas += 1;
                        }
                    }
                }
                ScaleAction::Down(pod) => {
                    if remaining > MIN_REPLICAS {
                        self.drain_pod(pod, queue);
                        remaining -= 1;
                        if let Some(rt) = self.funcs.get_mut(func) {
                            rt.desired_replicas =
                                rt.desired_replicas.saturating_sub(1).max(MIN_REPLICAS);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn us(t: u64) -> SimTime {
        SimTime::from_micros(t)
    }

    /// A window fed `arrivals` through [`record_arrival`].
    fn window_of(arrivals: &[SimTime], window: SimTime) -> VecDeque<SimTime> {
        let mut w = VecDeque::new();
        for &t in arrivals {
            record_arrival(&mut w, t, window);
        }
        w
    }

    /// The prediction from every arrival ever recorded: the same
    /// arithmetic with each half-open count a scan of the full list.
    fn brute_force(all: &[SimTime], now: SimTime, window: SimTime) -> f64 {
        let rate = |from: SimTime, to: SimTime| {
            let span = to.saturating_sub(from).as_secs_f64();
            let n = all.iter().filter(|&&t| from <= t && t < to).count();
            if span <= 0.0 {
                0.0
            } else {
                n as f64 / span
            }
        };
        let mid = now.saturating_sub(window / 2);
        let r_old = rate(now.saturating_sub(window), mid);
        let r_new = rate(mid, now);
        (r_new + (r_new - r_old)).max(0.0)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 256 } else { 2048 }))]

        /// The windowed predictor equals the brute force over every
        /// arrival, bit for bit, at ticks from the first instant to far
        /// past the last arrival: between arrivals, at an arrival's
        /// instant, and after same-instant repeats, for odd-µs windows and
        /// windows longer than the whole run.
        #[test]
        fn windowed_prediction_is_the_brute_force_over_every_arrival(
            gaps in prop::collection::vec(prop_oneof![Just(0u64), 0u64..4, 0u64..40, 0u64..3_000], 0..80),
            window_us in prop_oneof![(0u64..40).prop_map(|w| 2 * w + 1), 1u64..200, 1u64..400_000],
            first in prop_oneof![Just(0u64), 0u64..50],
            past in prop::collection::vec(0u64..1_000_000, 0..6),
        ) {
            let window = us(window_us);
            let mut all: Vec<SimTime> = Vec::new();
            let mut w = VecDeque::new();
            let check = |w: &VecDeque<SimTime>, all: &[SimTime], now: SimTime| {
                prop_assert_eq!(
                    predicted_rps(w, now, window).to_bits(),
                    brute_force(all, now, window).to_bits(),
                    "now {:?}, window {:?}, arrivals {:?}", now, window, all
                );
                Ok(())
            };
            check(&w, &all, SimTime::ZERO)?;
            let mut t = first;
            for &gap in &gaps {
                t += gap;
                // Ticks at or after the last arrival: halfway to this one,
                // and at its instant before and after it is recorded.
                let last = all.last().map_or(0, |l| l.as_micros());
                check(&w, &all, us(last + (t - last) / 2))?;
                check(&w, &all, us(t))?;
                record_arrival(&mut w, us(t), window);
                all.push(us(t));
                check(&w, &all, us(t))?;
                prop_assert!(arrival_window_fits(&w, us(t), window));
            }
            let last = t;
            for extra in [0, 1, window_us / 2, window_us, window_us + 1, 3 * window_us] {
                check(&w, &all, us(last + extra))?;
            }
            for p in past {
                check(&w, &all, us(last + p))?;
            }
        }
    }

    #[test]
    fn predicted_rps_anticipates_ramps() {
        let window = SimTime::from_secs(4);
        // First 2 s at 50 rps, next 2 s at 150 rps.
        let arrivals: Vec<SimTime> = (0..100u64)
            .map(|i| SimTime::from_millis(i * 20))
            .chain((0..300u64).map(|i| SimTime::from_secs(2) + us(i * 6_667)))
            .collect();
        let w = window_of(&arrivals, window);
        let now = SimTime::from_secs(4);
        let trailing = rate_in(&w, now.saturating_sub(window), now);
        let predicted = predicted_rps(&w, now, window);
        // Trailing mean ~100, prediction extrapolates towards ~250.
        assert!((trailing - 100.0).abs() < 10.0, "trailing {trailing}");
        assert!(predicted > 200.0, "predicted {predicted}");
    }

    #[test]
    fn predicted_rps_never_negative() {
        let window = SimTime::from_secs(4);
        // A burst followed by silence: the raw trend would be negative.
        let arrivals: Vec<SimTime> = (0..200u64).map(SimTime::from_millis).collect();
        let w = window_of(&arrivals, window);
        assert_eq!(predicted_rps(&w, SimTime::from_secs(10), window), 0.0);
    }
}

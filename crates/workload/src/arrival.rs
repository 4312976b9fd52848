//! Open-loop request arrival processes.

use fastg_des::snap::{Snap, SnapError, SnapReader, SnapWriter};
use fastg_des::{snap_enum, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// An open-loop arrival process: a deterministic (seeded) generator of
/// request arrival timestamps.
///
/// All constructors take rates in requests/second. `next_after(now)`
/// returns the next arrival strictly after `now`, or `None` once the
/// process is exhausted (trace end, or rate fell to zero).
#[derive(Debug, Clone)]
pub struct ArrivalProcess {
    kind: Kind,
    rng: SmallRng,
    cursor: SimTime,
}

#[derive(Debug, Clone)]
enum Kind {
    /// Evenly spaced arrivals at a fixed rate.
    Constant { rate: f64 },
    /// Poisson arrivals at a fixed rate.
    Poisson { rate: f64 },
    /// Poisson arrivals whose rate is linearly interpolated between
    /// `(time, rate)` knots; constant after the last knot.
    Profile { knots: Vec<(SimTime, f64)> },
    /// Exact timestamps (a recorded trace). `next` indexes the remainder.
    Trace { times: Vec<SimTime>, next: usize },
}

impl ArrivalProcess {
    /// Evenly spaced arrivals at `rate` requests/second.
    // fastg-lint: allow(no-test-only-pub) — 31 tests drive it and pin digests on it; moving them would re-pin values
    pub fn constant(rate: f64) -> Self {
        debug_assert!(rate >= 0.0, "negative rate");
        let rate = rate.max(0.0);
        Self::with_kind(Kind::Constant { rate }, 0)
    }

    /// Poisson arrivals at `rate` requests/second.
    pub fn poisson(rate: f64, seed: u64) -> Self {
        debug_assert!(rate >= 0.0, "negative rate");
        let rate = rate.max(0.0);
        Self::with_kind(Kind::Poisson { rate }, seed)
    }

    /// Poisson arrivals with a piecewise-linear rate profile. `knots` must
    /// be time-sorted; the rate before the first knot equals the first
    /// knot's rate and stays at the last knot's rate afterwards.
    pub fn profile(knots: Vec<(SimTime, f64)>, seed: u64) -> Self {
        debug_assert!(!knots.is_empty(), "empty rate profile");
        debug_assert!(
            knots.windows(2).all(|w| w[0].0 <= w[1].0),
            "rate profile knots must be time-sorted"
        );
        debug_assert!(knots.iter().all(|&(_, r)| r >= 0.0), "negative rate");
        // Sanitize rather than panic: sort out-of-order knots, clamp
        // negative rates, and treat an empty profile as always-off.
        let mut knots = knots;
        if knots.is_empty() {
            knots.push((SimTime::ZERO, 0.0));
        }
        knots.sort_by_key(|&(t, _)| t);
        for k in &mut knots {
            k.1 = k.1.max(0.0);
        }
        Self::with_kind(Kind::Profile { knots }, seed)
    }

    /// A linear ramp from `from_rate` to `to_rate` over `duration`, then
    /// constant.
    pub fn ramp(from_rate: f64, to_rate: f64, duration: SimTime, seed: u64) -> Self {
        Self::profile(
            vec![(SimTime::ZERO, from_rate), (duration, to_rate)],
            seed,
        )
    }

    /// Exact recorded timestamps (must be sorted).
    pub fn trace(mut times: Vec<SimTime>) -> Self {
        times.sort_unstable();
        Self::with_kind(Kind::Trace { times, next: 0 }, 0)
    }

    fn with_kind(kind: Kind, seed: u64) -> Self {
        ArrivalProcess {
            kind,
            rng: SmallRng::seed_from_u64(seed),
            cursor: SimTime::ZERO,
        }
    }

    /// The instantaneous target rate at `t` (requests/second).
    pub fn rate_at(&self, t: SimTime) -> f64 {
        match &self.kind {
            Kind::Constant { rate } | Kind::Poisson { rate } => *rate,
            Kind::Profile { knots } => {
                if t < knots[0].0 {
                    return knots[0].1;
                }
                // Strict upper bound so that at a step boundary (duplicate
                // knot times) the *later* segment wins — otherwise the
                // generator reads the pre-step rate exactly at the step.
                for w in knots.windows(2) {
                    let (t0, r0) = w[0];
                    let (t1, r1) = w[1];
                    if t < t1 {
                        let span = (t1 - t0).as_secs_f64();
                        if span <= 0.0 {
                            return r1;
                        }
                        let frac = (t - t0).as_secs_f64() / span;
                        return r0 + (r1 - r0) * frac;
                    }
                }
                knots.last().map_or(0.0, |k| k.1)
            }
            Kind::Trace { .. } => 0.0,
        }
    }

    /// The next arrival strictly after `now`, advancing the generator.
    pub fn next_after(&mut self, now: SimTime) -> Option<SimTime> {
        self.cursor = self.cursor.max(now);
        match &mut self.kind {
            Kind::Constant { rate } => {
                if *rate <= 0.0 {
                    return None;
                }
                let gap = SimTime::from_secs_f64(1.0 / *rate).max(SimTime::from_micros(1));
                self.cursor += gap;
                Some(self.cursor)
            }
            Kind::Poisson { rate } => {
                if *rate <= 0.0 {
                    return None;
                }
                let gap = exp_sample(&mut self.rng, *rate);
                self.cursor += gap;
                Some(self.cursor)
            }
            Kind::Profile { .. } => {
                // Sample with the instantaneous rate at the cursor; for the
                // slowly varying profiles used in evaluation this is an
                // adequate non-homogeneous Poisson approximation.
                let rate = self.rate_at(self.cursor);
                if rate <= 0.0 {
                    // Skip forward until the profile becomes non-zero.
                    let next_on = match &self.kind {
                        Kind::Profile { knots } => knots
                            .iter()
                            .find(|&&(t, r)| t > self.cursor && r > 0.0)
                            .map(|&(t, _)| t),
                        _ => {
                            debug_assert!(false, "off-rate gaps only occur in profiles");
                            None
                        }
                    };
                    let t = next_on?;
                    self.cursor = t;
                    return Some(t);
                }
                let gap = exp_sample(&mut self.rng, rate);
                self.cursor += gap;
                Some(self.cursor)
            }
            Kind::Trace { times, next } => {
                while *next < times.len() && times[*next] <= now {
                    *next += 1;
                }
                let t = times.get(*next).copied()?;
                *next += 1;
                self.cursor = t;
                Some(t)
            }
        }
    }
}

snap_enum!(Kind, "arrival Kind tag" {
    Constant { rate } = 0,
    Poisson { rate } = 1,
    Profile { knots } = 2,
    Trace { times, next } = 3,
});

impl Snap for ArrivalProcess {
    /// The RNG is captured as its raw xoshiro256++ state, so a restored
    /// process continues the exact same arrival stream mid-sequence.
    fn snap(&self, w: &mut SnapWriter) {
        let Self { kind, rng, cursor } = self;
        kind.snap(w);
        for word in rng.state() {
            w.u64(word);
        }
        cursor.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let kind = Kind::unsnap(r)?;
        let state = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
        let cursor = SimTime::unsnap(r)?;
        Ok(ArrivalProcess {
            kind,
            rng: SmallRng::from_state(state),
            cursor,
        })
    }
}

/// Exponential inter-arrival sample at `rate` per second, floored to 1 µs
/// so simulated time always advances.
fn exp_sample(rng: &mut SmallRng, rate: f64) -> SimTime {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    let secs = -u.ln() / rate;
    SimTime::from_secs_f64(secs).max(SimTime::from_micros(1))
}

/// Test draws go through [`ArrivalProcess::next_after`], as the
/// engine's arrival chain does.
#[cfg(test)]
impl ArrivalProcess {
    /// Every arrival in `[0, until)`.
    pub(crate) fn collect_until(&mut self, until: SimTime) -> Vec<SimTime> {
        let mut out = Vec::new();
        let mut now = SimTime::ZERO;
        while let Some(t) = self.next_after(now).filter(|&t| t < until) {
            out.push(t);
            now = t;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_evenly_spaced() {
        let mut p = ArrivalProcess::constant(100.0);
        let ts = p.collect_until(SimTime::from_secs(1));
        assert_eq!(ts.len(), 99); // 10ms, 20ms, ..., 990ms
        assert_eq!(ts[0], SimTime::from_millis(10));
        assert_eq!(ts[1] - ts[0], SimTime::from_millis(10));
    }

    #[test]
    fn poisson_hits_mean_rate() {
        let mut p = ArrivalProcess::poisson(200.0, 42);
        let ts = p.collect_until(SimTime::from_secs(50));
        let rate = ts.len() as f64 / 50.0;
        assert!((rate - 200.0).abs() < 10.0, "rate = {rate}");
    }

    #[test]
    fn poisson_is_deterministic_per_seed() {
        let a = ArrivalProcess::poisson(50.0, 7).collect_until(SimTime::from_secs(2));
        let b = ArrivalProcess::poisson(50.0, 7).collect_until(SimTime::from_secs(2));
        let c = ArrivalProcess::poisson(50.0, 8).collect_until(SimTime::from_secs(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn ramp_rate_interpolates() {
        let p = ArrivalProcess::ramp(0.0, 100.0, SimTime::from_secs(10), 1);
        assert_eq!(p.rate_at(SimTime::ZERO), 0.0);
        assert!((p.rate_at(SimTime::from_secs(5)) - 50.0).abs() < 1e-9);
        assert!((p.rate_at(SimTime::from_secs(10)) - 100.0).abs() < 1e-9);
        assert!((p.rate_at(SimTime::from_secs(20)) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn ramp_generates_increasing_density() {
        let mut p = ArrivalProcess::ramp(10.0, 200.0, SimTime::from_secs(20), 3);
        let ts = p.collect_until(SimTime::from_secs(20));
        let first_half = ts.iter().filter(|&&t| t < SimTime::from_secs(10)).count();
        let second_half = ts.len() - first_half;
        assert!(second_half > first_half * 2, "{first_half} vs {second_half}");
    }

    #[test]
    fn zero_rate_profile_skips_to_next_knot() {
        let mut p = ArrivalProcess::profile(
            vec![
                (SimTime::ZERO, 0.0),
                (SimTime::from_secs(5), 0.0),
                (SimTime::from_secs(5), 100.0),
            ],
            9,
        );
        let first = p.next_after(SimTime::ZERO).unwrap();
        assert_eq!(first, SimTime::from_secs(5));
    }

    #[test]
    fn trace_replays_and_exhausts() {
        let mut p = ArrivalProcess::trace(vec![
            SimTime::from_millis(5),
            SimTime::from_millis(1),
            SimTime::from_millis(9),
        ]);
        assert_eq!(p.next_after(SimTime::ZERO), Some(SimTime::from_millis(1)));
        assert_eq!(
            p.next_after(SimTime::from_millis(1)),
            Some(SimTime::from_millis(5))
        );
        assert_eq!(
            p.next_after(SimTime::from_millis(5)),
            Some(SimTime::from_millis(9))
        );
        assert_eq!(p.next_after(SimTime::from_millis(9)), None);
    }

    #[test]
    fn zero_constant_rate_yields_nothing() {
        let mut p = ArrivalProcess::constant(0.0);
        assert_eq!(p.next_after(SimTime::ZERO), None);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "time-sorted"))]
    fn unsorted_profile_rejected() {
        let unsorted = ArrivalProcess::profile(
            vec![(SimTime::from_secs(5), 1.0), (SimTime::ZERO, 2.0)],
            0,
        );
        // Release builds sort the knots instead.
        let sorted = ArrivalProcess::profile(
            vec![(SimTime::ZERO, 2.0), (SimTime::from_secs(5), 1.0)],
            0,
        );
        for s in 0..7 {
            let t = SimTime::from_secs(s);
            assert_eq!(unsorted.rate_at(t), sorted.rate_at(t), "at {s} s");
        }
    }
}

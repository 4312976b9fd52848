//! Synthetic production-trace generators.
//!
//! Public FaaS traces (e.g. the Azure Functions dataset) show two dominant
//! structures the auto-scaler must survive: slow *diurnal* swings and
//! sharp *bursts* stacked on a base rate. These builders synthesize both
//! as piecewise-linear rate profiles feeding the Poisson arrival process,
//! deterministic per seed — the closest reproducible equivalent of
//! replaying a proprietary trace.

use crate::arrival::ArrivalProcess;
use fastg_des::SimTime;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A day-like sinusoidal load swing compressed into `period`.
///
/// The rate follows `base + (peak − base) × (1 − cos(2πt/period)) / 2`,
/// sampled at 32 knots per period — smooth enough that the scaler sees a
/// realistic ramp, coarse enough to stay cheap.
pub fn diurnal(
    base_rps: f64,
    peak_rps: f64,
    period: SimTime,
    cycles: u32,
    seed: u64,
) -> ArrivalProcess {
    debug_assert!(base_rps >= 0.0 && peak_rps >= base_rps, "peak below base");
    debug_assert!(period > SimTime::ZERO && cycles > 0);
    let base_rps = base_rps.max(0.0);
    let peak_rps = peak_rps.max(base_rps);
    let period = period.max(SimTime::from_micros(1));
    let cycles = cycles.max(1);
    const KNOTS_PER_CYCLE: u32 = 32;
    let total_knots = cycles * KNOTS_PER_CYCLE;
    let mut knots = Vec::with_capacity(usize::try_from(total_knots + 1).unwrap_or(0));
    for k in 0..=total_knots {
        let t = period.scale(k as f64 / KNOTS_PER_CYCLE as f64);
        let phase = 2.0 * std::f64::consts::PI * (k % KNOTS_PER_CYCLE) as f64
            / KNOTS_PER_CYCLE as f64;
        let rate = base_rps + (peak_rps - base_rps) * (1.0 - phase.cos()) / 2.0;
        knots.push((t, rate));
    }
    ArrivalProcess::profile(knots, seed)
}

/// A bursty trace: a flat `base_rps` with `bursts` randomly placed spikes
/// of `burst_rps` lasting `burst_len` each, over `duration`. Burst
/// placement is seeded and non-overlapping spikes may merge (rates add
/// where they do not — we take the max, which is what stacked tenants
/// look like after per-function splitting).
pub fn bursty(
    base_rps: f64,
    burst_rps: f64,
    bursts: u32,
    burst_len: SimTime,
    duration: SimTime,
    seed: u64,
) -> ArrivalProcess {
    debug_assert!(burst_rps >= base_rps, "burst below base");
    debug_assert!(duration > burst_len, "duration must exceed one burst");
    let burst_rps = burst_rps.max(base_rps);
    let duration = if duration > burst_len {
        duration
    } else {
        burst_len + SimTime::from_micros(1)
    };
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut starts: Vec<u64> = (0..bursts)
        .map(|_| rng.gen_range(0..duration.saturating_sub(burst_len).as_micros()))
        .collect();
    starts.sort_unstable();
    // Build step knots: duplicate-time knots encode vertical steps.
    let mut knots: Vec<(SimTime, f64)> = vec![(SimTime::ZERO, base_rps)];
    let mut burst_end = SimTime::ZERO;
    for s in starts {
        let start = SimTime::from_micros(s).max(burst_end);
        let end = (start + burst_len).min(duration);
        if start >= end {
            continue;
        }
        knots.push((start, base_rps));
        knots.push((start, burst_rps));
        knots.push((end, burst_rps));
        knots.push((end, base_rps));
        burst_end = end;
    }
    knots.push((duration, base_rps));
    ArrivalProcess::profile(knots, seed.wrapping_add(1))
}

/// A flash crowd: a flat `base_rps` until `at`, a steep linear ramp to
/// `peak_rps` over `ramp`, a `hold` at the peak, an equally steep decay
/// back, then base rate until `duration`. Optional seeded aftershocks —
/// `aftershocks` half-height, half-length echo spikes in the tail — model
/// the retry storms that follow real incidents. The profile is the
/// canonical overload-control stressor: the ramp outruns any scaler, so
/// survival depends on admission control and shedding, not capacity.
#[allow(clippy::too_many_arguments)]
pub fn flash_crowd(
    base_rps: f64,
    peak_rps: f64,
    at: SimTime,
    ramp: SimTime,
    hold: SimTime,
    duration: SimTime,
    aftershocks: u32,
    seed: u64,
) -> ArrivalProcess {
    debug_assert!(peak_rps >= base_rps, "peak below base");
    debug_assert!(duration > at, "crowd must arrive before the end");
    let base_rps = base_rps.max(0.0);
    let peak_rps = peak_rps.max(base_rps);
    let ramp = ramp.max(SimTime::from_micros(1));
    let at = at.min(duration);
    let crest = (at + ramp).min(duration);
    let fall = (crest + hold).min(duration);
    let settled = (fall + ramp).min(duration);
    let mut knots: Vec<(SimTime, f64)> = vec![
        (SimTime::ZERO, base_rps),
        (at, base_rps),
        (crest, peak_rps),
        (fall, peak_rps),
        (settled, base_rps),
    ];
    // Echo spikes in the tail after the main crowd settles.
    if aftershocks > 0 && settled < duration {
        let echo_rps = base_rps + (peak_rps - base_rps) / 2.0;
        let echo_len = SimTime::from_micros((hold.as_micros() / 2).max(1));
        let mut rng = SmallRng::seed_from_u64(seed);
        let tail = duration.saturating_sub(settled).saturating_sub(echo_len);
        let mut starts: Vec<u64> = (0..aftershocks)
            .map(|_| rng.gen_range(0..tail.as_micros().max(1)))
            .collect();
        starts.sort_unstable();
        let mut echo_end = settled;
        for s in starts {
            let start = (settled + SimTime::from_micros(s)).max(echo_end);
            let end = (start + echo_len).min(duration);
            if start >= end {
                continue;
            }
            knots.push((start, base_rps));
            knots.push((start, echo_rps));
            knots.push((end, echo_rps));
            knots.push((end, base_rps));
            echo_end = end;
        }
    }
    knots.push((duration, base_rps));
    ArrivalProcess::profile(knots, seed.wrapping_add(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diurnal_rate_swings_between_base_and_peak() {
        let p = diurnal(10.0, 110.0, SimTime::from_secs(60), 2, 1);
        // Trough at t=0, crest at half period.
        assert!((p.rate_at(SimTime::ZERO) - 10.0).abs() < 1e-6);
        let crest = p.rate_at(SimTime::from_secs(30));
        assert!((crest - 110.0).abs() < 2.0, "crest {crest}");
        // Second cycle repeats.
        let crest2 = p.rate_at(SimTime::from_secs(90));
        assert!((crest2 - crest).abs() < 2.0);
    }

    #[test]
    fn diurnal_arrival_counts_track_the_swing() {
        let mut p = diurnal(20.0, 200.0, SimTime::from_secs(40), 1, 5);
        let ts = p.collect_until(SimTime::from_secs(40));
        let trough: usize = ts.iter().filter(|&&t| t < SimTime::from_secs(10)).count();
        let crest = ts
            .iter()
            .filter(|&&t| (SimTime::from_secs(15)..SimTime::from_secs(25)).contains(&t))
            .count();
        assert!(crest > trough * 2, "crest {crest} vs trough {trough}");
    }

    #[test]
    fn bursty_trace_has_spikes() {
        let p = bursty(
            10.0,
            300.0,
            3,
            SimTime::from_secs(2),
            SimTime::from_secs(60),
            9,
        );
        // Somewhere the instantaneous rate reaches the burst level.
        let peak = (0..600)
            .map(|i| p.rate_at(SimTime::from_millis(i * 100)))
            .fold(0.0f64, f64::max);
        assert!((peak - 300.0).abs() < 1e-6, "peak {peak}");
        // And the base level is the floor.
        let floor = (0..600)
            .map(|i| p.rate_at(SimTime::from_millis(i * 100)))
            .fold(f64::INFINITY, f64::min);
        assert!((floor - 10.0).abs() < 1e-6, "floor {floor}");
    }

    #[test]
    fn bursty_is_deterministic_per_seed() {
        let a = bursty(5.0, 100.0, 4, SimTime::from_secs(1), SimTime::from_secs(30), 3)
            .collect_until(SimTime::from_secs(30));
        let b = bursty(5.0, 100.0, 4, SimTime::from_secs(1), SimTime::from_secs(30), 3)
            .collect_until(SimTime::from_secs(30));
        assert_eq!(a, b);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "peak below base"))]
    fn diurnal_validates_range() {
        let p = diurnal(100.0, 10.0, SimTime::from_secs(1), 1, 0);
        // Release builds raise the peak to the base instead: a flat load.
        for ms in [0, 250, 500, 750, 1000] {
            assert_eq!(p.rate_at(SimTime::from_millis(ms)), 100.0, "at {ms} ms");
        }
    }

    #[test]
    fn flash_crowd_ramps_holds_and_settles() {
        let p = flash_crowd(
            20.0,
            400.0,
            SimTime::from_secs(10),
            SimTime::from_secs(2),
            SimTime::from_secs(5),
            SimTime::from_secs(60),
            0,
            7,
        );
        assert!((p.rate_at(SimTime::from_secs(5)) - 20.0).abs() < 1e-6);
        // Mid-ramp is between base and peak.
        let mid = p.rate_at(SimTime::from_secs(11));
        assert!(mid > 100.0 && mid < 350.0, "mid-ramp {mid}");
        // The hold sits at the peak.
        assert!((p.rate_at(SimTime::from_secs(14)) - 400.0).abs() < 1e-6);
        // Long after the crowd, base again.
        assert!((p.rate_at(SimTime::from_secs(50)) - 20.0).abs() < 1e-6);
    }

    #[test]
    fn flash_crowd_aftershocks_echo_in_the_tail() {
        let p = flash_crowd(
            10.0,
            210.0,
            SimTime::from_secs(5),
            SimTime::from_secs(1),
            SimTime::from_secs(4),
            SimTime::from_secs(120),
            3,
            11,
        );
        // Somewhere after the crowd settles (t > 11s) the rate reaches the
        // half-height echo level.
        let echo = (12..120)
            .map(|s| p.rate_at(SimTime::from_secs(s)))
            .fold(0.0f64, f64::max);
        assert!((echo - 110.0).abs() < 1e-6, "echo {echo}");
    }

    #[test]
    fn flash_crowd_is_deterministic_per_seed() {
        let mk = || {
            flash_crowd(
                5.0,
                150.0,
                SimTime::from_secs(3),
                SimTime::from_secs(1),
                SimTime::from_secs(2),
                SimTime::from_secs(30),
                2,
                13,
            )
            .collect_until(SimTime::from_secs(30))
        };
        assert_eq!(mk(), mk());
    }
}

//! Throughput measurement: windowed event counts and warm-up-relative
//! rates.

use fastg_des::snap::SnapError;
use fastg_des::{snap_struct, SimTime};

/// One run-length-encoded stretch of evenly spaced timestamps:
/// `start, start+gap, …, start+(count−1)×gap` (all in microseconds).
#[derive(Debug, Clone, Copy)]
struct Run {
    start_us: u64,
    gap_us: u64,
    count: u64,
}

impl Run {
    fn last_us(&self) -> u64 {
        self.start_us + self.gap_us * (self.count - 1)
    }

    /// How many of this run's timestamps are strictly before `x` µs.
    fn count_before(&self, x_us: u64) -> u64 {
        if x_us <= self.start_us {
            0
        } else if self.gap_us == 0 {
            self.count
        } else {
            self.count.min((x_us - self.start_us).div_ceil(self.gap_us))
        }
    }
}

/// Measures achieved throughput by recording event timestamps and counting
/// them over arbitrary windows.
///
/// Timestamps are stored run-length encoded: evenly spaced stretches (the
/// shape a constant-rate load produces) collapse to one
/// `(start, gap, count)` triple. Irregular spacing does not: under Poisson
/// load nearly every event starts a run of its own, so memory grows with
/// the events recorded. Counting queries stay exact. The gateway's
/// per-function arrival history is the last user; a reader that only needs
/// a total and one fixed window start should use a [`WarmupCounter`].
#[derive(Debug, Clone, Default)]
pub struct RateMeter {
    runs: Vec<Run>,
    total: u64,
}

impl RateMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one event (e.g. a completed request) at `now`. Events must
    /// be recorded in non-decreasing time order.
    pub fn record(&mut self, now: SimTime) {
        let now_us = now.as_micros();
        debug_assert!(self.runs.last().map_or(true, |r| r.last_us() <= now_us));
        self.total += 1;
        if let Some(r) = self.runs.last_mut() {
            if r.count == 1 && now_us >= r.start_us {
                r.gap_us = now_us - r.start_us;
                r.count = 2;
                return;
            }
            if now_us.checked_sub(r.last_us()) == Some(r.gap_us) {
                r.count += 1;
                return;
            }
        }
        self.runs.push(Run {
            start_us: now_us,
            gap_us: 0,
            count: 1,
        });
    }

    /// Total events recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Events strictly before `to`.
    fn count_before(&self, to: SimTime) -> u64 {
        let x_us = to.as_micros();
        let mut n = 0;
        for r in &self.runs {
            if x_us <= r.start_us {
                break;
            }
            n += r.count_before(x_us);
        }
        n
    }

    /// Events in `[from, to)`.
    pub fn count_between(&self, from: SimTime, to: SimTime) -> u64 {
        if to <= from {
            return 0;
        }
        self.count_before(to) - self.count_before(from)
    }

    /// Mean rate (events/second) over `[from, to)`; zero for an empty
    /// window.
    pub fn rate_between(&self, from: SimTime, to: SimTime) -> f64 {
        let span = to.saturating_sub(from).as_secs_f64();
        if span <= 0.0 {
            0.0
        } else {
            self.count_between(from, to) as f64 / span
        }
    }
}

snap_struct!(Run {
    start_us,
    gap_us,
    count,
});

snap_struct!(RateMeter { runs, total } check |m| {
    // Checked: decoded run counts may sum past `u64::MAX`.
    if m.runs.iter().try_fold(0u64, |a, run| a.checked_add(run.count)) != Some(m.total) {
        return Err(SnapError::new("rate meter total"));
    }
    Ok(())
});

/// Counts events and answers [`RateMeter::rate_between`]`(warmup, now)`
/// for one fixed `warmup` instant in constant space.
///
/// It keeps the total, the events strictly before `warmup`, and the latest
/// record instant with the events recorded at it: enough to exclude
/// events at exactly `now` (the window's strict upper bound) for any
/// `now` at or after the last record. The warm-up instant is not stored;
/// every call passes the same one in.
#[derive(Debug, Clone, Default)]
pub struct WarmupCounter {
    total: u64,
    /// Events recorded strictly before the warm-up instant.
    before_warmup: u64,
    /// The latest record instant.
    last: SimTime,
    /// Events recorded at `last`; zero only while the counter is empty.
    at_last: u64,
}

impl WarmupCounter {
    /// Creates an empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one event at `now`. Events must be recorded in
    /// non-decreasing time order.
    pub fn record(&mut self, now: SimTime, warmup: SimTime) {
        debug_assert!(
            self.at_last == 0 || self.last <= now,
            "counter records out of order"
        );
        self.total += 1;
        if now < warmup {
            self.before_warmup += 1;
        }
        if self.at_last > 0 && now == self.last {
            self.at_last += 1;
        } else {
            self.last = now;
            self.at_last = 1;
        }
    }

    /// Total events recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean rate (events/second) over `[warmup, now)`; zero for an empty
    /// window. Bit-identical to a [`RateMeter`] fed the same events, for
    /// any `now` at or after the last record.
    pub fn rate_since(&self, warmup: SimTime, now: SimTime) -> f64 {
        debug_assert!(
            self.at_last == 0 || self.last <= now,
            "rate read before the last record"
        );
        let span = now.saturating_sub(warmup).as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        let before_now = if now > self.last {
            self.total
        } else {
            self.total - self.at_last
        };
        before_now.saturating_sub(self.before_warmup) as f64 / span
    }

    /// Whether the counts are consistent with records made against
    /// `warmup`: none at or after it is counted as before it.
    pub fn fits_warmup(&self, warmup: SimTime) -> bool {
        if self.last < warmup {
            self.before_warmup == self.total
        } else {
            self.before_warmup <= self.total - self.at_last
        }
    }
}

snap_struct!(WarmupCounter { total, before_warmup, last, at_last } check |c| {
    if c.before_warmup > c.total || c.at_last > c.total || (c.at_last == 0) != (c.total == 0) {
        return Err(SnapError::new("warm-up counter"));
    }
    Ok(())
});

#[cfg(test)]
mod tests {
    use super::*;
    use fastg_des::snap::{Snap, SnapReader, SnapWriter};

    #[test]
    fn meter_counts_windows() {
        let mut m = RateMeter::new();
        for i in 0..100 {
            m.record(SimTime::from_millis(i * 10)); // 100 events over 1s
        }
        assert_eq!(m.count(), 100);
        assert_eq!(
            m.count_between(SimTime::ZERO, SimTime::from_millis(500)),
            50
        );
        let r = m.rate_between(SimTime::ZERO, SimTime::from_secs(1));
        assert!((r - 100.0).abs() < 1e-9);
        assert_eq!(m.rate_between(SimTime::from_secs(5), SimTime::from_secs(5)), 0.0);
    }

    #[test]
    fn rle_meter_matches_pointwise_recording() {
        // Irregular spacings, repeats, and regime changes all count
        // exactly as a flat Vec<SimTime> would.
        let ts: Vec<u64> = vec![0, 0, 3, 6, 9, 9, 9, 14, 15, 16, 17, 40, 41];
        let mut m = RateMeter::new();
        for &t in &ts {
            m.record(SimTime::from_micros(t));
        }
        assert_eq!(m.count(), ts.len() as u64);
        for from in 0..45u64 {
            for to in from..46u64 {
                let expect = ts.iter().filter(|&&t| t >= from && t < to).count() as u64;
                let got = m.count_between(SimTime::from_micros(from), SimTime::from_micros(to));
                assert_eq!(got, expect, "window [{from},{to})");
            }
        }
    }

    #[test]
    fn warmup_counter_decode_checks_its_counts() {
        let encode = |total: u64, before_warmup: u64, at_last: u64| {
            let mut w = SnapWriter::new();
            w.u64(total);
            w.u64(before_warmup);
            SimTime::from_secs(1).snap(&mut w);
            w.u64(at_last);
            w.finish()
        };
        let decode = |bytes: &[u8]| WarmupCounter::unsnap(&mut SnapReader::new(bytes));
        let c = decode(&encode(3, 1, 2)).expect("consistent counts");
        assert!(c.fits_warmup(SimTime::from_millis(500)));
        // Against a warm-up at 2 s all three events precede it, not one.
        assert!(!c.fits_warmup(SimTime::from_secs(2)));
        for (total, before_warmup, at_last) in [(3, 4, 1), (3, 1, 4), (3, 1, 0), (0, 0, 1)] {
            assert!(decode(&encode(total, before_warmup, at_last)).is_err());
        }
    }

    #[test]
    fn decode_rejects_overflowing_run_counts() {
        let run = |count| Run {
            start_us: 0,
            gap_us: 0,
            count,
        };
        let mut w = SnapWriter::new();
        vec![run(u64::MAX), run(1)].snap(&mut w);
        w.u64(0); // the wrapped sum
        let bytes = w.finish();
        assert!(RateMeter::unsnap(&mut SnapReader::new(&bytes)).is_err());
    }
}

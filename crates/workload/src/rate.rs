//! Throughput measurement: warm-up-relative rates in constant space.

use fastg_des::snap::SnapError;
use fastg_des::{snap_struct, SimTime};

/// Counts events and answers their mean rate over `[warmup, now)` for one
/// fixed `warmup` instant in constant space.
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
    /// window. Exact for any `now` at or after the last record: the count
    /// of recorded events in `[warmup, now)` over the span in seconds.
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
}

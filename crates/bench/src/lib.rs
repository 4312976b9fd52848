//! Printing helpers for the figure-regeneration benches, and the race
//! detector.
//!
//! Each `benches/figNN_*.rs` program prints the paper table or series it
//! regenerates, deterministically; none of them times anything (the
//! `fastg-bench` suite does). The scenarios themselves live in
//! `fastgshare::paper`, which the CLI, the examples and the tests share.

use fastg_des::SimTime;

pub mod race;

/// Formats a `SimTime` latency as milliseconds for tables.
pub fn ms(t: SimTime) -> String {
    format!("{:.1}ms", t.as_millis_f64())
}

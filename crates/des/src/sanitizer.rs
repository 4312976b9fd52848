//! Runtime invariant shadow-checks (`FASTG_SANITIZE=1`).
//!
//! A ThreadSanitizer-style layer for the DES: hot paths call [`check`]
//! with an invariant and a lazy detail closure; when the sanitizer is
//! inactive the call is a branch on a cached boolean (debug builds) or
//! compiled out entirely (release builds), so steady-state performance is
//! unaffected. When `FASTG_SANITIZE=1` is set in a debug build, every
//! violation aborts with the rule name, the offending detail, the index
//! and timestamp of the event being dispatched, and a replay recipe
//! (seed, tie-break policy, fast-forward mode) so the exact failing
//! trace can be reproduced from the command line.
//!
//! Two kinds of rule are checked. Operation shadow-checks compare one
//! operation's result with a slower oracle where it runs, through
//! [`check`]:
//!
//! * `monotone-dispatch` — event dispatch time never decreases,
//! * `cancel-token-generation` — a [`crate::CancelToken`] always names a
//!   live entry from its own queue's sequence space,
//! * `ff-credit-order` — a GPU resident record's credited point never
//!   moves backwards and never passes the settling instant or the run's
//!   end, and a record's closing event arrives at its end,
//! * `sm-conservation` — each SM grant stays within its client's cap and
//!   the device,
//! * `window-area` — at every GPU metrics sample, the window's occupied
//!   area is at most the SM count × its busy µs (occupancy ≤
//!   utilization, in integers),
//! * `admission-summary` — the FaST Backend's slot bitsets and the GPU
//!   device's running cap counts answer their admission tests as the row
//!   and stream scans they replace do.
//!
//! The invariant catalogue's rules span structures: each is one function
//! named by the [`SnapError`] it returns, which decode runs once and the
//! platform runs live through [`enforce`] (ARCHITECTURE.md lists them).

use crate::queue::TieBreak;
use crate::snap::SnapError;
use crate::time::SimTime;

/// The replay recipe attached to every violation: enough to re-run the
/// exact trace that tripped the invariant.
#[derive(Debug, Clone, Copy)]
pub struct RunContext {
    /// The scenario seed (`PlatformConfig::seed`).
    pub seed: u64,
    /// The active same-instant tie-break policy.
    pub tiebreak: TieBreak,
    /// Whether analytic fast-forward (event coalescing) was enabled.
    pub fastforward: bool,
}

impl RunContext {
    /// Renders the recipe as the environment incantation that replays it.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    fn render(self) -> String {
        let tb = match self.tiebreak {
            TieBreak::Fifo => "fifo".to_string(),
            TieBreak::Lifo => "lifo".to_string(),
            TieBreak::SeededShuffle(s) => format!("shuffle:{s}"),
        };
        format!(
            "FASTG_SANITIZE=1 FASTG_TIEBREAK={tb} FASTG_FASTFORWARD={} <run> with seed {}",
            if self.fastforward { 1 } else { 0 },
            self.seed
        )
    }
}

#[cfg(debug_assertions)]
mod imp {
    use super::RunContext;
    use crate::time::SimTime;
    use std::cell::Cell;

    thread_local! {
        static ACTIVE: bool = std::env::var("FASTG_SANITIZE").is_ok_and(|v| v == "1");
        static EVENT: Cell<(u64, SimTime)> = const { Cell::new((0, SimTime::ZERO)) };
        static CONTEXT: Cell<Option<RunContext>> = const { Cell::new(None) };
    }

    pub fn active() -> bool {
        ACTIVE.with(|a| *a)
    }

    pub fn set_run_context(ctx: RunContext) {
        CONTEXT.with(|c| c.set(Some(ctx)));
    }

    pub fn on_event(index: u64, at: SimTime) {
        EVENT.with(|e| e.set((index, at)));
    }

    pub fn check(cond: bool, rule: &'static str, detail: impl FnOnce() -> String) {
        if active() && !cond {
            let (index, at) = EVENT.with(Cell::get);
            let recipe = CONTEXT.with(Cell::get).map_or_else(
                || "FASTG_SANITIZE=1 <run> (no run context registered)".to_string(),
                RunContext::render,
            );
            panic!(
                "determinism-sanitizer violation [{rule}]\n  {}\n  while dispatching event #{index} at t={at:?}\n  replay: {recipe}",
                detail()
            );
        }
    }
}

#[cfg(not(debug_assertions))]
mod imp {
    use super::RunContext;
    use crate::time::SimTime;

    // Release builds: every hook is an inlined no-op, so the sanitizer
    // costs nothing on hot paths.
    #[inline(always)]
    pub fn active() -> bool {
        false
    }

    #[inline(always)]
    pub fn set_run_context(_ctx: RunContext) {}

    #[inline(always)]
    pub fn on_event(_index: u64, _at: SimTime) {}

    #[inline(always)]
    pub fn check(_cond: bool, _rule: &'static str, _detail: impl FnOnce() -> String) {}
}

/// Whether the sanitizer is armed (debug build with `FASTG_SANITIZE=1`).
/// Callers use this to skip building check inputs that are themselves
/// expensive (O(n) scans, conservation sums).
#[inline]
pub fn active() -> bool {
    imp::active()
}

/// Registers the replay recipe for subsequent violations on this thread.
/// Drivers call this once per run; it is a cheap `Cell` store.
#[inline]
pub fn set_run_context(ctx: RunContext) {
    imp::set_run_context(ctx)
}

/// Records the index and timestamp of the event about to be dispatched,
/// so violations can point at the exact position in the trace.
#[inline]
pub fn on_event(index: u64, at: SimTime) {
    imp::on_event(index, at)
}

/// Asserts `cond`; on violation aborts with `rule`, the rendered
/// `detail`, the current event position and the replay recipe. The
/// closure only runs on failure.
#[inline]
pub fn check(cond: bool, rule: &'static str, detail: impl FnOnce() -> String) {
    imp::check(cond, rule, detail)
}

/// Runs catalogue rules when the sanitizer is armed: a broken one aborts
/// as [`check`] does, under its name. Release builds compile it out.
#[inline]
pub fn enforce(rules: impl FnOnce() -> Result<(), SnapError>) {
    if let Some(Err(e)) = active().then(rules) {
        check(false, e.what, || "a catalogue rule is broken".to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_check_never_evaluates_detail() {
        // FASTG_SANITIZE is not set to 1 in the test environment by
        // default; even if it is, a true condition must never panic or
        // render its detail.
        check(true, "monotone-dispatch", || {
            unreachable!("detail must be lazy")
        });
    }

    #[test]
    fn run_context_renders_replay_recipe() {
        let ctx = RunContext {
            seed: 7,
            tiebreak: TieBreak::SeededShuffle(42),
            fastforward: false,
        };
        let r = ctx.render();
        assert!(r.contains("FASTG_TIEBREAK=shuffle:42"));
        assert!(r.contains("FASTG_FASTFORWARD=0"));
        assert!(r.contains("seed 7"));
    }
}

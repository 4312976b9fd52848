//! # fastg-des — deterministic discrete-event simulation engine
//!
//! The substrate every other FaST-GShare crate builds on. It provides:
//!
//! * [`SimTime`] — integer-microsecond simulation timestamps,
//! * [`EventQueue`] — a priority queue of timed events with FIFO
//!   tie-breaking, so that two events scheduled for the same instant are
//!   always delivered in the order they were scheduled,
//! * [`Simulation`] / [`World`] — the event loop driver,
//! * [`BusyTracker`] and [`TimeSeries`] — the busy-interval tracker and
//!   sample recorder behind GPU utilization and the exported metric
//!   series.
//!
//! Everything is deterministic: given the same initial state and the same
//! sequence of `schedule` calls, a simulation replays event-for-event.
//!
//! ```
//! use fastg_des::{EventQueue, SimTime, Simulation, World};
//!
//! struct Counter {
//!     fired: u32,
//! }
//!
//! impl World for Counter {
//!     type Event = ();
//!     fn handle(&mut self, now: SimTime, _ev: (), queue: &mut EventQueue<()>) {
//!         self.fired += 1;
//!         if self.fired < 10 {
//!             queue.schedule(now + SimTime::from_millis(1), ());
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(Counter { fired: 0 });
//! sim.parts_mut().1.schedule(SimTime::ZERO, ());
//! sim.run_until(SimTime::from_millis(9));
//! assert_eq!(sim.world().fired, 10);
//! assert_eq!(sim.now(), SimTime::from_millis(9));
//! ```

#![warn(missing_docs)]

mod arena;
mod queue;
pub mod sanitizer;
mod series;
mod sim;
pub mod snap;
mod time;

pub use arena::{ArenaKey, IdArena, IdSet};
pub use queue::{CancelToken, EventQueue, Rank, TieBreak};
pub use series::{BusyTracker, TimeSeries};
pub use sim::{Simulation, StepOutcome, World};
pub use snap::{Snap, SnapError, SnapReader, SnapWriter};
pub use time::SimTime;

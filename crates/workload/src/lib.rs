//! # fastg-workload — load generation and service metrics
//!
//! The Locust / Grafana-k6 analogue: open-loop arrival processes that drive
//! the simulated FaaS gateway, plus the measurement plumbing the paper's
//! evaluation reports — latency percentiles (log-bucket histogram),
//! SLO-violation accounting, and warm-up-relative throughput counting.
//!
//! All randomness is seeded (`rand::rngs::SmallRng`), so a workload replays
//! identically for a given seed.

#![warn(missing_docs)]

pub mod arrival;
pub mod fleet;
pub mod hist;
pub mod patterns;
pub mod rate;
pub mod slo;

pub use arrival::ArrivalProcess;
pub use hist::LatencyHistogram;
pub use rate::WarmupCounter;
pub use slo::SloTracker;

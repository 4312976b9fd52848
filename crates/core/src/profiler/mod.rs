//! FaST-Profiler (paper §3.2): automatic profiling of function throughput
//! under spatio-temporal resource allocations.
//!
//! Follows the Morphling Experiment→Trial structure, re-designed for GPU
//! sharing:
//!
//! * the [`ConfigServer`] samples resource configurations — by default
//!   the paper's grid (temporal {20, 40, 60, 80, 100 %} × spatial
//!   {6, 12, 24, 50, 60, 80, 100 %});
//! * an [`Experiment`] launches one trial per configuration: a single-pod
//!   FaSTPod with `quota_request == quota_limit`, a saturating
//!   closed-loop client, and metric collection (throughput, latency
//!   percentiles, GPU utilization, SM occupancy);
//! * results land in the [`ProfileDb`], the database the
//!   FaST-Scheduler's Heuristic Scaling Algorithm reads
//!   ([`ProfileDb::config_points`]).

pub mod config;
pub mod db;
pub mod experiment;
pub mod search;

pub use config::{ConfigServer, SamplePlan, SamplePlanError};
pub use db::{ProfileDb, ProfileKey, ProfileRecord};
pub use experiment::{Experiment, TrialResult, TrialRun, TrialSnapshot};
pub use search::{SearchResult, SuccessiveHalving};

//! The end-to-end FaST-GShare platform: substrates + policies composed
//! into one deterministic discrete-event simulation.
//!
//! [`Platform`] is the user-facing façade (the "OpenFaaS cluster"): deploy
//! functions, attach load, run simulated time, read reports. Internally it
//! drives an [`engine::Engine`], the [`fastg_des::World`] implementation,
//! whose state and handlers are split by level, as in the paper:
//!
//! * per node (the paper's DaemonSets), one `NodeRt` holds the node's
//!   simulated GPU with its MPS server, its
//!   [FaST Backend](crate::manager::FastBackend) (token protocol, quota
//!   windows, SM Allocation Adapter), its
//!   [model storage server](crate::modelshare::ModelStorageServer) and
//!   its pods' runtime; it is the only code that touches them;
//! * cluster-wide, the control plane: the cluster substrate (nodes, pods,
//!   gateway), deployment, the request lifecycle, health checks and fault
//!   injection, the [FaST-Scheduler](crate::scheduler) (node selection
//!   at deploy time, Heuristic Scaling in the auto-scaler), overload
//!   control, and per-function load generators, SLO trackers and
//!   throughput meters feeding the reports.

mod autoscale;
mod deploy;
pub mod checkpoint;
pub mod config;
pub mod csv;
pub mod engine;
pub mod error;
mod facade;
pub mod faults;
mod health;
mod lifecycle;
mod node;
pub mod overload;
mod pod;
pub mod report;
pub mod sweep;

pub use checkpoint::{Snapshot, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use config::{FunctionConfig, PlatformConfig};
pub use fastg_des::TieBreak;
pub use engine::HandlerCounts;
pub use facade::Platform;
pub use error::PlatformError;
pub use overload::{BreakerState, CircuitBreaker, OverloadConfig};
pub use sweep::{
    run_sweep, run_sweep_stats, run_sweep_unshared, Scenario, SweepStats, TreatmentAction,
};
pub use faults::{FaultEvent, FaultKind, FaultPlan};
pub use report::{FunctionReport, NodeReport, PlatformReport};

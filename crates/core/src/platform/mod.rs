//! The end-to-end FaST-GShare platform: substrates + policies composed
//! into one deterministic discrete-event simulation.
//!
//! [`Platform`] is the user-facing façade (the "OpenFaaS cluster"): deploy
//! functions, attach load, run simulated time, read reports. Internally it
//! drives an [`engine::Engine`] — the [`fastg_des::World`] implementation
//! that wires together:
//!
//! * the cluster substrate (nodes, pods, gateway),
//! * one simulated GPU per node with an MPS server,
//! * one [FaST Backend](crate::manager::FastBackend) per node (token
//!   protocol, quota windows, SM Allocation Adapter),
//! * one [model storage server](crate::modelshare::ModelStorageServer)
//!   per node,
//! * the [FaST-Scheduler](crate::scheduler) (node selection at deploy
//!   time, Heuristic Scaling in the control loop),
//! * per-function load generators, SLO trackers and throughput meters.

pub mod checkpoint;
pub mod config;
pub mod csv;
pub mod engine;
pub mod error;
pub mod faults;
mod node;
pub mod overload;
pub mod report;
pub mod sweep;

pub use checkpoint::{Snapshot, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use config::{FunctionConfig, PlatformConfig};
pub use fastg_des::TieBreak;
pub use engine::{HandlerCounts, Platform};
pub use error::PlatformError;
pub use overload::{BreakerState, CircuitBreaker, OverloadConfig};
pub use sweep::{
    run_sweep, run_sweep_stats, run_sweep_unshared, Scenario, SweepStats, TreatmentAction,
};
pub use faults::{FaultEvent, FaultKind, FaultPlan};
pub use report::{FunctionReport, NodeReport, PlatformReport};

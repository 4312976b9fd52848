//! FaST-Scheduler (paper §3.4): profiling-driven auto-scaling and
//! fragmentation-aware GPU packing.
//!
//! Two algorithms:
//!
//! * [`scaling::heuristic_scale`] — **Algorithm 1**, the Heuristic Scaling
//!   Algorithm. Converts a function's RPS processing gap into
//!   scale-up/scale-down decisions using the profiler's
//!   (SM partition, quota) → throughput map, preferring the configuration
//!   with the best *RPR* (RPS per resource, `T / (S × Q)`).
//! * [`rects::GpuRects`] — **Algorithm 2**, the Maximal Rectangles
//!   Algorithm. Treats each GPU as a 100 × 100 rectangle
//!   (quota % × SM %), keeps a maximal-free-rectangle list per GPU, and
//!   binds pods with global best-area-fit ("secondCores" difference),
//!   `PlaceAndNewJointRect` splits, intersection updates with subdivision,
//!   redundant-rectangle pruning, and the keep-restructure reclamation
//!   policy.
//!
//! [`node_select::NodeSelector`] lifts Algorithm 2 across all GPUs of the
//! cluster (plus a memory-capacity filter) and is the platform's only
//! placement engine. Placement is split-phase ([`Scheduler`]):
//! `select_node` picks a GPU without touching rectangle state (it only
//! counts probes and rejects), then `bind` reserves the rectangle once
//! the engine has created the pod. The selector also provides the
//! KubeShare-style time-sharing placement used in the evaluation (every
//! pod needs 100 % of the SMs, so packing is quota-only).

pub mod node_select;
pub mod rects;
pub mod scaling;

pub use node_select::{NodeSelector, PlacementPolicy, SchedStats, Scheduler};
pub use rects::{GpuRects, Rect};
pub use scaling::{heuristic_scale, ConfigPoint, RunningPod, ScaleAction};

//! # fastg-cluster — Kubernetes/OpenFaaS-style cluster substrate
//!
//! The control surface FaST-GShare's prototype extends (faas-netes on
//! Kubernetes), reproduced as a simulation substrate:
//!
//! * [`spec`] — the CRD analogues: [`spec::FaSTFuncSpec`] (the user-facing
//!   function definition wrapping a model image) and
//!   [`spec::ResourceSpec`] (the FaSTPod annotations
//!   `sm_partition` / `quota_limit` / `quota_request` / `gpu_mem`).
//! * [`cluster`] — nodes (each with one simulated V100, as in the paper's
//!   testbed), pod lifecycle (create = MPS client registration + device
//!   memory allocation; delete = teardown), and the
//!   [`cluster::FaSTPodController`]-style reconciliation helper.
//! * [`gateway`] — the OpenFaaS gateway analogue: per-function request
//!   queues, idle-pod dispatch (least-outstanding routing falls out of
//!   pods pulling work when idle), and per-function arrival-rate
//!   prediction for the auto-scaler.
//!
//! Scheduling *policy* (which node, how many replicas, what partition) is
//! deliberately absent here — that is the `fastgshare` core crate. This
//! crate is mechanism only.

#![warn(missing_docs)]

pub mod cluster;
pub mod gateway;
pub mod spec;

pub use cluster::{
    Cluster, ClusterError, Node, NodeId, NodeState, Pod, PodCounts, PodId, PodState,
};
pub use gateway::{Admission, Gateway, Request, RequestId};
pub use spec::{FaSTFuncSpec, FuncId, ResourceSpec};

//! # fastg-cluster — Kubernetes/OpenFaaS-style cluster substrate
//!
//! The control surface FaST-GShare's prototype extends (faas-netes on
//! Kubernetes), reproduced as a simulation substrate:
//!
//! * [`spec`] — the CRD analogues: [`spec::FaSTFuncSpec`] (the user-facing
//!   function definition wrapping a model image) and
//!   [`spec::ResourceSpec`] (the FaSTPod annotations
//!   `sm_partition` / `quota_limit` / `quota_request` / `gpu_mem`).
//! * [`cluster`] — node and pod identities ([`NodeId`], [`PodId`]), node
//!   health ([`NodeState`]) and pod-creation errors ([`ClusterError`]).
//!   The node and pod records are the platform's, one of each: a node's
//!   record holds its health, its GPU (one simulated V100, as in the
//!   paper's testbed), its FaST Backend and model store, and its pods'
//!   records; a pod's record holds its function, MPS client, spec,
//!   memory reservation and request state.
//! * [`gateway`] — the OpenFaaS gateway analogue: per-function request
//!   queues, idle-pod dispatch (least-outstanding routing falls out of
//!   pods pulling work when idle), per-function arrival-rate prediction
//!   for the auto-scaler, and each function's member list, which is the
//!   one list of its running pods.
//!
//! Scheduling *policy* (which node, how many replicas, what partition) and
//! the pod lifecycle are deliberately absent here — they are the
//! `fastgshare` core crate's. This crate is mechanism only.

#![warn(missing_docs)]

pub mod cluster;
pub mod gateway;
pub mod spec;

pub use cluster::{ClusterError, NodeId, NodeState, PodId};
pub use gateway::{Admission, Gateway, Request, RequestId};
pub use spec::{FaSTFuncSpec, FuncId, ResourceSpec};

//! FaST-Manager: the spatio-temporal GPU sharing manager (paper §3.3).
//!
//! The manager limits, prioritizes and isolates GPU usage in both
//! dimensions through a frontend–backend architecture:
//!
//! * the **frontend** is the CUDA hook library inside each function
//!   container. In this reproduction the platform event loop plays that
//!   role: before every kernel burst (the region between two
//!   synchronization points) it asks the backend for a *time token*, and at
//!   every sync it reports the GPU time the burst consumed (the
//!   Gemini-style event-based usage monitor).
//! * the **backend** ([`FastBackend`]) owns the pod table
//!   (`Q_used`/`Q_request`/`Q_limit`/`S_SMs`) and the **multi-token
//!   scheduler**: filtering (pods over their `Q_limit` are blocked until
//!   the next window), the Ready-function Priority Queue ordered by
//!   `Q_miss = Q_request − Q_used` descending, and the **SM Allocation
//!   Adapter** that keeps the sum of token-holding pods' SM partitions at
//!   or below [`SM_GLOBAL_LIMIT`] (100 %). A request only queues the pod
//!   (or confirms a held lease); tokens are granted by one batched
//!   [`FastBackend::dispatch_pass`], which the platform runs per node at
//!   the end of an instant that may have changed who should hold a
//!   token, when some waiter has no lease and quota left.
//!
//! Tokens are *leases*: a granted pod may launch kernel bursts until the
//! lease expires or its quota runs out, whichever comes first. Lease
//! duration amortizes the token-request IPC, exactly like Gemini's
//! token length; the configurable duration is an ablation knob
//! ([`BackendConfig::token_lease`]).
//!
//! The same state machine implements all four sharing policies compared in
//! the paper's evaluation — see [`SharingPolicy`].

mod backend;
mod estimator;
mod policy;

pub use backend::{
    BackendConfig, BackendError, FastBackend, Grant, PodQuotaState, RequestOutcome, SM_GLOBAL_LIMIT,
};
pub(crate) use backend::Ready;
pub use estimator::BurstEstimator;
pub use policy::{SchedPolicy, SharingPolicy};

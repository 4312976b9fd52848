//! Typed errors for platform control-plane operations.
//!
//! `deploy`, pod admission and `reconfigure` used to report failures as
//! `Result<_, String>`, which forced `format!` allocations onto paths
//! that parallel sweep workers hit under load. [`PlatformError`] carries
//! the underlying typed error instead; rendering to text happens only
//! when a caller actually displays it.

use crate::modelshare::ShareError;
use crate::profiler::SamplePlanError;
use fastg_cluster::ClusterError;
use fastg_des::snap::SnapError;
use fastg_gpu::MpsError;

/// Why a platform control-plane operation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum PlatformError {
    /// The function config names a model the zoo does not know.
    UnknownModel(String),
    /// The referenced function was never deployed (or was deleted).
    UnknownFunction,
    /// Pod admission failed: no node can host the requested resources
    /// (the paper's "a new GPU is required" outcome).
    NoNodeFits,
    /// A node could not take a pod.
    Cluster(ClusterError),
    /// An MPS partition update was rejected.
    Mps(MpsError),
    /// The model-sharing attach failed.
    Share(ShareError),
    /// An engine invariant broke (per-node table missing a row).
    Internal(&'static str),
    /// A parallel sweep worker failed (panic captured by `fastg-par`).
    Worker(fastg_par::ParError),
    /// A checkpoint could not be decoded (truncated, version-mismatched
    /// or corrupt snapshot bytes).
    Snapshot(SnapError),
    /// A profiling plan or trial point lies outside the profiled domain.
    SamplePlan(SamplePlanError),
}

impl From<SamplePlanError> for PlatformError {
    fn from(e: SamplePlanError) -> Self {
        PlatformError::SamplePlan(e)
    }
}

impl From<SnapError> for PlatformError {
    fn from(e: SnapError) -> Self {
        PlatformError::Snapshot(e)
    }
}

impl From<fastg_par::ParError> for PlatformError {
    fn from(e: fastg_par::ParError) -> Self {
        PlatformError::Worker(e)
    }
}

impl From<ClusterError> for PlatformError {
    fn from(e: ClusterError) -> Self {
        PlatformError::Cluster(e)
    }
}

impl From<MpsError> for PlatformError {
    fn from(e: MpsError) -> Self {
        PlatformError::Mps(e)
    }
}

impl From<ShareError> for PlatformError {
    fn from(e: ShareError) -> Self {
        PlatformError::Share(e)
    }
}

impl std::fmt::Display for PlatformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlatformError::UnknownModel(name) => write!(f, "unknown model '{name}'"),
            PlatformError::UnknownFunction => write!(f, "unknown function"),
            PlatformError::NoNodeFits => write!(f, "a new GPU required (no node fits)"),
            PlatformError::Cluster(e) => write!(f, "cluster: {e}"),
            PlatformError::Mps(e) => write!(f, "mps: {e}"),
            PlatformError::Share(e) => write!(f, "model sharing: {e}"),
            PlatformError::Internal(what) => write!(f, "internal: {what}"),
            PlatformError::Worker(e) => write!(f, "sweep worker: {e}"),
            PlatformError::Snapshot(e) => write!(f, "snapshot: {e}"),
            PlatformError::SamplePlan(e) => write!(f, "profiling plan: {e}"),
        }
    }
}

impl std::error::Error for PlatformError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_each_variant() {
        assert_eq!(
            PlatformError::UnknownModel("nope".into()).to_string(),
            "unknown model 'nope'"
        );
        assert_eq!(
            PlatformError::NoNodeFits.to_string(),
            "a new GPU required (no node fits)"
        );
        assert_eq!(
            PlatformError::Internal("backend missing for node").to_string(),
            "internal: backend missing for node"
        );
    }

    #[test]
    fn converts_from_component_errors() {
        let e: PlatformError = ClusterError::NodeDown(fastg_cluster::NodeId(7)).into();
        assert!(matches!(e, PlatformError::Cluster(_)));
    }
}

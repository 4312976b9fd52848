//! Node and pod identities, node health, and why a pod could not be
//! created. The records themselves belong to the platform: one per node
//! (its health, GPU, backend and model store) and one per pod.

use fastg_des::{snap_enum, snap_struct, ArenaKey};

/// Identifies a worker node (one GPU per node, as in the paper's testbed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl ArenaKey for NodeId {
    fn index(self) -> usize {
        // u32 → usize is lossless on every supported target.
        // fastg-lint: allow(no-lossy-cast)
        self.0 as usize
    }
    fn from_index(i: usize) -> Self {
        // Arena keys are dense indices; 2^32 nodes is unreachable,
        // truncating silently is not. fastg-lint: allow(no-panic-in-lib)
        NodeId(u32::try_from(i).expect("node index exceeds u32"))
    }
}

/// Identifies a pod (one function instance).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PodId(pub u64);

impl ArenaKey for PodId {
    fn index(self) -> usize {
        // Pod ids are dense arena indices; exceeding the address
        // space is unreachable. fastg-lint: allow(no-panic-in-lib)
        usize::try_from(self.0).expect("pod index exceeds usize")
    }
    fn from_index(i: usize) -> Self {
        // usize → u64 is lossless on every supported target.
        // fastg-lint: allow(no-lossy-cast)
        PodId(i as u64)
    }
}

/// Node health state (the failure-injection surface).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Healthy and schedulable.
    Up,
    /// Serving, but its GPU clock is scaled down (thermal throttling /
    /// ECC-retirement analogue): kernels run slower by the degradation
    /// factor. Still schedulable.
    Degraded,
    /// Crashed. Every pod on it is gone, its GPU was hard-reset, and no
    /// new pods may be placed on it. Crashes are permanent for a run.
    Down,
}

/// Why a node could not take a pod.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// The node is crashed and cannot take pods.
    NodeDown(NodeId),
    /// The node's GPU could not admit the pod.
    Gpu(String),
    /// Not enough device memory on the node.
    OutOfMemory {
        /// Requested reservation in bytes.
        requested: u64,
        /// Free device memory in bytes.
        free: u64,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::NodeDown(n) => write!(f, "node {n:?} is down"),
            ClusterError::Gpu(e) => write!(f, "GPU error: {e}"),
            ClusterError::OutOfMemory { requested, free } => {
                write!(f, "node out of GPU memory: requested {requested} B, {free} B free")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

snap_struct!(NodeId(raw));

snap_struct!(PodId(raw));

snap_enum!(NodeState, "node state tag" { Up = 0, Degraded = 1, Down = 2 });


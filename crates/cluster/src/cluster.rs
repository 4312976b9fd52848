//! Nodes, pods and their lifecycle.

use crate::spec::{FuncId, ResourceSpec};
use fastg_des::snap::{Snap, SnapError, SnapReader, SnapWriter};
use fastg_des::{snap_enum, snap_struct, ArenaKey, IdArena, SimTime};
use fastg_gpu::{ClientId, DevicePtr, GpuDevice};

/// Identifies a worker node (one GPU per node, as in the paper's testbed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
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

/// Pod lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PodState {
    /// Serving (or ready to serve) requests.
    Running,
    /// Draining: finishes its in-flight request, accepts no new ones, then
    /// is deleted. This is how scale-down avoids dropping requests.
    Terminating,
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

/// A worker node: one simulated GPU plus the MPS DaemonSet container.
///
/// The cluster keeps the node's identity and health; the node's
/// [`GpuDevice`] belongs to the caller (the platform keeps it with the
/// node's other runtime state), which hands it to every operation here
/// that touches the GPU.
#[derive(Debug, Clone)]
pub struct Node {
    /// Node id.
    pub id: NodeId,
    /// Node name, e.g. `gpu-worker-0`.
    pub name: String,
    /// Health state.
    pub state: NodeState,
}

/// A running function instance bound to a node.
#[derive(Debug, Clone)]
pub struct Pod {
    /// Pod id.
    pub id: PodId,
    /// The function this pod serves.
    pub func: FuncId,
    /// The node it is bound to.
    pub node: NodeId,
    /// Its MPS client on the node's GPU.
    pub client: ClientId,
    /// Its spatio-temporal resource annotations.
    pub resources: ResourceSpec,
    /// Device memory reserved at creation.
    pub memory: Option<DevicePtr>,
    /// Lifecycle state.
    pub state: PodState,
    /// Creation timestamp.
    pub created_at: SimTime,
}

/// Errors from cluster operations.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// No node with that id.
    UnknownNode(NodeId),
    /// No pod with that id.
    UnknownPod(PodId),
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
            ClusterError::UnknownNode(n) => write!(f, "unknown node {n:?}"),
            ClusterError::UnknownPod(p) => write!(f, "unknown pod {p:?}"),
            ClusterError::NodeDown(n) => write!(f, "node {n:?} is down"),
            ClusterError::Gpu(e) => write!(f, "GPU error: {e}"),
            ClusterError::OutOfMemory { requested, free } => {
                write!(f, "node out of GPU memory: requested {requested} B, {free} B free")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// The cluster: worker nodes and the pods scheduled onto them. Each
/// node's device lives with the caller (see [`Node`]).
///
/// Both tables are arena-indexed by their dense monotone ids (node ids and
/// pod ids are handed out sequentially and never reused), so per-request
/// node/pod lookups are O(1) array accesses and iteration order stays the
/// ascending-id order the former `BTreeMap`s provided.
#[derive(Debug, Clone, Default)]
pub struct Cluster {
    nodes: IdArena<NodeId, Node>,
    pods: IdArena<PodId, Pod>,
    next_node: u32,
    next_pod: u64,
}

impl Cluster {
    /// Creates an empty cluster.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a worker node. Its GPU device (built by the caller, with the
    /// MPS DaemonSet in shared mode or the plain device plugin in
    /// exclusive mode) stays with the caller.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.next_node);
        self.next_node += 1;
        let name = format!("gpu-worker-{}", id.0);
        self.nodes.insert(
            id,
            Node {
                id,
                name,
                state: NodeState::Up,
            },
        );
        id
    }

    /// Adds `n` nodes; returns their ids.
    pub fn add_nodes(&mut self, n: usize) -> Vec<NodeId> {
        (0..n).map(|_| self.add_node()).collect()
    }

    /// Node ids, in order.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.nodes.keys().collect()
    }

    /// Immutable node access.
    pub fn node(&self, id: NodeId) -> Result<&Node, ClusterError> {
        self.nodes.get(id).ok_or(ClusterError::UnknownNode(id))
    }

    /// Mutable node access.
    pub fn node_mut(&mut self, id: NodeId) -> Result<&mut Node, ClusterError> {
        self.nodes.get_mut(id).ok_or(ClusterError::UnknownNode(id))
    }

    /// Creates a pod for `func` on `node`: registers an MPS client with the
    /// spec's SM partition on `gpu`, the node's device, and reserves
    /// `reserve_bytes` of its memory (which the caller computes — it
    /// differs under model sharing).
    pub fn create_pod(
        &mut self,
        now: SimTime,
        node: NodeId,
        func: FuncId,
        resources: ResourceSpec,
        reserve_bytes: u64,
        gpu: &mut GpuDevice,
    ) -> Result<PodId, ClusterError> {
        resources.validate();
        let n = self
            .nodes
            .get_mut(node)
            .ok_or(ClusterError::UnknownNode(node))?;
        if n.state == NodeState::Down {
            return Err(ClusterError::NodeDown(node));
        }
        if gpu.memory().free_bytes() < reserve_bytes {
            return Err(ClusterError::OutOfMemory {
                requested: reserve_bytes,
                free: gpu.memory().free_bytes(),
            });
        }
        let client = gpu
            .register_client(resources.sm_partition)
            .map_err(|e| ClusterError::Gpu(e.to_string()))?;
        let memory = if reserve_bytes > 0 {
            match gpu.memory_mut().alloc(reserve_bytes) {
                Ok(ptr) => Some(ptr),
                Err(e) => {
                    // A freshly registered client has no work in flight, so
                    // this unregister cannot fail; if it somehow does the
                    // client leaks but pod creation still reports the OOM.
                    let unregistered = gpu.unregister_client(client);
                    debug_assert!(unregistered.is_ok(), "fresh client unregisters");
                    return Err(ClusterError::Gpu(e.to_string()));
                }
            }
        } else {
            None
        };
        let id = PodId(self.next_pod);
        self.next_pod += 1;
        self.pods.insert(
            id,
            Pod {
                id,
                func,
                node,
                client,
                resources,
                memory,
                state: PodState::Running,
                created_at: now,
            },
        );
        Ok(id)
    }

    /// Marks a pod as draining (no new requests). Idempotent.
    pub fn begin_terminate(&mut self, pod: PodId) -> Result<(), ClusterError> {
        let p = self.pods.get_mut(pod).ok_or(ClusterError::UnknownPod(pod))?;
        p.state = PodState::Terminating;
        Ok(())
    }

    /// Removes a drained pod: frees its device memory and MPS client on
    /// `gpu`, the device of the pod's node. The caller must ensure no
    /// kernels are in flight.
    pub fn delete_pod(&mut self, pod: PodId, gpu: &mut GpuDevice) -> Result<Pod, ClusterError> {
        let p = self.pods.remove(pod).ok_or(ClusterError::UnknownPod(pod))?;
        if !self.nodes.contains(p.node) {
            return Err(ClusterError::UnknownNode(p.node));
        }
        if let Some(ptr) = p.memory {
            gpu.memory_mut()
                .free(ptr)
                .map_err(|e| ClusterError::Gpu(e.to_string()))?;
        }
        gpu.unregister_client(p.client)
            .map_err(|e| ClusterError::Gpu(e.to_string()))?;
        Ok(p)
    }

    /// A node fails outright: it is marked [`NodeState::Down`], every pod
    /// on it is removed (and returned, so the platform can unwind gateway
    /// routing, backend rows and rectangle bindings), and `gpu`, its
    /// device, is hard-reset — resident and queued kernels are aborted,
    /// MPS clients deleted, and all device memory returned. Idempotent on
    /// a node that is already down (returns an empty list).
    pub fn crash_node(
        &mut self,
        now: SimTime,
        node: NodeId,
        gpu: &mut GpuDevice,
    ) -> Result<Vec<Pod>, ClusterError> {
        let n = self
            .nodes
            .get_mut(node)
            .ok_or(ClusterError::UnknownNode(node))?;
        if n.state == NodeState::Down {
            return Ok(Vec::new());
        }
        n.state = NodeState::Down;
        gpu.hard_reset(now);
        let victims: Vec<PodId> = self
            .pods
            .values()
            .filter(|p| p.node == node)
            .map(|p| p.id)
            .collect();
        Ok(victims
            .into_iter()
            .filter_map(|id| self.pods.remove(id))
            .collect())
    }

    /// Degrades a node: `gpu`, its device, slows its clock by `factor`
    /// (≥ 1; 2.0 means kernels take twice as long). Applies to kernels
    /// started from now on; resident kernels keep their finish times.
    pub fn degrade_node(
        &mut self,
        node: NodeId,
        factor: f64,
        gpu: &mut GpuDevice,
    ) -> Result<(), ClusterError> {
        let n = self
            .nodes
            .get_mut(node)
            .ok_or(ClusterError::UnknownNode(node))?;
        if n.state == NodeState::Down {
            return Err(ClusterError::NodeDown(node));
        }
        n.state = NodeState::Degraded;
        gpu.set_clock_scale(factor);
        Ok(())
    }

    /// Clears a node's degradation (`gpu`, its device, back to full clock
    /// speed). A crashed node stays down.
    pub fn recover_node(&mut self, node: NodeId, gpu: &mut GpuDevice) -> Result<(), ClusterError> {
        let n = self
            .nodes
            .get_mut(node)
            .ok_or(ClusterError::UnknownNode(node))?;
        if n.state == NodeState::Down {
            return Err(ClusterError::NodeDown(node));
        }
        n.state = NodeState::Up;
        gpu.set_clock_scale(1.0);
        Ok(())
    }

    /// A node's health state.
    pub fn node_state(&self, node: NodeId) -> Result<NodeState, ClusterError> {
        self.node(node).map(|n| n.state)
    }

    /// Ids of nodes that are not down, in order.
    pub fn live_node_ids(&self) -> Vec<NodeId> {
        self.nodes
            .values()
            .filter(|n| n.state != NodeState::Down)
            .map(|n| n.id)
            .collect()
    }

    /// Immutable pod access.
    pub fn pod(&self, id: PodId) -> Result<&Pod, ClusterError> {
        self.pods.get(id).ok_or(ClusterError::UnknownPod(id))
    }

    /// Mutable pod access.
    pub fn pod_mut(&mut self, id: PodId) -> Result<&mut Pod, ClusterError> {
        self.pods.get_mut(id).ok_or(ClusterError::UnknownPod(id))
    }

    /// All pods of a function, in id order.
    pub fn pods_of(&self, func: FuncId) -> Vec<PodId> {
        self.pods
            .values()
            .filter(|p| p.func == func)
            .map(|p| p.id)
            .collect()
    }

    /// Running (non-terminating) pods of a function.
    pub fn running_pods_of(&self, func: FuncId) -> Vec<PodId> {
        self.pods
            .values()
            .filter(|p| p.func == func && p.state == PodState::Running)
            .map(|p| p.id)
            .collect()
    }

    /// All pods on a node.
    pub fn pods_on(&self, node: NodeId) -> Vec<PodId> {
        self.pods
            .values()
            .filter(|p| p.node == node)
            .map(|p| p.id)
            .collect()
    }

    /// Total pods.
    pub fn pod_count(&self) -> usize {
        self.pods.len()
    }

    /// Running pods per function and pods per node, from one pass over
    /// the pod table (per-function [`Self::running_pods_of`] calls would
    /// each scan every pod).
    pub fn pod_counts(&self) -> PodCounts {
        let mut counts = PodCounts::default();
        for p in self.pods.values() {
            if p.state == PodState::Running {
                bump(&mut counts.running, p.func.index());
            }
            bump(&mut counts.on_node, p.node.index());
        }
        counts
    }

    /// Reconciliation helper (the FaSTPod controller loop): given a desired
    /// replica count for `func`, returns how many pods to create (positive)
    /// or which running pods to drain (chosen newest-first so the
    /// longest-lived, warmed instances survive).
    pub fn reconcile(&self, func: FuncId, desired: usize) -> ReconcileAction {
        let mut running: Vec<&Pod> = self
            .pods
            .values()
            .filter(|p| p.func == func && p.state == PodState::Running)
            .collect();
        if running.len() < desired {
            ReconcileAction::Create(desired - running.len())
        } else if running.len() > desired {
            running.sort_by_key(|p| std::cmp::Reverse((p.created_at, p.id))); // newest first
            ReconcileAction::Drain(
                running[..running.len() - desired]
                    .iter()
                    .map(|p| p.id)
                    .collect(),
            )
        } else {
            ReconcileAction::Steady
        }
    }
}

snap_struct!(NodeId(raw));

snap_struct!(PodId(raw));

snap_enum!(PodState, "pod state tag" { Running = 0, Terminating = 1 });

snap_enum!(NodeState, "node state tag" { Up = 0, Degraded = 1, Down = 2 });


snap_struct!(Pod {
    id,
    func,
    node,
    client,
    resources,
    memory,
    state,
    created_at,
});

impl Cluster {
    /// Encodes the cluster with each node's device, which `gpu` writes,
    /// between the node's name and its state: a node's fields in the
    /// order `id, name, device, state`, so the bytes are those of a node
    /// that owns its device.
    pub fn snap_with(&self, w: &mut SnapWriter, mut gpu: impl FnMut(NodeId, &mut SnapWriter)) {
        let Cluster {
            nodes,
            pods,
            next_node,
            next_pod,
        } = self;
        nodes.snap_with(w, |node, w| {
            let Node { id, name, state } = node;
            id.snap(w);
            name.snap(w);
            gpu(*id, w);
            state.snap(w);
        });
        pods.snap(w);
        next_node.snap(w);
        next_pod.snap(w);
    }

    /// Decodes [`Self::snap_with`]'s output; `gpu` reads each node's
    /// device in turn. Rejects ids outside the counters' space and a node
    /// stored under another node's key.
    pub fn unsnap_with(
        r: &mut SnapReader<'_>,
        mut gpu: impl FnMut(NodeId, &mut SnapReader<'_>) -> Result<(), SnapError>,
    ) -> Result<Self, SnapError> {
        let nodes = IdArena::unsnap_with(r, |key: NodeId, r| {
            let id = NodeId::unsnap(r)?;
            let name = String::unsnap(r)?;
            if id != key {
                return Err(SnapError::new("cluster node id"));
            }
            gpu(id, r)?;
            let state = NodeState::unsnap(r)?;
            Ok(Node { id, name, state })
        })?;
        let c = Cluster {
            nodes,
            pods: IdArena::unsnap(r)?,
            next_node: u32::unsnap(r)?,
            next_pod: u64::unsnap(r)?,
        };
        if c.nodes.keys().any(|n| n.0 >= c.next_node) || c.pods.keys().any(|p| p.0 >= c.next_pod) {
            return Err(SnapError::new("cluster id space"));
        }
        Ok(c)
    }
}

/// Pod tallies from [`Cluster::pod_counts`], indexed densely by id.
#[derive(Debug, Default)]
pub struct PodCounts {
    running: Vec<usize>,
    on_node: Vec<usize>,
}

impl PodCounts {
    /// Running (non-terminating) pods of `func`.
    pub fn running_of(&self, func: FuncId) -> usize {
        self.running.get(func.index()).copied().unwrap_or(0)
    }

    /// All pods on `node`.
    pub fn on_node(&self, node: NodeId) -> usize {
        self.on_node.get(node.index()).copied().unwrap_or(0)
    }
}

fn bump(counts: &mut Vec<usize>, i: usize) {
    if counts.len() <= i {
        counts.resize(i + 1, 0);
    }
    counts[i] += 1;
}

/// Outcome of a reconciliation pass for one function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReconcileAction {
    /// Create this many new pods.
    Create(usize),
    /// Drain these pods (newest first).
    Drain(Vec<PodId>),
    /// Replicas already match.
    Steady,
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastg_gpu::{GpuSpec, MpsMode};

    fn spec() -> ResourceSpec {
        ResourceSpec::new(12.0, 0.3, 0.8, 0)
    }

    fn cluster_with_node() -> (Cluster, NodeId, GpuDevice) {
        let mut c = Cluster::new();
        let n = c.add_node();
        (c, n, GpuDevice::new(GpuSpec::v100(), MpsMode::Shared))
    }

    #[test]
    fn create_and_delete_pod_round_trip() {
        let (mut c, n, mut gpu) = cluster_with_node();
        let pod = c
            .create_pod(SimTime::ZERO, n, FuncId(0), spec(), 1024, &mut gpu)
            .unwrap();
        assert_eq!(c.pod_count(), 1);
        assert_eq!(gpu.memory().used(), 1024);
        assert_eq!(gpu.mps().client_count(), 1);
        c.delete_pod(pod, &mut gpu).unwrap();
        assert_eq!(c.pod_count(), 0);
        assert_eq!(gpu.memory().used(), 0);
        assert_eq!(gpu.mps().client_count(), 0);
    }

    #[test]
    fn memory_capacity_enforced() {
        let mut c = Cluster::new();
        let n = c.add_node();
        let mut gpu = GpuDevice::new(GpuSpec::custom("small", 8, 1000), MpsMode::Shared);
        let err = c.create_pod(SimTime::ZERO, n, FuncId(0), spec(), 2000, &mut gpu);
        assert!(matches!(err, Err(ClusterError::OutOfMemory { .. })));
        // Failure leaves no stray MPS client.
        assert_eq!(gpu.mps().client_count(), 0);
    }

    #[test]
    fn pods_of_filters_by_function_and_state() {
        let (mut c, n, mut gpu) = cluster_with_node();
        let a = c.create_pod(SimTime::ZERO, n, FuncId(0), spec(), 0, &mut gpu).unwrap();
        let b = c.create_pod(SimTime::ZERO, n, FuncId(0), spec(), 0, &mut gpu).unwrap();
        let _x = c.create_pod(SimTime::ZERO, n, FuncId(1), spec(), 0, &mut gpu).unwrap();
        assert_eq!(c.pods_of(FuncId(0)), vec![a, b]);
        c.begin_terminate(b).unwrap();
        assert_eq!(c.running_pods_of(FuncId(0)), vec![a]);
        assert_eq!(c.pods_on(n).len(), 3);
        let counts = c.pod_counts();
        assert_eq!(counts.running_of(FuncId(0)), 1);
        assert_eq!(counts.running_of(FuncId(1)), 1);
        assert_eq!(counts.running_of(FuncId(7)), 0);
        assert_eq!(counts.on_node(n), 3);
        assert_eq!(counts.on_node(NodeId(9)), 0);
    }

    #[test]
    fn reconcile_scales_up_and_down() {
        let (mut c, n, mut gpu) = cluster_with_node();
        assert_eq!(c.reconcile(FuncId(0), 2), ReconcileAction::Create(2));
        let a = c.create_pod(SimTime::ZERO, n, FuncId(0), spec(), 0, &mut gpu).unwrap();
        let b = c
            .create_pod(SimTime::from_secs(1), n, FuncId(0), spec(), 0, &mut gpu)
            .unwrap();
        assert_eq!(c.reconcile(FuncId(0), 2), ReconcileAction::Steady);
        // Scale to one: the newest pod (b) drains.
        assert_eq!(c.reconcile(FuncId(0), 1), ReconcileAction::Drain(vec![b]));
        let _ = a;
    }

    #[test]
    fn unknown_ids_error() {
        let mut c = Cluster::new();
        let mut gpu = GpuDevice::new(GpuSpec::v100(), MpsMode::Shared);
        assert!(matches!(
            c.create_pod(SimTime::ZERO, NodeId(5), FuncId(0), spec(), 0, &mut gpu),
            Err(ClusterError::UnknownNode(_))
        ));
        assert!(matches!(
            c.delete_pod(PodId(9), &mut gpu),
            Err(ClusterError::UnknownPod(_))
        ));
        assert!(c.pod(PodId(9)).is_err());
    }

    #[test]
    fn multiple_nodes_get_distinct_names() {
        let mut c = Cluster::new();
        let ids = c.add_nodes(4);
        assert_eq!(ids.len(), 4);
        let names: Vec<_> = ids
            .iter()
            .map(|&i| c.node(i).unwrap().name.clone())
            .collect();
        assert_eq!(names[0], "gpu-worker-0");
        assert_eq!(names[3], "gpu-worker-3");
    }

    #[test]
    fn crash_node_removes_pods_and_resets_gpu() {
        let (mut c, n, mut gpu) = cluster_with_node();
        let a = c.create_pod(SimTime::ZERO, n, FuncId(0), spec(), 1024, &mut gpu).unwrap();
        let _b = c.create_pod(SimTime::ZERO, n, FuncId(1), spec(), 2048, &mut gpu).unwrap();
        assert_eq!(c.node_state(n).unwrap(), NodeState::Up);
        let lost = c.crash_node(SimTime::from_secs(1), n, &mut gpu).unwrap();
        assert_eq!(lost.len(), 2);
        assert_eq!(c.pod_count(), 0);
        assert_eq!(c.node_state(n).unwrap(), NodeState::Down);
        // GPU fully reclaimed: no clients, no memory, all SMs free.
        assert_eq!(gpu.mps().client_count(), 0);
        assert_eq!(gpu.memory().used(), 0);
        assert_eq!(gpu.free_sms(), gpu.spec().sm_count);
        // Down nodes refuse new pods; a second crash is a no-op.
        assert!(matches!(
            c.create_pod(SimTime::from_secs(1), n, FuncId(0), spec(), 0, &mut gpu),
            Err(ClusterError::NodeDown(_))
        ));
        assert!(c.crash_node(SimTime::from_secs(2), n, &mut gpu).unwrap().is_empty());
        assert_eq!(c.live_node_ids(), Vec::<NodeId>::new());
        let _ = a;
    }

    #[test]
    fn degrade_and_recover_node() {
        let (mut c, n, mut gpu) = cluster_with_node();
        c.degrade_node(n, 2.0, &mut gpu).unwrap();
        assert_eq!(c.node_state(n).unwrap(), NodeState::Degraded);
        assert_eq!(gpu.clock_scale(), 2.0);
        // Degraded nodes still take pods.
        assert!(c.create_pod(SimTime::ZERO, n, FuncId(0), spec(), 0, &mut gpu).is_ok());
        c.recover_node(n, &mut gpu).unwrap();
        assert_eq!(c.node_state(n).unwrap(), NodeState::Up);
        assert_eq!(gpu.clock_scale(), 1.0);
        // A crashed node can be neither degraded nor recovered.
        c.crash_node(SimTime::ZERO, n, &mut gpu).unwrap();
        assert!(matches!(c.degrade_node(n, 2.0, &mut gpu), Err(ClusterError::NodeDown(_))));
        assert!(matches!(c.recover_node(n, &mut gpu), Err(ClusterError::NodeDown(_))));
    }

    #[test]
    fn exclusive_node_admits_single_pod() {
        let mut c = Cluster::new();
        let n = c.add_node();
        let mut gpu = GpuDevice::new(GpuSpec::v100(), MpsMode::Exclusive);
        let _a = c.create_pod(SimTime::ZERO, n, FuncId(0), spec(), 0, &mut gpu).unwrap();
        let err = c.create_pod(SimTime::ZERO, n, FuncId(0), spec(), 0, &mut gpu);
        assert!(matches!(err, Err(ClusterError::Gpu(_))));
    }

    /// A node's device goes on the wire between its name and its state,
    /// and every node decodes back under its own key.
    #[test]
    fn snapshot_carries_the_callers_devices() {
        let (mut c, n, mut gpu) = cluster_with_node();
        c.create_pod(SimTime::ZERO, n, FuncId(0), spec(), 1024, &mut gpu).unwrap();
        let mut w = SnapWriter::new();
        c.snap_with(&mut w, |_, w| gpu.snap(w));
        let bytes = w.finish();
        let mut devices = Vec::new();
        let back = Cluster::unsnap_with(&mut SnapReader::new(&bytes), |id, r| {
            devices.push((id, GpuDevice::unsnap(r)?));
            Ok(())
        })
        .unwrap();
        assert_eq!(back.pod_count(), 1);
        assert_eq!(devices.len(), 1);
        assert_eq!(devices[0].0, n);
        assert_eq!(devices[0].1.memory().used(), 1024);
        // A node stored under another node's key is refused: slot 1
        // holds node 0 (the devices are left out of these bytes).
        let mut w = SnapWriter::new();
        w.len_prefix(1);
        w.len_prefix(2);
        w.u32(0);
        w.u8(0);
        w.u32(1);
        w.u8(1);
        NodeId(0).snap(&mut w);
        "gpu-worker-0".to_string().snap(&mut w);
        NodeState::Up.snap(&mut w);
        IdArena::<PodId, Pod>::new().snap(&mut w);
        2u32.snap(&mut w);
        0u64.snap(&mut w);
        let bytes = w.finish();
        let moved = Cluster::unsnap_with(&mut SnapReader::new(&bytes), |_, _| Ok(()));
        assert!(moved.is_err());
    }
}

//! Node selection: lifting Algorithm 2 across every GPU in the cluster.

use super::rects::{GpuRects, Rect};
use fastg_cluster::{NodeId, PodId, ResourceSpec};
use fastg_des::snap::{Snap, SnapError, SnapReader};
use fastg_des::{snap_struct, IdArena, IdSet};

/// One free maximal rectangle of one GPU, keyed `(area, u32::MAX − pod
/// count, node, y, x, w, h)`: for a fixed demand, ascending keys are
/// ascending slack, then the busier GPU, then the lower node id, which is
/// Algorithm 2's global order. The last four fields keep keys unique.
type RectKey = (u64, u32, NodeId, u32, u32, u32, u32);

/// Every free rectangle of every GPU, in [`RectKey`] order. Placement
/// walks it once per pod; GPUs change only at deploy, drain and crash
/// time. fastg-lint: allow(no-btreemap-hot-path)
type RectIndex = std::collections::BTreeSet<RectKey>;

/// The index keys of `gpu`'s free rectangles.
fn rect_keys(node: NodeId, gpu: &GpuRects) -> impl Iterator<Item = RectKey> + '_ {
    let busy = u32::MAX - u32::try_from(gpu.pod_count()).unwrap_or(u32::MAX);
    gpu.free_rects()
        .iter()
        .map(move |r| (r.area(), busy, node, r.y, r.x, r.w, r.h))
}

/// The index of every GPU's free rectangles, built from scratch.
fn index_of(gpus: &IdArena<NodeId, GpuRects>) -> RectIndex {
    gpus.iter().flat_map(|(n, g)| rect_keys(n, g)).collect()
}

/// Placement counters, reported per run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Successful rectangle bindings.
    pub placements: u64,
    /// Rectangle releases.
    pub releases: u64,
    /// Selections that found no feasible node ("a new GPU required").
    pub rejects: u64,
    /// GPUs whose memory a selection checked: each GPU whose free
    /// rectangle the selection reached before it found its node, asked
    /// once. Every GPU asked but the chosen one failed `mem_fits`.
    pub probes: u64,
    /// Placements that needed an exact-feasibility fallback. Maximal
    /// rectangles are exact by construction, so this is always zero.
    pub exact_fallbacks: u64,
}

/// The placement contract, split-phase by design: `select_node` leaves
/// rectangle state untouched so the engine can create the pod and learn
/// its id before `bind` mutates it, and `mem_fits` keeps device-memory
/// feasibility the engine's knowledge, not the scheduler's. Identical
/// call sequences yield identical decisions.
pub trait Scheduler: std::fmt::Debug + Send {
    /// Registers a node's GPU (one per node).
    fn add_gpu(&mut self, node: NodeId);

    /// Picks the target node for a demand without touching rectangle
    /// state (only the probe and reject counters move), or `None` when
    /// every GPU is too full ("a new GPU required").
    fn select_node(
        &mut self,
        spec: &ResourceSpec,
        mem_fits: &mut dyn FnMut(NodeId) -> bool,
    ) -> Option<NodeId>;

    /// Binds `pod` on a specific node (chosen by `select_node`). Returns
    /// `None` if that GPU cannot fit the demand after all.
    fn bind(&mut self, node: NodeId, pod: PodId, spec: &ResourceSpec) -> Option<Rect>;

    /// Releases a pod's rectangle on `node` (keep-restructure policy
    /// applies inside [`GpuRects::release`]).
    fn release(&mut self, node: NodeId, pod: PodId) -> Option<Rect>;
}

/// How pods are bound to GPUs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// FaST-Scheduler: global best-area-fit over the maximal-rectangle
    /// lists of all GPUs (Algorithm 2), preferring GPUs that already host
    /// rectangles so shared GPUs fill up before new ones are opened.
    #[default]
    MaximalRectangles,
    /// KubeShare-style time sharing: every pod is widened to the full SM
    /// axis (no spatial sharing), so packing degenerates to quota-only.
    TimeSharingOnly,
}

/// The multi-GPU placement engine: FaST-Scheduler's node selection.
#[derive(Debug, Clone)]
pub struct NodeSelector {
    policy: PlacementPolicy,
    /// Per-node GPU state in a dense slab; iteration ascends node ids,
    /// matching the ordered-map behaviour the digests were pinned under.
    gpus: IdArena<NodeId, GpuRects>,
    /// Derived from `gpus`: every change to a GPU goes through
    /// [`Self::change_gpu`], and a restore rebuilds it. Never encoded.
    index: RectIndex,
    placements: u64,
    releases: u64,
    /// GPUs whose memory a selection checked.
    probes: u64,
    rejects: u64,
}

impl NodeSelector {
    /// Creates a selector with no GPUs.
    pub fn new(policy: PlacementPolicy) -> Self {
        NodeSelector {
            policy,
            gpus: IdArena::new(),
            index: RectIndex::new(),
            placements: 0,
            releases: 0,
            probes: 0,
            rejects: 0,
        }
    }

    /// Removes a node's GPU from the placement pool (node crash): all its
    /// rectangle bindings are discarded and no future placement considers
    /// it. No-op if the node was never registered.
    pub fn remove_gpu(&mut self, node: NodeId) {
        if let Some(gpu) = self.gpus.remove(node) {
            for key in rect_keys(node, &gpu) {
                self.index.remove(&key);
            }
        }
    }

    /// Registers `gpu` as `node`'s GPU, replacing any earlier one.
    fn insert_gpu(&mut self, node: NodeId, gpu: GpuRects) {
        self.remove_gpu(node);
        self.index.extend(rect_keys(node, &gpu));
        self.gpus.insert(node, gpu);
    }

    /// Applies `change` to `node`'s GPU, keeping the index current: the
    /// GPU's keys leave before the change and return after it, since the
    /// change may move its free rectangles and its pod count alike.
    /// `None` if the node has no GPU.
    fn change_gpu<T>(
        &mut self,
        node: NodeId,
        change: impl FnOnce(&mut GpuRects) -> T,
    ) -> Option<T> {
        let gpu = self.gpus.get_mut(node)?;
        for key in rect_keys(node, gpu) {
            self.index.remove(&key);
        }
        let out = change(gpu);
        self.index.extend(rect_keys(node, gpu));
        Some(out)
    }

    /// The placement policy.
    pub fn policy(&self) -> PlacementPolicy {
        self.policy
    }

    /// Converts a resource spec to rectangle units. Width is the
    /// *guaranteed* quota (the request) in percent — the elastic region up
    /// to the limit is opportunistic and not reserved; height is the SM
    /// partition in percent. Under time-sharing-only the height is pinned
    /// to the full SM axis. Specs with a zero request reserve one unit.
    pub fn demand_of(&self, spec: &ResourceSpec) -> (u32, u32) {
        // f64→u32 `as` saturates, and both axes are clamped to ..=100
        // below, so the casts cannot smuggle in out-of-range demand.
        // fastg-lint: allow(no-lossy-cast)
        let w = (spec.quota_request * 100.0).round().max(1.0) as u32;
        let h = match self.policy {
            PlacementPolicy::TimeSharingOnly => 100,
            // fastg-lint: allow(no-lossy-cast)
            _ => spec.sm_partition.round().max(1.0) as u32,
        };
        (w.min(100), h.min(100))
    }

    /// Binds `pod` with resource demand `spec` to a GPU. `mem_fits`
    /// filters nodes by device-memory availability (the caller knows the
    /// model-sharing-adjusted footprint). Returns the binding, or `None`
    /// when every GPU is too full ("a new GPU required").
    pub fn place(
        &mut self,
        pod: PodId,
        spec: &ResourceSpec,
        mut mem_fits: impl FnMut(NodeId) -> bool,
    ) -> Option<(NodeId, Rect)> {
        let node = self.select_node(spec, &mut mem_fits)?;
        let rect = self.bind(node, pod, spec)?;
        Some((node, rect))
    }

    /// Binds `pod` on `node` to a rectangle of `rect`'s size, such as the
    /// one it just released. Returns whether it fit.
    pub fn rebind(&mut self, node: NodeId, pod: PodId, rect: Rect) -> bool {
        let placed = self.change_gpu(node, |g| g.place(pod, rect.w, rect.h)).flatten();
        if placed.is_some() {
            self.placements += 1;
        }
        placed.is_some()
    }

    /// Per-GPU state, for reports and tests.
    pub fn gpu(&self, node: NodeId) -> Option<&GpuRects> {
        self.gpus.get(node)
    }

    /// Number of GPUs hosting at least one pod.
    pub fn gpus_in_use(&self) -> usize {
        self.gpus.values().filter(|g| g.pod_count() > 0).count()
    }

    /// Total bound area across all GPUs.
    pub fn total_used_area(&self) -> u64 {
        self.gpus.values().map(|g| g.used_area()).sum()
    }

    /// Mean fragmentation across GPUs that have free space.
    pub fn mean_fragmentation(&self) -> f64 {
        let frags: Vec<f64> = self
            .gpus
            .values()
            .filter(|g| g.free_area() > 0)
            .map(|g| g.fragmentation())
            .collect();
        if frags.is_empty() {
            0.0
        } else {
            frags.iter().sum::<f64>() / frags.len() as f64
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> SchedStats {
        SchedStats {
            placements: self.placements,
            releases: self.releases,
            rejects: self.rejects,
            probes: self.probes,
            exact_fallbacks: 0,
        }
    }

    /// Restores the per-GPU rectangle state and counters the selector's
    /// [`Snap`] encoding wrote, keeping its own policy: a platform
    /// reconstructs that from its config.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        *self = NodeSelector {
            policy: self.policy,
            ..NodeSelector::unsnap(r)?
        };
        Ok(())
    }
}

// The policy comes from platform config, and the index is rebuilt from
// the decoded GPUs.
snap_struct!(NodeSelector { gpus, placements, releases, probes, rejects }
skip { policy, index }
rebuild |s| {
    s.index = index_of(&s.gpus);
    Ok(())
});

impl Scheduler for NodeSelector {
    fn add_gpu(&mut self, node: NodeId) {
        self.insert_gpu(node, GpuRects::standard());
    }

    fn select_node(
        &mut self,
        spec: &ResourceSpec,
        mem_fits: &mut dyn FnMut(NodeId) -> bool,
    ) -> Option<NodeId> {
        let (w, h) = self.demand_of(spec);
        // Global best fit: minimum secondCores slack across every free
        // rectangle of every (memory-feasible) GPU; ties go to the busier
        // GPU, then the lower node id, which keeps pods consolidating
        // instead of spreading. The index holds exactly that order from
        // the demand's area up, so the first fitting rectangle on a GPU
        // with memory names the node. Each GPU is asked at most once.
        let mut refused = IdSet::new();
        let mut chosen = None;
        let from = (u64::from(w) * u64::from(h), 0, NodeId(0), 0, 0, 0, 0);
        for &(.., node, _, _, rw, rh) in self.index.range(from..) {
            if rw < w || rh < h || refused.contains(node) {
                continue;
            }
            self.probes += 1;
            if mem_fits(node) {
                chosen = Some(node);
                break;
            }
            refused.insert(node);
        }
        if chosen.is_none() {
            self.rejects += 1;
        }
        chosen
    }

    fn bind(&mut self, node: NodeId, pod: PodId, spec: &ResourceSpec) -> Option<Rect> {
        let (w, h) = self.demand_of(spec);
        let rect = self.change_gpu(node, |g| g.place(pod, w, h)).flatten();
        if rect.is_some() {
            self.placements += 1;
        }
        rect
    }

    fn release(&mut self, node: NodeId, pod: PodId) -> Option<Rect> {
        let rect = self.change_gpu(node, |g| g.release(pod)).flatten();
        if rect.is_some() {
            self.releases += 1;
        }
        rect
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(sm: f64, quota: f64) -> ResourceSpec {
        ResourceSpec::new(sm, quota, quota, 0)
    }

    fn selector(policy: PlacementPolicy, gpus: u32) -> NodeSelector {
        let mut s = NodeSelector::new(policy);
        for i in 0..gpus {
            s.add_gpu(NodeId(i));
        }
        s
    }

    /// The Figure 11 pod set, submitted in descending area order (as the
    /// FaST-Scheduler does).
    fn fig11_pods() -> Vec<(PodId, ResourceSpec)> {
        let mut pods = Vec::new();
        for i in 0..2u64 {
            pods.push((PodId(i), spec(50.0, 0.6))); // BERT
        }
        for i in 2..4u64 {
            pods.push((PodId(i), spec(24.0, 0.4))); // RNNT
        }
        for i in 4..8u64 {
            pods.push((PodId(i), spec(12.0, 0.4))); // ResNet
        }
        pods
    }

    /// The Figure 11 scenario: FaST packs the whole pod set onto one GPU…
    #[test]
    fn fig11_fast_uses_one_gpu() {
        let mut s = selector(PlacementPolicy::MaximalRectangles, 4);
        for (pod, sp) in &fig11_pods() {
            assert!(s.place(*pod, sp, |_| true).is_some());
        }
        assert_eq!(s.gpus_in_use(), 1, "FaST should consolidate onto one GPU");
    }

    /// …while time sharing (no spatial dimension) needs all four.
    #[test]
    fn fig11_time_sharing_uses_four_gpus() {
        let mut s = selector(PlacementPolicy::TimeSharingOnly, 4);
        for (pod, sp) in &fig11_pods() {
            assert!(s.place(*pod, sp, |_| true).is_some(), "pod {pod:?}");
        }
        assert_eq!(s.gpus_in_use(), 4);
    }

    #[test]
    fn consolidates_before_opening_new_gpu() {
        let mut s = selector(PlacementPolicy::MaximalRectangles, 3);
        let (n0, _) = s.place(PodId(0), &spec(20.0, 0.5), |_| true).unwrap();
        let (n1, _) = s.place(PodId(1), &spec(20.0, 0.5), |_| true).unwrap();
        assert_eq!(n0, n1, "second pod should share the first GPU");
    }

    #[test]
    fn memory_filter_excludes_nodes() {
        let mut s = selector(PlacementPolicy::MaximalRectangles, 2);
        let full = NodeId(0);
        let (n, _) = s
            .place(PodId(0), &spec(10.0, 0.5), |node| node != full)
            .unwrap();
        assert_eq!(n, NodeId(1));
    }

    #[test]
    fn new_gpu_required_when_everything_full() {
        let mut s = selector(PlacementPolicy::MaximalRectangles, 1);
        s.place(PodId(0), &spec(100.0, 1.0), |_| true).unwrap();
        assert!(s.place(PodId(1), &spec(10.0, 0.1), |_| true).is_none());
        s.release(NodeId(0), PodId(0)).unwrap();
        assert!(s.place(PodId(1), &spec(10.0, 0.1), |_| true).is_some());
    }

    #[test]
    fn split_phase_through_a_trait_object() {
        let mut s: Box<dyn Scheduler> = Box::new(selector(PlacementPolicy::MaximalRectangles, 2));
        let sp = spec(50.0, 0.5);
        let n = s.select_node(&sp, &mut |_| true).unwrap();
        assert!(s.bind(n, PodId(0), &sp).is_some());
        assert_eq!(s.release(n, PodId(0)), Some(Rect::new(0, 0, 50, 50)));
        assert!(s.release(n, PodId(0)).is_none(), "a pod releases once");
    }

    #[test]
    fn demand_quantization() {
        let s = selector(PlacementPolicy::MaximalRectangles, 0);
        assert_eq!(s.demand_of(&ResourceSpec::new(12.0, 0.4, 0.4, 0)), (40, 12));
        assert_eq!(s.demand_of(&ResourceSpec::new(0.5, 0.004, 0.004, 0)), (1, 1));
        let ts = selector(PlacementPolicy::TimeSharingOnly, 0);
        assert_eq!(ts.demand_of(&ResourceSpec::new(12.0, 0.4, 0.4, 0)), (40, 100));
    }

    /// Algorithm 2 by brute force: the minimum `(slack, Reverse(pod
    /// count), id)` over every GPU that passes `mem_fits`, each searched.
    fn brute_force_node(
        s: &NodeSelector,
        spec: &ResourceSpec,
        mem_fits: impl Fn(NodeId) -> bool,
    ) -> Option<NodeId> {
        let (w, h) = s.demand_of(spec);
        s.gpus
            .iter()
            .filter(|&(n, _)| mem_fits(n))
            .filter_map(|(n, g)| {
                g.best_fit(w, h).map(|(_, slack)| (slack, std::cmp::Reverse(g.pod_count()), n))
            })
            .min()
            .map(|(_, _, n)| n)
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 128 } else { 2048 }))]

        /// `select_node` picks the brute-force node, asking `mem_fits`
        /// about no GPU twice and about no GPU with memory but the one it
        /// picks, through random placements and releases of the Figure 11
        /// shapes on GPUs of two geometries whose low restructure
        /// thresholds rebuild free lists often, under a random memory
        /// filter per selection.
        #[test]
        fn selection_is_the_brute_force_best_fit(
            gpus in prop::collection::vec((0u8..3, 1usize..6), 1..13),
            ops in prop::collection::vec((0u8..3, 0usize..3, any::<u64>(), any::<u8>()), 1..120),
        ) {
            let mut s = NodeSelector::new(PlacementPolicy::MaximalRectangles);
            for (i, &(geometry, threshold)) in (0u32..).zip(&gpus) {
                let (w, h) = [(100, 100), (100, 100), (50, 100)][usize::from(geometry)];
                s.insert_gpu(NodeId(i), GpuRects::new(w, h, threshold));
            }
            let shapes = [spec(50.0, 0.6), spec(24.0, 0.4), spec(12.0, 0.4)];
            let mut placed: Vec<(NodeId, PodId)> = Vec::new();
            for (pod, (op, shape, mask, pick)) in (0u64..).zip(ops) {
                if op == 0 && !placed.is_empty() {
                    let (node, pod) = placed.swap_remove(usize::from(pick) % placed.len());
                    prop_assert!(s.release(node, pod).is_some());
                    continue;
                }
                // Mostly feasible: a node fails the filter one time in four.
                let mem_fits = |n: NodeId| (mask >> (2 * (n.0 % 32))) & 3 != 0;
                let expected = brute_force_node(&s, &shapes[shape], mem_fits);
                let probes = s.stats().probes;
                let mut asked: Vec<NodeId> = Vec::new();
                let chosen = s.select_node(&shapes[shape], &mut |n| {
                    asked.push(n);
                    mem_fits(n)
                });
                prop_assert_eq!(chosen, expected);
                prop_assert_eq!(s.stats().probes - probes, asked.len() as u64);
                prop_assert!(asked.iter().all(|&n| Some(n) == chosen || !mem_fits(n)), "{:?}", asked);
                let once = asked.len();
                asked.sort();
                asked.dedup();
                prop_assert_eq!(asked.len(), once, "a GPU asked twice");
                if let Some(node) = chosen {
                    prop_assert!(s.bind(node, PodId(pod), &shapes[shape]).is_some());
                    placed.push((node, PodId(pod)));
                }
                prop_assert_eq!(&s.index, &index_of(&s.gpus));
            }
        }
    }

    #[test]
    fn counters_survive_the_full_cycle() {
        let mut s = selector(PlacementPolicy::MaximalRectangles, 2);
        s.place(PodId(0), &spec(100.0, 1.0), |_| true).unwrap();
        s.place(PodId(1), &spec(100.0, 1.0), |_| true).unwrap();
        assert!(s.place(PodId(2), &spec(100.0, 1.0), |_| true).is_none());
        s.release(NodeId(0), PodId(0)).unwrap();
        let stats = s.stats();
        assert_eq!(stats.placements, 2);
        assert_eq!(stats.releases, 1);
        assert_eq!(stats.rejects, 1);
        // Each placement asks about the first GPU it reaches, which has
        // memory; the third finds no rectangle that fits and asks nobody.
        assert_eq!(stats.probes, 2);
    }
}

//! The model storage server: one refcounted copy of each model.

use fastg_des::snap::SnapError;
use fastg_des::snap_struct;
use fastg_gpu::{GpuMemory, MemError};
use std::collections::BTreeMap;

/// Storage-process context overhead per model: 300 MB on a V100 (paper
/// §5.5, the hatched area of Figure 13).
pub const DEFAULT_CTX_OVERHEAD: u64 = 300 * 1024 * 1024;

/// Errors from the model-sharing protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum ShareError {
    /// Device memory refused the store's reservation or release.
    Memory(MemError),
    /// Releasing a model the store does not hold.
    UnknownModel(String),
}

impl std::fmt::Display for ShareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShareError::Memory(e) => write!(f, "model store: {e}"),
            ShareError::UnknownModel(model) => write!(f, "model store holds no {model}"),
        }
    }
}

impl std::error::Error for ShareError {}

/// The per-node model storage server (Plasma analogue): per model, the
/// device bytes it holds (weights plus the storage context) and the
/// number of pods sharing them.
#[derive(Debug, Clone)]
pub struct ModelStorageServer {
    ctx_overhead: u64,
    models: BTreeMap<String, (u64, u32)>,
}

impl Default for ModelStorageServer {
    fn default() -> Self {
        Self::new(DEFAULT_CTX_OVERHEAD)
    }
}

impl ModelStorageServer {
    /// Creates a server with the given per-model context overhead.
    pub fn new(ctx_overhead: u64) -> Self {
        ModelStorageServer {
            ctx_overhead,
            models: BTreeMap::new(),
        }
    }

    /// The GET/STORE entry point for a pod of `model`, whose weights take
    /// `weights` bytes: the model's first pod reserves the weights and the
    /// storage context in one step, and later pods share that copy. The
    /// pod's reference is counted; pair with [`Self::release`]. Returns
    /// whether the model was stored already. A refusal changes nothing.
    pub fn acquire(&mut self, mem: &mut GpuMemory, model: &str, weights: u64) -> Result<bool, ShareError> {
        if let Some((_, refs)) = self.models.get_mut(model) {
            *refs += 1;
            return Ok(true);
        }
        let bytes = weights.saturating_add(self.ctx_overhead);
        mem.reserve(bytes).map_err(ShareError::Memory)?;
        self.models.insert(model.to_string(), (bytes, 1));
        Ok(false)
    }

    /// Drops one reference to `model`; the last frees its weights and
    /// context.
    pub fn release(&mut self, mem: &mut GpuMemory, model: &str) -> Result<(), ShareError> {
        let Some((bytes, refs)) = self.models.get_mut(model) else {
            return Err(ShareError::UnknownModel(model.to_string()));
        };
        *refs -= 1;
        if *refs == 0 {
            let bytes = *bytes;
            self.models.remove(model);
            mem.release(bytes).map_err(ShareError::Memory)?;
        }
        Ok(())
    }

    /// Device bytes the server holds for `model` (context + weights).
    pub fn model_bytes(&self, model: &str) -> u64 {
        self.models.get(model).map_or(0, |&(bytes, _)| bytes)
    }

    /// Total device bytes held by the server.
    pub fn total_bytes(&self) -> u64 {
        self.models.values().map(|&(bytes, _)| bytes).sum()
    }

    /// Each stored model with the pods sharing it, by name.
    pub fn refcounts(&self) -> impl Iterator<Item = (&str, u32)> {
        self.models.iter().map(|(model, &(_, refs))| (model.as_str(), refs))
    }

    /// The store's own rules of the invariant catalogue, which decode and
    /// the node's catalogue both run.
    pub(crate) fn check_invariants(&self) -> Result<(), SnapError> {
        // `release` removes a model with its last reference.
        let referenced = self.models.values().all(|&(_, refs)| refs > 0);
        SnapError::ensure(referenced, "model store zero-ref model")?;
        // Checked: decoded sizes may sum past `u64::MAX`, which
        // `total_bytes` adds up unchecked.
        let bytes = self.models.values().try_fold(0u64, |sum, &(bytes, _)| sum.checked_add(bytes));
        SnapError::ensure(bytes.is_some(), "model store bytes")
    }
}

snap_struct!(ModelStorageServer { ctx_overhead, models } check |s| { s.check_invariants() });

/// Memory-footprint accounting used by node selection (Figure 13 math).
pub mod footprint {
    use fastg_models::MemoryFootprint;

    /// Device bytes a new pod must reserve privately.
    pub fn pod_reservation(m: &MemoryFootprint, sharing: bool) -> u64 {
        if sharing {
            m.shared_instance()
        } else {
            m.total()
        }
    }

    /// Device bytes the storage server holds for the model once any pod
    /// is up (weights + context).
    pub fn server_reservation(m: &MemoryFootprint, ctx_overhead: u64) -> u64 {
        m.weights_bytes + ctx_overhead
    }

    /// Total node footprint for `n` pods of a model.
    pub fn total_for(m: &MemoryFootprint, n: u64, sharing: bool, ctx_overhead: u64) -> u64 {
        if n == 0 {
            0
        } else if sharing {
            server_reservation(m, ctx_overhead) + n * m.shared_instance()
        } else {
            n * m.total()
        }
    }

    /// How many pods of a model fit in `capacity` bytes.
    pub fn max_pods(m: &MemoryFootprint, capacity: u64, sharing: bool, ctx_overhead: u64) -> u64 {
        if sharing {
            let fixed = server_reservation(m, ctx_overhead);
            if capacity <= fixed || m.shared_instance() == 0 {
                return 0;
            }
            (capacity - fixed) / m.shared_instance()
        } else if m.total() == 0 {
            0
        } else {
            capacity / m.total()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastg_models::MemoryFootprint;

    const MB: u64 = 1024 * 1024;

    fn mem() -> GpuMemory {
        GpuMemory::new(16 * 1024 * MB) // 16 GiB V100
    }

    /// A model entry as a forged snapshot could hold it, for the
    /// platform's catalogue tests.
    impl ModelStorageServer {
        pub(crate) fn forge_model(&mut self, model: &str, bytes: u64, refs: u32) {
            self.models.insert(model.to_string(), (bytes, refs));
        }
    }

    /// Pods sharing `model` (0 when absent).
    fn refs(s: &ModelStorageServer, model: &str) -> u32 {
        s.refcounts().find(|&(m, _)| m == model).map_or(0, |(_, refs)| refs)
    }

    #[test]
    fn store_then_get_shares_one_copy() {
        let mut m = mem();
        let mut s = ModelStorageServer::new(300 * MB);
        assert!(!s.acquire(&mut m, "resnet50", 98 * MB).unwrap());
        assert!(s.acquire(&mut m, "resnet50", 98 * MB).unwrap());
        assert_eq!(refs(&s, "resnet50"), 2);
        // One context + one weight copy.
        assert_eq!(s.model_bytes("resnet50"), 398 * MB);
        assert_eq!(m.used(), 398 * MB);
    }

    #[test]
    fn release_frees_on_last_reference() {
        let mut m = mem();
        let mut s = ModelStorageServer::new(300 * MB);
        s.acquire(&mut m, "m", 10 * MB).unwrap();
        s.acquire(&mut m, "m", 10 * MB).unwrap();
        s.release(&mut m, "m").unwrap();
        assert_eq!(refs(&s, "m"), 1);
        assert_eq!(m.used(), 310 * MB);
        s.release(&mut m, "m").unwrap();
        // Weights and context both freed.
        assert_eq!(m.used(), 0);
        assert_eq!(s.refcounts().count(), 0);
    }

    #[test]
    fn context_charged_once_per_model() {
        let mut m = mem();
        let mut s = ModelStorageServer::new(300 * MB);
        s.acquire(&mut m, "m", 30 * MB).unwrap();
        s.acquire(&mut m, "m", 30 * MB).unwrap();
        s.acquire(&mut m, "other", 5 * MB).unwrap();
        assert_eq!(s.model_bytes("m"), 330 * MB);
        assert_eq!(s.model_bytes("other"), 305 * MB);
        assert_eq!(s.total_bytes(), 635 * MB);
        assert_eq!(s.refcounts().count(), 2);
        assert_eq!(s.refcounts().collect::<Vec<_>>(), [("m", 2), ("other", 1)]);
    }

    #[test]
    fn oom_during_store_leaves_no_leak() {
        let mut m = GpuMemory::new(350 * MB);
        let mut s = ModelStorageServer::new(300 * MB);
        let err = s.acquire(&mut m, "big", 100 * MB);
        assert_eq!(
            err,
            Err(ShareError::Memory(MemError::OutOfMemory { requested: 400 * MB, free: 350 * MB }))
        );
        // The context is never reserved without the weights.
        assert_eq!(m.used(), 0);
        assert_eq!(s.refcounts().count(), 0);
    }

    #[test]
    fn release_unknown_errors() {
        let mut m = mem();
        let mut s = ModelStorageServer::default();
        assert_eq!(s.release(&mut m, "x"), Err(ShareError::UnknownModel("x".into())));
    }

    /// Two ViT-Huge pods share one copy of the weights; it outlives the
    /// first pod's release and goes with the second's.
    #[test]
    fn pods_share_one_copy_until_the_last_releases() {
        let mut m = mem();
        let mut s = ModelStorageServer::new(300 * MB);
        s.acquire(&mut m, "vit", 2634 * MB).unwrap();
        s.acquire(&mut m, "vit", 2634 * MB).unwrap();
        assert_eq!(m.used(), (2634 + 300) * MB);
        s.release(&mut m, "vit").unwrap();
        assert_eq!(m.used(), (2634 + 300) * MB, "the second pod still holds it");
        s.release(&mut m, "vit").unwrap();
        assert_eq!(m.used(), 0);
        assert_eq!(s.release(&mut m, "vit"), Err(ShareError::UnknownModel("vit".into())));
    }

    /// A snapshot holding a model no pod references, or bytes that sum
    /// past `u64::MAX`, is refused.
    #[test]
    fn decode_refuses_forged_entries() {
        use fastg_des::snap::{Snap, SnapReader, SnapWriter};
        for (models, what) in [
            (vec![("a", (10u64, 0u32))], "model store zero-ref model"),
            (vec![("a", (u64::MAX, 1)), ("b", (1, 1))], "model store bytes"),
        ] {
            let mut w = SnapWriter::new();
            w.u64(300 * MB);
            models
                .into_iter()
                .map(|(model, entry)| (model.to_string(), entry))
                .collect::<BTreeMap<_, _>>()
                .snap(&mut w);
            let bytes = w.finish();
            let err = ModelStorageServer::unsnap(&mut SnapReader::new(&bytes)).unwrap_err();
            assert_eq!(err, SnapError::new(what));
        }
    }

    /// Figure 13: 3 ViT-Huge pods = 2934 (server) + 3 × 2101 with sharing
    /// vs 3 × 4735 without; ~4.8 GB saved.
    #[test]
    fn fig13_vit_huge_three_pods() {
        let vit = MemoryFootprint::from_mib(2101, 2634);
        let shared = footprint::total_for(&vit, 3, true, 300 * MB);
        let unshared = footprint::total_for(&vit, 3, false, 300 * MB);
        assert_eq!(shared / MB, 2934 + 3 * 2101); // 9237 MiB (paper: 9282)
        assert_eq!(unshared / MB, 3 * 4735); // 14205 MiB
        let saved_gb = (unshared - shared) as f64 / (1024.0 * MB as f64);
        assert!((saved_gb - 4.85).abs() < 0.15, "saved {saved_gb} GB");
    }

    /// Figure 13: a 16 GB V100 fits 7 shared vs 4 unshared ResNeXt pods.
    #[test]
    fn fig13_resnext_capacity() {
        let rx = MemoryFootprint::from_mib(1800, 2100);
        let cap = 16 * 1024 * MB;
        assert_eq!(footprint::max_pods(&rx, cap, true, 300 * MB), 7);
        assert_eq!(footprint::max_pods(&rx, cap, false, 300 * MB), 4);
    }

    /// Figure 13: single-pod deployments pay a small sharing penalty.
    #[test]
    fn fig13_single_pod_overhead() {
        let vit = MemoryFootprint::from_mib(2101, 2634);
        let shared_1 = footprint::total_for(&vit, 1, true, 300 * MB);
        let unshared_1 = footprint::total_for(&vit, 1, false, 300 * MB);
        assert!(shared_1 > unshared_1);
        assert_eq!((shared_1 - unshared_1) / MB, 300);
    }

    #[test]
    fn footprint_edge_cases() {
        let m0 = MemoryFootprint::from_mib(0, 0);
        assert_eq!(footprint::max_pods(&m0, 1024 * MB, true, 300 * MB), 0);
        assert_eq!(footprint::max_pods(&m0, 1024 * MB, false, 300 * MB), 0);
        assert_eq!(footprint::total_for(&m0, 0, true, 300 * MB), 0);
        let tiny_cap = MemoryFootprint::from_mib(100, 100);
        assert_eq!(footprint::max_pods(&tiny_cap, 100 * MB, true, 300 * MB), 0);
    }
}

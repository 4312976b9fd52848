//! The model storage server and its client library.

use fastg_des::snap::SnapError;
use fastg_des::snap_struct;
use fastg_gpu::{DevicePtr, GpuMemory, IpcHandle};
use std::collections::BTreeMap;

/// Storage-process context overhead per model: 300 MB on a V100 (paper
/// §5.5, the hatched area of Figure 13).
pub const DEFAULT_CTX_OVERHEAD: u64 = 300 * 1024 * 1024;

/// Errors from the model-sharing protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum ShareError {
    /// Device memory exhausted while storing.
    OutOfMemory(String),
    /// Releasing a tensor that is not stored (or already fully released).
    UnknownTensor {
        /// Model name.
        model: String,
        /// Tensor id.
        tensor: String,
    },
}

impl std::fmt::Display for ShareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShareError::OutOfMemory(e) => write!(f, "model store out of memory: {e}"),
            ShareError::UnknownTensor { model, tensor } => {
                write!(f, "unknown tensor {model}/{tensor}")
            }
        }
    }
}

impl std::error::Error for ShareError {}

/// A handle to a shared tensor: the IPC handle plus the opened pointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TensorHandle {
    /// The exported IPC handle.
    pub ipc: IpcHandle,
    /// The device pointer it resolves to (the same bytes in every
    /// process — zero copies).
    pub ptr: DevicePtr,
}

#[derive(Debug, Clone)]
struct StoredTensor {
    ptr: DevicePtr,
    ipc: IpcHandle,
    refs: u32,
}

#[derive(Debug, Clone)]
struct ModelEntry {
    ctx: DevicePtr,
    tensors: BTreeMap<String, StoredTensor>,
}

/// The per-node model storage server (Plasma analogue).
#[derive(Debug, Clone)]
pub struct ModelStorageServer {
    ctx_overhead: u64,
    models: BTreeMap<String, ModelEntry>,
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

    /// The GET/STORE entry point: returns the tensor's handle, storing it
    /// first (allocating `size` bytes plus, for a model's first tensor,
    /// the storage context) when absent. The caller's reference is
    /// counted; pair with [`Self::release`].
    pub fn get_or_store(
        &mut self,
        mem: &mut GpuMemory,
        model: &str,
        tensor: &str,
        size: u64,
    ) -> Result<(TensorHandle, bool), ShareError> {
        // Ensure the model's storage-process context exists.
        if !self.models.contains_key(model) {
            let ctx = if self.ctx_overhead > 0 {
                mem.alloc(self.ctx_overhead)
                    .map_err(|e| ShareError::OutOfMemory(e.to_string()))?
            } else {
                DevicePtr { offset: 0, len: 0 }
            };
            self.models.insert(
                model.to_string(),
                ModelEntry {
                    ctx,
                    tensors: BTreeMap::new(),
                },
            );
        }
        let had = self
            .models
            .get(model)
            .is_some_and(|e| e.tensors.contains_key(tensor));
        if !had {
            // STORE: cuMemAlloc + cuIpcGetMemHandle.
            let ptr = match mem.alloc(size) {
                Ok(p) => p,
                Err(e) => {
                    self.gc_model(mem, model);
                    return Err(ShareError::OutOfMemory(e.to_string()));
                }
            };
            let Ok(ipc) = mem.ipc_get_handle(ptr) else {
                debug_assert!(false, "fresh allocation exports a handle");
                let _ = mem.free(ptr);
                self.gc_model(mem, model);
                return Err(ShareError::OutOfMemory("ipc handle export failed".into()));
            };
            if let Some(e) = self.models.get_mut(model) {
                e.tensors
                    .insert(tensor.to_string(), StoredTensor { ptr, ipc, refs: 0 });
            } else {
                debug_assert!(false, "model entry created above");
            }
        }
        let Some(entry) = self
            .models
            .get_mut(model)
            .and_then(|e| e.tensors.get_mut(tensor))
        else {
            debug_assert!(false, "tensor stored above");
            return Err(ShareError::UnknownTensor {
                model: model.to_string(),
                tensor: tensor.to_string(),
            });
        };
        entry.refs += 1;
        Ok((
            TensorHandle {
                ipc: entry.ipc,
                ptr: entry.ptr,
            },
            had,
        ))
    }

    /// Drops one reference to a tensor; the last release frees the device
    /// memory, and freeing a model's last tensor also frees its context.
    pub fn release(
        &mut self,
        mem: &mut GpuMemory,
        model: &str,
        tensor: &str,
    ) -> Result<(), ShareError> {
        let entry = self
            .models
            .get_mut(model)
            .ok_or_else(|| ShareError::UnknownTensor {
                model: model.to_string(),
                tensor: tensor.to_string(),
            })?;
        let t = entry
            .tensors
            .get_mut(tensor)
            .ok_or_else(|| ShareError::UnknownTensor {
                model: model.to_string(),
                tensor: tensor.to_string(),
            })?;
        debug_assert!(t.refs > 0, "release without matching get ({model}/{tensor})");
        t.refs = t.refs.saturating_sub(1);
        if t.refs == 0 {
            let ptr = t.ptr;
            entry.tensors.remove(tensor);
            let freed = mem.free(ptr);
            debug_assert!(freed.is_ok(), "stored tensor pointer is live");
        }
        self.gc_model(mem, model);
        Ok(())
    }

    /// Frees a model's context when it stores no tensors.
    fn gc_model(&mut self, mem: &mut GpuMemory, model: &str) {
        let empty = self
            .models
            .get(model)
            .is_some_and(|e| e.tensors.is_empty());
        if empty {
            let Some(e) = self.models.remove(model) else {
                return; // unreachable: presence checked above
            };
            if e.ctx.len > 0 {
                let freed = mem.free(e.ctx);
                debug_assert!(freed.is_ok(), "context pointer is live");
            }
        }
    }

    /// Device bytes the server holds for `model` (context + stored
    /// tensors).
    pub fn model_bytes(&self, model: &str) -> u64 {
        self.models.get(model).map_or(0, |e| {
            let ctx = if e.ctx.len > 0 { e.ctx.len } else { 0 };
            ctx + e.tensors.values().map(|t| t.ptr.len).sum::<u64>()
        })
    }

    /// Total device bytes held by the server.
    pub fn total_bytes(&self) -> u64 {
        self.models
            .keys()
            .map(|m| self.model_bytes(m))
            .sum()
    }

    /// Reference count of a tensor (0 when absent).
    pub fn refs(&self, model: &str, tensor: &str) -> u32 {
        self.models
            .get(model)
            .and_then(|e| e.tensors.get(tensor))
            .map_or(0, |t| t.refs)
    }

    /// Number of models with live storage.
    pub fn model_count(&self) -> usize {
        self.models.len()
    }
}

snap_struct!(StoredTensor { ptr, ipc, refs } check |t| {
    if t.refs == 0 {
        // A zero-ref tensor is freed eagerly by `release`; it can
        // never appear in a live server.
        return Err(SnapError::new("model store zero-ref tensor"));
    }
    Ok(())
});

snap_struct!(ModelEntry { ctx, tensors });

snap_struct!(ModelStorageServer { ctx_overhead, models } check |s| {
    // `gc_model` removes a model the moment its last tensor is
    // released, so every entry holds at least one tensor.
    if s.models.values().any(|e| e.tensors.is_empty()) {
        return Err(SnapError::new("model store empty model"));
    }
    // Checked: decoded sizes may sum past `u64::MAX`, which
    // `total_bytes` adds up unchecked.
    let mut lens = s
        .models
        .values()
        .flat_map(|e| std::iter::once(e.ctx.len).chain(e.tensors.values().map(|t| t.ptr.len)));
    if lens.try_fold(0u64, u64::checked_add).is_none() {
        return Err(SnapError::new("model store bytes"));
    }
    Ok(())
});

snap_struct!(StoreLib { attached });

/// The client-side store library: what the PyTorch C++ extension exposes
/// to a function instance.
#[derive(Debug, Clone, Default)]
pub struct StoreLib {
    attached: Vec<(String, String)>,
}

impl StoreLib {
    /// Creates an unattached client.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches the instance's weights: a GET/STORE for each tensor,
    /// returning zero-copy handles in order.
    pub fn attach(
        &mut self,
        server: &mut ModelStorageServer,
        mem: &mut GpuMemory,
        model: &str,
        tensors: &[(&str, u64)],
    ) -> Result<Vec<TensorHandle>, ShareError> {
        let mut out = Vec::with_capacity(tensors.len());
        for &(name, size) in tensors {
            let (h, _) = server.get_or_store(mem, model, name, size)?;
            self.attached.push((model.to_string(), name.to_string()));
            out.push(h);
        }
        Ok(out)
    }

    /// Releases every attached tensor (instance teardown).
    pub fn detach(&mut self, server: &mut ModelStorageServer, mem: &mut GpuMemory) {
        for (model, tensor) in self.attached.drain(..) {
            let released = server.release(mem, &model, &tensor);
            debug_assert!(released.is_ok(), "attached tensor releases cleanly");
        }
    }

    /// Number of attached tensors.
    pub fn attached_count(&self) -> usize {
        self.attached.len()
    }
}

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

    #[test]
    fn store_then_get_shares_one_copy() {
        let mut m = mem();
        let mut s = ModelStorageServer::new(300 * MB);
        let (h1, present) = s.get_or_store(&mut m, "resnet50", "weights", 98 * MB).unwrap();
        assert!(!present);
        let (h2, present) = s.get_or_store(&mut m, "resnet50", "weights", 98 * MB).unwrap();
        assert!(present);
        assert_eq!(h1.ptr, h2.ptr, "zero-copy: same device pointer");
        assert_eq!(s.refs("resnet50", "weights"), 2);
        // One context + one weight copy.
        assert_eq!(s.model_bytes("resnet50"), 398 * MB);
        assert_eq!(m.used(), 398 * MB);
    }

    #[test]
    fn release_frees_on_last_reference() {
        let mut m = mem();
        let mut s = ModelStorageServer::new(300 * MB);
        s.get_or_store(&mut m, "m", "w", 10 * MB).unwrap();
        s.get_or_store(&mut m, "m", "w", 10 * MB).unwrap();
        s.release(&mut m, "m", "w").unwrap();
        assert_eq!(s.refs("m", "w"), 1);
        assert_eq!(m.used(), 310 * MB);
        s.release(&mut m, "m", "w").unwrap();
        // Tensor and context both freed.
        assert_eq!(m.used(), 0);
        assert_eq!(s.model_count(), 0);
    }

    #[test]
    fn context_charged_once_per_model() {
        let mut m = mem();
        let mut s = ModelStorageServer::new(300 * MB);
        s.get_or_store(&mut m, "m", "w1", 10 * MB).unwrap();
        s.get_or_store(&mut m, "m", "w2", 20 * MB).unwrap();
        s.get_or_store(&mut m, "other", "w1", 5 * MB).unwrap();
        assert_eq!(s.model_bytes("m"), 330 * MB);
        assert_eq!(s.model_bytes("other"), 305 * MB);
        assert_eq!(s.total_bytes(), 635 * MB);
        assert_eq!(s.model_count(), 2);
    }

    #[test]
    fn oom_during_store_leaves_no_leak() {
        let mut m = GpuMemory::new(350 * MB);
        let mut s = ModelStorageServer::new(300 * MB);
        let err = s.get_or_store(&mut m, "big", "w", 100 * MB);
        assert!(matches!(err, Err(ShareError::OutOfMemory(_))));
        // The speculative context allocation was rolled back.
        assert_eq!(m.used(), 0);
        assert_eq!(s.model_count(), 0);
    }

    #[test]
    fn release_unknown_errors() {
        let mut m = mem();
        let mut s = ModelStorageServer::default();
        assert!(matches!(
            s.release(&mut m, "x", "y"),
            Err(ShareError::UnknownTensor { .. })
        ));
    }

    #[test]
    fn store_lib_attach_detach() {
        let mut m = mem();
        let mut s = ModelStorageServer::new(300 * MB);
        let mut lib_a = StoreLib::new();
        let mut lib_b = StoreLib::new();
        let h_a = lib_a
            .attach(&mut s, &mut m, "vit", &[("w", 2634 * MB)])
            .unwrap();
        let h_b = lib_b
            .attach(&mut s, &mut m, "vit", &[("w", 2634 * MB)])
            .unwrap();
        assert_eq!(h_a[0].ptr, h_b[0].ptr);
        assert_eq!(m.used(), (2634 + 300) * MB);
        lib_a.detach(&mut s, &mut m);
        assert_eq!(m.used(), (2634 + 300) * MB, "b still holds it");
        lib_b.detach(&mut s, &mut m);
        assert_eq!(m.used(), 0);
        assert_eq!(lib_b.attached_count(), 0);
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

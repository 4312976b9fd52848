//! Device-memory allocator with CUDA-IPC handle analogues.
//!
//! Models `cuMemAlloc` / `cuMemFree` plus the `cuIpcGetMemHandle` /
//! `cuIpcOpenMemHandle` pair the model-sharing storage server uses to export
//! one copy of the weights to many function instances. Allocation is
//! first-fit over a sorted free list with coalescing on free — enough to
//! study fragmentation and capacity questions (e.g. "how many ResNeXt pods
//! fit in 16 GB?"). The bytes in use are a running total, so the
//! scheduler's per-GPU memory-fit test is O(1).

use fastg_des::snap::SnapError;
use fastg_des::{sanitizer, snap_struct};
use std::collections::BTreeMap;

/// A device pointer: base offset and length of a live allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DevicePtr {
    /// Byte offset from the start of device memory.
    pub offset: u64,
    /// Allocation length in bytes.
    pub len: u64,
}

/// An inter-process memory handle exported for a live allocation
/// (`cuIpcGetMemHandle` analogue). Opening it yields the same
/// [`DevicePtr`] in another "process".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IpcHandle(pub u64);

/// Memory-management errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// Not enough contiguous free memory.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Bytes currently free (possibly fragmented).
        free: u64,
    },
    /// The pointer is not a live allocation.
    InvalidPointer(DevicePtr),
    /// The IPC handle does not name a live allocation.
    InvalidHandle(IpcHandle),
    /// Zero-byte allocations are rejected, as in CUDA.
    ZeroSize,
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::OutOfMemory { requested, free } => {
                write!(f, "out of device memory: requested {requested} B, {free} B free")
            }
            MemError::InvalidPointer(p) => write!(f, "invalid device pointer {p:?}"),
            MemError::InvalidHandle(h) => write!(f, "invalid IPC handle {h:?}"),
            MemError::ZeroSize => write!(f, "zero-byte allocation"),
        }
    }
}

impl std::error::Error for MemError {}

/// The device-memory allocator for one GPU.
#[derive(Debug, Clone)]
pub struct GpuMemory {
    capacity: u64,
    /// Free extents keyed by offset; values are lengths. Invariant: sorted,
    /// non-overlapping, non-adjacent (adjacent extents are coalesced).
    free: BTreeMap<u64, u64>,
    /// Live allocations keyed by offset; values are lengths.
    live: BTreeMap<u64, u64>,
    /// The sum of `live`'s lengths, kept by `alloc` and `free`. Not on
    /// the wire: decode rebuilds it from `live`.
    used: u64,
    /// Exported IPC handles: handle -> pointer.
    handles: BTreeMap<u64, DevicePtr>,
    next_handle: u64,
}

impl GpuMemory {
    /// Creates an allocator over `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        let mut free = BTreeMap::new();
        if capacity > 0 {
            free.insert(0, capacity);
        }
        GpuMemory {
            capacity,
            free,
            live: BTreeMap::new(),
            used: 0,
            handles: BTreeMap::new(),
            next_handle: 1,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Bytes currently free (possibly fragmented).
    pub fn free_bytes(&self) -> u64 {
        self.capacity - self.used()
    }

    /// Size of the largest contiguous free extent.
    pub fn largest_free_extent(&self) -> u64 {
        self.free.values().copied().max().unwrap_or(0)
    }

    /// Whether `ptr` is a live allocation, exactly (offset and length).
    pub fn is_live(&self, ptr: DevicePtr) -> bool {
        self.live.get(&ptr.offset) == Some(&ptr.len)
    }

    /// Allocates `len` bytes (`cuMemAlloc`). First-fit.
    pub fn alloc(&mut self, len: u64) -> Result<DevicePtr, MemError> {
        if len == 0 {
            return Err(MemError::ZeroSize);
        }
        let slot = self
            .free
            .iter()
            .find(|&(_, &flen)| flen >= len)
            .map(|(&off, &flen)| (off, flen));
        match slot {
            Some((off, flen)) => {
                self.free.remove(&off);
                if flen > len {
                    self.free.insert(off + len, flen - len);
                }
                self.live.insert(off, len);
                self.used += len;
                self.sanitize_total();
                Ok(DevicePtr { offset: off, len })
            }
            None => Err(MemError::OutOfMemory {
                requested: len,
                free: self.free_bytes(),
            }),
        }
    }

    /// Frees an allocation (`cuMemFree`). Any IPC handles exported for it
    /// are invalidated.
    pub fn free(&mut self, ptr: DevicePtr) -> Result<(), MemError> {
        if !self.is_live(ptr) {
            return Err(MemError::InvalidPointer(ptr));
        }
        self.live.remove(&ptr.offset);
        self.used -= ptr.len;
        self.sanitize_total();
        self.handles.retain(|_, p| *p != ptr);
        self.insert_free(ptr.offset, ptr.len);
        Ok(())
    }

    /// Shadow-check (`FASTG_SANITIZE=1`, rule `memory-total`): the running
    /// total equals the sum of the live allocations.
    fn sanitize_total(&self) {
        if sanitizer::active() {
            let sum: u64 = self.live.values().sum();
            sanitizer::check(self.used == sum, "memory-total", || {
                format!("running total {} B, live allocations sum to {sum} B", self.used)
            });
        }
    }

    /// Exports an IPC handle for a live allocation (`cuIpcGetMemHandle`).
    pub fn ipc_get_handle(&mut self, ptr: DevicePtr) -> Result<IpcHandle, MemError> {
        if !self.is_live(ptr) {
            return Err(MemError::InvalidPointer(ptr));
        }
        let h = IpcHandle(self.next_handle);
        self.next_handle += 1;
        self.handles.insert(h.0, ptr);
        Ok(h)
    }

    /// Opens an IPC handle, yielding the shared pointer
    /// (`cuIpcOpenMemHandle`).
    pub fn ipc_open_handle(&self, handle: IpcHandle) -> Result<DevicePtr, MemError> {
        self.handles
            .get(&handle.0)
            .copied()
            .ok_or(MemError::InvalidHandle(handle))
    }

    /// Inserts a free extent, coalescing with neighbours.
    fn insert_free(&mut self, mut offset: u64, mut len: u64) {
        // Coalesce with the predecessor if adjacent.
        if let Some((&poff, &plen)) = self.free.range(..offset).next_back() {
            debug_assert!(poff + plen <= offset, "overlapping free extents");
            if poff + plen == offset {
                self.free.remove(&poff);
                offset = poff;
                len += plen;
            }
        }
        // Coalesce with the successor if adjacent.
        if let Some((&noff, &nlen)) = self.free.range(offset + len..).next() {
            if offset + len == noff {
                self.free.remove(&noff);
                len += nlen;
            }
        }
        self.free.insert(offset, len);
    }
}

snap_struct!(DevicePtr { offset, len });

snap_struct!(IpcHandle(raw));

// Checked: decoded sizes may sum past `u64::MAX`.
fn checked_sum(m: &BTreeMap<u64, u64>) -> Option<u64> {
    m.values().try_fold(0u64, |a, &b| a.checked_add(b))
}

snap_struct!(GpuMemory { capacity, free, live, handles, next_handle }
skip { used }
rebuild |m| {
    m.used = checked_sum(&m.live).ok_or(SnapError::new("gpu memory accounting"))?;
    Ok(())
}
check |m| {
    let total = checked_sum(&m.free).and_then(|unused| m.used.checked_add(unused));
    if total != Some(m.capacity) {
        return Err(SnapError::new("gpu memory accounting"));
    }
    Ok(())
});

#[cfg(test)]
mod tests {
    use super::*;
    use fastg_des::snap::{Snap, SnapReader, SnapWriter};

    #[test]
    fn alloc_and_free_round_trip() {
        let mut m = GpuMemory::new(1024);
        let a = m.alloc(100).unwrap();
        let b = m.alloc(200).unwrap();
        assert_eq!(m.used(), 300);
        assert_eq!(a.offset, 0);
        assert_eq!(b.offset, 100);
        m.free(a).unwrap();
        assert_eq!(m.used(), 200);
        m.free(b).unwrap();
        assert_eq!(m.used(), 0);
        assert_eq!(m.largest_free_extent(), 1024); // fully coalesced
    }

    #[test]
    fn out_of_memory_reports_free() {
        let mut m = GpuMemory::new(100);
        m.alloc(60).unwrap();
        assert_eq!(
            m.alloc(50),
            Err(MemError::OutOfMemory {
                requested: 50,
                free: 40
            })
        );
    }

    #[test]
    fn fragmentation_blocks_large_alloc() {
        let mut m = GpuMemory::new(300);
        let a = m.alloc(100).unwrap();
        let b = m.alloc(100).unwrap();
        let _c = m.alloc(100).unwrap();
        m.free(a).unwrap();
        // free = 100 at offset 0 but b occupies 100..200.
        assert!(m.alloc(150).is_err());
        m.free(b).unwrap();
        // Now 0..200 coalesced.
        assert_eq!(m.largest_free_extent(), 200);
        assert!(m.alloc(150).is_ok());
    }

    #[test]
    fn double_free_rejected() {
        let mut m = GpuMemory::new(100);
        let a = m.alloc(10).unwrap();
        m.free(a).unwrap();
        assert_eq!(m.free(a), Err(MemError::InvalidPointer(a)));
    }

    #[test]
    fn zero_alloc_rejected() {
        let mut m = GpuMemory::new(100);
        assert_eq!(m.alloc(0), Err(MemError::ZeroSize));
    }

    #[test]
    fn ipc_handles() {
        let mut m = GpuMemory::new(1024);
        let a = m.alloc(64).unwrap();
        let h = m.ipc_get_handle(a).unwrap();
        assert_eq!(m.ipc_open_handle(h).unwrap(), a);
        m.free(a).unwrap();
        assert_eq!(m.ipc_open_handle(h), Err(MemError::InvalidHandle(h)));
    }

    #[test]
    fn ipc_handle_for_dead_pointer_rejected() {
        let mut m = GpuMemory::new(1024);
        let a = m.alloc(64).unwrap();
        m.free(a).unwrap();
        assert_eq!(m.ipc_get_handle(a), Err(MemError::InvalidPointer(a)));
    }

    #[test]
    fn coalescing_middle_extent() {
        let mut m = GpuMemory::new(300);
        let a = m.alloc(100).unwrap();
        let b = m.alloc(100).unwrap();
        let c = m.alloc(100).unwrap();
        m.free(a).unwrap();
        m.free(c).unwrap();
        m.free(b).unwrap(); // coalesces with both neighbours
        assert_eq!(m.largest_free_extent(), 300);
    }

    #[test]
    fn decode_rejects_overflowing_extent_sums() {
        let mut w = SnapWriter::new();
        w.u64(0); // capacity: the wrapped sum
        BTreeMap::from([(0u64, u64::MAX), (1, 1)]).snap(&mut w);
        BTreeMap::<u64, u64>::new().snap(&mut w);
        BTreeMap::<u64, DevicePtr>::new().snap(&mut w);
        w.u64(0);
        let bytes = w.finish();
        assert!(GpuMemory::unsnap(&mut SnapReader::new(&bytes)).is_err());
    }

    /// A snapshot whose live and free extents do not add up to the
    /// capacity is refused, though the running total is rebuilt from
    /// `live` alone.
    #[test]
    fn decode_refuses_forged_accounting() {
        for (live, free) in [
            (BTreeMap::from([(0u64, 100u64)]), BTreeMap::from([(100u64, 800u64)])),
            (BTreeMap::from([(0, 600)]), BTreeMap::from([(100, 900)])),
            (BTreeMap::new(), BTreeMap::new()),
        ] {
            let mut w = SnapWriter::new();
            w.u64(1024); // capacity
            free.snap(&mut w);
            live.snap(&mut w);
            BTreeMap::<u64, DevicePtr>::new().snap(&mut w);
            w.u64(1);
            let bytes = w.finish();
            let err = GpuMemory::unsnap(&mut SnapReader::new(&bytes)).unwrap_err();
            assert_eq!(err, SnapError::new("gpu memory accounting"));
        }
    }

    fn encode(m: &GpuMemory) -> Vec<u8> {
        let mut w = SnapWriter::new();
        m.snap(&mut w);
        w.finish()
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The running total equals the live allocations' sum after every
        /// alloc, free and IPC export, failed ones included, and after a
        /// snapshot round trip, whose bytes re-encode unchanged.
        #[test]
        fn running_total_is_the_live_sum(
            capacity in 1u64..4096,
            ops in prop::collection::vec((0u8..4, 0u64..1500, any::<u8>()), 1..80),
        ) {
            let mut m = GpuMemory::new(capacity);
            let mut ptrs: Vec<DevicePtr> = Vec::new();
            for (op, len, pick) in ops {
                let i = usize::from(pick);
                match op {
                    0 | 1 => {
                        if let Ok(p) = m.alloc(len) {
                            ptrs.push(p);
                        }
                    }
                    2 if !ptrs.is_empty() => {
                        let p = ptrs.swap_remove(i % ptrs.len());
                        m.free(p).unwrap();
                        prop_assert!(m.free(p).is_err(), "a pointer frees once");
                    }
                    _ => {
                        if let Some(&p) = ptrs.get(i % ptrs.len().max(1)) {
                            let h = m.ipc_get_handle(p).unwrap();
                            prop_assert_eq!(m.ipc_open_handle(h), Ok(p));
                        }
                    }
                }
                let sum: u64 = m.live.values().sum();
                prop_assert_eq!(m.used(), sum);
                prop_assert_eq!(m.used() + m.free_bytes(), capacity);
                let bytes = encode(&m);
                let back = GpuMemory::unsnap(&mut SnapReader::new(&bytes)).unwrap();
                prop_assert_eq!(back.used(), sum);
                prop_assert_eq!(encode(&back), bytes);
            }
        }
    }
}

//! Device memory as a byte budget.
//!
//! A GPU's memory is its capacity and the bytes reserved against it: a
//! pod's private runtime memory, or a model store's weights and context.
//! Where the bytes would sit on the device has no observable effect here
//! (node selection reasons in free bytes), so nothing records it:
//! [`GpuMemory::reserve`] admits a reservation exactly when it fits the
//! free bytes, and [`GpuMemory::release`] hands bytes back. The scheduler's
//! per-GPU memory-fit test is therefore O(1) and agrees with the device.

use fastg_des::snap::SnapError;
use fastg_des::snap_struct;

/// Memory-management errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// The reservation does not fit the free bytes.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Bytes currently free.
        free: u64,
    },
    /// A release of more bytes than are reserved.
    OverRelease {
        /// Bytes released.
        released: u64,
        /// Bytes reserved.
        used: u64,
    },
    /// Zero-byte reservations are rejected, as CUDA rejects zero-byte
    /// allocations.
    ZeroSize,
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::OutOfMemory { requested, free } => {
                write!(f, "out of device memory: requested {requested} B, {free} B free")
            }
            MemError::OverRelease { released, used } => {
                write!(f, "released {released} B with {used} B reserved")
            }
            MemError::ZeroSize => write!(f, "zero-byte reservation"),
        }
    }
}

impl std::error::Error for MemError {}

/// One GPU's device memory: its capacity and the bytes reserved.
#[derive(Debug, Clone)]
pub struct GpuMemory {
    capacity: u64,
    used: u64,
}

impl GpuMemory {
    /// Device memory of `capacity` bytes, none reserved.
    pub fn new(capacity: u64) -> Self {
        GpuMemory { capacity, used: 0 }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently reserved.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Bytes currently free.
    pub fn free_bytes(&self) -> u64 {
        self.capacity - self.used
    }

    /// Reserves `bytes` (`cuMemAlloc`), refused when they do not fit the
    /// free bytes.
    pub fn reserve(&mut self, bytes: u64) -> Result<(), MemError> {
        if bytes == 0 {
            return Err(MemError::ZeroSize);
        }
        match self.used.checked_add(bytes).filter(|&used| used <= self.capacity) {
            Some(used) => {
                self.used = used;
                Ok(())
            }
            None => Err(MemError::OutOfMemory { requested: bytes, free: self.free_bytes() }),
        }
    }

    /// Hands back `bytes` of a reservation (`cuMemFree`), refused when
    /// they exceed the bytes reserved.
    pub fn release(&mut self, bytes: u64) -> Result<(), MemError> {
        self.used = self
            .used
            .checked_sub(bytes)
            .ok_or(MemError::OverRelease { released: bytes, used: self.used })?;
        Ok(())
    }

    /// The memory's rule of the invariant catalogue, which decode and the
    /// device's catalogue both run: no more bytes in use than the device
    /// has.
    pub(crate) fn check_invariants(&self) -> Result<(), SnapError> {
        SnapError::ensure(self.used <= self.capacity, "gpu memory accounting")
    }
}

snap_struct!(GpuMemory { capacity, used } check |m| { m.check_invariants() });

#[cfg(test)]
mod tests {
    use super::*;
    use fastg_des::snap::{Snap, SnapReader, SnapWriter};

    /// A byte count a forged snapshot could hold, for the device's
    /// catalogue tests.
    impl GpuMemory {
        pub(crate) fn forge_used(&mut self, used: u64) {
            self.used = used;
        }
    }

    #[test]
    fn alloc_and_free_round_trip() {
        let mut m = GpuMemory::new(1024);
        m.reserve(100).unwrap();
        m.reserve(200).unwrap();
        assert_eq!(m.used(), 300);
        m.release(100).unwrap();
        assert_eq!(m.used(), 200);
        m.release(200).unwrap();
        assert_eq!(m.used(), 0);
        assert_eq!(m.free_bytes(), 1024);
    }

    #[test]
    fn out_of_memory_reports_free() {
        let mut m = GpuMemory::new(100);
        m.reserve(60).unwrap();
        assert_eq!(m.reserve(50), Err(MemError::OutOfMemory { requested: 50, free: 40 }));
        assert_eq!(
            m.reserve(u64::MAX),
            Err(MemError::OutOfMemory { requested: u64::MAX, free: 40 }),
            "the sum past u64::MAX is refused, not wrapped"
        );
        assert_eq!(m.used(), 60, "a refusal reserves nothing");
        m.reserve(40).unwrap();
        assert_eq!(m.free_bytes(), 0);
    }

    #[test]
    fn double_free_rejected() {
        let mut m = GpuMemory::new(100);
        m.reserve(10).unwrap();
        m.release(10).unwrap();
        assert_eq!(m.release(10), Err(MemError::OverRelease { released: 10, used: 0 }));
        assert_eq!(m.used(), 0);
    }

    #[test]
    fn zero_alloc_rejected() {
        let mut m = GpuMemory::new(100);
        assert_eq!(m.reserve(0), Err(MemError::ZeroSize));
    }

    fn encode(m: &GpuMemory) -> Vec<u8> {
        let mut w = SnapWriter::new();
        m.snap(&mut w);
        w.finish()
    }

    /// A snapshot reserving more than the capacity is refused.
    #[test]
    fn decode_refuses_forged_accounting() {
        for (capacity, used) in [(1024u64, 1025u64), (0, 1), (1, u64::MAX)] {
            let mut w = SnapWriter::new();
            w.u64(capacity);
            w.u64(used);
            let bytes = w.finish();
            let err = GpuMemory::unsnap(&mut SnapReader::new(&bytes)).unwrap_err();
            assert_eq!(err, SnapError::new("gpu memory accounting"));
        }
        let mut full = GpuMemory::new(1024);
        full.reserve(1024).unwrap();
        assert_eq!(GpuMemory::unsnap(&mut SnapReader::new(&encode(&full))).unwrap().used(), 1024);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The bytes in use are the sum of the outstanding reservations
        /// after every reserve and release, refused ones included, and
        /// after a snapshot round trip, whose bytes re-encode unchanged.
        #[test]
        fn running_total_is_the_live_sum(
            capacity in 1u64..4096,
            ops in prop::collection::vec((0u8..3, 0u64..1500, any::<u8>()), 1..80),
        ) {
            let mut m = GpuMemory::new(capacity);
            let mut live: Vec<u64> = Vec::new();
            for (op, len, pick) in ops {
                let sum: u64 = live.iter().sum();
                match op {
                    0 | 1 => match m.reserve(len) {
                        Ok(()) => live.push(len),
                        Err(_) => prop_assert!(len == 0 || sum + len > capacity, "{} fits", len),
                    },
                    _ if !live.is_empty() => {
                        let len = live.swap_remove(usize::from(pick) % live.len());
                        m.release(len).unwrap();
                    }
                    _ => prop_assert!(m.release(1).is_err(), "nothing reserved"),
                }
                let sum: u64 = live.iter().sum();
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

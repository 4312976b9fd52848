//! Multi-Process Service (MPS) analogue: the spatial-sharing backend.
//!
//! The real MPS server multiplexes CUDA contexts from many processes onto
//! one GPU and caps each client's concurrently active SMs via the
//! `CUDA_MPS_ACTIVE_THREAD_PERCENTAGE` environment variable. This module
//! reproduces that management surface: a client registry with per-client
//! active-thread percentages, translated into SM caps the execution engine
//! ([`crate::GpuDevice`]) enforces.

use crate::spec::GpuSpec;
use fastg_des::snap::SnapError;
use fastg_des::{snap_enum, snap_struct};

/// Identifies an MPS client (one function-instance container / pod).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClientId(pub u32);

/// How the GPU is exposed to processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MpsMode {
    /// MPS server running: many clients share the GPU concurrently, each
    /// limited by its active-thread percentage. This is FaST-GShare's
    /// normal operating mode.
    Shared,
    /// No MPS; the device-plugin baseline. Exactly one client may register
    /// and it always receives the whole GPU.
    Exclusive,
}

/// Errors from MPS client management.
#[derive(Debug, Clone, PartialEq)]
pub enum MpsError {
    /// Exclusive mode already has its single client.
    ExclusiveBusy,
    /// The percentage is outside `(0, 100]`.
    BadPercentage(f64),
    /// The client id is not registered.
    UnknownClient(ClientId),
}

impl std::fmt::Display for MpsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpsError::ExclusiveBusy => {
                write!(f, "GPU is in exclusive mode and already has a client")
            }
            MpsError::BadPercentage(p) => {
                write!(f, "active-thread percentage {p} outside (0, 100]")
            }
            MpsError::UnknownClient(c) => write!(f, "unknown MPS client {c:?}"),
        }
    }
}

impl std::error::Error for MpsError {}

#[derive(Debug, Clone)]
struct ClientEntry {
    /// Active-thread percentage in `(0, 100]`.
    percentage: f64,
    /// SM cap derived from the percentage (never on the wire).
    sm_cap: u32,
}

/// The MPS server: client registry and spatial partition bookkeeping.
#[derive(Debug, Clone)]
pub struct MpsServer {
    mode: MpsMode,
    sm_count: u32,
    /// Registered clients in ascending id order, keyed by linear scan: a
    /// device hosts a handful of clients, and every fast-forward
    /// admission reads several caps, so a short `Vec` probe beats tree
    /// traversal (same rationale as the device's stream table).
    clients: Vec<(ClientId, ClientEntry)>,
    next_id: u32,
}

impl MpsServer {
    /// Creates a server for a GPU with the given spec.
    pub fn new(spec: &GpuSpec, mode: MpsMode) -> Self {
        MpsServer {
            mode,
            sm_count: spec.sm_count,
            clients: Vec::new(),
            next_id: 0,
        }
    }

    /// The sharing mode.
    pub fn mode(&self) -> MpsMode {
        self.mode
    }

    /// The SM count the caps are derived from.
    pub(crate) fn sm_count(&self) -> u32 {
        self.sm_count
    }

    /// Registers a new client with the given active-thread percentage
    /// (ignored — forced to 100 — in exclusive mode).
    pub fn register(&mut self, percentage: f64) -> Result<ClientId, MpsError> {
        if self.mode == MpsMode::Exclusive && !self.clients.is_empty() {
            return Err(MpsError::ExclusiveBusy);
        }
        let percentage = if self.mode == MpsMode::Exclusive {
            100.0
        } else {
            percentage
        };
        if !(percentage > 0.0 && percentage <= 100.0) {
            return Err(MpsError::BadPercentage(percentage));
        }
        let id = ClientId(self.next_id);
        self.next_id += 1;
        let sm_cap = sm_cap_for(self.sm_count, percentage);
        // Ids only grow, so pushing keeps the table in ascending order.
        self.clients.push((
            id,
            ClientEntry {
                percentage,
                sm_cap,
            },
        ));
        Ok(id)
    }

    fn entry(&self, id: ClientId) -> Result<&ClientEntry, MpsError> {
        self.clients
            .iter()
            .find(|(c, _)| *c == id)
            .map(|(_, e)| e)
            .ok_or(MpsError::UnknownClient(id))
    }

    /// Removes a client.
    pub fn unregister(&mut self, id: ClientId) -> Result<(), MpsError> {
        let i = self
            .clients
            .iter()
            .position(|(c, _)| *c == id)
            .ok_or(MpsError::UnknownClient(id))?;
        self.clients.remove(i);
        Ok(())
    }

    /// Changes a client's active-thread percentage.
    pub fn set_percentage(&mut self, id: ClientId, percentage: f64) -> Result<(), MpsError> {
        if !(percentage > 0.0 && percentage <= 100.0) {
            return Err(MpsError::BadPercentage(percentage));
        }
        let cap = sm_cap_for(self.sm_count, percentage);
        let (_, entry) = self
            .clients
            .iter_mut()
            .find(|(c, _)| *c == id)
            .ok_or(MpsError::UnknownClient(id))?;
        entry.percentage = percentage;
        entry.sm_cap = cap;
        Ok(())
    }

    /// The SM cap of a client.
    pub fn sm_cap(&self, id: ClientId) -> Result<u32, MpsError> {
        self.entry(id).map(|e| e.sm_cap)
    }

    /// The client at `index` of the ascending client order and its SM
    /// cap.
    pub(crate) fn cap_at(&self, index: usize) -> Option<(ClientId, u32)> {
        self.clients.get(index).map(|(id, e)| (*id, e.sm_cap))
    }

    /// Every client's SM cap, in ascending client order.
    pub(crate) fn caps(&self) -> impl Iterator<Item = (ClientId, u32)> + '_ {
        self.clients.iter().map(|(id, e)| (*id, e.sm_cap))
    }

    /// The active-thread percentage of a client.
    pub fn percentage(&self, id: ClientId) -> Result<f64, MpsError> {
        self.entry(id).map(|e| e.percentage)
    }

    /// Whether the client is registered.
    pub fn is_registered(&self, id: ClientId) -> bool {
        self.entry(id).is_ok()
    }

    /// Number of registered clients.
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// Ids of all registered clients, in ascending order.
    pub fn client_ids(&self) -> Vec<ClientId> {
        self.clients.iter().map(|(c, _)| *c).collect()
    }
}

/// The SM cap of `percentage` of `sm_count` SMs.
fn sm_cap_for(sm_count: u32, percentage: f64) -> u32 {
    // The rounded value is clamped into [1, sm_count] below.
    // fastg-lint: allow(no-lossy-cast)
    ((sm_count as f64 * percentage / 100.0).round() as u32)
        .max(1)
        .min(sm_count)
}

snap_struct!(ClientId(raw));

snap_enum!(MpsMode, "mps mode tag" { Shared = 0, Exclusive = 1 });

snap_struct!(ClientEntry { percentage } skip { sm_cap });

// Each cap is derived again from its percentage, which `register`
// keeps in (0, 100].
snap_struct!(MpsServer { mode, sm_count, clients, next_id } rebuild |s| {
    for (_, e) in &mut s.clients {
        SnapError::ensure(e.percentage > 0.0 && e.percentage <= 100.0, "mps client percentage")?;
        e.sm_cap = sm_cap_for(s.sm_count, e.percentage);
    }
    Ok(())
} check |s| {
    // Lookups assume the ascending id order `register` keeps.
    SnapError::ensure(s.clients.windows(2).all(|w| w[0].0 < w[1].0), "mps client order")?;
    SnapError::ensure(s.clients.iter().all(|(c, _)| c.0 < s.next_id), "mps client id space")
});

#[cfg(test)]
mod tests {
    use super::*;
    use fastg_des::snap::{Snap, SnapReader, SnapWriter};

    fn server(mode: MpsMode) -> MpsServer {
        MpsServer::new(&GpuSpec::v100(), mode)
    }

    /// Field edits a forged snapshot could make, for the device's tests.
    impl MpsServer {
        pub(crate) fn forge_sm_count(&mut self, sm_count: u32) {
            self.sm_count = sm_count;
        }

        pub(crate) fn forge_client(&mut self, index: usize, percentage: f64, sm_cap: u32) {
            self.clients[index].1 = ClientEntry { percentage, sm_cap };
        }
    }

    #[test]
    fn shared_mode_registers_many() {
        let mut s = server(MpsMode::Shared);
        let a = s.register(12.0).unwrap();
        let b = s.register(24.0).unwrap();
        assert_ne!(a, b);
        assert_eq!(s.sm_cap(a).unwrap(), 10);
        assert_eq!(s.sm_cap(b).unwrap(), 19);
        assert_eq!(s.client_count(), 2);
        let total: f64 = s.client_ids().iter().map(|&c| s.percentage(c).unwrap()).sum();
        assert!((total - 36.0).abs() < 1e-9);
    }

    #[test]
    fn exclusive_mode_allows_single_full_client() {
        let mut s = server(MpsMode::Exclusive);
        let a = s.register(12.0).unwrap(); // percentage overridden to 100
        assert_eq!(s.sm_cap(a).unwrap(), 80);
        assert_eq!(s.register(50.0), Err(MpsError::ExclusiveBusy));
        s.unregister(a).unwrap();
        assert!(s.register(100.0).is_ok());
    }

    #[test]
    fn percentage_validation() {
        let mut s = server(MpsMode::Shared);
        assert_eq!(s.register(0.0), Err(MpsError::BadPercentage(0.0)));
        assert_eq!(s.register(101.0), Err(MpsError::BadPercentage(101.0)));
        let a = s.register(50.0).unwrap();
        assert_eq!(s.set_percentage(a, -5.0), Err(MpsError::BadPercentage(-5.0)));
    }

    #[test]
    fn repartition_updates_cap() {
        let mut s = server(MpsMode::Shared);
        let a = s.register(50.0).unwrap();
        assert_eq!(s.sm_cap(a).unwrap(), 40);
        s.set_percentage(a, 6.0).unwrap();
        assert_eq!(s.sm_cap(a).unwrap(), 5);
        assert!((s.percentage(a).unwrap() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_client_errors() {
        let mut s = server(MpsMode::Shared);
        let ghost = ClientId(42);
        assert_eq!(s.sm_cap(ghost), Err(MpsError::UnknownClient(ghost)));
        assert_eq!(s.unregister(ghost), Err(MpsError::UnknownClient(ghost)));
        assert!(!s.is_registered(ghost));
    }

    #[test]
    fn tiny_partition_floors_at_one_sm() {
        let mut s = MpsServer::new(&GpuSpec::custom("mini", 4, 1 << 30), MpsMode::Shared);
        let a = s.register(1.0).unwrap();
        assert_eq!(s.sm_cap(a).unwrap(), 1);
    }

    #[test]
    fn snapshot_keeps_the_table_order_and_rejects_a_broken_one() {
        let mut s = server(MpsMode::Shared);
        let ids: Vec<_> = [10.0, 20.0, 30.0].iter().map(|&p| s.register(p).unwrap()).collect();
        s.unregister(ids[1]).unwrap();
        let mut w = SnapWriter::new();
        s.snap(&mut w);
        let bytes = w.finish();
        let back = MpsServer::unsnap(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(back.client_ids(), vec![ids[0], ids[2]]);
        assert_eq!(back.sm_cap(ids[2]), s.sm_cap(ids[2]));

        // The same table with its two clients swapped does not decode.
        let mut w = SnapWriter::new();
        MpsMode::Shared.snap(&mut w);
        w.u32(80);
        let entry = |id: ClientId| back.entry(id).unwrap().clone();
        vec![(ids[2], entry(ids[2])), (ids[0], entry(ids[0]))].snap(&mut w);
        w.u32(3);
        let bytes = w.finish();
        assert!(MpsServer::unsnap(&mut SnapReader::new(&bytes)).is_err());
    }
}

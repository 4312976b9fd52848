//! Versioned engine snapshots: the container format behind
//! [`Platform::checkpoint`](crate::platform::Platform::checkpoint),
//! [`Platform::restore`](crate::platform::Platform::restore) and
//! [`Platform::from_snapshot`](crate::platform::Platform::from_snapshot).
//! In-process forks do not go through bytes: they `Clone` the platform.
//!
//! A [`Snapshot`] is a self-describing byte buffer: an 8-byte header
//! (magic + format version, both little-endian `u32`s) followed by the
//! [`Snap`](fastg_des::snap::Snap)-encoded engine payload. The header
//! exists so snapshots persisted to disk (or held by a suspended
//! successive-halving trial) fail loudly — with a decode-site error, not
//! garbage state — when fed to an incompatible build.
//!
//! What the payload captures, in encode order:
//!
//! 1. the driver clock (`now`, delivered-event counter),
//! 2. the full engine state: resolved [`PlatformConfig`]
//!    (env-independent), one record per node (health, GPU with its MPS
//!    server, FaST Backend, model storage server), gateway queues,
//!    scheduler planes, the function table (queue timers included) and
//!    one record per pod, overload control plane, device fast-forward
//!    timelines, and metrics accumulators,
//! 3. the event queue: live entries with their tie-break keys and the
//!    sequence counter, so outstanding [`CancelToken`]s stay valid and
//!    the restored run pops events in exactly the original order.
//!
//! Not captured: recycling scratch buffers (restored empty — they are
//! performance state, not semantics) and function-pointer state (the
//! event classifier, reinstalled at restore). Restore-then-run is
//! byte-identical to straight-through execution: the two runs produce
//! equal [`PlatformReport::digest`](crate::platform::PlatformReport::digest)s.
//!
//! [`PlatformConfig`]: crate::platform::PlatformConfig
//! [`CancelToken`]: fastg_des::CancelToken

use fastg_des::snap::SnapError;

/// Identifies a byte buffer as a FaST-GShare engine snapshot
/// (`b"FGSN"` little-endian).
pub const SNAPSHOT_MAGIC: u32 = u32::from_le_bytes(*b"FGSN");

/// Current snapshot format version. Bumped whenever any `snap`/`unsnap`
/// encoding changes shape; old snapshots are rejected, never reinterpreted.
pub const SNAPSHOT_VERSION: u32 = 17;

/// Length of the `magic ‖ version` header preceding the payload.
const HEADER_LEN: usize = 8;

/// A sealed, versioned engine snapshot.
///
/// Immutable by construction: any number of platforms may be restored
/// from one snapshot (behind an `Arc` or a plain reference), each its
/// own private copy. Obtain one from
/// [`Platform::checkpoint`](crate::platform::Platform::checkpoint) or
/// [`Snapshot::from_bytes`]; the raw bytes round-trip through
/// [`Snapshot::as_bytes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    bytes: Vec<u8>,
}

impl Snapshot {
    /// Seals an encoded engine payload behind the versioned header.
    pub(crate) fn seal(payload: Vec<u8>) -> Self {
        let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
        bytes.extend_from_slice(&SNAPSHOT_MAGIC.to_le_bytes());
        bytes.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&payload);
        Snapshot { bytes }
    }

    /// Validates the header of `bytes` and returns the payload slice.
    fn checked_payload(bytes: &[u8]) -> Result<&[u8], SnapError> {
        let magic = bytes
            .get(..4)
            .and_then(|b| <[u8; 4]>::try_from(b).ok())
            .map(u32::from_le_bytes);
        if magic != Some(SNAPSHOT_MAGIC) {
            return Err(SnapError::new("snapshot magic"));
        }
        let version = bytes
            .get(4..HEADER_LEN)
            .and_then(|b| <[u8; 4]>::try_from(b).ok())
            .map(u32::from_le_bytes);
        if version != Some(SNAPSHOT_VERSION) {
            return Err(SnapError::new("snapshot version"));
        }
        bytes
            .get(HEADER_LEN..)
            .ok_or_else(|| SnapError::new("snapshot payload"))
    }

    /// The engine payload (header validated on every access, so a
    /// hand-built `Snapshot` can never smuggle a bad header past decode).
    pub(crate) fn payload(&self) -> Result<&[u8], SnapError> {
        Self::checked_payload(&self.bytes)
    }

    /// Adopts raw bytes (e.g. read back from disk) as a snapshot,
    /// validating the magic and version.
    // fastg-lint: allow(no-test-only-pub) — a checkpoint entry point for ROADMAP item 6's input tests
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, SnapError> {
        Self::checked_payload(&bytes)?;
        Ok(Snapshot { bytes })
    }

    /// The full encoded form: header plus payload.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Total encoded size in bytes (capacity-planning for sweeps that
    /// hold many snapshots at once).
    pub fn size_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// The format version stamped in this snapshot's header.
    // fastg-lint: allow(no-test-only-pub) — a checkpoint entry point for ROADMAP item 6's input tests
    pub fn version(&self) -> u32 {
        self.bytes
            .get(4..HEADER_LEN)
            .and_then(|b| <[u8; 4]>::try_from(b).ok())
            .map(u32::from_le_bytes)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_and_reopen_round_trips() {
        let snap = Snapshot::seal(vec![1, 2, 3]);
        assert_eq!(snap.version(), SNAPSHOT_VERSION);
        assert_eq!(snap.size_bytes(), HEADER_LEN + 3);
        assert_eq!(snap.payload().unwrap(), &[1, 2, 3]);
        let reopened = Snapshot::from_bytes(snap.as_bytes().to_vec()).unwrap();
        assert_eq!(reopened, snap);
    }

    #[test]
    fn empty_payload_is_valid() {
        let snap = Snapshot::seal(Vec::new());
        assert_eq!(snap.payload().unwrap(), &[] as &[u8]);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = Snapshot::seal(vec![7]).as_bytes().to_vec();
        bytes[0] ^= 0xff;
        let err = Snapshot::from_bytes(bytes).unwrap_err();
        assert_eq!(err.what, "snapshot magic");
    }

    #[test]
    fn wrong_version_rejected() {
        let mut bytes = Snapshot::seal(vec![7]).as_bytes().to_vec();
        bytes[4] = bytes[4].wrapping_add(1);
        let err = Snapshot::from_bytes(bytes).unwrap_err();
        assert_eq!(err.what, "snapshot version");
    }

    #[test]
    fn truncated_header_rejected() {
        assert!(Snapshot::from_bytes(vec![b'F', b'G']).is_err());
        assert!(Snapshot::from_bytes(SNAPSHOT_MAGIC.to_le_bytes().to_vec()).is_err());
    }
}

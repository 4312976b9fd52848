//! The GPU sharing policies compared in the paper's evaluation.

use fastg_des::snap_enum;

/// How a node's GPU is shared among function pods.
///
/// These are the four mechanisms §5 compares:
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharingPolicy {
    /// Kubernetes device plugin: one pod owns the whole GPU (Figure 1a).
    /// No MPS, no tokens.
    Exclusive,
    /// Time sharing à la Gemini/KubeShare (Figure 1b and the "time
    /// sharing" comparator throughout §5): quota-managed, but at most one
    /// pod holds the token at a time and every pod runs un-partitioned
    /// (100 % SMs). The GPU idles during the holder's host-side gaps,
    /// which caps aggregate throughput at a single racing pod's.
    SingleToken,
    /// MPS over-subscription without temporal control ("racing" in §5.3):
    /// every pod launches whenever it likes, kernels contend for SMs.
    Racing,
    /// FaST-GShare: multi-token temporal scheduling + MPS spatial
    /// partitions, coordinated by the SM Allocation Adapter.
    FaST,
}

impl SharingPolicy {
    /// Whether pods under this policy go through the token protocol.
    pub fn uses_tokens(self) -> bool {
        matches!(self, SharingPolicy::SingleToken | SharingPolicy::FaST)
    }

    /// Whether MPS spatial partitions are honoured (otherwise every pod is
    /// registered at 100 % active threads).
    pub fn uses_partitions(self) -> bool {
        matches!(self, SharingPolicy::FaST | SharingPolicy::Racing)
    }

    /// The SM share the allocation adapter charges for a pod with spec
    /// partition `sm_partition`: under `SingleToken` every holder is
    /// charged the full GPU, which reduces the multi-token scheduler to
    /// exactly one token in flight.
    pub fn adapter_share(self, sm_partition: f64) -> f64 {
        match self {
            SharingPolicy::SingleToken => 100.0,
            _ => sm_partition,
        }
    }
}

impl std::fmt::Display for SharingPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SharingPolicy::Exclusive => "exclusive",
            SharingPolicy::SingleToken => "time-sharing",
            SharingPolicy::Racing => "racing",
            SharingPolicy::FaST => "fast-gshare",
        };
        f.write_str(s)
    }
}

/// Which placement engine drives node selection and rectangle packing.
/// The paper's Algorithm 2 is the only one; the type stays so configs can
/// name it explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SchedPolicy {
    /// The paper's Algorithm 1/2 over maximal rectangles (`GpuRects`).
    Paper,
}

snap_enum!(SharingPolicy, "sharing policy tag" { Exclusive = 0, SingleToken = 1, Racing = 2, FaST = 3 });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_and_partition_matrix() {
        assert!(!SharingPolicy::Exclusive.uses_tokens());
        assert!(SharingPolicy::SingleToken.uses_tokens());
        assert!(!SharingPolicy::Racing.uses_tokens());
        assert!(SharingPolicy::FaST.uses_tokens());

        assert!(!SharingPolicy::Exclusive.uses_partitions());
        assert!(!SharingPolicy::SingleToken.uses_partitions());
        assert!(SharingPolicy::Racing.uses_partitions());
        assert!(SharingPolicy::FaST.uses_partitions());
    }

    #[test]
    fn single_token_charges_full_gpu() {
        assert_eq!(SharingPolicy::SingleToken.adapter_share(12.0), 100.0);
        assert_eq!(SharingPolicy::FaST.adapter_share(12.0), 12.0);
    }

    #[test]
    fn display_names() {
        assert_eq!(SharingPolicy::FaST.to_string(), "fast-gshare");
        assert_eq!(SharingPolicy::SingleToken.to_string(), "time-sharing");
    }
}

//! Deterministic fault-injection plans.
//!
//! Chaos testing for the simulated cluster: a [`FaultPlan`] is a fixed
//! schedule of failures decided *before* the run starts. Each entry is
//! injected through the discrete-event queue (as an engine `Fault` event),
//! so a run with a given plan and seed is reproducible event-for-event —
//! replaying the same configuration yields the same report, byte for byte.
//!
//! Targets are *indices*, not ids: `node_index` / `func_index` are resolved
//! modulo the number of nodes / deployed functions at injection time. This
//! keeps plans portable across topologies (and keeps the plan independent
//! of id-assignment order), at the cost of a plan never being able to miss:
//! a fault always hits *something* as long as the cluster is non-empty.

use fastg_des::snap::SnapError;
use fastg_des::{snap_enum, snap_struct, SimTime};
use fastg_gpu::{clamp_clock_scale, MAX_CLOCK_SCALE};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The kind of failure to inject.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Kill one running replica of a function (the container OOM / segfault
    /// analogue). The victim is the function's lowest-numbered running pod;
    /// launched kernels drain before teardown (zombie-pod semantics).
    PodCrash {
        /// Index into deploy order, taken modulo the number of deployed
        /// functions at injection time.
        func_index: usize,
    },
    /// Power-fail a node: every pod on it dies immediately, in-flight
    /// kernels abort, the MPS server and rectangle bindings are torn down
    /// and device memory returns. Node crashes are permanent for the run.
    NodeCrash {
        /// Index into the node list, taken modulo the number of nodes.
        node_index: usize,
    },
    /// Degrade a node (thermal-throttling analogue): kernels *started*
    /// there from now on take `factor ×` their nominal duration.
    NodeDegrade {
        /// Index into the node list, taken modulo the number of nodes.
        node_index: usize,
        /// Kernel-duration multiplier, > 1.0 for a slowdown. A plan
        /// clamps it as the device does ([`clamp_clock_scale`]), and a
        /// snapshot holding a value outside `(0, MAX_CLOCK_SCALE]` does
        /// not decode.
        factor: f64,
    },
    /// Restore a degraded node to full clock speed.
    NodeRecover {
        /// Index into the node list, taken modulo the number of nodes.
        node_index: usize,
    },
}

/// One scheduled failure: a [`FaultKind`] at an absolute simulation time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Injection time.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic schedule of failures for one run.
///
/// ```
/// use fastgshare::platform::{FaultKind, FaultPlan};
/// use fastg_des::SimTime;
///
/// let plan = FaultPlan::new()
///     .at(SimTime::from_secs(30), FaultKind::NodeCrash { node_index: 0 })
///     .at(SimTime::from_secs(10), FaultKind::PodCrash { func_index: 0 });
/// assert_eq!(plan.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a fault at `at` (builder style). Entries may be added in any
    /// order; the event queue delivers them in time order. A degrade
    /// factor is stored as the device will apply it
    /// ([`clamp_clock_scale`]), so every plan survives a snapshot.
    pub fn at(mut self, at: SimTime, kind: FaultKind) -> Self {
        let kind = match kind {
            FaultKind::NodeDegrade { node_index, factor } => FaultKind::NodeDegrade {
                node_index,
                factor: clamp_clock_scale(factor),
            },
            other => other,
        };
        self.events.push(FaultEvent { at, kind });
        self
    }

    /// The scheduled faults, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Generates a seeded random plan of `n` faults over `(0, horizon)`.
    ///
    /// The mix leans toward survivable faults — pod crashes and degrade /
    /// recover cycles — with an occasional node crash, so that a random
    /// plan exercises the recovery controller without reliably killing the
    /// whole cluster. Identical `(seed, n, horizon)` always produce the
    /// identical plan.
    pub fn random(seed: u64, n: usize, horizon: SimTime) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xFA57_6A5E);
        let mut events = Vec::with_capacity(n);
        let span = horizon.as_micros().max(2);
        for _ in 0..n {
            let at = SimTime::from_micros(rng.gen_range(1..span));
            let roll: f64 = rng.gen_range(0.0..1.0);
            let target = rng.gen_range(0usize..64);
            let kind = if roll < 0.45 {
                FaultKind::PodCrash { func_index: target }
            } else if roll < 0.60 {
                FaultKind::NodeCrash { node_index: target }
            } else if roll < 0.85 {
                FaultKind::NodeDegrade {
                    node_index: target,
                    factor: rng.gen_range(1.25..4.0),
                }
            } else {
                FaultKind::NodeRecover { node_index: target }
            };
            events.push(FaultEvent { at, kind });
        }
        FaultPlan { events }
    }
}

snap_enum!(FaultKind, "fault kind tag" {
    PodCrash { func_index } = 0,
    NodeCrash { node_index } = 1,
    NodeDegrade { node_index, factor } = 2,
    NodeRecover { node_index } = 3,
} check |k| {
    match k {
        FaultKind::NodeDegrade { node_index: _, factor }
            if !(*factor > 0.0 && *factor <= MAX_CLOCK_SCALE) =>
        {
            Err(SnapError::new("fault degrade factor"))
        }
        _ => Ok(()),
    }
});

snap_struct!(FaultEvent { at, kind });

snap_struct!(FaultPlan { events });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_keeps_entries() {
        let plan = FaultPlan::new()
            .at(SimTime::from_secs(1), FaultKind::PodCrash { func_index: 2 })
            .at(
                SimTime::from_secs(2),
                FaultKind::NodeDegrade {
                    node_index: 1,
                    factor: 2.0,
                },
            );
        assert_eq!(plan.len(), 2);
        assert!(!plan.is_empty());
        assert_eq!(plan.events()[0].at, SimTime::from_secs(1));
    }

    #[test]
    fn degrade_factors_are_clamped_in_plans_and_bounded_on_decode() {
        use fastg_des::snap::{Snap, SnapReader, SnapWriter};
        let degrade = |factor| FaultKind::NodeDegrade {
            node_index: 0,
            factor,
        };
        let decode = |kind: FaultKind| {
            let mut w = SnapWriter::new();
            kind.snap(&mut w);
            let bytes = w.finish();
            FaultKind::unsnap(&mut SnapReader::new(&bytes))
        };
        for factor in [0.5, 2.0, MAX_CLOCK_SCALE] {
            assert_eq!(decode(degrade(factor)), Ok(degrade(factor)));
        }
        let outside = [
            MAX_CLOCK_SCALE * 2.0,
            1e30,
            f64::INFINITY,
            0.0,
            -1.0,
            f64::NAN,
        ];
        for factor in outside {
            assert_eq!(
                decode(degrade(factor)),
                Err(SnapError::new("fault degrade factor")),
                "factor {factor}"
            );
        }
        let plan = FaultPlan::new()
            .at(SimTime::from_secs(1), degrade(1e30))
            .at(SimTime::from_secs(2), degrade(-3.0));
        let factors: Vec<_> = plan.events().iter().map(|e| e.kind).collect();
        assert_eq!(factors, [degrade(MAX_CLOCK_SCALE), degrade(1.0)]);
    }

    #[test]
    fn random_plans_are_deterministic() {
        let a = FaultPlan::random(7, 20, SimTime::from_secs(60));
        let b = FaultPlan::random(7, 20, SimTime::from_secs(60));
        assert_eq!(a, b);
        assert_eq!(a.len(), 20);
        let c = FaultPlan::random(8, 20, SimTime::from_secs(60));
        assert_ne!(a, c, "different seeds should differ");
        for e in a.events() {
            assert!(e.at > SimTime::ZERO && e.at < SimTime::from_secs(60));
            if let FaultKind::NodeDegrade { factor, .. } = e.kind {
                assert!(factor > 1.0);
            }
        }
    }
}

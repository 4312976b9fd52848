//! Model-based property testing of the whole platform: random operation
//! sequences (deploy, scale, kill, run, load changes) must never violate
//! the global invariants — request conservation, memory conservation,
//! replica consistency, determinism — nor any rule of the invariant
//! catalogue, which decoding a checkpoint runs.

use fastg_des::SimTime;
use fastg_workload::ArrivalProcess;
use fastgshare::manager::SharingPolicy;
use fastgshare::platform::{
    FaultKind, FaultPlan, FunctionConfig, Platform, PlatformConfig, TieBreak,
};
use proptest::prelude::*;

/// One step of the operation alphabet.
#[derive(Debug, Clone, Copy)]
enum OpKind {
    Run(u16),
    ScaleResnet(u8),
    ScaleRnnt(u8),
    KillOne(u8),
    LoadResnet(u8),
}

fn arb_op() -> impl Strategy<Value = OpKind> {
    prop_oneof![
        (50u16..800).prop_map(OpKind::Run),
        (1u8..6).prop_map(OpKind::ScaleResnet),
        (1u8..4).prop_map(OpKind::ScaleRnnt),
        any::<u8>().prop_map(OpKind::KillOne),
        (0u8..120).prop_map(OpKind::LoadResnet),
    ]
}

/// Decodes the platform's checkpoint, which runs the whole invariant
/// catalogue over its state; `checkpoint` takes `&self`, so the run goes
/// on as it would have.
fn assert_catalogue_holds(p: &Platform) {
    if let Err(e) = Platform::from_snapshot(&p.checkpoint()) {
        panic!("the catalogue refused the state at {:?}: {}", p.now(), e.what);
    }
}

fn drive(ops: &[OpKind], seed: u64) -> (u64, Vec<(u64, u64)>, u64) {
    let mut p = Platform::new(
        PlatformConfig::default()
            .nodes(2)
            .policy(SharingPolicy::FaST)
            .oversubscribe(true)
            .seed(seed),
    );
    let resnet = p
        .deploy(
            FunctionConfig::new("resnet", "resnet50")
                .replicas(2)
                .resources(12.0, 0.5, 1.0),
        )
        .unwrap();
    let rnnt = p
        .deploy(
            FunctionConfig::new("rnnt", "rnnt")
                .replicas(1)
                .resources(24.0, 0.5, 1.0),
        )
        .unwrap();
    p.set_load(resnet, ArrivalProcess::poisson(40.0, seed));
    p.set_load(rnnt, ArrivalProcess::poisson(5.0, seed + 1));
    let mut killed = 0u64;
    for &op in ops {
        match op {
            OpKind::Run(ms) => {
                p.run_for(SimTime::from_millis(ms as u64));
                assert_catalogue_holds(&p);
            }
            OpKind::ScaleResnet(n) => p.scale_to(resnet, n as usize),
            OpKind::ScaleRnnt(n) => p.scale_to(rnnt, n as usize),
            OpKind::KillOne(pick) => {
                let pods = p.pods_of(resnet);
                if !pods.is_empty() {
                    killed += u64::from(p.kill_pod(pods[pick as usize % pods.len()]));
                }
            }
            OpKind::LoadResnet(r) => {
                p.set_load(resnet, ArrivalProcess::poisson(r as f64, seed + 2));
            }
        }
    }
    // Quiesce: stop load, restore capacity, let everything drain.
    p.set_load(resnet, ArrivalProcess::constant(0.0));
    p.set_load(rnnt, ArrivalProcess::constant(0.0));
    p.scale_to(resnet, 2);
    p.scale_to(rnnt, 1);
    let report = p.run_for(SimTime::from_secs(8));
    assert_catalogue_holds(&p);
    let per_func: Vec<(u64, u64)> = report
        .functions
        .values()
        .map(|f| (f.arrivals, f.completed))
        .collect();
    (p.events_handled(), per_func, killed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation: after quiescing, every request that ever arrived has
    /// completed — scaling churn and crashes lose nothing.
    #[test]
    fn no_request_is_ever_lost(ops in prop::collection::vec(arb_op(), 1..16)) {
        let (_, per_func, _) = drive(&ops, 7);
        for (arrived, completed) in per_func {
            prop_assert_eq!(
                arrived, completed,
                "requests lost after quiesce: {} arrived, {} completed",
                arrived, completed
            );
        }
    }

    /// Determinism: the same op sequence replays to the same fingerprint.
    #[test]
    fn op_sequences_are_deterministic(ops in prop::collection::vec(arb_op(), 1..12)) {
        prop_assert_eq!(drive(&ops, 11), drive(&ops, 11));
    }
}

/// A random platform grid for fast-forward parity: sharing policy, node
/// count, partition size, replica count, load and mid-run perturbations
/// all drawn at random, so the coalescing layer is exercised across
/// capped and over-subscribed regimes, invalidation paths included.
#[derive(Debug, Clone, Copy)]
struct FfGrid {
    /// FaST and time sharing coalesce the token holders; Racing lets
    /// every replica launch at once, so replicas activating past the SM
    /// budget break live timelines.
    policy: SharingPolicy,
    nodes: usize,
    replicas: usize,
    /// Index into the partition menu (12 %–75 %): small values keep the
    /// device in the capped regime, large ones push it out of it once
    /// several replicas share a node (two racing 75 % replicas need 120
    /// SMs).
    sm_idx: usize,
    rate: f64,
    seed: u64,
    /// Kill one pod at the 1 s mark (mid-burst invalidation).
    kill: bool,
    /// Repartition the function at the 1 s mark (regime change).
    repartition: bool,
    /// Inject the clock-degrade/node-crash chaos plan.
    chaos: bool,
}

const SM_MENU: [f64; 5] = [12.0, 24.0, 25.0, 50.0, 75.0];

const POLICIES: [SharingPolicy; 3] = [
    SharingPolicy::FaST,
    SharingPolicy::Racing,
    SharingPolicy::SingleToken,
];

fn arb_ff_grid() -> impl Strategy<Value = FfGrid> {
    (
        (0usize..POLICIES.len(), 1usize..3),
        1usize..5,
        0usize..SM_MENU.len(),
        5u32..70,
        0u64..1000,
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |((policy, nodes), replicas, sm_idx, rate, seed, kill, repartition, chaos)| FfGrid {
                policy: POLICIES[policy],
                nodes,
                replicas,
                sm_idx,
                rate: f64::from(rate),
                seed,
                kill,
                repartition,
                chaos,
            },
        )
}

/// Runs one grid point with fast-forward forced on or off (and a chosen
/// same-instant tie-break order) and returns the canonical report text
/// (every counter and float bit pattern) plus how many bursts were
/// coalesced.
fn ff_grid_run(g: FfGrid, fastforward: bool, tiebreak: TieBreak) -> (String, u64) {
    let mut cfg = PlatformConfig::default()
        .nodes(g.nodes)
        .policy(g.policy)
        .oversubscribe(true)
        .seed(g.seed)
        .fastforward(fastforward)
        .tiebreak(tiebreak);
    if g.chaos {
        cfg = cfg.fault_plan(
            FaultPlan::new()
                .at(
                    SimTime::from_millis(700),
                    FaultKind::NodeDegrade {
                        node_index: 0,
                        factor: 1.5,
                    },
                )
                .at(
                    SimTime::from_millis(1400),
                    FaultKind::NodeRecover { node_index: 0 },
                ),
        );
    }
    let mut p = Platform::new(cfg);
    let f = p
        .deploy(
            FunctionConfig::new("resnet", "resnet50")
                .replicas(g.replicas)
                .resources(SM_MENU[g.sm_idx], 0.5, 1.0),
        )
        .unwrap();
    p.set_load(f, ArrivalProcess::poisson(g.rate, g.seed.wrapping_add(1)));
    p.run_for(SimTime::from_secs(1));
    if g.kill {
        if let Some(&victim) = p.pods_of(f).first() {
            p.kill_pod(victim);
        }
    }
    if g.repartition {
        let next = SM_MENU[(g.sm_idx + 1) % SM_MENU.len()];
        let _ = p.reconfigure(f, next, 0.5, 1.0);
    }
    let report = p.run_for(SimTime::from_millis(1500));
    (report.canonical_text(), p.ff_bursts())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Fast-forward digest parity over random grids: whatever the regime,
    /// load or mid-run perturbation, coalescing must never change a byte
    /// of the report.
    #[test]
    fn fastforward_parity_on_random_grids(g in arb_ff_grid()) {
        let (on, _) = ff_grid_run(g, true, TieBreak::Fifo);
        let (off, coalesced) = ff_grid_run(g, false, TieBreak::Fifo);
        prop_assert_eq!(coalesced, 0, "disabled fast-forward must not coalesce");
        prop_assert_eq!(on, off, "fast-forward parity broke on {:?}", g);
    }

    /// Tie-break independence over the same random grids: a seeded
    /// shuffle of same-instant delivery order must reproduce the FIFO
    /// report byte-for-byte — kills, repartitions and chaos included,
    /// fast-forward on or off. Any difference is a delivery-order race
    /// (see `race_detector` for the delta-debugging version).
    #[test]
    fn tiebreak_parity_on_random_grids(
        g in arb_ff_grid(),
        ff in any::<bool>(),
        shuffle_seed in 1u64..1_000_000,
    ) {
        let (fifo, _) = ff_grid_run(g, ff, TieBreak::Fifo);
        let (shuffled, _) = ff_grid_run(g, ff, TieBreak::SeededShuffle(shuffle_seed));
        prop_assert_eq!(fifo, shuffled, "tie-break shuffle changed the report on {:?}", g);
    }
}

/// Memory conservation after a full teardown, checked once with a fixed
/// churn (cheaper than a proptest but the strongest leak check).
#[test]
fn memory_fully_reclaimed_after_teardown() {
    let mut p = Platform::new(
        PlatformConfig::default()
            .nodes(2)
            .oversubscribe(true)
            .seed(3),
    );
    let f = p
        .deploy(
            FunctionConfig::new("f", "vit_huge")
                .replicas(2)
                .resources(50.0, 0.5, 1.0),
        )
        .unwrap();
    p.set_load(f, ArrivalProcess::poisson(3.0, 4));
    for i in 0..6 {
        p.run_for(SimTime::from_millis(700));
        let pods = p.pods_of(f);
        if !pods.is_empty() {
            p.kill_pod(pods[i % pods.len()]);
        }
        p.scale_to(f, 2 + (i % 2));
    }
    p.set_load(f, ArrivalProcess::constant(0.0));
    p.scale_to(f, 0);
    p.run_for(SimTime::from_secs(5));
    assert_eq!(p.replicas(f), 0);
    assert_eq!(p.node_memory_used(0), 0, "node 0 leaked");
    assert_eq!(p.node_memory_used(1), 0, "node 1 leaked");
}

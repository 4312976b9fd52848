//! Checkpoint/restore digest parity: suspending a platform at an instant
//! T and resuming from the snapshot must reproduce the straight-through
//! run byte-for-byte — chaos plans, overload control, fast-forward and
//! every same-instant tie-break order included.
//!
//! These are the correctness bars the prefix-shared sweep and the
//! checkpoint-forking search lean on: if any of them breaks, warm-resume
//! is silently diverging from the reference simulation.

use fastg_des::SimTime;
use fastg_workload::ArrivalProcess;
use fastgshare::manager::SharingPolicy;
use fastgshare::paper;
use fastgshare::platform::{
    FaultKind, FaultPlan, FunctionConfig, Platform, PlatformConfig, Snapshot, TieBreak,
    SNAPSHOT_VERSION,
};
use proptest::prelude::*;

/// The four canonical same-instant delivery orders (the `race_detector`
/// matrix).
const TIEBREAKS: [TieBreak; 4] = [
    TieBreak::Fifo,
    TieBreak::Lifo,
    TieBreak::SeededShuffle(1),
    TieBreak::SeededShuffle(2),
];

/// The standard chaos plan: pod crash, clock degrade, node crash, node
/// recover — one event per second, so any checkpoint instant in (0, 5 s)
/// lands between two pending faults.
fn chaos_plan() -> FaultPlan {
    FaultPlan::new()
        .at(SimTime::from_secs(1), FaultKind::PodCrash { func_index: 0 })
        .at(
            SimTime::from_secs(2),
            FaultKind::NodeDegrade {
                node_index: 1,
                factor: 2.0,
            },
        )
        .at(SimTime::from_secs(3), FaultKind::NodeCrash { node_index: 0 })
        .at(SimTime::from_secs(4), FaultKind::NodeRecover { node_index: 1 })
}

/// The fleet-shaped scenario from `determinism.rs`: three single-replica
/// constant-rate functions on three nodes, chaos plan armed, fast-forward
/// on, under a chosen tie-break order.
fn fleet_platform(tiebreak: TieBreak, overload: bool) -> Platform {
    let mut p = Platform::new(
        PlatformConfig::default()
            .nodes(3)
            .policy(SharingPolicy::FaST)
            .oversubscribe(true)
            .recovery(true)
            .seed(23)
            .fastforward(true)
            .overload_control(overload)
            .tiebreak(tiebreak)
            .fault_plan(chaos_plan()),
    );
    for (i, (model, rate)) in [("resnet50", 18.0), ("bert_base", 30.0), ("rnnt", 9.0)]
        .iter()
        .enumerate()
    {
        let f = p
            .deploy(
                FunctionConfig::new(&format!("fleet-{i}"), model)
                    .replicas(1)
                    .resources(100.0, 1.0, 1.0),
            )
            .unwrap();
        p.set_load(f, ArrivalProcess::constant(*rate));
    }
    p
}

/// Splits a 6 s run at `at`: the straight-through reference runs both
/// halves on one platform; the resumed run checkpoints at the split,
/// drops the live platform, restores from the snapshot and runs the
/// second half. Returns each second-half report's canonical text plus
/// the final event counter of both runs.
fn split_run(
    mut straight: Platform,
    mut twin: Platform,
    at: SimTime,
    total: SimTime,
) -> ((String, u64), (String, u64)) {
    let rest = total.saturating_sub(at);

    straight.run_for(at);
    let handled_at_split = straight.events_handled();
    let s_report = straight.run_for(rest);
    let s = (s_report.canonical_text(), straight.events_handled());

    twin.run_for(at);
    let snapshot = twin.checkpoint();
    drop(twin);
    let mut resumed = Platform::from_snapshot(&snapshot).unwrap();
    assert_eq!(
        resumed.events_handled(),
        handled_at_split,
        "restore must resume the event counter where the snapshot left it"
    );
    assert_eq!(resumed.now(), at, "restore must resume the clock at the split");
    let r_report = resumed.run_for(rest);
    let r = (r_report.canonical_text(), resumed.events_handled());
    (s, r)
}

/// Checkpoint-at-T ≡ straight-through on the chaotic fleet, under all
/// four tie-break orders.
#[test]
fn fleet_checkpoint_parity_across_tiebreak_orders() {
    for tb in TIEBREAKS {
        let (s, r) = split_run(
            fleet_platform(tb, false),
            fleet_platform(tb, false),
            SimTime::from_millis(2500),
            SimTime::from_secs(6),
        );
        assert_eq!(s.0, r.0, "resume diverged from straight-through under {tb:?}");
        assert_eq!(s.1, r.1, "event counts diverged under {tb:?}");
    }
}

/// The same fleet with the overload control plane armed: admission
/// queues, EWMA estimators and breaker windows all ride the snapshot.
#[test]
fn overloaded_fleet_checkpoint_parity_across_tiebreak_orders() {
    for tb in TIEBREAKS {
        let (s, r) = split_run(
            fleet_platform(tb, true),
            fleet_platform(tb, true),
            SimTime::from_millis(2500),
            SimTime::from_secs(6),
        );
        assert_eq!(s.0, r.0, "overloaded resume diverged under {tb:?}");
        assert_eq!(s.1, r.1, "overloaded event counts diverged under {tb:?}");
    }
}

/// Checkpoint instants swept across the chaos timeline: before the first
/// fault, between every pair of faults, and after the last — each split
/// must be digest-exact, with pending fault events riding the snapshot.
#[test]
fn checkpoint_at_every_chaos_phase_is_digest_exact() {
    for at_ms in [500u64, 1500, 3500, 5500] {
        let (s, r) = split_run(
            fleet_platform(TieBreak::Fifo, false),
            fleet_platform(TieBreak::Fifo, false),
            SimTime::from_millis(at_ms),
            SimTime::from_secs(6),
        );
        assert_eq!(s.0, r.0, "resume diverged when split at {at_ms} ms");
        assert_eq!(s.1, r.1, "event counts diverged when split at {at_ms} ms");
    }
}

/// The flash-crowd overload scenario under chaos (the
/// `flash_crowd_chaos_digest` fixture of `determinism.rs`): checkpointing
/// mid-crowd, while shedding and breaker state are live, resumes
/// byte-identically.
fn flash_crowd_chaos_platform(tiebreak: TieBreak) -> Platform {
    let mut p = Platform::new(
        PlatformConfig::default()
            .nodes(2)
            .policy(SharingPolicy::FaST)
            .recovery(true)
            .seed(17)
            .fastforward(true)
            .overload_control(true)
            .tiebreak(tiebreak)
            .fault_plan(chaos_plan()),
    );
    let f = p
        .deploy(
            FunctionConfig::new("flash", "resnet50")
                .slo_ms(200)
                .replicas(2)
                .resources(50.0, 0.5, 0.8),
        )
        .unwrap();
    p.set_load(
        f,
        fastg_workload::patterns::flash_crowd(
            30.0,
            400.0,
            SimTime::from_secs(1),
            SimTime::from_millis(500),
            SimTime::from_secs(2),
            SimTime::from_secs(6),
            1,
            19,
        ),
    );
    p
}

#[test]
fn flash_crowd_checkpoint_parity_across_tiebreak_orders() {
    for tb in TIEBREAKS {
        // 2.5 s is inside the crowd plateau: shedding, brownout and
        // breaker state are all live at the split.
        let (s, r) = split_run(
            flash_crowd_chaos_platform(tb),
            flash_crowd_chaos_platform(tb),
            SimTime::from_millis(2500),
            SimTime::from_secs(6),
        );
        assert_eq!(s.0, r.0, "flash-crowd resume diverged under {tb:?}");
        assert_eq!(s.1, r.1, "flash-crowd event counts diverged under {tb:?}");
    }
}

/// Runs Figure 12 (`paper::fig12`, seed 121) in its twelve 5 s intervals,
/// splitting the one that ends at 45 s at 42.5 s and handing the platform
/// to `resume` there. Returns each interval's replica count and the final
/// report digest. A report flushes a metric sample, so the split itself
/// is part of the digest.
fn fig12_split_at_42_5s(resume: fn(Platform) -> Platform) -> (Vec<usize>, u64) {
    let (mut p, f) = paper::fig12(121).unwrap();
    let mut replicas = Vec::new();
    for end_s in (5..=60).step_by(5) {
        let mut rest = SimTime::from_secs(5);
        if end_s == 45 {
            p.run_for(SimTime::from_millis(2_500));
            rest = SimTime::from_millis(2_500);
            p = resume(p);
        }
        replicas.push(p.run_for(rest).functions[&f].replicas);
    }
    (replicas, p.report().digest())
}

/// Figure 12's autoscaled run checkpointed at 42.5 s, while the scaler's
/// 4 s prediction window straddles the 130 → 40 req/s step, and resumed
/// through bytes and by `Clone`. Every interval's replica count and the
/// final report digest equal the straight run's, whose digest is pinned
/// and whose replicas are the figure's.
#[test]
fn autoscaled_checkpoint_inside_the_fig12_step_is_exact() {
    let straight = fig12_split_at_42_5s(|p| p);
    assert_eq!(straight.1, 0x545c_6635_d5ef_2402, "Figure 12's straight run moved");
    let (intervals, _) = paper::run_fig12(121).unwrap();
    assert_eq!(straight.0, intervals.iter().map(|i| i.replicas).collect::<Vec<_>>());
    let by_bytes = fig12_split_at_42_5s(|p| {
        let shipped = Snapshot::from_bytes(p.checkpoint().as_bytes().to_vec()).unwrap();
        Platform::from_snapshot(&shipped).unwrap()
    });
    assert_eq!(by_bytes, straight, "resumed by bytes");
    let by_clone = fig12_split_at_42_5s(|p| p.clone());
    assert_eq!(by_clone, straight, "resumed by Clone");
}

/// Snapshots survive serialization: shipping the bytes through
/// `as_bytes` → `Snapshot::from_bytes` (the cross-process path) restores
/// the same run as the in-memory snapshot.
#[test]
fn snapshot_round_trips_through_raw_bytes() {
    let mut p = fleet_platform(TieBreak::Fifo, false);
    p.run_for(SimTime::from_secs(3));
    let snapshot = p.checkpoint();

    let mut direct = Platform::from_snapshot(&snapshot).unwrap();
    let shipped = Snapshot::from_bytes(snapshot.as_bytes().to_vec()).unwrap();
    let mut revived = Platform::from_snapshot(&shipped).unwrap();

    let a = direct.run_for(SimTime::from_secs(3));
    let b = revived.run_for(SimTime::from_secs(3));
    assert_eq!(a.canonical_text(), b.canonical_text());
    assert_eq!(a.digest(), b.digest());
}

/// FNV-1a, 64-bit: a fixed, dependency-free hash of snapshot bytes.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The wire format is pinned: the length and hash of two mid-run
/// snapshots are fixed for this `SNAPSHOT_VERSION`. Any codec change that
/// moves a byte must bump the version and re-pin these figures. Version 9
/// stores each latency histogram's occupied bucket range instead of all
/// 512 buckets, and each function's completion and goodput meters as
/// fixed-size warm-up counters instead of timestamp runs: both snapshots
/// shrink, the fleet one by half. Two rows follow the chaos plan's node
/// crash at 3 s (a run delivers the events at its deadline), so the
/// crashed node's rebuilt backend and model store are pinned too.
#[test]
fn snapshot_bytes_are_pinned() {
    assert_eq!(SNAPSHOT_VERSION, 11, "bump SNAPSHOT_VERSION and re-pin");
    let mut flash = flash_crowd_chaos_platform(TieBreak::Fifo);
    flash.run_for(SimTime::from_millis(2500));
    let mut fleet = fleet_platform(TieBreak::Fifo, true);
    fleet.run_for(SimTime::from_secs(3));
    let mut crashed = flash_crowd_chaos_platform(TieBreak::Fifo);
    crashed.run_for(SimTime::from_millis(4500));
    assert!(!fleet.node_up(0) && !crashed.node_up(0), "node 0 crashed at 3 s");
    for (name, p, len, hash) in [
        ("flash crowd", flash, 10_475, 0xe701_2d11_33b2_6f19),
        ("fleet", fleet, 9_031, 0x09fc_b88a_828f_80f6),
        ("flash crowd after the node crash", crashed, 15_530, 0x6378_4480_e29a_6c3a),
    ] {
        let snapshot = p.checkpoint();
        let bytes = snapshot.as_bytes();
        assert_eq!(
            (bytes.len(), fnv1a64(bytes)),
            (len, hash),
            "{name} snapshot bytes moved: bump SNAPSHOT_VERSION and re-pin"
        );
    }
}

/// A dispatch pass owed across a checkpoint. Killing a token holder
/// between `run_for` calls releases its SM share while another pod on its
/// node waits for a token, so the node owes a pass at the split instant
/// that has not run yet. The snapshot must carry it: the resumed run
/// matches the straight-through one.
#[test]
fn checkpoint_with_a_dispatch_pass_pending_is_exact() {
    let build = || {
        let mut p = Platform::new(
            PlatformConfig::default()
                .nodes(1)
                .policy(SharingPolicy::FaST)
                .seed(31)
                .trace_events(true),
        );
        // Three always-busy 40 % pods: at most two hold tokens at once.
        let f = p
            .deploy(
                FunctionConfig::new("f", "resnet50")
                    .replicas(3)
                    .resources(40.0, 0.3, 1.0)
                    .saturating(),
            )
            .unwrap();
        (p, f)
    };
    // The kill owes a pass when the pass is the first thing the next run
    // does at the kill instant.
    let kill_owes_pass = |p: &mut Platform, victim: usize| {
        let pod = p.pods_of(fastg_cluster::FuncId(0))[victim];
        assert!(p.kill_pod(pod));
        let traced = p.event_trace().len();
        p.run_for(SimTime::ZERO);
        let pass = format!("{:?} dispatch pass", p.now());
        p.event_trace()
            .get(traced)
            .is_some_and(|line| line.starts_with(&pass))
    };
    // Find the first millisecond at which killing some pod owes a pass.
    let (mut probe, _) = build();
    let (split, victim) = loop {
        probe.run_for(SimTime::from_millis(1));
        assert!(probe.now() < SimTime::from_secs(1), "no kill owed a pass");
        if let Some(v) = (0..3).find(|&v| kill_owes_pass(&mut probe.clone(), v)) {
            break (probe.now(), v);
        }
    };
    let rest = SimTime::from_secs(2);
    let (mut straight, f) = build();
    straight.run_for(split);
    let pod = straight.pods_of(f)[victim];
    assert!(straight.kill_pod(pod));
    let (mut twin, _) = build();
    twin.run_for(split);
    assert!(twin.kill_pod(pod));
    let snapshot = twin.checkpoint();
    drop(twin);
    let mut resumed = Platform::from_snapshot(&snapshot).unwrap();
    let s = straight.run_for(rest).canonical_text();
    let r = resumed.run_for(rest).canonical_text();
    assert_eq!(
        r, s,
        "killing pod {victim} at {split:?}: the resumed run diverged"
    );
}

/// Byte-level fuzz of the restore path: snapshot bytes are untrusted
/// input, so every corruption must decode to `Ok` or `Err`, never panic.
/// At every payload offset the snapshot is overwritten with an 8-byte
/// `u64::MAX` and a `1 << 40` word (huge lengths, counts and sums), and
/// separately truncated there.
#[test]
fn from_snapshot_never_panics_on_corrupt_bytes() {
    /// The `magic ‖ version` header ahead of the payload.
    const HEADER: usize = 8;
    let mut p = Platform::new(
        PlatformConfig::default()
            .nodes(2)
            .policy(SharingPolicy::FaST)
            .recovery(true)
            .seed(17)
            .overload_control(true)
            .fault_plan(chaos_plan()),
    );
    for (model, rate) in [("resnet50", 40.0), ("bert_base", 25.0)] {
        let f = p
            .deploy(
                FunctionConfig::new(model, model)
                    .replicas(2)
                    .resources(50.0, 0.5, 0.8),
            )
            .unwrap();
        p.set_load(f, ArrivalProcess::constant(rate));
    }
    p.run_for(SimTime::from_millis(1500));
    let bytes = p.checkpoint().as_bytes().to_vec();
    let restore = |case: Vec<u8>, what: &str, at: usize| {
        let outcome = std::panic::catch_unwind(|| {
            if let Ok(s) = Snapshot::from_bytes(case) {
                let _ = Platform::from_snapshot(&s);
            }
        });
        assert!(outcome.is_ok(), "restore panicked on {what} at byte {at}");
    };
    for at in HEADER..bytes.len() {
        for word in [u64::MAX, 1 << 40] {
            let mut case = bytes.clone();
            let end = (at + 8).min(case.len());
            case[at..end].copy_from_slice(&word.to_le_bytes()[..end - at]);
            restore(case, "overwrite", at);
        }
        restore(bytes[..at].to_vec(), "truncation", at);
    }
}

/// `snapshot` with its clock set to `at` and everything else as it was
/// (the payload opens with the clock, after the 8-byte header).
fn with_clock(snapshot: &Snapshot, at: SimTime) -> Snapshot {
    let mut bytes = snapshot.as_bytes().to_vec();
    bytes[8..16].copy_from_slice(&at.as_micros().to_le_bytes());
    Snapshot::from_bytes(bytes).unwrap()
}

/// A device cannot have started work after the snapshot's clock. One
/// pod keeps a GPU busy (kernel by kernel, then as fast-forwarded
/// bursts); its snapshot at 1,003 ms, with the clock set back to 500 ms,
/// before the resident kernel or burst started, is refused with a typed
/// error. Decoded, the kernel's finish would take `now - started` below
/// zero: "SimTime subtraction underflow" in a debug build, a wrapped GPU
/// time in a release one.
#[test]
fn device_starts_after_the_snapshot_clock_are_refused() {
    for fastforward in [false, true] {
        let cfg = PlatformConfig::default().nodes(1).seed(41).fastforward(fastforward);
        let mut p = Platform::new(cfg);
        p.deploy(FunctionConfig::new("f", "resnet50").resources(100.0, 1.0, 1.0).saturating())
            .unwrap();
        p.run_for(SimTime::from_millis(1003));
        let snapshot = p.checkpoint();
        assert!(Platform::from_snapshot(&with_clock(&snapshot, p.now())).is_ok());
        let err = Platform::from_snapshot(&with_clock(&snapshot, SimTime::from_millis(500)))
            .err()
            .unwrap_or_else(|| panic!("a start past the clock decoded (fast-forward {fastforward})"));
        assert_eq!(err.what, "device start after the snapshot clock", "fast-forward {fastforward}");
    }
}

/// A random fleet grid for checkpoint parity: node count, load, seed and
/// mid-run perturbations — kills and reconfigurations on either side of
/// the checkpoint instant — all drawn at random.
#[derive(Debug, Clone, Copy)]
struct CkptGrid {
    nodes: usize,
    rate: u32,
    seed: u64,
    /// Kill the first function's pod just before the checkpoint instant.
    kill_before: bool,
    /// Kill the last function's pod after the resume.
    kill_after: bool,
    /// Reconfigure the last function's partition before the checkpoint.
    reconfig: bool,
    /// Inject the degrade/recover chaos plan.
    chaos: bool,
    /// Milliseconds past the 1 s mark at which to checkpoint.
    split_ms: u64,
}

fn arb_ckpt_grid() -> impl Strategy<Value = CkptGrid> {
    (
        2usize..5,
        5u32..45,
        0u64..1000,
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        200u64..1500,
    )
        .prop_map(
            |(nodes, rate, seed, kill_before, kill_after, reconfig, chaos, split_ms)| CkptGrid {
                nodes,
                rate,
                seed,
                kill_before,
                kill_after,
                reconfig,
                chaos,
                split_ms,
            },
        )
}

const GRID_MODELS: [&str; 4] = ["resnet50", "bert_base", "rnnt", "resnext101"];

/// Drives one grid point: run to 1 s, perturb, run to the split instant,
/// optionally checkpoint → drop → restore, perturb again, run the final
/// window. With `checkpoint == false` this is the straight-through
/// reference the resumed run must match byte-for-byte.
fn ckpt_grid_run(g: CkptGrid, checkpoint: bool) -> (String, u64) {
    let mut cfg = PlatformConfig::default()
        .nodes(g.nodes)
        .policy(SharingPolicy::FaST)
        .oversubscribe(true)
        .seed(g.seed)
        .fastforward(true);
    if g.chaos {
        cfg = cfg.fault_plan(
            FaultPlan::new()
                .at(
                    SimTime::from_millis(1500),
                    FaultKind::NodeDegrade {
                        node_index: 0,
                        factor: 1.5,
                    },
                )
                .at(
                    SimTime::from_millis(2500),
                    FaultKind::NodeRecover { node_index: 0 },
                ),
        );
    }
    let mut p = Platform::new(cfg);
    let mut funcs = Vec::new();
    for i in 0..g.nodes {
        let f = p
            .deploy(
                FunctionConfig::new(&format!("f{i}"), GRID_MODELS[i % GRID_MODELS.len()])
                    .replicas(1)
                    .resources(100.0, 1.0, 1.0),
            )
            .unwrap();
        p.set_load(f, ArrivalProcess::constant(f64::from(g.rate) + i as f64));
        funcs.push(f);
    }
    p.run_for(SimTime::from_secs(1));
    if g.kill_before {
        if let Some(&victim) = p.pods_of(funcs[0]).first() {
            p.kill_pod(victim);
        }
    }
    if g.reconfig {
        let _ = p.reconfigure(funcs[g.nodes - 1], 50.0, 1.0, 1.0);
    }
    p.run_for(SimTime::from_millis(g.split_ms));
    if checkpoint {
        let snapshot = p.checkpoint();
        drop(p);
        p = Platform::from_snapshot(&snapshot).unwrap();
    }
    if g.kill_after {
        if let Some(&victim) = p.pods_of(funcs[g.nodes - 1]).first() {
            p.kill_pod(victim);
        }
    }
    let report = p.run_for(SimTime::from_secs(2));
    (report.canonical_text(), p.events_handled())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `restore(checkpoint(p))` digest parity over random fleet grids:
    /// whatever the topology, load, chaos or mid-run churn on either
    /// side of the split, the resumed run must reproduce the
    /// straight-through report byte-for-byte.
    #[test]
    fn checkpoint_parity_on_random_fleet_grids(g in arb_ckpt_grid()) {
        let (straight, s_events) = ckpt_grid_run(g, false);
        let (resumed, r_events) = ckpt_grid_run(g, true);
        prop_assert_eq!(s_events, r_events, "event counts diverged on {:?}", g);
        prop_assert_eq!(straight, resumed, "checkpoint parity broke on {:?}", g);
    }
}

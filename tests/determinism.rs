//! Determinism: the whole stack replays identically for a given seed —
//! the property every calibration and regression test leans on.

use fastg_des::SimTime;
use fastg_workload::ArrivalProcess;
use fastgshare::manager::SharingPolicy;
use fastgshare::platform::{
    run_sweep, FaultKind, FaultPlan, FunctionConfig, Platform, PlatformConfig, Scenario, TieBreak,
};

/// A run fingerprint: event count plus the externally visible outcomes.
fn fingerprint(policy: SharingPolicy, seed: u64) -> (u64, u64, SimTime, SimTime, u64) {
    let mut p = Platform::new(
        PlatformConfig::default()
            .nodes(2)
            .policy(policy)
            .oversubscribe(true)
            .seed(seed),
    );
    let resnet = p
        .deploy(
            FunctionConfig::new("resnet", "resnet50")
                .replicas(3)
                .resources(12.0, 0.5, 0.8),
        )
        .unwrap();
    let rnnt = p
        .deploy(
            FunctionConfig::new("rnnt", "rnnt")
                .replicas(2)
                .resources(24.0, 0.4, 0.4),
        )
        .unwrap();
    p.set_load(resnet, ArrivalProcess::poisson(60.0, seed.wrapping_add(1)));
    p.set_load(rnnt, ArrivalProcess::poisson(8.0, seed.wrapping_add(2)));
    let report = p.run_for(SimTime::from_secs(4));
    (
        p.events_handled(),
        report.functions[&resnet].completed,
        report.functions[&resnet].p99,
        report.functions[&rnnt].p99,
        report.functions[&rnnt].slo_violations,
    )
}

#[test]
fn fast_policy_replays_exactly() {
    assert_eq!(
        fingerprint(SharingPolicy::FaST, 7),
        fingerprint(SharingPolicy::FaST, 7)
    );
}

#[test]
fn single_token_policy_replays_exactly() {
    assert_eq!(
        fingerprint(SharingPolicy::SingleToken, 7),
        fingerprint(SharingPolicy::SingleToken, 7)
    );
}

#[test]
fn racing_policy_replays_exactly() {
    assert_eq!(
        fingerprint(SharingPolicy::Racing, 7),
        fingerprint(SharingPolicy::Racing, 7)
    );
}

#[test]
fn different_seeds_diverge() {
    let a = fingerprint(SharingPolicy::FaST, 7);
    let b = fingerprint(SharingPolicy::FaST, 8);
    assert_ne!(a, b, "different seeds should give different traces");
}

#[test]
fn policies_actually_differ() {
    let fast = fingerprint(SharingPolicy::FaST, 7);
    let ts = fingerprint(SharingPolicy::SingleToken, 7);
    assert_ne!(
        fast, ts,
        "FaST and time sharing must produce different schedules"
    );
}

/// Runs a full platform (recovery on, optional fault plan) and returns the
/// report's FNV digest over its canonical byte rendering, plus the number
/// of bursts the fast-forward layer coalesced.
fn digest_run_ff(plan: Option<FaultPlan>, fastforward: bool) -> (u64, String, u64) {
    let mut cfg = PlatformConfig::default()
        .nodes(2)
        .policy(SharingPolicy::FaST)
        .recovery(true)
        .seed(11)
        .fastforward(fastforward);
    if let Some(plan) = plan {
        cfg = cfg.fault_plan(plan);
    }
    let mut p = Platform::new(cfg);
    let f = p
        .deploy(
            FunctionConfig::new("resnet", "resnet50")
                .replicas(2)
                .resources(25.0, 0.5, 0.8),
        )
        .unwrap();
    p.set_load(f, ArrivalProcess::poisson(50.0, 13));
    let report = p.run_for(SimTime::from_secs(6));
    (report.digest(), report.canonical_text(), p.ff_bursts())
}

/// Runs with whatever fast-forward mode the environment selected (the
/// default configuration most tests and users get).
fn digest_run(plan: Option<FaultPlan>) -> (u64, String) {
    let (d, t, _) = digest_run_ff(plan, PlatformConfig::default().fastforward);
    (d, t)
}

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

/// The strongest replay check: the entire report — every counter, every
/// float bit pattern, every time-series sample — is byte-identical when
/// the same configuration and seed run twice, without a fault plan...
#[test]
fn report_digest_replays_exactly() {
    let (da, ta) = digest_run(None);
    let (db, tb) = digest_run(None);
    assert_eq!(ta, tb, "canonical report text must replay byte-for-byte");
    assert_eq!(da, db);
}

/// ...and with chaos injected: faults, zombie drains and recovery are all
/// scheduled through the same deterministic event queue.
#[test]
fn report_digest_replays_exactly_under_faults() {
    let (da, ta) = digest_run(Some(chaos_plan()));
    let (db, tb) = digest_run(Some(chaos_plan()));
    assert_eq!(ta, tb, "chaos replay must be byte-for-byte identical");
    assert_eq!(da, db);
    // The plan must actually have perturbed the run (digests differ from
    // the fault-free trace), or this test would be vacuous.
    let (dc, _) = digest_run(None);
    assert_ne!(da, dc, "fault plan should change the trace");
}

/// Event coalescing is a pure optimization: with fast-forward forced on
/// and forced off, the whole report — every counter, float bit pattern
/// and time-series sample — is byte-identical, and the coalescing layer
/// genuinely engaged (the parity claim would be vacuous otherwise).
#[test]
fn fastforward_parity_clean() {
    let (d_on, t_on, bursts) = digest_run_ff(None, true);
    let (d_off, t_off, none) = digest_run_ff(None, false);
    assert!(bursts > 0, "fast-forward never engaged");
    assert_eq!(none, 0, "disabled fast-forward must not coalesce");
    assert_eq!(t_on, t_off, "coalesced run must be byte-identical");
    assert_eq!(d_on, d_off);
}

/// ...and the same under chaos: crashes, clock degradation and recovery
/// all invalidate in-flight macro-events mid-burst, reconstructing exact
/// per-kernel state.
#[test]
fn fastforward_parity_under_chaos() {
    let (d_on, t_on, bursts) = digest_run_ff(Some(chaos_plan()), true);
    let (d_off, t_off, _) = digest_run_ff(Some(chaos_plan()), false);
    assert!(bursts > 0, "fast-forward never engaged under chaos");
    assert_eq!(t_on, t_off, "chaos run must be byte-identical");
    assert_eq!(d_on, d_off);
}

/// A fleet-shaped scenario: single-replica constant-rate functions, one
/// per node, plus the chaos plan, run under one same-instant tie-break
/// order.
fn fleet_digest(tiebreak: TieBreak) -> String {
    let mut p = Platform::new(
        PlatformConfig::default()
            .nodes(3)
            .policy(SharingPolicy::FaST)
            .oversubscribe(true)
            .recovery(true)
            .seed(23)
            .fastforward(true)
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
    p.run_for(SimTime::from_secs(6)).canonical_text()
}

/// The fleet is tie-break independent: the four canonical same-instant
/// delivery orders (the `race_detector` matrix) reproduce the fleet
/// report byte-for-byte, chaos included.
#[test]
fn fleet_digest_identical_across_tiebreak_orders() {
    let fifo = fleet_digest(TieBreak::Fifo);
    for tb in [
        TieBreak::Lifo,
        TieBreak::SeededShuffle(1),
        TieBreak::SeededShuffle(2),
    ] {
        let other = fleet_digest(tb);
        assert_eq!(fifo, other, "tie-break {tb:?} changed the fleet report");
    }
}

/// A Figure 11-shaped token-shared fleet: every node hosts two BERT
/// (50 % SMs, 0.6 quota), two RNNT (24 %, 0.4) and four ResNet-50 (12 %,
/// 0.4) pods, packed by the paper scheduler under Poisson load. The MPS
/// partitions on each GPU register 196 % of its SMs, so coalescing
/// engages only because the gate counts the token holders' caps, not
/// every registered pod's. Time sharing packs whole-GPU pods along the
/// quota axis only, so it places the same pods least-loaded instead.
/// Returns the canonical report text, the bursts coalesced, and the
/// coalesced-kernel count beside the report's total.
fn token_shared_fleet(
    policy: SharingPolicy,
    chaos: bool,
    fastforward: bool,
) -> (String, u64, (u64, u64)) {
    const NODES: usize = 3;
    let time_sharing = policy == SharingPolicy::SingleToken;
    let mut cfg = PlatformConfig::default()
        .nodes(NODES)
        .policy(policy)
        .oversubscribe(time_sharing)
        .recovery(chaos)
        .overload_control(chaos)
        .seed(29)
        .fastforward(fastforward);
    if chaos {
        cfg = cfg.fault_plan(chaos_plan());
    }
    let mut p = Platform::new(cfg);
    for (i, (model, sm, quota, rate)) in [
        ("bert_base", 50.0, 0.6, 40.0),
        ("rnnt", 24.0, 0.4, 6.0),
        ("resnet50", 12.0, 0.4, 30.0),
        ("resnet50", 12.0, 0.4, 20.0),
    ]
    .into_iter()
    .enumerate()
    {
        let f = p
            .deploy(
                FunctionConfig::new(&format!("fig11-{i}"), model)
                    .replicas(2 * NODES)
                    .resources(sm, quota, quota),
            )
            .unwrap();
        p.set_load(f, ArrivalProcess::poisson(rate, 31 + i as u64));
    }
    if !time_sharing {
        assert_eq!(p.gpus_in_use(), NODES, "one Figure 11 pod set per GPU");
    }
    let report = p.run_for(SimTime::from_secs(5));
    let kernels = report.nodes.iter().map(|n| n.kernels).sum();
    (
        report.canonical_text(),
        p.ff_bursts(),
        (p.coalesced_kernels(), kernels),
    )
}

/// Fast-forward engages on the paper's own over-committed packing and
/// stays a pure optimization there: FaST clean, FaST with overload
/// control plus chaos, and time sharing (every pod registered at 100 %)
/// all digest identically with coalescing on and off, and the coalesced
/// count never exceeds the kernels the report saw.
#[test]
fn fleet_token_shared_fastforward_parity() {
    for (policy, chaos) in [
        (SharingPolicy::FaST, false),
        (SharingPolicy::FaST, true),
        (SharingPolicy::SingleToken, false),
    ] {
        let (on, bursts, (coalesced, kernels)) = token_shared_fleet(policy, chaos, true);
        let (off, none, _) = token_shared_fleet(policy, chaos, false);
        assert!(bursts > 0, "{policy:?} chaos={chaos}: fast-forward never engaged");
        assert_eq!(none, 0, "disabled fast-forward must not coalesce");
        assert!(
            coalesced <= kernels,
            "{policy:?} chaos={chaos}: {coalesced} coalesced of {kernels} kernels"
        );
        assert_eq!(on, off, "{policy:?} chaos={chaos}: fast-forward parity broke");
    }
}

/// A small sweep grid mixing clean and chaotic scenarios.
fn sweep_grid(with_faults: bool) -> Vec<Scenario> {
    [11u64, 12, 13]
        .iter()
        .map(|&seed| {
            let mut cfg = PlatformConfig::default()
                .nodes(2)
                .policy(SharingPolicy::FaST)
                .recovery(true)
                .seed(seed);
            if with_faults {
                cfg = cfg.fault_plan(chaos_plan());
            }
            Scenario::new(format!("seed-{seed}"), cfg)
                .function(
                    FunctionConfig::new("resnet", "resnet50")
                        .replicas(2)
                        .resources(25.0, 0.5, 0.8),
                )
                .load(0, ArrivalProcess::poisson(50.0, seed.wrapping_add(2)))
                .duration(SimTime::from_secs(5))
        })
        .collect()
}

/// Sequential scenario runs and `run_sweep` at 1 and 4 worker threads all
/// produce byte-identical report digests, in input order — parallelism is
/// a pure wall-clock optimization.
#[test]
fn sweep_digests_identical_across_thread_counts() {
    let sequential: Vec<(String, u64)> = sweep_grid(false)
        .into_iter()
        .map(|sc| {
            let name = sc.name.clone();
            (name, sc.run().unwrap().digest())
        })
        .collect();
    for threads in [1, 4] {
        let swept = run_sweep(sweep_grid(false), threads).unwrap();
        let digests: Vec<(String, u64)> = swept
            .into_iter()
            .map(|(name, report)| (name, report.digest()))
            .collect();
        assert_eq!(
            digests, sequential,
            "threads={threads} must replay the sequential digests in order"
        );
    }
}

/// The same holds with a chaos [`FaultPlan`] injected into every scenario:
/// faults, drains and recovery ride the same deterministic event queue, so
/// thread count still cannot perturb the trace.
#[test]
fn sweep_digests_identical_across_thread_counts_under_faults() {
    let sequential: Vec<u64> = sweep_grid(true)
        .into_iter()
        .map(|sc| sc.run().unwrap().digest())
        .collect();
    for threads in [1, 4] {
        let swept = run_sweep(sweep_grid(true), threads).unwrap();
        let digests: Vec<u64> = swept.iter().map(|(_, r)| r.digest()).collect();
        assert_eq!(digests, sequential, "threads={threads} chaos sweep diverged");
    }
    // The chaos grid must genuinely differ from the clean grid, or the
    // fault half of this property would be vacuous.
    let clean: Vec<u64> = sweep_grid(false)
        .into_iter()
        .map(|sc| sc.run().unwrap().digest())
        .collect();
    assert_ne!(sequential, clean, "fault plan should change every trace");
}

/// Fast-forward parity survives the parallel sweep runner: at 1 and 4
/// worker threads, a chaos grid with coalescing forced on digests
/// identically to the same grid with coalescing forced off.
#[test]
fn fastforward_parity_across_thread_counts() {
    let grid = |ff: bool| -> Vec<Scenario> {
        sweep_grid(true)
            .into_iter()
            .map(|mut sc| {
                sc.config = sc.config.fastforward(ff);
                sc
            })
            .collect()
    };
    for threads in [1, 4] {
        let on: Vec<u64> = run_sweep(grid(true), threads)
            .unwrap()
            .iter()
            .map(|(_, r)| r.digest())
            .collect();
        let off: Vec<u64> = run_sweep(grid(false), threads)
            .unwrap()
            .iter()
            .map(|(_, r)| r.digest())
            .collect();
        assert_eq!(on, off, "threads={threads} fast-forward parity broke");
    }
}

/// A flash-crowd scenario with the overload control plane on or off:
/// the new state machines (bounded admission, deadline shedding, breaker,
/// brownout reconfigure) must be digest-deterministic in every mode.
fn overload_digest(
    control: bool,
    plan: Option<FaultPlan>,
    fastforward: bool,
) -> (u64, String) {
    let mut cfg = PlatformConfig::default()
        .nodes(2)
        .policy(SharingPolicy::FaST)
        .recovery(true)
        .seed(17)
        .fastforward(fastforward)
        .overload_control(control);
    if let Some(plan) = plan {
        cfg = cfg.fault_plan(plan);
    }
    let mut p = Platform::new(cfg);
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
    let report = p.run_for(SimTime::from_secs(6));
    (report.digest(), report.canonical_text())
}

/// The overload control plane replays byte-for-byte in the full mode
/// matrix: control {on, off} × fast-forward {on, off} × {clean, chaos}.
/// Each mode must also genuinely differ from its neighbours where the
/// dynamics differ (control on vs off), or the matrix would be vacuous.
#[test]
fn overload_control_replays_exactly_in_every_mode() {
    for control in [false, true] {
        for ff in [false, true] {
            for chaos in [false, true] {
                let plan = || chaos.then(chaos_plan);
                let (da, ta) = overload_digest(control, plan(), ff);
                let (db, tb) = overload_digest(control, plan(), ff);
                assert_eq!(
                    ta, tb,
                    "control={control} ff={ff} chaos={chaos} must replay byte-for-byte"
                );
                assert_eq!(da, db);
            }
        }
    }
    // Control on/off are different systems under a flash crowd.
    let (on, _) = overload_digest(true, None, true);
    let (off, _) = overload_digest(false, None, true);
    assert_ne!(on, off, "overload control should change the trace");
}

/// Fast-forward stays a pure optimization with the overload plane active:
/// brownout reconfigures ride the same `ff_break_node` invalidation as
/// every other contention change, so coalesced and per-kernel runs digest
/// identically, clean and under chaos.
#[test]
fn overload_fastforward_parity() {
    for chaos in [false, true] {
        let plan = || chaos.then(chaos_plan);
        let (d_on, t_on) = overload_digest(true, plan(), true);
        let (d_off, t_off) = overload_digest(true, plan(), false);
        assert_eq!(t_on, t_off, "chaos={chaos} overload FF parity broke");
        assert_eq!(d_on, d_off);
    }
}

/// The flash-crowd overload scenario under chaos, run under one
/// same-instant tie-break order.
fn flash_crowd_chaos_digest(tiebreak: TieBreak) -> (u64, String) {
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
    let report = p.run_for(SimTime::from_secs(6));
    (report.digest(), report.canonical_text())
}

/// Overload control and chaos compose without breaking determinism: the
/// flash-crowd trace is byte-identical across all four canonical
/// same-instant tie-break orders.
#[test]
fn flash_crowd_chaos_digest_identical_across_tiebreak_orders() {
    let (fifo_digest, fifo_text) = flash_crowd_chaos_digest(TieBreak::Fifo);
    for tb in [
        TieBreak::Lifo,
        TieBreak::SeededShuffle(1),
        TieBreak::SeededShuffle(2),
    ] {
        let (digest, text) = flash_crowd_chaos_digest(tb);
        assert_eq!(
            fifo_text, text,
            "tie-break {tb:?} changed the flash-crowd trace"
        );
        assert_eq!(fifo_digest, digest);
    }
}

/// The overload flash-crowd scenario digests identically through the
/// parallel sweep runner at 1 and 4 worker threads, on and off.
#[test]
fn overload_sweep_digests_identical_across_thread_counts() {
    let grid = |control: bool| -> Vec<Scenario> {
        [17u64, 18]
            .iter()
            .map(|&seed| {
                let cfg = PlatformConfig::default()
                    .nodes(2)
                    .policy(SharingPolicy::FaST)
                    .recovery(true)
                    .seed(seed)
                    .overload_control(control)
                    .fault_plan(chaos_plan());
                Scenario::new(format!("flash-{seed}-{control}"), cfg)
                    .function(
                        FunctionConfig::new("flash", "resnet50")
                            .slo_ms(200)
                            .replicas(2)
                            .resources(50.0, 0.5, 0.8),
                    )
                    .load(0, ArrivalProcess::poisson(150.0, seed.wrapping_add(2)))
                    .duration(SimTime::from_secs(5))
            })
            .collect()
    };
    for control in [false, true] {
        let sequential: Vec<u64> = grid(control)
            .into_iter()
            .map(|sc| sc.run().unwrap().digest())
            .collect();
        for threads in [1, 4] {
            let swept: Vec<u64> = run_sweep(grid(control), threads)
                .unwrap()
                .iter()
                .map(|(_, r)| r.digest())
                .collect();
            assert_eq!(
                swept, sequential,
                "control={control} threads={threads} overload sweep diverged"
            );
        }
    }
}

/// Two platforms advanced in different increments reach the same state:
/// `run_for` boundaries must not perturb the trace.
#[test]
fn run_boundaries_do_not_perturb() {
    let build = || {
        let mut p = Platform::new(PlatformConfig::default().nodes(1).seed(5));
        let f = p
            .deploy(
                FunctionConfig::new("f", "resnet50")
                    .replicas(2)
                    .resources(12.0, 1.0, 1.0),
            )
            .unwrap();
        p.set_load(f, ArrivalProcess::poisson(40.0, 6));
        (p, f)
    };
    let (mut a, fa) = build();
    let ra = a.run_for(SimTime::from_secs(4));
    let (mut b, fb) = build();
    for _ in 0..8 {
        b.run_for(SimTime::from_millis(500));
    }
    let rb = b.report();
    assert_eq!(a.events_handled(), b.events_handled());
    assert_eq!(ra.functions[&fa].completed, rb.functions[&fb].completed);
    assert_eq!(ra.functions[&fa].p99, rb.functions[&fb].p99);
}

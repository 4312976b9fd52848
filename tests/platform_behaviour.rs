//! Behavioural coverage of the platform engine beyond the figure
//! scenarios: elasticity, overload, cross-function weight sharing,
//! exclusive clusters, reporting.

use fastg_des::SimTime;
use fastg_workload::ArrivalProcess;
use fastgshare::manager::SharingPolicy;
use fastgshare::platform::{csv, FunctionConfig, Platform, PlatformConfig};

/// Elastic quota: a pod guaranteed only 20 % of the window uses the idle
/// GPU up to its 100 % limit when alone, but keeps at least its
/// guarantee under contention.
#[test]
fn elastic_quota_uses_idle_gpu() {
    // Alone: throughput well beyond the 20 % guarantee.
    let mut p = Platform::new(PlatformConfig::default().nodes(1).warmup(SimTime::from_secs(1)).seed(1));
    let f = p
        .deploy(
            FunctionConfig::new("f", "resnet50")
                .resources(100.0, 0.2, 1.0)
                .saturating(),
        )
        .unwrap();
    let alone = p.run_for(SimTime::from_secs(4)).functions[&f].throughput_rps;
    assert!(alone > 55.0, "elastic pod should exceed its guarantee: {alone}");

    // Against a full-quota competitor on the same SMs: still gets at
    // least ~20 % worth (0.2 / 10ms device = 20 rps).
    let mut p = Platform::new(
        PlatformConfig::default()
            .nodes(1)
            .oversubscribe(true)
            .warmup(SimTime::from_secs(1))
            .seed(1),
    );
    let f = p
        .deploy(
            FunctionConfig::new("f", "resnet50")
                .resources(100.0, 0.2, 1.0)
                .saturating(),
        )
        .unwrap();
    let _rival = p
        .deploy(
            FunctionConfig::new("rival", "resnet50")
                .resources(100.0, 0.8, 1.0)
                .saturating(),
        )
        .unwrap();
    let contended = p.run_for(SimTime::from_secs(4)).functions[&f].throughput_rps;
    assert!(
        contended >= 17.0,
        "guarantee violated under contention: {contended} rps"
    );
    assert!(contended < alone, "contention must cost something");
}

/// Overload: offered load beyond capacity — the gateway queue grows, the
/// tail explodes, but accounting stays exact and throughput pins at
/// capacity.
#[test]
fn overload_pins_at_capacity_without_losing_requests() {
    let mut p = Platform::new(
        PlatformConfig::default()
            .nodes(1)
            .warmup(SimTime::from_secs(1))
            .seed(2),
    );
    let f = p
        .deploy(
            FunctionConfig::new("f", "resnet50")
                .replicas(1)
                .resources(12.0, 1.0, 1.0),
        )
        .unwrap();
    // Capacity ~41 rps at 12 %; offer 80.
    p.set_load(f, ArrivalProcess::constant(80.0));
    let report = p.run_for(SimTime::from_secs(5));
    let fr = &report.functions[&f];
    assert!(
        (fr.throughput_rps - 41.6).abs() < 4.0,
        "should pin at single-pod capacity: {}",
        fr.throughput_rps
    );
    assert!(fr.p99 > SimTime::from_millis(500), "queueing tail expected");
    // Conservation: arrivals = completed + still queued/in flight.
    assert!(fr.arrivals > fr.completed);
    assert!(fr.arrivals as f64 >= 80.0 * 4.9);
}

/// Two *functions* serving the same model share one weight copy per node
/// (the store is keyed by model, not function).
#[test]
fn cross_function_weight_sharing() {
    const MIB: u64 = 1024 * 1024;
    let mut p = Platform::new(
        PlatformConfig::default()
            .nodes(1)
            .model_sharing(true)
            .oversubscribe(true)
            .seed(3),
    );
    p.deploy(
        FunctionConfig::new("alpha", "vit_huge")
            .replicas(1)
            .resources(40.0, 0.5, 0.5),
    )
    .unwrap();
    let one = p.node_memory_used(0);
    p.deploy(
        FunctionConfig::new("beta", "vit_huge")
            .replicas(1)
            .resources(40.0, 0.5, 0.5),
    )
    .unwrap();
    let two = p.node_memory_used(0);
    // Second function adds only its private instance (2101 MiB), not
    // another weight copy (2634 MiB) or context (300 MiB).
    assert_eq!((two - one) / MIB, 2101);
}

/// An exclusive (device-plugin) cluster runs one pod per node and scales
/// across nodes.
#[test]
fn exclusive_cluster_scales_across_nodes() {
    let mut p = Platform::new(
        PlatformConfig::default()
            .nodes(3)
            .policy(SharingPolicy::Exclusive)
            .warmup(SimTime::from_secs(1))
            .seed(4),
    );
    let f = p
        .deploy(FunctionConfig::new("f", "resnet50").replicas(3))
        .unwrap();
    assert_eq!(p.replicas(f), 3);
    // A fourth replica has nowhere to go.
    p.scale_to(f, 4);
    assert_eq!(p.replicas(f), 3);
    assert_eq!(p.unschedulable_pods(), 1);
    p.set_load(f, ArrivalProcess::poisson(150.0, 5));
    let report = p.run_for(SimTime::from_secs(4));
    // Three exclusive pods ≈ 3 × 71 rps capacity; 150 offered flows.
    assert!(
        (report.functions[&f].throughput_rps - 150.0).abs() < 15.0,
        "rps {}",
        report.functions[&f].throughput_rps
    );
    assert_eq!(report.gpus_used(), 3);
}

/// Draining pods finish their queued work: scale 4 → 1 under load and
/// every dispatched request still completes.
#[test]
fn drain_completes_in_flight_requests() {
    let mut p = Platform::new(PlatformConfig::default().nodes(1).seed(5));
    let f = p
        .deploy(
            FunctionConfig::new("f", "resnet50")
                .replicas(4)
                .resources(12.0, 1.0, 1.0),
        )
        .unwrap();
    p.set_load(f, ArrivalProcess::constant(120.0));
    p.run_for(SimTime::from_millis(500));
    p.scale_to(f, 1);
    // Stop the load so the system can fully drain.
    p.set_load(f, ArrivalProcess::constant(0.0));
    let report = p.run_for(SimTime::from_secs(5));
    let fr = &report.functions[&f];
    assert_eq!(fr.replicas, 1);
    assert_eq!(
        fr.arrivals, fr.completed,
        "drained pods must not drop requests"
    );
}

/// Warm-up exclusion: a cold start before warm-up must not depress the
/// steady-state throughput number.
#[test]
fn warmup_excludes_cold_start() {
    let run = |warmup_s: u64| {
        let mut p = Platform::new(
            PlatformConfig::default()
                .nodes(1)
                .warmup(SimTime::from_secs(warmup_s))
                .seed(6),
        );
        let f = p
            .deploy(
                FunctionConfig::new("f", "resnet50")
                    .replicas(1)
                    .resources(12.0, 1.0, 1.0),
            )
            .unwrap();
        // Load only starts after two quiet seconds.
        p.set_load(
            f,
            ArrivalProcess::profile(
                vec![
                    (SimTime::ZERO, 0.0),
                    (SimTime::from_secs(2), 0.0),
                    (SimTime::from_secs(2), 30.0),
                    (SimTime::from_secs(6), 30.0),
                ],
                7,
            ),
        );
        p.run_for(SimTime::from_secs(6)).functions[&f].throughput_rps
    };
    let with_warmup = run(2);
    let without = run(0);
    assert!(with_warmup > without, "{with_warmup} vs {without}");
    assert!((with_warmup - 30.0).abs() < 4.0, "steady rate {with_warmup}");
}

/// The replica series lands in the CSV export with plausible values.
#[test]
fn csv_export_of_a_scaling_run() {
    let mut p = Platform::new(PlatformConfig::default().nodes(2).seed(8));
    let f = p
        .deploy(
            FunctionConfig::new("f", "resnet50")
                .replicas(2)
                .resources(12.0, 0.5, 1.0),
        )
        .unwrap();
    p.set_load(f, ArrivalProcess::poisson(40.0, 9));
    p.run_for(SimTime::from_secs(2));
    p.scale_to(f, 3);
    let report = p.run_for(SimTime::from_secs(2));
    let ts = csv::timeseries_csv(&report);
    let replica_rows: Vec<&str> = ts
        .lines()
        .filter(|l| l.starts_with("replicas,f,"))
        .collect();
    assert!(replica_rows.len() >= 10, "rows: {}", replica_rows.len());
    // The last sample reflects the scale-up.
    let last_value: f64 = replica_rows
        .last()
        .unwrap()
        .rsplit(',')
        .next()
        .unwrap()
        .parse()
        .unwrap();
    assert_eq!(last_value, 3.0);
    // The node CSV mentions both workers.
    let nodes = csv::nodes_csv(&report);
    assert!(nodes.contains("gpu-worker-0"));
    assert!(nodes.contains("gpu-worker-1"));
}

/// Racing mode never schedules window resets, keeping the event stream
/// minimal — and still serves correctly.
#[test]
fn racing_runs_without_quota_machinery() {
    let mut p = Platform::new(
        PlatformConfig::default()
            .nodes(1)
            .policy(SharingPolicy::Racing)
            .oversubscribe(true)
            .seed(10),
    );
    let f = p
        .deploy(
            FunctionConfig::new("f", "resnet50")
                .replicas(2)
                .resources(100.0, 1.0, 1.0),
        )
        .unwrap();
    p.set_load(f, ArrivalProcess::constant(50.0));
    let report = p.run_for(SimTime::from_secs(3));
    assert!((report.functions[&f].throughput_rps - 50.0).abs() < 5.0);
}

/// Live reconfiguration: growing a running function's partition raises
/// its throughput without redeploying; shrinking the quota lowers it.
#[test]
fn reconfigure_running_function() {
    let mut p = Platform::new(
        PlatformConfig::default()
            .nodes(1)
            .warmup(SimTime::from_secs(1))
            .seed(12),
    );
    let f = p
        .deploy(
            FunctionConfig::new("f", "resnet50")
                .resources(6.0, 1.0, 1.0)
                .saturating(),
        )
        .unwrap();
    let small = p.run_for(SimTime::from_secs(3)).functions[&f].throughput_rps;
    // 6 % → 24 %: ResNet reaches its saturation partition.
    p.reconfigure(f, 24.0, 1.0, 1.0).unwrap();
    let before = p.report().functions[&f].completed;
    p.run_for(SimTime::from_secs(3));
    let after = p.report().functions[&f].completed;
    let grown = (after - before) as f64 / 3.0;
    assert!(
        grown > small * 2.0,
        "24 % partition should far outrun 6 %: {small} → {grown}"
    );
    // Now clamp the quota to 20 %: throughput drops proportionally.
    p.reconfigure(f, 24.0, 0.2, 0.2).unwrap();
    p.run_for(SimTime::from_secs(1)); // settle into the new quota
    let before = p.report().functions[&f].completed;
    p.run_for(SimTime::from_secs(3));
    let after = p.report().functions[&f].completed;
    let clamped = (after - before) as f64 / 3.0;
    assert!(
        (clamped - 20.0).abs() < 4.0,
        "quota 0.2 should serve ~20 rps: {clamped}"
    );
    // Unknown function errors cleanly.
    assert!(p
        .reconfigure(fastg_cluster::FuncId(99), 12.0, 0.5, 0.5)
        .is_err());
}

/// `set_load` replaces the arrival chain instead of adding a second one:
/// swapping a load for an identical one mid-run leaves the run exactly as
/// if the load had never been touched.
#[test]
fn set_load_replaces_the_arrival_chain() {
    let run = |swap: bool| {
        let mut p = Platform::new(PlatformConfig::default().nodes(1).seed(5));
        let f = p
            .deploy(
                FunctionConfig::new("f", "resnet50")
                    .replicas(1)
                    .resources(100.0, 1.0, 1.0),
            )
            .unwrap();
        p.set_load(f, ArrivalProcess::constant(10.0));
        p.run_for(SimTime::from_secs(1));
        if swap {
            p.set_load(f, ArrivalProcess::constant(10.0));
        }
        let report = p.run_for(SimTime::from_secs(10));
        (report.functions[&f].arrivals, report.canonical_text())
    };
    let (kept, kept_text) = run(false);
    let (swapped, swapped_text) = run(true);
    assert_eq!(kept, 110, "10 rps for 11 s");
    assert_eq!(swapped, kept, "a stale arrival survived set_load");
    assert_eq!(swapped_text, kept_text);
}

/// Deploying more replicas than fit fails atomically with a clear error
/// and counts the unschedulable pod.
#[test]
fn partial_deploy_failure_reports() {
    let mut p = Platform::new(PlatformConfig::default().nodes(1).seed(11));
    let err = p.deploy(
        FunctionConfig::new("wide", "resnet50")
            .replicas(3)
            .resources(50.0, 0.6, 0.6),
    );
    // 3 × (60 × 50) = 9000 > … actually two fit (6000), the third fails.
    assert!(err.is_err());
    let err = err.unwrap_err();
    assert_eq!(err, fastgshare::platform::PlatformError::NoNodeFits);
    assert!(err.to_string().contains("new GPU required"));
    assert_eq!(p.unschedulable_pods(), 1);
}

//! FaST-Profiler end-to-end: measured curves have the Figure 8 shape and
//! feed Algorithm 1 correctly.

use fastg_des::SimTime;
use fastgshare::profiler::{ConfigServer, Experiment, ProfileDb, ProfileKey, SamplePlan};
use fastgshare::scheduler::{heuristic_scale, ScaleAction};

fn grid(spatial: Vec<f64>, temporal: Vec<f64>) -> ConfigServer {
    ConfigServer::new(SamplePlan::Grid { spatial, temporal })
}

/// Temporal proportionality across the full quota range (Figure 8's
/// x-axis behaviour), measured, not analytic.
#[test]
fn measured_temporal_proportionality() {
    let mut db = ProfileDb::new();
    Experiment::new("resnet50", grid(vec![24.0], vec![0.2, 0.4, 0.6, 0.8, 1.0]))
        .trial_duration(SimTime::from_secs(2))
        .run(&mut db)
        .unwrap();
    let rps_at = |q: f64| db.get("resnet50", ProfileKey::new(24.0, q)).unwrap().rps;
    let base = rps_at(0.2);
    for (q, mult) in [(0.4, 2.0), (0.6, 3.0), (0.8, 4.0)] {
        let ratio = rps_at(q) / base;
        assert!(
            (ratio - mult).abs() < mult * 0.15,
            "quota {q}: ratio {ratio:.2} expected ~{mult}"
        );
    }
    // 100 % quota hits the latency-bound regime; still the largest.
    assert!(rps_at(1.0) >= rps_at(0.8) * 0.99);
}

/// Spatial saturation for a large model happens later than for a small
/// one (§5.2: "larger models require more SM partitions to reach
/// saturation").
#[test]
fn measured_saturation_scales_with_model_size() {
    let spatial = vec![12.0, 24.0, 50.0, 80.0];
    let mut db = ProfileDb::new();
    for model in ["resnet50", "vit_huge"] {
        Experiment::new(model, grid(spatial.clone(), vec![1.0]))
            .trial_duration(SimTime::from_secs(2))
            .run(&mut db)
            .unwrap();
    }
    let gain = |model: &str, lo: f64, hi: f64| {
        let a = db.get(model, ProfileKey::new(lo, 1.0)).unwrap().rps;
        let b = db.get(model, ProfileKey::new(hi, 1.0)).unwrap().rps;
        b / a
    };
    // ResNet gains nothing from 24 → 50 %; ViT-Huge still gains a lot.
    assert!(gain("resnet50", 24.0, 50.0) < 1.1);
    assert!(gain("vit_huge", 24.0, 50.0) > 1.5);
    // ViT keeps gaining up to 80 %.
    assert!(gain("vit_huge", 50.0, 80.0) > 1.2);
}

/// Profiled utilization rises along the temporal axis; SM occupancy rises
/// along the spatial axis.
#[test]
fn measured_gpu_metrics_follow_allocation() {
    let mut db = ProfileDb::new();
    Experiment::new("resnet50", grid(vec![12.0, 50.0], vec![0.4, 1.0]))
        .trial_duration(SimTime::from_secs(2))
        .run(&mut db)
        .unwrap();
    let rec = |sm: f64, q: f64| *db.get("resnet50", ProfileKey::new(sm, q)).unwrap();
    assert!(
        rec(12.0, 1.0).utilization > rec(12.0, 0.4).utilization,
        "more quota, more busy time"
    );
    assert!(
        rec(12.0, 1.0).sm_occupancy < 0.2,
        "small partition keeps occupancy low"
    );
}

/// The measured profile, fed through Algorithm 1, prefers the highest-RPR
/// configuration — which for ResNet is a small partition, not a big one.
#[test]
fn profile_feeds_heuristic_scaler() {
    let mut db = ProfileDb::new();
    Experiment::new(
        "resnet50",
        grid(vec![12.0, 24.0, 50.0], vec![0.4, 1.0]),
    )
    .trial_duration(SimTime::from_secs(2))
    .run(&mut db)
    .unwrap();
    let points = db.config_points("resnet50");
    assert_eq!(points.len(), 6);
    let actions = heuristic_scale(100.0, &points, &[]);
    assert!(!actions.is_empty());
    // Every scale-up uses a sensible configuration, and the bulk pods use
    // a small partition (high RPR).
    let ScaleAction::Up(first) = actions[0] else {
        panic!("expected Up");
    };
    assert!(
        first.sm <= 24.0,
        "bulk config should be an efficient small partition, got {} %",
        first.sm
    );
    let capacity: f64 = actions
        .iter()
        .map(|a| match a {
            ScaleAction::Up(p) => p.rps,
            _ => 0.0,
        })
        .sum();
    assert!(capacity >= 100.0);
}

/// The database's JSON, as `fastgshare profile` prints it, carries the
/// measured values intact.
#[test]
fn measured_db_round_trips() {
    let mut db = ProfileDb::new();
    Experiment::new("rnnt", grid(vec![24.0], vec![1.0]))
        .trial_duration(SimTime::from_secs(2))
        .run(&mut db)
        .unwrap();
    let json = fastg_json::Value::parse(&db.to_json()).unwrap();
    let a = db.get("rnnt", ProfileKey::new(24.0, 1.0)).unwrap();
    let func = &json["functions"][0];
    assert_eq!(func["name"].as_str(), Some("rnnt"));
    let b = &func["records"][0];
    assert_eq!(b["sm_centi"].as_u64(), Some(2400));
    assert_eq!(b["quota_centi"].as_u64(), Some(100));
    assert_eq!(b["rps"].as_f64(), Some(a.rps));
    assert_eq!(b["p50_us"].as_u64(), Some(a.p50.as_micros()));
    assert_eq!(b["p99_us"].as_u64(), Some(a.p99.as_micros()));
    assert_eq!(b["utilization"].as_f64(), Some(a.utilization));
    assert_eq!(b["sm_occupancy"].as_f64(), Some(a.sm_occupancy));
    assert!(a.rps > 5.0, "RNNT at full quota should serve >5 rps: {}", a.rps);
}

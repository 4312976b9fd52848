//! A multi-tenant serverless inference platform: all six zoo models
//! deployed on a small GPU cluster, mixed diurnal/bursty traffic, model
//! sharing on, auto-scaling each function against its own profile.
//!
//! ```sh
//! cargo run --release --example serverless_zoo
//! ```
//!
//! This is the workload the paper's introduction motivates: many small
//! inference functions whose individual kernels cannot fill a data-center
//! GPU, packed together spatio-temporally.

use fastg_des::SimTime;
use fastg_models::zoo;
use fastg_workload::patterns;
use fastgshare::manager::SharingPolicy;
use fastgshare::paper::analytic_profile;
use fastgshare::platform::{FunctionConfig, Platform, PlatformConfig};

fn main() {
    let mut p = Platform::new(
        PlatformConfig::default()
            .nodes(4)
            .policy(SharingPolicy::FaST)
            .model_sharing(true)
            .warmup(SimTime::from_secs(3))
            .seed(2024),
    );

    // One function per model; initial shapes from each model's sweet spot.
    let mut funcs = Vec::new();
    let initial = [
        ("resnet50", 12.0, 80.0),   // (model, SM %, mean offered rps)
        ("bert_base", 50.0, 20.0),
        ("rnnt", 24.0, 6.0),
        ("gnmt", 50.0, 10.0),
        ("resnext101", 50.0, 8.0),
        ("vit_huge", 80.0, 2.0),
    ];
    for (model, sm, _) in initial {
        let f = p
            .deploy(
                FunctionConfig::new(&format!("fastsvc-{model}"), model)
                    .slo_ms(1_000)
                    .replicas(1)
                    .resources(sm, 0.4, 1.0),
            )
            .expect("deploys");
        funcs.push((f, model));
    }
    // Analytic profiles for every model (the real profiler would measure
    // these; see `profiler_sweep.rs`).
    p.enable_autoscaler(analytic_profile(
        &zoo::all(),
        &[12.0, 24.0, 50.0, 80.0],
        &[0.2, 0.4, 0.6, 1.0],
    ));

    // Traffic: ResNet sees a diurnal swing, BERT gets bursts, the rest
    // hold steady Poisson rates.
    for (i, &(f, model)) in funcs.iter().enumerate() {
        let mean = initial[i].2;
        let load = match model {
            "resnet50" => patterns::diurnal(
                mean * 0.3,
                mean * 2.0,
                SimTime::from_secs(30),
                2,
                100 + i as u64,
            ),
            "bert_base" => patterns::bursty(
                mean * 0.5,
                mean * 2.5,
                4,
                SimTime::from_secs(5),
                SimTime::from_secs(60),
                200 + i as u64,
            ),
            _ => fastg_workload::ArrivalProcess::poisson(mean, 300 + i as u64),
        };
        p.set_load(f, load);
    }

    let report = p.run_for(SimTime::from_secs(60));
    println!("== Multi-tenant serverless zoo: 6 models, 4 V100s, 60s ==\n");
    print!("{}", report.summary());
    println!(
        "\ntotals: {:.1} req/s across {} functions | {} GPUs active | \
         {} pods unschedulable",
        report.total_throughput(),
        report.functions.len(),
        report.gpus_used(),
        report.unschedulable_pods,
    );
    let worst = report
        .functions
        .values()
        .max_by(|a, b| a.violation_ratio.partial_cmp(&b.violation_ratio).unwrap())
        .expect("functions exist");
    println!(
        "worst SLO compliance: {} at {:.2}% violations",
        worst.name,
        worst.violation_ratio * 100.0
    );
}

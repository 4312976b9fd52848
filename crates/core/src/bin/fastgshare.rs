//! `fastgshare` — command-line front end for the simulated platform.
//!
//! ```text
//! fastgshare serve   [model] [rps] [seconds]      one function under FaST
//! fastgshare compare [model] [pods]               the five sharing setups
//! fastgshare profile [model]                      Figure-8 grid for a model
//! fastgshare autoscale                            Figure-12 scenario
//! fastgshare csv     [model] [rps] [seconds]      run + CSV report to stdout
//! fastgshare apply   <manifest.json> [rps] [sec]  deploy a FaSTFunc manifest
//! fastgshare models                               list the model zoo
//! ```
//!
//! Arguments are positional with sensible defaults; no flags, no external
//! CLI dependency.

use fastg_des::SimTime;
use fastg_workload::ArrivalProcess;
use fastgshare::manager::SharingPolicy;
use fastgshare::paper;
use fastgshare::platform::{csv, FunctionConfig, Platform, PlatformConfig};
use fastgshare::profiler::ProfileDb;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    let arg = |i: usize, default: &str| -> String {
        args.get(i).cloned().unwrap_or_else(|| default.to_string())
    };
    match cmd {
        "serve" => serve(
            &arg(1, "resnet50"),
            arg(2, "60").parse().unwrap_or(60.0),
            arg(3, "10").parse().unwrap_or(10),
            false,
        ),
        "csv" => serve(
            &arg(1, "resnet50"),
            arg(2, "60").parse().unwrap_or(60.0),
            arg(3, "10").parse().unwrap_or(10),
            true,
        ),
        "compare" => compare(&arg(1, "resnet50"), arg(2, "8").parse().unwrap_or(8)),
        "profile" => profile(&arg(1, "resnet50")),
        "autoscale" => autoscale(),
        "models" => models(),
        "apply" => apply(
            &arg(1, ""),
            arg(2, "30").parse().unwrap_or(30.0),
            arg(3, "10").parse().unwrap_or(10),
        ),
        _ => help(),
    }
}

/// Deploys a FaSTFunc manifest file and serves Poisson traffic against it.
fn apply(path: &str, rps: f64, seconds: u64) {
    if path.is_empty() {
        eprintln!("usage: fastgshare apply <manifest.json> [rps] [seconds]");
        std::process::exit(2);
    }
    let json = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let fc = match FunctionConfig::from_manifest(&json) {
        Ok(fc) => fc,
        Err(e) => {
            eprintln!("bad manifest: {e}");
            std::process::exit(1);
        }
    };
    let mut p = Platform::new(
        PlatformConfig::default()
            .nodes(1)
            .policy(SharingPolicy::FaST)
            .warmup(SimTime::from_secs(1))
            .seed(42),
    );
    let f = match p.deploy(fc) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("deploy failed: {e}");
            std::process::exit(1);
        }
    };
    p.set_load(f, ArrivalProcess::poisson(rps, 7));
    let report = p.run_for(SimTime::from_secs(seconds));
    print!("{}", report.summary());
}

fn help() {
    println!(
        "fastgshare — FaST-GShare (ICPP 2023) simulation platform\n\n\
         USAGE:\n  \
         fastgshare serve   [model] [rps] [seconds]   serve Poisson traffic under FaST\n  \
         fastgshare compare [model] [pods]            compare the five sharing setups\n  \
         fastgshare profile [model]                   FaST-Profiler grid (Figure 8)\n  \
         fastgshare autoscale                         auto-scaling scenario (Figure 12)\n  \
         fastgshare csv     [model] [rps] [seconds]   emit a CSV report\n  \
         fastgshare models                            list the model zoo"
    );
}

fn models() {
    println!("{:<12} {:>10} {:>12} {:>10} {:>12}", "model", "1-pod rps", "saturation", "memory", "weights");
    for m in fastg_models::zoo::all() {
        println!(
            "{:<12} {:>10.1} {:>9} SMs {:>8} M {:>10} M",
            m.name,
            m.ideal_rps(80, 1.0),
            m.saturation_sms(80, 0.0),
            m.memory.total() / (1024 * 1024),
            m.memory.weights_bytes / (1024 * 1024),
        );
    }
}

fn serve(model: &str, rps: f64, seconds: u64, as_csv: bool) {
    let mut p = Platform::new(
        PlatformConfig::default()
            .nodes(1)
            .policy(SharingPolicy::FaST)
            .warmup(SimTime::from_secs(1))
            .seed(42),
    );
    let f = match p.deploy(
        FunctionConfig::new(&format!("fastsvc-{model}"), model)
            .replicas(2)
            .resources(24.0, 1.0, 1.0),
    ) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("deploy failed: {e}");
            std::process::exit(1);
        }
    };
    p.set_load(f, ArrivalProcess::poisson(rps, 7));
    let report = p.run_for(SimTime::from_secs(seconds));
    if as_csv {
        print!("{}", csv::functions_csv(&report));
        print!("{}", csv::nodes_csv(&report));
        print!("{}", csv::timeseries_csv(&report));
    } else {
        print!("{}", report.summary());
    }
}

fn compare(model: &str, pods: usize) {
    println!(
        "{:<28} {:>10} {:>12} {:>8} {:>8}",
        "policy", "req/s", "p99", "util", "SM occ"
    );
    for (name, policy, sm) in paper::SHARING_SETUPS {
        let o = paper::run_sharing(policy, model, pods, sm, 4, 17).expect("deploys");
        println!(
            "{name:<28} {:>10.1} {:>12} {:>7.1}% {:>7.1}%",
            o.rps,
            format!("{}", o.p99),
            o.utilization * 100.0,
            o.sm_occupancy * 100.0,
        );
    }
}

fn profile(model: &str) {
    let mut db = ProfileDb::new();
    if let Err(e) = paper::fig8(model).run(&mut db) {
        eprintln!("profiling failed: {e}");
        std::process::exit(1);
    }
    println!("{}", db.to_json());
}

fn autoscale() {
    let (intervals, report) = paper::run_fig12(121).expect("deploys");
    println!("{:>6} {:>7} {:>12}", "t", "pods", "served");
    for i in &intervals {
        println!("{:>5}s {:>7} {:>10.1}/s", i.end_s, i.replicas, i.served_rps);
    }
    let fr = report.functions.values().next().expect("one function");
    println!(
        "SLO violations {:.2}% over {} requests",
        fr.violation_ratio * 100.0,
        fr.completed
    );
}

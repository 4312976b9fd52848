//! CSV rendering of run reports, for external plotting of the figures.

use crate::platform::report::PlatformReport;
use fastg_des::TimeSeries;
use std::fmt::Write;

/// Per-function summary rows: one line per function.
pub fn functions_csv(report: &PlatformReport) -> String {
    let mut out = String::from(
        "function,model,arrivals,completed,throughput_rps,p50_ms,p95_ms,p99_ms,\
         mean_ms,slo_ms,violations,violation_ratio,replicas\n",
    );
    for f in report.functions.values() {
        let _ = writeln!(
            out,
            "{},{},{},{},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{},{:.6},{}",
            f.name,
            f.model,
            f.arrivals,
            f.completed,
            f.throughput_rps,
            f.p50.as_millis_f64(),
            f.p95.as_millis_f64(),
            f.p99.as_millis_f64(),
            f.mean_latency.as_millis_f64(),
            f.slo.as_millis_f64(),
            f.slo_violations,
            f.violation_ratio,
            f.replicas,
        );
    }
    out
}

/// Per-node summary rows: one line per GPU.
pub fn nodes_csv(report: &PlatformReport) -> String {
    let mut out =
        String::from("node,utilization,sm_occupancy,kernels,pods,memory_used_mib\n");
    for n in &report.nodes {
        let _ = writeln!(
            out,
            "{},{:.6},{:.6},{},{},{}",
            n.name,
            n.utilization,
            n.sm_occupancy,
            n.kernels,
            n.pods,
            n.memory_used / (1024 * 1024),
        );
    }
    out
}

/// The per-node utilization/occupancy series plus per-function replica
/// series, concatenated as long-format rows:
/// `series,entity,t_seconds,value`.
pub fn timeseries_csv(report: &PlatformReport) -> String {
    let mut out = String::from("series,entity,t_seconds,value\n");
    let mut push = |series: &str, entity: &str, ts: &TimeSeries| {
        for &(t, v) in ts.points() {
            let _ = writeln!(out, "{series},{entity},{:.3},{v:.6}", t.as_secs_f64());
        }
    };
    for n in &report.nodes {
        push("utilization", &n.name, &n.utilization_series);
        push("sm_occupancy", &n.name, &n.occupancy_series);
    }
    for f in report.functions.values() {
        push("replicas", &f.name, &f.replica_series);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::SharingPolicy;
    use crate::platform::{FunctionConfig, Platform, PlatformConfig};
    use fastg_des::SimTime;
    use fastg_workload::ArrivalProcess;

    fn small_report() -> PlatformReport {
        let mut p = Platform::new(
            PlatformConfig::default()
                .nodes(1)
                .policy(SharingPolicy::FaST)
                .seed(4),
        );
        let f = p
            .deploy(
                FunctionConfig::new("csv-func", "resnet50")
                    .replicas(1)
                    .resources(12.0, 1.0, 1.0),
            )
            .unwrap();
        p.set_load(f, ArrivalProcess::constant(20.0));
        p.run_for(SimTime::from_secs(2))
    }

    #[test]
    fn functions_csv_has_header_and_rows() {
        let csv = functions_csv(&small_report());
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[0].starts_with("function,model,arrivals"));
        assert_eq!(lines.len(), 2);
        assert!(lines[1].starts_with("csv-func,resnet50,"));
        // Column count matches the header.
        assert_eq!(
            lines[0].split(',').count(),
            lines[1].split(',').count()
        );
    }

    #[test]
    fn nodes_csv_has_one_row_per_gpu() {
        let csv = nodes_csv(&small_report());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].starts_with("gpu-worker-0,"));
    }

    #[test]
    fn timeseries_long_format() {
        let csv = timeseries_csv(&small_report());
        assert!(csv.starts_with("series,entity,t_seconds,value\n"));
        assert!(csv.contains("utilization,gpu-worker-0,"));
        assert!(csv.contains("sm_occupancy,gpu-worker-0,"));
        assert!(csv.contains("replicas,csv-func,"));
    }
}

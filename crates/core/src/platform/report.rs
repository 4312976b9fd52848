//! Run reports: the numbers the paper's figures plot, the engine's
//! metric sampling, the report flush and its two catalogue rules.

use super::engine::{schedule_next, Engine, Event};
use super::lifecycle::is_synthetic;
use fastg_cluster::FuncId;
use fastg_des::snap::SnapError;
use fastg_des::{sanitizer, EventQueue, SimTime, TimeSeries};
use std::collections::BTreeMap;

/// Per-function results over a run.
#[derive(Debug, Clone)]
pub struct FunctionReport {
    /// Function name.
    pub name: String,
    /// Model served.
    pub model: String,
    /// Requests that arrived at the gateway.
    pub arrivals: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests shed by the gateway: timed out in the queue, or lost to a
    /// crash with no retry budget left.
    pub dropped: u64,
    /// Requests refused at admission: bounded queue full or circuit
    /// breaker fast-fail (overload control plane only).
    pub rejected: u64,
    /// Requests shed because queue wait plus the estimated service time
    /// proved their deadline unmeetable.
    pub shed_deadline: u64,
    /// Requests admitted while the function served in brownout
    /// (reduced-quota) mode.
    pub browned_out: u64,
    /// Times the function's circuit breaker tripped to Open.
    pub breaker_trips: u64,
    /// Goodput: steady-state SLO-met completions per second after
    /// warm-up — the number overload control exists to protect.
    pub goodput_rps: f64,
    /// Completions that met the SLO.
    pub good_completions: u64,
    /// Wasted work: service time spent on completions that missed their
    /// SLO (capacity burned on already-dead requests).
    pub wasted_service: SimTime,
    /// Time from each detected replica outage to the run of health checks
    /// that restored the desired replica count (recovery controller only;
    /// empty when recovery is off or no outage occurred).
    pub time_to_recovery: Vec<SimTime>,
    /// Steady-state throughput (completions/second after warm-up).
    pub throughput_rps: f64,
    /// Median end-to-end latency.
    pub p50: SimTime,
    /// 95th-percentile latency.
    pub p95: SimTime,
    /// 99th-percentile (tail) latency.
    pub p99: SimTime,
    /// Worst observed latency.
    pub max_latency: SimTime,
    /// Mean latency.
    pub mean_latency: SimTime,
    /// The function's SLO.
    pub slo: SimTime,
    /// Requests over the SLO.
    pub slo_violations: u64,
    /// Violation ratio in `[0, 1]`.
    pub violation_ratio: f64,
    /// Running replica count at the end of the run.
    pub replicas: usize,
    /// Replica count over time (sampled with the metric interval).
    pub replica_series: TimeSeries,
}

/// Per-node (per-GPU) results over a run.
#[derive(Debug, Clone)]
pub struct NodeReport {
    /// Node name.
    pub name: String,
    /// GPU model on this node (e.g. a MIG instance name).
    pub gpu: String,
    /// Mean GPU utilization after warm-up (0..=1).
    pub utilization: f64,
    /// Mean SM occupancy after warm-up (0..=1).
    pub sm_occupancy: f64,
    /// Kernels completed on this GPU.
    pub kernels: u64,
    /// Pods resident at the end of the run.
    pub pods: usize,
    /// Whether the node was still up at the end of the run (`false` after
    /// an injected `NodeCrash`).
    pub up: bool,
    /// Device memory in use at the end of the run (bytes).
    pub memory_used: u64,
    /// Sampled utilization series.
    pub utilization_series: TimeSeries,
    /// Sampled SM-occupancy series.
    pub occupancy_series: TimeSeries,
}

/// The full report for one run.
#[derive(Debug, Clone)]
pub struct PlatformReport {
    /// Simulated time covered.
    pub duration: SimTime,
    /// Warm-up offset steady-state numbers exclude.
    pub warmup: SimTime,
    /// Per-function results, keyed by function id.
    pub functions: BTreeMap<FuncId, FunctionReport>,
    /// Per-node results, in node order.
    pub nodes: Vec<NodeReport>,
    /// Pods the scheduler could not place ("new GPU required" events).
    pub unschedulable_pods: u64,
    /// Faults injected from the configured plan.
    pub faults_injected: u64,
}

impl PlatformReport {

    /// Total steady-state throughput across functions.
    pub fn total_throughput(&self) -> f64 {
        self.functions.values().map(|f| f.throughput_rps).sum()
    }

    /// Total goodput (SLO-met completions/second) across functions.
    pub fn total_goodput(&self) -> f64 {
        self.functions.values().map(|f| f.goodput_rps).sum()
    }

    /// Mean utilization across nodes that ran at least one kernel (the
    /// aggregation Figure 11 reports).
    pub fn mean_utilization_active(&self) -> f64 {
        let active: Vec<&NodeReport> = self.nodes.iter().filter(|n| n.kernels > 0).collect();
        if active.is_empty() {
            return 0.0;
        }
        active.iter().map(|n| n.utilization).sum::<f64>() / active.len() as f64
    }

    /// Mean SM occupancy across active nodes.
    pub fn mean_occupancy_active(&self) -> f64 {
        let active: Vec<&NodeReport> = self.nodes.iter().filter(|n| n.kernels > 0).collect();
        if active.is_empty() {
            return 0.0;
        }
        active.iter().map(|n| n.sm_occupancy).sum::<f64>() / active.len() as f64
    }

    /// Number of GPUs that served kernels.
    pub fn gpus_used(&self) -> usize {
        self.nodes.iter().filter(|n| n.kernels > 0).count()
    }

    /// Renders a compact human-readable summary.
    pub fn summary(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "run: {} (warmup {}) | {} GPUs used | util {:.1}% | SM occ {:.1}%",
            self.duration,
            self.warmup,
            self.gpus_used(),
            self.mean_utilization_active() * 100.0,
            self.mean_occupancy_active() * 100.0,
        );
        for f in self.functions.values() {
            let _ = writeln!(
                s,
                "  {:<24} {:>8.1} rps | p50 {} p99 {} | SLO {} viol {:.2}% | pods {}",
                f.name,
                f.throughput_rps,
                f.p50,
                f.p99,
                f.slo,
                f.violation_ratio * 100.0,
                f.replicas,
            );
        }
        for n in &self.nodes {
            let _ = writeln!(
                s,
                "  {:<24} util {:>5.1}% | SM occ {:>5.1}% | kernels {} | pods {} | mem {} MiB",
                n.name,
                n.utilization * 100.0,
                n.sm_occupancy * 100.0,
                n.kernels,
                n.pods,
                n.memory_used / (1024 * 1024),
            );
        }
        s
    }

    /// A canonical, lossless rendering of every field — floats via their
    /// bit patterns, series sample by sample — used for determinism
    /// regression testing: two runs of the same configuration and seed
    /// must produce the identical string, byte for byte.
    pub fn canonical_text(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let f64b = |v: f64| v.to_bits();
        let series = |s: &mut String, ts: &TimeSeries| {
            for &(t, v) in ts.points() {
                let _ = write!(s, " {}:{:016x}", t.as_micros(), v.to_bits());
            }
        };
        let _ = writeln!(
            s,
            "run duration={} warmup={} unschedulable={} faults={}",
            self.duration.as_micros(),
            self.warmup.as_micros(),
            self.unschedulable_pods,
            self.faults_injected,
        );
        for (id, f) in &self.functions {
            let _ = write!(
                s,
                "fn {id:?} name={} model={} arr={} done={} drop={} rej={} shed={} \
                 brown={} trips={} good={} goodrps={:016x} waste={} rps={:016x} \
                 p50={} p95={} p99={} max={} mean={} slo={} viol={} ratio={:016x} reps={}",
                f.name,
                f.model,
                f.arrivals,
                f.completed,
                f.dropped,
                f.rejected,
                f.shed_deadline,
                f.browned_out,
                f.breaker_trips,
                f.good_completions,
                f64b(f.goodput_rps),
                f.wasted_service.as_micros(),
                f64b(f.throughput_rps),
                f.p50.as_micros(),
                f.p95.as_micros(),
                f.p99.as_micros(),
                f.max_latency.as_micros(),
                f.mean_latency.as_micros(),
                f.slo.as_micros(),
                f.slo_violations,
                f64b(f.violation_ratio),
                f.replicas,
            );
            for ttr in &f.time_to_recovery {
                let _ = write!(s, " ttr={}", ttr.as_micros());
            }
            series(&mut s, &f.replica_series);
            s.push('\n');
        }
        for n in &self.nodes {
            let _ = write!(
                s,
                "node {} gpu={} util={:016x} occ={:016x} kernels={} pods={} up={} mem={}",
                n.name,
                n.gpu,
                f64b(n.utilization),
                f64b(n.sm_occupancy),
                n.kernels,
                n.pods,
                n.up,
                n.memory_used,
            );
            series(&mut s, &n.utilization_series);
            series(&mut s, &n.occupancy_series);
            s.push('\n');
        }
        s
    }

    /// FNV-1a digest of [`Self::canonical_text`]: a compact fingerprint
    /// for byte-identical replay checks.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.canonical_text().bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

impl Engine {
    pub(super) fn on_metrics_sample(&mut self, now: SimTime, queue: &mut EventQueue<Event>) {
        for n in self.nodes.values_mut() {
            n.sample_metrics(now, false);
        }
        for (f, rt) in self.funcs.iter_mut() {
            rt.replica_series.push(now, self.gateway.member_count(f) as f64);
        }
        schedule_next(queue, now, self.cfg.sample_interval, Event::MetricsSample);
        sanitizer::enforce(|| self.check_all(now));
    }

    pub(super) fn build_report(&mut self, now: SimTime) -> PlatformReport {
        debug_assert_eq!(self.check_retry_table(), Ok(()), "the retry table leaked");
        sanitizer::enforce(|| self.check_all(now));
        // Flush a final metric sample so short runs have data.
        for n in self.nodes.values_mut() {
            n.sample_metrics(now, true);
        }
        let warmup = self.cfg.warmup;
        let mut functions = BTreeMap::new();
        for (id, rt) in self.funcs.iter() {
            let hist = rt.slo.histogram();
            let steady_rps = rt.completions.rate_since(warmup, now);
            functions.insert(
                id,
                FunctionReport {
                    name: rt.spec.name.clone(),
                    model: rt.spec.model.clone(),
                    arrivals: self.gateway.total_arrivals(id),
                    completed: rt.completions.count(),
                    throughput_rps: steady_rps,
                    p50: hist.quantile(0.5),
                    p95: hist.quantile(0.95),
                    p99: hist.quantile(0.99),
                    max_latency: hist.max(),
                    mean_latency: hist.mean(),
                    slo: rt.slo.slo(),
                    slo_violations: rt.slo.violations(),
                    violation_ratio: rt.slo.violation_ratio(),
                    replicas: self.gateway.member_count(id),
                    replica_series: rt.replica_series.clone(),
                    dropped: self.gateway.dropped(id),
                    rejected: self.gateway.rejected(id),
                    shed_deadline: self.gateway.shed_deadline(id),
                    browned_out: rt.browned_out,
                    breaker_trips: rt.breaker.trips(),
                    good_completions: rt.goodput.count(),
                    goodput_rps: rt.goodput.rate_since(warmup, now),
                    wasted_service: rt.wasted_service,
                    time_to_recovery: rt.recoveries.clone(),
                },
            );
        }
        let nodes = self.nodes.values().map(|n| n.report(warmup)).collect();
        PlatformReport {
            duration: now,
            warmup,
            functions,
            nodes,
            unschedulable_pods: self.unschedulable,
            faults_injected: self.faults_injected,
        }
    }

    /// The catalogue's overload conservation rule: every arrival at a
    /// function is accounted for exactly once, as
    /// `arrivals = completed + rejected + shed + dropped + queued + in flight`.
    /// Saturating functions are exempt: their synthetic requests bypass
    /// the gateway's arrival accounting.
    pub(super) fn check_overload_conservation(&self) -> Result<(), SnapError> {
        let mut flying: Vec<FuncId> = self
            .all_pods()
            .filter(|p| p.active.as_ref().is_some_and(|a| !is_synthetic(&a.req)))
            .map(|p| p.func)
            .collect();
        flying.sort_unstable();
        let g = &self.gateway;
        for (id, f) in self.funcs.iter().filter(|(_, f)| !f.saturate) {
            let in_flight = flying.partition_point(|&x| x <= id) - flying.partition_point(|&x| x < id);
            let pending = u64::try_from(g.queue_len(id) + in_flight).unwrap_or(u64::MAX);
            let states = [f.completions.count(), g.rejected(id), g.shed_deadline(id), g.dropped(id), pending];
            let accounted = states.iter().try_fold(0u64, |sum, &n| sum.checked_add(n));
            SnapError::ensure(accounted == Some(g.total_arrivals(id)), "overload conservation")?;
        }
        Ok(())
    }

    /// The catalogue's retry-table bound: the gateway's crash-retry table
    /// holds at most one entry per queued or in-flight request, since
    /// every terminal state clears its entry. Every debug build checks it
    /// at each report too.
    pub(super) fn check_retry_table(&self) -> Result<(), SnapError> {
        let queued: usize = self.funcs.keys().map(|f| self.gateway.queue_len(f)).sum();
        let live = queued + self.all_pods().filter(|p| p.active.is_some()).count();
        SnapError::ensure(self.gateway.retries_total() <= u64::try_from(live).unwrap_or(u64::MAX), "gateway retry table")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(kernels: u64, util: f64, occ: f64) -> NodeReport {
        NodeReport {
            name: "n".into(),
            gpu: "test-gpu".into(),
            utilization: util,
            sm_occupancy: occ,
            kernels,
            pods: 0,
            up: true,
            memory_used: 0,
            utilization_series: TimeSeries::new(),
            occupancy_series: TimeSeries::new(),
        }
    }

    #[test]
    fn active_node_aggregation_ignores_idle_gpus() {
        let r = PlatformReport {
            duration: SimTime::from_secs(10),
            warmup: SimTime::ZERO,
            functions: BTreeMap::new(),
            nodes: vec![node(100, 0.8, 0.4), node(0, 0.0, 0.0)],
            unschedulable_pods: 0,
            faults_injected: 0,
        };
        assert_eq!(r.gpus_used(), 1);
        assert!((r.mean_utilization_active() - 0.8).abs() < 1e-9);
        assert!((r.mean_occupancy_active() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn empty_report_is_zeroes() {
        let r = PlatformReport {
            duration: SimTime::ZERO,
            warmup: SimTime::ZERO,
            functions: BTreeMap::new(),
            nodes: vec![],
            unschedulable_pods: 0,
            faults_injected: 0,
        };
        assert_eq!(r.functions.values().map(|f| f.completed).sum::<u64>(), 0);
        assert_eq!(r.total_throughput(), 0.0);
        assert_eq!(r.mean_utilization_active(), 0.0);
        assert!(!r.summary().is_empty());
    }
}

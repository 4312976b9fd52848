//! Platform and function configuration surfaces.

use super::faults::FaultPlan;
use super::overload::OverloadConfig;
use crate::manager::{SchedPolicy, SharingPolicy};
use fastg_des::snap::SnapError;
use fastg_des::{snap_struct, SimTime, TieBreak};
use fastg_gpu::GpuSpec;

/// Cluster-wide configuration. Builder-style setters return `self`.
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// Number of worker nodes (one V100 each).
    pub node_count: usize,
    /// Heterogeneous cluster: explicit per-node GPU specs (e.g. the
    /// instances of a MIG-sliced A100). When set, `node_count` is
    /// ignored.
    pub node_gpus: Option<Vec<GpuSpec>>,
    /// GPU sharing policy.
    pub policy: SharingPolicy,
    /// Quota accounting window. The paper's running example uses 1 s; the
    /// default here is 100 ms, which enforces the same quota fractions at
    /// a granularity compatible with double-digit-millisecond SLOs.
    pub window: SimTime,
    /// Token lease duration (see
    /// [`BackendConfig`](crate::manager::BackendConfig)). `None` picks a
    /// policy-appropriate default: 5 ms for FaST's fine-grained
    /// multi-token rotation, 100 ms for single-token time sharing
    /// (KubeShare-scale slices — the holder keeps the GPU across its
    /// host gaps, which is exactly the inefficiency §5.3 measures).
    pub token_lease: Option<SimTime>,
    /// Whether the model-sharing storage server is used.
    pub model_sharing: bool,
    /// DCGM-style metric sampling period.
    pub sample_interval: SimTime,
    /// Report warm-up: steady-state metrics are computed from this offset.
    pub warmup: SimTime,
    /// Auto-scaler control-loop period.
    pub autoscale_interval: SimTime,
    /// Disables rectangle-based admission control: pods land on the
    /// least-loaded node even when the GPU is spatio-temporally
    /// over-subscribed. §5.3's racing/over-subscription experiments and
    /// Figure 1b's extreme-workload setup need this.
    pub oversubscribe: bool,
    /// Seed for all platform randomness (workload seeds derive from it).
    pub seed: u64,
    /// Deterministic fault-injection schedule. `None` (the default) injects
    /// nothing — runs without a plan are byte-identical to builds that
    /// predate fault injection.
    pub fault_plan: Option<FaultPlan>,
    /// Enables the recovery controller: a periodic health tick compares
    /// each function's running replicas against its desired count and
    /// reschedules missing ones on surviving nodes (with exponential
    /// backoff while no capacity exists).
    pub recovery: bool,
    /// Recovery-controller health-check period.
    pub health_interval: SimTime,
    /// Per-function request timeout as a multiple of the function's SLO:
    /// `Some(3.0)` sheds a request still *queued* 3 SLOs after arrival,
    /// at exactly that instant, and a request a crash lost after that
    /// instant is shed at its retry instead of queueing again. A request
    /// on a pod is never shed. `None` disables timeouts.
    pub request_timeout_factor: Option<f64>,
    /// Maximum times a request may be requeued after losing its pod to a
    /// crash before the gateway sheds it. `None` retries forever.
    pub retry_budget: Option<u32>,
    /// Overload control plane: bounded admission queues, deadline-aware
    /// shedding, per-function circuit breakers and brownout serving, tuned
    /// by the [`overload`](super::overload) module's constants. Off (the
    /// default) keeps the legacy unbounded-queue behaviour.
    pub overload: bool,
    /// Event-coalescing fast-forward: uncontended bursts are advanced
    /// analytically as one macro-event instead of one event per kernel,
    /// with byte-identical reports. On by default; the
    /// `FASTG_FASTFORWARD=0` environment variable (read once, at config
    /// construction) or [`Self::fastforward`] disables it for A/B parity
    /// checks.
    pub fastforward: bool,
    /// Same-instant event ordering policy ([`TieBreak::Fifo`] by
    /// default). `Lifo` and `SeededShuffle` are deterministic adversarial
    /// permutations used by the race detector to prove handler outcomes
    /// do not depend on tie order; shuffles additionally fold in
    /// [`Self::seed`] at platform construction. Overridable via the
    /// `FASTG_TIEBREAK` environment variable (`fifo`, `lifo`, `shuffle`,
    /// `shuffle:<seed>`; read once, at config construction) or
    /// [`Self::tiebreak`].
    pub tiebreak: TieBreak,
    /// Records a `{time} {event:?}` line for every delivered event. Off
    /// by default (it allocates per event); the race detector turns it on
    /// to delta-debug a digest divergence to the first differing event.
    pub trace_events: bool,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            node_count: 1,
            node_gpus: None,
            policy: SharingPolicy::FaST,
            window: SimTime::from_millis(100),
            token_lease: None,
            model_sharing: true,
            sample_interval: SimTime::from_millis(250),
            warmup: SimTime::ZERO,
            autoscale_interval: SimTime::from_secs(2),
            oversubscribe: false,
            seed: 42,
            fault_plan: None,
            recovery: false,
            health_interval: SimTime::from_millis(500),
            request_timeout_factor: None,
            retry_budget: None,
            overload: false,
            fastforward: std::env::var("FASTG_FASTFORWARD").map_or(true, |v| v != "0"),
            tiebreak: std::env::var("FASTG_TIEBREAK")
                .ok()
                .as_deref()
                .and_then(TieBreak::parse)
                .unwrap_or(TieBreak::Fifo),
            trace_events: false,
        }
    }
}

impl PlatformConfig {
    /// Sets the node count.
    pub fn nodes(mut self, n: usize) -> Self {
        self.node_count = n;
        self
    }

    /// Sets the sharing policy.
    pub fn policy(mut self, p: SharingPolicy) -> Self {
        self.policy = p;
        self
    }

    /// Builds a heterogeneous cluster from explicit per-node GPU specs
    /// (e.g. [`fastg_gpu::MigConfig::instances`]).
    pub fn gpus(mut self, specs: Vec<GpuSpec>) -> Self {
        debug_assert!(!specs.is_empty(), "empty GPU list");
        // An empty list would build a node-less platform; ignore it and
        // keep the homogeneous default instead.
        if !specs.is_empty() {
            self.node_gpus = Some(specs);
        }
        self
    }

    /// The effective per-node GPU list.
    pub fn effective_gpus(&self) -> Vec<GpuSpec> {
        match &self.node_gpus {
            Some(list) => list.clone(),
            None => vec![GpuSpec::v100(); self.node_count],
        }
    }

    /// Sets the quota window.
    pub fn window(mut self, w: SimTime) -> Self {
        self.window = w;
        self
    }

    /// Sets the token lease duration (overriding the policy default).
    pub fn token_lease(mut self, d: SimTime) -> Self {
        self.token_lease = Some(d);
        self
    }

    /// The lease duration actually used for the configured policy.
    pub fn effective_token_lease(&self) -> SimTime {
        self.token_lease.unwrap_or(match self.policy {
            crate::manager::SharingPolicy::SingleToken => SimTime::from_millis(100),
            _ => SimTime::from_millis(5),
        })
    }

    /// Enables/disables model sharing.
    pub fn model_sharing(mut self, on: bool) -> Self {
        self.model_sharing = on;
        self
    }

    /// Sets the report warm-up offset.
    pub fn warmup(mut self, w: SimTime) -> Self {
        self.warmup = w;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Sets the metric sampling period.
    pub fn sample_interval(mut self, d: SimTime) -> Self {
        self.sample_interval = d;
        self
    }

    /// Sets the auto-scaler period.
    pub fn autoscale_interval(mut self, d: SimTime) -> Self {
        self.autoscale_interval = d;
        self
    }

    /// Allows spatio-temporal over-subscription (no placement admission).
    pub fn oversubscribe(mut self, on: bool) -> Self {
        self.oversubscribe = on;
        self
    }

    /// Attaches a fault-injection plan.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Enables/disables the recovery controller.
    pub fn recovery(mut self, on: bool) -> Self {
        self.recovery = on;
        self
    }

    /// Sets the recovery-controller health-check period.
    pub fn health_interval(mut self, d: SimTime) -> Self {
        debug_assert!(d > SimTime::ZERO, "zero health interval");
        self.health_interval = d.max(SimTime::from_micros(1));
        self
    }

    /// Sheds requests still queued `factor × SLO` after arrival.
    pub fn request_timeout_factor(mut self, factor: f64) -> Self {
        debug_assert!(factor > 0.0, "non-positive timeout factor");
        if factor > 0.0 {
            self.request_timeout_factor = Some(factor);
        }
        self
    }

    /// Caps crash-requeues per request before the gateway sheds it.
    pub fn retry_budget(mut self, budget: u32) -> Self {
        self.retry_budget = Some(budget);
        self
    }

    /// Attaches the overload control plane (bounded admission, deadline
    /// shedding, circuit breaking, brownout); the same as
    /// `overload_control(true)`.
    pub fn overload(self, _cfg: OverloadConfig) -> Self {
        self.overload_control(true)
    }

    /// Enables or disables the overload control plane.
    pub fn overload_control(mut self, on: bool) -> Self {
        self.overload = on;
        self
    }

    /// Enables or disables the event-coalescing fast-forward layer
    /// (overrides the `FASTG_FASTFORWARD` environment default).
    pub fn fastforward(mut self, on: bool) -> Self {
        self.fastforward = on;
        self
    }

    /// Inert: accepts and ignores its argument. Cluster-level
    /// fast-forward was removed; this builder survives only because the
    /// `fastg-bench` suite still pins it off, and it goes away together
    /// with that suite's `gpu.cluster_ff_cycles` metric in a later
    /// benchmark change.
    pub fn cluster_fastforward(self, _on: bool) -> Self {
        self
    }

    /// Selects the placement engine. [`SchedPolicy::Paper`] is the only
    /// one, so this changes nothing; it stays for configs that name it.
    pub fn scheduler(self, _sched: SchedPolicy) -> Self {
        self
    }

    /// Sets the same-instant tie-break policy (overrides the
    /// `FASTG_TIEBREAK` environment default).
    pub fn tiebreak(mut self, tiebreak: TieBreak) -> Self {
        self.tiebreak = tiebreak;
        self
    }

    /// Enables or disables per-event trace recording (see
    /// [`Platform::event_trace`](super::Platform::event_trace)).
    pub fn trace_events(mut self, on: bool) -> Self {
        self.trace_events = on;
        self
    }
}

snap_struct!(PlatformConfig {
    node_count, node_gpus, policy, window, token_lease, model_sharing, sample_interval, warmup,
    autoscale_interval, oversubscribe, seed, fault_plan, recovery, health_interval,
    request_timeout_factor, retry_budget, overload, fastforward, tiebreak, trace_events,
} check |c| {
    // A crashed node's backend is rebuilt from this lease, and
    // `FastBackend::new` requires it to be positive.
    if c.token_lease == Some(SimTime::ZERO) {
        return Err(SnapError::new("config token lease"));
    }
    // The setter stores only positive factors.
    if c.request_timeout_factor.is_some_and(|f| f.is_nan() || f <= 0.0) {
        return Err(SnapError::new("config timeout factor"));
    }
    // Each periodic handler reschedules itself one period on: a zero
    // period would re-fire at the same instant forever.
    for (period, what) in [
        (c.window, "config window"),
        (c.sample_interval, "config sample interval"),
        (c.autoscale_interval, "config autoscale interval"),
        (c.health_interval, "config health interval"),
    ] {
        if period == SimTime::ZERO {
            return Err(SnapError::new(what));
        }
    }
    Ok(())
});

/// Per-function deployment configuration.
#[derive(Debug, Clone)]
pub struct FunctionConfig {
    /// Function name (e.g. `fastsvc-resnet-q40-p12`).
    pub name: String,
    /// Model zoo name (e.g. `resnet50`).
    pub model: String,
    /// Latency SLO.
    pub slo: SimTime,
    /// Initial replica count.
    pub replicas: usize,
    /// Initial resources: `(sm_partition %, quota_request, quota_limit)`.
    pub resources: (f64, f64, f64),
    /// Closed-loop saturating load instead of an arrival process (used by
    /// the profiler: the pod is re-armed with a new request the moment it
    /// finishes one).
    pub saturate: bool,
}

impl FunctionConfig {
    /// A function serving `model` with defaults: one replica, whole GPU,
    /// 1 s SLO.
    pub fn new(name: &str, model: &str) -> Self {
        FunctionConfig {
            name: name.to_string(),
            model: model.to_string(),
            slo: SimTime::from_secs(1),
            replicas: 1,
            resources: (100.0, 1.0, 1.0),
            saturate: false,
        }
    }

    /// Sets the SLO in milliseconds.
    pub fn slo_ms(mut self, ms: u64) -> Self {
        self.slo = SimTime::from_millis(ms);
        self
    }

    /// Sets the initial replica count.
    pub fn replicas(mut self, n: usize) -> Self {
        self.replicas = n;
        self
    }

    /// Sets the spatio-temporal resources.
    pub fn resources(mut self, sm_partition: f64, quota_request: f64, quota_limit: f64) -> Self {
        self.resources = (sm_partition, quota_request, quota_limit);
        self
    }

    /// Marks the function for closed-loop saturating load.
    pub fn saturating(mut self) -> Self {
        self.saturate = true;
        self
    }

    /// Parses a FaSTFunc manifest (the JSON equivalent of the paper's
    /// Figure 4 CRD): `metadata.name`, the `faasshare/*` resource
    /// annotations, and `spec.{model, replicas, slo_ms}`.
    ///
    /// ```
    /// let manifest = r#"{
    ///   "apiVersion": "fastgshare.caps.in.tum.de/v1",
    ///   "kind": "FaSTFunc",
    ///   "metadata": {
    ///     "name": "fastsvc-rnnt-q30-p24",
    ///     "annotations": {
    ///       "faasshare/sm_partition": "24",
    ///       "faasshare/quota_request": "0.3",
    ///       "faasshare/quota_limit": "0.8"
    ///     }
    ///   },
    ///   "spec": { "model": "rnnt", "replicas": 2, "slo_ms": 500 }
    /// }"#;
    /// let fc = fastgshare::platform::FunctionConfig::from_manifest(manifest).unwrap();
    /// assert_eq!(fc.model, "rnnt");
    /// assert_eq!(fc.replicas, 2);
    /// assert_eq!(fc.resources, (24.0, 0.3, 0.8));
    /// ```
    pub fn from_manifest(json: &str) -> Result<Self, String> {
        let v = fastg_json::Value::parse(json).map_err(|e| format!("invalid JSON: {e}"))?;
        if v["kind"].as_str() != Some("FaSTFunc") {
            return Err(format!(
                "manifest kind must be FaSTFunc, got {:?}",
                v["kind"]
            ));
        }
        let name = v["metadata"]["name"]
            .as_str()
            .ok_or("metadata.name missing")?;
        let model = v["spec"]["model"].as_str().ok_or("spec.model missing")?;
        let annotations = &v["metadata"]["annotations"];
        // Annotations are strings in CRDs (Figure 4); numbers are also
        // accepted for convenience.
        let ann = |key: &str, default: f64| -> Result<f64, String> {
            let val = &annotations[format!("faasshare/{key}")];
            if val.is_null() {
                return Ok(default);
            }
            val.as_str()
                .map(|s| s.parse::<f64>().map_err(|e| format!("faasshare/{key}: {e}")))
                .unwrap_or_else(|| {
                    val.as_f64()
                        .ok_or_else(|| format!("faasshare/{key}: not a number"))
                })
        };
        let sm = ann("sm_partition", 100.0)?;
        let q_req = ann("quota_request", 1.0)?;
        let q_lim = ann("quota_limit", q_req.max(1.0))?;
        // The ranges `ResourceSpec::new` holds deployed specs to (NaN
        // fails every comparison), so an accepted manifest deploys.
        if !(sm > 0.0 && sm <= 100.0) {
            return Err(format!("faasshare/sm_partition: {sm} is outside (0, 100]"));
        }
        if !(q_lim > 0.0 && q_lim <= 1.0) {
            return Err(format!("faasshare/quota_limit: {q_lim} is outside (0, 1]"));
        }
        if !(q_req >= 0.0 && q_req <= q_lim) {
            return Err(format!("faasshare/quota_request: {q_req} is outside [0, {q_lim}]"));
        }
        let replicas = usize::try_from(v["spec"]["replicas"].as_u64().unwrap_or(1)).unwrap_or(usize::MAX);
        let slo_ms = v["spec"]["slo_ms"].as_u64().unwrap_or(1_000);
        if slo_ms == 0 || slo_ms.checked_mul(1_000).is_none() {
            return Err(format!("spec.slo_ms: {slo_ms} ms is not a positive time in µs"));
        }
        Ok(FunctionConfig::new(name, model)
            .replicas(replicas)
            .resources(sm, q_req, q_lim)
            .slo_ms(slo_ms))
    }
}

snap_struct!(FunctionConfig { name, model, slo, replicas, resources, saturate } check |f| {
    let (sm, request, limit) = f.resources;
    if !(sm.is_finite() && limit.is_finite() && request.is_finite()) {
        return Err(SnapError::new("function resources"));
    }
    Ok(())
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = PlatformConfig::default();
        assert_eq!(c.node_count, 1);
        assert_eq!(c.policy, SharingPolicy::FaST);
        assert!(c.window > SimTime::ZERO);
        assert!(!c.overload);
        assert_eq!(c.effective_gpus(), vec![GpuSpec::v100()]);
    }

    #[test]
    fn builder_chain() {
        let c = PlatformConfig::default()
            .nodes(4)
            .policy(SharingPolicy::Racing)
            .window(SimTime::from_millis(50))
            .model_sharing(false)
            .seed(7);
        assert_eq!(c.node_count, 4);
        assert_eq!(c.policy, SharingPolicy::Racing);
        assert_eq!(c.window, SimTime::from_millis(50));
        assert!(!c.model_sharing);
        assert_eq!(c.seed, 7);
    }

    #[test]
    fn function_builder() {
        let f = FunctionConfig::new("fastsvc-rnnt", "rnnt")
            .slo_ms(500)
            .replicas(3)
            .resources(24.0, 0.3, 0.8)
            .saturating();
        assert_eq!(f.slo, SimTime::from_millis(500));
        assert_eq!(f.replicas, 3);
        assert_eq!(f.resources, (24.0, 0.3, 0.8));
        assert!(f.saturate);
    }

    #[test]
    fn manifest_defaults_apply() {
        let fc = FunctionConfig::from_manifest(
            r#"{"kind":"FaSTFunc","metadata":{"name":"f"},"spec":{"model":"resnet50"}}"#,
        )
        .unwrap();
        assert_eq!(fc.replicas, 1);
        assert_eq!(fc.resources, (100.0, 1.0, 1.0));
        assert_eq!(fc.slo, SimTime::from_millis(1_000));
    }

    #[test]
    fn manifest_numeric_annotations_accepted() {
        let fc = FunctionConfig::from_manifest(
            r#"{"kind":"FaSTFunc",
                "metadata":{"name":"f","annotations":{
                    "faasshare/sm_partition":12,
                    "faasshare/quota_request":0.4,
                    "faasshare/quota_limit":0.9}},
                "spec":{"model":"resnet50","replicas":3,"slo_ms":69}}"#,
        )
        .unwrap();
        assert_eq!(fc.resources, (12.0, 0.4, 0.9));
        assert_eq!(fc.replicas, 3);
        assert_eq!(fc.slo, SimTime::from_millis(69));
    }

    #[test]
    fn manifest_rejects_wrong_kind() {
        let err = FunctionConfig::from_manifest(
            r#"{"kind":"Deployment","metadata":{"name":"f"},"spec":{"model":"resnet50"}}"#,
        );
        assert!(err.is_err());
        assert!(FunctionConfig::from_manifest("not json").is_err());
        assert!(FunctionConfig::from_manifest(
            r#"{"kind":"FaSTFunc","metadata":{},"spec":{"model":"x"}}"#
        )
        .is_err());
        // An SLO that does not fit in µs.
        assert!(FunctionConfig::from_manifest(
            r#"{"kind":"FaSTFunc","metadata":{"name":"f"},
                "spec":{"model":"resnet50","slo_ms":18446744073709552}}"#
        )
        .is_err());
    }

    /// A config a live platform could not run must not restore. A zero
    /// period makes its periodic handler re-fire at the same instant
    /// forever; a zero lease trips the backend rebuilt after a node crash;
    /// a timeout factor that is NaN or not positive scales the SLO into a
    /// negative or undefined deadline. Each case re-encodes a live
    /// snapshot's config with one field corrupted.
    #[test]
    fn invalid_config_snapshots_are_rejected() {
        use crate::platform::{Platform, Snapshot};
        use fastg_des::snap::{Snap, SnapReader, SnapWriter};
        let live = Platform::new(PlatformConfig::default().recovery(true)).checkpoint();
        let payload = live.payload().unwrap();
        let mut r = SnapReader::new(payload);
        let now = SimTime::unsnap(&mut r).unwrap();
        let handled = u64::unsnap(&mut r).unwrap();
        let cfg = PlatformConfig::unsnap(&mut r).unwrap();
        let rest = &payload[payload.len() - r.remaining()..];
        type Corrupt = fn(&mut PlatformConfig);
        let cases: [(&str, Corrupt); 8] = [
            ("config window", |c| c.window = SimTime::ZERO),
            ("config sample interval", |c| {
                c.sample_interval = SimTime::ZERO
            }),
            ("config autoscale interval", |c| {
                c.autoscale_interval = SimTime::ZERO
            }),
            ("config health interval", |c| {
                c.health_interval = SimTime::ZERO
            }),
            ("config token lease", |c| c.token_lease = Some(SimTime::ZERO)),
            ("config timeout factor", |c| {
                c.request_timeout_factor = Some(f64::NAN)
            }),
            ("config timeout factor", |c| {
                c.request_timeout_factor = Some(0.0)
            }),
            ("config timeout factor", |c| {
                c.request_timeout_factor = Some(-1.0)
            }),
        ];
        let restore = |cfg: &PlatformConfig| {
            let mut w = SnapWriter::new();
            now.snap(&mut w);
            handled.snap(&mut w);
            cfg.snap(&mut w);
            let mut bytes = w.finish();
            bytes.extend_from_slice(rest);
            Platform::from_snapshot(&Snapshot::seal(bytes)).map(|_| ())
        };
        assert_eq!(restore(&cfg), Ok(()));
        for (what, corrupt) in cases {
            let mut bad = cfg.clone();
            corrupt(&mut bad);
            assert_eq!(restore(&bad), Err(SnapError::new(what)), "{what}");
        }
    }

    /// A timeout factor so large that the deadline overflows the clock
    /// puts the deadline at the end of time: the timeout never fires, and
    /// the run matches one without timeouts.
    #[test]
    fn huge_timeout_factor_never_fires() {
        use crate::platform::Platform;
        use fastg_workload::ArrivalProcess;
        let run = |factor: Option<f64>| {
            let mut cfg = PlatformConfig::default().nodes(1).seed(3);
            if let Some(factor) = factor {
                cfg = cfg.request_timeout_factor(factor);
            }
            let mut p = Platform::new(cfg);
            let f = p
                .deploy(
                    FunctionConfig::new("f", "resnet50")
                        .replicas(1)
                        .resources(12.0, 0.5, 1.0),
                )
                .unwrap();
            p.set_load(f, ArrivalProcess::poisson(40.0, 7));
            p.run_for(SimTime::from_secs(1)).canonical_text()
        };
        let untimed = run(None);
        for factor in [1e300, f64::INFINITY] {
            assert_eq!(run(Some(factor)), untimed, "factor {factor}");
        }
    }

    use proptest::prelude::*;

    /// One change to a valid manifest.
    #[derive(Debug, Clone)]
    enum Mutation {
        /// Flips bit `.1` of byte `.0` (modulo the length).
        Flip(usize, u8),
        /// Keeps the first `.0` bytes (modulo the length).
        Truncate(usize),
        /// Writes field `.0` as [`ODD_VALUES`]`[.1]`.
        Replace(usize, usize),
        /// Leaves field `.0` out.
        Drop(usize),
        /// Writes field `.0` twice, the second time as [`ODD_VALUES`]`[.1]`.
        Duplicate(usize, usize),
    }

    /// Values no valid manifest holds: NaN, ±∞, subnormals, zero, negative
    /// and huge numbers, as annotation strings and as JSON numbers.
    const ODD_VALUES: [&str; 15] = [
        "\"NaN\"", "\"inf\"", "\"-inf\"", "\"1e400\"", "\"-1\"", "\"5e-324\"", "\"0\"", "\"\"",
        "-1", "0", "1e300", "-1e300", "4.9e-324", "18446744073709551615", "18446744073709551616",
    ];

    /// The fields of a valid manifest, as `(section, key, JSON value)`.
    fn manifest_fields(
        (sm, a, b): (u32, u32, u32),
        replicas: u64,
        slo_ms: u64,
        model: &str,
    ) -> Vec<(&'static str, &'static str, String)> {
        let pct = |v: u32| format!("\"{}\"", f64::from(v) / 100.0);
        vec![
            ("", "kind", "\"FaSTFunc\"".to_string()),
            ("metadata", "name", "\"f\"".to_string()),
            ("annotations", "faasshare/sm_partition", format!("\"{sm}\"")),
            ("annotations", "faasshare/quota_request", pct(a.min(b))),
            ("annotations", "faasshare/quota_limit", pct(a.max(b))),
            ("spec", "model", format!("\"{model}\"")),
            ("spec", "replicas", replicas.to_string()),
            ("spec", "slo_ms", slo_ms.to_string()),
        ]
    }

    /// The manifest's JSON text, each section's fields in order.
    fn render(fields: &[(&str, &str, String)]) -> String {
        let section = |name: &str| {
            fields
                .iter()
                .filter(|(s, _, _)| *s == name)
                .map(|(_, k, v)| format!("\"{k}\":{v}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        format!(
            "{{{},\"metadata\":{{{},\"annotations\":{{{}}}}},\"spec\":{{{}}}}}",
            section(""),
            section("metadata"),
            section("annotations"),
            section("spec")
        )
    }

    /// Mutations, weighted towards odd values in the fields the parser
    /// reads numbers from (fields 2 to 7).
    fn mutation() -> impl Strategy<Value = Mutation> {
        let odd = || (2usize..8, 0usize..ODD_VALUES.len());
        prop_oneof![
            (0usize..4096, 0u8..8).prop_map(|(at, bit)| Mutation::Flip(at, bit)),
            (0usize..4096).prop_map(Mutation::Truncate),
            odd().prop_map(|(f, v)| Mutation::Replace(f, v)),
            odd().prop_map(|(f, v)| Mutation::Replace(f, v)),
            odd().prop_map(|(f, v)| Mutation::Replace(f, v)),
            (0usize..8).prop_map(Mutation::Drop),
            odd().prop_map(|(f, v)| Mutation::Duplicate(f, v)),
        ]
    }

    /// A valid manifest with `mutations` applied, fields first, bytes last.
    fn mutated_manifest(mut fields: Vec<(&'static str, &'static str, String)>, mutations: &[Mutation]) -> String {
        for m in mutations {
            match *m {
                Mutation::Replace(f, v) => fields[f].2 = ODD_VALUES[v].to_string(),
                Mutation::Duplicate(f, v) => {
                    let (section, key, _) = fields[f].clone();
                    fields.push((section, key, ODD_VALUES[v].to_string()));
                }
                _ => {}
            }
        }
        for m in mutations {
            if let Mutation::Drop(f) = *m {
                fields[f].2.clear();
            }
        }
        fields.retain(|(_, _, v)| !v.is_empty());
        let mut bytes = render(&fields).into_bytes();
        for m in mutations {
            match *m {
                Mutation::Flip(at, bit) => {
                    let len = bytes.len().max(1);
                    if let Some(b) = bytes.get_mut(at % len) {
                        *b ^= 1 << bit;
                    }
                }
                Mutation::Truncate(len) => bytes.truncate(len % (bytes.len() + 1)),
                _ => {}
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    /// `fastgshare apply` on `text`, on the platform the CLI builds: the
    /// parser answers `Ok` or `Err`, and an accepted manifest deploys and
    /// serves a few requests, or fails with a typed error. Nothing panics.
    fn apply(text: &str) {
        use crate::platform::Platform;
        use fastg_workload::ArrivalProcess;
        let Ok(fc) = FunctionConfig::from_manifest(text) else {
            return;
        };
        let cfg = PlatformConfig::default()
            .nodes(1)
            .policy(SharingPolicy::FaST)
            .warmup(SimTime::from_secs(1))
            .seed(42);
        let mut p = Platform::new(cfg);
        if let Ok(f) = p.deploy(fc) {
            p.set_load(f, ArrivalProcess::poisson(100.0, 7));
            p.run_for(SimTime::from_millis(30));
        }
    }

    /// The cases `mutated_manifests_deploy_or_fail_typed` found: each
    /// manifest used to parse, and its deploy then panicked in debug
    /// builds (a resource outside the range `ResourceSpec::new` asserts,
    /// a zero SLO). Each row is one valid manifest with one field changed.
    #[test]
    fn manifests_that_cannot_deploy_are_refused() {
        let valid = manifest_fields((24, 30, 80), 2, 500, "rnnt");
        assert!(FunctionConfig::from_manifest(&render(&valid)).is_ok());
        for (field, value) in [
            (3, "\"-1\""),   // quota_request below zero
            (2, "\"150\""),  // sm_partition above 100 %
            (2, "0"),        // no SMs at all
            (4, "\"NaN\""),  // quota_limit NaN
            (4, "1e300"),    // quota_limit above 1
            (3, "\"0.9\""),  // quota_request above quota_limit
            (7, "0"),        // a zero SLO
        ] {
            let mut fields = valid.clone();
            fields[field].2 = value.to_string();
            let text = render(&fields);
            assert!(FunctionConfig::from_manifest(&text).is_err(), "{text}");
            apply(&text);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 1024 } else { 4096 }))]

        /// The CLI's manifest parser, the one JSON entry point for
        /// untrusted input, over mutated valid manifests.
        #[test]
        fn mutated_manifests_deploy_or_fail_typed(
            resources in (1u32..=100, 0u32..=100, 1u32..=100),
            replicas in 0u64..5,
            slo_ms in 1u64..2_000,
            model in 0usize..4,
            mutations in prop::collection::vec(mutation(), 0..4),
        ) {
            let model = ["resnet50", "rnnt", "bert_base", "nope"][model];
            apply(&mutated_manifest(manifest_fields(resources, replicas, slo_ms, model), &mutations));
        }
    }
}

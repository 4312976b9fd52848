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
    /// GPU model per node (default: V100).
    pub gpu: GpuSpec,
    /// Number of worker nodes (one GPU each).
    pub node_count: usize,
    /// Heterogeneous cluster: explicit per-node GPU specs (e.g. the
    /// instances of a MIG-sliced A100). When set, `gpu`/`node_count` are
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
    /// SM Allocation Adapter global limit (percent).
    pub sm_global_limit: f64,
    /// Whether the model-sharing storage server is used.
    pub model_sharing: bool,
    /// DCGM-style metric sampling period.
    pub sample_interval: SimTime,
    /// Report warm-up: steady-state metrics are computed from this offset.
    pub warmup: SimTime,
    /// Auto-scaler control-loop period.
    pub autoscale_interval: SimTime,
    /// Capacity headroom the auto-scaler plans for (1.15 = provision 15 %
    /// above the predicted rate, absorbing Poisson bursts within a
    /// window).
    pub autoscale_headroom: f64,
    /// Trailing window for gateway arrival-rate prediction.
    pub predict_window: SimTime,
    /// The auto-scaler never drains a function below this replica count.
    pub min_replicas: usize,
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
    /// Per-function request timeout as a multiple of the function's SLO
    /// (e.g. `Some(3.0)` sheds a request still *queued* 3 SLOs after
    /// arrival). `None` disables timeouts.
    pub request_timeout_factor: Option<f64>,
    /// Maximum times a request may be requeued after losing its pod to a
    /// crash before the gateway sheds it. `None` retries forever.
    pub retry_budget: Option<u32>,
    /// Overload control plane: bounded admission queues, deadline-aware
    /// shedding, per-function circuit breakers and brownout serving.
    /// `None` (the default) keeps the legacy unbounded-queue behaviour.
    pub overload: Option<OverloadConfig>,
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
            gpu: GpuSpec::v100(),
            node_count: 1,
            node_gpus: None,
            policy: SharingPolicy::FaST,
            window: SimTime::from_millis(100),
            token_lease: None,
            sm_global_limit: 100.0,
            model_sharing: true,
            sample_interval: SimTime::from_millis(250),
            warmup: SimTime::ZERO,
            autoscale_interval: SimTime::from_secs(2),
            autoscale_headroom: 1.15,
            predict_window: SimTime::from_secs(4),
            min_replicas: 1,
            oversubscribe: false,
            seed: 42,
            fault_plan: None,
            recovery: false,
            health_interval: SimTime::from_millis(500),
            request_timeout_factor: None,
            retry_budget: None,
            overload: None,
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

    /// Sets the GPU spec for every node.
    pub fn gpu(mut self, g: GpuSpec) -> Self {
        self.gpu = g;
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
            None => vec![self.gpu.clone(); self.node_count],
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

    /// Sets the auto-scaler headroom factor.
    pub fn autoscale_headroom(mut self, h: f64) -> Self {
        debug_assert!(h >= 1.0, "headroom below 1 under-provisions by design");
        self.autoscale_headroom = if h.is_finite() { h.max(1.0) } else { 1.0 };
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
    /// shedding, circuit breaking, brownout).
    pub fn overload(mut self, cfg: OverloadConfig) -> Self {
        self.overload = Some(cfg);
        self
    }

    /// Enables the overload control plane with default tuning, or
    /// disables it entirely.
    pub fn overload_control(mut self, on: bool) -> Self {
        self.overload = if on {
            Some(OverloadConfig::default())
        } else {
            None
        };
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
    gpu, node_count, node_gpus, policy, window, token_lease, sm_global_limit, model_sharing,
    sample_interval, warmup, autoscale_interval, autoscale_headroom, predict_window,
    min_replicas, oversubscribe, seed, fault_plan, recovery, health_interval,
    request_timeout_factor, retry_budget, overload, fastforward, tiebreak, trace_events,
} check |c| {
    if !(c.sm_global_limit.is_finite() && c.sm_global_limit > 0.0) {
        return Err(SnapError::new("config sm limit"));
    }
    if !(c.autoscale_headroom.is_finite() && c.autoscale_headroom >= 1.0) {
        return Err(SnapError::new("config headroom"));
    }
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
        let replicas = usize::try_from(v["spec"]["replicas"].as_u64().unwrap_or(1)).unwrap_or(usize::MAX);
        let slo_ms = v["spec"]["slo_ms"].as_u64().unwrap_or(1_000);
        if slo_ms.checked_mul(1_000).is_none() {
            return Err(format!("spec.slo_ms: {slo_ms} ms does not fit in µs"));
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
        assert!(c.autoscale_headroom >= 1.0);
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
    #[should_panic(expected = "headroom")]
    fn headroom_below_one_rejected() {
        PlatformConfig::default().autoscale_headroom(0.5);
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
}

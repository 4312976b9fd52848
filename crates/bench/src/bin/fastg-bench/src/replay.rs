//! Replay drivers: each calls one layer's public API in isolation, with
//! the operation counts and pod mix a workload produced, to price the
//! layer's work that is buried inside `Platform::run_for`.
//!
//! Every driver returns wall time per operation: nanoseconds, or
//! milliseconds per profiler trial. Op counts are
//! capped so a traced run stays within its time budget; the cap only
//! shortens the measurement, the shapes stay the workload's.

use crate::run::{count, sms_of, PodShape, Shape};
use fastg_cluster::{Admission, FuncId, Gateway, NodeId, PodId, ResourceSpec};
use fastg_des::{EventQueue, SimTime};
use fastg_gpu::{ClientId, GpuDevice, GpuSpec, KernelDesc, KernelId, KernelStart, MpsMode};
use fastg_models::KernelSpec;
use fastgshare::manager::{BackendConfig, FastBackend, RequestOutcome, SharingPolicy};
use fastgshare::profiler::{ConfigServer, Experiment};
use fastgshare::scheduler::{NodeSelector, PlacementPolicy, Scheduler};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Drivers that repeat their pass until they have measured this long.
const MIN_MEASURE_S: f64 = 0.02;

fn ns_per(t0: Instant, ops: u64) -> f64 {
    t0.elapsed().as_secs_f64() * 1e9 / ops.max(1) as f64
}

/// A deterministic xorshift stream.
struct Xs(u64);

impl Xs {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

fn filled_queue(depth: usize, rng: &mut Xs) -> EventQueue<u64> {
    let mut q = EventQueue::with_capacity(depth + 1);
    for i in 0..depth {
        q.schedule(SimTime::from_micros(rng.next() % 1_000), count(i));
    }
    q
}

/// `EventQueue` hold model: `ops` × (`pop` + `schedule`) at a steady
/// depth of `depth` pending events.
pub fn des_queue(depth: usize, ops: u64) -> f64 {
    let mut rng = Xs(0x9E37_79B9_7F4A_7C15);
    let mut q = filled_queue(depth, &mut rng);
    let t0 = Instant::now();
    for _ in 0..ops {
        let Some((t, e)) = q.pop() else { break };
        q.schedule(
            t + SimTime::from_micros(1 + rng.next() % 1_000),
            black_box(e),
        );
    }
    ns_per(t0, ops)
}

/// `ops` × (`schedule_cancellable` + `cancel`) on a queue at depth
/// `depth`: request timeouts revoked when the request completes.
pub fn des_cancel(depth: usize, ops: u64) -> f64 {
    let mut rng = Xs(0xD1B5_4A32_D192_ED03);
    let mut q = filled_queue(depth, &mut rng);
    let far = SimTime::from_secs(1_000);
    let t0 = Instant::now();
    for i in 0..ops {
        let tok = q.schedule_cancellable(far + SimTime::from_micros(rng.next() % 1_000), i);
        black_box(q.cancel(tok));
    }
    ns_per(t0, ops)
}

/// Places every pod of `shape` through a fresh paper scheduler in deploy
/// order, then releases and re-places `churn` of them; repeated until
/// ~20 ms are measured. Returns ns per placement or release and the
/// per-GPU pod mix (indices into `shape.pods`) of the first pass.
pub fn scheduler(shape: &Shape, churn: u64) -> (f64, Vec<Vec<usize>>) {
    let specs: Vec<ResourceSpec> = shape
        .pods
        .iter()
        .map(|p| ResourceSpec::new(p.sm, p.quota, p.quota, 0))
        .collect();
    let nodes: Vec<NodeId> = (0..shape.nodes)
        .map(|i| NodeId(u32::try_from(i).unwrap_or(u32::MAX)))
        .collect();
    let mut mixes: Vec<Vec<usize>> = Vec::new();
    let (mut ops, mut elapsed) = (0u64, 0.0f64);
    while elapsed < MIN_MEASURE_S || ops == 0 {
        let mut sched: Box<dyn Scheduler> =
            Box::new(NodeSelector::new(PlacementPolicy::MaximalRectangles));
        for &n in &nodes {
            sched.add_gpu(n);
        }
        let mut placed: Vec<Option<NodeId>> = vec![None; specs.len()];
        let place = |sched: &mut Box<dyn Scheduler>, i: usize| {
            let node = sched.select_node(&specs[i], &mut |_| true)?;
            sched.bind(node, PodId(count(i)), &specs[i]).map(|_| node)
        };
        let t0 = Instant::now();
        for (i, slot) in placed.iter_mut().enumerate() {
            *slot = place(&mut sched, i);
            ops += 1;
        }
        let pods = count(specs.len()).max(1);
        for k in 0..churn {
            let i = usize::try_from(k.wrapping_mul(7_919) % pods).unwrap_or(0);
            if let Some(node) = placed[i] {
                sched.release(node, PodId(count(i)));
                placed[i] = place(&mut sched, i);
                ops += 2;
            }
        }
        elapsed += t0.elapsed().as_secs_f64();
        if mixes.is_empty() {
            mixes = vec![Vec::new(); nodes.len()];
            for (i, node) in placed.iter().enumerate() {
                if let Some(n) = node.and_then(|n| usize::try_from(n.0).ok()) {
                    mixes[n].push(i);
                }
            }
            mixes.retain(|m| !m.is_empty());
        }
    }
    (elapsed * 1e9 / ops as f64, mixes)
}

/// One MPS client replaying its model's kernel sequence.
struct Stream {
    client: ClientId,
    kernels: Vec<KernelSpec>,
    next: usize,
}

impl Stream {
    fn launch(&mut self, dev: &mut GpuDevice, now: SimTime) -> Option<KernelStart> {
        let k = self.kernels[self.next % self.kernels.len()];
        self.next += 1;
        let desc = KernelDesc {
            blocks: k.blocks,
            work_per_block: k.work_per_block,
            tag: 0,
        };
        dev.launch(now, self.client, desc).ok().flatten()
    }
}

/// Kernel stepping on one device per GPU mix: every pod keeps one kernel
/// of its model in flight (`launch`), completions are processed in time
/// order (`on_kernel_finish_into`). Returns ns per completed kernel.
pub fn gpu(pods: &[PodShape], mixes: &[Vec<usize>], kernels: u64) -> f64 {
    let per_mix = (kernels / count(mixes.len()).max(1)).max(1);
    let mut done = 0u64;
    let t0 = Instant::now();
    for mix in mixes {
        let mut dev = GpuDevice::new(GpuSpec::v100(), MpsMode::Shared);
        let mut streams: Vec<Stream> = Vec::new();
        for &i in mix {
            let kernels: Vec<KernelSpec> = fastg_models::zoo::by_name(pods[i].model)
                .map(|m| {
                    m.stages
                        .iter()
                        .flat_map(|s| s.kernels.iter().copied())
                        .collect()
                })
                .unwrap_or_default();
            if let (Ok(client), false) = (dev.register_client(pods[i].sm), kernels.is_empty()) {
                streams.push(Stream {
                    client,
                    kernels,
                    next: 0,
                });
            }
        }
        // (finish time, kernel, stream index)
        let mut pending: BinaryHeap<Reverse<(SimTime, u64, usize)>> = BinaryHeap::new();
        for (idx, st) in streams.iter_mut().enumerate() {
            if let Some(s) = st.launch(&mut dev, SimTime::ZERO) {
                pending.push(Reverse((s.finish_at, s.kernel.0, idx)));
            }
        }
        let mut started: Vec<KernelStart> = Vec::new();
        let mut mix_done = 0u64;
        while mix_done < per_mix {
            let Some(Reverse((now, kernel, idx))) = pending.pop() else {
                break;
            };
            started.clear();
            if dev
                .on_kernel_finish_into(now, KernelId(kernel), &mut started)
                .is_err()
            {
                break;
            }
            mix_done += 1;
            for s in &started {
                let owner = streams
                    .iter()
                    .position(|st| st.client == s.client)
                    .unwrap_or(idx);
                pending.push(Reverse((s.finish_at, s.kernel.0, owner)));
            }
            if let Some(s) = streams[idx].launch(&mut dev, now) {
                pending.push(Reverse((s.finish_at, s.kernel.0, idx)));
            }
        }
        done += mix_done;
    }
    ns_per(t0, done)
}

/// The FaST backend's token cycle for one GPU mix: `request`, the
/// engine's deferred `dispatch_pass`, `begin_burst`, `sync_point`, and
/// `on_window_reset` every 100 ms window. Returns ns per granted token.
pub fn manager(pods: &[PodShape], mix: &[usize], tokens: u64) -> f64 {
    let window = SimTime::from_millis(100);
    let mut b = FastBackend::new(BackendConfig {
        policy: SharingPolicy::FaST,
        window,
        token_lease: SimTime::from_millis(5),
        deferred_dispatch: true,
        ..BackendConfig::default()
    });
    // (pod, GPU time of one kernel burst at its partition)
    let members: Vec<(PodId, SimTime)> = mix
        .iter()
        .map(|&i| {
            let p = pods[i];
            let pod = PodId(count(i));
            b.register(pod, ResourceSpec::new(p.sm, p.quota, p.quota, 0));
            let burst = fastg_models::zoo::by_name(p.model)
                .and_then(|m| {
                    let stage = m.stages.iter().find(|s| !s.kernels.is_empty())?;
                    Some(stage.device_time_at(sms_of(p.sm)))
                })
                .unwrap_or(SimTime::from_millis(1));
            (pod, burst)
        })
        .collect();
    let mut now = SimTime::ZERO;
    let mut next_reset = window;
    let mut granted = 0u64;
    let t0 = Instant::now();
    while granted < tokens.max(1) && !members.is_empty() {
        let mut grants = Vec::new();
        for &(pod, _) in &members {
            if let Ok((RequestOutcome::Granted(g), _)) = b.request(now, pod) {
                grants.push(g.pod);
            }
        }
        grants.extend(b.dispatch_pass(now).iter().map(|g| g.pod));
        for pod in grants {
            let burst = members
                .iter()
                .find(|m| m.0 == pod)
                .map_or(SimTime::from_millis(1), |m| m.1);
            if b.begin_burst(pod).is_ok() {
                now += burst;
                black_box(b.sync_point(now, pod, burst).ok());
                granted += 1;
            }
        }
        now += SimTime::from_micros(50);
        if now >= next_reset {
            b.on_window_reset(now);
            next_reset = now + window;
        }
    }
    ns_per(t0, granted)
}

/// The gateway's request path: `on_arrival` → dispatch to the idle pod →
/// `complete_request` → `on_pod_idle`, round-robin over `funcs`
/// single-pod functions. Returns ns per request.
pub fn gateway(funcs: usize, requests: u64) -> f64 {
    let mut g = Gateway::new();
    let ids: Vec<FuncId> = (0..funcs.max(1))
        .map(|i| FuncId(u32::try_from(i).unwrap_or(u32::MAX)))
        .collect();
    for (i, &f) in ids.iter().enumerate() {
        g.register_func(f);
        g.register_pod(f, PodId(count(i)));
    }
    let t0 = Instant::now();
    for (n, &f) in (0..requests).zip(ids.iter().cycle()) {
        match g.on_arrival(SimTime::from_micros(n), f, SimTime::MAX) {
            Admission::Dispatch(req, pod) => {
                g.complete_request(&req);
                black_box(g.on_pod_idle(f, pod));
            }
            Admission::Queue(_) | Admission::Overloaded(_) => {}
        }
    }
    ns_per(t0, requests)
}

/// One FaST-Profiler trial (`Experiment::run_trial`, the paper grid's
/// trial length) per distinct pod shape of `pods`, one after another,
/// repeated until ~20 ms are measured. Returns ms per trial.
pub fn profiler(pods: &[PodShape]) -> f64 {
    let mut distinct: Vec<PodShape> = Vec::new();
    for p in pods {
        if !distinct
            .iter()
            .any(|d| (d.model, d.sm, d.quota) == (p.model, p.sm, p.quota))
        {
            distinct.push(*p);
        }
    }
    let (mut trials, mut elapsed) = (0u64, 0.0f64);
    while (elapsed < MIN_MEASURE_S || trials == 0) && !distinct.is_empty() {
        let t0 = Instant::now();
        for p in &distinct {
            let e = Experiment::new(p.model, ConfigServer::paper_grid());
            black_box(e.run_trial(p.sm, p.quota).ok());
            trials += 1;
        }
        elapsed += t0.elapsed().as_secs_f64();
    }
    elapsed * 1e3 / trials.max(1) as f64
}

/// Replays every arrival process of `shape` exactly (`next_after` up to
/// the horizon, inclusive, as `run_for` delivers), repeated until ~20 ms
/// are measured. Returns the arrivals of one pass and ns per arrival.
pub fn workload(shape: &Shape) -> (u64, f64) {
    let mut arrivals = 0u64;
    let (mut ops, mut elapsed) = (0u64, 0.0f64);
    while elapsed < MIN_MEASURE_S || ops == 0 {
        let mut loads = shape.loads.clone();
        let t0 = Instant::now();
        let mut pass = 0u64;
        for load in &mut loads {
            let mut now = SimTime::ZERO;
            while let Some(t) = load.next_after(now) {
                if t > shape.horizon {
                    break;
                }
                pass += 1;
                now = t;
            }
        }
        elapsed += t0.elapsed().as_secs_f64();
        ops += pass.max(1);
        arrivals = pass;
    }
    (arrivals, elapsed * 1e9 / ops as f64)
}

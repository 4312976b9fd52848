//! Property tests for the GPU device model.

use fastg_des::snap::{Snap, SnapReader, SnapWriter};
use fastg_des::SimTime;
use fastg_gpu::{ClientId, GpuDevice, GpuMemory, GpuSpec, KernelDesc, KernelStart, MpsMode};
use proptest::prelude::*;

/// An exact copy of a device, through its snapshot codec.
fn copy(dev: &GpuDevice) -> GpuDevice {
    let mut w = SnapWriter::new();
    dev.snap(&mut w);
    let bytes = w.finish();
    let mut r = SnapReader::new(&bytes);
    let out = GpuDevice::unsnap(&mut r).expect("a live device decodes");
    r.expect_done().expect("the encoding is consumed");
    out
}

/// The earliest entry of `v` by `key`, with its index.
fn earliest<T>(v: &[T], key: impl Fn(&T) -> (SimTime, u64)) -> Option<(usize, (SimTime, u64))> {
    v.iter().map(key).enumerate().min_by_key(|&(_, k)| k)
}

/// Two devices fed the same bursts: `ff` coalesces each burst into a
/// fast-forward timeline, `stepped` launches and finishes every kernel.
struct Twin {
    ff: GpuDevice,
    stepped: GpuDevice,
    clients: Vec<ClientId>,
    /// Per client: its bursts, each `count` launches of one kernel, and
    /// the idle gap between them.
    bursts: Vec<(Vec<(KernelDesc, u32)>, SimTime)>,
    /// Pending burst starts: `(at, client, burst)`.
    starts: Vec<(SimTime, usize, usize)>,
    /// Pending macro-events of `ff`'s timelines: `(burst end, client)`.
    macros: Vec<(SimTime, usize)>,
    ff_pending: Vec<KernelStart>,
    stepped_pending: Vec<KernelStart>,
    /// Per client: the GPU time the sync points of `ff` and of `stepped`
    /// returned, which is what the backend charges.
    charged: [Vec<SimTime>; 2],
    /// The latest instant delivered.
    last: SimTime,
}

impl Twin {
    /// Adds `gpu_time`, returned by a sync point of `client` on device
    /// `dev` (0 `ff`, 1 `stepped`), to its charge.
    fn charge(&mut self, dev: usize, client: ClientId, gpu_time: SimTime) {
        let i = self.clients.iter().position(|&c| c == client).expect("a twin client");
        self.charged[dev][i] += gpu_time;
    }

    /// Delivers every event before `until` (or at it too, when
    /// `inclusive`) to both devices in time order, finishes before burst
    /// starts at equal instants.
    fn advance(&mut self, until: SimTime, inclusive: bool) {
        let due = |t: SimTime| t < until || (inclusive && t == until);
        loop {
            let by_kernel = |s: &KernelStart| (s.finish_at, s.kernel.0);
            let finishes = [
                earliest(&self.macros, |&(t, c)| (t, c as u64)),
                earliest(&self.ff_pending, by_kernel),
                earliest(&self.stepped_pending, by_kernel),
            ];
            let start = earliest(&self.starts, |&(t, c, _)| (t, c as u64));
            // Kinds 0–2 are finishes, 3 is a burst start.
            let Some((t, kind, i)) = finishes
                .iter()
                .chain([&start])
                .enumerate()
                .filter_map(|(kind, e)| e.map(|(i, key)| (key.0, kind, i)))
                .filter(|&(t, _, _)| due(t))
                .min()
            else {
                return;
            };
            self.last = self.last.max(t);
            match kind {
                0 => {
                    let (t, c) = self.macros.swap_remove(i);
                    let done = self.ff.ff_complete(t, self.clients[c]).expect("live timeline");
                    self.charged[0][c] += done.gpu_time;
                }
                1 => {
                    let s = self.ff_pending.swap_remove(i);
                    let (done, started) = self.ff.on_kernel_finish(t, s.kernel).unwrap();
                    self.charge(0, done.client, done.gpu_time);
                    self.ff_pending.extend(started);
                }
                2 => {
                    let s = self.stepped_pending.swap_remove(i);
                    let (done, started) = self.stepped.on_kernel_finish(t, s.kernel).unwrap();
                    self.charge(1, done.client, done.gpu_time);
                    self.stepped_pending.extend(started);
                }
                _ => self.start_burst(i),
            }
        }
    }

    /// Starts pending burst `i`: per kernel on `stepped`, coalesced on
    /// `ff`, and schedules the client's next burst after this one ends.
    fn start_burst(&mut self, i: usize) {
        let (t, c, b) = self.starts.swap_remove(i);
        let client = self.clients[c];
        let (bursts, gap) = &self.bursts[c];
        let (desc, count) = bursts[b];
        for _ in 0..count {
            self.stepped_pending.extend(self.stepped.launch(t, client, desc).unwrap());
        }
        let end = self
            .ff
            .fast_forward_burst(t, client, desc, count)
            .expect("an idle client in the capped regime coalesces");
        self.macros.push((end, c));
        if b + 1 < bursts.len() {
            self.starts.push((end + *gap, c, b + 1));
        }
    }

    /// `ff`'s admission rule as the MPS table states it, as written
    /// before timelines carried their caps: nobody waits for SMs, every
    /// resident grant is within its owner's cap, and the caps of the
    /// active clients plus `client`'s own fit the device. `ff`'s residents
    /// come from the twin's own record. In this capped regime nobody
    /// waits, and a broken burst's stream always has its head resident,
    /// so a client is active exactly when it has a resident kernel or a
    /// timeline.
    fn admits_by_mps_table(&self, client: ClientId) -> bool {
        let mps = self.ff.mps();
        let grants_capped = self
            .ff_pending
            .iter()
            .all(|s| mps.sm_cap(s.client).is_ok_and(|cap| s.granted_sms <= cap));
        let mut caps = 0u64;
        for c in mps.client_ids() {
            let resident = self.ff_pending.iter().any(|s| s.client == c);
            if resident || self.ff.ff_active(c) || c == client {
                caps += u64::from(mps.sm_cap(c).unwrap_or(u32::MAX));
            }
        }
        grants_capped && caps <= u64::from(self.ff.spec().sm_count)
    }

    /// Compares copies of both devices at `at` (the fast-forwarded one
    /// synced first, as every read site does): free SMs, completions and
    /// a metric sample's bits.
    fn check(&self, at: SimTime) {
        let (mut ff, mut stepped) = (copy(&self.ff), copy(&self.stepped));
        ff.ff_sync(at);
        assert_same(&mut ff, &mut stepped, at, false);
    }
}

/// Requires equal free SMs, completions and sample bits (a sample
/// `inclusive` of the finishes at `at`, or strict).
fn assert_same(ff: &mut GpuDevice, stepped: &mut GpuDevice, at: SimTime, inclusive: bool) {
    let x = ff.sample(at, inclusive);
    let y = stepped.sample(at, inclusive);
    assert_eq!(ff.free_sms(), stepped.free_sms(), "free SMs at {at:?}");
    assert_eq!(ff.metrics().total_kernels(), stepped.metrics().total_kernels(), "completions at {at:?}");
    assert_eq!(x.utilization.to_bits(), y.utilization.to_bits(), "utilization at {at:?}");
    assert_eq!(x.sm_occupancy.to_bits(), y.sm_occupancy.to_bits(), "occupancy at {at:?}");
    assert_eq!(x.kernels_completed, y.kernels_completed, "window completions at {at:?}");
}

proptest! {
    /// Byte-budget invariants under arbitrary reserve/release
    /// interleavings: used + free == capacity, a reservation is refused
    /// exactly when it does not fit, and releasing everything frees the
    /// whole device.
    #[test]
    fn memory_alloc_free_invariants(ops in prop::collection::vec((0u8..2, 1u64..4_096), 1..200)) {
        let mut m = GpuMemory::new(64 * 1024);
        let mut live = Vec::new();
        for &(op, size) in &ops {
            if op == 0 || live.is_empty() {
                let fits = size <= m.free_bytes();
                prop_assert_eq!(m.reserve(size).is_ok(), fits);
                if fits {
                    live.push(size);
                }
            } else {
                let size = live.swap_remove(size as usize % live.len());
                prop_assert!(m.release(size).is_ok());
            }
            let used: u64 = live.iter().sum();
            prop_assert_eq!(m.used(), used);
            prop_assert_eq!(m.free_bytes(), m.capacity() - used);
        }
        for size in live {
            m.release(size).unwrap();
        }
        prop_assert_eq!(m.free_bytes(), m.capacity());
    }

    /// Device conservation: free SMs plus granted SMs always equals the
    /// pool; kernels never receive more SMs than their partition cap or
    /// their block count; completing everything restores the full pool.
    #[test]
    fn device_sm_conservation(
        launches in prop::collection::vec((0usize..4, 1u32..100, 1u64..50), 1..60)
    ) {
        let spec = GpuSpec::v100();
        let mut gpu = GpuDevice::new(spec, MpsMode::Shared);
        let caps = [12.0, 24.0, 50.0, 100.0];
        let clients: Vec<_> = caps.iter().map(|&c| gpu.register_client(c).unwrap()).collect();
        let mut pending = std::collections::BinaryHeap::new();
        let mut now = SimTime::ZERO;
        for &(ci, blocks, work) in &launches {
            let client = clients[ci];
            let cap = gpu.mps().sm_cap(client).unwrap();
            let desc = KernelDesc {
                blocks,
                work_per_block: SimTime::from_micros(work),
                tag: ci as u64,
            };
            if let Some(start) = gpu.launch(now, client, desc).unwrap() {
                prop_assert!(start.granted_sms <= cap);
                prop_assert!(start.granted_sms <= blocks.max(1));
                pending.push(std::cmp::Reverse((start.finish_at, start.kernel)));
            }
            let granted_total: u32 = 80 - gpu.free_sms();
            prop_assert!(granted_total <= 80);
            // Occasionally advance time by completing the next kernel.
            if pending.len() > 3 {
                let std::cmp::Reverse((t, k)) = pending.pop().unwrap();
                now = now.max(t);
                let (_, started) = gpu.on_kernel_finish(now, k).unwrap();
                for s in started {
                    pending.push(std::cmp::Reverse((s.finish_at, s.kernel)));
                }
            }
        }
        // Drain.
        while let Some(std::cmp::Reverse((t, k))) = pending.pop() {
            now = now.max(t);
            let (_, started) = gpu.on_kernel_finish(now, k).unwrap();
            for s in started {
                pending.push(std::cmp::Reverse((s.finish_at, s.kernel)));
            }
        }
        prop_assert_eq!(gpu.free_sms(), 80);
        prop_assert_eq!(gpu.resident_kernels(), 0);
    }

    /// Metrics consistency: SM occupancy never exceeds utilization, and
    /// both stay in [0, 1], for arbitrary single-client kernel streams.
    #[test]
    fn occupancy_bounded_by_utilization(
        kernels in prop::collection::vec((1u32..200, 1u64..100), 1..50),
        partition in 1u32..=100
    ) {
        let mut gpu = GpuDevice::new(GpuSpec::v100(), MpsMode::Shared);
        let c = gpu.register_client(partition as f64).unwrap();
        let mut now = SimTime::ZERO;
        for &(blocks, work) in &kernels {
            let desc = KernelDesc {
                blocks,
                work_per_block: SimTime::from_micros(work),
                tag: 0,
            };
            let start = gpu.launch(now, c, desc).unwrap().expect("idle stream starts");
            // Idle gap after each kernel.
            now = start.finish_at + SimTime::from_micros(work);
            gpu.on_kernel_finish(start.finish_at, start.kernel).unwrap();
        }
        let stats = gpu.sample(now, false);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&stats.utilization));
        prop_assert!((0.0..=1.0 + 1e-9).contains(&stats.sm_occupancy));
        prop_assert!(stats.sm_occupancy <= stats.utilization + 1e-9);
    }

    /// SM occupancy against an oracle that knows nothing of the device's
    /// accounting: per-kernel stepping of random launches from clients
    /// with random caps (so with waits and partial grants), sampled at
    /// random instants. Each window's occupied area is summed from the
    /// `KernelStart` effects alone, granted SMs × the overlap of
    /// `[started, finish_at]` with the window, and the sample's occupancy
    /// must be that area as a fraction, bit for bit, kernels straddling a
    /// sample boundary included.
    #[test]
    fn occupancy_matches_the_kernel_start_oracle(
        pcts in prop::collection::vec(1u32..=100, 1..4),
        ops in prop::collection::vec((0u64..150, 0usize..3, 1u32..120, 0u64..60, 0u8..4), 1..80),
    ) {
        let mut gpu = GpuDevice::new(GpuSpec::v100(), MpsMode::Shared);
        let clients: Vec<ClientId> = pcts.iter().map(|&p| gpu.register_client(f64::from(p)).unwrap()).collect();
        let (mut starts, mut pending) = (Vec::<KernelStart>::new(), Vec::<KernelStart>::new());
        let (mut now, mut window) = (SimTime::ZERO, SimTime::ZERO);
        for &(dt, i, blocks, work, op) in &ops {
            now += SimTime::from_micros(dt);
            // Deliver every finish due by `now`, in time order.
            while let Some((j, _)) = earliest(&pending, |s| (s.finish_at, s.kernel.0)).filter(|&(_, (t, _))| t <= now) {
                let s = pending.swap_remove(j);
                let (_, started) = gpu.on_kernel_finish(s.finish_at, s.kernel).unwrap();
                starts.extend(&started);
                pending.extend(started);
            }
            if op == 0 {
                let area: u64 = starts
                    .iter()
                    .map(|s| {
                        let overlap = s.finish_at.min(now).saturating_sub(s.started.max(window));
                        u64::from(s.granted_sms) * overlap.as_micros()
                    })
                    .sum();
                let elapsed = (now - window).as_secs_f64();
                let expected = if elapsed > 0.0 { (area as f64 / 1e6) / elapsed / 80.0 } else { 0.0 };
                let got = gpu.sample(now, false).sm_occupancy;
                prop_assert_eq!(got.to_bits(), expected.to_bits(), "window [{:?}, {:?}]: {} vs {}", window, now, got, expected);
                window = now;
            } else {
                let desc = KernelDesc {
                    blocks,
                    work_per_block: SimTime::from_micros(work),
                    tag: 0,
                };
                if let Some(s) = gpu.launch(now, clients[i % clients.len()], desc).unwrap() {
                    starts.push(s);
                    pending.push(s);
                }
            }
        }
    }

    /// Wave math: duration × granted SMs ≥ total work, and duration is
    /// minimal (removing one wave would not cover the blocks).
    #[test]
    fn wave_duration_tight(blocks in 1u32..500, cap_pct in 1u32..=100, work in 1u64..1_000) {
        let spec = GpuSpec::v100();
        let mut gpu = GpuDevice::new(spec.clone(), MpsMode::Shared);
        let c = gpu.register_client(cap_pct as f64).unwrap();
        let desc = KernelDesc {
            blocks,
            work_per_block: SimTime::from_micros(work),
            tag: 0,
        };
        let start = gpu.launch(SimTime::ZERO, c, desc).unwrap().unwrap();
        let waves = (start.finish_at.as_micros() / work) as u32;
        prop_assert!(waves * start.granted_sms >= blocks);
        if waves > 1 {
            prop_assert!((waves - 1) * start.granted_sms < blocks);
        }
    }
}

proptest! {
    // Each case is a few hundred events on two small devices, so many
    // cases stay cheap; boundary ties need them to show up.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Fast-forward timelines against per-kernel stepping. Two or three
    /// clients in the capped regime (caps of at most 24 SMs each on an
    /// 80-SM V100) each run one or two bursts, each of a random kernel
    /// and launch count, with single-kernel bursts and zero-duration
    /// kernels. Syncs,
    /// inclusive syncs, breaks, completions, samples and snapshot round
    /// trips interleave, and after every operation free SMs, completions
    /// and sample bits must equal per-kernel stepping's, and every
    /// client's `ff_admits` the rule recomputed from the MPS table. Once
    /// every burst has ended, each client's GPU time, summed over the sync
    /// points, must equal per-kernel stepping's too.
    #[test]
    fn run_length_timelines_match_per_kernel_stepping(
        clients in prop::collection::vec(
            (
                1u32..=30,
                0u64..150,
                0u64..60,
                prop::collection::vec((0u32..64, 0u64..40, 1u32..12), 1..3),
            ),
            2..4,
        ),
        ops in prop::collection::vec((0u64..120, 0u8..6, 0usize..3), 1..40)
    ) {
        let spec = GpuSpec::v100();
        let mut ff = GpuDevice::new(spec.clone(), MpsMode::Shared);
        let mut stepped = GpuDevice::new(spec, MpsMode::Shared);
        let mut twin_clients = Vec::new();
        let mut bursts = Vec::new();
        let mut starts = Vec::new();
        for (i, (pct, start, gap, client_bursts)) in clients.iter().enumerate() {
            let c = ff.register_client(f64::from(*pct)).unwrap();
            prop_assert_eq!(stepped.register_client(f64::from(*pct)).unwrap(), c);
            twin_clients.push(c);
            let burst = |&(blocks, work, count): &(u32, u64, u32)| {
                let desc = KernelDesc {
                    blocks,
                    work_per_block: SimTime::from_micros(work),
                    tag: i as u64,
                };
                (desc, count)
            };
            bursts.push((client_bursts.iter().map(burst).collect(), SimTime::from_micros(*gap)));
            starts.push((SimTime::from_micros(*start), i, 0));
        }
        let mut twin = Twin {
            ff,
            stepped,
            clients: twin_clients,
            bursts,
            starts,
            macros: Vec::new(),
            ff_pending: Vec::new(),
            stepped_pending: Vec::new(),
            charged: [vec![SimTime::ZERO; clients.len()], vec![SimTime::ZERO; clients.len()]],
            last: SimTime::ZERO,
        };
        let mut now = SimTime::ZERO;
        for &(dt, op, c) in &ops {
            now += SimTime::from_micros(dt);
            let c = c % twin.clients.len();
            match op {
                // Deliver events only: nothing reads the device, so
                // timelines stay unsettled.
                0 => twin.advance(now, false),
                1 => {
                    twin.advance(now, false);
                    twin.ff.ff_sync(now);
                }
                2 => {
                    twin.advance(now, true);
                    assert_same(&mut twin.ff, &mut twin.stepped, now, true);
                }
                3 => {
                    twin.advance(now, false);
                    let client = twin.clients[c];
                    if twin.ff.ff_active(client) {
                        let brk = twin.ff.ff_break(now, client).unwrap();
                        prop_assert!(brk.resumed.started <= now && now <= brk.resumed.finish_at);
                        twin.charged[0][c] += brk.gpu_time;
                        twin.macros.retain(|&(_, m)| m != c);
                        twin.ff_pending.push(brk.resumed);
                    }
                }
                4 => {
                    twin.advance(now, false);
                    twin.ff.ff_sync(now);
                    assert_same(&mut twin.ff, &mut twin.stepped, now, false);
                }
                _ => {
                    twin.advance(now, false);
                    twin.ff = copy(&twin.ff);
                }
            }
            twin.last = twin.last.max(now);
            twin.check(now);
            for &client in &twin.clients {
                prop_assert_eq!(twin.ff.ff_admits(client), twin.admits_by_mps_table(client));
            }
        }
        twin.advance(SimTime::MAX, true);
        twin.check(twin.last);
        // Every burst has ended, so each client was charged its whole GPU
        // time on both devices.
        prop_assert_eq!(&twin.charged[0], &twin.charged[1]);
        prop_assert!(!twin.ff.has_ff());
        prop_assert_eq!(twin.ff.free_sms(), 80);
        prop_assert_eq!(twin.ff.resident_kernels(), 0);
    }
}

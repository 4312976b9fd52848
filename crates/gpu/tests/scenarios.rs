//! Multi-client GPU scenarios: contention, fairness, metric series and
//! cross-process memory sharing, driven as miniature event loops.

use fastg_des::SimTime;
use fastg_gpu::{GpuDevice, GpuSpec, KernelDesc, KernelStart, MpsMode};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

fn kernel(blocks: u32, work_us: u64, tag: u64) -> KernelDesc {
    KernelDesc {
        blocks,
        work_per_block: SimTime::from_micros(work_us),
        tag,
    }
}

/// Drives the device until all submitted kernels complete; returns per-tag
/// total GPU time.
fn drain(gpu: &mut GpuDevice, mut pending: BinaryHeap<Reverse<(SimTime, fastg_gpu::KernelId)>>) -> Vec<(u64, SimTime)> {
    let mut per_tag: std::collections::BTreeMap<u64, SimTime> = Default::default();
    while let Some(Reverse((t, k))) = pending.pop() {
        let (done, started) = gpu.on_kernel_finish(t, k).unwrap();
        *per_tag.entry(done.tag).or_insert(SimTime::ZERO) += done.gpu_time;
        for s in started {
            pending.push(Reverse((s.finish_at, s.kernel)));
        }
    }
    per_tag.into_iter().collect()
}

fn heap_of(starts: Vec<Option<KernelStart>>) -> BinaryHeap<Reverse<(SimTime, fastg_gpu::KernelId)>> {
    starts
        .into_iter()
        .flatten()
        .map(|s| Reverse((s.finish_at, s.kernel)))
        .collect()
}

/// Four 24 %-partition clients with identical streams finish identical
/// work in identical time: partitions isolate throughput.
#[test]
fn equal_partitions_share_equally() {
    let mut gpu = GpuDevice::new(GpuSpec::v100(), MpsMode::Shared);
    let clients: Vec<_> = (0..4).map(|_| gpu.register_client(24.0).unwrap()).collect();
    let mut starts = Vec::new();
    for (i, &c) in clients.iter().enumerate() {
        for _ in 0..10 {
            starts.push(gpu.launch(SimTime::ZERO, c, kernel(19, 100, i as u64)).unwrap());
        }
    }
    let per_tag = drain(&mut gpu, heap_of(starts));
    assert_eq!(per_tag.len(), 4);
    let first = per_tag[0].1;
    for &(_, t) in &per_tag {
        assert_eq!(t, first, "equal work must cost equal GPU time");
    }
    // Each kernel: 19 blocks on 19 SMs = one 100us wave; ten of them.
    assert_eq!(first, SimTime::from_micros(1_000));
    assert_eq!(gpu.free_sms(), 80);
}

/// A small-partition client cannot slow a big one: the 12 % client's
/// stream stretches, the 50 % client's does not.
#[test]
fn partition_asymmetry_is_respected() {
    let mut gpu = GpuDevice::new(GpuSpec::v100(), MpsMode::Shared);
    let big = gpu.register_client(50.0).unwrap();
    let small = gpu.register_client(12.0).unwrap();
    let sb = gpu.launch(SimTime::ZERO, big, kernel(40, 100, 0)).unwrap().unwrap();
    let ss = gpu.launch(SimTime::ZERO, small, kernel(40, 100, 1)).unwrap().unwrap();
    // Big: 40 blocks / 40 SMs = 1 wave; small: 40 / 10 = 4 waves.
    assert_eq!(sb.finish_at, SimTime::from_micros(100));
    assert_eq!(ss.finish_at, SimTime::from_micros(400));
    assert_eq!(gpu.free_sms(), 80 - 40 - 10);
}

/// The DCGM sampling loop produces a sensible utilization sawtooth for a
/// bursty single client.
#[test]
fn metric_series_tracks_bursts() {
    let mut gpu = GpuDevice::new(GpuSpec::v100(), MpsMode::Shared);
    let c = gpu.register_client(100.0).unwrap();
    let mut now = SimTime::ZERO;
    // Five cycles: 2ms busy (80-block kernel on 80 SMs at 25us/block
    // ... 80 blocks -> one wave of 25us? make work bigger) then 2ms idle.
    for _ in 0..5 {
        let s = gpu
            .launch(now, c, kernel(80, 2_000, 0))
            .unwrap()
            .expect("idle stream starts");
        gpu.on_kernel_finish(s.finish_at, s.kernel).unwrap();
        now = s.finish_at + SimTime::from_micros(2_000);
        gpu.sample(now, false);
    }
    let util = gpu.metrics().utilization_series();
    assert_eq!(util.len(), 5);
    for &(_, v) in util.points() {
        assert!((v - 0.5).abs() < 0.01, "each window is half busy: {v}");
    }
    let occ = gpu.metrics().occupancy_series();
    for &(_, v) in occ.points() {
        assert!((v - 0.5).abs() < 0.01, "80/80 SMs for half the window: {v}");
    }
}

/// Over-subscription queueing: eight full-GPU clients take ~8× longer
/// end-to-end than one, and the device stays conservation-clean.
#[test]
fn oversubscription_serializes() {
    let run = |n: usize| {
        let mut gpu = GpuDevice::new(GpuSpec::v100(), MpsMode::Shared);
        let mut starts = Vec::new();
        let mut last_finish = SimTime::ZERO;
        for i in 0..n {
            let c = gpu.register_client(100.0).unwrap();
            starts.push(gpu.launch(SimTime::ZERO, c, kernel(80, 500, i as u64)).unwrap());
        }
        let mut pending = heap_of(starts);
        while let Some(Reverse((t, k))) = pending.pop() {
            last_finish = last_finish.max(t);
            let (_, started) = gpu.on_kernel_finish(t, k).unwrap();
            for s in started {
                pending.push(Reverse((s.finish_at, s.kernel)));
            }
        }
        last_finish
    };
    let one = run(1);
    let eight = run(8);
    assert_eq!(one, SimTime::from_micros(500));
    assert_eq!(eight, SimTime::from_micros(4_000), "strict serialization");
}

/// Repartitioning a live client applies to subsequent launches only.
#[test]
fn repartition_applies_to_next_launch() {
    let mut gpu = GpuDevice::new(GpuSpec::v100(), MpsMode::Shared);
    let c = gpu.register_client(50.0).unwrap();
    let s1 = gpu.launch(SimTime::ZERO, c, kernel(40, 100, 0)).unwrap().unwrap();
    assert_eq!(s1.granted_sms, 40);
    gpu.set_partition(c, 12.0).unwrap();
    // The running kernel keeps its grant.
    assert_eq!(gpu.free_sms(), 40);
    gpu.on_kernel_finish(s1.finish_at, s1.kernel).unwrap();
    let s2 = gpu
        .launch(s1.finish_at, c, kernel(40, 100, 0))
        .unwrap()
        .unwrap();
    assert_eq!(s2.granted_sms, 10, "new partition in force");
}

/// Interleaved launch/complete across clients preserves per-client FIFO
/// even when the wait queue churns.
#[test]
fn per_client_fifo_under_churn() {
    let mut gpu = GpuDevice::new(GpuSpec::custom("tiny", 4, 1 << 30), MpsMode::Shared);
    let a = gpu.register_client(100.0).unwrap();
    let b = gpu.register_client(100.0).unwrap();
    // Tag encodes (client, seq).
    let mut starts = Vec::new();
    for seq in 0..5u64 {
        starts.push(gpu.launch(SimTime::ZERO, a, kernel(4, 10, seq)).unwrap());
        starts.push(gpu.launch(SimTime::ZERO, b, kernel(4, 10, 100 + seq)).unwrap());
    }
    let mut pending = heap_of(starts);
    let mut a_order = Vec::new();
    let mut b_order = Vec::new();
    while let Some(Reverse((t, k))) = pending.pop() {
        let (done, started) = gpu.on_kernel_finish(t, k).unwrap();
        if done.tag < 100 {
            a_order.push(done.tag);
        } else {
            b_order.push(done.tag - 100);
        }
        for s in started {
            pending.push(Reverse((s.finish_at, s.kernel)));
        }
    }
    assert_eq!(a_order, vec![0, 1, 2, 3, 4], "client A stream order");
    assert_eq!(b_order, vec![0, 1, 2, 3, 4], "client B stream order");
}

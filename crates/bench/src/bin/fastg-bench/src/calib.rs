//! Host-speed calibration.
//!
//! The benchmark host shares its cores and caches with other tenants,
//! which slow it by up to 40 % for minutes at a time. Wall times taken
//! minutes apart then differ by more than any useful regression bound,
//! whatever statistic a run reports. So before every repetition the
//! benchmark times a fixed kernel of its own, which no change to the
//! simulator can alter, and scales the repetition's wall times to the
//! speed the host has when the kernel takes [`REFERENCE_S`].
//!
//! The kernel mixes the two things the simulator spends its time on:
//! ordered-queue operations with dependent loads into a table larger than
//! L2, and integer arithmetic. On a recorded series of fleet
//! repetitions, medians of 30 s windows spread 8 % raw and 2 % scaled.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Kernel time on an unloaded benchmark host (2-CPU Xeon, the tenth
/// percentile of a recorded series), so scaled values read like raw ones
/// there.
pub const REFERENCE_S: f64 = 0.036;

const TABLE_WORDS: u64 = 1 << 19; // 4 MiB
const QUEUE_DEPTH: u64 = 1_024;
const QUEUE_OPS: u32 = 200_000;
const ALU_OPS: u64 = 5_000_000;

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One table per thread the workload simulates on, allocated once so the
/// kernel adds a constant to peak memory rather than allocator churn.
pub struct Calibrator {
    tables: Vec<Vec<u64>>,
}

impl Calibrator {
    pub fn new(threads: usize) -> Self {
        Calibrator {
            tables: (0..threads.max(1))
                .map(|_| (0..TABLE_WORDS).map(mix).collect())
                .collect(),
        }
    }

    /// Seconds the kernel takes right now, on every thread at once: the
    /// harmonic mean of their times, since a `fastg-par` stage finishes
    /// at the sum of its threads' speeds.
    pub fn measure(&mut self) -> f64 {
        if let [table] = self.tables.as_mut_slice() {
            return kernel(table);
        }
        let times: Vec<f64> = std::thread::scope(|s| {
            let workers: Vec<_> = self
                .tables
                .iter_mut()
                .map(|t| s.spawn(|| kernel(t)))
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("calibration kernel does not panic"))
                .collect()
        });
        times.len() as f64 / times.iter().map(|t| 1.0 / t).sum::<f64>()
    }
}

/// One timed run of the kernel over `table`.
fn kernel(table: &mut [u64]) -> f64 {
    let mut queue: BinaryHeap<Reverse<(u64, u64)>> = (0..QUEUE_DEPTH)
        .map(|i| Reverse((mix(i) % 1_000, i)))
        .collect();
    let t0 = Instant::now();
    let mut x = 1u64;
    for _ in 0..QUEUE_OPS {
        let Some(Reverse((time, id))) = queue.pop() else {
            break;
        };
        x = table[usize::try_from((x ^ id) % TABLE_WORDS).unwrap_or(0)];
        table[usize::try_from(x % TABLE_WORDS).unwrap_or(0)] ^= time;
        queue.push(Reverse((time + 1 + x % 1_000, id)));
    }
    for i in 0..ALU_OPS {
        x = x.wrapping_add(mix(x ^ i));
    }
    black_box(x);
    t0.elapsed().as_secs_f64()
}

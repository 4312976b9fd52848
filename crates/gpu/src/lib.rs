//! # fastg-gpu — simulated GPU device model
//!
//! A discrete-event model of a data-center GPU (default: NVIDIA V100-like,
//! 80 SMs, 16 GiB) that reproduces the scheduling-relevant behaviour the
//! FaST-GShare paper depends on:
//!
//! * **SM pool execution** ([`GpuDevice`]): kernels are launched into
//!   per-client in-order streams (CUDA stream semantics under MPS). A kernel
//!   with `blocks` thread-blocks is granted
//!   `min(partition_sms, blocks, free_sms)` SMs when it starts and runs for
//!   `ceil(blocks / granted) × work_per_block` (wave execution). Execution is
//!   non-preemptive, matching real SMs which run a resident block to
//!   completion.
//! * **MPS spatial partitioning** ([`MpsServer`]): the
//!   `CUDA_MPS_ACTIVE_THREAD_PERCENTAGE` analogue caps how many SMs one
//!   client's kernels may occupy concurrently; exclusive mode models the
//!   Kubernetes device plugin (whole-GPU assignment).
//! * **Device memory** ([`GpuMemory`]): a byte budget, capacity and bytes
//!   reserved, that pods and the model-sharing storage server reserve
//!   against (`cuMemAlloc`/`cuMemFree` without addresses).
//! * **DCGM-style metrics** ([`metrics::GpuMetrics`]): *utilization* is the
//!   fraction of time at least one kernel is resident (nvidia-smi
//!   semantics); *SM occupancy* is the time-weighted mean fraction of SMs
//!   occupied. The paper's Figure 1 contrast (>95 % utilization, <10 %
//!   occupancy under time sharing) falls directly out of these definitions.
//!   A window is sampled through [`GpuDevice::sample`], which settles
//!   every resident run first.
//! * **One resident record**: a stepped kernel is a run of one that
//!   carries its [`KernelId`]; an uncontended burst is fast-forwarded as
//!   one run of its launches ([`GpuDevice::fast_forward_burst`]). Both
//!   settle lazily through the same arithmetic, which credits the
//!   occupied area as an exact integer (SM × µs).
//!
//! The device is a pure state machine: `launch`/`on_kernel_finish` return
//! [`KernelStart`] effects carrying absolute finish times, and the caller
//! (the platform event loop in the `fastgshare` crate) schedules them on its
//! own event queue. That keeps this crate free of any event-loop coupling
//! and independently testable.

#![warn(missing_docs)]

pub mod device;
pub mod error;
pub mod memory;
pub mod metrics;
pub mod mig;
pub mod mps;
pub mod spec;

pub use device::{
    ClientId, FfBreak, FfDone, GpuDevice, KernelDesc, KernelDone, KernelId, KernelStart,
    clamp_clock_scale, MAX_CLOCK_SCALE,
};
pub use error::GpuError;
pub use memory::{GpuMemory, MemError};
pub use mig::{MigConfig, MigError, MigProfile};
pub use mps::{MpsError, MpsMode, MpsServer};
pub use spec::GpuSpec;

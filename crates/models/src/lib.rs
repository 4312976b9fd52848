//! # fastg-models — deep-learning model zoo and inference engine
//!
//! The FaST-GShare systems (manager, profiler, scheduler) never look inside
//! a CUDA kernel; they observe *launch sequences*: how many kernels a model
//! issues, how much parallelism (thread-blocks) each has, how long each
//! takes, where the host-side gaps and synchronization points fall, and how
//! much device memory the function needs. This crate models exactly that
//! surface:
//!
//! * [`ModelProfile`] — a model as a sequence of [`Stage`]s, each a
//!   host-side phase (pre/post-processing, Python/framework overhead,
//!   RNN time-step loops) followed by an asynchronous burst of `n`
//!   launches of one kernel and a synchronization point. This is where the CUDA hook library
//!   intercepts (`cuLaunchKernel` … `cuCtxSynchronize`).
//! * [`zoo`] — profiles for the paper's benchmark models (ResNet-50,
//!   BERT-base, RNNT, GNMT from MLPerf, plus ResNeXt-101 and ViT-Huge for
//!   the model-sharing study), calibrated against the paper's §5 numbers:
//!   single-pod racing throughput, SM-saturation points (Figure 8), and
//!   memory footprints (Figure 13).
//! * [`InferenceRun`] — a resumable cursor that walks a profile and yields
//!   the next [`StageOp`] (host compute, kernel burst, completion); the
//!   platform event loop interprets these against a simulated GPU.
//!
//! Analytic throughput/latency estimates ([`ModelProfile::latency_at`],
//! [`ModelProfile::ideal_rps`]) provide closed-form cross-checks for the
//! simulation (used heavily in tests).

#![warn(missing_docs)]

pub mod profile;
pub mod run;
pub mod zoo;

pub use profile::{KernelSpec, MemoryFootprint, ModelProfile, Stage};
pub use run::{InferenceRun, StageOp};

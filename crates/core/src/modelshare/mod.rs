//! Model Sharing (paper §3.5): single-copy weight storage per node.
//!
//! Fine-grained sharing packs many instances of the same function onto one
//! GPU, multiplying the memory cost of duplicate model weights. The paper
//! keeps exactly one copy per model in a Plasma-style store and hands
//! function instances zero-copy CUDA-IPC views of it. Its one observable
//! effect is a footprint, and that is what is modelled here:
//!
//! * [`ModelStorageServer`] — the storage server running on each node. The
//!   first pod of a model reserves the weights plus a fixed
//!   storage-process context (300 MB on a V100 — Figure 13's hatched
//!   area) in device memory; later pods only count a reference, and the
//!   last pod's teardown frees both.
//! * [`footprint`] — the memory-accounting helpers the scheduler's
//!   node-selection uses: with sharing, a pod reserves only its private
//!   runtime/activation memory while weights live once in the store.

mod server;

pub use server::{footprint, ModelStorageServer, ShareError, DEFAULT_CTX_OVERHEAD};

//! # fastgshare — FaaS-oriented spatio-temporal GPU sharing
//!
//! A full reproduction of **FaST-GShare** (Gu et al., ICPP 2023): an
//! architecture that multiplexes deep-learning inference functions onto
//! shared GPUs in both the *spatial* dimension (MPS SM partitions) and the
//! *temporal* dimension (time-quota tokens), while guaranteeing function
//! SLOs through profiling-driven auto-scaling and fragmentation-aware GPU
//! packing.
//!
//! The four components of the paper map to the four policy modules here,
//! and its evaluation to a fifth:
//!
//! | paper | module | what it does |
//! |---|---|---|
//! | FaST-Manager (§3.3) | [`manager`] | frontend/backend token protocol: multi-token scheduler, `Q_miss` priority queue, SM Allocation Adapter, elastic quotas |
//! | FaST-Profiler (§3.2) | [`profiler`] | Experiment→Trial sweeps of (SM partition × time quota), profile database |
//! | FaST-Scheduler (§3.4) | [`scheduler`] | Algorithm 1 (Heuristic Scaling) and Algorithm 2 (Maximal Rectangles) with node selection |
//! | Model Sharing (§3.5) | [`modelshare`] | IPC-based single-copy weight store (STORE/GET protocol) |
//! | Evaluation (§5) | [`paper`] | each figure's scenario defined once, for the figure benches, the CLI, the examples and the tests |
//!
//! [`platform`] composes them with the simulation substrates
//! (`fastg-des`, `fastg-gpu`, `fastg-models`, `fastg-cluster`,
//! `fastg-workload`) into a deterministic end-to-end serverless inference
//! platform.
//!
//! ## Quickstart
//!
//! ```
//! use fastgshare::platform::{Platform, PlatformConfig, FunctionConfig};
//! use fastgshare::manager::SharingPolicy;
//! use fastg_des::SimTime;
//!
//! let mut platform = Platform::new(
//!     PlatformConfig::default()
//!         .nodes(1)
//!         .policy(SharingPolicy::FaST),
//! );
//! // Deploy 2 ResNet pods at a 12 % SM partition and full time quota.
//! let func = platform.deploy(
//!     FunctionConfig::new("fastsvc-resnet", "resnet50")
//!         .slo_ms(69)
//!         .replicas(2)
//!         .resources(12.0, 1.0, 1.0),
//! ).unwrap();
//! // Drive it with 60 req/s of Poisson traffic for 5 simulated seconds.
//! platform.set_load(func, fastg_workload::ArrivalProcess::poisson(60.0, 7));
//! let report = platform.run_for(SimTime::from_secs(5));
//! let f = &report.functions[&func];
//! assert!(f.completed > 200, "completed {}", f.completed);
//! ```

#![warn(missing_docs)]

pub mod manager;
pub mod modelshare;
pub mod paper;
pub mod platform;
pub mod profiler;
pub mod scheduler;

pub use manager::SharingPolicy;
pub use platform::{FunctionConfig, Platform, PlatformConfig, PlatformReport};

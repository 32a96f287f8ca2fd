//! # perf-envelope — the paper's contribution as a reusable library
//!
//! This crate packages the optimizations of *"Pushing the Performance
//! Envelope of DNN-based Recommendation Systems Inference on GPUs"*
//! (MICRO 2024) behind one experiment API built from three types:
//!
//! * [`Workload`]: **what** to run — a single embedding-bag kernel, the
//!   homogeneous embedding stage, a heterogeneous table mix, or end-to-end
//!   DLRM inference — one enum instead of four bespoke entry points,
//! * [`Experiment`]: **how** to run it — device, model, scale, seed — with
//!   the single entry point [`Experiment::run`]`(&Workload, &Scheme) ->`
//!   [`RunReport`], a unified result carrying latency, per-table breakdown,
//!   NCU-style counters, the end-to-end embedding/dense split as a
//!   [`dlrm::BatchLatency`] and full metadata, serializable to JSON,
//! * [`Campaign`]: **how many** to run — a declarative grid of schemes ×
//!   workloads × seeds × pooling factors, executed in parallel across
//!   threads with deterministic, thread-count-independent results, with
//!   repeated and re-run cells served from an optional [`CampaignCache`]
//!   ([`Experiment::with_cache`]) that persists across processes
//!   ([`CampaignCache::save_to`] / [`CampaignCache::load_from`]).
//!
//! Beyond the paper's single-GPU envelope, the [`topology`] module scales
//! experiments out: a [`Cluster`] of devices with an interconnect model, and
//! sharding strategies ([`ShardingSpec`]) that distribute a workload's
//! embedding tables across the cluster. A sharded [`Workload`] fans out as
//! one simulation per shard and reduces across devices (critical-path max
//! plus the pooled-embedding all-to-all); on a single-device cluster the
//! result is bit-exact with the unsharded run.
//!
//! The [`serving`] module lifts single-batch experiments to SLA-aware
//! serving studies: a seeded [`TrafficModel`] arrival trace is batched by a
//! [`BatchingPolicy`], priced through [`Experiment::run`] (one simulation
//! per distinct batch shape, via the cache), and drained through a
//! deterministic queue model into a [`ServingReport`] — percentile
//! latencies, achieved QPS, SLA-violation rate, per-device utilization.
//! [`select_scheme`] and [`max_sustainable_qps`] answer the production
//! questions on top: which scheme is enough for this load, and how much
//! load this deployment sustains. A single-request fixed-size scenario is
//! bit-exact with the plain experiment run.
//!
//! The [`fleet`] module scales serving out once more: a [`Fleet`] routes a
//! fleet-wide arrival trace across replica groups (each a [`ServingScenario`]
//! over its own [`Cluster`], optionally with its own fault plan) with a pure
//! [`RoutingPolicy`], resizes the live set with an [`AutoscalePolicy`]
//! driven by [`max_sustainable_qps`], and aggregates a [`FleetReport`] with
//! exact fleet-wide percentiles and a device-hours cost model. A 1-replica
//! fleet with round-robin routing and no autoscaling is bit-exact with the
//! scenario it wraps.
//!
//! The remaining modules supply the pieces experiments are made of:
//!
//! * [`Scheme`]: the plug-and-play optimization schemes the paper evaluates —
//!   OptMT (optimal warp-level parallelism via register capping), software
//!   prefetching into four buffer stations (RPF/SMPF/LMPF/L1DPF), L2 pinning
//!   of hot embedding rows, and their combinations,
//! * [`dse`]: the design-space exploration sweeps the paper uses to pick its
//!   operating points, each a thin [`Campaign`] definition plus
//!   post-processing,
//! * [`profiler`]: the static profiling framework of Section VII — a
//!   step-by-step procedure that inspects kernel statistics and recommends
//!   which optimizations to apply.
//!
//! ## Example: one experiment
//!
//! ```
//! use dlrm_datasets::AccessPattern;
//! use dlrm::WorkloadScale;
//! use gpu_sim::GpuConfig;
//! use perf_envelope::{Experiment, Scheme, Workload};
//!
//! let experiment = Experiment::new(GpuConfig::test_small(), WorkloadScale::Test);
//! let workload = Workload::stage(AccessPattern::Random);
//! let base = experiment.run(&workload, &Scheme::base());
//! let opt = experiment.run(&workload, &Scheme::combined());
//! assert!(opt.speedup_over(&base) > 1.0);
//! assert_eq!(opt.scheme, "RPF+L2P+OptMT");
//! ```
//!
//! ## Example: a campaign with JSON reports
//!
//! ```
//! use dlrm_datasets::AccessPattern;
//! use dlrm::WorkloadScale;
//! use gpu_sim::GpuConfig;
//! use perf_envelope::{Campaign, Experiment, RunReport, Scheme, Workload};
//!
//! let run = Campaign::new(Experiment::new(GpuConfig::test_small(), WorkloadScale::Test))
//!     .workloads(AccessPattern::EVALUATED.map(Workload::kernel))
//!     .schemes([Scheme::base(), Scheme::optmt(), Scheme::combined()])
//!     .run();
//! assert_eq!(run.len(), 12);
//! let archived = run.to_json();
//! let reloaded = perf_envelope::CampaignRun::from_json(&archived).unwrap();
//! assert_eq!(reloaded, run.reports());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod campaign;
pub mod dse;
mod fingerprint;
pub mod fleet;
pub mod json;
pub mod profiler;
pub mod report;
pub mod runner;
pub mod scheme;
pub mod serving;
pub mod topology;
pub mod workload;

pub use cache::{CacheLoadError, CampaignCache, CAMPAIGN_CACHE_SCHEMA};
pub use campaign::{Campaign, CampaignRun};
pub use dse::{
    buffer_station_comparison, find_optimal_distance, find_optimal_multithreading,
    pooling_factor_sweep, prefetch_distance_sweep, register_sweep, DistanceSweepPoint,
    PoolingSweepPoint, RegisterSweepPoint, StationComparisonPoint, PAPER_WARP_SWEEP,
};
pub use fleet::{
    pareto_frontier, AutoscaleAction, AutoscaleEvent, AutoscalePolicy, Fleet, FleetCost,
    FleetReplicaReport, FleetReport, ReplicaGroup, ReplicaView, RoutingPolicy, FLEET_REPORT_SCHEMA,
};
pub use profiler::{ProfilerReport, ProfilingStep, StaticProfiler, WorkloadHint};
pub use report::{ClusterBreakdown, DeviceBreakdown, RunReport, TableBreakdown, RUN_REPORT_SCHEMA};
pub use runner::Experiment;
pub use scheme::{Multithreading, Scheme};
pub use serving::{
    max_sustainable_qps, select_scheme, stream_capacity_sweep, AdmissionPolicy, BatchShapeStats,
    BatchingPolicy, CapacityResult, DeviceUtilization, FaultEvent, FaultKind, FaultPlan,
    FaultTimelineEntry, LatencyStats, RetryPolicy, SchemeChoice, ServingReport, ServingScenario,
    StreamCapacityPoint, StreamUtilization, TrafficModel, SERVING_REPORT_SCHEMA,
};
pub use topology::{Cluster, InterconnectConfig, ShardPlan, ShardingSpec, StreamConfig};
pub use workload::{Dataset, Workload, WorkloadKind, WorkloadTarget};

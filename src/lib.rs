//! # dlrm-gpu-repro — umbrella crate
//!
//! This crate re-exports the workspace members so that the runnable examples
//! under `examples/` and the cross-crate integration tests under `tests/`
//! have a single dependency root. The actual functionality lives in:
//!
//! * [`gpu_sim`] — the warp-level GPU timing simulator (substrate),
//! * [`dlrm_datasets`] — embedding access-trace generators and hotness
//!   metrics,
//! * [`embedding_kernels`] — the embedding-bag kernel variants (base, OptMT,
//!   prefetching, L2 pinning) and the functional reference,
//! * [`dlrm`] — the DLRM model, functional forward pass and non-embedding
//!   timing model,
//! * [`perf_envelope`] — the paper's contribution behind the unified
//!   experiment API: `Experiment::run(&Workload, &Scheme) -> RunReport`
//!   covers every run target (kernel / embedding stage / heterogeneous mix /
//!   end-to-end, unsharded or sharded across a multi-GPU `Cluster`),
//!   `Campaign` executes scheme × workload × seed × pooling grids in
//!   parallel with deterministic results, and `RunReport` serializes to
//!   JSON. The topology layer (`Cluster`, sharding strategies, the
//!   interconnect model), the DSE sweeps and the static profiling framework
//!   build on the same surface.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub use dlrm;
pub use dlrm_datasets;
pub use embedding_kernels;
pub use gpu_sim;
pub use perf_envelope;

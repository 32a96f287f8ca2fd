//! # gpu-sim — a warp-level GPU timing simulator
//!
//! This crate is the hardware substrate for the reproduction of
//! *"Pushing the Performance Envelope of DNN-based Recommendation Systems
//! Inference on GPUs"* (MICRO 2024). The paper's experiments run on real
//! NVIDIA A100 / H100 GPUs and are characterised with Nsight Compute; since
//! neither is available here, this crate models the microarchitectural
//! mechanisms the paper reasons about:
//!
//! * streaming multiprocessors (SMs) split into sub-partitions (SMSPs), each
//!   with a warp scheduler that issues at most one instruction per cycle,
//! * a scoreboard that tracks outstanding register writes so that dependent
//!   instructions stall ("long scoreboard stalls" for global/local loads),
//! * a register-file occupancy model (more registers per thread means fewer
//!   resident warps, i.e. less warp-level parallelism),
//! * per-SM L1 data caches, a shared L2 cache with Ampere-style *residency
//!   control* (a persisting carve-out with an evict-last policy), shared
//!   memory, and an HBM model with both latency and bandwidth,
//! * NCU-like statistics (issue-slot utilization, warp cycles per executed
//!   instruction, long scoreboard stalls, cache hit rates, DRAM bytes read,
//!   average HBM read bandwidth).
//!
//! Kernels are expressed as [`KernelProgram`]s: factories that create one
//! warp-level instruction generator ([`WarpProgram`]) per warp. The
//! `embedding-kernels` crate builds the paper's embedding-bag variants on top
//! of this interface.
//!
//! ## Example
//!
//! ```
//! use gpu_sim::{GpuConfig, Simulator, KernelLaunch};
//! use gpu_sim::programs::StreamKernel;
//!
//! let cfg = GpuConfig::a100().with_num_sms(4);
//! let sim = Simulator::new(cfg);
//! let launch = KernelLaunch::new("stream", 8, 128).with_regs_per_thread(32);
//! let kernel = StreamKernel::new(64);
//! let stats = sim.run(&launch, &kernel);
//! assert!(stats.elapsed_cycles > 0);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub(crate) mod contract;
pub mod decode;
pub mod engine;
pub mod isa;
pub mod launch;
pub mod mem;
pub mod occupancy;
pub mod programs;
pub mod sm;
pub mod stats;
pub mod warp;
pub(crate) mod wheel;

pub use config::{CacheConfig, DramConfig, GpuConfig};
pub use decode::{InstBuffer, InstSink};
pub use engine::{EngineMode, Simulator, StreamPartition};
pub use isa::{Instruction, MemSpace, Reg};
pub use launch::{KernelLaunch, KernelProgram, WarpInfo, WarpProgram};
pub use occupancy::Occupancy;
pub use stats::KernelStats;

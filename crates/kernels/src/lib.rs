//! # embedding-kernels — the paper's embedding-bag kernel variants
//!
//! This crate expresses the PyTorch embedding-bag CUDA kernel
//! (`EmbeddingBag_updateOutputKernel_sum_mean`) and every optimized variant
//! the paper proposes as [`gpu_sim`] warp programs:
//!
//! * **Base**: the off-the-shelf kernel — 74 registers/thread, 24 resident
//!   warps per SM, a gather-reduce loop with a load-use dependence per lookup
//!   (paper Algorithm 2, Table IV).
//! * **OptMT**: the same kernel compiled with `-maxrregcount` so that more
//!   warps are resident, at the cost of register spills to local memory
//!   (paper Section III-C, Figure 6, Table V).
//! * **Software prefetching**: RPF (registers), SMPF (shared memory), LMPF
//!   (local memory) and L1DPF (`prefetch.global.L1`), each with a
//!   configurable prefetch distance (paper Section IV-B, Figures 8, 9, 15,
//!   16).
//! * **L2 pinning (L2P)**: a pin plan of the hottest rows, installed straight
//!   into the L2 persisting carve-out before the embedding kernel runs, with
//!   the paper's pin kernel's cost hidden behind host-side preprocessing
//!   (paper Section IV-C, Figures 10, 11).
//!
//! It also contains a functional (numerical) reference implementation of the
//! embedding-bag forward pass used by the `dlrm` crate and by property tests.
//!
//! ## Example
//!
//! ```
//! use dlrm_datasets::{AccessPattern, TraceConfig};
//! use embedding_kernels::{EmbeddingConfig, EmbeddingKernelSpec, EmbeddingWorkload};
//! use gpu_sim::{GpuConfig, Simulator};
//!
//! let cfg = EmbeddingConfig::new(TraceConfig::new(10_000, 32, 8), 64);
//! let workload = EmbeddingWorkload::generate(cfg, AccessPattern::HighHot, 0, 1);
//! let spec = EmbeddingKernelSpec::base();
//! let sim = Simulator::new(GpuConfig::test_small());
//! let stats = sim.run(&spec.launch(&workload), &spec.kernel(&workload));
//! assert!(stats.counters.load_insts > 0);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod kernel;
pub mod l2pin;
pub mod layout;
pub mod reference;
pub mod spec;
pub mod workload;

pub use kernel::EmbeddingBagKernel;
pub use l2pin::PinPlan;
pub use layout::TableLayout;
pub use reference::{embedding_bag_forward, embedding_bag_forward_simt, SyntheticTable};
pub use spec::{BufferStation, EmbeddingKernelSpec, PrefetchConfig};
pub use workload::{EmbeddingConfig, EmbeddingWorkload};

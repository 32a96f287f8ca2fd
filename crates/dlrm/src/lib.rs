//! # dlrm — the Deep Learning Recommendation Model substrate
//!
//! The paper runs end-to-end DLRM inference (Figure 2): continuous features
//! go through a bottom MLP, categorical features through the embedding
//! stage, their outputs are combined by a feature-interaction stage, and a
//! top MLP produces the click-through-rate prediction. This crate provides:
//!
//! * the model configuration used in the paper's Section V (bottom MLP
//!   1024-512-128-128, 250 embedding tables of 500K x 128, top MLP 128-64-1),
//! * a functional forward pass with procedurally generated weights (bottom
//!   MLP, embedding bags, dot-product feature interaction, top MLP), used by
//!   examples and property tests,
//! * an analytic timing model for the non-embedding stages, calibrated so
//!   that the embedding stage contributes the ~69-88% of batch latency the
//!   paper reports (Figure 1 / Figure 14), and
//! * the [`BatchLatency`] type that combines a measured embedding-stage time
//!   with the non-embedding time into an end-to-end batch latency.
//!
//! ## Example
//!
//! ```
//! use dlrm::{DlrmConfig, NonEmbeddingTimingModel};
//! use gpu_sim::GpuConfig;
//!
//! let model = DlrmConfig::paper_model();
//! let timing = NonEmbeddingTimingModel::new(&GpuConfig::a100());
//! let non_emb_us = timing.non_embedding_time_us(&model);
//! assert!(non_emb_us > 0.0);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod forward;
pub mod interaction;
pub mod latency;
pub mod mlp;
pub mod model;
pub mod timing;

pub use forward::{DlrmForward, DlrmOutput};
pub use interaction::dot_interaction;
pub use latency::BatchLatency;
pub use mlp::Mlp;
pub use model::{DlrmConfig, WorkloadScale};
pub use timing::NonEmbeddingTimingModel;

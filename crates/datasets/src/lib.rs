//! # dlrm-datasets — embedding access-trace generators and hotness metrics
//!
//! The paper evaluates five memory access patterns derived from Meta's
//! production embedding-lookup traces (Section III-B, Table III, Figure 5):
//! `one_item`, `high_hot`, `med_hot`, `low_hot` and `random`. The production
//! traces themselves are not available here, so this crate generates
//! synthetic traces whose *statistics* — the unique-access percentage and the
//! coverage curve — reproduce the paper's characterisation:
//!
//! * `one_item`: every lookup hits the same row (the paper's best case,
//!   ~100% cache hits),
//! * `high_hot` / `med_hot` / `low_hot`: power-law (Zipf-like) distributions
//!   of decreasing skew, so the working set grows as hotness drops,
//! * `random`: uniform over the whole table (the paper's worst case).
//!
//! ## Example
//!
//! ```
//! use dlrm_datasets::{AccessPattern, TraceConfig};
//!
//! let cfg = TraceConfig::new(500_000, 128, 32);
//! let trace = cfg.generate(AccessPattern::HighHot, 42);
//! assert_eq!(trace.total_lookups(), 128 * 32);
//! let unique = trace.unique_access_pct();
//! assert!(unique < 50.0, "a hot trace reuses rows heavily");
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod coverage;
pub mod mix;
pub mod pattern;
pub mod trace;
pub mod zipf;

pub use coverage::{pattern_coverage_skew, CoverageCurve};
pub use mix::{HeterogeneousMix, MixKind};
pub use pattern::AccessPattern;
pub use trace::{EmbeddingTrace, TraceConfig};
pub use zipf::ZipfSampler;

//! # bench — the experiment harness that regenerates every paper table and
//! figure
//!
//! Two binaries drive the harness:
//!
//! * `cargo run -p bench --release --bin figures -- --figure 12` regenerates
//!   one of the paper's figures (1, 5, 6, 9, 11, 12, 13, 14, 15, 16, 17, 18,
//!   19) as a plain-text/CSV series,
//! * `cargo run -p bench --release --bin tables -- --table 4` regenerates one
//!   of the paper's tables (1, 3, 4, 5, 8, 9).
//!
//! Both accept `--scale test|default|paper` (default: `default`) and
//! `--device a100|h100` where applicable. The `sharding`, `serving`,
//! `resilience` and `fleet` binaries run the scaling and serving studies
//! and write their `BENCH_*.json` reports. Criterion benches under
//! `benches/` time the simulator, the kernels, the campaign executor and
//! the end-to-end pipeline. Host throughput of the simulator itself,
//! layer by layer, is measured by the separate `perfbench` package at the
//! repository root.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod figures;
pub mod options;
pub mod tables;

pub use options::HarnessOptions;

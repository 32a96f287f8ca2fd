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
//! and write their `BENCH_*.json` reports, which hold simulated results
//! only and regenerate byte for byte. Nothing here reads the host clock:
//! host throughput of the simulator, layer by layer, is measured by the
//! separate `perfbench` package at the repository root.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod figures;
pub mod options;
pub mod tables;

pub use options::HarnessOptions;

//! Quickstart: run end-to-end DLRM inference under the off-the-shelf
//! configuration and under the paper's combined optimization
//! (RPF + L2P + OptMT) on a simulated A100, and compare them.
//!
//! ```text
//! cargo run --release --example quickstart            # test scale (fast)
//! cargo run --release --example quickstart -- default # larger workload
//! ```
//!
//! An unknown scale exits with code 2.

mod args;

use dlrm_datasets::AccessPattern;
use gpu_sim::GpuConfig;
use perf_envelope::{Experiment, Scheme, Workload};

fn main() {
    let scale = args::scale("quickstart", std::env::args().nth(1));
    let experiment = Experiment::new(GpuConfig::a100(), scale);
    println!(
        "device: {}, workload scale: {}, batch {} x pooling {} over {} tables",
        experiment.gpu().name,
        scale.name(),
        experiment.model().batch_size(),
        experiment.model().embedding.trace.pooling_factor,
        experiment.model().num_tables,
    );

    for pattern in [AccessPattern::HighHot, AccessPattern::Random] {
        println!("\n=== dataset: {pattern} ===");
        let workload = Workload::end_to_end(pattern);
        let base = experiment.run(&workload, &Scheme::base());
        let combined = experiment.run(&workload, &Scheme::combined());

        println!(
            "base          : {}",
            base.end_to_end.expect("end-to-end run")
        );
        println!(
            "RPF+L2P+OptMT : {}",
            combined.end_to_end.expect("end-to-end run")
        );
        println!(
            "embedding-only speedup: {:.2}x, end-to-end speedup: {:.2}x",
            combined.embedding_speedup_over(&base),
            combined.speedup_over(&base),
        );
        println!(
            "base kernel profile: {:.1} long-scoreboard stall cycles/inst, {} warps/SM, L2 hit {:.1}%",
            base.stats.long_scoreboard_per_inst(),
            base.stats.theoretical_warps_per_sm,
            base.stats.l2_hit_rate_pct(),
        );
        println!(
            "optimized profile  : {:.1} long-scoreboard stall cycles/inst, {} warps/SM, L2 hit {:.1}%",
            combined.stats.long_scoreboard_per_inst(),
            combined.stats.theoretical_warps_per_sm,
            combined.stats.l2_hit_rate_pct(),
        );
        println!("\nas JSON: {}", combined.to_json());
    }
}

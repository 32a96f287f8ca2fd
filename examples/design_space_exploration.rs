//! Design-space exploration: reproduce the paper's tuning methodology on a
//! simulated A100 — sweep warp-level parallelism (Figure 6), sweep the
//! prefetch distance (Figure 9), and compare the four prefetch buffer
//! stations (Figure 15) — then report the chosen operating point.
//!
//! Each sweep is a thin `Campaign` definition under the hood, so its grid
//! cells execute in parallel across the machine's cores.
//!
//! ```text
//! cargo run --release --example design_space_exploration -- [test|default]
//! ```
//!
//! An unknown scale exits with code 2.

mod args;

use dlrm_datasets::AccessPattern;
use embedding_kernels::BufferStation;
use gpu_sim::GpuConfig;
use perf_envelope::{
    buffer_station_comparison, find_optimal_distance, find_optimal_multithreading,
    prefetch_distance_sweep, register_sweep, CampaignCache, Experiment, PAPER_WARP_SWEEP,
};

fn main() {
    let scale = args::scale("design_space_exploration", std::env::args().nth(1));
    // One shared result cache: the sweeps below overlap (every sweep
    // re-evaluates the base scheme on the same patterns), so overlapping
    // cells execute once and later sweeps reuse them.
    let experiment = Experiment::new(GpuConfig::a100(), scale).with_cache(CampaignCache::new());
    let patterns = [AccessPattern::HighHot, AccessPattern::Random];

    println!("== step 1: warp-level parallelism sweep (-maxrregcount) ==");
    let points = register_sweep(&experiment, &patterns, &PAPER_WARP_SWEEP);
    for p in &points {
        let speedups: Vec<String> = p
            .speedups
            .iter()
            .map(|(d, s)| format!("{d}: {s:.2}x"))
            .collect();
        println!(
            "  {:>2} warps/SM ({} regs/thread): {}  [local loads {:.2} M]",
            p.target_warps,
            p.regs_per_thread,
            speedups.join(", "),
            p.local_loads_millions
        );
    }
    let optmt = find_optimal_multithreading(&points).expect("sweep produced points");
    println!(
        "  -> OptMT = {} warps/SM via -maxrregcount {}\n",
        optmt.target_warps, optmt.regs_per_thread
    );

    println!("== step 2: prefetch distance sweep (RPF on top of OptMT) ==");
    let distances = [1u32, 2, 4, 6, 8];
    let sweep = prefetch_distance_sweep(
        &experiment,
        BufferStation::Register,
        &distances,
        &patterns,
        true,
    );
    for p in &sweep {
        let speedups: Vec<String> = p
            .speedups
            .iter()
            .map(|(d, s)| format!("{d}: {s:.2}x"))
            .collect();
        println!("  distance {:>2}: {}", p.distance, speedups.join(", "));
    }
    let best_distance = find_optimal_distance(&sweep).expect("sweep produced points");
    println!("  -> optimal prefetch distance = {best_distance}\n");

    println!("== step 3: buffer-station comparison (with OptMT) ==");
    for row in buffer_station_comparison(&experiment, &patterns, true) {
        let speedups: Vec<String> = row
            .speedups
            .iter()
            .map(|(d, s)| format!("{d}: {s:.2}x"))
            .collect();
        println!(
            "  {:<6} (distance {:>2}): {}",
            row.station.abbreviation(),
            row.distance,
            speedups.join(", ")
        );
    }
    println!(
        "\nchosen operating point: RPF at distance {best_distance} + L2 pinning + {} warps/SM",
        optmt.target_warps
    );
}

//! Golden production-scale statistics: the A100 Default-scale cells the
//! benchmark sweeps, and one H100 NVL cell, report exactly the counters
//! earlier builds reported.
//!
//! At production scale the only other check is event-driven ≡
//! cycle-accurate, and both loops share the memory hierarchy, the
//! instruction generators, the dataset traces and the scoreboard register
//! map, so a change to any of those moves both sides and still passes.
//! This suite pins every `KernelStats` and `RawCounters` field of each
//! cell's merged statistics (plus the cell's headline latency) as a value
//! against `tests/fixtures/golden_stats.txt`, one
//! `label<TAB>field<TAB>value` line per field, so a failure names the
//! counter that moved.
//!
//! Cells: the four evaluated access patterns under base, OptMT and
//! RPF+L2P+OptMT; the K=2 interleaved MedHot base cell; and MedHot under
//! RPF+L2P+OptMT on an H100 NVL. All are embedding-stage runs at Default
//! scale, seed 1.
//!
//! The fixture is a record of what earlier builds computed, so it must
//! never be regenerated from the code it checks. To extend the grid, add
//! cells here, copy this file into a checkout of the last commit whose
//! statistics are canonical, and run there
//! `GOLDEN_STATS_WRITE=$PWD/tests/fixtures/golden_stats.txt cargo test --release --test golden_stats`.

use dlrm::WorkloadScale;
use dlrm_datasets::AccessPattern;
use gpu_sim::stats::RawCounters;
use gpu_sim::{GpuConfig, KernelStats, StreamPartition};
use perf_envelope::{Experiment, RunReport, Scheme, StreamConfig, Workload};

const FIXTURE: &str = include_str!("fixtures/golden_stats.txt");

/// `(field, value)` for every statistics field of `report`, with floats
/// in their shortest exact rendering.
fn fields(report: &RunReport) -> Vec<(&'static str, String)> {
    let KernelStats {
        kernel_name,
        device_name,
        clock_ghz,
        total_schedulers,
        peak_dram_bandwidth_gbps,
        elapsed_cycles,
        counters,
        l1_accesses,
        l1_hits,
        l2_accesses,
        l2_hits,
        dram_bytes_read,
        dram_bytes_written,
        theoretical_warps_per_sm,
        theoretical_occupancy_pct,
        allocated_regs_per_thread,
    } = &report.stats;
    let RawCounters {
        insts_issued,
        load_insts,
        local_load_insts,
        store_insts,
        prefetch_insts,
        long_scoreboard_cycles,
        short_scoreboard_cycles,
        not_selected_cycles,
        resident_warp_cycles,
        warps_launched,
        blocks_launched,
    } = counters;
    vec![
        ("latency_us", format!("{:?}", report.latency_us)),
        ("kernel_name", kernel_name.clone()),
        ("device_name", device_name.clone()),
        ("clock_ghz", format!("{clock_ghz:?}")),
        ("total_schedulers", total_schedulers.to_string()),
        (
            "peak_dram_bandwidth_gbps",
            format!("{peak_dram_bandwidth_gbps:?}"),
        ),
        ("elapsed_cycles", elapsed_cycles.to_string()),
        ("l1_accesses", l1_accesses.to_string()),
        ("l1_hits", l1_hits.to_string()),
        ("l2_accesses", l2_accesses.to_string()),
        ("l2_hits", l2_hits.to_string()),
        ("dram_bytes_read", dram_bytes_read.to_string()),
        ("dram_bytes_written", dram_bytes_written.to_string()),
        (
            "theoretical_warps_per_sm",
            theoretical_warps_per_sm.to_string(),
        ),
        (
            "theoretical_occupancy_pct",
            format!("{theoretical_occupancy_pct:?}"),
        ),
        (
            "allocated_regs_per_thread",
            allocated_regs_per_thread.to_string(),
        ),
        ("counters.insts_issued", insts_issued.to_string()),
        ("counters.load_insts", load_insts.to_string()),
        ("counters.local_load_insts", local_load_insts.to_string()),
        ("counters.store_insts", store_insts.to_string()),
        ("counters.prefetch_insts", prefetch_insts.to_string()),
        (
            "counters.long_scoreboard_cycles",
            long_scoreboard_cycles.to_string(),
        ),
        (
            "counters.short_scoreboard_cycles",
            short_scoreboard_cycles.to_string(),
        ),
        (
            "counters.not_selected_cycles",
            not_selected_cycles.to_string(),
        ),
        (
            "counters.resident_warp_cycles",
            resident_warp_cycles.to_string(),
        ),
        ("counters.warps_launched", warps_launched.to_string()),
        ("counters.blocks_launched", blocks_launched.to_string()),
    ]
}

/// Every golden line as `label<TAB>field<TAB>value`, in fixture order.
fn grid() -> Vec<String> {
    let a100 = Experiment::new(GpuConfig::a100(), WorkloadScale::Default).with_seed(1);
    let mut cells = Vec::new();
    for pattern in AccessPattern::EVALUATED {
        for scheme in [Scheme::base(), Scheme::optmt(), Scheme::combined()] {
            cells.push((
                format!("a100/{}/{}", pattern.paper_name(), scheme.paper_label()),
                a100.clone(),
                pattern,
                scheme,
            ));
        }
    }
    cells.push((
        format!(
            "a100_k2_interleaved/{}/base",
            AccessPattern::MedHot.paper_name()
        ),
        a100.with_streams(StreamConfig::new(2, StreamPartition::Interleaved)),
        AccessPattern::MedHot,
        Scheme::base(),
    ));
    cells.push((
        format!(
            "h100_nvl/{}/{}",
            AccessPattern::MedHot.paper_name(),
            Scheme::combined().paper_label()
        ),
        Experiment::new(GpuConfig::h100_nvl(), WorkloadScale::Default).with_seed(1),
        AccessPattern::MedHot,
        Scheme::combined(),
    ));
    let mut lines = Vec::new();
    for (label, experiment, pattern, scheme) in cells {
        let report = experiment.run(&Workload::stage(pattern), &scheme);
        assert!(
            report.stats.counters.insts_issued > 0,
            "{label} ran nothing"
        );
        for (field, value) in fields(&report) {
            lines.push(format!("{label}\t{field}\t{value}"));
        }
    }
    lines
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "A100 Default-scale cells take minutes unoptimized; CI runs this in release"
)]
fn production_scale_statistics_match_the_golden_fixture() {
    let lines = grid();
    if let Ok(path) = std::env::var("GOLDEN_STATS_WRITE") {
        let text: String = lines.iter().map(|line| format!("{line}\n")).collect();
        std::fs::write(&path, text).expect("fixture is writable");
        return;
    }
    let golden: Vec<&str> = FIXTURE.lines().collect();
    assert_eq!(
        lines.len(),
        golden.len(),
        "the grid and the fixture list different fields"
    );
    for (line, golden_line) in lines.iter().zip(&golden) {
        assert_eq!(line, golden_line, "a production-scale statistic changed");
    }
}

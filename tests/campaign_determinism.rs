//! Campaign-level guarantees: the same grid with the same seed must produce
//! identical `RunReport`s regardless of thread count, reports must survive a
//! JSON round trip bit-for-bit, and parallel execution must beat serial
//! execution on wall-clock time for a real grid (the latter is `#[ignore]`d
//! in normal runs because it executes a Default-scale grid).

use dlrm::{DlrmConfig, WorkloadScale};
use dlrm_datasets::{AccessPattern, HeterogeneousMix, MixKind, ZipfSampler};
use gpu_sim::GpuConfig;
use perf_envelope::{Campaign, CampaignRun, Experiment, RunReport, Scheme, Workload};
use std::sync::{PoisonError, RwLock, RwLockReadGuard};

/// Held shared by every test in this file and exclusively by the wall-clock
/// comparison, so its timed runs never share the host's cores with the
/// tests the harness runs alongside it.
static CORES: RwLock<()> = RwLock::new(());

/// Takes a shared hold on [`CORES`] for a test that does not time itself.
fn shared_cores() -> RwLockReadGuard<'static, ()> {
    CORES.read().unwrap_or_else(PoisonError::into_inner)
}

/// A grid touching all three workload kinds and both dataset shapes.
fn mixed_grid(seed: u64) -> Campaign {
    let experiment = Experiment::new(GpuConfig::test_small(), WorkloadScale::Test).with_seed(seed);
    Campaign::new(experiment)
        .workloads([
            Workload::kernel(AccessPattern::MedHot),
            Workload::stage(AccessPattern::Random),
            Workload::stage(HeterogeneousMix::paper_mix(MixKind::Mix2, 0.02)),
            Workload::end_to_end(AccessPattern::HighHot),
        ])
        .schemes([Scheme::base(), Scheme::optmt(), Scheme::combined()])
}

#[test]
fn reports_are_identical_for_any_thread_count() {
    let _cores = shared_cores();
    let baseline = mixed_grid(7).threads(1).run();
    for threads in [2, 4, 7] {
        let run = mixed_grid(7).threads(threads).run();
        assert_eq!(
            run, baseline,
            "a campaign with {threads} worker threads diverged from the serial run"
        );
    }
}

#[test]
fn seeds_flow_into_every_cell_and_change_results() {
    let _cores = shared_cores();
    let a = mixed_grid(7).threads(4).run();
    let b = mixed_grid(8).threads(4).run();
    assert!(a.reports().iter().all(|r| r.seed == 7));
    assert!(b.reports().iter().all(|r| r.seed == 8));
    assert_ne!(
        a.reports()[0].stats,
        b.reports()[0].stats,
        "seed must influence the traces"
    );
}

#[test]
fn every_report_round_trips_through_json() {
    let _cores = shared_cores();
    let run = mixed_grid(7).threads(2).run();
    for report in run.reports() {
        let text = report.to_json();
        let back = RunReport::from_json(&text).expect("report JSON parses back");
        assert_eq!(&back, report, "JSON round trip must be lossless");
    }
    // The whole campaign serializes as an array and reloads.
    let reloaded = CampaignRun::from_json(&run.to_json()).expect("campaign JSON parses back");
    assert_eq!(reloaded, run.reports());
}

#[test]
fn grid_cells_carry_their_coordinates() {
    let _cores = shared_cores();
    let run = mixed_grid(7).run();
    assert_eq!(run.len(), 12);
    assert_eq!(run.get(2, 0, 0, 0).workload, "Mix2");
    assert_eq!(run.get(3, 2, 0, 0).scheme, "RPF+L2P+OptMT");
    assert!(run.get(3, 2, 0, 0).end_to_end.is_some());
    assert!(run.get(0, 0, 0, 0).tables.is_none());
}

/// Runs `grid`, built at `scale`, serially and in parallel, asserting
/// identical results and a parallel wall-clock win. Returns `false`
/// (skipping the timing assertion) on single-core machines.
fn assert_parallel_beats_serial(scale: WorkloadScale, grid: &dyn Fn() -> Campaign) -> bool {
    assert!(
        grid().len() >= 12,
        "the acceptance grid must have at least 12 cells"
    );
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if threads < 2 {
        eprintln!("skipping wall-clock comparison: only one core available");
        return false;
    }

    let _cores = CORES.write().unwrap_or_else(PoisonError::into_inner);
    // Zipf CDF tables are shared process-wide: build the grid's untimed, so
    // the serial pass does not pay for builds the parallel pass then reuses.
    let rows = DlrmConfig::at_scale(scale).embedding.trace.num_rows;
    for exponent in AccessPattern::ALL
        .iter()
        .filter_map(AccessPattern::zipf_exponent)
    {
        ZipfSampler::new(rows, exponent);
    }

    // audit:allow(wall_clock): times the host-side worker pool for a speedup
    let start = std::time::Instant::now();
    let serial = grid().threads(1).run();
    let serial_elapsed = start.elapsed();

    // audit:allow(wall_clock): same host-side timing; never a simulated result
    let start = std::time::Instant::now();
    let parallel = grid().threads(threads).run();
    let parallel_elapsed = start.elapsed();

    assert_eq!(
        serial, parallel,
        "parallel execution must not change results"
    );
    assert!(
        parallel_elapsed < serial_elapsed,
        "parallel ({parallel_elapsed:?} on {threads} threads) should beat serial \
         ({serial_elapsed:?}) on a {}-cell grid",
        serial.len()
    );
    true
}

/// Always-run acceptance check for parallel execution at Test scale: a
/// 24-cell grid of embedding-stage workloads is wall-clock faster in
/// parallel than serially, with identical results — so CI exercises the
/// parallel speedup path on every push, not only when `--ignored` runs.
#[test]
fn campaign_parallel_beats_serial_wall_clock_at_test_scale() {
    let grid = || {
        let experiment = Experiment::new(GpuConfig::test_small(), WorkloadScale::Test);
        Campaign::new(experiment)
            .workloads(AccessPattern::EVALUATED.map(Workload::stage))
            .schemes([Scheme::base(), Scheme::optmt(), Scheme::combined()])
            .seeds([1, 2])
    };
    assert_eq!(grid().len(), 24);
    assert_parallel_beats_serial(WorkloadScale::Test, &grid);
}

/// Acceptance check for parallel execution at Default scale (the original
/// paper-sized grid). Deliberately kept `#[ignore]`d rather than promoted
/// into the default suite, for two reasons:
///
/// * **Cost.** Default scale takes tens of seconds serially, which would
///   dominate an otherwise sub-minute `cargo test` run.
/// * **The `nproc = 1` caveat.** The wall-clock assertion is only
///   meaningful on a multi-core host; [`assert_parallel_beats_serial`]
///   degrades to a correctness-only check (returning `false`) when
///   `available_parallelism` reports a single core, so promoting this test
///   would buy nothing on constrained runners while still paying the
///   Default-scale simulation cost twice.
///
/// It is still exercised on every push: CI runs it in a dedicated
/// release-mode step on the (multi-core) hosted runners via
/// `cargo test --release -q --test campaign_determinism -- --ignored`.
/// Locally, run it the same way. The always-run Test-scale variant above
/// covers the speedup path in ordinary `cargo test` invocations.
#[test]
#[ignore = "Default-scale wall-clock comparison; run explicitly with --ignored"]
fn campaign_parallel_beats_serial_wall_clock() {
    let grid = || {
        let experiment = Experiment::new(GpuConfig::a100(), WorkloadScale::Default);
        Campaign::new(experiment)
            .workloads(AccessPattern::EVALUATED.map(Workload::stage))
            .schemes([Scheme::base(), Scheme::optmt(), Scheme::combined()])
    };
    assert_parallel_beats_serial(WorkloadScale::Default, &grid);
}

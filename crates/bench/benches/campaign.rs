//! Criterion benchmark of the `Campaign` executor: the same ≥12-cell grid
//! run serially (one worker), in parallel (all cores), and with the result
//! cache attached (steady-state re-runs are served from cache).
//!
//! The grid is every evaluated access pattern as an embedding-stage
//! workload × the base, OptMT and combined schemes, on the small test
//! device. Engine-mode agreement on such grids is checked by
//! `tests/engine_equivalence.rs`, thread-count invariance by
//! `tests/campaign_determinism.rs`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dlrm::WorkloadScale;
use dlrm_datasets::AccessPattern;
use gpu_sim::GpuConfig;
use perf_envelope::{Campaign, CampaignCache, Experiment, Scheme, Workload};

fn grid() -> Campaign {
    Campaign::new(Experiment::new(
        GpuConfig::test_small(),
        WorkloadScale::Test,
    ))
    .workloads(AccessPattern::EVALUATED.map(Workload::stage))
    .schemes([Scheme::base(), Scheme::optmt(), Scheme::combined()])
}

fn campaign_scaling(c: &mut Criterion) {
    let cells = grid().len();
    assert!(cells >= 12, "the grid must exercise at least 12 cells");
    let mut group = c.benchmark_group("campaign_scaling");
    group.sample_size(10);
    for threads in [1usize, 0] {
        let name = if threads == 1 {
            "serial_1_thread"
        } else {
            "parallel_all_cores"
        };
        group.bench_with_input(
            BenchmarkId::from_parameter(name),
            &threads,
            |b, &threads| {
                let campaign = grid().threads(threads);
                b.iter(|| campaign.run());
            },
        );
    }
    // Steady state with the campaign cache: every iteration after the first
    // is served entirely from cache, the regime of re-run sweeps.
    let cached = grid().with_cache(CampaignCache::new()).threads(1);
    group.bench_with_input(
        BenchmarkId::from_parameter("serial_cached"),
        &(),
        |b, ()| b.iter(|| cached.run()),
    );
    group.finish();
}

criterion_group!(benches, campaign_scaling);
criterion_main!(benches);

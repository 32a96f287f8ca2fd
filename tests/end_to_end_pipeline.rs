//! Cross-crate integration tests: the full pipeline from trace generation
//! through the simulated embedding stage to end-to-end latency, exercising
//! the paper's headline claims at test scale through the unified
//! `Experiment::run(&Workload, &Scheme)` entry point.

use dlrm::WorkloadScale;
use dlrm_datasets::{AccessPattern, HeterogeneousMix, MixKind};
use gpu_sim::GpuConfig;
use perf_envelope::{Experiment, Scheme, Workload};

fn exp() -> Experiment {
    Experiment::new(GpuConfig::test_small(), WorkloadScale::Test)
}

#[test]
fn performance_gap_grows_as_hotness_drops() {
    // Paper Figure 1 / Section III: latency increases monotonically from
    // one_item to random for the base kernel.
    let e = exp();
    let mut last = 0.0;
    for pattern in AccessPattern::ALL {
        let r = e.run(&Workload::stage(pattern), &Scheme::base());
        assert!(
            r.latency_us >= last * 0.95,
            "{pattern} should not be meaningfully faster than hotter patterns ({:.1} vs {last:.1})",
            r.latency_us
        );
        last = r.latency_us.max(last);
    }
}

#[test]
fn combined_scheme_narrows_the_one_item_random_gap() {
    // Paper Section VI-A2: the combined scheme substantially lowers the
    // worst-case gap between the fastest and slowest datasets.
    let e = exp();
    let gap = |scheme: &Scheme| {
        let fast = e.run(&Workload::stage(AccessPattern::OneItem), scheme);
        let slow = e.run(&Workload::stage(AccessPattern::Random), scheme);
        slow.latency_us / fast.latency_us
    };
    let base_gap = gap(&Scheme::base());
    let combined_gap = gap(&Scheme::combined());
    assert!(
        combined_gap < base_gap,
        "combined gap {combined_gap:.2}x should be below the base gap {base_gap:.2}x"
    );
}

#[test]
fn every_headline_scheme_beats_base_on_the_random_dataset() {
    // Paper Figure 12: all four schemes improve over off-the-shelf PyTorch.
    let e = exp();
    let workload = Workload::stage(AccessPattern::Random);
    let base = e.run(&workload, &Scheme::base());
    for scheme in Scheme::figure12_schemes() {
        let r = e.run(&workload, &scheme);
        assert!(
            r.speedup_over(&base) > 1.0,
            "{} should beat base on random, got {:.3}x",
            scheme.paper_label(),
            r.speedup_over(&base)
        );
    }
}

#[test]
fn end_to_end_speedup_is_bounded_by_embedding_speedup() {
    // Amdahl: the non-embedding stages are untouched, so end-to-end gains
    // can never exceed embedding-only gains (paper Figures 12 vs 13).
    let e = exp();
    for pattern in [AccessPattern::MedHot, AccessPattern::Random] {
        let workload = Workload::end_to_end(pattern);
        let base = e.run(&workload, &Scheme::base());
        let opt = e.run(&workload, &Scheme::combined());
        let emb_speedup = opt.embedding_speedup_over(&base);
        let e2e_speedup = opt.speedup_over(&base);
        assert!(
            e2e_speedup <= emb_speedup + 1e-9,
            "end-to-end speedup {e2e_speedup:.3} exceeded embedding speedup {emb_speedup:.3}"
        );
    }
}

#[test]
fn optimizations_reduce_the_embedding_share_of_latency() {
    // Paper Figure 14: with the embedding stage running faster, its share of
    // the end-to-end latency drops.
    let e = exp();
    let workload = Workload::end_to_end(AccessPattern::Random);
    let base = e.run(&workload, &Scheme::base());
    let opt = e.run(&workload, &Scheme::combined());
    let base_share = base.end_to_end.unwrap().embedding_share_pct();
    let opt_share = opt.end_to_end.unwrap().embedding_share_pct();
    assert!(
        opt_share < base_share,
        "embedding share should drop ({base_share:.1}% -> {opt_share:.1}%)"
    );
}

#[test]
fn heterogeneous_mixes_behave_like_their_composition() {
    // Paper Figure 17: a mix dominated by cold tables (Mix3) is slower than
    // one dominated by hot tables (Mix1), and optimization still helps.
    let e = exp();
    let mix1 = HeterogeneousMix::paper_mix(MixKind::Mix1, 0.02);
    let mix3 = HeterogeneousMix::paper_mix(MixKind::Mix3, 0.02);
    let base1 = e.run(&Workload::stage(mix1), &Scheme::base());
    let base3 = e.run(&Workload::stage(mix3.clone()), &Scheme::base());
    let per_table = |r: &perf_envelope::RunReport| r.tables.unwrap().per_table_us;
    assert!(
        per_table(&base3) > per_table(&base1),
        "cold-heavy mix should be slower per table ({:.1} vs {:.1} us)",
        per_table(&base3),
        per_table(&base1)
    );
    let opt3 = e.run(&Workload::stage(mix3), &Scheme::combined());
    assert!(opt3.speedup_over(&base3) > 1.0);
}

#[test]
fn h100_preset_runs_the_same_pipeline_faster() {
    // Paper Section VI-B4: the H100 NVL lifts base performance.
    let workload = Workload::stage(AccessPattern::LowHot);
    let a100 = Experiment::new(GpuConfig::a100(), WorkloadScale::Test);
    let h100 = Experiment::new(GpuConfig::h100_nvl(), WorkloadScale::Test);
    let a = a100.run(&workload, &Scheme::base());
    let h = h100.run(&workload, &Scheme::base());
    assert!(
        h.latency_us < a.latency_us,
        "H100 ({:.1} us) should beat A100 ({:.1} us) at the same workload",
        h.latency_us,
        a.latency_us
    );
    assert!(a.device.contains("A100"));
    assert!(h.device.contains("H100"));
}

#[test]
fn kernel_statistics_are_internally_consistent() {
    let r = exp().run(&Workload::kernel(AccessPattern::MedHot), &Scheme::base());
    let stats = &r.stats;
    assert!(stats.counters.load_insts <= stats.counters.insts_issued);
    assert!(stats.l1_hits <= stats.l1_accesses);
    assert!(stats.l2_hits <= stats.l2_accesses);
    assert!(stats.issued_per_scheduler_per_cycle() <= 1.0);
    assert!(stats.kernel_time_us() > 0.0);
    assert!(stats.hbm_read_bw_utilization_pct() <= 100.0);
}

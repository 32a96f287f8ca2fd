//! Side-by-side equivalence of the two simulator engines.
//!
//! The event-driven engine ([`EngineMode::EventDriven`]) must be
//! **observably bit-exact** with the cycle-accurate reference loop
//! ([`EngineMode::CycleAccurate`]): identical elapsed cycles, issue and
//! stall counters, cache counters and DRAM traffic on every kernel variant,
//! access pattern and occupancy shape. This suite runs both engines over a
//! deterministic grid of those axes and fails with the first differing
//! field if they ever diverge. Most cells use the small test device; one
//! release-only test checks A100 Default-scale cells, the production shape.

use dlrm::WorkloadScale;
use dlrm_datasets::{AccessPattern, TraceConfig};
use embedding_kernels::{
    BufferStation, EmbeddingConfig, EmbeddingKernelSpec, EmbeddingWorkload, PinPlan, PrefetchConfig,
};
use gpu_sim::mem::MemorySystem;
use gpu_sim::programs::{PointerChaseKernel, StreamKernel};
use gpu_sim::{
    EngineMode, GpuConfig, KernelLaunch, KernelProgram, KernelStats, Simulator, StreamPartition,
};
use perf_envelope::{Experiment, Scheme, StreamConfig, Workload};

/// Panics with the first differing statistics field if `a` and `b` are not
/// bit-identical.
fn assert_equivalent(a: &KernelStats, b: &KernelStats, label: &str) {
    if let Some(diff) = a.first_difference(b) {
        panic!("engines diverged on {label}: {diff}");
    }
    assert_eq!(a, b, "engines diverged on {label} outside compared fields");
}

/// Runs `kernel` under both engines on a cold memory system each.
fn run_both(
    cfg: &GpuConfig,
    launch: &KernelLaunch,
    kernel: &dyn KernelProgram,
) -> (KernelStats, KernelStats) {
    let reference = Simulator::new(cfg.clone()).with_mode(EngineMode::CycleAccurate);
    let event = Simulator::new(cfg.clone()).with_mode(EngineMode::EventDriven);
    (reference.run(launch, kernel), event.run(launch, kernel))
}

#[test]
fn synthetic_kernels_match_across_occupancy_shapes() {
    // Register pressure, grid size and SM count together cover the
    // occupancy limiters: register-bound, grid-bound and multi-wave drain.
    for num_sms in [1usize, 4] {
        let cfg = GpuConfig::test_small().with_num_sms(num_sms);
        for regs in [32u32, 96, 160] {
            for blocks in [3u32, 8, 40] {
                let launch = KernelLaunch::new("synthetic", blocks, 256).with_regs_per_thread(regs);
                for (name, kernel) in [
                    ("stream", &StreamKernel::new(24) as &dyn KernelProgram),
                    ("chase-cold", &PointerChaseKernel::new(16, 1 << 26)),
                    ("chase-hot", &PointerChaseKernel::new(16, 8 * 1024)),
                ] {
                    let label = format!("{name} sms={num_sms} regs={regs} blocks={blocks}");
                    let (a, b) = run_both(&cfg, &launch, kernel);
                    assert_equivalent(&a, &b, &label);
                }
            }
        }
    }
}

/// Every embedding-bag kernel build variant the schemes can produce.
fn kernel_variants() -> Vec<(String, EmbeddingKernelSpec)> {
    let mut variants = vec![
        ("base".to_string(), EmbeddingKernelSpec::base()),
        (
            "maxrreg32".to_string(),
            EmbeddingKernelSpec::base().with_max_registers(32),
        ),
        (
            "maxrreg48".to_string(),
            EmbeddingKernelSpec::base().with_max_registers(48),
        ),
    ];
    for station in BufferStation::ALL {
        let spec = EmbeddingKernelSpec::base()
            .with_max_registers(48)
            .with_prefetch(PrefetchConfig::new(station, 4));
        variants.push((format!("{}4+OptMT", station.abbreviation()), spec));
    }
    variants
}

#[test]
fn embedding_kernel_variants_match_on_every_access_pattern() {
    let cfg = GpuConfig::test_small();
    let embedding = EmbeddingConfig::new(TraceConfig::new(20_000, 64, 10), 64);
    for pattern in [
        AccessPattern::OneItem,
        AccessPattern::HighHot,
        AccessPattern::MedHot,
        AccessPattern::LowHot,
        AccessPattern::Random,
    ] {
        let workload = EmbeddingWorkload::generate(embedding, pattern, 0, 0xE0);
        for (name, spec) in kernel_variants() {
            let label = format!("{name}/{}", pattern.paper_name());
            let (a, b) = run_both(&cfg, &spec.launch(&workload), &spec.kernel(&workload));
            assert!(a.counters.insts_issued > 0, "{label} ran nothing");
            assert_equivalent(&a, &b, &label);
        }
    }
}

#[test]
fn l2_pinned_chained_kernels_match() {
    // Two tables run back-to-back against one memory system (persisting
    // lines and the device clock carry across kernels), under L2 pinning.
    let cfg = GpuConfig::test_small();
    let embedding = EmbeddingConfig::new(TraceConfig::new(20_000, 64, 10), 64);
    let spec = EmbeddingKernelSpec::base().with_max_registers(48);
    let carveout = cfg.l2_max_persisting_bytes();

    let run_chained = |mode: EngineMode| -> Vec<KernelStats> {
        let sim = Simulator::new(cfg.clone()).with_mode(mode);
        let mut mem = MemorySystem::new(&cfg);
        let mut clock = 0;
        let mut all = Vec::new();
        for table in 0..3u32 {
            let workload =
                EmbeddingWorkload::generate(embedding, AccessPattern::MedHot, table, 0xE1);
            let plan = PinPlan::for_workload(&workload, carveout);
            plan.apply(&mut mem, &cfg, clock);
            let stats = sim.run_with_memory(
                &spec.launch(&workload),
                &spec.kernel(&workload),
                &mut mem,
                clock,
            );
            clock += stats.elapsed_cycles;
            all.push(stats);
        }
        all
    };

    let reference = run_chained(EngineMode::CycleAccurate);
    let event = run_chained(EngineMode::EventDriven);
    for (i, (a, b)) in reference.iter().zip(event.iter()).enumerate() {
        assert_equivalent(a, b, &format!("pinned table {i}"));
    }
}

#[test]
fn max_resident_warp_occupancy_matches() {
    // Full occupancy: 256-thread blocks at low register pressure reach the
    // 64-warp-per-SM residency cap, so every sub-partition slot array runs
    // at its sizing bound while multiple waves drain through.
    let cfg = GpuConfig::test_small();
    let blocks = (cfg.num_sms * 8 * 2) as u32; // two full waves
    let launch = KernelLaunch::new("max-occupancy", blocks, 256).with_regs_per_thread(32);
    for (name, kernel) in [
        ("stream", &StreamKernel::new(24) as &dyn KernelProgram),
        ("chase-hot", &PointerChaseKernel::new(16, 8 * 1024)),
    ] {
        let (a, b) = run_both(&cfg, &launch, kernel);
        assert_eq!(
            a.theoretical_warps_per_sm, 64,
            "launch shape must saturate residency"
        );
        assert!((a.theoretical_occupancy_pct - 100.0).abs() < 1e-9);
        assert_equivalent(&a, &b, &format!("max-occupancy {name}"));
    }
}

#[test]
fn degenerate_one_sm_and_one_smsp_configs_match() {
    // Collapse each hardware axis to one: a single SM (all blocks funnel
    // through one dispatcher) and a single sub-partition per SM (the
    // scheduler's round-robin and the engine's flat smsp indexing both
    // degenerate), plus both at once.
    let embedding = EmbeddingConfig::new(TraceConfig::new(20_000, 64, 10), 64);
    let workload = EmbeddingWorkload::generate(embedding, AccessPattern::MedHot, 0, 0xE3);
    let spec = EmbeddingKernelSpec::base().with_max_registers(48);
    for (sms, smsps) in [(1usize, 4usize), (4, 1), (1, 1)] {
        let cfg = GpuConfig::test_small()
            .with_num_sms(sms)
            .with_smsps_per_sm(smsps);
        let label = format!("sms={sms} smsps={smsps}");
        let (a, b) = run_both(&cfg, &spec.launch(&workload), &spec.kernel(&workload));
        assert!(a.counters.insts_issued > 0, "{label} ran nothing");
        assert_equivalent(&a, &b, &label);

        let launch = KernelLaunch::new("synthetic", 8, 256).with_regs_per_thread(96);
        let kernel = PointerChaseKernel::new(16, 1 << 26);
        let (a, b) = run_both(&cfg, &launch, &kernel);
        assert_equivalent(&a, &b, &format!("chase {label}"));
    }
}

#[test]
fn l2_pinned_chained_kernels_match_under_two_interleaved_streams() {
    // The chained-pinning scenario again, but each round launches K=2
    // concurrent streams interleaved over every SM: persisting lines and
    // the device clock carry across rounds while co-resident streams share
    // the pinned L2.
    let cfg = GpuConfig::test_small();
    let embedding = EmbeddingConfig::new(TraceConfig::new(20_000, 64, 10), 64);
    let spec = EmbeddingKernelSpec::base().with_max_registers(48);
    let carveout = cfg.l2_max_persisting_bytes();

    let run_chained = |mode: EngineMode| -> Vec<KernelStats> {
        let sim = Simulator::new(cfg.clone()).with_mode(mode);
        let mut mem = MemorySystem::new(&cfg);
        let mut clock = 0;
        let mut all = Vec::new();
        for round in 0..2u32 {
            let wa = EmbeddingWorkload::generate(embedding, AccessPattern::MedHot, round, 0xE4);
            let wb =
                EmbeddingWorkload::generate(embedding, AccessPattern::HighHot, round + 2, 0xE4);
            PinPlan::for_workload(&wa, carveout).apply(&mut mem, &cfg, clock);
            let stats = sim.run_concurrent(
                &[
                    (&spec.launch(&wa), &spec.kernel(&wa) as &dyn KernelProgram),
                    (&spec.launch(&wb), &spec.kernel(&wb)),
                ],
                StreamPartition::Interleaved,
                &mut mem,
                clock,
            );
            clock += stats.iter().map(|s| s.elapsed_cycles).max().unwrap();
            all.extend(stats);
        }
        all
    };

    let reference = run_chained(EngineMode::CycleAccurate);
    let event = run_chained(EngineMode::EventDriven);
    assert_eq!(reference.len(), event.len());
    for (i, (a, b)) in reference.iter().zip(event.iter()).enumerate() {
        assert_equivalent(a, b, &format!("pinned K=2 stream {i}"));
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "A100 Default-scale cells take minutes unoptimized; CI runs this in release"
)]
fn a100_default_scale_cells_match_the_oracle() {
    // The oracle at production shape: the full A100 preset at Default
    // scale, where thousands of warps contend across 108 SMs and same-cycle
    // replacement dispatches are common. One cell per scheme family, plus
    // a K=2 interleaved cell.
    let experiment = Experiment::new(GpuConfig::a100(), WorkloadScale::Default);
    let interleaved = experiment
        .clone()
        .with_streams(StreamConfig::new(2, StreamPartition::Interleaved));
    let cells = [
        (&experiment, AccessPattern::MedHot, Scheme::base()),
        (&experiment, AccessPattern::Random, Scheme::base()),
        (&experiment, AccessPattern::HighHot, Scheme::optmt()),
        (&experiment, AccessPattern::LowHot, Scheme::rpf_optmt()),
        (&experiment, AccessPattern::MedHot, Scheme::combined()),
        (&interleaved, AccessPattern::MedHot, Scheme::base()),
    ];
    for (base, pattern, scheme) in cells {
        let workload = Workload::kernel(pattern);
        let reference = base.clone().with_engine_mode(EngineMode::CycleAccurate);
        let a = reference.run(&workload, &scheme);
        let b = base.run(&workload, &scheme);
        let label = format!("A100 {workload}/{scheme} streams={}", base.streams());
        assert!(a.stats.counters.insts_issued > 0, "{label} ran nothing");
        assert_eq!(a.stats.first_difference(&b.stats), None, "{label}");
        assert_eq!(a, b, "reports diverged on {label}");
    }
}

#[test]
fn experiment_reports_match_for_every_workload_kind() {
    // Full-stack check through the perf-envelope runner: stage runs chain
    // kernels and merge statistics, end-to-end runs add the analytic
    // pipeline; both must be unaffected by the engine mode.
    let base = Experiment::new(GpuConfig::test_small(), WorkloadScale::Test).with_seed(0xE2);
    let reference = base.clone().with_engine_mode(EngineMode::CycleAccurate);
    assert_eq!(base.engine_mode(), EngineMode::EventDriven);
    for workload in [
        Workload::kernel(AccessPattern::Random),
        Workload::stage(AccessPattern::MedHot),
        Workload::end_to_end(AccessPattern::HighHot),
    ] {
        for scheme in [Scheme::base(), Scheme::optmt(), Scheme::combined()] {
            let a = reference.run(&workload, &scheme);
            let b = base.run(&workload, &scheme);
            if let Some(diff) = a.stats.first_difference(&b.stats) {
                panic!("engines diverged on {workload}/{scheme}: {diff}");
            }
            assert_eq!(a, b, "reports diverged on {workload}/{scheme}");
        }
    }
}

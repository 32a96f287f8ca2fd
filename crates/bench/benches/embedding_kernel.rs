//! Criterion benchmark of the embedding-bag kernel variants on the simulated
//! GPU: base, OptMT, every prefetching scheme, and the combined scheme.
//!
//! These measure the cost of *simulating* one table-level kernel under each
//! scheme; the simulated (modelled) latency itself is what the `figures`
//! harness reports. The `instruction_generation` group isolates the
//! generation layer: it fills every warp program of an A100 Default grid
//! through a decode buffer, with no engine behind it.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dlrm::{DlrmConfig, WorkloadScale};
use dlrm_datasets::AccessPattern;
use embedding_kernels::EmbeddingWorkload;
use gpu_sim::warp::IBUF;
use gpu_sim::{GpuConfig, InstBuffer, KernelProgram, WarpInfo};
use perf_envelope::{Experiment, Scheme, Workload};

fn kernel_schemes(c: &mut Criterion) {
    let experiment = Experiment::new(GpuConfig::test_small(), WorkloadScale::Test)
        .with_model(DlrmConfig::at_scale(WorkloadScale::Test));
    let workload = Workload::kernel(AccessPattern::MedHot);
    let mut group = c.benchmark_group("embedding_kernel_schemes");
    group.sample_size(10);
    let schemes = [
        ("base", Scheme::base()),
        ("optmt", Scheme::optmt()),
        ("rpf_optmt", Scheme::rpf_optmt()),
        ("l2p_optmt", Scheme::l2p_optmt()),
        ("combined", Scheme::combined()),
    ];
    for (name, scheme) in schemes {
        group.bench_with_input(BenchmarkId::from_parameter(name), &scheme, |b, scheme| {
            b.iter(|| experiment.run(&workload, scheme));
        });
    }
    group.finish();
}

fn kernel_datasets(c: &mut Criterion) {
    let experiment = Experiment::new(GpuConfig::test_small(), WorkloadScale::Test);
    let mut group = c.benchmark_group("embedding_kernel_datasets");
    group.sample_size(10);
    for pattern in AccessPattern::ALL {
        group.bench_with_input(
            BenchmarkId::from_parameter(pattern.paper_name().replace(' ', "_")),
            &pattern,
            |b, &pattern| {
                b.iter(|| experiment.run(&Workload::kernel(pattern), &Scheme::base()));
            },
        );
    }
    group.finish();
}

fn instruction_generation(c: &mut Criterion) {
    let cfg = GpuConfig::a100();
    let embedding = DlrmConfig::at_scale(WorkloadScale::Default).embedding;
    let workload = EmbeddingWorkload::generate(embedding, AccessPattern::MedHot, 0, 1);
    let mut group = c.benchmark_group("instruction_generation");
    group.sample_size(10);
    let schemes = [
        ("base", Scheme::base()),
        ("optmt", Scheme::optmt()),
        ("rpf_l2p_optmt", Scheme::combined()),
    ];
    for (name, scheme) in schemes {
        let spec = scheme.kernel_spec(&cfg);
        let launch = spec.launch(&workload);
        let kernel = spec.kernel(&workload);
        let warps_per_block = launch.threads_per_block.div_ceil(32);
        let mut buf = InstBuffer::new(IBUF);
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                let mut insts = 0usize;
                for block_id in 0..launch.grid_blocks {
                    for warp_in_block in 0..warps_per_block {
                        let info = WarpInfo {
                            block_id,
                            warp_in_block,
                            warps_per_block,
                            threads_per_block: launch.threads_per_block,
                            global_warp_id: block_id as u64 * warps_per_block as u64
                                + warp_in_block as u64,
                            sm_id: 0,
                        };
                        let mut program = kernel.warp_program(info);
                        while !buf.fill(&mut *program) {
                            insts += buf.len();
                        }
                        insts += buf.len();
                    }
                }
                black_box(insts)
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    kernel_schemes,
    kernel_datasets,
    instruction_generation
);
criterion_main!(benches);

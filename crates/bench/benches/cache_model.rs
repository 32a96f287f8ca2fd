//! Criterion benchmark of the memory-hierarchy model: cache lookups, the L2
//! persisting carve-out, and the synthetic stream / pointer-chase kernels.

use criterion::{criterion_group, criterion_main, Criterion};
use gpu_sim::mem::{Cache, MemorySystem};
use gpu_sim::programs::{PointerChaseKernel, StreamKernel};
use gpu_sim::{GpuConfig, KernelLaunch, LineSet, MemSpace, PrefetchTarget, Simulator};

fn cache_operations(c: &mut Criterion) {
    let cfg = GpuConfig::a100();
    let mut group = c.benchmark_group("cache_model");
    group.sample_size(20);
    group.bench_function("l2_access_hit_miss_mix", |b| {
        let mut cache = Cache::new(cfg.l2.clone());
        let mut i = 0u64;
        b.iter(|| {
            let line = (i % 100_000) * 128;
            cache.access_or_fill(line, i);
            i += 1;
        });
    });
    group.bench_function("memory_system_global_load", |b| {
        let mut mem = MemorySystem::new(&cfg);
        let mut i = 0u64;
        b.iter(|| {
            let lines = LineSet::single((i % 500_000) * 128);
            mem.load(0, MemSpace::Global, &lines, 128, i);
            i += 1;
        });
    });
    group.bench_function("l2_evict_last_prefetch", |b| {
        let mut mem = MemorySystem::new(&cfg);
        mem.set_l2_persisting_carveout(cfg.l2_max_persisting_bytes(), &cfg);
        let mut i = 0u64;
        b.iter(|| {
            let lines = LineSet::single((i % 200_000) * 128);
            mem.prefetch(0, PrefetchTarget::L2EvictLast, &lines, i);
            i += 1;
        });
    });
    group.finish();
}

fn synthetic_kernels(c: &mut Criterion) {
    let sim = Simulator::new(GpuConfig::test_small());
    let launch = KernelLaunch::new("bench", 16, 256).with_regs_per_thread(32);
    let mut group = c.benchmark_group("synthetic_kernels");
    group.sample_size(10);
    group.bench_function("stream", |b| {
        let kernel = StreamKernel::new(64);
        b.iter(|| sim.run(&launch, &kernel));
    });
    group.bench_function("pointer_chase", |b| {
        let kernel = PointerChaseKernel::new(64, 1 << 26);
        b.iter(|| sim.run(&launch, &kernel));
    });
    group.finish();
}

criterion_group!(benches, cache_operations, synthetic_kernels);
criterion_main!(benches);

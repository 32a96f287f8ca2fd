//! Layer-by-layer replay of one experiment cell through the public calls
//! that `Experiment::run` makes, each wrapped in a span named after its
//! layer. The replay recomposes the cell's `KernelStats` exactly as the
//! runner does, so the traced run can check it against the report bit for
//! bit and attribute the cell's host time to datasets, kernels and the
//! engine.

use dlrm_gpu_repro::dlrm_datasets::HeterogeneousMix;
use dlrm_gpu_repro::embedding_kernels::{EmbeddingWorkload, PinPlan};
use dlrm_gpu_repro::gpu_sim::mem::MemorySystem;
use dlrm_gpu_repro::gpu_sim::{GpuConfig, KernelLaunch, KernelProgram, KernelStats, Simulator};
use dlrm_gpu_repro::perf_envelope::topology::shard_mix;
use dlrm_gpu_repro::perf_envelope::{Experiment, Scheme, Workload, WorkloadTarget};

use crate::trace::Tracer;

/// Seed salt of the co-resident streams of a `K > 1` experiment; it must
/// match the runner's, or K > 1 replays fail the equality check.
const STREAM_SEED_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Simulated work the replay saw, beyond the recomposed statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct ReplayCounts {
    /// Embedding lookups in every generated trace.
    pub lookups: u64,
    /// L2 lines pinned by the L2P schemes.
    pub pinned_lines: u64,
    /// Shards executed for sharded cells (distinct shards only).
    pub shards: u64,
}

/// Replays `workload` under `scheme` on `experiment` and returns the
/// recomposed statistics; `tables_to_simulate` must be the experiment's.
///
/// # Panics
/// Panics on kernel workloads, which the benchmark never builds.
pub fn replay_cell(
    tracer: &mut Tracer,
    id: u64,
    experiment: &Experiment,
    tables_to_simulate: u32,
    workload: &Workload,
    scheme: &Scheme,
    counts: &mut ReplayCounts,
) -> KernelStats {
    let dataset = match workload.target() {
        WorkloadTarget::EmbeddingStage(dataset) | WorkloadTarget::EndToEnd(dataset) => dataset,
        WorkloadTarget::Kernel(_) => panic!("the benchmark replays stage and end-to-end cells"),
    };
    let mix = dataset.to_mix(experiment.model().num_tables);
    let replay = Replay {
        experiment,
        tables_to_simulate,
        scheme,
        id,
    };
    let Some(spec) = workload.sharding() else {
        return replay.stage(tracer, experiment.gpu(), &mix, counts);
    };
    let cluster = experiment.cluster();
    let plan = spec.plan(&mix, cluster.num_devices());
    let shards: Vec<HeterogeneousMix> = (0..plan.num_devices())
        .map(|d| shard_mix(&mix, &plan, d))
        .collect();
    // Shards with equal sub-mixes on equal devices are one simulation, as
    // in the runner.
    let mut distinct: Vec<(usize, KernelStats)> = Vec::new();
    let mut merged = KernelStats::empty(&scheme.paper_label(), experiment.gpu());
    for (d, shard) in shards.iter().enumerate() {
        let seen = distinct
            .iter()
            .find(|(e, _)| shards[*e] == *shard && cluster.device(*e) == cluster.device(d));
        let stats = match seen {
            Some((_, stats)) => stats.clone(),
            None => {
                counts.shards += 1;
                let stats = replay.stage(tracer, cluster.device(d), shard, counts);
                distinct.push((d, stats.clone()));
                stats
            }
        };
        merged.merge_across_devices(&stats);
    }
    merged
}

struct Replay<'a> {
    experiment: &'a Experiment,
    tables_to_simulate: u32,
    scheme: &'a Scheme,
    id: u64,
}

impl Replay<'_> {
    /// One device's embedding stage: its tables run back to back on one
    /// memory system, as in the runner.
    fn stage(
        &self,
        tracer: &mut Tracer,
        gpu: &GpuConfig,
        mix: &HeterogeneousMix,
        counts: &mut ReplayCounts,
    ) -> KernelStats {
        let id = self.id;
        let sim = Simulator::new(gpu.clone()).with_mode(self.experiment.engine_mode());
        let spec = tracer.span("kernels.build", id, |_| self.scheme.kernel_spec(gpu));
        let mut mem = tracer.span("gpu_sim.mem_new", id, |_| MemorySystem::new(gpu));
        let mut clock = 0u64;
        let mut merged = KernelStats::empty(&self.scheme.paper_label(), gpu);
        let embedding = self.experiment.model().embedding;
        let streams = self.experiment.streams();
        for &(pattern, group_count) in mix.composition() {
            for table in 0..group_count.min(self.tables_to_simulate) {
                let base_seed = self
                    .experiment
                    .seed()
                    .wrapping_add(pattern.hotness_rank() as u64 * 1000);
                let workloads: Vec<EmbeddingWorkload> = (0..streams.streams())
                    .map(|s| {
                        let seed = base_seed ^ (s as u64).wrapping_mul(STREAM_SEED_SALT);
                        tracer.span("datasets.trace_gen", id, |_| {
                            EmbeddingWorkload::generate(embedding, pattern, table, seed)
                        })
                    })
                    .collect();
                let trace = embedding.trace;
                counts.lookups +=
                    workloads.len() as u64 * trace.batch_size as u64 * trace.pooling_factor as u64;
                if let Some(carveout) = self.scheme.carveout_bytes(gpu) {
                    tracer.span("kernels.pin", id, |_| {
                        let plan = PinPlan::for_workload(&workloads[0], carveout);
                        plan.apply(&mut mem, gpu, clock);
                        counts.pinned_lines += plan.pinned_lines() as u64;
                    });
                }
                let (launches, kernels) = tracer.span("kernels.build", id, |_| {
                    let launches: Vec<KernelLaunch> =
                        workloads.iter().map(|w| spec.launch(w)).collect();
                    let kernels: Vec<_> = workloads.iter().map(|w| spec.kernel(w)).collect();
                    (launches, kernels)
                });
                let stats = tracer.span("gpu_sim.run", id, |_| {
                    if streams.is_single() {
                        return sim.run_with_memory(&launches[0], &kernels[0], &mut mem, clock);
                    }
                    let pairs: Vec<(&KernelLaunch, &dyn KernelProgram)> = launches
                        .iter()
                        .zip(&kernels)
                        .map(|(launch, kernel)| (launch, kernel as &dyn KernelProgram))
                        .collect();
                    sim.run_concurrent(&pairs, streams.partition(), &mut mem, clock)
                        .swap_remove(0)
                });
                clock += stats.elapsed_cycles;
                merged.merge_sequential(&stats);
            }
        }
        merged
    }
}

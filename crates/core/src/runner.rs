//! The experiment runner: [`Experiment`] executes any [`Workload`] under an
//! optimization [`Scheme`] on a simulated device — or a simulated
//! [`Cluster`] of devices — and returns a unified [`RunReport`].
//!
//! Tables on one GPU execute sequentially (paper Section II-A), sharing the
//! L2 and HBM. Because the tables of a homogeneous group are statistically
//! identical, the runner simulates a configurable sample of them and
//! extrapolates the group's latency, which keeps paper-scale experiments
//! (250 tables) tractable without changing any per-table behaviour.
//! The simulated part of a stage is therefore a function of its clamped
//! sequence `[(pattern, min(count, tables_to_simulate))]`, not of the real
//! counts: with a [`CampaignCache`] attached, each distinct sequence is
//! simulated once per device configuration, keyed by the fingerprint of the
//! canonical stage workload over that sequence, and held in memory only
//! (never persisted). The extrapolation to the real counts runs per report.
//!
//! A workload carrying a sharding spec ([`Workload::with_sharding`]) fans
//! out as one embedding-stage simulation per shard — reusing the parallel
//! [`crate::Campaign`] worker-pool machinery, with per-shard cells cached
//! individually — followed by a cross-device reduction: the
//! embedding stage's latency is the per-device critical path (devices run
//! concurrently) plus the modelled all-to-all that gathers pooled
//! embeddings to the root device, which then runs the dense pipeline. On a
//! single-device cluster the trivial plan and the exactly-zero all-to-all
//! make the sharded report bit-exact with the unsharded one; the
//! `sharding_equivalence` integration suite holds that line.

use std::sync::Arc;

use dlrm::{BatchLatency, DlrmConfig, NonEmbeddingTimingModel, WorkloadScale};
use dlrm_datasets::{AccessPattern, HeterogeneousMix};
use embedding_kernels::{EmbeddingKernelSpec, EmbeddingWorkload, PinPlan};
use gpu_sim::mem::MemorySystem;
use gpu_sim::{EngineMode, GpuConfig, KernelLaunch, KernelProgram, KernelStats, Simulator};

use crate::cache::CampaignCache;
use crate::fingerprint;
use crate::json::{array, object, write_object};
use crate::report::{ClusterBreakdown, DeviceBreakdown, RunReport, TableBreakdown};
use crate::scheme::Scheme;
use crate::serving::FaultPlan;
use crate::topology::{shard_mix, Cluster, ShardPlan, StreamConfig};
use crate::workload::{Workload, WorkloadKind, WorkloadTarget};

/// Seed salt separating the co-resident streams of a `K > 1` experiment:
/// stream `s` draws its embedding trace from
/// `base_seed ^ (s * STREAM_SEED_SALT)`, so the extra streams model
/// *other* in-flight batches rather than bit-identical mirrors of the
/// primary one. Stream 0 always keeps the unsalted seed.
const STREAM_SEED_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// The name of the canonical mix a stage-run memo key describes: the key
/// is the fingerprint of `Workload::stage` over this mix and the simulated
/// sequence, so it covers every experiment field the cell key covers.
const STAGE_RUN_MIX: &str = "stage-run";

/// One simulated table sequence ([`Experiment::simulate_stage`]): the
/// sequentially merged statistics, and each group's simulated time in µs.
#[derive(Debug, Clone)]
pub(crate) struct StageRun {
    stats: KernelStats,
    group_us: Vec<f64>,
}

/// A reusable experiment: cluster (a single device by default), model,
/// workload scale and seeds. Its one entry point, [`Experiment::run`],
/// executes any [`Workload`] under any [`Scheme`].
#[derive(Debug, Clone)]
pub struct Experiment {
    cluster: Cluster,
    sim: Simulator,
    model: DlrmConfig,
    scale: WorkloadScale,
    tables_to_simulate: u32,
    seed: u64,
    threads: usize,
    streams: StreamConfig,
    faults: FaultPlan,
    cache: Option<Arc<CampaignCache>>,
}

impl Experiment {
    /// Creates an experiment for a single `gpu` at the given workload scale
    /// (the implicit single-device [`Cluster`]).
    pub fn new(gpu: GpuConfig, scale: WorkloadScale) -> Self {
        let model = DlrmConfig::at_scale(scale);
        let tables_to_simulate = match scale {
            WorkloadScale::Test => 1,
            WorkloadScale::Default => 2,
            WorkloadScale::Paper => 3,
        };
        Experiment {
            sim: Simulator::new(gpu.clone()),
            cluster: Cluster::single(gpu),
            model,
            scale,
            tables_to_simulate,
            seed: 0x5EED,
            threads: 0,
            streams: StreamConfig::single(),
            faults: FaultPlan::empty(),
            cache: None,
        }
    }

    /// Replaces the topology this experiment runs on. Unsharded workloads
    /// execute entirely on the cluster's root device; sharded workloads
    /// distribute their tables across every device.
    ///
    /// # Panics
    /// Panics if the configured streams exceed the new cluster's
    /// [`Cluster::stream_capacity`] or the fault plan names a device
    /// outside it, exactly as [`Experiment::with_streams`] and
    /// [`Experiment::with_faults`] would: the builder order never matters.
    pub fn with_cluster(mut self, cluster: Cluster) -> Self {
        check_stream_capacity(&cluster, self.streams);
        self.faults.validate(cluster.num_devices());
        let mode = self.sim.mode();
        self.sim = Simulator::new(cluster.root().clone()).with_mode(mode);
        self.cluster = cluster;
        self
    }

    /// The topology this experiment runs on.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Selects the simulator engine mode ([`EngineMode::EventDriven`] by
    /// default; the cycle-accurate reference loop is for equivalence
    /// checking and benchmarking).
    pub fn with_engine_mode(mut self, mode: EngineMode) -> Self {
        self.sim = self.sim.with_mode(mode);
        self
    }

    /// The simulator engine mode this experiment runs.
    pub fn engine_mode(&self) -> EngineMode {
        self.sim.mode()
    }

    /// Attaches a [`CampaignCache`]: every later [`Experiment::run`] call —
    /// including the cells of every [`crate::Campaign`] built over this
    /// experiment, and the per-shard cells of sharded workloads — is served
    /// from the cache when an identical cell was already executed.
    pub fn with_cache(mut self, cache: Arc<CampaignCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The attached campaign cache, if any.
    pub fn cache(&self) -> Option<&Arc<CampaignCache>> {
        self.cache.as_ref()
    }

    /// Overrides how many tables of each homogeneous group are simulated
    /// before extrapolating.
    ///
    /// # Panics
    /// Panics if `n` is zero.
    pub fn with_tables_to_simulate(mut self, n: u32) -> Self {
        assert!(n > 0, "at least one table must be simulated");
        self.tables_to_simulate = n;
        self
    }

    /// Overrides the trace-generation seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy of this experiment with a different pooling factor
    /// (lookups per sample) — used by the paper's Figure 11 sweep.
    pub fn with_pooling_factor(mut self, pooling: u32) -> Self {
        let trace = self.model.embedding.trace;
        self.model.embedding = embedding_kernels::EmbeddingConfig::new(
            dlrm_datasets::TraceConfig::new(trace.num_rows, trace.batch_size, pooling),
            self.model.embedding.embedding_dim,
        );
        self
    }

    /// Returns a copy of this experiment with a different inference batch
    /// size (samples per batch). This is how the [`crate::serving`] layer
    /// prices formed batches: each distinct batch shape becomes a distinct
    /// experiment cell (the batch size is part of the model configuration
    /// and therefore of the cell fingerprint), so with a [`CampaignCache`]
    /// attached every shape simulates exactly once.
    ///
    /// # Panics
    /// Panics if `batch_size` is zero.
    pub fn with_batch_size(mut self, batch_size: u32) -> Self {
        let trace = self.model.embedding.trace;
        self.model.embedding = embedding_kernels::EmbeddingConfig::new(
            dlrm_datasets::TraceConfig::new(trace.num_rows, batch_size, trace.pooling_factor),
            self.model.embedding.embedding_dim,
        );
        self
    }

    /// The root device configuration (the only device of an unclustered
    /// experiment; the device running the dense pipeline otherwise).
    pub fn gpu(&self) -> &GpuConfig {
        self.cluster.root()
    }

    /// The DLRM model configuration.
    pub fn model(&self) -> &DlrmConfig {
        &self.model
    }

    /// The workload scale the experiment was built for.
    pub fn scale(&self) -> WorkloadScale {
        self.scale
    }

    /// The trace-generation seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Sets the preferred worker count for [`crate::Campaign`]s built over
    /// this experiment (including the DSE sweeps and the per-shard fan-out
    /// of sharded workloads); `0` (the default) uses the machine's
    /// available parallelism. The calling thread is worker 0, so one
    /// worker starts no thread. An unsharded `run` call is unaffected —
    /// tables on one GPU execute sequentially by design.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The preferred campaign worker-thread count (`0` = available
    /// parallelism).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Sets how many kernel streams are concurrently resident per device
    /// and how they share it (a single stream — the pre-stream behaviour —
    /// by default). With `K > 1` every priced kernel runs alongside `K - 1`
    /// co-resident copies modelling other in-flight batches, and the
    /// [`crate::serving`] layer dispatches batches across K per-device
    /// streams instead of one. The configuration is part of the cell
    /// fingerprint, so concurrent results cache like everything else.
    ///
    /// # Panics
    /// Panics if the configuration asks for more streams than every device
    /// of the cluster supports ([`Cluster::stream_capacity`]).
    pub fn with_streams(mut self, streams: StreamConfig) -> Self {
        check_stream_capacity(&self.cluster, streams);
        self.streams = streams;
        self
    }

    /// The per-device stream configuration.
    pub fn streams(&self) -> StreamConfig {
        self.streams
    }

    /// Attaches a deterministic [`FaultPlan`] timeline. The plan shapes
    /// the [`crate::serving`] layer's dispatch (crash/drain windows,
    /// straggler and interconnect-degradation factors) rather than the
    /// priced kernel cells themselves, but a faulted study must never
    /// alias a fault-free one in a persisted [`CampaignCache`], so a
    /// non-empty plan is part of the cell fingerprint; the empty plan
    /// (the default) is omitted and keeps v1 keys byte-identical.
    ///
    /// # Panics
    /// Panics if the plan names a device outside the cluster.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        faults.validate(self.cluster.num_devices());
        self.faults = faults;
        self
    }

    /// The attached fault timeline (empty by default).
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Runs `workload` under `scheme` and reports the outcome.
    ///
    /// This is the single entry point that covers all of the paper's run
    /// targets:
    ///
    /// * a kernel workload — one embedding-bag kernel, the unit of the
    ///   NCU characterisation tables (IV/V/VIII/IX),
    /// * an embedding-stage workload over a homogeneous dataset — the
    ///   embedding stage of Figures 12/16b/19,
    /// * an embedding-stage workload over a mix — Table VII / Figure 17,
    /// * an end-to-end workload — embedding stage plus the analytic
    ///   non-embedding pipeline (Figures 1/13/14),
    ///
    /// plus, beyond the paper, any stage or end-to-end workload **sharded
    /// across the experiment's cluster** ([`Workload::with_sharding`]).
    ///
    /// With a [`CampaignCache`] attached ([`Experiment::with_cache`]), a
    /// cell that was already executed is served from the cache; the report
    /// is a clone of the original, so results stay bit-identical.
    pub fn run(&self, workload: &Workload, scheme: &Scheme) -> RunReport {
        match &self.cache {
            Some(cache) => cache.get_or_run(self, workload, scheme),
            None => self.run_uncached(workload, scheme),
        }
    }

    /// The canonical fingerprint that identifies one experiment cell for
    /// caching: the same string [`CampaignCache`] keys cells by and
    /// [`CampaignCache::save_to`] persists. It covers everything the
    /// resulting [`RunReport`] is a pure function of — the full cluster
    /// topology and model configuration (which embeds the pooling factor),
    /// scale, seed, tables-to-simulate, engine mode, streams, fault plan,
    /// workload (including its sharding spec) and scheme — and excludes the
    /// execution knobs that cannot change results (worker threads, the
    /// attached cache itself). The encoding is canonical JSON (sorted keys,
    /// shortest-round-trip floats) streamed straight into the key, stable
    /// across processes, which is what lets [`CampaignCache::save_to`] /
    /// [`CampaignCache::load_from`] reuse results between runs. Public so
    /// studies and tests can reason about cell identity without running
    /// anything.
    pub fn fingerprint(&self, workload: &Workload, scheme: &Scheme) -> String {
        let Experiment {
            cluster,
            // Built from `cluster.root()`; only its engine mode is free.
            sim,
            model,
            scale,
            tables_to_simulate,
            seed,
            // Worker threads never change a result.
            threads: _,
            streams,
            faults,
            // The cache memoizes results; it is not one of their inputs.
            cache: _,
        } = self;
        let mut key = String::with_capacity(2048);
        write_object(&mut key, |w| {
            fingerprint::write_placement(w, cluster);
            w.set("engine_mode", sim.mode().name());
            // The empty fault plan is canonically the fault-free experiment:
            // the key omits the axis entirely, keeping pre-fault keys
            // byte-identical and persisted caches warm. A non-empty plan
            // partitions cells conservatively — the plan shapes serving-layer
            // dispatch rather than the priced kernels, but a resilience study
            // must never alias a fault-free study's cells in a persisted cache.
            if !faults.is_empty() {
                w.set("faults", array(|a| faults.write_events(a)));
            }
            w.set("gpu", object(|g| fingerprint::write_gpu(g, cluster.root())));
            w.set("model", object(|m| fingerprint::write_model(m, model)));
            w.set("scale", scale.name());
            w.set("schema", fingerprint::FINGERPRINT_SCHEMA);
            w.set("scheme", object(|s| scheme.write_fields(s)));
            w.set("seed", *seed);
            // A single stream is canonically the pre-stream experiment: the
            // key omits the axis entirely, so K=1 keys stay byte-identical
            // with the earlier encoding and persisted caches remain loadable.
            if !streams.is_single() {
                w.set("streams", object(|s| streams.write_fields(s)));
            }
            w.set("tables_to_simulate", *tables_to_simulate);
            w.set("workload", object(|o| workload.write_fields(o)));
        });
        key
    }

    /// Executes the cell unconditionally (the non-memoized path behind
    /// [`Experiment::run`]).
    pub(crate) fn run_uncached(&self, workload: &Workload, scheme: &Scheme) -> RunReport {
        if workload.sharding().is_some() {
            return self.run_sharded_report(workload, scheme);
        }
        match workload.target() {
            WorkloadTarget::Kernel(pattern) => self.run_kernel_report(*pattern, scheme),
            WorkloadTarget::EmbeddingStage(dataset) => {
                let mix = dataset.to_mix(self.model.num_tables);
                self.run_stage_report(workload, &mix, scheme)
            }
            WorkloadTarget::EndToEnd(dataset) => {
                let mix = dataset.to_mix(self.model.num_tables);
                let mut report = self.run_stage_report(workload, &mix, scheme);
                let timing = NonEmbeddingTimingModel::new(self.gpu());
                let non_embedding_us = timing.non_embedding_time_us(&self.model);
                report.end_to_end = Some(BatchLatency {
                    embedding_us: report.latency_us,
                    non_embedding_us,
                });
                report.latency_us += non_embedding_us;
                report
            }
        }
    }

    /// Shared metadata scaffolding for every report this experiment emits.
    fn report_skeleton(
        &self,
        workload: &Workload,
        scheme: &Scheme,
        stats: KernelStats,
    ) -> RunReport {
        RunReport {
            kind: workload.kind(),
            workload: workload.dataset_label(),
            scheme: scheme.paper_label(),
            device: self.gpu().name.clone(),
            scale: self.scale.name().to_string(),
            seed: self.seed,
            pooling_factor: self.model.embedding.trace.pooling_factor,
            latency_us: 0.0,
            tables: None,
            end_to_end: None,
            devices: None,
            stats,
        }
    }

    fn run_kernel_report(&self, pattern: AccessPattern, scheme: &Scheme) -> RunReport {
        let stats = self.kernel_stats(pattern, scheme);
        let latency_us = stats.kernel_time_us();
        let mut report = self.report_skeleton(&Workload::kernel(pattern), scheme, stats);
        report.latency_us = latency_us;
        report
    }

    fn kernel_stats(&self, pattern: AccessPattern, scheme: &Scheme) -> KernelStats {
        let spec = scheme.kernel_spec(self.gpu());
        let mut mem = MemorySystem::new(self.gpu());
        self.priced_stats(&spec, pattern, 0, self.seed, scheme, &mut mem, 0)
    }

    /// Prices one embedding table under this experiment's stream
    /// configuration.
    ///
    /// Generates K co-resident copies of the table's workload (stream 0
    /// keeps `base_seed`; the extras draw seeds salted by
    /// [`STREAM_SEED_SALT`], modelling *other* in-flight batches), runs them
    /// concurrently under the configured partition and reports stream 0's
    /// statistics: the primary batch's latency as degraded by the
    /// co-residents' contention for issue slots, L2 and DRAM. With `K = 1`
    /// this is one kernel under `SmPartitioned`, the very engine call
    /// `Simulator::run_with_memory` makes, so single-stream experiments stay
    /// bit-exact with the pre-stream path. The L2 pin plan (when the scheme
    /// carves out) is computed from the primary copy only, mirroring a
    /// server whose persisting window tracks the batch being served.
    #[allow(clippy::too_many_arguments)]
    fn priced_stats(
        &self,
        spec: &EmbeddingKernelSpec,
        pattern: AccessPattern,
        table: u32,
        base_seed: u64,
        scheme: &Scheme,
        mem: &mut MemorySystem,
        clock: u64,
    ) -> KernelStats {
        let primary = EmbeddingWorkload::generate(self.model.embedding, pattern, table, base_seed);
        if let Some(carveout) = scheme.carveout_bytes(self.gpu()) {
            let plan = PinPlan::for_workload(&primary, carveout);
            plan.apply(mem, self.gpu(), clock);
        }
        let mut workloads = vec![primary];
        workloads.extend((1..self.streams.streams()).map(|s| {
            EmbeddingWorkload::generate(
                self.model.embedding,
                pattern,
                table,
                base_seed ^ (s as u64).wrapping_mul(STREAM_SEED_SALT),
            )
        }));
        let launches: Vec<KernelLaunch> = workloads.iter().map(|w| spec.launch(w)).collect();
        let kernels: Vec<_> = workloads.iter().map(|w| spec.kernel(w)).collect();
        let pairs: Vec<(&KernelLaunch, &dyn KernelProgram)> = launches
            .iter()
            .zip(&kernels)
            .map(|(launch, kernel)| (launch, kernel as &dyn KernelProgram))
            .collect();
        self.sim
            .run_concurrent(&pairs, self.streams.partition(), mem, clock)
            .into_iter()
            .next()
            .expect("run_concurrent returns one statistics record per stream")
    }

    /// Runs the embedding stage of `mix` and extrapolates it to every
    /// table: each group's simulated time, divided by the tables simulated
    /// and scaled by the group's real count. The simulated sequence depends
    /// only on the groups' clamped counts, so with a cache attached it runs
    /// once per distinct sequence ([`CampaignCache`]'s stage-run memo).
    fn run_stage_report(
        &self,
        workload: &Workload,
        mix: &HeterogeneousMix,
        scheme: &Scheme,
    ) -> RunReport {
        let sequence: Vec<(AccessPattern, u32)> = mix
            .composition()
            .iter()
            .map(|&(pattern, count)| (pattern, count.min(self.tables_to_simulate)))
            .collect();
        let StageRun { stats, group_us } = match &self.cache {
            Some(cache) => {
                let canonical =
                    Workload::stage(HeterogeneousMix::new(STAGE_RUN_MIX, sequence.clone()));
                cache.stage_run(self.fingerprint(&canonical, scheme), || {
                    self.simulate_stage(&sequence, scheme)
                })
            }
            None => self.simulate_stage(&sequence, scheme),
        };

        let mut total_latency_us = 0.0;
        for ((&(_, group_count), &(_, n_sim)), group_simulated_us) in
            mix.composition().iter().zip(&sequence).zip(group_us)
        {
            total_latency_us += group_simulated_us / n_sim as f64 * group_count as f64;
        }

        let mut report = self.report_skeleton(workload, scheme, stats);
        report.latency_us = total_latency_us;
        report.tables = Some(TableBreakdown {
            per_table_us: total_latency_us / mix.total_tables() as f64,
            tables_total: mix.total_tables(),
            tables_simulated: sequence.iter().map(|&(_, n_sim)| n_sim).sum(),
        });
        report
    }

    /// Simulates one device's table sequence, `(pattern, tables)` in order,
    /// on one memory system: the tables run back to back, each starting at
    /// the clock its predecessor ended on.
    fn simulate_stage(&self, sequence: &[(AccessPattern, u32)], scheme: &Scheme) -> StageRun {
        let spec = scheme.kernel_spec(self.gpu());
        let mut mem = MemorySystem::new(self.gpu());
        let mut clock: u64 = 0;
        let mut stats = KernelStats::empty(&scheme.paper_label(), self.gpu());
        let mut group_us = Vec::with_capacity(sequence.len());
        for &(pattern, n_sim) in sequence {
            let mut group_simulated_us = 0.0;
            for t in 0..n_sim {
                let table = self.priced_stats(
                    &spec,
                    pattern,
                    t,
                    self.seed.wrapping_add(pattern.hotness_rank() as u64 * 1000),
                    scheme,
                    &mut mem,
                    clock,
                );
                clock += table.elapsed_cycles;
                group_simulated_us += self.gpu().cycles_to_us(table.elapsed_cycles);
                stats.merge_sequential(&table);
            }
            group_us.push(group_simulated_us);
        }
        StageRun { stats, group_us }
    }

    /// A single-device experiment for one shard: the shard's device with
    /// this experiment's model, scale, seeds, streams, engine mode, cache
    /// and fault plan. It skips [`Experiment::with_cluster`]'s checks: the
    /// plan's device indices still name the whole deployment's devices,
    /// and the shard cell's key carries that plan unchanged.
    fn shard_experiment(&self, device: usize) -> Experiment {
        let gpu = self.cluster.device(device).clone();
        Experiment {
            sim: Simulator::new(gpu.clone()).with_mode(self.sim.mode()),
            cluster: Cluster::single(gpu),
            ..self.clone()
        }
    }

    /// Executes a sharded workload: plans the shard layout, runs one
    /// embedding-stage simulation per shard, and reduces across devices.
    fn run_sharded_report(&self, workload: &Workload, scheme: &Scheme) -> RunReport {
        let spec = workload
            .sharding()
            .expect("run_sharded_report requires a sharded workload");
        let dataset = match workload.target() {
            WorkloadTarget::EmbeddingStage(dataset) | WorkloadTarget::EndToEnd(dataset) => dataset,
            WorkloadTarget::Kernel(_) => {
                unreachable!("kernel workloads reject sharding specs on construction")
            }
        };
        let mix = dataset.to_mix(self.model.num_tables);
        let plan = spec.plan(&mix, self.cluster.num_devices());
        let shard_workloads: Vec<Workload> = (0..plan.num_devices())
            .map(|d| Workload::stage(shard_mix(&mix, &plan, d)))
            .collect();

        // Shards whose sub-mix AND device configuration are equal are the
        // identical cell (round-robin over a homogeneous mix produces at
        // most a few distinct shard shapes however many devices there are),
        // so only distinct shard cells run — with or without a cache — and
        // every other shard clones its representative's report. Distinct
        // cells can still share a simulation: with a cache attached, shards
        // whose sub-mixes clamp to the same table sequence share one stage
        // run (see the module docs).
        let mut distinct: Vec<usize> = Vec::new();
        let mut rep_of: Vec<usize> = Vec::with_capacity(shard_workloads.len());
        for (d, workload) in shard_workloads.iter().enumerate() {
            let existing = distinct.iter().position(|&e| {
                shard_workloads[e] == *workload && self.cluster.device(e) == self.cluster.device(d)
            });
            match existing {
                Some(i) => rep_of.push(i),
                None => {
                    rep_of.push(distinct.len());
                    distinct.push(d);
                }
            }
        }

        // Fan the distinct shards out over the Campaign worker-pool
        // machinery (`campaign::run_jobs`): workers bounded by the
        // experiment's thread setting, the calling thread first (one
        // worker, or one distinct shard, starts no thread), results in
        // deterministic device order whatever the worker count. Each shard
        // is a single-device `Experiment::run` call and therefore hits the
        // cache individually.
        let workers = crate::campaign::resolve_worker_count(self.threads, distinct.len());
        let distinct_reports: Vec<RunReport> =
            crate::campaign::run_jobs(workers, distinct.len(), |i| {
                let d = distinct[i];
                self.shard_experiment(d).run(&shard_workloads[d], scheme)
            });
        let shard_reports: Vec<RunReport> = rep_of
            .iter()
            .map(|&i| distinct_reports[i].clone())
            .collect();

        self.reduce_shard_reports(workload, scheme, &mix, &plan, &shard_reports)
    }

    /// The cross-device reduction: merges per-shard statistics, takes the
    /// critical-path max over per-device latencies, adds the modelled
    /// all-to-all, and (for end-to-end workloads) composes the dense
    /// pipeline on the root device.
    fn reduce_shard_reports(
        &self,
        workload: &Workload,
        scheme: &Scheme,
        mix: &HeterogeneousMix,
        plan: &ShardPlan,
        shard_reports: &[RunReport],
    ) -> RunReport {
        let mut merged = KernelStats::empty(&scheme.paper_label(), self.gpu());
        let mut per_device = Vec::with_capacity(shard_reports.len());
        let mut bytes_per_device = Vec::with_capacity(shard_reports.len());
        let mut critical_path_us = 0.0f64;
        let mut device_total_us = 0.0;
        let mut tables_simulated = 0u32;
        for (d, shard) in shard_reports.iter().enumerate() {
            merged.merge_across_devices(&shard.stats);
            critical_path_us = critical_path_us.max(shard.latency_us);
            device_total_us += shard.latency_us;
            let breakdown = shard
                .tables
                .expect("shard runs are embedding-stage runs with a table breakdown");
            tables_simulated += breakdown.tables_simulated;
            per_device.push(DeviceBreakdown {
                device: self.cluster.device(d).name.clone(),
                tables: plan.device_tables(d).len() as u32,
                tables_simulated: breakdown.tables_simulated,
                embedding_us: shard.latency_us,
            });
            bytes_per_device.push(
                plan.device_tables(d).len() as u64 * self.model.pooled_embedding_bytes_per_table(),
            );
        }
        let all_to_all_us = self
            .cluster
            .interconnect()
            .all_to_all_us(&bytes_per_device, 0);

        let mut report = self.report_skeleton(workload, scheme, merged);
        report.tables = Some(TableBreakdown {
            per_table_us: device_total_us / mix.total_tables() as f64,
            tables_total: mix.total_tables(),
            tables_simulated,
        });
        report.devices = Some(ClusterBreakdown {
            strategy: plan.strategy().to_string(),
            per_device,
            critical_path_us,
            all_to_all_us,
        });
        match workload.kind() {
            WorkloadKind::EmbeddingStage => {
                report.latency_us = critical_path_us + all_to_all_us;
            }
            WorkloadKind::EndToEnd => {
                let timing = NonEmbeddingTimingModel::new(self.gpu());
                let non_embedding_us = timing.non_embedding_time_us(&self.model);
                let batch =
                    BatchLatency::sharded(critical_path_us, all_to_all_us, non_embedding_us);
                report.end_to_end = Some(batch);
                report.latency_us = batch.total_us();
            }
            WorkloadKind::Kernel => unreachable!("kernel workloads are never sharded"),
        }
        report
    }
}

/// Asserts every device of `cluster` can hold `streams` concurrent streams.
fn check_stream_capacity(cluster: &Cluster, streams: StreamConfig) {
    let capacity = cluster.stream_capacity();
    assert!(
        streams.streams() as usize <= capacity,
        "{} concurrent streams exceed the cluster's capacity of {capacity}",
        streams.streams()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{InterconnectConfig, ShardingSpec};
    use dlrm_datasets::MixKind;

    fn exp() -> Experiment {
        Experiment::new(GpuConfig::test_small(), WorkloadScale::Test)
    }

    #[test]
    fn kernel_reports_reflect_the_workload() {
        let r = exp().run(&Workload::kernel(AccessPattern::MedHot), &Scheme::base());
        // 32 bags * 8 lookups * 2 loads + prologue loads.
        assert!(r.stats.counters.load_insts > 32 * 8 * 2 / 2);
        assert!(r.stats.elapsed_cycles > 0);
        assert_eq!(r.stats.theoretical_warps_per_sm % 8, 0);
        assert!((r.latency_us - r.stats.kernel_time_us()).abs() < 1e-12);
        assert!(r.tables.is_none() && r.end_to_end.is_none() && r.devices.is_none());
    }

    #[test]
    fn stage_reports_extrapolate_to_all_tables() {
        let e = exp();
        let r = e.run(&Workload::stage(AccessPattern::HighHot), &Scheme::base());
        let tables = r.tables.unwrap();
        assert_eq!(tables.tables_total, e.model().num_tables);
        assert!(tables.tables_simulated <= tables.tables_total);
        assert!(r.latency_us > 0.0);
        assert!((tables.per_table_us * tables.tables_total as f64 - r.latency_us).abs() < 1e-6);
    }

    #[test]
    fn reports_carry_experiment_metadata() {
        let e = exp().with_seed(77);
        let r = e.run(&Workload::stage(AccessPattern::LowHot), &Scheme::combined());
        assert_eq!(r.device, e.gpu().name);
        assert_eq!(r.scale, "test");
        assert_eq!(r.seed, 77);
        assert_eq!(r.scheme, "RPF+L2P+OptMT");
        assert_eq!(r.workload, "low hot");
        assert_eq!(r.pooling_factor, e.model().embedding.trace.pooling_factor);
    }

    #[test]
    fn one_item_is_faster_than_random() {
        let e = exp();
        let fast = e.run(&Workload::stage(AccessPattern::OneItem), &Scheme::base());
        let slow = e.run(&Workload::stage(AccessPattern::Random), &Scheme::base());
        assert!(
            slow.latency_us > fast.latency_us,
            "random ({:.1} us) must be slower than one_item ({:.1} us)",
            slow.latency_us,
            fast.latency_us
        );
    }

    #[test]
    fn optmt_improves_over_base_on_cold_patterns() {
        let e = exp();
        let workload = Workload::stage(AccessPattern::Random);
        let base = e.run(&workload, &Scheme::base());
        let optmt = e.run(&workload, &Scheme::optmt());
        assert!(
            optmt.speedup_over(&base) > 1.0,
            "OptMT should speed up the random dataset (got {:.3}x)",
            optmt.speedup_over(&base)
        );
    }

    #[test]
    fn combined_scheme_is_at_least_as_good_as_optmt() {
        let e = exp();
        let workload = Workload::stage(AccessPattern::LowHot);
        let optmt = e.run(&workload, &Scheme::optmt());
        let combined = e.run(&workload, &Scheme::combined());
        assert!(
            combined.latency_us <= optmt.latency_us * 1.05,
            "combined ({:.1} us) should not lose to OptMT ({:.1} us)",
            combined.latency_us,
            optmt.latency_us
        );
    }

    #[test]
    fn end_to_end_adds_non_embedding_time() {
        let r = exp().run(
            &Workload::end_to_end(AccessPattern::MedHot),
            &Scheme::base(),
        );
        let e2e = r.end_to_end.unwrap();
        assert!(e2e.non_embedding_us > 0.0);
        assert!((r.latency_us - e2e.embedding_us - e2e.non_embedding_us).abs() < 1e-9);
        let share = e2e.embedding_share_pct();
        assert!(share > 0.0 && share < 100.0);
    }

    #[test]
    fn mix_runs_cover_every_group() {
        let e = exp();
        let mix = HeterogeneousMix::paper_mix(MixKind::Mix2, 0.02);
        let r = e.run(&Workload::stage(mix.clone()), &Scheme::base());
        let tables = r.tables.unwrap();
        assert_eq!(tables.tables_total, mix.total_tables());
        assert!(
            tables.tables_simulated >= 4,
            "at least one table per pattern group"
        );
        assert!(r.latency_us > 0.0);
        assert_eq!(r.workload, "Mix2");
    }

    #[test]
    fn pooling_factor_override_scales_work() {
        let workload = Workload::kernel(AccessPattern::MedHot);
        let low = exp().with_pooling_factor(4).run(&workload, &Scheme::base());
        let high = exp()
            .with_pooling_factor(16)
            .run(&workload, &Scheme::base());
        assert!(high.stats.counters.load_insts > low.stats.counters.load_insts);
        assert_eq!(low.pooling_factor, 4);
        assert_eq!(high.pooling_factor, 16);
    }

    #[test]
    #[should_panic(expected = "at least one table")]
    fn zero_simulated_tables_rejected() {
        let _ = exp().with_tables_to_simulate(0);
    }

    #[test]
    #[should_panic(expected = "exceed the cluster's capacity of 4")]
    fn a_later_cluster_still_checks_stream_capacity() {
        let streams = StreamConfig::new(6, gpu_sim::StreamPartition::Interleaved);
        let _ = Experiment::new(GpuConfig::a100(), WorkloadScale::Test)
            .with_streams(streams)
            .with_cluster(Cluster::single(GpuConfig::test_small()));
    }

    #[test]
    #[should_panic(expected = "targets device 1 of a 1-device deployment")]
    fn a_later_cluster_still_checks_fault_devices() {
        use crate::serving::FaultEvent;
        let pair = Cluster::homogeneous(GpuConfig::test_small(), 2, InterconnectConfig::nvlink3());
        let _ = exp()
            .with_cluster(pair)
            .with_faults(FaultPlan::new(vec![FaultEvent::crash(1, 0.0, 10.0)]))
            .with_cluster(Cluster::single(GpuConfig::test_small()));
    }

    #[test]
    fn batch_size_override_scales_work() {
        let workload = Workload::kernel(AccessPattern::MedHot);
        let small = exp().with_batch_size(64).run(&workload, &Scheme::base());
        let large = exp().with_batch_size(256).run(&workload, &Scheme::base());
        assert!(large.stats.counters.load_insts > small.stats.counters.load_insts);
        // The configured batch size is the model's default, so overriding
        // with it reproduces the unmodified experiment bit-exactly — the
        // degenerate anchor the serving layer's equivalence suite relies on.
        let e = exp();
        let configured = e.model().batch_size();
        assert_eq!(
            e.clone()
                .with_batch_size(configured)
                .run(&workload, &Scheme::base()),
            e.run(&workload, &Scheme::base())
        );
    }

    #[test]
    fn sharded_runs_carry_a_device_breakdown() {
        let e = exp().with_cluster(Cluster::homogeneous(
            GpuConfig::test_small(),
            2,
            InterconnectConfig::nvlink3(),
        ));
        let mix = HeterogeneousMix::paper_mix(MixKind::Mix2, 0.02);
        let r = e.run(
            &Workload::stage(mix.clone()).with_sharding(ShardingSpec::RoundRobin),
            &Scheme::base(),
        );
        let cluster = r.devices.as_ref().unwrap();
        assert_eq!(cluster.num_devices(), 2);
        assert_eq!(cluster.strategy, "round_robin");
        assert!(cluster.all_to_all_us > 0.0);
        assert_eq!(
            cluster.per_device.iter().map(|d| d.tables).sum::<u32>(),
            mix.total_tables()
        );
        assert_eq!(r.latency_us, cluster.embedding_stage_us());
        assert_eq!(r.workload, "Mix2");
    }

    #[test]
    fn sharding_shortens_the_embedding_stage_on_enough_devices() {
        let workload = Workload::stage(HeterogeneousMix::paper_mix(MixKind::Mix2, 0.02));
        let single = exp().run(&workload, &Scheme::base());
        let quad = exp()
            .with_cluster(Cluster::homogeneous(
                GpuConfig::test_small(),
                4,
                InterconnectConfig::nvlink3(),
            ))
            .run(
                &workload.clone().with_sharding(ShardingSpec::SizeBalanced),
                &Scheme::base(),
            );
        assert!(
            quad.latency_us < single.latency_us,
            "4 devices ({:.1} us) should beat 1 ({:.1} us)",
            quad.latency_us,
            single.latency_us
        );
    }

    #[test]
    fn sharded_end_to_end_composes_the_dense_pipeline_once() {
        let e = exp().with_cluster(Cluster::homogeneous(
            GpuConfig::test_small(),
            2,
            InterconnectConfig::nvlink3(),
        ));
        let r = e.run(
            &Workload::end_to_end(AccessPattern::MedHot).with_sharding(ShardingSpec::RoundRobin),
            &Scheme::base(),
        );
        let e2e = r.end_to_end.unwrap();
        let cluster = r.devices.unwrap();
        assert_eq!(
            e2e.embedding_us,
            cluster.critical_path_us + cluster.all_to_all_us
        );
        assert_eq!(r.latency_us, e2e.embedding_us + e2e.non_embedding_us);
    }

    #[test]
    fn heterogeneous_clusters_run_each_shard_on_its_device() {
        let fast = GpuConfig::test_small().with_num_sms(8);
        let slow = GpuConfig::test_small();
        let e = exp().with_cluster(Cluster::new(
            vec![fast.clone(), slow.clone()],
            InterconnectConfig::nvlink3(),
        ));
        let r = e.run(
            &Workload::stage(AccessPattern::MedHot).with_sharding(ShardingSpec::RoundRobin),
            &Scheme::base(),
        );
        let cluster = r.devices.unwrap();
        assert_eq!(cluster.per_device[0].device, fast.name);
        assert_eq!(cluster.per_device[1].device, slow.name);
        // The report is attributed to the root device.
        assert_eq!(r.device, fast.name);
    }
}

//! Declarative experiment grids: [`Campaign`].
//!
//! The paper's evaluation is a grid — schemes × workloads × seeds × pooling
//! factors — and the seed repo walked that grid with hand-rolled nested
//! loops in every sweep, figure and example. A `Campaign` expresses the grid
//! once and executes its cells **in parallel across threads**, with results
//! returned in deterministic grid order regardless of the thread count:
//! every cell builds its own [`Experiment`] clone (and therefore its own
//! simulated memory system), so no cell observes another cell's execution.
//! The same machinery is what a sharded workload's per-shard fan-out rides
//! on, so campaigns over sharded workloads nest naturally and per-shard
//! cells hit an attached [`CampaignCache`] individually.
//!
//! The calling thread is worker 0 of that pool: an N-worker run starts
//! N − 1 threads, so a one-worker grid or shard fan-out starts none and
//! runs every job on the caller.
//!
//! ```
//! use dlrm::WorkloadScale;
//! use dlrm_datasets::AccessPattern;
//! use gpu_sim::GpuConfig;
//! use perf_envelope::{Campaign, Experiment, Scheme, Workload};
//!
//! let run = Campaign::new(Experiment::new(GpuConfig::test_small(), WorkloadScale::Test))
//!     .workloads([AccessPattern::HighHot, AccessPattern::Random].map(Workload::kernel))
//!     .schemes([Scheme::base(), Scheme::combined()])
//!     .run();
//! assert_eq!(run.len(), 4);
//! let base = run.get(1, 0, 0, 0);     // random under base
//! let combined = run.get(1, 1, 0, 0); // random under the combined scheme
//! assert!(combined.speedup_over(base) > 0.0);
//! ```

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::cache::CampaignCache;
use crate::json::{array, WriteJson};
use crate::report::RunReport;
use crate::runner::Experiment;
use crate::scheme::Scheme;
use crate::topology::Cluster;
use crate::workload::Workload;

/// Resolves a requested worker count (`0` = available parallelism)
/// against the number of independent jobs. At most one job needs one
/// worker, so the OS is not asked how many cores there are.
pub(crate) fn resolve_worker_count(threads: usize, jobs: usize) -> usize {
    if jobs <= 1 {
        return 1;
    }
    match threads {
        0 => std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1),
        n => n,
    }
    .min(jobs)
}

/// Executes `count` independent jobs over `workers` workers (as resolved
/// by [`resolve_worker_count`]) and returns the results in job order,
/// whatever the worker count. The calling thread is worker 0: it spawns
/// `workers - 1` helpers and claims jobs alongside them, so one worker
/// starts no thread. The worker-pool machinery shared by [`Campaign::run`]
/// and the heterogeneous per-shard fan-out in
/// [`crate::Experiment`](Experiment).
pub(crate) fn run_jobs<T, F>(workers: usize, count: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let next_job = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    let work = || loop {
        // audit:allow(thread_accumulation): index allocator; every
        // result lands in its per-index slot, not in claim order
        let index = next_job.fetch_add(1, Ordering::Relaxed);
        if index >= count {
            break;
        }
        *slots[index].lock().expect("worker panicked") = Some(job(index));
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("lock poisoned")
                .expect("job not executed")
        })
        .collect()
}

/// A declarative grid of experiment cells and how to execute it.
#[derive(Debug, Clone)]
pub struct Campaign {
    base: Experiment,
    workloads: Vec<Workload>,
    schemes: Vec<Scheme>,
    seeds: Vec<u64>,
    pooling_factors: Vec<Option<u32>>,
    threads: usize,
}

impl Campaign {
    /// Starts a campaign over `base` (which fixes device, model and scale).
    ///
    /// Until overridden, the grid has the base experiment's seed as its only
    /// seed, the model's configured pooling factor as its only pooling
    /// factor, and the base experiment's preferred worker-thread count
    /// ([`Experiment::with_threads`]).
    pub fn new(base: Experiment) -> Self {
        Campaign {
            threads: base.threads(),
            base,
            workloads: Vec::new(),
            schemes: Vec::new(),
            seeds: Vec::new(),
            pooling_factors: vec![None],
        }
    }

    /// Adds one workload to the grid.
    pub fn workload(mut self, workload: Workload) -> Self {
        self.workloads.push(workload);
        self
    }

    /// Adds workloads to the grid.
    pub fn workloads(mut self, workloads: impl IntoIterator<Item = Workload>) -> Self {
        self.workloads.extend(workloads);
        self
    }

    /// Adds one scheme to the grid.
    pub fn scheme(mut self, scheme: Scheme) -> Self {
        self.schemes.push(scheme);
        self
    }

    /// Adds schemes to the grid.
    pub fn schemes(mut self, schemes: impl IntoIterator<Item = Scheme>) -> Self {
        self.schemes.extend(schemes);
        self
    }

    /// Replaces the seed axis (default: the base experiment's seed).
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Replaces the pooling-factor axis (default: the model's configured
    /// pooling factor).
    pub fn pooling_factors(mut self, factors: impl IntoIterator<Item = u32>) -> Self {
        self.pooling_factors = factors.into_iter().map(Some).collect();
        if self.pooling_factors.is_empty() {
            self.pooling_factors.push(None);
        }
        self
    }

    /// Sets the number of workers; `0` uses the machine's available
    /// parallelism. The calling thread is worker 0, so `n` workers start
    /// `n - 1` threads and one worker starts none. The default is
    /// inherited from the base experiment.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Replaces the base experiment's topology
    /// ([`Experiment::with_cluster`]): sharded workloads in the grid then
    /// fan out across this cluster's devices, each cell reducing its shards
    /// with the cluster's interconnect model.
    ///
    /// # Panics
    /// Panics where [`Experiment::with_cluster`] does: the base's streams
    /// or fault plan do not fit the new cluster.
    pub fn on_cluster(mut self, cluster: Cluster) -> Self {
        self.base = self.base.with_cluster(cluster);
        self
    }

    /// Attaches a [`CampaignCache`] to the campaign's base experiment:
    /// cells whose fingerprint (workload, scheme, seed, pooling factor,
    /// device/model configuration, scale, engine mode) was already executed
    /// — inside this grid, by an overlapping campaign sharing the cache, or
    /// by an earlier run — are served from the cache instead of
    /// re-simulating. Results are exact clones, so grid determinism is
    /// unaffected.
    pub fn with_cache(mut self, cache: Arc<CampaignCache>) -> Self {
        self.base = self.base.with_cache(cache);
        self
    }

    /// Number of cells in the grid.
    pub fn len(&self) -> usize {
        self.workloads.len()
            * self.schemes.len()
            * self.seeds.len().max(1)
            * self.pooling_factors.len()
    }

    /// Whether the grid has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Executes every cell and returns the reports in grid order.
    ///
    /// Cells are distributed over the workers, the calling thread first; a
    /// one-worker (or one-cell) grid runs on the caller and starts no
    /// thread. Each cell clones the base experiment, applies its seed and
    /// pooling factor, and calls [`Experiment::run`]. Because cells share
    /// no mutable state, the resulting reports are bit-identical for any
    /// worker count.
    pub fn run(&self) -> CampaignRun {
        let seeds = if self.seeds.is_empty() {
            vec![self.base.seed()]
        } else {
            self.seeds.clone()
        };
        let mut cells = Vec::with_capacity(self.len());
        for workload in &self.workloads {
            for scheme in &self.schemes {
                for &seed in &seeds {
                    for &pooling in &self.pooling_factors {
                        cells.push((workload, scheme, seed, pooling));
                    }
                }
            }
        }

        // When this campaign already runs cells in parallel, the cells
        // themselves (and thus the per-shard fan-out of a sharded cell) run
        // serially so worker counts do not multiply past the configured
        // cap; a single-worker campaign hands its thread budget down
        // instead.
        let workers = resolve_worker_count(self.threads, cells.len());
        let cell_threads = if workers > 1 { 1 } else { self.threads };
        let reports = run_jobs(workers, cells.len(), |index| {
            let (workload, scheme, seed, pooling) = cells[index];
            let mut experiment = self.base.clone().with_threads(cell_threads).with_seed(seed);
            if let Some(pooling) = pooling {
                experiment = experiment.with_pooling_factor(pooling);
            }
            experiment.run(workload, scheme)
        });

        CampaignRun {
            schemes: self.schemes.len(),
            seeds: seeds.len(),
            pooling_factors: self.pooling_factors.len(),
            reports,
        }
    }
}

/// The completed grid: every cell's [`RunReport`] in deterministic grid
/// order (workload-major, then scheme, then seed, then pooling factor).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRun {
    schemes: usize,
    seeds: usize,
    pooling_factors: usize,
    reports: Vec<RunReport>,
}

impl CampaignRun {
    /// All reports in grid order.
    pub fn reports(&self) -> &[RunReport] {
        &self.reports
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// Whether the run had no cells.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }

    /// The report of one cell, addressed by its grid coordinates
    /// (indices into the campaign's workload/scheme/seed/pooling axes).
    ///
    /// # Panics
    /// Panics if any coordinate is out of range.
    pub fn get(&self, workload: usize, scheme: usize, seed: usize, pooling: usize) -> &RunReport {
        let workloads =
            self.reports.len() / (self.schemes * self.seeds * self.pooling_factors).max(1);
        assert!(
            workload < workloads,
            "workload index {workload} out of range"
        );
        assert!(scheme < self.schemes, "scheme index {scheme} out of range");
        assert!(seed < self.seeds, "seed index {seed} out of range");
        assert!(
            pooling < self.pooling_factors,
            "pooling index {pooling} out of range"
        );
        let index = ((workload * self.schemes + scheme) * self.seeds + seed) * self.pooling_factors
            + pooling;
        &self.reports[index]
    }

    /// Serializes the whole run as a JSON array of run reports.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        array(|a| a.push_objects(&self.reports, RunReport::write_fields)).write_json(&mut out);
        out
    }

    /// Parses a run back from [`CampaignRun::to_json`] output. The grid
    /// shape collapses to one axis (`get` coordinates are not preserved);
    /// use this to reload archived reports.
    ///
    /// # Errors
    /// Returns a [`crate::json::JsonError`] on syntax or schema errors.
    pub fn from_json(text: &str) -> Result<Vec<RunReport>, crate::json::JsonError> {
        let doc = crate::json::Json::parse(text)?;
        let items = doc
            .as_array()
            .ok_or_else(|| crate::json::JsonError::schema("expected a JSON array of reports"))?;
        items.iter().map(RunReport::from_json_value).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrm::WorkloadScale;
    use dlrm_datasets::AccessPattern;
    use gpu_sim::GpuConfig;

    fn base() -> Experiment {
        Experiment::new(GpuConfig::test_small(), WorkloadScale::Test)
    }

    fn small_grid() -> Campaign {
        Campaign::new(base())
            .workloads([
                Workload::kernel(AccessPattern::HighHot),
                Workload::stage(AccessPattern::Random),
            ])
            .schemes([Scheme::base(), Scheme::optmt()])
    }

    #[test]
    fn grid_order_is_workload_major() {
        let run = small_grid().run();
        assert_eq!(run.len(), 4);
        assert_eq!(run.reports()[0].workload, "high hot");
        assert_eq!(run.reports()[0].scheme, "base");
        assert_eq!(run.reports()[1].scheme, "OptMT");
        assert_eq!(run.reports()[2].workload, "random");
        assert_eq!(run.get(1, 1, 0, 0).scheme, "OptMT");
        assert_eq!(run.get(1, 1, 0, 0).workload, "random");
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let serial = small_grid().threads(1).run();
        let parallel = small_grid().threads(4).run();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn cells_match_direct_experiment_runs() {
        let run = small_grid().threads(3).run();
        let direct = base().run(&Workload::stage(AccessPattern::Random), &Scheme::optmt());
        assert_eq!(*run.get(1, 1, 0, 0), direct);
    }

    #[test]
    fn seed_axis_overrides_the_base_seed() {
        let run = Campaign::new(base())
            .workload(Workload::kernel(AccessPattern::MedHot))
            .scheme(Scheme::base())
            .seeds([1, 2])
            .run();
        assert_eq!(run.len(), 2);
        assert_eq!(run.get(0, 0, 0, 0).seed, 1);
        assert_eq!(run.get(0, 0, 1, 0).seed, 2);
        assert_ne!(run.get(0, 0, 0, 0).stats, run.get(0, 0, 1, 0).stats);
    }

    #[test]
    fn pooling_axis_reconfigures_the_model() {
        let run = Campaign::new(base())
            .workload(Workload::kernel(AccessPattern::MedHot))
            .scheme(Scheme::base())
            .pooling_factors([4, 16])
            .run();
        assert_eq!(run.get(0, 0, 0, 0).pooling_factor, 4);
        assert_eq!(run.get(0, 0, 0, 1).pooling_factor, 16);
        assert!(
            run.get(0, 0, 0, 1).stats.counters.load_insts
                > run.get(0, 0, 0, 0).stats.counters.load_insts
        );
    }

    #[test]
    fn empty_campaigns_run_to_empty_results() {
        let run = Campaign::new(base()).run();
        assert!(run.is_empty());
        assert_eq!(run.to_json(), "[]");
    }

    #[test]
    fn campaign_json_round_trips() {
        let run = small_grid().run();
        let reports = CampaignRun::from_json(&run.to_json()).unwrap();
        assert_eq!(reports, run.reports());
    }

    #[test]
    fn on_cluster_reaches_sharded_cells() {
        use crate::topology::{InterconnectConfig, ShardingSpec};
        use dlrm_datasets::HeterogeneousMix;
        let mix = HeterogeneousMix::paper_mix(dlrm_datasets::MixKind::Mix2, 0.02);
        let run = Campaign::new(base())
            .on_cluster(Cluster::homogeneous(
                GpuConfig::test_small(),
                2,
                InterconnectConfig::nvlink3(),
            ))
            .workload(Workload::stage(mix).with_sharding(ShardingSpec::RoundRobin))
            .scheme(Scheme::base())
            .run();
        let cluster = run.reports()[0].devices.as_ref().unwrap();
        assert_eq!(cluster.num_devices(), 2);
    }

    #[test]
    fn one_worker_runs_every_job_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ids = run_jobs(1, 5, |_| std::thread::current().id());
        assert_eq!(ids, vec![caller; 5]);
    }

    #[test]
    fn results_come_back_in_job_order_at_any_worker_count() {
        for threads in 0..=4 {
            for jobs in 0..=7 {
                let workers = resolve_worker_count(threads, jobs);
                let results = run_jobs(workers, jobs, |index| index * 10);
                let expected: Vec<usize> = (0..jobs).map(|index| index * 10).collect();
                assert_eq!(results, expected, "{threads} threads, {jobs} jobs");
            }
        }
    }

    #[test]
    fn a_panicking_job_panics_the_caller() {
        for workers in [1, 2] {
            let outcome = std::panic::catch_unwind(|| {
                run_jobs(workers, 4, |index| {
                    assert_ne!(index, 2, "job 2 fails");
                    index
                })
            });
            assert!(outcome.is_err(), "{workers} workers");
        }
    }

    #[test]
    fn cached_sharded_grids_count_the_same_at_any_worker_count() {
        use crate::topology::{InterconnectConfig, ShardingSpec};
        use dlrm_datasets::HeterogeneousMix;
        let mix = HeterogeneousMix::paper_mix(dlrm_datasets::MixKind::Mix2, 0.02);
        let grid = |specs: &[ShardingSpec], seeds: &[u64]| {
            Campaign::new(base())
                .on_cluster(Cluster::homogeneous(
                    GpuConfig::test_small(),
                    4,
                    InterconnectConfig::nvlink3(),
                ))
                .workloads(
                    specs
                        .iter()
                        .map(|&spec| Workload::stage(mix.clone()).with_sharding(spec)),
                )
                .scheme(Scheme::optmt())
                .seeds(seeds.iter().copied())
        };
        // A many-cell grid runs its cells in parallel; a one-cell grid
        // hands its workers to the cell's shard fan-out instead.
        let grids = [
            (
                &[ShardingSpec::RoundRobin, ShardingSpec::SizeBalanced][..],
                &[1, 2][..],
            ),
            (&[ShardingSpec::SizeBalanced][..], &[3][..]),
        ];
        for (specs, seeds) in grids {
            let run_at = |workers: usize| {
                let cache = CampaignCache::new();
                let run = grid(specs, seeds)
                    .threads(workers)
                    .with_cache(cache.clone())
                    .run();
                let rerun = grid(specs, seeds)
                    .threads(workers)
                    .with_cache(cache.clone())
                    .run();
                assert_eq!(run, rerun);
                (run, cache.hits(), cache.misses(), cache.len())
            };
            let serial = run_at(1);
            for workers in [2, 4] {
                assert_eq!(
                    run_at(workers),
                    serial,
                    "{workers} workers, {specs:?}, seeds {seeds:?}"
                );
            }
        }
    }

    #[test]
    fn with_cache_serves_repeated_grids() {
        let cache = crate::cache::CampaignCache::new();
        let first = small_grid().with_cache(cache.clone()).run();
        assert_eq!(cache.misses() as usize, first.len());
        let second = small_grid().with_cache(cache.clone()).threads(2).run();
        assert_eq!(cache.hits() as usize, second.len());
        assert_eq!(first, second);
    }
}

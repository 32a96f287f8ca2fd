//! Campaign result caching: [`CampaignCache`].
//!
//! The paper's evaluation keeps re-running the same cells: a grid with a
//! duplicated axis value revisits cells inside one run, the five DSE sweeps
//! all contain the base-scheme column for the same patterns, and benchmark /
//! figure regeneration re-executes entire grids. Since every cell is a pure
//! function of its inputs — the experiment's device and model configuration,
//! scale, seed, pooling factor, plus the workload and scheme — its
//! [`RunReport`] can be memoized on that fingerprint and served from cache
//! on every later request.
//!
//! A cache is attached to an [`Experiment`] with
//! [`Experiment::with_cache`]; every [`Experiment::run`] call through that
//! experiment (including every [`crate::Campaign`] built over it, which
//! clones the experiment per cell, and every per-shard cell of a sharded
//! workload) consults the cache first. Reports are exact clones of the
//! originals, so cached campaigns remain deterministic and
//! thread-count-independent.
//!
//! Keys are a canonical fingerprint encoding: a JSON object whose fields are
//! streamed straight into the key string in sorted order, through the same
//! scalar formatters (shortest-round-trip floats) as [`Json`] rendering, so
//! no document tree is built per lookup (see `crate::fingerprint`). Keys are
//! byte-identical across processes, so a cache can be persisted with
//! [`CampaignCache::save_to`] and reloaded with [`CampaignCache::load_from`]
//! for incremental re-runs across processes: a sweep that overlaps an
//! earlier archived sweep only executes its genuinely new cells. Loading
//! rejects malformed files, however deeply nested, with an error.
//!
//! Below the cells sits a second, in-memory-only memo: the **stage run**.
//! An embedding stage simulates `min(count, tables_to_simulate)` tables of
//! each pattern group and extrapolates to the real counts, so shards and
//! cells with different table counts often simulate the identical table
//! sequence. The cache memoizes that simulation (the merged statistics and
//! each group's simulated time) keyed by [`Experiment::fingerprint`] of the
//! canonical stage workload over the clamped sequence — every field the
//! engine reads (device, engine mode, streams, scheme, seed, model, ...) is
//! in that key, so, for instance, a cycle-accurate run never reads an
//! event-driven entry. Each report is still assembled from its own real
//! counts. The stage-run memo is never persisted: [`CampaignCache::save_to`]
//! writes cells only, and a loaded cache starts with an empty memo.
//!
//! ```
//! use dlrm::WorkloadScale;
//! use dlrm_datasets::AccessPattern;
//! use gpu_sim::GpuConfig;
//! use perf_envelope::{CampaignCache, Experiment, Scheme, Workload};
//!
//! let cache = CampaignCache::new();
//! let experiment = Experiment::new(GpuConfig::test_small(), WorkloadScale::Test)
//!     .with_cache(cache.clone());
//! let workload = Workload::kernel(AccessPattern::MedHot);
//! let first = experiment.run(&workload, &Scheme::base());
//! let second = experiment.run(&workload, &Scheme::base());
//! assert_eq!(first, second);
//! assert_eq!(cache.hits(), 1);
//! assert_eq!(cache.misses(), 1);
//! ```

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::json::{array, object, render_object, Json, JsonError};
use crate::report::RunReport;
use crate::runner::{Experiment, StageRun};
use crate::scheme::Scheme;
use crate::workload::Workload;

/// Identifier of the persisted-cache JSON schema produced by this crate
/// version.
pub const CAMPAIGN_CACHE_SCHEMA: &str = "perf-envelope/campaign-cache/v1";

/// A thread-safe memo of [`RunReport`]s keyed by the canonical cell
/// fingerprint (workload incl. sharding spec, scheme, seed, pooling factor,
/// cluster topology and model configuration, scale, engine mode).
///
/// Each distinct cell runs exactly once at any thread count: workers that
/// request a cell while another worker is simulating it wait for that
/// result and count as hits, so `misses` counts distinct cells executed.
///
/// Beside the cells it keeps, in memory only, a stage-run memo: the
/// simulation of each distinct per-device table sequence, shared by every
/// cell and shard whose stage clamps to that sequence (see the module
/// docs). The memo is never persisted and never counted in `hits`,
/// `misses` or `len`.
#[derive(Debug, Default)]
pub struct CampaignCache {
    map: Slots<RunReport>,
    stages: Slots<StageRun>,
    hits: AtomicU64,
    misses: AtomicU64,
    stage_runs: AtomicU64,
}

/// Single-flight slots keyed by fingerprint, hashed by [`KeyHasher`].
///
/// SipHash, the standard map's default, defends a table against keys
/// chosen to collide; it buys nothing here. Every key is a fingerprint this
/// crate wrote, either now or, for a loaded cache, by the `to_json` of an
/// earlier run, so a crafted file can at worst slow its own load. Hashing
/// a 1–3 KB key a word at a time costs a fraction of SipHash's time on
/// every lookup.
// audit:allow(unordered_collection): keyed fingerprint lookups only;
// to_json sorts the cells' keys before streaming them out, and the
// stage-run memo is never iterated
type Slots<T> = Mutex<HashMap<String, Arc<OnceLock<T>>, BuildHasherDefault<KeyHasher>>>;

/// A deterministic multiplicative hasher that consumes a key eight bytes at
/// a time. Each word takes the `FxHash` step (rotate, xor in the word,
/// multiply by an odd constant), and finishing rotates the high, well-mixed
/// bits down. Whole 32-byte blocks go to four independent lanes, which
/// keeps four multiplies in flight where one chain would wait out each
/// multiply's latency; the lanes then fold into the state in order.
#[derive(Default)]
struct KeyHasher(u64);

/// One `FxHash` step: `state` with `word` mixed in.
fn mix(state: u64, word: u64) -> u64 {
    (state.rotate_left(5) ^ word).wrapping_mul(0xf135_7aea_2e62_a9c5)
}

/// The little-endian word in eight key bytes.
fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("words are eight bytes"))
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut blocks = bytes.chunks_exact(32);
        let mut lanes = [0; 4];
        for block in &mut blocks {
            for (lane, bytes) in lanes.iter_mut().zip(block.chunks_exact(8)) {
                *lane = mix(*lane, word(bytes));
            }
        }
        for lane in lanes {
            self.0 = mix(self.0, lane);
        }
        let mut words = blocks.remainder().chunks_exact(8);
        for bytes in &mut words {
            self.0 = mix(self.0, word(bytes));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut padded = [0; 8];
            padded[..tail.len()].copy_from_slice(tail);
            self.0 = mix(self.0, u64::from_le_bytes(padded));
        }
    }

    fn write_u8(&mut self, byte: u8) {
        self.0 = mix(self.0, byte.into());
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// The single-flight slot for `key`, created on first request. A new key is
/// shrunk to its length before it is stored, since fingerprints reserve
/// more than they use; a lookup that finds its slot allocates nothing.
fn slot<T>(slots: &Slots<T>, mut key: String) -> Arc<OnceLock<T>> {
    let mut map = slots.lock().expect("cache poisoned");
    if let Some(slot) = map.get(&key) {
        return Arc::clone(slot);
    }
    key.shrink_to_fit();
    Arc::clone(map.entry(key).or_default())
}

impl CampaignCache {
    /// Creates an empty cache, shareable across experiments, campaigns and
    /// worker threads.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Returns the cached report for the cell, or runs it and caches the
    /// result. The map lock is held only to find or create the cell's slot;
    /// the simulation runs outside it, and workers racing on the same cold
    /// cell wait on its slot rather than simulating it twice.
    pub(crate) fn get_or_run(
        &self,
        experiment: &Experiment,
        workload: &Workload,
        scheme: &Scheme,
    ) -> RunReport {
        let slot = slot(&self.map, experiment.fingerprint(workload, scheme));
        let mut ran = false;
        let report = slot.get_or_init(|| {
            ran = true;
            experiment.run_uncached(workload, scheme)
        });
        let counter = if ran { &self.misses } else { &self.hits };
        // audit:allow(thread_accumulation): monotonic counter; the total is
        // order-insensitive and never feeds a simulated result
        counter.fetch_add(1, Ordering::Relaxed);
        report.clone()
    }

    /// Returns the memoized simulation of one device's table sequence, or
    /// runs `simulate` and memoizes its result under `key` (the fingerprint
    /// of the sequence's canonical stage workload), single-flight like the
    /// cells.
    pub(crate) fn stage_run(&self, key: String, simulate: impl FnOnce() -> StageRun) -> StageRun {
        let slot = slot(&self.stages, key);
        let run = slot.get_or_init(|| {
            // audit:allow(thread_accumulation): monotonic counter; the total
            // is order-insensitive and never feeds a simulated result
            self.stage_runs.fetch_add(1, Ordering::Relaxed);
            simulate()
        });
        run.clone()
    }

    /// Number of table sequences simulated through the stage-run memo.
    #[cfg(test)]
    pub(crate) fn stage_runs(&self) -> u64 {
        self.stage_runs.load(Ordering::Relaxed)
    }

    /// Number of lookups served from cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that had to execute their cell.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct cells currently cached (cells still being
    /// simulated are not counted).
    pub fn len(&self) -> usize {
        self.map
            .lock()
            .expect("cache poisoned")
            .values()
            .filter(|slot| slot.get().is_some())
            .count()
    }

    /// Whether the cache holds no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached report and every memoized stage run (statistics
    /// are preserved).
    pub fn clear(&self) {
        self.map.lock().expect("cache poisoned").clear();
        self.stages.lock().expect("cache poisoned").clear();
    }

    /// Serializes the cache as a JSON document: every cell's canonical
    /// fingerprint key together with its report, sorted by key so the
    /// rendering is stable for identical contents. Reports are streamed
    /// from the cache by reference under the map lock; cells still being
    /// simulated are skipped.
    pub fn to_json(&self) -> String {
        let map = self.map.lock().expect("cache poisoned");
        let mut cells: Vec<(&str, &RunReport)> = map
            .iter()
            .filter_map(|(key, slot)| Some((key.as_str(), slot.get()?)))
            .collect();
        cells.sort_unstable_by_key(|&(key, _)| key);
        render_object(|w| {
            w.set(
                "cells",
                array(|a| {
                    for (key, report) in cells {
                        a.push(object(|cell| {
                            cell.set("key", key);
                            cell.set("report", object(|r| report.write_fields(r)));
                        }));
                    }
                }),
            );
            w.set("schema", CAMPAIGN_CACHE_SCHEMA);
        })
    }

    /// Parses a cache back from [`CampaignCache::to_json`] output. The
    /// returned cache starts with fresh hit/miss statistics.
    ///
    /// # Errors
    /// Returns a [`JsonError`] on syntax errors, a wrong `schema` tag,
    /// malformed cells, or a cell key listed twice (which `to_json` never
    /// writes, but an edited or merged file can hold).
    pub fn from_json(text: &str) -> Result<Arc<Self>, JsonError> {
        let doc = Json::parse(text)?;
        match doc.get("schema").and_then(Json::as_str) {
            Some(CAMPAIGN_CACHE_SCHEMA) => {}
            Some(other) => {
                return Err(JsonError::schema(format!(
                    "unsupported cache schema '{other}'"
                )))
            }
            None => return Err(JsonError::schema("missing field 'schema'")),
        }
        let cells = doc
            .get("cells")
            .and_then(Json::as_array)
            .ok_or_else(|| JsonError::schema("field 'cells' is not an array"))?;
        // audit:allow(unordered_collection): keyed lookups only (see `Slots`)
        let mut map = HashMap::with_capacity_and_hasher(cells.len(), Default::default());
        for cell in cells {
            let key = cell
                .get("key")
                .and_then(Json::as_str)
                .ok_or_else(|| JsonError::schema("cell is missing a string 'key'"))?;
            let report = cell
                .get("report")
                .ok_or_else(|| JsonError::schema("cell is missing its 'report'"))?;
            let report = RunReport::from_json_value(report)?;
            match map.entry(key.to_string()) {
                Entry::Vacant(slot) => {
                    slot.insert(Arc::new(OnceLock::from(report)));
                }
                Entry::Occupied(_) => {
                    return Err(JsonError::schema(format!(
                        "cell key '{key}' is listed twice"
                    )))
                }
            }
        }
        Ok(Arc::new(CampaignCache {
            map: Mutex::new(map),
            ..CampaignCache::default()
        }))
    }

    /// Writes the cache to `path` (see [`CampaignCache::to_json`]) so a
    /// later process can pick up where this one left off.
    ///
    /// # Errors
    /// Returns the underlying I/O error if the file cannot be written.
    pub fn save_to(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Reads a cache previously written by [`CampaignCache::save_to`].
    /// Attach the result with [`Experiment::with_cache`] (or
    /// [`crate::Campaign::with_cache`]) and previously executed cells are
    /// served without re-simulation.
    ///
    /// # Errors
    /// Returns a [`CacheLoadError`] if the file cannot be read or does not
    /// parse as a persisted cache.
    pub fn load_from(path: impl AsRef<Path>) -> Result<Arc<Self>, CacheLoadError> {
        let text = std::fs::read_to_string(path).map_err(CacheLoadError::Io)?;
        Self::from_json(&text).map_err(CacheLoadError::Json)
    }
}

/// Why [`CampaignCache::load_from`] failed.
#[derive(Debug)]
pub enum CacheLoadError {
    /// The file could not be read.
    Io(std::io::Error),
    /// The file's contents are not a valid persisted cache.
    Json(JsonError),
}

impl fmt::Display for CacheLoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheLoadError::Io(e) => write!(f, "failed to read the cache file: {e}"),
            CacheLoadError::Json(e) => write!(f, "failed to parse the cache file: {e}"),
        }
    }
}

impl std::error::Error for CacheLoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CacheLoadError::Io(e) => Some(e),
            CacheLoadError::Json(e) => Some(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;
    use crate::topology::{Cluster, InterconnectConfig, ShardingSpec};
    use dlrm::WorkloadScale;
    use dlrm_datasets::{AccessPattern, HeterogeneousMix, MixKind};
    use gpu_sim::{EngineMode, GpuConfig};

    fn cached_experiment(cache: &Arc<CampaignCache>) -> Experiment {
        Experiment::new(GpuConfig::test_small(), WorkloadScale::Test).with_cache(cache.clone())
    }

    #[test]
    fn identical_cells_hit() {
        let cache = CampaignCache::new();
        let e = cached_experiment(&cache);
        let w = Workload::kernel(AccessPattern::MedHot);
        let a = e.run(&w, &Scheme::base());
        let b = e.run(&w, &Scheme::base());
        assert_eq!(a, b);
        assert_eq!((cache.misses(), cache.hits()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn changed_seed_misses() {
        let cache = CampaignCache::new();
        let e = cached_experiment(&cache);
        let w = Workload::kernel(AccessPattern::MedHot);
        let a = e.run(&w, &Scheme::base());
        let b = e.clone().with_seed(99).run(&w, &Scheme::base());
        assert_ne!(a.stats, b.stats);
        assert_eq!((cache.misses(), cache.hits()), (2, 0));
    }

    #[test]
    fn changed_pooling_factor_misses() {
        let cache = CampaignCache::new();
        let e = cached_experiment(&cache);
        let w = Workload::kernel(AccessPattern::MedHot);
        let _ = e.clone().with_pooling_factor(4).run(&w, &Scheme::base());
        let _ = e.clone().with_pooling_factor(16).run(&w, &Scheme::base());
        assert_eq!((cache.misses(), cache.hits()), (2, 0));
    }

    #[test]
    fn workload_scheme_device_and_mode_distinguish_cells() {
        let cache = CampaignCache::new();
        let e = cached_experiment(&cache);
        let w = Workload::kernel(AccessPattern::MedHot);
        let _ = e.run(&w, &Scheme::base());
        let _ = e.run(&w, &Scheme::optmt());
        let _ = e.run(&Workload::kernel(AccessPattern::Random), &Scheme::base());
        let _ = e.run(&Workload::stage(AccessPattern::MedHot), &Scheme::base());
        let other_device =
            Experiment::new(GpuConfig::test_small().with_num_sms(2), WorkloadScale::Test)
                .with_cache(cache.clone());
        let _ = other_device.run(&w, &Scheme::base());
        let reference = e.clone().with_engine_mode(EngineMode::CycleAccurate);
        let _ = reference.run(&w, &Scheme::base());
        assert_eq!((cache.misses(), cache.hits()), (6, 0));
    }

    #[test]
    fn cached_report_is_bit_identical_to_uncached() {
        let cache = CampaignCache::new();
        let cached = cached_experiment(&cache);
        let plain = Experiment::new(GpuConfig::test_small(), WorkloadScale::Test);
        let w = Workload::stage(AccessPattern::LowHot);
        let warm = cached.run(&w, &Scheme::combined());
        let warm_again = cached.run(&w, &Scheme::combined());
        assert_eq!(warm, warm_again);
        assert_eq!(warm, plain.run(&w, &Scheme::combined()));
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn campaigns_share_the_cache_across_runs() {
        let cache = CampaignCache::new();
        let grid = || {
            Campaign::new(cached_experiment(&cache))
                .workloads([
                    Workload::kernel(AccessPattern::HighHot),
                    Workload::kernel(AccessPattern::Random),
                ])
                .schemes([Scheme::base(), Scheme::optmt()])
        };
        let first = grid().run();
        assert_eq!((cache.misses(), cache.hits()), (4, 0));
        // The re-run (e.g. a second sweep overlapping the first) is served
        // entirely from cache and stays deterministic across thread counts.
        let second = grid().threads(3).run();
        assert_eq!(cache.misses(), 4);
        assert_eq!(cache.hits(), 4);
        assert_eq!(first, second);
    }

    #[test]
    fn duplicated_grid_axis_values_are_served_from_cache() {
        let cache = CampaignCache::new();
        let run = Campaign::new(cached_experiment(&cache))
            .workload(Workload::kernel(AccessPattern::MedHot))
            .scheme(Scheme::base())
            .seeds([7, 7, 7])
            .run();
        assert_eq!(run.len(), 3);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 2);
        assert_eq!(run.reports()[0], run.reports()[2]);
    }

    #[test]
    fn concurrent_requests_for_one_cold_cell_simulate_it_once() {
        let cache = CampaignCache::new();
        let e = cached_experiment(&cache);
        let w = Workload::kernel(AccessPattern::MedHot);
        let barrier = std::sync::Barrier::new(8);
        let reports: Vec<RunReport> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        e.run(&w, &Scheme::base())
                    })
                })
                .collect();
            workers.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!((cache.misses(), cache.hits()), (1, 7));
        assert_eq!(cache.len(), 1);
        assert!(reports.iter().all(|r| *r == reports[0]));
    }

    #[test]
    fn json_round_trip_preserves_every_cell() {
        let cache = CampaignCache::new();
        let e = cached_experiment(&cache);
        let w = Workload::stage(AccessPattern::MedHot);
        let original = e.run(&w, &Scheme::combined());
        let _ = e.run(&Workload::kernel(AccessPattern::Random), &Scheme::base());

        let reloaded = CampaignCache::from_json(&cache.to_json()).unwrap();
        assert_eq!(reloaded.len(), 2);
        assert_eq!((reloaded.hits(), reloaded.misses()), (0, 0));
        // A fresh experiment over the reloaded cache serves both cells
        // without re-simulating, bit-identically.
        let e2 = Experiment::new(GpuConfig::test_small(), WorkloadScale::Test)
            .with_cache(reloaded.clone());
        assert_eq!(e2.run(&w, &Scheme::combined()), original);
        assert_eq!((reloaded.hits(), reloaded.misses()), (1, 0));
        // Rendering is canonical: a second trip is byte-identical.
        assert_eq!(reloaded.to_json(), cache.to_json());
    }

    #[test]
    fn save_and_load_work_across_the_filesystem() {
        let cache = CampaignCache::new();
        let e = cached_experiment(&cache);
        let w = Workload::kernel(AccessPattern::MedHot);
        let original = e.run(&w, &Scheme::base());

        let path = std::env::temp_dir().join(format!(
            "perf-envelope-cache-test-{}.json",
            std::process::id()
        ));
        cache.save_to(&path).unwrap();
        let reloaded = CampaignCache::load_from(&path).unwrap();
        std::fs::remove_file(&path).ok();

        let e2 = Experiment::new(GpuConfig::test_small(), WorkloadScale::Test)
            .with_cache(reloaded.clone());
        assert_eq!(e2.run(&w, &Scheme::base()), original);
        assert_eq!((reloaded.hits(), reloaded.misses()), (1, 0));
    }

    #[test]
    fn load_rejects_garbage_and_wrong_schemas() {
        assert!(CampaignCache::from_json("not json").is_err());
        assert!(CampaignCache::from_json("{\"schema\":\"other/v9\",\"cells\":[]}").is_err());
        assert!(CampaignCache::from_json("{\"cells\":[]}").is_err());
        let missing = CampaignCache::load_from("/nonexistent/path/cache.json");
        assert!(matches!(missing, Err(CacheLoadError::Io(_))));
    }

    #[test]
    fn load_rejects_a_cell_key_listed_twice() {
        let cache = CampaignCache::new();
        let w = Workload::kernel(AccessPattern::MedHot);
        let _ = cached_experiment(&cache).run(&w, &Scheme::base());
        let doc = Json::parse(&cache.to_json()).unwrap();
        let cell = doc.get("cells").and_then(Json::as_array).unwrap()[0].clone();
        let key = cell.get("key").and_then(Json::as_str).unwrap().to_string();
        let mut twice = doc.clone();
        twice.set("cells", Json::Arr(vec![cell.clone(), cell]));
        let err = CampaignCache::from_json(&twice.render()).unwrap_err();
        assert!(err.message.contains(&key), "{err}");
        assert!(err.message.contains("listed twice"), "{err}");
        // The document with the cell once loads.
        assert_eq!(CampaignCache::from_json(&doc.render()).unwrap().len(), 1);
    }

    #[test]
    fn load_rejects_deeply_nested_documents_without_overflowing() {
        let nested = format!(
            "{{\"schema\":\"{CAMPAIGN_CACHE_SCHEMA}\",\"cells\":[{}",
            "[".repeat(1_000_000)
        );
        assert!(CampaignCache::from_json(&nested).is_err());
        let path = std::env::temp_dir().join(format!(
            "perf-envelope-nested-cache-test-{}.json",
            std::process::id()
        ));
        std::fs::write(&path, &nested).unwrap();
        let loaded = CampaignCache::load_from(&path);
        std::fs::remove_file(&path).ok();
        assert!(matches!(loaded, Err(CacheLoadError::Json(_))));
    }

    #[test]
    fn clear_empties_the_cache() {
        let cache = CampaignCache::new();
        let e = cached_experiment(&cache);
        let w = Workload::stage(AccessPattern::MedHot);
        let _ = e.run(&w, &Scheme::base());
        assert!(!cache.is_empty());
        assert_eq!(cache.stage_runs(), 1);
        cache.clear();
        assert!(cache.is_empty());
        // The stage-run memo goes too: the cell simulates again.
        let _ = e.run(&w, &Scheme::base());
        assert_eq!((cache.misses(), cache.stage_runs()), (2, 2));
    }

    fn nvlink3(devices: usize) -> Cluster {
        Cluster::homogeneous(
            GpuConfig::test_small(),
            devices,
            InterconnectConfig::nvlink3(),
        )
    }

    fn mix2(scale: f64) -> HeterogeneousMix {
        HeterogeneousMix::paper_mix(MixKind::Mix2, scale)
    }

    #[test]
    fn shards_that_clamp_to_one_sequence_simulate_it_once() {
        // Round-robin splits Mix2(0.05) into two shards with different
        // group counts, so both shard cells run; at one simulated table per
        // group they clamp to the same sequence.
        let cache = CampaignCache::new();
        let e = cached_experiment(&cache)
            .with_cluster(nvlink3(2))
            .with_threads(1);
        let w = Workload::stage(mix2(0.05)).with_sharding(ShardingSpec::RoundRobin);
        let report = e.run(&w, &Scheme::base());
        assert_eq!(cache.misses(), 3, "one top-level and two shard cells");
        assert_eq!(cache.stage_runs(), 1);
        let plain =
            Experiment::new(GpuConfig::test_small(), WorkloadScale::Test).with_cluster(nvlink3(2));
        assert_eq!(report, plain.run(&w, &Scheme::base()));
    }

    #[test]
    fn the_rerun_grid_simulates_nine_sequences_per_scheme_and_seed() {
        let cache = CampaignCache::new();
        for devices in [1, 2, 4] {
            let e = cached_experiment(&cache)
                .with_cluster(nvlink3(devices))
                .with_threads(1);
            for spec in ShardingSpec::ALL {
                let w = Workload::end_to_end(mix2(0.05)).with_sharding(spec);
                let _ = e.run(&w, &Scheme::combined());
            }
        }
        assert_eq!(cache.stage_runs(), 9);
    }

    #[test]
    fn cycle_accurate_runs_never_read_event_driven_stage_runs() {
        let cache = CampaignCache::new();
        let grid = |mode: EngineMode| {
            let e = cached_experiment(&cache)
                .with_cluster(nvlink3(2))
                .with_engine_mode(mode)
                .with_threads(1);
            ShardingSpec::ALL.map(|spec| {
                e.run(
                    &Workload::stage(mix2(0.05)).with_sharding(spec),
                    &Scheme::optmt(),
                )
            })
        };
        let event_driven = grid(EngineMode::EventDriven);
        let simulated = cache.stage_runs();
        assert!(simulated > 0);
        let cycle_accurate = grid(EngineMode::CycleAccurate);
        assert_eq!(
            cache.stage_runs(),
            2 * simulated,
            "the oracle must simulate every sequence itself"
        );
        assert_eq!(cycle_accurate, event_driven);
    }

    #[test]
    fn the_key_hasher_separates_keys_that_differ_in_any_one_byte() {
        let hash = |key: &[u8]| {
            let mut h = KeyHasher::default();
            h.write(key);
            h.finish()
        };
        // An odd length: whole blocks, then loose words, then a padded tail.
        let key = Experiment::new(GpuConfig::test_small(), WorkloadScale::Test)
            .with_seed(3)
            .fingerprint(&Workload::kernel(AccessPattern::MedHot), &Scheme::base());
        let key = &key.as_bytes()[..(key.len() - 1) | 1];
        assert_eq!(hash(key), hash(key));
        let mut edited = key.to_vec();
        for i in 0..edited.len() {
            edited[i] ^= 0x20;
            assert_ne!(hash(&edited), hash(key), "byte {i}");
            edited[i] ^= 0x20;
        }
    }

    #[test]
    fn stored_keys_are_shrunk_to_their_length() {
        let cache = CampaignCache::new();
        let e = cached_experiment(&cache);
        let _ = e.run(&Workload::stage(mix2(0.05)), &Scheme::base());
        let map = cache.map.lock().unwrap();
        let stages = cache.stages.lock().unwrap();
        assert_eq!((map.len(), stages.len()), (1, 1));
        for key in map.keys().chain(stages.keys()) {
            assert_eq!(key.capacity(), key.len());
        }
    }

    #[test]
    fn saved_bytes_do_not_depend_on_stage_run_hits() {
        // At one simulated table per group, every Mix2 scale and kind
        // clamps to the same sequence: the cached run hits the memo.
        let cells = [
            Workload::stage(mix2(0.05)),
            Workload::stage(mix2(0.1)),
            Workload::end_to_end(mix2(0.05)),
            Workload::end_to_end(mix2(0.1)),
        ];
        let cache = CampaignCache::new();
        let cached = cached_experiment(&cache);
        for w in &cells {
            let _ = cached.run(w, &Scheme::combined());
        }
        assert_eq!((cache.misses(), cache.stage_runs()), (4, 1));

        // The same cells run uncached, stored by hand: no memo involved.
        let plain = Experiment::new(GpuConfig::test_small(), WorkloadScale::Test);
        let direct = CampaignCache::new();
        for w in &cells {
            direct.map.lock().unwrap().insert(
                plain.fingerprint(w, &Scheme::combined()),
                Arc::new(OnceLock::from(plain.run(w, &Scheme::combined()))),
            );
        }

        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let saved = |cache: &CampaignCache, name: &str| {
            let path = dir.join(format!("perf-envelope-stage-memo-{name}-{pid}.json"));
            cache.save_to(&path).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).ok();
            bytes
        };
        assert_eq!(saved(&cache, "memo"), saved(&direct, "direct"));
    }
}

//! Multi-GPU cluster topology and embedding-table sharding.
//!
//! The paper measures its performance envelope per GPU, but production
//! recommendation models shard their embedding tables across many devices:
//! each device executes the tables of its shard, then the pooled embeddings
//! are exchanged over the interconnect so the device running the dense
//! pipeline (feature interaction + MLPs) sees every table's output. This
//! module provides the pieces [`crate::Experiment`] needs to model that:
//!
//! * [`Cluster`] — N devices (each a full [`GpuConfig`], so heterogeneous
//!   clusters are allowed) connected by an [`InterconnectConfig`],
//! * [`ShardPlan`] — a validated assignment of every table to exactly one
//!   device,
//! * [`ShardingSpec`] — the sharding strategies (round-robin, size-balanced
//!   and hot/cold) as the serializable enum that [`crate::Workload`]
//!   carries; [`ShardingSpec::plan`] produces a plan.
//!
//! # Interconnect model and its assumptions
//!
//! The interconnect is modelled as one full-duplex link of
//! `link_bandwidth_gbps` per device plus a fixed `link_latency_us` of
//! software and wire latency per collective. After the embedding stage,
//! every non-root device holds `batch_size * embedding_dim * 4` bytes of
//! pooled output per assigned table, all of which must reach the root
//! device (device 0), which runs the interaction stage and the MLPs. The
//! gather is therefore ingress-bound at the root:
//!
//! ```text
//! all_to_all_us = link_latency_us + sum(remote pooled bytes) / bandwidth
//! ```
//!
//! A single-device cluster transfers nothing and contributes exactly
//! `0.0 us`, which keeps a trivial plan bit-exact with the unsharded path.
//! The model deliberately ignores topology details below that level (NVLink
//! ring vs switch, PCIe tree): they change constants, not the scaling shape
//! this layer exists to expose. Refining the model means changing only
//! [`InterconnectConfig::all_to_all_us`].
//!
//! # Adding a sharding strategy
//!
//! Add a variant to [`ShardingSpec`] with its `name` entry,
//! and a match arm in [`ShardingSpec::plan`] calling a private function
//! that maps a [`HeterogeneousMix`] and a device count to per-device lists
//! of the mix's canonical table indices (`table_profiles` expands that
//! order). The variant rides on a [`crate::Workload`] and is encoded into
//! campaign cache keys by name. Strategies must be deterministic: plans
//! are part of a cell's meaning, so the same mix and device count must
//! always produce the same plan regardless of thread count or process.

use dlrm_datasets::{pattern_coverage_skew, AccessPattern, HeterogeneousMix};
use gpu_sim::{GpuConfig, StreamPartition};

use crate::fingerprint::{self, RenderedGpu};
use crate::json::{array, object, ObjectWriter};

/// The inter-device fabric: one full-duplex link per device with a fixed
/// per-collective latency. See the [module docs](self) for the model's
/// assumptions.
#[derive(Debug, Clone, PartialEq)]
pub struct InterconnectConfig {
    /// Human-readable fabric name (e.g. `"NVLink3"`).
    pub name: String,
    /// Fixed software + wire latency of one collective, in microseconds.
    pub link_latency_us: f64,
    /// Per-device link bandwidth in GB/s (1 GB = 1e9 bytes).
    pub link_bandwidth_gbps: f64,
}

impl InterconnectConfig {
    /// Creates an interconnect configuration.
    ///
    /// # Panics
    /// Panics if the latency is negative or the bandwidth is not positive.
    pub fn new(name: impl Into<String>, link_latency_us: f64, link_bandwidth_gbps: f64) -> Self {
        assert!(
            link_latency_us.is_finite() && link_latency_us >= 0.0,
            "link latency must be finite and non-negative"
        );
        assert!(
            link_bandwidth_gbps.is_finite() && link_bandwidth_gbps > 0.0,
            "link bandwidth must be finite and positive"
        );
        InterconnectConfig {
            name: name.into(),
            link_latency_us,
            link_bandwidth_gbps,
        }
    }

    /// Third-generation NVLink as on A100 systems: ~300 GB/s effective per
    /// direction per device.
    pub fn nvlink3() -> Self {
        InterconnectConfig::new("NVLink3", 2.0, 300.0)
    }

    /// PCIe Gen4 x16 fallback fabric: ~25 GB/s effective per device.
    pub fn pcie_gen4() -> Self {
        InterconnectConfig::new("PCIe4x16", 5.0, 25.0)
    }

    /// Time in microseconds for the all-to-all that gathers every non-root
    /// device's pooled embeddings into `root`. `bytes_per_device[d]` is the
    /// pooled output device `d` produced; the root's own bytes never
    /// traverse a link. Returns exactly `0.0` when nothing is remote (in
    /// particular for a single-device cluster).
    ///
    /// # Panics
    /// Panics if `root` is out of range.
    pub fn all_to_all_us(&self, bytes_per_device: &[u64], root: usize) -> f64 {
        assert!(
            root < bytes_per_device.len(),
            "root device {root} out of range for {} devices",
            bytes_per_device.len()
        );
        let remote: u64 = bytes_per_device
            .iter()
            .enumerate()
            .filter(|&(d, _)| d != root)
            .map(|(_, &b)| b)
            .sum();
        if remote == 0 {
            return 0.0;
        }
        self.link_latency_us + remote as f64 / (self.link_bandwidth_gbps * 1e3)
    }
}

/// A set of devices that jointly execute one sharded workload. Device 0 is
/// the **root**: it runs the dense (non-embedding) pipeline and receives the
/// all-to-all of pooled embeddings.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    devices: Vec<GpuConfig>,
    interconnect: InterconnectConfig,
}

impl Cluster {
    /// Creates a cluster from explicit (possibly heterogeneous) devices.
    ///
    /// # Panics
    /// Panics if `devices` is empty.
    pub fn new(devices: Vec<GpuConfig>, interconnect: InterconnectConfig) -> Self {
        assert!(
            !devices.is_empty(),
            "a cluster must contain at least one device"
        );
        Cluster {
            devices,
            interconnect,
        }
    }

    /// A single-device cluster — the degenerate topology every unsharded
    /// experiment implicitly runs on. The interconnect is never exercised
    /// (there is nothing remote), so a default NVLink3 fabric is recorded.
    pub fn single(gpu: GpuConfig) -> Self {
        Cluster::new(vec![gpu], InterconnectConfig::nvlink3())
    }

    /// `n` identical devices on one fabric.
    ///
    /// # Panics
    /// Panics if `n` is zero.
    pub fn homogeneous(gpu: GpuConfig, n: usize, interconnect: InterconnectConfig) -> Self {
        assert!(n > 0, "a cluster must contain at least one device");
        Cluster::new(vec![gpu; n], interconnect)
    }

    /// Replica-group preset: `devices` A100s on NVLink3 — the paper's
    /// evaluation platform, and the default building block for
    /// [`fleet`](crate::fleet) replica groups.
    ///
    /// # Panics
    /// Panics if `devices` is zero.
    pub fn a100_replica(devices: usize) -> Self {
        Cluster::homogeneous(GpuConfig::a100(), devices, InterconnectConfig::nvlink3())
    }

    /// Replica-group preset: `devices` A100s over PCIe Gen4 — the budget
    /// fleet tier (commodity hosts without an NVLink fabric).
    ///
    /// # Panics
    /// Panics if `devices` is zero.
    pub fn a100_pcie_replica(devices: usize) -> Self {
        Cluster::homogeneous(GpuConfig::a100(), devices, InterconnectConfig::pcie_gen4())
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// All devices, root first.
    pub fn devices(&self) -> &[GpuConfig] {
        &self.devices
    }

    /// One device by index.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn device(&self, index: usize) -> &GpuConfig {
        &self.devices[index]
    }

    /// The root device (device 0): runs the dense pipeline and receives the
    /// pooled-embedding all-to-all.
    pub fn root(&self) -> &GpuConfig {
        &self.devices[0]
    }

    /// The inter-device fabric.
    pub fn interconnect(&self) -> &InterconnectConfig {
        &self.interconnect
    }

    /// Whether this is a single-device cluster.
    pub fn is_single(&self) -> bool {
        self.devices.len() == 1
    }

    /// Writes the cluster's fields into a cell key.
    /// `root` is this cluster's root device, already rendered.
    pub(crate) fn write_fields(&self, w: &mut ObjectWriter<'_>, root: &RenderedGpu<'_>) {
        let Cluster {
            devices,
            interconnect,
        } = self;
        w.set(
            "devices",
            array(|a| devices.iter().for_each(|gpu| root.push(a, gpu))),
        );
        w.set(
            "interconnect",
            object(|f| fingerprint::write_interconnect(f, interconnect)),
        );
    }

    /// The largest number of concurrently resident kernel streams every
    /// device of this cluster supports: the minimum of the per-device
    /// [`GpuConfig::max_concurrent_streams`] capabilities, since a
    /// [`StreamConfig`] applies uniformly across the cluster.
    pub fn stream_capacity(&self) -> usize {
        self.devices
            .iter()
            .map(|d| d.max_concurrent_streams)
            .min()
            .expect("a cluster holds at least one device")
    }
}

/// How many kernel streams are concurrently resident on each device of an
/// [`crate::Experiment`], and how they share the device — the serializable
/// counterpart of the engine's [`StreamPartition`], carried by experiments
/// and encoded into campaign cache keys.
///
/// A single stream is the degenerate configuration every pre-stream
/// experiment implicitly ran: constructors canonicalize `K = 1` to one
/// identity (the partition policy is meaningless when nothing shares the
/// device), so `StreamConfig::single()` compares equal to any 1-stream
/// configuration and fingerprints stay byte-identical with the pre-stream
/// encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamConfig {
    streams: u32,
    partition: StreamPartition,
}

impl StreamConfig {
    /// The degenerate single-stream configuration (the default).
    pub fn single() -> Self {
        StreamConfig {
            streams: 1,
            partition: StreamPartition::SmPartitioned,
        }
    }

    /// `streams` concurrently resident streams under `partition`.
    ///
    /// `K = 1` canonicalizes to [`StreamConfig::single`] whatever the
    /// partition: a lone stream is the identical simulation under either
    /// policy, and one identity keeps `Eq`/cache keys honest.
    ///
    /// # Panics
    /// Panics if `streams` is zero.
    pub fn new(streams: u32, partition: StreamPartition) -> Self {
        assert!(streams > 0, "an experiment needs at least one stream");
        if streams == 1 {
            StreamConfig::single()
        } else {
            StreamConfig { streams, partition }
        }
    }

    /// Number of concurrently resident streams (K).
    pub fn streams(&self) -> u32 {
        self.streams
    }

    /// How the streams share each device.
    pub fn partition(&self) -> StreamPartition {
        self.partition
    }

    /// Whether this is the degenerate single-stream configuration.
    pub fn is_single(&self) -> bool {
        self.streams == 1
    }

    /// Writes the configuration's fields into a cell key.
    pub(crate) fn write_fields(&self, w: &mut ObjectWriter<'_>) {
        let StreamConfig { streams, partition } = *self;
        w.set("partition", partition.name());
        w.set("streams", streams);
    }

    /// Stable machine-readable name: `"single"`, or
    /// `"<partition>_<K>"` (e.g. `"interleaved_4"`).
    pub fn name(&self) -> String {
        if self.is_single() {
            "single".to_string()
        } else {
            format!("{}_{}", self.partition.name(), self.streams)
        }
    }
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig::single()
    }
}

impl std::fmt::Display for StreamConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// One table of a mix in canonical order, as seen by sharding strategies.
///
/// The canonical order expands [`HeterogeneousMix::composition`] entry by
/// entry: entry 0's tables come first (indices `0..n0`), then entry 1's, and
/// so on. Keeping the entry identity lets a shard's sub-mix preserve the
/// original composition structure exactly, which is what makes a trivial
/// single-device plan bit-exact with the unsharded path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TableProfile {
    /// Canonical table index within the mix.
    index: u32,
    /// Index of the composition entry this table belongs to.
    entry: usize,
    /// The table's access pattern.
    pattern: AccessPattern,
}

/// The tables of `mix` in canonical order (see [`TableProfile`]).
fn table_profiles(mix: &HeterogeneousMix) -> Vec<TableProfile> {
    let mut profiles = Vec::with_capacity(mix.total_tables() as usize);
    let mut index = 0u32;
    for (entry, &(pattern, count)) in mix.composition().iter().enumerate() {
        for _ in 0..count {
            profiles.push(TableProfile {
                index,
                entry,
                pattern,
            });
            index += 1;
        }
    }
    profiles
}

/// A validated assignment of every table of a mix to exactly one device.
///
/// Invariants enforced on construction: at least one device, every device
/// holds at least one table (empty shards are rejected as degenerate), and
/// every canonical table index in `0..num_tables` appears exactly once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    strategy: String,
    num_tables: u32,
    assignments: Vec<Vec<u32>>,
}

impl ShardPlan {
    /// Creates a plan from per-device table-index lists.
    ///
    /// # Panics
    /// Panics if there are no devices, any shard is empty, any index is out
    /// of range, or any table is missing or assigned twice.
    pub fn new(strategy: impl Into<String>, num_tables: u32, assignments: Vec<Vec<u32>>) -> Self {
        assert!(
            !assignments.is_empty(),
            "a shard plan must cover at least one device"
        );
        assert!(num_tables > 0, "a shard plan must cover at least one table");
        let mut seen = vec![false; num_tables as usize];
        for (device, tables) in assignments.iter().enumerate() {
            assert!(
                !tables.is_empty(),
                "degenerate shard rejected: device {device} holds no tables"
            );
            for &t in tables {
                assert!(
                    t < num_tables,
                    "table index {t} out of range for {num_tables} tables"
                );
                assert!(
                    !seen[t as usize],
                    "table {t} is assigned to more than one device"
                );
                seen[t as usize] = true;
            }
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            panic!("table {missing} is not assigned to any device");
        }
        ShardPlan {
            strategy: strategy.into(),
            num_tables,
            assignments,
        }
    }

    /// Name of the strategy that produced the plan.
    pub fn strategy(&self) -> &str {
        &self.strategy
    }

    /// Number of devices the plan spans.
    pub fn num_devices(&self) -> usize {
        self.assignments.len()
    }

    /// Number of tables the plan covers.
    pub fn num_tables(&self) -> u32 {
        self.num_tables
    }

    /// Canonical table indices assigned to one device.
    ///
    /// # Panics
    /// Panics if `device` is out of range.
    pub fn device_tables(&self, device: usize) -> &[u32] {
        &self.assignments[device]
    }

    /// All per-device assignments.
    pub fn assignments(&self) -> &[Vec<u32>] {
        &self.assignments
    }
}

/// The sub-mix device `device` executes under `plan`: the original
/// composition restricted to that device's tables, preserving entry order
/// and identity. A trivial plan (one device holding everything) therefore
/// reproduces the original composition exactly, so the per-shard simulation
/// is bit-exact with the unsharded one.
///
/// The sub-mix is named after its *composition*, not the device index: two
/// shards holding identical table groups are the identical simulation, and
/// the shared name lets them collapse into one [`crate::CampaignCache`]
/// cell (e.g. round-robin over a homogeneous mix produces at most a few
/// distinct shard shapes however many devices there are).
///
/// # Panics
/// Panics if `device` is out of range or the plan does not match the mix.
pub fn shard_mix(mix: &HeterogeneousMix, plan: &ShardPlan, device: usize) -> HeterogeneousMix {
    assert_eq!(
        plan.num_tables(),
        mix.total_tables(),
        "plan covers {} tables but the mix has {}",
        plan.num_tables(),
        mix.total_tables()
    );
    let profiles = table_profiles(mix);
    let mut counts = vec![0u32; mix.composition().len()];
    for &t in plan.device_tables(device) {
        counts[profiles[t as usize].entry] += 1;
    }
    let composition: Vec<(AccessPattern, u32)> = mix
        .composition()
        .iter()
        .zip(&counts)
        .filter(|&(_, &count)| count > 0)
        .map(|(&(pattern, _), &count)| (pattern, count))
        .collect();
    let shape = composition
        .iter()
        .map(|&(pattern, count)| format!("{pattern} x{count}"))
        .collect::<Vec<_>>()
        .join(", ");
    HeterogeneousMix::new(format!("{}[{shape}]", mix.name()), composition)
}

/// Relative cost weight of simulating one table with this pattern: colder
/// patterns touch more unique rows, generate more DRAM traffic, and run
/// longer, so the paper's Table III unique-access percentage is a good
/// analytic proxy for per-table latency.
fn table_cost_weight(pattern: AccessPattern) -> f64 {
    pattern.paper_unique_access_pct().max(0.01)
}

fn check_feasible(mix: &HeterogeneousMix, num_devices: usize) {
    assert!(num_devices > 0, "a shard plan needs at least one device");
    assert!(
        num_devices as u64 <= mix.total_tables() as u64,
        "cannot shard {} tables across {num_devices} devices without empty shards",
        mix.total_tables()
    );
}

/// Greedily assigns `tables` (given as `(canonical index, weight)`) to the
/// devices in `devices`, heaviest table first, always onto the currently
/// lightest device (ties go to the lowest device index). Deterministic.
fn greedy_balance(assignments: &mut [Vec<u32>], devices: &[usize], tables: &[(u32, f64)]) {
    let mut order: Vec<usize> = (0..tables.len()).collect();
    // Stable sort: heaviest first, canonical index breaks ties.
    order.sort_by(|&a, &b| {
        tables[b]
            .1
            .partial_cmp(&tables[a].1)
            .expect("table weights are finite")
            .then(tables[a].0.cmp(&tables[b].0))
    });
    let mut load = vec![0.0f64; devices.len()];
    for i in order {
        let (table, weight) = tables[i];
        let lightest = (0..devices.len())
            .min_by(|&a, &b| {
                load[a]
                    .partial_cmp(&load[b])
                    .expect("device loads are finite")
            })
            .expect("at least one device");
        assignments[devices[lightest]].push(table);
        load[lightest] += weight;
    }
}

/// Table-wise round-robin: canonical table `i` goes to device `i % n`.
fn round_robin(mix: &HeterogeneousMix, num_devices: usize) -> Vec<Vec<u32>> {
    let mut assignments: Vec<Vec<u32>> = vec![Vec::new(); num_devices];
    for t in 0..mix.total_tables() {
        assignments[t as usize % num_devices].push(t);
    }
    assignments
}

/// Size-balanced greedy sharding over every table's analytic cost weight.
fn size_balanced(mix: &HeterogeneousMix, num_devices: usize) -> Vec<Vec<u32>> {
    let profiles = table_profiles(mix);
    let tables: Vec<(u32, f64)> = profiles
        .iter()
        .map(|p| (p.index, table_cost_weight(p.pattern)))
        .collect();
    let mut assignments: Vec<Vec<u32>> = vec![Vec::new(); num_devices];
    let devices: Vec<usize> = (0..num_devices).collect();
    greedy_balance(&mut assignments, &devices, &tables);
    assignments
}

/// Hot/cold splitting: hot and cold tables on disjoint device groups,
/// cost-balanced within each group.
fn hot_cold(mix: &HeterogeneousMix, num_devices: usize) -> Vec<Vec<u32>> {
    let profiles = table_profiles(mix);
    // One probe per distinct pattern, not per table: a paper-scale mix
    // has 250 tables but at most five patterns.
    let mut skew_by_pattern: Vec<(AccessPattern, f64)> = Vec::new();
    for &(pattern, _) in mix.composition() {
        if !skew_by_pattern.iter().any(|&(p, _)| p == pattern) {
            skew_by_pattern.push((pattern, pattern_coverage_skew(pattern)));
        }
    }
    let skew_of = |pattern: AccessPattern| -> f64 {
        skew_by_pattern
            .iter()
            .find(|&&(p, _)| p == pattern)
            .expect("every pattern in the mix was probed")
            .1
    };
    let skews: Vec<f64> = profiles.iter().map(|p| skew_of(p.pattern)).collect();
    let min = skews.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = skews.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let threshold = (min + max) / 2.0;

    let mut hot: Vec<(u32, f64)> = Vec::new();
    let mut cold: Vec<(u32, f64)> = Vec::new();
    for (p, &skew) in profiles.iter().zip(&skews) {
        let entry = (p.index, table_cost_weight(p.pattern));
        // `>` (not `>=`) so a uniform mix classifies as one class.
        if skew > threshold {
            hot.push(entry);
        } else {
            cold.push(entry);
        }
    }

    let mut assignments: Vec<Vec<u32>> = vec![Vec::new(); num_devices];
    if hot.is_empty() || cold.is_empty() || num_devices == 1 {
        // One class (or one device): plain cost balancing over all
        // tables.
        let devices: Vec<usize> = (0..num_devices).collect();
        let mut all = hot;
        all.extend(cold);
        greedy_balance(&mut assignments, &devices, &all);
    } else {
        // Split the devices proportionally to each class's total cost,
        // clamped so neither group is empty and no shard ends up empty.
        let hot_cost: f64 = hot.iter().map(|&(_, w)| w).sum();
        let cold_cost: f64 = cold.iter().map(|&(_, w)| w).sum();
        let ideal = num_devices as f64 * hot_cost / (hot_cost + cold_cost);
        let lower = 1usize.max(num_devices.saturating_sub(cold.len()));
        let upper = (num_devices - 1).min(hot.len());
        let hot_devices = (ideal.round() as usize).clamp(lower, upper);
        let hot_group: Vec<usize> = (0..hot_devices).collect();
        let cold_group: Vec<usize> = (hot_devices..num_devices).collect();
        greedy_balance(&mut assignments, &hot_group, &hot);
        greedy_balance(&mut assignments, &cold_group, &cold);
    }
    assignments
}

/// How a sharded workload's tables are distributed across a cluster: the
/// built-in sharding strategies as a serializable value, so a
/// [`crate::Workload`] can carry one and campaign cache keys can encode it.
/// Every strategy maps a mix and a device count to a [`ShardPlan`] over
/// the mix's canonical table order (see the [module docs](self) for adding
/// one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShardingSpec {
    /// Table-wise round-robin: canonical table `i` goes to device `i % n`.
    /// Because the canonical order expands composition groups in order,
    /// each group is spread evenly across devices.
    RoundRobin,
    /// Size-balanced greedy sharding: tables are assigned heaviest-first
    /// to the device with the least accumulated cost, where a table's cost
    /// is the analytic per-pattern weight (colder patterns cost more).
    /// Balances the per-device critical path better than round-robin on
    /// skewed mixes.
    SizeBalanced,
    /// Hot/cold splitting: tables are classified by the coverage skew of
    /// their access pattern ([`pattern_coverage_skew`], i.e. the
    /// Zipf/coverage statistics of `dlrm_datasets`), hot tables are packed
    /// onto a dedicated group of devices and cold tables onto the rest.
    /// Concentrating hot tables keeps their shared working set inside
    /// those devices' L2 (where pinning pays off) while cold,
    /// bandwidth-bound tables stop competing with them. Within each device
    /// group, tables are greedily cost-balanced.
    HotCold,
}

impl ShardingSpec {
    /// Every built-in strategy.
    pub const ALL: [ShardingSpec; 3] = [
        ShardingSpec::RoundRobin,
        ShardingSpec::SizeBalanced,
        ShardingSpec::HotCold,
    ];

    /// Stable machine-readable name, used in reports and cache keys.
    pub fn name(&self) -> &'static str {
        match self {
            ShardingSpec::RoundRobin => "round_robin",
            ShardingSpec::SizeBalanced => "size_balanced",
            ShardingSpec::HotCold => "hot_cold",
        }
    }

    /// Plans `mix` over `num_devices` devices with this strategy.
    ///
    /// # Panics
    /// Panics if `num_devices` is zero or exceeds the number of tables.
    pub fn plan(&self, mix: &HeterogeneousMix, num_devices: usize) -> ShardPlan {
        check_feasible(mix, num_devices);
        let assignments = match self {
            ShardingSpec::RoundRobin => round_robin(mix, num_devices),
            ShardingSpec::SizeBalanced => size_balanced(mix, num_devices),
            ShardingSpec::HotCold => hot_cold(mix, num_devices),
        };
        ShardPlan::new(self.name(), mix.total_tables(), assignments)
    }
}

impl std::fmt::Display for ShardingSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrm_datasets::MixKind;

    fn mix2(scale: f64) -> HeterogeneousMix {
        HeterogeneousMix::paper_mix(MixKind::Mix2, scale)
    }

    #[test]
    fn single_device_all_to_all_is_exactly_zero() {
        let ic = InterconnectConfig::nvlink3();
        assert_eq!(ic.all_to_all_us(&[123_456_789], 0), 0.0);
        assert_eq!(ic.all_to_all_us(&[0, 0, 0], 0), 0.0);
    }

    #[test]
    fn all_to_all_excludes_the_root_and_scales_with_remote_bytes() {
        let ic = InterconnectConfig::new("test", 1.0, 100.0);
        // 100 GB/s = 100 KB per us; 100 KB remote -> 1 us + 1 us latency.
        let t = ic.all_to_all_us(&[999_999, 50_000, 50_000], 0);
        assert!((t - 2.0).abs() < 1e-12, "{t}");
        let more = ic.all_to_all_us(&[999_999, 100_000, 100_000], 0);
        assert!(more > t);
        // Root bytes never traverse a link.
        let other_root = ic.all_to_all_us(&[0, 50_000, 50_000], 1);
        assert!((other_root - 1.5).abs() < 1e-12, "{other_root}");
    }

    #[test]
    fn interconnect_presets_order_by_generation() {
        assert!(
            InterconnectConfig::nvlink3().link_bandwidth_gbps
                > InterconnectConfig::pcie_gen4().link_bandwidth_gbps
        );
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_cluster_rejected() {
        let _ = Cluster::new(vec![], InterconnectConfig::nvlink3());
    }

    #[test]
    fn cluster_accessors() {
        let c = Cluster::homogeneous(GpuConfig::test_small(), 4, InterconnectConfig::nvlink3());
        assert_eq!(c.num_devices(), 4);
        assert!(!c.is_single());
        assert_eq!(c.root(), c.device(0));
        assert!(Cluster::single(GpuConfig::a100()).is_single());
    }

    #[test]
    fn table_profiles_expand_composition_in_order() {
        let mix = HeterogeneousMix::new(
            "t",
            vec![
                (AccessPattern::HighHot, 2),
                (AccessPattern::Random, 3),
                (AccessPattern::HighHot, 1),
            ],
        );
        let p = table_profiles(&mix);
        assert_eq!(p.len(), 6);
        assert_eq!(
            p.iter().map(|t| t.entry).collect::<Vec<_>>(),
            vec![0, 0, 1, 1, 1, 2]
        );
        assert_eq!(p[5].pattern, AccessPattern::HighHot);
        assert_eq!(
            p.iter().map(|t| t.index).collect::<Vec<_>>(),
            (0..6).collect::<Vec<_>>()
        );
    }

    fn assert_covers_exactly_once(plan: &ShardPlan, total: u32) {
        let mut all: Vec<u32> = plan.assignments().iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..total).collect::<Vec<_>>());
        assert!(plan.assignments().iter().all(|a| !a.is_empty()));
    }

    #[test]
    fn every_strategy_covers_every_table_exactly_once() {
        for spec in ShardingSpec::ALL {
            for n in [1usize, 2, 3, 5, 8] {
                let mix = mix2(0.1);
                let plan = spec.plan(&mix, n);
                assert_eq!(plan.num_devices(), n);
                assert_covers_exactly_once(&plan, mix.total_tables());
                // Determinism: planning twice gives the identical plan.
                assert_eq!(plan, spec.plan(&mix, n));
            }
        }
    }

    #[test]
    fn round_robin_interleaves_canonically() {
        let mix = HeterogeneousMix::homogeneous(AccessPattern::MedHot, 5);
        let plan = ShardingSpec::RoundRobin.plan(&mix, 2);
        assert_eq!(plan.device_tables(0), &[0, 2, 4]);
        assert_eq!(plan.device_tables(1), &[1, 3]);
        assert_eq!(plan.strategy(), "round_robin");
    }

    #[test]
    fn size_balanced_evens_out_cost() {
        // 2 random (cost ~63) and 4 high-hot (cost ~4) tables over 2 devices:
        // balanced = one random table per device.
        let mix = HeterogeneousMix::new(
            "skewed",
            vec![(AccessPattern::Random, 2), (AccessPattern::HighHot, 4)],
        );
        let plan = ShardingSpec::SizeBalanced.plan(&mix, 2);
        for d in 0..2 {
            let randoms = plan.device_tables(d).iter().filter(|&&t| t < 2).count();
            assert_eq!(randoms, 1, "each device gets one expensive table");
        }
    }

    #[test]
    fn hot_cold_separates_classes_onto_disjoint_device_groups() {
        let mix = mix2(0.1); // ~6 tables per pattern class
        let plan = ShardingSpec::HotCold.plan(&mix, 4);
        let profiles = table_profiles(&mix);
        let threshold = {
            let skews: Vec<f64> = profiles
                .iter()
                .map(|p| pattern_coverage_skew(p.pattern))
                .collect();
            let min = skews.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = skews.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            (min + max) / 2.0
        };
        // Every device must hold only hot or only cold tables.
        for d in 0..plan.num_devices() {
            let classes: Vec<bool> = plan
                .device_tables(d)
                .iter()
                .map(|&t| pattern_coverage_skew(profiles[t as usize].pattern) > threshold)
                .collect();
            assert!(
                classes.iter().all(|&c| c == classes[0]),
                "device {d} mixes hot and cold tables: {:?}",
                plan.device_tables(d)
            );
        }
    }

    #[test]
    fn hot_cold_degrades_gracefully_on_homogeneous_mixes() {
        let mix = HeterogeneousMix::homogeneous(AccessPattern::Random, 6);
        let plan = ShardingSpec::HotCold.plan(&mix, 3);
        assert_covers_exactly_once(&plan, 6);
        for d in 0..3 {
            assert_eq!(plan.device_tables(d).len(), 2);
        }
    }

    #[test]
    #[should_panic(expected = "empty shards")]
    fn more_devices_than_tables_rejected() {
        let mix = HeterogeneousMix::homogeneous(AccessPattern::MedHot, 2);
        let _ = ShardingSpec::RoundRobin.plan(&mix, 3);
    }

    #[test]
    #[should_panic(expected = "holds no tables")]
    fn empty_shard_rejected() {
        let _ = ShardPlan::new("manual", 2, vec![vec![0, 1], vec![]]);
    }

    #[test]
    #[should_panic(expected = "more than one device")]
    fn duplicate_assignment_rejected() {
        let _ = ShardPlan::new("manual", 2, vec![vec![0, 1], vec![1]]);
    }

    #[test]
    #[should_panic(expected = "not assigned")]
    fn missing_table_rejected() {
        let _ = ShardPlan::new("manual", 3, vec![vec![0], vec![1]]);
    }

    #[test]
    fn shard_mix_preserves_composition_structure() {
        let mix = mix2(0.1);
        let plan = ShardingSpec::RoundRobin.plan(&mix, 1);
        let sub = shard_mix(&mix, &plan, 0);
        // A trivial plan reproduces the composition exactly (only the name
        // differs) — the bit-exactness safety net.
        assert_eq!(sub.composition(), mix.composition());
        assert!(sub.name().starts_with("Mix2["), "{}", sub.name());

        let plan4 = ShardingSpec::RoundRobin.plan(&mix, 4);
        let mut per_pattern = std::collections::BTreeMap::new();
        for d in 0..4 {
            let sub = shard_mix(&mix, &plan4, d);
            for &(p, n) in sub.composition() {
                *per_pattern.entry(p).or_insert(0u32) += n;
            }
        }
        for &(p, n) in mix.composition() {
            assert_eq!(per_pattern[&p], n, "{p} tables must be conserved");
        }
    }

    #[test]
    fn identical_shard_compositions_share_a_name() {
        let mix = HeterogeneousMix::homogeneous(AccessPattern::MedHot, 8);
        let plan = ShardingSpec::RoundRobin.plan(&mix, 4);
        let names: Vec<String> = (0..4)
            .map(|d| shard_mix(&mix, &plan, d).name().to_string())
            .collect();
        assert!(
            names.iter().all(|n| n == &names[0]),
            "equal-composition shards must share one cache identity: {names:?}"
        );
    }

    #[test]
    fn spec_names_are_distinct() {
        let names: std::collections::BTreeSet<&str> =
            ShardingSpec::ALL.iter().map(|spec| spec.name()).collect();
        assert_eq!(names.len(), ShardingSpec::ALL.len());
        for spec in ShardingSpec::ALL {
            assert_eq!(format!("{spec}"), spec.name());
        }
    }

    #[test]
    fn stream_config_canonicalizes_the_single_stream() {
        let single = StreamConfig::single();
        assert!(single.is_single());
        assert_eq!(single, StreamConfig::default());
        // K=1 is one identity whatever partition was asked for.
        assert_eq!(StreamConfig::new(1, StreamPartition::Interleaved), single);
        assert_eq!(StreamConfig::new(1, StreamPartition::SmPartitioned), single);
        assert_eq!(single.name(), "single");
        let dual = StreamConfig::new(2, StreamPartition::Interleaved);
        assert!(!dual.is_single());
        assert_eq!(dual.streams(), 2);
        assert_eq!(dual.partition(), StreamPartition::Interleaved);
    }

    #[test]
    fn stream_config_names_are_distinct() {
        let mut names = std::collections::BTreeSet::new();
        for partition in StreamPartition::ALL {
            for k in [2u32, 3, 4, 7] {
                let config = StreamConfig::new(k, partition);
                assert_eq!(format!("{config}"), config.name());
                assert!(names.insert(config.name()), "{config} named twice");
            }
        }
        assert!(!names.contains(&StreamConfig::single().name()));
    }

    #[test]
    #[should_panic(expected = "at least one stream")]
    fn zero_streams_rejected() {
        let _ = StreamConfig::new(0, StreamPartition::SmPartitioned);
    }

    #[test]
    fn cluster_stream_capacity_is_the_weakest_device() {
        let small = Cluster::single(GpuConfig::test_small());
        assert_eq!(
            small.stream_capacity(),
            GpuConfig::test_small().max_concurrent_streams
        );
        let hetero = Cluster::new(
            vec![GpuConfig::a100(), GpuConfig::test_small()],
            InterconnectConfig::nvlink3(),
        );
        assert_eq!(
            hetero.stream_capacity(),
            GpuConfig::test_small().max_concurrent_streams
        );
    }
}

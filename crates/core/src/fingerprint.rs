//! Canonical cell-fingerprint encoding for [`crate::CampaignCache`].
//!
//! A cache key must identify everything a [`crate::RunReport`] is a pure
//! function of: the full cluster topology (device configurations and
//! interconnect), the model configuration (which embeds the pooling
//! factor), scale, seed, tables-to-simulate, engine mode, workload
//! (including its sharding spec) and scheme. The key is a canonical JSON
//! object streamed straight into one `String` by [`crate::json`]'s writer:
//! every object's fields are written in ascending key order (the order a
//! sorted `Json` object renders in), and numbers and strings go through the
//! same scalar formatters as [`crate::json::Json::render`] (shortest
//! round-trip floats). No document tree is built. The same cell therefore
//! produces byte-identical keys in every process and in every build since
//! the tree-rendered encoding, which is what makes
//! [`crate::CampaignCache::save_to`] / [`load_from`] usable for
//! cross-process incremental re-runs.
//!
//! A key renders each distinct device once. The root device's object is
//! rendered first ([`RenderedGpu`]) and its text is repeated for the `gpu`
//! field and for every cluster device that would write the same bytes:
//! each written field equal, floats compared by their bits, since `0.0`
//! and `-0.0` are `==` but render differently. Any other device is
//! rendered in place as before, so every key stays byte-identical.
//!
//! # Coverage by destructuring
//!
//! Every config struct that reaches a key has exactly one writer, and the
//! writer opens by destructuring the struct **without** a `..` rest
//! pattern. The writers for the foreign configuration structs (device,
//! caches, DRAM, model, embedding, trace, prefetch, interconnect) live
//! here; each struct of this crate writes itself with a `write_fields`
//! method next to its definition, and the key is assembled from one
//! exhaustive destructuring of [`crate::Experiment`]. A new field therefore
//! does not compile until its writer writes it or binds it to `_` with a
//! one-line reason, and a deleted write leaves an unused binding that
//! `clippy -D warnings` rejects. Reports are written the same way (see
//! [`crate::report`]).
//!
//! The [`crate::serving`] layer's batch shapes ride on this encoding for
//! free: a priced batch is an experiment whose model carries the shape as
//! its batch size (`Experiment::with_batch_size`), and the batch size is
//! part of the model object below — so every distinct shape is a distinct
//! cell key and repeated shapes dedup in the cache.
//!
//! [`load_from`]: crate::CampaignCache::load_from

use dlrm::DlrmConfig;
use dlrm_datasets::TraceConfig;
use embedding_kernels::{EmbeddingConfig, PrefetchConfig};
use gpu_sim::{CacheConfig, DramConfig, GpuConfig};

use crate::json::{array, object, write_object, ArrayWriter, ObjectWriter, WriteJson};
use crate::topology::{Cluster, InterconnectConfig};

/// Identifier of the fingerprint encoding; bump when the encoding changes
/// so persisted caches from older encodings are not silently misread.
pub(crate) const FINGERPRINT_SCHEMA: &str = "perf-envelope/cell-fingerprint/v1";

/// Writes the `cluster` field. Single-device clusters are canonically
/// equivalent to a plain device: the interconnect is never exercised, so
/// two experiments that differ only in how the lone device was wrapped
/// share their cells.
pub(crate) fn write_placement(w: &mut ObjectWriter<'_>, cluster: &Cluster, root: &RenderedGpu<'_>) {
    w.set(
        "cluster",
        (!cluster.is_single()).then(|| object(|c| cluster.write_fields(c, root))),
    );
}

/// A device's key object, rendered once. A key writes its root device as
/// the `gpu` field and again first in a multi-device cluster's device
/// list, and a homogeneous cluster lists it once per device; every one of
/// those writes repeats this text.
pub(crate) struct RenderedGpu<'a> {
    gpu: &'a GpuConfig,
    text: String,
}

impl<'a> RenderedGpu<'a> {
    pub(crate) fn new(gpu: &'a GpuConfig) -> Self {
        // Room for any preset's object, so rendering allocates once.
        let mut text = String::with_capacity(1024);
        write_object(&mut text, |g| write_gpu(g, gpu));
        RenderedGpu { gpu, text }
    }

    /// Appends `gpu`'s key object: the rendered text when `gpu` would write
    /// the same bytes, else `gpu` rendered afresh.
    pub(crate) fn push(&self, a: &mut ArrayWriter<'_>, gpu: &GpuConfig) {
        if same_key(gpu, self.gpu) {
            a.push(self);
        } else {
            a.push(object(|g| write_gpu(g, gpu)));
        }
    }
}

/// Writes the rendered device's key object verbatim.
impl WriteJson for &RenderedGpu<'_> {
    fn write_json(self, out: &mut String) {
        out.push_str(&self.text);
    }
}

fn write_gpu(w: &mut ObjectWriter<'_>, gpu: &GpuConfig) {
    let GpuConfig {
        name,
        num_sms,
        smsps_per_sm,
        max_warps_per_sm,
        max_blocks_per_sm,
        registers_per_sm,
        register_alloc_granularity,
        warp_size,
        clock_ghz,
        shared_mem_per_sm,
        shared_mem_latency,
        register_latency,
        l1,
        l2,
        l2_max_persisting_fraction,
        dram,
        alu_latency,
        // A validation cap only: the co-residency that runs is encoded by
        // the experiment's `streams` key.
        max_concurrent_streams: _,
    } = gpu;
    w.set("alu_latency", *alu_latency);
    w.set("clock_ghz", *clock_ghz);
    w.set("dram", object(|d| write_dram(d, dram)));
    w.set("l1", object(|c| write_cache(c, l1)));
    w.set("l2", object(|c| write_cache(c, l2)));
    w.set("l2_max_persisting_fraction", *l2_max_persisting_fraction);
    w.set("max_blocks_per_sm", *max_blocks_per_sm);
    w.set("max_warps_per_sm", *max_warps_per_sm);
    w.set("name", name.as_str());
    w.set("num_sms", *num_sms);
    w.set("register_alloc_granularity", *register_alloc_granularity);
    w.set("register_latency", *register_latency);
    w.set("registers_per_sm", *registers_per_sm);
    w.set("shared_mem_latency", *shared_mem_latency);
    w.set("shared_mem_per_sm", *shared_mem_per_sm);
    w.set("smsps_per_sm", *smsps_per_sm);
    w.set("warp_size", *warp_size);
}

/// Whether `a` and `b` write the same key object: every field [`write_gpu`]
/// writes is equal, floats by their bits, since `0.0 == -0.0` yet the two
/// render differently.
fn same_key(a: &GpuConfig, b: &GpuConfig) -> bool {
    let GpuConfig {
        name,
        num_sms,
        smsps_per_sm,
        max_warps_per_sm,
        max_blocks_per_sm,
        registers_per_sm,
        register_alloc_granularity,
        warp_size,
        clock_ghz,
        shared_mem_per_sm,
        shared_mem_latency,
        register_latency,
        l1,
        l2,
        l2_max_persisting_fraction,
        dram,
        alu_latency,
        // Not written, so it cannot tell two keys apart.
        max_concurrent_streams: _,
    } = a;
    let DramConfig {
        capacity_bytes,
        latency,
        peak_bandwidth_gbps,
    } = *dram;
    let same_bits = |x: f64, y: f64| x.to_bits() == y.to_bits();
    *name == b.name
        && *num_sms == b.num_sms
        && *smsps_per_sm == b.smsps_per_sm
        && *max_warps_per_sm == b.max_warps_per_sm
        && *max_blocks_per_sm == b.max_blocks_per_sm
        && *registers_per_sm == b.registers_per_sm
        && *register_alloc_granularity == b.register_alloc_granularity
        && *warp_size == b.warp_size
        && same_bits(*clock_ghz, b.clock_ghz)
        && *shared_mem_per_sm == b.shared_mem_per_sm
        && *shared_mem_latency == b.shared_mem_latency
        && *register_latency == b.register_latency
        && same_cache(l1, &b.l1)
        && same_cache(l2, &b.l2)
        && same_bits(*l2_max_persisting_fraction, b.l2_max_persisting_fraction)
        && capacity_bytes == b.dram.capacity_bytes
        && latency == b.dram.latency
        && same_bits(peak_bandwidth_gbps, b.dram.peak_bandwidth_gbps)
        && *alu_latency == b.alu_latency
}

/// Whether `a` and `b` write the same cache object.
fn same_cache(a: &CacheConfig, b: &CacheConfig) -> bool {
    let CacheConfig {
        capacity_bytes,
        line_bytes,
        associativity,
        hit_latency,
    } = *a;
    capacity_bytes == b.capacity_bytes
        && line_bytes == b.line_bytes
        && associativity == b.associativity
        && hit_latency == b.hit_latency
}

fn write_cache(w: &mut ObjectWriter<'_>, cache: &CacheConfig) {
    let CacheConfig {
        capacity_bytes,
        line_bytes,
        associativity,
        hit_latency,
    } = *cache;
    w.set("associativity", associativity);
    w.set("capacity_bytes", capacity_bytes);
    w.set("hit_latency", hit_latency);
    w.set("line_bytes", line_bytes);
}

fn write_dram(w: &mut ObjectWriter<'_>, dram: &DramConfig) {
    let DramConfig {
        capacity_bytes,
        latency,
        peak_bandwidth_gbps,
    } = *dram;
    w.set("capacity_bytes", capacity_bytes);
    w.set("latency", latency);
    w.set("peak_bandwidth_gbps", peak_bandwidth_gbps);
}

pub(crate) fn write_model(w: &mut ObjectWriter<'_>, model: &DlrmConfig) {
    let DlrmConfig {
        bottom_mlp,
        top_mlp,
        num_tables,
        embedding,
    } = model;
    w.set(
        "bottom_mlp",
        array(|a| bottom_mlp.iter().for_each(|&n| a.push(n))),
    );
    w.set("embedding", object(|e| write_embedding(e, embedding)));
    w.set("num_tables", *num_tables);
    w.set(
        "top_mlp",
        array(|a| top_mlp.iter().for_each(|&n| a.push(n))),
    );
}

/// The embedding object flattens the trace shape into its own fields.
fn write_embedding(w: &mut ObjectWriter<'_>, embedding: &EmbeddingConfig) {
    let EmbeddingConfig {
        trace:
            TraceConfig {
                num_rows,
                batch_size,
                pooling_factor,
            },
        embedding_dim,
    } = *embedding;
    w.set("batch_size", batch_size);
    w.set("embedding_dim", embedding_dim);
    w.set("num_rows", num_rows);
    w.set("pooling_factor", pooling_factor);
}

pub(crate) fn write_prefetch(w: &mut ObjectWriter<'_>, prefetch: &PrefetchConfig) {
    let PrefetchConfig { station, distance } = *prefetch;
    w.set("distance", distance);
    w.set("station", station.abbreviation());
}

pub(crate) fn write_interconnect(w: &mut ObjectWriter<'_>, interconnect: &InterconnectConfig) {
    let InterconnectConfig {
        name,
        link_latency_us,
        link_bandwidth_gbps,
    } = interconnect;
    w.set("link_bandwidth_gbps", *link_bandwidth_gbps);
    w.set("link_latency_us", *link_latency_us);
    w.set("name", name.as_str());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::runner::Experiment;
    use crate::scheme::Scheme;
    use crate::serving::{FaultEvent, FaultPlan};
    use crate::topology::{ShardingSpec, StreamConfig};
    use crate::workload::Workload;
    use dlrm::WorkloadScale;
    use dlrm_datasets::{AccessPattern, HeterogeneousMix, MixKind};
    use gpu_sim::StreamPartition;

    fn exp() -> Experiment {
        Experiment::new(GpuConfig::test_small(), WorkloadScale::Test)
    }

    fn key(workload: &Workload, scheme: &Scheme) -> String {
        exp().fingerprint(workload, scheme)
    }

    fn key_with_streams(streams: StreamConfig, workload: &Workload) -> String {
        exp()
            .with_streams(streams)
            .fingerprint(workload, &Scheme::base())
    }

    fn key_with_faults(faults: FaultPlan, workload: &Workload) -> String {
        exp()
            .with_faults(faults)
            .fingerprint(workload, &Scheme::base())
    }

    #[test]
    fn keys_are_valid_canonical_json() {
        let k = key(
            &Workload::stage(HeterogeneousMix::paper_mix(MixKind::Mix2, 0.02)),
            &Scheme::combined(),
        );
        let parsed = Json::parse(&k).unwrap();
        assert_eq!(parsed.render(), k, "rendering must be canonical");
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some(FINGERPRINT_SCHEMA)
        );
    }

    #[test]
    fn every_axis_distinguishes_keys() {
        let base = key(&Workload::kernel(AccessPattern::MedHot), &Scheme::base());
        assert_ne!(
            base,
            key(&Workload::kernel(AccessPattern::Random), &Scheme::base())
        );
        assert_ne!(
            base,
            key(&Workload::kernel(AccessPattern::MedHot), &Scheme::optmt())
        );
        assert_ne!(
            base,
            key(&Workload::stage(AccessPattern::MedHot), &Scheme::base())
        );
        let sharded = key(
            &Workload::stage(AccessPattern::MedHot).with_sharding(ShardingSpec::RoundRobin),
            &Scheme::base(),
        );
        assert_ne!(
            sharded,
            key(&Workload::stage(AccessPattern::MedHot), &Scheme::base())
        );
        assert_ne!(
            sharded,
            key(
                &Workload::stage(AccessPattern::MedHot).with_sharding(ShardingSpec::HotCold),
                &Scheme::base(),
            )
        );
    }

    #[test]
    fn batch_shapes_distinguish_cells_through_the_model() {
        // The serving layer prices batch shapes via Experiment::with_batch_size;
        // the shape must (and does) reach the key through the model encoding.
        let workload = Workload::stage(AccessPattern::MedHot);
        let key_at = |batch: u32| {
            exp()
                .with_batch_size(batch)
                .fingerprint(&workload, &Scheme::base())
        };
        assert_ne!(key_at(64), key_at(256));
        assert_eq!(key_at(128), key_at(128));
    }

    #[test]
    fn single_device_clusters_encode_like_plain_devices() {
        let gpu = GpuConfig::test_small();
        let workload = Workload::kernel(AccessPattern::MedHot);
        let key_on = |cluster: Cluster| {
            exp()
                .with_seed(1)
                .with_cluster(cluster)
                .fingerprint(&workload, &Scheme::base())
        };
        let plain = exp().with_seed(1).fingerprint(&workload, &Scheme::base());
        assert_eq!(plain, key_on(Cluster::single(gpu.clone())));
        assert_eq!(
            plain,
            key_on(Cluster::new(
                vec![gpu.clone()],
                InterconnectConfig::pcie_gen4()
            ))
        );
        assert_ne!(
            plain,
            key_on(Cluster::homogeneous(gpu, 2, InterconnectConfig::nvlink3()))
        );
    }

    #[test]
    fn stream_configs_distinguish_keys_except_the_single_stream() {
        let workload = Workload::stage(AccessPattern::MedHot);
        let base = key(&workload, &Scheme::base());
        // K=1 is canonically the pre-stream cell: no `streams` key at all,
        // whatever partition the configuration was built with.
        let single = key_with_streams(
            StreamConfig::new(1, StreamPartition::Interleaved),
            &workload,
        );
        assert_eq!(base, single);
        assert!(!base.contains("\"streams\""));
        // K>1 is always a distinct cell, per partition and per K.
        let dual = key_with_streams(
            StreamConfig::new(2, StreamPartition::Interleaved),
            &workload,
        );
        assert_ne!(base, dual);
        assert!(dual.contains("\"streams\""));
        assert_ne!(
            dual,
            key_with_streams(
                StreamConfig::new(2, StreamPartition::SmPartitioned),
                &workload,
            )
        );
        assert_ne!(
            dual,
            key_with_streams(
                StreamConfig::new(4, StreamPartition::Interleaved),
                &workload,
            )
        );
    }

    #[test]
    fn fault_plans_distinguish_keys_except_the_empty_plan() {
        let workload = Workload::stage(AccessPattern::MedHot);
        let base = key(&workload, &Scheme::base());
        // The empty plan is canonically the fault-free cell: no `faults`
        // key at all, byte-identical with the v1 encoding.
        assert_eq!(base, key_with_faults(FaultPlan::empty(), &workload));
        assert!(!base.contains("\"faults\""));
        // Non-empty plans are distinct cells, per plan.
        let crashed = key_with_faults(
            FaultPlan::new(vec![FaultEvent::crash(0, 1_000.0, 2_000.0)]),
            &workload,
        );
        assert_ne!(base, crashed);
        assert!(crashed.contains("\"faults\""));
        assert_ne!(
            crashed,
            key_with_faults(
                FaultPlan::new(vec![FaultEvent::drain(0, 1_000.0, 2_000.0)]),
                &workload,
            )
        );
        assert_ne!(
            crashed,
            key_with_faults(
                FaultPlan::new(vec![FaultEvent::crash(0, 1_000.0, 3_000.0)]),
                &workload,
            )
        );
    }
}

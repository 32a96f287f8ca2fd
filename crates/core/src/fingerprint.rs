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
//! The [`crate::serving`] layer's batch shapes ride on this encoding for
//! free: a priced batch is an experiment whose model carries the shape as
//! its batch size (`Experiment::with_batch_size`), and the batch size is
//! part of the model object below — so every distinct shape is a distinct
//! cell key and repeated shapes dedup in the cache.
//!
//! [`load_from`]: crate::CampaignCache::load_from

use dlrm::DlrmConfig;
use gpu_sim::{CacheConfig, EngineMode, GpuConfig};

use crate::fleet::{AutoscalePolicy, ReplicaGroup, RoutingPolicy};
use crate::json::{array, object, write_object, ArrayWriter, ObjectWriter};
use crate::scheme::{Multithreading, Scheme};
use crate::serving::FaultPlan;
use crate::topology::{Cluster, StreamConfig};
use crate::workload::{Dataset, Workload, WorkloadTarget};

/// Identifier of the fingerprint encoding; bump when the encoding changes
/// so persisted caches from older encodings are not silently misread.
pub(crate) const FINGERPRINT_SCHEMA: &str = "perf-envelope/cell-fingerprint/v1";

/// Writes the fields of a `fleet` axis (see [`fleet_axis`]).
pub(crate) type FleetAxis<'a> = &'a dyn Fn(&mut ObjectWriter<'_>);

/// The canonical key of one experiment cell. `fleet`, when given, writes
/// the fields of a `fleet` axis extending the cell (see [`fleet_axis`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn cell_key(
    cluster: &Cluster,
    model: &DlrmConfig,
    scale_name: &str,
    seed: u64,
    tables_to_simulate: u32,
    mode: EngineMode,
    streams: StreamConfig,
    faults: &FaultPlan,
    workload: &Workload,
    scheme: &Scheme,
    fleet: Option<FleetAxis<'_>>,
) -> String {
    let mut key = String::with_capacity(2048);
    write_object(&mut key, |w| {
        write_placement(w, cluster);
        w.set("engine_mode", mode.name());
        // The empty fault plan is canonically the fault-free experiment: the
        // key omits the axis entirely, keeping pre-fault keys byte-identical
        // and persisted caches warm. A non-empty plan partitions cells
        // conservatively — the plan shapes serving-layer dispatch rather than
        // the priced kernels, but a resilience study must never alias a
        // fault-free study's cells in a persisted cache.
        if !faults.is_empty() {
            w.set("faults", array(|a| write_faults(a, faults)));
        }
        if let Some(fleet) = fleet {
            w.set("fleet", object(fleet));
        }
        w.set("gpu", object(|g| write_gpu(g, cluster.root())));
        w.set("model", object(|m| write_model(m, model)));
        w.set("scale", scale_name);
        w.set("schema", FINGERPRINT_SCHEMA);
        w.set("scheme", object(|s| write_scheme(s, scheme)));
        w.set("seed", seed);
        // A single stream is canonically the pre-stream experiment: the key
        // omits the axis entirely, so K=1 keys stay byte-identical with the
        // earlier encoding and persisted caches remain loadable.
        if !streams.is_single() {
            w.set("streams", object(|s| write_streams(s, streams)));
        }
        w.set("tables_to_simulate", tables_to_simulate);
        w.set("workload", object(|o| write_workload(o, workload)));
    });
    key
}

/// Writes the `cluster` field. Single-device clusters are canonically
/// equivalent to a plain device: the interconnect is never exercised, so
/// two experiments that differ only in how the lone device was wrapped
/// share their cells.
fn write_placement(w: &mut ObjectWriter<'_>, cluster: &Cluster) {
    w.set(
        "cluster",
        (!cluster.is_single()).then(|| object(|c| write_cluster(c, cluster))),
    );
}

fn write_streams(w: &mut ObjectWriter<'_>, streams: StreamConfig) {
    w.set("partition", streams.partition().name());
    w.set("streams", streams.streams());
}

fn write_faults(a: &mut ArrayWriter<'_>, faults: &FaultPlan) {
    for event in faults.events() {
        a.push(object(|e| {
            e.set("device", event.device());
            e.set("end_us", event.end_us());
            e.set("factor", event.factor());
            e.set("kind", event.kind().name());
            e.set("start_us", event.start_us());
        }));
    }
}

/// Writes the `fleet` axis that extends the replica-0 cell of a fleet:
/// routing, autoscaling, the autoscale interval and the replica groups.
///
/// The identity fleet — one replica, round-robin routing, no autoscaling —
/// omits the axis entirely, so its key is **byte-identical** to the plain
/// serving cell key of its one replica: a degenerate fleet shares cells
/// with the scenario it wraps, exactly like K=1 streams and the empty fault
/// plan omit their axes. Any other spec partitions cells conservatively:
/// distinct routing policies, autoscale rules or replica mixes never alias
/// each other.
pub(crate) fn fleet_axis(
    w: &mut ObjectWriter<'_>,
    routing: &RoutingPolicy,
    autoscale: &AutoscalePolicy,
    interval_us: f64,
    groups: &[ReplicaGroup],
) {
    w.set(
        "autoscale",
        object(|a| {
            a.set("cooldown_intervals", autoscale.cooldown_intervals());
            a.set("kind", autoscale.kind().name());
            a.set("max_replicas", autoscale.max_replicas());
            a.set("min_replicas", autoscale.min_replicas());
            a.set("scale_in_threshold", autoscale.scale_in_threshold());
            a.set("scale_out_threshold", autoscale.scale_out_threshold());
        }),
    );
    w.set("interval_us", interval_us);
    w.set(
        "replicas",
        array(|a| {
            for group in groups {
                let cluster = group.experiment().cluster();
                let streams = group.experiment().streams();
                let faults = group.scenario().faults();
                a.push(object(|g| {
                    write_placement(g, cluster);
                    g.set("count", group.replicas());
                    if !faults.is_empty() {
                        g.set("faults", array(|f| write_faults(f, faults)));
                    }
                    g.set("gpu", object(|d| write_gpu(d, cluster.root())));
                    if !streams.is_single() {
                        g.set("streams", object(|s| write_streams(s, streams)));
                    }
                }));
            }
        }),
    );
    w.set(
        "routing",
        object(|r| {
            r.set("ewma_alpha", routing.ewma_alpha());
            r.set("kind", routing.kind().name());
        }),
    );
}

fn write_cache(w: &mut ObjectWriter<'_>, cache: &CacheConfig) {
    w.set("associativity", cache.associativity);
    w.set("capacity_bytes", cache.capacity_bytes);
    w.set("hit_latency", cache.hit_latency);
    w.set("line_bytes", cache.line_bytes);
}

fn write_gpu(w: &mut ObjectWriter<'_>, gpu: &GpuConfig) {
    w.set("alu_latency", gpu.alu_latency);
    w.set("clock_ghz", gpu.clock_ghz);
    w.set(
        "dram",
        object(|d| {
            d.set("capacity_bytes", gpu.dram.capacity_bytes);
            d.set("latency", gpu.dram.latency);
            d.set("peak_bandwidth_gbps", gpu.dram.peak_bandwidth_gbps);
        }),
    );
    w.set("l1", object(|c| write_cache(c, &gpu.l1)));
    w.set("l2", object(|c| write_cache(c, &gpu.l2)));
    w.set("l2_max_persisting_fraction", gpu.l2_max_persisting_fraction);
    w.set("max_blocks_per_sm", gpu.max_blocks_per_sm);
    w.set("max_warps_per_sm", gpu.max_warps_per_sm);
    w.set("name", gpu.name.as_str());
    w.set("num_sms", gpu.num_sms);
    w.set("register_alloc_granularity", gpu.register_alloc_granularity);
    w.set("register_latency", gpu.register_latency);
    w.set("registers_per_sm", gpu.registers_per_sm);
    w.set("shared_mem_latency", gpu.shared_mem_latency);
    w.set("shared_mem_per_sm", gpu.shared_mem_per_sm);
    w.set("smsps_per_sm", gpu.smsps_per_sm);
    w.set("warp_size", gpu.warp_size);
}

fn write_cluster(w: &mut ObjectWriter<'_>, cluster: &Cluster) {
    w.set(
        "devices",
        array(|a| {
            for gpu in cluster.devices() {
                a.push(object(|g| write_gpu(g, gpu)));
            }
        }),
    );
    let ic = cluster.interconnect();
    w.set(
        "interconnect",
        object(|f| {
            f.set("link_bandwidth_gbps", ic.link_bandwidth_gbps);
            f.set("link_latency_us", ic.link_latency_us);
            f.set("name", ic.name.as_str());
        }),
    );
}

fn write_model(w: &mut ObjectWriter<'_>, model: &DlrmConfig) {
    w.set(
        "bottom_mlp",
        array(|a| model.bottom_mlp.iter().for_each(|&n| a.push(n))),
    );
    let emb = &model.embedding;
    w.set(
        "embedding",
        object(|e| {
            e.set("batch_size", emb.trace.batch_size);
            e.set("embedding_dim", emb.embedding_dim);
            e.set("num_rows", emb.trace.num_rows);
            e.set("pooling_factor", emb.trace.pooling_factor);
        }),
    );
    w.set("num_tables", model.num_tables);
    w.set(
        "top_mlp",
        array(|a| model.top_mlp.iter().for_each(|&n| a.push(n))),
    );
}

fn write_dataset(w: &mut ObjectWriter<'_>, dataset: &Dataset) {
    match dataset {
        Dataset::Homogeneous(pattern) => w.set("pattern", pattern.paper_name()),
        Dataset::Mix(mix) => w.set(
            "mix",
            object(|m| {
                m.set(
                    "composition",
                    array(|a| {
                        for &(pattern, count) in mix.composition() {
                            a.push(array(|pair| {
                                pair.push(pattern.paper_name());
                                pair.push(count);
                            }));
                        }
                    }),
                );
                m.set("name", mix.name());
            }),
        ),
    }
}

fn write_workload(w: &mut ObjectWriter<'_>, workload: &Workload) {
    // `dataset` sorts before `kind` and `pattern` after it.
    let kernel_pattern = match workload.target() {
        WorkloadTarget::Kernel(pattern) => Some(pattern),
        WorkloadTarget::EmbeddingStage(dataset) | WorkloadTarget::EndToEnd(dataset) => {
            w.set("dataset", object(|d| write_dataset(d, dataset)));
            None
        }
    };
    w.set("kind", workload.kind().name());
    if let Some(pattern) = kernel_pattern {
        w.set("pattern", pattern.paper_name());
    }
    w.set("sharding", workload.sharding().map(|spec| spec.name()));
}

fn write_scheme(w: &mut ObjectWriter<'_>, scheme: &Scheme) {
    w.set(
        "l2_pinning",
        scheme
            .l2_pinning()
            .map(|p| object(move |o| o.set("carveout_bytes", p.carveout_bytes))),
    );
    match scheme.multithreading() {
        Multithreading::Default => w.set("multithreading", "default"),
        Multithreading::OptMt => w.set("multithreading", "optmt"),
        Multithreading::MaxRegisters(r) => w.set("multithreading", format!("maxrreg{r}").as_str()),
    }
    w.set(
        "prefetch",
        scheme.prefetch().map(|p| {
            object(move |o| {
                o.set("distance", p.distance);
                o.set("station", p.station.abbreviation());
            })
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use dlrm::WorkloadScale;
    use dlrm_datasets::{AccessPattern, HeterogeneousMix, MixKind};

    use crate::topology::{InterconnectConfig, ShardingSpec};

    #[allow(clippy::too_many_arguments)]
    fn cell_key(
        cluster: &Cluster,
        model: &DlrmConfig,
        scale_name: &str,
        seed: u64,
        tables_to_simulate: u32,
        mode: EngineMode,
        streams: StreamConfig,
        faults: &FaultPlan,
        workload: &Workload,
        scheme: &Scheme,
    ) -> String {
        super::cell_key(
            cluster,
            model,
            scale_name,
            seed,
            tables_to_simulate,
            mode,
            streams,
            faults,
            workload,
            scheme,
            None,
        )
    }

    fn key(workload: &Workload, scheme: &Scheme) -> String {
        key_with_streams(StreamConfig::single(), workload, scheme)
    }

    fn key_with_streams(streams: StreamConfig, workload: &Workload, scheme: &Scheme) -> String {
        key_with_faults(streams, &FaultPlan::empty(), workload, scheme)
    }

    fn key_with_faults(
        streams: StreamConfig,
        faults: &FaultPlan,
        workload: &Workload,
        scheme: &Scheme,
    ) -> String {
        cell_key(
            &Cluster::single(GpuConfig::test_small()),
            &DlrmConfig::at_scale(WorkloadScale::Test),
            "test",
            0x5EED,
            1,
            EngineMode::EventDriven,
            streams,
            faults,
            workload,
            scheme,
        )
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
            crate::runner::Experiment::new(GpuConfig::test_small(), WorkloadScale::Test)
                .with_batch_size(batch)
                .cell_fingerprint(&workload, &Scheme::base())
        };
        assert_ne!(key_at(64), key_at(256));
        assert_eq!(key_at(128), key_at(128));
    }

    #[test]
    fn single_device_clusters_encode_like_plain_devices() {
        let gpu = GpuConfig::test_small();
        let workload = Workload::kernel(AccessPattern::MedHot);
        let model = DlrmConfig::at_scale(WorkloadScale::Test);
        let plain = cell_key(
            &Cluster::single(gpu.clone()),
            &model,
            "test",
            1,
            1,
            EngineMode::EventDriven,
            StreamConfig::single(),
            &FaultPlan::empty(),
            &workload,
            &Scheme::base(),
        );
        let wrapped = cell_key(
            &Cluster::new(vec![gpu.clone()], InterconnectConfig::pcie_gen4()),
            &model,
            "test",
            1,
            1,
            EngineMode::EventDriven,
            StreamConfig::single(),
            &FaultPlan::empty(),
            &workload,
            &Scheme::base(),
        );
        assert_eq!(plain, wrapped);
        let multi = cell_key(
            &Cluster::homogeneous(gpu, 2, InterconnectConfig::nvlink3()),
            &model,
            "test",
            1,
            1,
            EngineMode::EventDriven,
            StreamConfig::single(),
            &FaultPlan::empty(),
            &workload,
            &Scheme::base(),
        );
        assert_ne!(plain, multi);
    }

    #[test]
    fn stream_configs_distinguish_keys_except_the_single_stream() {
        use gpu_sim::StreamPartition;

        let workload = Workload::stage(AccessPattern::MedHot);
        let base = key(&workload, &Scheme::base());
        // K=1 is canonically the pre-stream cell: no `streams` key at all,
        // whatever partition the configuration was built with.
        let single = key_with_streams(
            StreamConfig::new(1, StreamPartition::Interleaved),
            &workload,
            &Scheme::base(),
        );
        assert_eq!(base, single);
        assert!(!base.contains("\"streams\""));
        // K>1 is always a distinct cell, per partition and per K.
        let dual = key_with_streams(
            StreamConfig::new(2, StreamPartition::Interleaved),
            &workload,
            &Scheme::base(),
        );
        assert_ne!(base, dual);
        assert!(dual.contains("\"streams\""));
        assert_ne!(
            dual,
            key_with_streams(
                StreamConfig::new(2, StreamPartition::SmPartitioned),
                &workload,
                &Scheme::base(),
            )
        );
        assert_ne!(
            dual,
            key_with_streams(
                StreamConfig::new(4, StreamPartition::Interleaved),
                &workload,
                &Scheme::base(),
            )
        );
    }

    #[test]
    fn fault_plans_distinguish_keys_except_the_empty_plan() {
        use crate::serving::FaultEvent;

        let workload = Workload::stage(AccessPattern::MedHot);
        let base = key(&workload, &Scheme::base());
        // The empty plan is canonically the fault-free cell: no `faults`
        // key at all, byte-identical with the v1 encoding.
        let empty = key_with_faults(
            StreamConfig::single(),
            &FaultPlan::empty(),
            &workload,
            &Scheme::base(),
        );
        assert_eq!(base, empty);
        assert!(!base.contains("\"faults\""));
        // Non-empty plans are distinct cells, per plan.
        let crashed = key_with_faults(
            StreamConfig::single(),
            &FaultPlan::new(vec![FaultEvent::crash(0, 1_000.0, 2_000.0)]),
            &workload,
            &Scheme::base(),
        );
        assert_ne!(base, crashed);
        assert!(crashed.contains("\"faults\""));
        assert_ne!(
            crashed,
            key_with_faults(
                StreamConfig::single(),
                &FaultPlan::new(vec![FaultEvent::drain(0, 1_000.0, 2_000.0)]),
                &workload,
                &Scheme::base(),
            )
        );
        assert_ne!(
            crashed,
            key_with_faults(
                StreamConfig::single(),
                &FaultPlan::new(vec![FaultEvent::crash(0, 1_000.0, 3_000.0)]),
                &workload,
                &Scheme::base(),
            )
        );
    }
}

//! Multi-GPU sharding scaling sweep.
//!
//! Runs a heterogeneous-mix workload across clusters of 1/2/4/8 devices for
//! every built-in sharding strategy, in both embedding-stage and end-to-end
//! form, and emits machine-readable `BENCH_sharding.json` (override the
//! path with the first CLI argument). Beyond the scaling numbers the binary
//! *asserts* the refactor's contracts: results are deterministic, identical
//! for any worker-thread count, and a 1-device sharded run is bit-exact
//! with the unsharded path.
//!
//! ```text
//! cargo run --release -p bench --bin sharding [-- OUT.json]
//! ```

use dlrm::WorkloadScale;
use dlrm_datasets::{HeterogeneousMix, MixKind};
use gpu_sim::GpuConfig;
use perf_envelope::json::Json;
use perf_envelope::{
    Campaign, CampaignCache, Cluster, Experiment, InterconnectConfig, RunReport, Scheme,
    ShardingSpec, Workload,
};

const DEVICE_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn experiment(devices: usize) -> Experiment {
    Experiment::new(GpuConfig::test_small(), WorkloadScale::Test).with_cluster(
        Cluster::homogeneous(
            GpuConfig::test_small(),
            devices,
            InterconnectConfig::nvlink3(),
        ),
    )
}

fn mix() -> HeterogeneousMix {
    // ~24 tables across all four hotness classes: enough to shard across 8
    // devices while staying fast at test scale.
    HeterogeneousMix::paper_mix(MixKind::Mix2, 0.1)
}

fn strip_devices(mut report: RunReport) -> RunReport {
    report.devices = None;
    report
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_sharding.json".to_string());
    let scheme = Scheme::combined();
    let stage = Workload::stage(mix());
    let end_to_end = Workload::end_to_end(mix());

    let mut doc = Json::object();
    doc.set(
        "schema",
        Json::Str("perf-envelope/bench-sharding/v1".to_string()),
    );
    doc.set("device", Json::Str(GpuConfig::test_small().name));
    doc.set("scale", Json::Str("test".to_string()));
    doc.set("workload", Json::Str(mix().name().to_string()));
    doc.set("tables", Json::UInt(mix().total_tables() as u64));
    doc.set(
        "interconnect",
        Json::Str(InterconnectConfig::nvlink3().name),
    );
    doc.set("scheme", Json::Str(scheme.paper_label()));

    let unsharded_stage = experiment(1).run(&stage, &scheme);
    let unsharded_e2e = experiment(1).run(&end_to_end, &scheme);
    let mut single_device_matches = true;
    let mut deterministic = true;
    let mut thread_invariant = true;

    let mut strategies = Json::object();
    for spec in ShardingSpec::ALL {
        let mut series = Vec::new();
        for devices in DEVICE_COUNTS {
            let sharded_stage = stage.clone().with_sharding(spec);
            let sharded_e2e = end_to_end.clone().with_sharding(spec);

            let report = experiment(devices).run(&sharded_stage, &scheme);
            let e2e_report = experiment(devices).run(&sharded_e2e, &scheme);

            // Determinism: an independent re-run is bit-identical.
            deterministic &= experiment(devices).run(&sharded_stage, &scheme) == report;
            // Thread-count invariance: the per-shard fan-out inherits the
            // experiment's campaign thread count; 1 worker must match many.
            let serial = Campaign::new(experiment(devices).with_threads(1))
                .workload(sharded_stage.clone())
                .scheme(scheme)
                .run();
            let parallel = Campaign::new(experiment(devices).with_threads(4))
                .workload(sharded_stage.clone())
                .scheme(scheme)
                .run();
            thread_invariant &= serial == parallel && serial.reports()[0] == report;

            if devices == 1 {
                single_device_matches &= strip_devices(report.clone()) == unsharded_stage
                    && strip_devices(e2e_report.clone()) == unsharded_e2e;
            }

            let cluster = report.devices.clone().expect("sharded runs report devices");
            let mut point = Json::object();
            point.set("devices", Json::UInt(devices as u64));
            point.set("stage_latency_us", Json::Num(report.latency_us));
            point.set("critical_path_us", Json::Num(cluster.critical_path_us));
            point.set("all_to_all_us", Json::Num(cluster.all_to_all_us));
            point.set("end_to_end_latency_us", Json::Num(e2e_report.latency_us));
            point.set(
                "stage_speedup_vs_1dev",
                Json::Num(unsharded_stage.latency_us / report.latency_us),
            );
            point.set(
                "end_to_end_speedup_vs_1dev",
                Json::Num(unsharded_e2e.latency_us / e2e_report.latency_us),
            );
            point.set(
                "per_device_tables",
                Json::Arr(
                    cluster
                        .per_device
                        .iter()
                        .map(|d| Json::UInt(d.tables as u64))
                        .collect(),
                ),
            );
            point.set(
                "per_device_embedding_us",
                Json::Arr(
                    cluster
                        .per_device
                        .iter()
                        .map(|d| Json::Num(d.embedding_us))
                        .collect(),
                ),
            );
            series.push(point);
        }
        strategies.set(spec.name(), Json::Arr(series));
    }
    doc.set("strategies", strategies);

    // Cache behaviour: per-shard cells are cached individually (and
    // equal-composition shards dedup to one cell), so an overlapping re-run
    // simulates nothing: the miss count stays where the cold run left it.
    let cache = CampaignCache::new();
    let cached = experiment(4).with_cache(cache.clone()).with_threads(1);
    let w = stage.clone().with_sharding(ShardingSpec::RoundRobin);
    let cold = cached.run(&w, &scheme);
    let cold_misses = cache.misses();
    let warm = cached.run(&w, &scheme);
    assert_eq!(cold, warm);
    assert_eq!(
        cache.misses(),
        cold_misses,
        "the warm rerun must simulate nothing"
    );
    let mut cache_doc = Json::object();
    cache_doc.set("cold_misses", Json::UInt(cold_misses));
    doc.set("cache", cache_doc);

    doc.set(
        "single_device_matches_unsharded",
        Json::Bool(single_device_matches),
    );
    doc.set("deterministic", Json::Bool(deterministic));
    doc.set("thread_count_invariant", Json::Bool(thread_invariant));

    let rendered = doc.render();
    std::fs::write(&out_path, &rendered).expect("failed to write the benchmark report");
    println!("{rendered}");
    println!();
    println!(
        "sharding sweep over {:?} devices x {} strategies on {}; wrote {out_path}",
        DEVICE_COUNTS,
        ShardingSpec::ALL.len(),
        mix().name()
    );
    assert!(
        single_device_matches,
        "1-device sharded runs must be bit-exact with the unsharded path"
    );
    assert!(deterministic, "sharded runs must be deterministic");
    assert!(
        thread_invariant,
        "worker-thread count must not change results"
    );
}

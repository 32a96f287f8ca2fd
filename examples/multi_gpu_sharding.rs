//! Sharding a recommendation model's embedding tables across a multi-GPU
//! cluster.
//!
//! Production DLRM deployments do not fit their embedding tables on one
//! device: tables are sharded table-wise, each device executes its shard,
//! and the pooled embeddings are gathered over the interconnect before the
//! dense pipeline runs. This example builds clusters of 1/2/4/8 devices,
//! compares the built-in sharding strategies, and breaks one deployment
//! down per device.
//!
//! ```text
//! cargo run --release --example multi_gpu_sharding [scale]
//! ```

use dlrm::WorkloadScale;
use dlrm_datasets::{HeterogeneousMix, MixKind};
use gpu_sim::GpuConfig;
use perf_envelope::{
    CampaignCache, Cluster, Experiment, InterconnectConfig, Scheme, ShardingSpec, Workload,
};

fn main() {
    let scale = std::env::args()
        .nth(1)
        .and_then(|s| WorkloadScale::from_name(&s))
        .unwrap_or(WorkloadScale::Test);
    let gpu = GpuConfig::a100();
    let mix = HeterogeneousMix::paper_mix(MixKind::Mix2, 0.1);
    let workload = Workload::end_to_end(mix.clone());
    let scheme = Scheme::combined();
    // One shared cache: every per-shard cell is cached individually, so the
    // strategies' overlapping shards (and the 1-device baseline) are
    // simulated once.
    let cache = CampaignCache::new();

    println!(
        "sharding {} ({} tables) on {} at {} scale under {}\n",
        mix.name(),
        mix.total_tables(),
        gpu.name,
        scale.name(),
        scheme.paper_label()
    );

    let experiment = |devices: usize| {
        Experiment::new(gpu.clone(), scale)
            .with_cluster(Cluster::homogeneous(
                gpu.clone(),
                devices,
                InterconnectConfig::nvlink3(),
            ))
            .with_cache(cache.clone())
    };

    // --- 1. Scaling: devices x strategy. ----------------------------------
    let baseline = experiment(1).run(&workload, &scheme);
    println!(
        "unsharded baseline: {:.2} ms end-to-end",
        baseline.latency_ms()
    );
    println!(
        "\n{:<8} {:<14} {:>12} {:>12} {:>12} {:>9}",
        "devices", "strategy", "stage us", "a2a us", "e2e ms", "speedup"
    );
    for devices in [1usize, 2, 4, 8] {
        for spec in ShardingSpec::ALL {
            let report = experiment(devices).run(&workload.clone().with_sharding(spec), &scheme);
            let cluster = report.devices.as_ref().expect("sharded run");
            println!(
                "{:<8} {:<14} {:>12.1} {:>12.2} {:>12.2} {:>8.2}x",
                devices,
                spec.name(),
                cluster.embedding_stage_us(),
                cluster.all_to_all_us,
                report.latency_ms(),
                report.speedup_over(&baseline)
            );
        }
    }

    // --- 2. Per-device breakdown of one deployment. -----------------------
    let report = experiment(4).run(
        &workload.clone().with_sharding(ShardingSpec::HotCold),
        &scheme,
    );
    let cluster = report.devices.as_ref().expect("sharded run");
    println!(
        "\nhot_cold on 4 devices (critical path {:.1} us + all-to-all {:.2} us):",
        cluster.critical_path_us, cluster.all_to_all_us
    );
    for (d, dev) in cluster.per_device.iter().enumerate() {
        let bar = "#".repeat((40.0 * dev.embedding_us / cluster.critical_path_us) as usize);
        println!(
            "  device {d}: {:>3} tables {:>10.1} us  {bar}",
            dev.tables, dev.embedding_us
        );
    }
    let e2e = report.end_to_end.expect("end-to-end run");
    println!(
        "end-to-end: {:.2} ms (embedding {:.1}%, dense pipeline on the root device)",
        report.latency_ms(),
        e2e.embedding_share_pct()
    );
    assert!(e2e.embedding_us >= cluster.critical_path_us);
    println!(
        "\ncache: {} distinct cells simulated, {} served from cache",
        cache.misses(),
        cache.hits()
    );
}

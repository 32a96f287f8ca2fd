//! SLA-aware serving sweep.
//!
//! Evaluates the serving layer end to end: QPS-vs-p99 latency curves for
//! every batching policy × scheme combination on a heavy heterogeneous-mix
//! deployment, plus a capacity search (max sustainable QPS under a 25 ms
//! p99 SLA) for one unsharded and one 2-device sharded deployment, plus a
//! capacity-vs-K curve over concurrent kernel streams (K ∈ {1, 2, 4},
//! interleaved issue), emitted as machine-readable `BENCH_serving.json`
//! (override the path with the first CLI argument). Beyond the numbers the
//! binary *asserts* the layer's contracts: serving reports are
//! deterministic, identical for any worker-thread count, the degenerate
//! single-request scenario is bit-exact with the plain `Experiment::run`
//! latency, and a second stream buys capacity without exceeding the 2x
//! ideal.
//!
//! ```text
//! cargo run --release -p bench --bin serving [-- OUT.json]
//! ```

use dlrm::WorkloadScale;
use dlrm_datasets::{HeterogeneousMix, MixKind};
use gpu_sim::{GpuConfig, StreamPartition};
use perf_envelope::json::Json;
use perf_envelope::{
    max_sustainable_qps, stream_capacity_sweep, BatchingPolicy, CampaignCache, Cluster, Experiment,
    InterconnectConfig, Scheme, ServingScenario, ShardingSpec, StreamConfig, TrafficModel,
    Workload,
};

/// The p99 latency SLA every deployment is evaluated against.
const SLA_US: f64 = 25_000.0;

/// Offered-load fractions of the measured capacity the curves sweep.
const LOAD_FRACTIONS: [f64; 6] = [0.25, 0.5, 0.75, 0.9, 1.0, 1.2];

fn mix() -> HeterogeneousMix {
    // The full-scale Mix2 composition (240 tables across all four hotness
    // classes): per-batch service lands in the milliseconds at test scale,
    // so a 25 ms SLA leaves meaningful queueing headroom.
    HeterogeneousMix::paper_mix(MixKind::Mix2, 1.0)
}

fn unsharded_experiment(cache: &std::sync::Arc<CampaignCache>) -> Experiment {
    Experiment::new(GpuConfig::test_small(), WorkloadScale::Test).with_cache(cache.clone())
}

fn sharded_experiment(cache: &std::sync::Arc<CampaignCache>) -> Experiment {
    unsharded_experiment(cache).with_cluster(Cluster::homogeneous(
        GpuConfig::test_small(),
        2,
        InterconnectConfig::nvlink3(),
    ))
}

/// Enough 256-deep batches that a saturated backlog overshoots the SLA by
/// 3x, so the capacity boundary is inside the simulated horizon.
fn requests_for(service_us: f64) -> u32 {
    let batches = (SLA_US * 3.0 / service_us).ceil() as u32 + 2;
    batches * 256
}

fn scenario(policy: BatchingPolicy, requests: u32) -> ServingScenario {
    ServingScenario::new(TrafficModel::poisson(1_000.0), policy)
        .with_requests(requests)
        .with_sla_us(SLA_US)
}

fn capacity_to_json(
    capacity: &perf_envelope::CapacityResult,
    service_us: f64,
    requests: u32,
) -> Json {
    let mut doc = Json::object();
    doc.set("max_sustainable_qps", Json::Num(capacity.max_qps));
    doc.set("probes", Json::UInt(capacity.probes as u64));
    doc.set("full_batch_service_us", Json::Num(service_us));
    doc.set("requests", Json::UInt(requests as u64));
    doc.set(
        "p99_us_at_capacity",
        Json::Num(capacity.report.latency.p99_us),
    );
    doc.set(
        "violation_rate_at_capacity",
        Json::Num(capacity.report.sla_violation_rate),
    );
    doc.set(
        "utilization_at_capacity",
        Json::Arr(
            capacity
                .report
                .utilization
                .iter()
                .map(|u| Json::Num(u.utilization))
                .collect(),
        ),
    );
    doc
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_serving.json".to_string());
    let cache = CampaignCache::new();
    let stage = Workload::end_to_end(mix());
    let sharded = Workload::end_to_end(mix()).with_sharding(ShardingSpec::RoundRobin);
    let policies = [
        BatchingPolicy::fixed_size(256),
        BatchingPolicy::timeout(256, 2_000.0),
        BatchingPolicy::adaptive(16, 256),
    ];
    let schemes = [Scheme::base(), Scheme::combined()];

    let mut doc = Json::object();
    doc.set(
        "schema",
        Json::Str("perf-envelope/bench-serving/v1".to_string()),
    );
    doc.set("device", Json::Str(GpuConfig::test_small().name));
    doc.set("scale", Json::Str("test".to_string()));
    doc.set("workload", Json::Str(mix().name().to_string()));
    doc.set("tables", Json::UInt(mix().total_tables() as u64));
    doc.set("sla_us", Json::Num(SLA_US));
    doc.set("traffic", Json::Str("poisson".to_string()));

    let mut deterministic = true;
    let mut thread_invariant = true;

    // ---- QPS-vs-p99 curves: policy x scheme on the unsharded deployment ----
    let mut curves = Json::object();
    for policy in policies {
        let mut per_scheme = Json::object();
        for scheme in schemes {
            let e = unsharded_experiment(&cache);
            let service_us = e
                .clone()
                .with_batch_size(policy.shape(policy.max_batch()))
                .run(&stage, &scheme)
                .latency_us;
            let requests = requests_for(service_us);
            let base_scenario = scenario(policy, requests);
            let capacity = max_sustainable_qps(&e, &stage, &scheme, &base_scenario);

            let mut points = Vec::new();
            for fraction in LOAD_FRACTIONS {
                let qps = capacity.max_qps.max(1.0) * fraction;
                let probe = base_scenario
                    .clone()
                    .with_traffic(base_scenario.traffic().at_qps(qps));
                let report = probe.simulate(&e, &stage, &scheme);
                deterministic &= probe.simulate(&e, &stage, &scheme) == report;
                let mut point = Json::object();
                point.set("load_fraction", Json::Num(fraction));
                point.set("offered_qps", Json::Num(report.offered_qps));
                point.set("achieved_qps", Json::Num(report.achieved_qps));
                point.set("p50_us", Json::Num(report.latency.p50_us));
                point.set("p95_us", Json::Num(report.latency.p95_us));
                point.set("p99_us", Json::Num(report.latency.p99_us));
                point.set("max_us", Json::Num(report.latency.max_us));
                point.set("violation_rate", Json::Num(report.sla_violation_rate));
                point.set("batches", Json::UInt(report.batches as u64));
                point.set("distinct_shapes", Json::UInt(report.shapes.len() as u64));
                points.push(point);
            }
            let mut entry = Json::object();
            entry.set(
                "capacity",
                capacity_to_json(&capacity, service_us, requests),
            );
            entry.set("points", Json::Arr(points));
            per_scheme.set(&scheme.paper_label(), entry);
        }
        curves.set(&policy.label(), per_scheme);
    }
    doc.set("curves", curves);

    // ---- capacity search: unsharded vs sharded deployment ----
    let scheme = Scheme::combined();
    let policy = BatchingPolicy::fixed_size(256);
    let mut capacity_doc = Json::object();

    let e1 = unsharded_experiment(&cache);
    let service1 = e1
        .clone()
        .with_batch_size(256)
        .run(&stage, &scheme)
        .latency_us;
    let requests1 = requests_for(service1);
    let cap1 = max_sustainable_qps(&e1, &stage, &scheme, &scenario(policy, requests1));
    capacity_doc.set("unsharded", capacity_to_json(&cap1, service1, requests1));

    let e2 = sharded_experiment(&cache);
    let service2 = e2
        .clone()
        .with_batch_size(256)
        .run(&sharded, &scheme)
        .latency_us;
    let requests2 = requests_for(service2);
    let cap2 = max_sustainable_qps(&e2, &sharded, &scheme, &scenario(policy, requests2));
    capacity_doc.set("sharded_2dev", capacity_to_json(&cap2, service2, requests2));
    capacity_doc.set(
        "sharding_capacity_gain",
        Json::Num(cap2.max_qps / cap1.max_qps),
    );
    doc.set("capacity", capacity_doc);

    // ---- capacity-vs-K curve: concurrent streams on the unsharded deployment ----
    // Interleaved issue-slot sharing is the headline: co-resident batches
    // fill each other's stall cycles, so K batches finish in less than K
    // service times and the queue drains faster than one stream ever could.
    let stream_candidates: Vec<StreamConfig> = [1u32, 2, 4]
        .iter()
        .map(|&k| StreamConfig::new(k, StreamPartition::Interleaved))
        .collect();
    let stream_sweep = stream_capacity_sweep(
        &e1,
        &stage,
        &scheme,
        &scenario(policy, requests1),
        &stream_candidates,
    );
    let mut stream_doc = Json::object();
    stream_doc.set(
        "partition",
        Json::Str(StreamPartition::Interleaved.name().to_string()),
    );
    stream_doc.set(
        "points",
        Json::Arr(
            stream_sweep
                .iter()
                .map(|point| {
                    let mut obj = Json::object();
                    obj.set("streams", Json::UInt(point.streams.streams() as u64));
                    obj.set("config", Json::Str(point.streams.name()));
                    obj.set("max_sustainable_qps", Json::Num(point.capacity.max_qps));
                    obj.set("probes", Json::UInt(point.capacity.probes as u64));
                    obj.set(
                        "p99_us_at_capacity",
                        Json::Num(point.capacity.report.latency.p99_us),
                    );
                    obj.set(
                        "stream_utilization_at_capacity",
                        Json::Arr(
                            point
                                .capacity
                                .report
                                .stream_utilization
                                .iter()
                                .map(|s| Json::Num(s.utilization))
                                .collect(),
                        ),
                    );
                    obj
                })
                .collect(),
        ),
    );
    let (k1_qps, k2_qps) = (
        stream_sweep[0].capacity.max_qps,
        stream_sweep[1].capacity.max_qps,
    );
    stream_doc.set("k2_capacity_gain", Json::Num(k2_qps / k1_qps));
    doc.set("stream_scaling", stream_doc);

    // Multi-stream serving must be as deterministic and thread-invariant
    // as the single-stream path.
    let k2 = StreamConfig::new(2, StreamPartition::Interleaved);
    let stream_probe = scenario(policy, requests1.min(2048));
    let stream_report = stream_probe.simulate(
        &e1.clone().with_streams(k2).with_threads(1),
        &stage,
        &scheme,
    );
    deterministic &= stream_probe.simulate(
        &e1.clone().with_streams(k2).with_threads(1),
        &stage,
        &scheme,
    ) == stream_report;
    thread_invariant &= stream_probe.simulate(
        &e1.clone().with_streams(k2).with_threads(4),
        &stage,
        &scheme,
    ) == stream_report;

    // Thread-count invariance: the sharded per-shard fan-out must not leak
    // into serving percentiles.
    let probe = scenario(policy, requests2.min(2048));
    let serial = probe.simulate(&e2.clone().with_threads(1), &sharded, &scheme);
    let parallel = probe.simulate(&e2.clone().with_threads(4), &sharded, &scheme);
    thread_invariant &= serial == parallel;

    // Degenerate equivalence: one request, fixed-size batching at the
    // model's configured batch size == the plain Experiment::run latency.
    let batch = e1.model().batch_size();
    let degenerate = ServingScenario::new(
        TrafficModel::poisson(100.0),
        BatchingPolicy::fixed_size(batch),
    )
    .with_requests(1)
    .simulate(&e1, &stage, &scheme);
    let direct = e1.run(&stage, &scheme);
    let degenerate_matches = degenerate.latency.p99_us.to_bits() == direct.latency_us.to_bits();

    doc.set("deterministic", Json::Bool(deterministic));
    doc.set("thread_count_invariant", Json::Bool(thread_invariant));
    doc.set(
        "degenerate_matches_experiment",
        Json::Bool(degenerate_matches),
    );
    let mut cache_doc = Json::object();
    cache_doc.set("distinct_cells_simulated", Json::UInt(cache.misses()));
    doc.set("cache", cache_doc);

    let rendered = doc.render();
    std::fs::write(&out_path, &rendered).expect("failed to write the benchmark report");
    println!("{rendered}");
    println!();
    println!(
        "serving sweep: {} policies x {} schemes on {} ({} tables); \
         capacity {:.0} qps unsharded vs {:.0} qps on 2 devices ({:.2}x); \
         streams K=1/2/4: {:.0}/{:.0}/{:.0} qps (K=2 gain {:.2}x); wrote {out_path}",
        policies.len(),
        schemes.len(),
        mix().name(),
        mix().total_tables(),
        cap1.max_qps,
        cap2.max_qps,
        cap2.max_qps / cap1.max_qps,
        k1_qps,
        k2_qps,
        stream_sweep[2].capacity.max_qps,
        k2_qps / k1_qps
    );
    assert!(deterministic, "serving simulations must be deterministic");
    assert!(
        thread_invariant,
        "worker-thread count must not change serving reports"
    );
    assert!(
        degenerate_matches,
        "the degenerate serving run must be bit-exact with Experiment::run"
    );
    assert!(
        cap1.max_qps > 0.0 && cap2.max_qps > 0.0,
        "both deployments must sustain a positive load under the 25 ms SLA"
    );
    assert!(
        k2_qps > k1_qps,
        "a second concurrent stream must buy capacity under the 25 ms SLA \
         ({k2_qps:.0} vs {k1_qps:.0} qps)"
    );
    assert!(
        k2_qps <= 2.0 * k1_qps,
        "two streams cannot more than double the capacity \
         ({k2_qps:.0} vs {k1_qps:.0} qps)"
    );
}

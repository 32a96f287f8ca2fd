//! Serving-layer invariants and the degenerate-case equivalence safety net.
//!
//! The serving simulator's contract, mirroring the engine- and
//! sharding-equivalence anchors of PR 3/PR 4: a **single-request** arrival
//! trace under a fixed-size policy at the model's configured batch size
//! forms one batch with zero batching and zero queueing delay, so the
//! request's service latency — and therefore every percentile of the
//! [`ServingReport`](perf_envelope::ServingReport) — must be **bit-exact** with
//! `Experiment::run(&Workload, &Scheme).latency_us`, on both engine modes,
//! unsharded and on a 1-device cluster. Beyond the anchor: reports must be
//! deterministic and thread-count-invariant, and obey closed-form bounds
//! (zero load ⇒ zero queueing delay; offered load far above capacity ⇒
//! violation rate → 1; percentiles monotone).

use dlrm::WorkloadScale;
use dlrm_datasets::{AccessPattern, HeterogeneousMix, MixKind};
use gpu_sim::{EngineMode, GpuConfig};
use perf_envelope::json::Json;
use perf_envelope::{
    max_sustainable_qps, select_scheme, BatchingPolicy, CampaignCache, Cluster, Experiment,
    InterconnectConfig, Scheme, ServingScenario, ShardingSpec, TrafficModel, Workload,
};

fn exp() -> Experiment {
    Experiment::new(GpuConfig::test_small(), WorkloadScale::Test)
}

fn cluster(n: usize) -> Cluster {
    Cluster::homogeneous(GpuConfig::test_small(), n, InterconnectConfig::nvlink3())
}

/// A single-request scenario whose one batch is priced at the model's
/// configured batch size: the degenerate case that must collapse to a plain
/// `Experiment::run`.
fn degenerate_scenario(batch: u32) -> ServingScenario {
    ServingScenario::new(
        TrafficModel::poisson(100.0),
        BatchingPolicy::fixed_size(batch),
    )
    .with_requests(1)
    .with_seed(7)
}

/// Asserts the degenerate scenario's serving latencies are bit-exact with
/// the direct experiment latency.
fn assert_degenerate_matches(experiment: &Experiment, workload: &Workload, scheme: &Scheme) {
    let direct = experiment.run(workload, scheme);
    let batch = experiment.model().batch_size();
    let serving = degenerate_scenario(batch).simulate(experiment, workload, scheme);
    assert_eq!(serving.requests, 1);
    assert_eq!(serving.batches, 1);
    assert_eq!(
        serving.mean_batch_wait_us, 0.0,
        "a lone request never waits for its batch"
    );
    assert_eq!(
        serving.mean_queue_wait_us, 0.0,
        "an idle stream serves immediately"
    );
    for (name, value) in [
        ("p50", serving.latency.p50_us),
        ("p95", serving.latency.p95_us),
        ("p99", serving.latency.p99_us),
        ("max", serving.latency.max_us),
        ("mean", serving.latency.mean_us),
    ] {
        assert_eq!(
            value.to_bits(),
            direct.latency_us.to_bits(),
            "{name} of the degenerate serving run must be bit-exact with \
             Experiment::run ({value} vs {}) on {workload}",
            direct.latency_us
        );
    }
    assert_eq!(serving.shapes.len(), 1);
    assert_eq!(serving.shapes[0].shape, batch);
    assert_eq!(
        serving.shapes[0].latency_us.to_bits(),
        direct.latency_us.to_bits()
    );
}

#[test]
fn degenerate_run_is_bit_exact_with_experiment_run_on_both_engine_modes() {
    let workloads = [
        Workload::stage(AccessPattern::MedHot),
        Workload::stage(HeterogeneousMix::paper_mix(MixKind::Mix2, 0.02)),
        Workload::end_to_end(AccessPattern::Random),
    ];
    for mode in [EngineMode::EventDriven, EngineMode::CycleAccurate] {
        for workload in &workloads {
            for scheme in [Scheme::base(), Scheme::combined()] {
                assert_degenerate_matches(&exp().with_engine_mode(mode), workload, &scheme);
            }
        }
    }
}

#[test]
fn degenerate_run_is_bit_exact_on_a_single_device_cluster() {
    let single = exp().with_cluster(Cluster::single(GpuConfig::test_small()));
    let workload = Workload::end_to_end(HeterogeneousMix::paper_mix(MixKind::Mix1, 0.02));
    assert_degenerate_matches(&single, &workload, &Scheme::combined());

    // And through the sharded path: a 1-device cluster's trivial plan is
    // bit-exact with the unsharded run (PR 4's anchor), so the serving
    // layer on top of it must reproduce the *unsharded* latency too.
    let sharded = workload.clone().with_sharding(ShardingSpec::RoundRobin);
    let direct_unsharded = exp().run(&workload, &Scheme::combined());
    let serving = degenerate_scenario(single.model().batch_size()).simulate(
        &single,
        &sharded,
        &Scheme::combined(),
    );
    assert_eq!(
        serving.latency.p99_us.to_bits(),
        direct_unsharded.latency_us.to_bits(),
        "serving a sharded workload on one device must match the unsharded run"
    );
    assert_eq!(serving.utilization.len(), 1);
}

#[test]
fn reports_are_deterministic_and_thread_count_invariant() {
    let scenario = ServingScenario::new(
        TrafficModel::bursty(20_000.0, 32),
        BatchingPolicy::adaptive(8, 128),
    )
    .with_requests(400)
    .with_seed(11);
    let workload = Workload::stage(HeterogeneousMix::paper_mix(MixKind::Mix2, 0.02))
        .with_sharding(ShardingSpec::SizeBalanced);
    let scheme = Scheme::optmt();

    let serial = scenario.simulate(
        &exp().with_cluster(cluster(2)).with_threads(1),
        &workload,
        &scheme,
    );
    let parallel = scenario.simulate(
        &exp().with_cluster(cluster(2)).with_threads(4),
        &workload,
        &scheme,
    );
    let repeat = scenario.simulate(
        &exp().with_cluster(cluster(2)).with_threads(1),
        &workload,
        &scheme,
    );
    assert_eq!(
        serial, parallel,
        "the worker-thread count must not change serving percentiles"
    );
    assert_eq!(serial, repeat, "serving simulations must be deterministic");
    assert_eq!(serial.utilization.len(), 2);
}

#[test]
fn zero_load_has_zero_queueing_delay() {
    // Price one single-sample batch, then offer requests spaced ten service
    // times apart: every batch departs before the next request arrives.
    let e = exp();
    let workload = Workload::stage(AccessPattern::HighHot);
    let service_us = e
        .clone()
        .with_batch_size(1)
        .run(&workload, &Scheme::base())
        .latency_us;
    let qps = 1e6 / (service_us * 10.0);
    let scenario =
        ServingScenario::new(TrafficModel::uniform(qps), BatchingPolicy::adaptive(1, 64))
            .with_requests(32)
            .with_sla_us(service_us * 2.0);
    let report = scenario.simulate(&e, &workload, &Scheme::base());
    assert_eq!(report.batches, 32, "every request is served alone");
    assert_eq!(report.mean_queue_wait_us, 0.0, "no batch ever queues");
    assert_eq!(
        report.mean_batch_wait_us, 0.0,
        "no request waits for a batch"
    );
    assert_eq!(report.sla_violation_rate, 0.0);
    assert_eq!(
        report.latency.max_us.to_bits(),
        service_us.to_bits(),
        "zero-load latency is pure service time"
    );
}

#[test]
fn overload_drives_the_violation_rate_to_one() {
    // Offer ~50x the saturation throughput: the queue grows without bound
    // and almost every request blows through the SLA.
    let e = exp();
    let workload = Workload::stage(AccessPattern::HighHot);
    let service_us = e
        .clone()
        .with_batch_size(64)
        .run(&workload, &Scheme::base())
        .latency_us;
    let capacity_qps = 64.0 / service_us * 1e6;
    let scenario = ServingScenario::new(
        TrafficModel::poisson(capacity_qps * 50.0),
        BatchingPolicy::fixed_size(64),
    )
    .with_requests(2_000)
    .with_sla_us(service_us * 1.5);
    let report = scenario.simulate(&e, &workload, &Scheme::base());
    assert!(
        report.sla_violation_rate > 0.9,
        "50x overload must violate almost every request (got {:.3})",
        report.sla_violation_rate
    );
    assert!(
        report.achieved_qps < report.offered_qps / 10.0,
        "a saturated server cannot keep up with 50x overload"
    );
    // The single execution stream is essentially always busy.
    assert!(report.utilization[0].utilization > 0.99);
}

#[test]
fn percentiles_are_monotone_for_every_policy_and_traffic_shape() {
    let e = exp();
    let workload = Workload::stage(AccessPattern::MedHot);
    let policies = [
        BatchingPolicy::fixed_size(64),
        BatchingPolicy::timeout(64, 500.0),
        BatchingPolicy::adaptive(4, 64),
    ];
    let traffics = [
        TrafficModel::uniform(20_000.0),
        TrafficModel::poisson(20_000.0),
        TrafficModel::bursty(20_000.0, 16),
        TrafficModel::diurnal(40_000.0, 2_000.0, 1.0),
    ];
    for policy in policies {
        for traffic in traffics {
            let report = ServingScenario::new(traffic, policy)
                .with_requests(300)
                .simulate(&e, &workload, &Scheme::base());
            let l = &report.latency;
            assert!(
                l.p50_us <= l.p95_us && l.p95_us <= l.p99_us && l.p99_us <= l.max_us,
                "percentiles must be monotone for {policy} under {traffic}: {l:?}"
            );
            // The mean is a float sum, so allow an ULP of slack when every
            // latency is identical.
            assert!(l.mean_us <= l.max_us * (1.0 + 1e-12) && l.mean_us >= 0.0);
            assert!(report.mean_batch_wait_us >= 0.0 && report.mean_queue_wait_us >= 0.0);
            assert_eq!(
                report.shapes.iter().map(|s| s.batches).sum::<u32>(),
                report.batches
            );
            for u in &report.utilization {
                assert!(u.utilization >= 0.0 && u.utilization <= 1.0 + 1e-12);
            }
        }
    }
}

#[test]
fn distinct_shapes_simulate_once_through_the_cache() {
    let cache = CampaignCache::new();
    let e = exp().with_cache(cache.clone()).with_threads(1);
    let workload = Workload::stage(AccessPattern::MedHot);
    let scenario = ServingScenario::new(
        TrafficModel::bursty(50_000.0, 24),
        BatchingPolicy::adaptive(1, 64),
    )
    .with_requests(240);
    let first = scenario.simulate(&e, &workload, &Scheme::base());
    let shapes = first.shapes.len();
    assert!(
        first.batches > first.shapes.len() as u32,
        "shapes must repeat"
    );
    assert_eq!(
        cache.misses() as usize,
        shapes,
        "every distinct shape simulates exactly once"
    );
    // A re-simulation prices every shape from the cache.
    let second = scenario.simulate(&e, &workload, &Scheme::base());
    assert_eq!(first, second);
    assert_eq!(cache.misses() as usize, shapes);
    assert_eq!(cache.hits() as usize, shapes);
}

#[test]
fn simulated_serving_reports_render_canonically() {
    let report = ServingScenario::new(
        TrafficModel::poisson(30_000.0),
        BatchingPolicy::timeout(64, 800.0),
    )
    .with_requests(200)
    .simulate(
        &exp().with_cluster(cluster(2)),
        &Workload::end_to_end(HeterogeneousMix::paper_mix(MixKind::Mix2, 0.02))
            .with_sharding(ShardingSpec::RoundRobin),
        &Scheme::combined(),
    );
    let text = report.to_json();
    let doc = Json::parse(&text).expect("serving JSON parses");
    assert_eq!(doc.render(), text, "rendering must be canonical");
    let utilization = doc.get("utilization").and_then(Json::as_array);
    assert_eq!(utilization.map(<[Json]>::len), Some(2));
    assert_eq!(
        doc.get("served_requests").and_then(Json::as_u32),
        Some(report.served_requests)
    );
}

#[test]
fn capacity_search_brackets_the_sla_boundary() {
    let e = exp().with_cache(CampaignCache::new());
    let workload = Workload::stage(AccessPattern::MedHot);
    // Size the SLA off the measured full-batch service time: 3x service
    // tolerates steady-state batching delay but not a growing backlog, so
    // the boundary sits near the saturation throughput and an 8-batch
    // trace is enough to expose it.
    let service_us = e
        .clone()
        .with_batch_size(256)
        .run(&workload, &Scheme::base())
        .latency_us;
    let scenario = ServingScenario::new(
        TrafficModel::uniform(1_000.0),
        BatchingPolicy::fixed_size(256),
    )
    .with_requests(2048)
    .with_sla_us(service_us * 3.0);
    let capacity = max_sustainable_qps(&e, &workload, &Scheme::base(), &scenario);
    assert!(capacity.max_qps > 0.0, "a 3x-service SLA is feasible");
    assert!(capacity.probes > 2);
    assert!(capacity.report.meets_sla());
    // The boundary is real: the found capacity is of the same order as the
    // saturation throughput (256-deep batches at back-to-back service).
    let saturation_qps = 256.0 / service_us * 1e6;
    assert!(
        capacity.max_qps > saturation_qps * 0.5 && capacity.max_qps < saturation_qps * 8.0,
        "capacity {:.0} qps should be near saturation {saturation_qps:.0} qps",
        capacity.max_qps
    );
    // Determinism: the search lands on the identical rate again.
    let again = max_sustainable_qps(&e, &workload, &Scheme::base(), &scenario);
    assert_eq!(capacity.max_qps.to_bits(), again.max_qps.to_bits());
    assert_eq!(capacity.report, again.report);
    // Well above the found capacity the SLA must fail.
    let above = scenario
        .clone()
        .with_traffic(scenario.traffic().at_qps(capacity.max_qps * 4.0))
        .simulate(&e, &workload, &Scheme::base());
    assert!(
        !above.meets_sla(),
        "4x the found capacity should violate the SLA (p99 {} vs {})",
        above.latency.p99_us,
        above.sla_us
    );
}

#[test]
fn scheme_selection_prefers_the_cheapest_qualifying_scheme() {
    let e = exp().with_cache(CampaignCache::new());
    let workload = Workload::stage(AccessPattern::Random);
    let schemes = [Scheme::base(), Scheme::optmt(), Scheme::combined()];
    let base_service_us = e
        .clone()
        .with_batch_size(256)
        .run(&workload, &Scheme::base())
        .latency_us;
    let scenario = |qps: f64| {
        ServingScenario::new(TrafficModel::uniform(qps), BatchingPolicy::fixed_size(256))
            .with_requests(2048)
            .with_sla_us(base_service_us * 3.0)
    };

    // At the base scheme's saturation throughput the queue stays bounded
    // (steady-state latency ~ batching delay + service < 3x service), so
    // the cheapest scheme qualifies and selection stops at it.
    let base_saturation_qps = 256.0 / base_service_us * 1e6;
    let easy = select_scheme(&e, &workload, &schemes, &scenario(base_saturation_qps))
        .expect("base saturation load is servable by base");
    assert_eq!(easy.index, 0);
    assert_eq!(easy.report.scheme, "base");

    // Past the base capacity, selection escalates to a faster scheme:
    // OptMT speeds the random pattern up, so its capacity is strictly
    // higher and it still qualifies where base no longer does.
    let base_cap = max_sustainable_qps(&e, &workload, &Scheme::base(), &scenario(1_000.0));
    let opt_cap = max_sustainable_qps(&e, &workload, &Scheme::optmt(), &scenario(1_000.0));
    assert!(
        opt_cap.max_qps > base_cap.max_qps * 1.02,
        "OptMT must buy measurable capacity on the random pattern \
         ({:.0} vs {:.0} qps)",
        opt_cap.max_qps,
        base_cap.max_qps
    );
    let escalated = select_scheme(&e, &workload, &schemes, &scenario(opt_cap.max_qps))
        .expect("OptMT's own capacity must be servable by some scheme");
    assert!(
        escalated.index >= 1,
        "past the base capacity the selection must escalate beyond base \
         (base cap {:.0} qps, probed {:.0} qps)",
        base_cap.max_qps,
        opt_cap.max_qps
    );
    assert!(escalated.report.meets_sla());
}

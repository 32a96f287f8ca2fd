//! The fleet layer's equivalence and invariant anchors.
//!
//! PR 10 lifts serving to fleet scale: replica groups behind a routing
//! policy, autoscaling over the capacity search, and a device-hours cost
//! model. Its contract, proven here end to end:
//!
//! * **Degenerate equivalence** — a 1-replica fleet with identity routing
//!   (round-robin) and no autoscaling is **bit-exact** with
//!   [`ServingScenario::simulate`], on both engine modes, sharded across a
//!   multi-device cluster, K-streamed, and under a fault plan; and, run
//!   after the scenario on one shared [`CampaignCache`], the identity fleet
//!   misses no cell, so a degenerate fleet shares cache cells with the
//!   scenario it wraps.
//! * **Routing invariance** — every routing policy is a deterministic pure
//!   decision function: fleet reports are identical across repeated runs
//!   and across pricing thread counts.
//! * **Request conservation** — every offered request is routed to exactly
//!   one replica and accounted exactly once: summed over replicas,
//!   `served + shed + failed = offered`.
//! * **The drain contract** — scale-in only stops routing; with no faults
//!   and no admission control an autoscaled fleet serves *every* offered
//!   request even while replicas drain, so autoscaling never loses
//!   in-flight work.
//! * **Cross-replica cache sharing** — N identical replicas behind one
//!   [`CampaignCache`] price each distinct batch shape exactly once, and a
//!   capacity search or a fleet replica group looks each shape up once,
//!   however many probes or replicas it runs.
//!
//! This suite runs in release mode in CI, including under
//! `--features gpu-sim/contract-checks`.

use dlrm::WorkloadScale;
use dlrm_datasets::{AccessPattern, HeterogeneousMix, MixKind};
use gpu_sim::{EngineMode, GpuConfig, StreamPartition};
use perf_envelope::{
    max_sustainable_qps, AutoscalePolicy, BatchingPolicy, CampaignCache, Cluster, Experiment,
    FaultEvent, FaultPlan, Fleet, ReplicaGroup, RoutingPolicy, Scheme, ServingScenario,
    ShardingSpec, StreamConfig, TrafficModel, Workload,
};

fn exp() -> Experiment {
    Experiment::new(GpuConfig::test_small(), WorkloadScale::Test)
}

fn scenario() -> ServingScenario {
    ServingScenario::new(
        TrafficModel::poisson(20_000.0),
        BatchingPolicy::fixed_size(64),
    )
    .with_requests(256)
    .with_seed(0xA1)
}

// ---------------------------------------------------------------------------
// Degenerate equivalence: the 1-replica identity fleet IS the scenario
// ---------------------------------------------------------------------------

/// Asserts that the identity fleet over (`experiment`, `scenario`)
/// reproduces `scenario.simulate(experiment, ..)` bit-for-bit, embedded
/// report and aggregates alike, and that on a cache the scenario filled it
/// prices nothing new.
fn assert_identity_anchor(
    experiment: &Experiment,
    scenario: &ServingScenario,
    workload: &Workload,
    scheme: &Scheme,
    label: &str,
) {
    let direct = scenario.simulate(experiment, workload, scheme);
    let fleet = Fleet::single(experiment.clone(), scenario.clone());
    let report = fleet.simulate(workload, scheme);

    assert_eq!(report.replicas.len(), 1, "{label}: one replica expected");
    let replica = &report.replicas[0];
    assert_eq!(
        replica.report, direct,
        "{label}: the embedded replica report diverged from the scenario"
    );
    assert_eq!(replica.routed_requests, direct.requests);

    // Fleet-level aggregates of a single replica collapse to the
    // scenario's own numbers, to the bit.
    assert_eq!(report.requests, direct.requests);
    assert_eq!(report.served_requests, direct.served_requests);
    assert_eq!(report.shed_requests, direct.shed_requests);
    assert_eq!(report.failed_requests, direct.failed_requests);
    for (name, got, want) in [
        ("availability", report.availability, direct.availability),
        ("achieved_qps", report.achieved_qps, direct.achieved_qps),
        ("makespan", report.makespan_us, direct.makespan_us),
        ("p50", report.latency.p50_us, direct.latency.p50_us),
        ("p95", report.latency.p95_us, direct.latency.p95_us),
        ("p99", report.latency.p99_us, direct.latency.p99_us),
        ("max", report.latency.max_us, direct.latency.max_us),
        ("mean", report.latency.mean_us, direct.latency.mean_us),
    ] {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{label}: fleet {name} diverged from the scenario: {got} vs {want}"
        );
    }
    assert!(report.autoscale_events.is_empty());

    // The fleet keys every cell it prices exactly as the scenario does, so
    // run after it on one shared cache it only hits.
    let cache = CampaignCache::new();
    scenario.simulate(
        &experiment.clone().with_cache(cache.clone()),
        workload,
        scheme,
    );
    let (misses, hits) = (cache.misses(), cache.hits());
    assert!(misses > 0, "{label}: the scenario priced nothing");
    fleet.with_cache(cache.clone()).simulate(workload, scheme);
    assert_eq!(
        cache.misses(),
        misses,
        "{label}: the identity fleet priced a cell the scenario did not"
    );
    assert!(
        cache.hits() > hits,
        "{label}: the fleet did not price through the cache"
    );
}

#[test]
fn identity_fleet_is_bit_exact_on_both_engine_modes() {
    let workload = Workload::stage(AccessPattern::MedHot);
    for mode in [EngineMode::EventDriven, EngineMode::CycleAccurate] {
        assert_identity_anchor(
            &exp().with_engine_mode(mode),
            &scenario(),
            &workload,
            &Scheme::combined(),
            mode.name(),
        );
    }
}

#[test]
fn identity_fleet_is_bit_exact_on_a_sharded_cluster() {
    let workload = Workload::stage(HeterogeneousMix::paper_mix(MixKind::Mix2, 0.02))
        .with_sharding(ShardingSpec::RoundRobin);
    let experiment = exp().with_cluster(Cluster::homogeneous(
        GpuConfig::test_small(),
        2,
        perf_envelope::InterconnectConfig::nvlink3(),
    ));
    assert_identity_anchor(
        &experiment,
        &scenario(),
        &workload,
        &Scheme::combined(),
        "sharded",
    );
}

#[test]
fn identity_fleet_is_bit_exact_under_concurrent_streams() {
    let experiment = exp().with_streams(StreamConfig::new(2, StreamPartition::Interleaved));
    assert_identity_anchor(
        &experiment,
        &scenario(),
        &Workload::stage(AccessPattern::HighHot),
        &Scheme::optmt(),
        "K=2 streams",
    );
}

#[test]
fn identity_fleet_is_bit_exact_under_a_fault_plan() {
    let faulted = scenario().with_faults(FaultPlan::new(vec![
        FaultEvent::straggler(0, 2_000.0, 6_000.0, 2.0),
        FaultEvent::crash(0, 9_000.0, 9_500.0),
    ]));
    assert_identity_anchor(
        &exp(),
        &faulted,
        &Workload::stage(AccessPattern::MedHot),
        &Scheme::base(),
        "faulted",
    );
}

// ---------------------------------------------------------------------------
// Routing: determinism and thread-count invariance
// ---------------------------------------------------------------------------

fn three_replica_fleet(routing: RoutingPolicy, threads: usize) -> Fleet {
    let experiment = exp().with_threads(threads);
    Fleet::new(TrafficModel::bursty(40_000.0, 24), 512, 0xB2)
        .with_routing(routing)
        .with_group(ReplicaGroup::new(experiment.clone(), scenario()).with_replicas(2))
        .with_group(ReplicaGroup::new(
            experiment.with_streams(StreamConfig::new(2, StreamPartition::Interleaved)),
            ServingScenario::new(
                TrafficModel::poisson(20_000.0),
                BatchingPolicy::adaptive(16, 96),
            ),
        ))
}

#[test]
fn routing_is_deterministic_and_thread_count_invariant() {
    let workload = Workload::stage(HeterogeneousMix::paper_mix(MixKind::Mix2, 0.02));
    let scheme = Scheme::combined();
    for routing in [
        RoutingPolicy::round_robin(),
        RoutingPolicy::least_outstanding(),
        RoutingPolicy::latency_aware(0.3),
    ] {
        let serial = three_replica_fleet(routing, 1).simulate(&workload, &scheme);
        let repeat = three_replica_fleet(routing, 1).simulate(&workload, &scheme);
        let parallel = three_replica_fleet(routing, 4).simulate(&workload, &scheme);
        assert_eq!(serial, repeat, "{} must be deterministic", routing.label());
        assert_eq!(
            serial,
            parallel,
            "{} must not depend on the pricing thread count",
            routing.label()
        );
        assert_eq!(serial.to_json(), parallel.to_json());
    }
}

#[test]
fn distinct_routing_policies_spread_load_differently_but_conserve_requests() {
    let workload = Workload::stage(AccessPattern::MedHot);
    let scheme = Scheme::base();
    for routing in [
        RoutingPolicy::round_robin(),
        RoutingPolicy::least_outstanding(),
        RoutingPolicy::latency_aware(0.3),
    ] {
        let fleet = three_replica_fleet(routing, 1);
        let report = fleet.simulate(&workload, &scheme);
        let routed: u32 = report.replicas.iter().map(|r| r.routed_requests).sum();
        assert_eq!(routed, fleet.requests(), "{}", routing.label());
        assert_eq!(
            report.served_requests + report.shed_requests + report.failed_requests,
            fleet.requests(),
            "{}",
            routing.label()
        );
        assert_eq!(report.replicas.len(), 3);
        for replica in &report.replicas {
            assert!(
                replica.routed_requests > 0,
                "{}: replica {} starved",
                routing.label(),
                replica.replica
            );
        }
    }
}

#[test]
fn request_conservation_holds_under_per_replica_faults() {
    // A heterogeneous fleet where one replica group crashes mid-day:
    // failed requests appear, yet the fleet-wide ledger still adds up.
    // Timing is anchored the PR 8 way: bursts land whole batches at known
    // instants, and the crash window is expressed in measured service
    // times, so the faulted replica's first batch is provably in flight
    // when the crash strikes.
    let workload = Workload::stage(AccessPattern::MedHot);
    let scheme = Scheme::combined();
    let s = exp().with_batch_size(32).run(&workload, &scheme).latency_us;
    // Three replicas round-robin a burst of 96: the faulted one gets 32
    // requests at t = 0 — exactly one batch, in flight over [0, s).
    let faulted = ServingScenario::new(
        TrafficModel::bursty(30_000.0, 96),
        BatchingPolicy::fixed_size(32),
    )
    .with_faults(FaultPlan::new(vec![FaultEvent::crash(0, 0.5 * s, 2.5 * s)]));
    let fleet = Fleet::new(TrafficModel::bursty(30_000.0, 96), 384, 0xC3)
        .with_routing(RoutingPolicy::round_robin())
        .with_group(ReplicaGroup::new(exp(), scenario()).with_replicas(2))
        .with_group(ReplicaGroup::new(exp(), faulted));
    let report = fleet.simulate(&workload, &scheme);
    assert!(report.failed_requests > 0, "the crash must cost requests");
    assert_eq!(
        report.served_requests + report.shed_requests + report.failed_requests,
        fleet.requests()
    );
    assert!(report.availability < 1.0);
    let routed: u32 = report.replicas.iter().map(|r| r.routed_requests).sum();
    assert_eq!(routed, fleet.requests());
}

// ---------------------------------------------------------------------------
// Autoscaling: the drain contract
// ---------------------------------------------------------------------------

#[test]
fn autoscaling_never_loses_in_flight_work() {
    // Thresholds are anchored to the measured single-replica capacity so
    // the diurnal day deterministically forces both directions: peaks
    // overload one replica (scale-out), troughs idle the grown fleet
    // (scale-in, draining the leaver).
    let workload = Workload::stage(AccessPattern::MedHot);
    let scheme = Scheme::combined();
    let template = scenario();
    let capacity = max_sustainable_qps(&exp(), &workload, &scheme, &template).max_qps;
    assert!(capacity > 0.0, "the test deployment must sustain some load");

    // Size the period so the 2048-request day spans about two diurnal
    // cycles at the mean rate, whatever the absolute capacity is, and cut
    // each cycle into ~10 decision intervals.
    let requests = 2_048u32;
    let mean_qps = (1.5 * capacity + 0.05 * capacity) / 2.0;
    let period_s = requests as f64 / mean_qps / 2.0;
    let interval_us = period_s * 1e6 / 10.0;
    let traffic = TrafficModel::diurnal(1.5 * capacity, 0.05 * capacity, period_s);
    let fleet = Fleet::new(traffic, requests, 0xD4)
        .with_group(ReplicaGroup::new(exp(), template).with_replicas(3))
        .with_autoscale(AutoscalePolicy::reactive(0.8, 0.3, 0, 1, 3))
        .with_interval_us(interval_us);
    let report = fleet.simulate(&workload, &scheme);

    let outs = report
        .autoscale_events
        .iter()
        .filter(|e| e.action == "scale_out")
        .count();
    let ins = report
        .autoscale_events
        .iter()
        .filter(|e| e.action == "scale_in")
        .count();
    assert!(outs > 0, "the diurnal peak must force a scale-out");
    assert!(ins > 0, "the diurnal trough must force a scale-in");

    // The drain contract, end to end: no faults, no admission control —
    // so if draining lost work, served would fall short of offered.
    assert_eq!(report.served_requests, fleet.requests());
    assert_eq!(report.shed_requests, 0);
    assert_eq!(report.failed_requests, 0);
    assert_eq!(report.availability, 1.0);

    // Every replica that ever went live accounts for all its routed
    // requests, drained or not.
    let routed: u32 = report.replicas.iter().map(|r| r.routed_requests).sum();
    assert_eq!(routed, fleet.requests());
    for replica in &report.replicas {
        assert_eq!(replica.report.served_requests, replica.routed_requests);
        assert!(replica.active_until_us >= replica.active_from_us);
    }

    // A drained replica bills through its last completion, never less.
    let drained = report
        .replicas
        .iter()
        .find(|r| r.active_until_us < report.makespan_us)
        .expect("a scale-in must leave at least one drained replica");
    assert!(drained.active_until_us >= drained.report.makespan_us);

    // Autoscaling is deterministic too.
    let again = fleet.simulate(&workload, &scheme);
    assert_eq!(again, report);
}

// ---------------------------------------------------------------------------
// Cross-replica cache sharing
// ---------------------------------------------------------------------------

#[test]
fn identical_replicas_price_each_distinct_shape_once() {
    let workload = Workload::stage(AccessPattern::MedHot);
    let scheme = Scheme::combined();
    let misses_for = |replicas: u32| -> (u64, u64) {
        let cache = CampaignCache::new();
        let fleet = Fleet::new(TrafficModel::poisson(20_000.0), 300, 0xE5)
            .with_group(ReplicaGroup::new(exp(), scenario()).with_replicas(replicas))
            .with_cache(cache.clone());
        fleet.simulate(&workload, &scheme);
        (cache.misses(), cache.hits())
    };
    let (misses_one, hits_one) = misses_for(1);
    let (misses_three, hits_three) = misses_for(3);
    assert!(misses_one > 0, "the fleet prices through the shared cache");
    // Replicas 2 and 3 price from their group's shape memo, so they cost
    // no cache lookup at all: neither a miss nor a hit.
    assert_eq!(
        (misses_three, hits_three),
        (misses_one, hits_one),
        "N identical replicas must price each distinct shape exactly once"
    );
}

#[test]
fn a_capacity_search_prices_each_shape_once() {
    let workload = Workload::stage(AccessPattern::MedHot);
    let scheme = Scheme::base();
    // An SLA of three full-batch service times makes the larger traces
    // bisect (18 probes) while the 64-request one runs to the 65-probe cap.
    let sla_us = 3.0 * exp().with_batch_size(64).run(&workload, &scheme).latency_us;
    for policy in [
        BatchingPolicy::fixed_size(64),
        BatchingPolicy::adaptive(4, 64),
    ] {
        for requests in [64, 256, 1024] {
            let cache = CampaignCache::new();
            let experiment = exp().with_cache(cache.clone());
            let scenario = ServingScenario::new(TrafficModel::poisson(20_000.0), policy)
                .with_requests(requests)
                .with_sla_us(sla_us);
            let first = max_sustainable_qps(&experiment, &workload, &scheme, &scenario);
            // A fresh cache misses each distinct cell once: the misses
            // count the distinct shapes the search priced.
            let (hits, shapes) = (cache.hits(), cache.misses());
            let label = format!("{} at {requests} requests", policy.label());
            assert_eq!(hits, 0, "{label}: the search looked a shape up twice");
            assert!(
                first.probes > shapes as u32,
                "{label}: {} probes must outnumber the {shapes} shapes",
                first.probes
            );
            if policy.name() == "fixed_size" {
                assert_eq!(shapes, 1, "{label}: a fixed size has one shape");
            }
            // The same search again on the now-warm cache: one hit per
            // shape, whatever the probe count.
            let again = max_sustainable_qps(&experiment, &workload, &scheme, &scenario);
            assert_eq!(again, first);
            assert_eq!((cache.hits(), cache.misses()), (shapes, shapes), "{label}");
        }
    }

    // An autoscaled, probe-routed fleet of two identical groups: the
    // router probe, the capacity search and the replicas of a group share
    // one memo, so each group looks each shape up at most once, and the
    // second group's lookups hit what the first priced.
    let cache = CampaignCache::new();
    let group = ReplicaGroup::new(exp(), scenario().with_sla_us(sla_us)).with_replicas(2);
    let report = Fleet::new(TrafficModel::poisson(20_000.0), 600, 0xE5)
        .with_group(group.clone())
        .with_group(group)
        .with_routing(RoutingPolicy::least_outstanding())
        .with_autoscale(AutoscalePolicy::reactive(0.8, 0.3, 0, 1, 4))
        .with_interval_us(5_000.0)
        .with_cache(cache.clone())
        .simulate(&workload, &scheme);
    assert_eq!(report.served_requests, 600);
    let (hits, shapes) = (cache.hits(), cache.misses());
    assert!(hits > 0, "the second group prices from the shared cache");
    // The first group misses each shape once; the second may hit each.
    assert!(
        hits <= shapes,
        "{hits} hits and {shapes} misses: a group looked a shape up twice"
    );
}

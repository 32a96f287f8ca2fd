//! Fleet-scale serving study: replica sets, routing, autoscaling and the
//! cost/SLA frontier.
//!
//! Exercises the PR 10 fleet layer end to end on the Mix2 deployment:
//! a routing comparison at fixed fleet cost (round-robin vs
//! least-outstanding vs latency-aware on a heterogeneous wide/narrow
//! fleet); an autoscale-vs-static comparison over a diurnal day tracking
//! device-hours against SLA attainment; and a cost/SLA Pareto frontier
//! over static fleet sizes. Emitted as machine-readable `BENCH_fleet.json`
//! (override the path with the first CLI argument). Beyond the numbers
//! the binary *asserts* the layer's headline contracts: every fleet run is
//! deterministic and conserves requests, load-aware routing shifts traffic
//! off the slow replica, reactive autoscaling serves the whole diurnal day
//! for fewer device-hours than static provisioning, and identical replicas
//! price each distinct batch shape once through the shared campaign cache.
//!
//! ```text
//! cargo run --release -p bench --bin fleet [-- OUT.json]
//! ```

use dlrm::WorkloadScale;
use dlrm_datasets::{HeterogeneousMix, MixKind};
use gpu_sim::GpuConfig;
use perf_envelope::json::Json;
use perf_envelope::{
    max_sustainable_qps, pareto_frontier, AutoscalePolicy, BatchingPolicy, CampaignCache, Cluster,
    Experiment, Fleet, FleetReport, InterconnectConfig, ReplicaGroup, RoutingPolicy, Scheme,
    ServingScenario, ShardingSpec, TrafficModel, Workload,
};

/// Requests per batch (fixed-size batching throughout).
const BATCH: u32 = 64;

/// The latency SLA, in units of the measured one-batch service time on the
/// narrow replica: tight enough that the capacity search binds (so replica
/// capacity, autoscale utilization and SLA attainment are all meaningful at
/// test scale), loose enough that an unloaded replica always meets it.
const SLA_SERVICE_UNITS: f64 = 4.0;

fn report_to_json(report: &FleetReport) -> Json {
    let mut doc = Json::object();
    doc.set("served_requests", Json::UInt(report.served_requests as u64));
    doc.set("shed_requests", Json::UInt(report.shed_requests as u64));
    doc.set("failed_requests", Json::UInt(report.failed_requests as u64));
    doc.set("availability", Json::Num(report.availability));
    doc.set("achieved_qps", Json::Num(report.achieved_qps));
    doc.set("goodput_qps", Json::Num(report.goodput_qps));
    doc.set("sla_attainment", Json::Num(report.sla_attainment));
    doc.set("p50_us", Json::Num(report.latency.p50_us));
    doc.set("p99_us", Json::Num(report.latency.p99_us));
    doc.set("max_us", Json::Num(report.latency.max_us));
    doc.set("makespan_us", Json::Num(report.makespan_us));
    doc.set("device_hours", Json::Num(report.cost.device_hours));
    doc.set(
        "replicas_routed",
        Json::Arr(
            report
                .replicas
                .iter()
                .map(|r| Json::UInt(r.routed_requests as u64))
                .collect(),
        ),
    );
    doc
}

/// Runs `fleet` twice, asserts byte-identical reports and the request
/// conservation ledger, and returns the report.
fn simulate_checked(fleet: &Fleet, workload: &Workload, scheme: &Scheme) -> FleetReport {
    let report = fleet.simulate(workload, scheme);
    let again = fleet.simulate(workload, scheme);
    assert_eq!(
        report.to_json(),
        again.to_json(),
        "fleet simulation must be deterministic"
    );
    assert_eq!(
        report.served_requests + report.shed_requests + report.failed_requests,
        fleet.requests(),
        "every request must be served, shed or failed"
    );
    let routed: u32 = report.replicas.iter().map(|r| r.routed_requests).sum();
    assert_eq!(
        routed,
        fleet.requests(),
        "every request must be routed to exactly one replica"
    );
    report
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_fleet.json".to_string());
    let cache = CampaignCache::new();
    let narrow =
        Experiment::new(GpuConfig::test_small(), WorkloadScale::Test).with_cache(cache.clone());
    let wide = narrow.clone().with_cluster(Cluster::homogeneous(
        GpuConfig::test_small(),
        2,
        InterconnectConfig::nvlink3(),
    ));
    let workload = Workload::stage(HeterogeneousMix::paper_mix(MixKind::Mix2, 0.02))
        .with_sharding(ShardingSpec::RoundRobin);
    let scheme = Scheme::combined();

    // The nominal one-batch service latency on the narrow replica sets the
    // SLA; the capacity search against that SLA sets the load unit every
    // fleet below is expressed in.
    let service_us = narrow
        .clone()
        .with_batch_size(BATCH)
        .run(&workload, &scheme)
        .latency_us;
    let sla_us = SLA_SERVICE_UNITS * service_us;
    let scenario = || {
        ServingScenario::new(
            TrafficModel::poisson(20_000.0),
            BatchingPolicy::fixed_size(BATCH),
        )
        .with_sla_us(sla_us)
    };
    let capacity = max_sustainable_qps(&narrow, &workload, &scheme, &scenario()).max_qps;
    assert!(
        capacity > 0.0 && capacity.is_finite(),
        "the deployment must sustain some bounded load"
    );
    // The SLA must bind: a replica cannot serve unboundedly faster than
    // back-to-back batches.
    assert!(
        capacity <= 8.0 * BATCH as f64 / service_us * 1e6,
        "the capacity search must be SLA-bounded ({capacity} qps)"
    );

    let mut doc = Json::object();
    doc.set(
        "schema",
        Json::Str("perf-envelope/bench-fleet/v1".to_string()),
    );
    doc.set("device", Json::Str(GpuConfig::test_small().name));
    doc.set("scale", Json::Str("test".to_string()));
    doc.set(
        "workload",
        Json::Str(
            HeterogeneousMix::paper_mix(MixKind::Mix2, 0.02)
                .name()
                .to_string(),
        ),
    );
    doc.set("service_us", Json::Num(service_us));
    doc.set("sla_us", Json::Num(sla_us));
    doc.set("batch", Json::UInt(BATCH as u64));
    doc.set("single_replica_capacity_qps", Json::Num(capacity));

    // ---- routing comparison at fixed fleet cost ----
    // A heterogeneous fleet: two wide (two-device, sharded) replicas and
    // one narrow (one-device) replica, offered more load than the narrow
    // replica alone sustains. Round-robin is load-blind and hands the
    // narrow replica a full third; the load-aware policies see its longer
    // estimated service time and shift traffic onto the wide replicas.
    let requests = 1_024u32;
    let routing_fleet = |routing: RoutingPolicy| {
        Fleet::new(TrafficModel::poisson(2.0 * capacity), requests, 0xF1)
            .with_routing(routing)
            .with_group(ReplicaGroup::new(wide.clone(), scenario()).with_replicas(2))
            .with_group(ReplicaGroup::new(narrow.clone(), scenario()))
    };
    let policies = [
        RoutingPolicy::round_robin(),
        RoutingPolicy::least_outstanding(),
        RoutingPolicy::latency_aware(0.3),
    ];
    let mut routing_points = Vec::new();
    let mut narrow_share = Vec::new();
    for routing in policies {
        let report = simulate_checked(&routing_fleet(routing), &workload, &scheme);
        // Replica 2 is the narrow one (pool order is group order).
        narrow_share.push(report.replicas[2].routed_requests);
        let mut point = Json::object();
        point.set("routing", Json::Str(routing.label()));
        point.set("report", report_to_json(&report));
        routing_points.push(point);
    }
    doc.set("routing_comparison", Json::Arr(routing_points));

    // ---- autoscale vs static over a diurnal day ----
    // A pool of three identical narrow replicas under a diurnal day whose
    // peak overloads one replica and whose trough idles the fleet; sized
    // so the day spans ~2 cycles of ~10 decision intervals each. Static
    // provisioning keeps all three lit all day; reactive autoscaling
    // follows the curve.
    let day_requests = 2_048u32;
    let mean_qps = (1.5 * capacity + 0.05 * capacity) / 2.0;
    let period_s = day_requests as f64 / mean_qps / 2.0;
    let diurnal = TrafficModel::diurnal(1.5 * capacity, 0.05 * capacity, period_s);
    let day_fleet = || {
        Fleet::new(diurnal, day_requests, 0xF2)
            .with_group(ReplicaGroup::new(narrow.clone(), scenario()).with_replicas(3))
            .with_interval_us(period_s * 1e6 / 10.0)
    };
    let static_report = simulate_checked(&day_fleet(), &workload, &scheme);
    let autoscaled_report = simulate_checked(
        &day_fleet().with_autoscale(AutoscalePolicy::reactive(0.8, 0.3, 0, 1, 3)),
        &workload,
        &scheme,
    );
    let mut day_doc = Json::object();
    day_doc.set("peak_qps", Json::Num(1.5 * capacity));
    day_doc.set("trough_qps", Json::Num(0.05 * capacity));
    day_doc.set("period_s", Json::Num(period_s));
    day_doc.set("static", report_to_json(&static_report));
    day_doc.set("autoscaled", report_to_json(&autoscaled_report));
    day_doc.set(
        "autoscale_events",
        Json::UInt(autoscaled_report.autoscale_events.len() as u64),
    );
    day_doc.set(
        "device_hours_saved",
        Json::Num(static_report.cost.device_hours - autoscaled_report.cost.device_hours),
    );
    doc.set("autoscale_vs_static", day_doc);

    // ---- cost/SLA Pareto frontier over static fleet sizes ----
    // The same diurnal day on static fleets of 1..=4 narrow replicas:
    // each size is a (device-hours, SLA-attainment) point, and the
    // frontier is what a capacity planner would pick from.
    let mut pareto_points = Vec::new();
    let mut coords = Vec::new();
    for replicas in 1u32..=4 {
        let fleet = Fleet::new(diurnal, day_requests, 0xF3)
            .with_group(ReplicaGroup::new(narrow.clone(), scenario()).with_replicas(replicas));
        let report = simulate_checked(&fleet, &workload, &scheme);
        coords.push((report.cost.device_hours, report.sla_attainment));
        let mut point = Json::object();
        point.set("replicas", Json::UInt(replicas as u64));
        point.set("report", report_to_json(&report));
        pareto_points.push(point);
    }
    let frontier = pareto_frontier(&coords);
    let mut pareto_doc = Json::object();
    pareto_doc.set("points", Json::Arr(pareto_points));
    pareto_doc.set(
        "frontier",
        Json::Arr(frontier.iter().map(|&i| Json::UInt(i as u64)).collect()),
    );
    doc.set("cost_sla_pareto", pareto_doc);

    let mut cache_doc = Json::object();
    cache_doc.set("distinct_cells_simulated", Json::UInt(cache.misses()));
    doc.set("cache", cache_doc);

    let rendered = doc.render();
    std::fs::write(&out_path, &rendered).expect("failed to write the benchmark report");
    println!("{rendered}");
    println!();
    println!(
        "fleet study on {} (capacity {:.0} qps/replica): narrow-replica share \
         {}/{}/{} of {requests} under round-robin/least-outstanding/latency-aware; \
         diurnal day {:.4} device-hours static vs {:.4} autoscaled \
         ({} scale events); Pareto frontier over static sizes: {:?}; wrote {out_path}",
        HeterogeneousMix::paper_mix(MixKind::Mix2, 0.02).name(),
        capacity,
        narrow_share[0],
        narrow_share[1],
        narrow_share[2],
        static_report.cost.device_hours,
        autoscaled_report.cost.device_hours,
        autoscaled_report.autoscale_events.len(),
        frontier,
    );

    // ---- headline contracts ----
    assert!(
        narrow_share[1] < narrow_share[0] && narrow_share[2] < narrow_share[0],
        "load-aware routing must shift traffic off the slow replica \
         (round-robin gave it {}, least-outstanding {}, latency-aware {})",
        narrow_share[0],
        narrow_share[1],
        narrow_share[2]
    );
    assert!(
        autoscaled_report.cost.device_hours < static_report.cost.device_hours,
        "following the diurnal curve must cost fewer device-hours than \
         static provisioning ({} vs {})",
        autoscaled_report.cost.device_hours,
        static_report.cost.device_hours
    );
    assert_eq!(
        autoscaled_report.served_requests, day_requests,
        "the drain contract: autoscaling must not lose in-flight work"
    );
    assert!(
        autoscaled_report
            .autoscale_events
            .iter()
            .any(|e| e.action == "scale_out")
            && autoscaled_report
                .autoscale_events
                .iter()
                .any(|e| e.action == "scale_in"),
        "the diurnal day must force both scale directions"
    );
    assert!(
        static_report.autoscale_events.is_empty(),
        "static provisioning records no scale events"
    );
    assert_eq!(
        frontier[0], 0,
        "the cheapest static fleet is never dominated"
    );
    assert!(
        coords[3].1 >= coords[0].1,
        "four replicas must attain at least the single replica's SLA rate"
    );
    assert!(
        cache.hits() > 0,
        "fleets over the same replicas must share priced shapes through the campaign cache"
    );
}

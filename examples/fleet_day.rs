//! A day in the life of a serving fleet: replica sets, routing policies
//! and reactive autoscaling on top of the PR 10 fleet layer
//! (`perf_envelope::fleet`).
//!
//! The example (1) builds a heterogeneous fleet from the cluster presets —
//! two NVLink-connected 2×A100 replicas next to one older PCIe replica —
//! and anchors the latency SLA to the measured service time, (2) compares
//! the three routing policies under rush-hour load, watching how much
//! traffic each hands the slow PCIe replica, (3) serves a full diurnal
//! day twice, statically provisioned and reactively autoscaled, and
//! compares device-hours against SLA attainment, and (4) shows the
//! fleet-wide campaign cache pricing every distinct batch shape exactly
//! once across the whole day, no matter how many replicas share it.
//!
//! ```text
//! cargo run --release --example fleet_day [SCALE]
//! ```

use dlrm::WorkloadScale;
use dlrm_datasets::{HeterogeneousMix, MixKind};
use gpu_sim::GpuConfig;
use perf_envelope::{
    max_sustainable_qps, AutoscalePolicy, BatchingPolicy, CampaignCache, Cluster, Experiment,
    Fleet, ReplicaGroup, RoutingPolicy, Scheme, ServingScenario, ShardingSpec, TrafficModel,
    Workload,
};

const BATCH: u32 = 64;

fn main() {
    let scale = std::env::args()
        .nth(1)
        .and_then(|s| WorkloadScale::from_name(&s))
        .unwrap_or(WorkloadScale::Test);
    let cache = CampaignCache::new();
    let workload = Workload::stage(HeterogeneousMix::paper_mix(MixKind::Mix2, 0.02))
        .with_sharding(ShardingSpec::RoundRobin);
    let scheme = Scheme::combined();

    // --- 1. The fleet: two NVLink 2xA100 replicas + one PCIe replica. ----
    let nvlink = Experiment::new(GpuConfig::a100(), scale)
        .with_cluster(Cluster::a100_replica(2))
        .with_cache(cache.clone());
    let pcie = Experiment::new(GpuConfig::a100(), scale)
        .with_cluster(Cluster::a100_pcie_replica(2))
        .with_cache(cache.clone());
    let service_us = nvlink
        .clone()
        .with_batch_size(BATCH)
        .run(&workload, &scheme)
        .latency_us;
    let sla_us = 4.0 * service_us;
    let scenario = || {
        ServingScenario::new(
            TrafficModel::poisson(20_000.0),
            BatchingPolicy::fixed_size(BATCH),
        )
        .with_sla_us(sla_us)
    };
    let capacity = max_sustainable_qps(&nvlink, &workload, &scheme, &scenario()).max_qps;
    println!(
        "fleet of 2x NVLink A100 pairs + 1x PCIe pair serving {} at {scale:?} scale",
        HeterogeneousMix::paper_mix(MixKind::Mix2, 0.02).name()
    );
    println!(
        "  one batch of {BATCH}: {service_us:.0} us on NVLink; SLA {sla_us:.0} us; \
         one NVLink replica sustains {capacity:.0} qps\n"
    );

    // --- 2. Rush hour: how each routing policy treats the slow replica. --
    println!("rush hour at 2x single-replica capacity, by routing policy:");
    let rush = |routing: RoutingPolicy| {
        Fleet::new(TrafficModel::poisson(2.0 * capacity), 1_024, 2024)
            .with_routing(routing)
            .with_group(ReplicaGroup::new(nvlink.clone(), scenario()).with_replicas(2))
            .with_group(ReplicaGroup::new(pcie.clone(), scenario()))
            .simulate(&workload, &scheme)
    };
    for routing in [
        RoutingPolicy::round_robin(),
        RoutingPolicy::least_outstanding(),
        RoutingPolicy::latency_aware(0.3),
    ] {
        let report = rush(routing);
        println!(
            "  {:<22} p50 {:>7.1} us  p99 {:>7.1} us  attainment {:>6.1}%  \
             pcie share {:>3}/{}",
            routing.label(),
            report.latency.p50_us,
            report.latency.p99_us,
            report.sla_attainment * 100.0,
            report.replicas[2].routed_requests,
            report.requests,
        );
    }

    // --- 3. A diurnal day, static vs reactively autoscaled. --------------
    let requests = 2_048u32;
    let mean_qps = (1.5 * capacity + 0.05 * capacity) / 2.0;
    let period_s = requests as f64 / mean_qps / 2.0;
    let day = || {
        Fleet::new(
            TrafficModel::diurnal(1.5 * capacity, 0.05 * capacity, period_s),
            requests,
            2024,
        )
        .with_group(ReplicaGroup::new(nvlink.clone(), scenario()).with_replicas(3))
        .with_interval_us(period_s * 1e6 / 10.0)
    };
    let static_day = day().simulate(&workload, &scheme);
    let scaled_day = day()
        .with_autoscale(AutoscalePolicy::reactive(0.8, 0.3, 0, 1, 3))
        .simulate(&workload, &scheme);
    println!("\na diurnal day ({requests} requests, peak 1.5x / trough 0.05x capacity):");
    for (label, report) in [("static x3", &static_day), ("autoscaled", &scaled_day)] {
        println!(
            "  {:<11} {:>6.0} device-us  attainment {:>5.1}%  served {}/{}  \
             scale events {}",
            label,
            report.cost.device_us,
            report.sla_attainment * 100.0,
            report.served_requests,
            report.requests,
            report.autoscale_events.len(),
        );
    }
    for event in &scaled_day.autoscale_events {
        println!(
            "    t={:>8.0} us  {:<9}  -> {} live (utilization {:.2})",
            event.at_us, event.action, event.live_replicas, event.utilization
        );
    }
    println!(
        "  autoscaling saved {:.0} device-us; the drain contract lost no work",
        static_day.cost.device_us - scaled_day.cost.device_us
    );

    // --- 4. One cache priced the whole day. ------------------------------
    println!(
        "\ncampaign cache: {} distinct cells simulated",
        cache.misses()
    );
}

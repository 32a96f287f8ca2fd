//! An ad-serving style scenario: a production model whose embedding tables
//! differ in hotness (the paper's heterogeneous mixes, Table VII), served
//! under a latency SLA.
//!
//! The example (1) runs the functional DLRM forward pass to rank ads for a
//! batch of requests, then drives the real serving layer
//! (`perf_envelope::serving`): (2) for every paper mix it simulates Poisson
//! traffic through an adaptive batcher on each optimization scheme and
//! picks the cheapest scheme meeting the SLA, (3) it binary-searches
//! the chosen deployment's capacity — the max sustainable QPS under the
//! SLA — unsharded and sharded across a 2-GPU cluster, (4) it asks
//! the what-if question a capacity planner actually has: how much more
//! traffic does the same GPU sustain with K batches co-resident
//! (CUDA-streams/MPS style), sweeping K with `stream_capacity_sweep`, and
//! (5) it rehearses an incident: a replica crash-and-recover mid-rush,
//! comparing no retries against a hedged policy on two streams. A
//! shared `CampaignCache` prices every distinct batch shape exactly once
//! across the whole study.
//!
//! ```text
//! cargo run --release --example ad_serving [SCALE] [SLA_MS] [QPS]
//! ```
//!
//! The defaults are `test`, 25 ms and 120,000 qps. An unknown scale, or an
//! SLA or rate that is not a positive finite number, exits with code 2.

mod args;

use dlrm::{DlrmConfig, DlrmForward, WorkloadScale};
use dlrm_datasets::{AccessPattern, HeterogeneousMix, MixKind};
use gpu_sim::{GpuConfig, StreamPartition};
use perf_envelope::{
    max_sustainable_qps, select_scheme, stream_capacity_sweep, BatchingPolicy, CampaignCache,
    Cluster, Experiment, FaultEvent, FaultPlan, InterconnectConfig, RetryPolicy, Scheme,
    ServingScenario, ShardingSpec, StreamConfig, TrafficModel, Workload,
};

/// The positive finite number in command-line argument `n` (its meaning
/// is `what`), or `default` when it is absent.
fn positive_arg(n: usize, what: &str, default: f64) -> f64 {
    match std::env::args().nth(n) {
        None => default,
        Some(text) => text
            .parse()
            .ok()
            .filter(|v: &f64| v.is_finite() && *v > 0.0)
            .unwrap_or_else(|| {
                args::refuse(
                    "ad_serving",
                    &format!("{what} '{text}' is not a positive finite number"),
                )
            }),
    }
}

fn main() {
    let scale = args::scale("ad_serving", std::env::args().nth(1));
    let sla_ms = positive_arg(2, "SLA_MS", 25.0);
    let qps = positive_arg(3, "QPS", 120_000.0);

    // --- 1. Functional pass: rank ads for a small batch of requests. ------
    let config = DlrmConfig::at_scale(WorkloadScale::Test);
    let model = DlrmForward::new(config.clone(), 2024);
    let traces: Vec<_> = (0..config.num_tables)
        .map(|t| {
            config
                .embedding
                .trace
                .generate(AccessPattern::HighHot, 100 + t as u64)
        })
        .collect();
    let dense: Vec<f32> = (0..config.batch_size() as usize * config.bottom_mlp[0] as usize)
        .map(|i| ((i * 37) % 101) as f32 / 101.0 - 0.5)
        .collect();
    let output = model.forward(&dense, &traces);
    println!(
        "scored {} ad candidates; top-5 by predicted CTR:",
        output.batch_size()
    );
    for (rank, idx) in output.top_k(5).into_iter().enumerate() {
        println!(
            "  #{:<2} candidate {:<4} ctr={:.4}",
            rank + 1,
            idx,
            output.predictions[idx]
        );
    }

    // --- 2. SLA-aware serving: pick the cheapest qualifying scheme. -------
    println!(
        "\nserving study at {} scale: Poisson traffic at {qps:.0} qps, \
         adaptive batching, SLA p99 <= {sla_ms:.1} ms:",
        scale.name()
    );

    // Cheapest first: every scheme to the right costs more engineering
    // (register tuning, prefetch stations, L2 carve-outs) than the ones
    // before it, so the selection stops at the first that qualifies.
    let schemes = [
        Scheme::base(),
        Scheme::optmt(),
        Scheme::rpf_optmt(),
        Scheme::combined(),
    ];
    let cache = CampaignCache::new();
    let experiment = Experiment::new(GpuConfig::a100(), scale).with_cache(cache.clone());
    let policy = BatchingPolicy::adaptive(16, 256);
    // Batches the study's printed simulations served: what a per-batch
    // pricing lookup would have cost.
    let mut batches_served = 0u64;

    let scenario_for = |experiment: &Experiment, workload: &Workload| {
        // Size the trace so a saturated backlog overshoots the SLA: the
        // boundary must sit inside the simulated horizon.
        let service_us = experiment
            .run(workload, &Scheme::base())
            .latency_us
            .max(1.0);
        let batches = (sla_ms * 1e3 * 3.0 / service_us).ceil() as u32 + 2;
        ServingScenario::new(TrafficModel::poisson(qps), policy)
            .with_requests(batches * 256)
            .with_sla_us(sla_ms * 1e3)
    };

    let mixes: Vec<HeterogeneousMix> = MixKind::ALL
        .into_iter()
        .map(|kind| HeterogeneousMix::paper_mix(kind, 1.0))
        .collect();
    for mix in &mixes {
        let workload = Workload::end_to_end(mix.clone());
        let scenario = scenario_for(&experiment, &workload);
        println!("\n--- {} ({} tables) ---", mix.name(), mix.total_tables());
        for scheme in &schemes {
            let report = scenario.simulate(&experiment, &workload, scheme);
            batches_served += u64::from(report.batches);
            println!(
                "{:<16} p99 {:>7.2} ms  viol {:>5.1}%  util {:>5.1}%  {}",
                report.scheme,
                report.latency.p99_us / 1e3,
                report.sla_violation_rate * 100.0,
                report.utilization[0].utilization * 100.0,
                if report.meets_sla() {
                    "meets SLA"
                } else {
                    "violates SLA"
                }
            );
        }
        match select_scheme(&experiment, &workload, &schemes, &scenario) {
            Some(choice) => println!(
                "=> cheapest qualifying scheme: {} (p99 {:.2} ms)",
                choice.report.scheme,
                choice.report.latency.p99_us / 1e3
            ),
            None => println!("=> no scheme meets the SLA at {qps:.0} qps"),
        }
    }

    // --- 3. Capacity: how much traffic does the deployment sustain? -------
    let workload = Workload::end_to_end(mixes[1].clone());
    let scheme = Scheme::combined();
    let scenario = scenario_for(&experiment, &workload);
    let unsharded = max_sustainable_qps(&experiment, &workload, &scheme, &scenario);

    let sharded_experiment = experiment.clone().with_cluster(Cluster::homogeneous(
        GpuConfig::a100(),
        2,
        InterconnectConfig::nvlink3(),
    ));
    let sharded_workload = workload.clone().with_sharding(ShardingSpec::SizeBalanced);
    let sharded_scenario = scenario_for(&sharded_experiment, &sharded_workload);
    let sharded = max_sustainable_qps(
        &sharded_experiment,
        &sharded_workload,
        &scheme,
        &sharded_scenario,
    );

    println!(
        "\ncapacity under the {sla_ms:.1} ms SLA ({} under {}):",
        mixes[1].name(),
        scheme.paper_label()
    );
    println!(
        "  1x {:<16} {:>9.0} qps  ({} search probes)",
        experiment.gpu().name,
        unsharded.max_qps,
        unsharded.probes
    );
    println!(
        "  2x {:<16} {:>9.0} qps  ({:.2}x, size-balanced sharding)",
        experiment.gpu().name,
        sharded.max_qps,
        sharded.max_qps / unsharded.max_qps.max(1.0)
    );
    // --- 4. What-if: K concurrent streams on the same single GPU. ---------
    // The A100 preset admits up to 7 co-resident streams; sweep the
    // interesting low end. Interleaved issue shares every SM's issue
    // slots, so co-resident batches hide each other's memory stalls.
    let candidates: Vec<StreamConfig> = [1u32, 2, 4]
        .iter()
        .map(|&k| StreamConfig::new(k, StreamPartition::Interleaved))
        .collect();
    let sweep = stream_capacity_sweep(&experiment, &workload, &scheme, &scenario, &candidates);
    println!(
        "\nwhat-if: concurrent streams on one {}:",
        experiment.gpu().name
    );
    for point in &sweep {
        if point.capacity.probes > 64 {
            // The doubling search hit its probe cap: with this many streams
            // the fixed trace drains inside the SLA at any offered load.
            println!(
                "  K={} ({:<13}) effectively unbounded (trace drains within the SLA)",
                point.streams.streams(),
                point.streams.name(),
            );
        } else {
            println!(
                "  K={} ({:<13}) {:>9.0} qps  ({:.2}x of single-stream)",
                point.streams.streams(),
                point.streams.name(),
                point.capacity.max_qps,
                point.capacity.max_qps / sweep[0].capacity.max_qps.max(1.0)
            );
        }
    }

    // --- 5. What-if: a replica crash-and-recover mid-rush. ----------------
    // Two concurrent streams serve a traffic rush when one replica crashes
    // mid-flight and recovers 1.5 service times later. Without retries the
    // in-flight batches are simply lost; a hedged policy re-launches slow
    // or lost work on the other stream and wins it back.
    let k2 = StreamConfig::new(2, StreamPartition::Interleaved);
    let resilient_experiment = experiment.clone().with_streams(k2);
    let service_us = resilient_experiment
        .clone()
        .with_batch_size(256)
        .run(&workload, &scheme)
        .latency_us;
    let crash = FaultPlan::new(vec![FaultEvent::crash(
        0,
        2.5 * service_us,
        4.0 * service_us,
    )]);
    let rush = ServingScenario::new(
        TrafficModel::uniform(100.0 * 256.0 / service_us * 1e6),
        BatchingPolicy::fixed_size(256),
    )
    .with_requests(256 * 8)
    .with_sla_us(sla_ms * 1e3);
    let no_retry =
        rush.clone()
            .with_faults(crash.clone())
            .simulate(&resilient_experiment, &workload, &scheme);
    let hedged = rush
        .with_faults(crash)
        .with_retry(RetryPolicy::hedged(1.5))
        .simulate(&resilient_experiment, &workload, &scheme);
    println!(
        "\nwhat-if: one replica crashes at t={:.2} ms and recovers at t={:.2} ms \
         during a {}-request rush (K=2):",
        2.5 * service_us / 1e3,
        4.0 * service_us / 1e3,
        no_retry.requests
    );
    for (label, report) in [("no retries", &no_retry), ("hedged(1.5x)", &hedged)] {
        batches_served += u64::from(report.batches);
        println!(
            "  {:<12} availability {:>6.3}  failed {:>4}  hedges {:>2}  \
             p99 {:>7.2} ms  goodput {:>8.0} qps",
            label,
            report.availability,
            report.failed_requests,
            report.hedges,
            report.latency.p99_us / 1e3,
            report.goodput_qps
        );
    }
    for entry in &no_retry.fault_events {
        println!(
            "  timeline: {} hit {} batches / {} requests without retries",
            entry.event, entry.batches_affected, entry.requests_affected
        );
    }

    println!("\ncache: {} distinct cells simulated once", cache.misses());
    assert_eq!(
        cache.misses(),
        cache.len() as u64,
        "the shared cache must simulate each distinct cell exactly once"
    );
    assert!(
        cache.hits() > 0,
        "the shared cache must serve the cells later runs of the study repeat"
    );
    // Each simulation and capacity search prices a shape once, so the whole
    // study, searches included, looks up fewer cells than the batches its
    // printed simulations alone served.
    assert!(
        cache.hits() + cache.misses() < batches_served,
        "{} lookups for {batches_served} batches: repeated batch shapes must be priced once",
        cache.hits() + cache.misses()
    );
}

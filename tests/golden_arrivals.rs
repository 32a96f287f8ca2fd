//! Golden arrivals: the request-arrival traces `TrafficModel` generates,
//! and the capacity searches and fleet built on them, stay exactly what
//! earlier builds produced.
//!
//! Every serving, capacity and fleet report is a function of the arrival
//! trace, and the capacity search runs one trace per probe at a different
//! rate, so a change to how a trace is drawn or rescaled moves them all.
//! This suite pins, against `tests/fixtures/golden_arrivals.txt`, one
//! `label<TAB>hex<TAB>count` line per cell:
//!
//! * the FNV-1a of the arrival-time bits of all four traffic models ×
//!   requests {1, 2, 257, 4,096} × seeds {1, 2, 7} × `at_qps` at
//!   {0.5, 1, 3} times the model's offered QPS (count: trace length);
//! * `max_sustainable_qps` on `test_small`, end-to-end Mix2(1.0) under
//!   RPF+L2P+OptMT: one fixed-size(256) search under the default 25 ms
//!   SLA, which never finds a violating rate, then, under an SLA of three
//!   full-batch service times, the fixed-size(256), timeout(256, 2 ms) and
//!   adaptive(16..256) policies × K ∈ {1, 2 interleaved} streams and one
//!   fixed-size search under a crash + straggler plan: the bits of
//!   `max_qps` (count: probes) and the FNV-1a of the report JSON (count:
//!   its length);
//! * the JSON of one diurnal fleet of three replicas, autoscaled on their
//!   searched capacity.
//!
//! The fixture is a record of what earlier builds generated, so it must
//! never be regenerated from the code it checks. To extend the grid, add
//! cells here, copy this file into a checkout of the last commit whose
//! traffic generation is canonical, and run there
//! `GOLDEN_ARRIVALS_WRITE=$PWD/tests/fixtures/golden_arrivals.txt cargo test --test golden_arrivals`.

use dlrm::WorkloadScale;
use dlrm_datasets::{HeterogeneousMix, MixKind};
use gpu_sim::{GpuConfig, StreamPartition};
use perf_envelope::{
    max_sustainable_qps, AutoscalePolicy, BatchingPolicy, CampaignCache, Experiment, FaultEvent,
    FaultPlan, Fleet, ReplicaGroup, RetryPolicy, RoutingPolicy, Scheme, ServingScenario,
    StreamConfig, TrafficModel, Workload,
};

const FIXTURE: &str = include_str!("fixtures/golden_arrivals.txt");

const REQUESTS: [u32; 4] = [1, 2, 257, 4_096];
const SEEDS: [u64; 3] = [1, 2, 7];
const RATE_FACTORS: [f64; 3] = [0.5, 1.0, 3.0];

/// Arrival seed of the capacity searches and the fleet.
const SEARCH_SEED: u64 = 0x5EED;

/// 64-bit FNV-1a.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |hash, b| {
        (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn models() -> [TrafficModel; 4] {
    [
        TrafficModel::uniform(1_000.0),
        TrafficModel::poisson(1_000.0),
        TrafficModel::bursty(1_000.0, 7),
        TrafficModel::diurnal(2_000.0, 200.0, 1.0),
    ]
}

fn deployment() -> (Workload, Scheme) {
    (
        Workload::end_to_end(HeterogeneousMix::paper_mix(MixKind::Mix2, 1.0)),
        Scheme::combined(),
    )
}

/// `(label, hex value, count)` of every pinned cell, in fixture order.
fn grid() -> Vec<(String, u64, u64)> {
    let mut cells = Vec::new();

    // Arrival traces.
    for model in models() {
        for requests in REQUESTS {
            for seed in SEEDS {
                for factor in RATE_FACTORS {
                    let times = model
                        .at_qps(factor * model.offered_qps())
                        .arrival_times_us(requests, seed);
                    cells.push((
                        format!("{}/requests={requests}/seed={seed}/x{factor}", model.name()),
                        fnv1a(times.iter().flat_map(|t| t.to_bits().to_le_bytes())),
                        times.len() as u64,
                    ));
                }
            }
        }
    }

    // Capacity searches.
    let (workload, scheme) = deployment();
    let experiment = Experiment::new(GpuConfig::test_small(), WorkloadScale::Test)
        .with_cache(CampaignCache::new());
    let mut search = |label: String, experiment: &Experiment, scenario: &ServingScenario| {
        let result = max_sustainable_qps(experiment, &workload, &scheme, scenario);
        let json = result.report.to_json();
        cells.push((
            format!("{label}/max_qps"),
            result.max_qps.to_bits(),
            u64::from(result.probes),
        ));
        cells.push((
            format!("{label}/report"),
            fnv1a(json.bytes()),
            json.len() as u64,
        ));
        result.max_qps
    };
    // Under the default 25 ms SLA a 1,024-request trace drains in time at
    // any rate, so that search only doubles up to its probe cap. Under an
    // SLA of three full-batch service times the grid takes every exit of
    // the search: most cells bracket and bisect, the K=2 fixed-size and
    // timeout cells still reach the cap, and the faulted cell finds no
    // sustainable rate at all.
    let service_us = experiment
        .clone()
        .with_batch_size(256)
        .run(&workload, &scheme)
        .latency_us;
    let sla_us = 3.0 * service_us;
    let unbounded = ServingScenario::new(
        TrafficModel::poisson(1_000.0),
        BatchingPolicy::fixed_size(256),
    )
    .with_seed(SEARCH_SEED);
    search(
        "capacity/fixed_size(256)/K=1/sla=25ms".to_string(),
        &experiment,
        &unbounded,
    );
    let mut capacity_qps = 0.0;
    for policy in [
        BatchingPolicy::fixed_size(256),
        BatchingPolicy::timeout(256, 2_000.0),
        BatchingPolicy::adaptive(16, 256),
    ] {
        for streams in [1, 2] {
            let scenario = ServingScenario::new(TrafficModel::poisson(1_000.0), policy)
                .with_sla_us(sla_us)
                .with_seed(SEARCH_SEED);
            let deployed = experiment
                .clone()
                .with_streams(StreamConfig::new(streams, StreamPartition::Interleaved));
            let max_qps = search(
                format!("capacity/{}/K={streams}", policy.label()),
                &deployed,
                &scenario,
            );
            if capacity_qps == 0.0 {
                capacity_qps = max_qps;
            }
        }
    }
    let faulted = ServingScenario::new(
        TrafficModel::poisson(1_000.0),
        BatchingPolicy::fixed_size(256),
    )
    .with_sla_us(sla_us)
    .with_seed(SEARCH_SEED)
    .with_faults(FaultPlan::new(vec![
        FaultEvent::crash(0, 2.5 * service_us, 4.0 * service_us),
        FaultEvent::straggler(0, 6.0 * service_us, 9.0 * service_us, 4.0),
    ]))
    .with_retry(RetryPolicy::fixed(3, 100.0));
    search(
        "capacity/fixed_size(256)/K=1/crash+straggler".to_string(),
        &experiment,
        &faulted,
    );

    // A diurnal day whose peak overloads one replica: about two cycles of
    // ten decision intervals, autoscaled between one and three replicas.
    let requests = 8_192u32;
    let mean_qps = (1.5 + 0.05) * capacity_qps / 2.0;
    let period_s = requests as f64 / mean_qps / 2.0;
    let fleet = Fleet::new(
        TrafficModel::diurnal(1.5 * capacity_qps, 0.05 * capacity_qps, period_s),
        requests,
        SEARCH_SEED,
    )
    .with_group(
        ReplicaGroup::new(
            experiment,
            ServingScenario::new(
                TrafficModel::poisson(1_000.0),
                BatchingPolicy::fixed_size(256),
            )
            .with_sla_us(sla_us),
        )
        .with_replicas(3),
    )
    .with_interval_us(period_s * 1e6 / 10.0)
    .with_routing(RoutingPolicy::latency_aware(0.3))
    .with_autoscale(AutoscalePolicy::reactive(0.8, 0.3, 0, 1, 3));
    let report = fleet.simulate(&workload, &scheme);
    assert!(
        !report.autoscale_events.is_empty(),
        "the fleet cell must exercise autoscaling"
    );
    let json = report.to_json();
    cells.push((
        "fleet/diurnal_autoscaled".to_string(),
        fnv1a(json.bytes()),
        json.len() as u64,
    ));
    cells
}

#[test]
fn arrivals_and_capacity_searches_match_the_golden_fixture() {
    let lines: Vec<String> = grid()
        .iter()
        .map(|(label, value, count)| format!("{label}\t{value:016x}\t{count}"))
        .collect();
    if let Ok(path) = std::env::var("GOLDEN_ARRIVALS_WRITE") {
        let text: String = lines.iter().map(|line| format!("{line}\n")).collect();
        std::fs::write(&path, text).expect("fixture is writable");
        return;
    }
    let golden: Vec<&str> = FIXTURE.lines().collect();
    assert_eq!(
        lines.len(),
        golden.len(),
        "the grid and the fixture list different cells"
    );
    for (line, golden_line) in lines.iter().zip(&golden) {
        assert_eq!(line, golden_line, "a pinned cell changed");
    }
}

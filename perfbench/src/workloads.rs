//! The three workloads, each built from the run's seed.
//!
//! * `a100_sweep` — the paper's unit of work: A100 embedding-stage cells at
//!   Default scale. The engine and memory hierarchy do nearly all the work,
//!   on simulated state far larger than the host caches.
//! * `campaign_rerun` — sharded end-to-end cells on `test_small`, one
//!   campaign per 1-, 2- and 4-device cluster, rerun cold and then warm:
//!   sharded fan-out and the reduce on host-cache-resident state, then
//!   almost nothing but fingerprinting.
//! * `serving_fleet` — capacity searches, faulted scenarios and a diurnal
//!   fleet over batch shapes set-up priced: traffic generation, dispatch,
//!   fault windows and routing, with no engine work.
//!
//! Each workload also measures every end-to-end metric on a small side
//! phase (A100 cells served warm, one serving scenario over already-priced
//! cells, a few serving batch shapes priced cold), so a change aimed at
//! one layer is checked for no change on the others.

use dlrm_gpu_repro::dlrm::WorkloadScale;
use dlrm_gpu_repro::dlrm_datasets::{AccessPattern, HeterogeneousMix, MixKind};
use dlrm_gpu_repro::gpu_sim::{GpuConfig, StreamPartition};
use dlrm_gpu_repro::perf_envelope::{
    AutoscalePolicy, BatchingPolicy, CampaignCache, Cluster, Experiment, FaultEvent, FaultPlan,
    Fleet, InterconnectConfig, ReplicaGroup, RetryPolicy, RoutingPolicy, Scheme, ServingScenario,
    ShardingSpec, StreamConfig, TrafficModel, Workload,
};

use crate::bench::{Job, Plan, ServingOp};

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["a100_sweep", "campaign_rerun", "serving_fleet"];

/// Salt separating the arrival-trace seed from the embedding-trace seed.
const ARRIVAL_SALT: u64 = 0xA5_5EED;

/// Requests per side-phase serving scenario.
const SIDE_REQUESTS: u32 = 8192;

/// Builds workload `name` from `seed` without running anything.
pub fn build(name: &str, seed: u64) -> Option<Plan> {
    let plan = match name {
        "a100_sweep" => a100_sweep(seed),
        "campaign_rerun" => campaign_rerun(seed),
        "serving_fleet" => serving_fleet(seed),
        _ => return None,
    };
    Some(plan)
}

/// Builds workload `name` from `seed` and sets it up: the serving
/// operations run once, which prices every cell they need (the discarded
/// warm-up) and sizes the operations that depend on measured capacity.
pub fn set_up(name: &str, seed: u64) -> Option<Plan> {
    let mut plan = build(name, seed)?;
    match name {
        "a100_sweep" => {
            let experiment = a100(seed).with_cache(plan.serving_cache.clone());
            plan.serving.push(side_scenario(
                experiment,
                Workload::stage(AccessPattern::Random),
                Scheme::combined(),
                seed,
            ));
        }
        "campaign_rerun" => {
            let experiment = small(seed)
                .with_cluster(nvlink3(2))
                .with_cache(plan.serving_cache.clone());
            plan.serving.push(side_scenario(
                experiment,
                rerun_workloads()[0].clone(),
                Scheme::combined(),
                seed,
            ));
        }
        _ => {
            plan.prime();
            add_fleet_ops(&mut plan, seed);
        }
    }
    plan.prime();
    Some(plan)
}

fn a100(seed: u64) -> Experiment {
    Experiment::new(GpuConfig::a100(), WorkloadScale::Default)
        .with_seed(seed)
        .with_threads(1)
}

fn small(seed: u64) -> Experiment {
    Experiment::new(GpuConfig::test_small(), WorkloadScale::Test)
        .with_seed(seed)
        .with_threads(1)
}

fn nvlink3(devices: usize) -> Cluster {
    Cluster::homogeneous(
        GpuConfig::test_small(),
        devices,
        InterconnectConfig::nvlink3(),
    )
}

fn interleaved(streams: u32) -> StreamConfig {
    StreamConfig::new(streams, StreamPartition::Interleaved)
}

/// One Poisson serving scenario at half the saturation rate of the
/// experiment's configured batch, which set-up has just priced.
fn side_scenario(
    experiment: Experiment,
    workload: Workload,
    scheme: Scheme,
    seed: u64,
) -> ServingOp {
    let batch = experiment.model().batch_size();
    let service_us = experiment.run(&workload, &scheme).latency_us;
    let scenario = ServingScenario::new(
        TrafficModel::poisson(0.5 * batch as f64 / service_us * 1e6),
        BatchingPolicy::fixed_size(batch),
    )
    .with_requests(SIDE_REQUESTS)
    .with_seed(seed ^ ARRIVAL_SALT);
    ServingOp::Simulate(experiment, workload, scheme, scenario)
}

fn a100_sweep(seed: u64) -> Plan {
    let base = a100(seed);
    let mut jobs = Vec::new();
    for pattern in AccessPattern::EVALUATED {
        for scheme in [Scheme::base(), Scheme::optmt(), Scheme::combined()] {
            let label = format!("a100 {:?} {}", pattern, scheme.paper_label());
            let job = Job::cell(label, base.clone(), 1, Workload::stage(pattern), scheme);
            // The cycle-accurate subset: two patterns under base and under
            // the full combination.
            let reference = matches!(pattern, AccessPattern::MedHot | AccessPattern::Random)
                && scheme != Scheme::optmt();
            jobs.push(if reference {
                job.with_cycle_accurate()
            } else {
                job
            });
        }
    }
    jobs.push(Job::cell(
        "a100 K=2 interleaved",
        base.with_streams(interleaved(2)),
        1,
        Workload::stage(AccessPattern::MedHot),
        Scheme::base(),
    ));
    Plan {
        jobs,
        serving: Vec::new(),
        serving_cache: CampaignCache::new(),
        primed: Vec::new(),
        shares: [0.9, 0.05, 0.05],
        check_workers: false,
    }
}

fn rerun_workloads() -> Vec<Workload> {
    ShardingSpec::ALL
        .iter()
        .map(|&spec| {
            Workload::end_to_end(HeterogeneousMix::paper_mix(MixKind::Mix2, 0.05))
                .with_sharding(spec)
        })
        .collect()
}

fn campaign_rerun(seed: u64) -> Plan {
    let schemes = vec![Scheme::base(), Scheme::optmt(), Scheme::combined()];
    let seeds: Vec<u64> = (0..4).map(|i| seed.wrapping_add(i)).collect();
    let jobs = [1, 2, 4]
        .into_iter()
        .map(|devices| {
            Job::grid(
                format!("campaign on {devices} x test_small"),
                small(seed).with_cluster(nvlink3(devices)),
                1,
                rerun_workloads(),
                schemes.clone(),
                seeds.clone(),
            )
            .with_cycle_accurate()
        })
        .collect();
    Plan {
        jobs,
        serving: Vec::new(),
        serving_cache: CampaignCache::new(),
        primed: Vec::new(),
        shares: [0.7, 0.2, 0.1],
        check_workers: true,
    }
}

/// The serving_fleet deployment: one test_small device, end-to-end
/// Mix2(1.0) under RPF+L2P+OptMT.
fn serving_deployment() -> (Workload, Scheme) {
    (
        Workload::end_to_end(HeterogeneousMix::paper_mix(MixKind::Mix2, 1.0)),
        Scheme::combined(),
    )
}

fn serving_policies() -> [BatchingPolicy; 3] {
    [
        BatchingPolicy::fixed_size(256),
        BatchingPolicy::timeout(256, 2_000.0),
        BatchingPolicy::adaptive(16, 256),
    ]
}

fn serving_fleet(seed: u64) -> Plan {
    let (workload, scheme) = serving_deployment();
    let cache = CampaignCache::new();
    let experiment = small(seed).with_cache(cache.clone());
    let mut serving = Vec::new();
    for policy in serving_policies() {
        for streams in [1, 2] {
            let scenario = ServingScenario::new(TrafficModel::poisson(1_000.0), policy)
                .with_seed(seed ^ ARRIVAL_SALT);
            serving.push(ServingOp::Capacity(
                experiment.clone().with_streams(interleaved(streams)),
                workload.clone(),
                scheme,
                scenario,
            ));
        }
    }
    // Cold cells: serving batch shapes priced from scratch, each also
    // under the cycle-accurate engine.
    let mut jobs: Vec<Job> = [16, 32, 64, 128, 256]
        .into_iter()
        .map(|batch| {
            Job::cell(
                format!("test_small batch {batch}"),
                small(seed).with_batch_size(batch),
                1,
                workload.clone(),
                scheme,
            )
            .with_cycle_accurate()
        })
        .collect();
    jobs.push(
        Job::cell(
            "test_small batch 256 K=2 interleaved",
            small(seed)
                .with_batch_size(256)
                .with_streams(interleaved(2)),
            1,
            workload,
            scheme,
        )
        .with_cycle_accurate(),
    );
    Plan {
        jobs,
        serving,
        serving_cache: cache,
        primed: Vec::new(),
        shares: [0.15, 0.1, 0.75],
        check_workers: false,
    }
}

/// Adds the faulted scenarios and the diurnal fleet, sized from the
/// fixed-size K=1 capacity the primed capacity search measured.
fn add_fleet_ops(plan: &mut Plan, seed: u64) {
    let (workload, scheme) = serving_deployment();
    let experiment = small(seed).with_cache(plan.serving_cache.clone());
    // The first serving operation is the fixed-size K=1 capacity search.
    let capacity_qps = plan.primed[0].capacity_qps;
    let service_us = experiment
        .clone()
        .with_batch_size(256)
        .run(&workload, &scheme)
        .latency_us;
    // A crash at 2.5 service times, then a 4x straggler, both on device 0.
    let faults = FaultPlan::new(vec![
        FaultEvent::crash(0, 2.5 * service_us, 4.0 * service_us),
        FaultEvent::straggler(0, 6.0 * service_us, 9.0 * service_us, 4.0),
    ]);
    let faulted = ServingScenario::new(
        TrafficModel::poisson(0.5 * capacity_qps),
        BatchingPolicy::fixed_size(256),
    )
    .with_requests(4096)
    .with_seed(seed ^ ARRIVAL_SALT)
    .with_faults(faults);
    for retry in [RetryPolicy::fixed(3, 100.0), RetryPolicy::hedged(1.5)] {
        plan.serving.push(ServingOp::Simulate(
            experiment.clone().with_streams(interleaved(2)),
            workload.clone(),
            scheme,
            faulted.clone().with_retry(retry),
        ));
    }
    // A diurnal day whose peak overloads one replica, as `bench --bin
    // fleet` sizes it: about two cycles of ten decision intervals.
    let requests = 8192u32;
    let mean_qps = (1.5 + 0.05) * capacity_qps / 2.0;
    let period_s = requests as f64 / mean_qps / 2.0;
    let scenario = ServingScenario::new(
        TrafficModel::poisson(1_000.0),
        BatchingPolicy::fixed_size(256),
    );
    let fleet = Fleet::new(
        TrafficModel::diurnal(1.5 * capacity_qps, 0.05 * capacity_qps, period_s),
        requests,
        seed ^ ARRIVAL_SALT,
    )
    .with_group(ReplicaGroup::new(experiment, scenario).with_replicas(3))
    .with_interval_us(period_s * 1e6 / 10.0)
    .with_routing(RoutingPolicy::latency_aware(0.3))
    .with_autoscale(AutoscalePolicy::reactive(0.8, 0.3, 0, 1, 3));
    plan.serving
        .push(ServingOp::Fleet(Box::new(fleet), workload, scheme));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every cell's fingerprint and every serving operation, rendered.
    fn identity(plan: &Plan) -> Vec<String> {
        let cells = plan.jobs.iter().flat_map(|j| &j.cells);
        cells
            .map(|c| c.experiment.fingerprint(&c.workload, &c.scheme))
            .chain(plan.serving.iter().map(|op| format!("{op:?}")))
            .collect()
    }

    #[test]
    fn workload_generation_is_deterministic_and_seeded() {
        for name in NAMES {
            let a = identity(&build(name, 7).unwrap());
            assert!(!a.is_empty());
            assert_eq!(a, identity(&build(name, 7).unwrap()), "{name} repeats");
            assert_ne!(
                a,
                identity(&build(name, 8).unwrap()),
                "{name} follows the seed"
            );
        }
        assert!(build("nope", 7).is_none());
    }

    #[test]
    fn campaign_rerun_has_108_cells() {
        let plan = build("campaign_rerun", 1).unwrap();
        let cells: usize = plan.jobs.iter().map(|j| j.cells.len()).sum();
        assert_eq!(cells, 108);
    }
}

//! Golden report bytes: every report encoder renders what earlier builds
//! rendered.
//!
//! Report JSON is read back (persisted caches hold `RunReport`s), digested
//! (the benchmark hashes `to_json()` of every report it produces) and
//! diffed across runs, so a change to any encoder must be deliberate. This
//! suite pins the rendered bytes of a grid of reports against
//! `tests/fixtures/golden_reports.txt`, one `label<TAB>fnv1a<TAB>len` line
//! per cell:
//!
//! * `RunReport`: kernel, stage, end-to-end, a heterogeneous mix, a
//!   2-device sharded end-to-end run and a K=2 interleaved run;
//! * `ServingReport`: a healthy scenario, K=2 streams, a fault plan under
//!   fixed retry and under hedged retry, queue-depth and SLA-aware
//!   admission;
//! * `FleetReport`: a diurnal, autoscaled fleet of two replica groups in
//!   which one live replica receives no requests;
//! * `CampaignRun::to_json` and `CampaignCache::to_json` of a small grid.
//!
//! The fixture is a record of what earlier builds rendered, so it must
//! never be regenerated from the code it checks. To extend the grid, add
//! cells here, copy this file into a checkout of the last commit whose
//! rendering is canonical, and run there
//! `GOLDEN_REPORTS_WRITE=$PWD/tests/fixtures/golden_reports.txt cargo test --test golden_reports`.

use dlrm::WorkloadScale;
use dlrm_datasets::{AccessPattern, HeterogeneousMix, MixKind};
use gpu_sim::{GpuConfig, StreamPartition};
use perf_envelope::{
    AdmissionPolicy, AutoscalePolicy, BatchingPolicy, Campaign, CampaignCache, Cluster, Experiment,
    FaultEvent, FaultPlan, Fleet, InterconnectConfig, ReplicaGroup, RetryPolicy, RoutingPolicy,
    Scheme, ServingScenario, ShardingSpec, StreamConfig, TrafficModel, Workload,
};

const FIXTURE: &str = include_str!("fixtures/golden_reports.txt");

fn exp() -> Experiment {
    Experiment::new(GpuConfig::test_small(), WorkloadScale::Test)
}

fn k2() -> StreamConfig {
    StreamConfig::new(2, StreamPartition::Interleaved)
}

fn mix() -> HeterogeneousMix {
    HeterogeneousMix::paper_mix(MixKind::Mix2, 0.02)
}

fn stage() -> Workload {
    Workload::stage(AccessPattern::MedHot)
}

fn scenario() -> ServingScenario {
    ServingScenario::new(
        TrafficModel::poisson(20_000.0),
        BatchingPolicy::fixed_size(64),
    )
    .with_requests(256)
    .with_seed(0xA1)
}

/// Back-to-back batches of 32 arriving near-simultaneously, so fault
/// windows expressed in service units land where intended.
fn burst() -> ServingScenario {
    ServingScenario::new(
        TrafficModel::uniform(100_000_000.0),
        BatchingPolicy::fixed_size(32),
    )
    .with_requests(96)
}

/// The service latency of one 32-request batch.
fn service_us() -> f64 {
    exp()
        .with_batch_size(32)
        .run(&stage(), &Scheme::base())
        .latency_us
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every golden cell as `(label, rendered JSON)`, in fixture order.
fn grid() -> Vec<(String, String)> {
    let mut cells = Vec::new();
    let mut cell = |label: &str, json: String| cells.push((label.to_string(), json));

    // Run reports.
    let sharded = exp().with_cluster(Cluster::homogeneous(
        GpuConfig::test_small(),
        2,
        InterconnectConfig::nvlink3(),
    ));
    for (label, experiment, workload, scheme) in [
        (
            "run/kernel",
            exp(),
            Workload::kernel(AccessPattern::HighHot),
            Scheme::base(),
        ),
        ("run/stage", exp(), stage(), Scheme::combined()),
        (
            "run/e2e",
            exp(),
            Workload::end_to_end(AccessPattern::LowHot),
            Scheme::optmt(),
        ),
        (
            "run/mix",
            exp(),
            Workload::stage(mix()),
            Scheme::l2p_optmt(),
        ),
        (
            "run/sharded_e2e",
            sharded,
            Workload::end_to_end(mix()).with_sharding(ShardingSpec::HotCold),
            Scheme::combined(),
        ),
        ("run/k2", exp().with_streams(k2()), stage(), Scheme::base()),
    ] {
        cell(label, experiment.run(&workload, &scheme).to_json());
    }

    // Serving reports.
    let s = service_us();
    let crashes = FaultPlan::new(vec![
        FaultEvent::crash(0, 0.5 * s, 2.0 * s),
        FaultEvent::straggler(0, 2.5 * s, 4.0 * s, 1.5),
    ]);
    for (label, experiment, scenario) in [
        ("serving/healthy", exp(), scenario()),
        ("serving/k2", exp().with_streams(k2()), scenario()),
        (
            "serving/fixed_retry",
            exp(),
            burst()
                .with_faults(crashes.clone())
                .with_retry(RetryPolicy::fixed(3, 250.0)),
        ),
        (
            "serving/hedged_retry",
            exp(),
            burst()
                .with_faults(crashes)
                .with_retry(RetryPolicy::hedged(1.5)),
        ),
        (
            "serving/queue_depth",
            exp(),
            burst().with_admission(AdmissionPolicy::queue_depth(1)),
        ),
        (
            "serving/sla_aware",
            exp(),
            burst()
                .with_sla_us(2.5 * s)
                .with_admission(AdmissionPolicy::sla_aware(0.9)),
        ),
    ] {
        let report = scenario.simulate(&experiment, &stage(), &Scheme::base());
        match label {
            "serving/fixed_retry" => assert!(report.retries > 0, "{label} must retry"),
            "serving/hedged_retry" => assert!(report.hedges > 0, "{label} must hedge"),
            "serving/queue_depth" | "serving/sla_aware" => {
                assert!(report.shed_requests > 0, "{label} must shed")
            }
            _ => {}
        }
        cell(label, report.to_json());
    }

    // A fleet day. The replicas' tight SLA keeps their capacity low, so the
    // diurnal peak scales the fleet out while least-outstanding routing,
    // whose router estimates see replica 0 free nearly always, leaves the
    // last live replica without a single request.
    let replica = ServingScenario::new(
        TrafficModel::poisson(1_000.0),
        BatchingPolicy::timeout(16, 4.0),
    )
    .with_sla_us(12.0);
    let fleet = Fleet::new(TrafficModel::diurnal(36_000.0, 600.0, 0.004), 128, 0xF1EE7)
        .with_group(ReplicaGroup::new(exp(), replica.clone()).with_replicas(2))
        .with_group(ReplicaGroup::new(exp().with_streams(k2()), replica))
        .with_routing(RoutingPolicy::least_outstanding())
        .with_autoscale(AutoscalePolicy::reactive(0.6, 0.2, 1, 2, 3))
        .with_interval_us(1_000.0)
        .with_cache(CampaignCache::new());
    let report = fleet.simulate(&stage(), &Scheme::base());
    assert!(
        !report.autoscale_events.is_empty(),
        "the fleet cell must exercise autoscaling"
    );
    assert!(
        report.replicas.iter().any(|r| r.routed_requests == 0),
        "the fleet cell must include a live replica that served nothing"
    );
    cell("fleet/diurnal_autoscaled", report.to_json());

    // A small campaign and the cache it fills.
    let cache = CampaignCache::new();
    let run = Campaign::new(exp())
        .workloads([Workload::kernel(AccessPattern::MedHot), stage()])
        .schemes([Scheme::base(), Scheme::optmt()])
        .with_cache(cache.clone())
        .run();
    cell("campaign/run", run.to_json());
    cell("campaign/cache", cache.to_json());
    cells
}

#[test]
fn rendered_reports_match_the_golden_fixture() {
    let cells = grid();
    let lines: Vec<String> = cells
        .iter()
        .map(|(label, json)| format!("{label}\t{:016x}\t{}", fnv1a(json.as_bytes()), json.len()))
        .collect();
    if let Ok(path) = std::env::var("GOLDEN_REPORTS_WRITE") {
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
    for ((line, golden_line), (label, json)) in lines.iter().zip(&golden).zip(&cells) {
        assert_eq!(
            line, golden_line,
            "{label}: the rendered report changed; it now reads {json}"
        );
    }
}

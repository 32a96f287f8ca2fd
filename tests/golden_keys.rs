//! Golden cell keys: persisted [`CampaignCache`] files stay warm.
//!
//! A persisted cache is only useful if the cell keys a later build computes
//! are byte-identical to the ones an earlier build wrote. This suite pins
//! the keys of a grid that touches every fingerprint axis against
//! `tests/fixtures/golden_keys.txt`, one `label<TAB>key` line per cell:
//!
//! * kernel, stage and end-to-end workloads over every pattern and mix;
//! * every sharding spec on 2- and 4-device NVLink3 and PCIe clusters, and
//!   heterogeneous clusters whose devices repeat or only resemble the root;
//! * every `Scheme` constructor, every prefetch station, an explicit L2
//!   carveout and `MaxRegisters`;
//! * A100 and H100 devices, Default scale, seeds, pooling factors, batch
//!   shapes, tables-to-simulate;
//! * K=2 and K=4 streams, fault plans and cycle-accurate mode;
//! * the cells of identity fleets, which are their replicas' plain cells.
//!
//! The fixture is a record of what earlier builds persisted, so it must
//! never be regenerated from the code it checks. To extend the grid, add
//! cells here, copy this file into a checkout of the last commit whose
//! keys are canonical, and run there
//! `GOLDEN_KEYS_WRITE=$PWD/tests/fixtures/golden_keys.txt cargo test --test golden_keys`.
//!
//! [`CampaignCache`]: perf_envelope::CampaignCache

use dlrm::WorkloadScale;
use dlrm_datasets::{AccessPattern, HeterogeneousMix, MixKind};
use embedding_kernels::BufferStation;
use gpu_sim::{EngineMode, GpuConfig, StreamPartition};
use perf_envelope::json::Json;
use perf_envelope::{
    Cluster, Experiment, FaultEvent, FaultPlan, InterconnectConfig, Multithreading, Scheme,
    ShardingSpec, StreamConfig, Workload,
};

const FIXTURE: &str = include_str!("fixtures/golden_keys.txt");

fn exp() -> Experiment {
    Experiment::new(GpuConfig::test_small(), WorkloadScale::Test)
}

fn mix(kind: MixKind) -> HeterogeneousMix {
    HeterogeneousMix::paper_mix(kind, 0.02)
}

fn fault_plan() -> FaultPlan {
    FaultPlan::new(vec![
        FaultEvent::straggler(0, 2_000.0, 6_000.0, 2.5),
        FaultEvent::crash(0, 9_000.0, 9_500.0),
        FaultEvent::drain(0, 0.1, 1e7),
    ])
}

/// Every golden cell as `(label, key)`, in fixture order.
fn grid() -> Vec<(String, String)> {
    let mut cells = Vec::new();
    let mut cell = |label: String, key: String| cells.push((label, key));

    // Workload targets on one test_small device.
    for pattern in AccessPattern::ALL {
        let name = pattern.paper_name();
        cell(
            format!("kernel/{name}"),
            exp().fingerprint(&Workload::kernel(pattern), &Scheme::base()),
        );
        cell(
            format!("stage/{name}"),
            exp().fingerprint(&Workload::stage(pattern), &Scheme::base()),
        );
    }
    for kind in MixKind::ALL {
        let m = mix(kind);
        let name = m.name().to_string();
        cell(
            format!("stage/{name}"),
            exp().fingerprint(&Workload::stage(m.clone()), &Scheme::combined()),
        );
        cell(
            format!("e2e/{name}"),
            exp().fingerprint(&Workload::end_to_end(m), &Scheme::optmt()),
        );
    }
    cell(
        "e2e/MedHot".to_string(),
        exp().fingerprint(
            &Workload::end_to_end(AccessPattern::MedHot),
            &Scheme::base(),
        ),
    );
    cell(
        "stage/custom-mix".to_string(),
        exp().fingerprint(
            &Workload::stage(HeterogeneousMix::new(
                "a \"quoted\"\\name",
                vec![(AccessPattern::HighHot, 3), (AccessPattern::Random, 1)],
            )),
            &Scheme::base(),
        ),
    );

    // Schemes.
    let kernel = Workload::kernel(AccessPattern::MedHot);
    let mut schemes = vec![
        ("base".to_string(), Scheme::base()),
        ("optmt".to_string(), Scheme::optmt()),
        ("rpf_optmt".to_string(), Scheme::rpf_optmt()),
        ("l2p_optmt".to_string(), Scheme::l2p_optmt()),
        ("combined".to_string(), Scheme::combined()),
        ("l2p_only".to_string(), Scheme::l2p_only()),
        (
            "l2p_carveout".to_string(),
            Scheme::optmt().with_l2_pinning(Some(3 << 20)),
        ),
        (
            "maxrreg".to_string(),
            Scheme::base().with_multithreading(Multithreading::MaxRegisters(72)),
        ),
    ];
    for station in BufferStation::ALL {
        schemes.push((
            format!("prefetch_only/{}", station.abbreviation()),
            Scheme::prefetch_only(station, 4),
        ));
    }
    for (name, scheme) in schemes {
        cell(
            format!("scheme/{name}"),
            exp().fingerprint(&kernel, &scheme),
        );
    }

    // Sharding on multi-device clusters.
    for (devices, fabric) in [
        (2, InterconnectConfig::nvlink3()),
        (2, InterconnectConfig::pcie_gen4()),
        (4, InterconnectConfig::nvlink3()),
        (4, InterconnectConfig::pcie_gen4()),
    ] {
        let cluster = Cluster::homogeneous(GpuConfig::test_small(), devices, fabric.clone());
        for spec in ShardingSpec::ALL {
            cell(
                format!("sharded/{devices}x{}/{}", fabric.name, spec.name()),
                exp().with_cluster(cluster.clone()).fingerprint(
                    &Workload::stage(mix(MixKind::Mix2)).with_sharding(spec),
                    &Scheme::combined(),
                ),
            );
        }
    }
    cell(
        "sharded/heterogeneous/e2e".to_string(),
        exp()
            .with_cluster(Cluster::new(
                vec![
                    GpuConfig::test_small(),
                    GpuConfig::test_small().with_num_sms(2),
                ],
                InterconnectConfig::new("custom", 2.5, 37.5),
            ))
            .fingerprint(
                &Workload::end_to_end(AccessPattern::LowHot).with_sharding(ShardingSpec::HotCold),
                &Scheme::base(),
            ),
    );
    cell(
        "single-device-cluster".to_string(),
        exp()
            .with_cluster(Cluster::new(
                vec![GpuConfig::test_small()],
                InterconnectConfig::pcie_gen4(),
            ))
            .fingerprint(&kernel, &Scheme::base()),
    );
    // A key renders the root device once and repeats it for every device
    // bit-identical to it: a root repeated after a different device, and a
    // device that is `==` to the root but renders differently.
    let sharded_mix2 = Workload::stage(mix(MixKind::Mix2)).with_sharding(ShardingSpec::RoundRobin);
    cell(
        "cluster/root-repeated".to_string(),
        exp()
            .with_cluster(Cluster::new(
                vec![
                    GpuConfig::test_small(),
                    GpuConfig::test_small().with_num_sms(2),
                    GpuConfig::test_small(),
                ],
                InterconnectConfig::nvlink3(),
            ))
            .fingerprint(&sharded_mix2, &Scheme::combined()),
    );
    let persisting = |fraction: f64| GpuConfig {
        l2_max_persisting_fraction: fraction,
        ..GpuConfig::test_small()
    };
    cell(
        "cluster/signed-zero".to_string(),
        exp()
            .with_cluster(Cluster::new(
                vec![persisting(0.0), persisting(-0.0)],
                InterconnectConfig::nvlink3(),
            ))
            .fingerprint(&sharded_mix2, &Scheme::combined()),
    );

    // Devices, scales and experiment scalars.
    for (name, experiment) in [
        (
            "a100/test",
            Experiment::new(GpuConfig::a100(), WorkloadScale::Test),
        ),
        (
            "a100/default",
            Experiment::new(GpuConfig::a100(), WorkloadScale::Default),
        ),
        (
            "h100/test",
            Experiment::new(GpuConfig::h100_nvl(), WorkloadScale::Test),
        ),
        (
            "test_small/l2",
            Experiment::new(
                GpuConfig::test_small().with_l2_capacity(1 << 20),
                WorkloadScale::Test,
            ),
        ),
        ("seed", exp().with_seed(u64::MAX)),
        ("pooling", exp().with_pooling_factor(17)),
        ("batch", exp().with_batch_size(96)),
        ("tables", exp().with_tables_to_simulate(3)),
        (
            "cycle_accurate",
            exp().with_engine_mode(EngineMode::CycleAccurate),
        ),
        (
            "streams/k1-interleaved",
            exp().with_streams(StreamConfig::new(1, StreamPartition::Interleaved)),
        ),
        (
            "streams/k2-interleaved",
            exp().with_streams(StreamConfig::new(2, StreamPartition::Interleaved)),
        ),
        (
            "streams/k2-sm_partitioned",
            exp().with_streams(StreamConfig::new(2, StreamPartition::SmPartitioned)),
        ),
        (
            "streams/k4-interleaved",
            exp().with_streams(StreamConfig::new(4, StreamPartition::Interleaved)),
        ),
        ("faults/empty", exp().with_faults(FaultPlan::empty())),
        ("faults/plan", exp().with_faults(fault_plan())),
        (
            "everything",
            exp()
                .with_cluster(Cluster::homogeneous(
                    GpuConfig::test_small(),
                    2,
                    InterconnectConfig::nvlink3(),
                ))
                .with_engine_mode(EngineMode::CycleAccurate)
                .with_streams(StreamConfig::new(2, StreamPartition::Interleaved))
                .with_faults(fault_plan().with_event(FaultEvent::crash(1, 50.0, 75.25)))
                .with_seed(7)
                .with_batch_size(48),
        ),
    ] {
        cell(
            format!("experiment/{name}"),
            experiment.fingerprint(
                &Workload::stage(AccessPattern::HighHot).with_sharding(ShardingSpec::RoundRobin),
                &Scheme::l2p_optmt(),
            ),
        );
    }

    // Identity fleets: the cells a 1-replica, round-robin, unscaled fleet
    // prices are its replica's plain cells, the scenario's fault plan folded
    // in.
    let stage = Workload::stage(AccessPattern::MedHot);
    let combined = Scheme::combined();
    for (name, experiment) in [
        ("identity", exp()),
        ("identity/faulted", exp().with_faults(fault_plan())),
        (
            "identity/k2",
            exp().with_streams(StreamConfig::new(2, StreamPartition::Interleaved)),
        ),
    ] {
        cell(
            format!("fleet/{name}"),
            experiment.fingerprint(&stage, &combined),
        );
    }
    cells
}

#[test]
fn cell_keys_match_the_golden_fixture() {
    let cells = grid();
    if let Ok(path) = std::env::var("GOLDEN_KEYS_WRITE") {
        let text: String = cells
            .iter()
            .map(|(label, key)| format!("{label}\t{key}\n"))
            .collect();
        std::fs::write(&path, text).expect("fixture is writable");
        return;
    }
    let golden: Vec<(&str, &str)> = FIXTURE
        .lines()
        .map(|line| {
            line.split_once('\t')
                .expect("fixture lines are label<TAB>key")
        })
        .collect();
    assert_eq!(
        cells.len(),
        golden.len(),
        "the grid and the fixture list different cells"
    );
    for ((label, key), (golden_label, golden_key)) in cells.iter().zip(&golden) {
        assert_eq!(label, golden_label, "grid order diverged from the fixture");
        assert_eq!(
            key, golden_key,
            "{label}: the cell key changed; persisted caches would go cold"
        );
    }
}

#[test]
fn cell_keys_are_canonical_json() {
    for (label, key) in grid() {
        let doc = Json::parse(&key).unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(doc.render(), key, "{label}: key is not canonical");
    }
}

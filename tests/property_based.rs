//! Property-style tests on the core data structures and invariants: the
//! cache model, the trace generators and hotness metrics, the occupancy
//! model, and the embedding-bag reference implementation.
//!
//! The build environment has no crates.io access, so instead of `proptest`
//! each property runs against 64 deterministic pseudo-random cases drawn
//! from the small [`Cases`] generator below. Failures print the case number
//! and drawn values, which (being deterministic) reproduce exactly.

use dlrm::{BatchLatency, WorkloadScale};
use dlrm_datasets::{AccessPattern, CoverageCurve, TraceConfig, ZipfSampler};
use embedding_kernels::{embedding_bag_forward, embedding_bag_forward_simt, SyntheticTable};
use gpu_sim::config::CacheConfig;
use gpu_sim::isa::SrcSet;
use gpu_sim::launch::VecProgram;
use gpu_sim::mem::Cache;
use gpu_sim::occupancy::Occupancy;
use gpu_sim::{
    GpuConfig, Instruction, KernelLaunch, KernelProgram, KernelStats, MemSpace, Reg, Simulator,
    StreamPartition, WarpInfo, WarpProgram,
};
use perf_envelope::json::Json;
use perf_envelope::{
    AdmissionPolicy, AutoscaleEvent, AutoscalePolicy, BatchShapeStats, BatchingPolicy,
    CampaignCache, Cluster, ClusterBreakdown, DeviceBreakdown, DeviceUtilization, Experiment,
    FaultEvent, FaultPlan, FaultTimelineEntry, FleetCost, FleetReplicaReport, FleetReport,
    InterconnectConfig, LatencyStats, RetryPolicy, RoutingPolicy, RunReport, Scheme, ServingReport,
    ServingScenario, StreamConfig, StreamUtilization, TableBreakdown, TrafficModel, Workload,
    WorkloadKind,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 64;

/// A case generator on top of the workspace's deterministic `StdRng`:
/// deterministic per (property, case).
struct Cases {
    rng: StdRng,
}

impl Cases {
    fn new(property: &str, case: u64) -> Self {
        // Stable seed from the property name and case index (FNV-1a fold).
        let mut seed = 0xcbf2_9ce4_8422_2325u64 ^ case.wrapping_mul(0x0000_0100_0000_01b3);
        for b in property.bytes() {
            seed = (seed ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Cases {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.rng.gen()
    }

    /// Uniform draw from `lo..hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        self.rng.gen_range(lo..hi)
    }

    fn pattern(&mut self) -> AccessPattern {
        AccessPattern::ALL[self.range(0, AccessPattern::ALL.len() as u64) as usize]
    }

    /// A vector of `len in 1..max_len` draws from `lo..hi`.
    fn vec(&mut self, max_len: u64, lo: u64, hi: u64) -> Vec<u64> {
        let len = self.range(1, max_len);
        (0..len).map(|_| self.range(lo, hi)).collect()
    }

    /// An arbitrary finite `f64`: a uniform bit pattern with NaNs and
    /// infinities rejected, so the full space — subnormals, negative zero,
    /// extreme exponents — is exercised.
    fn finite_f64(&mut self) -> f64 {
        loop {
            let f = f64::from_bits(self.next_u64());
            if f.is_finite() {
                return f;
            }
        }
    }

    /// A finite positive latency-like `f64` (what report latency fields
    /// hold in practice).
    fn latency_us(&mut self) -> f64 {
        self.range(1, 1_000_000_000) as f64 / 1024.0
    }
}

/// Runs `property` against `CASES` deterministic cases.
fn check(name: &str, property: impl Fn(&mut Cases)) {
    for case in 0..CASES {
        property(&mut Cases::new(name, case));
    }
}

#[test]
fn cache_hit_invariants() {
    // The cache never reports more hits than accesses and a just-filled line
    // always hits on the next access.
    check("cache_hit_invariants", |g| {
        let lines = g.range(4, 64);
        let assoc = g.range(1, 8) as usize;
        let addrs = g.vec(200, 0, 10_000);
        let mut cache = Cache::new(CacheConfig {
            capacity_bytes: lines * 128,
            line_bytes: 128,
            associativity: assoc,
            hit_latency: 10,
        });
        for (i, &a) in addrs.iter().enumerate() {
            let line = a * 128;
            cache.access_or_fill(line, i as u64);
            assert!(cache.probe(line), "a just-filled line must be resident");
        }
        assert!(cache.stats.hits <= cache.stats.accesses);
        assert!(cache.resident_lines() <= lines);
    });
}

#[test]
fn fused_access_or_fill_matches_access_then_fill() {
    // `access_or_fill` is the memory hierarchy's only demand path, and both
    // engine loops share it, so the CA/ED suites cannot see a wrong victim
    // choice: compare it against the `access` + `fill(.., false, ..)` pair
    // it replaces, op for op, with pinned lines and LRU-stamp ties mixed in.
    check("fused_access_or_fill_matches_access_then_fill", |g| {
        let sets = [1u64, 2, 3, 5, 7, 8, 16][g.range(0, 7) as usize];
        let ways = [1u64, 2, 3, 4, 8, 16][g.range(0, 6) as usize];
        let cfg = CacheConfig {
            capacity_bytes: sets * ways * 128,
            line_bytes: 128,
            associativity: ways as usize,
            hit_latency: 10,
        };
        let carveout_lines = g.range(0, sets * ways + 1);
        let mut fused = Cache::new(cfg.clone());
        let mut pair = Cache::new(cfg);
        fused.set_persisting_capacity(carveout_lines * 128);
        pair.set_persisting_capacity(carveout_lines * 128);
        let span = sets * ways * 3;
        let ops = g.range(1, 400);
        let mut touched = std::collections::BTreeSet::new();
        for op in 0..ops {
            let line = g.range(0, span) * 128;
            // Several ops share a stamp, so LRU ties are exercised.
            let now = op / 3;
            touched.insert(line);
            if g.range(0, 6) == 0 {
                assert_eq!(fused.fill(line, true, now), pair.fill(line, true, now));
            } else {
                let hit = pair.access(line, now);
                if !hit {
                    pair.fill(line, false, now);
                }
                assert_eq!(fused.access_or_fill(line, now), hit, "op {op} line {line}");
            }
            assert_eq!(fused.stats, pair.stats, "op {op}: stats diverged");
            assert_eq!(fused.persistent_lines(), pair.persistent_lines());
            for &t in &touched {
                assert_eq!(fused.probe(t), pair.probe(t), "op {op}: residency of {t}");
                assert_eq!(fused.is_persistent(t), pair.is_persistent(t));
            }
        }
    });
}

#[test]
fn persisting_carveout_is_never_exceeded() {
    // Persistent lines never exceed the configured carve-out, no matter the
    // access pattern.
    check("persisting_carveout_is_never_exceeded", |g| {
        let carveout_lines = g.range(1, 32);
        let addrs = g.vec(300, 0, 5_000);
        let mut cache = Cache::new(CacheConfig {
            capacity_bytes: 64 * 128,
            line_bytes: 128,
            associativity: 8,
            hit_latency: 10,
        });
        cache.set_persisting_capacity(carveout_lines * 128);
        for (i, &a) in addrs.iter().enumerate() {
            cache.fill(a * 128, a % 2 == 0, i as u64);
            assert!(cache.persistent_lines() <= carveout_lines);
        }
    });
}

#[test]
fn trace_statistics_are_consistent() {
    // Generated traces always stay within the table bounds and report
    // consistent unique-access statistics.
    check("trace_statistics_are_consistent", |g| {
        let rows = g.range(100, 50_000);
        let batch = g.range(1, 64) as u32;
        let pooling = g.range(1, 32) as u32;
        let pattern = g.pattern();
        let seed = g.next_u64();
        let trace = TraceConfig::new(rows, batch, pooling).generate(pattern, seed);
        assert_eq!(trace.total_lookups(), batch as u64 * pooling as u64);
        assert!(trace.indices.iter().all(|&i| (i as u64) < rows));
        assert!(trace.unique_rows() <= trace.total_lookups());
        assert!(trace.unique_rows() <= rows);
        let pct = trace.unique_access_pct();
        assert!((0.0..=100.0).contains(&pct));
        // The offsets must partition the indices array.
        assert_eq!(trace.offsets[0], 0);
        assert_eq!(*trace.offsets.last().unwrap() as usize, trace.indices.len());
    });
}

#[test]
fn coverage_curves_are_monotone() {
    // Coverage curves are monotonically non-decreasing and end at 100%.
    check("coverage_curves_are_monotone", |g| {
        let indices: Vec<u32> = g.vec(500, 0, 2_000).into_iter().map(|v| v as u32).collect();
        let curve = CoverageCurve::from_indices(&indices);
        let series = curve.series();
        let mut prev = 0.0;
        for &(_, cov) in &series {
            assert!(cov + 1e-9 >= prev);
            prev = cov;
        }
        assert!((series.last().unwrap().1 - 100.0).abs() < 1e-6);
        let skew = curve.skew();
        assert!((0.0..=1.0).contains(&skew));
    });
}

#[test]
fn zipf_hot_rows_are_distinct() {
    // The Zipf sampler's rank-to-row mapping is a permutation prefix: no two
    // ranks map to the same row.
    check("zipf_hot_rows_are_distinct", |g| {
        let rows = g.range(10, 20_000);
        let count = g.range(1, 200) as usize;
        let sampler = ZipfSampler::new(rows, 1.0);
        let hot = sampler.hottest_rows(count);
        let mut dedup = hot.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), hot.len());
        assert!(hot.iter().all(|&r| r < rows));
    });
}

#[test]
fn occupancy_is_monotone_in_register_pressure() {
    // Occupancy never exceeds the hardware limits and decreases (weakly)
    // as registers per thread increase.
    check("occupancy_is_monotone_in_register_pressure", |g| {
        let regs_low = g.range(16, 64) as u32;
        let extra = g.range(8, 128) as u32;
        let threads = 1u32 << g.range(5, 9); // 32..=256
        let cfg = GpuConfig::a100();
        let launch = |regs: u32| {
            KernelLaunch::new("k", 100_000, threads).with_regs_per_thread(regs.min(255))
        };
        let low = Occupancy::compute(&cfg, &launch(regs_low));
        let high = Occupancy::compute(&cfg, &launch(regs_low + extra));
        assert!(low.warps_per_sm <= cfg.max_warps_per_sm as u32);
        assert!(high.warps_per_sm <= low.warps_per_sm);
        assert!(low.warps_per_sm >= 1);
    });
}

#[test]
fn embedding_bag_partitioning_is_exact() {
    // The SIMT-partitioned embedding-bag reduction matches the sequential
    // reference bit for bit on arbitrary traces.
    check("embedding_bag_partitioning_is_exact", |g| {
        let rows = g.range(10, 2_000);
        let batch = g.range(1, 16) as u32;
        let pooling = g.range(1, 16) as u32;
        let pattern = g.pattern();
        let seed = g.next_u64();
        let trace = TraceConfig::new(rows, batch, pooling).generate(pattern, seed);
        let table = SyntheticTable::new(rows, 32, seed ^ 0xABCD);
        assert_eq!(
            embedding_bag_forward(&table, &trace),
            embedding_bag_forward_simt(&table, &trace)
        );
    });
}

#[test]
fn fingerprint_floats_canonicalize_exactly() {
    // The fingerprint/report codec renders floats with shortest-round-trip
    // formatting; the rendering must parse back to the identical bits and
    // be stable across a re-encode — including the awkward corners of the
    // f64 space (negative zero, subnormals, extreme exponents).
    let edge_cases = [
        -0.0,
        0.0,
        f64::MIN_POSITIVE, // smallest normal
        -f64::MIN_POSITIVE,
        5e-324, // smallest subnormal
        -5e-324,
        2.225_073_858_507_201e-308, // largest subnormal
        f64::MAX,
        f64::MIN,
        0.1,
        1.0 / 3.0,
    ];
    let assert_canonical = |f: f64| {
        let rendered = Json::Num(f).render();
        let parsed = Json::parse(&rendered).expect("canonical floats parse");
        match parsed {
            Json::Num(back) => {
                assert_eq!(
                    back.to_bits(),
                    f.to_bits(),
                    "{rendered} must round-trip to the identical bits"
                );
                assert_eq!(
                    Json::Num(back).render(),
                    rendered,
                    "re-encoding must be byte-stable"
                );
            }
            other => panic!("{rendered} re-parsed as a non-float: {other:?}"),
        }
    };
    for f in edge_cases {
        assert_canonical(f);
    }
    check("fingerprint_floats_canonicalize_exactly", |g| {
        for _ in 0..8 {
            assert_canonical(g.finite_f64());
        }
    });
}

#[test]
fn run_reports_with_cluster_breakdowns_round_trip() {
    // The serving layer archives sharded RunReports (per-device
    // breakdowns); arbitrary well-formed reports must survive the JSON
    // round trip bit-for-bit, with canonical (re-encode-stable) rendering.
    check("run_reports_with_cluster_breakdowns_round_trip", |g| {
        let mut stats = KernelStats::empty("prop", &GpuConfig::test_small());
        stats.elapsed_cycles = g.next_u64() >> 8;
        stats.counters.insts_issued = g.next_u64() >> 8;
        stats.counters.load_insts = g.range(0, 1 << 40);
        stats.l2_accesses = g.range(0, 1 << 40);
        stats.l2_hits = g.range(0, stats.l2_accesses + 1);
        stats.dram_bytes_read = g.next_u64() >> 16;
        stats.theoretical_occupancy_pct = g.range(0, 101) as f64;

        let devices = g.range(1, 5) as usize;
        let per_device: Vec<DeviceBreakdown> = (0..devices)
            .map(|d| DeviceBreakdown {
                device: format!("GPU-{d}"),
                tables: g.range(1, 64) as u32,
                tables_simulated: g.range(1, 8) as u32,
                embedding_us: g.latency_us(),
            })
            .collect();
        let critical_path_us = per_device
            .iter()
            .map(|d| d.embedding_us)
            .fold(0.0f64, f64::max);
        let embedding_us = critical_path_us + g.latency_us();
        let non_embedding_us = g.latency_us();
        let report = RunReport {
            kind: WorkloadKind::EndToEnd,
            workload: format!("mix-{}", g.range(0, 100)),
            scheme: "RPF+L2P+OptMT".to_string(),
            device: "GPU-0".to_string(),
            scale: "test".to_string(),
            seed: g.next_u64(),
            pooling_factor: g.range(1, 256) as u32,
            latency_us: embedding_us + non_embedding_us,
            tables: Some(TableBreakdown {
                per_table_us: g.latency_us(),
                tables_total: g.range(1, 256) as u32,
                tables_simulated: g.range(1, 16) as u32,
            }),
            end_to_end: Some(BatchLatency {
                embedding_us,
                non_embedding_us,
            }),
            devices: Some(ClusterBreakdown {
                strategy: "round_robin".to_string(),
                per_device,
                critical_path_us,
                all_to_all_us: g.latency_us(),
            }),
            stats,
        };

        let text = report.to_json();
        let back = RunReport::from_json(&text).expect("report JSON parses back");
        assert_eq!(back, report, "round trip must be lossless");
        assert_eq!(back.to_json(), text, "rendering must be canonical");
        let cluster = back.devices.expect("breakdown survives");
        assert_eq!(cluster.num_devices(), devices);
    });
}

#[test]
fn stream_config_names_are_canonical() {
    // The name is the encoding bench reports use: two configurations share
    // a name exactly when they are the same configuration, `Display`
    // prints it, and one stream always canonicalizes to the single
    // identity.
    check("stream_config_names_are_canonical", |g| {
        let mut draw = || {
            let streams = g.range(1, 9) as u32;
            let partition = if g.range(0, 2) == 0 {
                StreamPartition::SmPartitioned
            } else {
                StreamPartition::Interleaved
            };
            (streams, partition, StreamConfig::new(streams, partition))
        };
        let (streams, partition, config) = draw();
        let (_, _, other) = draw();
        assert_eq!(format!("{config}"), config.name());
        assert_eq!(
            config.name() == other.name(),
            config == other,
            "{config:?} and {other:?}"
        );
        if streams == 1 {
            assert_eq!(config, StreamConfig::single());
            assert!(config.is_single());
            assert_eq!(config.name(), "single");
        } else {
            assert_eq!(config.streams(), streams);
            assert_eq!(config.partition(), partition);
        }
    });
}

#[test]
fn stream_configs_partition_the_campaign_cache() {
    // K=1 shares the pre-stream cache cell (persisted campaigns stay warm
    // across the refactor); every distinct K>1 configuration gets its own
    // cell and never collides with the single-stream one.
    check("stream_configs_partition_the_campaign_cache", |g| {
        let cache = CampaignCache::new();
        let base =
            Experiment::new(GpuConfig::test_small(), WorkloadScale::Test).with_cache(cache.clone());
        let workload = Workload::kernel(g.pattern());
        let scheme = Scheme::base();

        let default = base.run(&workload, &scheme);
        assert_eq!(cache.len(), 1, "one kernel workload is one cell");
        let single = base
            .clone()
            .with_streams(StreamConfig::single())
            .run(&workload, &scheme);
        assert_eq!(
            cache.len(),
            1,
            "an explicit single stream must hit the pre-stream cell"
        );
        assert_eq!(single, default);

        let streams = g.range(2, 5) as u32; // test_small holds 4 streams
        let partition = if g.range(0, 2) == 0 {
            StreamPartition::SmPartitioned
        } else {
            StreamPartition::Interleaved
        };
        base.clone()
            .with_streams(StreamConfig::new(streams, partition))
            .run(&workload, &scheme);
        assert_eq!(cache.len(), 2, "K={streams} must occupy a distinct cell");

        // The other partition policy at the same K is distinct again.
        let other = match partition {
            StreamPartition::SmPartitioned => StreamPartition::Interleaved,
            StreamPartition::Interleaved => StreamPartition::SmPartitioned,
        };
        base.clone()
            .with_streams(StreamConfig::new(streams, other))
            .run(&workload, &scheme);
        assert_eq!(cache.len(), 3, "the partition policy is part of the key");
    });
}

/// An arbitrary well-formed fault event drawn from a [`Cases`] generator.
fn arbitrary_fault_event(g: &mut Cases, devices: u64) -> FaultEvent {
    let device = g.range(0, devices) as u32;
    let start = g.range(0, 1_000_000) as f64;
    let end = start + g.range(1, 1_000_000) as f64;
    let factor = 1.0 + g.range(0, 1024) as f64 / 256.0;
    match g.range(0, 4) {
        0 => FaultEvent::crash(device, start, end),
        1 => FaultEvent::drain(device, start, end),
        2 => FaultEvent::straggler(device, start, end, factor),
        _ => FaultEvent::interconnect_degradation(start, end, factor),
    }
}

#[test]
fn fault_plan_keys_are_canonical() {
    // Arbitrary well-formed fault plans write one entry per event into the
    // cell key, in canonical order: the key is canonical JSON and does not
    // depend on the order the plan was built in.
    check("fault_plan_keys_are_canonical", |g| {
        let events: Vec<FaultEvent> = (0..g.range(1, 6))
            .map(|_| arbitrary_fault_event(g, 4))
            .collect();
        let experiment =
            Experiment::new(GpuConfig::test_small(), WorkloadScale::Test).with_cluster(
                Cluster::homogeneous(GpuConfig::test_small(), 4, InterconnectConfig::nvlink3()),
            );
        let workload = Workload::kernel(g.pattern());
        let key = |plan: FaultPlan| {
            experiment
                .clone()
                .with_faults(plan)
                .fingerprint(&workload, &Scheme::base())
        };
        let forward = key(FaultPlan::new(events.clone()));
        let backward = key(FaultPlan::new(events.iter().rev().copied().collect()));
        assert_eq!(forward, backward, "the key must not depend on build order");
        let doc = Json::parse(&forward).expect("keys parse");
        assert_eq!(doc.render(), forward, "the key must be canonical JSON");
        let written = doc.get("faults").and_then(Json::as_array).unwrap();
        assert_eq!(written.len(), events.len(), "one entry per event");
        for entry in written {
            let kind = entry.get("kind").and_then(Json::as_str).unwrap();
            assert!(events.iter().any(|e| e.kind().name() == kind), "{kind}");
        }
    });
}

#[test]
fn fault_plans_partition_the_campaign_cache() {
    // The empty plan shares the pre-fault cache cell byte-for-byte
    // (persisted campaigns stay warm across the resilience refactor);
    // every distinct non-empty plan gets its own cell.
    check("fault_plans_partition_the_campaign_cache", |g| {
        let cache = CampaignCache::new();
        let base =
            Experiment::new(GpuConfig::test_small(), WorkloadScale::Test).with_cache(cache.clone());
        let workload = Workload::kernel(g.pattern());
        let scheme = Scheme::base();

        let default = base.run(&workload, &scheme);
        assert_eq!(cache.len(), 1, "one kernel workload is one cell");
        let empty = base
            .clone()
            .with_faults(FaultPlan::empty())
            .run(&workload, &scheme);
        assert_eq!(
            cache.len(),
            1,
            "the empty fault plan must hit the pre-fault cell"
        );
        assert_eq!(empty, default);

        let event = arbitrary_fault_event(g, 1);
        base.clone()
            .with_faults(FaultPlan::new(vec![event]))
            .run(&workload, &scheme);
        assert_eq!(cache.len(), 2, "a fault plan must occupy a distinct cell");

        // A different window of the same kind is distinct again.
        let shifted = FaultEvent::drain(0, event.end_us() + 1.0, event.end_us() + 2.0);
        base.clone()
            .with_faults(FaultPlan::new(vec![event, shifted]))
            .run(&workload, &scheme);
        assert_eq!(cache.len(), 3, "every event is part of the key");
    });
}

#[test]
fn faulted_serving_reports_are_deterministic() {
    // A faulted, retried, admission-controlled serving run is exactly as
    // reproducible as a healthy one: byte-identical reports across repeats
    // and across worker-thread settings.
    check("faulted_serving_reports_are_deterministic", |g| {
        let cache = CampaignCache::new();
        let base =
            Experiment::new(GpuConfig::test_small(), WorkloadScale::Test).with_cache(cache.clone());
        let workload = Workload::kernel(g.pattern());
        let scheme = Scheme::base();
        let plan = FaultPlan::new(
            (0..g.range(1, 4))
                .map(|_| arbitrary_fault_event(g, 1))
                .collect(),
        );
        let scenario = ServingScenario::new(
            TrafficModel::poisson(g.range(1_000, 50_000) as f64),
            BatchingPolicy::fixed_size(1 << g.range(3, 7)),
        )
        .with_requests(g.range(32, 128) as u32)
        .with_seed(g.next_u64())
        .with_faults(plan)
        .with_retry(RetryPolicy::fixed(2, 250.0))
        .with_admission(AdmissionPolicy::queue_depth(64));

        let one = scenario.simulate(&base.clone().with_threads(1), &workload, &scheme);
        let four = scenario.simulate(&base.clone().with_threads(4), &workload, &scheme);
        let again = scenario.simulate(&base.clone().with_threads(1), &workload, &scheme);
        assert_eq!(
            one.to_json(),
            four.to_json(),
            "faulted percentiles must be thread-count-invariant"
        );
        assert_eq!(one.to_json(), again.to_json(), "repeats must be identical");
        assert_eq!(
            one.served_requests + one.shed_requests + one.failed_requests,
            one.requests
        );
    });
}

/// An arbitrary well-formed serving report (including the PR 6 stream
/// block) drawn from a [`Cases`] generator.
fn arbitrary_serving_report(g: &mut Cases) -> ServingReport {
    let streams = g.range(1, 8) as u32;
    let stream_utilization: Vec<StreamUtilization> = (0..streams)
        .map(|stream| StreamUtilization {
            stream,
            busy_us: g.latency_us(),
            batches: g.range(0, 1000) as u32,
            utilization: g.range(0, 1025) as f64 / 1024.0,
        })
        .collect();
    ServingReport {
        workload: format!("mix-{}", g.range(0, 100)),
        scheme: "RPF+L2P".to_string(),
        device: "Test GPU".to_string(),
        scale: "test".to_string(),
        seed: g.next_u64(),
        traffic: "poisson".to_string(),
        offered_qps: g.latency_us(),
        policy: "fixed_size(64)".to_string(),
        sla_us: g.latency_us(),
        requests: g.range(1, 10_000) as u32,
        served_requests: g.range(1, 10_000) as u32,
        shed_requests: g.range(0, 100) as u32,
        failed_requests: g.range(0, 100) as u32,
        retries: g.range(0, 16) as u32,
        hedges: g.range(0, 16) as u32,
        availability: g.range(0, 1025) as f64 / 1024.0,
        goodput_qps: g.latency_us(),
        fault_events: (0..g.range(0, 3))
            .map(|i| FaultTimelineEntry {
                event: format!("crash(dev{i}, 10us..20us)"),
                start_us: g.latency_us(),
                end_us: g.latency_us(),
                batches_affected: g.range(0, 100) as u32,
                requests_affected: g.range(0, 1_000) as u32,
            })
            .collect(),
        batches: g.range(1, 1_000) as u32,
        shapes: vec![BatchShapeStats {
            shape: 1 << g.range(0, 9),
            batches: g.range(1, 1_000) as u32,
            latency_us: g.latency_us(),
        }],
        achieved_qps: g.latency_us(),
        latency: LatencyStats {
            p50_us: g.latency_us(),
            p95_us: g.latency_us(),
            p99_us: g.latency_us(),
            max_us: g.latency_us(),
            mean_us: g.latency_us(),
        },
        mean_batch_wait_us: g.latency_us(),
        mean_queue_wait_us: g.latency_us(),
        sla_violation_rate: g.range(0, 1025) as f64 / 1024.0,
        utilization: vec![DeviceUtilization {
            device: "Test GPU".to_string(),
            busy_us: g.latency_us(),
            utilization: g.range(0, 1025) as f64 / 1024.0,
        }],
        streams,
        stream_utilization,
        makespan_us: g.latency_us(),
    }
}

#[test]
fn serving_reports_render_canonically() {
    // Arbitrary well-formed serving reports — including the stream block —
    // stream out as canonical JSON that carries every block intact.
    check("serving_reports_render_canonically", |g| {
        let report = arbitrary_serving_report(g);
        let text = report.to_json();
        let doc = Json::parse(&text).expect("serving JSON parses");
        assert_eq!(doc.render(), text, "rendering must be canonical");
        let streams = doc.get("stream_utilization").and_then(Json::as_array);
        assert_eq!(streams.map(<[Json]>::len), Some(report.streams as usize));
        let p99 = doc.get("latency").and_then(|l| l.get("p99_us"));
        assert_eq!(
            p99.and_then(Json::as_f64).map(f64::to_bits),
            Some(report.latency.p99_us.to_bits())
        );
    });
}

/// An arbitrary valid routing policy drawn from a [`Cases`] generator.
fn arbitrary_routing_policy(g: &mut Cases) -> RoutingPolicy {
    match g.range(0, 3) {
        0 => RoutingPolicy::round_robin(),
        1 => RoutingPolicy::least_outstanding(),
        _ => RoutingPolicy::latency_aware(g.range(1, 1025) as f64 / 1024.0),
    }
}

/// An arbitrary valid autoscale policy drawn from a [`Cases`] generator.
fn arbitrary_autoscale_policy(g: &mut Cases) -> AutoscalePolicy {
    if g.range(0, 4) == 0 {
        return AutoscalePolicy::none();
    }
    let scale_in = g.range(1, 512) as f64 / 1024.0;
    let scale_out = scale_in + g.range(1, 2048) as f64 / 1024.0;
    let min = g.range(1, 4) as u32;
    let max = min + g.range(0, 4) as u32;
    AutoscalePolicy::reactive(scale_out, scale_in, g.range(0, 8) as u32, min, max)
}

#[test]
fn fleet_reports_render_canonically() {
    // Arbitrary well-formed fleet reports — autoscale timeline, cost
    // block, embedded per-replica serving reports — stream out as canonical
    // JSON whose floats, drawn from the full finite f64 space (negative
    // zero, subnormals, extreme exponents), parse back bit for bit.
    check("fleet_reports_render_canonically", |g| {
        let replicas: Vec<FleetReplicaReport> = (0..g.range(1, 4))
            .map(|i| FleetReplicaReport {
                replica: i as u32,
                group: g.range(0, 3) as u32,
                device: "Test GPU".to_string(),
                devices: g.range(1, 5) as u32,
                routed_requests: g.range(0, 10_000) as u32,
                active_from_us: g.finite_f64(),
                active_until_us: g.finite_f64(),
                report: arbitrary_serving_report(g),
            })
            .collect();
        let report = FleetReport {
            workload: format!("mix-{}", g.range(0, 100)),
            scheme: "RPF+L2P+OptMT".to_string(),
            traffic: "diurnal".to_string(),
            offered_qps: g.finite_f64(),
            requests: g.range(1, 100_000) as u32,
            seed: g.next_u64(),
            routing: arbitrary_routing_policy(g).label(),
            autoscale: arbitrary_autoscale_policy(g).label(),
            served_requests: g.range(0, 100_000) as u32,
            shed_requests: g.range(0, 100) as u32,
            failed_requests: g.range(0, 100) as u32,
            availability: g.finite_f64(),
            achieved_qps: g.finite_f64(),
            goodput_qps: g.finite_f64(),
            sla_attainment: g.finite_f64(),
            latency: LatencyStats {
                p50_us: g.finite_f64(),
                p95_us: g.finite_f64(),
                p99_us: g.finite_f64(),
                max_us: g.finite_f64(),
                mean_us: g.finite_f64(),
            },
            makespan_us: g.finite_f64(),
            cost: FleetCost {
                device_us: g.finite_f64(),
                device_hours: g.finite_f64(),
            },
            autoscale_events: (0..g.range(0, 4))
                .map(|interval| AutoscaleEvent {
                    interval: interval as u32,
                    at_us: g.finite_f64(),
                    action: "scale_out".to_string(),
                    live_replicas: g.range(1, 8) as u32,
                    offered_qps: g.finite_f64(),
                    utilization: g.finite_f64(),
                })
                .collect(),
            replicas,
        };
        let text = report.to_json();
        let doc = Json::parse(&text).expect("fleet JSON parses");
        assert_eq!(doc.render(), text, "rendering must be canonical");
        let float = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_f64).map(f64::to_bits);
        for (key, value) in [
            ("offered_qps", report.offered_qps),
            ("availability", report.availability),
            ("achieved_qps", report.achieved_qps),
            ("goodput_qps", report.goodput_qps),
            ("sla_attainment", report.sla_attainment),
            ("makespan_us", report.makespan_us),
        ] {
            assert_eq!(float(&doc, key), Some(value.to_bits()), "{key}");
        }
        let cost = doc.get("cost").unwrap();
        assert_eq!(
            float(cost, "device_us"),
            Some(report.cost.device_us.to_bits())
        );
        let replicas = doc.get("replicas").and_then(Json::as_array).unwrap();
        assert_eq!(replicas.len(), report.replicas.len());
        for (written, replica) in replicas.iter().zip(&report.replicas) {
            assert_eq!(
                float(written, "active_until_us"),
                Some(replica.active_until_us.to_bits())
            );
        }
    });
}

#[test]
fn the_cache_reader_never_panics_on_damaged_files() {
    // Persisted caches are the one JSON this crate reads back, from files
    // anyone may have truncated or damaged: every prefix of a saved cache
    // and single-byte corruptions of it must come back as `Ok` or `Err`,
    // never as a panic.
    let cache = CampaignCache::new();
    let experiment =
        Experiment::new(GpuConfig::test_small(), WorkloadScale::Test).with_cache(cache.clone());
    let workload = Workload::kernel(AccessPattern::MedHot);
    for scheme in [Scheme::base(), Scheme::optmt()] {
        experiment.run(&workload, &scheme);
    }
    let saved = cache.to_json();
    assert!(saved.is_ascii(), "corruptions below stay valid UTF-8");
    let reloaded = CampaignCache::from_json(&saved).expect("the saved cache loads");
    assert_eq!(reloaded.to_json(), saved, "and re-saves byte for byte");
    for end in 0..saved.len() {
        assert!(
            CampaignCache::from_json(&saved[..end]).is_err(),
            "a {end}-byte prefix is not a complete document"
        );
    }
    check("the_cache_reader_never_panics_on_damaged_files", |g| {
        for _ in 0..16 {
            let mut bytes = saved.clone().into_bytes();
            let offset = g.range(0, bytes.len() as u64) as usize;
            bytes[offset] = g.range(0, 0x80) as u8;
            let text = String::from_utf8(bytes).expect("ASCII stays UTF-8");
            let _ = CampaignCache::from_json(&text);
        }
    });
}

#[test]
fn working_set_matches_unique_rows() {
    // Every generated trace's working set in bytes equals unique rows times
    // the row width.
    check("working_set_matches_unique_rows", |g| {
        let rows = g.range(100, 10_000);
        let batch = g.range(1, 32) as u32;
        let pooling = g.range(1, 16) as u32;
        let row_bytes = [128u64, 256, 512][g.range(0, 3) as usize];
        let trace = TraceConfig::new(rows, batch, pooling).generate(AccessPattern::MedHot, 7);
        assert_eq!(
            trace.working_set_bytes(row_bytes),
            trace.unique_rows() * row_bytes
        );
    });
}

/// Every warp runs the same instructions.
struct SameProgram(Vec<Instruction>);

impl KernelProgram for SameProgram {
    fn warp_program(&self, _: WarpInfo) -> Box<dyn WarpProgram> {
        Box::new(VecProgram::new(self.0.clone()))
    }
}

/// A random instruction over the registers in `pool`.
fn arbitrary_instruction(g: &mut Cases, pool: &[Reg]) -> Instruction {
    let reg = |g: &mut Cases| pool[g.range(0, pool.len() as u64) as usize];
    let line = g.range(0, 64) * 128;
    let space = [MemSpace::Global, MemSpace::Local, MemSpace::Shared][g.range(0, 3) as usize];
    match g.range(0, 4) {
        0 => Instruction::Load {
            space,
            line,
            dst: reg(g),
            bytes: 128,
            addr_dep: (g.range(0, 2) == 0).then(|| reg(g)),
        },
        1 => Instruction::Store {
            space,
            line,
            src: reg(g),
            bytes: 128,
        },
        2 => Instruction::Prefetch {
            line,
            addr_dep: (g.range(0, 2) == 0).then(|| reg(g)),
        },
        _ => {
            let (a, b, c) = (reg(g), reg(g), reg(g));
            Instruction::Alu {
                dst: reg(g),
                srcs: [
                    SrcSet::none(),
                    SrcSet::one(a),
                    SrcSet::two(a, b),
                    SrcSet::three(a, b, c),
                ][g.range(0, 4) as usize],
                latency: g.range(0, 24) as u32,
            }
        }
    }
}

#[test]
fn renaming_registers_leaves_the_statistics_unchanged() {
    // Hazards depend only on which instructions name the same register, so
    // a bijective renaming of a program's registers, including the extreme
    // ids 0 and 255, must leave every counter of its run unchanged.
    check("renaming_registers_leaves_the_statistics_unchanged", |g| {
        let mut pool: Vec<Reg> = vec![0, 255];
        pool.extend((0..g.range(1, 10)).map(|_| g.range(0, 256) as Reg));
        let len = g.range(1, 48);
        let insts: Vec<Instruction> = (0..len).map(|_| arbitrary_instruction(g, &pool)).collect();
        // A uniform random permutation of every register id.
        let mut rename: Vec<Reg> = (0..=255).collect();
        for i in (1..rename.len()).rev() {
            rename.swap(i, g.range(0, i as u64 + 1) as usize);
        }
        let renamed = insts
            .iter()
            .map(|i| i.map_regs(|r| rename[r as usize]))
            .collect();
        let sim = Simulator::new(GpuConfig::test_small());
        let launch = KernelLaunch::new("renamed", g.range(1, 9) as u32, 64);
        let before = sim.run(&launch, &SameProgram(insts));
        let after = sim.run(&launch, &SameProgram(renamed));
        assert_eq!(before.first_difference(&after), None);
        assert_eq!(before, after);
    });
}

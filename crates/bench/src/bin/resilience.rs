//! Resilient-serving study: faults, retries, hedging and graceful
//! degradation.
//!
//! Exercises the PR 8 resilience layer end to end on the heavy Mix2
//! deployment: a crash sweep (0/1/2 device crashes, no-retry vs fixed
//! retry) tracking availability, goodput and tail latency; a straggler
//! window comparing no hedging against `hedged(1.5)` on two concurrent
//! streams; and a 50x overload comparing open admission against SLA-aware
//! shedding. Emitted as machine-readable `BENCH_resilience.json` (override
//! the path with the first CLI argument). Beyond the numbers the binary
//! *asserts* the layer's headline contracts: a fixed retry policy wins a
//! crashed batch back to full availability, hedging improves p99 under a
//! straggler, and SLA-aware shedding bounds the served tail at the SLA by
//! trading availability below 1.
//!
//! ```text
//! cargo run --release -p bench --bin resilience [-- OUT.json]
//! ```

use dlrm::WorkloadScale;
use dlrm_datasets::{HeterogeneousMix, MixKind};
use gpu_sim::{GpuConfig, StreamPartition};
use perf_envelope::json::Json;
use perf_envelope::{
    AdmissionPolicy, BatchingPolicy, CampaignCache, Experiment, FaultEvent, FaultPlan, RetryPolicy,
    Scheme, ServingReport, ServingScenario, StreamConfig, TrafficModel, Workload,
};

/// The p99 latency SLA every scenario is evaluated against.
const SLA_US: f64 = 25_000.0;

/// Requests per batch (fixed-size batching throughout).
const BATCH: u32 = 256;

/// Batches per scenario: long enough that mid-run faults hit steady state.
const BATCHES: u32 = 8;

fn mix() -> HeterogeneousMix {
    HeterogeneousMix::paper_mix(MixKind::Mix2, 1.0)
}

/// Near-simultaneous arrivals: `BATCHES` back-to-back batches, so fault
/// windows expressed in service units land in known batch windows.
fn burst_scenario() -> ServingScenario {
    ServingScenario::new(
        TrafficModel::uniform(100_000_000.0),
        BatchingPolicy::fixed_size(BATCH),
    )
    .with_requests(BATCH * BATCHES)
    .with_sla_us(SLA_US)
}

fn report_to_json(report: &ServingReport) -> Json {
    let mut doc = Json::object();
    doc.set("availability", Json::Num(report.availability));
    doc.set("served_requests", Json::UInt(report.served_requests as u64));
    doc.set("shed_requests", Json::UInt(report.shed_requests as u64));
    doc.set("failed_requests", Json::UInt(report.failed_requests as u64));
    doc.set("retries", Json::UInt(report.retries as u64));
    doc.set("hedges", Json::UInt(report.hedges as u64));
    doc.set("p50_us", Json::Num(report.latency.p50_us));
    doc.set("p99_us", Json::Num(report.latency.p99_us));
    doc.set("max_us", Json::Num(report.latency.max_us));
    doc.set("achieved_qps", Json::Num(report.achieved_qps));
    doc.set("goodput_qps", Json::Num(report.goodput_qps));
    doc.set("violation_rate", Json::Num(report.sla_violation_rate));
    doc.set("makespan_us", Json::Num(report.makespan_us));
    doc
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_resilience.json".to_string());
    let cache = CampaignCache::new();
    let e = Experiment::new(GpuConfig::test_small(), WorkloadScale::Test).with_cache(cache.clone());
    let workload = Workload::end_to_end(mix());
    let scheme = Scheme::combined();

    // The nominal one-batch service latency: the time unit every fault
    // window below is expressed in.
    let s = e
        .clone()
        .with_batch_size(BATCH)
        .run(&workload, &scheme)
        .latency_us;

    let mut doc = Json::object();
    doc.set(
        "schema",
        Json::Str("perf-envelope/bench-resilience/v1".to_string()),
    );
    doc.set("device", Json::Str(GpuConfig::test_small().name));
    doc.set("scale", Json::Str("test".to_string()));
    doc.set("workload", Json::Str(mix().name().to_string()));
    doc.set("sla_us", Json::Num(SLA_US));
    doc.set("batch", Json::UInt(BATCH as u64));
    doc.set("requests", Json::UInt((BATCH * BATCHES) as u64));
    doc.set("service_us", Json::Num(s));

    // ---- crash sweep: availability & goodput vs crash count, by retry policy ----
    // Crash windows strictly interior to known batch windows: the first
    // kills batch 3 ([2s, 3s)), the second batch 6 after recovery shifts
    // the schedule ([6s, 7s)).
    let crash_plans = [
        ("0", FaultPlan::empty()),
        (
            "1",
            FaultPlan::new(vec![FaultEvent::crash(0, 2.5 * s, 4.0 * s)]),
        ),
        (
            "2",
            FaultPlan::new(vec![
                FaultEvent::crash(0, 2.5 * s, 4.0 * s),
                FaultEvent::crash(0, 6.5 * s, 8.0 * s),
            ]),
        ),
    ];
    let retry_policies = [
        ("none", RetryPolicy::none()),
        ("fixed(3, 100us)", RetryPolicy::fixed(3, 100.0)),
    ];
    let mut crash_points = Vec::new();
    let mut one_crash_no_retry_availability = 1.0;
    let mut retried_always_full = true;
    for (crashes, plan) in &crash_plans {
        for (retry_label, retry) in &retry_policies {
            let report = burst_scenario()
                .with_faults(plan.clone())
                .with_retry(*retry)
                .simulate(&e, &workload, &scheme);
            assert_eq!(
                report.served_requests + report.shed_requests + report.failed_requests,
                report.requests,
                "every request must be served, shed or failed"
            );
            if *crashes == "1" && *retry == RetryPolicy::None {
                one_crash_no_retry_availability = report.availability;
            }
            if *retry != RetryPolicy::None {
                retried_always_full &= report.availability == 1.0 && report.failed_requests == 0;
            }
            let mut point = Json::object();
            point.set("crashes", Json::Str((*crashes).to_string()));
            point.set("retry", Json::Str((*retry_label).to_string()));
            point.set("report", report_to_json(&report));
            crash_points.push(point);
        }
    }
    doc.set("crash_sweep", Json::Arr(crash_points));

    // ---- straggler window: no hedging vs hedged(1.5) on two streams ----
    // Arrivals spaced two service times apart, so batches run independently
    // and the straggled batch's requests *are* the tail (an eighth of the
    // pool — well past the 99th percentile). The 4x straggler covers the
    // first batch's dispatch but is over before the hedge fires: the
    // duplicate runs at nominal speed on the second stream and wins,
    // pulling p99 in.
    let k2 = StreamConfig::new(2, StreamPartition::Interleaved);
    let spaced = ServingScenario::new(
        TrafficModel::uniform(BATCH as f64 / (2.0 * s) * 1e6),
        BatchingPolicy::fixed_size(BATCH),
    )
    .with_requests(BATCH * BATCHES)
    .with_sla_us(SLA_US);
    let straggled = FaultPlan::new(vec![FaultEvent::straggler(0, 0.0, 2.5 * s, 4.0)]);
    let straggler_none = spaced.clone().with_faults(straggled.clone()).simulate(
        &e.clone().with_streams(k2),
        &workload,
        &scheme,
    );
    let straggler_hedged = spaced
        .with_faults(straggled)
        .with_retry(RetryPolicy::hedged(1.5))
        .simulate(&e.clone().with_streams(k2), &workload, &scheme);
    let mut straggler_doc = Json::object();
    straggler_doc.set("streams", Json::UInt(2));
    straggler_doc.set("factor", Json::Num(4.0));
    straggler_doc.set("window_us", Json::Num(2.5 * s));
    straggler_doc.set("no_hedging", report_to_json(&straggler_none));
    straggler_doc.set("hedged_1_5x", report_to_json(&straggler_hedged));
    straggler_doc.set(
        "p99_improvement",
        Json::Num(straggler_none.latency.p99_us / straggler_hedged.latency.p99_us),
    );
    doc.set("straggler_hedging", straggler_doc);

    // ---- 50x overload: open admission vs SLA-aware shedding ----
    // Offered load 50x the one-batch service rate: the open queue piles up
    // far past the SLA; SLA-aware shedding trades availability for a
    // served tail bounded at the budget.
    let capacity_qps = BATCH as f64 / s * 1e6;
    let overload = ServingScenario::new(
        TrafficModel::uniform(50.0 * capacity_qps),
        BatchingPolicy::fixed_size(BATCH),
    )
    .with_requests(BATCH * 2 * BATCHES)
    .with_sla_us(SLA_US);
    let overload_none = overload.simulate(&e, &workload, &scheme);
    let overload_shed = overload
        .clone()
        .with_admission(AdmissionPolicy::sla_aware(1.0))
        .simulate(&e, &workload, &scheme);
    let mut overload_doc = Json::object();
    overload_doc.set("offered_qps", Json::Num(50.0 * capacity_qps));
    overload_doc.set("open_admission", report_to_json(&overload_none));
    overload_doc.set("sla_aware_shedding", report_to_json(&overload_shed));
    doc.set("overload_shedding", overload_doc);

    let mut cache_doc = Json::object();
    cache_doc.set("distinct_cells_simulated", Json::UInt(cache.misses()));
    doc.set("cache", cache_doc);

    let rendered = doc.render();
    std::fs::write(&out_path, &rendered).expect("failed to write the benchmark report");
    println!("{rendered}");
    println!();
    println!(
        "resilience study on {} ({} requests, service {:.0} us): \
         1 crash drops availability to {:.3} without retries, fixed retry holds 1.000; \
         straggler p99 {:.0} -> {:.0} us with hedging; \
         50x overload p99 {:.0} us open vs {:.0} us max shed at availability {:.3}; wrote {out_path}",
        mix().name(),
        BATCH * BATCHES,
        s,
        one_crash_no_retry_availability,
        straggler_none.latency.p99_us,
        straggler_hedged.latency.p99_us,
        overload_none.latency.p99_us,
        overload_shed.latency.max_us,
        overload_shed.availability,
    );

    assert!(
        one_crash_no_retry_availability < 1.0,
        "a crash without retries must lose the in-flight batch"
    );
    assert_eq!(
        one_crash_no_retry_availability,
        (BATCH * (BATCHES - 1)) as f64 / (BATCH * BATCHES) as f64,
        "exactly one batch of {BATCH} is in flight at the crash"
    );
    assert!(
        retried_always_full,
        "fixed retry must win every crashed batch back to availability 1.0"
    );
    assert!(
        straggler_hedged.hedges >= 1,
        "the straggler must trigger a hedge"
    );
    assert!(
        straggler_hedged.latency.p99_us < straggler_none.latency.p99_us,
        "hedging must improve p99 under a straggler ({} vs {})",
        straggler_hedged.latency.p99_us,
        straggler_none.latency.p99_us
    );
    assert!(
        overload_none.latency.p99_us > SLA_US,
        "50x overload must bust the SLA without admission control"
    );
    assert!(
        overload_shed.latency.max_us <= SLA_US,
        "SLA-aware shedding must bound every served request at the SLA \
         ({} vs {SLA_US})",
        overload_shed.latency.max_us
    );
    assert!(
        overload_shed.availability < 1.0,
        "bounding the tail under 50x overload must shed work"
    );
    assert!(
        overload_shed.shed_requests > 0 && overload_shed.failed_requests == 0,
        "degradation under overload is shedding, not failure"
    );
}

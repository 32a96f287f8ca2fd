//! The result of one serving simulation: [`ServingReport`].
//!
//! Where a [`crate::RunReport`] answers "how fast is one batch", a
//! `ServingReport` answers "what does a *stream* of requests experience":
//! the full per-request latency distribution (p50/p95/p99/max/mean),
//! achieved throughput, the SLA-violation rate, the wait decomposition
//! (batch-formation vs queueing), the distinct batch shapes that were
//! priced, and per-device plus per-stream utilization. Reports serialize to
//! JSON ([`ServingReport::to_json`]) through the same streaming writer and
//! scalar formatters as run reports, so serving studies can be archived and
//! diffed. Each struct here has one `write_fields` that destructures it
//! without a `..` rest pattern. No reader exists: nothing persists serving
//! reports yet, and one is added together with whatever first does.

use crate::json::{array, object, render_object, ObjectWriter};

/// Identifier of the serving-report JSON schema produced by this crate
/// version.
pub const SERVING_REPORT_SCHEMA: &str = "perf-envelope/serving-report/v1";

/// Nearest-rank percentiles (plus max and mean) of the per-request latency
/// distribution, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Median latency.
    pub p50_us: f64,
    /// 95th-percentile latency.
    pub p95_us: f64,
    /// 99th-percentile latency.
    pub p99_us: f64,
    /// Worst request.
    pub max_us: f64,
    /// Arithmetic mean.
    pub mean_us: f64,
}

impl LatencyStats {
    /// Computes nearest-rank percentiles over `sorted` (ascending) latency
    /// samples.
    ///
    /// # Panics
    /// Panics if `sorted` is empty.
    pub(crate) fn from_sorted(sorted: &[f64]) -> LatencyStats {
        assert!(!sorted.is_empty(), "latency statistics need samples");
        let rank = |p: f64| -> f64 {
            let r = (p / 100.0 * sorted.len() as f64).ceil() as usize;
            sorted[r.clamp(1, sorted.len()) - 1]
        };
        LatencyStats {
            p50_us: rank(50.0),
            p95_us: rank(95.0),
            p99_us: rank(99.0),
            max_us: sorted[sorted.len() - 1],
            mean_us: sorted.iter().sum::<f64>() / sorted.len() as f64,
        }
    }

    /// The all-zero distribution a scenario reports when admission control
    /// shed every single request (there are no served samples to rank).
    pub(crate) fn zeroed() -> LatencyStats {
        LatencyStats {
            p50_us: 0.0,
            p95_us: 0.0,
            p99_us: 0.0,
            max_us: 0.0,
            mean_us: 0.0,
        }
    }

    pub(crate) fn write_fields(&self, w: &mut ObjectWriter<'_>) {
        let LatencyStats {
            p50_us,
            p95_us,
            p99_us,
            max_us,
            mean_us,
        } = *self;
        w.set("max_us", max_us);
        w.set("mean_us", mean_us);
        w.set("p50_us", p50_us);
        w.set("p95_us", p95_us);
        w.set("p99_us", p99_us);
    }
}

/// Sorts served-request latencies ascending, as integer keys: the sequence
/// `sort_by(partial_cmp)` produces, at the cost of `u64` comparisons.
///
/// For finite, sign-positive doubles the IEEE 754 bit pattern read as a
/// `u64` orders exactly as the value does: the sign bit is clear, the
/// biased exponent sits above the mantissa, and subnormals and `+0.0` sort
/// below every normal value. Equal values are bit-equal, so the stable
/// float sort and the integer sort agree element for element, and every
/// percentile, the maximum and the sorted-order `mean_us` sum come out
/// identical. The conversion reuses the vector's allocation.
///
/// The serving loop hands over one ascending run per served batch (and the
/// fleet one sorted run per replica), so the stable sort, which detects
/// runs, only merges them; `sort_unstable` measured slower on this input.
///
/// # Panics
/// Panics on a NaN, an infinity, a negative value or `-0.0`: outside the
/// finite, sign-positive doubles bit order is not numeric order (`-0.0`
/// would sort after every positive value), and a latency there is a bug.
pub(crate) fn sort_latencies(latencies: Vec<f64>) -> Vec<f64> {
    let mut keys: Vec<u64> = latencies
        .into_iter()
        .map(|latency| {
            assert!(
                latency.is_finite() && latency.is_sign_positive(),
                "latencies are finite and non-negative (got {latency})"
            );
            latency.to_bits()
        })
        .collect();
    keys.sort();
    keys.into_iter().map(f64::from_bits).collect()
}

/// One [`crate::FaultEvent`]'s footprint on a serving simulation: how many
/// batch launches (and the requests they carried) the event killed,
/// delayed or slowed. A crash counts both the batches it lost and the
/// dispatches it pushed past its recovery time; a drain counts delayed
/// dispatches; straggler and interconnect events count the batches that
/// started under their factor.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultTimelineEntry {
    /// The event's [`crate::FaultEvent::label`].
    pub event: String,
    /// When the event's window opened, in microseconds.
    pub start_us: f64,
    /// When the event's window closed, in microseconds.
    pub end_us: f64,
    /// Batch launches the event killed, delayed or slowed.
    pub batches_affected: u32,
    /// Requests carried by those launches.
    pub requests_affected: u32,
}

impl FaultTimelineEntry {
    fn write_fields(&self, w: &mut ObjectWriter<'_>) {
        let FaultTimelineEntry {
            event,
            start_us,
            end_us,
            batches_affected,
            requests_affected,
        } = self;
        w.set("batches_affected", *batches_affected);
        w.set("end_us", *end_us);
        w.set("event", event.as_str());
        w.set("requests_affected", *requests_affected);
        w.set("start_us", *start_us);
    }
}

/// One distinct priced batch shape: how many batches launched at it and the
/// service latency one such batch costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchShapeStats {
    /// The padded launch shape (samples per batch).
    pub shape: u32,
    /// Number of batches launched at this shape.
    pub batches: u32,
    /// Service latency of one batch at this shape, in microseconds (the
    /// priced [`crate::RunReport::latency_us`]).
    pub latency_us: f64,
}

impl BatchShapeStats {
    fn write_fields(&self, w: &mut ObjectWriter<'_>) {
        let BatchShapeStats {
            shape,
            batches,
            latency_us,
        } = *self;
        w.set("batches", batches);
        w.set("latency_us", latency_us);
        w.set("shape", shape);
    }
}

/// One device's share of the serving horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceUtilization {
    /// Device name (from its [`gpu_sim::GpuConfig`]).
    pub device: String,
    /// Total simulated busy time across every served batch (summed over
    /// the device's execution streams), in microseconds.
    pub busy_us: f64,
    /// `busy_us` over the serving makespan times the stream count, in
    /// `[0, 1]` (with one stream this is plain busy-over-makespan).
    pub utilization: f64,
}

impl DeviceUtilization {
    fn write_fields(&self, w: &mut ObjectWriter<'_>) {
        let DeviceUtilization {
            device,
            busy_us,
            utilization,
        } = self;
        w.set("busy_us", *busy_us);
        w.set("device", device.as_str());
        w.set("utilization", *utilization);
    }
}

/// One execution stream's share of the serving horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamUtilization {
    /// Stream index, `0..streams`.
    pub stream: u32,
    /// Total service time of the batches this stream executed, in
    /// microseconds.
    pub busy_us: f64,
    /// Number of batches dispatched to this stream.
    pub batches: u32,
    /// `busy_us` over the serving makespan, in `[0, 1]`.
    pub utilization: f64,
}

impl StreamUtilization {
    fn write_fields(&self, w: &mut ObjectWriter<'_>) {
        let StreamUtilization {
            stream,
            busy_us,
            batches,
            utilization,
        } = *self;
        w.set("batches", batches);
        w.set("busy_us", busy_us);
        w.set("stream", stream);
        w.set("utilization", utilization);
    }
}

/// The result of one [`crate::ServingScenario::simulate`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingReport {
    /// Dataset label of the served workload (`"random"`, `"Mix2"`, ...).
    pub workload: String,
    /// Paper-style scheme label (`"RPF+L2P+OptMT"`, `"base"`, ...).
    pub scheme: String,
    /// Root device name of the serving deployment.
    pub device: String,
    /// Workload scale name (`"test"`, `"default"`, `"paper"`).
    pub scale: String,
    /// Arrival-trace seed the scenario used.
    pub seed: u64,
    /// Traffic-model name (`"poisson"`, `"bursty"`, ...).
    pub traffic: String,
    /// Mean offered load in requests per second.
    pub offered_qps: f64,
    /// Batching-policy label (`"fixed_size(256)"`, ...).
    pub policy: String,
    /// The latency SLA the scenario was evaluated against, in microseconds.
    pub sla_us: f64,
    /// Number of requests the arrival trace offered.
    pub requests: u32,
    /// Requests that completed (`requests - shed_requests -
    /// failed_requests`).
    pub served_requests: u32,
    /// Requests the [`crate::AdmissionPolicy`] shed for graceful
    /// degradation (never counted as failed — shedding is a choice).
    pub shed_requests: u32,
    /// Requests lost to crashes and not recovered by the
    /// [`crate::RetryPolicy`].
    pub failed_requests: u32,
    /// Batch re-dispatches a fixed-retry policy issued after crashes.
    pub retries: u32,
    /// Duplicate dispatches a hedged policy issued for lost or slow
    /// batches.
    pub hedges: u32,
    /// `served_requests / requests`, in `[0, 1]` (`1.0` on a fault-free,
    /// unshed run).
    pub availability: f64,
    /// Requests per second completed *within* the SLA over the makespan —
    /// the goodput the offered load actually bought.
    pub goodput_qps: f64,
    /// Per-event footprint of the scenario's [`crate::FaultPlan`], in the
    /// plan's canonical event order (empty for the empty plan).
    pub fault_events: Vec<FaultTimelineEntry>,
    /// Number of batches launched.
    pub batches: u32,
    /// Distinct priced batch shapes, ascending by shape.
    pub shapes: Vec<BatchShapeStats>,
    /// Requests per second actually completed over the makespan.
    pub achieved_qps: f64,
    /// Per-request latency distribution.
    pub latency: LatencyStats,
    /// Mean time requests spent waiting for their batch to form, in
    /// microseconds.
    pub mean_batch_wait_us: f64,
    /// Mean time formed batches spent queued behind the busy execution
    /// stream, averaged per request, in microseconds.
    pub mean_queue_wait_us: f64,
    /// Fraction of requests whose latency exceeded the SLA, in `[0, 1]`.
    pub sla_violation_rate: f64,
    /// Per-device busy time and utilization, in device order (root first).
    pub utilization: Vec<DeviceUtilization>,
    /// Number of concurrent execution streams batches were dispatched
    /// across (`1` for the plain FIFO pipeline).
    pub streams: u32,
    /// Per-stream busy time, batch count and utilization, in stream order.
    pub stream_utilization: Vec<StreamUtilization>,
    /// End of the simulation: completion time of the last batch, in
    /// microseconds from the first arrival.
    pub makespan_us: f64,
}

impl ServingReport {
    /// Whether the deployment met the SLA: the p99 latency is within
    /// `sla_us`.
    pub fn meets_sla(&self) -> bool {
        self.latency.p99_us <= self.sla_us
    }

    /// Serializes the report to compact JSON.
    pub fn to_json(&self) -> String {
        render_object(|w| self.write_fields(w))
    }

    /// Writes the report's fields: its JSON encoding, and a replica's
    /// report inside a [`crate::FleetReport`].
    pub(crate) fn write_fields(&self, w: &mut ObjectWriter<'_>) {
        let ServingReport {
            workload,
            scheme,
            device,
            scale,
            seed,
            traffic,
            offered_qps,
            policy,
            sla_us,
            requests,
            served_requests,
            shed_requests,
            failed_requests,
            retries,
            hedges,
            availability,
            goodput_qps,
            fault_events,
            batches,
            shapes,
            achieved_qps,
            latency,
            mean_batch_wait_us,
            mean_queue_wait_us,
            sla_violation_rate,
            utilization,
            streams,
            stream_utilization,
            makespan_us,
        } = self;
        w.set("achieved_qps", *achieved_qps);
        w.set("availability", *availability);
        w.set("batches", *batches);
        w.set("device", device.as_str());
        w.set("failed_requests", *failed_requests);
        w.set(
            "fault_events",
            array(|a| a.push_objects(fault_events, FaultTimelineEntry::write_fields)),
        );
        w.set("goodput_qps", *goodput_qps);
        w.set("hedges", *hedges);
        w.set("latency", object(|o| latency.write_fields(o)));
        w.set("makespan_us", *makespan_us);
        w.set("mean_batch_wait_us", *mean_batch_wait_us);
        w.set("mean_queue_wait_us", *mean_queue_wait_us);
        w.set("offered_qps", *offered_qps);
        w.set("policy", policy.as_str());
        w.set("requests", *requests);
        w.set("retries", *retries);
        w.set("scale", scale.as_str());
        w.set("schema", SERVING_REPORT_SCHEMA);
        w.set("scheme", scheme.as_str());
        w.set("seed", *seed);
        w.set("served_requests", *served_requests);
        w.set(
            "shapes",
            array(|a| a.push_objects(shapes, BatchShapeStats::write_fields)),
        );
        w.set("shed_requests", *shed_requests);
        w.set("sla_us", *sla_us);
        w.set("sla_violation_rate", *sla_violation_rate);
        w.set(
            "stream_utilization",
            array(|a| a.push_objects(stream_utilization, StreamUtilization::write_fields)),
        );
        w.set("streams", *streams);
        w.set("traffic", traffic.as_str());
        w.set(
            "utilization",
            array(|a| a.push_objects(utilization, DeviceUtilization::write_fields)),
        );
        w.set("workload", workload.as_str());
    }
}

impl std::fmt::Display for ServingReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} under {} at {:.0} qps via {}: p99 {:.1} us, {:.1}% violations",
            self.workload,
            self.scheme,
            self.offered_qps,
            self.policy,
            self.latency.p99_us,
            self.sla_violation_rate * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn sample_report() -> ServingReport {
        ServingReport {
            workload: "Mix2".to_string(),
            scheme: "RPF+L2P+OptMT".to_string(),
            device: "Test GPU".to_string(),
            scale: "test".to_string(),
            seed: 0xAD5EED,
            traffic: "poisson".to_string(),
            offered_qps: 1234.5,
            policy: "timeout(256, 500us)".to_string(),
            sla_us: 25_000.0,
            requests: 1000,
            served_requests: 950,
            shed_requests: 30,
            failed_requests: 20,
            retries: 3,
            hedges: 2,
            availability: 0.95,
            goodput_qps: 1126.640625,
            fault_events: vec![FaultTimelineEntry {
                event: "crash(dev0, 1000us..2000us)".to_string(),
                start_us: 1000.0,
                end_us: 2000.0,
                batches_affected: 1,
                requests_affected: 128,
            }],
            batches: 7,
            shapes: vec![
                BatchShapeStats {
                    shape: 128,
                    batches: 3,
                    latency_us: 811.25,
                },
                BatchShapeStats {
                    shape: 256,
                    batches: 4,
                    latency_us: 1390.0625,
                },
            ],
            achieved_qps: 1201.75,
            latency: LatencyStats {
                p50_us: 900.5,
                p95_us: 1800.25,
                p99_us: 2100.125,
                max_us: 2600.0,
                mean_us: 1000.0625,
            },
            mean_batch_wait_us: 120.5,
            mean_queue_wait_us: 44.25,
            sla_violation_rate: 0.0625,
            utilization: vec![
                DeviceUtilization {
                    device: "Test GPU".to_string(),
                    busy_us: 7000.5,
                    utilization: 0.875,
                },
                DeviceUtilization {
                    device: "Test GPU".to_string(),
                    busy_us: 6100.25,
                    utilization: 0.75,
                },
            ],
            streams: 2,
            stream_utilization: vec![
                StreamUtilization {
                    stream: 0,
                    busy_us: 4200.5,
                    batches: 4,
                    utilization: 0.525,
                },
                StreamUtilization {
                    stream: 1,
                    busy_us: 3100.25,
                    batches: 3,
                    utilization: 0.3875,
                },
            ],
            makespan_us: 8000.5,
        }
    }

    #[test]
    fn json_is_canonical_and_carries_every_block() {
        let report = sample_report();
        let text = report.to_json();
        let doc = Json::parse(&text).unwrap();
        assert_eq!(doc.render(), text, "keys must stream in ascending order");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(SERVING_REPORT_SCHEMA)
        );
        let latency = doc.get("latency").unwrap();
        assert_eq!(latency.get("p99_us").and_then(Json::as_f64), Some(2100.125));
        for (key, len) in [
            ("fault_events", 1),
            ("shapes", 2),
            ("stream_utilization", 2),
            ("utilization", 2),
        ] {
            let items = doc.get(key).and_then(Json::as_array).unwrap();
            assert_eq!(items.len(), len, "{key}");
        }
    }

    #[test]
    fn nearest_rank_percentiles_are_order_statistics() {
        let sorted: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let stats = LatencyStats::from_sorted(&sorted);
        assert_eq!(stats.p50_us, 50.0);
        assert_eq!(stats.p95_us, 95.0);
        assert_eq!(stats.p99_us, 99.0);
        assert_eq!(stats.max_us, 100.0);
        assert_eq!(stats.mean_us, 50.5);
        // A single sample is every percentile at once — the degenerate
        // anchor the serving equivalence suite relies on.
        let single = LatencyStats::from_sorted(&[7.25]);
        assert_eq!(
            (single.p50_us, single.p99_us, single.max_us, single.mean_us),
            (7.25, 7.25, 7.25, 7.25)
        );
    }

    #[test]
    fn latencies_sort_as_integer_keys_exactly_as_floats() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5047);
        let mut cases: Vec<Vec<f64>> = vec![
            Vec::new(),
            vec![3.5],
            vec![0.0],
            vec![f64::MAX, 0.0, f64::MIN_POSITIVE, f64::from_bits(1), 1.0],
        ];
        for _ in 0..200 {
            let len = rng.gen_range(0..300usize);
            let mut case = Vec::with_capacity(len);
            while case.len() < len {
                match rng.gen_range(0..4u32) {
                    // A subnormal.
                    0 => case.push(f64::from_bits(rng.gen_range(0..1u64 << 52))),
                    // A duplicate of an earlier value.
                    1 if !case.is_empty() => {
                        case.push(case[rng.gen_range(0..case.len())]);
                    }
                    // One batch: batching waits fall as arrivals rise, so
                    // its latencies form a descending run.
                    2 => {
                        let service = 1.0 + rng.gen::<f64>() * 1e4;
                        let mut wait = rng.gen::<f64>() * 1e3;
                        for _ in 0..rng.gen_range(1..64u32) {
                            case.push(wait + service);
                            wait *= rng.gen::<f64>();
                        }
                    }
                    _ => case.push(rng.gen::<f64>() * 1e5),
                }
            }
            cases.push(case);
        }
        for case in cases {
            let mut expected = case.clone();
            expected.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&sort_latencies(case)), bits(&expected));
        }
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn sorting_a_nan_latency_panics() {
        sort_latencies(vec![1.0, f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn sorting_a_negative_zero_latency_panics() {
        sort_latencies(vec![1.0, -0.0]);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn sorting_a_negative_latency_panics() {
        sort_latencies(vec![1.0, -2.0]);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn sorting_an_infinite_latency_panics() {
        sort_latencies(vec![1.0, f64::INFINITY]);
    }

    #[test]
    fn sla_verdict_compares_p99() {
        let mut report = sample_report();
        assert!(report.meets_sla());
        report.sla_us = 2_000.0;
        assert!(!report.meets_sla());
    }
}

//! The result of one serving simulation: [`ServingReport`].
//!
//! Where a [`crate::RunReport`] answers "how fast is one batch", a
//! `ServingReport` answers "what does a *stream* of requests experience":
//! the full per-request latency distribution (p50/p95/p99/max/mean),
//! achieved throughput, the SLA-violation rate, the wait decomposition
//! (batch-formation vs queueing), the distinct batch shapes that were
//! priced, and per-device plus per-stream utilization. Reports serialize to
//! JSON
//! ([`ServingReport::to_json`]) with the same canonical codec as run
//! reports, so serving studies can be archived and diffed.

use crate::json::{req_f64, req_str, req_u32, req_u64, Json, JsonError};

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
        self.to_json_value().render()
    }

    /// The report as a [`Json`] document (for embedding into larger
    /// documents, e.g. a benchmark sweep).
    pub fn to_json_value(&self) -> Json {
        let mut doc = Json::object();
        doc.set("schema", Json::Str(SERVING_REPORT_SCHEMA.to_string()));
        doc.set("workload", Json::Str(self.workload.clone()));
        doc.set("scheme", Json::Str(self.scheme.clone()));
        doc.set("device", Json::Str(self.device.clone()));
        doc.set("scale", Json::Str(self.scale.clone()));
        doc.set("seed", Json::UInt(self.seed));
        doc.set("traffic", Json::Str(self.traffic.clone()));
        doc.set("offered_qps", Json::Num(self.offered_qps));
        doc.set("policy", Json::Str(self.policy.clone()));
        doc.set("sla_us", Json::Num(self.sla_us));
        doc.set("requests", Json::UInt(self.requests as u64));
        doc.set("served_requests", Json::UInt(self.served_requests as u64));
        doc.set("shed_requests", Json::UInt(self.shed_requests as u64));
        doc.set("failed_requests", Json::UInt(self.failed_requests as u64));
        doc.set("retries", Json::UInt(self.retries as u64));
        doc.set("hedges", Json::UInt(self.hedges as u64));
        doc.set("availability", Json::Num(self.availability));
        doc.set("goodput_qps", Json::Num(self.goodput_qps));
        doc.set(
            "fault_events",
            Json::Arr(
                self.fault_events
                    .iter()
                    .map(|e| {
                        let mut obj = Json::object();
                        obj.set("event", Json::Str(e.event.clone()));
                        obj.set("start_us", Json::Num(e.start_us));
                        obj.set("end_us", Json::Num(e.end_us));
                        obj.set("batches_affected", Json::UInt(e.batches_affected as u64));
                        obj.set("requests_affected", Json::UInt(e.requests_affected as u64));
                        obj
                    })
                    .collect(),
            ),
        );
        doc.set("batches", Json::UInt(self.batches as u64));
        doc.set(
            "shapes",
            Json::Arr(
                self.shapes
                    .iter()
                    .map(|s| {
                        let mut obj = Json::object();
                        obj.set("shape", Json::UInt(s.shape as u64));
                        obj.set("batches", Json::UInt(s.batches as u64));
                        obj.set("latency_us", Json::Num(s.latency_us));
                        obj
                    })
                    .collect(),
            ),
        );
        doc.set("achieved_qps", Json::Num(self.achieved_qps));
        let mut latency = Json::object();
        latency.set("p50_us", Json::Num(self.latency.p50_us));
        latency.set("p95_us", Json::Num(self.latency.p95_us));
        latency.set("p99_us", Json::Num(self.latency.p99_us));
        latency.set("max_us", Json::Num(self.latency.max_us));
        latency.set("mean_us", Json::Num(self.latency.mean_us));
        doc.set("latency", latency);
        doc.set("mean_batch_wait_us", Json::Num(self.mean_batch_wait_us));
        doc.set("mean_queue_wait_us", Json::Num(self.mean_queue_wait_us));
        doc.set("sla_violation_rate", Json::Num(self.sla_violation_rate));
        doc.set(
            "utilization",
            Json::Arr(
                self.utilization
                    .iter()
                    .map(|u| {
                        let mut obj = Json::object();
                        obj.set("device", Json::Str(u.device.clone()));
                        obj.set("busy_us", Json::Num(u.busy_us));
                        obj.set("utilization", Json::Num(u.utilization));
                        obj
                    })
                    .collect(),
            ),
        );
        doc.set("streams", Json::UInt(self.streams as u64));
        doc.set(
            "stream_utilization",
            Json::Arr(
                self.stream_utilization
                    .iter()
                    .map(|s| {
                        let mut obj = Json::object();
                        obj.set("stream", Json::UInt(s.stream as u64));
                        obj.set("busy_us", Json::Num(s.busy_us));
                        obj.set("batches", Json::UInt(s.batches as u64));
                        obj.set("utilization", Json::Num(s.utilization));
                        obj
                    })
                    .collect(),
            ),
        );
        doc.set("makespan_us", Json::Num(self.makespan_us));
        doc
    }

    /// Parses a report back from [`ServingReport::to_json`] output.
    ///
    /// # Errors
    /// Returns a [`JsonError`] on syntax errors, a wrong `schema` tag, or
    /// missing/mistyped fields.
    pub fn from_json(text: &str) -> Result<ServingReport, JsonError> {
        Self::from_json_value(&Json::parse(text)?)
    }

    /// Parses a report from an already-parsed [`Json`] document.
    ///
    /// # Errors
    /// Returns a [`JsonError`] on a wrong `schema` tag or missing fields.
    pub fn from_json_value(doc: &Json) -> Result<ServingReport, JsonError> {
        let schema = req_str(doc, "schema")?;
        if schema != SERVING_REPORT_SCHEMA {
            return Err(JsonError::schema(format!(
                "unsupported serving-report schema '{schema}'"
            )));
        }
        let shapes = doc
            .get("shapes")
            .and_then(Json::as_array)
            .ok_or_else(|| JsonError::schema("field 'shapes' is not an array"))?
            .iter()
            .map(|s| {
                Ok(BatchShapeStats {
                    shape: req_u32(s, "shape")?,
                    batches: req_u32(s, "batches")?,
                    latency_us: req_f64(s, "latency_us")?,
                })
            })
            .collect::<Result<Vec<_>, JsonError>>()?;
        let latency_doc = doc
            .get("latency")
            .ok_or_else(|| JsonError::schema("missing field 'latency'"))?;
        let latency = LatencyStats {
            p50_us: req_f64(latency_doc, "p50_us")?,
            p95_us: req_f64(latency_doc, "p95_us")?,
            p99_us: req_f64(latency_doc, "p99_us")?,
            max_us: req_f64(latency_doc, "max_us")?,
            mean_us: req_f64(latency_doc, "mean_us")?,
        };
        let utilization = doc
            .get("utilization")
            .and_then(Json::as_array)
            .ok_or_else(|| JsonError::schema("field 'utilization' is not an array"))?
            .iter()
            .map(|u| {
                Ok(DeviceUtilization {
                    device: req_str(u, "device")?.to_string(),
                    busy_us: req_f64(u, "busy_us")?,
                    utilization: req_f64(u, "utilization")?,
                })
            })
            .collect::<Result<Vec<_>, JsonError>>()?;
        // Stream fields are optional so reports archived before the
        // concurrent-stream refactor (same schema tag) still parse: a
        // missing block means the plain single-stream pipeline.
        let streams = match doc.get("streams") {
            Some(value) => value.as_u32().ok_or_else(|| {
                JsonError::schema("field 'streams' is not a 32-bit unsigned integer")
            })?,
            None => 1,
        };
        // Resilience fields are optional so reports archived before the
        // fault-injection refactor (same schema tag) still parse: a
        // missing block means a fault-free run that served everything,
        // mirroring the per-stream-fields precedent below.
        let requests = req_u32(doc, "requests")?;
        let achieved_qps = req_f64(doc, "achieved_qps")?;
        let sla_violation_rate = req_f64(doc, "sla_violation_rate")?;
        let opt_u32 = |key: &str, default: u32| -> Result<u32, JsonError> {
            match doc.get(key) {
                Some(value) => value.as_u32().ok_or_else(|| {
                    JsonError::schema(format!("field '{key}' is not a 32-bit unsigned integer"))
                }),
                None => Ok(default),
            }
        };
        let served_requests = opt_u32("served_requests", requests)?;
        let shed_requests = opt_u32("shed_requests", 0)?;
        let failed_requests = opt_u32("failed_requests", 0)?;
        let retries = opt_u32("retries", 0)?;
        let hedges = opt_u32("hedges", 0)?;
        let availability = match doc.get("availability") {
            Some(value) => value
                .as_f64()
                .ok_or_else(|| JsonError::schema("field 'availability' is not a number"))?,
            None => 1.0,
        };
        let goodput_qps = match doc.get("goodput_qps") {
            Some(value) => value
                .as_f64()
                .ok_or_else(|| JsonError::schema("field 'goodput_qps' is not a number"))?,
            None => achieved_qps * (1.0 - sla_violation_rate),
        };
        let fault_events = match doc.get("fault_events") {
            Some(value) => value
                .as_array()
                .ok_or_else(|| JsonError::schema("field 'fault_events' is not an array"))?
                .iter()
                .map(|e| {
                    Ok(FaultTimelineEntry {
                        event: req_str(e, "event")?.to_string(),
                        start_us: req_f64(e, "start_us")?,
                        end_us: req_f64(e, "end_us")?,
                        batches_affected: req_u32(e, "batches_affected")?,
                        requests_affected: req_u32(e, "requests_affected")?,
                    })
                })
                .collect::<Result<Vec<_>, JsonError>>()?,
            None => Vec::new(),
        };
        let stream_utilization = match doc.get("stream_utilization") {
            Some(value) => value
                .as_array()
                .ok_or_else(|| JsonError::schema("field 'stream_utilization' is not an array"))?
                .iter()
                .map(|s| {
                    Ok(StreamUtilization {
                        stream: req_u32(s, "stream")?,
                        busy_us: req_f64(s, "busy_us")?,
                        batches: req_u32(s, "batches")?,
                        utilization: req_f64(s, "utilization")?,
                    })
                })
                .collect::<Result<Vec<_>, JsonError>>()?,
            None => Vec::new(),
        };
        Ok(ServingReport {
            workload: req_str(doc, "workload")?.to_string(),
            scheme: req_str(doc, "scheme")?.to_string(),
            device: req_str(doc, "device")?.to_string(),
            scale: req_str(doc, "scale")?.to_string(),
            seed: req_u64(doc, "seed")?,
            traffic: req_str(doc, "traffic")?.to_string(),
            offered_qps: req_f64(doc, "offered_qps")?,
            policy: req_str(doc, "policy")?.to_string(),
            sla_us: req_f64(doc, "sla_us")?,
            requests,
            served_requests,
            shed_requests,
            failed_requests,
            retries,
            hedges,
            availability,
            goodput_qps,
            fault_events,
            batches: req_u32(doc, "batches")?,
            shapes,
            achieved_qps,
            latency,
            mean_batch_wait_us: req_f64(doc, "mean_batch_wait_us")?,
            mean_queue_wait_us: req_f64(doc, "mean_queue_wait_us")?,
            sla_violation_rate,
            utilization,
            streams,
            stream_utilization,
            makespan_us: req_f64(doc, "makespan_us")?,
        })
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
    fn json_round_trip_is_exact_and_stable() {
        let report = sample_report();
        let text = report.to_json();
        let back = ServingReport::from_json(&text).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn reports_without_stream_fields_parse_as_single_stream() {
        // Reports archived before the concurrent-stream refactor carry the
        // same schema tag but no stream block.
        let report = sample_report();
        let text = report.to_json();
        // Cut the stream block out of the rendered document to
        // reconstruct the archived layout; keys render sorted, so
        // "stream_utilization" and "streams" sit back-to-back right
        // before "traffic".
        let start = text.find("\"stream_utilization\"").unwrap();
        let end = text.find("\"traffic\"").unwrap();
        let legacy = format!("{}{}", &text[..start], &text[end..]);
        let back = ServingReport::from_json(&legacy).unwrap();
        assert_eq!(back.streams, 1);
        assert!(back.stream_utilization.is_empty());
        assert_eq!(back.latency, report.latency);
        assert_eq!(back.utilization, report.utilization);
    }

    #[test]
    fn reports_without_resilience_fields_parse_as_fault_free() {
        // Reports archived before the fault-injection refactor carry the
        // same schema tag but none of the availability/retry/shed fields.
        let report = sample_report();
        let text = report.to_json();
        // Cut the resilience keys out of the rendered document to
        // reconstruct the archived layout; keys render sorted, so each
        // group sits right before a surviving key.
        let cut = |text: &str, from: &str, upto: &str| -> String {
            let start = text.find(&format!("\"{from}\"")).unwrap();
            let end = text.find(&format!("\"{upto}\"")).unwrap();
            format!("{}{}", &text[..start], &text[end..])
        };
        let legacy = cut(&text, "availability", "batches");
        // failed_requests, fault_events, goodput_qps and hedges render
        // contiguously between "device" and "latency".
        let legacy = cut(&legacy, "failed_requests", "latency");
        let legacy = cut(&legacy, "retries", "scale");
        let legacy = cut(&legacy, "served_requests", "shapes");
        let legacy = cut(&legacy, "shed_requests", "sla_us");
        let back = ServingReport::from_json(&legacy).unwrap();
        assert_eq!(back.served_requests, back.requests);
        assert_eq!(back.shed_requests, 0);
        assert_eq!(back.failed_requests, 0);
        assert_eq!(back.retries, 0);
        assert_eq!(back.hedges, 0);
        assert_eq!(back.availability, 1.0);
        assert_eq!(
            back.goodput_qps,
            back.achieved_qps * (1.0 - back.sla_violation_rate)
        );
        assert!(back.fault_events.is_empty());
        // Everything that was present parses unchanged.
        assert_eq!(back.latency, report.latency);
        assert_eq!(back.utilization, report.utilization);
        assert_eq!(back.stream_utilization, report.stream_utilization);
    }

    #[test]
    fn schema_tag_is_enforced() {
        let text = sample_report()
            .to_json()
            .replace(SERVING_REPORT_SCHEMA, "something/else");
        let err = ServingReport::from_json(&text).unwrap_err();
        assert!(err.message.contains("unsupported serving-report schema"));
    }

    #[test]
    fn missing_fields_are_reported_by_name() {
        let text = sample_report().to_json().replace("\"batches\":7,", "");
        let err = ServingReport::from_json(&text).unwrap_err();
        assert!(err.message.contains("batches"), "{err}");
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
    fn sla_verdict_compares_p99() {
        let mut report = sample_report();
        assert!(report.meets_sla());
        report.sla_us = 2_000.0;
        assert!(!report.meets_sla());
    }
}

//! The unified result of one experiment run: [`RunReport`].
//!
//! `RunReport` supersedes the seed's fragmented result types (raw
//! `KernelStats` for kernel runs, `EmbeddingStageResult` for stage runs,
//! `EndToEndResult` for end-to-end runs): every [`crate::Experiment::run`]
//! call — whatever the [`crate::Workload`] — produces one `RunReport`
//! carrying latency, the per-table breakdown, NCU-style counters, and the
//! scheme/workload/device metadata needed to interpret the numbers later.
//! Reports serialize to JSON ([`RunReport::to_json`]) and parse back
//! ([`RunReport::from_json`]) so campaigns can be archived and diffed, and
//! so a persisted [`crate::CampaignCache`] can be reloaded. Each struct here
//! has one `write_fields` that destructures it without a `..` rest pattern,
//! so a new field does not compile until it is written or bound to `_`.

use dlrm::BatchLatency;
use gpu_sim::stats::RawCounters;
use gpu_sim::KernelStats;

use crate::json::{
    array, object, render_object, req_f64, req_str, req_u32, req_u64, Json, JsonError, ObjectWriter,
};
use crate::workload::WorkloadKind;

/// Identifier of the report JSON schema produced by this crate version.
pub const RUN_REPORT_SCHEMA: &str = "perf-envelope/run-report/v1";

/// Per-table breakdown of an embedding-stage (or end-to-end) run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableBreakdown {
    /// Average simulated latency of one table, in microseconds.
    pub per_table_us: f64,
    /// Number of tables in the model.
    pub tables_total: u32,
    /// Number of tables actually simulated before extrapolation.
    pub tables_simulated: u32,
}

impl TableBreakdown {
    pub(crate) fn write_fields(&self, w: &mut ObjectWriter<'_>) {
        let TableBreakdown {
            per_table_us,
            tables_total,
            tables_simulated,
        } = *self;
        w.set("per_table_us", per_table_us);
        w.set("tables_simulated", tables_simulated);
        w.set("tables_total", tables_total);
    }
}

/// End-to-end latency split of an end-to-end run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEndBreakdown {
    /// Embedding-stage latency in microseconds.
    pub embedding_us: f64,
    /// Non-embedding (MLPs + interaction) latency in microseconds.
    pub non_embedding_us: f64,
}

impl EndToEndBreakdown {
    /// The equivalent [`BatchLatency`] (for its formatting/share helpers).
    pub fn batch_latency(&self) -> BatchLatency {
        BatchLatency::new(self.embedding_us, self.non_embedding_us)
    }

    pub(crate) fn write_fields(&self, w: &mut ObjectWriter<'_>) {
        let EndToEndBreakdown {
            embedding_us,
            non_embedding_us,
        } = *self;
        w.set("embedding_us", embedding_us);
        w.set("non_embedding_us", non_embedding_us);
    }
}

/// One device's share of a sharded run.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceBreakdown {
    /// Device name (from its [`gpu_sim::GpuConfig`]).
    pub device: String,
    /// Number of tables the shard plan assigned to this device.
    pub tables: u32,
    /// Number of those tables actually simulated before extrapolation.
    pub tables_simulated: u32,
    /// Extrapolated embedding-stage latency of this device's shard, in
    /// microseconds.
    pub embedding_us: f64,
}

impl DeviceBreakdown {
    pub(crate) fn write_fields(&self, w: &mut ObjectWriter<'_>) {
        let DeviceBreakdown {
            device,
            tables,
            tables_simulated,
            embedding_us,
        } = self;
        w.set("device", device.as_str());
        w.set("embedding_us", *embedding_us);
        w.set("tables", *tables);
        w.set("tables_simulated", *tables_simulated);
    }
}

/// Cross-device breakdown of a sharded run: per-device latencies plus the
/// reduction that models the all-to-all and takes the critical-path max.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterBreakdown {
    /// Name of the sharding strategy that produced the plan.
    pub strategy: String,
    /// Per-device shard results, in device order (root first).
    pub per_device: Vec<DeviceBreakdown>,
    /// The embedding-stage critical path: the maximum per-device latency,
    /// in microseconds (devices execute their shards concurrently).
    pub critical_path_us: f64,
    /// Modelled all-to-all time gathering pooled embeddings to the root
    /// device, in microseconds (exactly zero on a single-device cluster).
    pub all_to_all_us: f64,
}

impl ClusterBreakdown {
    /// Number of devices that executed the run.
    pub fn num_devices(&self) -> usize {
        self.per_device.len()
    }

    /// Total sharded embedding-stage latency: critical path plus all-to-all.
    pub fn embedding_stage_us(&self) -> f64 {
        self.critical_path_us + self.all_to_all_us
    }

    pub(crate) fn write_fields(&self, w: &mut ObjectWriter<'_>) {
        let ClusterBreakdown {
            strategy,
            per_device,
            critical_path_us,
            all_to_all_us,
        } = self;
        w.set("all_to_all_us", *all_to_all_us);
        w.set("critical_path_us", *critical_path_us);
        w.set(
            "per_device",
            array(|a| a.push_objects(per_device, DeviceBreakdown::write_fields)),
        );
        w.set("strategy", strategy.as_str());
    }
}

/// The unified result of one [`crate::Experiment::run`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Which kind of workload produced this report.
    pub kind: WorkloadKind,
    /// Dataset label (`"random"`, `"Mix2"`, ...).
    pub workload: String,
    /// Paper-style scheme label (`"RPF+L2P+OptMT"`, `"base"`, ...).
    pub scheme: String,
    /// Simulated device name.
    pub device: String,
    /// Workload scale name (`"test"`, `"default"`, `"paper"`).
    pub scale: String,
    /// Trace-generation seed the run used.
    pub seed: u64,
    /// Lookups per sample the run used.
    pub pooling_factor: u32,
    /// Headline latency of the run target in microseconds: kernel time for
    /// kernel workloads, extrapolated stage latency for stage workloads,
    /// total batch latency for end-to-end workloads.
    pub latency_us: f64,
    /// Per-table breakdown (stage and end-to-end workloads).
    pub tables: Option<TableBreakdown>,
    /// End-to-end latency split (end-to-end workloads only).
    pub end_to_end: Option<EndToEndBreakdown>,
    /// Cross-device breakdown (sharded workloads only). Unsharded runs —
    /// including any archived before sharding existed — carry `None`.
    pub devices: Option<ClusterBreakdown>,
    /// Merged NCU-style statistics over the simulated kernels (summed
    /// across devices for sharded runs).
    pub stats: KernelStats,
}

impl RunReport {
    /// Speedup of this run over `baseline` on the headline latency
    /// (`baseline.latency_us / self.latency_us`).
    pub fn speedup_over(&self, baseline: &RunReport) -> f64 {
        baseline.latency_us / self.latency_us
    }

    /// The embedding-only latency in microseconds: for end-to-end runs the
    /// embedding component, otherwise the headline latency itself.
    pub fn embedding_latency_us(&self) -> f64 {
        match self.end_to_end {
            Some(e2e) => e2e.embedding_us,
            None => self.latency_us,
        }
    }

    /// Embedding-only speedup over `baseline`.
    pub fn embedding_speedup_over(&self, baseline: &RunReport) -> f64 {
        baseline.embedding_latency_us() / self.embedding_latency_us()
    }

    /// The end-to-end latency split as a [`BatchLatency`], if this was an
    /// end-to-end run.
    pub fn batch_latency(&self) -> Option<BatchLatency> {
        self.end_to_end.map(|e2e| e2e.batch_latency())
    }

    /// Headline latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.latency_us / 1e3
    }

    /// Serializes the report to compact JSON.
    pub fn to_json(&self) -> String {
        render_object(|w| self.write_fields(w))
    }

    /// Writes the report's fields: its JSON encoding, and a cell of a
    /// campaign or persisted-cache document.
    pub(crate) fn write_fields(&self, w: &mut ObjectWriter<'_>) {
        let RunReport {
            kind,
            workload,
            scheme,
            device,
            scale,
            seed,
            pooling_factor,
            latency_us,
            tables,
            end_to_end,
            devices,
            stats,
        } = self;
        w.set("device", device.as_str());
        w.set(
            "devices",
            devices.as_ref().map(|c| object(|o| c.write_fields(o))),
        );
        w.set(
            "end_to_end",
            end_to_end.map(|e| object(move |o| e.write_fields(o))),
        );
        w.set("kind", kind.name());
        w.set("latency_us", *latency_us);
        w.set("pooling_factor", *pooling_factor);
        w.set("scale", scale.as_str());
        w.set("schema", RUN_REPORT_SCHEMA);
        w.set("scheme", scheme.as_str());
        w.set("seed", *seed);
        w.set("stats", object(|o| write_stats(o, stats)));
        w.set("tables", tables.map(|t| object(move |o| t.write_fields(o))));
        w.set("workload", workload.as_str());
    }

    /// Parses a report back from [`RunReport::to_json`] output.
    ///
    /// # Errors
    /// Returns a [`JsonError`] on syntax errors, a wrong `schema` tag, or
    /// missing/mistyped fields.
    pub fn from_json(text: &str) -> Result<RunReport, JsonError> {
        Self::from_json_value(&Json::parse(text)?)
    }

    /// Parses a report from an already-parsed [`Json`] document.
    ///
    /// # Errors
    /// Returns a [`JsonError`] on a wrong `schema` tag or missing fields.
    pub fn from_json_value(doc: &Json) -> Result<RunReport, JsonError> {
        let schema = req_str(doc, "schema")?;
        if schema != RUN_REPORT_SCHEMA {
            return Err(JsonError::schema(format!(
                "unsupported report schema '{schema}'"
            )));
        }
        let kind = WorkloadKind::from_name(req_str(doc, "kind")?)
            .ok_or_else(|| JsonError::schema("unknown workload kind"))?;
        let tables = match doc.get("tables") {
            None | Some(Json::Null) => None,
            Some(t) => Some(TableBreakdown {
                per_table_us: req_f64(t, "per_table_us")?,
                tables_total: req_u32(t, "tables_total")?,
                tables_simulated: req_u32(t, "tables_simulated")?,
            }),
        };
        let end_to_end = match doc.get("end_to_end") {
            None | Some(Json::Null) => None,
            Some(e) => Some(EndToEndBreakdown {
                embedding_us: req_f64(e, "embedding_us")?,
                non_embedding_us: req_f64(e, "non_embedding_us")?,
            }),
        };
        let devices = match doc.get("devices") {
            None | Some(Json::Null) => None,
            Some(c) => {
                let per_device = c
                    .get("per_device")
                    .and_then(Json::as_array)
                    .ok_or_else(|| JsonError::schema("field 'per_device' is not an array"))?
                    .iter()
                    .map(|d| {
                        Ok(DeviceBreakdown {
                            device: req_str(d, "device")?.to_string(),
                            tables: req_u32(d, "tables")?,
                            tables_simulated: req_u32(d, "tables_simulated")?,
                            embedding_us: req_f64(d, "embedding_us")?,
                        })
                    })
                    .collect::<Result<Vec<_>, JsonError>>()?;
                Some(ClusterBreakdown {
                    strategy: req_str(c, "strategy")?.to_string(),
                    per_device,
                    critical_path_us: req_f64(c, "critical_path_us")?,
                    all_to_all_us: req_f64(c, "all_to_all_us")?,
                })
            }
        };
        let stats_doc = doc
            .get("stats")
            .ok_or_else(|| JsonError::schema("missing field 'stats'"))?;
        Ok(RunReport {
            kind,
            workload: req_str(doc, "workload")?.to_string(),
            scheme: req_str(doc, "scheme")?.to_string(),
            device: req_str(doc, "device")?.to_string(),
            scale: req_str(doc, "scale")?.to_string(),
            seed: req_u64(doc, "seed")?,
            pooling_factor: req_u32(doc, "pooling_factor")?,
            latency_us: req_f64(doc, "latency_us")?,
            tables,
            end_to_end,
            devices,
            stats: stats_from_json(stats_doc)?,
        })
    }
}

impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{} under {} on {}: {:.2} us",
            self.kind.name(),
            self.workload,
            self.scheme,
            self.device,
            self.latency_us
        )
    }
}

/// Writes the merged kernel statistics of a report.
fn write_stats(w: &mut ObjectWriter<'_>, stats: &KernelStats) {
    let KernelStats {
        kernel_name,
        device_name,
        clock_ghz,
        total_schedulers,
        peak_dram_bandwidth_gbps,
        elapsed_cycles,
        counters,
        l1_accesses,
        l1_hits,
        l2_accesses,
        l2_hits,
        dram_bytes_read,
        dram_bytes_written,
        theoretical_warps_per_sm,
        theoretical_occupancy_pct,
        allocated_regs_per_thread,
    } = stats;
    w.set("allocated_regs_per_thread", *allocated_regs_per_thread);
    w.set("clock_ghz", *clock_ghz);
    w.set("counters", object(|o| write_counters(o, counters)));
    w.set("device_name", device_name.as_str());
    w.set("dram_bytes_read", *dram_bytes_read);
    w.set("dram_bytes_written", *dram_bytes_written);
    w.set("elapsed_cycles", *elapsed_cycles);
    w.set("kernel_name", kernel_name.as_str());
    w.set("l1_accesses", *l1_accesses);
    w.set("l1_hits", *l1_hits);
    w.set("l2_accesses", *l2_accesses);
    w.set("l2_hits", *l2_hits);
    w.set("peak_dram_bandwidth_gbps", *peak_dram_bandwidth_gbps);
    w.set("theoretical_occupancy_pct", *theoretical_occupancy_pct);
    w.set("theoretical_warps_per_sm", *theoretical_warps_per_sm);
    w.set("total_schedulers", *total_schedulers);
}

fn write_counters(w: &mut ObjectWriter<'_>, counters: &RawCounters) {
    let RawCounters {
        insts_issued,
        load_insts,
        local_load_insts,
        store_insts,
        prefetch_insts,
        long_scoreboard_cycles,
        short_scoreboard_cycles,
        not_selected_cycles,
        resident_warp_cycles,
        warps_launched,
        blocks_launched,
    } = *counters;
    w.set("blocks_launched", blocks_launched);
    w.set("insts_issued", insts_issued);
    w.set("load_insts", load_insts);
    w.set("local_load_insts", local_load_insts);
    w.set("long_scoreboard_cycles", long_scoreboard_cycles);
    w.set("not_selected_cycles", not_selected_cycles);
    w.set("prefetch_insts", prefetch_insts);
    w.set("resident_warp_cycles", resident_warp_cycles);
    w.set("short_scoreboard_cycles", short_scoreboard_cycles);
    w.set("store_insts", store_insts);
    w.set("warps_launched", warps_launched);
}

fn stats_from_json(doc: &Json) -> Result<KernelStats, JsonError> {
    let counters_doc = doc
        .get("counters")
        .ok_or_else(|| JsonError::schema("missing field 'counters'"))?;
    let counters = RawCounters {
        insts_issued: req_u64(counters_doc, "insts_issued")?,
        load_insts: req_u64(counters_doc, "load_insts")?,
        local_load_insts: req_u64(counters_doc, "local_load_insts")?,
        store_insts: req_u64(counters_doc, "store_insts")?,
        prefetch_insts: req_u64(counters_doc, "prefetch_insts")?,
        long_scoreboard_cycles: req_u64(counters_doc, "long_scoreboard_cycles")?,
        short_scoreboard_cycles: req_u64(counters_doc, "short_scoreboard_cycles")?,
        not_selected_cycles: req_u64(counters_doc, "not_selected_cycles")?,
        resident_warp_cycles: req_u64(counters_doc, "resident_warp_cycles")?,
        warps_launched: req_u64(counters_doc, "warps_launched")?,
        blocks_launched: req_u64(counters_doc, "blocks_launched")?,
    };
    Ok(KernelStats {
        kernel_name: req_str(doc, "kernel_name")?.to_string(),
        device_name: req_str(doc, "device_name")?.to_string(),
        clock_ghz: req_f64(doc, "clock_ghz")?,
        total_schedulers: req_u64(doc, "total_schedulers")?,
        peak_dram_bandwidth_gbps: req_f64(doc, "peak_dram_bandwidth_gbps")?,
        elapsed_cycles: req_u64(doc, "elapsed_cycles")?,
        counters,
        l1_accesses: req_u64(doc, "l1_accesses")?,
        l1_hits: req_u64(doc, "l1_hits")?,
        l2_accesses: req_u64(doc, "l2_accesses")?,
        l2_hits: req_u64(doc, "l2_hits")?,
        dram_bytes_read: req_u64(doc, "dram_bytes_read")?,
        dram_bytes_written: req_u64(doc, "dram_bytes_written")?,
        theoretical_warps_per_sm: req_u32(doc, "theoretical_warps_per_sm")?,
        theoretical_occupancy_pct: req_f64(doc, "theoretical_occupancy_pct")?,
        allocated_regs_per_thread: req_u32(doc, "allocated_regs_per_thread")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::GpuConfig;

    fn sample_report() -> RunReport {
        let mut stats = KernelStats::empty("sample", &GpuConfig::test_small());
        stats.elapsed_cycles = 12_345;
        stats.counters.insts_issued = 999;
        stats.counters.load_insts = 4;
        stats.l2_accesses = 77;
        stats.l2_hits = 33;
        stats.theoretical_warps_per_sm = 40;
        stats.theoretical_occupancy_pct = 62.5;
        stats.allocated_regs_per_thread = 48;
        RunReport {
            kind: WorkloadKind::EndToEnd,
            workload: "random".to_string(),
            scheme: "RPF+L2P+OptMT".to_string(),
            device: "Test GPU".to_string(),
            scale: "test".to_string(),
            seed: 0x5EED,
            pooling_factor: 8,
            latency_us: 1234.5678901234,
            tables: Some(TableBreakdown {
                per_table_us: 205.76131502056665,
                tables_total: 6,
                tables_simulated: 2,
            }),
            end_to_end: Some(EndToEndBreakdown {
                embedding_us: 1000.1,
                non_embedding_us: 234.46779012340002,
            }),
            devices: None,
            stats,
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let report = sample_report();
        let text = report.to_json();
        let back = RunReport::from_json(&text).unwrap();
        assert_eq!(back, report);
        // And the rendered form is stable across a second trip.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn device_breakdowns_round_trip() {
        let mut report = sample_report();
        report.devices = Some(ClusterBreakdown {
            strategy: "hot_cold".to_string(),
            per_device: vec![
                DeviceBreakdown {
                    device: "A100-SXM4-80GB".to_string(),
                    tables: 4,
                    tables_simulated: 2,
                    embedding_us: 750.25,
                },
                DeviceBreakdown {
                    device: "A100-SXM4-80GB".to_string(),
                    tables: 2,
                    tables_simulated: 1,
                    embedding_us: 1000.1,
                },
            ],
            critical_path_us: 1000.1,
            all_to_all_us: 12.5,
        });
        let text = report.to_json();
        let back = RunReport::from_json(&text).unwrap();
        assert_eq!(back, report);
        let cluster = back.devices.unwrap();
        assert_eq!(cluster.num_devices(), 2);
        assert_eq!(cluster.embedding_stage_us(), 1012.6);
    }

    #[test]
    fn reports_without_devices_parse_as_unsharded() {
        // Archives written before the topology layer existed have no
        // "devices" key at all; they must keep parsing.
        let text = sample_report().to_json().replace(",\"devices\":null", "");
        let back = RunReport::from_json(&text).unwrap();
        assert_eq!(back.devices, None);
    }

    #[test]
    fn kernel_reports_omit_breakdowns() {
        let mut report = sample_report();
        report.kind = WorkloadKind::Kernel;
        report.tables = None;
        report.end_to_end = None;
        let text = report.to_json();
        assert!(text.contains("\"tables\":null"));
        assert_eq!(RunReport::from_json(&text).unwrap(), report);
    }

    #[test]
    fn schema_tag_is_enforced() {
        let text = sample_report()
            .to_json()
            .replace(RUN_REPORT_SCHEMA, "something/else");
        let err = RunReport::from_json(&text).unwrap_err();
        assert!(err.message.contains("unsupported report schema"));
    }

    #[test]
    fn missing_fields_are_reported_by_name() {
        let doc = sample_report().to_json().replace("\"seed\":24301,", "");
        let err = RunReport::from_json(&doc).unwrap_err();
        assert!(err.message.contains("seed"), "{err}");
    }

    #[test]
    fn speedups_and_shares_derive_from_the_breakdowns() {
        let base = sample_report();
        let mut fast = sample_report();
        fast.latency_us = base.latency_us / 2.0;
        fast.end_to_end = Some(EndToEndBreakdown {
            embedding_us: 500.05,
            non_embedding_us: 234.46779012340002,
        });
        assert!((fast.speedup_over(&base) - 2.0).abs() < 1e-12);
        assert!((fast.embedding_speedup_over(&base) - 2.0).abs() < 1e-9);
        let share = base.batch_latency().unwrap().embedding_share_pct();
        assert!(share > 0.0 && share < 100.0);
    }
}

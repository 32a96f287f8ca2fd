//! The benchmark's metric registry, its correctness ledger and the result
//! line it prints last.
//!
//! `BENCHMARK.json` at the repository root lists the same metrics; a test
//! below keeps the two in step.

use std::collections::BTreeMap;

use dlrm_gpu_repro::perf_envelope::json::Json;

/// End-to-end metrics, printed by every untraced run: name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cold_cells_per_s", "1/s"),
    ("warm_cells_per_s", "1/s"),
    ("sim_winst_per_s", "1/s"),
    ("ed_ca_ratio", "ratio"),
    ("sim_req_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("error_rate", "ratio"),
];

/// Per-layer metrics, printed by every traced run: name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datasets.trace_gen.s", "s"),
    ("datasets.lookups", "count"),
    ("kernels.build.s", "s"),
    ("kernels.pin.s", "s"),
    ("kernels.pin.lines", "count"),
    ("gpu_sim.run.s", "s"),
    ("gpu_sim.mem_new.s", "s"),
    ("gpu_sim.ns_per_winst", "ns"),
    ("gpu_sim.winst", "count"),
    ("gpu_sim.cycles", "count"),
    ("gpu_sim.ipc", "winst/cycle"),
    ("gpu_sim.long_scoreboard_per_inst", "cycles/winst"),
    ("mem.l1_hit_ratio", "ratio"),
    ("mem.l2_hit_ratio", "ratio"),
    ("mem.dram_read_bytes", "B"),
    ("runner.run.s", "s"),
    ("runner.overhead.s", "s"),
    ("runner.shards", "count"),
    ("campaign.run.s", "s"),
    ("cache.fingerprint.s", "s"),
    ("cache.hit.s", "s"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.save.s", "s"),
    ("cache.load.s", "s"),
    ("cache.bytes", "B"),
    ("serving.arrivals.s", "s"),
    ("serving.simulate.s", "s"),
    ("serving.capacity.s", "s"),
    ("serving.probes", "count"),
    ("serving.batches", "count"),
    ("serving.shapes", "count"),
    ("serving.retries", "count"),
    ("serving.hedges", "count"),
    ("fleet.simulate.s", "s"),
    ("fleet.routed", "count"),
    ("fleet.autoscale_events", "count"),
    ("replay.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// The correctness ledger: every check the run makes, and which failed.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: Vec<String>,
}

impl Checks {
    /// Records one check; `what` names it when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            let what = what();
            eprintln!("check failed: {what}");
            self.failed.push(what);
        }
    }

    /// Checks made so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Checks that failed so far.
    pub fn failed(&self) -> u64 {
        self.failed.len() as u64
    }

    /// Failed over attempted checks, estimated by Laplace's rule of
    /// succession, `(failed + 1) / (attempted + 2)`: it never reads 0, so
    /// its spread across runs stays defined, and any failure raises it.
    pub fn error_rate(&self) -> f64 {
        (self.failed() as f64 + 1.0) / (self.attempted as f64 + 2.0)
    }
}

/// Renders the result line: `correct`, `attempted`, `failed` and every
/// metric of `registry` with its unit.
///
/// # Panics
/// Panics when a registered metric is missing from `values` or is not a
/// finite number: the run then exits without a result.
pub fn result_line(
    checks: &Checks,
    registry: &[(&str, &str)],
    values: &BTreeMap<&str, f64>,
) -> String {
    let mut metrics = Json::object();
    for &(name, unit) in registry {
        let value = *values
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let mut entry = Json::object();
        entry
            .set("value", Json::Num(value))
            .set("unit", Json::Str(unit.to_string()));
        metrics.set(name, entry);
    }
    let mut doc = Json::object();
    doc.set("correct", Json::Bool(checks.failed() == 0))
        .set("attempted", Json::UInt(checks.attempted().max(1)))
        .set("failed", Json::UInt(checks.failed()))
        .set("metrics", metrics);
    doc.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        for name in &all {
            assert!(valid_name(name), "bad metric name {name}");
        }
        let mut unique = all.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), all.len(), "metric names repeat");
    }

    /// The metrics `BENCHMARK.json` lists, as (name, unit) pairs.
    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .iter()
            .map(|m| {
                let field = |f| m.get(f).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn every_metric_in_benchmark_json_is_printed_with_its_unit() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, registry) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let values: BTreeMap<&str, f64> = registry.iter().map(|m| (m.0, 1.5)).collect();
            let line = Json::parse(&result_line(&Checks::default(), registry, &values)).unwrap();
            let printed = line.get("metrics").unwrap();
            let listed = listed(&doc, key);
            assert_eq!(listed.len(), registry.len(), "{key} lists other metrics");
            for (name, unit) in listed {
                let metric = printed
                    .get(&name)
                    .unwrap_or_else(|| panic!("{name} is not printed"));
                assert_eq!(
                    metric.get("unit").and_then(Json::as_str),
                    Some(unit.as_str())
                );
                assert_eq!(metric.get("value").and_then(Json::as_f64), Some(1.5));
            }
        }
    }

    #[test]
    fn a_failed_check_raises_the_error_rate() {
        let mut clean = Checks::default();
        let mut broken = Checks::default();
        for i in 0..10 {
            clean.check(true, || "unreachable".to_string());
            broken.check(i != 3, || "forced failure".to_string());
        }
        assert!(clean.error_rate() > 0.0);
        assert!(broken.error_rate() > clean.error_rate());
        assert_eq!((broken.attempted(), broken.failed()), (10, 1));
        let line = Json::parse(&result_line(&broken, &[], &BTreeMap::new())).unwrap();
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(line.get("failed").and_then(Json::as_u64), Some(1));
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn a_missing_metric_refuses_to_print() {
        result_line(&Checks::default(), END_TO_END, &BTreeMap::new());
    }
}

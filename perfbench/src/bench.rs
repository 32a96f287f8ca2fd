//! The measurement engine shared by every workload.
//!
//! A workload is a [`Plan`]: jobs of cold cells, and serving operations
//! over a primed cache. A run measures it in three timed phases, each
//! given a share of `--seconds`:
//!
//! 1. **cold** — every job runs as a single-worker `Campaign` on a fresh
//!    cache per pass, so every cell is simulated and inserted (cache
//!    writes). Jobs marked for the cycle-accurate engine rerun right after
//!    their event-driven run.
//! 2. **warm** — the first pass's cache is saved and loaded back, then
//!    every job reruns against it in rounds, every cell a hit (cache
//!    reads).
//! 3. **serving** — the plan's serving operations rerun in rounds against
//!    the cache set-up primed, so they do no engine work.
//!
//! After the first cold pass the phases interleave, one job or one sample
//! at a time, with a calibration loop as a fourth phase, so every phase
//! samples the whole run; the run moves from CPU to CPU every half second.
//! Each host time is the lower quartile of its samples over the
//! calibration loop's lower quartile.
//!
//! A traced run measures the same phases untraced, then makes one traced
//! pass of each, in which every cold cell is also run alone and replayed
//! layer by layer, and every warm cell is fingerprinted and looked up on
//! its own.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use dlrm_gpu_repro::gpu_sim::{EngineMode, KernelStats};
use dlrm_gpu_repro::perf_envelope::{
    max_sustainable_qps, Campaign, CampaignCache, Experiment, Fleet, RunReport, Scheme,
    ServingScenario, Workload,
};

use crate::clock::{
    calibration_s, lower_quartile, median, peak_rss_mb, timed, Stopwatch, CALIBRATION_NOMINAL_S,
};
use crate::host::Rotation;
use crate::metrics::Checks;
use crate::replay::{replay_cell, ReplayCounts};
use crate::trace::{self, Tracer};

/// The layer spans a cell replay records; their sum is what the replay
/// accounts for of `Experiment::run`.
const REPLAY_LAYERS: [&str; 5] = [
    "datasets.trace_gen",
    "kernels.pin",
    "kernels.build",
    "gpu_sim.mem_new",
    "gpu_sim.run",
];

/// Times the cache is saved and loaded; set-up counts the medians.
const CACHE_ROUND_TRIPS: usize = 3;

/// One experiment cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The cell's experiment, seed applied, no cache attached.
    pub experiment: Experiment,
    /// What the cell runs.
    pub workload: Workload,
    /// The optimization scheme.
    pub scheme: Scheme,
}

/// A grid of cells that runs as one single-worker `Campaign`.
#[derive(Debug, Clone)]
pub struct Job {
    /// What the job is, for messages.
    pub label: String,
    /// The experiment's tables-to-simulate setting, which the replay needs.
    pub tables_to_simulate: u32,
    /// The cells in campaign grid order.
    pub cells: Vec<Cell>,
    /// Whether the job also runs under the cycle-accurate engine.
    pub cycle_accurate: bool,
    base: Experiment,
    workloads: Vec<Workload>,
    schemes: Vec<Scheme>,
    seeds: Vec<u64>,
}

impl Job {
    /// The grid `workloads` × `schemes` × `seeds` over `base`.
    pub fn grid(
        label: impl Into<String>,
        base: Experiment,
        tables_to_simulate: u32,
        workloads: Vec<Workload>,
        schemes: Vec<Scheme>,
        seeds: Vec<u64>,
    ) -> Job {
        let base = base
            .with_tables_to_simulate(tables_to_simulate)
            .with_threads(1);
        let mut cells = Vec::new();
        for workload in &workloads {
            for scheme in &schemes {
                for &seed in &seeds {
                    cells.push(Cell {
                        experiment: base.clone().with_seed(seed),
                        workload: workload.clone(),
                        scheme: *scheme,
                    });
                }
            }
        }
        Job {
            label: label.into(),
            tables_to_simulate,
            cells,
            cycle_accurate: false,
            base,
            workloads,
            schemes,
            seeds,
        }
    }

    /// One cell as a job.
    pub fn cell(
        label: impl Into<String>,
        base: Experiment,
        tables_to_simulate: u32,
        workload: Workload,
        scheme: Scheme,
    ) -> Job {
        let seed = base.seed();
        Job::grid(
            label,
            base,
            tables_to_simulate,
            vec![workload],
            vec![scheme],
            vec![seed],
        )
    }

    /// Marks the job for the cycle-accurate comparison.
    pub fn with_cycle_accurate(mut self) -> Job {
        self.cycle_accurate = true;
        self
    }

    /// The job's campaign under `mode` with `threads` workers.
    pub fn campaign(&self, mode: EngineMode, threads: usize) -> Campaign {
        Campaign::new(self.base.clone().with_engine_mode(mode))
            .workloads(self.workloads.clone())
            .schemes(self.schemes.clone())
            .seeds(self.seeds.clone())
            .threads(threads)
    }
}

/// One serving study, priced through the plan's serving cache.
#[derive(Debug, Clone)]
pub enum ServingOp {
    /// A `max_sustainable_qps` capacity search.
    Capacity(Experiment, Workload, Scheme, ServingScenario),
    /// One `ServingScenario::simulate`.
    Simulate(Experiment, Workload, Scheme, ServingScenario),
    /// One `Fleet::simulate`.
    Fleet(Box<Fleet>, Workload, Scheme),
}

/// What one serving operation did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServingOutcome {
    /// Simulated requests.
    pub requests: u64,
    /// The reports, rendered: equal outcomes render equally.
    pub rendered: String,
    /// Whether served + shed + failed (and, for fleets, routed) equals the
    /// requests.
    pub conserved: bool,
    /// The highest rate a capacity search found sustainable.
    pub capacity_qps: f64,
    /// Capacity-search probes.
    pub probes: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Distinct batch shapes.
    pub shapes: u64,
    /// Retried batches.
    pub retries: u64,
    /// Hedged batches.
    pub hedges: u64,
    /// Requests the fleet router placed.
    pub routed: u64,
    /// Fleet autoscale events.
    pub autoscale_events: u64,
}

impl ServingOp {
    /// Runs the operation, in a span named after its layer.
    pub fn run(&self, tracer: &mut Tracer, id: u64) -> ServingOutcome {
        match self {
            ServingOp::Capacity(experiment, workload, scheme, scenario) => {
                let result = tracer.span("serving.capacity", id, |_| {
                    max_sustainable_qps(experiment, workload, scheme, scenario)
                });
                let report = &result.report;
                let requests = u64::from(result.probes) * u64::from(scenario.requests());
                replay_arrivals(tracer, id, scenario, result.probes);
                ServingOutcome {
                    requests,
                    rendered: report.to_json(),
                    conserved: report.served_requests
                        + report.shed_requests
                        + report.failed_requests
                        == report.requests,
                    capacity_qps: result.max_qps,
                    probes: u64::from(result.probes),
                    batches: u64::from(report.batches),
                    shapes: report.shapes.len() as u64,
                    retries: u64::from(report.retries),
                    hedges: u64::from(report.hedges),
                    ..ServingOutcome::default()
                }
            }
            ServingOp::Simulate(experiment, workload, scheme, scenario) => {
                let report = tracer.span("serving.simulate", id, |_| {
                    scenario.simulate(experiment, workload, scheme)
                });
                replay_arrivals(tracer, id, scenario, 1);
                ServingOutcome {
                    requests: u64::from(report.requests),
                    rendered: report.to_json(),
                    conserved: report.served_requests
                        + report.shed_requests
                        + report.failed_requests
                        == report.requests,
                    batches: u64::from(report.batches),
                    shapes: report.shapes.len() as u64,
                    retries: u64::from(report.retries),
                    hedges: u64::from(report.hedges),
                    ..ServingOutcome::default()
                }
            }
            ServingOp::Fleet(fleet, workload, scheme) => {
                let report =
                    tracer.span("fleet.simulate", id, |_| fleet.simulate(workload, scheme));
                if tracer.enabled() {
                    tracer.span("serving.arrivals", id, |_| {
                        fleet
                            .traffic()
                            .arrival_times_us(fleet.requests(), fleet.seed())
                    });
                }
                let routed: u32 = report.replicas.iter().map(|r| r.routed_requests).sum();
                let replicas = report.replicas.iter().map(|r| &r.report);
                ServingOutcome {
                    requests: u64::from(fleet.requests()),
                    rendered: report.to_json(),
                    conserved: report.served_requests
                        + report.shed_requests
                        + report.failed_requests
                        == fleet.requests()
                        && routed == fleet.requests(),
                    batches: replicas.clone().map(|r| u64::from(r.batches)).sum(),
                    shapes: replicas.clone().map(|r| r.shapes.len() as u64).sum(),
                    retries: replicas.clone().map(|r| u64::from(r.retries)).sum(),
                    hedges: replicas.map(|r| u64::from(r.hedges)).sum(),
                    routed: u64::from(routed),
                    autoscale_events: report.autoscale_events.len() as u64,
                    ..ServingOutcome::default()
                }
            }
        }
    }
}

/// Regenerates, in the traced run, the arrival traces an operation drew:
/// `traces` of the scenario's length (a capacity search draws one per
/// probe, each at another rate but of the same length).
fn replay_arrivals(tracer: &mut Tracer, id: u64, scenario: &ServingScenario, traces: u32) {
    if tracer.enabled() {
        for _ in 0..traces {
            tracer.span("serving.arrivals", id, |_| {
                scenario
                    .traffic()
                    .arrival_times_us(scenario.requests(), scenario.seed())
            });
        }
    }
}

/// A workload ready to measure.
#[derive(Debug)]
pub struct Plan {
    /// The cold jobs.
    pub jobs: Vec<Job>,
    /// The serving operations, rerun in the serving phase.
    pub serving: Vec<ServingOp>,
    /// The cache the serving operations price through, primed in set-up.
    pub serving_cache: Arc<CampaignCache>,
    /// The outcomes of the priming run, which later rounds must repeat.
    pub primed: Vec<ServingOutcome>,
    /// Shares of the run given to the cold, warm and serving phases.
    pub shares: [f64; 3],
    /// Whether the cold pass is also compared at 1 and 2 workers.
    pub check_workers: bool,
}

impl Plan {
    /// Runs every serving operation once, untimed: this prices every batch
    /// shape into the serving cache.
    pub fn prime(&mut self) {
        let mut off = Tracer::off();
        self.primed = self
            .serving
            .iter()
            .enumerate()
            .map(|(i, op)| op.run(&mut off, i as u64))
            .collect();
    }
}

/// What a run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// FNV-1a digest of every simulated output of the run's first pass.
    pub digest: u64,
    /// Median seconds of one cache save plus one load.
    pub cache_round_trip_s: f64,
    /// Peak resident MiB once set-up, the first cold pass and the cache
    /// round trip are done, or NaN where it cannot be read.
    pub peak_rss_mb: f64,
}

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Host seconds a warm or serving sample lasts at least: rounds that
/// short repeat within one sample.
const SAMPLE_S: f64 = 0.05;

/// Host seconds the run stays on one CPU before it moves to the next.
const ROTATE_S: f64 = 0.5;

/// Share of the run given to calibration loops.
const CALIBRATION_SHARE: f64 = 0.05;

/// Repeats `round` for at least [`SAMPLE_S`] and returns the host seconds
/// of one round.
fn sample(mut round: impl FnMut()) -> f64 {
    let watch = Stopwatch::start();
    let mut rounds = 0u32;
    while rounds == 0 || watch.seconds() < SAMPLE_S {
        round();
        rounds += 1;
    }
    watch.seconds() / f64::from(rounds)
}

/// What the run does next: one cold job, one warm or serving sample, or
/// one calibration loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Unit {
    Cold,
    Warm,
    Serving,
    Calibration,
}

const UNITS: [Unit; 4] = [Unit::Cold, Unit::Warm, Unit::Serving, Unit::Calibration];

/// Host-second samples of the timed phases: per cold job (and its
/// cycle-accurate rerun), per warm and serving round, and per calibration
/// loop.
#[derive(Debug, Default)]
struct Samples {
    cold: Vec<Vec<f64>>,
    cycle_accurate: Vec<Vec<f64>>,
    warm: Vec<f64>,
    serving: Vec<f64>,
    calibration: Vec<f64>,
}

impl Samples {
    /// Samples `unit` has; for cold, those of the job with fewest.
    fn count(&self, unit: Unit) -> usize {
        match unit {
            Unit::Cold => self.cold.iter().map(Vec::len).min().unwrap_or(0),
            Unit::Warm => self.warm.len(),
            Unit::Serving => self.serving.len(),
            Unit::Calibration => self.calibration.len(),
        }
    }

    /// `host_s` in calibrated seconds: over the calibration loop's lower
    /// quartile, times the loop's nominal time.
    fn calibrated(&self, host_s: f64) -> f64 {
        host_s / lower_quartile(&self.calibration) * CALIBRATION_NOMINAL_S
    }
}

/// Measures `plan` for `seconds`; with `traced`, adds one traced pass and
/// the per-layer metrics. `scratch` is a directory for the cache file and
/// the trace. The timed phases move from CPU to CPU along `rotation`.
pub fn measure(
    plan: &Plan,
    seconds: f64,
    traced: bool,
    scratch: &Path,
    rotation: &mut Rotation,
    checks: &mut Checks,
) -> Measured {
    let mut measured = Measured::default();
    let cells: usize = plan.jobs.iter().map(|j| j.cells.len()).sum();
    let campaigns: Vec<(Campaign, Option<Campaign>)> = plan
        .jobs
        .iter()
        .map(|job| {
            let ca = job
                .cycle_accurate
                .then(|| job.campaign(EngineMode::CycleAccurate, 1));
            (job.campaign(EngineMode::EventDriven, 1), ca)
        })
        .collect();
    let mut samples = Samples {
        cold: vec![Vec::new(); plan.jobs.len()],
        cycle_accurate: vec![Vec::new(); plan.jobs.len()],
        ..Samples::default()
    };
    let mut ed_equals_ca = vec![true; plan.jobs.len()];
    // One cold job: its event-driven campaign on `cache`, then, if marked,
    // its cycle-accurate one.
    let mut run_cold = |j: usize, cache: &Arc<CampaignCache>, samples: &mut Samples| {
        let (ed, ca) = &campaigns[j];
        let (run, secs) = timed(|| ed.clone().with_cache(cache.clone()).run());
        samples.cold[j].push(secs);
        if let Some(ca) = ca {
            let (ca_run, ca_secs) = timed(|| ca.run());
            samples.cycle_accurate[j].push(ca_secs);
            ed_equals_ca[j] &= same_stats(run.reports(), ca_run.reports());
        }
        run
    };
    let watch = Stopwatch::start();

    // ---- the first cold pass, whose cache the warm phase reloads ----
    let first_cache = CampaignCache::new();
    rotation.advance();
    let mut on_cpu = Stopwatch::start();
    let mut rotate = || {
        if on_cpu.seconds() >= ROTATE_S {
            rotation.advance();
            on_cpu = Stopwatch::start();
        }
    };
    let first: Vec<Vec<RunReport>> = (0..plan.jobs.len())
        .map(|j| {
            rotate();
            run_cold(j, &first_cache, &mut samples).reports().to_vec()
        })
        .collect();
    let mut spent = [0.0f64; UNITS.len()];
    spent[0] = watch.seconds();
    let cold_misses = first_cache.misses();
    let cold_hits = first_cache.hits();
    let mut digest = FNV_OFFSET;
    for report in first.iter().flatten() {
        digest = fnv1a(digest, report.to_json().as_bytes());
    }
    for outcome in &plan.primed {
        digest = fnv1a(digest, outcome.rendered.as_bytes());
    }
    measured.digest = digest;

    // ---- cache round trip ----
    let path = scratch.join("campaign-cache.json");
    let mut save_s = Vec::new();
    let mut load_s = Vec::new();
    let mut loaded = None;
    for _ in 0..CACHE_ROUND_TRIPS {
        let (saved, s) = timed(|| first_cache.save_to(&path));
        saved.expect("the cache file is writable");
        save_s.push(s);
        let (cache, s) = timed(|| CampaignCache::load_from(&path));
        load_s.push(s);
        loaded = Some(cache.expect("a saved cache loads back"));
    }
    let cache_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let _ = std::fs::remove_file(&path);
    let warm_cache = loaded.expect("the cache round trip runs at least once");
    measured.cache_round_trip_s = median(&save_s) + median(&load_s);
    // Read before the phases interleave: the later passes run the same
    // cells again, but between serving and warm rounds, and where the
    // allocator then places them varies from run to run.
    measured.peak_rss_mb = peak_rss_mb().unwrap_or(f64::NAN);
    checks.check(warm_cache.len() == first_cache.len(), || {
        format!(
            "the loaded cache holds {} of {} entries",
            warm_cache.len(),
            first_cache.len()
        )
    });

    // ---- the timed phases, interleaved ----
    // Each step runs the unit furthest behind its share of the run, so
    // every phase samples the whole run, not one stretch of it.
    let warm_campaigns: Vec<Campaign> = campaigns
        .iter()
        .map(|(ed, _)| ed.clone().with_cache(warm_cache.clone()))
        .collect();
    let warm_misses = warm_cache.misses();
    let serving_misses = plan.serving_cache.misses();
    let requests: u64 = plan.primed.iter().map(|o| o.requests).sum();
    let mut same_reports = vec![true; plan.jobs.len()];
    let mut same_outcomes = vec![true; plan.serving.len()];
    let mut conserved: Vec<bool> = plan.primed.iter().map(|o| o.conserved).collect();
    let mut off = Tracer::off();
    let work = 1.0 - CALIBRATION_SHARE;
    let shares = [
        plan.shares[0] * work,
        plan.shares[1] * work,
        plan.shares[2] * work,
        CALIBRATION_SHARE,
    ];
    let mut pass_cache = CampaignCache::new();
    let mut next_job = 0;
    while watch.seconds() < seconds || UNITS.iter().any(|&u| samples.count(u) < 2) {
        let u = (0..UNITS.len())
            .min_by(|&a, &b| (spent[a] / shares[a]).total_cmp(&(spent[b] / shares[b])))
            .expect("there are units");
        rotate();
        let step = Stopwatch::start();
        match UNITS[u] {
            Unit::Cold => {
                if next_job == 0 {
                    pass_cache = CampaignCache::new();
                }
                let run = run_cold(next_job, &pass_cache, &mut samples);
                same_reports[next_job] &= run.reports() == first[next_job].as_slice();
                next_job = (next_job + 1) % plan.jobs.len();
            }
            Unit::Warm => samples.warm.push(sample(|| {
                for (j, campaign) in warm_campaigns.iter().enumerate() {
                    same_reports[j] &= campaign.run().reports() == first[j].as_slice();
                }
            })),
            Unit::Serving => samples.serving.push(sample(|| {
                for (i, op) in plan.serving.iter().enumerate() {
                    let outcome = op.run(&mut off, i as u64);
                    same_outcomes[i] &= outcome == plan.primed[i];
                    conserved[i] &= outcome.conserved;
                }
            })),
            Unit::Calibration => samples.calibration.push(calibration_s()),
        }
        spent[u] += step.seconds();
    }
    rotation.release();
    checks.check(warm_cache.misses() == warm_misses, || {
        format!(
            "{} warm lookups missed the loaded cache",
            warm_cache.misses() - warm_misses
        )
    });
    checks.check(plan.serving_cache.misses() == serving_misses, || {
        format!(
            "the serving phase simulated {} cells",
            plan.serving_cache.misses() - serving_misses
        )
    });
    for (i, op) in plan.serving.iter().enumerate() {
        checks.check(same_outcomes[i], || {
            format!(
                "serving operation {i} ({}) is not deterministic",
                op_name(op)
            )
        });
        checks.check(conserved[i], || {
            format!("serving operation {i} ({}) lost requests", op_name(op))
        });
    }

    // ---- untimed checks ----
    if plan.check_workers {
        for (j, job) in plan.jobs.iter().enumerate() {
            let parallel = job.campaign(EngineMode::EventDriven, 2).run();
            checks.check(parallel.reports() == first[j].as_slice(), || {
                format!("{}: 2 workers change the results", job.label)
            });
        }
    }
    for (j, job) in plan.jobs.iter().enumerate() {
        checks.check(same_reports[j], || {
            format!("{}: cold passes and warm rounds disagree", job.label)
        });
        if job.cycle_accurate {
            checks.check(ed_equals_ca[j], || {
                format!(
                    "{}: event-driven and cycle-accurate engines disagree",
                    job.label
                )
            });
        }
    }

    // ---- end-to-end metrics ----
    // A host time is the lower quartile of its samples, calibrated: a
    // shared host has a floor and a long tail of contended samples, and
    // the lower quartile sits near the floor, so it repeats from run to run
    // where the median does not.
    let cold_s = samples.calibrated(samples.cold.iter().map(|s| lower_quartile(s)).sum());
    let warm_s = samples.calibrated(lower_quartile(&samples.warm));
    let serving_s = samples.calibrated(lower_quartile(&samples.serving));
    // The engines run the same job back to back, so their ratio needs no
    // calibration; the marked jobs' ratios combine by geometric mean.
    let log_ratios: Vec<f64> = samples
        .cycle_accurate
        .iter()
        .zip(&samples.cold)
        .filter(|(ca, _)| !ca.is_empty())
        .map(|(ca, ed)| (lower_quartile(ca) / lower_quartile(ed)).ln())
        .collect();
    let ed_ca_ratio = (log_ratios.iter().sum::<f64>() / log_ratios.len() as f64).exp();
    let winst: u64 = first
        .iter()
        .flatten()
        .map(|r| r.stats.counters.insts_issued)
        .sum();
    let m = &mut measured.metrics;
    m.insert("cold_cells_per_s", cells as f64 / cold_s);
    m.insert("sim_winst_per_s", winst as f64 / cold_s);
    m.insert("ed_ca_ratio", ed_ca_ratio);
    m.insert("warm_cells_per_s", cells as f64 / warm_s);
    m.insert("sim_req_per_s", requests as f64 / serving_s);

    if traced {
        let untraced_s = cold_s + warm_s + serving_s;
        let layers = traced_pass(plan, &campaigns, &first, &warm_cache, checks);
        if let Err(err) = layers.tracer.write_to(&scratch.join("trace.json")) {
            eprintln!("could not write the trace: {err}");
        }
        let pass_s = samples.calibrated(layers.pass_s);
        let m = &mut measured.metrics;
        m.extend(layers.metrics);
        m.insert("cache.save.s", median(&save_s));
        m.insert("cache.load.s", median(&load_s));
        m.insert("cache.bytes", cache_bytes as f64);
        let hits = cold_hits + layers.hits;
        let misses = cold_misses + layers.misses;
        m.insert("cache.hits", hits as f64);
        m.insert("cache.misses", misses as f64);
        m.insert("cache.hit_ratio", hits as f64 / (hits + misses) as f64);
        m.insert("trace.overhead_pct", 100.0 * (pass_s / untraced_s - 1.0));
    }
    measured
}

fn op_name(op: &ServingOp) -> &'static str {
    match op {
        ServingOp::Capacity(..) => "capacity search",
        ServingOp::Simulate(..) => "scenario",
        ServingOp::Fleet(..) => "fleet",
    }
}

/// Whether two report lists carry identical statistics; prints the first
/// difference otherwise.
fn same_stats(a: &[RunReport], b: &[RunReport]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| match x.stats.first_difference(&y.stats) {
                None => x == y,
                Some(diff) => {
                    eprintln!("{} / {}: {diff}", x.workload, x.scheme);
                    false
                }
            })
}

/// The traced pass's per-layer metrics and cache counts.
struct Layers {
    metrics: BTreeMap<&'static str, f64>,
    hits: u64,
    misses: u64,
    /// Host seconds the traced pass spent in the operations the untraced
    /// phases time: one of each job's cold and warm campaigns, and one
    /// serving round.
    pass_s: f64,
    /// The pass's spans.
    tracer: Tracer,
}

/// One traced pass of every phase.
fn traced_pass(
    plan: &Plan,
    campaigns: &[(Campaign, Option<Campaign>)],
    first: &[Vec<RunReport>],
    warm_cache: &Arc<CampaignCache>,
    checks: &mut Checks,
) -> Layers {
    let mut tracer = Tracer::on();
    let mut counts = ReplayCounts::default();
    let mut replayed = KernelStats::empty("replayed", plan.jobs[0].cells[0].experiment.gpu());
    let mut hits = 0;
    let mut misses = 0;
    let mut cell_id = 0u64;

    // Cold: each job's campaign, then each of its cells alone and
    // replayed layer by layer.
    let cache = CampaignCache::new();
    for (j, job) in plan.jobs.iter().enumerate() {
        let run = tracer.span("campaign.run", j as u64, |_| {
            campaigns[j].0.clone().with_cache(cache.clone()).run()
        });
        for (c, cell) in job.cells.iter().enumerate() {
            let report = tracer.span("runner.run", cell_id, |_| {
                cell.experiment.run(&cell.workload, &cell.scheme)
            });
            let stats = tracer.span("replay", cell_id, |t| {
                replay_cell(
                    t,
                    cell_id,
                    &cell.experiment,
                    job.tables_to_simulate,
                    &cell.workload,
                    &cell.scheme,
                    &mut counts,
                )
            });
            let expected = &first[j][c];
            checks.check(
                stats == expected.stats && report == *expected && run.reports()[c] == *expected,
                || {
                    format!(
                        "{} cell {c}: the replay differs from Experiment::run: {}",
                        job.label,
                        stats
                            .first_difference(&expected.stats)
                            .unwrap_or_else(|| "metadata".to_string())
                    )
                },
            );
            replayed.merge_across_devices(&stats);
            cell_id += 1;
        }
    }
    hits += cache.hits();
    misses += cache.misses();

    // Warm: each job's campaign against the loaded cache, then each cell's
    // fingerprint and lookup on its own.
    let warm_hits = warm_cache.hits();
    let warm_misses = warm_cache.misses();
    for (j, job) in plan.jobs.iter().enumerate() {
        tracer.span("campaign.run", j as u64, |_| {
            campaigns[j].0.clone().with_cache(warm_cache.clone()).run()
        });
        let cached: Vec<Experiment> = job
            .cells
            .iter()
            .map(|c| c.experiment.clone().with_cache(warm_cache.clone()))
            .collect();
        for (cell, experiment) in job.cells.iter().zip(&cached) {
            tracer.span("cache.fingerprint", j as u64, |_| {
                experiment.fingerprint(&cell.workload, &cell.scheme)
            });
            tracer.span("cache.hit", j as u64, |_| {
                experiment.run(&cell.workload, &cell.scheme)
            });
        }
    }
    hits += warm_cache.hits() - warm_hits;
    misses += warm_cache.misses() - warm_misses;

    // Serving: one round.
    let serving_hits = plan.serving_cache.hits();
    let serving_misses = plan.serving_cache.misses();
    let outcomes: Vec<ServingOutcome> = tracer.span("serving.round", 0, |t| {
        plan.serving
            .iter()
            .enumerate()
            .map(|(i, op)| op.run(t, i as u64))
            .collect()
    });
    hits += plan.serving_cache.hits() - serving_hits;
    misses += plan.serving_cache.misses() - serving_misses;

    let spans = tracer.spans();
    let total = |name: &str| trace::total_s(spans, name);
    let replay_s: f64 = REPLAY_LAYERS.iter().map(|l| total(l)).sum();
    let run_s = total("runner.run");
    let sum = |f: fn(&ServingOutcome) -> u64| outcomes.iter().map(f).sum::<u64>() as f64;
    let c = &replayed.counters;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let mut m = BTreeMap::new();
    m.insert("datasets.trace_gen.s", total("datasets.trace_gen"));
    m.insert("datasets.lookups", counts.lookups as f64);
    m.insert("kernels.build.s", total("kernels.build"));
    m.insert("kernels.pin.s", total("kernels.pin"));
    m.insert("kernels.pin.lines", counts.pinned_lines as f64);
    m.insert("gpu_sim.run.s", total("gpu_sim.run"));
    m.insert("gpu_sim.mem_new.s", total("gpu_sim.mem_new"));
    m.insert(
        "gpu_sim.ns_per_winst",
        total("gpu_sim.run") * 1e9 / c.insts_issued as f64,
    );
    m.insert("gpu_sim.winst", c.insts_issued as f64);
    m.insert("gpu_sim.cycles", replayed.elapsed_cycles as f64);
    m.insert(
        "gpu_sim.ipc",
        ratio(c.insts_issued, replayed.elapsed_cycles),
    );
    m.insert(
        "gpu_sim.long_scoreboard_per_inst",
        replayed.long_scoreboard_per_inst(),
    );
    m.insert(
        "mem.l1_hit_ratio",
        ratio(replayed.l1_hits, replayed.l1_accesses),
    );
    m.insert(
        "mem.l2_hit_ratio",
        ratio(replayed.l2_hits, replayed.l2_accesses),
    );
    m.insert("mem.dram_read_bytes", replayed.dram_bytes_read as f64);
    m.insert("runner.run.s", run_s);
    m.insert("runner.overhead.s", run_s - replay_s);
    m.insert("runner.shards", counts.shards as f64);
    m.insert("campaign.run.s", total("campaign.run"));
    m.insert("cache.fingerprint.s", total("cache.fingerprint"));
    m.insert("cache.hit.s", total("cache.hit"));
    m.insert("serving.arrivals.s", total("serving.arrivals"));
    m.insert("serving.simulate.s", total("serving.simulate"));
    m.insert("serving.capacity.s", total("serving.capacity"));
    m.insert("serving.probes", sum(|o| o.probes));
    m.insert("serving.batches", sum(|o| o.batches));
    m.insert("serving.shapes", sum(|o| o.shapes));
    m.insert("serving.retries", sum(|o| o.retries));
    m.insert("serving.hedges", sum(|o| o.hedges));
    m.insert("fleet.simulate.s", total("fleet.simulate"));
    m.insert("fleet.routed", sum(|o| o.routed));
    m.insert("fleet.autoscale_events", sum(|o| o.autoscale_events));
    m.insert("replay.coverage", replay_s / run_s);

    let arrivals_s = total("serving.arrivals");
    let pass_s = total("campaign.run") + total("serving.round") - arrivals_s;
    Layers {
        metrics: m,
        hits,
        misses,
        pass_s,
        tracer,
    }
}

//! SLA-aware serving simulation: request queues, batching and scheme
//! selection on top of [`Experiment::run`].
//!
//! The paper measures the latency of **one** inference batch; production
//! recommendation systems care about what a *stream* of requests
//! experiences under a latency SLA. This module closes that gap with a
//! deterministic discrete-event simulator:
//!
//! 1. a seeded [`TrafficModel`] generates a request-arrival trace
//!    (uniform / Poisson / bursty / diurnal),
//! 2. a [`BatchingPolicy`] groups arrivals into inference batches
//!    (fixed-size, timeout-bounded or adaptive) and pads each batch to a
//!    launch **shape**,
//! 3. every distinct shape is priced by [`Experiment::run`] once per
//!    simulation, once per capacity search ([`max_sustainable_qps`]) and
//!    once per fleet replica group ([`crate::Fleet`]) — once ever through
//!    an attached [`crate::CampaignCache`] — and batches drain through the
//!    deployment's K per-device execution streams
//!    ([`Experiment::with_streams`]; one stream, i.e. plain FIFO, by
//!    default): each batch is dispatched to the earliest-free stream,
//!    ties breaking deterministically to the lowest stream index,
//! 4. the per-request queueing + service delays accumulate into a
//!    [`ServingReport`]: p50/p95/p99/max latency, achieved QPS,
//!    SLA-violation rate, per-device and per-stream utilization, rendered
//!    to JSON by [`ServingReport::to_json`]. Each served batch emits its
//!    latencies as one ascending run, so sorting them for the percentiles
//!    only merges runs.
//!
//! With `K > 1` the pricing layer models the co-residency cost too: every
//! priced batch runs alongside `K - 1` co-resident kernel copies in the
//! engine (see [`crate::StreamConfig`]), so a batch's service latency is
//! its *contended* latency, and the K-fold dispatch overlap is what the
//! deployment gains on top. [`stream_capacity_sweep`] /
//! [`best_stream_config`] search that trade-off over candidate K.
//!
//! Because pricing goes through the ordinary experiment path, a serving
//! scenario composes with everything the experiment layer can express: a
//! sharded [`Workload`] on a multi-device [`crate::Cluster`] feeds its
//! critical-path batch latency (embedding critical path + all-to-all +
//! dense pipeline) straight into the queue model, and per-device
//! utilization is derived from the priced report's cluster breakdown.
//!
//! **Degenerate-equivalence invariant** (mirrors the engine- and
//! sharding-equivalence anchors): a trace containing a single request under
//! a [`BatchingPolicy::fixed_size`] policy at the model's configured batch
//! size forms one batch with zero batching and zero queueing delay, so its
//! service latency — and therefore every percentile of the report — is
//! **bit-exact** with `Experiment::run(&workload, &scheme).latency_us`, on
//! both engine modes, unsharded and on a 1-device cluster.
//! `tests/serving_simulation.rs` holds that line and CI runs it in release.
//!
//! **Resilience** (the [`faults`](self) layer): a scenario optionally
//! carries a deterministic [`FaultPlan`] ([`ServingScenario::with_faults`])
//! whose crash/drain windows make dispatch failure-aware — batches in
//! flight when a crash opens are lost and re-dispatched under the
//! scenario's [`RetryPolicy`] (none / fixed backoff / hedged), drained
//! deployments finish in-flight work but defer new dispatch, stragglers
//! multiply service time and interconnect degradation taxes the all-to-all
//! — while an [`AdmissionPolicy`] sheds requests for graceful degradation
//! under overload. Shed and failed requests are accounted separately
//! (availability, goodput, retry/hedge counts and a per-event timeline in
//! the report); the empty plan with the no-op policies is **bit-exact**
//! with the fault-free path, held by `tests/resilience_equivalence.rs`.
//! There is one dispatch path for every trace and plan: the empty plan
//! runs the same loop (each fault query is the identity on it), and an
//! empty trace — an idle fleet replica — runs it too, dispatching nothing.
//! Pricing folds the plan into the experiment in one place,
//! `ServingScenario::pricing_experiment`, which dispatch, the capacity
//! search and the fleet layer's dispatch and probes all share.
//!
//! On top of the simulator, [`select_scheme`] picks the cheapest
//! [`Scheme`] meeting the SLA at a target load, and [`max_sustainable_qps`]
//! binary-searches a deployment's capacity: the highest offered QPS whose
//! p99 still meets the SLA.
//!
//! # Worked example
//!
//! ```
//! use dlrm::WorkloadScale;
//! use dlrm_datasets::AccessPattern;
//! use gpu_sim::GpuConfig;
//! use perf_envelope::{
//!     BatchingPolicy, Experiment, Scheme, ServingScenario, TrafficModel, Workload,
//! };
//!
//! let experiment = Experiment::new(GpuConfig::test_small(), WorkloadScale::Test);
//! let workload = Workload::end_to_end(AccessPattern::MedHot);
//! // 512 requests of Poisson traffic at 2000 qps, batched 256 at a time,
//! // against a 25 ms latency SLA.
//! let scenario = ServingScenario::new(
//!     TrafficModel::poisson(2_000.0),
//!     BatchingPolicy::fixed_size(256),
//! )
//! .with_requests(512)
//! .with_sla_us(25_000.0);
//! let report = scenario.simulate(&experiment, &workload, &Scheme::combined());
//! assert_eq!(report.requests, 512);
//! assert!(report.latency.p50_us <= report.latency.p99_us);
//! assert!(report.batches >= 2);
//! // The same scenario re-simulated is bit-identical.
//! assert_eq!(report, scenario.simulate(&experiment, &workload, &Scheme::combined()));
//! ```

mod batching;
mod faults;
mod report;
mod retry;
mod traffic;

use std::collections::BTreeMap;

use crate::runner::Experiment;
use crate::scheme::Scheme;
use crate::topology::StreamConfig;
use crate::workload::Workload;

pub use batching::BatchingPolicy;
pub use faults::{FaultEvent, FaultKind, FaultPlan};
pub(crate) use report::sort_latencies;
pub use report::{
    BatchShapeStats, DeviceUtilization, FaultTimelineEntry, LatencyStats, ServingReport,
    StreamUtilization, SERVING_REPORT_SCHEMA,
};
pub use retry::{AdmissionPolicy, RetryPolicy};
pub use traffic::TrafficModel;
use traffic::UnitGaps;

/// Default arrival-trace seed (distinct from the experiment's embedding
/// trace seed so the two streams never alias by default).
const DEFAULT_ARRIVAL_SEED: u64 = 0xAD_5EED;

/// Bisection steps [`max_sustainable_qps`] runs after bracketing the SLA
/// boundary: 16 land within ~0.1% of the capacity.
const BISECTION_STEPS: u32 = 16;

/// One serving what-if: traffic, request count, batching policy, SLA and
/// arrival seed. A scenario is pure data; [`ServingScenario::simulate`]
/// evaluates it against any experiment × workload × scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingScenario {
    traffic: TrafficModel,
    policy: BatchingPolicy,
    requests: u32,
    sla_us: f64,
    seed: u64,
    faults: FaultPlan,
    retry: RetryPolicy,
    admission: AdmissionPolicy,
}

impl ServingScenario {
    /// Creates a scenario with 1024 requests, a 25 ms SLA and the default
    /// arrival seed.
    ///
    /// # Panics
    /// Panics if the traffic model or the batching policy breaks its
    /// constructor's rules ([`TrafficModel::validate`],
    /// [`BatchingPolicy::validate`]).
    pub fn new(traffic: TrafficModel, policy: BatchingPolicy) -> Self {
        traffic.validate();
        policy.validate();
        ServingScenario {
            traffic,
            policy,
            requests: 1024,
            sla_us: 25_000.0,
            seed: DEFAULT_ARRIVAL_SEED,
            faults: FaultPlan::empty(),
            retry: RetryPolicy::none(),
            admission: AdmissionPolicy::none(),
        }
    }

    /// Replaces the traffic model (used by the capacity search to sweep the
    /// offered rate while keeping the traffic shape).
    ///
    /// # Panics
    /// Panics if the model breaks its constructor's rules
    /// ([`TrafficModel::validate`]).
    pub fn with_traffic(mut self, traffic: TrafficModel) -> Self {
        traffic.validate();
        self.traffic = traffic;
        self
    }

    /// Sets how many requests the arrival trace contains.
    ///
    /// # Panics
    /// Panics if `requests` is zero.
    pub fn with_requests(mut self, requests: u32) -> Self {
        assert!(requests > 0, "a scenario needs at least one request");
        self.requests = requests;
        self
    }

    /// Sets the per-request latency SLA in microseconds.
    ///
    /// # Panics
    /// Panics unless the SLA is finite and positive.
    pub fn with_sla_us(mut self, sla_us: f64) -> Self {
        assert!(
            sla_us.is_finite() && sla_us > 0.0,
            "the SLA must be finite and positive"
        );
        self.sla_us = sla_us;
        self
    }

    /// Sets the arrival-trace seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The traffic model.
    pub fn traffic(&self) -> TrafficModel {
        self.traffic
    }

    /// The batching policy.
    pub fn policy(&self) -> BatchingPolicy {
        self.policy
    }

    /// Number of requests in the arrival trace.
    pub fn requests(&self) -> u32 {
        self.requests
    }

    /// The per-request latency SLA in microseconds.
    pub fn sla_us(&self) -> f64 {
        self.sla_us
    }

    /// The arrival-trace seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Injects a deterministic [`FaultPlan`] timeline: crash and drain
    /// windows block dispatch (a crash additionally loses the in-flight
    /// batches), stragglers multiply service time and interconnect
    /// degradation taxes the all-to-all. The empty plan (the default) is
    /// bit-exact with the fault-free path.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets what happens to batches lost to a crash (and, for hedging,
    /// batches running slow). [`RetryPolicy::none`] — the default — fails
    /// them permanently.
    ///
    /// # Panics
    /// Panics if the policy breaks its constructor's rules
    /// ([`RetryPolicy::validate`]).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        retry.validate();
        self.retry = retry;
        self
    }

    /// Sets the overload-shedding policy. [`AdmissionPolicy::none`] — the
    /// default — admits every request.
    ///
    /// # Panics
    /// Panics if the policy breaks its constructor's rules
    /// ([`AdmissionPolicy::validate`]).
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> Self {
        admission.validate();
        self.admission = admission;
        self
    }

    /// The injected fault timeline (empty by default).
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// The retry policy.
    pub fn retry(&self) -> RetryPolicy {
        self.retry
    }

    /// The admission policy.
    pub fn admission(&self) -> AdmissionPolicy {
        self.admission
    }

    /// The experiment this scenario prices batches on: `experiment` with
    /// the scenario's fault plan folded in, so a resilience study's cells
    /// never alias a fault-free study's in a persisted cache. The empty
    /// plan changes nothing, so fault-free keys stay byte-identical. Every
    /// priced cell of a scenario — dispatch, the capacity search's
    /// saturation probe, and the fleet's dispatch and router probe — goes
    /// through here, as the experiment of a [`ShapePrices`] memo.
    pub(crate) fn pricing_experiment(&self, experiment: &Experiment) -> Experiment {
        if self.faults.is_empty() {
            experiment.clone()
        } else {
            experiment.clone().with_faults(self.faults.clone())
        }
    }

    /// Runs the discrete-event serving simulation of this scenario for
    /// `workload` under `scheme` on `experiment`'s deployment (device or
    /// cluster) and reports what the request stream experienced.
    ///
    /// Batches are priced by [`Experiment::run`] with the batch's padded
    /// shape as the model's batch size; each distinct shape is priced once
    /// per call (and once *ever* when a [`crate::CampaignCache`] is
    /// attached). A capacity search ([`max_sustainable_qps`]) prices each
    /// shape once per search, and a [`crate::Fleet`] once per replica
    /// group. The simulation itself is single-threaded and pure, so
    /// reports are deterministic and — because the experiment layer is
    /// thread-count-invariant — independent of the worker-thread setting
    /// even for sharded workloads. That stays true under a fault plan: the
    /// plan is explicit data, so a faulted report is exactly as
    /// reproducible as a healthy one.
    ///
    /// # Panics
    /// Panics when the scenario's [`FaultPlan`] names a device outside the
    /// experiment's deployment.
    pub fn simulate(
        &self,
        experiment: &Experiment,
        workload: &Workload,
        scheme: &Scheme,
    ) -> ServingReport {
        let arrivals = self.traffic.arrival_times_us(self.requests, self.seed);
        let mut prices = ShapePrices::new(self.pricing_experiment(experiment), workload, scheme);
        self.simulate_trace(&mut prices, &arrivals).0
    }

    /// The arrival-trace-driven core of [`ServingScenario::simulate`]: runs
    /// the same dispatch loop over an explicit (ascending) arrival trace
    /// instead of one generated from the scenario's own traffic model, on
    /// the deployment, workload and scheme `prices` was built for.
    ///
    /// The caller owns `prices`, so a caller that runs many traces on one
    /// deployment prices each shape once across all of them: a capacity
    /// search once per search, a fleet once per replica group.
    ///
    /// This is what lets the fleet layer route one fleet-wide trace across
    /// replicas and still inherit bit-exactness: when `arrivals` is exactly
    /// `traffic.arrival_times_us(requests, seed)`, the returned report is
    /// the [`simulate`](ServingScenario::simulate) report, bit for bit.
    /// Also returns the sorted per-request latencies of the served
    /// requests, so a caller merging several traces can compute exact
    /// fleet-wide percentiles. They are emitted as one ascending run per
    /// served batch and then sorted, which merges the runs. An empty trace
    /// (an idle fleet replica) runs the same path: nothing is dispatched,
    /// so every count and time is zero, and availability is 1.0 because no
    /// request was lost.
    pub(crate) fn simulate_trace(
        &self,
        prices: &mut ShapePrices<'_>,
        arrivals: &[f64],
    ) -> (ServingReport, Vec<f64>) {
        debug_assert!(
            prices.pricing.faults() == &self.faults,
            "shape prices come from this scenario's pricing experiment"
        );
        let (workload, scheme) = (prices.workload, prices.scheme);
        let num_devices = prices.pricing.cluster().num_devices();
        let plan = &self.faults;

        // A batch lost to a crash and awaiting re-dispatch under a fixed
        // retry policy: its original request window and close time (the
        // batching delay already happened) plus when the retry is ready.
        struct PendingBatch {
            first: usize,
            len: usize,
            close_us: f64,
            attempt: u32,
            ready_us: f64,
        }
        let mut pending: Vec<PendingBatch> = Vec::new();

        let mut latencies = Vec::with_capacity(arrivals.len());
        let mut batch_wait_sum = 0.0;
        let mut queue_wait_sum = 0.0;
        let mut shed_requests = 0u32;
        let mut failed_requests = 0u32;
        let mut retries = 0u32;
        let mut hedges = 0u32;
        let k = prices.pricing.streams().streams() as usize;
        let mut ledger = Ledger::new(plan, k, num_devices);
        let mut first = 0usize;

        'dispatch: while first < arrivals.len() || !pending.is_empty() {
            let stream = ledger.earliest_stream();

            // Queue-depth shedding: head-drop the oldest waiting requests
            // beyond the bound before the next batch forms.
            if let AdmissionPolicy::QueueDepth { max_queue_depth } = self.admission {
                let horizon = ledger.stream_free[stream];
                let backlog = arrivals[first..]
                    .iter()
                    .take_while(|&&a| a <= horizon)
                    .count();
                let depth = max_queue_depth as usize;
                if backlog > depth {
                    let dropped = backlog - depth;
                    shed_requests += dropped as u32;
                    first += dropped;
                    continue 'dispatch;
                }
            }

            // Choose the next launch: the earliest-ready lost batch, or
            // the next fresh batch, whichever comes due sooner (among
            // retries, ties go to the oldest requests).
            let fresh = (first < arrivals.len()).then(|| {
                self.policy
                    .form(arrivals, first, ledger.stream_free[stream])
            });
            let retry_idx = (0..pending.len()).min_by(|&a, &b| {
                pending[a]
                    .ready_us
                    .partial_cmp(&pending[b].ready_us)
                    .expect("retry times are finite")
                    .then(pending[a].first.cmp(&pending[b].first))
            });
            let take_retry = match (retry_idx, &fresh) {
                (Some(i), Some(f)) => pending[i].ready_us <= f.close_us,
                (Some(_), None) => true,
                (None, _) => false,
            };
            let (mut batch_first, mut len, close_us, attempt, floor_us) = if take_retry {
                let p = pending.remove(retry_idx.expect("take_retry implies a candidate"));
                (p.first, p.len, p.close_us, p.attempt, p.ready_us)
            } else {
                let f = fresh.expect("arrivals remain whenever no retry is taken");
                let batch_first = first;
                // Every formed request is consumed here: served or shed.
                first += f.len;
                (batch_first, f.len, f.close_us, 0u32, f.close_us)
            };

            let mut shape = self.policy.shape(len as u32);
            let mut priced = prices.price(shape);
            let mut primary = ledger.attempt(stream, floor_us, priced);

            // SLA-aware shedding: requests whose predicted latency —
            // exact, since the simulation is deterministic — would bust
            // the budget are shed at formation and the smaller batch
            // re-priced. Applies to every launch, retries included.
            if let AdmissionPolicy::SlaAware { sla_headroom } = self.admission {
                let threshold = self.sla_us * sla_headroom;
                let cutoff = primary.start_us + primary.service_us - threshold;
                let doomed = arrivals[batch_first..batch_first + len]
                    .iter()
                    .take_while(|&&a| a < cutoff)
                    .count();
                if doomed > 0 {
                    shed_requests += doomed as u32;
                    batch_first += doomed;
                    len -= doomed;
                    if len == 0 {
                        continue 'dispatch;
                    }
                    shape = self.policy.shape(len as u32);
                    priced = prices.price(shape);
                    primary = ledger.attempt(stream, floor_us, priced);
                }
            }

            let primary_done = ledger.book(&primary, priced, shape, len as u32);
            let outcome = match self.retry {
                RetryPolicy::None => primary_done,
                RetryPolicy::Fixed {
                    max_retries,
                    backoff_us,
                } => match primary_done {
                    Some(done) => Some(done),
                    None => {
                        let (_, crash_us) =
                            primary.crash.expect("a lost launch was cut by a crash");
                        if attempt < max_retries {
                            retries += 1;
                            pending.push(PendingBatch {
                                first: batch_first,
                                len,
                                close_us,
                                attempt: attempt + 1,
                                ready_us: crash_us + backoff_us * (attempt + 1) as f64,
                            });
                            continue 'dispatch;
                        }
                        None
                    }
                },
                RetryPolicy::Hedged { hedge_factor } => {
                    let hedge_at = primary.start_us + hedge_factor * priced.latency_us;
                    let slow = match primary_done {
                        None => true,
                        Some((s, sv)) => s + sv > hedge_at,
                    };
                    if slow {
                        hedges += 1;
                        // The duplicate occupies real capacity on the
                        // earliest-free stream as of now (after the
                        // primary's horizon update) — with one stream the
                        // hedge can only follow the primary, which is why
                        // hedging needs K >= 2 to help.
                        let hedge = ledger.attempt(ledger.earliest_stream(), hedge_at, priced);
                        let hedge_done = ledger.book(&hedge, priced, shape, len as u32);
                        // First successful completion wins; the loser is
                        // not cancelled (its capacity cost is the price
                        // of the hedge).
                        match (primary_done, hedge_done) {
                            (Some(p), Some(h)) => {
                                if h.0 + h.1 < p.0 + p.1 {
                                    Some(h)
                                } else {
                                    Some(p)
                                }
                            }
                            (Some(p), None) => Some(p),
                            (None, done) => done,
                        }
                    } else {
                        primary_done
                    }
                }
            };

            match outcome {
                Some((winner_start, winner_service)) => {
                    // Latency is accumulated from its components (rather
                    // than as completion - arrival) so that a request with
                    // zero batching and zero queueing delay experiences
                    // *bit-exactly* the service latency — the
                    // degenerate-equivalence anchor.
                    let queue_wait = winner_start - close_us;
                    let run_start = latencies.len();
                    for &arrival in &arrivals[batch_first..batch_first + len] {
                        let batch_wait = close_us - arrival;
                        batch_wait_sum += batch_wait;
                        queue_wait_sum += queue_wait;
                        latencies.push(batch_wait + queue_wait + winner_service);
                    }
                    // Arrivals ascend, and IEEE subtraction and addition
                    // are monotone, so a batch's latencies never increase
                    // in arrival order: reversed, the batch is one
                    // ascending run, and the final sort only merges runs.
                    // (The wait sums above stay in arrival order.)
                    let run = &mut latencies[run_start..];
                    run.reverse();
                    debug_assert!(
                        run.windows(2).all(|pair| pair[0] <= pair[1]),
                        "a served batch's latencies form one ascending run"
                    );
                }
                None => failed_requests += len as u32,
            }
        }

        let Ledger {
            plan: _,
            stream_free,
            stream_busy_us,
            stream_batches,
            busy_us,
            shape_counts,
            batches,
            event_batches,
            event_requests,
        } = ledger;
        let makespan_us = stream_free.iter().copied().fold(0.0f64, f64::max);
        let served = latencies.len() as u32;
        let offered = arrivals.len() as u32;
        debug_assert_eq!(served + shed_requests + failed_requests, offered);
        let served_f = served as f64;
        let violations = latencies.iter().filter(|&&l| l > self.sla_us).count();
        let sorted = sort_latencies(latencies);
        let experiment = &prices.pricing;

        let report = ServingReport {
            workload: workload.dataset_label(),
            scheme: scheme.paper_label(),
            device: experiment.gpu().name.clone(),
            scale: experiment.scale().name().to_string(),
            seed: self.seed,
            traffic: self.traffic.name().to_string(),
            offered_qps: self.traffic.offered_qps(),
            policy: self.policy.label(),
            sla_us: self.sla_us,
            requests: offered,
            served_requests: served,
            shed_requests,
            failed_requests,
            retries,
            hedges,
            // With nothing offered nothing was lost: full availability.
            availability: if offered == 0 {
                1.0
            } else {
                served_f / offered as f64
            },
            goodput_qps: if makespan_us > 0.0 {
                (served_f - violations as f64) / makespan_us * 1e6
            } else {
                0.0
            },
            fault_events: plan
                .events()
                .iter()
                .enumerate()
                .map(|(i, event)| FaultTimelineEntry {
                    event: event.label(),
                    start_us: event.start_us(),
                    end_us: event.end_us(),
                    batches_affected: event_batches[i],
                    requests_affected: event_requests[i],
                })
                .collect(),
            batches,
            shapes: shape_counts
                .iter()
                .map(|(&shape, &count)| BatchShapeStats {
                    shape,
                    batches: count,
                    latency_us: prices.priced[&shape].latency_us,
                })
                .collect(),
            achieved_qps: if makespan_us > 0.0 {
                served_f / makespan_us * 1e6
            } else {
                0.0
            },
            latency: if sorted.is_empty() {
                LatencyStats::zeroed()
            } else {
                LatencyStats::from_sorted(&sorted)
            },
            mean_batch_wait_us: if sorted.is_empty() {
                0.0
            } else {
                batch_wait_sum / served_f
            },
            mean_queue_wait_us: if sorted.is_empty() {
                0.0
            } else {
                queue_wait_sum / served_f
            },
            sla_violation_rate: if sorted.is_empty() {
                0.0
            } else {
                violations as f64 / served_f
            },
            utilization: (0..num_devices)
                .map(|d| DeviceUtilization {
                    device: experiment.cluster().device(d).name.clone(),
                    busy_us: busy_us[d],
                    utilization: if makespan_us > 0.0 {
                        busy_us[d] / (makespan_us * k as f64)
                    } else {
                        0.0
                    },
                })
                .collect(),
            streams: k as u32,
            stream_utilization: (0..k)
                .map(|s| StreamUtilization {
                    stream: s as u32,
                    busy_us: stream_busy_us[s],
                    batches: stream_batches[s],
                    utilization: if makespan_us > 0.0 {
                        stream_busy_us[s] / makespan_us
                    } else {
                        0.0
                    },
                })
                .collect(),
            makespan_us,
        };
        (report, sorted)
    }
}

/// What the queue model needs from one priced batch shape: its service
/// latency, its all-to-all share (what interconnect degradation taxes) and
/// the per-device busy time one such batch contributes (the full
/// [`crate::RunReport`] is not kept per batch).
pub(crate) struct PricedShape {
    pub(crate) latency_us: f64,
    all_to_all_us: f64,
    busy_us_per_device: Vec<f64>,
}

/// The batch-shape prices of one deployment: a scenario's pricing
/// experiment ([`ServingScenario::pricing_experiment`]), a workload and a
/// scheme, with each distinct shape priced once by [`Experiment::run`]. The
/// experiment's cache, when attached, extends that to once per process or
/// beyond. The caller owns the memo and decides how long it lives:
/// [`ServingScenario::simulate`] builds one per call, [`max_sustainable_qps`]
/// one per search (saturation probe included) and [`crate::Fleet::simulate`]
/// one per replica group. Because it holds the experiment, workload and
/// scheme it was built from, it cannot price for another deployment.
pub(crate) struct ShapePrices<'a> {
    pricing: Experiment,
    workload: &'a Workload,
    scheme: &'a Scheme,
    priced: BTreeMap<u32, PricedShape>,
}

impl<'a> ShapePrices<'a> {
    /// An empty memo over `pricing`, which must be a scenario's
    /// [`ServingScenario::pricing_experiment`].
    pub(crate) fn new(pricing: Experiment, workload: &'a Workload, scheme: &'a Scheme) -> Self {
        ShapePrices {
            pricing,
            workload,
            scheme,
            priced: BTreeMap::new(),
        }
    }

    /// The price of a `shape`-request batch, running the cell on first use.
    pub(crate) fn price(&mut self, shape: u32) -> &PricedShape {
        let ShapePrices {
            pricing,
            workload,
            scheme,
            priced,
        } = self;
        priced.entry(shape).or_insert_with(|| {
            let report = pricing.clone().with_batch_size(shape).run(workload, scheme);
            let mut busy = vec![0.0f64; pricing.cluster().num_devices()];
            let mut all_to_all_us = 0.0;
            match &report.devices {
                Some(cluster) => {
                    for (d, device) in cluster.per_device.iter().enumerate() {
                        busy[d] += device.embedding_us;
                    }
                    if let Some(e2e) = report.end_to_end {
                        busy[0] += e2e.non_embedding_us;
                    }
                    all_to_all_us = cluster.all_to_all_us;
                }
                None => busy[0] = report.latency_us,
            }
            PricedShape {
                latency_us: report.latency_us,
                all_to_all_us,
                busy_us_per_device: busy,
            }
        })
    }
}

/// One dispatch attempt on one stream, with the fault timeline applied:
/// `raw_us` is when both the stream and the batch were ready, `start_us`
/// when the timeline let it start (pushed past any crash/drain window),
/// `service_us` its faulted service time (straggler factors multiply it;
/// interconnect degradation adds `(m - 1)` extra all-to-all copies) and
/// `crash` the crash, if any, that cuts it short. For the empty plan both
/// times are the exact input bits, no arithmetic applied — which is what
/// keeps the degenerate scenario bit-exact with the fault-free path.
struct Attempt {
    stream: usize,
    raw_us: f64,
    start_us: f64,
    service_us: f64,
    crash: Option<(usize, f64)>,
}

/// The per-trace dispatch state every launch attempt books into: one
/// execution horizon per concurrent stream (each batch is dispatched to
/// the earliest-free stream, ties breaking deterministically to the lowest
/// stream index — with one stream this is the plain FIFO pipeline), the
/// busy-time and batch counters, and each fault event's tally.
struct Ledger<'p> {
    plan: &'p FaultPlan,
    stream_free: Vec<f64>,
    stream_busy_us: Vec<f64>,
    stream_batches: Vec<u32>,
    busy_us: Vec<f64>,
    shape_counts: BTreeMap<u32, u32>,
    batches: u32,
    event_batches: Vec<u32>,
    event_requests: Vec<u32>,
}

impl<'p> Ledger<'p> {
    fn new(plan: &'p FaultPlan, streams: usize, devices: usize) -> Self {
        Ledger {
            plan,
            stream_free: vec![0.0; streams],
            stream_busy_us: vec![0.0; streams],
            stream_batches: vec![0; streams],
            busy_us: vec![0.0; devices],
            shape_counts: BTreeMap::new(),
            batches: 0,
            event_batches: vec![0; plan.len()],
            event_requests: vec![0; plan.len()],
        }
    }

    /// The earliest-free stream, ties to the lowest index.
    fn earliest_stream(&self) -> usize {
        (0..self.stream_free.len())
            .min_by(|&a, &b| {
                self.stream_free[a]
                    .partial_cmp(&self.stream_free[b])
                    .expect("stream horizons are finite")
            })
            .expect("an experiment has at least one stream")
    }

    /// Plans an attempt on `stream` for a batch due at `due_us` with the
    /// fault-free service and all-to-all times of its priced shape.
    fn attempt(&self, stream: usize, due_us: f64, priced: &PricedShape) -> Attempt {
        let (nominal_us, all_to_all_us) = (priced.latency_us, priced.all_to_all_us);
        let raw_us = if self.stream_free[stream] > due_us {
            self.stream_free[stream]
        } else {
            due_us
        };
        let start_us = self.plan.next_dispatch_us(raw_us);
        let mut service_us = nominal_us;
        let straggle = self.plan.straggler_factor(start_us);
        if straggle != 1.0 {
            service_us *= straggle;
        }
        let degrade = self.plan.degradation_multiplier(start_us);
        if degrade != 1.0 {
            service_us += (degrade - 1.0) * all_to_all_us;
        }
        let crash = self.plan.first_crash_in(start_us, start_us + service_us);
        Attempt {
            stream,
            raw_us,
            start_us,
            service_us,
            crash,
        }
    }

    /// Books `attempt` for a `requests`-request batch of `shape`, priced as
    /// `priced`: full accounting when it completes, pro-rata busy time up
    /// to the crash when it is lost (the stream frees at the crash
    /// instant). It then counts against the fault events that shaped it:
    /// a crash counts the attempts it killed *and* the dispatches it
    /// pushed past its recovery, a drain counts delayed dispatches, and
    /// the slowdown kinds count the attempts that started under a non-unit
    /// factor. Returns
    /// `Some((start, service))` on completion, `None` on loss.
    fn book(
        &mut self,
        attempt: &Attempt,
        priced: &PricedShape,
        shape: u32,
        requests: u32,
    ) -> Option<(f64, f64)> {
        let Attempt {
            stream,
            raw_us,
            start_us,
            service_us,
            crash,
        } = *attempt;
        let busy_delta = &priced.busy_us_per_device;
        match crash {
            None => {
                self.stream_free[stream] = start_us + service_us;
                self.stream_busy_us[stream] += service_us;
                for (total, delta) in self.busy_us.iter_mut().zip(busy_delta) {
                    *total += delta;
                }
            }
            Some((_, crash_us)) => {
                self.stream_free[stream] = crash_us;
                self.stream_busy_us[stream] += crash_us - start_us;
                let fraction = (crash_us - start_us) / service_us;
                for (total, delta) in self.busy_us.iter_mut().zip(busy_delta) {
                    *total += delta * fraction;
                }
            }
        }
        self.stream_batches[stream] += 1;
        *self.shape_counts.entry(shape).or_insert(0) += 1;
        self.batches += 1;

        let killed_by = crash.map(|(i, _)| i);
        for (i, event) in self.plan.events().iter().enumerate() {
            let delayed =
                start_us > raw_us && event.start_us() < start_us && event.end_us() > raw_us;
            let active_at_start = event.start_us() <= start_us && start_us < event.end_us();
            let affected = match event.kind() {
                FaultKind::Crash => killed_by == Some(i) || delayed,
                FaultKind::Drain => delayed,
                FaultKind::Straggler | FaultKind::InterconnectDegradation => {
                    active_at_start && event.factor() != 1.0
                }
            };
            if affected {
                self.event_batches[i] += 1;
                self.event_requests[i] += requests;
            }
        }
        crash.is_none().then_some((start_us, service_us))
    }
}

/// The scheme [`select_scheme`] settled on.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeChoice {
    /// Index of the chosen scheme in the caller's candidate slice.
    pub index: usize,
    /// The serving report that qualified it.
    pub report: ServingReport,
}

/// Picks the cheapest [`Scheme`] that meets the scenario's SLA (p99 within
/// `sla_us`) at the scenario's offered load: candidates are evaluated in
/// the given order — list them cheapest-first (e.g. `base` before `OptMT`
/// before the combined scheme, mirroring engineering cost) — and the first
/// one whose simulated p99 meets the SLA wins. Returns `None` when no
/// candidate qualifies.
pub fn select_scheme(
    experiment: &Experiment,
    workload: &Workload,
    schemes: &[Scheme],
    scenario: &ServingScenario,
) -> Option<SchemeChoice> {
    schemes.iter().enumerate().find_map(|(index, scheme)| {
        let report = scenario.simulate(experiment, workload, scheme);
        report.meets_sla().then_some(SchemeChoice { index, report })
    })
}

/// The result of a [`max_sustainable_qps`] capacity search.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityResult {
    /// Highest probed offered QPS whose p99 met the SLA (`0.0` when even
    /// the lightest probed load violates it).
    pub max_qps: f64,
    /// Number of serving simulations the search ran.
    pub probes: u32,
    /// The serving report at `max_qps` (at the lightest probed load when
    /// `max_qps` is `0.0`).
    pub report: ServingReport,
}

/// Binary-searches the highest offered QPS the deployment sustains while
/// meeting the scenario's SLA (p99 within `sla_us`), holding the
/// scenario's traffic *shape*, policy, request count and seed fixed and
/// sweeping only the rate ([`TrafficModel::at_qps`]).
///
/// The search seeds itself with the deployment's saturation throughput
/// (`max_batch / full-batch service latency`), brackets the SLA boundary by
/// doubling/halving, then bisects. Every step is a deterministic serving
/// simulation, so the result is reproducible bit-for-bit. The saturation
/// probe and every serving probe share one shape-price memo, so each
/// distinct batch shape is priced once per search (through the
/// experiment's cache, when one is attached).
///
/// The search draws its arrival randomness once. A trace's randomness is a
/// seeded stream of rate-free unit exponential gaps, each divided by the
/// rate in force, so the first probe draws the gaps and every later probe
/// rescales the same draw; each probe's report is still the one
/// [`ServingScenario::simulate`] gives at that rate, bit for bit.
pub fn max_sustainable_qps(
    experiment: &Experiment,
    workload: &Workload,
    scheme: &Scheme,
    scenario: &ServingScenario,
) -> CapacityResult {
    let mut prices = ShapePrices::new(scenario.pricing_experiment(experiment), workload, scheme);
    search_capacity(scenario, &mut prices)
}

/// The [`max_sustainable_qps`] search on the deployment `prices` was built
/// for, pricing through the caller's memo (a fleet shares one per replica
/// group between its router probe, this search and its replicas).
pub(crate) fn search_capacity(
    scenario: &ServingScenario,
    prices: &mut ShapePrices<'_>,
) -> CapacityResult {
    // Saturation throughput of back-to-back full batches: the natural
    // starting guess for the bracket.
    let max_batch = scenario.policy().max_batch();
    let full_batch_service_us = prices.price(scenario.policy().shape(max_batch)).latency_us;

    let probes = std::cell::Cell::new(0u32);
    let mut gaps = UnitGaps::new(scenario.seed);
    let mut probe = |qps: f64| -> ServingReport {
        probes.set(probes.get() + 1);
        let traffic = scenario.traffic().at_qps(qps);
        let arrivals = traffic.arrivals_with(scenario.requests, &mut gaps);
        scenario
            .clone()
            .with_traffic(traffic)
            .simulate_trace(prices, &arrivals)
            .0
    };
    let saturation_qps = max_batch as f64 / full_batch_service_us * 1e6;

    // Bracket the boundary: grow/shrink by powers of two until it flips.
    let (mut lo, mut hi);
    let mut lo_report;
    let first = probe(saturation_qps);
    if first.meets_sla() {
        lo = saturation_qps;
        lo_report = first;
        hi = lo * 2.0;
        loop {
            let report = probe(hi);
            if !report.meets_sla() {
                break;
            }
            lo = hi;
            lo_report = report;
            hi *= 2.0;
            if probes.get() > 64 {
                // Effectively unbounded capacity for this scenario.
                return CapacityResult {
                    max_qps: lo,
                    probes: probes.get(),
                    report: lo_report,
                };
            }
        }
    } else {
        hi = saturation_qps;
        lo = hi / 2.0;
        let mut lightest = first;
        loop {
            if lo < 1e-3 {
                // Even (near) zero load violates the SLA: a single batch's
                // service latency already exceeds it.
                return CapacityResult {
                    max_qps: 0.0,
                    probes: probes.get(),
                    report: lightest,
                };
            }
            let report = probe(lo);
            if report.meets_sla() {
                lo_report = report;
                break;
            }
            lightest = report;
            lo /= 2.0;
        }
    }

    // Bisect the bracket down.
    for _ in 0..BISECTION_STEPS {
        let mid = (lo + hi) / 2.0;
        let report = probe(mid);
        if report.meets_sla() {
            lo = mid;
            lo_report = report;
        } else {
            hi = mid;
        }
    }

    CapacityResult {
        max_qps: lo,
        probes: probes.get(),
        report: lo_report,
    }
}

/// One point of a [`stream_capacity_sweep`]: the capacity search's result
/// under a particular concurrent-stream configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamCapacityPoint {
    /// The stream configuration this point was searched under.
    pub streams: StreamConfig,
    /// The capacity search's result at that configuration.
    pub capacity: CapacityResult,
}

/// Runs the [`max_sustainable_qps`] capacity search once per candidate
/// stream configuration and returns the capacity-vs-K curve in candidate
/// order. Each point re-prices batches under co-residency contention
/// (K kernels share the device), so the curve shows the real trade: more
/// streams drain the queue in parallel but each batch runs slower.
///
/// # Panics
/// Panics when `candidates` is empty or any candidate exceeds the
/// experiment cluster's [`stream capacity`](crate::Cluster::stream_capacity).
pub fn stream_capacity_sweep(
    experiment: &Experiment,
    workload: &Workload,
    scheme: &Scheme,
    scenario: &ServingScenario,
    candidates: &[StreamConfig],
) -> Vec<StreamCapacityPoint> {
    assert!(
        !candidates.is_empty(),
        "a stream sweep needs at least one candidate configuration"
    );
    candidates
        .iter()
        .map(|&streams| StreamCapacityPoint {
            streams,
            capacity: max_sustainable_qps(
                &experiment.clone().with_streams(streams),
                workload,
                scheme,
                scenario,
            ),
        })
        .collect()
}

/// Sweeps the candidate stream configurations and returns the point with
/// the highest sustainable QPS; ties go to the earliest candidate.
///
/// # Panics
/// Panics when `candidates` is empty (via [`stream_capacity_sweep`]).
pub fn best_stream_config(
    experiment: &Experiment,
    workload: &Workload,
    scheme: &Scheme,
    scenario: &ServingScenario,
    candidates: &[StreamConfig],
) -> StreamCapacityPoint {
    stream_capacity_sweep(experiment, workload, scheme, scenario, candidates)
        .into_iter()
        .reduce(|best, point| {
            if point.capacity.max_qps > best.capacity.max_qps {
                point
            } else {
                best
            }
        })
        .expect("the sweep returns one point per candidate")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrm::WorkloadScale;
    use dlrm_datasets::AccessPattern;
    use gpu_sim::GpuConfig;

    fn exp() -> Experiment {
        Experiment::new(GpuConfig::test_small(), WorkloadScale::Test)
    }

    fn stage() -> Workload {
        Workload::stage(AccessPattern::MedHot)
    }

    #[test]
    fn reports_account_for_every_request_and_batch() {
        let scenario = ServingScenario::new(
            TrafficModel::poisson(5_000.0),
            BatchingPolicy::adaptive(4, 64),
        )
        .with_requests(200);
        let report = scenario.simulate(&exp(), &stage(), &Scheme::base());
        assert_eq!(report.requests, 200);
        assert_eq!(
            report.shapes.iter().map(|s| s.batches).sum::<u32>(),
            report.batches
        );
        assert!(report.batches >= 4, "64-cap batching of 200 requests");
        assert!(report.makespan_us > 0.0);
        assert!(report.achieved_qps > 0.0);
        assert_eq!(report.utilization.len(), 1);
        let u = &report.utilization[0];
        assert!(u.utilization > 0.0 && u.utilization <= 1.0 + 1e-12);
    }

    #[test]
    fn scenario_accessors_round_trip() {
        let scenario =
            ServingScenario::new(TrafficModel::uniform(10.0), BatchingPolicy::fixed_size(8))
                .with_requests(16)
                .with_sla_us(1_000.0)
                .with_seed(9);
        assert_eq!(scenario.requests(), 16);
        assert_eq!(scenario.sla_us(), 1_000.0);
        assert_eq!(scenario.seed(), 9);
        assert_eq!(scenario.traffic(), TrafficModel::uniform(10.0));
        assert_eq!(scenario.policy(), BatchingPolicy::fixed_size(8));
    }

    #[test]
    fn fixed_size_policies_price_one_shape() {
        let scenario = ServingScenario::new(
            TrafficModel::uniform(50_000.0),
            BatchingPolicy::fixed_size(64),
        )
        .with_requests(300);
        let report = scenario.simulate(&exp(), &stage(), &Scheme::base());
        // 300 requests in batches of 64 -> 5 batches (the last padded), all
        // priced at the one configured shape.
        assert_eq!(report.batches, 5);
        assert_eq!(report.shapes.len(), 1);
        assert_eq!(report.shapes[0].shape, 64);
    }

    #[test]
    fn selection_returns_none_when_nothing_qualifies() {
        let scenario = ServingScenario::new(
            TrafficModel::uniform(1_000.0),
            BatchingPolicy::fixed_size(64),
        )
        .with_requests(64)
        .with_sla_us(0.001); // nothing serves a batch in a nanosecond
        assert_eq!(
            select_scheme(&exp(), &stage(), &[Scheme::base()], &scenario),
            None
        );
    }

    #[test]
    fn infeasible_slas_report_zero_capacity() {
        let scenario = ServingScenario::new(
            TrafficModel::uniform(1_000.0),
            BatchingPolicy::fixed_size(64),
        )
        .with_requests(32)
        .with_sla_us(0.001);
        let capacity = max_sustainable_qps(&exp(), &stage(), &Scheme::base(), &scenario);
        assert_eq!(capacity.max_qps, 0.0);
        assert!(!capacity.report.meets_sla());
    }

    #[test]
    fn multi_stream_reports_expose_per_stream_utilization() {
        use crate::topology::StreamConfig;
        use gpu_sim::StreamPartition;

        let experiment = exp().with_streams(StreamConfig::new(2, StreamPartition::Interleaved));
        let scenario = ServingScenario::new(
            TrafficModel::uniform(50_000.0),
            BatchingPolicy::fixed_size(32),
        )
        .with_requests(160);
        let report = scenario.simulate(&experiment, &stage(), &Scheme::base());
        assert_eq!(report.streams, 2);
        assert_eq!(report.stream_utilization.len(), 2);
        assert_eq!(
            report
                .stream_utilization
                .iter()
                .map(|s| s.batches)
                .sum::<u32>(),
            report.batches
        );
        // At heavy uniform load both streams should get work, and each
        // stream's horizon is bounded by the makespan.
        for stream in &report.stream_utilization {
            assert!(stream.batches > 0, "stream {} starved", stream.stream);
            assert!(stream.utilization > 0.0 && stream.utilization <= 1.0 + 1e-12);
        }
        // Device utilization normalizes by the stream count, so it stays
        // a fraction of [0, 1] even with two busy streams.
        assert!(report.utilization[0].utilization <= 1.0 + 1e-12);
    }

    #[test]
    fn single_stream_reports_collapse_to_the_fifo_pipeline() {
        let scenario = ServingScenario::new(
            TrafficModel::poisson(5_000.0),
            BatchingPolicy::adaptive(4, 64),
        )
        .with_requests(200);
        let report = scenario.simulate(&exp(), &stage(), &Scheme::base());
        assert_eq!(report.streams, 1);
        assert_eq!(report.stream_utilization.len(), 1);
        let stream = &report.stream_utilization[0];
        assert_eq!(stream.batches, report.batches);
        // With one stream the last completion IS the stream's horizon.
        assert!(stream.busy_us <= report.makespan_us);
    }

    #[test]
    fn stream_sweeps_cover_every_candidate_in_order() {
        use crate::topology::StreamConfig;
        use gpu_sim::StreamPartition;

        let candidates = [
            StreamConfig::single(),
            StreamConfig::new(2, StreamPartition::Interleaved),
        ];
        let scenario = ServingScenario::new(
            TrafficModel::poisson(2_000.0),
            BatchingPolicy::fixed_size(64),
        )
        .with_requests(128);
        let sweep =
            stream_capacity_sweep(&exp(), &stage(), &Scheme::base(), &scenario, &candidates);
        assert_eq!(sweep.len(), 2);
        assert_eq!(sweep[0].streams, candidates[0]);
        assert_eq!(sweep[1].streams, candidates[1]);
        assert_eq!(sweep[0].capacity.report.streams, 1);
        assert_eq!(sweep[1].capacity.report.streams, 2);
        let best = best_stream_config(&exp(), &stage(), &Scheme::base(), &scenario, &candidates);
        let max = sweep
            .iter()
            .map(|p| p.capacity.max_qps)
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(best.capacity.max_qps, max);
    }

    /// The fault-free service latency of one `shape`-request batch — the
    /// unit the resilience tests below express crash times in.
    fn service_us(shape: u32) -> f64 {
        exp()
            .with_batch_size(shape)
            .run(&stage(), &Scheme::base())
            .latency_us
    }

    /// Near-simultaneous arrivals: back-to-back batches whose queueing is
    /// dominated by service time, so fault windows expressed in service
    /// units land where intended.
    fn burst_scenario(batch: u32, requests: u32) -> ServingScenario {
        ServingScenario::new(
            TrafficModel::uniform(100_000_000.0),
            BatchingPolicy::fixed_size(batch),
        )
        .with_requests(requests)
    }

    #[test]
    fn explicitly_empty_resilience_knobs_change_nothing() {
        let scenario = ServingScenario::new(
            TrafficModel::poisson(5_000.0),
            BatchingPolicy::adaptive(4, 64),
        )
        .with_requests(200);
        let base = scenario.simulate(&exp(), &stage(), &Scheme::base());
        let faulted = scenario
            .clone()
            .with_faults(FaultPlan::empty())
            .with_retry(RetryPolicy::none())
            .with_admission(AdmissionPolicy::none())
            .simulate(&exp(), &stage(), &Scheme::base());
        assert_eq!(base.to_json(), faulted.to_json());
        assert_eq!(faulted.availability, 1.0);
        assert_eq!(faulted.served_requests, faulted.requests);
        assert!(faulted.fault_events.is_empty());
    }

    #[test]
    fn crashes_without_retry_lose_exactly_the_inflight_batch() {
        let s = service_us(32);
        // Three back-to-back batches of 32; the crash opens mid-flight in
        // batch 2 and recovery lands mid-flight of where batch 3 would
        // have run, so batch 2 is killed and batch 3 delayed.
        let report = burst_scenario(32, 96)
            .with_faults(FaultPlan::new(vec![FaultEvent::crash(0, 1.5 * s, 2.5 * s)]))
            .simulate(&exp(), &stage(), &Scheme::base());
        assert_eq!(report.failed_requests, 32);
        assert_eq!(report.served_requests, 64);
        assert_eq!(report.shed_requests, 0);
        assert_eq!(report.availability, 64.0 / 96.0);
        assert_eq!(report.fault_events.len(), 1);
        // The crash both killed batch 2 and delayed batch 3's dispatch.
        assert_eq!(report.fault_events[0].batches_affected, 2);
        assert_eq!(report.fault_events[0].requests_affected, 64);
    }

    #[test]
    fn fixed_retry_recovers_a_crashed_batch() {
        let s = service_us(32);
        let report = burst_scenario(32, 96)
            .with_faults(FaultPlan::new(vec![FaultEvent::crash(0, 1.5 * s, 2.5 * s)]))
            .with_retry(RetryPolicy::fixed(3, 100.0))
            .simulate(&exp(), &stage(), &Scheme::base());
        assert_eq!(report.failed_requests, 0);
        assert_eq!(report.served_requests, 96);
        assert_eq!(report.retries, 1);
        assert_eq!(report.availability, 1.0);
        // The re-dispatched batch is a fourth launch of the same shape.
        assert_eq!(report.batches, 4);
    }

    #[test]
    fn drains_delay_batches_but_lose_nothing() {
        let s = service_us(32);
        let healthy = burst_scenario(32, 96).simulate(&exp(), &stage(), &Scheme::base());
        let drained = burst_scenario(32, 96)
            .with_faults(FaultPlan::new(vec![FaultEvent::drain(0, 1.5 * s, 4.0 * s)]))
            .simulate(&exp(), &stage(), &Scheme::base());
        assert_eq!(drained.failed_requests, 0);
        assert_eq!(drained.shed_requests, 0);
        assert_eq!(drained.availability, 1.0);
        assert!(drained.makespan_us > healthy.makespan_us);
        assert!(drained.fault_events[0].batches_affected >= 1);
    }

    #[test]
    fn hedged_retries_duplicate_slow_batches() {
        use crate::topology::StreamConfig;
        use gpu_sim::StreamPartition;

        let s = service_us(32);
        let experiment = exp().with_streams(StreamConfig::new(2, StreamPartition::Interleaved));
        // A straggler window covering the first dispatches but over before
        // the hedge fires: the duplicate runs at nominal speed and wins.
        let report = burst_scenario(32, 96)
            .with_faults(FaultPlan::new(vec![FaultEvent::straggler(
                0,
                0.0,
                1.2 * s,
                4.0,
            )]))
            .with_retry(RetryPolicy::hedged(1.5))
            .simulate(&experiment, &stage(), &Scheme::base());
        assert!(report.hedges >= 1, "a 4x straggler must trigger hedging");
        assert_eq!(report.served_requests, 96);
        assert_eq!(report.failed_requests, 0);
        // Hedge launches occupy real stream capacity.
        assert_eq!(report.batches, 3 + report.hedges);
    }

    #[test]
    fn retried_and_hedged_batches_emit_ascending_runs() {
        use crate::topology::StreamConfig;
        use gpu_sim::StreamPartition;

        // `simulate_trace` debug-asserts that every served batch emits one
        // ascending latency run; this drives that assert through crashed,
        // retried, straggling and hedged launches on two streams.
        let s = service_us(32);
        let experiment = exp().with_streams(StreamConfig::new(2, StreamPartition::Interleaved));
        let plan = FaultPlan::new(vec![
            FaultEvent::straggler(0, 0.0, 1.2 * s, 4.0),
            FaultEvent::crash(0, 1.5 * s, 2.5 * s),
        ]);
        for retry in [RetryPolicy::fixed(3, 100.0), RetryPolicy::hedged(1.5)] {
            let scenario = burst_scenario(32, 192)
                .with_faults(plan.clone())
                .with_retry(retry);
            let report = scenario.simulate(&experiment, &stage(), &Scheme::base());
            match retry {
                RetryPolicy::Fixed { .. } => {
                    assert!(report.retries >= 1, "a crashed batch is retried")
                }
                _ => assert!(report.hedges >= 1, "a straggling batch is hedged"),
            }
            assert_eq!(
                report.served_requests + report.failed_requests,
                report.requests
            );
            assert_eq!(report.fault_events.len(), 2);
            assert!(report.fault_events.iter().all(|e| e.batches_affected > 0));
        }
    }

    #[test]
    fn queue_depth_admission_sheds_the_backlog_head() {
        let report = burst_scenario(8, 128)
            .with_admission(AdmissionPolicy::queue_depth(16))
            .simulate(&exp(), &stage(), &Scheme::base());
        assert!(report.shed_requests > 0, "a 128-deep burst must shed");
        assert_eq!(report.failed_requests, 0);
        assert_eq!(
            report.served_requests + report.shed_requests,
            report.requests
        );
        assert!(report.availability < 1.0);
        assert!(report.goodput_qps <= report.achieved_qps);
    }

    #[test]
    fn sla_aware_admission_bounds_served_latency() {
        let s = service_us(32);
        let sla = 1.5 * s;
        let report = burst_scenario(32, 96)
            .with_sla_us(sla)
            .with_admission(AdmissionPolicy::sla_aware(1.0))
            .simulate(&exp(), &stage(), &Scheme::base());
        assert!(report.shed_requests > 0, "queued batches must be shed");
        assert!(
            report.latency.max_us <= sla,
            "served requests must meet the SLA exactly: max {} vs sla {}",
            report.latency.max_us,
            sla
        );
        assert_eq!(report.sla_violation_rate, 0.0);
        assert!(report.availability < 1.0);
    }

    #[test]
    fn a_faulted_capacity_search_prices_no_extra_cell() {
        use crate::cache::CampaignCache;

        let s = service_us(64);
        let misses = |faults: FaultPlan| {
            let cache = CampaignCache::new();
            let scenario = ServingScenario::new(
                TrafficModel::poisson(2_000.0),
                BatchingPolicy::fixed_size(64),
            )
            .with_requests(64)
            .with_faults(faults);
            let experiment = exp().with_cache(cache.clone());
            max_sustainable_qps(&experiment, &stage(), &Scheme::base(), &scenario);
            cache.misses()
        };
        // The saturation probe and every serving probe price the one
        // fixed shape on the same (fault-folded) experiment: one cell.
        let crashed = FaultPlan::new(vec![FaultEvent::crash(0, 2.0 * s, 3.0 * s)]);
        assert_eq!(misses(FaultPlan::empty()), 1);
        assert_eq!(misses(crashed), 1);
    }

    #[test]
    fn an_empty_trace_reports_an_idle_deployment() {
        use crate::json::Json;
        use crate::topology::StreamConfig;
        use gpu_sim::StreamPartition;

        let experiment = exp().with_streams(StreamConfig::new(2, StreamPartition::Interleaved));
        let plan = FaultPlan::new(vec![
            FaultEvent::crash(0, 100.0, 200.0),
            FaultEvent::straggler(0, 0.0, 400.0, 2.0),
        ]);
        let scenario = burst_scenario(32, 96).with_faults(plan.clone());
        let workload = stage();
        let scheme = Scheme::base();
        let mut prices =
            ShapePrices::new(scenario.pricing_experiment(&experiment), &workload, &scheme);
        let (report, latencies) = scenario.simulate_trace(&mut prices, &[]);
        assert!(latencies.is_empty());
        assert_eq!(report.availability, 1.0);
        assert_eq!(
            (
                report.requests,
                report.served_requests,
                report.shed_requests,
                report.failed_requests,
                report.batches,
            ),
            (0, 0, 0, 0, 0)
        );
        assert_eq!(report.fault_events.len(), plan.len());
        for (entry, event) in report.fault_events.iter().zip(plan.events()) {
            assert_eq!(entry.event, event.label());
            assert_eq!((entry.batches_affected, entry.requests_affected), (0, 0));
        }
        assert_eq!(report.utilization.len(), 1);
        assert!(report
            .utilization
            .iter()
            .all(|d| d.busy_us == 0.0 && d.utilization == 0.0));
        assert_eq!(report.streams, 2);
        assert_eq!(report.stream_utilization.len(), 2);
        assert!(report
            .stream_utilization
            .iter()
            .all(|s| s.batches == 0 && s.busy_us == 0.0 && s.utilization == 0.0));
        // A NaN would render as an unparseable token.
        assert!(Json::parse(&report.to_json()).is_ok());
    }

    #[test]
    fn faulted_reports_account_for_every_request() {
        let s = service_us(16);
        let report = ServingScenario::new(
            TrafficModel::poisson(20_000.0),
            BatchingPolicy::adaptive(4, 16),
        )
        .with_requests(200)
        .with_faults(FaultPlan::new(vec![
            FaultEvent::crash(0, 2.0 * s, 3.0 * s),
            FaultEvent::straggler(0, 5.0 * s, 8.0 * s, 2.0),
        ]))
        .with_retry(RetryPolicy::fixed(2, 50.0))
        .with_admission(AdmissionPolicy::queue_depth(64))
        .simulate(&exp(), &stage(), &Scheme::base());
        assert_eq!(
            report.served_requests + report.shed_requests + report.failed_requests,
            report.requests
        );
        assert_eq!(report.served_requests as usize, {
            // served == what the percentile pool saw
            (report.availability * report.requests as f64).round() as usize
        });
        assert_eq!(report.fault_events.len(), 2);
    }

    fn scenario() -> ServingScenario {
        ServingScenario::new(
            TrafficModel::poisson(1_000.0),
            BatchingPolicy::fixed_size(8),
        )
    }

    #[test]
    #[should_panic(expected = "a burst must contain at least one request")]
    fn a_direct_invalid_traffic_model_panics_at_the_builder() {
        let _ = scenario().with_traffic(TrafficModel::Bursty {
            qps: 1_000.0,
            burst_size: 0,
        });
    }

    #[test]
    #[should_panic(expected = "the batch size must be at least one")]
    fn a_direct_invalid_batching_policy_panics_at_the_builder() {
        let _ = ServingScenario::new(
            TrafficModel::poisson(1_000.0),
            BatchingPolicy::FixedSize { batch: 0 },
        );
    }

    #[test]
    #[should_panic(expected = "a hedge factor must be finite and >= 1 (got 0.5)")]
    fn a_direct_invalid_retry_policy_panics_at_the_builder() {
        let _ = scenario().with_retry(RetryPolicy::Hedged { hedge_factor: 0.5 });
    }

    #[test]
    #[should_panic(expected = "queue-depth admission needs max_queue_depth >= 1")]
    fn a_direct_invalid_admission_policy_panics_at_the_builder() {
        let _ = scenario().with_admission(AdmissionPolicy::QueueDepth { max_queue_depth: 0 });
    }
}

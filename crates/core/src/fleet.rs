//! Fleet-scale serving: replica sets behind a router, autoscaling, and a
//! device-hours cost model — the layer that turns one priced deployment
//! into a planet of them.
//!
//! A [`Fleet`] owns a fleet-wide arrival trace (a [`TrafficModel`], request
//! count and seed, exactly like a [`ServingScenario`]) and a set of
//! [`ReplicaGroup`]s: each group is a `ServingScenario` template over its
//! own [`Experiment`] deployment (cluster, streams, engine mode), expanded
//! into `replicas` identical replica instances. [`Fleet::simulate`] routes
//! every arrival to exactly one replica with a [`RoutingPolicy`], optionally
//! resizes the live set per interval with an [`AutoscalePolicy`] driven by
//! the [`max_sustainable_qps`] capacity search, then runs each replica's sub-trace through the
//! unchanged [`ServingScenario`] dispatch loop and aggregates a
//! [`FleetReport`] (exact fleet-wide percentiles, request conservation,
//! per-replica serving reports, autoscale timeline, and a device-hours
//! cost summary). A live replica the router sent nothing runs the same
//! loop on an empty trace and reports idle. Every cell the fleet prices —
//! replica dispatch, the router probe and the capacity search — folds the
//! group's fault plan in through the scenario's one pricing-experiment
//! function, so fleet cells share the cache with plain serving runs.
//!
//! Three contracts the test suite (`tests/fleet_equivalence.rs`) anchors:
//!
//! * **Degenerate equivalence** — a 1-replica fleet with identity routing
//!   (round-robin) and no autoscaling is **bit-exact** with
//!   [`ServingScenario::simulate`] on both engine modes, sharded and
//!   K-streamed: the router degenerates to "send everything to replica 0"
//!   and the replica runs the very same dispatch loop on the very same
//!   arrival trace. On a shared [`CampaignCache`] it therefore prices no
//!   cell the scenario has not already priced.
//! * **Request conservation** — every offered request is routed to exactly
//!   one replica and accounted exactly once: summed over replicas,
//!   `served + shed + failed = offered`.
//! * **The drain contract on scale-in** — deactivating a replica only stops
//!   *routing* to it; requests already routed are still simulated to
//!   completion (and billed), so autoscaling never loses in-flight work.
//!
//! The router is deliberately an *estimating* router, the way a real L7
//! balancer is: it never sees inside a replica's queue. Least-outstanding
//! and latency-aware routing run on router-side estimates (a per-replica
//! service-time probe priced through the ordinary experiment path, so the
//! probe cell caches and shares like any other) updated as requests are
//! assigned. Round-robin needs no estimates and prices no probe. Each
//! replica group prices a batch shape once per fleet day: its router
//! probe, capacity search and replicas share one shape-price memo.
//!
//! # Adding a routing policy
//!
//! Routing is a pure decision function in the style of
//! [`BatchingPolicy`](crate::BatchingPolicy): given the router cursor (how
//! many requests have been routed so far) and one [`ReplicaView`] per live
//! replica, [`RoutingPolicy::route`] returns the index of the chosen view —
//! no I/O, no clocks, no randomness, so fleet reports stay deterministic
//! and thread-count-invariant. To add a policy:
//!
//! 1. Add a variant to [`RoutingPolicy`] carrying exactly its own
//!    parameters, and a constructor that validates them (panic on invalid
//!    values, like `latency_aware` does).
//! 2. Add its arm to [`RoutingPolicy::route`], deciding from the bound
//!    parameters, the cursor and the views only. Break ties toward the
//!    lowest replica index so the decision stays deterministic.
//! 3. Add its arm to [`RoutingPolicy::label`], which names the policy and
//!    its parameters in [`FleetReport::routing`].
//!
//! Autoscaling follows the same pattern: [`AutoscalePolicy`] variants
//! carry their own parameters, and [`AutoscalePolicy::decide`] is a pure
//! function from (offered rate, live capacity, live/pool counts,
//! cooldown) to an [`AutoscaleAction`].
//!
//! [`max_sustainable_qps`]: crate::max_sustainable_qps

use std::collections::VecDeque;
use std::sync::Arc;

use crate::cache::CampaignCache;
use crate::json::{array, object, render_object, ObjectWriter};
use crate::runner::Experiment;
use crate::scheme::Scheme;
use crate::serving::TrafficModel;
use crate::serving::{
    search_capacity, sort_latencies, LatencyStats, ServingReport, ServingScenario, ShapePrices,
};
use crate::workload::Workload;

/// Identifier of the fleet-report JSON schema produced by this crate
/// version.
pub const FLEET_REPORT_SCHEMA: &str = "perf-envelope/fleet-report/v1";

/// The router's view of one live replica — everything a
/// [`RoutingPolicy::route`] decision may depend on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaView {
    /// Pool index of the replica (stable across scale events).
    pub replica: u32,
    /// Requests routed to this replica so far.
    pub routed: u64,
    /// Requests routed but not yet complete on the router's estimate.
    pub outstanding: u32,
    /// Exponentially-weighted moving average of the router's estimated
    /// request latency for this replica, in microseconds.
    pub ewma_latency_us: f64,
}

/// How the fleet router picks a replica for each arriving request: a
/// deterministic pure decision function in the style of
/// [`BatchingPolicy`](crate::BatchingPolicy), whose variants carry exactly
/// their own parameters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum RoutingPolicy {
    /// Cycle through live replicas in index order — the identity policy
    /// (with one replica it degenerates to "always replica 0").
    #[default]
    RoundRobin,
    /// Send each request to the live replica with the fewest
    /// requests outstanding on the router's estimate, ties to the lowest
    /// index.
    LeastOutstanding,
    /// Send each request to the live replica with the lowest
    /// exponentially-weighted moving average of estimated latency, ties to
    /// the lowest index.
    LatencyAware {
        /// The EWMA smoothing factor (the weight of the newest sample).
        alpha: f64,
    },
}

impl RoutingPolicy {
    /// Round-robin over live replicas — the identity policy.
    pub fn round_robin() -> RoutingPolicy {
        RoutingPolicy::RoundRobin
    }

    /// Route to the live replica with the fewest outstanding requests on
    /// the router's estimate.
    pub fn least_outstanding() -> RoutingPolicy {
        RoutingPolicy::LeastOutstanding
    }

    /// Route to the live replica with the lowest EWMA of estimated
    /// latency; `alpha` is the EWMA smoothing factor (the weight of the
    /// newest sample).
    ///
    /// # Panics
    /// Panics unless `alpha` is in `(0, 1]`.
    pub fn latency_aware(alpha: f64) -> RoutingPolicy {
        let policy = RoutingPolicy::LatencyAware { alpha };
        policy.validate();
        policy
    }

    /// Checks the rules the constructors enforce, for a policy that may
    /// have been built directly from its variant.
    ///
    /// # Panics
    /// Panics where the variant's constructor would.
    pub fn validate(&self) {
        if let RoutingPolicy::LatencyAware { alpha } = *self {
            assert!(
                alpha.is_finite() && alpha > 0.0 && alpha <= 1.0,
                "the EWMA smoothing factor must be in (0, 1]"
            );
        }
    }

    /// Human-readable label, e.g. `"latency_aware(0.3)"`.
    pub fn label(&self) -> String {
        match *self {
            RoutingPolicy::RoundRobin => "round_robin".to_string(),
            RoutingPolicy::LeastOutstanding => "least_outstanding".to_string(),
            RoutingPolicy::LatencyAware { alpha } => format!("latency_aware({alpha})"),
        }
    }

    /// The pure routing decision: given the router `cursor` (requests
    /// routed so far, fleet-wide) and one view per live replica (in pool
    /// order), returns the index **into `views`** of the chosen replica.
    /// Ties break to the earliest view, i.e. the lowest pool index.
    ///
    /// # Panics
    /// Panics if `views` is empty.
    pub fn route(&self, cursor: u64, views: &[ReplicaView]) -> usize {
        assert!(!views.is_empty(), "routing needs at least one live replica");
        match self {
            RoutingPolicy::RoundRobin => (cursor % views.len() as u64) as usize,
            RoutingPolicy::LeastOutstanding => argmin(views, |v| v.outstanding as f64),
            RoutingPolicy::LatencyAware { .. } => argmin(views, |v| v.ewma_latency_us),
        }
    }
}

fn argmin(views: &[ReplicaView], key: impl Fn(&ReplicaView) -> f64) -> usize {
    let mut best = 0usize;
    for (i, view) in views.iter().enumerate().skip(1) {
        if key(view) < key(&views[best]) {
            best = i;
        }
    }
    best
}

/// One autoscale decision at an interval boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AutoscaleAction {
    /// Activate one more pool replica.
    ScaleOut,
    /// Drain one live replica (it finishes routed work, gets no new
    /// traffic).
    ScaleIn,
    /// Leave the live set unchanged.
    Hold,
}

impl AutoscaleAction {
    /// Stable machine name (used in the autoscale timeline).
    pub fn name(&self) -> &'static str {
        match self {
            AutoscaleAction::ScaleOut => "scale_out",
            AutoscaleAction::ScaleIn => "scale_in",
            AutoscaleAction::Hold => "hold",
        }
    }
}

/// When and how the fleet resizes its live replica set, driven by the
/// [`crate::max_sustainable_qps`] capacity search: fleet utilization is the
/// interval's offered rate over the summed capacity of the live replicas.
/// Each variant carries exactly its own parameters.
///
/// [`AutoscalePolicy::None`] — the default — keeps every pool replica live
/// for the whole day (static provisioning) and is the identity the
/// degenerate-fleet anchor leans on.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum AutoscalePolicy {
    /// No autoscaling: the whole replica pool serves for the whole day —
    /// the identity policy (static provisioning).
    #[default]
    None,
    /// Threshold-reactive scaling on fleet utilization per interval.
    Reactive {
        /// Utilization above which one more replica is activated.
        scale_out_threshold: f64,
        /// Utilization below which one live replica is drained.
        scale_in_threshold: f64,
        /// Full intervals to wait after each action before the next.
        cooldown_intervals: u32,
        /// Fewest live replicas; the day starts with this many.
        min_replicas: u32,
        /// Most live replicas (also capped by the provisioned pool).
        max_replicas: u32,
    },
}

impl AutoscalePolicy {
    /// No autoscaling (static provisioning) — the identity policy.
    pub fn none() -> AutoscalePolicy {
        AutoscalePolicy::None
    }

    /// Threshold-reactive scaling: scale out when interval utilization
    /// exceeds `scale_out_threshold`, scale in below `scale_in_threshold`,
    /// waiting `cooldown_intervals` full intervals after each action, and
    /// keeping the live count within `[min_replicas, max_replicas]`.
    ///
    /// # Panics
    /// Panics unless `0 < scale_in_threshold < scale_out_threshold` (both
    /// finite) and `1 <= min_replicas <= max_replicas`.
    pub fn reactive(
        scale_out_threshold: f64,
        scale_in_threshold: f64,
        cooldown_intervals: u32,
        min_replicas: u32,
        max_replicas: u32,
    ) -> AutoscalePolicy {
        let policy = AutoscalePolicy::Reactive {
            scale_out_threshold,
            scale_in_threshold,
            cooldown_intervals,
            min_replicas,
            max_replicas,
        };
        policy.validate();
        policy
    }

    /// Checks the rules the constructors enforce, for a policy that may
    /// have been built directly from its variant.
    ///
    /// # Panics
    /// Panics where the variant's constructor would.
    pub fn validate(&self) {
        if let AutoscalePolicy::Reactive {
            scale_out_threshold,
            scale_in_threshold,
            min_replicas,
            max_replicas,
            ..
        } = *self
        {
            assert!(
                scale_in_threshold.is_finite()
                    && scale_out_threshold.is_finite()
                    && scale_in_threshold > 0.0
                    && scale_in_threshold < scale_out_threshold,
                "thresholds must satisfy 0 < scale_in < scale_out"
            );
            assert!(
                min_replicas >= 1 && min_replicas <= max_replicas,
                "replica bounds must satisfy 1 <= min <= max"
            );
        }
    }

    /// Human-readable label, e.g. `"reactive(0.8/0.4, cooldown 2, 1..4)"`.
    pub fn label(&self) -> String {
        match *self {
            AutoscalePolicy::None => "none".to_string(),
            AutoscalePolicy::Reactive {
                scale_out_threshold,
                scale_in_threshold,
                cooldown_intervals,
                min_replicas,
                max_replicas,
            } => format!(
                "reactive({scale_out_threshold}/{scale_in_threshold}, \
                 cooldown {cooldown_intervals}, {min_replicas}..{max_replicas})"
            ),
        }
    }

    /// The pure scaling decision at one interval boundary: `offered_qps`
    /// is the upcoming interval's mean offered rate, `live_capacity_qps`
    /// the summed [`crate::max_sustainable_qps`] capacity of the live replicas,
    /// `live`/`pool` the live and provisioned replica counts, and
    /// `cooldown_remaining` how many intervals of a previous action's
    /// cooldown are still pending.
    pub fn decide(
        &self,
        offered_qps: f64,
        live_capacity_qps: f64,
        live: u32,
        pool: u32,
        cooldown_remaining: u32,
    ) -> AutoscaleAction {
        let AutoscalePolicy::Reactive {
            scale_out_threshold,
            scale_in_threshold,
            min_replicas,
            max_replicas,
            ..
        } = *self
        else {
            return AutoscaleAction::Hold;
        };
        if cooldown_remaining > 0 {
            return AutoscaleAction::Hold;
        }
        let utilization = if live_capacity_qps > 0.0 {
            offered_qps / live_capacity_qps
        } else {
            f64::INFINITY
        };
        let ceiling = max_replicas.min(pool);
        if utilization > scale_out_threshold && live < ceiling {
            AutoscaleAction::ScaleOut
        } else if utilization < scale_in_threshold && live > min_replicas.max(1) {
            AutoscaleAction::ScaleIn
        } else {
            AutoscaleAction::Hold
        }
    }
}

/// Default autoscale interval: one simulated second.
pub const DEFAULT_AUTOSCALE_INTERVAL_US: f64 = 1_000_000.0;

/// One replica group: a [`ServingScenario`] template over its own
/// [`Experiment`] deployment, expanded into `replicas` identical replica
/// instances. The scenario carries the group's batching policy, SLA,
/// retry/admission policies and — per-replica fault domains being the
/// fleet layer's job — its [`FaultPlan`](crate::FaultPlan), applied to
/// every replica of the group (give failing replicas their own
/// single-replica group). The scenario's *own* traffic, request count and
/// seed are ignored at fleet level: arrivals come from the fleet-wide
/// trace via routing.
#[derive(Debug, Clone)]
pub struct ReplicaGroup {
    experiment: Experiment,
    scenario: ServingScenario,
    replicas: u32,
}

impl ReplicaGroup {
    /// A group of one replica serving `scenario` on `experiment`'s
    /// deployment.
    ///
    /// # Panics
    /// Panics when the scenario's fault plan names a device outside the
    /// experiment's deployment.
    pub fn new(experiment: Experiment, scenario: ServingScenario) -> ReplicaGroup {
        scenario
            .faults()
            .validate(experiment.cluster().num_devices());
        ReplicaGroup {
            experiment,
            scenario,
            replicas: 1,
        }
    }

    /// Sets how many identical replicas the group expands into.
    ///
    /// # Panics
    /// Panics if `replicas` is zero.
    pub fn with_replicas(mut self, replicas: u32) -> Self {
        assert!(replicas > 0, "a replica group needs at least one replica");
        self.replicas = replicas;
        self
    }
}

/// A fleet: a fleet-wide arrival trace routed across replica groups, with
/// optional autoscaling and a shared [`CampaignCache`]. See the module
/// docs for the architecture and the invariants the test suite anchors.
#[derive(Debug, Clone)]
pub struct Fleet {
    traffic: TrafficModel,
    requests: u32,
    seed: u64,
    routing: RoutingPolicy,
    autoscale: AutoscalePolicy,
    interval_us: f64,
    groups: Vec<ReplicaGroup>,
    cache: Option<Arc<CampaignCache>>,
}

impl Fleet {
    /// A fleet offering `requests` arrivals drawn from `traffic` with
    /// `seed`, with no replica groups yet (add at least one with
    /// [`Fleet::with_group`]), round-robin routing, no autoscaling and the
    /// default autoscale interval.
    ///
    /// # Panics
    /// Panics if `requests` is zero or the traffic model breaks its
    /// constructor's rules ([`TrafficModel::validate`]).
    pub fn new(traffic: TrafficModel, requests: u32, seed: u64) -> Fleet {
        assert!(requests > 0, "a fleet needs at least one request");
        traffic.validate();
        Fleet {
            traffic,
            requests,
            seed,
            routing: RoutingPolicy::round_robin(),
            autoscale: AutoscalePolicy::none(),
            interval_us: DEFAULT_AUTOSCALE_INTERVAL_US,
            groups: Vec::new(),
            cache: None,
        }
    }

    /// The degenerate 1-replica fleet over `scenario`: fleet traffic,
    /// request count and seed are taken from the scenario, so with the
    /// default round-robin routing and no autoscaling the fleet is
    /// bit-exact with
    /// `scenario.simulate(&experiment, ...)`.
    pub fn single(experiment: Experiment, scenario: ServingScenario) -> Fleet {
        let traffic = scenario.traffic();
        let requests = scenario.requests();
        let seed = scenario.seed();
        Fleet::new(traffic, requests, seed).with_group(ReplicaGroup::new(experiment, scenario))
    }

    /// Adds a replica group.
    pub fn with_group(mut self, group: ReplicaGroup) -> Self {
        self.groups.push(group);
        self
    }

    /// Replaces the routing policy.
    ///
    /// # Panics
    /// Panics if the policy breaks its constructor's rules
    /// ([`RoutingPolicy::validate`]).
    pub fn with_routing(mut self, routing: RoutingPolicy) -> Self {
        routing.validate();
        self.routing = routing;
        self
    }

    /// Replaces the autoscale policy.
    ///
    /// # Panics
    /// Panics if the policy breaks its constructor's rules
    /// ([`AutoscalePolicy::validate`]).
    pub fn with_autoscale(mut self, autoscale: AutoscalePolicy) -> Self {
        autoscale.validate();
        self.autoscale = autoscale;
        self
    }

    /// Sets the autoscale decision interval in microseconds.
    ///
    /// # Panics
    /// Panics unless the interval is finite and positive.
    pub fn with_interval_us(mut self, interval_us: f64) -> Self {
        assert!(
            interval_us.is_finite() && interval_us > 0.0,
            "the autoscale interval must be finite and positive"
        );
        self.interval_us = interval_us;
        self
    }

    /// Attaches a shared [`CampaignCache`]: every replica's pricing (and
    /// the capacity probes) key through it, so N identical replicas price
    /// each distinct batch shape exactly once.
    pub fn with_cache(mut self, cache: Arc<CampaignCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The fleet-wide traffic model.
    pub fn traffic(&self) -> TrafficModel {
        self.traffic
    }

    /// Number of requests in the fleet-wide arrival trace.
    pub fn requests(&self) -> u32 {
        self.requests
    }

    /// The arrival-trace seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Routes the fleet-wide arrival trace across replicas, applies the
    /// autoscale policy per interval, runs every replica's sub-trace
    /// through the [`ServingScenario`] dispatch loop, and aggregates the
    /// [`FleetReport`].
    ///
    /// Deterministic and thread-count-invariant: the router and autoscaler
    /// are pure functions, each replica simulation is the unchanged
    /// single-threaded serving loop, and pricing inherits the experiment
    /// layer's invariance.
    ///
    /// # Panics
    /// Panics if the fleet has no replica groups.
    pub fn simulate(&self, workload: &Workload, scheme: &Scheme) -> FleetReport {
        assert!(
            !self.groups.is_empty(),
            "a fleet needs at least one replica group"
        );
        let (routing, autoscale, interval_us) = (self.routing, self.autoscale, self.interval_us);

        // The replica pool the groups expand into.
        struct Replica {
            group: u32,
            arrivals: Vec<f64>,
            // Active [join, leave) windows; `f64::INFINITY` marks "still
            // live" until the fleet makespan is known.
            windows: Vec<(f64, f64)>,
            // Router-side state.
            routed: u64,
            outstanding: VecDeque<f64>,
            est_free_us: f64,
            est_service_us: f64,
            ewma_us: f64,
        }
        // One shape-price memo per group, over the group's deployment with
        // the shared cache attached: the router probe, the capacity search
        // and every replica of the group price each shape once between
        // them.
        let mut prices: Vec<ShapePrices<'_>> = self
            .groups
            .iter()
            .map(|group| {
                let experiment = match &self.cache {
                    Some(cache) => group.experiment.clone().with_cache(cache.clone()),
                    None => group.experiment.clone(),
                };
                ShapePrices::new(
                    group.scenario.pricing_experiment(&experiment),
                    workload,
                    scheme,
                )
            })
            .collect();
        let mut pool: Vec<Replica> = Vec::new();
        for (gi, group) in self.groups.iter().enumerate() {
            for _ in 0..group.replicas {
                pool.push(Replica {
                    group: gi as u32,
                    arrivals: Vec::new(),
                    windows: Vec::new(),
                    routed: 0,
                    outstanding: VecDeque::new(),
                    est_free_us: 0.0,
                    est_service_us: 0.0,
                    ewma_us: 0.0,
                });
            }
        }

        // Router-side service estimates: one single-request probe per
        // replica, priced through its group's memo. Round-robin needs
        // none.
        let needs_estimates = routing != RoutingPolicy::RoundRobin;
        if needs_estimates {
            for replica in &mut pool {
                let g = replica.group as usize;
                let shape = self.groups[g].scenario.policy().shape(1);
                let latency_us = prices[g].price(shape).latency_us;
                replica.est_service_us = latency_us;
                replica.ewma_us = latency_us;
            }
        }

        // Per-group replica capacity, driving autoscale utilization.
        let autoscaling = autoscale != AutoscalePolicy::None;
        let group_capacity: Vec<f64> = if autoscaling {
            self.groups
                .iter()
                .zip(&mut prices)
                .map(|(group, prices)| search_capacity(&group.scenario, prices).max_qps)
                .collect()
        } else {
            vec![0.0; self.groups.len()]
        };

        let arrivals = self.traffic.arrival_times_us(self.requests, self.seed);

        // The live set: pool indices, ascending. Without autoscaling the
        // whole pool serves all day; with it, the day starts at
        // min_replicas and the policy takes over at interval boundaries.
        let pool_size = pool.len() as u32;
        let (initial, cooldown_intervals) = match autoscale {
            AutoscalePolicy::None => (pool.len(), 0),
            AutoscalePolicy::Reactive {
                min_replicas,
                cooldown_intervals,
                ..
            } => (
                min_replicas.clamp(1, pool_size) as usize,
                cooldown_intervals,
            ),
        };
        let mut live: Vec<usize> = (0..initial).collect();
        for &r in &live {
            pool[r].windows.push((0.0, f64::INFINITY));
        }
        let mut events: Vec<AutoscaleEvent> = Vec::new();
        let mut cursor = 0u64;
        let mut views: Vec<ReplicaView> = Vec::with_capacity(pool.len());

        // Walk arrivals in order; at each interval boundary (autoscaling
        // only) decide on the upcoming interval's offered rate before
        // routing its arrivals.
        let mut next_boundary = if autoscaling {
            interval_us
        } else {
            f64::INFINITY
        };
        let mut i = 0usize;
        while i < arrivals.len() {
            let t = arrivals[i];
            if autoscaling && t >= next_boundary {
                // Entering a new interval: count its offered arrivals.
                let boundary =
                    next_boundary + interval_us * ((t - next_boundary) / interval_us).floor();
                let window_end = boundary + interval_us;
                let count = arrivals[i..]
                    .iter()
                    .take_while(|&&a| a < window_end)
                    .count();
                let offered_qps = count as f64 * 1e6 / interval_us;
                let interval = (boundary / interval_us).round() as u32;
                // Remaining cooldown = the policy's cooldown minus full
                // intervals elapsed since the last action.
                let cooldown = match events.last() {
                    Some(last) => {
                        cooldown_intervals.saturating_sub(interval.saturating_sub(last.interval))
                    }
                    None => 0,
                };
                let live_capacity: f64 = live
                    .iter()
                    .map(|&r| group_capacity[pool[r].group as usize])
                    .sum();
                let action = autoscale.decide(
                    offered_qps,
                    live_capacity,
                    live.len() as u32,
                    pool_size,
                    cooldown,
                );
                match action {
                    AutoscaleAction::ScaleOut => {
                        // Activate the lowest-index replica not currently
                        // live (a previously drained replica may rejoin).
                        let joiner = (0..pool.len())
                            .find(|r| !live.contains(r))
                            .expect("decide() only scales out below the pool size");
                        live.push(joiner);
                        live.sort_unstable();
                        pool[joiner].windows.push((boundary, f64::INFINITY));
                    }
                    AutoscaleAction::ScaleIn => {
                        // Drain the highest-index live replica: it stops
                        // receiving traffic but finishes every routed
                        // request (the drain contract — zero loss).
                        let leaver = live.pop().expect("decide() only scales in above one");
                        let window = pool[leaver]
                            .windows
                            .last_mut()
                            .expect("a live replica has an open window");
                        window.1 = boundary;
                    }
                    AutoscaleAction::Hold => {}
                }
                if action != AutoscaleAction::Hold {
                    events.push(AutoscaleEvent {
                        interval,
                        at_us: boundary,
                        action: action.name().to_string(),
                        live_replicas: live.len() as u32,
                        offered_qps,
                        utilization: if live_capacity > 0.0 {
                            offered_qps / live_capacity
                        } else {
                            f64::INFINITY
                        },
                    });
                }
                next_boundary = window_end;
            }

            // Retire estimated completions, then route.
            if needs_estimates {
                for &r in &live {
                    while pool[r].outstanding.front().is_some_and(|&done| done <= t) {
                        pool[r].outstanding.pop_front();
                    }
                }
            }
            views.clear();
            views.extend(live.iter().map(|&r| ReplicaView {
                replica: r as u32,
                routed: pool[r].routed,
                outstanding: pool[r].outstanding.len() as u32,
                ewma_latency_us: pool[r].ewma_us,
            }));
            let choice = live[routing.route(cursor, &views)];
            let replica = &mut pool[choice];
            replica.arrivals.push(t);
            replica.routed += 1;
            cursor += 1;
            if needs_estimates {
                let start = if replica.est_free_us > t {
                    replica.est_free_us
                } else {
                    t
                };
                let done = start + replica.est_service_us;
                replica.est_free_us = done;
                replica.outstanding.push_back(done);
                if let RoutingPolicy::LatencyAware { alpha } = routing {
                    replica.ewma_us = alpha * (done - t) + (1.0 - alpha) * replica.ewma_us;
                }
            }
            i += 1;
        }

        // Simulate every replica that was ever live on its routed
        // sub-trace (an idle-but-live replica runs an empty trace and
        // still bills device time; a never-activated one costs nothing and
        // is excluded).
        let mut replicas: Vec<FleetReplicaReport> = Vec::new();
        let mut all_latencies: Vec<f64> = Vec::new();
        let mut served = 0u32;
        let mut shed = 0u32;
        let mut failed = 0u32;
        let mut routed_total = 0u64;
        let mut within_sla = 0u64;
        let mut makespan_us = 0.0f64;
        for (r, replica) in pool.iter().enumerate() {
            if replica.windows.is_empty() {
                debug_assert!(replica.arrivals.is_empty());
                continue;
            }
            let group = &self.groups[replica.group as usize];
            let scenario = &group.scenario;
            let (report, latencies) =
                scenario.simulate_trace(&mut prices[replica.group as usize], &replica.arrivals);
            served += report.served_requests;
            shed += report.shed_requests;
            failed += report.failed_requests;
            routed_total += report.requests as u64;
            within_sla += latencies.partition_point(|&l| l <= scenario.sla_us()) as u64;
            if report.makespan_us > makespan_us {
                makespan_us = report.makespan_us;
            }
            all_latencies.extend_from_slice(&latencies);
            replicas.push(FleetReplicaReport {
                replica: r as u32,
                group: replica.group,
                device: group.experiment.gpu().name.clone(),
                devices: group.experiment.cluster().num_devices() as u32,
                routed_requests: report.requests,
                active_from_us: replica.windows[0].0,
                active_until_us: 0.0, // patched below once the makespan is known
                report,
            });
        }
        debug_assert_eq!(routed_total, self.requests as u64);
        debug_assert_eq!(served + shed + failed, self.requests);

        // Cost: each replica bills its devices over its live windows, a
        // still-open window closing at the fleet makespan, and a drained
        // replica whose routed work overran its drain point billing until
        // its own last completion (the drain contract is not free).
        let mut device_us = 0.0f64;
        for entry in &mut replicas {
            let replica = &pool[entry.replica as usize];
            let mut active_until = entry.active_from_us;
            let mut active_us = 0.0f64;
            let last = replica.windows.len() - 1;
            for (w, &(join, leave)) in replica.windows.iter().enumerate() {
                let mut leave = if leave.is_finite() {
                    leave
                } else {
                    makespan_us
                };
                if w == last && entry.report.makespan_us > leave {
                    leave = entry.report.makespan_us;
                }
                active_us += leave - join;
                active_until = leave;
            }
            entry.active_until_us = active_until;
            device_us += entry.devices as f64 * active_us;
        }

        let all_latencies = sort_latencies(all_latencies);
        let served_f = served as f64;
        let offered_f = self.requests as f64;
        FleetReport {
            workload: workload.dataset_label(),
            scheme: scheme.paper_label(),
            traffic: self.traffic.name().to_string(),
            offered_qps: self.traffic.offered_qps(),
            requests: self.requests,
            seed: self.seed,
            routing: routing.label(),
            autoscale: autoscale.label(),
            served_requests: served,
            shed_requests: shed,
            failed_requests: failed,
            availability: served_f / offered_f,
            achieved_qps: if makespan_us > 0.0 {
                served_f / makespan_us * 1e6
            } else {
                0.0
            },
            goodput_qps: if makespan_us > 0.0 {
                within_sla as f64 / makespan_us * 1e6
            } else {
                0.0
            },
            sla_attainment: within_sla as f64 / offered_f,
            latency: if all_latencies.is_empty() {
                LatencyStats::zeroed()
            } else {
                LatencyStats::from_sorted(&all_latencies)
            },
            makespan_us,
            cost: FleetCost {
                device_us,
                device_hours: device_us / 3.6e9,
            },
            autoscale_events: events,
            replicas,
        }
    }
}

/// One replica's share of a fleet day.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReplicaReport {
    /// Pool index of the replica (stable across scale events).
    pub replica: u32,
    /// Index of the [`ReplicaGroup`] the replica was expanded from.
    pub group: u32,
    /// Root device name of the replica's deployment.
    pub device: String,
    /// Devices in the replica's cluster.
    pub devices: u32,
    /// Requests the router assigned to this replica.
    pub routed_requests: u32,
    /// When the replica first joined the live set, in microseconds.
    pub active_from_us: f64,
    /// When the replica's billing window closed: the fleet makespan for a
    /// still-live replica, or the later of its drain point and its own
    /// last completion for a drained one.
    pub active_until_us: f64,
    /// The replica's full serving report over its routed sub-trace.
    pub report: ServingReport,
}

impl FleetReplicaReport {
    fn write_fields(&self, w: &mut ObjectWriter<'_>) {
        let FleetReplicaReport {
            replica,
            group,
            device,
            devices,
            routed_requests,
            active_from_us,
            active_until_us,
            report,
        } = self;
        w.set("active_from_us", *active_from_us);
        w.set("active_until_us", *active_until_us);
        w.set("device", device.as_str());
        w.set("devices", *devices);
        w.set("group", *group);
        w.set("replica", *replica);
        w.set("report", object(|o| report.write_fields(o)));
        w.set("routed_requests", *routed_requests);
    }
}

/// One autoscale action on the fleet timeline (holds are not recorded).
#[derive(Debug, Clone, PartialEq)]
pub struct AutoscaleEvent {
    /// Interval index (interval 0 starts at time zero).
    pub interval: u32,
    /// When the action took effect, in microseconds.
    pub at_us: f64,
    /// [`AutoscaleAction::name`] of the action (`"scale_out"` /
    /// `"scale_in"`).
    pub action: String,
    /// Live replicas after the action.
    pub live_replicas: u32,
    /// The upcoming interval's mean offered rate, in requests per second.
    pub offered_qps: f64,
    /// Offered rate over live capacity at decision time.
    pub utilization: f64,
}

impl AutoscaleEvent {
    fn write_fields(&self, w: &mut ObjectWriter<'_>) {
        let AutoscaleEvent {
            interval,
            at_us,
            action,
            live_replicas,
            offered_qps,
            utilization,
        } = self;
        w.set("action", action.as_str());
        w.set("at_us", *at_us);
        w.set("interval", *interval);
        w.set("live_replicas", *live_replicas);
        w.set("offered_qps", *offered_qps);
        w.set("utilization", *utilization);
    }
}

/// The fleet's device-time bill.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetCost {
    /// Summed device-microseconds across replicas' live windows.
    pub device_us: f64,
    /// `device_us` in device-hours — the cost axis of the cost/SLA Pareto
    /// frontier.
    pub device_hours: f64,
}

impl FleetCost {
    fn write_fields(&self, w: &mut ObjectWriter<'_>) {
        let FleetCost {
            device_us,
            device_hours,
        } = *self;
        w.set("device_hours", device_hours);
        w.set("device_us", device_us);
    }
}

/// The result of one [`Fleet::simulate`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Dataset label of the served workload.
    pub workload: String,
    /// Paper-style scheme label.
    pub scheme: String,
    /// Traffic-model name of the fleet-wide trace.
    pub traffic: String,
    /// Mean offered load in requests per second.
    pub offered_qps: f64,
    /// Requests the fleet-wide trace offered.
    pub requests: u32,
    /// Arrival-trace seed.
    pub seed: u64,
    /// [`RoutingPolicy::label`] of the routing policy.
    pub routing: String,
    /// [`AutoscalePolicy::label`] of the autoscale policy.
    pub autoscale: String,
    /// Requests that completed, summed over replicas.
    pub served_requests: u32,
    /// Requests shed by replicas' admission policies.
    pub shed_requests: u32,
    /// Requests lost to crashes and not recovered.
    pub failed_requests: u32,
    /// `served_requests / requests`, in `[0, 1]`.
    pub availability: f64,
    /// Requests per second completed over the fleet makespan.
    pub achieved_qps: f64,
    /// Requests per second completed *within* their replica's SLA over the
    /// fleet makespan.
    pub goodput_qps: f64,
    /// Fraction of **offered** requests served within their replica's SLA,
    /// in `[0, 1]` — the attainment axis of the cost/SLA Pareto frontier.
    pub sla_attainment: f64,
    /// Exact fleet-wide per-request latency distribution (merged over all
    /// replicas' served requests).
    pub latency: LatencyStats,
    /// Completion time of the last batch on any replica, in microseconds
    /// from the first arrival.
    pub makespan_us: f64,
    /// The device-time bill.
    pub cost: FleetCost,
    /// Scale-out/in actions in timeline order.
    pub autoscale_events: Vec<AutoscaleEvent>,
    /// Per-replica reports, in pool order (only replicas that were live at
    /// some point appear).
    pub replicas: Vec<FleetReplicaReport>,
}

impl FleetReport {
    /// Serializes the report to compact JSON.
    pub fn to_json(&self) -> String {
        render_object(|w| self.write_fields(w))
    }

    fn write_fields(&self, w: &mut ObjectWriter<'_>) {
        let FleetReport {
            workload,
            scheme,
            traffic,
            offered_qps,
            requests,
            seed,
            routing,
            autoscale,
            served_requests,
            shed_requests,
            failed_requests,
            availability,
            achieved_qps,
            goodput_qps,
            sla_attainment,
            latency,
            makespan_us,
            cost,
            autoscale_events,
            replicas,
        } = self;
        w.set("achieved_qps", *achieved_qps);
        w.set("autoscale", autoscale.as_str());
        w.set(
            "autoscale_events",
            array(|a| a.push_objects(autoscale_events, AutoscaleEvent::write_fields)),
        );
        w.set("availability", *availability);
        w.set("cost", object(|o| cost.write_fields(o)));
        w.set("failed_requests", *failed_requests);
        w.set("goodput_qps", *goodput_qps);
        w.set("latency", object(|o| latency.write_fields(o)));
        w.set("makespan_us", *makespan_us);
        w.set("offered_qps", *offered_qps);
        w.set(
            "replicas",
            array(|a| a.push_objects(replicas, FleetReplicaReport::write_fields)),
        );
        w.set("requests", *requests);
        w.set("routing", routing.as_str());
        w.set("schema", FLEET_REPORT_SCHEMA);
        w.set("scheme", scheme.as_str());
        w.set("seed", *seed);
        w.set("served_requests", *served_requests);
        w.set("shed_requests", *shed_requests);
        w.set("sla_attainment", *sla_attainment);
        w.set("traffic", traffic.as_str());
        w.set("workload", workload.as_str());
    }
}

impl std::fmt::Display for FleetReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} under {} across {} replica(s) via {}: p99 {:.1} us, {:.1}% SLA attainment, {:.4} device-hours",
            self.workload,
            self.scheme,
            self.replicas.len(),
            self.routing,
            self.latency.p99_us,
            self.sla_attainment * 100.0,
            self.cost.device_hours
        )
    }
}

/// Indices of the Pareto-optimal `(device_hours, sla_attainment)` points:
/// a point survives unless some other point costs no more AND attains no
/// less, with at least one strict improvement. Returned ascending by cost
/// (then by attainment, then by index, for determinism).
pub fn pareto_frontier(points: &[(f64, f64)]) -> Vec<usize> {
    let mut frontier: Vec<usize> = (0..points.len())
        .filter(|&i| {
            let (cost_i, sla_i) = points[i];
            !points.iter().enumerate().any(|(j, &(cost_j, sla_j))| {
                let dominates =
                    cost_j <= cost_i && sla_j >= sla_i && (cost_j < cost_i || sla_j > sla_i);
                // Of exact duplicates, only the first survives.
                let duplicate = cost_j == cost_i && sla_j == sla_i && j < i;
                dominates || duplicate
            })
        })
        .collect();
    frontier.sort_by(|&a, &b| {
        points[a]
            .0
            .partial_cmp(&points[b].0)
            .expect("costs are finite")
            .then(
                points[a]
                    .1
                    .partial_cmp(&points[b].1)
                    .expect("attainments are finite"),
            )
            .then(a.cmp(&b))
    });
    frontier
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::serving::BatchingPolicy;
    use dlrm::WorkloadScale;
    use gpu_sim::GpuConfig;

    fn test_workload() -> Workload {
        Workload::stage(dlrm_datasets::AccessPattern::MedHot)
    }

    fn test_fleet(replicas: u32) -> Fleet {
        let experiment = Experiment::new(GpuConfig::test_small(), WorkloadScale::Test);
        let scenario = ServingScenario::new(
            TrafficModel::poisson(5_000.0),
            BatchingPolicy::fixed_size(64),
        )
        .with_requests(256);
        Fleet::single(experiment, scenario.clone()).with_group(
            ReplicaGroup::new(
                Experiment::new(GpuConfig::test_small(), WorkloadScale::Test),
                scenario,
            )
            .with_replicas(replicas),
        )
    }

    #[test]
    fn round_robin_cycles_and_ties_break_low() {
        let views: Vec<ReplicaView> = (0..3)
            .map(|r| ReplicaView {
                replica: r,
                routed: 0,
                outstanding: 0,
                ewma_latency_us: 0.0,
            })
            .collect();
        let rr = RoutingPolicy::round_robin();
        let picks: Vec<usize> = (0..6).map(|c| rr.route(c, &views)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn least_outstanding_picks_the_emptiest_replica() {
        let mut views: Vec<ReplicaView> = (0..3)
            .map(|r| ReplicaView {
                replica: r,
                routed: 0,
                outstanding: 5,
                ewma_latency_us: 0.0,
            })
            .collect();
        views[1].outstanding = 2;
        assert_eq!(RoutingPolicy::least_outstanding().route(0, &views), 1);
        // Ties break to the earliest view.
        views[2].outstanding = 2;
        assert_eq!(RoutingPolicy::least_outstanding().route(0, &views), 1);
    }

    #[test]
    fn latency_aware_picks_the_fastest_estimate() {
        let mut views: Vec<ReplicaView> = (0..3)
            .map(|r| ReplicaView {
                replica: r,
                routed: 0,
                outstanding: 0,
                ewma_latency_us: 900.0,
            })
            .collect();
        views[2].ewma_latency_us = 450.0;
        assert_eq!(RoutingPolicy::latency_aware(0.3).route(7, &views), 2);
    }

    #[test]
    fn policy_labels_are_stable() {
        assert_eq!(RoutingPolicy::round_robin().label(), "round_robin");
        assert_eq!(
            RoutingPolicy::least_outstanding().label(),
            "least_outstanding"
        );
        assert_eq!(
            RoutingPolicy::latency_aware(0.3).label(),
            "latency_aware(0.3)"
        );
        assert_eq!(AutoscalePolicy::none().label(), "none");
        assert_eq!(
            AutoscalePolicy::reactive(0.8, 0.4, 2, 1, 4).label(),
            "reactive(0.8/0.4, cooldown 2, 1..4)"
        );
    }

    #[test]
    fn autoscale_decisions_respect_thresholds_bounds_and_cooldown() {
        let policy = AutoscalePolicy::reactive(0.8, 0.3, 2, 1, 4);
        // Overloaded: scale out — unless cooling down or at the ceiling.
        assert_eq!(
            policy.decide(900.0, 1000.0, 2, 4, 0),
            AutoscaleAction::ScaleOut
        );
        assert_eq!(policy.decide(900.0, 1000.0, 2, 4, 1), AutoscaleAction::Hold);
        assert_eq!(policy.decide(900.0, 1000.0, 4, 4, 0), AutoscaleAction::Hold);
        // The ceiling is also capped by the provisioned pool.
        assert_eq!(policy.decide(900.0, 1000.0, 3, 3, 0), AutoscaleAction::Hold);
        // Idle: scale in — but never below the floor.
        assert_eq!(
            policy.decide(100.0, 1000.0, 2, 4, 0),
            AutoscaleAction::ScaleIn
        );
        assert_eq!(policy.decide(100.0, 1000.0, 1, 4, 0), AutoscaleAction::Hold);
        // In-band utilization holds.
        assert_eq!(policy.decide(500.0, 1000.0, 2, 4, 0), AutoscaleAction::Hold);
        // The identity policy never acts.
        assert_eq!(
            AutoscalePolicy::none().decide(1e9, 1.0, 1, 4, 0),
            AutoscaleAction::Hold
        );
    }

    #[test]
    fn later_groups_differing_from_group_zero_change_the_fleet_day() {
        let scenario = ServingScenario::new(
            TrafficModel::poisson(5_000.0),
            BatchingPolicy::fixed_size(64),
        )
        .with_requests(64);
        let experiment = Experiment::new(GpuConfig::test_small(), WorkloadScale::Test);
        let fleet_with_seed = |seed: u64| {
            Fleet::single(experiment.clone(), scenario.clone()).with_group(ReplicaGroup::new(
                experiment.clone().with_seed(seed),
                scenario.clone(),
            ))
        };
        let (workload, scheme) = (test_workload(), Scheme::base());
        // The second group's seed changes the fleet day.
        assert_ne!(
            fleet_with_seed(1).simulate(&workload, &scheme),
            fleet_with_seed(2).simulate(&workload, &scheme)
        );
    }

    #[test]
    fn request_conservation_across_replicas() {
        let fleet = test_fleet(2);
        let report = fleet.simulate(&test_workload(), &Scheme::base());
        let offered: u32 = report.replicas.iter().map(|r| r.routed_requests).sum();
        assert_eq!(offered, fleet.requests());
        assert_eq!(
            report.served_requests + report.shed_requests + report.failed_requests,
            fleet.requests()
        );
        assert_eq!(report.replicas.len(), 3);
    }

    #[test]
    fn fleet_reports_are_deterministic() {
        let fleet = test_fleet(2).with_routing(RoutingPolicy::least_outstanding());
        let workload = test_workload();
        let scheme = Scheme::combined();
        let a = fleet.simulate(&workload, &scheme);
        let b = fleet.simulate(&workload, &scheme);
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn fleet_report_json_is_canonical() {
        let report = test_fleet(2).simulate(&test_workload(), &Scheme::base());
        let text = report.to_json();
        let doc = Json::parse(&text).unwrap();
        assert_eq!(doc.render(), text, "keys must stream in ascending order");
        let replicas = doc.get("replicas").and_then(Json::as_array).unwrap();
        assert_eq!(replicas.len(), report.replicas.len());
        assert!(replicas.iter().all(|r| r.get("report").is_some()));
    }

    #[test]
    fn pareto_frontier_drops_dominated_points() {
        // (cost, attainment): point 1 dominates point 2 (cheaper, better);
        // 0 and 3 trade off; 4 duplicates 1 and is dropped.
        let points = [
            (1.0, 0.50),
            (2.0, 0.90),
            (3.0, 0.80),
            (4.0, 0.99),
            (2.0, 0.90),
        ];
        assert_eq!(pareto_frontier(&points), vec![0, 1, 3]);
        assert!(pareto_frontier(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "the EWMA smoothing factor must be in (0, 1]")]
    fn a_direct_invalid_routing_policy_panics_at_the_builder() {
        let _ = test_fleet(2).with_routing(RoutingPolicy::LatencyAware { alpha: 0.0 });
    }

    #[test]
    #[should_panic(expected = "replica bounds must satisfy 1 <= min <= max")]
    fn a_direct_invalid_autoscale_policy_panics_at_the_builder() {
        let _ = test_fleet(2).with_autoscale(AutoscalePolicy::Reactive {
            scale_out_threshold: 0.8,
            scale_in_threshold: 0.4,
            cooldown_intervals: 1,
            min_replicas: 3,
            max_replicas: 2,
        });
    }
}

//! Deterministic fault injection: [`FaultPlan`] and [`FaultEvent`].
//!
//! A fault plan is a *seedless, fully explicit* event timeline — pure data,
//! written into cache keys in a canonical order — that a
//! [`crate::ServingScenario`]
//! replays against the serving simulation ([`ServingScenario::with_faults`]).
//! Because every event carries absolute simulated times, a faulted scenario
//! is exactly as deterministic and thread-count-invariant as a healthy one:
//! the same plan produces the bit-identical [`crate::ServingReport`] on
//! every run.
//!
//! # Event timeline semantics
//!
//! Each [`FaultEvent`] is a half-open window `[start_us, end_us)` on the
//! simulation clock (microseconds from the first arrival), scoped to one
//! device of the deployment (or to the interconnect fabric):
//!
//! * **Crash** — the device is down for the window. Batches *in flight*
//!   when the window opens are **lost** at `start_us` (their partial work
//!   is accounted, their requests fail unless a
//!   [`crate::RetryPolicy`] re-dispatches them), and no new batch may start
//!   inside the window; dispatch resumes at `end_us` (the recovery time).
//! * **Drain** — the device stops accepting new batches for the window but
//!   **finishes in-flight work**: nothing is lost, dispatch is merely
//!   deferred to `end_us`. A drain therefore never fails a request.
//! * **Straggler** — batches *starting* inside the window run `factor`
//!   times their nominal service latency (overlapping straggler windows
//!   multiply).
//! * **InterconnectDegradation** — batches starting inside the window pay
//!   `(factor - 1)` extra copies of their priced all-to-all time (the
//!   cross-device gather of a sharded workload); unsharded deployments,
//!   whose all-to-all is zero, are unaffected.
//!
//! # Fault domain
//!
//! The *deployment* is the fault domain. A priced batch spans every device
//! of the cluster (a sharded batch needs all shards; an unsharded one has a
//! single device), so a crash or drain on **any** device blocks dispatch
//! deployment-wide and a crash loses **all** in-flight batches — the
//! event's device index identifies the culprit in the report's timeline,
//! not a sub-domain that could keep serving. Modelling independent
//! per-replica fault domains is the fleet layer's job (ROADMAP item 2).
//!
//! # Degenerate-equivalence invariant
//!
//! An **empty** plan is the identity: every timeline query returns its
//! input unchanged (the same `f64` bits — no arithmetic is applied), so a
//! scenario with `FaultPlan::empty()` is bit-exact with the pre-fault
//! serving path, and the empty plan is omitted from the cache-cell
//! fingerprint entirely (the v1 key stays byte-identical).
//! `tests/resilience_equivalence.rs` holds that line in release-mode CI.

use std::cmp::Ordering;

use crate::json::{ArrayWriter, ObjectWriter};

/// What a [`FaultEvent`] does to the deployment during its window. See the
/// [serving module docs](super) for the full timeline semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// Device down: in-flight batches lost at `start_us`, dispatch blocked
    /// until `end_us` (the recovery time).
    Crash,
    /// Device draining: in-flight batches finish, new dispatch blocked
    /// until `end_us`. Loses nothing.
    Drain,
    /// Batches starting in the window run `factor` times slower.
    Straggler,
    /// Batches starting in the window pay `(factor - 1)` extra copies of
    /// their all-to-all time.
    InterconnectDegradation,
}

impl FaultKind {
    /// Stable lowercase name (the fingerprint encoding and event labels).
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Crash => "crash",
            FaultKind::Drain => "drain",
            FaultKind::Straggler => "straggler",
            FaultKind::InterconnectDegradation => "interconnect_degradation",
        }
    }
}

/// One deterministic fault: a kind, a device, a half-open time window and
/// (for the slowdown kinds) a factor. Construct via [`FaultEvent::crash`],
/// [`FaultEvent::drain`], [`FaultEvent::straggler`] or
/// [`FaultEvent::interconnect_degradation`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    device: u32,
    kind: FaultKind,
    start_us: f64,
    end_us: f64,
    factor: f64,
}

impl FaultEvent {
    /// Returns the event after checking what its constructor's caller
    /// chose: a finite window with `0 <= start < end` and a finite factor
    /// `>= 1` (crashes and drains always carry 1).
    ///
    /// # Panics
    /// Panics when either check fails.
    fn checked(self) -> FaultEvent {
        let (start_us, end_us, factor) = (self.start_us, self.end_us, self.factor);
        assert!(
            start_us.is_finite() && end_us.is_finite() && start_us >= 0.0 && end_us > start_us,
            "a fault window needs finite times with 0 <= start < end (got {start_us}..{end_us})"
        );
        assert!(
            factor.is_finite() && factor >= 1.0,
            "the {} factor must be finite and >= 1 (got {factor})",
            self.kind.name()
        );
        self
    }

    /// A device crash at `at_us` recovering at `recovery_us`: in-flight
    /// batches are lost at `at_us`, dispatch resumes at `recovery_us`.
    ///
    /// # Panics
    /// Panics unless `0 <= at_us < recovery_us` and both are finite.
    pub fn crash(device: u32, at_us: f64, recovery_us: f64) -> FaultEvent {
        FaultEvent {
            device,
            kind: FaultKind::Crash,
            start_us: at_us,
            end_us: recovery_us,
            factor: 1.0,
        }
        .checked()
    }

    /// A drain window on `device`: in-flight work finishes, new dispatch is
    /// deferred to `end_us`.
    ///
    /// # Panics
    /// Panics unless `0 <= start_us < end_us` and both are finite.
    pub fn drain(device: u32, start_us: f64, end_us: f64) -> FaultEvent {
        FaultEvent {
            device,
            kind: FaultKind::Drain,
            start_us,
            end_us,
            factor: 1.0,
        }
        .checked()
    }

    /// A straggling device: batches starting in the window run `factor`
    /// times their nominal service latency.
    ///
    /// # Panics
    /// Panics unless the window is valid and `factor` is finite and `>= 1`.
    pub fn straggler(device: u32, start_us: f64, end_us: f64, factor: f64) -> FaultEvent {
        FaultEvent {
            device,
            kind: FaultKind::Straggler,
            start_us,
            end_us,
            factor,
        }
        .checked()
    }

    /// Interconnect degradation: batches starting in the window pay
    /// `(multiplier - 1)` extra copies of their priced all-to-all time.
    /// The event is attributed to the fabric (device index 0 by
    /// convention); unsharded deployments are unaffected.
    ///
    /// # Panics
    /// Panics unless the window is valid and `multiplier` is finite and
    /// `>= 1`.
    pub fn interconnect_degradation(start_us: f64, end_us: f64, multiplier: f64) -> FaultEvent {
        FaultEvent {
            device: 0,
            kind: FaultKind::InterconnectDegradation,
            start_us,
            end_us,
            factor: multiplier,
        }
        .checked()
    }

    /// The device the event is scoped to (the fabric convention index 0
    /// for [`FaultKind::InterconnectDegradation`]).
    pub fn device(&self) -> u32 {
        self.device
    }

    /// The event kind.
    pub fn kind(&self) -> FaultKind {
        self.kind
    }

    /// When the window opens, in microseconds from the first arrival.
    pub fn start_us(&self) -> f64 {
        self.start_us
    }

    /// When the window closes (exclusive): the recovery / drain-complete /
    /// back-to-nominal time.
    pub fn end_us(&self) -> f64 {
        self.end_us
    }

    /// The slowdown factor (`1.0` for crash and drain events).
    pub fn factor(&self) -> f64 {
        self.factor
    }

    /// Human-readable label, e.g. `"crash(dev0, 1000us..2000us)"`.
    pub fn label(&self) -> String {
        match self.kind {
            FaultKind::Crash | FaultKind::Drain => format!(
                "{}(dev{}, {}us..{}us)",
                self.kind.name(),
                self.device,
                self.start_us,
                self.end_us
            ),
            FaultKind::Straggler => format!(
                "straggler(dev{}, {}us..{}us, {}x)",
                self.device, self.start_us, self.end_us, self.factor
            ),
            FaultKind::InterconnectDegradation => format!(
                "interconnect_degradation({}us..{}us, {}x)",
                self.start_us, self.end_us, self.factor
            ),
        }
    }

    /// Writes the event's entry in a cell key's `faults` array.
    fn write_fields(&self, w: &mut ObjectWriter<'_>) {
        let FaultEvent {
            device,
            kind,
            start_us,
            end_us,
            factor,
        } = *self;
        w.set("device", device);
        w.set("end_us", end_us);
        w.set("factor", factor);
        w.set("kind", kind.name());
        w.set("start_us", start_us);
    }
}

/// Canonical event order: by start time, then device, then kind, then end
/// time, then factor — so the same event *set* always encodes (and
/// fingerprints) identically whatever order it was built in.
fn canonical_order(a: &FaultEvent, b: &FaultEvent) -> Ordering {
    a.start_us
        .partial_cmp(&b.start_us)
        .expect("fault times are finite")
        .then(a.device.cmp(&b.device))
        .then(a.kind.cmp(&b.kind))
        .then(
            a.end_us
                .partial_cmp(&b.end_us)
                .expect("fault times are finite"),
        )
        .then(
            a.factor
                .partial_cmp(&b.factor)
                .expect("fault factors are finite"),
        )
}

/// A deterministic fault timeline: a canonically-sorted list of
/// [`FaultEvent`]s. Pure data — attach it to a scenario with
/// [`crate::ServingScenario::with_faults`]. The empty plan is the identity
/// (see the [serving module docs](super)).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::empty()
    }
}

impl FaultPlan {
    /// The fault-free plan: no events, bit-exact with the pre-fault
    /// serving path.
    pub fn empty() -> FaultPlan {
        FaultPlan { events: Vec::new() }
    }

    /// A plan over the given events, canonically sorted (the same event
    /// set in any order builds the same plan).
    pub fn new(events: Vec<FaultEvent>) -> FaultPlan {
        let mut events = events;
        events.sort_by(canonical_order);
        FaultPlan { events }
    }

    /// Returns this plan with one more event (re-sorted canonically).
    pub fn with_event(self, event: FaultEvent) -> FaultPlan {
        let mut events = self.events;
        events.push(event);
        FaultPlan::new(events)
    }

    /// Whether the plan has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The events in canonical order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Asserts every device-scoped event targets a device of the
    /// deployment.
    ///
    /// # Panics
    /// Panics when an event names a device index `>= num_devices`.
    pub fn validate(&self, num_devices: usize) {
        for event in &self.events {
            assert!(
                (event.device as usize) < num_devices,
                "fault event {} targets device {} of a {}-device deployment",
                event.label(),
                event.device,
                num_devices
            );
        }
    }

    /// The earliest time `>= t_us` at which a new batch may be dispatched:
    /// `t_us` itself (unchanged bits) when no crash or drain window covers
    /// it, otherwise the fixed point past every blocking window. The
    /// deployment is the fault domain, so any device's window blocks
    /// dispatch.
    pub(crate) fn next_dispatch_us(&self, t_us: f64) -> f64 {
        let mut t = t_us;
        loop {
            let mut moved = false;
            for event in &self.events {
                if matches!(event.kind, FaultKind::Crash | FaultKind::Drain)
                    && t >= event.start_us
                    && t < event.end_us
                {
                    t = event.end_us;
                    moved = true;
                }
            }
            if !moved {
                return t;
            }
        }
    }

    /// The earliest crash opening strictly inside `(start_us, end_us)`,
    /// as `(event index, crash time)` — the moment an in-flight batch
    /// spanning that window is lost. `None` when no crash interrupts it.
    pub(crate) fn first_crash_in(&self, start_us: f64, end_us: f64) -> Option<(usize, f64)> {
        let mut hit: Option<(usize, f64)> = None;
        for (i, event) in self.events.iter().enumerate() {
            if event.kind == FaultKind::Crash
                && event.start_us > start_us
                && event.start_us < end_us
                && hit.is_none_or(|(_, t)| event.start_us < t)
            {
                hit = Some((i, event.start_us));
            }
        }
        hit
    }

    /// The product of straggler factors active at `t_us` (`1.0` when
    /// none).
    pub(crate) fn straggler_factor(&self, t_us: f64) -> f64 {
        let mut factor = 1.0;
        for event in &self.events {
            if event.kind == FaultKind::Straggler && t_us >= event.start_us && t_us < event.end_us {
                factor *= event.factor;
            }
        }
        factor
    }

    /// The product of interconnect-degradation multipliers active at
    /// `t_us` (`1.0` when none).
    pub(crate) fn degradation_multiplier(&self, t_us: f64) -> f64 {
        let mut factor = 1.0;
        for event in &self.events {
            if event.kind == FaultKind::InterconnectDegradation
                && t_us >= event.start_us
                && t_us < event.end_us
            {
                factor *= event.factor;
            }
        }
        factor
    }

    /// Writes the events in canonical order: a cell key's `faults` array.
    pub(crate) fn write_events(&self, a: &mut ArrayWriter<'_>) {
        let FaultPlan { events } = self;
        a.push_objects(events, FaultEvent::write_fields);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_populate_the_right_kinds() {
        let crash = FaultEvent::crash(1, 100.0, 200.0);
        assert_eq!(crash.kind(), FaultKind::Crash);
        assert_eq!(crash.device(), 1);
        assert_eq!((crash.start_us(), crash.end_us()), (100.0, 200.0));
        assert_eq!(crash.factor(), 1.0);
        let drain = FaultEvent::drain(0, 50.0, 80.0);
        assert_eq!(drain.kind(), FaultKind::Drain);
        let slow = FaultEvent::straggler(2, 10.0, 20.0, 4.0);
        assert_eq!((slow.kind(), slow.factor()), (FaultKind::Straggler, 4.0));
        let fabric = FaultEvent::interconnect_degradation(5.0, 6.0, 2.0);
        assert_eq!(fabric.kind(), FaultKind::InterconnectDegradation);
        assert_eq!(fabric.device(), 0);
    }

    #[test]
    #[should_panic(expected = "finite times")]
    fn inverted_windows_are_rejected() {
        let _ = FaultEvent::crash(0, 200.0, 100.0);
    }

    #[test]
    #[should_panic(expected = "finite and >= 1")]
    fn sub_unit_straggler_factors_are_rejected() {
        let _ = FaultEvent::straggler(0, 0.0, 1.0, 0.5);
    }

    #[test]
    fn plans_sort_canonically_whatever_the_build_order() {
        let a = FaultEvent::crash(0, 100.0, 200.0);
        let b = FaultEvent::drain(1, 50.0, 80.0);
        let c = FaultEvent::straggler(0, 100.0, 300.0, 2.0);
        let forward = FaultPlan::new(vec![a, b, c]);
        let backward = FaultPlan::empty().with_event(c).with_event(a).with_event(b);
        assert_eq!(forward, backward);
        assert_eq!(forward.events()[0], b, "earliest start first");
        assert_eq!(forward.len(), 3);
        assert!(!forward.is_empty());
    }

    #[test]
    fn the_empty_plan_is_the_identity_on_every_query() {
        let plan = FaultPlan::empty();
        for t in [0.0, 1.5, -0.0, 1e12] {
            assert_eq!(plan.next_dispatch_us(t).to_bits(), t.to_bits());
            assert_eq!(plan.straggler_factor(t), 1.0);
            assert_eq!(plan.degradation_multiplier(t), 1.0);
        }
        assert_eq!(plan.first_crash_in(0.0, 1e9), None);
        plan.validate(1);
    }

    #[test]
    fn blocking_windows_chain_to_a_fixed_point() {
        // Two overlapping blocking windows: dispatch lands past both.
        let plan = FaultPlan::new(vec![
            FaultEvent::crash(0, 100.0, 250.0),
            FaultEvent::drain(0, 200.0, 400.0),
        ]);
        assert_eq!(plan.next_dispatch_us(50.0), 50.0);
        assert_eq!(plan.next_dispatch_us(100.0), 400.0);
        assert_eq!(plan.next_dispatch_us(300.0), 400.0);
        assert_eq!(plan.next_dispatch_us(400.0), 400.0);
    }

    #[test]
    fn crashes_cut_spanning_windows_at_their_start() {
        let plan = FaultPlan::new(vec![
            FaultEvent::crash(0, 100.0, 150.0),
            FaultEvent::crash(0, 120.0, 160.0),
        ]);
        // The earliest crash strictly inside the window wins.
        assert_eq!(plan.first_crash_in(50.0, 130.0), Some((0, 100.0)));
        assert_eq!(plan.first_crash_in(110.0, 130.0), Some((1, 120.0)));
        // A batch starting exactly at a crash is dispatched after it, so
        // the boundary is exclusive.
        assert_eq!(plan.first_crash_in(100.0, 110.0), None);
        assert_eq!(plan.first_crash_in(160.0, 200.0), None);
    }

    #[test]
    fn factors_compose_multiplicatively() {
        let plan = FaultPlan::new(vec![
            FaultEvent::straggler(0, 0.0, 100.0, 2.0),
            FaultEvent::straggler(1, 50.0, 150.0, 3.0),
            FaultEvent::interconnect_degradation(0.0, 100.0, 4.0),
        ]);
        assert_eq!(plan.straggler_factor(25.0), 2.0);
        assert_eq!(plan.straggler_factor(75.0), 6.0);
        assert_eq!(plan.straggler_factor(125.0), 3.0);
        assert_eq!(plan.straggler_factor(150.0), 1.0);
        assert_eq!(plan.degradation_multiplier(50.0), 4.0);
        assert_eq!(plan.degradation_multiplier(100.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "targets device")]
    fn validate_rejects_out_of_range_devices() {
        FaultPlan::new(vec![FaultEvent::crash(3, 0.0, 1.0)]).validate(2);
    }

    #[test]
    fn labels_identify_the_event() {
        assert_eq!(
            FaultEvent::crash(0, 1000.0, 2000.0).label(),
            "crash(dev0, 1000us..2000us)"
        );
        assert_eq!(
            FaultEvent::straggler(1, 0.0, 10.0, 2.5).label(),
            "straggler(dev1, 0us..10us, 2.5x)"
        );
        assert_eq!(
            FaultEvent::interconnect_degradation(0.0, 10.0, 2.0).label(),
            "interconnect_degradation(0us..10us, 2x)"
        );
    }
}

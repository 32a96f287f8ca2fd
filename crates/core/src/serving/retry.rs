//! Resilience policies for the serving simulator: [`RetryPolicy`] (what
//! happens to batches lost to a crash, and when to hedge a slow one) and
//! [`AdmissionPolicy`] (which requests to shed under overload).
//!
//! Both are pure dispatch-time decision rules — they never touch the
//! priced kernel cells, so they are *not* part of the cache-cell
//! fingerprint; they shape the [`crate::ServingReport`] only. Their degenerate configurations
//! ([`RetryPolicy::none`], [`AdmissionPolicy::none`]) are exact no-ops:
//! a scenario using them is bit-identical to one that never heard of
//! resilience (held by `tests/resilience_equivalence.rs`).
//!
//! # Retry semantics
//!
//! * [`RetryPolicy::none`] — a batch lost to a crash fails permanently;
//!   its requests count as `failed_requests`.
//! * [`RetryPolicy::fixed`] — a lost batch is re-enqueued
//!   `backoff_us * attempt` after the crash, up to `max_retries` times,
//!   then fails.
//! * [`RetryPolicy::hedged`] — when a batch is lost **or** its completion
//!   runs past `hedge_factor` times its nominal service latency (a
//!   straggler), a duplicate is dispatched on the earliest-free stream;
//!   the first successful completion wins. The hedge occupies real stream
//!   capacity (no free lunch) and is itself neither hedged nor retried.
//!   With a single stream the hedge can only start after the primary
//!   finishes, so hedging needs K ≥ 2 streams to help.
//!
//! # Admission semantics
//!
//! * [`AdmissionPolicy::none`] — every request is admitted.
//! * [`AdmissionPolicy::queue_depth`] — when more than `max_queue_depth`
//!   requests are already waiting at dispatch time, the oldest excess
//!   requests are shed (head drop) before the next batch forms.
//! * [`AdmissionPolicy::sla_aware`] — requests whose *predicted* latency
//!   (dispatch wait + service) would exceed `sla_headroom` times the
//!   scenario SLA are shed at batch formation. Because the simulator is
//!   deterministic, the prediction is exact: the served percentiles never
//!   exceed the threshold.
//!
//! Shed requests are accounted as `shed_requests` (never `failed`):
//! shedding is a *choice* that trades availability for bounded latency.

/// Discriminates the [`RetryPolicy`] variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryKind {
    /// Lost batches fail permanently.
    None,
    /// Lost batches are re-enqueued with linear backoff, bounded times.
    Fixed,
    /// Lost or slow batches get a duplicate dispatch; first completion
    /// wins.
    Hedged,
}

impl RetryKind {
    /// Stable lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            RetryKind::None => "none",
            RetryKind::Fixed => "fixed",
            RetryKind::Hedged => "hedged",
        }
    }
}

/// What the serving simulator does with batches lost to a crash (and,
/// for hedging, batches running slow). See the [serving module docs](super)
/// for the exact semantics of each variant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    kind: RetryKind,
    max_retries: u32,
    backoff_us: f64,
    hedge_factor: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

impl RetryPolicy {
    /// No retries: a lost batch fails permanently. Exact no-op on a
    /// fault-free timeline.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            kind: RetryKind::None,
            max_retries: 0,
            backoff_us: 0.0,
            hedge_factor: 1.0,
        }
    }

    /// Up to `max_retries` re-dispatches of a lost batch, the n-th
    /// becoming ready `backoff_us * n` after the crash.
    ///
    /// # Panics
    /// Panics unless `max_retries >= 1` and `backoff_us` is finite and
    /// `>= 0`.
    pub fn fixed(max_retries: u32, backoff_us: f64) -> RetryPolicy {
        assert!(max_retries >= 1, "fixed retry needs max_retries >= 1");
        assert!(
            backoff_us.is_finite() && backoff_us >= 0.0,
            "retry backoff must be finite and >= 0 (got {backoff_us})"
        );
        RetryPolicy {
            kind: RetryKind::Fixed,
            max_retries,
            backoff_us,
            hedge_factor: 1.0,
        }
    }

    /// Hedge a batch once its completion runs past `hedge_factor` times
    /// its nominal service latency (or it is lost outright).
    ///
    /// # Panics
    /// Panics unless `hedge_factor` is finite and `>= 1`.
    pub fn hedged(hedge_factor: f64) -> RetryPolicy {
        assert!(
            hedge_factor.is_finite() && hedge_factor >= 1.0,
            "a hedge factor must be finite and >= 1 (got {hedge_factor})"
        );
        RetryPolicy {
            kind: RetryKind::Hedged,
            max_retries: 0,
            backoff_us: 0.0,
            hedge_factor,
        }
    }

    /// The policy variant.
    pub fn kind(&self) -> RetryKind {
        self.kind
    }

    /// Maximum re-dispatches of one batch (0 unless [`RetryKind::Fixed`]).
    pub fn max_retries(&self) -> u32 {
        self.max_retries
    }

    /// Linear backoff step between the crash and the re-dispatch.
    pub fn backoff_us(&self) -> f64 {
        self.backoff_us
    }

    /// Multiple of the nominal service latency after which a hedge
    /// launches (1.0 unless [`RetryKind::Hedged`]).
    pub fn hedge_factor(&self) -> f64 {
        self.hedge_factor
    }

    /// Whether this is the no-op policy.
    pub fn is_none(&self) -> bool {
        self.kind == RetryKind::None
    }

    /// Human-readable label, e.g. `"fixed(3, 500us)"`.
    pub fn label(&self) -> String {
        match self.kind {
            RetryKind::None => "none".to_string(),
            RetryKind::Fixed => format!("fixed({}, {}us)", self.max_retries, self.backoff_us),
            RetryKind::Hedged => format!("hedged({}x)", self.hedge_factor),
        }
    }
}

/// Discriminates the [`AdmissionPolicy`] variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionKind {
    /// Admit everything.
    None,
    /// Shed the oldest waiting requests beyond a queue-depth bound.
    QueueDepth,
    /// Shed requests whose predicted latency would bust the SLA budget.
    SlaAware,
}

impl AdmissionKind {
    /// Stable lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            AdmissionKind::None => "none",
            AdmissionKind::QueueDepth => "queue_depth",
            AdmissionKind::SlaAware => "sla_aware",
        }
    }
}

/// Which requests the serving simulator sheds under overload — the
/// graceful-degradation knob. See the [serving module docs](super).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionPolicy {
    kind: AdmissionKind,
    max_queue_depth: u32,
    sla_headroom: f64,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy::none()
    }
}

impl AdmissionPolicy {
    /// Admit every request. Exact no-op.
    pub fn none() -> AdmissionPolicy {
        AdmissionPolicy {
            kind: AdmissionKind::None,
            max_queue_depth: 0,
            sla_headroom: 1.0,
        }
    }

    /// Shed the oldest waiting requests whenever more than
    /// `max_queue_depth` have arrived but not yet been dispatched.
    ///
    /// # Panics
    /// Panics unless `max_queue_depth >= 1`.
    pub fn queue_depth(max_queue_depth: u32) -> AdmissionPolicy {
        assert!(
            max_queue_depth >= 1,
            "queue-depth admission needs max_queue_depth >= 1"
        );
        AdmissionPolicy {
            kind: AdmissionKind::QueueDepth,
            max_queue_depth,
            sla_headroom: 1.0,
        }
    }

    /// Shed requests whose predicted latency would exceed
    /// `sla_headroom` times the scenario SLA.
    ///
    /// # Panics
    /// Panics unless `sla_headroom` is finite and `> 0`.
    pub fn sla_aware(sla_headroom: f64) -> AdmissionPolicy {
        assert!(
            sla_headroom.is_finite() && sla_headroom > 0.0,
            "an SLA headroom must be finite and > 0 (got {sla_headroom})"
        );
        AdmissionPolicy {
            kind: AdmissionKind::SlaAware,
            max_queue_depth: 0,
            sla_headroom,
        }
    }

    /// The policy variant.
    pub fn kind(&self) -> AdmissionKind {
        self.kind
    }

    /// The queue-depth bound (0 unless [`AdmissionKind::QueueDepth`]).
    pub fn max_queue_depth(&self) -> u32 {
        self.max_queue_depth
    }

    /// The SLA multiple a predicted latency may reach before its request
    /// is shed (1.0 unless [`AdmissionKind::SlaAware`]).
    pub fn sla_headroom(&self) -> f64 {
        self.sla_headroom
    }

    /// Whether this is the admit-everything policy.
    pub fn is_none(&self) -> bool {
        self.kind == AdmissionKind::None
    }

    /// Human-readable label, e.g. `"queue_depth(256)"`.
    pub fn label(&self) -> String {
        match self.kind {
            AdmissionKind::None => "none".to_string(),
            AdmissionKind::QueueDepth => format!("queue_depth({})", self.max_queue_depth),
            AdmissionKind::SlaAware => format!("sla_aware({}x)", self.sla_headroom),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_constructors_and_accessors() {
        let none = RetryPolicy::none();
        assert!(none.is_none());
        assert_eq!(none.kind(), RetryKind::None);
        assert_eq!(none.label(), "none");

        let fixed = RetryPolicy::fixed(3, 500.0);
        assert!(!fixed.is_none());
        assert_eq!(fixed.kind(), RetryKind::Fixed);
        assert_eq!(fixed.max_retries(), 3);
        assert_eq!(fixed.backoff_us(), 500.0);
        assert_eq!(fixed.label(), "fixed(3, 500us)");

        let hedged = RetryPolicy::hedged(1.5);
        assert_eq!(hedged.kind(), RetryKind::Hedged);
        assert_eq!(hedged.hedge_factor(), 1.5);
        assert_eq!(hedged.label(), "hedged(1.5x)");
    }

    #[test]
    #[should_panic(expected = "max_retries >= 1")]
    fn fixed_retry_rejects_zero_retries() {
        let _ = RetryPolicy::fixed(0, 100.0);
    }

    #[test]
    #[should_panic(expected = "finite and >= 1")]
    fn hedge_factors_below_one_are_rejected() {
        let _ = RetryPolicy::hedged(0.9);
    }

    #[test]
    fn admission_constructors_and_accessors() {
        let none = AdmissionPolicy::none();
        assert!(none.is_none());
        assert_eq!(none.label(), "none");

        let depth = AdmissionPolicy::queue_depth(256);
        assert_eq!(depth.kind(), AdmissionKind::QueueDepth);
        assert_eq!(depth.max_queue_depth(), 256);
        assert_eq!(depth.label(), "queue_depth(256)");

        let sla = AdmissionPolicy::sla_aware(0.9);
        assert_eq!(sla.kind(), AdmissionKind::SlaAware);
        assert_eq!(sla.sla_headroom(), 0.9);
        assert_eq!(sla.label(), "sla_aware(0.9x)");
    }

    #[test]
    #[should_panic(expected = "max_queue_depth >= 1")]
    fn queue_depth_rejects_zero() {
        let _ = AdmissionPolicy::queue_depth(0);
    }

    #[test]
    #[should_panic(expected = "finite and > 0")]
    fn sla_headroom_rejects_zero() {
        let _ = AdmissionPolicy::sla_aware(0.0);
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(RetryKind::None.name(), "none");
        assert_eq!(RetryKind::Fixed.name(), "fixed");
        assert_eq!(RetryKind::Hedged.name(), "hedged");
        assert_eq!(AdmissionKind::None.name(), "none");
        assert_eq!(AdmissionKind::QueueDepth.name(), "queue_depth");
        assert_eq!(AdmissionKind::SlaAware.name(), "sla_aware");
    }

    #[test]
    fn defaults_are_the_no_ops() {
        assert_eq!(RetryPolicy::default(), RetryPolicy::none());
        assert_eq!(AdmissionPolicy::default(), AdmissionPolicy::none());
    }
}

//! Resilience policies for the serving simulator: [`RetryPolicy`] (what
//! happens to batches lost to a crash, and when to hedge a slow one) and
//! [`AdmissionPolicy`] (which requests to shed under overload).
//!
//! Both are written in the [`BatchingPolicy`](super::BatchingPolicy)
//! idiom: an enum whose variants carry exactly their own parameters,
//! built through validating constructors that panic on invalid values,
//! and read by matching on the variant. The constructors' rules live in
//! one `validate` per enum, which the scenario builders call too, so a
//! variant built directly is checked where a scenario takes it. The serving dispatch loop matches
//! once per decision and binds the parameters it needs.
//!
//! Both are pure dispatch-time decision rules — they never touch the
//! priced kernel cells, so they are *not* part of the cache-cell
//! fingerprint; they shape the [`crate::ServingReport`] only. Their
//! identity variants ([`RetryPolicy::None`], [`AdmissionPolicy::None`],
//! also the defaults) are exact no-ops: a scenario using them is
//! bit-identical to one that never heard of resilience (held by
//! `tests/resilience_equivalence.rs`).
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

/// What the serving simulator does with batches lost to a crash (and,
/// for hedging, batches running slow). Each variant carries exactly its
/// own parameters; build them with the validating constructors. See the
/// [serving module docs](super) for the exact semantics of each variant.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum RetryPolicy {
    /// Lost batches fail permanently.
    #[default]
    None,
    /// Lost batches are re-enqueued with linear backoff, bounded times.
    Fixed {
        /// Maximum re-dispatches of one batch.
        max_retries: u32,
        /// Linear backoff step between the crash and the re-dispatch, in
        /// microseconds.
        backoff_us: f64,
    },
    /// Lost or slow batches get a duplicate dispatch; first completion
    /// wins.
    Hedged {
        /// Multiple of the nominal service latency after which a hedge
        /// launches.
        hedge_factor: f64,
    },
}

impl RetryPolicy {
    /// No retries: a lost batch fails permanently. Exact no-op on a
    /// fault-free timeline.
    pub fn none() -> RetryPolicy {
        RetryPolicy::None
    }

    /// Up to `max_retries` re-dispatches of a lost batch, the n-th
    /// becoming ready `backoff_us * n` after the crash.
    ///
    /// # Panics
    /// Panics unless `max_retries >= 1` and `backoff_us` is finite and
    /// `>= 0`.
    pub fn fixed(max_retries: u32, backoff_us: f64) -> RetryPolicy {
        let policy = RetryPolicy::Fixed {
            max_retries,
            backoff_us,
        };
        policy.validate();
        policy
    }

    /// Hedge a batch once its completion runs past `hedge_factor` times
    /// its nominal service latency (or it is lost outright).
    ///
    /// # Panics
    /// Panics unless `hedge_factor` is finite and `>= 1`.
    pub fn hedged(hedge_factor: f64) -> RetryPolicy {
        let policy = RetryPolicy::Hedged { hedge_factor };
        policy.validate();
        policy
    }

    /// Checks the rules the constructors enforce, for a policy that may
    /// have been built directly from its variant.
    ///
    /// # Panics
    /// Panics where the variant's constructor would.
    pub fn validate(&self) {
        match *self {
            RetryPolicy::None => {}
            RetryPolicy::Fixed {
                max_retries,
                backoff_us,
            } => {
                assert!(max_retries >= 1, "fixed retry needs max_retries >= 1");
                assert!(
                    backoff_us.is_finite() && backoff_us >= 0.0,
                    "retry backoff must be finite and >= 0 (got {backoff_us})"
                );
            }
            RetryPolicy::Hedged { hedge_factor } => assert!(
                hedge_factor.is_finite() && hedge_factor >= 1.0,
                "a hedge factor must be finite and >= 1 (got {hedge_factor})"
            ),
        }
    }

    /// Human-readable label, e.g. `"fixed(3, 500us)"`.
    pub fn label(&self) -> String {
        match *self {
            RetryPolicy::None => "none".to_string(),
            RetryPolicy::Fixed {
                max_retries,
                backoff_us,
            } => format!("fixed({max_retries}, {backoff_us}us)"),
            RetryPolicy::Hedged { hedge_factor } => format!("hedged({hedge_factor}x)"),
        }
    }
}

/// Which requests the serving simulator sheds under overload — the
/// graceful-degradation knob. Each variant carries exactly its own
/// parameters; see the [serving module docs](super).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum AdmissionPolicy {
    /// Admit everything.
    #[default]
    None,
    /// Shed the oldest waiting requests beyond a queue-depth bound.
    QueueDepth {
        /// Most requests that may wait undispatched.
        max_queue_depth: u32,
    },
    /// Shed requests whose predicted latency would bust the SLA budget.
    SlaAware {
        /// The SLA multiple a predicted latency may reach before its
        /// request is shed.
        sla_headroom: f64,
    },
}

impl AdmissionPolicy {
    /// Admit every request. Exact no-op.
    pub fn none() -> AdmissionPolicy {
        AdmissionPolicy::None
    }

    /// Shed the oldest waiting requests whenever more than
    /// `max_queue_depth` have arrived but not yet been dispatched.
    ///
    /// # Panics
    /// Panics unless `max_queue_depth >= 1`.
    pub fn queue_depth(max_queue_depth: u32) -> AdmissionPolicy {
        let policy = AdmissionPolicy::QueueDepth { max_queue_depth };
        policy.validate();
        policy
    }

    /// Shed requests whose predicted latency would exceed
    /// `sla_headroom` times the scenario SLA.
    ///
    /// # Panics
    /// Panics unless `sla_headroom` is finite and `> 0`.
    pub fn sla_aware(sla_headroom: f64) -> AdmissionPolicy {
        let policy = AdmissionPolicy::SlaAware { sla_headroom };
        policy.validate();
        policy
    }

    /// Checks the rules the constructors enforce, for a policy that may
    /// have been built directly from its variant.
    ///
    /// # Panics
    /// Panics where the variant's constructor would.
    pub fn validate(&self) {
        match *self {
            AdmissionPolicy::None => {}
            AdmissionPolicy::QueueDepth { max_queue_depth } => assert!(
                max_queue_depth >= 1,
                "queue-depth admission needs max_queue_depth >= 1"
            ),
            AdmissionPolicy::SlaAware { sla_headroom } => assert!(
                sla_headroom.is_finite() && sla_headroom > 0.0,
                "an SLA headroom must be finite and > 0 (got {sla_headroom})"
            ),
        }
    }

    /// Human-readable label, e.g. `"queue_depth(256)"`.
    pub fn label(&self) -> String {
        match *self {
            AdmissionPolicy::None => "none".to_string(),
            AdmissionPolicy::QueueDepth { max_queue_depth } => {
                format!("queue_depth({max_queue_depth})")
            }
            AdmissionPolicy::SlaAware { sla_headroom } => format!("sla_aware({sla_headroom}x)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_constructors_carry_their_parameters() {
        let none = RetryPolicy::none();
        assert_eq!(none, RetryPolicy::None);
        assert_eq!(none.label(), "none");

        let fixed = RetryPolicy::fixed(3, 500.0);
        assert_eq!(
            fixed,
            RetryPolicy::Fixed {
                max_retries: 3,
                backoff_us: 500.0
            }
        );
        assert_eq!(fixed.label(), "fixed(3, 500us)");

        let hedged = RetryPolicy::hedged(1.5);
        assert_eq!(hedged, RetryPolicy::Hedged { hedge_factor: 1.5 });
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
    fn admission_constructors_carry_their_parameters() {
        let none = AdmissionPolicy::none();
        assert_eq!(none, AdmissionPolicy::None);
        assert_eq!(none.label(), "none");

        let depth = AdmissionPolicy::queue_depth(256);
        assert_eq!(
            depth,
            AdmissionPolicy::QueueDepth {
                max_queue_depth: 256
            }
        );
        assert_eq!(depth.label(), "queue_depth(256)");

        let sla = AdmissionPolicy::sla_aware(0.9);
        assert_eq!(sla, AdmissionPolicy::SlaAware { sla_headroom: 0.9 });
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
    fn defaults_are_the_no_ops() {
        assert_eq!(RetryPolicy::default(), RetryPolicy::none());
        assert_eq!(AdmissionPolicy::default(), AdmissionPolicy::none());
    }
}

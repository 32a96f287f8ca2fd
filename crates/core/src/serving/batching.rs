//! Batch-formation policies: [`BatchingPolicy`].
//!
//! The serving simulator groups arriving requests (one sample each) into
//! inference batches. **When** a batch closes is the policy's decision; the
//! simulator then prices the batch at its padded **shape** (see
//! [`BatchingPolicy::shape`]) and serves batches FIFO on the deployment's
//! one logical execution stream.
//!
//! Three policies cover the classic serving trade-offs:
//!
//! * [`FixedSize`](BatchingPolicy::FixedSize) waits for a full batch — best
//!   throughput per batch, unbounded formation delay at low load,
//! * [`Timeout`](BatchingPolicy::Timeout) caps the formation delay: a batch
//!   closes when full or when its oldest request has waited `timeout_us`,
//! * [`Adaptive`](BatchingPolicy::Adaptive) is work-conserving: a batch
//!   closes as soon as the stream is idle and at least `min_batch` requests
//!   are queued (or when `max_batch` fill up first) — small batches under
//!   light load, large batches under backlog.
//!
//! Policies are pure decision functions over the arrival trace and the
//! stream's busy horizon, so batch formation is deterministic.

/// One formed batch: a contiguous run of requests (in arrival order) plus
/// the instant the policy sealed it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FormedBatch {
    /// Number of requests in the batch.
    pub len: usize,
    /// Time the batch was sealed and became ready for service, in
    /// microseconds.
    pub close_us: f64,
}

/// How arriving requests are grouped into inference batches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BatchingPolicy {
    /// Wait until exactly `batch` requests accumulate (the trailing partial
    /// batch at the end of a trace closes with the last arrival). Every
    /// batch is priced at shape `batch`.
    FixedSize {
        /// The fixed batch size.
        batch: u32,
    },
    /// Close when `max_batch` requests accumulate or when the oldest queued
    /// request has waited `timeout_us`, whichever comes first.
    Timeout {
        /// Upper bound on requests per batch.
        max_batch: u32,
        /// Longest a request may wait for its batch to form, in
        /// microseconds.
        timeout_us: f64,
    },
    /// Close when `max_batch` requests accumulate, or as soon as the
    /// execution stream is idle and at least `min_batch` requests are
    /// queued.
    Adaptive {
        /// Smallest batch worth launching.
        min_batch: u32,
        /// Upper bound on requests per batch.
        max_batch: u32,
    },
}

impl BatchingPolicy {
    /// A fixed-size policy.
    ///
    /// # Panics
    /// Panics if `batch` is zero.
    pub fn fixed_size(batch: u32) -> Self {
        let policy = BatchingPolicy::FixedSize { batch };
        policy.validate();
        policy
    }

    /// A timeout-bounded policy.
    ///
    /// # Panics
    /// Panics if `max_batch` is zero or the timeout is not finite and
    /// non-negative.
    pub fn timeout(max_batch: u32, timeout_us: f64) -> Self {
        let policy = BatchingPolicy::Timeout {
            max_batch,
            timeout_us,
        };
        policy.validate();
        policy
    }

    /// An adaptive (work-conserving) policy.
    ///
    /// # Panics
    /// Panics unless `0 < min_batch <= max_batch`.
    pub fn adaptive(min_batch: u32, max_batch: u32) -> Self {
        let policy = BatchingPolicy::Adaptive {
            min_batch,
            max_batch,
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
        match *self {
            BatchingPolicy::FixedSize { batch } => {
                assert!(batch > 0, "the batch size must be at least one");
            }
            BatchingPolicy::Timeout {
                max_batch,
                timeout_us,
            } => {
                assert!(max_batch > 0, "the batch size must be at least one");
                assert!(
                    timeout_us.is_finite() && timeout_us >= 0.0,
                    "the timeout must be finite and non-negative"
                );
            }
            BatchingPolicy::Adaptive {
                min_batch,
                max_batch,
            } => {
                assert!(min_batch > 0, "the minimum batch must be at least one");
                assert!(
                    min_batch <= max_batch,
                    "the minimum batch must not exceed the maximum"
                );
            }
        }
    }

    /// Stable machine-readable policy name, used in serving reports.
    pub fn name(&self) -> &'static str {
        match self {
            BatchingPolicy::FixedSize { .. } => "fixed_size",
            BatchingPolicy::Timeout { .. } => "timeout",
            BatchingPolicy::Adaptive { .. } => "adaptive",
        }
    }

    /// Full human/machine-readable label including the parameters, e.g.
    /// `"fixed_size(256)"`, `"timeout(256, 500us)"`, `"adaptive(8..256)"`.
    pub fn label(&self) -> String {
        match *self {
            BatchingPolicy::FixedSize { batch } => format!("fixed_size({batch})"),
            BatchingPolicy::Timeout {
                max_batch,
                timeout_us,
            } => format!("timeout({max_batch}, {timeout_us}us)"),
            BatchingPolicy::Adaptive {
                min_batch,
                max_batch,
            } => format!("adaptive({min_batch}..{max_batch})"),
        }
    }

    /// The largest batch this policy ever forms.
    pub fn max_batch(&self) -> u32 {
        match *self {
            BatchingPolicy::FixedSize { batch } => batch,
            BatchingPolicy::Timeout { max_batch, .. }
            | BatchingPolicy::Adaptive { max_batch, .. } => max_batch,
        }
    }

    /// The **shape** a batch of `len` requests is priced at. Production
    /// servers pad batches to a small set of launch shapes (fixed kernel
    /// grids, captured CUDA graphs); mirroring that keeps the set of
    /// distinct simulated cells small, so a [`crate::CampaignCache`]
    /// collapses repeated shapes to one simulation.
    ///
    /// Fixed-size batches always launch at the configured size (partial
    /// trailing batches are padded); timeout and adaptive batches pad to
    /// the next power of two, capped at `max_batch`.
    ///
    /// # Panics
    /// Panics if `len` is zero or exceeds the policy's maximum.
    pub fn shape(&self, len: u32) -> u32 {
        assert!(
            len >= 1 && len <= self.max_batch(),
            "a batch holds between 1 and {} requests (got {len})",
            self.max_batch()
        );
        match *self {
            BatchingPolicy::FixedSize { batch } => batch,
            BatchingPolicy::Timeout { max_batch, .. }
            | BatchingPolicy::Adaptive { max_batch, .. } => len.next_power_of_two().min(max_batch),
        }
    }

    /// Forms the next batch from `arrivals[first..]` given that the
    /// execution stream is busy until `stream_free_us`. Always consumes at
    /// least one request; the batch's requests are
    /// `arrivals[first..first + len]`.
    pub(crate) fn form(&self, arrivals: &[f64], first: usize, stream_free_us: f64) -> FormedBatch {
        let remaining = arrivals.len() - first;
        debug_assert!(remaining > 0, "form() needs at least one pending request");
        match *self {
            BatchingPolicy::FixedSize { batch } => {
                // Close with the arrival that fills the batch; a trailing
                // partial batch closes with the trace's last arrival.
                let len = (batch as usize).min(remaining);
                FormedBatch {
                    len,
                    close_us: arrivals[first + len - 1],
                }
            }
            BatchingPolicy::Timeout {
                max_batch,
                timeout_us,
            } => {
                let deadline = arrivals[first] + timeout_us;
                if remaining >= max_batch as usize
                    && arrivals[first + max_batch as usize - 1] <= deadline
                {
                    return FormedBatch {
                        len: max_batch as usize,
                        close_us: arrivals[first + max_batch as usize - 1],
                    };
                }
                // Not fillable before the deadline: the batch waits the
                // timeout out and takes everything that arrived by then.
                let len = arrivals[first..]
                    .iter()
                    .take(max_batch as usize)
                    .take_while(|&&t| t <= deadline)
                    .count();
                FormedBatch {
                    len,
                    close_us: deadline,
                }
            }
            BatchingPolicy::Adaptive {
                min_batch,
                max_batch,
            } => {
                // Earliest instant at which the stream is idle AND at least
                // min_batch requests are queued (clamped to the trace tail).
                let kth = (min_batch as usize).min(remaining);
                let ready = stream_free_us.max(arrivals[first + kth - 1]);
                // ... unless the batch fills to max_batch before that.
                if remaining >= max_batch as usize
                    && arrivals[first + max_batch as usize - 1] <= ready
                {
                    return FormedBatch {
                        len: max_batch as usize,
                        close_us: arrivals[first + max_batch as usize - 1],
                    };
                }
                let len = arrivals[first..]
                    .iter()
                    .take(max_batch as usize)
                    .take_while(|&&t| t <= ready)
                    .count();
                FormedBatch {
                    len,
                    close_us: ready,
                }
            }
        }
    }
}

impl std::fmt::Display for BatchingPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_size_closes_on_the_filling_arrival() {
        let policy = BatchingPolicy::fixed_size(3);
        let arrivals = [0.0, 10.0, 20.0, 30.0];
        let b = policy.form(&arrivals, 0, 0.0);
        assert_eq!((b.len, b.close_us), (3, 20.0));
        // The trailing partial batch closes with the last arrival...
        let tail = policy.form(&arrivals, 3, 100.0);
        assert_eq!((tail.len, tail.close_us), (1, 30.0));
        // ...but is still priced at the full configured shape.
        assert_eq!(policy.shape(1), 3);
    }

    #[test]
    fn timeout_waits_out_the_deadline_when_underfilled() {
        let policy = BatchingPolicy::timeout(4, 50.0);
        let arrivals = [0.0, 10.0, 200.0, 210.0, 220.0, 230.0];
        let b = policy.form(&arrivals, 0, 0.0);
        assert_eq!((b.len, b.close_us), (2, 50.0));
        // A full batch arriving within the deadline closes immediately.
        let full = policy.form(&arrivals, 2, 0.0);
        assert_eq!((full.len, full.close_us), (4, 230.0));
    }

    #[test]
    fn adaptive_takes_the_queue_when_the_stream_frees_up() {
        let policy = BatchingPolicy::adaptive(1, 8);
        let arrivals = [0.0, 10.0, 20.0, 500.0];
        // Stream idle: the first request launches alone.
        let solo = policy.form(&arrivals, 0, 0.0);
        assert_eq!((solo.len, solo.close_us), (1, 0.0));
        // Stream busy until 25: the backlog (requests at 10 and 20) forms
        // one batch sealed the moment the stream frees up.
        let backlog = policy.form(&arrivals, 1, 25.0);
        assert_eq!((backlog.len, backlog.close_us), (2, 25.0));
    }

    #[test]
    fn adaptive_respects_min_and_max() {
        let policy = BatchingPolicy::adaptive(2, 3);
        let arrivals = [0.0, 100.0, 101.0, 102.0, 103.0];
        // min_batch=2: the first batch cannot close before the second
        // arrival even though the stream is idle.
        let b = policy.form(&arrivals, 0, 0.0);
        assert_eq!((b.len, b.close_us), (2, 100.0));
        // A deep backlog is capped at max_batch, closing when full.
        let capped = policy.form(&arrivals, 2, 1_000.0);
        assert_eq!(capped.len, 3);
    }

    #[test]
    fn shapes_pad_to_powers_of_two_capped_at_max() {
        let policy = BatchingPolicy::timeout(100, 50.0);
        assert_eq!(policy.shape(1), 1);
        assert_eq!(policy.shape(3), 4);
        assert_eq!(policy.shape(64), 64);
        assert_eq!(policy.shape(70), 100);
        let adaptive = BatchingPolicy::adaptive(4, 256);
        assert_eq!(adaptive.shape(5), 8);
        assert_eq!(adaptive.shape(256), 256);
    }

    #[test]
    fn labels_carry_the_parameters() {
        assert_eq!(BatchingPolicy::fixed_size(256).label(), "fixed_size(256)");
        assert_eq!(
            BatchingPolicy::timeout(64, 500.0).label(),
            "timeout(64, 500us)"
        );
        assert_eq!(BatchingPolicy::adaptive(8, 128).label(), "adaptive(8..128)");
        assert_eq!(BatchingPolicy::adaptive(8, 128).name(), "adaptive");
    }

    #[test]
    #[should_panic(expected = "must not exceed")]
    fn inverted_adaptive_bounds_are_rejected() {
        let _ = BatchingPolicy::adaptive(9, 8);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_batch_is_rejected() {
        let _ = BatchingPolicy::fixed_size(0);
    }
}

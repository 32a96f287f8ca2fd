//! Feature-gated runtime checker for the scheduler contract.
//!
//! The engine's two execution loops stay bit-identical because every
//! scheduler change preserves the invariants spelled out in the
//! [`crate::engine`] module docs. With the `contract-checks` feature
//! enabled, [`EngineContract`] re-derives those invariants independently
//! inside both loops and panics the moment one is violated:
//!
//! 1. **One issue per sub-partition per cycle** — a second issue from the
//!    same `(sm, smsp)` at the same cycle is a contract violation.
//! 2. **Next issue = max(min ready_at, last issue + 1)** — the checker
//!    recomputes the expected issue cycle from the sub-partition's own
//!    slot range of the [`WarpSlots`] arena after every event that can
//!    change it (an issue on it, a warp dispatched to it) and asserts the
//!    actual issue lands exactly there.
//! 3. **Dispatch readiness** — a warp created by a block dispatched at
//!    cycle `t` must not be ready before `t + 1`.
//! 4. **Drain order** — within one cycle, sub-partitions issue in
//!    ascending `(sm, smsp)` order, which is what keeps memory-system
//!    side effects in the same order in both loops (the event-driven
//!    loop's serial walk over a drained wheel row must reproduce it).
//! 5. **Monotone clock** — the engine clock never moves backwards.
//! 6. **Exact cached minimum** — at every event-driven select, the
//!    `(pick, min_others)` pair
//!    [`select_and_min`](crate::sm::Schedulers::select_and_min) returns
//!    (possibly from its cached other-slot minimum, without a scan) equals
//!    a full [`scan_with_min`](crate::sm::Schedulers::scan_with_min) pass
//!    over the same slots. A missed spawn fold or a stale cache trips this
//!    before it can skew a deadline.
//!
//! The checker reads the same struct-of-arrays slot state the schedulers
//! read ([`WarpSlots::min_ready_at`] over the sub-partition's fixed slot
//! range), so it verifies the production layout rather than a shadow copy.
//!
//! With the feature disabled (the default) the checker is a zero-sized
//! no-op, so the hooks cost nothing; call sites are unconditional. CI
//! runs the equivalence suites under `--features gpu-sim/contract-checks`
//! so every scheduler path the suites exercise is checked.

#[cfg(feature = "contract-checks")]
use crate::warp::WarpSlots;

/// Independent re-derivation of the scheduler contract; see the module
/// docs. Zero-sized no-op unless the `contract-checks` feature is on.
#[cfg(feature = "contract-checks")]
#[derive(Debug, Clone)]
pub(crate) struct EngineContract {
    smsps_per_sm: usize,
    /// Last cycle each sub-partition issued at (`None` = never).
    last_issue: Vec<Option<u64>>,
    /// Independently recomputed next legal issue cycle per sub-partition
    /// (`None` = no active warps resident).
    expected: Vec<Option<u64>>,
    /// Highest clock value observed so far.
    clock: u64,
    /// Flat index of the last sub-partition to issue in `clock`'s cycle,
    /// for the drain-order check.
    cursor: Option<(u64, usize)>,
}

#[cfg(feature = "contract-checks")]
impl EngineContract {
    pub(crate) fn new(num_sms: usize, smsps_per_sm: usize, start_cycle: u64) -> Self {
        EngineContract {
            smsps_per_sm,
            last_issue: vec![None; num_sms * smsps_per_sm],
            expected: vec![None; num_sms * smsps_per_sm],
            clock: start_cycle,
            cursor: None,
        }
    }

    /// Recomputes the expected next issue cycle of one sub-partition from
    /// its slot range: `max(min ready_at, last issue + 1)`.
    fn refresh(&mut self, idx: usize, slots: &WarpSlots) {
        let floor = self.last_issue[idx].map_or(0, |l| l + 1);
        self.expected[idx] = slots.min_ready_at(idx).map(|r| r.max(floor));
    }

    /// A warp with readiness `warp_ready` was just placed on `(sm, smsp)`
    /// by a block dispatched at `now`.
    pub(crate) fn on_dispatch(
        &mut self,
        sm: usize,
        smsp: usize,
        warp_ready: u64,
        now: u64,
        slots: &WarpSlots,
    ) {
        assert!(
            warp_ready > now,
            "scheduler contract: warp dispatched at cycle {now} reported \
             ready at {warp_ready}; dispatch must never add work to the \
             cycle that triggered it"
        );
        self.refresh(sm * self.smsps_per_sm + smsp, slots);
    }

    /// `(sm, smsp)` is about to issue a warp whose pre-issue readiness is
    /// `warp_ready` at cycle `now`.
    pub(crate) fn pre_issue(&mut self, sm: usize, smsp: usize, now: u64, warp_ready: u64) {
        let idx = sm * self.smsps_per_sm + smsp;
        assert!(
            self.last_issue[idx].is_none_or(|l| l < now),
            "scheduler contract: more than one warp per smsp per cycle \
             (sm {sm} smsp {smsp} issued twice at cycle {now})"
        );
        assert!(
            warp_ready <= now,
            "scheduler contract: sm {sm} smsp {smsp} issued a warp at cycle \
             {now} that is not ready until {warp_ready}"
        );
        if let Some(expected) = self.expected[idx] {
            assert!(
                now == expected,
                "scheduler contract: sm {sm} smsp {smsp} issued at cycle \
                 {now}, but max(min ready_at, last issue + 1) = {expected}"
            );
        }
        if let Some((cycle, prev_idx)) = self.cursor {
            assert!(
                cycle != now || idx > prev_idx,
                "scheduler contract: (sm, smsp) drain order violated at \
                 cycle {now}: flat smsp {idx} issued after {prev_idx}"
            );
        }
        self.cursor = Some((now, idx));
        self.last_issue[idx] = Some(now);
    }

    /// The issue on `(sm, smsp)` at `now` (and any replacement dispatch it
    /// triggered) is fully applied; re-derive the sub-partition's next
    /// legal issue cycle.
    pub(crate) fn post_issue(&mut self, sm: usize, smsp: usize, slots: &WarpSlots) {
        self.refresh(sm * self.smsps_per_sm + smsp, slots);
    }

    /// The engine clock reached `cycle`.
    pub(crate) fn on_clock(&mut self, cycle: u64) {
        assert!(
            cycle >= self.clock,
            "scheduler contract: clock moved backwards ({} -> {cycle})",
            self.clock
        );
        self.clock = cycle;
    }

    /// The event-driven loop selected `got` (`(pick, min_others)`) for
    /// flat sub-partition `idx` at `now`; it must equal a full scan.
    pub(crate) fn on_select(
        &mut self,
        idx: usize,
        now: u64,
        got: (u32, u64),
        sched: &crate::sm::Schedulers,
        slots: &WarpSlots,
    ) {
        let want = sched.scan_with_min(slots, idx, now);
        assert!(
            got == want,
            "scheduler contract: cached select of flat smsp {idx} at cycle \
             {now} returned (pick, min_others) = {got:?}, but a full scan \
             gives {want:?}"
        );
    }
}

/// No-op stand-in when `contract-checks` is off: every hook compiles to
/// nothing, so the engine carries no checking overhead by default.
#[cfg(not(feature = "contract-checks"))]
#[derive(Debug, Clone)]
pub(crate) struct EngineContract;

#[cfg(not(feature = "contract-checks"))]
impl EngineContract {
    #[inline(always)]
    pub(crate) fn new(_num_sms: usize, _smsps_per_sm: usize, _start_cycle: u64) -> Self {
        EngineContract
    }

    #[inline(always)]
    pub(crate) fn on_dispatch(
        &mut self,
        _sm: usize,
        _smsp: usize,
        _warp_ready: u64,
        _now: u64,
        _slots: &crate::warp::WarpSlots,
    ) {
    }

    #[inline(always)]
    pub(crate) fn pre_issue(&mut self, _sm: usize, _smsp: usize, _now: u64, _warp_ready: u64) {}

    #[inline(always)]
    pub(crate) fn post_issue(&mut self, _sm: usize, _smsp: usize, _slots: &crate::warp::WarpSlots) {
    }

    #[inline(always)]
    pub(crate) fn on_clock(&mut self, _cycle: u64) {}

    #[inline(always)]
    pub(crate) fn on_select(
        &mut self,
        _idx: usize,
        _now: u64,
        _got: (u32, u64),
        _sched: &crate::sm::Schedulers,
        _slots: &crate::warp::WarpSlots,
    ) {
    }
}

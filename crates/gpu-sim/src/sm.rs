//! Streaming-multiprocessor structures: the greedy-then-oldest warp
//! schedulers that select from the [`WarpSlots`] arena, and per-SM block
//! bookkeeping.
//!
//! # Scheduling over the slot arena
//!
//! Each SM sub-partition (SMSP) owns a fixed contiguous slot range of the
//! [`WarpSlots`] arena (see `warp.rs` for the layout). [`Schedulers`] holds
//! the only scheduler state that is not per-slot: the greedy pointer of
//! each sub-partition, stored as a `(slot, warp id)` pair so that slot
//! reuse can never be mistaken for the previously issued warp, next to
//! the cached other-slot minimum described below. Both live in one record
//! per sub-partition (one allocation for the device), so a select reads
//! adjacent words instead of one entry from each of four arrays.
//!
//! [`Schedulers::select`] is **pure** (`&self`): it reads the
//! sub-partition's own slots (`ready`, `seq`) and greedy pointer and
//! changes nothing. The engine records the choice with
//! [`Schedulers::commit`] only after the issue is applied, so selection
//! and its side effects stay separate steps.
//!
//! [`Schedulers::select_and_min`] is the fused variant the event-driven
//! loop uses: the same selection plus the minimum `ready_at` over the
//! sub-partition's *other* slots. The engine calls it immediately before
//! committing that sub-partition, so the minimum reflects every earlier
//! commit of the same cycle; it folds the picked warp's post-issue
//! readiness into that minimum to re-arm the deadline queue without a
//! second scan (see `engine.rs`).
//!
//! `select_and_min` is not always a pass over the slot range. The
//! event-driven commit records its pick together with the minimum over the
//! other slots ([`Schedulers::commit_with_min`]). Between two commits of a
//! sub-partition, another slot's `ready` can only change by a spawn into
//! it (the engine folds each spawned warp's ready cycle in with
//! [`Schedulers::note_spawn`]) or by that slot issuing, which would make it
//! the pick. So while the greedy slot still hosts the warp that issued
//! last and is ready again — a greedy re-issue, most issues in practice —
//! the recorded minimum is still exact and is returned without a scan.
//! Every other case, and any state left by the plain
//! [`Schedulers::commit`], takes the full [`WarpSlots::select_with_min`]
//! pass.

use std::collections::HashMap;

use crate::warp::WarpSlots;

/// Greedy sentinel: no previously issued warp to stick with.
const NONE: u32 = u32::MAX;

/// The scheduler state of one sub-partition.
#[derive(Debug, Clone, Copy)]
struct Greedy {
    /// Slot most recently issued from.
    slot: u32,
    /// Warp arena id that was resident in `slot` at issue time; the greedy
    /// preference only holds while the slot still hosts that warp.
    wid: u32,
    /// Minimum ready cycle over every slot other than `slot`, kept exact
    /// across spawns while `others_valid` is set.
    others_min: u64,
    /// Whether `others_min` holds for the current greedy pointer; set by
    /// [`Schedulers::commit_with_min`], cleared by [`Schedulers::commit`].
    others_valid: bool,
}

impl Greedy {
    const NONE: Greedy = Greedy {
        slot: NONE,
        wid: NONE,
        others_min: u64::MAX,
        others_valid: false,
    };
}

/// The per-sub-partition scheduler state for a whole device, indexed by
/// flat sub-partition id, selecting over the [`WarpSlots`] arena.
pub struct Schedulers {
    greedy: Vec<Greedy>,
}

impl Default for Schedulers {
    fn default() -> Self {
        Schedulers::new(0)
    }
}

impl Schedulers {
    /// Creates scheduler state for `n` flat sub-partitions.
    pub fn new(n: usize) -> Self {
        let mut s = Schedulers { greedy: Vec::new() };
        s.reset(n);
        s
    }

    /// Re-sizes and clears the greedy pointers for a new run.
    pub fn reset(&mut self, n: usize) {
        self.greedy.clear();
        self.greedy.resize(n, Greedy::NONE);
    }

    /// Selects the slot sub-partition `smsp` issues from at cycle `now`
    /// using a greedy-then-oldest policy: keep issuing from the same warp
    /// while it stays ready, otherwise fall back to the oldest ready warp
    /// (smallest placement sequence number). Pure: commit the choice with
    /// [`Schedulers::commit`] after the issue is applied.
    #[inline]
    pub fn select(&self, slots: &WarpSlots, smsp: usize, now: u64) -> Option<u32> {
        let g = self.greedy[smsp];
        if g.slot != NONE {
            let s = g.slot as usize;
            if slots.wid(s) == g.wid && slots.ready_at(s) <= now {
                return Some(g.slot);
            }
        }
        slots.oldest_ready(smsp, now)
    }

    /// Fused variant of [`Schedulers::select`]: returns both the selection
    /// (`u32::MAX` = none) and the minimum ready cycle of the *other*
    /// slots, so the engine's commit can re-arm the sub-partition's next
    /// deadline without a second scan. A greedy re-issue answers from the
    /// minimum recorded by [`Schedulers::commit_with_min`]; anything else
    /// is one [`Schedulers::scan_with_min`] pass (see the module docs).
    /// Pure, like `select`.
    #[inline]
    pub fn select_and_min(&self, slots: &WarpSlots, smsp: usize, now: u64) -> (u32, u64) {
        let g = self.greedy[smsp];
        if g.others_valid
            && slots.wid(g.slot as usize) == g.wid
            && slots.ready_at(g.slot as usize) <= now
        {
            return (g.slot, g.others_min);
        }
        self.scan_with_min(slots, smsp, now)
    }

    /// The full-pass answer [`Schedulers::select_and_min`] must agree
    /// with: one [`WarpSlots::select_with_min`] scan of `smsp`'s slots.
    #[inline]
    pub fn scan_with_min(&self, slots: &WarpSlots, smsp: usize, now: u64) -> (u32, u64) {
        let g = self.greedy[smsp];
        slots.select_with_min(smsp, now, g.slot, g.wid)
    }

    /// Records that `smsp` issued from `slot` (hosting warp `wid`), making
    /// it the greedy preference for the next cycle. Forgets any recorded
    /// other-slot minimum, so the next `select_and_min` scans.
    #[inline]
    pub fn commit(&mut self, smsp: usize, slot: u32, wid: u32) {
        let g = &mut self.greedy[smsp];
        g.slot = slot;
        g.wid = wid;
        g.others_valid = false;
    }

    /// [`Schedulers::commit`] for a pick returned by
    /// [`Schedulers::select_and_min`], also recording `min_others`, the
    /// minimum ready cycle over every slot except `slot`. The caller must
    /// report every later spawn into `smsp` through
    /// [`Schedulers::note_spawn`].
    #[inline]
    pub fn commit_with_min(&mut self, smsp: usize, slot: u32, wid: u32, min_others: u64) {
        self.greedy[smsp] = Greedy {
            slot,
            wid,
            others_min: min_others,
            others_valid: true,
        };
    }

    /// A warp ready at `ready` was spawned into one of `smsp`'s slots:
    /// fold it into the recorded other-slot minimum.
    #[inline]
    pub fn note_spawn(&mut self, smsp: usize, ready: u64) {
        let m = &mut self.greedy[smsp].others_min;
        *m = (*m).min(ready);
    }
}

/// One streaming multiprocessor: block bookkeeping used by the engine to
/// decide when new thread blocks can be dispatched, plus the round-robin
/// cursor that distributes a block's warps over the SM's sub-partitions.
///
/// Blocks are keyed by an opaque `u64` so that co-resident kernel streams
/// (which each number their blocks from zero) can share one SM without
/// colliding: the engine packs `(stream, block)` into the key.
#[derive(Debug)]
pub struct SmState {
    /// Number of sub-partitions on this SM.
    smsps: usize,
    /// Currently resident thread blocks (across all streams).
    pub resident_blocks: u32,
    /// Remaining (non-retired) warps per resident block key.
    // audit:allow(unordered_collection): keyed decrement/remove only, never
    // iterated — retirement order comes from the warps, not this map
    block_remaining: HashMap<u64, u32>,
    next_smsp: usize,
}

impl SmState {
    /// Creates an SM with `num_smsps` sub-partitions.
    pub fn new(num_smsps: usize) -> Self {
        SmState {
            smsps: num_smsps,
            resident_blocks: 0,
            // audit:allow(unordered_collection): empty init of the keyed map
            block_remaining: HashMap::new(),
            next_smsp: 0,
        }
    }

    /// Clears the bookkeeping for a new run (keeping map allocations),
    /// adjusting to `num_smsps` sub-partitions.
    pub fn reset(&mut self, num_smsps: usize) {
        self.smsps = num_smsps;
        self.resident_blocks = 0;
        self.block_remaining.clear();
        self.next_smsp = 0;
    }

    /// Registers a dispatched block with `warps` warps under `block_key`.
    pub fn begin_block(&mut self, block_key: u64, warps: u32) {
        self.resident_blocks += 1;
        self.block_remaining.insert(block_key, warps);
    }

    /// Returns the sub-partition the next warp is placed on, advancing the
    /// round-robin cursor. The cursor advances for *every* spawned warp —
    /// including warps that retire instantly and never claim a slot — so
    /// placement is a pure function of spawn order.
    pub fn next_rotation(&mut self) -> usize {
        let idx = self.next_smsp;
        self.next_smsp = (self.next_smsp + 1) % self.smsps;
        idx
    }

    /// Records that one warp of the block under `block_key` retired. Returns
    /// `true` if the whole block has now finished (freeing a block slot on
    /// this SM).
    pub fn warp_retired(&mut self, block_key: u64) -> bool {
        let remaining = self
            .block_remaining
            .get_mut(&block_key)
            .expect("retired warp's block must be resident");
        *remaining -= 1;
        if *remaining == 0 {
            self.block_remaining.remove(&block_key);
            self.resident_blocks -= 1;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use crate::isa::{Instruction, SrcSet};
    use crate::launch::{VecProgram, WarpInfo};
    use crate::mem::MemorySystem;
    use crate::stats::RawCounters;
    use crate::warp::WarpContext;

    fn alu_chain_ctx(id: u64, latency: u32, n: usize) -> WarpContext {
        let insts: Vec<Instruction> = (0..n)
            .map(|i| Instruction::Alu {
                dst: 1,
                srcs: if i == 0 {
                    SrcSet::none()
                } else {
                    SrcSet::one(1)
                },
                latency,
            })
            .collect();
        let info = WarpInfo {
            block_id: 0,
            warp_in_block: id as u32,
            warps_per_block: 8,
            threads_per_block: 256,
            global_warp_id: id,
            sm_id: 0,
        };
        WarpContext::new(info, Box::new(VecProgram::new(insts)), 0)
    }

    /// One-smsp scheduler harness over a small arena.
    struct Harness {
        slots: WarpSlots,
        sched: Schedulers,
        ctxs: Vec<WarpContext>,
        slot_of: Vec<Option<usize>>,
        mem: MemorySystem,
        cfg: GpuConfig,
        counters: RawCounters,
    }

    impl Harness {
        fn new(specs: &[(u32, usize)]) -> Self {
            let cfg = GpuConfig::test_small();
            let mem = MemorySystem::new(&cfg);
            let mut slots = WarpSlots::new(1, specs.len().max(1));
            let mut ctxs = Vec::new();
            let mut slot_of = Vec::new();
            for (wid, &(latency, n)) in specs.iter().enumerate() {
                let mut ctx = alu_chain_ctx(wid as u64, latency, n);
                let slot = slots
                    .spawn(0, wid as u32, 0, &mut ctx, 0)
                    .map(|s| s as usize);
                ctxs.push(ctx);
                slot_of.push(slot);
            }
            Harness {
                slots,
                sched: Schedulers::new(1),
                ctxs,
                slot_of,
                mem,
                cfg,
                counters: RawCounters::default(),
            }
        }

        /// Select-commit-issue at `now`, returning the issued warp id.
        fn step(&mut self, now: u64) -> Option<u32> {
            let slot = self.sched.select(&self.slots, 0, now)? as usize;
            let wid = self.slots.wid(slot);
            self.sched.commit(0, slot as u32, wid);
            let retired = self.slots.issue(
                slot,
                0,
                now,
                &mut self.ctxs[wid as usize],
                &mut self.mem,
                &self.cfg,
                &mut self.counters,
            );
            if retired {
                self.slots.release(slot);
            }
            Some(wid)
        }
    }

    #[test]
    fn scheduler_prefers_last_issued_warp() {
        // With a 1-cycle ALU latency the same warp is ready again next cycle
        // and the greedy policy sticks with it.
        let mut h = Harness::new(&[(1, 4), (1, 4)]);
        let first = h.step(1).unwrap();
        let second = h.step(2).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn scheduler_falls_back_to_oldest_ready() {
        let mut h = Harness::new(&[(50, 2), (50, 2)]);
        assert_eq!(h.step(1), Some(0));
        // Warp 0 now stalls on its 50-cycle dependence; warp 1 is selected.
        assert_eq!(h.step(2), Some(1));
    }

    #[test]
    fn greedy_pointer_ignores_a_reused_slot() {
        // Warp 0 issues once and retires, freeing its slot; warp 2 is then
        // spawned into the same slot. The greedy pointer still references
        // warp 0, so selection must fall back to the oldest ready warp
        // (warp 1) instead of greedily picking the slot's new occupant.
        let mut h = Harness::new(&[(1, 1), (1, 3)]);
        assert_eq!(h.step(1), Some(0));
        assert!(h.ctxs[0].is_exited());
        let mut ctx = alu_chain_ctx(2, 1, 3);
        let slot = h.slots.spawn(0, 2, 0, &mut ctx, 1).unwrap() as usize;
        assert_eq!(Some(slot), h.slot_of[0], "slot must be reused");
        h.ctxs.push(ctx);
        assert_eq!(h.step(2), Some(1));
    }

    #[test]
    fn min_ready_at_tracks_active_slots_only() {
        let mut h = Harness::new(&[(1, 1), (1, 2)]);
        assert_eq!(h.slots.min_ready_at(0), Some(1));
        assert_eq!(h.slots.next_issue_at(0, 8), Some(8));
        // Retire warp 0; only warp 1 remains.
        assert_eq!(h.step(1), Some(0));
        assert_eq!(
            h.slots.min_ready_at(0),
            Some(h.slots.ready_at(h.slot_of[1].unwrap()))
        );
        // Retire warp 1 (two instructions).
        h.step(2);
        h.step(3);
        assert_eq!(h.slots.min_ready_at(0), None);
        assert_eq!(h.slots.next_issue_at(0, 10), None);
    }

    #[test]
    fn selection_is_pure_until_committed() {
        let h = Harness::new(&[(1, 2), (1, 2)]);
        let a = h.sched.select(&h.slots, 0, 1);
        let b = h.sched.select(&h.slots, 0, 1);
        assert_eq!(a, b, "select must not mutate scheduler state");
    }

    #[test]
    fn block_bookkeeping_frees_slot_when_all_warps_retire() {
        let mut sm = SmState::new(4);
        sm.begin_block(7, 2);
        assert_eq!(sm.resident_blocks, 1);
        assert!(!sm.warp_retired(7));
        assert!(sm.warp_retired(7));
        assert_eq!(sm.resident_blocks, 0);
    }

    #[test]
    fn warps_are_distributed_round_robin() {
        let mut sm = SmState::new(4);
        sm.begin_block(0, 8);
        let placements: Vec<usize> = (0..8).map(|_| sm.next_rotation()).collect();
        assert_eq!(placements, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }
}

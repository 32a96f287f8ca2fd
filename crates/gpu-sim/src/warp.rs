//! Per-warp execution state in struct-of-arrays form: the slot arena that
//! holds every resident warp's per-issue working set, plus the cold
//! [`WarpContext`] tail.
//!
//! # Layout
//!
//! The engine's hot loop touches, per issued instruction: the warp's next
//! decoded instruction, its register scoreboard, its readiness cycle and its
//! stall-attribution state. Keeping those inside per-warp heap objects (the
//! pre-SoA design) meant every issue strided through `~200` bytes of
//! `WarpContext`, a boxed 2 KiB scoreboard and a boxed instruction
//! generator, all in data-dependent order across thousands of resident
//! warps — host cache misses dominated simulation time.
//!
//! [`WarpSlots`] instead owns one dense array per field, indexed by *slot*:
//!
//! * each SM sub-partition owns the fixed contiguous slot range
//!   `[smsp * cap, (smsp + 1) * cap)`, so a scheduler scan reads a handful
//!   of adjacent `u64`s;
//! * `ready`/`seq`/`occupant` drive selection, `last_issue`/`dep` drive
//!   stall attribution, and a flat scoreboard arena replaces the per-warp
//!   boxes — a reused slot keeps its scoreboard lines hot in cache across
//!   warp generations;
//! * a decode-ahead instruction buffer ([`IBUF`] packed 16-byte entries
//!   per slot) that the warp's [`WarpProgram`] writes straight into: one
//!   [`WarpProgram::fill`] call per refill packs instructions in place
//!   through an [`InstSink`], so generation costs one dynamic call per
//!   buffer, not per instruction, and no per-warp queue sits in between.
//!
//! # Scoreboard
//!
//! The sink renames every register to a dense id from the run's
//! [`RegMap`] as it packs, so the scoreboard is indexed by dense id with no
//! lookup on the issue path. A slot's row holds one packed word per dense
//! id the run has seen, rounded up to a whole host cache line
//! (`BOARD_LINE` words). The embedding kernels name 5 to 9 distinct
//! registers at Default scale, so a row is 8 or 16 words (64 or 128
//! bytes) where one word per possible id took 2 KiB. A fill that
//! introduces a new id widens every row before the next issue reads one
//! (`widen_boards`); rows are only ever written at issue, so no write is
//! lost. Each slot also keeps the prefix of its row that may be non-zero,
//! and claiming the slot clears only that prefix.
//!
//! The per-smsp capacity `cap` is exact, not heuristic: blocks place their
//! warps round-robin over a SM's sub-partitions in one burst, so one block
//! contributes at most `ceil(warps_per_block / smsps_per_sm)` warps to any
//! single sub-partition, and the engine sizes `cap` from the occupancy
//! residency caps of every co-resident stream (see `engine.rs`).
//!
//! [`WarpContext`] keeps only the cold tail — the warp's identity, its
//! boxed instruction generator and retirement bookkeeping — and is touched
//! on spawn, buffer refill and retirement, not per issue.

use crate::config::GpuConfig;
use crate::decode::{InstSink, Op, PackedInst, RegMap};
use crate::isa::{MemSpace, Reg};
use crate::launch::{WarpInfo, WarpProgram};
use crate::mem::MemorySystem;
use crate::stats::RawCounters;

/// Scoreboard words per host cache line; a row's stride is a multiple of
/// this.
const BOARD_LINE: usize = 8;

/// Decode-ahead depth: instructions buffered per slot between
/// [`WarpProgram::fill`] calls.
///
/// The buffer is read once per issue in data-dependent slot order, so once
/// refills are cheap (a program resumes from its own cursor and packs in
/// place) its host-cache footprint is what costs, not the refill count. At
/// 8 entries a slot's buffer is two host cache lines and the A100's 6,912
/// slots hold 864 KiB of buffers, against 6.9 MiB at 64 entries.
///
/// Chosen by A/B: perfbench `a100_sweep`, seed 1, alternating runs on a
/// 2-core Xeon host with 2 MiB of L2 per core. Median `cold_cells_per_s`
/// over 6 to 10 runs each: 3.65 at 4 entries, 3.94 at 8, 3.43 at 16, 3.41
/// at 32 and 3.16 at 64. 8 beat 16 in 7 of 10 paired rounds.
pub const IBUF: usize = 8;

// `ibuf_pos` and `ibuf_len` are `u8`.
const _: () = assert!(IBUF <= u8::MAX as usize);

/// Top-bit flag in a packed scoreboard word: the register's last writer was
/// a long-latency (global/local) load. The low 63 bits hold the cycle at
/// which that writer completes, which the engine's cycle cap keeps below
/// `2^63`.
const LONG: u64 = 1 << 63;

/// What the warp's next instruction is currently waiting on; used to
/// attribute stall cycles the way NCU does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepKind {
    /// No unfinished dependence: the warp is ready to issue.
    None,
    /// Waiting on an ALU or shared-memory result ("short scoreboard").
    Short,
    /// Waiting on a global/local-memory load ("long scoreboard").
    Long,
}

/// Cold per-warp state: everything the engine does *not* touch per issue.
pub struct WarpContext {
    /// Static identity of the warp.
    pub info: WarpInfo,
    program: Box<dyn WarpProgram>,
    /// Cycle at which this warp became resident.
    pub spawn_cycle: u64,
    /// Whether the warp has retired.
    exited: bool,
    /// Whether the program's last [`WarpProgram::fill`] reported it done
    /// (it is never called again after that).
    prog_done: bool,
}

impl std::fmt::Debug for WarpContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WarpContext")
            .field("info", &self.info)
            .field("spawn_cycle", &self.spawn_cycle)
            .field("exited", &self.exited)
            .finish()
    }
}

impl WarpContext {
    /// Creates the cold tail of a warp that becomes resident at
    /// `spawn_cycle`. Its hot state lives in [`WarpSlots`] from the moment
    /// [`WarpSlots::spawn`] claims a slot for it.
    pub fn new(info: WarpInfo, program: Box<dyn WarpProgram>, spawn_cycle: u64) -> Self {
        WarpContext {
            info,
            program,
            spawn_cycle,
            exited: false,
            prog_done: false,
        }
    }

    /// Whether the warp has retired.
    pub fn is_exited(&self) -> bool {
        self.exited
    }
}

/// Slot sentinel: no warp resident.
const FREE: u32 = u32::MAX;

/// The struct-of-arrays arena of resident-warp hot state; see the module
/// documentation for the layout rationale. One instance covers every SM
/// sub-partition of the device: sub-partition `i` (flat index) owns slots
/// `[i * cap, (i + 1) * cap)`.
pub struct WarpSlots {
    /// Slots per sub-partition.
    cap: usize,
    /// Cycle at which each slot's pending instruction becomes eligible
    /// (`u64::MAX` for a free slot, so scheduler scans skip it for free).
    ready: Vec<u64>,
    /// Global placement sequence number; the scheduler's oldest-first
    /// fallback is "smallest `seq` among ready slots", which reproduces the
    /// residency order of the pre-SoA design exactly.
    seq: Vec<u64>,
    /// Arena index of the resident warp ([`FREE`] if empty).
    occupant: Vec<u32>,
    /// Stream the resident warp belongs to (for per-stream counters).
    stream: Vec<u32>,
    /// Cycle at which the slot's previous instruction issued.
    last_issue: Vec<u64>,
    /// What the pending instruction is waiting on.
    dep: Vec<DepKind>,
    /// Read cursor into the slot's decode-ahead buffer.
    ibuf_pos: Vec<u8>,
    /// Valid entries in the slot's decode-ahead buffer.
    ibuf_len: Vec<u8>,
    /// Decode-ahead buffers, [`IBUF`] packed entries per slot: the only
    /// copy of each warp's buffered instructions, since every one packs.
    ibuf: Vec<PackedInst>,
    /// The run's raw-to-dense register map, which every refill packs
    /// through.
    regs: RegMap,
    /// Scoreboard words per slot: the dense ids `regs` has given out,
    /// rounded up to [`BOARD_LINE`].
    stride: usize,
    /// Packed scoreboards, `stride` words per slot, indexed by dense id.
    boards: Vec<u64>,
    /// High-water dense-id mark per slot: the prefix of the slot's row that
    /// may be non-zero. Claiming a slot clears exactly that prefix, so
    /// scoreboard reuse costs what the previous warp touched, not a memset
    /// of the row.
    board_dirty: Vec<u16>,
    /// Next placement sequence number.
    next_seq: u64,
}

impl Default for WarpSlots {
    fn default() -> Self {
        WarpSlots::new(0, 0)
    }
}

impl WarpSlots {
    /// Creates an arena for `smsps` sub-partitions with `cap` slots each.
    pub fn new(smsps: usize, cap: usize) -> Self {
        let mut slots = WarpSlots {
            cap: 0,
            ready: Vec::new(),
            seq: Vec::new(),
            occupant: Vec::new(),
            stream: Vec::new(),
            last_issue: Vec::new(),
            dep: Vec::new(),
            ibuf_pos: Vec::new(),
            ibuf_len: Vec::new(),
            ibuf: Vec::new(),
            regs: RegMap::new(),
            stride: 0,
            boards: Vec::new(),
            board_dirty: Vec::new(),
            next_seq: 0,
        };
        slots.reset(smsps, cap);
        slots
    }

    /// Re-sizes the arena for a new run, keeping allocations from previous
    /// runs. The register map starts empty and the scoreboard with it; the
    /// refills that name registers size it.
    pub fn reset(&mut self, smsps: usize, cap: usize) {
        let n = smsps * cap;
        self.cap = cap;
        self.ready.clear();
        self.ready.resize(n, u64::MAX);
        self.seq.clear();
        self.seq.resize(n, 0);
        self.occupant.clear();
        self.occupant.resize(n, FREE);
        self.stream.clear();
        self.stream.resize(n, 0);
        self.last_issue.clear();
        self.last_issue.resize(n, 0);
        self.dep.clear();
        self.dep.resize(n, DepKind::None);
        self.ibuf_pos.clear();
        self.ibuf_pos.resize(n, 0);
        self.ibuf_len.clear();
        self.ibuf_len.resize(n, 0);
        self.ibuf.resize(n * IBUF, PackedInst::default());
        self.regs = RegMap::new();
        self.stride = 0;
        self.boards.clear();
        self.board_dirty.clear();
        self.board_dirty.resize(n, 0);
        self.next_seq = 0;
    }

    /// Slots per sub-partition.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// The slot range owned by flat sub-partition `smsp`.
    #[inline]
    fn range(&self, smsp: usize) -> (usize, usize) {
        (smsp * self.cap, (smsp + 1) * self.cap)
    }

    /// Arena index of the warp resident in `slot` (valid only while the
    /// slot is occupied).
    #[inline]
    pub fn wid(&self, slot: usize) -> u32 {
        self.occupant[slot]
    }

    /// Stream of the warp resident in `slot`.
    #[inline]
    pub fn stream_of(&self, slot: usize) -> u32 {
        self.stream[slot]
    }

    /// Cycle at which `slot`'s pending instruction becomes eligible to
    /// issue (`u64::MAX` for a free slot).
    #[inline]
    pub fn ready_at(&self, slot: usize) -> u64 {
        self.ready[slot]
    }

    /// Greedy-then-oldest selection at cycle `now` over `smsp`'s slot
    /// range, ignoring the greedy pointer (the caller checks it): the ready
    /// slot with the smallest placement sequence number.
    #[inline]
    pub fn oldest_ready(&self, smsp: usize, now: u64) -> Option<u32> {
        let (lo, hi) = self.range(smsp);
        let mut best: Option<(u64, u32)> = None;
        for s in lo..hi {
            if self.ready[s] <= now {
                let sq = self.seq[s];
                if best.is_none_or(|(b, _)| sq < b) {
                    best = Some((sq, s as u32));
                }
            }
        }
        best.map(|(_, s)| s)
    }

    /// Greedy-then-oldest selection fused with the next-deadline scan: one
    /// pass over `smsp`'s slot range computing the slot to issue at `now`
    /// (`u32::MAX` = none) *and* the minimum ready cycle over every slot
    /// *other than* the returned pick (`u64::MAX` = none). The caller
    /// combines the latter with the pick's post-issue ready cycle to get
    /// the sub-partition's next deadline without a second scan.
    ///
    /// `greedy_slot`/`greedy_wid` are the sub-partition's greedy pointer
    /// (see `sm.rs`); selection semantics are identical to
    /// `Schedulers::select` followed by [`WarpSlots::min_ready_at`].
    #[inline]
    pub fn select_with_min(
        &self,
        smsp: usize,
        now: u64,
        greedy_slot: u32,
        greedy_wid: u32,
    ) -> (u32, u64) {
        let (lo, hi) = self.range(smsp);
        let mut best_seq = u64::MAX;
        let mut best = u32::MAX;
        // Minimum ready cycle and its slot, plus the runner-up minimum, so
        // the min excluding any single slot falls out of one pass.
        let mut min1 = u64::MAX;
        let mut min1_slot = u32::MAX;
        let mut min2 = u64::MAX;
        for s in lo..hi {
            let r = self.ready[s];
            if r < min1 {
                min2 = min1;
                min1 = r;
                min1_slot = s as u32;
            } else if r < min2 {
                min2 = r;
            }
            if r <= now {
                let sq = self.seq[s];
                if sq < best_seq {
                    best_seq = sq;
                    best = s as u32;
                }
            }
        }
        let pick = if greedy_slot != u32::MAX
            && self.occupant[greedy_slot as usize] == greedy_wid
            && self.ready[greedy_slot as usize] <= now
        {
            greedy_slot
        } else {
            best
        };
        let min_others = if pick == min1_slot { min2 } else { min1 };
        (pick, min_others)
    }

    /// Earliest cycle at which any resident warp of `smsp` becomes ready.
    #[inline]
    pub fn min_ready_at(&self, smsp: usize) -> Option<u64> {
        let (lo, hi) = self.range(smsp);
        let min = self.ready[lo..hi].iter().copied().min().unwrap_or(u64::MAX);
        (min != u64::MAX).then_some(min)
    }

    /// Earliest cycle `>= floor` at which `smsp` can issue a warp, or
    /// `None` if it holds no active warps. A sub-partition issues at most
    /// one warp per cycle, so after issuing at cycle `t` its next
    /// opportunity is `next_issue_at(t + 1)`.
    #[inline]
    pub fn next_issue_at(&self, smsp: usize, floor: u64) -> Option<u64> {
        self.min_ready_at(smsp).map(|r| r.max(floor))
    }

    /// Claims a slot in `smsp` for warp `wid` of `stream`, spawning at
    /// `now`: fills the slot's decode buffer from the warp's program and
    /// marks the first instruction ready at `now + 1` (a fresh scoreboard
    /// has no pending writers). Returns `None` — and marks the warp exited,
    /// leaving the slot free — if its program is empty.
    ///
    /// # Panics
    /// Panics if `smsp` has no free slot; the engine sizes `cap` so this
    /// cannot happen (see the module documentation).
    pub fn spawn(
        &mut self,
        smsp: usize,
        wid: u32,
        stream: u32,
        ctx: &mut WarpContext,
        now: u64,
    ) -> Option<u32> {
        let (lo, hi) = self.range(smsp);
        let slot = (lo..hi)
            .find(|&s| self.occupant[s] == FREE)
            .expect("resident-warp slot capacity exceeded: occupancy bound violated");
        let len = self.refill(slot, ctx);
        if len == 0 {
            ctx.exited = true;
            return None;
        }
        self.occupant[slot] = wid;
        self.stream[slot] = stream;
        self.seq[slot] = self.next_seq;
        self.next_seq += 1;
        self.last_issue[slot] = now;
        // An instruction can never issue in the same cycle as the dispatch
        // that created its warp, and a fresh scoreboard holds no pending
        // writers, so the first instruction is ready exactly at `now + 1`.
        self.ready[slot] = now + 1;
        self.dep[slot] = DepKind::None;
        let dirty = self.board_dirty[slot] as usize;
        let base = slot * self.stride;
        self.boards[base..base + dirty].fill(0);
        self.board_dirty[slot] = 0;
        self.ibuf_pos[slot] = 0;
        self.ibuf_len[slot] = len as u8;
        Some(slot as u32)
    }

    /// Refills `slot`'s decode buffer from `ctx`'s program, which must not
    /// be done yet, and returns how many instructions it pushed (0 only if
    /// the program turned out to be finished). Widens the scoreboard if the
    /// fill named a register the run had not seen.
    #[inline]
    fn refill(&mut self, slot: usize, ctx: &mut WarpContext) -> usize {
        debug_assert!(!ctx.prog_done, "refilled a finished program");
        let mut sink = InstSink::new(
            &mut self.ibuf[slot * IBUF..(slot + 1) * IBUF],
            &mut self.regs,
        );
        ctx.prog_done = ctx.program.fill(&mut sink);
        debug_assert!(
            ctx.prog_done || !sink.is_empty(),
            "a WarpProgram fill that is not done must push an instruction"
        );
        let len = sink.len();
        if self.regs.len() > self.stride {
            self.widen_boards();
        }
        len
    }

    /// Re-lays every slot's scoreboard row at a stride that covers every
    /// dense id given out so far. Rows move last to first, so none is
    /// overwritten before it has moved; each keeps its dirty prefix and
    /// is zero past it.
    #[cold]
    fn widen_boards(&mut self) {
        let old = self.stride;
        let new = self.regs.len().next_multiple_of(BOARD_LINE);
        let n = self.board_dirty.len();
        self.boards.resize(n * new, 0);
        for slot in (0..n).rev() {
            let dirty = self.board_dirty[slot] as usize;
            self.boards
                .copy_within(slot * old..slot * old + dirty, slot * new);
            self.boards[slot * new + dirty..(slot + 1) * new].fill(0);
        }
        self.stride = new;
    }

    /// Frees `slot` after its warp retired. The scoreboard is left as-is
    /// and cleared lazily (dirty prefix only) by the next [`WarpSlots::spawn`]
    /// into this slot.
    pub fn release(&mut self, slot: usize) {
        self.occupant[slot] = FREE;
        self.ready[slot] = u64::MAX;
    }

    /// `(ready cycle, was written by a long-latency load)` for dense
    /// register `reg` of the row at `base`.
    #[inline]
    fn board_get(&self, base: usize, reg: Reg) -> (u64, bool) {
        let v = self.boards[base + reg as usize];
        (v & !LONG, v & LONG != 0)
    }

    /// Records that dense register `reg`'s writer completes at `ready`.
    #[inline]
    fn board_set(&mut self, slot: usize, reg: Reg, ready: u64, long: bool) {
        debug_assert!(ready & LONG == 0, "cycle overflows the packing");
        debug_assert!((reg as usize) < self.stride, "register outside the row");
        self.boards[slot * self.stride + reg as usize] = ready | if long { LONG } else { 0 };
        let mark = reg as u16 + 1;
        if self.board_dirty[slot] < mark {
            self.board_dirty[slot] = mark;
        }
    }

    /// Computes when the operands of the packed instruction `p` are ready
    /// for the warp in `slot` and what kind of dependence dominates.
    fn packed_readiness(&self, slot: usize, p: PackedInst) -> (u64, DepKind) {
        let mut ready = 0u64;
        let mut kind = DepKind::None;
        let base = slot * self.stride;
        let mut consider = |reg: Reg| {
            let (r, long) = self.board_get(base, reg);
            if r > ready {
                ready = r;
                kind = if long { DepKind::Long } else { DepKind::Short };
            }
        };
        match p.op() {
            Op::Alu => {
                for i in 0..p.nsrcs() {
                    consider(p.src(i));
                }
            }
            // Indirect accesses cannot issue until their address operand
            // (e.g. the loaded embedding index) is available.
            Op::Load(_) | Op::Prefetch => {
                if let Some(reg) = p.addr_dep() {
                    consider(reg);
                }
            }
            Op::Store(_) => consider(p.reg0()),
        }
        (ready, kind)
    }

    /// Issues `slot`'s pending instruction at cycle `now` on SM `sm`,
    /// updating the memory system, the scoreboard and the raw counters,
    /// and decodes the next instruction (refilling the decode-ahead buffer
    /// from `ctx`'s generator when it runs dry). Returns `true` if the warp
    /// retired; the caller must then [`WarpSlots::release`] the slot.
    ///
    /// # Panics
    /// Panics if the slot's warp is not ready at `now` (the scheduler must
    /// only select ready warps).
    // The issue path threads the per-run context explicitly instead of
    // bundling it in a struct: every parameter is a distinct hot borrow.
    #[allow(clippy::too_many_arguments)]
    pub fn issue(
        &mut self,
        slot: usize,
        sm: usize,
        now: u64,
        ctx: &mut WarpContext,
        mem: &mut MemorySystem,
        cfg: &GpuConfig,
        counters: &mut RawCounters,
    ) -> bool {
        assert!(
            self.ready[slot] <= now,
            "scheduler issued a warp that was not ready"
        );
        let pos = self.ibuf_pos[slot] as usize;
        debug_assert!(pos < self.ibuf_len[slot] as usize);
        let p = self.ibuf[slot * IBUF + pos];

        // Stall attribution for the cycles since the previous issue.
        counters.charge_issue_gap(self.dep[slot], self.last_issue[slot], self.ready[slot], now);

        // ---- execute ----
        counters.insts_issued += 1;
        match p.op() {
            Op::Alu => {
                let lat = if p.arg == 0 { cfg.alu_latency } else { p.arg };
                self.board_set(slot, p.reg0(), now + lat, false);
            }
            Op::Load(space) => {
                counters.load_insts += 1;
                if space == MemSpace::Local {
                    counters.local_load_insts += 1;
                }
                let (done, _outcome) = mem.load(sm, space, p.arg, now);
                self.board_set(slot, p.reg0(), done, space.is_long_scoreboard());
            }
            Op::Store(space) => {
                counters.store_insts += 1;
                mem.store(sm, space, p.arg, p.bytes(), now);
            }
            Op::Prefetch => {
                counters.prefetch_insts += 1;
                mem.prefetch(sm, p.arg, now);
            }
        }

        self.last_issue[slot] = now;

        // ---- advance the decode-ahead buffer ----
        let mut next = pos + 1;
        if next == self.ibuf_len[slot] as usize {
            next = 0;
            let len = if ctx.prog_done {
                0
            } else {
                self.refill(slot, ctx)
            };
            if len == 0 {
                ctx.exited = true;
                self.ibuf_len[slot] = 0;
                self.ibuf_pos[slot] = 0;
                return true;
            }
            self.ibuf_len[slot] = len as u8;
        }
        self.ibuf_pos[slot] = next as u8;

        let head = self.ibuf[slot * IBUF + next];
        let (ready, kind) = self.packed_readiness(slot, head);
        // An instruction can never issue in the same cycle as (or before)
        // its predecessor.
        self.ready[slot] = ready.max(now + 1);
        self.dep[slot] = kind;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Instruction, SrcSet};
    use crate::launch::VecProgram;

    fn info() -> WarpInfo {
        WarpInfo {
            block_id: 0,
            warp_in_block: 0,
            warps_per_block: 8,
            threads_per_block: 256,
            global_warp_id: 0,
            sm_id: 0,
        }
    }

    /// One warp spawned into a single-smsp arena, issued directly.
    struct Harness {
        slots: WarpSlots,
        ctx: WarpContext,
        slot: Option<usize>,
        mem: MemorySystem,
        cfg: GpuConfig,
        counters: RawCounters,
    }

    impl Harness {
        fn ready_at(&self) -> u64 {
            self.slots.ready_at(self.slot.unwrap())
        }

        fn is_ready(&self, now: u64) -> bool {
            !self.ctx.is_exited() && self.ready_at() <= now
        }

        fn issue(&mut self, now: u64) -> bool {
            let slot = self.slot.unwrap();
            let retired = self.slots.issue(
                slot,
                0,
                now,
                &mut self.ctx,
                &mut self.mem,
                &self.cfg,
                &mut self.counters,
            );
            if retired {
                self.slots.release(slot);
            }
            retired
        }
    }

    fn make_warp(insts: Vec<Instruction>) -> Harness {
        let cfg = GpuConfig::test_small();
        let mem = MemorySystem::new(&cfg);
        let mut slots = WarpSlots::new(1, 2);
        let mut ctx = WarpContext::new(info(), Box::new(VecProgram::new(insts)), 0);
        let slot = slots.spawn(0, 0, 0, &mut ctx, 0).map(|s| s as usize);
        Harness {
            slots,
            ctx,
            slot,
            mem,
            cfg,
            counters: RawCounters::default(),
        }
    }

    #[test]
    fn empty_program_exits_immediately() {
        let h = make_warp(vec![]);
        assert!(h.ctx.is_exited());
        assert!(h.slot.is_none());
    }

    #[test]
    fn load_use_dependency_accrues_long_scoreboard_stall() {
        let insts = vec![
            Instruction::global_load(0, 1, 128),
            Instruction::Alu {
                dst: 2,
                srcs: SrcSet::two(1, 2),
                latency: 0,
            },
        ];
        let mut h = make_warp(insts);

        // Issue the load at cycle 1.
        assert!(h.is_ready(1));
        h.issue(1);
        // The dependent add is not ready until the DRAM access returns.
        assert!(!h.is_ready(2));
        let ready = h.ready_at();
        assert!(
            ready > h.cfg.dram.latency,
            "dependent use must wait for DRAM"
        );
        h.issue(ready);
        assert!(h.counters.long_scoreboard_cycles > 400);
        assert_eq!(h.counters.insts_issued, 2);
        assert_eq!(h.counters.load_insts, 1);
    }

    #[test]
    fn independent_alu_ops_issue_back_to_back() {
        let insts = (1..=3u8)
            .map(|dst| Instruction::Alu {
                dst,
                srcs: SrcSet::none(),
                latency: 0,
            })
            .collect();
        let mut h = make_warp(insts);
        for cycle in 1..=3 {
            assert!(h.is_ready(cycle));
            h.issue(cycle);
        }
        assert_eq!(h.counters.long_scoreboard_cycles, 0);
        assert_eq!(h.counters.short_scoreboard_cycles, 0);
        assert!(h.ctx.is_exited());
    }

    #[test]
    fn alu_dependency_is_short_scoreboard() {
        let insts = vec![
            Instruction::Alu {
                dst: 1,
                srcs: SrcSet::none(),
                latency: 8,
            },
            Instruction::Alu {
                dst: 2,
                srcs: SrcSet::one(1),
                latency: 0,
            },
        ];
        let mut h = make_warp(insts);
        h.issue(1);
        let ready = h.ready_at();
        assert_eq!(ready, 9);
        h.issue(ready);
        assert_eq!(h.counters.short_scoreboard_cycles, 7);
        assert_eq!(h.counters.long_scoreboard_cycles, 0);
    }

    #[test]
    fn not_selected_stall_when_issue_is_delayed_past_readiness() {
        let insts = vec![
            Instruction::Alu {
                dst: 1,
                srcs: SrcSet::none(),
                latency: 0,
            },
            Instruction::Alu {
                dst: 2,
                srcs: SrcSet::none(),
                latency: 0,
            },
        ];
        let mut h = make_warp(insts);
        h.issue(1);
        // Warp is ready at cycle 2 but the scheduler picks it only at 10.
        assert!(h.is_ready(2));
        h.issue(10);
        assert_eq!(h.counters.not_selected_cycles, 8);
    }

    #[test]
    fn prefetch_does_not_block_the_warp() {
        let insts = vec![
            Instruction::Prefetch {
                line: 0,
                addr_dep: None,
            },
            Instruction::Alu {
                dst: 1,
                srcs: SrcSet::none(),
                latency: 0,
            },
        ];
        let mut h = make_warp(insts);
        h.issue(1);
        // Next instruction is ready on the very next cycle.
        assert!(h.is_ready(2));
        h.issue(2);
        assert_eq!(h.counters.prefetch_insts, 1);
        assert_eq!(h.counters.long_scoreboard_cycles, 0);
    }

    #[test]
    fn store_waits_for_its_source() {
        let insts = vec![
            Instruction::global_load(0, 7, 128),
            Instruction::Store {
                space: MemSpace::Global,
                line: 4096,
                src: 7,
                bytes: 128,
            },
        ];
        let mut h = make_warp(insts);
        h.issue(1);
        assert!(h.ready_at() > 100, "store must wait for the loaded value");
        let r = h.ready_at();
        h.issue(r);
        assert_eq!(h.counters.store_insts, 1);
    }

    #[test]
    #[should_panic(expected = "not ready")]
    fn issuing_unready_warp_panics() {
        let insts = vec![
            Instruction::Alu {
                dst: 1,
                srcs: SrcSet::none(),
                latency: 10,
            },
            Instruction::Alu {
                dst: 2,
                srcs: SrcSet::one(1),
                latency: 0,
            },
        ];
        let mut h = make_warp(insts);
        h.issue(1);
        h.issue(2);
    }

    #[test]
    fn programs_longer_than_the_decode_buffer_refill_and_retire() {
        let n = IBUF * 3 + 2;
        let insts = (0..n)
            .map(|_| Instruction::Alu {
                dst: 1,
                srcs: SrcSet::none(),
                latency: 0,
            })
            .collect();
        let mut h = make_warp(insts);
        let mut issued = 0u64;
        let mut cycle = 1;
        while !h.ctx.is_exited() {
            assert!(h.is_ready(cycle));
            h.issue(cycle);
            issued += 1;
            cycle += 1;
        }
        assert_eq!(issued, n as u64);
        assert_eq!(h.counters.insts_issued, n as u64);
    }

    #[test]
    fn reused_slot_starts_with_a_clean_scoreboard() {
        let cfg = GpuConfig::test_small();
        let mut mem = MemorySystem::new(&cfg);
        let mut slots = WarpSlots::new(1, 1);
        let mut counters = RawCounters::default();
        // First occupant leaves register 5 pending far in the future.
        let first = vec![Instruction::Alu {
            dst: 5,
            srcs: SrcSet::none(),
            latency: 1000,
        }];
        let mut ctx = WarpContext::new(info(), Box::new(VecProgram::new(first)), 0);
        let slot = slots.spawn(0, 0, 0, &mut ctx, 0).unwrap() as usize;
        assert!(slots.issue(slot, 0, 1, &mut ctx, &mut mem, &cfg, &mut counters));
        slots.release(slot);
        // Second occupant reads register 5: must see it ready immediately.
        let second = vec![
            Instruction::Alu {
                dst: 1,
                srcs: SrcSet::one(5),
                latency: 0,
            },
            Instruction::Alu {
                dst: 2,
                srcs: SrcSet::one(5),
                latency: 0,
            },
        ];
        let mut ctx2 = WarpContext::new(info(), Box::new(VecProgram::new(second)), 10);
        let slot2 = slots.spawn(0, 1, 0, &mut ctx2, 10).unwrap() as usize;
        assert_eq!(slot2, slot, "single-slot arena must reuse the slot");
        assert_eq!(slots.ready_at(slot2), 11);
        slots.issue(slot2, 0, 11, &mut ctx2, &mut mem, &cfg, &mut counters);
        assert_eq!(
            slots.ready_at(slot2),
            12,
            "stale scoreboard entry leaked into the reused slot"
        );
    }
}

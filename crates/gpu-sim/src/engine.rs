//! The simulation engine: dispatches thread blocks onto SMs, drives warp
//! issue, and assembles [`KernelStats`].
//!
//! Two observably identical execution loops are provided:
//!
//! * [`EngineMode::CycleAccurate`] — the reference loop. Every device cycle,
//!   every SM sub-partition is polled for a ready warp. Simple, obviously
//!   correct, and kept deliberately free of the event-driven loop's
//!   machinery so it stays a trustworthy oracle.
//! * [`EngineMode::EventDriven`] — the default. Each sub-partition exposes
//!   the earliest cycle at which it can issue; the engine keeps those
//!   deadlines in a flat per-sub-partition array (`sched`) indexed by a
//!   bitset calendar wheel (`DeadlineWheel` in `wheel.rs`), jumps the
//!   clock straight to the next deadline, and touches only the
//!   sub-partitions that can actually issue there. Sub-partitions whose
//!   warps are all waiting on memory cost nothing until their responses
//!   arrive, and finding the next deadline costs near-constant time per
//!   clock jump instead of a scan over every sub-partition.
//!
//! # Hot-state layout
//!
//! All per-issue warp state lives in the struct-of-arrays [`WarpSlots`]
//! arena (see `warp.rs`): each sub-partition owns a fixed contiguous slot
//! range, so scheduler scans and issue bookkeeping touch dense, reused
//! cache lines instead of striding across boxed per-warp objects. The
//! cold tail (program generator, identity, retirement flags) stays in
//! [`WarpContext`]. All of it is allocated once per [`Simulator`] in an
//! `EngineWorkspace` that is recycled across runs, so repeated cells
//! skip re-allocation entirely.
//!
//! # Bucketed deadline queue
//!
//! Deadlines live in two places that must agree: `sched[idx]` holds each
//! sub-partition's authoritative next-issue cycle, and the
//! `DeadlineWheel` (`wheel.rs`) is a bitset calendar over the next 1024
//! cycles (plus a `far` overflow bucket) used only to *find* the next
//! deadline. The wheel's bits may be stale — a re-armed sub-partition
//! leaves its old bit behind — but never missing: every `sched[idx]` value
//! has a bit at its row (or sits in `far`). `next_deadline` clears stale
//! bits as it scans and drains whole rows at once, so a drained row
//! contains exactly the sub-partitions whose `sched` equals that cycle,
//! in ascending flat-index order (invariant 2 below for free). See
//! `wheel.rs` for the full invariant list.
//!
//! # Bit-exactness invariants
//!
//! The two modes produce **bit-identical** [`KernelStats`] (cycles, issue
//! and stall counters, cache and DRAM counters). The invariants that make
//! this hold, and that any future scheduler change must preserve:
//!
//! 1. A sub-partition issues at most one warp per cycle, and its next issue
//!    opportunity is fully determined by its own resident warps' `ready_at`
//!    cycles — so `max(min ready_at, last issue + 1)` is exactly the next
//!    cycle on which the cycle-accurate loop would pick a warp from it.
//! 2. Within one cycle, sub-partitions issue in `(sm, smsp)` order. Wheel
//!    rows are scanned bit-ascending (= flat-index-ascending), so draining
//!    a deadline row preserves the order of memory-system side effects
//!    (cache state, DRAM queueing).
//! 3. Warps created by a block dispatched at cycle `t` first become ready at
//!    `t + 1` or later, so a dispatch can never add work to the cycle that
//!    triggered it.
//!
//! # The serial issue walk and the commit-point rule
//!
//! At each clock jump to cycle `t` the event-driven loop drains the wheel
//! row for `t` and walks its sub-partitions in ascending `(sm, smsp)`
//! order. For each one it selects a warp and, in the same pass over the
//! slot range, computes the minimum `ready_at` of the remaining slots
//! ([`Schedulers::select_and_min`]), then immediately commits the choice
//! through `commit_candidate`. Selecting and committing one sub-partition
//! at a time means every scan sees the state left by every earlier commit
//! of the same cycle, exactly as the cycle-accurate loop does: in
//! particular, the minimum a sub-partition re-arms from includes any
//! replacement-block warps an earlier same-cycle commit dispatched into it.
//!
//! `commit_candidate` is the commit point, and the **commit-point rule** is
//! that anything mutating shared engine state goes through it: every
//! memory-system side effect, counter update, replacement dispatch and
//! deadline re-arm happens there, one sub-partition at a time, in
//! ascending `(sm, smsp)` order. Its re-arm folds the issued warp's new
//! `ready_at` and any replacement warps dispatched into the same
//! sub-partition into the scan's minimum, so re-arming needs no second
//! pass over the slot range.
//!
//! The commit also records the pick with its other-slot minimum
//! ([`Schedulers::commit_with_min`]), so the sub-partition's next greedy
//! re-issue needs no scan at all. Only a spawn can change another slot's
//! `ready_at` before that re-issue, so `Run::dispatch_block` folds every
//! spawned warp's ready cycle into its sub-partition's recorded minimum
//! ([`Schedulers::note_spawn`]); that fold is the one piece of upkeep the
//! cached minimum needs. The cycle-accurate loop uses the plain
//! `select`/`commit` pair and shares none of this.
//!
//! # Concurrent kernel streams
//!
//! [`Simulator::run_concurrent`] runs K kernels as co-resident streams on
//! one device, sharing the memory hierarchy (and therefore contending for
//! L2 capacity and DRAM bandwidth). Two residency policies exist
//! ([`StreamPartition`]):
//!
//! * **SM-partitioned** (MIG-style): each stream owns a contiguous,
//!   disjoint slice of the device's SMs. L1 caches are private per stream
//!   because warps route memory through their home SM's L1.
//! * **Interleaved** (MPS-style): every stream dispatches blocks onto every
//!   SM and their warps compete for the same sub-partition issue slots;
//!   each stream's residency is capped at `max(1, blocks_per_sm / K)`
//!   blocks per SM so K streams roughly share the occupancy budget.
//!
//! The stream dimension is a restructuring of launch/occupancy/statistics
//! bookkeeping, not a new engine: both execution loops are stream-agnostic
//! and preserve invariants 1–3 unchanged, so the engine modes stay
//! bit-identical at every K. A single-stream `run_concurrent` call executes
//! the exact issue/dispatch sequence of [`Simulator::run_with_memory`]
//! (which now delegates to it), keeping K=1 bit-exact with the historical
//! single-stream path.
//!
//! Per-stream statistics: issue/stall counters, occupancy and elapsed
//! cycles are exact per stream (a stream's `elapsed_cycles` run from the
//! shared `start_cycle` to the retirement of its last warp). Cache and DRAM
//! counters are device-wide deltas over that same window — with K > 1 the
//! windows overlap, so shared-level counters describe the device while the
//! stream ran, not the stream's own traffic.

use std::sync::Mutex;

use crate::config::GpuConfig;
use crate::contract::EngineContract;
use crate::launch::{KernelLaunch, KernelProgram, WarpInfo};
use crate::mem::MemorySystem;
use crate::occupancy::Occupancy;
use crate::sm::{Schedulers, SmState};
use crate::stats::{KernelStats, RawCounters};
use crate::warp::{WarpContext, WarpSlots};
use crate::wheel::DeadlineWheel;

/// Hard safety bound on simulated cycles per kernel; reaching it indicates a
/// livelocked program and aborts the simulation with a panic.
const MAX_CYCLES: u64 = 50_000_000_000;

/// Which execution loop [`Simulator`] uses. Both produce identical
/// statistics; see the module documentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineMode {
    /// Poll every SM sub-partition every cycle (reference loop).
    CycleAccurate,
    /// Jump the clock between per-sub-partition issue deadlines (default).
    #[default]
    EventDriven,
}

impl EngineMode {
    /// Stable machine-readable name (used in benchmark reports).
    pub fn name(&self) -> &'static str {
        match self {
            EngineMode::CycleAccurate => "cycle_accurate",
            EngineMode::EventDriven => "event_driven",
        }
    }
}

/// How K co-resident kernel streams share one device in
/// [`Simulator::run_concurrent`]; see the module documentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StreamPartition {
    /// Each stream owns a disjoint, contiguous subset of the SMs
    /// (MIG-style spatial partitioning).
    #[default]
    SmPartitioned,
    /// All streams share every SM and compete for issue slots
    /// (MPS-style temporal sharing).
    Interleaved,
}

impl StreamPartition {
    /// Every partition policy, for sweeps.
    pub const ALL: [StreamPartition; 2] =
        [StreamPartition::SmPartitioned, StreamPartition::Interleaved];

    /// Stable machine-readable name (used in fingerprints and reports).
    pub fn name(&self) -> &'static str {
        match self {
            StreamPartition::SmPartitioned => "sm_partitioned",
            StreamPartition::Interleaved => "interleaved",
        }
    }
}

impl std::fmt::Display for StreamPartition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The GPU simulator: owns a device configuration and runs kernels on it.
pub struct Simulator {
    cfg: GpuConfig,
    mode: EngineMode,
    /// Recycled engine state: arenas, queues and scratch buffers sized by
    /// the previous run, handed back at run end so repeated cells skip
    /// re-allocation. `None` until the first run (or while a run borrows
    /// it; a concurrent run on the same simulator just starts fresh).
    ws: Mutex<Option<Box<EngineWorkspace>>>,
    /// Test-only fault injection: deliberately issue a second warp from the
    /// same sub-partition in the same cycle, to prove the contract checker
    /// trips (see `contract_checker_trips_on_double_issue`).
    #[cfg(all(test, feature = "contract-checks"))]
    double_issue_sabotage: bool,
    /// Test-only fault injection: skip folding spawned warps into the
    /// cached other-slot minimum (see
    /// `contract_checker_trips_on_a_stale_cached_minimum`).
    #[cfg(all(test, feature = "contract-checks"))]
    spawn_fold_sabotage: bool,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("cfg", &self.cfg)
            .field("mode", &self.mode)
            .finish()
    }
}

impl Clone for Simulator {
    fn clone(&self) -> Self {
        Simulator {
            cfg: self.cfg.clone(),
            mode: self.mode,
            // The workspace is a cache, not state: clones start cold.
            ws: Mutex::new(None),
            #[cfg(all(test, feature = "contract-checks"))]
            double_issue_sabotage: self.double_issue_sabotage,
            #[cfg(all(test, feature = "contract-checks"))]
            spawn_fold_sabotage: self.spawn_fold_sabotage,
        }
    }
}

impl Simulator {
    /// Creates a simulator for the given device, using the event-driven
    /// engine.
    pub fn new(cfg: GpuConfig) -> Self {
        Simulator {
            cfg,
            mode: EngineMode::EventDriven,
            ws: Mutex::new(None),
            #[cfg(all(test, feature = "contract-checks"))]
            double_issue_sabotage: false,
            #[cfg(all(test, feature = "contract-checks"))]
            spawn_fold_sabotage: false,
        }
    }

    /// Enables the deliberate one-issue-per-cycle violation used to test
    /// the contract checker.
    #[cfg(all(test, feature = "contract-checks"))]
    fn with_double_issue_sabotage(mut self) -> Self {
        self.double_issue_sabotage = true;
        self
    }

    /// Enables the deliberately stale cached minimum used to test the
    /// contract checker.
    #[cfg(all(test, feature = "contract-checks"))]
    fn with_spawn_fold_sabotage(mut self) -> Self {
        self.spawn_fold_sabotage = true;
        self
    }

    /// Returns a copy of this simulator using the given engine mode.
    pub fn with_mode(mut self, mode: EngineMode) -> Self {
        self.mode = mode;
        self
    }

    /// The engine mode this simulator runs.
    pub fn mode(&self) -> EngineMode {
        self.mode
    }

    /// The device configuration this simulator uses.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Borrows the recycled workspace (fresh if this is the first run or
    /// another run on this simulator currently holds it).
    fn take_workspace(&self) -> Box<EngineWorkspace> {
        self.ws
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .take()
            .unwrap_or_default()
    }

    /// Returns the workspace for the next run to recycle.
    fn put_workspace(&self, ws: Box<EngineWorkspace>) {
        *self.ws.lock().unwrap_or_else(|p| p.into_inner()) = Some(ws);
    }

    /// Runs a kernel on a cold memory hierarchy and returns its statistics.
    pub fn run(&self, launch: &KernelLaunch, program: &dyn KernelProgram) -> KernelStats {
        let mut mem = MemorySystem::new(&self.cfg);
        self.run_with_memory(launch, program, &mut mem, 0)
    }

    /// Runs a kernel against an existing memory system (so cache contents —
    /// including L2-pinned lines — persist across kernels), starting the
    /// device clock at `start_cycle`. The returned statistics are relative to
    /// this kernel only.
    pub fn run_with_memory(
        &self,
        launch: &KernelLaunch,
        program: &dyn KernelProgram,
        mem: &mut MemorySystem,
        start_cycle: u64,
    ) -> KernelStats {
        self.run_concurrent(
            &[(launch, program)],
            StreamPartition::SmPartitioned,
            mem,
            start_cycle,
        )
        .pop()
        .expect("one stream produces one statistics record")
    }

    /// Runs K kernels as concurrently resident streams against one memory
    /// system, returning one [`KernelStats`] per stream (in input order).
    ///
    /// The streams share L2 and DRAM; `partition` decides whether they split
    /// the SMs (MIG-style) or interleave on all of them (MPS-style). With a
    /// single kernel this is exactly [`Simulator::run_with_memory`] under
    /// either policy. See the module documentation for the statistics
    /// semantics at K > 1.
    ///
    /// # Panics
    /// Panics if no kernel is given, if more streams are requested than
    /// [`GpuConfig::max_concurrent_streams`], or (SM-partitioned) if there
    /// are more streams than SMs.
    pub fn run_concurrent(
        &self,
        kernels: &[(&KernelLaunch, &dyn KernelProgram)],
        partition: StreamPartition,
        mem: &mut MemorySystem,
        start_cycle: u64,
    ) -> Vec<KernelStats> {
        assert!(
            !kernels.is_empty(),
            "run_concurrent needs at least one kernel stream"
        );
        assert!(
            kernels.len() <= self.cfg.max_concurrent_streams,
            "device '{}' supports at most {} concurrent streams (asked for {})",
            self.cfg.name,
            self.cfg.max_concurrent_streams,
            kernels.len()
        );
        if partition == StreamPartition::SmPartitioned {
            assert!(
                kernels.len() <= self.cfg.num_sms,
                "cannot SM-partition {} streams across {} SMs",
                kernels.len(),
                self.cfg.num_sms
            );
        }

        let start_snap = MemSnapshot::take(mem);
        let mut ws = self.take_workspace();
        let mut run = Run::new(&self.cfg, kernels, partition, start_cycle, &mut ws);
        #[cfg(all(test, feature = "contract-checks"))]
        {
            run.double_issue = self.double_issue_sabotage;
            run.skip_spawn_fold = self.spawn_fold_sabotage;
        }
        let end_cycle = match self.mode {
            EngineMode::CycleAccurate => run.run_cycle_accurate(mem, start_cycle),
            EngineMode::EventDriven => run.run_event_driven(mem, start_cycle),
        };

        // Account residency for any warps that never retired (impossible in
        // practice but keeps the accounting robust).
        for wid in 0..run.ws.warps.len() {
            if !run.ws.warps[wid].is_exited() {
                let (_, stream, _) = run.ws.warp_home[wid];
                run.streams[stream].counters.resident_warp_cycles +=
                    end_cycle.saturating_sub(run.ws.warps[wid].spawn_cycle);
            }
        }

        let final_snap = MemSnapshot::take(mem);
        let stats = run
            .streams
            .iter()
            .map(|s| {
                let (end, snap) = s.end.unwrap_or((end_cycle, final_snap));
                let mut stats = KernelStats::empty(&s.launch.name, &s.view);
                stats.set_occupancy(&s.occ);
                stats.elapsed_cycles = end.saturating_sub(start_cycle);
                stats.counters = s.counters;
                stats.l1_accesses = snap.l1_accesses - start_snap.l1_accesses;
                stats.l1_hits = snap.l1_hits - start_snap.l1_hits;
                stats.l2_accesses = snap.l2_accesses - start_snap.l2_accesses;
                stats.l2_hits = snap.l2_hits - start_snap.l2_hits;
                stats.dram_bytes_read = snap.dram_bytes_read - start_snap.dram_bytes_read;
                stats.dram_bytes_written = snap.dram_bytes_written - start_snap.dram_bytes_written;
                stats
            })
            .collect();
        drop(run);
        self.put_workspace(ws);
        stats
    }
}

/// A snapshot of the memory hierarchy's cumulative counters, used to report
/// per-window deltas.
#[derive(Debug, Clone, Copy)]
struct MemSnapshot {
    l1_accesses: u64,
    l1_hits: u64,
    l2_accesses: u64,
    l2_hits: u64,
    dram_bytes_read: u64,
    dram_bytes_written: u64,
}

impl MemSnapshot {
    fn take(mem: &MemorySystem) -> Self {
        let (l1_accesses, l1_hits) = mem.l1_totals();
        MemSnapshot {
            l1_accesses,
            l1_hits,
            l2_accesses: mem.l2().stats.accesses,
            l2_hits: mem.l2().stats.hits,
            dram_bytes_read: mem.dram().bytes_read,
            dram_bytes_written: mem.dram().bytes_written,
        }
    }
}

/// Packs a stream index and the stream's own block id into the opaque block
/// key [`SmState`] tracks, so co-resident streams never collide.
fn block_key(stream: usize, block: u32) -> u64 {
    ((stream as u64) << 32) | block as u64
}

/// Recycled engine state: every allocation whose size is bound by the
/// launch (warp arenas, slot arrays, deadline queues, scratch buffers).
/// Lives on the [`Simulator`] between runs so repeated cells re-use — and
/// keep hot — the same memory.
#[derive(Default)]
struct EngineWorkspace {
    /// Cold per-warp state, indexed by arena warp id.
    warps: Vec<WarpContext>,
    /// Which (SM, stream, block) each warp belongs to.
    warp_home: Vec<(usize, usize, u32)>,
    /// Struct-of-arrays hot state of every resident warp.
    slots: WarpSlots,
    /// Greedy pointers of every sub-partition.
    sched_state: Schedulers,
    /// Per-SM block bookkeeping and placement cursors.
    sms: Vec<SmState>,
    /// Authoritative next issue deadline per flat sub-partition
    /// (`u64::MAX` = no active warps).
    sched: Vec<u64>,
    /// Calendar-queue index over `sched` (bits may be stale, never missing).
    wheel: DeadlineWheel,
    /// Scratch: the deadline row being drained.
    row: Vec<u64>,
    /// `(smsp, slot)` placements of the most recent block dispatch
    /// (`u32::MAX` slot = the warp exited at spawn and claimed no slot).
    placements: Vec<(usize, u32)>,
    /// SM id of each flat sub-partition (`idx / smsps_per_sm` without the
    /// per-commit division).
    sm_of: Vec<u32>,
}

impl EngineWorkspace {
    /// Re-sizes everything for a new run, keeping allocations. `cap` is the
    /// exact per-sub-partition slot bound derived from the streams'
    /// occupancy caps (see [`Run::new`]); `total_warps` is the total number
    /// of warps the run will ever create.
    fn reset(&mut self, cfg: &GpuConfig, cap: usize, total_warps: usize, start_cycle: u64) {
        let n = cfg.num_sms * cfg.smsps_per_sm;
        self.warps.clear();
        self.warps.reserve(total_warps);
        self.warp_home.clear();
        self.warp_home.reserve(total_warps);
        self.slots.reset(n, cap);
        self.sched_state.reset(n);
        self.sms.truncate(cfg.num_sms);
        for sm in self.sms.iter_mut() {
            sm.reset(cfg.smsps_per_sm);
        }
        while self.sms.len() < cfg.num_sms {
            self.sms.push(SmState::new(cfg.smsps_per_sm));
        }
        self.sched.clear();
        self.sched.resize(n, u64::MAX);
        self.wheel.reset(n, start_cycle);
        self.row.clear();
        self.placements.clear();
        self.sm_of.clear();
        self.sm_of
            .extend((0..n).map(|idx| (idx / cfg.smsps_per_sm) as u32));
    }
}

/// Per-stream launch state: one kernel of a (possibly concurrent) run.
struct StreamRun<'a> {
    launch: &'a KernelLaunch,
    program: &'a dyn KernelProgram,
    /// Device view this stream's occupancy and statistics are computed
    /// against: its SM slice when partitioned, the whole device otherwise.
    view: GpuConfig,
    occ: Occupancy,
    /// Residency cap per SM for this stream (`occ.blocks_per_sm`, split K
    /// ways for interleaved streams).
    blocks_cap: u32,
    /// First global SM id this stream may dispatch onto.
    sm_base: usize,
    /// Number of contiguous SMs from `sm_base` this stream may use.
    sm_count: usize,
    /// Resident blocks of *this stream* per local SM (index `sm - sm_base`).
    resident: Vec<u32>,
    counters: RawCounters,
    next_block: u32,
    total_blocks: u32,
    warps_per_block: u32,
    active_warps: u64,
    /// Completion cycle and memory snapshot, recorded when the stream's last
    /// warp retires.
    end: Option<(u64, MemSnapshot)>,
}

/// Mutable state of one (possibly multi-stream) kernel execution, shared by
/// both engine loops.
struct Run<'a> {
    cfg: &'a GpuConfig,
    streams: Vec<StreamRun<'a>>,
    /// Display label for diagnostics ("+"-joined kernel names).
    label: String,
    /// The simulator's recycled arenas and scratch buffers.
    ws: &'a mut EngineWorkspace,
    active_warps: u64,
    /// Scheduler-contract checker; a zero-sized no-op unless the
    /// `contract-checks` feature is enabled.
    contract: EngineContract,
    /// Test-only fault injection (see [`Simulator`]).
    #[cfg(all(test, feature = "contract-checks"))]
    double_issue: bool,
    /// Test-only fault injection (see [`Simulator`]).
    #[cfg(all(test, feature = "contract-checks"))]
    skip_spawn_fold: bool,
}

impl<'a> Run<'a> {
    fn new(
        cfg: &'a GpuConfig,
        kernels: &[(&'a KernelLaunch, &'a dyn KernelProgram)],
        partition: StreamPartition,
        start_cycle: u64,
        ws: &'a mut EngineWorkspace,
    ) -> Self {
        let k = kernels.len();
        // Contiguous, near-even SM split for partitioned streams; every
        // stream sees the whole device when interleaved.
        let mut streams = Vec::with_capacity(k);
        let mut next_base = 0usize;
        for (i, &(launch, program)) in kernels.iter().enumerate() {
            let (sm_base, sm_count) = match partition {
                StreamPartition::SmPartitioned => {
                    let count = cfg.num_sms / k + usize::from(i < cfg.num_sms % k);
                    let base = next_base;
                    next_base += count;
                    (base, count)
                }
                StreamPartition::Interleaved => (0, cfg.num_sms),
            };
            let view = cfg.clone().with_num_sms(sm_count);
            let occ = Occupancy::compute(&view, launch);
            let blocks_cap = match partition {
                StreamPartition::SmPartitioned => occ.blocks_per_sm,
                StreamPartition::Interleaved => (occ.blocks_per_sm / k as u32).max(1),
            };
            streams.push(StreamRun {
                launch,
                program,
                view,
                occ,
                blocks_cap,
                sm_base,
                sm_count,
                resident: vec![0; sm_count],
                counters: RawCounters::default(),
                next_block: 0,
                total_blocks: launch.grid_blocks,
                warps_per_block: occ.warps_per_block,
                active_warps: 0,
                end: None,
            });
        }

        // Exact per-sub-partition slot bound: a block places its warps
        // round-robin over one SM's sub-partitions in a single burst, so
        // each resident block contributes at most ceil(warps_per_block /
        // smsps_per_sm) warps to any one sub-partition, and each SM hosts
        // at most `blocks_cap` blocks per stream covering it.
        let cap = (0..cfg.num_sms)
            .map(|sm| {
                streams
                    .iter()
                    .filter(|s| sm >= s.sm_base && sm < s.sm_base + s.sm_count)
                    .map(|s| {
                        s.blocks_cap as usize
                            * (s.warps_per_block as usize).div_ceil(cfg.smsps_per_sm)
                    })
                    .sum::<usize>()
            })
            .max()
            .unwrap_or(0)
            .max(1);

        // Every block of every grid is eventually dispatched and its warps
        // stay in the arena until the kernel completes, so the final length
        // is known exactly up front.
        let total_warps: usize = streams
            .iter()
            .map(|s| s.total_blocks as usize * s.warps_per_block as usize)
            .sum();
        let label = kernels
            .iter()
            .map(|(l, _)| l.name.as_str())
            .collect::<Vec<_>>()
            .join("+");
        ws.reset(cfg, cap, total_warps, start_cycle);
        let mut run = Run {
            cfg,
            streams,
            label,
            ws,
            active_warps: 0,
            contract: EngineContract::new(cfg.num_sms, cfg.smsps_per_sm, start_cycle),
            #[cfg(all(test, feature = "contract-checks"))]
            double_issue: false,
            #[cfg(all(test, feature = "contract-checks"))]
            skip_spawn_fold: false,
        };

        // Initial wave: fill every SM of each stream up to the stream's
        // residency cap, round-robin over the stream's SMs the way the
        // GigaThread engine distributes blocks.
        for s in 0..run.streams.len() {
            'outer: for _slot in 0..run.streams[s].blocks_cap {
                for local in 0..run.streams[s].sm_count {
                    if run.streams[s].next_block >= run.streams[s].total_blocks {
                        break 'outer;
                    }
                    let sm_id = run.streams[s].sm_base + local;
                    let block = run.streams[s].next_block;
                    run.streams[s].next_block += 1;
                    run.dispatch_block(s, sm_id, block, start_cycle);
                }
            }
        }

        run.recount_active_warps();
        // Warps whose programs are empty retire instantly; account for their
        // blocks so replacement blocks can still be dispatched.
        for wid in 0..run.ws.warps.len() {
            if run.ws.warps[wid].is_exited() {
                let (sm_id, stream, block_id) = run.ws.warp_home[wid];
                if run.ws.sms[sm_id].warp_retired(block_key(stream, block_id)) {
                    let local = sm_id - run.streams[stream].sm_base;
                    run.streams[stream].resident[local] -= 1;
                }
            }
        }
        run
    }

    /// Recomputes the global and per-stream active-warp counts from the
    /// arena (used at startup and after a degenerate refill).
    fn recount_active_warps(&mut self) {
        for s in self.streams.iter_mut() {
            s.active_warps = 0;
        }
        let mut total = 0u64;
        for wid in 0..self.ws.warps.len() {
            if !self.ws.warps[wid].is_exited() {
                let (_, stream, _) = self.ws.warp_home[wid];
                self.streams[stream].active_warps += 1;
                total += 1;
            }
        }
        self.active_warps = total;
    }

    /// Whether any stream still has undispatched blocks.
    fn blocks_pending(&self) -> bool {
        self.streams.iter().any(|s| s.next_block < s.total_blocks)
    }

    /// Dispatches one thread block of `stream` onto `sm_id` at `cycle`,
    /// recording the placements of its warps in the workspace's
    /// `placements` buffer and folding each spawned warp into its
    /// sub-partition's cached other-slot minimum.
    fn dispatch_block(&mut self, stream: usize, sm_id: usize, block_id: u32, cycle: u64) {
        let warps_per_block = self.streams[stream].warps_per_block;
        let threads_per_block = self.streams[stream].launch.threads_per_block;
        self.ws.sms[sm_id].begin_block(block_key(stream, block_id), warps_per_block);
        self.streams[stream].counters.blocks_launched += 1;
        let local = sm_id - self.streams[stream].sm_base;
        self.streams[stream].resident[local] += 1;
        self.ws.placements.clear();
        for w in 0..warps_per_block {
            let info = WarpInfo {
                block_id,
                warp_in_block: w,
                warps_per_block,
                threads_per_block,
                global_warp_id: block_id as u64 * warps_per_block as u64 + w as u64,
                sm_id: sm_id as u32,
            };
            let mut ctx =
                WarpContext::new(info, self.streams[stream].program.warp_program(info), cycle);
            self.streams[stream].counters.warps_launched += 1;
            let wid = self.ws.warps.len();
            assert!(wid < u32::MAX as usize, "warp arena overflow");
            // The rotation cursor advances for every spawned warp — even one
            // that exits instantly and claims no slot — so placement stays a
            // pure function of spawn order.
            let smsp = self.ws.sms[sm_id].next_rotation();
            let flat = sm_id * self.cfg.smsps_per_sm + smsp;
            let slot = self
                .ws
                .slots
                .spawn(flat, wid as u32, stream as u32, &mut ctx, cycle);
            let ready = slot.map_or(u64::MAX, |s| self.ws.slots.ready_at(s as usize));
            #[cfg(all(test, feature = "contract-checks"))]
            let fold = !self.skip_spawn_fold;
            #[cfg(not(all(test, feature = "contract-checks")))]
            let fold = true;
            if fold {
                self.ws.sched_state.note_spawn(flat, ready);
            }
            self.ws.warps.push(ctx);
            self.ws.warp_home.push((sm_id, stream, block_id));
            self.contract
                .on_dispatch(sm_id, smsp, ready, cycle, &self.ws.slots);
            self.ws.placements.push((smsp, slot.unwrap_or(u32::MAX)));
        }
    }

    /// Handles the degenerate "all resident warps retired but blocks remain"
    /// state (possible with empty warp programs): refills every stream at
    /// `cycle`. Returns `true` if the whole launch turned out to be empty
    /// and the engine should stop.
    fn degenerate_refill(&mut self, cycle: u64) -> bool {
        for s in 0..self.streams.len() {
            for local in 0..self.streams[s].sm_count {
                let sm_id = self.streams[s].sm_base + local;
                while self.streams[s].resident[local] < self.streams[s].blocks_cap
                    && self.streams[s].next_block < self.streams[s].total_blocks
                {
                    let block = self.streams[s].next_block;
                    self.streams[s].next_block += 1;
                    self.dispatch_block(s, sm_id, block, cycle);
                }
            }
        }
        let newly_active = self.ws.warps.iter().filter(|w| !w.is_exited()).count() as u64;
        if newly_active == 0 {
            // Every program in this launch is empty.
            for wid in 0..self.ws.warps.len() {
                if self.ws.warps[wid].is_exited() {
                    let (sm_id, stream, block_id) = self.ws.warp_home[wid];
                    if self.ws.sms[sm_id].warp_retired(block_key(stream, block_id)) {
                        let local = sm_id - self.streams[stream].sm_base;
                        self.streams[stream].resident[local] -= 1;
                    }
                }
            }
            return true;
        }
        self.recount_active_warps();
        false
    }

    /// Issues the warp in `slot` (already selected and committed by
    /// sub-partition `(sm, smsp)`) at cycle `now`, handling retirement,
    /// block completion and replacement dispatch. This is the engine's
    /// serialization point: every memory-system side effect happens here,
    /// and the event-driven loop calls it in ascending `(sm, smsp)` order
    /// within a cycle. Returns `true` if the warp retired.
    fn issue_selected(
        &mut self,
        slot: usize,
        sm: usize,
        smsp: usize,
        now: u64,
        mem: &mut MemorySystem,
    ) -> bool {
        let wid = self.ws.slots.wid(slot) as usize;
        let stream = self.ws.slots.stream_of(slot) as usize;
        self.contract
            .pre_issue(sm, smsp, now, self.ws.slots.ready_at(slot));
        let retired = {
            // Disjoint workspace fields: the slot arena mutates, the cold
            // warp tail refills its decode buffer.
            let ws = &mut *self.ws;
            ws.slots.issue(
                slot,
                sm,
                now,
                &mut ws.warps[wid],
                mem,
                self.cfg,
                &mut self.streams[stream].counters,
            )
        };
        if !retired {
            self.contract.post_issue(sm, smsp, &self.ws.slots);
            return false;
        }
        self.ws.slots.release(slot);
        self.active_warps -= 1;
        self.streams[stream].active_warps -= 1;
        self.streams[stream].counters.resident_warp_cycles +=
            now + 1 - self.ws.warps[wid].spawn_cycle;
        let (home_sm, _, block_id) = self.ws.warp_home[wid];
        let block_done = self.ws.sms[home_sm].warp_retired(block_key(stream, block_id));
        if block_done {
            let local = home_sm - self.streams[stream].sm_base;
            self.streams[stream].resident[local] -= 1;
        }
        if block_done && self.streams[stream].next_block < self.streams[stream].total_blocks {
            let block = self.streams[stream].next_block;
            self.streams[stream].next_block += 1;
            self.dispatch_block(stream, home_sm, block, now + 1);
            let newly = self
                .ws
                .placements
                .iter()
                .filter(|&&(_, s)| s != u32::MAX)
                .count() as u64;
            self.active_warps += newly;
            self.streams[stream].active_warps += newly;
        } else {
            self.ws.placements.clear();
        }
        if self.streams[stream].active_warps == 0
            && self.streams[stream].next_block >= self.streams[stream].total_blocks
            && self.streams[stream].end.is_none()
        {
            // The stream just finished: its last issue landed at `now`, so
            // its clock stops at `now + 1` (exactly where a single-stream
            // run's loop would exit).
            self.streams[stream].end = Some((now + 1, MemSnapshot::take(mem)));
        }
        self.contract.post_issue(sm, smsp, &self.ws.slots);
        true
    }

    /// The reference loop: poll every sub-partition every cycle, jumping the
    /// clock only when the whole device is stalled. Deliberately kept
    /// serial and queue-free so it stays an independent oracle for the
    /// event-driven loop.
    fn run_cycle_accurate(&mut self, mem: &mut MemorySystem, start_cycle: u64) -> u64 {
        let smsps_per_sm = self.cfg.smsps_per_sm;
        let n = self.cfg.num_sms * smsps_per_sm;
        let mut cycle = start_cycle;
        while self.active_warps > 0 || self.blocks_pending() {
            self.contract.on_clock(cycle);
            if self.active_warps == 0 && self.blocks_pending() {
                // All resident warps retired but blocks remain (can happen
                // with degenerate empty programs).
                if self.degenerate_refill(cycle) {
                    break;
                }
            }

            let mut issued_any = false;
            for idx in 0..n {
                let Some(slot) = self.ws.sched_state.select(&self.ws.slots, idx, cycle) else {
                    continue;
                };
                issued_any = true;
                let wid = self.ws.slots.wid(slot as usize);
                self.ws.sched_state.commit(idx, slot, wid);
                let (sm, smsp) = (idx / smsps_per_sm, idx % smsps_per_sm);
                self.issue_selected(slot as usize, sm, smsp, cycle, mem);
            }

            if issued_any {
                cycle += 1;
            } else {
                // Nothing could issue: fast-forward to the earliest cycle at
                // which any warp becomes ready.
                let next_ready = (0..n).filter_map(|i| self.ws.slots.min_ready_at(i)).min();
                match next_ready {
                    Some(c) if c > cycle => cycle = c,
                    _ => cycle += 1,
                }
            }

            assert!(
                cycle - start_cycle < MAX_CYCLES,
                "kernel '{}' exceeded {MAX_CYCLES} simulated cycles; the program is livelocked",
                self.label
            );
        }
        cycle
    }

    /// The event-driven loop: jump the clock straight to the earliest
    /// deadline in the calendar wheel, then select and commit every
    /// sub-partition scheduled there, one at a time in ascending
    /// `(sm, smsp)` order. See the module documentation for why this is
    /// bit-exact with [`Run::run_cycle_accurate`].
    fn run_event_driven(&mut self, mem: &mut MemorySystem, start_cycle: u64) -> u64 {
        let mut cycle = start_cycle;
        self.reschedule_all(cycle);

        loop {
            if self.active_warps == 0 && self.blocks_pending() {
                if self.degenerate_refill(cycle) {
                    break;
                }
                self.reschedule_all(cycle);
            }
            if self.active_warps == 0 {
                break;
            }
            let t = {
                let ws = &mut *self.ws;
                ws.wheel.next_deadline(cycle, &ws.sched)
            };
            let Some(t) = t else {
                debug_assert!(false, "active warps but no scheduled deadlines");
                break;
            };
            self.contract.on_clock(t);
            if t > cycle {
                // The clock is about to jump past `t - cycle` stalled
                // cycles; let the memory hierarchy retire the in-flight
                // fills whose reported deadlines have passed.
                mem.retire_completed_fills(t);
            }

            // Walk the drained row's bits in ascending (sm, smsp) order,
            // selecting and committing each scheduled sub-partition before
            // scanning the next (see the module documentation).
            self.ws.wheel.take_row_into(t, &mut self.ws.row);
            let n_words = self.ws.row.len();
            for w in 0..n_words {
                let mut bits = self.ws.row[w];
                while bits != 0 {
                    let b = bits & bits.wrapping_neg();
                    bits ^= b;
                    let idx = w * 64 + b.trailing_zeros() as usize;
                    // Every bit in a row returned by `next_deadline` is
                    // verified live, and a drained row cannot be re-entered
                    // (see `wheel.rs` invariants), so no staleness filter
                    // is needed here.
                    debug_assert_eq!(self.ws.sched[idx], t, "stale bit in drained wheel row");
                    let (pick, min_others) =
                        self.ws.sched_state.select_and_min(&self.ws.slots, idx, t);
                    self.contract.on_select(
                        idx,
                        t,
                        (pick, min_others),
                        &self.ws.sched_state,
                        &self.ws.slots,
                    );
                    self.commit_candidate(idx, pick, min_others, t, mem);
                }
            }

            cycle = t + 1;
            assert!(
                cycle - start_cycle < MAX_CYCLES,
                "kernel '{}' exceeded {MAX_CYCLES} simulated cycles; the program is livelocked",
                self.label
            );
        }
        cycle
    }

    /// Commits one scheduled sub-partition at cycle `t`: clears its
    /// deadline, issues `pick` (`u32::MAX` = nothing selected), seeds
    /// deadlines for any replacement-block warps the issue dispatched, and
    /// re-arms the sub-partition's next deadline clamped to `t + 1` (one
    /// issue per sub-partition per cycle). This is the single serialization
    /// point for memory-system side effects; callers invoke it in ascending
    /// `(sm, smsp)` order within a cycle.
    ///
    /// `min_others` is the minimum ready cycle over the sub-partition's
    /// slots *excluding* `pick` as computed by the selection scan
    /// (`select_and_min`). The re-arm folds in the only three things that
    /// can change between that scan and here — the pick's post-issue ready
    /// cycle, a retirement freeing the slot, and replacement-block warps
    /// dispatched into this very sub-partition — so no second pass over the
    /// slot range is needed.
    fn commit_candidate(
        &mut self,
        idx: usize,
        pick: u32,
        min_others: u64,
        t: u64,
        mem: &mut MemorySystem,
    ) {
        let smsps_per_sm = self.cfg.smsps_per_sm;
        self.ws.sched[idx] = u64::MAX;
        let sm = self.ws.sm_of[idx] as usize;
        let smsp = idx - sm * smsps_per_sm;
        let mut min_after = min_others;

        if pick != u32::MAX {
            let wid = self.ws.slots.wid(pick as usize);
            // Recorded before the issue, so the spawns of a replacement
            // block it dispatches fold into the recorded minimum.
            self.ws
                .sched_state
                .commit_with_min(idx, pick, wid, min_others);
            let retired = self.issue_selected(pick as usize, sm, smsp, t, mem);
            // A released slot reports `u64::MAX`, so retirement needs no
            // special case here.
            min_after = min_after.min(self.ws.slots.ready_at(pick as usize));
            #[cfg(all(test, feature = "contract-checks"))]
            if self.double_issue {
                // Fault injection: issue a second ready warp from the
                // same sub-partition in the same cycle, violating the
                // one-issue-per-cycle contract on purpose.
                if let Some(s2) = self.ws.sched_state.select(&self.ws.slots, idx, t) {
                    let w2 = self.ws.slots.wid(s2 as usize);
                    self.ws.sched_state.commit(idx, s2, w2);
                    self.issue_selected(s2 as usize, sm, smsp, t, mem);
                    // The second issue invalidates the fused minimum;
                    // rescan so fault-injection runs re-arm exactly.
                    min_after = self.ws.slots.min_ready_at(idx).unwrap_or(u64::MAX);
                }
            }
            if retired && !self.ws.placements.is_empty() {
                // A replacement block landed on this warp's SM: give
                // its sub-partitions deadlines for the new warps.
                let (home_sm, _, _) = self.ws.warp_home[wid as usize];
                for p in 0..self.ws.placements.len() {
                    let (psmsp, pslot) = self.ws.placements[p];
                    if pslot == u32::MAX {
                        continue;
                    }
                    let pidx = home_sm * smsps_per_sm + psmsp;
                    let ready = self.ws.slots.ready_at(pslot as usize);
                    if pidx == idx {
                        // New warp in this sub-partition: fold into the
                        // re-arm below instead of writing `sched` twice.
                        min_after = min_after.min(ready);
                    } else if ready < self.ws.sched[pidx] {
                        self.ws.sched[pidx] = ready;
                        self.ws.wheel.note(pidx, ready);
                    }
                }
            }
        }

        // One issue per sub-partition per cycle: its next deadline is
        // clamped to t + 1 even if another warp is already ready.
        if min_after != u64::MAX {
            let next = min_after.max(t + 1);
            self.ws.sched[idx] = next;
            self.ws.wheel.note(idx, next);
        }
    }

    /// Recomputes every sub-partition's issue deadline from scratch (used at
    /// startup and after a degenerate refill; the hot path maintains
    /// deadlines incrementally).
    fn reschedule_all(&mut self, floor: u64) {
        let n = self.cfg.num_sms * self.cfg.smsps_per_sm;
        let ws = &mut *self.ws;
        for idx in 0..n {
            let d = ws.slots.next_issue_at(idx, floor).unwrap_or(u64::MAX);
            ws.sched[idx] = d;
            if d != u64::MAX {
                ws.wheel.note(idx, d);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Instruction, SrcSet};
    use crate::launch::{VecProgram, WarpProgram};
    use crate::programs::{PointerChaseKernel, StreamKernel};

    #[test]
    fn stream_kernel_completes_and_counts_instructions() {
        let cfg = GpuConfig::test_small();
        let sim = Simulator::new(cfg);
        let launch = KernelLaunch::new("stream", 8, 128).with_regs_per_thread(32);
        let kernel = StreamKernel::new(16);
        let stats = sim.run(&launch, &kernel);
        // 8 blocks * 4 warps * 16 iterations * 2 insts (load + add).
        assert_eq!(stats.counters.load_insts, 8 * 4 * 16);
        assert_eq!(stats.counters.insts_issued, 8 * 4 * 16 * 2);
        assert!(stats.elapsed_cycles > 0);
        assert_eq!(stats.counters.warps_launched, 32);
        assert_eq!(stats.counters.blocks_launched, 8);
    }

    #[test]
    fn latency_bound_chain_is_slower_than_streaming() {
        let cfg = GpuConfig::test_small();
        let sim = Simulator::new(cfg);
        let launch = KernelLaunch::new("k", 8, 128).with_regs_per_thread(32);
        let stream = sim.run(&launch, &StreamKernel::new(32));
        let chase = sim.run(&launch, &PointerChaseKernel::new(32, 1 << 26));
        assert!(
            chase.elapsed_cycles > stream.elapsed_cycles,
            "dependent chain ({}) should be slower than independent streaming ({})",
            chase.elapsed_cycles,
            stream.elapsed_cycles
        );
        assert!(chase.long_scoreboard_per_inst() > stream.long_scoreboard_per_inst());
    }

    #[test]
    fn more_blocks_than_capacity_are_drained() {
        let cfg = GpuConfig::test_small().with_num_sms(1);
        let sim = Simulator::new(cfg);
        // 1 SM, many blocks: blocks must be dispatched in waves.
        let launch = KernelLaunch::new("waves", 64, 256).with_regs_per_thread(64);
        let stats = sim.run(&launch, &StreamKernel::new(4));
        assert_eq!(stats.counters.blocks_launched, 64);
        assert_eq!(stats.counters.warps_launched, 64 * 8);
    }

    #[test]
    fn run_with_memory_reports_deltas_and_preserves_cache_state() {
        let cfg = GpuConfig::test_small();
        let sim = Simulator::new(cfg.clone());
        let launch = KernelLaunch::new("stream", 4, 128).with_regs_per_thread(32);
        let kernel = StreamKernel::new(16);
        let mut mem = MemorySystem::new(&cfg);
        let first = sim.run_with_memory(&launch, &kernel, &mut mem, 0);
        let second = sim.run_with_memory(&launch, &kernel, &mut mem, first.elapsed_cycles);
        // The second pass re-reads the same lines, so it should hit in cache
        // and read (almost) nothing new from DRAM.
        assert!(first.dram_bytes_read > 0);
        assert!(second.dram_bytes_read < first.dram_bytes_read / 4);
        assert!(second.elapsed_cycles < first.elapsed_cycles);
    }

    #[test]
    fn higher_occupancy_hides_latency_better() {
        let cfg = GpuConfig::test_small();
        let sim = Simulator::new(cfg);
        let kernel = PointerChaseKernel::new(64, 1 << 27);
        // Same total work, but one launch is register-starved (1 block/SM).
        let low = KernelLaunch::new("low-occ", 16, 256).with_regs_per_thread(160);
        let high = KernelLaunch::new("high-occ", 16, 256).with_regs_per_thread(32);
        let s_low = sim.run(&low, &kernel);
        let s_high = sim.run(&high, &kernel);
        assert!(s_low.theoretical_warps_per_sm < s_high.theoretical_warps_per_sm);
        assert!(
            s_high.elapsed_cycles < s_low.elapsed_cycles,
            "more resident warps should hide more latency ({} vs {})",
            s_high.elapsed_cycles,
            s_low.elapsed_cycles
        );
    }

    #[test]
    fn stats_issue_utilization_is_bounded() {
        let cfg = GpuConfig::test_small();
        let sim = Simulator::new(cfg);
        let launch = KernelLaunch::new("stream", 32, 256).with_regs_per_thread(32);
        let stats = sim.run(&launch, &StreamKernel::new(64));
        let util = stats.issued_per_scheduler_per_cycle();
        assert!(util > 0.0 && util <= 1.0, "utilization {util} out of range");
    }

    #[test]
    fn engine_modes_agree_on_synthetic_kernels() {
        let cfg = GpuConfig::test_small();
        let reference = Simulator::new(cfg.clone()).with_mode(EngineMode::CycleAccurate);
        let event = Simulator::new(cfg);
        assert_eq!(event.mode(), EngineMode::EventDriven);
        let launch = KernelLaunch::new("agree", 8, 128).with_regs_per_thread(32);
        for (name, kernel) in [
            ("stream", &StreamKernel::new(24) as &dyn KernelProgram),
            ("chase", &PointerChaseKernel::new(24, 1 << 22)),
        ] {
            let a = reference.run(&launch, kernel);
            let b = event.run(&launch, kernel);
            assert_eq!(a, b, "engine modes diverged on '{name}'");
        }
    }

    #[test]
    fn engine_modes_agree_across_chained_kernels() {
        let cfg = GpuConfig::test_small();
        let reference = Simulator::new(cfg.clone()).with_mode(EngineMode::CycleAccurate);
        let event = Simulator::new(cfg.clone());
        let launch = KernelLaunch::new("chained", 4, 128).with_regs_per_thread(32);
        let kernel = StreamKernel::new(16);

        let mut mem_a = MemorySystem::new(&cfg);
        let a1 = reference.run_with_memory(&launch, &kernel, &mut mem_a, 0);
        let a2 = reference.run_with_memory(&launch, &kernel, &mut mem_a, a1.elapsed_cycles);

        let mut mem_b = MemorySystem::new(&cfg);
        let b1 = event.run_with_memory(&launch, &kernel, &mut mem_b, 0);
        let b2 = event.run_with_memory(&launch, &kernel, &mut mem_b, b1.elapsed_cycles);

        assert_eq!(a1, b1);
        assert_eq!(a2, b2);
    }

    #[test]
    fn single_stream_run_concurrent_matches_run_with_memory() {
        let cfg = GpuConfig::test_small();
        let launch = KernelLaunch::new("solo", 8, 128).with_regs_per_thread(32);
        let kernel = StreamKernel::new(24);
        for mode in [EngineMode::CycleAccurate, EngineMode::EventDriven] {
            let sim = Simulator::new(cfg.clone()).with_mode(mode);
            let direct = sim.run(&launch, &kernel);
            for partition in StreamPartition::ALL {
                let mut mem = MemorySystem::new(&cfg);
                let stats = sim.run_concurrent(&[(&launch, &kernel)], partition, &mut mem, 0);
                assert_eq!(stats.len(), 1);
                assert_eq!(
                    stats[0], direct,
                    "K=1 {partition} diverged from the single-stream path"
                );
            }
        }
    }

    #[test]
    fn concurrent_streams_agree_across_engine_modes() {
        let cfg = GpuConfig::test_small();
        let la = KernelLaunch::new("a", 6, 128).with_regs_per_thread(32);
        let lb = KernelLaunch::new("b", 4, 256).with_regs_per_thread(64);
        let ka = StreamKernel::new(20);
        let kb = PointerChaseKernel::new(12, 1 << 20);
        for partition in StreamPartition::ALL {
            let run = |mode: EngineMode| {
                let sim = Simulator::new(cfg.clone()).with_mode(mode);
                let mut mem = MemorySystem::new(&cfg);
                sim.run_concurrent(&[(&la, &ka), (&lb, &kb)], partition, &mut mem, 0)
            };
            let reference = run(EngineMode::CycleAccurate);
            let event = run(EngineMode::EventDriven);
            for (i, (a, b)) in reference.iter().zip(event.iter()).enumerate() {
                if let Some(diff) = a.first_difference(b) {
                    panic!("engine modes diverged on {partition} stream {i}: {diff}");
                }
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn partitioned_streams_split_the_sms() {
        // Two identical kernels on a 4-SM device: each stream gets 2 SMs and
        // performs exactly the same work, so their issue counters match.
        let cfg = GpuConfig::test_small();
        let sim = Simulator::new(cfg.clone());
        let launch = KernelLaunch::new("half", 8, 128).with_regs_per_thread(32);
        let kernel = StreamKernel::new(16);
        let mut mem = MemorySystem::new(&cfg);
        let stats = sim.run_concurrent(
            &[(&launch, &kernel), (&launch, &kernel)],
            StreamPartition::SmPartitioned,
            &mut mem,
            0,
        );
        assert_eq!(
            stats[0].counters.insts_issued,
            stats[1].counters.insts_issued
        );
        assert_eq!(stats[0].counters.blocks_launched, 8);
        assert_eq!(stats[1].counters.blocks_launched, 8);
        // Each stream's view is its 2-SM slice.
        assert_eq!(stats[0].total_schedulers, 2 * 4);
        assert!(stats[0].elapsed_cycles > 0 && stats[1].elapsed_cycles > 0);
    }

    #[test]
    fn interleaved_streams_share_issue_slots() {
        let cfg = GpuConfig::test_small();
        let sim = Simulator::new(cfg.clone());
        let launch = KernelLaunch::new("mix", 8, 128).with_regs_per_thread(32);
        let kernel = PointerChaseKernel::new(24, 1 << 20);
        let solo = sim.run(&launch, &kernel);
        let mut mem = MemorySystem::new(&cfg);
        let stats = sim.run_concurrent(
            &[(&launch, &kernel), (&launch, &kernel)],
            StreamPartition::Interleaved,
            &mut mem,
            0,
        );
        // Co-residency slows each stream down, but filling each other's
        // stall cycles keeps the pair faster than running serially.
        let slowest = stats.iter().map(|s| s.elapsed_cycles).max().unwrap();
        assert!(slowest >= solo.elapsed_cycles);
        assert!(
            slowest < 2 * solo.elapsed_cycles,
            "interleaving two latency-bound kernels must beat running them \
             back-to-back ({slowest} vs 2x{})",
            solo.elapsed_cycles
        );
    }

    #[test]
    #[should_panic(expected = "concurrent streams")]
    fn stream_capacity_is_enforced() {
        let cfg = GpuConfig::test_small().with_max_concurrent_streams(1);
        let sim = Simulator::new(cfg.clone());
        let launch = KernelLaunch::new("over", 2, 64);
        let kernel = StreamKernel::new(4);
        let mut mem = MemorySystem::new(&cfg);
        let _ = sim.run_concurrent(
            &[(&launch, &kernel), (&launch, &kernel)],
            StreamPartition::Interleaved,
            &mut mem,
            0,
        );
    }

    /// The checker must actually detect a broken scheduler, not just stay
    /// quiet on a correct one: injecting a second same-cycle issue from one
    /// sub-partition has to trip the one-issue-per-cycle assertion.
    #[test]
    #[cfg(feature = "contract-checks")]
    #[should_panic(expected = "more than one warp per smsp per cycle")]
    fn contract_checker_trips_on_double_issue() {
        let cfg = GpuConfig::test_small();
        let sim = Simulator::new(cfg).with_double_issue_sabotage();
        let launch = KernelLaunch::new("sabotaged", 8, 128).with_regs_per_thread(32);
        let _ = sim.run(&launch, &StreamKernel::new(16));
    }

    /// Invariant 6 must catch a cached other-slot minimum that misses a
    /// spawn. One SM with two sub-partitions and two resident one-warp
    /// blocks: block 0's warp re-issues greedily on sub-partition 0 every
    /// cycle, alone there, while block 1 finishes on sub-partition 1 and
    /// its replacement lands on sub-partition 0. With the spawn fold
    /// skipped, the next greedy re-issue reports no other ready warp while
    /// a full scan sees the replacement, so the checker has to trip.
    #[test]
    #[cfg(feature = "contract-checks")]
    #[should_panic(expected = "cached select")]
    fn contract_checker_trips_on_a_stale_cached_minimum() {
        use crate::isa::{Instruction, SrcSet};
        use crate::launch::{VecProgram, WarpProgram};

        struct LongFirstBlock;
        impl KernelProgram for LongFirstBlock {
            fn warp_program(&self, info: WarpInfo) -> Box<dyn WarpProgram> {
                let n = if info.block_id == 0 { 64 } else { 2 };
                let alu = Instruction::Alu {
                    dst: 1,
                    srcs: SrcSet::none(),
                    latency: 1,
                };
                Box::new(VecProgram::new(vec![alu; n]))
            }
        }

        let mut cfg = GpuConfig::test_small().with_num_sms(1).with_smsps_per_sm(2);
        cfg.max_blocks_per_sm = 2;
        let launch = KernelLaunch::new("sabotaged", 4, 32);
        let sim = Simulator::new(cfg).with_spawn_fold_sabotage();
        let _ = sim.run(&launch, &LongFirstBlock);
    }

    #[test]
    fn stream_partition_names_are_distinct() {
        let [a, b] = StreamPartition::ALL;
        assert_ne!(a.name(), b.name());
        for p in StreamPartition::ALL {
            assert_eq!(format!("{p}"), p.name());
        }
    }

    #[test]
    fn workspace_reuse_is_invisible() {
        let cfg = GpuConfig::test_small();
        let sim = Simulator::new(cfg.clone());
        let launch = KernelLaunch::new("reuse", 8, 128).with_regs_per_thread(32);
        let kernel = StreamKernel::new(16);
        let first = sim.run(&launch, &kernel);
        let second = sim.run(&launch, &kernel);
        assert_eq!(first, second, "recycled workspace leaked state");
        // A differently-shaped launch through the same recycled workspace
        // must match a cold simulator exactly.
        let big = KernelLaunch::new("reshape", 16, 256).with_regs_per_thread(64);
        let fresh = Simulator::new(cfg.clone()).run(&big, &kernel);
        let reused = sim.run(&big, &kernel);
        assert_eq!(fresh, reused, "workspace reshape changed the results");

        // A launch naming raw ids up to 255 widens the scoreboard and dirties
        // rows far out; the small-id launches around it must still see a
        // fresh register map, stride and dirty prefix.
        struct WideIds;
        impl KernelProgram for WideIds {
            fn warp_program(&self, info: WarpInfo) -> Box<dyn WarpProgram> {
                let line = info.global_warp_id * 128;
                let mut insts = Vec::new();
                for r in (0..=255u8).rev().step_by(3) {
                    insts.push(Instruction::global_load(line + r as u64 * 4096, r, 128));
                    insts.push(Instruction::Alu {
                        dst: r.wrapping_add(1),
                        srcs: SrcSet::two(r, 255),
                        latency: 0,
                    });
                }
                Box::new(VecProgram::new(insts))
            }
        }
        for (launch, kernel) in [
            (&launch, &kernel as &dyn KernelProgram),
            (&big, &WideIds),
            (&launch, &kernel),
            (&big, &PointerChaseKernel::new(12, 1 << 20)),
        ] {
            let fresh = Simulator::new(cfg.clone()).run(launch, kernel);
            let reused = sim.run(launch, kernel);
            assert_eq!(
                fresh, reused,
                "{}: recycled workspace leaked state",
                launch.name
            );
        }
    }
}

//! The embedding-bag kernel as a [`gpu_sim`] warp program.
//!
//! Work partitioning follows the paper's Figure 4: the grid contains
//! `batch_size * embedding_dim / 256` blocks of 256 threads, each thread owns
//! one output element, and a warp therefore covers one 128-byte chunk of one
//! bag's output. Every warp executes the gather-reduce loop of Algorithm 2:
//!
//! ```text
//! for idx in offsets[bag] .. offsets[bag+1]:
//!     row   = indices[idx];          // index load
//!     value = weights[row][chunk];   // gather load  (depends on `row`)
//!     acc  += value;                 // reduce       (depends on `value`)
//! output[bag][chunk] = acc;
//! ```
//!
//! The prefetching variants restructure this loop exactly as the paper's
//! Figure 8 does: a batch of `distance` (index, gather) pairs is issued ahead
//! of time into the chosen buffer station, and the reduce phase consumes from
//! the buffer.
//!
//! A warp's program is generated on demand, straight into the simulator's
//! decode buffer ([`WarpProgram::fill`]). There is no per-warp instruction
//! queue: each warp keeps a cursor (the unit it is in — prologue, plain
//! iteration, prefetch superstep or epilogue — and the position inside it)
//! and computes each instruction from that position, so a fill may stop
//! anywhere, including in the middle of a superstep longer than the buffer.

use std::sync::Arc;

use dlrm_datasets::EmbeddingTrace;
use gpu_sim::isa::SrcSet;
use gpu_sim::{InstSink, Instruction, KernelProgram, MemSpace, WarpInfo, WarpProgram};

use crate::layout::TableLayout;
use crate::spec::{BufferStation, EmbeddingKernelSpec, PrefetchConfig};
use crate::workload::{EmbeddingConfig, EmbeddingWorkload, WarpAssignment};

// Register assignments within the modelled warp context.
const R_ACC: u8 = 10;
const R_IDX: u8 = 1;
const R_ADDR: u8 = 2;
const R_VAL: u8 = 3;
const R_LOOP: u8 = 4;
const R_SPILL: u8 = 5;
const R_BUF_BASE: u8 = 20; // prefetched row values
const R_IDXBUF_BASE: u8 = 60; // prefetched indices
const R_ADDRBUF_BASE: u8 = 100; // computed row addresses
const R_TMP_BASE: u8 = 140; // staging registers for SMPF/LMPF stores

/// Instructions in the prologue: the offsets load and two loop-setup ALUs.
const PROLOGUE_LEN: u32 = 3;
/// Instructions in a plain iteration before its spill traffic: two loop
/// overhead ALUs, the index load, the address ALU, the gather and the
/// reduce.
const PLAIN_LEN: u32 = 6;
/// Instructions per lookup in a superstep's issue phase: loop overhead,
/// index load, address ALU, then the gather or prefetch.
const ISSUE_LEN: u32 = 4;

/// The embedding-bag kernel program (all variants).
#[derive(Debug, Clone)]
pub struct EmbeddingBagKernel {
    workload: EmbeddingWorkload,
    spec: EmbeddingKernelSpec,
    name: String,
}

impl EmbeddingBagKernel {
    /// Creates the kernel for a workload and build specification.
    pub fn new(workload: EmbeddingWorkload, spec: EmbeddingKernelSpec) -> Self {
        let name = spec.name();
        EmbeddingBagKernel {
            workload,
            spec,
            name,
        }
    }

    /// The build specification of this kernel.
    pub fn spec(&self) -> &EmbeddingKernelSpec {
        &self.spec
    }

    /// The workload this kernel executes.
    pub fn workload(&self) -> &EmbeddingWorkload {
        &self.workload
    }
}

impl KernelProgram for EmbeddingBagKernel {
    fn warp_program(&self, info: WarpInfo) -> Box<dyn WarpProgram> {
        match self
            .workload
            .warp_assignment(info.block_id, info.warp_in_block)
        {
            None => Box::new(EmptyWarp),
            Some(assignment) => Box::new(EmbeddingWarp {
                first: self.workload.trace.offsets[assignment.bag as usize] as u64,
                trace: Arc::clone(&self.workload.trace),
                layout: self.workload.layout,
                config: self.workload.config,
                assignment,
                prefetch: self.spec.prefetch(),
                spills: self.spec.spills_per_iteration(),
                global_warp_id: info.global_warp_id,
                unit: Unit::Prologue,
                start: 0,
                end: 0,
                pos: 0,
                len: PROLOGUE_LEN,
            }),
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// A warp with no work (its bag falls outside the batch).
struct EmptyWarp;

impl WarpProgram for EmptyWarp {
    fn fill(&mut self, _sink: &mut InstSink<'_>) -> bool {
        true
    }
}

/// The part of its program an [`EmbeddingWarp`] is emitting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Unit {
    /// Loads `offsets[bag]` and sets up the loop (3 instructions).
    Prologue,
    /// One unmodified gather-reduce iteration (base and OptMT builds).
    Plain,
    /// One prefetched superstep (issue, stage, consume).
    Superstep(BufferStation),
    /// The output store.
    Epilogue,
    /// Nothing left to emit.
    Done,
}

/// One warp's gather-reduce execution, generated on demand.
///
/// The warp is a resumable cursor over its program, not a queue: `unit`
/// and `[start, end)` name the unit being emitted and the lookups it
/// covers, and `pos` is the next instruction's position in it. Every
/// instruction is a pure function of that position, so a fill can stop
/// after any instruction — a superstep can be longer than the decode
/// buffer — and the next fill picks up at the same place.
struct EmbeddingWarp {
    trace: Arc<EmbeddingTrace>,
    layout: TableLayout,
    config: EmbeddingConfig,
    assignment: WarpAssignment,
    prefetch: Option<PrefetchConfig>,
    /// Spill store/load pairs per lookup.
    spills: u32,
    global_warp_id: u64,
    /// Trace position of the bag's first lookup (`offsets[bag]`).
    first: u64,
    unit: Unit,
    /// Lookups the current unit covers.
    start: u32,
    end: u32,
    /// Position of the next instruction within the unit, and the unit's
    /// length in instructions.
    pos: u32,
    len: u32,
}

fn overhead() -> Instruction {
    Instruction::Alu {
        dst: R_LOOP,
        srcs: SrcSet::none(),
        latency: 0,
    }
}

fn alu(dst: u8, srcs: SrcSet) -> Instruction {
    Instruction::Alu {
        dst,
        srcs,
        latency: 0,
    }
}

/// Register `base + k % 16`: the k-th lookup's slot in a 16-entry
/// register window.
fn window(base: u8, k: u32) -> u8 {
    base + (k as u8 % 16)
}

impl EmbeddingWarp {
    fn index_line(&self, i: u32) -> u64 {
        self.layout.index_line(self.first + i as u64)
    }

    fn row_line(&self, i: u32) -> u64 {
        let row = self.trace.indices[(self.first + i as u64) as usize] as u64;
        self.layout.row_chunk_line(row, self.assignment.chunk)
    }

    fn index_load(&self, i: u32, dst: u8) -> Instruction {
        Instruction::Load {
            space: MemSpace::Global,
            line: self.index_line(i),
            dst,
            bytes: 4,
            addr_dep: None,
        }
    }

    fn gather(&self, i: u32, dst: u8, addr_reg: u8) -> Instruction {
        Instruction::Load {
            space: MemSpace::Global,
            line: self.row_line(i),
            dst,
            bytes: 128,
            addr_dep: Some(addr_reg),
        }
    }

    /// Instruction `j` of lookup `iteration`'s spill traffic: a local
    /// store then a local reload per spilled value.
    fn spill(&self, iteration: u32, j: u32) -> Instruction {
        let slot = iteration as u64 * 4 + (j / 2) as u64;
        let line = TableLayout::local_line(self.global_warp_id, slot);
        if j.is_multiple_of(2) {
            Instruction::Store {
                space: MemSpace::Local,
                line,
                src: R_LOOP,
                bytes: 128,
            }
        } else {
            Instruction::Load {
                space: MemSpace::Local,
                line,
                dst: R_SPILL,
                bytes: 128,
                addr_dep: None,
            }
        }
    }

    /// Prologue: load `offsets[bag]` and `offsets[bag+1]` and set up loop
    /// bounds (paper Algorithm 2's first two statements).
    fn prologue(&self, pos: u32) -> Instruction {
        match pos {
            0 => Instruction::Load {
                space: MemSpace::Global,
                line: self.index_line(0) & !0xFFF,
                dst: R_LOOP,
                bytes: 8,
                addr_dep: None,
            },
            1 => alu(R_LOOP, SrcSet::one(R_LOOP)),
            _ => alu(R_ACC, SrcSet::none()),
        }
    }

    /// The unmodified gather-reduce iteration of lookup `start`.
    fn plain(&self, pos: u32) -> Instruction {
        let i = self.start;
        match pos {
            0 | 1 => overhead(),
            2 => self.index_load(i, R_IDX),
            3 => alu(R_ADDR, SrcSet::one(R_IDX)),
            4 => self.gather(i, R_VAL, R_ADDR),
            5 => alu(R_ACC, SrcSet::two(R_VAL, R_ACC)),
            j => self.spill(i, j - PLAIN_LEN),
        }
    }

    /// Whether `station` stages rows through registers into a memory
    /// buffer (SMPF/LMPF), which adds a drain phase to each superstep.
    fn stages(station: BufferStation) -> bool {
        matches!(station, BufferStation::SharedMem | BufferStation::LocalMem)
    }

    /// Instructions per lookup in a superstep's consume phase: the buffer
    /// read (every station but registers), the reduce, loop overhead and
    /// the spill traffic.
    fn consume_len(&self, station: BufferStation) -> u32 {
        (station != BufferStation::Register) as u32 + 2 + 2 * self.spills
    }

    fn superstep_len(&self, station: BufferStation, n: u32) -> u32 {
        n * (ISSUE_LEN + Self::stages(station) as u32 + self.consume_len(station))
    }

    /// A prefetched superstep covering lookups `[start, end)`, in three
    /// phases.
    fn superstep(&self, station: BufferStation, pos: u32) -> Instruction {
        let n = self.end - self.start;
        // Phase 1: issue all index loads and gathers ahead of use so the
        // scoreboard can overlap their latencies.
        if pos < ISSUE_LEN * n {
            let k = pos / ISSUE_LEN;
            let i = self.start + k;
            let idx_reg = window(R_IDXBUF_BASE, k);
            let addr_reg = window(R_ADDRBUF_BASE, k);
            return match pos % ISSUE_LEN {
                0 => overhead(),
                1 => self.index_load(i, idx_reg),
                2 => alu(addr_reg, SrcSet::one(idx_reg)),
                _ => match station {
                    BufferStation::Register => self.gather(i, window(R_BUF_BASE, k), addr_reg),
                    BufferStation::SharedMem | BufferStation::LocalMem => {
                        self.gather(i, window(R_TMP_BASE, k), addr_reg)
                    }
                    BufferStation::L1Cache => Instruction::Prefetch {
                        line: self.row_line(i),
                        addr_dep: Some(addr_reg),
                    },
                },
            };
        }
        let mut pos = pos - ISSUE_LEN * n;
        // Phase 2 (SMPF/LMPF only): drain the staging registers into the
        // buffer station.
        if Self::stages(station) {
            if pos < n {
                let k = pos;
                let line = match station {
                    BufferStation::SharedMem => 0,
                    _ => TableLayout::local_line(self.global_warp_id, k as u64),
                };
                return Instruction::Store {
                    space: if station == BufferStation::SharedMem {
                        MemSpace::Shared
                    } else {
                        MemSpace::Local
                    },
                    line,
                    src: window(R_TMP_BASE, k),
                    bytes: 128,
                };
            }
            pos -= n;
        }
        // Phase 3: consume.
        let g = self.consume_len(station);
        let (k, mut step) = (pos / g, pos % g);
        let i = self.start + k;
        if station != BufferStation::Register {
            if step == 0 {
                return match station {
                    BufferStation::SharedMem => Instruction::Load {
                        space: MemSpace::Shared,
                        line: 0,
                        dst: R_VAL,
                        bytes: 128,
                        addr_dep: None,
                    },
                    BufferStation::LocalMem => Instruction::Load {
                        space: MemSpace::Local,
                        line: TableLayout::local_line(self.global_warp_id, k as u64),
                        dst: R_VAL,
                        bytes: 128,
                        addr_dep: None,
                    },
                    // The demand load still executes; it should now hit in
                    // L1.
                    _ => self.gather(i, R_VAL, window(R_ADDRBUF_BASE, k)),
                };
            }
            step -= 1;
        }
        match step {
            0 => {
                let value_reg = match station {
                    BufferStation::Register => window(R_BUF_BASE, k),
                    _ => R_VAL,
                };
                alu(R_ACC, SrcSet::two(value_reg, R_ACC))
            }
            1 => overhead(),
            j => self.spill(i, j - 2),
        }
    }

    fn epilogue(&self) -> Instruction {
        let line = self.layout.output_chunk_line(
            self.assignment.bag,
            self.assignment.chunk,
            self.config.embedding_dim,
        );
        Instruction::Store {
            space: MemSpace::Global,
            line,
            src: R_ACC,
            bytes: 128,
        }
    }

    /// Moves the cursor to the start of the unit after the current one.
    fn next_unit(&mut self) {
        let pooling = self.assignment.pooling_factor;
        self.pos = 0;
        self.start = self.end;
        (self.unit, self.len) = if self.unit == Unit::Epilogue {
            (Unit::Done, 0)
        } else if self.end >= pooling {
            (Unit::Epilogue, 1)
        } else {
            match self.prefetch {
                None => {
                    self.end += 1;
                    (Unit::Plain, PLAIN_LEN + 2 * self.spills)
                }
                Some(p) => {
                    self.end = (self.start + p.distance).min(pooling);
                    let len = self.superstep_len(p.station, self.end - self.start);
                    (Unit::Superstep(p.station), len)
                }
            }
        };
    }
}

impl WarpProgram for EmbeddingWarp {
    fn fill(&mut self, sink: &mut InstSink<'_>) -> bool {
        while self.unit != Unit::Done {
            if sink.is_full() {
                return false;
            }
            let pos = self.pos;
            sink.push(match self.unit {
                Unit::Prologue => self.prologue(pos),
                Unit::Plain => self.plain(pos),
                Unit::Superstep(station) => self.superstep(station, pos),
                Unit::Epilogue => self.epilogue(),
                Unit::Done => unreachable!("the loop stops at the end of the program"),
            });
            self.pos += 1;
            if self.pos == self.len {
                self.next_unit();
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PrefetchConfig;
    use dlrm_datasets::{AccessPattern, TraceConfig};
    use gpu_sim::{GpuConfig, Simulator};

    fn small_workload(pattern: AccessPattern) -> EmbeddingWorkload {
        let cfg = EmbeddingConfig::new(TraceConfig::new(20_000, 32, 16), 128);
        EmbeddingWorkload::generate(cfg, pattern, 0, 1)
    }

    fn drain(kernel: &EmbeddingBagKernel, block: u32, warp: u32) -> Vec<Instruction> {
        let info = WarpInfo {
            block_id: block,
            warp_in_block: warp,
            warps_per_block: 8,
            threads_per_block: 256,
            global_warp_id: (block * 8 + warp) as u64,
            sm_id: 0,
        };
        gpu_sim::decode::drain(&mut *kernel.warp_program(info), gpu_sim::warp::IBUF)
    }

    fn count_loads(insts: &[Instruction], space: MemSpace) -> usize {
        insts
            .iter()
            .filter(|i| matches!(i, Instruction::Load { space: s, .. } if *s == space))
            .count()
    }

    #[test]
    fn base_kernel_emits_two_global_loads_per_lookup() {
        let w = small_workload(AccessPattern::MedHot);
        let kernel = EmbeddingKernelSpec::base().kernel(&w);
        let insts = drain(&kernel, 0, 0);
        // Prologue has one extra load; each of the 16 lookups does an index
        // load and a gather.
        assert_eq!(count_loads(&insts, MemSpace::Global), 1 + 2 * 16);
        // Exactly one output store.
        let stores = insts
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    Instruction::Store {
                        space: MemSpace::Global,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(stores, 1);
    }

    #[test]
    fn gather_loads_depend_on_index_loads() {
        let w = small_workload(AccessPattern::Random);
        let kernel = EmbeddingKernelSpec::base().kernel(&w);
        let insts = drain(&kernel, 0, 0);
        let gathers: Vec<&Instruction> = insts
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    Instruction::Load {
                        bytes: 128,
                        space: MemSpace::Global,
                        ..
                    }
                )
            })
            .collect();
        assert!(!gathers.is_empty());
        assert!(gathers.iter().all(|i| matches!(
            i,
            Instruction::Load {
                addr_dep: Some(_),
                ..
            }
        )));
    }

    #[test]
    fn warps_of_same_bag_touch_different_row_chunks() {
        let w = small_workload(AccessPattern::OneItem);
        let kernel = EmbeddingKernelSpec::base().kernel(&w);
        let chunk0 = drain(&kernel, 0, 0);
        let chunk1 = drain(&kernel, 0, 1);
        let first_gather = |insts: &[Instruction]| {
            insts
                .iter()
                .find_map(|i| match i {
                    Instruction::Load {
                        bytes: 128,
                        line,
                        space: MemSpace::Global,
                        ..
                    } => Some(*line),
                    _ => None,
                })
                .unwrap()
        };
        assert_eq!(first_gather(&chunk1) - first_gather(&chunk0), 128);
    }

    #[test]
    fn spilling_build_adds_local_memory_traffic() {
        let w = small_workload(AccessPattern::MedHot);
        let spec = EmbeddingKernelSpec::base().with_max_registers(32);
        assert!(spec.spills_per_iteration() > 0);
        let insts = drain(&spec.kernel(&w), 0, 0);
        assert!(count_loads(&insts, MemSpace::Local) > 0);
        let base_insts = drain(&EmbeddingKernelSpec::base().kernel(&w), 0, 0);
        assert_eq!(count_loads(&base_insts, MemSpace::Local), 0);
        assert!(insts.len() > base_insts.len());
    }

    #[test]
    fn rpf_emits_same_gathers_but_batched() {
        let w = small_workload(AccessPattern::LowHot);
        let rpf = EmbeddingKernelSpec::base()
            .with_prefetch(PrefetchConfig::new(BufferStation::Register, 4));
        let insts = drain(&rpf.kernel(&w), 0, 0);
        // Same number of gather loads as the base kernel: prefetching is
        // 100% accurate and has 100% coverage (paper Section IV-B).
        assert_eq!(count_loads(&insts, MemSpace::Global), 1 + 2 * 16);
    }

    #[test]
    fn smpf_buffers_through_shared_memory() {
        let w = small_workload(AccessPattern::LowHot);
        let smpf = EmbeddingKernelSpec::base()
            .with_prefetch(PrefetchConfig::new(BufferStation::SharedMem, 4));
        let insts = drain(&smpf.kernel(&w), 0, 0);
        let shared_stores = insts
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    Instruction::Store {
                        space: MemSpace::Shared,
                        ..
                    }
                )
            })
            .count();
        let shared_loads = count_loads(&insts, MemSpace::Shared);
        assert_eq!(shared_stores, 16);
        assert_eq!(shared_loads, 16);
    }

    #[test]
    fn lmpf_buffers_through_local_memory() {
        let w = small_workload(AccessPattern::LowHot);
        let lmpf = EmbeddingKernelSpec::base()
            .with_prefetch(PrefetchConfig::new(BufferStation::LocalMem, 4));
        let insts = drain(&lmpf.kernel(&w), 0, 0);
        assert_eq!(count_loads(&insts, MemSpace::Local), 16);
    }

    #[test]
    fn l1dpf_issues_prefetches_plus_demand_loads() {
        let w = small_workload(AccessPattern::LowHot);
        let spec = EmbeddingKernelSpec::base()
            .with_prefetch(PrefetchConfig::new(BufferStation::L1Cache, 4));
        let insts = drain(&spec.kernel(&w), 0, 0);
        let prefetches = insts
            .iter()
            .filter(|i| matches!(i, Instruction::Prefetch { .. }))
            .count();
        assert_eq!(prefetches, 16);
        // Demand gathers are still issued, so global loads match the base.
        assert_eq!(count_loads(&insts, MemSpace::Global), 1 + 2 * 16);
    }

    #[test]
    fn prefetch_variants_have_instruction_overhead() {
        let w = small_workload(AccessPattern::MedHot);
        let base_len = drain(&EmbeddingKernelSpec::base().kernel(&w), 0, 0).len();
        for station in BufferStation::ALL {
            let spec = EmbeddingKernelSpec::base().with_prefetch(PrefetchConfig::new(station, 4));
            let len = drain(&spec.kernel(&w), 0, 0).len();
            assert!(
                len >= base_len,
                "{} should not reduce instruction count ({} vs {})",
                station.abbreviation(),
                len,
                base_len
            );
        }
    }

    #[test]
    fn partial_final_superstep_covers_all_lookups() {
        // Pooling factor 10 with distance 4 leaves a final superstep of 2.
        let cfg = EmbeddingConfig::new(TraceConfig::new(5_000, 8, 10), 128);
        let w = EmbeddingWorkload::generate(cfg, AccessPattern::MedHot, 0, 3);
        let spec = EmbeddingKernelSpec::base()
            .with_prefetch(PrefetchConfig::new(BufferStation::Register, 4));
        let insts = drain(&spec.kernel(&w), 0, 0);
        assert_eq!(count_loads(&insts, MemSpace::Global), 1 + 2 * 10);
    }

    #[test]
    fn one_item_kernel_runs_fast_in_simulation() {
        let sim = Simulator::new(GpuConfig::test_small());
        let fast = small_workload(AccessPattern::OneItem);
        let slow = small_workload(AccessPattern::Random);
        let spec = EmbeddingKernelSpec::base();
        let t_fast = sim.run(&spec.launch(&fast), &spec.kernel(&fast));
        let t_slow = sim.run(&spec.launch(&slow), &spec.kernel(&slow));
        assert!(
            t_slow.elapsed_cycles > t_fast.elapsed_cycles,
            "random ({}) must be slower than one_item ({})",
            t_slow.elapsed_cycles,
            t_fast.elapsed_cycles
        );
        assert!(t_slow.long_scoreboard_per_inst() > t_fast.long_scoreboard_per_inst());
    }
}

//! Decode-buffer entries and the sink warp programs write them through.
//!
//! The engine keeps a small decode-ahead buffer per resident-warp slot (see
//! [`crate::warp`]). A [`WarpProgram`] refills it through an [`InstSink`]:
//! a window over the buffer that packs each pushed [`Instruction`] in place
//! into a 16-byte packed entry, so an instruction is generated, encoded
//! and stored in one step, with no intermediate queue. A warp-level memory
//! instruction touches one cache line, so every instruction fits an entry
//! and the buffer is the only place the engine keeps one.
//!
//! The sink also renames registers. Hazards depend only on register
//! identity, so the engine packs each raw [`Reg`] id as a dense id from its
//! run's [`RegMap`]: ids are numbered `0, 1, 2, ...` in order of first
//! sight, and each resident warp's scoreboard row needs one word per id the
//! run uses rather than one per possible id.
//!
//! [`InstBuffer`] is the same window backed by an owned buffer, for driving
//! a program outside the engine (tests, benchmarks); [`drain`] collects a
//! whole program through it. It keeps raw ids unless built with
//! [`InstBuffer::dense`].

use crate::isa::{Instruction, MemSpace, Reg, SrcSet};
use crate::launch::WarpProgram;

/// What a packed entry does; a memory access also names its address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    Load(MemSpace),
    Store(MemSpace),
    Prefetch,
    Alu,
}

/// Each [`Op`] at the index of its 3-bit opcode; [`Op::code`] is the
/// inverse.
const OPS: [Op; 8] = [
    Op::Load(MemSpace::Global),
    Op::Load(MemSpace::Local),
    Op::Load(MemSpace::Shared),
    Op::Store(MemSpace::Global),
    Op::Store(MemSpace::Local),
    Op::Store(MemSpace::Shared),
    Op::Prefetch,
    Op::Alu,
];

impl Op {
    /// The 3-bit opcode of this op: its index in [`OPS`].
    #[inline]
    fn code(self) -> u64 {
        let space = |s| match s {
            MemSpace::Global => 0,
            MemSpace::Local => 1,
            MemSpace::Shared => 2,
        };
        match self {
            Op::Load(s) => space(s),
            Op::Store(s) => 3 + space(s),
            Op::Prefetch => 6,
            Op::Alu => 7,
        }
    }
}

/// One decoded instruction packed into 16 bytes for the per-slot
/// decode-ahead buffers. A full [`Instruction`] is 24 bytes, so the packed
/// form keeps the decode buffers, the largest per-issue working set in the
/// engine, a third smaller, and a slot's [`IBUF`](crate::warp::IBUF)
/// entries fill exactly two host cache lines.
///
/// `meta` bit layout: `[0,3)` opcode (see [`OPS`]), `[4,12)` primary
/// register (load destination / store source / ALU destination); memory
/// ops add bit 12 = "has address dependence", `[13,21)` the dependence
/// register and `[21,53)` the byte count; ALU ops add `[12,14)` source
/// count and `[16,40)` three source registers. `arg` holds the line
/// address (memory ops) or the latency (ALU). Every field is as wide as
/// the [`Instruction`] field it holds, so every instruction packs.
///
/// Every register field holds the id the sink's [`RegMap`] gave it: a
/// dense id in the engine's decode buffers, the raw id in an
/// [`InstBuffer::new`] buffer.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PackedInst {
    pub(crate) arg: u64,
    meta: u64,
}

impl PackedInst {
    /// Packs `inst` with its registers renamed through `regs`.
    #[inline]
    fn encode(inst: &Instruction, regs: &mut RegMap) -> PackedInst {
        // `reg0` and `dep` are already renamed.
        let mem = |op: Op, line: u64, reg0: Reg, dep: Option<Reg>, bytes: u32| PackedInst {
            arg: line,
            meta: op.code()
                | (reg0 as u64) << 4
                | dep.map_or(0, |r| 1 << 12 | (r as u64) << 13)
                | (bytes as u64) << 21,
        };
        match *inst {
            Instruction::Load {
                space,
                line,
                dst,
                bytes,
                addr_dep,
            } => mem(
                Op::Load(space),
                line,
                regs.dense(dst),
                addr_dep.map(|r| regs.dense(r)),
                bytes,
            ),
            Instruction::Store {
                space,
                line,
                src,
                bytes,
            } => mem(Op::Store(space), line, regs.dense(src), None, bytes),
            Instruction::Prefetch { line, addr_dep } => {
                mem(Op::Prefetch, line, 0, addr_dep.map(|r| regs.dense(r)), 0)
            }
            Instruction::Alu { dst, srcs, latency } => {
                let mut meta =
                    Op::Alu.code() | (regs.dense(dst) as u64) << 4 | (srcs.len() as u64) << 12;
                for (i, r) in srcs.iter().enumerate() {
                    meta |= (regs.dense(r) as u64) << (16 + 8 * i);
                }
                PackedInst {
                    arg: latency as u64,
                    meta,
                }
            }
        }
    }

    /// The instruction this entry encodes. Exact inverse of the packing.
    pub(crate) fn decode(self) -> Instruction {
        match self.op() {
            Op::Load(space) => Instruction::Load {
                space,
                line: self.arg,
                dst: self.reg0(),
                bytes: self.bytes(),
                addr_dep: self.addr_dep(),
            },
            Op::Store(space) => Instruction::Store {
                space,
                line: self.arg,
                src: self.reg0(),
                bytes: self.bytes(),
            },
            Op::Prefetch => Instruction::Prefetch {
                line: self.arg,
                addr_dep: self.addr_dep(),
            },
            Op::Alu => Instruction::Alu {
                dst: self.reg0(),
                srcs: match self.nsrcs() {
                    0 => SrcSet::none(),
                    1 => SrcSet::one(self.src(0)),
                    2 => SrcSet::two(self.src(0), self.src(1)),
                    _ => SrcSet::three(self.src(0), self.src(1), self.src(2)),
                },
                latency: self.arg as u32,
            },
        }
    }

    #[inline]
    pub(crate) fn op(self) -> Op {
        OPS[(self.meta & 0x7) as usize]
    }

    #[inline]
    pub(crate) fn reg0(self) -> Reg {
        (self.meta >> 4) as Reg
    }

    #[inline]
    pub(crate) fn addr_dep(self) -> Option<Reg> {
        if self.meta & (1 << 12) != 0 {
            Some((self.meta >> 13) as Reg)
        } else {
            None
        }
    }

    #[inline]
    pub(crate) fn bytes(self) -> u32 {
        (self.meta >> 21) as u32
    }

    #[inline]
    pub(crate) fn nsrcs(self) -> usize {
        ((self.meta >> 12) & 0x3) as usize
    }

    #[inline]
    pub(crate) fn src(self, i: usize) -> Reg {
        (self.meta >> (16 + 8 * i)) as Reg
    }
}

/// Marks a raw id with no dense id yet in [`RegMap`].
const UNMAPPED: u16 = u16::MAX;

/// A bijection from raw register ids to dense ids `0..len`, built as
/// instructions are packed: the first time the map sees a raw id it gives
/// it the next dense id.
///
/// The engine keeps one per run, so every warp of every stream in a launch
/// shares one numbering and a scoreboard row needs [`RegMap::len`] words.
/// [`RegMap::identity`] maps every id to itself.
#[derive(Clone)]
pub struct RegMap {
    /// Dense id of each raw id, or [`UNMAPPED`].
    dense: [u16; 256],
    /// Raw id of each dense id below `len`.
    raw: [Reg; 256],
    /// Dense ids given out so far.
    len: u16,
}

impl Default for RegMap {
    fn default() -> Self {
        RegMap::new()
    }
}

impl std::fmt::Debug for RegMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(&self.raw[..self.len()]).finish()
    }
}

impl RegMap {
    /// An empty map that numbers raw ids in order of first sight.
    pub fn new() -> Self {
        RegMap {
            dense: [UNMAPPED; 256],
            raw: [0; 256],
            len: 0,
        }
    }

    /// The map that sends every raw id to itself.
    pub fn identity() -> Self {
        RegMap {
            dense: std::array::from_fn(|r| r as u16),
            raw: std::array::from_fn(|r| r as Reg),
            len: 256,
        }
    }

    /// Dense ids given out so far.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether no id has been given out.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The dense id of `raw`, if it has one.
    pub fn get(&self, raw: Reg) -> Option<Reg> {
        let d = self.dense[raw as usize];
        (d != UNMAPPED).then_some(d as Reg)
    }

    /// The raw id that dense id `dense` stands for.
    ///
    /// # Panics
    /// Panics if `dense` has not been given out.
    pub fn raw(&self, dense: Reg) -> Reg {
        assert!(
            (dense as usize) < self.len(),
            "dense register id {dense} was never given out"
        );
        self.raw[dense as usize]
    }

    /// The dense id of `raw`, giving it the next one if it has none.
    #[inline]
    fn dense(&mut self, raw: Reg) -> Reg {
        match self.dense[raw as usize] {
            UNMAPPED => self.assign(raw),
            d => d as Reg,
        }
    }

    #[cold]
    fn assign(&mut self, raw: Reg) -> Reg {
        // At most 256 raw ids exist, so `len` stays within `Reg` here.
        let d = self.len as Reg;
        self.dense[raw as usize] = self.len;
        self.raw[d as usize] = raw;
        self.len += 1;
        d
    }
}

/// A write window over one decode buffer, handed to
/// [`WarpProgram::fill`]. Each [`InstSink::push`] packs its instruction
/// straight into the next free entry, with its registers renamed through
/// the sink's [`RegMap`].
pub struct InstSink<'a> {
    buf: &'a mut [PackedInst],
    len: usize,
    regs: &'a mut RegMap,
}

impl<'a> InstSink<'a> {
    /// A sink over `buf` (its whole length is the capacity), renaming
    /// registers through `regs`.
    #[inline]
    pub(crate) fn new(buf: &'a mut [PackedInst], regs: &'a mut RegMap) -> Self {
        InstSink { buf, len: 0, regs }
    }

    /// Appends `inst`.
    ///
    /// # Panics
    /// Panics if the sink is full.
    #[inline]
    pub fn push(&mut self, inst: Instruction) {
        self.buf[self.len] = PackedInst::encode(&inst, self.regs);
        self.len += 1;
    }

    /// Whether no more instructions fit.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len == self.buf.len()
    }

    /// Instructions that still fit.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.len
    }

    /// Instructions pushed so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing has been pushed yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// An owned decode buffer of fixed capacity: runs [`WarpProgram::fill`]
/// outside the engine, exactly as the engine refills a slot.
#[derive(Debug)]
pub struct InstBuffer {
    entries: Vec<PackedInst>,
    regs: RegMap,
    len: usize,
}

impl InstBuffer {
    /// A buffer holding up to `capacity` instructions per fill, with raw
    /// register ids.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        Self::with_map(capacity, RegMap::identity())
    }

    /// A buffer holding up to `capacity` instructions per fill, with
    /// register ids renamed to dense ones exactly as the engine packs them.
    /// One map spans every fill, like one run's map spans its warps.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn dense(capacity: usize) -> Self {
        Self::with_map(capacity, RegMap::new())
    }

    fn with_map(capacity: usize, regs: RegMap) -> Self {
        assert!(capacity > 0, "a decode buffer holds at least one entry");
        InstBuffer {
            entries: vec![PackedInst::default(); capacity],
            regs,
            len: 0,
        }
    }

    /// The register map the buffer packs through.
    pub fn register_map(&self) -> &RegMap {
        &self.regs
    }

    /// Replaces the buffer's contents with the next instructions of
    /// `program` and returns whether the program reported that it is done.
    pub fn fill(&mut self, program: &mut dyn WarpProgram) -> bool {
        let mut sink = InstSink::new(&mut self.entries, &mut self.regs);
        let done = program.fill(&mut sink);
        self.len = sink.len();
        done
    }

    /// Instructions the last fill pushed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the last fill pushed nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The instructions the last fill pushed, decoded.
    pub fn instructions(&self) -> impl Iterator<Item = Instruction> + '_ {
        self.entries[..self.len].iter().map(|p| p.decode())
    }
}

/// Runs `program` to completion through a buffer of `capacity` entries and
/// returns its whole instruction stream.
///
/// Also checks the [`WarpProgram::fill`] contract: a fill that does not
/// report done pushes at least one instruction, and a finished program
/// stays finished (a further fill pushes nothing and reports done again).
pub fn drain(program: &mut dyn WarpProgram, capacity: usize) -> Vec<Instruction> {
    let mut buf = InstBuffer::new(capacity);
    let mut out = Vec::new();
    loop {
        let done = buf.fill(program);
        assert!(
            done || !buf.is_empty(),
            "a WarpProgram fill that is not done must push an instruction"
        );
        out.extend(buf.instructions());
        if done {
            break;
        }
    }
    assert!(
        buf.fill(program) && buf.is_empty(),
        "a finished WarpProgram must stay finished"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Packs `inst` through a one-entry sink and decodes it back.
    fn round_trip(inst: Instruction) -> Instruction {
        let mut entries = [PackedInst::default()];
        let mut regs = RegMap::identity();
        let mut sink = InstSink::new(&mut entries, &mut regs);
        sink.push(inst);
        assert!(sink.is_full());
        entries[0].decode()
    }

    fn assert_packs(inst: Instruction) {
        assert_eq!(round_trip(inst), inst, "{inst:?}");
    }

    const SPACES: [MemSpace; 3] = [MemSpace::Global, MemSpace::Local, MemSpace::Shared];

    #[test]
    fn every_packable_instruction_round_trips() {
        let lines = [0u64, 128, 0xDEAD_BE80, !127];
        let byte_counts = [0u32, 1, 4, 128, 4096, (1 << 21) - 1, 1 << 21, u32::MAX];
        for reg in 0..=255u8 {
            let other = reg.wrapping_mul(37).wrapping_add(11);
            for space in SPACES {
                for line in lines {
                    for bytes in byte_counts {
                        for addr_dep in [None, Some(other)] {
                            assert_packs(Instruction::Load {
                                space,
                                line,
                                dst: reg,
                                bytes,
                                addr_dep,
                            });
                        }
                        assert_packs(Instruction::Store {
                            space,
                            line,
                            src: reg,
                            bytes,
                        });
                    }
                }
            }
            for addr_dep in [None, Some(reg)] {
                assert_packs(Instruction::Prefetch {
                    line: lines[reg as usize % lines.len()],
                    addr_dep,
                });
            }
            let (a, b) = (other, reg ^ 0xA5);
            for srcs in [
                SrcSet::none(),
                SrcSet::one(reg),
                SrcSet::two(a, reg),
                SrcSet::three(reg, a, b),
            ] {
                for latency in [0, 1, 8, u32::MAX] {
                    assert_packs(Instruction::Alu {
                        dst: reg,
                        srcs,
                        latency,
                    });
                }
            }
        }
    }

    #[test]
    fn a_dense_buffer_numbers_registers_in_first_sight_order() {
        let load = |dst, addr_dep| Instruction::Load {
            space: MemSpace::Global,
            line: 128,
            dst,
            bytes: 128,
            addr_dep: Some(addr_dep),
        };
        // The first load names two new registers: its destination is
        // numbered before its address dependence.
        let program = vec![
            Instruction::fadd(200, 7, 200),
            load(9, 8),
            load(7, 9),
            Instruction::iadd(255, 0),
        ];
        let mut buf = InstBuffer::dense(4);
        assert!(buf.fill(&mut crate::launch::VecProgram::new(program)));
        let packed: Vec<Instruction> = buf.instructions().collect();
        assert_eq!(
            packed,
            [
                Instruction::fadd(0, 1, 0),
                load(2, 3),
                load(1, 2),
                Instruction::iadd(4, 5)
            ]
        );
        let map = buf.register_map();
        assert_eq!(map.len(), 6);
        let raw: Vec<Reg> = (0..6).map(|d| map.raw(d)).collect();
        assert_eq!(raw, [200, 7, 9, 8, 255, 0]);
        assert_eq!((map.get(255), map.get(3)), (Some(4), None));
    }

    #[test]
    #[should_panic]
    fn pushing_into_a_full_sink_panics() {
        let mut entries = [PackedInst::default()];
        let mut regs = RegMap::identity();
        let mut sink = InstSink::new(&mut entries, &mut regs);
        sink.push(Instruction::iadd(1, 2));
        sink.push(Instruction::iadd(1, 2));
    }
}

//! The warp-level instruction set consumed by the simulator.
//!
//! Instructions are modelled at warp granularity: one `Load` corresponds to
//! one warp-wide (coalesced) load instruction, carrying the set of distinct
//! 128-byte cache lines the 32 threads touch. This matches how the paper
//! counts "#load insts" in its NCU tables (Tables IV/V/VIII/IX) and keeps the
//! simulation cost proportional to issued instructions rather than threads.

/// A register identifier inside a warp's (modelled) register context.
///
/// Only dependence timing is tracked, not values, so 256 registers per warp
/// is more than enough for every kernel in this repository.
pub type Reg = u8;

/// Maximum number of distinct cache lines a single warp-level memory
/// instruction can touch in this model.
pub const MAX_LINES_PER_ACCESS: usize = 4;

/// Which address space a memory instruction targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSpace {
    /// Global (device) memory, cached in L1/L2, backed by HBM.
    Global,
    /// Local memory (register spills); physically global memory but private
    /// per thread, so it caches extremely well in L1.
    Local,
    /// On-chip shared memory (scratchpad) with a fixed low latency.
    Shared,
}

impl MemSpace {
    /// Whether a dependent stall on this space counts as a *long scoreboard*
    /// stall (global/local) or a *short scoreboard* stall (shared memory),
    /// matching NCU's classification.
    pub fn is_long_scoreboard(self) -> bool {
        matches!(self, MemSpace::Global | MemSpace::Local)
    }
}

/// Destination of a software prefetch instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrefetchTarget {
    /// `prefetch.global.L1`: bring the line into the issuing SM's L1D.
    L1,
    /// `prefetch.global.L2::evict_last`: bring the line into the L2
    /// persisting carve-out and mark it evict-last (Ampere residency
    /// control). Used by the paper's L2 pinning scheme.
    L2EvictLast,
}

/// A small, inline (non-allocating) set of cache-line addresses touched by a
/// warp-level memory instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineSet {
    lines: [u64; MAX_LINES_PER_ACCESS],
    len: u8,
}

impl LineSet {
    /// Creates an empty line set.
    pub fn new() -> Self {
        LineSet {
            lines: [0; MAX_LINES_PER_ACCESS],
            len: 0,
        }
    }

    /// Creates a set containing a single line address.
    pub fn single(line: u64) -> Self {
        let mut s = Self::new();
        s.push(line);
        s
    }

    /// Builds a line set from byte address and access size, splitting the
    /// access into 128-byte-aligned lines.
    ///
    /// # Panics
    /// Panics if the access spans more than [`MAX_LINES_PER_ACCESS`] lines.
    pub fn from_byte_range(addr: u64, bytes: u64, line_bytes: u64) -> Self {
        let mut s = Self::new();
        if bytes == 0 {
            return s;
        }
        let first = addr / line_bytes;
        let last = (addr + bytes - 1) / line_bytes;
        for line in first..=last {
            s.push(line * line_bytes);
        }
        s
    }

    /// Adds a line address to the set (duplicates are coalesced away).
    ///
    /// # Panics
    /// Panics if the set is already full.
    pub fn push(&mut self, line: u64) {
        for i in 0..self.len as usize {
            if self.lines[i] == line {
                return;
            }
        }
        assert!(
            (self.len as usize) < MAX_LINES_PER_ACCESS,
            "a warp-level access may touch at most {MAX_LINES_PER_ACCESS} lines"
        );
        self.lines[self.len as usize] = line;
        self.len += 1;
    }

    /// Number of distinct lines.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over the line addresses.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.lines[..self.len as usize].iter().copied()
    }
}

impl Default for LineSet {
    fn default() -> Self {
        Self::new()
    }
}

impl FromIterator<u64> for LineSet {
    fn from_iter<T: IntoIterator<Item = u64>>(iter: T) -> Self {
        let mut s = Self::new();
        for line in iter {
            s.push(line);
        }
        s
    }
}

/// Source operands of an ALU instruction (at most three).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SrcSet {
    regs: [Reg; 3],
    len: u8,
}

impl SrcSet {
    /// No source operands.
    pub fn none() -> Self {
        Self::default()
    }

    /// A single source operand.
    pub fn one(a: Reg) -> Self {
        SrcSet {
            regs: [a, 0, 0],
            len: 1,
        }
    }

    /// Two source operands.
    pub fn two(a: Reg, b: Reg) -> Self {
        SrcSet {
            regs: [a, b, 0],
            len: 2,
        }
    }

    /// Three source operands.
    pub fn three(a: Reg, b: Reg, c: Reg) -> Self {
        SrcSet {
            regs: [a, b, c],
            len: 3,
        }
    }

    /// Iterates over the source registers.
    pub fn iter(&self) -> impl Iterator<Item = Reg> + '_ {
        self.regs[..self.len as usize].iter().copied()
    }

    /// Number of source registers.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether there are no source registers.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The same operands with every register renamed by `f`, in order.
    pub fn map(self, mut f: impl FnMut(Reg) -> Reg) -> Self {
        let mut out = self;
        for r in &mut out.regs[..self.len as usize] {
            *r = f(*r);
        }
        out
    }
}

/// One warp-level instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Instruction {
    /// A warp-wide load. The destination register becomes ready when the
    /// slowest of the touched lines returns.
    Load {
        /// Address space accessed.
        space: MemSpace,
        /// Cache lines touched by the coalesced access.
        lines: LineSet,
        /// Destination register.
        dst: Reg,
        /// Total bytes requested by the warp (for bandwidth accounting).
        bytes: u32,
        /// Register holding the (indirect) address; the load cannot issue
        /// before it is ready. `None` for loads whose address is a loop
        /// induction value. This models the pointer-chasing nature of the
        /// embedding gather (offsets -> indices -> table row).
        addr_dep: Option<Reg>,
    },
    /// A warp-wide store. Stores are fire-and-forget (write-back traffic is
    /// accounted but never stalls the warp).
    Store {
        /// Address space accessed.
        space: MemSpace,
        /// Cache lines touched by the coalesced access.
        lines: LineSet,
        /// Source register that must be ready before the store can issue.
        src: Reg,
        /// Total bytes written by the warp.
        bytes: u32,
    },
    /// A non-blocking software prefetch (`prefetch.global.L1` or
    /// `prefetch.global.L2::evict_last`).
    Prefetch {
        /// Where the prefetched line should be installed.
        target: PrefetchTarget,
        /// Cache lines to prefetch.
        lines: LineSet,
        /// Register holding the prefetch address, if it is produced by an
        /// earlier load (e.g. the index of the row being prefetched).
        addr_dep: Option<Reg>,
    },
    /// An arithmetic/logic instruction with a fixed result latency.
    Alu {
        /// Destination register (may be reused as a source).
        dst: Reg,
        /// Source registers that must be ready before issue.
        srcs: SrcSet,
        /// Result latency in cycles; `0` means "use the device default".
        latency: u32,
    },
}

impl Instruction {
    /// Convenience constructor for a single-line global load with no address
    /// dependence.
    pub fn global_load(line: u64, dst: Reg, bytes: u32) -> Self {
        Instruction::Load {
            space: MemSpace::Global,
            lines: LineSet::single(line),
            dst,
            bytes,
            addr_dep: None,
        }
    }

    /// Convenience constructor for a default-latency ALU op with two sources.
    pub fn fadd(dst: Reg, a: Reg, b: Reg) -> Self {
        Instruction::Alu {
            dst,
            srcs: SrcSet::two(a, b),
            latency: 0,
        }
    }

    /// Convenience constructor for an address-computation style ALU op.
    pub fn iadd(dst: Reg, a: Reg) -> Self {
        Instruction::Alu {
            dst,
            srcs: SrcSet::one(a),
            latency: 0,
        }
    }

    /// This instruction with every register operand renamed by `f`, in
    /// the order destination or store source, address dependence, ALU
    /// sources.
    pub fn map_regs(self, mut f: impl FnMut(Reg) -> Reg) -> Self {
        match self {
            Instruction::Load {
                space,
                lines,
                dst,
                bytes,
                addr_dep,
            } => Instruction::Load {
                space,
                lines,
                dst: f(dst),
                bytes,
                addr_dep: addr_dep.map(f),
            },
            Instruction::Store {
                space,
                lines,
                src,
                bytes,
            } => Instruction::Store {
                space,
                lines,
                src: f(src),
                bytes,
            },
            Instruction::Prefetch {
                target,
                lines,
                addr_dep,
            } => Instruction::Prefetch {
                target,
                lines,
                addr_dep: addr_dep.map(f),
            },
            Instruction::Alu { dst, srcs, latency } => Instruction::Alu {
                dst: f(dst),
                srcs: srcs.map(f),
                latency,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lineset_deduplicates() {
        let mut s = LineSet::new();
        s.push(128);
        s.push(128);
        s.push(256);
        assert_eq!(s.len(), 2);
        let v: Vec<u64> = s.iter().collect();
        assert_eq!(v, vec![128, 256]);
    }

    #[test]
    fn lineset_from_byte_range_single_line() {
        let s = LineSet::from_byte_range(130, 4, 128);
        assert_eq!(s.len(), 1);
        assert_eq!(s.iter().next(), Some(128));
    }

    #[test]
    fn lineset_from_byte_range_straddles_lines() {
        // A 128-byte access starting at offset 64 touches two lines.
        let s = LineSet::from_byte_range(64, 128, 128);
        assert_eq!(s.len(), 2);
        let v: Vec<u64> = s.iter().collect();
        assert_eq!(v, vec![0, 128]);
    }

    #[test]
    fn lineset_empty_range() {
        let s = LineSet::from_byte_range(0, 0, 128);
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn lineset_overflow_panics() {
        let mut s = LineSet::new();
        for i in 0..5 {
            s.push(i * 128);
        }
    }

    #[test]
    fn srcset_iteration() {
        let s = SrcSet::three(1, 2, 3);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(SrcSet::none().len(), 0);
        assert!(SrcSet::none().is_empty());
    }

    #[test]
    fn memspace_scoreboard_classification() {
        assert!(MemSpace::Global.is_long_scoreboard());
        assert!(MemSpace::Local.is_long_scoreboard());
        assert!(!MemSpace::Shared.is_long_scoreboard());
    }

    #[test]
    fn lineset_collects_from_iterator() {
        let s: LineSet = [0u64, 128, 0].into_iter().collect();
        assert_eq!(s.len(), 2);
    }
}

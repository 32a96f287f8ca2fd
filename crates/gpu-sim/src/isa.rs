//! The warp-level instruction set consumed by the simulator.
//!
//! Instructions are modelled at warp granularity: one `Load` corresponds to
//! one warp-wide (coalesced) load instruction, carrying the one 128-byte
//! cache line the 32 threads touch. Every kernel here lays a warp over one
//! 128-byte chunk of a row (the paper's Figure 4), so a warp-level access
//! never spans two lines. This matches how the paper counts "#load insts"
//! in its NCU tables (Tables IV/V/VIII/IX) and keeps the simulation cost
//! proportional to issued instructions rather than threads.

/// A register identifier inside a warp's (modelled) register context.
///
/// Only dependence timing is tracked, not values, so 256 registers per warp
/// is more than enough for every kernel in this repository.
pub type Reg = u8;

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
    /// A warp-wide load. The destination register becomes ready when its
    /// line returns.
    Load {
        /// Address space accessed.
        space: MemSpace,
        /// Address of the cache line the coalesced access touches.
        line: u64,
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
        /// Address of the cache line the coalesced access touches.
        line: u64,
        /// Source register that must be ready before the store can issue.
        src: Reg,
        /// Total bytes written by the warp.
        bytes: u32,
    },
    /// A non-blocking software prefetch into the issuing SM's L1D
    /// (`prefetch.global.L1`, the paper's L1DPF). L2 pinning issues no
    /// instruction: its cost-hidden pin pass installs lines through
    /// [`MemorySystem::warm_l2_persistent`](crate::mem::MemorySystem::warm_l2_persistent).
    Prefetch {
        /// Address of the cache line to prefetch.
        line: u64,
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
    /// Convenience constructor for a global load with no address
    /// dependence.
    pub fn global_load(line: u64, dst: Reg, bytes: u32) -> Self {
        Instruction::Load {
            space: MemSpace::Global,
            line,
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
                line,
                dst,
                bytes,
                addr_dep,
            } => Instruction::Load {
                space,
                line,
                dst: f(dst),
                bytes,
                addr_dep: addr_dep.map(f),
            },
            Instruction::Store {
                space,
                line,
                src,
                bytes,
            } => Instruction::Store {
                space,
                line,
                src: f(src),
                bytes,
            },
            Instruction::Prefetch { line, addr_dep } => Instruction::Prefetch {
                line,
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
}

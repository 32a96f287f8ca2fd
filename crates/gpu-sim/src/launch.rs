//! Kernel launch descriptors and the program interface.
//!
//! A kernel is described by two pieces:
//!
//! * a [`KernelLaunch`]: the launch configuration (grid, block, registers per
//!   thread, dynamic shared memory) which determines occupancy, and
//! * a [`KernelProgram`]: a factory that produces one [`WarpProgram`]
//!   (an instruction generator) per warp.
//!
//! Generating instructions lazily, a few at a time straight into the
//! engine's per-warp decode buffer, keeps memory usage flat even for the
//! paper-scale workload (~65M warp instructions per embedding-bag kernel).

use crate::decode::InstSink;
use crate::isa::Instruction;

/// Launch configuration of a kernel, mirroring a CUDA `<<<grid, block>>>`
/// launch plus the compiler-chosen register count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelLaunch {
    /// Kernel name, used in statistics and error messages.
    pub name: String,
    /// Number of thread blocks in the grid.
    pub grid_blocks: u32,
    /// Number of threads per block.
    pub threads_per_block: u32,
    /// Registers allocated per thread (before granularity rounding).
    pub regs_per_thread: u32,
    /// Dynamic + static shared memory per block, in bytes.
    pub shared_mem_per_block: u64,
}

impl KernelLaunch {
    /// Creates a launch with the given grid and block size, 32 registers per
    /// thread and no shared memory.
    ///
    /// # Panics
    /// Panics if the grid or block is empty or the block exceeds 1024 threads.
    pub fn new(name: impl Into<String>, grid_blocks: u32, threads_per_block: u32) -> Self {
        assert!(grid_blocks > 0, "grid must contain at least one block");
        assert!(
            threads_per_block > 0 && threads_per_block <= 1024,
            "block size must be in 1..=1024"
        );
        KernelLaunch {
            name: name.into(),
            grid_blocks,
            threads_per_block,
            regs_per_thread: 32,
            shared_mem_per_block: 0,
        }
    }

    /// Sets the number of registers allocated per thread.
    pub fn with_regs_per_thread(mut self, regs: u32) -> Self {
        assert!(
            regs > 0 && regs <= 255,
            "registers per thread must be in 1..=255"
        );
        self.regs_per_thread = regs;
        self
    }

    /// Sets the shared memory usage per block in bytes.
    pub fn with_shared_mem_per_block(mut self, bytes: u64) -> Self {
        self.shared_mem_per_block = bytes;
        self
    }

    /// Total number of warps in the grid (assuming 32-thread warps).
    pub fn total_warps(&self) -> u64 {
        self.grid_blocks as u64 * (self.threads_per_block as u64).div_ceil(32)
    }
}

/// Identity of one warp within a kernel launch, passed to the
/// [`KernelProgram`] factory so it can decide what work the warp performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarpInfo {
    /// Index of the thread block this warp belongs to.
    pub block_id: u32,
    /// Index of this warp within its block.
    pub warp_in_block: u32,
    /// Number of warps per block.
    pub warps_per_block: u32,
    /// Number of threads per block.
    pub threads_per_block: u32,
    /// Flat warp index across the whole grid.
    pub global_warp_id: u64,
    /// Index of the SM the warp is resident on (for per-SM buffers such as
    /// shared memory or local-memory spill slots).
    pub sm_id: u32,
}

/// A per-warp instruction generator.
///
/// The simulator calls [`WarpProgram::fill`] whenever the warp's decode
/// buffer runs dry: once when the warp spawns, then each time its buffered
/// instructions have all issued. The warp retires when it issues the last
/// instruction of a program that has reported done.
pub trait WarpProgram: Send {
    /// Pushes the program's next instructions into `sink`, in program
    /// order, until the sink is full or the program ends, and returns
    /// whether the program is done (every instruction it has is now
    /// pushed). A program resumes the next call exactly where it stopped,
    /// even in the middle of one of its own loop iterations.
    ///
    /// Contract: a call that returns `false` pushes at least one
    /// instruction; once a call returns `true`, every later call pushes
    /// nothing and returns `true`.
    fn fill(&mut self, sink: &mut InstSink<'_>) -> bool;
}

/// A kernel: a factory of per-warp programs.
pub trait KernelProgram: Sync {
    /// Creates the instruction generator for one warp.
    fn warp_program(&self, info: WarpInfo) -> Box<dyn WarpProgram>;

    /// A short, human-readable kernel name.
    fn name(&self) -> &str {
        "kernel"
    }
}

/// A [`WarpProgram`] backed by a pre-built instruction vector. Convenient for
/// tests and for short kernels (e.g. the L2-pinning prefetch kernel).
#[derive(Debug, Clone)]
pub struct VecProgram {
    insts: Vec<Instruction>,
    pos: usize,
}

impl VecProgram {
    /// Wraps a vector of instructions.
    pub fn new(insts: Vec<Instruction>) -> Self {
        VecProgram { insts, pos: 0 }
    }
}

impl WarpProgram for VecProgram {
    fn fill(&mut self, sink: &mut InstSink<'_>) -> bool {
        let end = self.insts.len().min(self.pos + sink.remaining());
        for &inst in &self.insts[self.pos..end] {
            sink.push(inst);
        }
        self.pos = end;
        self.pos == self.insts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::drain;
    use crate::isa::Instruction;

    #[test]
    fn launch_totals() {
        let l = KernelLaunch::new("k", 1024, 256);
        assert_eq!(l.total_warps(), 8192);
    }

    #[test]
    fn launch_builders() {
        let l = KernelLaunch::new("k", 1, 32)
            .with_regs_per_thread(74)
            .with_shared_mem_per_block(1024);
        assert_eq!(l.regs_per_thread, 74);
        assert_eq!(l.shared_mem_per_block, 1024);
    }

    #[test]
    #[should_panic(expected = "block size")]
    fn oversized_block_rejected() {
        let _ = KernelLaunch::new("k", 1, 2048);
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn empty_grid_rejected() {
        let _ = KernelLaunch::new("k", 0, 32);
    }

    #[test]
    #[should_panic(expected = "registers per thread")]
    fn zero_regs_rejected() {
        let _ = KernelLaunch::new("k", 1, 32).with_regs_per_thread(0);
    }

    #[test]
    fn vec_program_replays_and_terminates() {
        let insts = vec![Instruction::fadd(1, 1, 2), Instruction::iadd(2, 1)];
        for capacity in [1, 2, 3] {
            let mut p = VecProgram::new(insts.clone());
            assert_eq!(drain(&mut p, capacity), insts);
        }
        assert!(drain(&mut VecProgram::new(Vec::new()), 1).is_empty());
    }

    #[test]
    fn non_multiple_block_rounds_warps_up() {
        let l = KernelLaunch::new("k", 2, 48);
        assert_eq!(l.total_warps(), 4);
    }
}

//! Simple synthetic kernels used by unit tests and documentation examples.
//! The DLRM embedding-bag kernels live in the `embedding-kernels` crate.

use crate::decode::InstSink;
use crate::isa::{Instruction, MemSpace, SrcSet};
use crate::launch::{KernelProgram, WarpInfo, WarpProgram};

/// Number of loads a [`StreamKernel`] warp keeps in flight: the consumer of a
/// load runs this many iterations after it, so the scoreboard can overlap
/// several memory accesses (memory-level parallelism).
const STREAM_WINDOW: u32 = 4;

/// A bandwidth-friendly streaming kernel: every warp loads a private,
/// sequential range of cache lines and accumulates them with a software
/// pipeline of `STREAM_WINDOW` outstanding loads, so ample instruction- and
/// warp-level parallelism hides latency.
#[derive(Debug, Clone)]
pub struct StreamKernel {
    lines_per_warp: u32,
}

impl StreamKernel {
    /// Creates a streaming kernel where each warp touches `lines_per_warp`
    /// distinct 128-byte lines.
    pub fn new(lines_per_warp: u32) -> Self {
        assert!(lines_per_warp > 0, "each warp must load at least one line");
        StreamKernel { lines_per_warp }
    }
}

impl KernelProgram for StreamKernel {
    fn warp_program(&self, info: WarpInfo) -> Box<dyn WarpProgram> {
        Box::new(StreamWarp {
            next: 0,
            total: self.lines_per_warp,
            base_line: info.global_warp_id * self.lines_per_warp as u64,
            emit_load: true,
        })
    }

    fn name(&self) -> &str {
        "stream"
    }
}

#[derive(Debug)]
struct StreamWarp {
    next: u32,
    total: u32,
    base_line: u64,
    emit_load: bool,
}

impl WarpProgram for StreamWarp {
    fn fill(&mut self, sink: &mut InstSink<'_>) -> bool {
        while self.next < self.total {
            if sink.is_full() {
                return false;
            }
            if self.emit_load {
                self.emit_load = false;
                let line = (self.base_line + self.next as u64) * 128;
                let dst = 1 + (self.next % STREAM_WINDOW) as u8;
                sink.push(Instruction::Load {
                    space: MemSpace::Global,
                    line,
                    dst,
                    bytes: 128,
                    addr_dep: None,
                });
            } else {
                self.emit_load = true;
                // Consume the load issued STREAM_WINDOW - 1 iterations ago,
                // so several loads stay in flight concurrently.
                let consumed = 1 + ((self.next + 1) % STREAM_WINDOW) as u8;
                self.next += 1;
                sink.push(Instruction::Alu {
                    dst: 10,
                    srcs: SrcSet::two(consumed, 10),
                    latency: 0,
                });
            }
        }
        true
    }
}

/// A latency-bound pointer-chasing kernel: each warp performs a chain of
/// dependent loads whose addresses are scattered pseudo-randomly over a
/// configurable footprint, so caches help little and every load stalls the
/// warp ("long scoreboard" stalls).
#[derive(Debug, Clone)]
pub struct PointerChaseKernel {
    chain_len: u32,
    footprint_bytes: u64,
}

impl PointerChaseKernel {
    /// Creates a pointer-chase kernel with `chain_len` dependent loads per
    /// warp spread over `footprint_bytes` of memory.
    pub fn new(chain_len: u32, footprint_bytes: u64) -> Self {
        assert!(chain_len > 0, "chain must contain at least one load");
        assert!(
            footprint_bytes >= 128,
            "footprint must cover at least one line"
        );
        PointerChaseKernel {
            chain_len,
            footprint_bytes,
        }
    }
}

impl KernelProgram for PointerChaseKernel {
    fn warp_program(&self, info: WarpInfo) -> Box<dyn WarpProgram> {
        Box::new(ChaseWarp {
            remaining: self.chain_len,
            state: info.global_warp_id.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
            footprint_lines: (self.footprint_bytes / 128).max(1),
            emit_load: true,
        })
    }

    fn name(&self) -> &str {
        "pointer-chase"
    }
}

#[derive(Debug)]
struct ChaseWarp {
    remaining: u32,
    state: u64,
    footprint_lines: u64,
    emit_load: bool,
}

impl ChaseWarp {
    fn next_line(&mut self) -> u64 {
        // xorshift64* generator: deterministic, no external dependency.
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) % self.footprint_lines) * 128
    }
}

impl WarpProgram for ChaseWarp {
    fn fill(&mut self, sink: &mut InstSink<'_>) -> bool {
        while self.remaining > 0 {
            if sink.is_full() {
                return false;
            }
            if self.emit_load {
                self.emit_load = false;
                let line = self.next_line();
                // The address of each hop depends on the value loaded by the
                // previous hop, so every load stalls until its predecessor
                // returns: a true pointer chase.
                sink.push(Instruction::Load {
                    space: MemSpace::Global,
                    line,
                    dst: 1,
                    bytes: 128,
                    addr_dep: Some(1),
                });
            } else {
                self.emit_load = true;
                self.remaining -= 1;
                // The "pointer dereference": depends on the just-loaded value.
                sink.push(Instruction::Alu {
                    dst: 1,
                    srcs: SrcSet::one(1),
                    latency: 0,
                });
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use crate::decode::drain;
    use crate::engine::Simulator;
    use crate::launch::KernelLaunch;

    #[test]
    fn stream_kernel_emits_expected_instruction_count() {
        let kernel = StreamKernel::new(4);
        let info = WarpInfo {
            block_id: 0,
            warp_in_block: 0,
            warps_per_block: 4,
            threads_per_block: 128,
            global_warp_id: 0,
            sm_id: 0,
        };
        let mut prog = kernel.warp_program(info);
        assert_eq!(drain(&mut *prog, 3).len(), 8);
    }

    #[test]
    fn chase_addresses_stay_in_footprint() {
        let kernel = PointerChaseKernel::new(100, 4096);
        let info = WarpInfo {
            block_id: 0,
            warp_in_block: 0,
            warps_per_block: 1,
            threads_per_block: 32,
            global_warp_id: 3,
            sm_id: 0,
        };
        let mut prog = kernel.warp_program(info);
        for inst in drain(&mut *prog, 16) {
            if let Instruction::Load { line, .. } = inst {
                assert!(line < 4096, "address {line} escaped the footprint");
            }
        }
    }

    #[test]
    fn different_warps_chase_different_sequences() {
        let kernel = PointerChaseKernel::new(8, 1 << 20);
        let mk = |id| WarpInfo {
            block_id: 0,
            warp_in_block: 0,
            warps_per_block: 1,
            threads_per_block: 32,
            global_warp_id: id,
            sm_id: 0,
        };
        let collect = |id| {
            let mut prog = kernel.warp_program(mk(id));
            let mut lines = Vec::new();
            for inst in drain(&mut *prog, 16) {
                if let Instruction::Load { line, .. } = inst {
                    lines.push(line);
                }
            }
            lines
        };
        assert_ne!(collect(1), collect(2));
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(StreamKernel::new(1).name(), "stream");
        assert_eq!(PointerChaseKernel::new(1, 128).name(), "pointer-chase");
    }

    #[test]
    fn small_footprint_chase_hits_in_cache() {
        let cfg = GpuConfig::test_small();
        let sim = Simulator::new(cfg);
        let launch = KernelLaunch::new("chase", 4, 128).with_regs_per_thread(32);
        let hot = sim.run(&launch, &PointerChaseKernel::new(64, 4 * 1024));
        let cold = sim.run(&launch, &PointerChaseKernel::new(64, 1 << 28));
        assert!(
            hot.l1_hit_rate_pct() + hot.l2_hit_rate_pct()
                > cold.l1_hit_rate_pct() + cold.l2_hit_rate_pct()
        );
        assert!(hot.elapsed_cycles < cold.elapsed_cycles);
    }

    #[test]
    #[should_panic(expected = "at least one line")]
    fn zero_line_stream_rejected() {
        let _ = StreamKernel::new(0);
    }
}

//! L2 pinning (L2P): pre-loading the hottest embedding rows into the L2
//! persisting carve-out before the embedding-bag kernel runs (paper
//! Section IV-C, Figure 10).
//!
//! The paper's flow is:
//!
//! 1. offline-profile the top ~60K hot indices per table (30 MB carve-out /
//!    512 B rows),
//! 2. load those indices to the GPU once,
//! 3. before each table's embedding-bag launch, run a small CUDA kernel that
//!    executes `prefetch.global.L2::evict_last` over the hot rows,
//! 4. launch the embedding-bag kernel.
//!
//! This module provides the pin *plan* (which lines to pin) and the pin
//! *kernel* (a warp program issuing the evict-last prefetches), plus a
//! shortcut that applies the plan directly to the memory system for callers
//! that follow the paper in hiding the pin kernel's cost behind host-side
//! preprocessing.

use std::sync::Arc;

use gpu_sim::mem::MemorySystem;
use gpu_sim::{
    GpuConfig, InstSink, Instruction, KernelLaunch, KernelProgram, LineSet, PrefetchTarget,
    WarpInfo, WarpProgram,
};

use crate::workload::EmbeddingWorkload;

/// Cache lines each warp of the pin kernel prefetches per instruction batch.
const LINES_PER_WARP: usize = 64;

/// A plan describing which cache lines of a table should be pinned in L2.
#[derive(Debug, Clone)]
pub struct PinPlan {
    lines: Arc<Vec<u64>>,
    pinned_rows: usize,
    carveout_bytes: u64,
}

impl PinPlan {
    /// Builds the pin plan for one table: the hottest rows that fit into
    /// `carveout_bytes` of L2 (the paper uses the full 30 MB set-aside, which
    /// holds 60K rows of 512 B).
    pub fn for_workload(workload: &EmbeddingWorkload, carveout_bytes: u64) -> Self {
        let row_bytes = workload.config.row_bytes();
        let max_rows = (carveout_bytes / row_bytes) as usize;
        let rows = workload.hot_rows(max_rows);
        let chunks = workload.layout.chunks_per_row();
        let mut lines = Vec::with_capacity(rows.len() * chunks as usize);
        for &row in &rows {
            for chunk in 0..chunks {
                lines.push(workload.layout.row_chunk_line(row, chunk));
            }
        }
        PinPlan {
            pinned_rows: rows.len(),
            lines: Arc::new(lines),
            carveout_bytes,
        }
    }

    /// Number of rows the plan pins.
    pub fn pinned_rows(&self) -> usize {
        self.pinned_rows
    }

    /// Number of cache lines the plan pins.
    pub fn pinned_lines(&self) -> usize {
        self.lines.len()
    }

    /// Total bytes pinned.
    pub fn pinned_bytes(&self) -> u64 {
        self.lines.len() as u64 * 128
    }

    /// The carve-out size this plan was built for.
    pub fn carveout_bytes(&self) -> u64 {
        self.carveout_bytes
    }

    /// Configures the L2 carve-out and installs every planned line directly
    /// into the memory system (the paper's step 3 with its cost hidden behind
    /// CPU-side preprocessing, so no DRAM bandwidth or simulated time is
    /// charged — use [`PinPlan::kernel`] to account for the pin kernel
    /// explicitly).
    ///
    /// # Panics
    /// Panics if the carve-out exceeds the device limit.
    pub fn apply(&self, mem: &mut MemorySystem, cfg: &GpuConfig, now: u64) {
        mem.set_l2_persisting_carveout(self.carveout_bytes.min(cfg.l2_max_persisting_bytes()), cfg);
        for &line in self.lines.iter() {
            mem.warm_l2_persistent(line, now);
        }
    }

    /// Builds the explicit pin kernel and its launch configuration, for
    /// callers that want to account for the pin kernel's execution time.
    pub fn kernel(&self) -> (KernelLaunch, L2PinKernel) {
        let total_warp_batches = self.lines.len().div_ceil(LINES_PER_WARP).max(1);
        // 8 warps per block, one warp per batch of lines.
        let blocks = (total_warp_batches as u32).div_ceil(8).max(1);
        let launch = KernelLaunch::new("l2_pin", blocks, 256).with_regs_per_thread(32);
        (
            launch,
            L2PinKernel {
                lines: Arc::clone(&self.lines),
            },
        )
    }
}

/// The kernel that issues `prefetch.global.L2::evict_last` over the planned
/// lines (paper Figure 10, step 3).
#[derive(Debug, Clone)]
pub struct L2PinKernel {
    lines: Arc<Vec<u64>>,
}

impl KernelProgram for L2PinKernel {
    fn warp_program(&self, info: WarpInfo) -> Box<dyn WarpProgram> {
        let start = info.global_warp_id as usize * LINES_PER_WARP;
        let end = (start + LINES_PER_WARP).min(self.lines.len());
        Box::new(PinWarp {
            lines: Arc::clone(&self.lines),
            pos: start.min(end),
            end,
        })
    }

    fn name(&self) -> &str {
        "l2_pin"
    }
}

struct PinWarp {
    lines: Arc<Vec<u64>>,
    pos: usize,
    end: usize,
}

impl WarpProgram for PinWarp {
    fn fill(&mut self, sink: &mut InstSink<'_>) -> bool {
        while self.pos < self.end {
            if sink.is_full() {
                return false;
            }
            let mut set = LineSet::new();
            while self.pos < self.end && set.len() < 4 {
                set.push(self.lines[self.pos]);
                self.pos += 1;
            }
            sink.push(Instruction::Prefetch {
                target: PrefetchTarget::L2EvictLast,
                lines: set,
                addr_dep: None,
            });
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::EmbeddingKernelSpec;
    use crate::workload::EmbeddingConfig;
    use dlrm_datasets::{AccessPattern, TraceConfig};
    use gpu_sim::Simulator;

    fn workload(pattern: AccessPattern) -> EmbeddingWorkload {
        let cfg = EmbeddingConfig::new(TraceConfig::new(20_000, 32, 16), 128);
        EmbeddingWorkload::generate(cfg, pattern, 0, 1)
    }

    #[test]
    fn paper_scale_plan_pins_60k_rows() {
        let w = EmbeddingWorkload::generate(
            EmbeddingConfig::paper_scale(),
            AccessPattern::HighHot,
            0,
            1,
        );
        let plan = PinPlan::for_workload(&w, 30 * 1024 * 1024);
        assert_eq!(plan.pinned_rows(), 61_440);
        assert_eq!(plan.pinned_lines(), 61_440 * 4);
        assert!(plan.pinned_bytes() <= 30 * 1024 * 1024);
    }

    #[test]
    fn plan_respects_small_carveouts() {
        let w = workload(AccessPattern::HighHot);
        let plan = PinPlan::for_workload(&w, 64 * 1024);
        assert_eq!(plan.pinned_rows(), 128);
        assert_eq!(plan.pinned_bytes(), 128 * 512);
    }

    #[test]
    fn apply_installs_persistent_lines() {
        let cfg = GpuConfig::test_small();
        let w = workload(AccessPattern::HighHot);
        let plan = PinPlan::for_workload(&w, 32 * 1024);
        let mut mem = MemorySystem::new(&cfg);
        plan.apply(&mut mem, &cfg, 0);
        assert!(mem.l2().persistent_lines() > 0);
        assert!(mem.l2().persistent_lines() <= cfg.l2_max_persisting_bytes() / 128);
    }

    #[test]
    fn pin_kernel_prefetches_every_line() {
        let w = workload(AccessPattern::HighHot);
        let plan = PinPlan::for_workload(&w, 64 * 1024);
        let (launch, kernel) = plan.kernel();
        let cfg = GpuConfig::test_small();
        let sim = Simulator::new(cfg.clone());
        let mut mem = MemorySystem::new(&cfg);
        mem.set_l2_persisting_carveout(cfg.l2_max_persisting_bytes(), &cfg);
        let stats = sim.run_with_memory(&launch, &kernel, &mut mem, 0);
        assert_eq!(
            stats.counters.prefetch_insts as usize,
            plan.pinned_lines().div_ceil(4)
        );
        assert!(mem.l2().persistent_lines() > 0);
    }

    #[test]
    fn pinning_speeds_up_hot_traces() {
        let cfg = GpuConfig::test_small();
        let sim = Simulator::new(cfg.clone());
        let w = workload(AccessPattern::HighHot);
        let spec = EmbeddingKernelSpec::base();

        // Unpinned run.
        let baseline = sim.run(&spec.launch(&w), &spec.kernel(&w));

        // Pinned run: apply the plan, then execute the same kernel.
        let mut mem = MemorySystem::new(&cfg);
        let plan = PinPlan::for_workload(&w, cfg.l2_max_persisting_bytes());
        plan.apply(&mut mem, &cfg, 0);
        let pinned = sim.run_with_memory(&spec.launch(&w), &spec.kernel(&w), &mut mem, 0);

        assert!(
            pinned.elapsed_cycles < baseline.elapsed_cycles,
            "pinning should reduce latency ({} vs {})",
            pinned.elapsed_cycles,
            baseline.elapsed_cycles
        );
        assert!(pinned.dram_bytes_read < baseline.dram_bytes_read);
    }

    #[test]
    fn random_traces_gain_little_from_pinning() {
        let cfg = GpuConfig::test_small();
        let sim = Simulator::new(cfg.clone());
        let spec = EmbeddingKernelSpec::base();

        let speedup = |pattern: AccessPattern| {
            let w = workload(pattern);
            let base = sim.run(&spec.launch(&w), &spec.kernel(&w));
            let mut mem = MemorySystem::new(&cfg);
            let plan = PinPlan::for_workload(&w, cfg.l2_max_persisting_bytes());
            plan.apply(&mut mem, &cfg, 0);
            let pinned = sim.run_with_memory(&spec.launch(&w), &spec.kernel(&w), &mut mem, 0);
            base.elapsed_cycles as f64 / pinned.elapsed_cycles as f64
        };

        let hot = speedup(AccessPattern::HighHot);
        let random = speedup(AccessPattern::Random);
        assert!(
            hot > random,
            "L2P should help hot traces more than random ones (hot {hot:.3} vs random {random:.3})"
        );
    }
}

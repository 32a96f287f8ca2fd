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
//! This module provides the pin *plan* (which lines to pin) and models
//! step 3 the one way the paper costs it: [`PinPlan::apply`] installs the
//! planned lines straight into the carve-out, because the pin kernel's
//! cost is hidden behind host-side preprocessing. No pin kernel is
//! simulated, so pinning charges no DRAM traffic and no simulated time.

use gpu_sim::mem::MemorySystem;
use gpu_sim::GpuConfig;

use crate::workload::EmbeddingWorkload;

/// A plan describing which cache lines of a table should be pinned in L2.
#[derive(Debug, Clone)]
pub struct PinPlan {
    lines: Vec<u64>,
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
            lines,
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

    /// Configures the L2 carve-out (clamped to the device limit) and
    /// installs every planned line directly into the memory system as
    /// persistent: the paper's step 3 with its cost hidden behind CPU-side
    /// preprocessing, so no DRAM bandwidth or simulated time is charged.
    pub fn apply(&self, mem: &mut MemorySystem, cfg: &GpuConfig, now: u64) {
        mem.set_l2_persisting_carveout(self.carveout_bytes.min(cfg.l2_max_persisting_bytes()), cfg);
        for &line in &self.lines {
            mem.warm_l2_persistent(line, now);
        }
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
    fn apply_pins_every_planned_line_without_dram_traffic() {
        let cfg = GpuConfig::test_small();
        let w = workload(AccessPattern::HighHot);
        let carveout_lines = cfg.l2_max_persisting_bytes() / 128;
        // A plan that fits the device's carve-out, and one built for a
        // carve-out larger than the device allows.
        for carveout in [32 * 1024, 30 * 1024 * 1024] {
            let plan = PinPlan::for_workload(&w, carveout);
            let mut mem = MemorySystem::new(&cfg);
            plan.apply(&mut mem, &cfg, 0);
            let pinned = plan
                .lines
                .iter()
                .filter(|&&line| mem.l2().is_persistent(line))
                .count() as u64;
            let expected = (plan.pinned_lines() as u64).min(carveout_lines);
            assert_eq!(pinned, expected, "carve-out {carveout}");
            assert_eq!(
                mem.l2().persistent_lines(),
                expected,
                "carve-out {carveout}"
            );
            // The pin pass is hidden behind host preprocessing: no DRAM.
            assert_eq!(mem.dram().bytes_read, 0);
            assert_eq!(mem.dram().bytes_written, 0);
        }
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

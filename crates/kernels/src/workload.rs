//! The embedding workload: one table's trace plus the geometry needed to map
//! it onto CUDA threads the way the PyTorch kernel does (paper Figure 4).

use std::sync::Arc;

use dlrm_datasets::{AccessPattern, EmbeddingTrace, TraceConfig};

use crate::layout::TableLayout;

/// Threads per block used by the off-the-shelf PyTorch embedding-bag kernel
/// (block shape (32, 8, 1) in the paper's Section III-A).
pub const THREADS_PER_BLOCK: u32 = 256;

/// Geometry of one embedding table and the batch executed against it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmbeddingConfig {
    /// Trace shape: rows, batch size, pooling factor.
    pub trace: TraceConfig,
    /// Embedding dimension (fp32 elements per row). Must be a multiple of 32
    /// and divide into 256-thread blocks evenly.
    pub embedding_dim: u32,
}

impl EmbeddingConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    /// Panics if the embedding dimension is not a multiple of the warp size
    /// or does not evenly tile a 256-thread block.
    pub fn new(trace: TraceConfig, embedding_dim: u32) -> Self {
        assert!(
            embedding_dim >= 32 && embedding_dim.is_multiple_of(32),
            "embedding dimension must be a positive multiple of the 32-thread warp"
        );
        assert!(
            THREADS_PER_BLOCK.is_multiple_of(embedding_dim)
                || embedding_dim.is_multiple_of(THREADS_PER_BLOCK),
            "embedding dimension must tile the 256-thread block"
        );
        EmbeddingConfig {
            trace,
            embedding_dim,
        }
    }

    /// The paper's full-scale configuration: 500K rows x 128 elements,
    /// batch 2048, pooling factor 150 (Section V).
    pub fn paper_scale() -> Self {
        EmbeddingConfig::new(TraceConfig::paper_scale(), 128)
    }

    /// Bytes per embedding row (fp32).
    pub fn row_bytes(&self) -> u64 {
        self.embedding_dim as u64 * 4
    }

    /// Warps needed per sample (one warp covers 32 elements).
    pub fn warps_per_bag(&self) -> u32 {
        self.embedding_dim / 32
    }

    /// Thread blocks in the embedding-bag grid (`batch * dim / 256`).
    pub fn grid_blocks(&self) -> u32 {
        (self.trace.batch_size as u64 * self.embedding_dim as u64)
            .div_ceil(THREADS_PER_BLOCK as u64) as u32
    }

    /// Bags processed per thread block.
    pub fn bags_per_block(&self) -> u32 {
        (THREADS_PER_BLOCK / self.embedding_dim).max(1)
    }

    /// Total weight bytes of one table.
    pub fn table_bytes(&self) -> u64 {
        self.trace.num_rows * self.row_bytes()
    }
}

/// One embedding table's workload: its configuration, generated trace, and
/// device-memory layout. Cheap to clone (the trace is shared).
#[derive(Debug, Clone)]
pub struct EmbeddingWorkload {
    /// The geometry of the table and batch.
    pub config: EmbeddingConfig,
    /// The generated lookup trace.
    pub trace: Arc<EmbeddingTrace>,
    /// The device-memory layout of this table.
    pub layout: TableLayout,
}

impl EmbeddingWorkload {
    /// Generates the trace for `pattern` and wraps it with layout information
    /// for table `table_index`, seeding the generator with `seed`.
    pub fn generate(
        config: EmbeddingConfig,
        pattern: AccessPattern,
        table_index: u32,
        seed: u64,
    ) -> Self {
        let trace = Arc::new(
            config
                .trace
                .generate(pattern, seed.wrapping_add(table_index as u64)),
        );
        Self::from_trace(config, trace, table_index)
    }

    /// Wraps an existing trace (useful for tests that need a hand-built one).
    ///
    /// # Panics
    /// Panics if the trace shape does not match the configuration.
    pub fn from_trace(
        config: EmbeddingConfig,
        trace: Arc<EmbeddingTrace>,
        table_index: u32,
    ) -> Self {
        assert_eq!(
            trace.config, config.trace,
            "trace shape must match the embedding configuration"
        );
        let layout = TableLayout::new(
            table_index,
            config.trace.num_rows,
            config.row_bytes(),
            config.trace.total_lookups(),
            config.trace.batch_size as u64 * config.row_bytes(),
        );
        EmbeddingWorkload {
            config,
            trace,
            layout,
        }
    }

    /// The access pattern of the underlying trace.
    pub fn pattern(&self) -> AccessPattern {
        self.trace.pattern
    }

    /// Work assignment of one warp: which bag it reduces and which 128-byte
    /// chunk of the row it covers. Returns `None` if the warp falls outside
    /// the batch (can only happen for padded grids).
    pub fn warp_assignment(&self, block_id: u32, warp_in_block: u32) -> Option<WarpAssignment> {
        let bags_per_block = self.config.bags_per_block();
        let warps_per_bag = self.config.warps_per_bag();
        let bag_in_block = warp_in_block / warps_per_bag;
        let chunk = warp_in_block % warps_per_bag;
        let bag = block_id as u64 * bags_per_block as u64 + bag_in_block as u64;
        if bag >= self.config.trace.batch_size as u64 {
            return None;
        }
        Some(WarpAssignment {
            bag,
            chunk,
            pooling_factor: self.config.trace.pooling_factor,
        })
    }

    /// The hottest-row candidates an offline profiling pass would pin for
    /// this table (paper Figure 10, step 1).
    pub fn hot_rows(&self, count: usize) -> Vec<u64> {
        self.config.trace.hot_row_candidates(
            self.pattern(),
            count,
            // The generation seed is already folded into the trace; the
            // candidates only depend on the pattern's popularity ranking.
            self.layout.table_index as u64,
        )
    }
}

/// The work of one warp: reduce `pooling_factor` rows into one 32-element
/// chunk of one bag's output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarpAssignment {
    /// The bag (sample) this warp works on.
    pub bag: u64,
    /// Which 128-byte chunk of the row / output this warp covers.
    pub chunk: u32,
    /// Lookups to reduce.
    pub pooling_factor: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> EmbeddingConfig {
        EmbeddingConfig::new(TraceConfig::new(5_000, 64, 16), 128)
    }

    #[test]
    fn paper_scale_geometry_matches_section_iii() {
        let c = EmbeddingConfig::paper_scale();
        assert_eq!(c.grid_blocks(), 1024);
        assert_eq!(c.warps_per_bag(), 4);
        assert_eq!(c.bags_per_block(), 2);
        assert_eq!(c.row_bytes(), 512);
    }

    #[test]
    fn warp_assignment_covers_all_bags_and_chunks() {
        let w = EmbeddingWorkload::generate(config(), AccessPattern::MedHot, 0, 1);
        // audit:allow(unordered_collection): len-only coverage check
        let mut seen = std::collections::HashSet::new();
        for block in 0..config().grid_blocks() {
            for warp in 0..(THREADS_PER_BLOCK / 32) {
                if let Some(a) = w.warp_assignment(block, warp) {
                    seen.insert((a.bag, a.chunk));
                }
            }
        }
        assert_eq!(
            seen.len() as u64,
            64 * 4,
            "every (bag, chunk) pair appears exactly once"
        );
    }

    #[test]
    fn small_embedding_dim_packs_multiple_bags_per_block() {
        let c = EmbeddingConfig::new(TraceConfig::new(1_000, 16, 4), 64);
        assert_eq!(c.bags_per_block(), 4);
        assert_eq!(c.warps_per_bag(), 2);
        assert_eq!(c.grid_blocks(), 4);
    }

    #[test]
    fn hot_rows_are_within_table() {
        let w = EmbeddingWorkload::generate(config(), AccessPattern::HighHot, 2, 3);
        let hot = w.hot_rows(100);
        assert_eq!(hot.len(), 100);
        assert!(hot.iter().all(|&r| r < 5_000));
    }

    #[test]
    fn out_of_batch_warp_gets_no_assignment() {
        // Batch of 3 bags with ED=128 needs 1.5 blocks -> grid of 2 blocks,
        // so the last block's second bag is out of range.
        let c = EmbeddingConfig::new(TraceConfig::new(1_000, 3, 4), 128);
        let w = EmbeddingWorkload::generate(c, AccessPattern::Random, 0, 1);
        assert!(w.warp_assignment(1, 0).is_some());
        assert!(w.warp_assignment(1, 4).is_none());
    }

    #[test]
    #[should_panic(expected = "multiple of the 32-thread warp")]
    fn bad_embedding_dim_rejected() {
        let _ = EmbeddingConfig::new(TraceConfig::new(100, 4, 2), 48);
    }

    #[test]
    #[should_panic(expected = "trace shape")]
    fn mismatched_trace_rejected() {
        let cfg_a = EmbeddingConfig::new(TraceConfig::new(100, 4, 2), 64);
        let cfg_b = EmbeddingConfig::new(TraceConfig::new(100, 8, 2), 64);
        let trace = Arc::new(cfg_a.trace.generate(AccessPattern::Random, 1));
        let _ = EmbeddingWorkload::from_trace(cfg_b, trace, 0);
    }
}

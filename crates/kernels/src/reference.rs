//! Functional (numerical) reference implementations of the embedding-bag
//! forward pass.
//!
//! The simulator in `gpu-sim` models timing only; this module provides the
//! actual arithmetic so that the `dlrm` crate can run a real forward pass and
//! so that property tests can check that the SIMT-style work partitioning
//! used by the kernels (one thread per output element) computes exactly the
//! same result as the straightforward per-bag loop of Algorithm 2.

use dlrm_datasets::EmbeddingTrace;

/// A deterministic, procedurally generated embedding table. Generating
/// values on the fly avoids materialising the paper's 60 GB model while
/// still giving every `(row, column)` pair a unique, reproducible value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyntheticTable {
    /// Number of rows.
    pub num_rows: u64,
    /// Elements per row.
    pub embedding_dim: u32,
    /// Seed folded into every value.
    pub seed: u64,
}

impl SyntheticTable {
    /// Creates a synthetic table.
    pub fn new(num_rows: u64, embedding_dim: u32, seed: u64) -> Self {
        assert!(num_rows > 0 && embedding_dim > 0, "table must be non-empty");
        SyntheticTable {
            num_rows,
            embedding_dim,
            seed,
        }
    }

    /// The value stored at `(row, col)`.
    ///
    /// # Panics
    /// Panics if the coordinates are out of range.
    pub fn value(&self, row: u64, col: u32) -> f32 {
        assert!(row < self.num_rows, "row {row} out of range");
        assert!(col < self.embedding_dim, "column {col} out of range");
        let mut x = row
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(col as u64)
            .wrapping_add(self.seed.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        x ^= x >> 32;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 29;
        // Map to a small, well-conditioned range so fp32 sums stay exact
        // enough for bit-equality between summation orders over one bag.
        ((x % 2048) as f32 - 1024.0) / 1024.0
    }

    /// Materialises one full row (mainly useful for tests).
    pub fn row(&self, row: u64) -> Vec<f32> {
        (0..self.embedding_dim)
            .map(|c| self.value(row, c))
            .collect()
    }
}

/// The straightforward embedding-bag forward pass (sum pooling), looping over
/// bags exactly as the paper's Algorithm 2 does. Returns a
/// `batch_size * embedding_dim` row-major output matrix.
///
/// # Panics
/// Panics if the trace's row indices exceed the table size.
pub fn embedding_bag_forward(table: &SyntheticTable, trace: &EmbeddingTrace) -> Vec<f32> {
    let ed = table.embedding_dim as usize;
    let mut out = vec![0.0f32; trace.num_bags() * ed];
    for bag in 0..trace.num_bags() {
        for &row in trace.bag(bag) {
            assert!(
                (row as u64) < table.num_rows,
                "trace references row {row} beyond the table"
            );
            for col in 0..ed {
                out[bag * ed + col] += table.value(row as u64, col as u32);
            }
        }
    }
    out
}

/// The same computation partitioned the way the CUDA kernel partitions it:
/// one "thread" per `(bag, column)` output element, each reducing its own
/// column across the bag's lookups (paper Figure 4). Must produce bit-equal
/// results to [`embedding_bag_forward`] because each output element is summed
/// in the same order.
pub fn embedding_bag_forward_simt(table: &SyntheticTable, trace: &EmbeddingTrace) -> Vec<f32> {
    let ed = table.embedding_dim as usize;
    let batch = trace.num_bags();
    let mut out = vec![0.0f32; batch * ed];
    // Iterate "threads" in launch order: block by block, warp by warp.
    for thread in 0..batch * ed {
        let bag = thread / ed;
        let col = (thread % ed) as u32;
        let mut acc = 0.0f32;
        for &row in trace.bag(bag) {
            acc += table.value(row as u64, col);
        }
        out[bag * ed + col as usize] = acc;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrm_datasets::{AccessPattern, TraceConfig};

    fn trace(pattern: AccessPattern) -> EmbeddingTrace {
        TraceConfig::new(1_000, 16, 8).generate(pattern, 5)
    }

    #[test]
    fn synthetic_values_are_deterministic_and_bounded() {
        let t = SyntheticTable::new(100, 32, 7);
        for row in 0..100 {
            for col in 0..32 {
                let v = t.value(row, col);
                assert_eq!(v, t.value(row, col));
                assert!((-1.0..=1.0).contains(&v));
            }
        }
    }

    #[test]
    fn different_rows_have_different_contents() {
        let t = SyntheticTable::new(100, 64, 0);
        assert_ne!(t.row(1), t.row(2));
        let s1: f32 = t.row(1).iter().sum();
        let s2: f32 = t.row(2).iter().sum();
        assert_ne!(s1, s2);
    }

    #[test]
    fn forward_output_has_expected_shape() {
        let t = SyntheticTable::new(1_000, 64, 1);
        let tr = trace(AccessPattern::MedHot);
        let out = embedding_bag_forward(&t, &tr);
        assert_eq!(out.len(), 16 * 64);
    }

    #[test]
    fn simt_partitioning_matches_reference_exactly() {
        let t = SyntheticTable::new(1_000, 64, 3);
        for pattern in AccessPattern::ALL {
            let tr = trace(pattern);
            let a = embedding_bag_forward(&t, &tr);
            let b = embedding_bag_forward_simt(&t, &tr);
            assert_eq!(a, b, "partitioned sum must be bit-identical for {pattern}");
        }
    }

    #[test]
    fn one_item_bags_are_multiples_of_the_row() {
        let t = SyntheticTable::new(1_000, 32, 11);
        let tr = TraceConfig::new(1_000, 4, 8).generate(AccessPattern::OneItem, 2);
        let row = tr.indices[0] as u64;
        let out = embedding_bag_forward(&t, &tr);
        for col in 0..32u32 {
            let expected = t.value(row, col) * 8.0;
            assert!((out[col as usize] - expected).abs() < 1e-4);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_value_panics() {
        let t = SyntheticTable::new(10, 8, 0);
        let _ = t.value(10, 0);
    }
}

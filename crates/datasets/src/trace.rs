//! Embedding lookup traces: the (offsets, indices) pair consumed by the
//! embedding-bag operator (paper Algorithm 2).

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::coverage::CoverageCurve;
use crate::pattern::AccessPattern;
use crate::zipf::{RowPermutation, ZipfSampler};

/// Shape of the trace for one embedding table: how many rows the table has
/// and how much work one inference batch performs against it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Number of rows in the embedding table, at most 2^32: trace indices
    /// are stored as `u32` row ids.
    pub num_rows: u64,
    /// Samples per batch (the paper uses 2048).
    pub batch_size: u32,
    /// Lookups per sample, a.k.a. the pooling factor (the paper uses 150).
    pub pooling_factor: u32,
}

impl TraceConfig {
    /// Creates a trace configuration.
    ///
    /// # Panics
    /// Panics if any dimension is zero, or if `num_rows` exceeds 2^32 (the
    /// trace stores row ids as `u32`, so larger tables could not be
    /// indexed past row 2^32 - 1).
    pub fn new(num_rows: u64, batch_size: u32, pooling_factor: u32) -> Self {
        assert!(num_rows > 0, "a table must have at least one row");
        assert!(
            num_rows <= 1 << 32,
            "a table may have at most 2^32 rows (row ids are u32), got {num_rows}"
        );
        assert!(batch_size > 0, "the batch must contain at least one sample");
        assert!(
            pooling_factor > 0,
            "each sample must perform at least one lookup"
        );
        TraceConfig {
            num_rows,
            batch_size,
            pooling_factor,
        }
    }

    /// The paper's full-scale configuration: 500K rows, batch size 2048,
    /// pooling factor 150 (Section V).
    pub fn paper_scale() -> Self {
        TraceConfig::new(500_000, 2048, 150)
    }

    /// Total number of lookups in the trace.
    pub fn total_lookups(&self) -> u64 {
        self.batch_size as u64 * self.pooling_factor as u64
    }

    /// Generates a trace for `pattern` using `seed` for reproducibility.
    pub fn generate(&self, pattern: AccessPattern, seed: u64) -> EmbeddingTrace {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1CE_5EED);
        let total = self.total_lookups() as usize;
        let mut indices = Vec::with_capacity(total);
        match pattern {
            AccessPattern::OneItem => {
                // All lookups point at the same (arbitrary but fixed) row.
                let row = (seed % self.num_rows.max(1)) as u32;
                indices.resize(total, row.min((self.num_rows - 1) as u32));
            }
            AccessPattern::Random => {
                for _ in 0..total {
                    indices.push(rng.gen_range(0..self.num_rows) as u32);
                }
            }
            AccessPattern::HighHot | AccessPattern::MedHot | AccessPattern::LowHot => {
                let sampler = ZipfSampler::new(
                    self.num_rows,
                    pattern
                        .zipf_exponent()
                        .expect("hot patterns have a Zipf exponent"),
                );
                for _ in 0..total {
                    indices.push(sampler.sample(&mut rng) as u32);
                }
            }
        }
        let mut offsets = Vec::with_capacity(self.batch_size as usize + 1);
        for bag in 0..=self.batch_size {
            offsets.push(bag * self.pooling_factor);
        }
        EmbeddingTrace {
            config: *self,
            pattern,
            indices,
            offsets,
        }
    }

    /// Generates the list of hot-row candidates an offline profiling pass
    /// would identify for this pattern (used by L2 pinning; paper Figure 10,
    /// step 1). Returns at most `count` rows, hottest first.
    pub fn hot_row_candidates(&self, pattern: AccessPattern, count: usize, seed: u64) -> Vec<u64> {
        match pattern {
            AccessPattern::OneItem => vec![(seed % self.num_rows.max(1)).min(self.num_rows - 1)],
            AccessPattern::Random => {
                // No reuse structure to exploit; profiling would return the
                // most recently seen rows, which we approximate as the first
                // `count` rows of the table.
                (0..count.min(self.num_rows as usize) as u64).collect()
            }
            // Popularity order is the sampler's rank->row permutation,
            // which needs no CDF (and so no per-row `powf`).
            AccessPattern::HighHot | AccessPattern::MedHot | AccessPattern::LowHot => {
                RowPermutation::new(self.num_rows).hottest_rows(count)
            }
        }
    }
}

/// A concrete lookup trace for one embedding table and one batch: the
/// `offsets`/`indices` arrays handed to the embedding-bag CUDA kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmbeddingTrace {
    /// The configuration the trace was generated from.
    pub config: TraceConfig,
    /// The access pattern used to generate the trace.
    pub pattern: AccessPattern,
    /// Row index of every lookup, `batch_size * pooling_factor` entries.
    pub indices: Vec<u32>,
    /// Per-bag start offsets into `indices`, `batch_size + 1` entries.
    pub offsets: Vec<u32>,
}

impl EmbeddingTrace {
    /// Total number of lookups in the trace.
    pub fn total_lookups(&self) -> u64 {
        self.indices.len() as u64
    }

    /// The lookups belonging to one bag (sample).
    ///
    /// # Panics
    /// Panics if `bag` is out of range.
    pub fn bag(&self, bag: usize) -> &[u32] {
        let start = self.offsets[bag] as usize;
        let end = self.offsets[bag + 1] as usize;
        &self.indices[start..end]
    }

    /// Number of bags (samples) in the trace.
    pub fn num_bags(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of distinct rows touched by the trace.
    pub fn unique_rows(&self) -> u64 {
        // audit:allow(unordered_collection): cardinality only, never iterated
        let set: HashSet<u32> = self.indices.iter().copied().collect();
        set.len() as u64
    }

    /// Unique accesses as a percentage of total accesses — the paper's
    /// Table III metric ("the proportion of distinct accesses compared to
    /// the total number of accesses").
    pub fn unique_access_pct(&self) -> f64 {
        100.0 * self.unique_rows() as f64 / self.total_lookups() as f64
    }

    /// Working-set size in bytes given the embedding row width.
    pub fn working_set_bytes(&self, row_bytes: u64) -> u64 {
        self.unique_rows() * row_bytes
    }

    /// Builds the coverage curve of the trace (paper Figure 5).
    pub fn coverage_curve(&self) -> CoverageCurve {
        CoverageCurve::from_indices(&self.indices)
    }

    /// Per-row access counts, sorted hottest first, as `(row, count)`.
    pub fn row_popularity(&self) -> Vec<(u32, u64)> {
        // audit:allow(unordered_collection): drained via sort_by with an
        // explicit row-id tie-break below, so order is canonical
        let mut counts: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
        for &idx in &self.indices {
            *counts.entry(idx).or_insert(0) += 1;
        }
        let mut v: Vec<(u32, u64)> = counts.into_iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TraceConfig {
        TraceConfig::new(100_000, 256, 40)
    }

    #[test]
    fn trace_has_expected_shape() {
        let t = cfg().generate(AccessPattern::MedHot, 1);
        assert_eq!(t.total_lookups(), 256 * 40);
        assert_eq!(t.num_bags(), 256);
        assert_eq!(t.offsets.len(), 257);
        assert_eq!(t.bag(0).len(), 40);
        assert_eq!(t.bag(255).len(), 40);
    }

    #[test]
    fn indices_are_in_range_for_all_patterns() {
        for p in AccessPattern::ALL {
            let t = cfg().generate(p, 3);
            assert!(
                t.indices.iter().all(|&i| (i as u64) < cfg().num_rows),
                "pattern {p} produced out-of-range indices"
            );
        }
    }

    #[test]
    fn one_item_touches_a_single_row() {
        let t = cfg().generate(AccessPattern::OneItem, 9);
        assert_eq!(t.unique_rows(), 1);
        assert!(t.unique_access_pct() < 0.1);
    }

    #[test]
    fn unique_access_pct_orders_by_hotness() {
        let cfg = TraceConfig::new(200_000, 512, 64);
        let mut prev = -1.0;
        for p in AccessPattern::ALL {
            let t = cfg.generate(p, 11);
            let u = t.unique_access_pct();
            assert!(
                u >= prev,
                "unique access % should not decrease as hotness drops: {p} gave {u} after {prev}"
            );
            prev = u;
        }
    }

    #[test]
    fn random_unique_fraction_matches_sampling_theory() {
        // Uniform sampling of N draws over R rows yields an expected unique
        // fraction of R(1 - (1 - 1/R)^N) / N.
        let cfg = TraceConfig::new(100_000, 512, 64);
        let t = cfg.generate(AccessPattern::Random, 5);
        let n = cfg.total_lookups() as f64;
        let r = cfg.num_rows as f64;
        let expected = r * (1.0 - (1.0 - 1.0 / r).powf(n)) / n * 100.0;
        let measured = t.unique_access_pct();
        assert!(
            (measured - expected).abs() < 3.0,
            "measured {measured:.2}% vs expected {expected:.2}%"
        );
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = cfg().generate(AccessPattern::HighHot, 42);
        let b = cfg().generate(AccessPattern::HighHot, 42);
        let c = cfg().generate(AccessPattern::HighHot, 43);
        assert_eq!(a, b);
        assert_ne!(a.indices, c.indices);
    }

    #[test]
    fn working_set_scales_with_row_bytes() {
        let t = cfg().generate(AccessPattern::LowHot, 2);
        assert_eq!(t.working_set_bytes(512), t.unique_rows() * 512);
    }

    #[test]
    fn hot_candidates_cover_most_hot_trace_accesses() {
        let cfg = TraceConfig::new(100_000, 512, 64);
        let t = cfg.generate(AccessPattern::HighHot, 7);
        // audit:allow(unordered_collection): membership checks only
        let candidates: HashSet<u64> = cfg
            .hot_row_candidates(AccessPattern::HighHot, 4096, 7)
            .into_iter()
            .collect();
        let covered = t
            .indices
            .iter()
            .filter(|&&i| candidates.contains(&(i as u64)))
            .count() as f64;
        let fraction = covered / t.total_lookups() as f64;
        assert!(
            fraction > 0.5,
            "offline hot candidates should cover most accesses, got {fraction:.2}"
        );
    }

    #[test]
    fn hot_candidates_are_the_samplers_hottest_rows() {
        for pattern in [
            AccessPattern::HighHot,
            AccessPattern::MedHot,
            AccessPattern::LowHot,
        ] {
            let exponent = pattern.zipf_exponent().unwrap();
            for rows in [1, 7, 1_000, 250_000] {
                let cfg = TraceConfig::new(rows, 8, 4);
                for count in [0, 1, 64, 4096] {
                    assert_eq!(
                        cfg.hot_row_candidates(pattern, count, 3),
                        ZipfSampler::new(rows, exponent).hottest_rows(count),
                        "{pattern:?} rows={rows} count={count}"
                    );
                }
            }
        }
    }

    #[test]
    fn row_popularity_is_sorted_and_complete() {
        let t = cfg().generate(AccessPattern::MedHot, 13);
        let pop = t.row_popularity();
        let total: u64 = pop.iter().map(|(_, c)| c).sum();
        assert_eq!(total, t.total_lookups());
        for w in pop.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        assert_eq!(pop.len() as u64, t.unique_rows());
    }

    #[test]
    fn paper_scale_matches_section_v() {
        let c = TraceConfig::paper_scale();
        assert_eq!(c.num_rows, 500_000);
        assert_eq!(c.batch_size, 2048);
        assert_eq!(c.pooling_factor, 150);
        assert_eq!(c.total_lookups(), 307_200);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_batch_rejected() {
        let _ = TraceConfig::new(10, 0, 1);
    }

    #[test]
    fn largest_u32_indexable_table_is_accepted() {
        let t = TraceConfig::new(1 << 32, 1, 4).generate(AccessPattern::Random, 3);
        assert!(t.indices.iter().all(|&i| (i as u64) < 1 << 32));
    }

    #[test]
    #[should_panic(expected = "at most 2^32 rows")]
    fn rows_beyond_u32_ids_rejected() {
        let _ = TraceConfig::new((1 << 32) + 1, 1, 1);
    }
}

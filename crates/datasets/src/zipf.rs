//! A Zipf (power-law) sampler over table rows.
//!
//! Embedding accesses in DLRMs follow a power-law distribution where a small
//! portion of rows services most lookups (paper Section III-B, citing
//! Gupta et al. and the ISCA'23 CPU study). This sampler draws row *ranks*
//! from a Zipf distribution with configurable exponent and then maps ranks to
//! row ids through a pseudo-random permutation, so that the hot rows are
//! scattered across the table instead of clustered at low addresses (which
//! would otherwise give them artificial spatial locality).

use rand::Rng;

/// A sampler producing row indices with a Zipf(`exponent`) popularity
/// distribution over `num_rows` rows.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    exponent: f64,
    /// Cumulative distribution over ranks, normalised to 1.0.
    cdf: Vec<f64>,
    perm: RowPermutation,
}

impl ZipfSampler {
    /// Builds a sampler for `num_rows` rows with the given exponent.
    ///
    /// # Panics
    /// Panics if `num_rows` is zero or `exponent` is negative or not finite.
    pub fn new(num_rows: u64, exponent: f64) -> Self {
        assert!(num_rows > 0, "a table must have at least one row");
        assert!(
            exponent.is_finite() && exponent >= 0.0,
            "the Zipf exponent must be finite and non-negative"
        );
        let n = num_rows as usize;
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for rank in 1..=n as u64 {
            total += 1.0 / (rank as f64).powf(exponent);
            cdf.push(total);
        }
        for v in cdf.iter_mut() {
            *v /= total;
        }
        ZipfSampler {
            exponent,
            cdf,
            perm: RowPermutation::new(num_rows),
        }
    }

    /// Number of rows this sampler draws from.
    pub fn num_rows(&self) -> u64 {
        self.perm.num_rows
    }

    /// The configured exponent.
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// Draws one row index.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        let rank = match self.cdf.binary_search_by(|p| p.partial_cmp(&u).unwrap()) {
            Ok(i) => i,
            Err(i) => i,
        }
        .min(self.cdf.len() - 1) as u64;
        self.rank_to_row(rank)
    }

    /// Maps a popularity rank (0 = most popular) to a row id via a fixed
    /// pseudo-random permutation of the table.
    pub fn rank_to_row(&self, rank: u64) -> u64 {
        self.perm.rank_to_row(rank)
    }

    /// Returns the `count` most popular row ids (in popularity order), i.e.
    /// the candidates the paper's L2-pinning scheme identifies by offline
    /// profiling (Figure 10, step 1).
    pub fn hottest_rows(&self, count: usize) -> Vec<u64> {
        self.perm.hottest_rows(count)
    }

    /// The analytical probability of drawing popularity rank `rank`
    /// (0-based).
    pub fn rank_probability(&self, rank: u64) -> f64 {
        if rank >= self.perm.num_rows {
            return 0.0;
        }
        let prev = if rank == 0 {
            0.0
        } else {
            self.cdf[rank as usize - 1]
        };
        self.cdf[rank as usize] - prev
    }
}

/// The fixed pseudo-random rank->row permutation of a [`ZipfSampler`]. It
/// depends only on the table size, so the hottest rows can be listed
/// without building the sampler's CDF.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowPermutation {
    num_rows: u64,
    mult: u64,
}

impl RowPermutation {
    pub(crate) fn new(num_rows: u64) -> Self {
        RowPermutation {
            num_rows,
            mult: largest_coprime_multiplier(num_rows),
        }
    }

    pub(crate) fn rank_to_row(&self, rank: u64) -> u64 {
        (rank.wrapping_mul(self.mult).wrapping_add(0x9E37_79B9)) % self.num_rows
    }

    pub(crate) fn hottest_rows(&self, count: usize) -> Vec<u64> {
        (0..count.min(self.num_rows as usize) as u64)
            .map(|r| self.rank_to_row(r))
            .collect()
    }
}

/// Picks an odd multiplier that is coprime with `n` so that
/// `rank * mult + c (mod n)` permutes `[0, n)` when `n` is not a multiple of
/// the multiplier's factors. For arbitrary `n` we search downward from a
/// golden-ratio-like constant until `gcd(mult, n) == 1`.
fn largest_coprime_multiplier(n: u64) -> u64 {
    let mut m = 0x9E37_79B9_7F4A_7C15u64 % n.max(2);
    if m < 2 {
        m = 1;
    }
    while gcd(m, n) != 1 {
        m -= 1;
    }
    m.max(1)
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    #[test]
    fn samples_stay_in_range() {
        let s = ZipfSampler::new(1000, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(s.sample(&mut rng) < 1000);
        }
    }

    #[test]
    fn higher_exponent_concentrates_mass() {
        let mut rng = StdRng::seed_from_u64(7);
        let unique_count = |exp: f64, rng: &mut StdRng| {
            let s = ZipfSampler::new(100_000, exp);
            // audit:allow(unordered_collection): cardinality only
            let draws: HashSet<u64> = (0..20_000).map(|_| s.sample(rng)).collect();
            draws.len()
        };
        let hot = unique_count(1.1, &mut rng);
        let warm = unique_count(0.6, &mut rng);
        let cold = unique_count(0.1, &mut rng);
        assert!(hot < warm, "hot={hot} warm={warm}");
        assert!(warm < cold, "warm={warm} cold={cold}");
    }

    #[test]
    fn rank_to_row_is_a_permutation() {
        let s = ZipfSampler::new(10_007, 1.0);
        // audit:allow(unordered_collection): cardinality only
        let rows: HashSet<u64> = (0..10_007).map(|r| s.rank_to_row(r)).collect();
        assert_eq!(rows.len(), 10_007);
    }

    #[test]
    fn hottest_rows_match_rank_mapping_and_are_distinct() {
        let s = ZipfSampler::new(50_000, 1.0);
        let hot = s.hottest_rows(1000);
        assert_eq!(hot.len(), 1000);
        assert_eq!(hot[0], s.rank_to_row(0));
        // audit:allow(unordered_collection): cardinality only
        let set: HashSet<u64> = hot.iter().copied().collect();
        assert_eq!(set.len(), 1000);
    }

    #[test]
    fn hottest_rows_caps_at_table_size() {
        let s = ZipfSampler::new(10, 1.0);
        assert_eq!(s.hottest_rows(100).len(), 10);
    }

    #[test]
    fn rank_probabilities_sum_to_one_and_decrease() {
        let s = ZipfSampler::new(1000, 0.8);
        let total: f64 = (0..1000).map(|r| s.rank_probability(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(s.rank_probability(0) > s.rank_probability(10));
        assert_eq!(s.rank_probability(5000), 0.0);
    }

    #[test]
    fn zero_exponent_is_uniform() {
        let s = ZipfSampler::new(100, 0.0);
        let p0 = s.rank_probability(0);
        let p99 = s.rank_probability(99);
        assert!((p0 - p99).abs() < 1e-12);
        assert!((p0 - 0.01).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one row")]
    fn empty_table_rejected() {
        let _ = ZipfSampler::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "exponent")]
    fn negative_exponent_rejected() {
        let _ = ZipfSampler::new(10, -1.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let s = ZipfSampler::new(10_000, 0.9);
        let mut a = StdRng::seed_from_u64(3);
        let mut b = StdRng::seed_from_u64(3);
        let va: Vec<u64> = (0..100).map(|_| s.sample(&mut a)).collect();
        let vb: Vec<u64> = (0..100).map(|_| s.sample(&mut b)).collect();
        assert_eq!(va, vb);
    }
}

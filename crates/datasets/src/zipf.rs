//! A Zipf (power-law) sampler over table rows.
//!
//! Embedding accesses in DLRMs follow a power-law distribution where a small
//! portion of rows services most lookups (paper Section III-B, citing
//! Gupta et al. and the ISCA'23 CPU study). This sampler draws row *ranks*
//! from a Zipf distribution with configurable exponent and then maps ranks to
//! row ids through a pseudo-random permutation, so that the hot rows are
//! scattered across the table instead of clustered at low addresses (which
//! would otherwise give them artificial spatial locality).
//!
//! # The CDF table
//!
//! A draw returns the first rank `i` whose cumulative probability
//! `cdf[i] = s[i] / s[n-1]` reaches a uniform `u` in `[0, 1)`, where
//! `s[i] = 1/1^e + 1/2^e + … + 1/(i+1)^e` is summed in `f64` in rank
//! order. A table holds about 5 bytes per row instead of the 8 of a full
//! `f64` CDF:
//!
//! - `keys`: every `cdf[i]` rounded toward zero to `f32`;
//! - `checkpoints`: the exact running sum `s` before every 64th rank, plus
//!   the exact total. From these, any exact `cdf[i]` is recomputed bit for
//!   bit with the same `powf` calls and the same addition order;
//! - `guide`: `m ≈ n / 4` cutpoints, `guide[j]` being the first rank whose
//!   key reaches `j / m`.
//!
//! **Exactness.** A draw looks up `u`'s bucket `b = ⌊u·m⌋`, starts at
//! `guide[b - 1]` (one bucket early) and scans forward. Let `k` be `u`
//! rounded toward zero to `f32`. Because a key never exceeds its CDF value
//! and the next `f32` above the key does, a key above `k` proves
//! `cdf[i] > u`, a key below `k` proves `cdf[i] < u`, and only a key equal
//! to `k` needs the exact value. So the scan returns exactly the first rank
//! with `cdf[i] ≥ u` after its start. Every rank before `guide[b - 1]` has
//! a key below `(b - 1) / m`, hence a CDF value below `(b - 1) / m + 2⁻²⁴`,
//! which is still below `u ≥ b / m` because a bucket (`1/m ≥ 2⁻²²`, see
//! `MAX_BUCKETS`) is wider than an `f32` step below 1.0. Starting at
//! `guide[b]` instead would be wrong: a rank whose exact CDF value reaches
//! `b / m` but whose rounded key falls below it sits before `guide[b]`,
//! and it is the answer for every `u` in between. The bucket's own
//! rounding is covered by the same margin.
//!
//! The first rank with `cdf[i] ≥ u` is what `binary_search_by` over the
//! full `f64` CDF returned whenever the CDF is strictly increasing, which
//! it is for every table the access patterns draw from (the unit tests
//! assert it). So traces are identical to those of that search.
//!
//! **Sharing and budget.** Tables depend only on `(num_rows, exponent)`,
//! so each is built once per process and shared by every sampler, trace
//! and worker thread that asks for it; concurrent requests for the same
//! cold table wait for one build. Shared tables are kept within
//! `SHARED_TABLE_BUDGET` bytes, first come first served: Test-scale
//! tables (20,000 rows, ~100 KB each) fit, while a table that does not fit
//! the remaining budget, such as a Default-scale 250,000-row table
//! (~1.3 MB), is built for its sampler and dropped with it.

use std::collections::BTreeMap;
use std::mem::size_of;
use std::sync::{Arc, Mutex, OnceLock};

use rand::Rng;

/// Ranks between two exact running-sum checkpoints.
const CHECKPOINT_STRIDE: usize = 64;

/// Ranks per guide bucket, on average.
const RANKS_PER_BUCKET: u64 = 4;

/// Most guide buckets a table has. Keeps a bucket (`1/m`) four times wider
/// than an `f32` step below 1.0 (`2⁻²⁴`), which the one-bucket step back
/// of the search relies on; only tables past 16M rows hit this.
const MAX_BUCKETS: u64 = 1 << 22;

/// Bytes of CDF tables the process keeps shared.
const SHARED_TABLE_BUDGET: usize = 1 << 20;

/// The process-wide table store.
static SHARED_TABLES: TableStore = TableStore::new(SHARED_TABLE_BUDGET);

/// A sampler producing row indices with a Zipf(`exponent`) popularity
/// distribution over `num_rows` rows.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    table: Arc<CdfTable>,
    perm: RowPermutation,
}

impl ZipfSampler {
    /// Builds a sampler for `num_rows` rows with the given exponent,
    /// reusing the process's shared CDF table when one exists.
    ///
    /// # Panics
    /// Panics if `num_rows` is zero or above 2^32, or if `exponent` is
    /// negative or not finite.
    pub fn new(num_rows: u64, exponent: f64) -> Self {
        Self::from_store(&SHARED_TABLES, num_rows, exponent)
    }

    fn from_store(store: &TableStore, num_rows: u64, exponent: f64) -> Self {
        assert!(num_rows > 0, "a table must have at least one row");
        assert!(
            num_rows <= 1 << 32,
            "a Zipf table may have at most 2^32 rows, got {num_rows}"
        );
        assert!(
            exponent.is_finite() && exponent >= 0.0,
            "the Zipf exponent must be finite and non-negative"
        );
        ZipfSampler {
            table: store.table(num_rows, exponent),
            perm: RowPermutation::new(num_rows),
        }
    }

    /// Number of rows this sampler draws from.
    pub fn num_rows(&self) -> u64 {
        self.perm.num_rows
    }

    /// The configured exponent.
    pub fn exponent(&self) -> f64 {
        self.table.exponent
    }

    /// Draws one row index.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let rank = self.table.rank(rng.gen());
        self.rank_to_row(rank as u64)
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
        let rank = rank as usize;
        let prev = if rank == 0 {
            0.0
        } else {
            self.table.cdf(rank - 1)
        };
        self.table.cdf(rank) - prev
    }
}

/// The compact CDF of one `(num_rows, exponent)` pair; see the module docs.
#[derive(Debug)]
struct CdfTable {
    exponent: f64,
    /// `cdf[i]` rounded toward zero to `f32`.
    keys: Vec<f32>,
    /// `checkpoints[c]`: the exact running sum of the first
    /// `c * CHECKPOINT_STRIDE` terms.
    checkpoints: Vec<f64>,
    /// The exact sum of all terms.
    total: f64,
    /// `guide[j]`: the first rank whose key is at least `j / guide.len()`.
    guide: Vec<u32>,
}

impl CdfTable {
    fn build(num_rows: u64, exponent: f64) -> Self {
        let n = num_rows as usize;
        let mut sums = Vec::with_capacity(n);
        let mut checkpoints = Vec::with_capacity(n.div_ceil(CHECKPOINT_STRIDE));
        let mut total = 0.0f64;
        for rank in 0..n {
            if rank % CHECKPOINT_STRIDE == 0 {
                checkpoints.push(total);
            }
            total += term(rank, exponent);
            sums.push(total);
        }
        let keys: Vec<f32> = sums.iter().map(|&s| key_below(s / total)).collect();
        drop(sums);
        let buckets = bucket_count(num_rows);
        let mut guide = Vec::with_capacity(buckets);
        let mut rank = 0;
        for j in 0..buckets {
            let edge = j as f64 / buckets as f64;
            while (keys[rank] as f64) < edge {
                rank += 1;
            }
            guide.push(rank as u32);
        }
        CdfTable {
            exponent,
            keys,
            checkpoints,
            total,
            guide,
        }
    }

    /// The first rank whose exact CDF value is at least `u`, for `u` in
    /// `[0, 1)`.
    fn rank(&self, u: f64) -> usize {
        let buckets = self.guide.len();
        let bucket = ((u * buckets as f64) as usize).min(buckets - 1);
        let mut rank = self.guide[bucket.saturating_sub(1)] as usize;
        let k = key_below(u);
        // Terminates: the last key is 1.0, above any `k` of a `u` below 1.
        loop {
            let key = self.keys[rank];
            if key > k || (key == k && self.cdf(rank) >= u) {
                return rank;
            }
            rank += 1;
        }
    }

    /// The exact `cdf[rank]`, recomputed from the nearest checkpoint in the
    /// build's addition order.
    fn cdf(&self, rank: usize) -> f64 {
        let c = rank / CHECKPOINT_STRIDE;
        let mut sum = self.checkpoints[c];
        for r in c * CHECKPOINT_STRIDE..=rank {
            sum += term(r, self.exponent);
        }
        sum / self.total
    }
}

/// The unnormalised probability of 0-based `rank`.
fn term(rank: usize, exponent: f64) -> f64 {
    1.0 / ((rank + 1) as f64).powf(exponent)
}

/// `x` rounded toward zero to `f32`, for `x` in `[0, 1]`.
fn key_below(x: f64) -> f32 {
    let key = x as f32;
    if key as f64 > x {
        f32::from_bits(key.to_bits() - 1)
    } else {
        key
    }
}

fn bucket_count(num_rows: u64) -> usize {
    (num_rows / RANKS_PER_BUCKET).clamp(1, MAX_BUCKETS) as usize
}

/// Heap bytes of the table for `num_rows` rows.
fn table_bytes(num_rows: u64) -> usize {
    let n = num_rows as usize;
    n * size_of::<f32>()
        + n.div_ceil(CHECKPOINT_STRIDE) * size_of::<f64>()
        + bucket_count(num_rows) * size_of::<u32>()
}

/// A shared table, filled by the first request for it.
type Slot = Arc<OnceLock<Arc<CdfTable>>>;

/// Shared CDF tables keyed by `(num_rows, exponent bits)`, within a byte
/// budget. Each key's slot is reserved under the lock and built outside
/// it, so concurrent requests for the same cold table wait for one build.
struct TableStore {
    budget: usize,
    tables: Mutex<BTreeMap<(u64, u64), Slot>>,
}

impl TableStore {
    const fn new(budget: usize) -> Self {
        TableStore {
            budget,
            tables: Mutex::new(BTreeMap::new()),
        }
    }

    /// The shared table for the pair, or a private one when it does not fit
    /// the remaining budget.
    fn table(&self, num_rows: u64, exponent: f64) -> Arc<CdfTable> {
        let slot = {
            let mut tables = self.tables.lock().expect("zipf tables poisoned");
            let key = (num_rows, exponent.to_bits());
            let held: usize = tables.keys().map(|&(rows, _)| table_bytes(rows)).sum();
            if tables.contains_key(&key) || held + table_bytes(num_rows) <= self.budget {
                Some(Arc::clone(tables.entry(key).or_default()))
            } else {
                None
            }
        };
        let build = || Arc::new(CdfTable::build(num_rows, exponent));
        match slot {
            Some(slot) => Arc::clone(slot.get_or_init(build)),
            None => build(),
        }
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
impl CdfTable {
    fn heap_bytes(&self) -> usize {
        self.keys.capacity() * size_of::<f32>()
            + self.checkpoints.capacity() * size_of::<f64>()
            + self.guide.capacity() * size_of::<u32>()
    }
}

#[cfg(test)]
impl TableStore {
    /// Heap bytes of the built tables the store holds.
    fn retained_bytes(&self) -> usize {
        self.tables
            .lock()
            .unwrap()
            .values()
            .filter_map(|slot| slot.get())
            .map(|table| table.heap_bytes())
            .sum()
    }
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

    /// The full-`f64` CDF and binary search the compact table replaced.
    struct Reference {
        cdf: Vec<f64>,
    }

    impl Reference {
        fn new(num_rows: u64, exponent: f64) -> Self {
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
            Reference { cdf }
        }

        fn rank(&self, u: f64) -> usize {
            match self.cdf.binary_search_by(|p| p.partial_cmp(&u).unwrap()) {
                Ok(i) => i,
                Err(i) => i,
            }
            .min(self.cdf.len() - 1)
        }

        fn rank_probability(&self, rank: usize) -> f64 {
            let prev = if rank == 0 { 0.0 } else { self.cdf[rank - 1] };
            self.cdf[rank] - prev
        }
    }

    #[test]
    fn table_search_matches_the_full_f64_binary_search() {
        for rows in [1u64, 2, 7, 4_096, 20_000, 250_000] {
            for exponent in [0.0, 0.35, 0.70, 1.05] {
                let at = format!("rows={rows} exponent={exponent}");
                let reference = Reference::new(rows, exponent);
                let cdf = &reference.cdf;
                // What makes "first rank with cdf >= u" the binary search's
                // answer: no two ranks share a CDF value.
                assert!(
                    cdf.windows(2).all(|w| w[0] < w[1]),
                    "{at}: the CDF is not strictly increasing"
                );
                let sampler = ZipfSampler {
                    table: Arc::new(CdfTable::build(rows, exponent)),
                    perm: RowPermutation::new(rows),
                };
                let table = &sampler.table;
                for (&key, &c) in table.keys.iter().zip(cdf) {
                    assert!(key as f64 <= c && c < key.next_up() as f64, "{at}");
                }

                let mut rng = StdRng::seed_from_u64(rows ^ exponent.to_bits());
                let mut us: Vec<f64> = (0..100_000).map(|_| rng.gen()).collect();
                us.extend([0.0, 1.0f64.next_down()]);
                // Exact CDF values make the key tie and take the exact path.
                for &c in cdf.iter().take(5_000) {
                    us.extend([c.next_down(), c, c.next_up()]);
                }
                let buckets = table.guide.len();
                for j in 0..buckets {
                    let edge = j as f64 / buckets as f64;
                    us.extend([edge.next_down(), edge, edge.next_up()]);
                }
                for u in us.into_iter().filter(|u| (0.0..1.0).contains(u)) {
                    assert_eq!(table.rank(u), reference.rank(u), "{at} u={u:e}");
                }

                let n = rows as usize;
                let ranks = (0..n.min(5_000))
                    .chain((0..n).step_by(97))
                    .chain(n.saturating_sub(128)..n);
                for rank in ranks {
                    assert_eq!(
                        table.cdf(rank).to_bits(),
                        cdf[rank].to_bits(),
                        "{at} rank={rank}"
                    );
                    assert_eq!(
                        sampler.rank_probability(rank as u64).to_bits(),
                        reference.rank_probability(rank).to_bits(),
                        "{at} rank={rank}"
                    );
                }
            }
        }
    }

    #[test]
    fn concurrent_builders_share_one_table_and_draw_alike() {
        let store = TableStore::new(SHARED_TABLE_BUDGET);
        let barrier = std::sync::Barrier::new(8);
        let built: Vec<(Arc<CdfTable>, Vec<u64>)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        let sampler = ZipfSampler::from_store(&store, 20_000, 1.05);
                        let mut rng = StdRng::seed_from_u64(5);
                        let draws = (0..1_000).map(|_| sampler.sample(&mut rng)).collect();
                        (sampler.table, draws)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for (table, draws) in &built {
            assert!(Arc::ptr_eq(table, &built[0].0));
            assert_eq!(draws, &built[0].1);
        }
        assert_eq!(store.retained_bytes(), table_bytes(20_000));
    }

    #[test]
    fn tables_past_the_budget_are_built_and_used_but_not_retained() {
        let store = TableStore::new(table_bytes(20_000) + table_bytes(4_096));
        let table = |rows, exponent| ZipfSampler::from_store(&store, rows, exponent).table;
        let kept = table(20_000, 1.05);
        let over = table(20_000, 0.70);
        let small = table(4_096, 0.70);
        assert!(Arc::ptr_eq(&kept, &table(20_000, 1.05)));
        assert!(!Arc::ptr_eq(&over, &table(20_000, 0.70)));
        assert!(Arc::ptr_eq(&small, &table(4_096, 0.70)));

        let reference = Reference::new(20_000, 0.70);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let u = rng.gen();
            assert_eq!(over.rank(u), reference.rank(u), "u={u:e}");
        }
        assert_eq!(over.heap_bytes(), table_bytes(20_000));
        assert_eq!(
            store.retained_bytes(),
            table_bytes(20_000) + table_bytes(4_096)
        );
        assert!(store.retained_bytes() <= store.budget);
    }

    #[test]
    fn the_shared_budget_keeps_test_scale_tables_and_drops_default_scale_ones() {
        // Three hot patterns at Test scale plus the coverage-skew probe.
        assert!(3 * (table_bytes(20_000) + table_bytes(4_096)) <= SHARED_TABLE_BUDGET);
        assert!(table_bytes(250_000) > SHARED_TABLE_BUDGET);
        let default_scale = || ZipfSampler::new(250_000, 1.05).table;
        assert!(!Arc::ptr_eq(&default_scale(), &default_scale()));
        assert!(SHARED_TABLES.retained_bytes() <= SHARED_TABLE_BUDGET);
    }
}

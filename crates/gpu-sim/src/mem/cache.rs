//! A set-associative cache model with LRU replacement and Ampere-style
//! residency control (persisting lines with an evict-last policy).
//!
//! The L2 pinning optimization in the paper relies on
//! `cudaAccessPropertyPersisting` / `prefetch.global.L2::evict_last`: a
//! carve-out of at most 75% of the L2 holds "persisting" lines which the
//! replacement policy prefers to keep. This model implements exactly that
//! behaviour: within a set, non-persistent victims are chosen before
//! persistent ones, and the total number of persistent lines is capped at the
//! configured carve-out.
//!
//! Demand traffic goes through [`Cache::access_or_fill`], which behaves
//! exactly like [`Cache::access`] followed, on a miss, by a normal
//! [`Cache::fill`], but locates the set once and finds the hit and the
//! first invalid way in one pass over its tags; it reads LRU stamps only
//! when every way is valid. Persistent fills (L2 pinning) still go through
//! `fill`, which also promotes resident lines.

use crate::config::CacheConfig;

/// Hit/miss counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of lookups performed.
    pub accesses: u64,
    /// Number of lookups that hit.
    pub hits: u64,
    /// Number of lines filled.
    pub fills: u64,
    /// Number of valid lines evicted to make room for fills.
    pub evictions: u64,
    /// Number of persistent (pinned) lines evicted.
    pub persistent_evictions: u64,
}

impl CacheStats {
    /// Number of misses.
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }
}

/// Valid bit packed into a way's tag word (tags are line addresses divided
/// by line size and set count, far below 2^62, so the top bits are free).
const VALID: u64 = 1 << 63;
/// Persistent (evict-last) bit packed into a way's tag word.
const PERSISTENT: u64 = 1 << 62;
/// Mask selecting the tag payload of a tag word.
const TAG_MASK: u64 = (1 << 62) - 1;

/// A set-associative, LRU cache with an optional persisting carve-out.
///
/// Lines are stored as one contiguous array with `ways` entries per set
/// (instead of one heap allocation per set): an A100-sized L2 has 20 480
/// sets, and a per-set `Vec` would cost an allocation each at construction
/// and a pointer chase on every lookup. Tags and LRU timestamps live in
/// *separate* arrays (structure-of-arrays): the dominant operation is the
/// hit scan, which reads every way's tag but touches at most one way's
/// timestamp, so splitting them halves the host cache lines the scan pulls
/// in (a 16-way L2 set's tags span two 64-byte lines instead of four).
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// Per-way tag words (`VALID`/`PERSISTENT` flags in the top bits),
    /// `ways` entries per set.
    tags: Vec<u64>,
    /// Per-way LRU timestamps, indexed identically to `tags`.
    last_use: Vec<u64>,
    ways: usize,
    num_sets: u64,
    /// `log2(line_bytes)` when the line size is a power of two, so the hot
    /// lookup path shifts instead of dividing.
    line_shift: Option<u32>,
    /// `log2(num_sets)` when the set count is a power of two.
    set_shift: Option<u32>,
    /// Round-up reciprocal of `num_sets` for the non-power-of-two case
    /// (`floor(2^85 / num_sets) + 1`): `(x * set_magic) >> 85` equals
    /// `x / num_sets` exactly for all `x < 2^43` (see [`Cache::locate`]),
    /// replacing the hardware divide on every lookup — the A100's L1 (384
    /// sets) and L2 (20 480 sets) are both non-powers of two.
    set_magic: u128,
    /// Current number of resident persistent lines.
    persistent_lines: u64,
    /// Maximum number of persistent lines allowed (carve-out).
    persistent_capacity_lines: u64,
    /// Running statistics.
    pub stats: CacheStats,
}

impl Cache {
    /// Creates a cache from its configuration with no persisting carve-out.
    pub fn new(cfg: CacheConfig) -> Self {
        let num_sets = cfg.num_sets();
        // A degenerate configuration (associativity larger than the line
        // count) must not inflate the capacity beyond what was configured.
        let ways = cfg.associativity.min(cfg.num_lines().max(1) as usize);
        let tags = vec![0u64; num_sets as usize * ways];
        let last_use = vec![0u64; num_sets as usize * ways];
        let line_shift = cfg
            .line_bytes
            .is_power_of_two()
            .then(|| cfg.line_bytes.trailing_zeros());
        let set_shift = num_sets
            .is_power_of_two()
            .then(|| num_sets.trailing_zeros());
        let set_magic = (1u128 << 85) / num_sets as u128 + 1;
        Cache {
            cfg,
            tags,
            last_use,
            ways,
            num_sets,
            line_shift,
            set_shift,
            set_magic,
            persistent_lines: 0,
            persistent_capacity_lines: 0,
            stats: CacheStats::default(),
        }
    }

    /// Index range of one set's ways within `tags`/`last_use`.
    #[inline]
    fn span(&self, set_idx: usize) -> std::ops::Range<usize> {
        set_idx * self.ways..(set_idx + 1) * self.ways
    }

    /// Sets the persisting carve-out capacity in bytes (rounded down to whole
    /// lines). Lines marked persistent beyond this capacity are inserted as
    /// normal lines.
    pub fn set_persisting_capacity(&mut self, bytes: u64) {
        self.persistent_capacity_lines = bytes / self.cfg.line_bytes;
    }

    /// Number of currently resident persistent lines.
    pub fn persistent_lines(&self) -> u64 {
        self.persistent_lines
    }

    /// The cache line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.cfg.line_bytes
    }

    /// The hit latency in cycles.
    pub fn hit_latency(&self) -> u64 {
        self.cfg.hit_latency
    }

    /// Maps a line address to `(set index, tag)` with a single line-index
    /// computation, shifting instead of dividing for power-of-two
    /// geometries (every lookup goes through here, so this is the hottest
    /// arithmetic in the memory hierarchy).
    #[inline]
    fn locate(&self, line_addr: u64) -> (usize, u64) {
        let line_index = match self.line_shift {
            Some(s) => line_addr >> s,
            None => line_addr / self.cfg.line_bytes,
        };
        match self.set_shift {
            Some(s) => ((line_index & (self.num_sets - 1)) as usize, line_index >> s),
            None => {
                // Granlund–Montgomery round-up reciprocal: with
                // `m = floor(2^85 / d) + 1` the error `e = m*d - 2^85`
                // satisfies `0 < e <= d`, so `x*m/2^85 = x/d + x*e/(d*2^85)`
                // and the fractional excess `x*e/2^85 <= x*d/2^85 < 1/d`
                // for `x < 2^43`, `d < 2^42` — the quotient is exact.
                let tag = if line_index < 1 << 43 {
                    ((line_index as u128 * self.set_magic) >> 85) as u64
                } else {
                    line_index / self.num_sets
                };
                ((line_index - tag * self.num_sets) as usize, tag)
            }
        }
    }

    /// Looks up a line, updating LRU state and hit/miss statistics.
    /// Returns `true` on a hit.
    #[inline]
    pub fn access(&mut self, line_addr: u64, now: u64) -> bool {
        self.stats.accesses += 1;
        let (set_idx, tag) = self.locate(line_addr);
        let want = tag | VALID;
        for i in self.span(set_idx) {
            if self.tags[i] & (VALID | TAG_MASK) == want {
                self.last_use[i] = now;
                self.stats.hits += 1;
                return true;
            }
        }
        false
    }

    /// [`Cache::access`] followed, on a miss, by `fill(line_addr, false,
    /// now)`, with the same statistics, victim order and return value (a
    /// hit), from one set lookup: the tag pass that looks for the line also
    /// records the first invalid way, so only a full set reads its LRU
    /// stamps.
    #[inline]
    pub fn access_or_fill(&mut self, line_addr: u64, now: u64) -> bool {
        self.stats.accesses += 1;
        let (set_idx, tag) = self.locate(line_addr);
        debug_assert!(tag & !TAG_MASK == 0, "tag overflows the packing");
        let want = tag | VALID;
        let span = self.span(set_idx);
        let mut invalid = usize::MAX;
        for i in span.clone() {
            let w = self.tags[i];
            if w & (VALID | TAG_MASK) == want {
                self.last_use[i] = now;
                self.stats.hits += 1;
                return true;
            }
            if w & VALID == 0 && invalid == usize::MAX {
                invalid = i;
            }
        }
        self.stats.fills += 1;
        let victim = if invalid != usize::MAX {
            invalid
        } else {
            // Same order as `fill`: the first LRU non-persistent way, else
            // (every way pinned) the first LRU way.
            let mut lru = span.start;
            let mut lru_normal = usize::MAX;
            for i in span {
                let stamp = self.last_use[i];
                if stamp < self.last_use[lru] {
                    lru = i;
                }
                if self.tags[i] & PERSISTENT == 0
                    && (lru_normal == usize::MAX || stamp < self.last_use[lru_normal])
                {
                    lru_normal = i;
                }
            }
            if lru_normal != usize::MAX {
                lru_normal
            } else {
                lru
            }
        };
        let evicted = self.tags[victim];
        self.tags[victim] = want;
        self.last_use[victim] = now;
        if evicted & VALID != 0 {
            self.stats.evictions += 1;
            if evicted & PERSISTENT != 0 {
                self.stats.persistent_evictions += 1;
                self.persistent_lines -= 1;
            }
        }
        false
    }

    /// Probes for a line without updating statistics or LRU state.
    pub fn probe(&self, line_addr: u64) -> bool {
        let (set_idx, tag) = self.locate(line_addr);
        let want = tag | VALID;
        self.tags[self.span(set_idx)]
            .iter()
            .any(|&w| w & (VALID | TAG_MASK) == want)
    }

    /// Returns whether the given line is resident *and* marked persistent.
    pub fn is_persistent(&self, line_addr: u64) -> bool {
        let (set_idx, tag) = self.locate(line_addr);
        let want = tag | VALID | PERSISTENT;
        self.tags[self.span(set_idx)].contains(&want)
    }

    /// Installs a line. If `persistent` is requested and the carve-out has
    /// room, the line is marked evict-last; otherwise it is installed as a
    /// normal line. Returns `true` if the line was installed as persistent.
    pub fn fill(&mut self, line_addr: u64, persistent: bool, now: u64) -> bool {
        let (set_idx, tag) = self.locate(line_addr);
        debug_assert!(tag & !TAG_MASK == 0, "tag overflows the packing");
        self.stats.fills += 1;
        let span = self.span(set_idx);

        // Already resident: update flags in place (a prefetch may promote a
        // resident line to persistent).
        let can_pin_more = self.persistent_lines < self.persistent_capacity_lines;
        let want = tag | VALID;
        if let Some(i) = span
            .clone()
            .find(|&i| self.tags[i] & (VALID | TAG_MASK) == want)
        {
            self.last_use[i] = now;
            if persistent && self.tags[i] & PERSISTENT == 0 && can_pin_more {
                self.tags[i] |= PERSISTENT;
                self.persistent_lines += 1;
                return true;
            }
            return self.tags[i] & PERSISTENT != 0;
        }

        let install_persistent = persistent && can_pin_more;

        // Choose a victim: invalid first, then LRU among non-persistent,
        // then LRU among persistent (evict-last behaviour).
        let victim = if let Some(i) = span.clone().find(|&i| self.tags[i] & VALID == 0) {
            i
        } else if let Some(i) = span
            .clone()
            .filter(|&i| self.tags[i] & PERSISTENT == 0)
            .min_by_key(|&i| self.last_use[i])
        {
            i
        } else {
            // Every way is persistent: evict the LRU persistent line.
            span.min_by_key(|&i| self.last_use[i]).unwrap()
        };

        let evicted = self.tags[victim];
        self.tags[victim] = tag | VALID | if install_persistent { PERSISTENT } else { 0 };
        self.last_use[victim] = now;
        if evicted & VALID != 0 {
            self.stats.evictions += 1;
            if evicted & PERSISTENT != 0 {
                self.stats.persistent_evictions += 1;
                self.persistent_lines -= 1;
            }
        }
        if install_persistent {
            self.persistent_lines += 1;
        }
        install_persistent
    }

    /// Number of valid lines currently resident (O(capacity); intended for
    /// tests and diagnostics).
    pub fn resident_lines(&self) -> u64 {
        self.tags.iter().filter(|&&w| w & VALID != 0).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache(lines: u64, assoc: usize) -> Cache {
        Cache::new(CacheConfig {
            capacity_bytes: lines * 128,
            line_bytes: 128,
            associativity: assoc,
            hit_latency: 10,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small_cache(8, 2);
        assert!(!c.access(0, 0));
        c.fill(0, false, 0);
        assert!(c.access(0, 1));
        assert_eq!(c.stats.accesses, 2);
        assert_eq!(c.stats.hits, 1);
    }

    #[test]
    fn lru_replacement_evicts_oldest() {
        // 2-way cache with 4 sets: lines 0, 512, 1024 map to set 0.
        let mut c = small_cache(8, 2);
        c.fill(0, false, 0);
        c.fill(512, false, 1);
        // Touch line 0 so 512 becomes LRU.
        assert!(c.access(0, 2));
        c.fill(1024, false, 3);
        assert!(c.probe(0));
        assert!(!c.probe(512));
        assert!(c.probe(1024));
    }

    #[test]
    fn persistent_lines_survive_thrashing() {
        let mut c = small_cache(8, 2);
        c.set_persisting_capacity(4 * 128);
        assert!(c.fill(0, true, 0));
        // Stream many conflicting lines through set 0.
        for i in 1..20u64 {
            c.fill(i * 512, false, i);
        }
        assert!(c.probe(0), "pinned line should still be resident");
        assert!(c.is_persistent(0));
    }

    #[test]
    fn persistent_capacity_is_enforced() {
        let mut c = small_cache(64, 4);
        c.set_persisting_capacity(2 * 128);
        assert!(c.fill(0, true, 0));
        assert!(c.fill(128, true, 1));
        // Third pin request exceeds the carve-out and degrades to normal.
        assert!(!c.fill(256, true, 2));
        assert_eq!(c.persistent_lines(), 2);
    }

    #[test]
    fn all_persistent_set_still_allows_progress() {
        let mut c = small_cache(8, 2);
        c.set_persisting_capacity(8 * 128);
        c.fill(0, true, 0);
        c.fill(512, true, 1);
        // Set 0 now holds only persistent lines; a new fill must still work.
        c.fill(1024, false, 2);
        assert!(c.probe(1024));
        assert_eq!(c.stats.persistent_evictions, 1);
    }

    #[test]
    fn promote_resident_line_to_persistent() {
        let mut c = small_cache(8, 2);
        c.set_persisting_capacity(128);
        c.fill(0, false, 0);
        assert!(!c.is_persistent(0));
        assert!(c.fill(0, true, 1));
        assert!(c.is_persistent(0));
        assert_eq!(c.persistent_lines(), 1);
    }

    #[test]
    fn non_power_of_two_set_count_maps_like_the_division_formula() {
        // The A100 L2 has 20480 sets — not a power of two — so the lookup
        // must fall back to division and agree with the reference mapping.
        let mut c = Cache::new(CacheConfig {
            capacity_bytes: 3 * 128 * 16, // 3 sets of 16 ways
            line_bytes: 128,
            associativity: 16,
            hit_latency: 10,
        });
        assert_eq!(c.num_sets, 3);
        for i in 0..64u64 {
            let addr = i * 128;
            c.fill(addr, false, i);
            assert!(c.probe(addr));
            // Distinct lines mapping to the same set must not alias.
            assert!(!c.probe(addr + 3 * 128 * 64));
        }
    }

    #[test]
    fn reciprocal_set_mapping_matches_division_exactly() {
        // Real non-power-of-two geometries (A100 L1 = 384 sets, L2 = 20480
        // sets) plus awkward divisors; sweep line indices across the exact
        // range, its boundary, and beyond (where the fallback divides).
        for sets in [3u64, 7, 384, 20480, (1 << 21) - 1] {
            let c = Cache::new(CacheConfig {
                capacity_bytes: sets * 128,
                line_bytes: 128,
                associativity: 1,
                hit_latency: 1,
            });
            assert_eq!(c.num_sets, sets);
            let probes = (0..4096).map(|i| i * 977).chain([
                (1 << 43) - 2,
                (1 << 43) - 1,
                1 << 43,
                u64::MAX / 128,
            ]);
            for line_index in probes {
                let (set, tag) = c.locate(line_index * 128);
                assert_eq!(set as u64, line_index % sets, "set for {line_index}/{sets}");
                assert_eq!(tag, line_index / sets, "tag for {line_index}/{sets}");
            }
        }
    }

    #[test]
    fn access_or_fill_evicts_unpinned_lru_before_pinned() {
        // 2 ways of set 0: pin line 0, then stream 512, 1024 through.
        let mut c = small_cache(8, 2);
        c.set_persisting_capacity(128);
        assert!(c.fill(0, true, 0));
        assert!(!c.access_or_fill(512, 1));
        assert!(!c.access_or_fill(1024, 2));
        assert!(c.is_persistent(0));
        assert!(!c.probe(512));
        assert_eq!(c.stats.evictions, 1);
        assert_eq!(c.stats.persistent_evictions, 0);
    }

    #[test]
    fn resident_line_count() {
        let mut c = small_cache(8, 2);
        assert_eq!(c.resident_lines(), 0);
        c.fill(0, false, 0);
        c.fill(128, false, 0);
        assert_eq!(c.resident_lines(), 2);
    }
}

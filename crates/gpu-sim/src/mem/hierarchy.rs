//! The per-device memory system: per-SM L1 data caches, a shared L2 with a
//! persisting carve-out, shared memory, and HBM.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use crate::config::GpuConfig;
use crate::isa::MemSpace;
use crate::mem::cache::Cache;
use crate::mem::dram::Dram;

/// Where a load's line was serviced from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Serviced from shared memory.
    SharedMem,
    /// The line hit in the SM's L1 data cache.
    L1Hit,
    /// The line missed L1 and hit in L2.
    L2Hit,
    /// The line had to be fetched from device memory.
    DramAccess,
}

/// Where an in-flight prefetch fill will land, used to key its reported
/// completion deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum FillSite {
    /// An L1 fill for `(sm, line)`.
    L1 { sm: usize, line: u64 },
    /// An L2 fill for `line`.
    L2 { line: u64 },
}

/// The complete memory hierarchy of one simulated device.
#[derive(Debug)]
pub struct MemorySystem {
    l1: Vec<Cache>,
    l2: Cache,
    dram: Dram,
    shared_latency: u64,
    /// Lines installed in an L1 by an in-flight software prefetch, keyed by
    /// `(sm, line)` and holding the cycle at which the data actually arrives.
    /// A demand load that hits such a line before its fill completes waits
    /// for the fill instead of enjoying a full-speed hit (MSHR-style
    /// hit-under-miss), which is what limits the usefulness of `L1DPF` at
    /// short prefetch distances. One map per SM: each SM's L1 fills are
    /// independent, and the per-SM emptiness check on the demand-hit fast
    /// path stays cheap even while another SM has fills in flight.
    // audit:allow(unordered_collection): keyed by exact line address, never
    // iterated; completions drain through the sorted fill_deadlines heap
    l1_pending: Vec<HashMap<u64, u64>>,
    /// Same bookkeeping for lines being installed into L2 by a prefetch.
    // audit:allow(unordered_collection): same keyed-lookup-only discipline
    l2_pending: HashMap<u64, u64>,
    /// Completion deadlines of the in-flight fills above, ordered soonest
    /// first, so the hierarchy reports its pending work as deadlines rather
    /// than being polled per cycle. The event-driven engine consumes
    /// [`MemorySystem::retire_completed_fills`] at every clock jump
    /// (bounding the pending maps); [`MemorySystem::earliest_pending_response`]
    /// is the read side for diagnostics and future memory-side event
    /// sources (warp wakeups themselves need no memory events, because
    /// completion cycles are computed at issue).
    fill_deadlines: BinaryHeap<Reverse<(u64, FillSite)>>,
    /// Number of warp-level shared-memory accesses.
    pub shared_accesses: u64,
    /// Number of warp-level local-memory load accesses (register spills).
    pub local_load_accesses: u64,
    /// Number of software prefetch line requests issued.
    pub prefetch_lines: u64,
}

impl MemorySystem {
    /// Builds the memory system for a device configuration.
    pub fn new(cfg: &GpuConfig) -> Self {
        let l1 = (0..cfg.num_sms)
            .map(|_| Cache::new(cfg.l1.clone()))
            .collect();
        let l2 = Cache::new(cfg.l2.clone());
        let dram = Dram::new(&cfg.dram, cfg.dram_bytes_per_cycle());
        MemorySystem {
            l1,
            l2,
            dram,
            shared_latency: cfg.shared_mem_latency,
            // audit:allow(unordered_collection): empty init of the keyed maps
            l1_pending: (0..cfg.num_sms).map(|_| HashMap::new()).collect(),
            // audit:allow(unordered_collection): empty init of the keyed map
            l2_pending: HashMap::new(),
            fill_deadlines: BinaryHeap::new(),
            shared_accesses: 0,
            local_load_accesses: 0,
            prefetch_lines: 0,
        }
    }

    /// Configures the L2 persisting carve-out used by L2 pinning, in bytes.
    ///
    /// # Panics
    /// Panics if `bytes` exceeds the device's maximum persisting capacity.
    pub fn set_l2_persisting_carveout(&mut self, bytes: u64, cfg: &GpuConfig) {
        assert!(
            bytes <= cfg.l2_max_persisting_bytes(),
            "requested carve-out of {} bytes exceeds the device limit of {} bytes",
            bytes,
            cfg.l2_max_persisting_bytes()
        );
        self.l2.set_persisting_capacity(bytes);
    }

    /// Services a warp-level load of `line` and returns
    /// `(completion_cycle, outcome)`. Each level's lookup also installs the
    /// line on a miss ([`Cache::access_or_fill`]); the L1 and L2 caches and
    /// DRAM hold independent state, so filling L1 before looking in L2
    /// leaves every side effect as in a lookup-then-fill walk. An L2 miss
    /// reads one full line from DRAM.
    #[inline]
    pub fn load(
        &mut self,
        sm: usize,
        space: MemSpace,
        line: u64,
        now: u64,
    ) -> (u64, AccessOutcome) {
        match space {
            MemSpace::Shared => {
                self.shared_accesses += 1;
                return (now + self.shared_latency, AccessOutcome::SharedMem);
            }
            MemSpace::Local => self.local_load_accesses += 1,
            MemSpace::Global => {}
        }
        if self.l1[sm].access_or_fill(line, now) {
            // An in-flight prefetch fill delays the hit until the data lands.
            let ready = self.pending_l1_ready(sm, line, now);
            return (
                ready.max(now) + self.l1[sm].hit_latency(),
                AccessOutcome::L1Hit,
            );
        }
        if self.l2.access_or_fill(line, now) {
            let ready = self.pending_l2_ready(line, now);
            return (ready.max(now) + self.l2.hit_latency(), AccessOutcome::L2Hit);
        }
        let done = self.dram.read(self.l2.line_bytes(), now);
        (done, AccessOutcome::DramAccess)
    }

    /// Services a warp-level store. Stores never stall the warp; global
    /// stores write through to L2 and consume DRAM write bandwidth.
    pub fn store(&mut self, sm: usize, space: MemSpace, line: u64, bytes: u32, now: u64) {
        match space {
            MemSpace::Shared => {
                self.shared_accesses += 1;
            }
            MemSpace::Global | MemSpace::Local => {
                // Allocate in L1/L2 so subsequent spill reloads hit.
                self.l2.access_or_fill(line, now);
                self.l1[sm].access_or_fill(line, now);
                if space == MemSpace::Global {
                    self.dram.write(bytes as u64, now);
                }
            }
        }
    }

    /// Services a software prefetch into SM `sm`'s L1 (`prefetch.global.L1`).
    /// Prefetches never stall the warp, but the prefetched data only becomes
    /// usable once its fill completes — a demand load that arrives earlier
    /// waits for the in-flight fill.
    pub fn prefetch(&mut self, sm: usize, line: u64, now: u64) {
        self.prefetch_lines += 1;
        if self.l1[sm].probe(line) {
            return;
        }
        let ready = if self.l2.access_or_fill(line, now) {
            now + self.l2.hit_latency()
        } else {
            let done = self.dram.read(self.l2.line_bytes(), now);
            self.record_l2_fill(line, done);
            done
        };
        self.l1[sm].fill(line, false, now);
        self.l1_pending[sm].insert(line, ready);
        self.fill_deadlines
            .push(Reverse((ready, FillSite::L1 { sm, line })));
    }

    /// Records an in-flight L2 fill completing at `done`.
    fn record_l2_fill(&mut self, line: u64, done: u64) {
        self.l2_pending.insert(line, done);
        self.fill_deadlines
            .push(Reverse((done, FillSite::L2 { line })));
    }

    /// The earliest cycle at which an in-flight prefetch fill completes, or
    /// `None` when nothing is outstanding. Deadlines superseded by a newer
    /// fill of the same line are discarded on the way.
    ///
    /// The engine itself does not schedule on this value — every warp
    /// wakeup is already a precomputed completion cycle — so this is the
    /// introspective half of the deadline registry (tests, diagnostics, and
    /// any future event source that models memory-side state changes);
    /// [`MemorySystem::retire_completed_fills`] is the half the
    /// event-driven engine drives.
    pub fn earliest_pending_response(&mut self) -> Option<u64> {
        while let Some(&Reverse((ready, site))) = self.fill_deadlines.peek() {
            let live = match site {
                FillSite::L1 { sm, line } => self.l1_pending[sm].get(&line) == Some(&ready),
                FillSite::L2 { line } => self.l2_pending.get(&line) == Some(&ready),
            };
            if live {
                return Some(ready);
            }
            self.fill_deadlines.pop();
        }
        None
    }

    /// Retires every in-flight fill whose reported deadline has passed by
    /// `now`. The event-driven engine calls this when it jumps the clock;
    /// retiring is observably identical to the lazy per-lookup pruning (a
    /// completed fill delays nothing) but keeps the pending maps bounded.
    pub fn retire_completed_fills(&mut self, now: u64) {
        while let Some(&Reverse((ready, site))) = self.fill_deadlines.peek() {
            if ready > now {
                break;
            }
            self.fill_deadlines.pop();
            match site {
                FillSite::L1 { sm, line } => {
                    if self.l1_pending[sm].get(&line).is_some_and(|&r| r <= now) {
                        self.l1_pending[sm].remove(&line);
                    }
                }
                FillSite::L2 { line } => {
                    if self.l2_pending.get(&line).is_some_and(|&r| r <= now) {
                        self.l2_pending.remove(&line);
                    }
                }
            }
        }
    }

    /// Returns (and prunes) the completion cycle of an in-flight L1 prefetch
    /// fill for `(sm, line)`, or `now` if none is outstanding.
    #[inline]
    fn pending_l1_ready(&mut self, sm: usize, line: u64, now: u64) -> u64 {
        // Fast path: no prefetches in flight on this SM (always true for
        // the non-prefetching schemes), so skip the hash lookup per hit.
        let pending = &mut self.l1_pending[sm];
        if pending.is_empty() {
            return now;
        }
        match pending.get(&line).copied() {
            Some(ready) if ready > now => ready,
            Some(_) => {
                pending.remove(&line);
                now
            }
            None => now,
        }
    }

    /// Returns (and prunes) the completion cycle of an in-flight L2 prefetch
    /// fill for `line`, or `now` if none is outstanding.
    fn pending_l2_ready(&mut self, line: u64, now: u64) -> u64 {
        if self.l2_pending.is_empty() {
            return now;
        }
        match self.l2_pending.get(&line).copied() {
            Some(ready) if ready > now => ready,
            Some(_) => {
                self.l2_pending.remove(&line);
                now
            }
            None => now,
        }
    }

    /// Installs a line into the L2 persisting carve-out *without* consuming
    /// DRAM bandwidth or simulated time. This models a pinning pass whose
    /// cost is hidden behind host-side preprocessing (paper Section IV-C:
    /// "the overhead of the L2P kernel is small and can be hidden by
    /// overlapping it with the CPU pre-processing"). Returns `true` if the
    /// line was installed (or promoted) as persistent.
    pub fn warm_l2_persistent(&mut self, line_addr: u64, now: u64) -> bool {
        self.l2.fill(line_addr, true, now)
    }

    /// Immutable access to the shared L2 cache (for statistics).
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// Immutable access to one SM's L1 data cache (for statistics).
    pub fn l1(&self, sm: usize) -> &Cache {
        &self.l1[sm]
    }

    /// Aggregated L1 statistics across all SMs: `(accesses, hits)`.
    pub fn l1_totals(&self) -> (u64, u64) {
        let mut acc = 0;
        let mut hits = 0;
        for c in &self.l1 {
            acc += c.stats.accesses;
            hits += c.stats.hits;
        }
        (acc, hits)
    }

    /// Immutable access to the DRAM model (for statistics).
    pub fn dram(&self) -> &Dram {
        &self.dram
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;

    fn mem() -> (MemorySystem, GpuConfig) {
        let cfg = GpuConfig::test_small();
        (MemorySystem::new(&cfg), cfg)
    }

    #[test]
    fn cold_load_goes_to_dram_then_hits_l1() {
        let (mut m, cfg) = mem();
        let line = 0;
        let (done, outcome) = m.load(0, MemSpace::Global, line, 0);
        assert_eq!(outcome, AccessOutcome::DramAccess);
        assert!(done >= cfg.dram.latency);
        let (done2, outcome2) = m.load(0, MemSpace::Global, line, done);
        assert_eq!(outcome2, AccessOutcome::L1Hit);
        assert_eq!(done2, done + cfg.l1.hit_latency);
    }

    #[test]
    fn l2_services_other_sms_after_first_miss() {
        let (mut m, cfg) = mem();
        let line = 4096;
        m.load(0, MemSpace::Global, line, 0);
        let (done, outcome) = m.load(1, MemSpace::Global, line, 1000);
        assert_eq!(outcome, AccessOutcome::L2Hit);
        assert_eq!(done, 1000 + cfg.l2.hit_latency);
    }

    #[test]
    fn shared_memory_has_fixed_latency() {
        let (mut m, cfg) = mem();
        let line = 0;
        let (done, outcome) = m.load(0, MemSpace::Shared, line, 50);
        assert_eq!(outcome, AccessOutcome::SharedMem);
        assert_eq!(done, 50 + cfg.shared_mem_latency);
        assert_eq!(m.shared_accesses, 1);
    }

    #[test]
    fn local_loads_are_counted() {
        let (mut m, _cfg) = mem();
        let line = 1 << 40;
        m.load(0, MemSpace::Local, line, 0);
        m.load(0, MemSpace::Local, line, 10);
        assert_eq!(m.local_load_accesses, 2);
    }

    #[test]
    fn l1_prefetch_installs_into_l1() {
        let (mut m, _cfg) = mem();
        let line = 2048;
        m.prefetch(0, line, 0);
        assert!(m.l1(0).probe(2048));
        // A subsequent demand load hits in L1.
        let (_, outcome) = m.load(0, MemSpace::Global, line, 100);
        assert_eq!(outcome, AccessOutcome::L1Hit);
    }

    #[test]
    fn carveout_limit_is_enforced() {
        let (mut m, cfg) = mem();
        let too_big = cfg.l2_max_persisting_bytes() + 1;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.set_l2_persisting_carveout(too_big, &cfg);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn stores_write_through_and_allocate() {
        let (mut m, _cfg) = mem();
        let line = 512;
        m.store(0, MemSpace::Global, line, 128, 0);
        assert!(m.dram().bytes_written >= 128);
        let (_, outcome) = m.load(0, MemSpace::Global, line, 10);
        assert_eq!(outcome, AccessOutcome::L1Hit);
    }

    #[test]
    fn pending_fills_report_their_deadlines() {
        let (mut m, _cfg) = mem();
        assert_eq!(m.earliest_pending_response(), None);
        m.prefetch(0, 4096, 0);
        let deadline = m.earliest_pending_response().expect("fill in flight");
        assert!(deadline > 0, "a cold prefetch must take time to land");
        // Before the deadline nothing retires; after it the registry drains.
        m.retire_completed_fills(deadline - 1);
        assert_eq!(m.earliest_pending_response(), Some(deadline));
        m.retire_completed_fills(deadline);
        assert_eq!(m.earliest_pending_response(), None);
    }

    #[test]
    fn retiring_fills_does_not_change_load_timing() {
        let (mut m1, _) = mem();
        let (mut m2, _) = mem();
        let line = 8192;
        m1.prefetch(0, line, 0);
        m2.prefetch(0, line, 0);
        let deadline = m1.earliest_pending_response().unwrap();
        // m1 retires eagerly (event-driven engine), m2 prunes lazily.
        m1.retire_completed_fills(deadline + 10);
        let a = m1.load(0, MemSpace::Global, line, deadline + 10);
        let b = m2.load(0, MemSpace::Global, line, deadline + 10);
        assert_eq!(a, b);
    }

    #[test]
    fn superseded_fill_deadlines_are_discarded() {
        let (mut m, cfg) = mem();
        let line = 1 << 16;
        // A demand load on SM 1 brings the line into L2 without
        // registering a fill, so SM 0's prefetches are L2 hits.
        m.load(1, MemSpace::Global, line, 0);
        m.prefetch(0, line, 10);
        let first = m.earliest_pending_response().unwrap();
        assert_eq!(first, 10 + cfg.l2.hit_latency);
        // Stream twice SM 0's L1 capacity through it to evict the line
        // before its fill lands (demand loads register no fill), then
        // prefetch it again: the new fill supersedes the first.
        let l1_lines = cfg.l1.capacity_bytes / 128;
        for k in 1..=2 * l1_lines {
            m.load(0, MemSpace::Global, line + 128 * k, 20);
        }
        assert!(!m.l1(0).probe(line));
        m.prefetch(0, line, 100);
        let second = 100 + cfg.l2.hit_latency;
        // The first deadline still sits in the registry but is stale.
        assert_eq!(m.earliest_pending_response(), Some(second));
        m.retire_completed_fills(second);
        assert_eq!(m.earliest_pending_response(), None);
    }

    #[test]
    fn l1_totals_aggregate_across_sms() {
        let (mut m, _cfg) = mem();
        m.load(0, MemSpace::Global, 0, 0);
        m.load(1, MemSpace::Global, 0, 0);
        let (acc, _hits) = m.l1_totals();
        assert_eq!(acc, 2);
    }
}

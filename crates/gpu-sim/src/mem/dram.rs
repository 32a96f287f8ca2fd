//! High-bandwidth memory (HBM) model: fixed access latency plus a
//! throughput limiter.
//!
//! The paper's central claim is that the embedding-bag kernel is *latency*
//! bound rather than *bandwidth* bound: the measured average HBM read
//! bandwidth (up to ~330 GB/s for base PyTorch, ~700 GB/s for the prefetching
//! schemes) stays far below the ~2 TB/s peak. This model therefore charges a
//! fixed device-memory latency per access and additionally serialises
//! transfers through a bandwidth pipe so that, if a scheme ever did approach
//! the peak, queueing delay would appear — exactly the head-room argument of
//! Section IV-B.

use crate::config::DramConfig;

/// Off-chip device-memory model.
#[derive(Debug, Clone)]
pub struct Dram {
    /// Fixed load-to-use latency (cycles).
    latency: u64,
    /// Peak transfer rate in bytes per core cycle.
    bytes_per_cycle: f64,
    /// Cycle (as a rational number of bytes-time) until which the pipe is busy.
    next_free: f64,
    /// Total bytes read from device memory.
    pub bytes_read: u64,
    /// Total bytes written to device memory.
    pub bytes_written: u64,
    /// Number of read transactions.
    pub read_transactions: u64,
    /// Cycles during which the pipe was transferring data.
    pub busy_cycles: f64,
}

impl Dram {
    /// Creates a DRAM model from its configuration and the core clock-derived
    /// bytes-per-cycle rate.
    pub fn new(cfg: &DramConfig, bytes_per_cycle: f64) -> Self {
        assert!(bytes_per_cycle > 0.0, "DRAM bandwidth must be positive");
        Dram {
            latency: cfg.latency,
            bytes_per_cycle,
            next_free: 0.0,
            bytes_read: 0,
            bytes_written: 0,
            read_transactions: 0,
            busy_cycles: 0.0,
        }
    }

    /// Issues a read of `bytes` at cycle `now`; returns the cycle at which
    /// the data is available to the requester.
    pub fn read(&mut self, bytes: u64, now: u64) -> u64 {
        self.bytes_read += bytes;
        self.read_transactions += 1;
        let transfer = bytes as f64 / self.bytes_per_cycle;
        let start = self.next_free.max(now as f64);
        self.next_free = start + transfer;
        self.busy_cycles += transfer;
        // Queueing delay only appears when the pipe is saturated.
        let queue_delay = (start - now as f64).max(0.0);
        now + self.latency + queue_delay.ceil() as u64 + transfer.ceil() as u64
    }

    /// Issues a write of `bytes` at cycle `now`. Writes consume bandwidth but
    /// never stall the issuing warp.
    pub fn write(&mut self, bytes: u64, now: u64) {
        self.bytes_written += bytes;
        let transfer = bytes as f64 / self.bytes_per_cycle;
        let start = self.next_free.max(now as f64);
        self.next_free = start + transfer;
        self.busy_cycles += transfer;
    }

    /// Fixed access latency in cycles.
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// The cycle at which the bandwidth pipe drains: transfers issued before
    /// this deadline queue behind the in-flight ones. Reported (rather than
    /// polled) so callers jumping the clock know when DRAM state changes.
    pub fn busy_until(&self) -> u64 {
        self.next_free.ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> Dram {
        Dram::new(
            &DramConfig {
                capacity_bytes: 1 << 30,
                latency: 466,
                peak_bandwidth_gbps: 1940.0,
            },
            1375.0,
        )
    }

    #[test]
    fn unloaded_read_sees_pure_latency() {
        let mut d = dram();
        let done = d.read(128, 1000);
        // 128 bytes transfer in well under a cycle, so latency dominates.
        assert_eq!(done, 1000 + 466 + 1);
        assert_eq!(d.bytes_read, 128);
        assert_eq!(d.read_transactions, 1);
    }

    #[test]
    fn saturated_pipe_adds_queueing_delay() {
        let mut d = dram();
        // Issue far more traffic than one cycle can carry.
        let mut last = 0;
        for _ in 0..10_000 {
            last = d.read(128, 0);
        }
        // 10_000 * 128 bytes / 1375 B/cycle ≈ 931 cycles of queueing.
        assert!(last > 466 + 900, "expected queueing delay, got {last}");
    }

    #[test]
    fn writes_consume_bandwidth_without_latency_result() {
        let mut d = dram();
        d.write(1024, 0);
        assert_eq!(d.bytes_written, 1024);
        assert!(d.busy_cycles > 0.0);
    }

    #[test]
    fn busy_until_tracks_the_pipe_deadline() {
        let mut d = dram();
        assert_eq!(d.busy_until(), 0);
        // Saturate the pipe: 10_000 * 128 B at 1375 B/cycle ≈ 931 cycles.
        for _ in 0..10_000 {
            d.read(128, 0);
        }
        assert!(d.busy_until() > 900);
        // An idle gap later than the deadline does not move it.
        let deadline = d.busy_until();
        d.read(1, deadline + 100);
        assert!(d.busy_until() >= deadline + 100);
    }
}

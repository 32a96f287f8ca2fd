//! Kernel execution statistics, mirroring the NVIDIA Nsight Compute (NCU)
//! metrics the paper reports in Tables IV, V, VIII and IX.

use std::fmt;

use crate::config::GpuConfig;
use crate::occupancy::Occupancy;

/// Raw event counters accumulated while a kernel executes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RawCounters {
    /// Warp-level instructions issued (executed).
    pub insts_issued: u64,
    /// Warp-level load instructions issued (global + local).
    pub load_insts: u64,
    /// Warp-level load instructions from local memory (register spills).
    pub local_load_insts: u64,
    /// Warp-level store instructions issued.
    pub store_insts: u64,
    /// Warp-level prefetch instructions issued.
    pub prefetch_insts: u64,
    /// Cycles warps spent stalled on global/local-memory dependences.
    pub long_scoreboard_cycles: u64,
    /// Cycles warps spent stalled on ALU or shared-memory dependences.
    pub short_scoreboard_cycles: u64,
    /// Cycles warps were ready but another warp was selected.
    pub not_selected_cycles: u64,
    /// Sum over warps of their residency duration in cycles.
    pub resident_warp_cycles: u64,
    /// Number of warps that were launched.
    pub warps_launched: u64,
    /// Number of thread blocks that were launched.
    pub blocks_launched: u64,
}

impl RawCounters {
    /// Attributes the idle cycles between a warp's previous issue (at
    /// `prev_issue`) and the current one (at `now`): the span until the
    /// instruction's operands became ready (`ready_at`) is charged to the
    /// dependence kind that gated it, and any remainder — ready but not
    /// picked by the scheduler — to "not selected".
    pub(crate) fn charge_issue_gap(
        &mut self,
        kind: crate::warp::DepKind,
        prev_issue: u64,
        ready_at: u64,
        now: u64,
    ) {
        let gap = now.saturating_sub(prev_issue + 1);
        if gap == 0 {
            return;
        }
        let dep_stall = ready_at.saturating_sub(prev_issue + 1).min(gap);
        match kind {
            crate::warp::DepKind::Long => self.long_scoreboard_cycles += dep_stall,
            crate::warp::DepKind::Short => self.short_scoreboard_cycles += dep_stall,
            crate::warp::DepKind::None => self.not_selected_cycles += dep_stall,
        }
        self.not_selected_cycles += gap - dep_stall;
    }

    /// Adds another set of counters into this one.
    pub fn accumulate(&mut self, other: &RawCounters) {
        let RawCounters {
            insts_issued,
            load_insts,
            local_load_insts,
            store_insts,
            prefetch_insts,
            long_scoreboard_cycles,
            short_scoreboard_cycles,
            not_selected_cycles,
            resident_warp_cycles,
            warps_launched,
            blocks_launched,
        } = *other;
        self.insts_issued += insts_issued;
        self.load_insts += load_insts;
        self.local_load_insts += local_load_insts;
        self.store_insts += store_insts;
        self.prefetch_insts += prefetch_insts;
        self.long_scoreboard_cycles += long_scoreboard_cycles;
        self.short_scoreboard_cycles += short_scoreboard_cycles;
        self.not_selected_cycles += not_selected_cycles;
        self.resident_warp_cycles += resident_warp_cycles;
        self.warps_launched += warps_launched;
        self.blocks_launched += blocks_launched;
    }
}

/// The full set of statistics produced by one simulated kernel execution
/// (or by merging several executions, e.g. the 250 embedding tables of the
/// paper's embedding stage).
#[derive(Debug, Clone, PartialEq)]
pub struct KernelStats {
    /// Name of the kernel (or merged stage).
    pub kernel_name: String,
    /// Name of the simulated device.
    pub device_name: String,
    /// Core clock in GHz used for time conversion.
    pub clock_ghz: f64,
    /// Total warp schedulers on the device.
    pub total_schedulers: u64,
    /// Hardware peak DRAM bandwidth in GB/s.
    pub peak_dram_bandwidth_gbps: f64,
    /// Elapsed cycles of the kernel.
    pub elapsed_cycles: u64,
    /// Raw issue/stall counters.
    pub counters: RawCounters,
    /// L1 data-cache accesses across all SMs.
    pub l1_accesses: u64,
    /// L1 data-cache hits across all SMs.
    pub l1_hits: u64,
    /// L2 cache accesses.
    pub l2_accesses: u64,
    /// L2 cache hits.
    pub l2_hits: u64,
    /// Bytes read from device memory.
    pub dram_bytes_read: u64,
    /// Bytes written to device memory.
    pub dram_bytes_written: u64,
    /// Theoretical resident warps per SM from the occupancy model.
    pub theoretical_warps_per_sm: u32,
    /// Theoretical occupancy percentage.
    pub theoretical_occupancy_pct: f64,
    /// Registers allocated per thread after granularity rounding.
    pub allocated_regs_per_thread: u32,
}

impl KernelStats {
    /// Creates an empty statistics record for a device.
    pub fn empty(kernel_name: &str, cfg: &GpuConfig) -> Self {
        KernelStats {
            kernel_name: kernel_name.to_string(),
            device_name: cfg.name.clone(),
            clock_ghz: cfg.clock_ghz,
            total_schedulers: cfg.total_schedulers() as u64,
            peak_dram_bandwidth_gbps: cfg.dram.peak_bandwidth_gbps,
            elapsed_cycles: 0,
            counters: RawCounters::default(),
            l1_accesses: 0,
            l1_hits: 0,
            l2_accesses: 0,
            l2_hits: 0,
            dram_bytes_read: 0,
            dram_bytes_written: 0,
            theoretical_warps_per_sm: 0,
            theoretical_occupancy_pct: 0.0,
            allocated_regs_per_thread: 0,
        }
    }

    /// Records the occupancy outcome of the launch.
    pub fn set_occupancy(&mut self, occ: &Occupancy) {
        self.theoretical_warps_per_sm = occ.warps_per_sm;
        self.theoretical_occupancy_pct = occ.occupancy_pct();
        self.allocated_regs_per_thread = occ.allocated_regs_per_thread;
    }

    /// Kernel (or stage) time in microseconds.
    pub fn kernel_time_us(&self) -> f64 {
        self.elapsed_cycles as f64 / (self.clock_ghz * 1e3)
    }

    /// Warp-level load instructions, in millions (paper: "#load insts (M)").
    pub fn load_insts_millions(&self) -> f64 {
        self.counters.load_insts as f64 / 1e6
    }

    /// Local-memory (spill) load instructions, in millions.
    pub fn local_loads_millions(&self) -> f64 {
        self.counters.local_load_insts as f64 / 1e6
    }

    /// Issued warps per scheduler per cycle ("issue slot utilization").
    pub fn issued_per_scheduler_per_cycle(&self) -> f64 {
        if self.elapsed_cycles == 0 {
            return 0.0;
        }
        self.counters.insts_issued as f64 / (self.elapsed_cycles * self.total_schedulers) as f64
    }

    /// SM throughput percentage. NCU's "SM throughput" tracks the busiest SM
    /// pipeline; for the latency-bound kernels studied here it is dominated
    /// by the issue-slot utilization, so this model reports that quantity as
    /// a percentage.
    pub fn sm_throughput_pct(&self) -> f64 {
        (self.issued_per_scheduler_per_cycle() * 100.0).min(100.0)
    }

    /// Average warp cycles per executed instruction (NCU
    /// "Warp Cycles Per Executed Instruction").
    pub fn warp_cycles_per_executed_inst(&self) -> f64 {
        if self.counters.insts_issued == 0 {
            return 0.0;
        }
        self.counters.resident_warp_cycles as f64 / self.counters.insts_issued as f64
    }

    /// Average long-scoreboard stall cycles per executed instruction.
    pub fn long_scoreboard_per_inst(&self) -> f64 {
        if self.counters.insts_issued == 0 {
            return 0.0;
        }
        self.counters.long_scoreboard_cycles as f64 / self.counters.insts_issued as f64
    }

    /// L1 data-cache hit rate in percent.
    pub fn l1_hit_rate_pct(&self) -> f64 {
        if self.l1_accesses == 0 {
            0.0
        } else {
            100.0 * self.l1_hits as f64 / self.l1_accesses as f64
        }
    }

    /// L2 cache hit rate in percent.
    pub fn l2_hit_rate_pct(&self) -> f64 {
        if self.l2_accesses == 0 {
            0.0
        } else {
            100.0 * self.l2_hits as f64 / self.l2_accesses as f64
        }
    }

    /// Bytes read from device memory, in megabytes (paper: "Device Memory
    /// size read (MB)").
    pub fn device_mem_read_mb(&self) -> f64 {
        self.dram_bytes_read as f64 / 1e6
    }

    /// Average HBM read bandwidth in GB/s over the kernel duration.
    pub fn avg_hbm_read_bw_gbps(&self) -> f64 {
        let t = self.kernel_time_us();
        if t == 0.0 {
            return 0.0;
        }
        self.dram_bytes_read as f64 / (t * 1e-6) / 1e9
    }

    /// Average HBM read bandwidth as a percentage of the device peak.
    pub fn hbm_read_bw_utilization_pct(&self) -> f64 {
        100.0 * self.avg_hbm_read_bw_gbps() / self.peak_dram_bandwidth_gbps
    }

    /// Merges another kernel execution into this record by summing counters
    /// and serialising elapsed time (the embedding tables of one GPU execute
    /// sequentially, Section II-A).
    pub fn merge_sequential(&mut self, other: &KernelStats) {
        assert_eq!(
            self.device_name, other.device_name,
            "cannot merge statistics from different devices"
        );
        self.merge_across_devices(other);
    }

    /// Merges a kernel execution that ran on a *different* device into this
    /// record: work and traffic counters are summed exactly like
    /// [`KernelStats::merge_sequential`], while the device metadata (name,
    /// clock, scheduler count, peak bandwidth) keeps `self`'s values — the
    /// caller picks the record, typically the cluster's root device, that
    /// the aggregate is reported against. With heterogeneous clocks the
    /// summed `elapsed_cycles` is a work total, not a wall-clock quantity;
    /// sharded runs carry the wall-clock answer separately as the per-device
    /// critical path.
    pub fn merge_across_devices(&mut self, other: &KernelStats) {
        let KernelStats {
            // The aggregate is reported against `self`'s kernel and device.
            kernel_name: _,
            device_name: _,
            clock_ghz: _,
            total_schedulers: _,
            peak_dram_bandwidth_gbps: _,
            elapsed_cycles,
            counters,
            l1_accesses,
            l1_hits,
            l2_accesses,
            l2_hits,
            dram_bytes_read,
            dram_bytes_written,
            theoretical_warps_per_sm,
            theoretical_occupancy_pct,
            allocated_regs_per_thread,
        } = *other;
        self.elapsed_cycles += elapsed_cycles;
        self.counters.accumulate(&counters);
        self.l1_accesses += l1_accesses;
        self.l1_hits += l1_hits;
        self.l2_accesses += l2_accesses;
        self.l2_hits += l2_hits;
        self.dram_bytes_read += dram_bytes_read;
        self.dram_bytes_written += dram_bytes_written;
        if self.theoretical_warps_per_sm == 0 {
            self.theoretical_warps_per_sm = theoretical_warps_per_sm;
            self.theoretical_occupancy_pct = theoretical_occupancy_pct;
            self.allocated_regs_per_thread = allocated_regs_per_thread;
        }
    }

    /// Names the first field in which `other` differs from `self`, with both
    /// values, or `None` when the records are identical. Used by the engine
    /// equivalence suite to turn "two records differ" into an actionable
    /// message. Fields are compared in declaration order.
    pub fn first_difference(&self, other: &KernelStats) -> Option<String> {
        let KernelStats {
            kernel_name,
            device_name,
            clock_ghz,
            total_schedulers,
            peak_dram_bandwidth_gbps,
            elapsed_cycles,
            counters,
            l1_accesses,
            l1_hits,
            l2_accesses,
            l2_hits,
            dram_bytes_read,
            dram_bytes_written,
            theoretical_warps_per_sm,
            theoretical_occupancy_pct,
            allocated_regs_per_thread,
        } = self;
        let RawCounters {
            insts_issued,
            load_insts,
            local_load_insts,
            store_insts,
            prefetch_insts,
            long_scoreboard_cycles,
            short_scoreboard_cycles,
            not_selected_cycles,
            resident_warp_cycles,
            warps_launched,
            blocks_launched,
        } = counters;
        // `cmp!(counters.x)` compares `self`'s bound `x` with `other.counters.x`.
        macro_rules! cmp {
            ($field:ident) => {
                cmp!(@ $field, other.$field, stringify!($field))
            };
            (counters.$field:ident) => {
                cmp!(@ $field, other.counters.$field, stringify!(counters.$field))
            };
            (@ $mine:ident, $theirs:expr, $name:expr) => {
                if *$mine != $theirs {
                    return Some(format!("{}: {:?} vs {:?}", $name, $mine, $theirs));
                }
            };
        }
        cmp!(kernel_name);
        cmp!(device_name);
        cmp!(clock_ghz);
        cmp!(total_schedulers);
        cmp!(peak_dram_bandwidth_gbps);
        cmp!(elapsed_cycles);
        cmp!(counters.insts_issued);
        cmp!(counters.load_insts);
        cmp!(counters.local_load_insts);
        cmp!(counters.store_insts);
        cmp!(counters.prefetch_insts);
        cmp!(counters.long_scoreboard_cycles);
        cmp!(counters.short_scoreboard_cycles);
        cmp!(counters.not_selected_cycles);
        cmp!(counters.resident_warp_cycles);
        cmp!(counters.warps_launched);
        cmp!(counters.blocks_launched);
        cmp!(l1_accesses);
        cmp!(l1_hits);
        cmp!(l2_accesses);
        cmp!(l2_hits);
        cmp!(dram_bytes_read);
        cmp!(dram_bytes_written);
        cmp!(theoretical_warps_per_sm);
        cmp!(theoretical_occupancy_pct);
        cmp!(allocated_regs_per_thread);
        None
    }

    /// Renders the statistics as the rows used by the paper's NCU tables.
    pub fn ncu_rows(&self) -> Vec<(String, String)> {
        vec![
            (
                "Kernel time (us)".into(),
                format!("{:.1}", self.kernel_time_us()),
            ),
            (
                "#load insts (M)".into(),
                format!("{:.2}", self.load_insts_millions()),
            ),
            (
                "SM Throughput %".into(),
                format!("{:.2}", self.sm_throughput_pct()),
            ),
            (
                "warp cycles per executed inst".into(),
                format!("{:.2}", self.warp_cycles_per_executed_inst()),
            ),
            (
                "long scoreboard stall (cycles)".into(),
                format!("{:.2}", self.long_scoreboard_per_inst()),
            ),
            (
                "issued warp per scheduler per cycle".into(),
                format!("{:.2}", self.issued_per_scheduler_per_cycle()),
            ),
            (
                "Global L1$ hit rate %".into(),
                format!("{:.2}", self.l1_hit_rate_pct()),
            ),
            (
                "L2$ hit rate %".into(),
                format!("{:.2}", self.l2_hit_rate_pct()),
            ),
            (
                "Device Memory size read (MB)".into(),
                format!("{:.2}", self.device_mem_read_mb()),
            ),
            (
                "Avg HBM Read BW (GBps)".into(),
                format!("{:.1}", self.avg_hbm_read_bw_gbps()),
            ),
            (
                "Avg HBM Read BW Utilization (%)".into(),
                format!("{:.2}", self.hbm_read_bw_utilization_pct()),
            ),
        ]
    }
}

impl fmt::Display for KernelStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "kernel '{}' on {}", self.kernel_name, self.device_name)?;
        writeln!(
            f,
            "  occupancy: {} warps/SM ({:.1}%), {} regs/thread",
            self.theoretical_warps_per_sm,
            self.theoretical_occupancy_pct,
            self.allocated_regs_per_thread
        )?;
        for (name, value) in self.ncu_rows() {
            writeln!(f, "  {name}: {value}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats() -> KernelStats {
        let cfg = GpuConfig::a100();
        let mut s = KernelStats::empty("test", &cfg);
        s.elapsed_cycles = 1_410_000; // 1 ms
        s.counters.insts_issued = 1_000_000;
        s.counters.load_insts = 250_000;
        s.counters.resident_warp_cycles = 20_000_000;
        s.counters.long_scoreboard_cycles = 10_000_000;
        s.l1_accesses = 200_000;
        s.l1_hits = 50_000;
        s.l2_accesses = 150_000;
        s.l2_hits = 15_000;
        s.dram_bytes_read = 100_000_000;
        s
    }

    #[test]
    fn time_conversion() {
        let s = sample_stats();
        assert!((s.kernel_time_us() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn derived_rates() {
        let s = sample_stats();
        assert!((s.l1_hit_rate_pct() - 25.0).abs() < 1e-9);
        assert!((s.l2_hit_rate_pct() - 10.0).abs() < 1e-9);
        assert!((s.warp_cycles_per_executed_inst() - 20.0).abs() < 1e-9);
        assert!((s.long_scoreboard_per_inst() - 10.0).abs() < 1e-9);
        assert!((s.load_insts_millions() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_math() {
        let s = sample_stats();
        // 100 MB over 1 ms = 100 GB/s.
        assert!((s.avg_hbm_read_bw_gbps() - 100.0).abs() < 1e-6);
        assert!((s.hbm_read_bw_utilization_pct() - 100.0 / 1940.0 * 100.0).abs() < 1e-6);
    }

    #[test]
    fn issue_utilization() {
        let s = sample_stats();
        let expected = 1_000_000.0 / (1_410_000.0 * 432.0);
        assert!((s.issued_per_scheduler_per_cycle() - expected).abs() < 1e-12);
        assert!((s.sm_throughput_pct() - expected * 100.0).abs() < 1e-9);
    }

    #[test]
    fn merge_sums_counters_and_time() {
        let mut a = sample_stats();
        let b = sample_stats();
        a.merge_sequential(&b);
        assert_eq!(a.elapsed_cycles, 2_820_000);
        assert_eq!(a.counters.insts_issued, 2_000_000);
        assert_eq!(a.dram_bytes_read, 200_000_000);
    }

    #[test]
    fn first_difference_compares_every_field() {
        let a = sample_stats();
        assert_eq!(a.first_difference(&a.clone()), None);
        let mut b = a.clone();
        b.theoretical_occupancy_pct += 1.0;
        assert_eq!(
            a.first_difference(&b).as_deref(),
            Some("theoretical_occupancy_pct: 0.0 vs 1.0")
        );
    }

    #[test]
    fn empty_stats_do_not_divide_by_zero() {
        let cfg = GpuConfig::a100();
        let s = KernelStats::empty("e", &cfg);
        assert_eq!(s.kernel_time_us(), 0.0);
        assert_eq!(s.issued_per_scheduler_per_cycle(), 0.0);
        assert_eq!(s.warp_cycles_per_executed_inst(), 0.0);
        assert_eq!(s.l1_hit_rate_pct(), 0.0);
        assert_eq!(s.avg_hbm_read_bw_gbps(), 0.0);
    }

    #[test]
    fn ncu_rows_contain_paper_metrics() {
        let s = sample_stats();
        let rows = s.ncu_rows();
        let names: Vec<&str> = rows.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"Kernel time (us)"));
        assert!(names.contains(&"long scoreboard stall (cycles)"));
        assert!(names.contains(&"Avg HBM Read BW Utilization (%)"));
        assert_eq!(rows.len(), 11);
    }

    #[test]
    fn display_is_not_empty() {
        let s = sample_stats();
        let text = format!("{s}");
        assert!(text.contains("kernel 'test'"));
        assert!(text.contains("SM Throughput"));
    }

    #[test]
    #[should_panic(expected = "different devices")]
    fn merging_different_devices_panics() {
        let mut a = KernelStats::empty("a", &GpuConfig::a100());
        let b = KernelStats::empty("b", &GpuConfig::h100_nvl());
        a.merge_sequential(&b);
    }
}

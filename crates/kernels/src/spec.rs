//! Kernel build specification: which optimizations are compiled into the
//! embedding-bag kernel and what that does to its resource usage.
//!
//! This is the software knob the paper turns: `-maxrregcount` for OptMT
//! (Section III-C) and source-level prefetching into one of four buffer
//! stations (Section IV-B). The register model follows the paper's
//! observations:
//!
//! * the off-the-shelf kernel needs 74 registers/thread,
//! * prefetching into registers (RPF) grows that footprint with the prefetch
//!   distance (which is why RPF without `-maxrregcount` collapses to 16
//!   resident warps at distances >= 5, Section VI-B2),
//! * the shared-memory variant (SMPF) keeps fewer values in registers (nvcc
//!   compiles it to 32 warps/SM),
//! * capping registers below what the kernel actually needs causes spills to
//!   local memory, at a rate that grows with the deficit (Figure 6).

use gpu_sim::{GpuConfig, KernelLaunch};

use crate::kernel::EmbeddingBagKernel;
use crate::workload::{EmbeddingWorkload, THREADS_PER_BLOCK};

/// Registers per thread the compiler allocates for the unmodified kernel.
pub const BASE_NATURAL_REGS: u32 = 74;
/// Registers that must stay live per thread before spilling begins.
pub const BASE_LIVE_REGS: u32 = 46;
/// `-maxrregcount` value the paper's OptMT uses on the A100 (40 resident
/// warps per SM).
pub const OPTMT_MAXRREG_A100: u32 = 48;
/// Lowest register allocation the compiler will produce regardless of
/// `-maxrregcount`.
pub const MIN_ALLOCATABLE_REGS: u32 = 24;

/// Where prefetched embedding rows are buffered (paper Figure 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BufferStation {
    /// RPF: registers — fastest access, but grows register pressure.
    Register,
    /// SMPF: shared memory — 29-cycle access, no register growth.
    SharedMem,
    /// LMPF: local memory — backed by L1/L2, per-thread addressing.
    LocalMem,
    /// L1DPF: `prefetch.global.L1` — the demand load is still issued later.
    L1Cache,
}

impl BufferStation {
    /// All stations in the order the paper presents them.
    pub const ALL: [BufferStation; 4] = [
        BufferStation::Register,
        BufferStation::SharedMem,
        BufferStation::LocalMem,
        BufferStation::L1Cache,
    ];

    /// The abbreviation used throughout the paper.
    pub fn abbreviation(&self) -> &'static str {
        match self {
            BufferStation::Register => "RPF",
            BufferStation::SharedMem => "SMPF",
            BufferStation::LocalMem => "LMPF",
            BufferStation::L1Cache => "L1DPF",
        }
    }

    /// The prefetch distance the paper found optimal for this station when
    /// running *without* OptMT (Section VI-B2: {4, 10, 10, 5}).
    pub fn optimal_distance_without_optmt(&self) -> u32 {
        match self {
            BufferStation::Register => 4,
            BufferStation::SharedMem => 10,
            BufferStation::LocalMem => 10,
            BufferStation::L1Cache => 5,
        }
    }

    /// The prefetch distance the paper found optimal for this station when
    /// combined with OptMT (Section VI-B1: all schemes best at distance 2).
    pub fn optimal_distance_with_optmt(&self) -> u32 {
        2
    }
}

/// A prefetching configuration: buffer station plus prefetch distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PrefetchConfig {
    /// Where prefetched data is staged.
    pub station: BufferStation,
    /// How many lookups ahead the prefetch runs.
    pub distance: u32,
}

impl PrefetchConfig {
    /// Creates a prefetch configuration.
    ///
    /// # Panics
    /// Panics if the distance is zero or larger than 16 (the model's buffer
    /// register file).
    pub fn new(station: BufferStation, distance: u32) -> Self {
        assert!(
            (1..=16).contains(&distance),
            "prefetch distance must be between 1 and 16 lookups"
        );
        PrefetchConfig { station, distance }
    }
}

/// The build-time specification of one embedding-bag kernel variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EmbeddingKernelSpec {
    prefetch: Option<PrefetchConfig>,
    max_registers: Option<u32>,
}

impl EmbeddingKernelSpec {
    /// The off-the-shelf PyTorch kernel (74 registers, no prefetching).
    pub fn base() -> Self {
        EmbeddingKernelSpec {
            prefetch: None,
            max_registers: None,
        }
    }

    /// The paper's OptMT build on an A100: `-maxrregcount 48`, which yields
    /// 40 resident warps per SM.
    pub fn optmt() -> Self {
        Self::base().with_max_registers(OPTMT_MAXRREG_A100)
    }

    /// Adds a `-maxrregcount` cap.
    ///
    /// # Panics
    /// Panics if the cap is below [`MIN_ALLOCATABLE_REGS`] or above 255.
    pub fn with_max_registers(mut self, regs: u32) -> Self {
        assert!(
            (MIN_ALLOCATABLE_REGS..=255).contains(&regs),
            "maxrregcount must be between {MIN_ALLOCATABLE_REGS} and 255"
        );
        self.max_registers = Some(regs);
        self
    }

    /// Adds software prefetching.
    pub fn with_prefetch(mut self, prefetch: PrefetchConfig) -> Self {
        self.prefetch = Some(prefetch);
        self
    }

    /// The prefetch configuration, if any.
    pub fn prefetch(&self) -> Option<PrefetchConfig> {
        self.prefetch
    }

    /// The `-maxrregcount` cap, if any.
    pub fn max_registers(&self) -> Option<u32> {
        self.max_registers
    }

    /// Registers per thread the compiler would naturally allocate for this
    /// source variant (before any `-maxrregcount`).
    pub fn natural_regs(&self) -> u32 {
        match self.prefetch {
            None => BASE_NATURAL_REGS,
            Some(p) => match p.station {
                // Each in-flight prefetch needs an index and a value register.
                BufferStation::Register => BASE_NATURAL_REGS + 2 * p.distance,
                BufferStation::SharedMem => 58,
                BufferStation::LocalMem => 66,
                BufferStation::L1Cache => BASE_NATURAL_REGS + 2,
            },
        }
    }

    /// Registers per thread that stay live across the gather-reduce loop;
    /// allocating fewer than this forces spills.
    pub fn live_regs(&self) -> u32 {
        match self.prefetch {
            None => BASE_LIVE_REGS,
            Some(p) => match p.station {
                BufferStation::Register => BASE_LIVE_REGS + 2 * p.distance,
                BufferStation::SharedMem => 42,
                BufferStation::LocalMem => 44,
                BufferStation::L1Cache => BASE_LIVE_REGS,
            },
        }
    }

    /// Registers per thread actually allocated after applying the cap.
    pub fn allocated_regs(&self) -> u32 {
        let natural = self.natural_regs();
        match self.max_registers {
            None => natural,
            Some(cap) => natural.min(cap).max(MIN_ALLOCATABLE_REGS),
        }
    }

    /// Register-spill intensity: extra local-memory load/store pairs per
    /// gather-reduce iteration caused by allocating fewer registers than the
    /// loop keeps live (paper Figure 6's secondary axis).
    pub fn spills_per_iteration(&self) -> u32 {
        let allocated = self.allocated_regs();
        let live = self.live_regs();
        if allocated >= live {
            0
        } else {
            (live - allocated).div_ceil(8)
        }
    }

    /// Shared memory per block required by this variant (only SMPF uses any:
    /// one fp32 slot per thread per in-flight prefetch).
    pub fn shared_mem_per_block(&self) -> u64 {
        match self.prefetch {
            Some(p) if p.station == BufferStation::SharedMem => {
                THREADS_PER_BLOCK as u64 * p.distance as u64 * 4
            }
            _ => 0,
        }
    }

    /// The kernel launch configuration for this variant over `workload`.
    pub fn launch(&self, workload: &EmbeddingWorkload) -> KernelLaunch {
        KernelLaunch::new(
            self.name(),
            workload.config.grid_blocks(),
            THREADS_PER_BLOCK,
        )
        .with_regs_per_thread(self.allocated_regs())
        .with_shared_mem_per_block(self.shared_mem_per_block())
    }

    /// Builds the kernel program for this variant over `workload`.
    pub fn kernel(&self, workload: &EmbeddingWorkload) -> EmbeddingBagKernel {
        EmbeddingBagKernel::new(workload.clone(), *self)
    }

    /// The resident warps per SM this variant achieves on `cfg`.
    pub fn resident_warps(&self, cfg: &GpuConfig, workload: &EmbeddingWorkload) -> u32 {
        gpu_sim::Occupancy::compute(cfg, &self.launch(workload)).warps_per_sm
    }

    /// A short human-readable name, e.g. `"RPF(d=2)+maxrreg48"`.
    pub fn name(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        match self.prefetch {
            None => parts.push("embedding_bag".to_string()),
            Some(p) => parts.push(format!("{}(d={})", p.station.abbreviation(), p.distance)),
        }
        if let Some(cap) = self.max_registers {
            parts.push(format!("maxrreg{cap}"));
        }
        parts.join("+")
    }
}

impl Default for EmbeddingKernelSpec {
    fn default() -> Self {
        Self::base()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::EmbeddingConfig;
    use dlrm_datasets::{AccessPattern, TraceConfig};

    fn workload() -> EmbeddingWorkload {
        // The batch must be large enough that the grid (batch * 128 / 256
        // blocks) fills all 108 SMs, otherwise occupancy is grid-limited
        // rather than register-limited.
        let cfg = EmbeddingConfig::new(TraceConfig::new(10_000, 2048, 8), 128);
        EmbeddingWorkload::generate(cfg, AccessPattern::MedHot, 0, 1)
    }

    #[test]
    fn base_spec_matches_paper_register_count() {
        let spec = EmbeddingKernelSpec::base();
        assert_eq!(spec.allocated_regs(), 74);
        assert_eq!(spec.spills_per_iteration(), 0);
        assert_eq!(spec.shared_mem_per_block(), 0);
        let a100 = GpuConfig::a100();
        assert_eq!(spec.resident_warps(&a100, &workload()), 24);
    }

    #[test]
    fn optmt_reaches_40_warps_without_spilling() {
        let spec = EmbeddingKernelSpec::optmt();
        assert_eq!(spec.allocated_regs(), 48);
        assert_eq!(spec.spills_per_iteration(), 0);
        assert_eq!(spec.resident_warps(&GpuConfig::a100(), &workload()), 40);
    }

    #[test]
    fn aggressive_register_caps_cause_spills() {
        // 64 resident warps needs 32 registers/thread: the paper shows this
        // spills and underperforms OptMT.
        let spec = EmbeddingKernelSpec::base().with_max_registers(32);
        assert_eq!(spec.resident_warps(&GpuConfig::a100(), &workload()), 64);
        assert!(spec.spills_per_iteration() >= 1);
        let optmt = EmbeddingKernelSpec::optmt();
        assert!(spec.spills_per_iteration() > optmt.spills_per_iteration());
    }

    #[test]
    fn rpf_register_growth_limits_occupancy_without_optmt() {
        // Paper Section VI-B2: RPF at distance >= 5 drops to 16 warps/SM.
        let d5 = EmbeddingKernelSpec::base()
            .with_prefetch(PrefetchConfig::new(BufferStation::Register, 5));
        assert_eq!(d5.resident_warps(&GpuConfig::a100(), &workload()), 16);
        let d2 = EmbeddingKernelSpec::base()
            .with_prefetch(PrefetchConfig::new(BufferStation::Register, 2));
        assert!(d2.resident_warps(&GpuConfig::a100(), &workload()) >= 24);
    }

    #[test]
    fn smpf_compiles_to_32_warps_and_uses_shared_memory() {
        // Paper Section VI-B2: nvcc compiles SMPF with 32 warps per SM.
        let spec = EmbeddingKernelSpec::base()
            .with_prefetch(PrefetchConfig::new(BufferStation::SharedMem, 10));
        assert_eq!(spec.resident_warps(&GpuConfig::a100(), &workload()), 32);
        assert_eq!(spec.shared_mem_per_block(), 256 * 10 * 4);
    }

    #[test]
    fn rpf_with_optmt_spills_more_as_distance_grows() {
        let d2 = EmbeddingKernelSpec::optmt()
            .with_prefetch(PrefetchConfig::new(BufferStation::Register, 2));
        let d10 = EmbeddingKernelSpec::optmt()
            .with_prefetch(PrefetchConfig::new(BufferStation::Register, 10));
        assert!(d10.spills_per_iteration() > d2.spills_per_iteration());
    }

    #[test]
    fn names_are_descriptive() {
        let spec = EmbeddingKernelSpec::optmt()
            .with_prefetch(PrefetchConfig::new(BufferStation::Register, 2));
        assert_eq!(spec.name(), "RPF(d=2)+maxrreg48");
        assert_eq!(EmbeddingKernelSpec::base().name(), "embedding_bag");
    }

    #[test]
    fn launch_reflects_spec_resources() {
        let spec = EmbeddingKernelSpec::base()
            .with_prefetch(PrefetchConfig::new(BufferStation::SharedMem, 4));
        let launch = spec.launch(&workload());
        assert_eq!(launch.grid_blocks, workload().config.grid_blocks());
        assert_eq!(launch.threads_per_block, 256);
        assert_eq!(launch.shared_mem_per_block, 256 * 4 * 4);
        assert_eq!(launch.regs_per_thread, spec.allocated_regs());
    }

    #[test]
    fn optimal_distances_match_paper() {
        assert_eq!(BufferStation::Register.optimal_distance_without_optmt(), 4);
        assert_eq!(
            BufferStation::SharedMem.optimal_distance_without_optmt(),
            10
        );
        assert_eq!(BufferStation::LocalMem.optimal_distance_without_optmt(), 10);
        assert_eq!(BufferStation::L1Cache.optimal_distance_without_optmt(), 5);
        for s in BufferStation::ALL {
            assert_eq!(s.optimal_distance_with_optmt(), 2);
        }
    }

    #[test]
    #[should_panic(expected = "prefetch distance")]
    fn zero_distance_rejected() {
        let _ = PrefetchConfig::new(BufferStation::Register, 0);
    }

    #[test]
    #[should_panic(expected = "maxrregcount")]
    fn too_small_register_cap_rejected() {
        let _ = EmbeddingKernelSpec::base().with_max_registers(8);
    }
}

//! The plug-and-play optimization schemes the paper proposes and evaluates.
//!
//! A [`Scheme`] combines up to three orthogonal knobs:
//!
//! 1. **Multithreading** — how many warps are resident per SM, controlled by
//!    capping registers with `-maxrregcount` (OptMT, Section III-C),
//! 2. **Software prefetching** — RPF/SMPF/LMPF/L1DPF with a prefetch
//!    distance (Section IV-B),
//! 3. **L2 pinning** — pinning the hottest rows into the L2 persisting
//!    carve-out (Section IV-C).
//!
//! Schemes are named the way the paper names them, so
//! `Scheme::combined().paper_label()` is `"RPF+L2P+OptMT"`.

use embedding_kernels::{BufferStation, EmbeddingKernelSpec, PrefetchConfig};
use gpu_sim::GpuConfig;

use crate::fingerprint;
use crate::json::{object, ObjectWriter};

/// How warp-level parallelism is configured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Multithreading {
    /// The compiler's natural register allocation (the paper's "base").
    Default,
    /// The paper's OptMT: the register cap that maximises performance on the
    /// target device (40 warps/SM on the A100, 32 on the H100 NVL).
    OptMt,
    /// An explicit `-maxrregcount` value.
    MaxRegisters(u32),
}

/// L2 pinning configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct L2Pinning {
    /// Carve-out size in bytes; `None` uses the device maximum (30 MB on the
    /// A100, i.e. 75% of the 40 MB L2).
    pub carveout_bytes: Option<u64>,
}

impl L2Pinning {
    /// Writes the pinning configuration's fields into a cell key.
    pub(crate) fn write_fields(&self, w: &mut ObjectWriter<'_>) {
        let L2Pinning { carveout_bytes } = *self;
        w.set("carveout_bytes", carveout_bytes);
    }
}

/// One optimization scheme: a combination of multithreading, prefetching and
/// L2 pinning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Scheme {
    multithreading: Multithreading,
    prefetch: Option<PrefetchConfig>,
    l2_pinning: Option<L2Pinning>,
}

impl Scheme {
    /// The unmodified PyTorch kernel (the paper's baseline).
    pub fn base() -> Self {
        Scheme {
            multithreading: Multithreading::Default,
            prefetch: None,
            l2_pinning: None,
        }
    }

    /// OptMT only.
    pub fn optmt() -> Self {
        Scheme {
            multithreading: Multithreading::OptMt,
            prefetch: None,
            l2_pinning: None,
        }
    }

    /// Register-based prefetching at the paper's optimal distance for the
    /// chosen multithreading level, combined with OptMT ("RPF+OptMT").
    pub fn rpf_optmt() -> Self {
        Scheme::optmt().with_prefetch(PrefetchConfig::new(
            BufferStation::Register,
            BufferStation::Register.optimal_distance_with_optmt(),
        ))
    }

    /// L2 pinning combined with OptMT ("L2P+OptMT").
    pub fn l2p_optmt() -> Self {
        Scheme::optmt().with_l2_pinning(None)
    }

    /// The paper's best combined scheme: RPF + L2P + OptMT.
    pub fn combined() -> Self {
        Scheme::rpf_optmt().with_l2_pinning(None)
    }

    /// Prefetching into `station` at `distance`, without OptMT.
    pub fn prefetch_only(station: BufferStation, distance: u32) -> Self {
        Scheme::base().with_prefetch(PrefetchConfig::new(station, distance))
    }

    /// L2 pinning without OptMT ("L2P").
    pub fn l2p_only() -> Self {
        Scheme::base().with_l2_pinning(None)
    }

    /// Every scheme shown in the paper's headline Figures 12 and 13, in
    /// presentation order.
    pub fn figure12_schemes() -> Vec<Scheme> {
        vec![
            Scheme::optmt(),
            Scheme::rpf_optmt(),
            Scheme::l2p_optmt(),
            Scheme::combined(),
        ]
    }

    /// Sets the multithreading policy.
    pub fn with_multithreading(mut self, mt: Multithreading) -> Self {
        self.multithreading = mt;
        self
    }

    /// Adds (or replaces) the prefetching configuration.
    pub fn with_prefetch(mut self, prefetch: PrefetchConfig) -> Self {
        self.prefetch = Some(prefetch);
        self
    }

    /// Adds L2 pinning with the given carve-out (`None` = device maximum).
    pub fn with_l2_pinning(mut self, carveout_bytes: Option<u64>) -> Self {
        self.l2_pinning = Some(L2Pinning { carveout_bytes });
        self
    }

    /// Removes L2 pinning.
    pub fn without_l2_pinning(mut self) -> Self {
        self.l2_pinning = None;
        self
    }

    /// The multithreading policy.
    pub fn multithreading(&self) -> Multithreading {
        self.multithreading
    }

    /// The prefetch configuration, if any.
    pub fn prefetch(&self) -> Option<PrefetchConfig> {
        self.prefetch
    }

    /// The L2 pinning configuration, if any.
    pub fn l2_pinning(&self) -> Option<L2Pinning> {
        self.l2_pinning
    }

    /// Writes the scheme's fields into a cell key.
    pub(crate) fn write_fields(&self, w: &mut ObjectWriter<'_>) {
        let Scheme {
            multithreading,
            prefetch,
            l2_pinning,
        } = *self;
        w.set(
            "l2_pinning",
            l2_pinning.map(|p| object(move |o| p.write_fields(o))),
        );
        match multithreading {
            Multithreading::Default => w.set("multithreading", "default"),
            Multithreading::OptMt => w.set("multithreading", "optmt"),
            Multithreading::MaxRegisters(r) => {
                w.set("multithreading", format!("maxrreg{r}").as_str())
            }
        }
        w.set(
            "prefetch",
            prefetch.map(|p| object(move |o| fingerprint::write_prefetch(o, &p))),
        );
    }

    /// The L2 carve-out in bytes this scheme uses on `cfg`, if pinning is
    /// enabled.
    pub fn carveout_bytes(&self, cfg: &GpuConfig) -> Option<u64> {
        self.l2_pinning.map(|p| {
            p.carveout_bytes
                .unwrap_or_else(|| cfg.l2_max_persisting_bytes())
                .min(cfg.l2_max_persisting_bytes())
        })
    }

    /// The `-maxrregcount` value OptMT resolves to on `cfg`: the paper finds
    /// 40 resident warps (48 registers) optimal on the A100 and 32 warps
    /// (56 registers) on the H100 NVL (Section VI-B4, Figure 18).
    pub fn optmt_registers_for(cfg: &GpuConfig) -> u32 {
        if cfg.name.to_ascii_uppercase().contains("H100") {
            56
        } else {
            48
        }
    }

    /// Lowers this scheme to the kernel build specification for `cfg`.
    pub fn kernel_spec(&self, cfg: &GpuConfig) -> EmbeddingKernelSpec {
        let mut spec = EmbeddingKernelSpec::base();
        match self.multithreading {
            Multithreading::Default => {}
            Multithreading::OptMt => {
                spec = spec.with_max_registers(Self::optmt_registers_for(cfg));
            }
            Multithreading::MaxRegisters(regs) => {
                spec = spec.with_max_registers(regs);
            }
        }
        if let Some(p) = self.prefetch {
            spec = spec.with_prefetch(p);
        }
        spec
    }

    /// The scheme label used in the paper's figures (e.g. `"RPF+L2P+OptMT"`,
    /// `"base"`).
    pub fn paper_label(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        if let Some(p) = self.prefetch {
            parts.push(p.station.abbreviation().to_string());
        }
        if self.l2_pinning.is_some() {
            parts.push("L2P".to_string());
        }
        match self.multithreading {
            Multithreading::Default => {}
            Multithreading::OptMt => parts.push("OptMT".to_string()),
            Multithreading::MaxRegisters(r) => parts.push(format!("maxrreg{r}")),
        }
        if parts.is_empty() {
            "base".to_string()
        } else {
            parts.join("+")
        }
    }
}

impl Default for Scheme {
    fn default() -> Self {
        Self::base()
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.paper_label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_labels_match_figure_legends() {
        assert_eq!(Scheme::base().paper_label(), "base");
        assert_eq!(Scheme::optmt().paper_label(), "OptMT");
        assert_eq!(Scheme::rpf_optmt().paper_label(), "RPF+OptMT");
        assert_eq!(Scheme::l2p_optmt().paper_label(), "L2P+OptMT");
        assert_eq!(Scheme::combined().paper_label(), "RPF+L2P+OptMT");
        assert_eq!(
            Scheme::prefetch_only(BufferStation::SharedMem, 10).paper_label(),
            "SMPF"
        );
    }

    #[test]
    fn figure12_schemes_are_the_four_presented() {
        let labels: Vec<String> = Scheme::figure12_schemes()
            .iter()
            .map(|s| s.paper_label())
            .collect();
        assert_eq!(
            labels,
            vec!["OptMT", "RPF+OptMT", "L2P+OptMT", "RPF+L2P+OptMT"]
        );
    }

    #[test]
    fn optmt_resolves_per_device() {
        assert_eq!(Scheme::optmt_registers_for(&GpuConfig::a100()), 48);
        assert_eq!(Scheme::optmt_registers_for(&GpuConfig::h100_nvl()), 56);
    }

    #[test]
    fn kernel_spec_reflects_scheme_components() {
        let a100 = GpuConfig::a100();
        let spec = Scheme::combined().kernel_spec(&a100);
        assert_eq!(spec.max_registers(), Some(48));
        assert_eq!(spec.prefetch().unwrap().station, BufferStation::Register);
        assert_eq!(spec.prefetch().unwrap().distance, 2);
        // L2 pinning does not change the embedding kernel itself.
        assert_eq!(
            Scheme::l2p_only().kernel_spec(&a100),
            Scheme::base().kernel_spec(&a100)
        );
    }

    #[test]
    fn carveout_defaults_to_device_maximum_and_is_clamped() {
        let a100 = GpuConfig::a100();
        assert_eq!(Scheme::base().carveout_bytes(&a100), None);
        assert_eq!(
            Scheme::l2p_only().carveout_bytes(&a100),
            Some(30 * 1024 * 1024)
        );
        let huge = Scheme::base().with_l2_pinning(Some(1 << 40));
        assert_eq!(huge.carveout_bytes(&a100), Some(30 * 1024 * 1024));
        let small = Scheme::base().with_l2_pinning(Some(1 << 20));
        assert_eq!(small.carveout_bytes(&a100), Some(1 << 20));
    }

    #[test]
    fn explicit_register_caps_flow_through() {
        let scheme = Scheme::base().with_multithreading(Multithreading::MaxRegisters(32));
        assert_eq!(
            scheme.kernel_spec(&GpuConfig::a100()).max_registers(),
            Some(32)
        );
        assert_eq!(scheme.paper_label(), "maxrreg32");
    }

    #[test]
    fn without_l2_pinning_removes_it() {
        let scheme = Scheme::combined().without_l2_pinning();
        assert!(scheme.l2_pinning().is_none());
        assert_eq!(scheme.paper_label(), "RPF+OptMT");
    }

    #[test]
    fn display_matches_label() {
        assert_eq!(format!("{}", Scheme::combined()), "RPF+L2P+OptMT");
    }
}

//! What an experiment runs: the [`Workload`] grid axis.
//!
//! The paper evaluates the same optimization [`crate::Scheme`]s against four
//! kinds of targets — a single embedding-bag kernel (Tables IV/V/VIII/IX),
//! the homogeneous embedding stage (Figures 12/16b/19), a heterogeneous
//! table mix (Table VII / Figure 17), and end-to-end DLRM inference
//! (Figures 1/13/14). [`Workload`] unifies all four behind one value so that
//! [`crate::Experiment::run`] is the single entry point for every
//! experiment, and [`crate::Campaign`] can treat them as one grid axis.
//!
//! A workload additionally carries an **optional sharding spec**
//! ([`Workload::with_sharding`]): a sharded embedding-stage or end-to-end
//! workload distributes its tables across the experiment's
//! [`crate::Cluster`] with the chosen [`ShardingSpec`] and is executed as
//! one simulation per shard plus a cross-device reduction.

use dlrm_datasets::{AccessPattern, HeterogeneousMix};

use crate::json::{array, object, ObjectWriter};
use crate::topology::ShardingSpec;

/// The dataset an embedding-stage or end-to-end workload runs over: either
/// one access pattern applied to every table (homogeneous) or a named
/// heterogeneous mix of patterns.
#[derive(Debug, Clone, PartialEq)]
pub enum Dataset {
    /// Every table follows the same access pattern.
    Homogeneous(AccessPattern),
    /// Tables are split into groups with different access patterns.
    Mix(HeterogeneousMix),
}

impl Dataset {
    /// The dataset's paper-style label (`"medium hot"`, `"Mix2"`, ...).
    pub fn label(&self) -> String {
        match self {
            Dataset::Homogeneous(pattern) => pattern.paper_name().to_string(),
            Dataset::Mix(mix) => mix.name().to_string(),
        }
    }

    /// Lowers the dataset to a concrete table mix for a model with
    /// `num_tables` embedding tables.
    pub fn to_mix(&self, num_tables: u32) -> HeterogeneousMix {
        match self {
            Dataset::Homogeneous(pattern) => HeterogeneousMix::homogeneous(*pattern, num_tables),
            Dataset::Mix(mix) => mix.clone(),
        }
    }

    /// Writes the dataset's fields into a cell key.
    fn write_fields(&self, w: &mut ObjectWriter<'_>) {
        match self {
            Dataset::Homogeneous(pattern) => w.set("pattern", pattern.paper_name()),
            Dataset::Mix(mix) => w.set(
                "mix",
                object(|m| {
                    m.set(
                        "composition",
                        array(|a| {
                            for &(pattern, count) in mix.composition() {
                                a.push(array(|pair| {
                                    pair.push(pattern.paper_name());
                                    pair.push(count);
                                }));
                            }
                        }),
                    );
                    m.set("name", mix.name());
                }),
            ),
        }
    }
}

impl From<AccessPattern> for Dataset {
    fn from(pattern: AccessPattern) -> Self {
        Dataset::Homogeneous(pattern)
    }
}

impl From<HeterogeneousMix> for Dataset {
    fn from(mix: HeterogeneousMix) -> Self {
        Dataset::Mix(mix)
    }
}

/// The simulation target of a [`Workload`].
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadTarget {
    /// A single embedding-bag kernel (one table) — the unit of the paper's
    /// NCU characterisation tables.
    Kernel(AccessPattern),
    /// The full embedding stage: every table of the model, simulated
    /// sequentially per device and extrapolated per homogeneous group.
    EmbeddingStage(Dataset),
    /// End-to-end DLRM inference: the embedding stage plus the analytic
    /// non-embedding pipeline (MLPs, feature interaction).
    EndToEnd(Dataset),
}

/// One run target: what [`crate::Experiment::run`] simulates under a scheme
/// — a [`WorkloadTarget`] plus an optional sharding spec that distributes
/// the target's tables across the experiment's cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    target: WorkloadTarget,
    sharding: Option<ShardingSpec>,
}

impl Workload {
    /// A single-kernel workload.
    pub fn kernel(pattern: AccessPattern) -> Self {
        Workload {
            target: WorkloadTarget::Kernel(pattern),
            sharding: None,
        }
    }

    /// An embedding-stage workload over a pattern or mix.
    pub fn stage(dataset: impl Into<Dataset>) -> Self {
        Workload {
            target: WorkloadTarget::EmbeddingStage(dataset.into()),
            sharding: None,
        }
    }

    /// An end-to-end workload over a pattern or mix.
    pub fn end_to_end(dataset: impl Into<Dataset>) -> Self {
        Workload {
            target: WorkloadTarget::EndToEnd(dataset.into()),
            sharding: None,
        }
    }

    /// Shards this workload's tables across the experiment's
    /// [`crate::Cluster`] with the given strategy. On a single-device
    /// cluster the resulting report is bit-exact with the unsharded run
    /// (the trivial plan puts everything on the one device and the
    /// all-to-all contributes exactly zero).
    ///
    /// # Panics
    /// Panics for kernel workloads: a kernel is one table on one device and
    /// cannot be sharded.
    pub fn with_sharding(mut self, spec: ShardingSpec) -> Self {
        assert!(
            !matches!(self.target, WorkloadTarget::Kernel(_)),
            "kernel workloads run one table on one device and cannot be sharded"
        );
        self.sharding = Some(spec);
        self
    }

    /// Removes the sharding spec.
    pub fn unsharded(mut self) -> Self {
        self.sharding = None;
        self
    }

    /// The simulation target.
    pub fn target(&self) -> &WorkloadTarget {
        &self.target
    }

    /// The sharding spec, if the workload is sharded.
    pub fn sharding(&self) -> Option<ShardingSpec> {
        self.sharding
    }

    /// Writes the workload's fields into a cell key.
    pub(crate) fn write_fields(&self, w: &mut ObjectWriter<'_>) {
        let Workload { target, sharding } = self;
        // `dataset` sorts before `kind` and `pattern` after it.
        let kernel_pattern = match target {
            WorkloadTarget::Kernel(pattern) => Some(pattern),
            WorkloadTarget::EmbeddingStage(dataset) | WorkloadTarget::EndToEnd(dataset) => {
                w.set("dataset", object(|d| dataset.write_fields(d)));
                None
            }
        };
        w.set("kind", self.kind().name());
        if let Some(pattern) = kernel_pattern {
            w.set("pattern", pattern.paper_name());
        }
        w.set("sharding", sharding.map(|spec| spec.name()));
    }

    /// The workload kind, as recorded in [`crate::RunReport`]s.
    pub fn kind(&self) -> WorkloadKind {
        match &self.target {
            WorkloadTarget::Kernel(_) => WorkloadKind::Kernel,
            WorkloadTarget::EmbeddingStage(_) => WorkloadKind::EmbeddingStage,
            WorkloadTarget::EndToEnd(_) => WorkloadKind::EndToEnd,
        }
    }

    /// The dataset label (`"random"`, `"Mix1"`, ...). Sharding does not
    /// change the label: a sharded run is the same workload executed on a
    /// different topology, and reports carry the topology breakdown
    /// separately ([`crate::RunReport::devices`]).
    pub fn dataset_label(&self) -> String {
        match &self.target {
            WorkloadTarget::Kernel(pattern) => pattern.paper_name().to_string(),
            WorkloadTarget::EmbeddingStage(dataset) | WorkloadTarget::EndToEnd(dataset) => {
                dataset.label()
            }
        }
    }

    /// A full label combining kind and dataset, e.g. `"kernel/random"`;
    /// sharded workloads append the strategy, e.g.
    /// `"embedding_stage/Mix2@round_robin"`.
    pub fn label(&self) -> String {
        match self.sharding {
            None => format!("{}/{}", self.kind().name(), self.dataset_label()),
            Some(spec) => format!("{}/{}@{}", self.kind().name(), self.dataset_label(), spec),
        }
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// Which of the three run targets a report came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// One embedding-bag kernel.
    Kernel,
    /// The full embedding stage.
    EmbeddingStage,
    /// Embedding stage plus non-embedding pipeline.
    EndToEnd,
}

impl WorkloadKind {
    /// Stable machine-readable name, used in JSON reports.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadKind::Kernel => "kernel",
            WorkloadKind::EmbeddingStage => "embedding_stage",
            WorkloadKind::EndToEnd => "end_to_end",
        }
    }

    /// Parses a [`WorkloadKind::name`] back.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "kernel" => Some(WorkloadKind::Kernel),
            "embedding_stage" => Some(WorkloadKind::EmbeddingStage),
            "end_to_end" => Some(WorkloadKind::EndToEnd),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrm_datasets::MixKind;

    #[test]
    fn labels_compose_kind_and_dataset() {
        assert_eq!(
            Workload::kernel(AccessPattern::Random).label(),
            "kernel/random"
        );
        assert_eq!(
            Workload::stage(AccessPattern::MedHot).label(),
            "embedding_stage/med hot"
        );
        let mix = HeterogeneousMix::paper_mix(MixKind::Mix2, 0.02);
        assert_eq!(Workload::end_to_end(mix).label(), "end_to_end/Mix2");
    }

    #[test]
    fn sharded_labels_append_the_strategy() {
        let w = Workload::stage(AccessPattern::Random).with_sharding(ShardingSpec::RoundRobin);
        assert_eq!(w.label(), "embedding_stage/random@round_robin");
        // The dataset label (and thus the report's workload field) is
        // unchanged by sharding.
        assert_eq!(w.dataset_label(), "random");
        assert_eq!(w.sharding(), Some(ShardingSpec::RoundRobin));
        assert_eq!(w.clone().unsharded().sharding(), None);
    }

    #[test]
    #[should_panic(expected = "cannot be sharded")]
    fn kernel_workloads_reject_sharding() {
        let _ = Workload::kernel(AccessPattern::MedHot).with_sharding(ShardingSpec::HotCold);
    }

    #[test]
    fn datasets_lower_to_mixes() {
        let homogeneous = Dataset::from(AccessPattern::LowHot).to_mix(6);
        assert_eq!(homogeneous.total_tables(), 6);
        assert_eq!(homogeneous.composition(), &[(AccessPattern::LowHot, 6)]);
        let mix = HeterogeneousMix::paper_mix(MixKind::Mix1, 0.02);
        assert_eq!(Dataset::from(mix.clone()).to_mix(999), mix);
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in [
            WorkloadKind::Kernel,
            WorkloadKind::EmbeddingStage,
            WorkloadKind::EndToEnd,
        ] {
            assert_eq!(WorkloadKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(WorkloadKind::from_name("nope"), None);
    }
}

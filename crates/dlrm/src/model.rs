//! DLRM model configuration (paper Section V) and workload scaling presets.

use dlrm_datasets::TraceConfig;
use embedding_kernels::EmbeddingConfig;

/// How large a workload to run. The paper-scale configuration takes a few
/// seconds of simulation per kernel; smaller presets keep tests and default
/// harness runs fast while preserving the access-pattern statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadScale {
    /// Tiny configuration for unit and integration tests.
    Test,
    /// Default harness scale: large enough for stable trends, small enough
    /// to sweep every scheme and dataset in minutes.
    Default,
    /// The paper's full configuration (Section V).
    Paper,
}

impl WorkloadScale {
    /// Parses a scale name (`test`, `default`, `paper`).
    pub fn from_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "test" | "tiny" => Some(WorkloadScale::Test),
            "default" | "small" => Some(WorkloadScale::Default),
            "paper" | "full" => Some(WorkloadScale::Paper),
            _ => None,
        }
    }

    /// Short name for printing next to results.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadScale::Test => "test",
            WorkloadScale::Default => "default",
            WorkloadScale::Paper => "paper",
        }
    }
}

/// The full DLRM model configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DlrmConfig {
    /// Sizes of the bottom-MLP layers, input first (paper: 1024-512-128-128).
    pub bottom_mlp: Vec<u32>,
    /// Sizes of the top-MLP layers, input excluded, output last
    /// (paper: 128-64-1, fed by the interaction stage).
    pub top_mlp: Vec<u32>,
    /// Number of embedding tables executed per inference (paper: 250).
    pub num_tables: u32,
    /// Geometry of each embedding table and of the batch run against it.
    pub embedding: EmbeddingConfig,
}

impl DlrmConfig {
    /// The paper's model: bottom MLP 1024-512-128-128, 250 tables of
    /// 500 000 x 128 fp32, top MLP 128-64-1, batch size 2048, pooling
    /// factor 150.
    pub fn paper_model() -> Self {
        DlrmConfig {
            bottom_mlp: vec![1024, 512, 128, 128],
            top_mlp: vec![128, 64, 1],
            num_tables: 250,
            embedding: EmbeddingConfig::paper_scale(),
        }
    }

    /// A configuration scaled for the given preset. All presets keep the
    /// embedding dimension at 128 and the MLP shapes unchanged so that the
    /// relative cost structure of the stages is preserved; only the batch,
    /// pooling factor, table size and table count shrink.
    pub fn at_scale(scale: WorkloadScale) -> Self {
        match scale {
            WorkloadScale::Paper => Self::paper_model(),
            // The default scale keeps the paper's 250 tables (so the
            // non-embedding interaction cost and the embedding-stage share of
            // the batch latency keep their paper-scale structure) but shrinks
            // the per-table batch, pooling factor and row count. Experiment
            // runners simulate a sample of the homogeneous tables and
            // extrapolate, so the table count does not multiply runtime.
            // The batch stays at 2048 so the embedding grid (1024 blocks)
            // fills all 108 SMs at every occupancy level the register sweep
            // visits; only the pooling factor and table size shrink.
            WorkloadScale::Default => DlrmConfig {
                bottom_mlp: vec![1024, 512, 128, 128],
                top_mlp: vec![128, 64, 1],
                num_tables: 250,
                embedding: EmbeddingConfig::new(TraceConfig::new(250_000, 2048, 32), 128),
            },
            // The test batch is kept just large enough (256 samples) that the
            // embedding grid fills a small simulated GPU with several blocks
            // per SM, so occupancy effects (base vs OptMT) remain observable.
            WorkloadScale::Test => DlrmConfig {
                bottom_mlp: vec![64, 32, 32],
                top_mlp: vec![16, 8, 1],
                num_tables: 2,
                embedding: EmbeddingConfig::new(TraceConfig::new(20_000, 256, 8), 32),
            },
        }
    }

    /// Batch size of the inference request.
    pub fn batch_size(&self) -> u32 {
        self.embedding.trace.batch_size
    }

    /// Output width of the bottom MLP (must equal the embedding dimension in
    /// DLRM so the interaction stage can combine them).
    pub fn bottom_mlp_output_dim(&self) -> u32 {
        *self
            .bottom_mlp
            .last()
            .expect("bottom MLP has at least one layer")
    }

    /// Number of feature vectors entering the interaction stage: one per
    /// embedding table plus the bottom-MLP output.
    pub fn interaction_inputs(&self) -> u32 {
        self.num_tables + 1
    }

    /// Output width of the dot-product interaction stage: all pairwise dot
    /// products plus the bottom-MLP output passed through.
    pub fn interaction_output_dim(&self) -> u32 {
        let f = self.interaction_inputs();
        f * (f - 1) / 2 + self.bottom_mlp_output_dim()
    }

    /// Bytes of pooled embedding output one table produces for one batch at
    /// fp32 (`batch_size * embedding_dim * 4`). When tables are sharded
    /// across devices, this is the unit of all-to-all traffic: every remote
    /// device ships its tables' pooled outputs to the device running the
    /// interaction stage.
    pub fn pooled_embedding_bytes_per_table(&self) -> u64 {
        self.batch_size() as u64 * self.embedding.embedding_dim as u64 * 4
    }
}

impl Default for DlrmConfig {
    fn default() -> Self {
        Self::paper_model()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_model_matches_section_v() {
        let m = DlrmConfig::paper_model();
        assert_eq!(m.bottom_mlp, vec![1024, 512, 128, 128]);
        assert_eq!(m.top_mlp, vec![128, 64, 1]);
        assert_eq!(m.num_tables, 250);
        assert_eq!(m.batch_size(), 2048);
        assert_eq!(m.embedding.embedding_dim, 128);
        // The paper quotes a ~60 GB model dominated by the embedding tables:
        // 250 * 500K * 128 * 4 B = 64 GB of embeddings.
        let emb_bytes = m.embedding.table_bytes() * m.num_tables as u64;
        assert_eq!(emb_bytes, 64_000_000_000);
    }

    #[test]
    fn pooled_embedding_bytes_follow_batch_and_dim() {
        let m = DlrmConfig::paper_model();
        assert_eq!(m.pooled_embedding_bytes_per_table(), 2048 * 128 * 4);
        let t = DlrmConfig::at_scale(WorkloadScale::Test);
        assert_eq!(
            t.pooled_embedding_bytes_per_table(),
            t.batch_size() as u64 * t.embedding.embedding_dim as u64 * 4
        );
    }

    #[test]
    fn bottom_mlp_output_matches_embedding_dim() {
        let m = DlrmConfig::paper_model();
        assert_eq!(m.bottom_mlp_output_dim(), m.embedding.embedding_dim);
    }

    #[test]
    fn interaction_dimensions() {
        let m = DlrmConfig::paper_model();
        assert_eq!(m.interaction_inputs(), 251);
        assert_eq!(m.interaction_output_dim(), 251 * 250 / 2 + 128);
    }

    #[test]
    fn scales_shrink_monotonically() {
        let paper = DlrmConfig::at_scale(WorkloadScale::Paper);
        let default = DlrmConfig::at_scale(WorkloadScale::Default);
        let test = DlrmConfig::at_scale(WorkloadScale::Test);
        // The default scale keeps the paper's batch size (so occupancy
        // behaviour is preserved) but shrinks the per-table work.
        assert!(paper.embedding.trace.total_lookups() > default.embedding.trace.total_lookups());
        assert!(default.embedding.trace.total_lookups() > test.embedding.trace.total_lookups());
        assert!(default.batch_size() > test.batch_size());
    }

    #[test]
    fn scale_names_round_trip() {
        for s in [
            WorkloadScale::Test,
            WorkloadScale::Default,
            WorkloadScale::Paper,
        ] {
            assert_eq!(WorkloadScale::from_name(s.name()), Some(s));
        }
        assert_eq!(WorkloadScale::from_name("huge"), None);
    }

    #[test]
    fn default_is_paper_model() {
        assert_eq!(DlrmConfig::default(), DlrmConfig::paper_model());
    }
}

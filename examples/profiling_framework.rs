//! The static profiling framework of Section VII, applied end to end:
//! profile the off-the-shelf kernel, let the framework recommend a scheme,
//! apply it, and verify the improvement.
//!
//! ```text
//! cargo run --release --example profiling_framework -- [test|default|paper] [dataset]
//! ```
//!
//! The dataset is one of `one_item`, `high_hot`, `med_hot` (the default),
//! `low_hot` or `random`. An unknown scale or dataset exits with code 2.

mod args;

use dlrm_datasets::AccessPattern;
use gpu_sim::GpuConfig;
use perf_envelope::{Experiment, Scheme, StaticProfiler, Workload, WorkloadHint};

fn main() {
    let scale = args::scale("profiling_framework", std::env::args().nth(1));
    let pattern = match std::env::args().nth(2) {
        None => AccessPattern::MedHot,
        Some(name) => AccessPattern::from_cli_name(&name).unwrap_or_else(|| {
            args::refuse(
                "profiling_framework",
                &format!("unknown dataset '{name}' (use one_item|high_hot|med_hot|low_hot|random)"),
            )
        }),
    };

    let gpu = GpuConfig::a100();
    let experiment = Experiment::new(gpu.clone(), scale);
    println!(
        "profiling the off-the-shelf embedding-bag kernel on {} ({pattern})\n",
        gpu.name
    );

    // Step 0: run the baseline kernel and collect its NCU-style statistics.
    let baseline = experiment.run(&Workload::kernel(pattern), &Scheme::base());
    println!("{}", baseline.stats);

    // The profiler additionally needs the workload's reuse structure, which
    // an offline trace analysis provides.
    let trace = experiment.model().embedding.trace.generate(pattern, 1);
    let hint = WorkloadHint {
        working_set_bytes: trace.working_set_bytes(experiment.model().embedding.row_bytes()),
        access_skew: trace.coverage_curve().skew(),
    };
    println!(
        "workload hint: working set {:.1} MB, access skew {:.2}\n",
        hint.working_set_bytes as f64 / 1e6,
        hint.access_skew
    );

    // Steps (i)-(vii): walk the framework.
    let report = StaticProfiler::new().analyze(&baseline.stats, &gpu, &hint);
    println!("{}", report.render());

    // Apply the recommendation and verify it against the baseline.
    let recommended = report.recommended;
    let stage = Workload::stage(pattern);
    let base_stage = experiment.run(&stage, &Scheme::base());
    let tuned_stage = experiment.run(&stage, &recommended);
    println!(
        "embedding stage: base {:.2} ms -> {} {:.2} ms ({:.2}x)",
        base_stage.latency_ms(),
        tuned_stage.scheme,
        tuned_stage.latency_ms(),
        tuned_stage.speedup_over(&base_stage)
    );
}

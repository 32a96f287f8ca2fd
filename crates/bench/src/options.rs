//! Command-line options shared by the `figures` and `tables` binaries.

use std::sync::Arc;

use dlrm::WorkloadScale;
use gpu_sim::GpuConfig;
use perf_envelope::{Campaign, CampaignCache, Experiment};

/// Parsed harness options.
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// Which figure or table to regenerate; `None` means all of them.
    pub which: Option<u32>,
    /// Workload scale.
    pub scale: WorkloadScale,
    /// Device preset name (`a100` or `h100`).
    pub device: String,
    /// Seed for trace generation.
    pub seed: u64,
    /// Worker threads for campaign grids; `0` = available parallelism.
    pub jobs: usize,
    /// Result cache shared by every experiment this harness invocation
    /// builds, so figures and tables whose grids overlap (the base-scheme
    /// columns especially) run each distinct cell once.
    pub cache: Arc<CampaignCache>,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions {
            which: None,
            scale: WorkloadScale::Default,
            device: "a100".to_string(),
            seed: 0x5EED,
            jobs: 0,
            cache: CampaignCache::new(),
        }
    }
}

impl HarnessOptions {
    /// Parses options from an argument iterator. `selector_flag` is
    /// `"--figure"` or `"--table"`.
    ///
    /// # Errors
    /// Returns a human-readable message for unknown flags or bad values.
    pub fn parse<I: IntoIterator<Item = String>>(
        args: I,
        selector_flag: &str,
    ) -> Result<Self, String> {
        let mut opts = HarnessOptions::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            let mut take_value = |name: &str| {
                iter.next()
                    .ok_or_else(|| format!("{name} requires a value"))
            };
            match arg.as_str() {
                a if a == selector_flag => {
                    let v = take_value(selector_flag)?;
                    let n = v
                        .parse::<u32>()
                        .map_err(|_| format!("invalid number '{v}'"))?;
                    opts.which = Some(n);
                }
                "--all" => opts.which = None,
                "--scale" => {
                    let v = take_value("--scale")?;
                    opts.scale = WorkloadScale::from_name(&v)
                        .ok_or_else(|| format!("unknown scale '{v}' (use test|default|paper)"))?;
                }
                "--device" => {
                    let v = take_value("--device")?.to_ascii_lowercase();
                    if v != "a100" && v != "h100" {
                        return Err(format!("unknown device '{v}' (use a100|h100)"));
                    }
                    opts.device = v;
                }
                "--seed" => {
                    let v = take_value("--seed")?;
                    opts.seed = v.parse().map_err(|_| format!("invalid seed '{v}'"))?;
                }
                "--jobs" | "-j" => {
                    let v = take_value("--jobs")?;
                    opts.jobs = v.parse().map_err(|_| format!("invalid job count '{v}'"))?;
                }
                "--help" | "-h" => {
                    return Err(format!(
                        "usage: [{selector_flag} N] [--all] [--scale test|default|paper] [--device a100|h100] [--seed N] [--jobs N]"
                    ));
                }
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        Ok(opts)
    }

    /// The GPU configuration selected by `--device`.
    pub fn gpu(&self) -> GpuConfig {
        if self.device == "h100" {
            GpuConfig::h100_nvl()
        } else {
            GpuConfig::a100()
        }
    }

    /// Builds an experiment for these options (always on the full device
    /// preset; the scale only affects the workload).
    pub fn experiment(&self) -> Experiment {
        Experiment::new(self.gpu(), self.scale)
            .with_seed(self.seed)
            .with_threads(self.jobs)
            .with_cache(self.cache.clone())
    }

    /// Starts a campaign over [`HarnessOptions::experiment`]; campaigns
    /// (including the DSE sweeps, which build their own) inherit the
    /// `--jobs` thread count from the experiment.
    pub fn campaign(&self) -> Campaign {
        Campaign::new(self.experiment())
    }

    /// A one-line description printed at the top of every result.
    pub fn banner(&self) -> String {
        format!(
            "# device={} scale={} seed={:#x}",
            self.gpu().name,
            self.scale.name(),
            self.seed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<HarnessOptions, String> {
        HarnessOptions::parse(args.iter().map(|s| s.to_string()), "--figure")
    }

    #[test]
    fn defaults_are_sensible() {
        let opts = parse(&[]).unwrap();
        assert_eq!(opts.which, None);
        assert_eq!(opts.scale, WorkloadScale::Default);
        assert_eq!(opts.device, "a100");
        assert_eq!(opts.jobs, 0);
    }

    #[test]
    fn parses_all_flags() {
        let opts = parse(&[
            "--figure", "12", "--scale", "test", "--device", "h100", "--seed", "7", "--jobs", "3",
        ])
        .unwrap();
        assert_eq!(opts.which, Some(12));
        assert_eq!(opts.scale, WorkloadScale::Test);
        assert_eq!(opts.device, "h100");
        assert_eq!(opts.seed, 7);
        assert_eq!(opts.jobs, 3);
        assert!(opts.gpu().name.contains("H100"));
    }

    #[test]
    fn rejects_unknown_arguments_and_values() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--scale", "huge"]).is_err());
        assert!(parse(&["--device", "tpu"]).is_err());
        assert!(parse(&["--figure"]).is_err());
        assert!(parse(&["--figure", "twelve"]).is_err());
        assert!(parse(&["--jobs", "many"]).is_err());
    }

    #[test]
    fn banner_mentions_device_and_scale() {
        let opts = parse(&["--scale", "test"]).unwrap();
        assert!(opts.banner().contains("A100"));
        assert!(opts.banner().contains("test"));
    }

    #[test]
    fn experiment_reflects_the_options() {
        let opts = parse(&["--scale", "test", "--seed", "9"]).unwrap();
        let experiment = opts.experiment();
        assert_eq!(experiment.seed(), 9);
        assert_eq!(experiment.scale(), WorkloadScale::Test);
    }

    #[test]
    fn jobs_flag_reaches_campaigns_and_sweeps() {
        // The DSE sweeps build their own campaigns from the experiment, so
        // the --jobs thread count must ride on the experiment itself.
        let opts = parse(&["--jobs", "2"]).unwrap();
        assert_eq!(opts.experiment().threads(), 2);
    }
}

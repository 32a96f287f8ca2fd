//! Layer-by-layer host-performance benchmark of the embedding-stage
//! simulator. See `perfbench/README.md` for the workloads, the metrics and
//! how to run it.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload a100_sweep --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (every end-to-end metric untraced,
//! every per-layer metric traced). Bad arguments exit with code 2.

mod bench;
mod clock;
mod host;
mod metrics;
mod replay;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use clock::{median, timed};
use metrics::{Checks, END_TO_END, PER_LAYER};

/// Times set-up runs per process; `setup_s` is the median.
const SETUP_REPETITIONS: usize = 5;

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Where a run keeps its cache file and trace: inside the benchmark's own
/// directory, per workload and seed.
fn scratch_dir(args: &Args) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}-seed{}", args.workload, args.seed))
}

fn main() -> ExitCode {
    host::single_malloc_arena();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let scratch = scratch_dir(&args);
    if let Err(err) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {err}", scratch.display());
        return ExitCode::FAILURE;
    }

    // Set-up is everything before the first timed operation, including the
    // discarded warm-up cell; it repeats so that its median is steady.
    let mut rotation = host::Rotation::new();
    let mut setup_s = Vec::new();
    let mut plan = None;
    for _ in 0..SETUP_REPETITIONS {
        rotation.advance();
        let (built, s) = timed(|| workloads::set_up(&args.workload, args.seed));
        setup_s.push(s);
        plan = built;
    }
    let plan = plan.expect("the workload name was validated");

    let mut checks = Checks::default();
    let measured = bench::measure(
        &plan,
        args.seconds,
        args.trace,
        &scratch,
        &mut rotation,
        &mut checks,
    );
    println!(
        "digest {} seed {} {:016x}",
        args.workload, args.seed, measured.digest
    );

    let registry = if args.trace { PER_LAYER } else { END_TO_END };
    let mut values: BTreeMap<&str, f64> = measured.metrics;
    values.insert("setup_s", median(&setup_s) + measured.cache_round_trip_s);
    values.insert("peak_rss_mb", measured.peak_rss_mb);
    values.insert("error_rate", checks.error_rate());
    println!("{}", metrics::result_line(&checks, registry, &values));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arguments_parse_and_reject_bad_input() {
        let args = parse_args(&strings(&[
            "--workload",
            "a100_sweep",
            "--seed",
            "3",
            "--seconds",
            "15",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            args,
            Args {
                workload: "a100_sweep".to_string(),
                seed: 3,
                seconds: 15.0,
                trace: true
            }
        );
        for bad in [
            &["--workload", "nope", "--seed", "1", "--seconds", "1"][..],
            &["--workload", "a100_sweep", "--seed", "x", "--seconds", "1"],
            &["--workload", "a100_sweep", "--seed", "1", "--seconds", "0"],
            &["--workload", "a100_sweep", "--seed", "1"],
            &[
                "--workload",
                "a100_sweep",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "2",
            ],
            &["--workload"],
        ] {
            assert!(
                parse_args(&strings(bad)).is_err(),
                "{bad:?} must be refused"
            );
        }
    }
}

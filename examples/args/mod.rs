//! Command-line handling shared by the examples. Every argument is
//! optional and has a default; a value that does not parse is refused with
//! a message on stderr and exit code 2, never replaced by the default.

use dlrm::WorkloadScale;

/// Prints `example: message` to stderr and exits with code 2.
pub fn refuse(example: &str, message: &str) -> ! {
    eprintln!("{example}: {message}");
    std::process::exit(2)
}

/// The workload scale named by `arg`, or `Test` when it is absent.
pub fn scale(example: &str, arg: Option<String>) -> WorkloadScale {
    match arg {
        None => WorkloadScale::Test,
        Some(name) => WorkloadScale::from_name(&name).unwrap_or_else(|| {
            refuse(
                example,
                &format!("unknown scale '{name}' (use test|default|paper)"),
            )
        }),
    }
}

//! `cargo run -p analysis` — audit the workspace, write `AUDIT.json` at the
//! workspace root, print a human summary, exit nonzero on findings.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    // CARGO_MANIFEST_DIR is crates/analysis; the workspace root is two up.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/analysis sits two levels below the workspace root")
        .to_path_buf();

    let audit = analysis::audit_workspace(&root);

    let out = root.join("AUDIT.json");
    if let Err(e) = std::fs::write(&out, audit.to_json()) {
        eprintln!("audit: cannot write {}: {e}", out.display());
        return ExitCode::from(2);
    }

    println!(
        "audit: {} files scanned, {} suppression(s) -> {}",
        audit.files_scanned,
        audit.suppressed.len(),
        out.display()
    );
    if audit.findings.is_empty() {
        println!("audit: clean");
        ExitCode::SUCCESS
    } else {
        for f in &audit.findings {
            eprintln!("audit: {}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
        }
        eprintln!("audit: {} finding(s)", audit.findings.len());
        ExitCode::FAILURE
    }
}

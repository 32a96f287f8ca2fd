//! Workspace determinism auditor.
//!
//! `cargo run -p analysis` scans the workspace sources, writes a
//! machine-readable `AUDIT.json` at the workspace root, and exits nonzero
//! if any unsuppressed finding remains. It is a *token-level* scanner in
//! the spirit of `perf_envelope::json` — no crates.io dependencies, no
//! full parser — which is sound here because every rule matches syntax
//! that survives [`lexer::mask`]ing (comments and literals blanked, line
//! structure preserved).
//!
//! # Rules
//!
//! | rule | what it flags | where |
//! |------|---------------|-------|
//! | `unordered_collection` | `HashMap`/`HashSet` use sites — iteration order is randomized per process, so any iteration feeding a result breaks run-to-run determinism | result-producing crates: `gpu-sim`, `core` (perf-envelope), `kernels`, `datasets` |
//! | `wall_clock` | `Instant`/`SystemTime` — host timing must never reach a simulated result | everywhere; host timing is allowed only behind an `audit:allow(wall_clock)` with a reason (today the benchmark's clock in `perfbench/src/clock.rs` and the ignored speedup test) |
//! | `thread_accumulation` | shared-state accumulation shapes (`Mutex<Vec`, `RwLock<Vec`, `fetch_add(`, `fetch_sub(`, locked `push`) whose value or order depends on thread interleaving | result-producing crates (same set as `unordered_collection`) |
//! | `malformed_allow` | an `audit:allow` directive naming an unknown rule or missing its justification | anywhere directives appear |
//!
//! `use` statements are exempt from the token rules: the hazard lives at
//! use sites, which are always flagged independently.
//!
//! # Suppressions: `audit:allow`
//!
//! A finding is suppressed by an inline directive in a `//` comment:
//!
//! ```text
//! let mut pending: HashMap<u64, u64> = HashMap::new(); // audit:allow(unordered_collection): keyed lookups only, never iterated
//! ```
//!
//! The directive applies to its own line and the next code-bearing line
//! below it (blank and comment-only lines are skipped, so a standalone
//! comment may run to several lines before the declaration it annotates).
//! The justification after the colon is mandatory — an empty reason is
//! reported as `malformed_allow`, as is an unknown rule name. A standalone
//! directive's reason continues onto the non-empty plain `//` lines right
//! below it. Suppressed
//! findings are still recorded in `AUDIT.json` under `"suppressed"`, so
//! the allow-list is reviewable in one place.
//!
//! # Fingerprint coverage is the compiler's job
//!
//! Whether every field of a result-affecting config struct reaches the
//! cache-cell key is not checked here. Each such struct has one key writer
//! that destructures it without a `..` rest pattern (see
//! `perf_envelope`'s `fingerprint` module), so a new field does not compile
//! until it is written or bound to `_` with a reason, and a deleted write
//! leaves an unused binding that `clippy -D warnings` rejects.
//!
//! # Adding a rule
//!
//! 1. Define a [`rules::TokenRule`] const in `rules.rs` (pick
//!    [`rules::MatchKind::Identifier`] for type/function names,
//!    [`rules::MatchKind::Substring`] for multi-token shapes) and add it
//!    to [`rules::ALL_TOKEN_RULES`] so `audit:allow(<name>)` validates.
//! 2. Decide its scope in [`audit_workspace`] (append to the rule set for
//!    the paths it applies to).
//! 3. Add a seeded-violation fixture under `tests/fixtures/` and a case
//!    in `tests/analyzer.rs` proving the rule fires and suppresses.
//! 4. Document it in the table above.

#![deny(unsafe_code)]

pub mod jsonw;
pub mod lexer;
pub mod rules;

use std::fs;
use std::path::{Path, PathBuf};

use rules::{scan_tokens, THREAD_ACCUMULATION, UNORDERED_COLLECTION, WALL_CLOCK};

/// One unsuppressed rule violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule name (see the crate docs table).
    pub rule: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// Why this is a problem.
    pub message: String,
}

/// A violation covered by a valid `audit:allow` directive.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// Rule that would have fired.
    pub rule: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the (suppressed) violation.
    pub line: usize,
    /// The justification from the directive.
    pub reason: String,
}

/// Full audit outcome: findings and the reviewable allow-list.
#[derive(Debug)]
pub struct Audit {
    /// Unsuppressed violations; nonempty ⇒ the binary exits nonzero.
    pub findings: Vec<Finding>,
    /// Violations silenced by `audit:allow`, with their justifications.
    pub suppressed: Vec<Suppression>,
    /// Number of `.rs` files scanned by the token rules.
    pub files_scanned: usize,
}

/// Crates whose outputs are (or feed) simulation results: the scope of the
/// `unordered_collection` and `thread_accumulation` rules.
const RESULT_CRATE_DIRS: &[&str] = &[
    "crates/gpu-sim/src",
    "crates/core/src",
    "crates/kernels/src",
    "crates/datasets/src",
];

/// Path prefixes never scanned: vendored deps, build output and this crate
/// itself (its sources and fixtures spell out every needle).
const SKIP_DIRS: &[&str] = &["vendor", "target", "crates/analysis", ".git"];

/// Recursively collects `.rs` files under `dir`, sorted, as
/// workspace-relative paths. Sorted traversal keeps the audit output (and
/// therefore `AUDIT.json` diffs) deterministic.
fn rust_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        let rel = path.strip_prefix(root).unwrap_or(&path);
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        if SKIP_DIRS
            .iter()
            .any(|s| rel_str == *s || rel_str.starts_with(&format!("{s}/")))
        {
            continue;
        }
        if path.is_dir() {
            rust_files(root, &path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Audits the workspace rooted at `root`: token rules over every in-scope
/// `.rs` file.
pub fn audit_workspace(root: &Path) -> Audit {
    let mut findings = Vec::new();
    let mut suppressed = Vec::new();

    let mut files = Vec::new();
    rust_files(root, root, &mut files);
    let files_scanned = files.len();

    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let in_result_crate = RESULT_CRATE_DIRS
            .iter()
            .any(|d| rel.starts_with(&format!("{d}/")) || rel == *d);
        let mut rule_set = vec![&WALL_CLOCK];
        if in_result_crate {
            rule_set.push(&UNORDERED_COLLECTION);
            rule_set.push(&THREAD_ACCUMULATION);
        }
        let Ok(source) = fs::read_to_string(path) else {
            continue;
        };
        let result = scan_tokens(&rel, &source, &rule_set);
        findings.extend(result.findings);
        suppressed.extend(result.suppressed);
    }

    findings.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    suppressed.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));

    Audit {
        findings,
        suppressed,
        files_scanned,
    }
}

impl Audit {
    /// Renders the audit as pretty-printed JSON (the `AUDIT.json` format).
    pub fn to_json(&self) -> String {
        use jsonw::{array, str_lit};
        let findings: Vec<String> = self
            .findings
            .iter()
            .map(|f| {
                format!(
                    "{{\"rule\": {}, \"file\": {}, \"line\": {}, \"snippet\": {}, \"message\": {}}}",
                    str_lit(&f.rule),
                    str_lit(&f.file),
                    f.line,
                    str_lit(&f.snippet),
                    str_lit(&f.message)
                )
            })
            .collect();
        let suppressed: Vec<String> = self
            .suppressed
            .iter()
            .map(|s| {
                format!(
                    "{{\"rule\": {}, \"file\": {}, \"line\": {}, \"reason\": {}}}",
                    str_lit(&s.rule),
                    str_lit(&s.file),
                    s.line,
                    str_lit(&s.reason)
                )
            })
            .collect();
        format!(
            "{{\n  \"schema\": \"perf-envelope/audit/v2\",\n  \"files_scanned\": {},\n  \"findings\": {},\n  \"suppressed\": {}\n}}\n",
            self.files_scanned,
            array(&findings, 2),
            array(&suppressed, 2)
        )
    }
}

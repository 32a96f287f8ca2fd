//! The audit rules: token-level determinism hazards.
//!
//! See the crate docs ([`crate`]) for what each rule enforces, the
//! `audit:allow` suppression syntax, and how to add a rule.

use crate::lexer::{allow_directives, contains_identifier, mask};
use crate::{Finding, Suppression};

/// How a token rule matches a masked source line.
#[derive(Debug, Clone, Copy)]
pub enum MatchKind {
    /// Match any of the needles as standalone identifiers.
    Identifier(&'static [&'static str]),
    /// Match any of the needles as raw substrings (for multi-token shapes
    /// like `Mutex<Vec`).
    Substring(&'static [&'static str]),
}

/// One line-oriented hazard rule.
#[derive(Debug, Clone, Copy)]
pub struct TokenRule {
    /// Stable rule name — what `audit:allow(<name>)` refers to.
    pub name: &'static str,
    /// What the rule looks for.
    pub kind: MatchKind,
    /// Human-readable description attached to findings.
    pub message: &'static str,
}

/// Iteration order of `HashMap`/`HashSet` is randomized per process; any
/// use in a result-producing crate must be shown (and declared) order-safe
/// or converted to a `BTreeMap`/`BTreeSet`/sorted vector.
pub const UNORDERED_COLLECTION: TokenRule = TokenRule {
    name: "unordered_collection",
    kind: MatchKind::Identifier(&["HashMap", "HashSet"]),
    message: "HashMap/HashSet in a result-producing crate: iteration order is \
              nondeterministic; use a BTree collection, sort before use, or \
              justify with audit:allow",
};

/// Wall-clock reads make results depend on the host machine; only the
/// benchmark harness (crates/bench) may time things.
pub const WALL_CLOCK: TokenRule = TokenRule {
    name: "wall_clock",
    kind: MatchKind::Identifier(&["Instant", "SystemTime"]),
    message: "wall-clock time outside crates/bench: simulated results must \
              not depend on host timing",
};

/// Shared-state accumulation whose value (or order) depends on thread
/// interleaving: results must be written to per-index slots or reduced
/// order-insensitively.
pub const THREAD_ACCUMULATION: TokenRule = TokenRule {
    name: "thread_accumulation",
    kind: MatchKind::Substring(&[
        "Mutex<Vec",
        "RwLock<Vec",
        "fetch_add(",
        "fetch_sub(",
        "lock().unwrap().push(",
    ]),
    message: "thread-order-dependent accumulation: push-order or read-modify-write \
              on shared state varies with scheduling; collect into per-job \
              slots or justify with audit:allow",
};

/// Name of the synthetic rule reported for malformed `audit:allow`
/// directives (unknown rule name or missing reason).
pub const MALFORMED_ALLOW: &str = "malformed_allow";

/// Every token rule, for directive validation.
pub const ALL_TOKEN_RULES: &[&TokenRule] =
    &[&UNORDERED_COLLECTION, &WALL_CLOCK, &THREAD_ACCUMULATION];

/// Outcome of scanning one file with a set of token rules.
#[derive(Debug, Default)]
pub struct ScanResult {
    /// Unsuppressed violations (including malformed allow directives).
    pub findings: Vec<Finding>,
    /// Violations covered by a valid `audit:allow`.
    pub suppressed: Vec<Suppression>,
}

/// Scans `source` (labelled `file`) with the given rules.
///
/// A finding is suppressed by a well-formed `audit:allow(rule): reason`
/// directive on the same line (trailing comment) or in a standalone
/// comment directly above it — "directly above" skips blank and
/// comment-only lines, so a directive may open a multi-line comment.
/// Directives naming an unknown rule or lacking a reason are themselves
/// findings.
pub fn scan_tokens(file: &str, source: &str, rules: &[&TokenRule]) -> ScanResult {
    let mut result = ScanResult::default();

    // Collect suppressions first: (rule, line) -> reason.
    let mut allows: Vec<(String, usize, String)> = Vec::new();
    for d in allow_directives(source) {
        let known = ALL_TOKEN_RULES.iter().any(|r| r.name == d.rule) || d.rule == MALFORMED_ALLOW;
        if !known || d.reason.is_empty() {
            result.findings.push(Finding {
                rule: MALFORMED_ALLOW.to_string(),
                file: file.to_string(),
                line: d.line,
                snippet: source
                    .lines()
                    .nth(d.line - 1)
                    .unwrap_or("")
                    .trim()
                    .to_string(),
                message: if known {
                    "audit:allow directive lacks a justification after the colon".to_string()
                } else {
                    format!("audit:allow names unknown rule '{}'", d.rule)
                },
            });
        } else {
            allows.push((d.rule, d.line, d.reason));
        }
    }

    let masked = mask(source);
    let masked_lines: Vec<&str> = masked.lines().collect();

    // Resolve each directive to the lines it covers: its own line plus the
    // next line carrying any code (skipping blank and comment-only lines,
    // which mask to whitespace).
    let covers = |allow_line: usize, line: usize| -> bool {
        if line == allow_line {
            return true;
        }
        if line <= allow_line {
            return false;
        }
        masked_lines[allow_line..line - 1]
            .iter()
            .all(|l| l.trim().is_empty())
    };

    for (idx, (masked_line, raw_line)) in masked.lines().zip(source.lines()).enumerate() {
        let line = idx + 1;
        let trimmed = masked_line.trim_start();
        // Imports are not where the hazard lives: every *use site* of the
        // imported type is flagged, so flagging `use` lines too would only
        // force a second, redundant allow per file.
        if trimmed.starts_with("use ") || trimmed.starts_with("pub use ") {
            continue;
        }
        for rule in rules {
            let hit = match rule.kind {
                MatchKind::Identifier(needles) => needles
                    .iter()
                    .any(|needle| contains_identifier(masked_line, needle)),
                MatchKind::Substring(needles) => {
                    needles.iter().any(|needle| masked_line.contains(needle))
                }
            };
            if !hit {
                continue;
            }
            let allow = allows
                .iter()
                .find(|(r, l, _)| r == rule.name && covers(*l, line));
            match allow {
                Some((_, _, reason)) => result.suppressed.push(Suppression {
                    rule: rule.name.to_string(),
                    file: file.to_string(),
                    line,
                    reason: reason.clone(),
                }),
                None => result.findings.push(Finding {
                    rule: rule.name.to_string(),
                    file: file.to_string(),
                    line,
                    snippet: raw_line.trim().to_string(),
                    message: rule.message.to_string(),
                }),
            }
        }
    }
    result
}

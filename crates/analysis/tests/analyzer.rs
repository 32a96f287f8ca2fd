//! Self-tests for the workspace auditor: every rule fires on a seeded
//! fixture, suppressions and malformed directives behave as documented,
//! and the real workspace audits clean.

use analysis::rules::{
    scan_tokens, ALL_TOKEN_RULES, THREAD_ACCUMULATION, UNORDERED_COLLECTION, WALL_CLOCK,
};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn rules_of(findings: &[analysis::Finding], rule: &str) -> usize {
    findings.iter().filter(|f| f.rule == rule).count()
}

#[test]
fn every_token_rule_fires_on_the_seeded_fixture() {
    let src = fixture("determinism_violations.rs");
    let result = scan_tokens("fixture.rs", &src, ALL_TOKEN_RULES);
    // HashMap::new + HashSet decl (the `use` line is skipped by design).
    assert_eq!(rules_of(&result.findings, "unordered_collection"), 2);
    // Instant::now + SystemTime::now.
    assert_eq!(rules_of(&result.findings, "wall_clock"), 2);
    // Mutex<Vec field + fetch_add + fetch_sub.
    assert_eq!(rules_of(&result.findings, "thread_accumulation"), 3);
    assert!(result.suppressed.is_empty());
    // Needles inside strings and comments must NOT fire: total is exactly
    // the seeded count.
    assert_eq!(result.findings.len(), 7, "{:#?}", result.findings);
}

#[test]
fn valid_allows_suppress_and_are_recorded() {
    let src = fixture("suppressed.rs");
    let result = scan_tokens("fixture.rs", &src, ALL_TOKEN_RULES);
    assert!(
        result.findings.is_empty(),
        "fully-allowed fixture still produced {:#?}",
        result.findings
    );
    assert_eq!(result.suppressed.len(), 3);
    let rules: Vec<&str> = result.suppressed.iter().map(|s| s.rule.as_str()).collect();
    assert!(rules.contains(&"unordered_collection"));
    assert!(rules.contains(&"wall_clock"));
    assert!(rules.contains(&"thread_accumulation"));
    assert!(result.suppressed.iter().all(|s| !s.reason.is_empty()));
}

#[test]
fn malformed_directives_are_findings_and_do_not_suppress() {
    let src = fixture("malformed_allows.rs");
    let result = scan_tokens("fixture.rs", &src, ALL_TOKEN_RULES);
    // One reason-less directive, one unknown-rule directive.
    assert_eq!(rules_of(&result.findings, "malformed_allow"), 2);
    // Neither directive suppressed the violation on its own line.
    assert_eq!(rules_of(&result.findings, "unordered_collection"), 2);
    assert!(result.suppressed.is_empty());
}

#[test]
fn use_lines_are_exempt_from_token_rules() {
    let src = "use std::collections::HashMap;\npub use std::time::Instant;\n";
    let result = scan_tokens("f.rs", src, ALL_TOKEN_RULES);
    assert!(result.findings.is_empty(), "{:#?}", result.findings);
}

#[test]
fn trailing_allow_covers_its_own_line_only_matching_rule() {
    let src =
        "let t = std::time::Instant::now(); // audit:allow(unordered_collection): wrong rule\n";
    let result = scan_tokens("f.rs", src, &[&WALL_CLOCK, &UNORDERED_COLLECTION]);
    // The directive names a different rule, so the wall_clock finding stays.
    assert_eq!(rules_of(&result.findings, "wall_clock"), 1);
}

/// The sharded-SM selection pattern from the engine: the accumulating
/// variant (workers folding picks into shared atomics/locked vecs) must
/// fire `thread_accumulation`, while the commit-point variant (disjoint
/// per-shard slots, serial commit) must scan clean.
#[test]
fn sharded_commit_fixture_separates_hazard_from_commit_point() {
    let src = fixture("sharded_commit.rs");
    let result = scan_tokens("sharded_commit.rs", &src, &[&THREAD_ACCUMULATION]);
    // fetch_add + lock().unwrap().push( + the Mutex<Vec field.
    assert_eq!(
        rules_of(&result.findings, "thread_accumulation"),
        3,
        "{:#?}",
        result.findings
    );
    // Every finding sits in the accumulating half of the fixture; the
    // commit-point half (below the serial-commit comment) is clean.
    let commit_point_start = src
        .lines()
        .position(|l| l.contains("fn sharded_select_commit_point"))
        .unwrap()
        + 1;
    assert!(
        result.findings.iter().all(|f| f.line < commit_point_start),
        "commit-point pattern was flagged: {:#?}",
        result.findings
    );
    assert!(result.suppressed.is_empty());
}

#[test]
fn accumulation_rule_matches_substring_shapes() {
    let src = "struct S { v: Mutex<Vec<u8>> }\nfn f(c: &AtomicU64) { c.fetch_add(1, O); }\n";
    let result = scan_tokens("f.rs", src, &[&THREAD_ACCUMULATION]);
    assert_eq!(result.findings.len(), 2);
}

// ---------------------------------------------------------------------------
// The real workspace
// ---------------------------------------------------------------------------

fn workspace_root() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/analysis sits two levels below the workspace root")
        .to_path_buf()
}

/// The tree must audit clean — this is the same check CI gates on.
#[test]
fn workspace_audits_clean() {
    let audit = analysis::audit_workspace(&workspace_root());
    assert!(
        audit.findings.is_empty(),
        "workspace has unsuppressed audit findings:\n{:#?}",
        audit.findings
    );
    assert!(audit.files_scanned > 40, "suspiciously few files scanned");
    // Every suppression must carry a justification.
    assert!(audit.suppressed.iter().all(|s| !s.reason.is_empty()));
}

/// AUDIT.json must be well-formed enough for CI consumers: a quick
/// structural sanity check without a JSON parser dependency.
#[test]
fn audit_json_renders_expected_sections() {
    let audit = analysis::audit_workspace(&workspace_root());
    let json = audit.to_json();
    assert!(json.contains("\"schema\": \"perf-envelope/audit/v2\""));
    assert!(json.contains("\"findings\": []"));
    assert!(json.contains("\"suppressed\": ["));
    assert!(!json.contains("\"coverage\""));
}

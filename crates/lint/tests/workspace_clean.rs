//! The acceptance gate, enforced from inside tier-1 `cargo test`: the
//! real workspace must lint clean — every finding is either fixed or
//! excused in place by a justified pragma, exactly what the CI job and
//! `locec lint` demand.

use locec_lint::{lint, LintConfig, RuleId};
use std::path::Path;

fn repo_root() -> &'static Path {
    // crates/lint -> crates -> repo root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("lint crate lives two levels below the repo root")
}

#[test]
fn workspace_lints_clean_with_an_empty_baseline() {
    let outcome = lint(repo_root(), &LintConfig::locec_defaults()).expect("workspace scans");
    // A meaningful corpus actually got scanned (guards against the walker
    // silently skipping everything and vacuously passing).
    assert!(
        outcome.files_scanned > 50,
        "only {} files scanned — walker regression?",
        outcome.files_scanned
    );
    let violations: Vec<String> = outcome.findings.iter().map(|f| f.to_string()).collect();
    assert!(
        violations.is_empty(),
        "workspace has lint violations:\n{}",
        violations.join("\n")
    );
}

#[test]
fn the_workspace_exercises_every_rule_id() {
    // The five rules all have teeth on this tree: R1–R4 pass with zero
    // findings and R5's two justified holds are pragma-suppressed, so a
    // rule that silently stopped matching would be invisible here. Guard
    // the other direction instead: each rule still *fires* on its fixture.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let outcome = lint(&root, &LintConfig::locec_defaults()).expect("fixture tree scans");
    for rule in RuleId::all() {
        assert!(
            outcome.findings.iter().any(|f| f.rule == rule),
            "{rule:?} no longer fires on its fixture"
        );
    }
}

//! A justified `locec-lint: allow(…)` pragma is the one way to excuse a
//! finding. These cases pin what it does and does not excuse: a pragma
//! on the finding's line or the line above, naming the finding's rule and
//! giving a reason, suppresses it and is counted; a pragma without a
//! reason, or naming another rule, leaves the finding standing.

use locec_lint::workspace::SourceFile;
use locec_lint::{lint_workspace, LintConfig, LintOutcome, RuleId};
use std::path::PathBuf;

/// Lints one non-root library file holding `src`. The only rule its
/// snippets can trip is R1 (an `unsafe` token).
fn lint_one(src: &str) -> LintOutcome {
    let ws = locec_lint::Workspace {
        root: PathBuf::from("."),
        files: vec![SourceFile::from_source(
            "crates/store/src/held.rs".to_owned(),
            src,
        )],
    };
    lint_workspace(&ws, &LintConfig::locec_defaults())
}

#[test]
fn a_justified_pragma_on_the_same_line_suppresses_and_is_counted() {
    let out = lint_one("fn f() {\n    unsafe {} // locec-lint: allow(R1) — test input\n}\n");
    assert!(out.findings.is_empty(), "{:?}", out.findings);
    assert_eq!(out.pragma_suppressed, 1);
    assert!(out.is_clean());
}

#[test]
fn a_justified_pragma_on_the_line_above_suppresses_and_is_counted() {
    let out =
        lint_one("fn f() {\n    // locec-lint: allow(no-unsafe) — test input\n    unsafe {}\n}\n");
    assert!(out.findings.is_empty(), "{:?}", out.findings);
    assert_eq!(out.pragma_suppressed, 1);
    assert!(out.is_clean());
}

#[test]
fn a_pragma_without_a_reason_keeps_the_finding_and_says_so() {
    let out = lint_one("fn f() {\n    // locec-lint: allow(R1)\n    unsafe {}\n}\n");
    assert_eq!(out.pragma_suppressed, 0);
    assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
    let f = &out.findings[0];
    assert_eq!((f.rule, f.line), (RuleId::R1, 3));
    assert!(f.message.contains("has no justification"), "{}", f.message);
    assert!(!out.is_clean());
}

#[test]
fn a_pragma_naming_another_rule_suppresses_nothing() {
    let out =
        lint_one("fn f() {\n    // locec-lint: allow(R2, R5) — test input\n    unsafe {}\n}\n");
    assert_eq!(out.pragma_suppressed, 0);
    assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
    let f = &out.findings[0];
    assert_eq!((f.rule, f.line), (RuleId::R1, 3));
    assert!(!f.message.contains("has no justification"), "{}", f.message);
    assert!(!out.is_clean());
}

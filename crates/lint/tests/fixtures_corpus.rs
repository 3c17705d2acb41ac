//! The known-bad corpus: one fixture file per rule, each laid out under
//! `tests/fixtures/` at the same relative path a real violation would
//! occupy (path-scoped rules only fire on their configured prefixes).
//! Every fixture must trigger **exactly** its own rule — a fixture that
//! trips a second rule means either the fixture or a rule has drifted.

use locec_lint::{lint, LintConfig, RuleId};
use std::collections::BTreeMap;
use std::path::Path;

fn fixture_findings() -> BTreeMap<String, Vec<(RuleId, String)>> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let outcome = lint(&root, &LintConfig::locec_defaults()).expect("fixture tree scans");
    let mut by_file: BTreeMap<String, Vec<(RuleId, String)>> = BTreeMap::new();
    for f in &outcome.findings {
        by_file
            .entry(f.file.clone())
            .or_default()
            .push((f.rule, f.message.clone()));
    }
    by_file
}

/// `file` triggered `rule`, exactly `count` times, and nothing else.
fn assert_only(
    by_file: &BTreeMap<String, Vec<(RuleId, String)>>,
    file: &str,
    rule: RuleId,
    count: usize,
) {
    let findings = by_file
        .get(file)
        .unwrap_or_else(|| panic!("{file}: expected {rule:?} findings, got none"));
    assert_eq!(
        findings.len(),
        count,
        "{file}: expected exactly {count} finding(s), got {findings:?}"
    );
    for (r, msg) in findings {
        assert_eq!(*r, rule, "{file}: unexpected {r:?} finding: {msg}");
    }
}

#[test]
fn each_fixture_triggers_exactly_its_rule() {
    let by_file = fixture_findings();
    assert_only(&by_file, "crates/store/src/r1_unsafe.rs", RuleId::R1, 1);
    assert_only(&by_file, "crates/store/src/r2_panic.rs", RuleId::R2, 1);
    assert_only(&by_file, "crates/store/src/r3_wire.rs", RuleId::R3, 1);
    assert_only(&by_file, "crates/cluster/src/frame.rs", RuleId::R4, 1);
    assert_only(&by_file, "crates/cluster/src/r5_lock.rs", RuleId::R5, 1);
    // No finding may land outside the five fixture files.
    let expected: Vec<&str> = vec![
        "crates/cluster/src/frame.rs",
        "crates/cluster/src/r5_lock.rs",
        "crates/store/src/r1_unsafe.rs",
        "crates/store/src/r2_panic.rs",
        "crates/store/src/r3_wire.rs",
    ];
    let got: Vec<&str> = by_file.keys().map(String::as_str).collect();
    assert_eq!(got, expected);
}

#[test]
fn r4_finding_names_all_three_missing_legs() {
    let by_file = fixture_findings();
    let (rule, msg) = &by_file["crates/cluster/src/frame.rs"][0];
    assert_eq!(*rule, RuleId::R4);
    assert!(
        msg.contains("Rogue"),
        "finding should name the variant: {msg}"
    );
    assert!(msg.contains("decode arm"), "{msg}");
    assert!(msg.contains("encode use"), "{msg}");
    assert!(msg.contains("test mentioning it"), "{msg}");
}

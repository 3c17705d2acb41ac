#![forbid(unsafe_code)]
//! # locec_lint — workspace static analysis for LoCEC's production invariants
//!
//! LoCEC targets long-lived serving and cluster processes, where a stray
//! `panic!` in a coordinator thread or a drifted wire constant is an
//! outage, not a test failure. PRs 3–5 established the invariants
//! informally; this crate machine-enforces them with a self-contained
//! (std-only — no syn, no rustc) token-level analysis over every workspace
//! source file:
//!
//! * **R1 no-unsafe** — no `unsafe` anywhere; every crate root forbids it.
//! * **R2 panic-freedom** — no `unwrap`/`expect`/`panic!`/`unreachable!`/
//!   `todo!` in the typed-error crates' non-test code.
//! * **R3 wire-constant single-declaration** — magic bytes, format
//!   versions and registry enums are declared exactly once.
//! * **R4 protocol/registry exhaustiveness** — every `FrameType` and
//!   `SnapshotKind` variant has an encode use, a decode arm, and test
//!   coverage.
//! * **R5 lock-hygiene** — no `MutexGuard` live across blocking socket
//!   I/O.
//!
//! The one way to excuse a finding is a pragma in place,
//! `// locec-lint: allow(R2) — reason`, on the finding's line or the line
//! above; the justification is mandatory. Every finding a pragma does not
//! excuse fails the run. Run it as `locec lint` (human diagnostics,
//! `file:line:col: rule-id: message`) or `locec lint --json` (the CI
//! artifact).

pub mod diagnostics;
pub mod rules;
pub mod scanner;
pub mod workspace;

pub use diagnostics::{to_json, Finding, RuleId};
pub use rules::LintConfig;
pub use workspace::{load_workspace, Workspace};

use std::path::Path;

/// The result of one lint run.
pub struct LintOutcome {
    /// Every finding no justified pragma excuses, sorted by
    /// (file, line, col, rule).
    pub findings: Vec<Finding>,
    /// How many files were scanned.
    pub files_scanned: usize,
    /// Findings suppressed by a justified `locec-lint: allow` pragma.
    pub pragma_suppressed: usize,
}

impl LintOutcome {
    /// Whether the run passes: no finding survived the pragmas.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The machine-readable report.
    pub fn to_json(&self) -> String {
        to_json(&self.findings, self.files_scanned, self.pragma_suppressed)
    }
}

/// Scans `root` and runs every rule and the pragma filter.
pub fn lint(root: &Path, cfg: &LintConfig) -> std::io::Result<LintOutcome> {
    let ws = load_workspace(root)?;
    Ok(lint_workspace(&ws, cfg))
}

/// Runs the rules over an already-loaded workspace.
pub fn lint_workspace(ws: &Workspace, cfg: &LintConfig) -> LintOutcome {
    let mut findings = rules::run_all(ws, cfg);
    let pragma_suppressed = apply_pragmas(ws, &mut findings);
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    LintOutcome {
        findings,
        files_scanned: ws.files.len(),
        pragma_suppressed,
    }
}

/// Removes findings covered by a justified pragma on the same line or the
/// line above; a matching pragma *without* a justification keeps the
/// finding and says so. Returns the suppressed count.
fn apply_pragmas(ws: &Workspace, findings: &mut Vec<Finding>) -> usize {
    let before = findings.len();
    findings.retain_mut(|f| {
        let Some(file) = ws.files.iter().find(|s| s.rel == f.file) else {
            return true;
        };
        let pragma = file.scanned.pragmas.iter().find(|p| {
            (p.line == f.line || p.line + 1 == f.line)
                && p.rules.iter().any(|r| f.rule.matches_name(r))
        });
        match pragma {
            Some(p) if p.has_reason() => false,
            Some(_) => {
                f.message.push_str(
                    " (a matching pragma is present but has no justification — \
                     append `— reason`)",
                );
                true
            }
            None => true,
        }
    });
    before - findings.len()
}

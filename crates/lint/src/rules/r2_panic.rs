//! R2 — panic-freedom: the typed-error crates (store, cluster, the graph
//! delta module) promise `SnapshotError`/`ClusterError`/`DeltaError`
//! propagation, never a panic, on every fallible path. This rule forbids
//! `.unwrap()` / `.expect(…)` calls (and `Option::unwrap`-style path
//! references) plus the `panic!` / `unreachable!` / `todo!` macros in
//! their non-test code.
//!
//! The poisoned-lock idiom `lock().unwrap_or_else(|e| e.into_inner())` is
//! *not* flagged — `unwrap_or_else` is a different identifier and never
//! panics. A `lock().unwrap()` gets a message pointing at that idiom.
//! Genuinely infallible sites are annotated in place:
//! `// locec-lint: allow(R2) — why this cannot fail`.

use super::{in_scope, LintConfig};
use crate::diagnostics::{Finding, RuleId};
use crate::workspace::Workspace;

/// Method/path identifiers that panic on the failure arm.
const PANICKING_CALLS: &[&str] = &["unwrap", "expect"];

/// Macros that are always a panic.
const PANICKING_MACROS: &[&str] = &["panic", "unreachable", "todo"];

pub(super) fn run(ws: &Workspace, cfg: &LintConfig) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in &ws.files {
        if !in_scope(&file.rel, &cfg.panic_scope_prefixes) || file.is_test_file {
            continue;
        }
        let tokens = file.tokens();
        for (i, tok) in tokens.iter().enumerate() {
            if file.is_test_code(i) {
                continue;
            }
            let prev_dot = i > 0 && tokens[i - 1].is_punct('.');
            let prev_path = i > 1 && tokens[i - 1].is_punct(':') && tokens[i - 2].is_punct(':');
            let next_bang = i + 1 < tokens.len() && tokens[i + 1].is_punct('!');
            let is_call = PANICKING_CALLS.iter().any(|c| tok.is_ident(c));
            let is_macro = PANICKING_MACROS.iter().any(|m| tok.is_ident(m)) && next_bang;
            if is_call && (prev_dot || prev_path) {
                let after_lock = i >= 4
                    && tokens[i - 2].is_punct(')')
                    && tokens[i - 3].is_punct('(')
                    && tokens[i - 4].is_ident("lock");
                let hint = if after_lock {
                    " — for a poisoned lock, use `lock().unwrap_or_else(|e| e.into_inner())`"
                } else {
                    " — propagate a typed error instead, or justify with \
                     `// locec-lint: allow(R2) — reason`"
                };
                out.push(Finding {
                    rule: RuleId::R2,
                    file: file.rel.clone(),
                    line: tok.line,
                    col: tok.col,
                    message: format!("`{}` in panic-free non-test code{hint}", tok.text),
                });
            } else if is_macro {
                out.push(Finding {
                    rule: RuleId::R2,
                    file: file.rel.clone(),
                    line: tok.line,
                    col: tok.col,
                    message: format!(
                        "`{}!` in panic-free non-test code — return a typed error instead",
                        tok.text
                    ),
                });
            }
        }
    }
    out
}

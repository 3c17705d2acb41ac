//! R5 — lock-hygiene: a `MutexGuard` binding that is still live when a
//! blocking socket I/O call runs stalls every other thread contending for
//! that lock for as long as the peer cares to dawdle. In a heartbeat
//! protocol that is an outage amplifier: the worker's heartbeat thread
//! blocks on the same writer lock, the coordinator sees silence, and a
//! healthy-but-slow worker is declared dead.
//!
//! Static approximation: inside non-test code, find `let g = …lock()…;`
//! bindings and flag any call to a configured blocking I/O function
//! (`write_frame`, `write_all`, `read_exact`, …) between the binding and
//! the end of its enclosing block or an explicit `drop(g)`. Holds that
//! are genuinely required — e.g. a writer mutex that exists precisely to
//! serialize whole frames onto one socket — carry a
//! `// locec-lint: allow(R5) — reason` pragma at the I/O call.

use super::LintConfig;
use crate::diagnostics::{Finding, RuleId};
use crate::scanner::{Token, TokenKind};
use crate::workspace::Workspace;

pub(super) fn run(ws: &Workspace, cfg: &LintConfig) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in &ws.files {
        if file.is_test_file {
            continue;
        }
        let tokens = file.tokens();
        for i in 0..tokens.len() {
            if !tokens[i].is_ident("let") || file.is_test_code(i) {
                continue;
            }
            // Simple `let [mut] name = …;` bindings only.
            let mut j = i + 1;
            if j < tokens.len() && tokens[j].is_ident("mut") {
                j += 1;
            }
            if j >= tokens.len() || tokens[j].kind != TokenKind::Ident {
                continue;
            }
            let name = tokens[j].text.clone();
            let Some(stmt_end) = statement_end(tokens, j + 1) else {
                continue;
            };
            let init = &tokens[j + 1..stmt_end];
            let takes_lock = init
                .windows(3)
                .any(|w| w[0].is_punct('.') && w[1].is_ident("lock") && w[2].is_punct('('));
            if !takes_lock {
                continue;
            }
            // The guard lives from the `;` to the end of the enclosing
            // block or an explicit drop(name).
            let mut depth = 0i32;
            let mut k = stmt_end + 1;
            while k < tokens.len() {
                let t = &tokens[k];
                if t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct('}') {
                    depth -= 1;
                    if depth < 0 {
                        break;
                    }
                } else if t.is_ident("drop")
                    && k + 2 < tokens.len()
                    && tokens[k + 1].is_punct('(')
                    && tokens[k + 2].is_ident(&name)
                {
                    break;
                } else if t.kind == TokenKind::Ident
                    && cfg.blocking_io_fns.iter().any(|f| t.is_ident(f))
                    && k + 1 < tokens.len()
                    && tokens[k + 1].is_punct('(')
                {
                    out.push(Finding {
                        rule: RuleId::R5,
                        file: file.rel.clone(),
                        line: t.line,
                        col: t.col,
                        message: format!(
                            "blocking I/O call `{}` while the lock guard `{name}` (taken on \
                             line {}) is still live — drop the guard first, or justify with \
                             `// locec-lint: allow(R5) — reason`",
                            t.text, tokens[i].line
                        ),
                    });
                }
                k += 1;
            }
        }
    }
    out
}

/// The index of the `;` terminating the statement starting at `from`
/// (bracket-depth aware, so `;` inside nested blocks or closures is
/// skipped). `None` for unterminated input.
fn statement_end(tokens: &[Token], from: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in tokens.iter().enumerate().skip(from) {
        if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
            if depth < 0 {
                return None;
            }
        } else if t.is_punct(';') && depth == 0 {
            return Some(k);
        }
    }
    None
}

//! R1 — no-unsafe: the workspace contains no `unsafe` token anywhere —
//! library code, tests, benches. Its parallelism runs on
//! `std::thread::scope`, whose soundness the standard library proves, so
//! there is no soundness argument of the workspace's own to review.
//!
//! The rule is also locked in at the source: every crate root
//! (`src/lib.rs`) must carry `#![forbid(unsafe_code)]`, so a breach fails
//! `rustc` itself, not just this lint.

use crate::diagnostics::{Finding, RuleId};
use crate::workspace::Workspace;

pub(super) fn run(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in &ws.files {
        let tokens = file.tokens();
        for tok in tokens {
            if tok.is_ident("unsafe") {
                out.push(Finding {
                    rule: RuleId::R1,
                    file: file.rel.clone(),
                    line: tok.line,
                    col: tok.col,
                    message: "`unsafe` in a workspace with none — use a safe std API instead"
                        .to_owned(),
                });
            }
        }
        if is_crate_root(&file.rel) && !has_forbid_unsafe(tokens) {
            out.push(Finding {
                rule: RuleId::R1,
                file: file.rel.clone(),
                line: 1,
                col: 1,
                message: "crate root is missing `#![forbid(unsafe_code)]` — every crate \
                          must lock unsafe out at the compiler level"
                    .to_owned(),
            });
        }
    }
    out
}

/// Whether `rel` is a library crate root (`src/lib.rs` of the facade or of
/// any workspace crate).
fn is_crate_root(rel: &str) -> bool {
    rel == "src/lib.rs" || (rel.starts_with("crates/") && rel.ends_with("/src/lib.rs"))
}

/// Whether the token stream contains the inner attribute
/// `#![forbid(unsafe_code)]`.
fn has_forbid_unsafe(tokens: &[crate::scanner::Token]) -> bool {
    tokens.windows(8).any(|w| {
        w[0].is_punct('#')
            && w[1].is_punct('!')
            && w[2].is_punct('[')
            && w[3].is_ident("forbid")
            && w[4].is_punct('(')
            && w[5].is_ident("unsafe_code")
            && w[6].is_punct(')')
            && w[7].is_punct(']')
    })
}

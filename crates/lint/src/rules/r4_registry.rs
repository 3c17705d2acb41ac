//! R4 — protocol/registry exhaustiveness: every variant of a registered
//! wire enum (`FrameType`, `SnapshotKind`) must have three legs:
//!
//! * a **decode arm** — the variant appears in the body of the declaring
//!   file's decoder function (`from_u8` / `from_u32`), so an incoming
//!   byte can produce it;
//! * an **encode use** — a qualified `Enum::Variant` reference exists in
//!   non-test code somewhere in the workspace outside the decoder, so the
//!   variant can actually be written;
//! * a **test mention** — the variant name appears in test code somewhere
//!   in the workspace, so adding a frame or snapshot kind without
//!   corruption/round-trip coverage fails the build.
//!
//! The registries are cross-checked from the declaration outward, so the
//! finding lands on the variant's declaration line — the place where the
//! new variant was added without finishing the job.

use super::{LintConfig, Registry};
use crate::diagnostics::{Finding, RuleId};
use crate::scanner::Token;
use crate::workspace::{matching_brace, SourceFile, Workspace};

pub(super) fn run(ws: &Workspace, cfg: &LintConfig) -> Vec<Finding> {
    let mut out = Vec::new();
    for reg in &cfg.registries {
        let Some(decl_file) = ws.files.iter().find(|f| f.rel == reg.declaring_file) else {
            continue; // registry not part of this scan (e.g. a fixture subset)
        };
        let Some(variants) = enum_variants(decl_file.tokens(), &reg.enum_name) else {
            continue;
        };
        let decoder_spans = decoder_bodies(decl_file, reg);
        for variant in &variants {
            let mut missing = Vec::new();
            if !decoder_spans.iter().any(|&(start, end)| {
                decl_file.tokens()[start..end]
                    .iter()
                    .any(|t| t.is_ident(&variant.name))
            }) {
                missing.push(format!(
                    "a decode arm in {}::{}",
                    reg.enum_name,
                    reg.decoder_fns.join("/")
                ));
            }
            if !has_encode_use(ws, reg, &variant.name, &decoder_spans) {
                missing.push(format!(
                    "an encode use (`{}::{}` in non-test code)",
                    reg.enum_name, variant.name
                ));
            }
            if !has_test_mention(ws, &variant.name) {
                missing.push("a test mentioning it".to_owned());
            }
            if !missing.is_empty() {
                out.push(Finding {
                    rule: RuleId::R4,
                    file: decl_file.rel.clone(),
                    line: variant.line,
                    col: variant.col,
                    message: format!(
                        "registry variant `{}::{}` is missing {}",
                        reg.enum_name,
                        variant.name,
                        missing.join(", ")
                    ),
                });
            }
        }
    }
    out
}

/// One declared enum variant and where it is declared.
struct Variant {
    name: String,
    line: u32,
    col: u32,
}

/// Extracts the variants of `enum name { … }` from a token stream.
fn enum_variants(tokens: &[Token], name: &str) -> Option<Vec<Variant>> {
    let decl = (0..tokens.len().saturating_sub(1))
        .find(|&i| tokens[i].is_ident("enum") && tokens[i + 1].is_ident(name))?;
    // The body opens at the next `{` (no generics on wire enums; stop at a
    // `;` just in case).
    let mut open = decl + 2;
    while open < tokens.len() && !tokens[open].is_punct('{') {
        if tokens[open].is_punct(';') {
            return None;
        }
        open += 1;
    }
    if open >= tokens.len() {
        return None;
    }
    let end = matching_brace(tokens, open) - 1; // index of the closing `}`
    let mut variants = Vec::new();
    let mut depth = 0i32;
    let mut at_variant_position = true; // right after `{` or a top-level `,`
    let mut i = open + 1;
    while i < end {
        let t = &tokens[i];
        if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if depth == 0 {
            if t.is_punct('#') && i + 1 < end && tokens[i + 1].is_punct('[') {
                // Skip an attribute on the variant.
                let mut d = 0i32;
                i += 1;
                while i < end {
                    if tokens[i].is_punct('[') {
                        d += 1;
                    } else if tokens[i].is_punct(']') {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    i += 1;
                }
            } else if t.is_punct(',') {
                at_variant_position = true;
            } else if at_variant_position && t.kind == crate::scanner::TokenKind::Ident {
                variants.push(Variant {
                    name: t.text.clone(),
                    line: t.line,
                    col: t.col,
                });
                at_variant_position = false;
            }
        }
        i += 1;
    }
    Some(variants)
}

/// Token spans of the declaring file's decoder function bodies.
fn decoder_bodies(file: &SourceFile, reg: &Registry) -> Vec<(usize, usize)> {
    let tokens = file.tokens();
    let mut spans = Vec::new();
    for decoder in &reg.decoder_fns {
        for i in 0..tokens.len().saturating_sub(1) {
            if tokens[i].is_ident("fn") && tokens[i + 1].is_ident(decoder) {
                let mut open = i + 2;
                while open < tokens.len() && !tokens[open].is_punct('{') {
                    if tokens[open].is_punct(';') {
                        break;
                    }
                    open += 1;
                }
                if open < tokens.len() && tokens[open].is_punct('{') {
                    spans.push((open, matching_brace(tokens, open)));
                }
            }
        }
    }
    spans
}

/// Whether `Enum::Variant` appears in non-test code outside the decoder.
fn has_encode_use(
    ws: &Workspace,
    reg: &Registry,
    variant: &str,
    decoder_spans: &[(usize, usize)],
) -> bool {
    for file in &ws.files {
        let tokens = file.tokens();
        for i in 0..tokens.len().saturating_sub(3) {
            if tokens[i].is_ident(&reg.enum_name)
                && tokens[i + 1].is_punct(':')
                && tokens[i + 2].is_punct(':')
                && tokens[i + 3].is_ident(variant)
                && !file.is_test_code(i)
                && !(file.rel == reg.declaring_file
                    && decoder_spans
                        .iter()
                        .any(|&(start, end)| i >= start && i < end))
            {
                return true;
            }
        }
    }
    false
}

/// Whether the bare variant name appears anywhere in test code.
fn has_test_mention(ws: &Workspace, variant: &str) -> bool {
    for file in &ws.files {
        for (i, tok) in file.tokens().iter().enumerate() {
            if tok.is_ident(variant) && file.is_test_code(i) {
                return true;
            }
        }
    }
    false
}

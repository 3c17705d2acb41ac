//! R3 — wire-constant single-declaration: the bytes of the snapshot and
//! frame formats are declared in exactly one module each. A magic byte
//! literal, a `const MAGIC`/`FORMAT_VERSION`-style declaration, or a
//! registry `enum` appearing anywhere else is format drift waiting to
//! happen: the copies start equal and diverge silently on the next
//! format revision. Everyone else imports the declaring module's
//! constants.
//!
//! Three checks, all token-level (comments and doc diagrams are exempt by
//! construction — the scanner never tokenizes them):
//!
//! 1. A string/byte-string literal whose content equals a registered magic
//!    sequence, outside its declaring file.
//! 2. A `const NAME` declaration for a registered wire constant name,
//!    outside its declaring file.
//! 3. An `enum NAME` declaration for a registered registry enum, outside
//!    its declaring file.

use super::LintConfig;
use crate::diagnostics::{Finding, RuleId};
use crate::scanner::TokenKind;
use crate::workspace::Workspace;

pub(super) fn run(ws: &Workspace, cfg: &LintConfig) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in &ws.files {
        let tokens = file.tokens();
        for (i, tok) in tokens.iter().enumerate() {
            // Check 1: duplicated magic literal.
            if matches!(tok.kind, TokenKind::Str | TokenKind::ByteStr) {
                for magic in &cfg.magic_literals {
                    if tok.text == magic.content && file.rel != magic.declaring_file {
                        out.push(Finding {
                            rule: RuleId::R3,
                            file: file.rel.clone(),
                            line: tok.line,
                            col: tok.col,
                            message: format!(
                                "magic byte literal \"{}\" duplicated outside its declaring \
                                 module {} — import the declared constant instead",
                                magic.content, magic.declaring_file
                            ),
                        });
                    }
                }
            }
            // Check 2: re-declared wire constant.
            if tok.is_ident("const") && i + 1 < tokens.len() {
                let name = &tokens[i + 1];
                for wc in &cfg.wire_consts {
                    if name.is_ident(&wc.name) && file.rel != wc.declaring_file {
                        out.push(Finding {
                            rule: RuleId::R3,
                            file: file.rel.clone(),
                            line: name.line,
                            col: name.col,
                            message: format!(
                                "wire constant `{}` re-declared outside its declaring module \
                                 {} — import it instead",
                                wc.name, wc.declaring_file
                            ),
                        });
                    }
                }
            }
            // Check 3: re-declared registry enum.
            if tok.is_ident("enum") && i + 1 < tokens.len() {
                let name = &tokens[i + 1];
                for reg in &cfg.registries {
                    if name.is_ident(&reg.enum_name) && file.rel != reg.declaring_file {
                        out.push(Finding {
                            rule: RuleId::R3,
                            file: file.rel.clone(),
                            line: name.line,
                            col: name.col,
                            message: format!(
                                "registry enum `{}` re-declared outside its declaring module \
                                 {} — there must be exactly one",
                                reg.enum_name, reg.declaring_file
                            ),
                        });
                    }
                }
            }
        }
    }
    out
}

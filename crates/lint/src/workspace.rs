//! Workspace discovery: which files to scan, and which parts of each file
//! are test code.
//!
//! The walk covers every `.rs` file under the workspace root except
//! `target/` (build output), `vendor/` (offline stand-ins for external
//! crates — their code is not this workspace's to police), `.git/`, and
//! any `fixtures/` directory (the lint crate's own corpus of deliberately
//! bad files).
//!
//! Test code is identified two ways, both of which rules can consult:
//! a file is *test-only* when it lives under a `tests/` or `benches/`
//! directory, and within library files the body of every
//! `#[cfg(test)] mod … { … }` is recorded as a token span. The panic
//! rule (R2) and the lock rule (R5) skip test code; the no-unsafe and
//! wire rules (R1, R3) deliberately do not — an `unsafe` block or a
//! duplicated magic literal is drift wherever it appears.

use crate::scanner::{scan, Scanned, Token};
use std::path::{Path, PathBuf};

/// One scanned source file.
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel: String,
    /// Whether the whole file is test/bench code (under `tests/` or
    /// `benches/`).
    pub is_test_file: bool,
    /// Tokens and pragmas.
    pub scanned: Scanned,
    /// Half-open token-index ranges covering `#[cfg(test)]` module bodies.
    pub test_spans: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Builds a source file record from file text.
    pub fn from_source(rel: String, src: &str) -> Self {
        let is_test_file = rel
            .split('/')
            .any(|part| part == "tests" || part == "benches");
        let scanned = scan(src);
        let test_spans = find_test_spans(&scanned.tokens);
        SourceFile {
            rel,
            is_test_file,
            scanned,
            test_spans,
        }
    }

    /// Whether the token at `idx` is test code (test file or inside a
    /// `#[cfg(test)]` module).
    pub fn is_test_code(&self, idx: usize) -> bool {
        self.is_test_file
            || self
                .test_spans
                .iter()
                .any(|&(start, end)| idx >= start && idx < end)
    }

    /// The tokens of this file.
    pub fn tokens(&self) -> &[Token] {
        &self.scanned.tokens
    }
}

/// Every scanned file of one workspace.
pub struct Workspace {
    /// The root the walk started from.
    pub root: PathBuf,
    /// Scanned files, sorted by relative path for deterministic output.
    pub files: Vec<SourceFile>,
}

/// Directory names the walk never descends into.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures"];

/// Walks `root` and scans every eligible `.rs` file.
pub fn load_workspace(root: &Path) -> std::io::Result<Workspace> {
    let mut paths = Vec::new();
    collect_rs_files(root, root, &mut paths)?;
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for (abs, rel) in paths {
        let src = std::fs::read_to_string(&abs)?;
        files.push(SourceFile::from_source(rel, &src));
    }
    Ok(Workspace {
        root: root.to_path_buf(),
        files,
    })
}

fn collect_rs_files(
    root: &Path,
    dir: &Path,
    out: &mut Vec<(PathBuf, String)>,
) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push((path, rel));
        }
    }
    Ok(())
}

/// Finds the token spans of `#[cfg(test)]`-gated items.
///
/// Matches the attribute token sequence `# [ cfg ( test ) ]`, skips any
/// further attributes, then records the span of the next `{ … }` body
/// (typically `mod tests { … }`, but a gated `fn`/`impl` works the same
/// way). A gated item with no body (`mod tests;`) contributes no span.
fn find_test_spans(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i + 6 < tokens.len() {
        let is_cfg_test = tokens[i].is_punct('#')
            && tokens[i + 1].is_punct('[')
            && tokens[i + 2].is_ident("cfg")
            && tokens[i + 3].is_punct('(')
            && tokens[i + 4].is_ident("test")
            && tokens[i + 5].is_punct(')')
            && tokens[i + 6].is_punct(']');
        if !is_cfg_test {
            i += 1;
            continue;
        }
        let mut j = i + 7;
        // Skip any further `#[…]` attributes between cfg(test) and the item.
        while j + 1 < tokens.len() && tokens[j].is_punct('#') && tokens[j + 1].is_punct('[') {
            let mut depth = 0i32;
            j += 1;
            while j < tokens.len() {
                if tokens[j].is_punct('[') {
                    depth += 1;
                } else if tokens[j].is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        // Find the item's opening brace, stopping at `;` (bodyless item).
        let mut body_start = None;
        while j < tokens.len() {
            if tokens[j].is_punct('{') {
                body_start = Some(j);
                break;
            }
            if tokens[j].is_punct(';') {
                break;
            }
            j += 1;
        }
        if let Some(start) = body_start {
            let end = matching_brace(tokens, start);
            spans.push((start, end));
            i = end;
        } else {
            i = j.max(i + 1);
        }
    }
    spans
}

/// The index one past the `}` matching the `{` at `open` (or `tokens.len()`
/// if unbalanced).
pub fn matching_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < tokens.len() {
        if tokens[i].is_punct('{') {
            depth += 1;
        } else if tokens[i].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    tokens.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_module_bodies_are_test_spans() {
        let src = r#"
            fn live() { x.unwrap(); }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { y.unwrap(); }
            }
            fn live_again() {}
        "#;
        let f = SourceFile::from_source("crates/x/src/lib.rs".into(), src);
        assert_eq!(f.test_spans.len(), 1);
        let unwraps: Vec<usize> = f
            .tokens()
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident("unwrap"))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(unwraps.len(), 2);
        assert!(!f.is_test_code(unwraps[0]));
        assert!(f.is_test_code(unwraps[1]));
        let live_again = f
            .tokens()
            .iter()
            .position(|t| t.is_ident("live_again"))
            .unwrap();
        assert!(!f.is_test_code(live_again));
    }

    #[test]
    fn tests_dir_files_are_all_test_code() {
        let f = SourceFile::from_source("crates/x/tests/it.rs".into(), "fn a() {}");
        assert!(f.is_test_file);
        assert!(f.is_test_code(0));
    }

    #[test]
    fn extra_attributes_between_cfg_and_item_are_skipped() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod t { fn f() {} }";
        let f = SourceFile::from_source("src/lib.rs".into(), src);
        assert_eq!(f.test_spans.len(), 1);
    }
}

//! A comment/string/raw-string-aware Rust token scanner.
//!
//! The rules in this crate reason about *tokens*, never raw text: the word
//! `unsafe` inside a doc comment, a `panic!` quoted in a string literal, or
//! a magic byte sequence mentioned in a format diagram must never trigger a
//! finding. This scanner produces exactly the token stream the rules need
//! (identifiers, literals, single-character punctuation, all with 1-based
//! line/column positions) and nothing more — it does not parse Rust, it
//! only classifies bytes correctly.
//!
//! Handled lexical forms: line comments (`//`, `///`, `//!`), *nested*
//! block comments (`/* /* */ */`, doc variants included), string literals
//! with escapes, byte strings (`b"…"`), raw strings and raw byte strings
//! with any hash depth (`r"…"`, `r#"…"#`, `br##"…"##`), character and byte
//! character literals (`'a'`, `b'\n'`, `'\u{1F600}'`), lifetimes (`'a`,
//! disambiguated from char literals), raw identifiers (`r#type`), and
//! numeric literals including hex/underscore/float/exponent forms.
//!
//! Line comments are additionally searched for suppression pragmas of the
//! form `locec-lint: allow(R2, R5) — justification` (see [`Pragma`]).

/// What a token is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`unsafe`, `unwrap`, `FrameType`, …).
    Ident,
    /// A numeric literal (`1`, `0xEDB8_8320`, `1.5e-3`).
    Number,
    /// A string or raw-string literal; `text` is the content between the
    /// quotes, escapes unprocessed.
    Str,
    /// A byte string or raw byte string; `text` is the content between the
    /// quotes.
    ByteStr,
    /// A character or byte-character literal; `text` is the content
    /// between the quotes.
    Char,
    /// A lifetime (`'a`); `text` is the name without the quote.
    Lifetime,
    /// A single punctuation character; `text` is that character.
    Punct,
}

/// One scanned token with its 1-based source position.
#[derive(Clone, Debug)]
pub struct Token {
    /// Classification.
    pub kind: TokenKind,
    /// Token text (see the per-kind docs on [`TokenKind`]).
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// 1-based column (in characters) of the token's first character.
    pub col: u32,
}

impl Token {
    /// Whether this token is the given punctuation character.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }

    /// Whether this token is the given identifier.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }
}

/// A `locec-lint: allow(…)` suppression pragma found in a line comment.
///
/// Syntax: `// locec-lint: allow(R2) — reason` (multiple rules:
/// `allow(R2, R5)`). The justification after the rule list is mandatory —
/// a pragma without one does not suppress anything, it only changes the
/// diagnostic to say the justification is missing. A pragma suppresses
/// findings on its own line and on the line directly below it, so it can
/// share the offending line or sit on its own line above.
#[derive(Clone, Debug)]
pub struct Pragma {
    /// 1-based line the pragma comment is on.
    pub line: u32,
    /// Rule ids (`R2`) or slugs (`panic-freedom`) listed in `allow(…)`.
    pub rules: Vec<String>,
    /// The justification text after the rule list (may be empty — see
    /// [`Pragma::has_reason`]).
    pub reason: String,
}

impl Pragma {
    /// Whether the pragma carries a non-empty justification.
    pub fn has_reason(&self) -> bool {
        self.reason.chars().any(|c| c.is_alphanumeric())
    }
}

/// The output of scanning one source file.
#[derive(Debug, Default)]
pub struct Scanned {
    /// Every token, in source order.
    pub tokens: Vec<Token>,
    /// Every suppression pragma, in source order.
    pub pragmas: Vec<Pragma>,
}

/// Character cursor with 1-based line/column tracking.
struct Cursor<'a> {
    chars: std::str::Chars<'a>,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Self {
        Cursor {
            chars: src.chars(),
            line: 1,
            col: 1,
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.clone().next()
    }

    fn peek2(&self) -> Option<char> {
        let mut it = self.chars.clone();
        it.next();
        it.next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.next()?;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Scans one source file into tokens and pragmas.
pub fn scan(src: &str) -> Scanned {
    let mut cur = Cursor::new(src);
    let mut out = Scanned::default();

    while let Some(c) = cur.peek() {
        let (line, col) = (cur.line, cur.col);
        match c {
            c if c.is_whitespace() => {
                cur.bump();
            }
            '/' if cur.peek2() == Some('/') => {
                let text = consume_line_comment(&mut cur);
                if let Some(pragma) = parse_pragma(&text, line) {
                    out.pragmas.push(pragma);
                }
            }
            '/' if cur.peek2() == Some('*') => consume_block_comment(&mut cur),
            '"' => {
                let text = consume_string(&mut cur);
                out.tokens.push(Token {
                    kind: TokenKind::Str,
                    text,
                    line,
                    col,
                });
            }
            '\'' => scan_quote(&mut cur, &mut out, line, col, false),
            c if is_ident_start(c) => scan_ident_or_prefixed(&mut cur, &mut out, line, col),
            c if c.is_ascii_digit() => {
                let text = consume_number(&mut cur);
                out.tokens.push(Token {
                    kind: TokenKind::Number,
                    text,
                    line,
                    col,
                });
            }
            c => {
                cur.bump();
                out.tokens.push(Token {
                    kind: TokenKind::Punct,
                    text: c.to_string(),
                    line,
                    col,
                });
            }
        }
    }
    out
}

/// Consumes `//…` to end of line, returning the comment text after `//`.
fn consume_line_comment(cur: &mut Cursor<'_>) -> String {
    cur.bump();
    cur.bump();
    let mut text = String::new();
    while let Some(c) = cur.peek() {
        if c == '\n' {
            break;
        }
        text.push(c);
        cur.bump();
    }
    text
}

/// Consumes a (possibly nested) `/* … */` block comment.
fn consume_block_comment(cur: &mut Cursor<'_>) {
    cur.bump();
    cur.bump();
    let mut depth = 1u32;
    while depth > 0 {
        match (cur.peek(), cur.peek2()) {
            (Some('/'), Some('*')) => {
                cur.bump();
                cur.bump();
                depth += 1;
            }
            (Some('*'), Some('/')) => {
                cur.bump();
                cur.bump();
                depth -= 1;
            }
            (Some(_), _) => {
                cur.bump();
            }
            (None, _) => break, // unterminated: end of file ends the comment
        }
    }
}

/// Consumes `"…"` with backslash escapes; returns the inner text.
fn consume_string(cur: &mut Cursor<'_>) -> String {
    cur.bump(); // opening quote
    let mut text = String::new();
    while let Some(c) = cur.bump() {
        match c {
            '"' => break,
            '\\' => {
                text.push(c);
                if let Some(esc) = cur.bump() {
                    text.push(esc);
                }
            }
            _ => text.push(c),
        }
    }
    text
}

/// Consumes `r"…"` / `r#"…"#` / `br##"…"##` bodies after the `r`/`br`
/// prefix ident has already been consumed; returns the inner text.
fn consume_raw_string(cur: &mut Cursor<'_>) -> String {
    let mut hashes = 0usize;
    while cur.peek() == Some('#') {
        hashes += 1;
        cur.bump();
    }
    cur.bump(); // opening quote
    let mut text = String::new();
    'outer: while let Some(c) = cur.bump() {
        if c == '"' {
            // A quote closes only when followed by `hashes` hash marks.
            let mut it = cur.chars.clone();
            for _ in 0..hashes {
                if it.next() != Some('#') {
                    text.push(c);
                    continue 'outer;
                }
            }
            for _ in 0..hashes {
                cur.bump();
            }
            break;
        }
        text.push(c);
    }
    text
}

/// Consumes the body of a char literal after the opening quote; returns
/// the inner text.
fn consume_char_body(cur: &mut Cursor<'_>) -> String {
    let mut text = String::new();
    while let Some(c) = cur.bump() {
        match c {
            '\'' => break,
            '\\' => {
                text.push(c);
                if let Some(esc) = cur.bump() {
                    text.push(esc);
                }
            }
            _ => text.push(c),
        }
    }
    text
}

/// Disambiguates `'a` (lifetime) from `'a'` (char literal) at a `'`.
///
/// After the quote: an identifier character NOT terminated by a closing
/// quote is a lifetime (`'static`, `'a`). Everything else — escapes,
/// punctuation, an identifier char followed by `'` — is a char literal.
fn scan_quote(cur: &mut Cursor<'_>, out: &mut Scanned, line: u32, col: u32, byte: bool) {
    cur.bump(); // the quote
    let is_lifetime = match (cur.peek(), cur.peek2()) {
        (Some(c), Some(c2)) if is_ident_start(c) => c2 != '\'',
        (Some(c), None) if is_ident_start(c) => true,
        _ => false,
    };
    if is_lifetime && !byte {
        let mut name = String::new();
        while let Some(c) = cur.peek() {
            if !is_ident_continue(c) {
                break;
            }
            name.push(c);
            cur.bump();
        }
        out.tokens.push(Token {
            kind: TokenKind::Lifetime,
            text: name,
            line,
            col,
        });
    } else {
        let text = consume_char_body(cur);
        out.tokens.push(Token {
            kind: TokenKind::Char,
            text,
            line,
            col,
        });
    }
}

/// Scans an identifier, dispatching the `r`/`b`/`br` literal prefixes and
/// raw identifiers.
fn scan_ident_or_prefixed(cur: &mut Cursor<'_>, out: &mut Scanned, line: u32, col: u32) {
    let mut ident = String::new();
    while let Some(c) = cur.peek() {
        if !is_ident_continue(c) {
            break;
        }
        ident.push(c);
        cur.bump();
    }
    match (ident.as_str(), cur.peek()) {
        ("r" | "br", Some('"')) | ("r" | "br", Some('#')) => {
            // `r#ident` is a raw identifier, not a raw string: exactly one
            // hash followed by an identifier character.
            if ident == "r" && cur.peek() == Some('#') && cur.peek2().is_some_and(is_ident_start) {
                cur.bump(); // the hash
                let mut name = String::new();
                while let Some(c) = cur.peek() {
                    if !is_ident_continue(c) {
                        break;
                    }
                    name.push(c);
                    cur.bump();
                }
                out.tokens.push(Token {
                    kind: TokenKind::Ident,
                    text: name,
                    line,
                    col,
                });
                return;
            }
            let text = consume_raw_string(cur);
            let kind = if ident == "br" {
                TokenKind::ByteStr
            } else {
                TokenKind::Str
            };
            out.tokens.push(Token {
                kind,
                text,
                line,
                col,
            });
        }
        ("b", Some('"')) => {
            let text = consume_string(cur);
            out.tokens.push(Token {
                kind: TokenKind::ByteStr,
                text,
                line,
                col,
            });
        }
        ("b", Some('\'')) => scan_quote(cur, out, line, col, true),
        _ => out.tokens.push(Token {
            kind: TokenKind::Ident,
            text: ident,
            line,
            col,
        }),
    }
}

/// Consumes a numeric literal: integer/hex/octal/binary with underscores
/// and suffixes, decimal fractions, and exponents. Range punctuation
/// (`0..n`) is left alone.
fn consume_number(cur: &mut Cursor<'_>) -> String {
    let mut text = String::new();
    while let Some(c) = cur.peek() {
        // Digits, letters (suffixes, hex) and `_`; a `.` before a digit;
        // an exponent's sign after a decimal `e`.
        let part_of_number = c.is_ascii_alphanumeric()
            || c == '_'
            || (c == '.' && cur.peek2().is_some_and(|c2| c2.is_ascii_digit()))
            || ((c == '+' || c == '-')
                && matches!(text.chars().last(), Some('e') | Some('E'))
                && !text.starts_with("0x")
                && !text.starts_with("0X"));
        if !part_of_number {
            break;
        }
        text.push(c);
        cur.bump();
    }
    text
}

/// Parses a `locec-lint: allow(…)` pragma out of a line comment's text.
fn parse_pragma(comment: &str, line: u32) -> Option<Pragma> {
    let rest = comment.split("locec-lint:").nth(1)?;
    let rest = rest.trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let close = rest.find(')')?;
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_owned())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        return None;
    }
    let reason = rest[close + 1..]
        .trim_start_matches(|c: char| c.is_whitespace() || c == '—' || c == '-' || c == ':')
        .trim()
        .to_owned();
    Some(Pragma {
        line,
        rules,
        reason,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        scan(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_and_strings_hide_their_contents() {
        let src = r###"
            // unsafe unwrap panic! in a line comment
            /// unsafe in a doc comment
            /* unsafe /* nested unsafe */ still a comment */
            let a = "unsafe \" unwrap";
            let b = r#"unsafe " raw"#;
            let c = b"unsafe bytes";
            let d = br##"unsafe raw bytes "# fake close"##;
            let e = 'u';
        "###;
        let found = idents(src);
        assert!(!found.contains(&"unsafe".to_owned()), "{found:?}");
        assert!(!found.contains(&"unwrap".to_owned()), "{found:?}");
        assert_eq!(found.iter().filter(|t| *t == "let").count(), 5);
    }

    #[test]
    fn real_tokens_survive() {
        let src = "unsafe { ptr.unwrap() } // trailing";
        let found = idents(src);
        assert_eq!(found, ["unsafe", "ptr", "unwrap"]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'static str { 'x'; '\\n'; x }";
        let s = scan(src);
        let lifetimes: Vec<&str> = s
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lifetimes, ["a", "a", "static"]);
        let chars: Vec<&str> = s
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Char)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(chars, ["x", "\\n"]);
    }

    #[test]
    fn raw_identifiers_are_identifiers() {
        assert_eq!(idents("let r#type = 1;"), ["let", "type"]);
    }

    #[test]
    fn numbers_including_hex_and_floats() {
        let s = scan("0xEDB8_8320 1.5 2e-3 0..8");
        let nums: Vec<&str> = s
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Number)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(nums, ["0xEDB8_8320", "1.5", "2e-3", "0", "8"]);
    }

    #[test]
    fn positions_are_one_based() {
        let s = scan("a\n  bb");
        assert_eq!((s.tokens[0].line, s.tokens[0].col), (1, 1));
        assert_eq!((s.tokens[1].line, s.tokens[1].col), (2, 3));
    }

    #[test]
    fn pragmas_parse_with_rules_and_reason() {
        let s = scan("x(); // locec-lint: allow(R2, R5) — held for frame ordering\n");
        assert_eq!(s.pragmas.len(), 1);
        let p = &s.pragmas[0];
        assert_eq!(p.line, 1);
        assert_eq!(p.rules, ["R2", "R5"]);
        assert!(p.has_reason());
        assert!(p.reason.contains("frame ordering"));
    }

    #[test]
    fn pragma_without_reason_is_detected() {
        let s = scan("// locec-lint: allow(R1)\n");
        assert_eq!(s.pragmas.len(), 1);
        assert!(!s.pragmas[0].has_reason());
    }

    #[test]
    fn magic_in_byte_string_is_a_literal_not_idents() {
        let s = scan(r#"pub const MAGIC: [u8; 8] = *b"LOCECSNP";"#);
        let lit: Vec<&str> = s
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::ByteStr)
            .map(|t| t.text.as_str())
            .collect();
        // locec-lint: allow(R3) — asserts the scanner's handling of this exact byte string; not a format declaration.
        assert_eq!(lit, ["LOCECSNP"]);
    }
}

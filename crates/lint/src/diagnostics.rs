//! Findings, rule identities, and the two output formats.

use std::fmt;

/// The five rules. Every finding carries exactly one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// No `unsafe` token anywhere; every crate root forbids it.
    R1,
    /// No `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!` in the
    /// typed-error crates' non-test code.
    R2,
    /// Wire-format magic literals and registries declared exactly once.
    R3,
    /// Every wire enum variant has encode + decode + test coverage.
    R4,
    /// No `MutexGuard` held across blocking socket I/O.
    R5,
}

impl RuleId {
    /// The short id used in diagnostics and pragmas (`R2`).
    pub fn id(self) -> &'static str {
        match self {
            RuleId::R1 => "R1",
            RuleId::R2 => "R2",
            RuleId::R3 => "R3",
            RuleId::R4 => "R4",
            RuleId::R5 => "R5",
        }
    }

    /// The human slug, also accepted in pragmas.
    pub fn slug(self) -> &'static str {
        match self {
            RuleId::R1 => "no-unsafe",
            RuleId::R2 => "panic-freedom",
            RuleId::R3 => "wire-constant-single-declaration",
            RuleId::R4 => "protocol-exhaustiveness",
            RuleId::R5 => "lock-hygiene",
        }
    }

    /// Whether a pragma rule name (`R2` or `panic-freedom`) names this rule.
    pub fn matches_name(self, name: &str) -> bool {
        name.eq_ignore_ascii_case(self.id()) || name.eq_ignore_ascii_case(self.slug())
    }

    /// All rules, in id order.
    pub fn all() -> [RuleId; 5] {
        [RuleId::R1, RuleId::R2, RuleId::R3, RuleId::R4, RuleId::R5]
    }
}

/// One rule violation at one source position.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Which rule fired.
    pub rule: RuleId,
    /// Workspace-relative `/`-separated path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What is wrong and what to do about it.
    pub message: String,
}

impl fmt::Display for Finding {
    /// The rustc-style line: `file:line:col: rule-id: message`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}/{}: {}",
            self.file,
            self.line,
            self.col,
            self.rule.id(),
            self.rule.slug(),
            self.message
        )
    }
}

/// Escapes a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serializes a lint run as a single JSON object — the machine output CI
/// archives. Violations appear in diagnostic order.
pub fn to_json(findings: &[Finding], files_scanned: usize, pragma_suppressed: usize) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"files_scanned\": {files_scanned},\n"));
    out.push_str(&format!("  \"pragma_suppressed\": {pragma_suppressed},\n"));
    out.push_str("  \"violations\": [\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rule\": \"{}\", \"slug\": \"{}\", \"file\": \"{}\", \"line\": {}, \
             \"col\": {}, \"message\": \"{}\"}}{}\n",
            f.rule.id(),
            f.rule.slug(),
            json_escape(&f.file),
            f.line,
            f.col,
            json_escape(&f.message),
            if i + 1 < findings.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_rustc_style() {
        let f = Finding {
            rule: RuleId::R2,
            file: "crates/store/src/format.rs".into(),
            line: 12,
            col: 9,
            message: "`.unwrap()` in non-test code".into(),
        };
        assert_eq!(
            f.to_string(),
            "crates/store/src/format.rs:12:9: R2/panic-freedom: `.unwrap()` in non-test code"
        );
    }

    #[test]
    fn json_escapes_and_counts() {
        let f = Finding {
            rule: RuleId::R3,
            file: "a\"b.rs".into(),
            line: 1,
            col: 2,
            message: "quote \" and\nnewline".into(),
        };
        let json = to_json(&[f], 3, 1);
        assert!(json.contains("\\\"b.rs"));
        assert!(json.contains("\\n"));
        assert!(json.contains("\"files_scanned\": 3"));
        assert!(json.contains("\"pragma_suppressed\": 1"));
    }

    #[test]
    fn pragma_names_match_id_and_slug() {
        assert!(RuleId::R2.matches_name("R2"));
        assert!(RuleId::R2.matches_name("r2"));
        assert!(RuleId::R2.matches_name("panic-freedom"));
        assert!(!RuleId::R2.matches_name("R1"));
    }
}

//! The rule engine: configuration and dispatch for R1–R5.
//!
//! [`LintConfig::locec_defaults`] encodes this workspace's invariants —
//! which crates must be panic-free, where each wire constant and registry
//! enum is declared. R1 (no `unsafe` anywhere) needs no config. The engine
//! itself is generic: the fixture tests run the same rules over a
//! miniature fake workspace with the same config.

use crate::diagnostics::Finding;
use crate::workspace::Workspace;

mod r1_unsafe;
mod r2_panic;
mod r3_wire;
mod r4_registry;
mod r5_lock;

/// A byte/string literal that must appear in exactly one declaring module.
#[derive(Clone, Debug)]
pub struct MagicLiteral {
    /// The literal's content (between the quotes).
    pub content: String,
    /// The only file allowed to spell it out.
    pub declaring_file: String,
}

/// A wire constant whose `const` declaration must be unique.
#[derive(Clone, Debug)]
pub struct WireConst {
    /// The constant's name (`MAGIC`, `FORMAT_VERSION`, …).
    pub name: String,
    /// The only file allowed to declare it.
    pub declaring_file: String,
}

/// A wire registry enum checked for single declaration (R3) and
/// encode/decode/test exhaustiveness (R4).
#[derive(Clone, Debug)]
pub struct Registry {
    /// The enum's name (`FrameType`, `SnapshotKind`).
    pub enum_name: String,
    /// The file declaring it.
    pub declaring_file: String,
    /// Decoder functions in the declaring file whose body must mention
    /// every variant (`from_u8`, `from_u32`).
    pub decoder_fns: Vec<String>,
}

/// Everything the rules need to know about the workspace's invariants.
#[derive(Clone, Debug)]
pub struct LintConfig {
    /// Path prefixes whose non-test code must be panic-free (R2).
    pub panic_scope_prefixes: Vec<String>,
    /// Single-declaration magic literals (R3).
    pub magic_literals: Vec<MagicLiteral>,
    /// Single-declaration wire constants (R3).
    pub wire_consts: Vec<WireConst>,
    /// Wire registries (R3 single declaration + R4 exhaustiveness).
    pub registries: Vec<Registry>,
    /// Function names R5 treats as blocking I/O when called with a
    /// `MutexGuard` binding still live.
    pub blocking_io_fns: Vec<String>,
}

impl LintConfig {
    /// The invariants of this repository.
    pub fn locec_defaults() -> Self {
        let s = |v: &[&str]| v.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
        LintConfig {
            panic_scope_prefixes: s(&[
                "crates/store/src/",
                "crates/cluster/src/",
                "crates/serve/src/",
                "crates/obs/src/",
                "crates/graph/src/delta.rs",
                "crates/ml/src/kernel/",
                "crates/ml/src/nn/",
            ]),
            magic_literals: vec![
                MagicLiteral {
                    // locec-lint: allow(R3) — the lint's registry of magics must spell them out; this is the check, not a copy.
                    content: "LOCECSNP".into(),
                    declaring_file: "crates/store/src/format.rs".into(),
                },
                MagicLiteral {
                    // locec-lint: allow(R3) — the lint's registry of magics must spell them out; this is the check, not a copy.
                    content: "LCF1".into(),
                    declaring_file: "crates/cluster/src/frame.rs".into(),
                },
            ],
            wire_consts: vec![
                WireConst {
                    name: "MAGIC".into(),
                    declaring_file: "crates/store/src/format.rs".into(),
                },
                WireConst {
                    name: "FORMAT_VERSION".into(),
                    declaring_file: "crates/store/src/format.rs".into(),
                },
                WireConst {
                    name: "FRAME_MAGIC".into(),
                    declaring_file: "crates/cluster/src/frame.rs".into(),
                },
                WireConst {
                    name: "PROTOCOL_VERSION".into(),
                    declaring_file: "crates/cluster/src/protocol.rs".into(),
                },
                WireConst {
                    name: "AUTH_NONE".into(),
                    declaring_file: "crates/cluster/src/protocol.rs".into(),
                },
                WireConst {
                    name: "AUTH_KEYED".into(),
                    declaring_file: "crates/cluster/src/protocol.rs".into(),
                },
                WireConst {
                    name: "SERVE_PROTOCOL_VERSION".into(),
                    declaring_file: "crates/serve/src/protocol.rs".into(),
                },
                WireConst {
                    name: "REPORT_SCHEMA_VERSION".into(),
                    declaring_file: "crates/obs/src/report.rs".into(),
                },
            ],
            registries: vec![
                Registry {
                    enum_name: "FrameType".into(),
                    declaring_file: "crates/cluster/src/frame.rs".into(),
                    decoder_fns: s(&["from_u8"]),
                },
                Registry {
                    enum_name: "SnapshotKind".into(),
                    declaring_file: "crates/store/src/format.rs".into(),
                    decoder_fns: s(&["from_u32"]),
                },
            ],
            blocking_io_fns: s(&[
                "write_frame",
                "read_frame",
                "read_header",
                "read_payload",
                "write_all",
                "read_exact",
                "read_to_end",
                "flush",
                "accept",
                "connect",
            ]),
        }
    }
}

/// Runs every rule over the workspace. Findings are unsorted and
/// un-suppressed; the caller applies pragmas and ordering.
pub fn run_all(ws: &Workspace, cfg: &LintConfig) -> Vec<Finding> {
    let mut findings = Vec::new();
    findings.extend(r1_unsafe::run(ws));
    findings.extend(r2_panic::run(ws, cfg));
    findings.extend(r3_wire::run(ws, cfg));
    findings.extend(r4_registry::run(ws, cfg));
    findings.extend(r5_lock::run(ws, cfg));
    findings
}

/// Whether a relative path falls under any of the given prefixes.
pub(crate) fn in_scope(rel: &str, prefixes: &[String]) -> bool {
    prefixes.iter().any(|p| rel.starts_with(p.as_str()))
}

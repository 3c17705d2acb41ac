//! `locec inspect`, `locec lint` and `locec report-check`: verbs that read
//! an artifact — a snapshot, the source tree, a run report — and judge it.

use super::{Args, CliError, Positional, RunReport, Verb};
use locec::core::phase2::CommunityClassifier;
use locec::lint::LintConfig;
use locec::store::{
    load_aggregation, load_community_model, load_division, load_division_checkpoint,
    load_division_delta, load_edge_model, load_labels, load_shard, load_world_delta, Snapshot,
    SnapshotKind, StoredWorld,
};
use locec::synth::types::RelationType;
use std::path::{Path, PathBuf};

pub const INSPECT: Verb = Verb {
    positional: Positional::Files,
    ..Verb::new("inspect", inspect)
};

pub const LINT: Verb = Verb {
    flags: "root",
    switches: "json",
    ..Verb::new("lint", lint)
};

pub const REPORT_CHECK: Verb = Verb {
    flags: "require",
    positional: Positional::Files,
    ..Verb::new("report-check", report_check)
};

/// `locec inspect`: each snapshot's header, sections and contents.
fn inspect(p: &Args, _: &mut RunReport) -> Result<(), CliError> {
    if p.positional.is_empty() {
        return Err("inspect needs at least one snapshot file".into());
    }
    for file in &p.positional {
        let path = Path::new(file);
        let snap = Snapshot::read_from(path).map_err(|e| format!("{file}: {e}"))?;
        let size = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        println!(
            "{file}: {} snapshot, format v{}, {} bytes",
            snap.kind().name(),
            snap.version(),
            size
        );
        for (name, len) in snap.section_summaries() {
            println!("  section {name:<16} {len:>12} bytes");
        }
        match snap.kind() {
            SnapshotKind::World => {
                let world = StoredWorld::load(path)?;
                println!(
                    "  {} nodes, {} edges, {} labeled edges ({} train / {} test)",
                    world.graph.num_nodes(),
                    world.graph.num_edges(),
                    world.labeled_edges.len(),
                    world.train_edges.len(),
                    world.test_edges.len()
                );
            }
            SnapshotKind::Division => {
                let d = load_division(path)?;
                println!(
                    "  {} communities, membership table over {} adjacency slots",
                    d.num_communities(),
                    d.membership_table().len()
                );
            }
            SnapshotKind::DivisionShard => {
                let s = load_shard(path)?;
                println!(
                    "  shard {}/{}: egos {}..{} of {}, {} communities",
                    s.shard_index,
                    s.shard_count,
                    s.ego_start,
                    s.ego_end,
                    s.num_nodes,
                    s.communities.len()
                );
            }
            SnapshotKind::Aggregation => {
                let a = load_aggregation(path)?;
                println!(
                    "  {} communities, embedding dim {}",
                    a.len(),
                    a.embedding_dim()
                );
            }
            SnapshotKind::CommunityModel => match load_community_model(path)? {
                CommunityClassifier::Xgb(_) => println!("  GBDT community classifier"),
                CommunityClassifier::Cnn(_) => println!("  commcnn community classifier"),
            },
            SnapshotKind::EdgeModel => {
                let m = load_edge_model(path)?;
                println!(
                    "  logistic regression: {} features, {} classes",
                    m.model().num_features(),
                    m.model().num_classes()
                );
            }
            SnapshotKind::WorldDelta => {
                let d = load_world_delta(path)?;
                println!(
                    "  {} batches against a {}-node / {}-edge world: {} inserts, {} removes",
                    d.batches.len(),
                    d.num_nodes,
                    d.base_num_edges,
                    d.num_inserts(),
                    d.num_removes()
                );
            }
            SnapshotKind::DivisionDelta => {
                let d = load_division_delta(path)?;
                println!(
                    "  {} dirty egos of {} nodes, {} re-divided communities",
                    d.dirty.len(),
                    d.num_nodes,
                    d.communities.len()
                );
            }
            SnapshotKind::DivisionCheckpoint => {
                let c = load_division_checkpoint(path)?;
                for line in c.coverage().render() {
                    println!("  {line}");
                }
                println!(
                    "  {} merged range(s), {} tasks (detector {}, seed {})",
                    c.merged.len(),
                    c.task_count,
                    c.detector,
                    c.seed
                );
            }
            SnapshotKind::Labels => {
                let labels = load_labels(path)?;
                let mut counts = [0usize; RelationType::COUNT];
                for l in &labels {
                    counts[l.label()] += 1;
                }
                println!(
                    "  {} edge labels (family {}, colleague {}, schoolmate {})",
                    labels.len(),
                    counts[0],
                    counts[1],
                    counts[2]
                );
            }
        }
    }
    Ok(())
}

/// `locec lint`: the workspace static-analysis pass.
fn lint(p: &Args, _: &mut RunReport) -> Result<(), CliError> {
    let root = PathBuf::from(p.str("root").unwrap_or("."));
    let outcome = locec::lint::lint(&root, &LintConfig::locec_defaults())
        .map_err(|e| format!("lint: scanning {}: {e}", root.display()))?;

    if p.has("json") {
        println!("{}", outcome.to_json());
    } else {
        for f in &outcome.findings {
            println!("{f}");
        }
        println!(
            "lint: {} file(s) scanned, {} violation(s), {} pragma-suppressed",
            outcome.files_scanned,
            outcome.findings.len(),
            outcome.pragma_suppressed
        );
    }
    if !outcome.is_clean() {
        return Err(format!(
            "lint: {} violation(s) not excused by a justified pragma",
            outcome.findings.len()
        )
        .into());
    }
    Ok(())
}

/// `locec report-check`: re-parse a run report, validate the schema
/// version, and require named sections — the CI artifact gate.
fn report_check(p: &Args, _: &mut RunReport) -> Result<(), CliError> {
    let [file] = p.positional.as_slice() else {
        return Err("report-check needs exactly one report file".into());
    };
    let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    let report = RunReport::from_json(&text).map_err(|e| format!("{file}: {e}"))?;
    let missing: Vec<&str> = p
        .str("require")
        .unwrap_or("")
        .split(',')
        .map(str::trim)
        .filter(|required| !required.is_empty() && report.section(required).is_none())
        .collect();
    if !missing.is_empty() {
        return Err(format!(
            "{file}: report (verb '{}') is missing required section(s): {} — has: {}",
            report.verb,
            missing.join(", "),
            report.section_names().join(", ")
        )
        .into());
    }
    println!(
        "report-check: {file} ok (verb '{}', sections: {})",
        report.verb,
        report.section_names().join(", ")
    );
    Ok(())
}

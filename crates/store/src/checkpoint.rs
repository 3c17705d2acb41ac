//! Coordinator checkpoints: the durable half of a mid-run streaming merge.
//!
//! A [`DivisionCheckpoint`] persists everything a crashed `locec
//! coordinate` run needs to restart without losing absorbed shard work:
//! the merged ego ranges, the spliced ego-ordered communities, the task
//! tiling, and the divide parameters the result depends on (so a resume
//! with different parameters is a typed error, not a silently mixed
//! division). It reuses the columnar community sections every other
//! division artifact uses, under the dedicated
//! [`SnapshotKind::DivisionCheckpoint`] kind.
//!
//! Writes are atomic (temp file + rename in the destination directory),
//! so a coordinator killed mid-checkpoint leaves the previous checkpoint
//! intact rather than a torn file.

use crate::division::{add_community_sections, read_community_sections};
use crate::format::{Enc, Snapshot, SnapshotError, SnapshotKind, SnapshotWriter};
use locec_core::phase1::LocalCommunity;
use std::path::Path;

/// A coordinator's mid-run merge state plus the run parameters that make
/// it resumable.
pub struct DivisionCheckpoint {
    /// Node count of the world being divided.
    pub num_nodes: u32,
    /// The task tiling of the interrupted run; a resume re-queues exactly
    /// the tasks whose canonical ranges are not yet covered.
    pub task_count: u32,
    /// Wire id of the community detector (see
    /// `locec_cluster::protocol::DivideParams`).
    pub detector: u8,
    /// Seed of the seeded detectors.
    pub seed: u64,
    /// Girvan–Newman ego-size cap.
    pub gn_max_friends: u64,
    /// Disjoint, sorted, coalesced absorbed ego ranges.
    pub merged: Vec<(u32, u32)>,
    /// The spliced communities of the absorbed ranges, in ego order.
    pub communities: Vec<LocalCommunity>,
}

/// How much of the ego space a checkpoint has absorbed — the facts a
/// `--resume` decision needs: what is done, what is left, and where the
/// holes are.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointCoverage {
    /// Node count of the world being divided.
    pub num_nodes: u32,
    /// Egos inside the merged ranges.
    pub covered: u64,
    /// Egos a resumed coordinator still has to divide.
    pub remaining: u64,
    /// Sorted, disjoint uncovered ranges (the complement of `merged`
    /// within `[0, num_nodes)`).
    pub gaps: Vec<(u32, u32)>,
    /// Communities spliced in so far.
    pub communities: u64,
}

impl CheckpointCoverage {
    /// Covered fraction in percent (100 for an empty graph).
    pub fn percent(&self) -> f64 {
        if self.num_nodes == 0 {
            100.0
        } else {
            self.covered as f64 * 100.0 / f64::from(self.num_nodes)
        }
    }

    /// Whether every ego is absorbed — a resume would finalize
    /// immediately without re-queuing any work.
    pub fn is_complete(&self) -> bool {
        self.remaining == 0
    }

    /// The human-readable summary `locec inspect` prints, one line per
    /// element.
    pub fn render(&self) -> Vec<String> {
        let mut lines = vec![format!(
            "{} of {} egos absorbed ({:.1}%), {} communities",
            self.covered,
            self.num_nodes,
            self.percent(),
            self.communities
        )];
        if self.is_complete() {
            lines.push("resume: complete — nothing left to re-queue".to_owned());
        } else {
            let gaps: Vec<String> = self
                .gaps
                .iter()
                .map(|&(s, e)| format!("{s}..{e}"))
                .collect();
            lines.push(format!(
                "resume: {} ego(s) left across {} gap(s): {}",
                self.remaining,
                self.gaps.len(),
                gaps.join(", ")
            ));
        }
        lines
    }
}

impl DivisionCheckpoint {
    /// Summarizes the merged ranges against the full ego space. Relies on
    /// the invariants [`load_division_checkpoint`] enforces (sorted,
    /// disjoint, coalesced, in-bounds ranges).
    pub fn coverage(&self) -> CheckpointCoverage {
        let covered: u64 = self.merged.iter().map(|&(s, e)| u64::from(e - s)).sum();
        let mut gaps = Vec::new();
        let mut cursor = 0u32;
        for &(s, e) in &self.merged {
            if cursor < s {
                gaps.push((cursor, s));
            }
            cursor = e;
        }
        if cursor < self.num_nodes {
            gaps.push((cursor, self.num_nodes));
        }
        CheckpointCoverage {
            num_nodes: self.num_nodes,
            covered,
            remaining: u64::from(self.num_nodes) - covered,
            gaps,
            communities: self.communities.len() as u64,
        }
    }
}

/// Writes a checkpoint atomically: the bytes land in `<path>.tmp` first
/// and replace `path` with a rename, so a crash mid-write never corrupts
/// the previous checkpoint.
pub fn save_division_checkpoint(
    path: &Path,
    ckpt: &DivisionCheckpoint,
) -> Result<(), SnapshotError> {
    let mut w = SnapshotWriter::new(SnapshotKind::DivisionCheckpoint);
    let mut meta = Enc::new();
    meta.u32(ckpt.num_nodes);
    meta.u32(ckpt.task_count);
    meta.u8(ckpt.detector);
    meta.u64(ckpt.seed);
    meta.u64(ckpt.gn_max_friends);
    w.add("meta", meta.finish());
    let mut ranges = Enc::new();
    ranges.u64(ckpt.merged.len() as u64);
    for &(s, e) in &ckpt.merged {
        ranges.u32(s);
        ranges.u32(e);
    }
    w.add("ranges", ranges.finish());
    add_community_sections(&mut w, &ckpt.communities);

    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    w.write_to(&tmp)?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Reads a checkpoint back, validating the structural invariants a resume
/// relies on: ranges sorted, disjoint, coalesced and inside the graph;
/// communities inside the merged ranges. (Graph-dependent validation —
/// members are neighbors of their egos — happens when the checkpoint is
/// handed to `IncrementalMerge::resume` with the live graph.)
pub fn load_division_checkpoint(path: &Path) -> Result<DivisionCheckpoint, SnapshotError> {
    let snap = Snapshot::read_from(path)?;
    snap.expect_kind(SnapshotKind::DivisionCheckpoint)?;
    let mut dec = snap.section("meta")?;
    let num_nodes = dec.u32()?;
    let task_count = dec.u32()?;
    let detector = dec.u8()?;
    let seed = dec.u64()?;
    let gn_max_friends = dec.u64()?;
    dec.done()?;
    if task_count == 0 && num_nodes > 0 {
        return Err(SnapshotError::Corrupt("checkpoint has no task tiling"));
    }

    let mut dec = snap.section("ranges")?;
    let count = dec.count()?;
    let mut merged = Vec::with_capacity(count);
    for _ in 0..count {
        let s = dec.u32()?;
        let e = dec.u32()?;
        merged.push((s, e));
    }
    dec.done()?;
    let communities = read_community_sections(&snap, num_nodes)?;
    validate_merged_state(num_nodes, &merged, &communities)?;
    Ok(DivisionCheckpoint {
        num_nodes,
        task_count,
        detector,
        seed,
        gn_max_friends,
        merged,
        communities,
    })
}

/// The structural invariants of checkpointed merge state, shared by
/// [`load_division_checkpoint`] and `IncrementalMerge::resume`: `merged` is
/// sorted, disjoint, coalesced and inside `0..num_nodes` (adjacent ranges
/// would have been coalesced at absorb time, and requiring that keeps
/// `range_is_covered`'s single-probe containment check sound), and every
/// community's ego lies inside a merged range.
pub(crate) fn validate_merged_state(
    num_nodes: u32,
    merged: &[(u32, u32)],
    communities: &[LocalCommunity],
) -> Result<(), SnapshotError> {
    let mut prev_end = None::<u32>;
    for &(s, e) in merged {
        if s >= e || e > num_nodes {
            return Err(SnapshotError::Corrupt(
                "checkpoint ego range is empty or exceeds the graph",
            ));
        }
        if prev_end.is_some_and(|p| s <= p) {
            return Err(SnapshotError::Corrupt(
                "checkpoint ego ranges are not sorted, disjoint and coalesced",
            ));
        }
        prev_end = Some(e);
    }
    let inside = |ego: u32| {
        let i = merged.partition_point(|&(_, e)| e <= ego);
        merged.get(i).is_some_and(|&(s, e)| s <= ego && ego < e)
    };
    if communities.iter().any(|c| !inside(c.ego.0)) {
        return Err(SnapshotError::Corrupt(
            "checkpoint community outside the merged ego ranges",
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use locec_graph::NodeId;

    fn sample() -> DivisionCheckpoint {
        DivisionCheckpoint {
            num_nodes: 100,
            task_count: 8,
            detector: 0,
            seed: 41,
            gn_max_friends: 120,
            merged: vec![(0, 25), (50, 62)],
            communities: vec![
                LocalCommunity {
                    ego: NodeId(3),
                    members: vec![NodeId(1), NodeId(7)].into(),
                    tightness: vec![0.5, 0.25].into(),
                },
                LocalCommunity {
                    ego: NodeId(55),
                    members: vec![NodeId(54)].into(),
                    tightness: vec![1.0].into(),
                },
            ],
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("locec_ckpt_{}_{}", std::process::id(), name));
        p
    }

    #[test]
    fn checkpoint_roundtrips() {
        let path = tmp("roundtrip.lsnap");
        let ckpt = sample();
        save_division_checkpoint(&path, &ckpt).unwrap();
        let back = load_division_checkpoint(&path).unwrap();
        assert_eq!(back.num_nodes, ckpt.num_nodes);
        assert_eq!(back.task_count, ckpt.task_count);
        assert_eq!(back.detector, ckpt.detector);
        assert_eq!(back.seed, ckpt.seed);
        assert_eq!(back.gn_max_friends, ckpt.gn_max_friends);
        assert_eq!(back.merged, ckpt.merged);
        assert_eq!(back.communities.len(), ckpt.communities.len());
        assert_eq!(back.communities[1].ego, NodeId(55));
        // The temp file was renamed away, not left behind.
        assert!(!path.with_extension("lsnap.tmp").exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn coverage_reports_gaps_for_a_partial_checkpoint() {
        let cov = sample().coverage();
        assert_eq!(
            cov,
            CheckpointCoverage {
                num_nodes: 100,
                covered: 37,
                remaining: 63,
                gaps: vec![(25, 50), (62, 100)],
                communities: 2,
            }
        );
        assert!(!cov.is_complete());
        assert!((cov.percent() - 37.0).abs() < 1e-9);
        let lines = cov.render();
        assert_eq!(
            lines,
            vec![
                "37 of 100 egos absorbed (37.0%), 2 communities".to_owned(),
                "resume: 63 ego(s) left across 2 gap(s): 25..50, 62..100".to_owned(),
            ]
        );
    }

    #[test]
    fn coverage_of_a_complete_checkpoint_requeues_nothing() {
        let mut ckpt = sample();
        ckpt.merged = vec![(0, 100)];
        let cov = ckpt.coverage();
        assert!(cov.is_complete());
        assert_eq!(cov.remaining, 0);
        assert!(cov.gaps.is_empty());
        assert_eq!(
            cov.render()[1],
            "resume: complete — nothing left to re-queue"
        );

        // A leading gap (nothing merged yet) is one whole-range hole.
        ckpt.merged.clear();
        ckpt.communities.clear();
        let cov = ckpt.coverage();
        assert_eq!(cov.covered, 0);
        assert_eq!(cov.gaps, vec![(0, 100)]);
        assert!((cov.percent()).abs() < 1e-9);
    }

    #[test]
    fn corruption_is_a_typed_error() {
        let path = tmp("corrupt.lsnap");
        save_division_checkpoint(&path, &sample()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(load_division_checkpoint(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn invalid_checkpoints_are_rejected() {
        // Overlapping (non-coalesced) ranges.
        let path = tmp("overlap.lsnap");
        let mut bad = sample();
        bad.merged = vec![(0, 25), (25, 30)];
        save_division_checkpoint(&path, &bad).unwrap();
        assert!(matches!(
            load_division_checkpoint(&path),
            Err(SnapshotError::Corrupt(
                "checkpoint ego ranges are not sorted, disjoint and coalesced"
            ))
        ));
        // A community outside every merged range.
        let mut bad = sample();
        bad.communities[1].ego = NodeId(80);
        save_division_checkpoint(&path, &bad).unwrap();
        assert!(matches!(
            load_division_checkpoint(&path),
            Err(SnapshotError::Corrupt(
                "checkpoint community outside the merged ego ranges"
            ))
        ));
        // A range past the graph.
        let mut bad = sample();
        bad.merged = vec![(0, 101)];
        bad.communities.clear();
        save_division_checkpoint(&path, &bad).unwrap();
        assert!(load_division_checkpoint(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}

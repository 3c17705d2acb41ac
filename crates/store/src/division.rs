//! Division snapshots: a full Phase I result, or one shard of a
//! multi-process run, plus the merge that combines shards bit-identically.
//!
//! Communities are stored columnar — egos, member offsets, flat members,
//! flat tightness — and a full division additionally persists the
//! adjacency-slot membership table verbatim, so loading never recomputes
//! anything and round-trips are bit-identical by construction.
//!
//! The in-memory layout mirrors the file: a loaded division's communities
//! are [`Column`] views into one members buffer and one tightness buffer,
//! each decoded once, so loading, hot-swapping and dropping a division
//! costs a handful of allocations however many communities it has. The
//! reader slices those views by the stored member offsets, so it first
//! proves every offset, count and ego consistent and refuses anything else
//! with [`SnapshotError::Corrupt`]. Divisions built in memory share the
//! layout: [`DivisionResult::from_communities`] packs them into one column
//! pair.

use crate::checkpoint::validate_merged_state;
use crate::format::{Enc, Snapshot, SnapshotError, SnapshotKind, SnapshotWriter};
use locec_core::phase1::{DivisionResult, LocalCommunity};
use locec_core::Column;
use locec_graph::{CsrGraph, NodeId};
use std::path::Path;

/// The partial Phase I output of one contiguous ego range, as produced by
/// `locec divide --shard i/n` and consumed by `locec divide --merge`.
pub struct DivisionShard {
    /// First ego id covered (inclusive).
    pub ego_start: u32,
    /// One past the last ego id covered.
    pub ego_end: u32,
    /// Node count of the graph the shard was computed on.
    pub num_nodes: u32,
    /// This shard's index in `0..shard_count`.
    pub shard_index: u32,
    /// Total number of shards in the run.
    pub shard_count: u32,
    /// The range's local communities, in ego order.
    pub communities: Vec<LocalCommunity>,
}

impl DivisionShard {
    /// The canonical contiguous ego range of shard `index` of `count` over
    /// `num_nodes` egos (balanced to within one ego, covering `0..n`).
    pub fn ego_range(index: u32, count: u32, num_nodes: usize) -> std::ops::Range<u32> {
        let n = num_nodes as u64;
        let start = (index as u64 * n / count as u64) as u32;
        let end = ((index as u64 + 1) * n / count as u64) as u32;
        start..end
    }
}

/// Encodes communities as four columnar sections (shared with the
/// division-delta writer in [`crate::delta`]).
pub(crate) fn add_community_sections(w: &mut SnapshotWriter, communities: &[LocalCommunity]) {
    let mut egos = Enc::new();
    egos.u64(communities.len() as u64);
    for c in communities {
        egos.u32(c.ego.0);
    }
    w.add("egos", egos.finish());

    let mut offsets = Enc::new();
    let mut members = Enc::new();
    let mut tightness = Enc::new();
    let total: u64 = communities.iter().map(|c| c.members.len() as u64).sum();
    offsets.u64(communities.len() as u64 + 1);
    members.u64(total);
    tightness.u64(total);
    let mut acc = 0u64;
    offsets.u64(0);
    for c in communities {
        acc += c.members.len() as u64;
        offsets.u64(acc);
        for &m in &c.members {
            members.u32(m.0);
        }
        tightness.f32_slice(&c.tightness);
    }
    w.add("member_offsets", offsets.finish());
    w.add("members", members.finish());
    w.add("tightness", tightness.finish());
}

/// Decodes the columnar community sections into communities that view
/// one shared column pair (each column decoded once; no allocation per
/// community). Every invariant the views and the queries rely on is
/// checked first, so a CRC-valid but inconsistent column set is a typed
/// [`SnapshotError::Corrupt`], never a panic: egos in node range and in
/// order, offsets starting at 0 and non-decreasing, no community without
/// members, the last offset equal to the member count and to the
/// tightness count, members in node range and ascending within each
/// community.
pub(crate) fn read_community_sections(
    snap: &Snapshot,
    num_nodes: u32,
) -> Result<Vec<LocalCommunity>, SnapshotError> {
    let mut dec = snap.section("egos")?;
    let count = dec.count()?;
    let egos = dec.u32_vec(count)?;
    dec.done()?;
    if egos.iter().any(|&e| e >= num_nodes) {
        return Err(SnapshotError::Corrupt("community ego out of node range"));
    }
    if egos.windows(2).any(|w| w[0] > w[1]) {
        return Err(SnapshotError::Corrupt("communities are not in ego order"));
    }

    let mut dec = snap.section("member_offsets")?;
    if dec.count()? != count + 1 {
        return Err(SnapshotError::Corrupt("member offset count mismatch"));
    }
    let offsets = dec.u64_vec(count + 1)?;
    dec.done()?;
    if offsets.first() != Some(&0) || offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(SnapshotError::Corrupt("member offsets are not monotonic"));
    }
    if offsets.windows(2).any(|w| w[0] == w[1]) {
        return Err(SnapshotError::Corrupt("community has no members"));
    }
    // Every offset is at most the last, so once it fits a view's `u32`
    // range, all of them do.
    let total = u32::try_from(offsets.last().copied().unwrap_or(0))
        .map_err(|_| SnapshotError::Corrupt("member count exceeds u32"))? as usize;

    let mut dec = snap.section("members")?;
    if dec.count()? != total {
        return Err(SnapshotError::Corrupt("member count mismatch"));
    }
    let members = dec.u32_column(total, NodeId)?;
    dec.done()?;
    if members.iter().any(|m| m.0 >= num_nodes) {
        return Err(SnapshotError::Corrupt("community member out of node range"));
    }

    let mut dec = snap.section("tightness")?;
    if dec.count()? != total {
        return Err(SnapshotError::Corrupt("tightness count mismatch"));
    }
    let tightness = Column::from(dec.u32_column(total, f32::from_bits)?);
    dec.done()?;

    let members = Column::from(members);
    let mut communities = Vec::with_capacity(count);
    for (&ego, w) in egos.iter().zip(offsets.windows(2)) {
        let range = w[0] as usize..w[1] as usize;
        let ms = members.slice(range.clone());
        if ms.windows(2).any(|p| p[0] >= p[1]) {
            return Err(SnapshotError::Corrupt("community members not ascending"));
        }
        communities.push(LocalCommunity {
            ego: NodeId(ego),
            members: ms,
            tightness: tightness.slice(range),
        });
    }
    Ok(communities)
}

/// Writes a complete division (communities + verbatim membership table).
pub fn save_division(
    path: &Path,
    graph: &CsrGraph,
    division: &DivisionResult,
) -> Result<(), SnapshotError> {
    let mut w = SnapshotWriter::new(SnapshotKind::Division);
    let mut meta = Enc::new();
    meta.u64(graph.num_nodes() as u64);
    w.add("meta", meta.finish());
    add_community_sections(&mut w, &division.communities);
    let mut mem = Enc::new();
    mem.u64(division.membership_table().len() as u64);
    mem.u32_slice(division.membership_table());
    w.add("membership", mem.finish());
    w.write_to(path)
}

/// Reads a complete division back, bit-identically (the membership table
/// is loaded, not rebuilt).
pub fn load_division(path: &Path) -> Result<DivisionResult, SnapshotError> {
    let snap = Snapshot::read_from(path)?;
    snap.expect_kind(SnapshotKind::Division)?;
    let mut dec = snap.section("meta")?;
    let num_nodes = dec.count()?;
    dec.done()?;
    let num_nodes =
        u32::try_from(num_nodes).map_err(|_| SnapshotError::Corrupt("node count exceeds u32"))?;
    let communities = read_community_sections(&snap, num_nodes)?;
    let mut dec = snap.section("membership")?;
    let len = dec.count()?;
    let membership = dec.u32_vec(len)?;
    dec.done()?;
    DivisionResult::from_raw_parts(communities, membership).map_err(SnapshotError::Corrupt)
}

/// Serializes one shard to an in-memory snapshot — the same bytes
/// [`save_shard`] writes to disk, reusable as a wire payload (the cluster
/// protocol frames exactly these bytes, CRC discipline included).
pub fn shard_to_bytes(shard: &DivisionShard) -> Vec<u8> {
    let mut w = SnapshotWriter::new(SnapshotKind::DivisionShard);
    let mut meta = Enc::new();
    meta.u32(shard.ego_start);
    meta.u32(shard.ego_end);
    meta.u32(shard.num_nodes);
    meta.u32(shard.shard_index);
    meta.u32(shard.shard_count);
    w.add("shard", meta.finish());
    add_community_sections(&mut w, &shard.communities);
    w.to_bytes()
}

/// Parses a shard from in-memory snapshot bytes (the inverse of
/// [`shard_to_bytes`]), with the same validation as [`load_shard`].
pub fn shard_from_bytes(bytes: &[u8]) -> Result<DivisionShard, SnapshotError> {
    decode_shard(Snapshot::from_bytes(bytes)?)
}

/// Writes one shard of a sharded division run.
pub fn save_shard(path: &Path, shard: &DivisionShard) -> Result<(), SnapshotError> {
    std::fs::write(path, shard_to_bytes(shard))?;
    Ok(())
}

/// Reads one shard back.
pub fn load_shard(path: &Path) -> Result<DivisionShard, SnapshotError> {
    decode_shard(Snapshot::read_from(path)?)
}

fn decode_shard(snap: Snapshot) -> Result<DivisionShard, SnapshotError> {
    snap.expect_kind(SnapshotKind::DivisionShard)?;
    let mut dec = snap.section("shard")?;
    let ego_start = dec.u32()?;
    let ego_end = dec.u32()?;
    let num_nodes = dec.u32()?;
    let shard_index = dec.u32()?;
    let shard_count = dec.u32()?;
    dec.done()?;
    if ego_start > ego_end || ego_end > num_nodes || shard_index >= shard_count {
        return Err(SnapshotError::Corrupt("inconsistent shard header"));
    }
    let communities = read_community_sections(&snap, num_nodes)?;
    if communities
        .iter()
        .any(|c| c.ego.0 < ego_start || c.ego.0 >= ego_end)
    {
        return Err(SnapshotError::Corrupt("shard community outside ego range"));
    }
    Ok(DivisionShard {
        ego_start,
        ego_end,
        num_nodes,
        shard_index,
        shard_count,
        communities,
    })
}

/// Checks that every community member is a neighbor of its ego in `graph`
/// — the invariant the membership-table walk assumes. Both lists are
/// ascending, so one merge walk per community suffices. Shared by the
/// shard merge and the division-delta apply, which both splice untrusted
/// stored communities into a graph-keyed table.
pub(crate) fn validate_members_are_neighbors(
    graph: &CsrGraph,
    communities: &[LocalCommunity],
) -> Result<(), SnapshotError> {
    for c in communities {
        let nbrs = graph.neighbors(c.ego);
        let mut j = 0usize;
        for &m in &c.members {
            while j < nbrs.len() && nbrs[j] < m {
                j += 1;
            }
            if j >= nbrs.len() || nbrs[j] != m {
                return Err(SnapshotError::Corrupt(
                    "community member is not a neighbor of its ego in this graph",
                ));
            }
            j += 1;
        }
    }
    Ok(())
}

/// Streaming shard merge: absorbs [`DivisionShard`]s one at a time, in any
/// arrival order, splicing each into a growing ego-ordered community list
/// the moment it lands. Peak memory is therefore the growing division plus
/// the single shard currently being absorbed — never the whole shard set —
/// which is what lets a coordinator merge results as workers stream them
/// in instead of collecting every shard first.
///
/// Absorption is **idempotent by ego range**: a shard whose range was
/// already merged (a duplicate delivery after a lease was re-queued and
/// recomputed) is dropped with `Ok(false)`; a shard that *partially*
/// overlaps merged work indicates an inconsistent task tiling and is a
/// typed error. Every absorbed shard is validated against the graph the
/// merge was opened with. [`merge_shards`] runs on it too.
pub struct IncrementalMerge<'g> {
    graph: &'g CsrGraph,
    communities: Vec<LocalCommunity>,
    /// Disjoint, sorted, coalesced merged ego ranges.
    merged: Vec<(u32, u32)>,
    /// Egos covered so far (empty ranges contribute nothing).
    covered: u64,
}

impl<'g> IncrementalMerge<'g> {
    /// An empty merge over `graph`'s ego range.
    pub fn new(graph: &'g CsrGraph) -> Self {
        IncrementalMerge {
            graph,
            communities: Vec::new(),
            merged: Vec::new(),
            covered: 0,
        }
    }

    /// Splices one shard into the growing division. Returns `Ok(true)` if
    /// the shard contributed new work, `Ok(false)` if its range was already
    /// merged (duplicate delivery, dropped), and an error if the shard is
    /// inconsistent with the graph or with previously merged ranges.
    pub fn absorb(&mut self, shard: DivisionShard) -> Result<bool, SnapshotError> {
        if shard.num_nodes as usize != self.graph.num_nodes() {
            return Err(SnapshotError::Corrupt(
                "shard computed on a different graph",
            ));
        }
        if shard.ego_start > shard.ego_end || shard.ego_end as usize > self.graph.num_nodes() {
            return Err(SnapshotError::Corrupt("shard ego range exceeds the graph"));
        }
        let (start, end) = (shard.ego_start, shard.ego_end);
        if start == end {
            // Empty range (more tasks than egos): nothing to merge, nothing
            // to record.
            return Ok(true);
        }
        // Position among the merged ranges, then classify: fully contained
        // in merged work → duplicate; touching any merged ego → corrupt
        // tiling; disjoint → absorb.
        let i = self.merged.partition_point(|&(_, e)| e <= start);
        if let Some(&(s, e)) = self.merged.get(i) {
            if s <= start && end <= e {
                return Ok(false);
            }
            if s < end {
                return Err(SnapshotError::Corrupt(
                    "shard ego range partially overlaps merged work",
                ));
            }
        }
        validate_members_are_neighbors(self.graph, &shard.communities)?;
        if shard
            .communities
            .iter()
            .any(|c| c.ego.0 < start || c.ego.0 >= end)
        {
            return Err(SnapshotError::Corrupt("shard community outside ego range"));
        }
        locec_core::phase1::splice_ordered_chunk(&mut self.communities, shard.communities);
        self.covered += (end - start) as u64;
        // Record the range, coalescing with adjacent neighbors to keep the
        // bookkeeping list at O(holes), not O(shards).
        let mut s = start;
        let mut e = end;
        let mut i = i;
        if i > 0 && self.merged[i - 1].1 == s {
            s = self.merged[i - 1].0;
            i -= 1;
            self.merged.remove(i);
        }
        if i < self.merged.len() && self.merged[i].0 == e {
            e = self.merged[i].1;
            self.merged.remove(i);
        }
        self.merged.insert(i, (s, e));
        Ok(true)
    }

    /// Whether every ego of the graph has been merged.
    pub fn is_complete(&self) -> bool {
        self.covered as usize == self.graph.num_nodes()
    }

    /// The disjoint, sorted, coalesced ego ranges absorbed so far — the
    /// durable half of a [`crate::DivisionCheckpoint`].
    pub fn merged_ranges(&self) -> &[(u32, u32)] {
        &self.merged
    }

    /// The spliced ego-ordered communities absorbed so far.
    pub fn communities(&self) -> &[LocalCommunity] {
        &self.communities
    }

    /// Whether `[start, end)` lies entirely inside absorbed work. Empty
    /// ranges are trivially covered (they carry no egos).
    pub fn range_is_covered(&self, start: u32, end: u32) -> bool {
        if start >= end {
            return true;
        }
        let i = self.merged.partition_point(|&(_, e)| e <= start);
        self.merged
            .get(i)
            .is_some_and(|&(s, e)| s <= start && end <= e)
    }

    /// Rebuilds a merge from checkpointed state: `merged` must be sorted,
    /// disjoint, coalesced and inside the graph; `communities` must be
    /// ego-ordered, inside the merged ranges, and valid against `graph`
    /// (the same validation [`IncrementalMerge::absorb`] applies to every
    /// live shard).
    pub fn resume(
        graph: &'g CsrGraph,
        communities: Vec<LocalCommunity>,
        merged: Vec<(u32, u32)>,
    ) -> Result<Self, SnapshotError> {
        validate_merged_state(graph.num_nodes() as u32, &merged, &communities)?;
        if communities.windows(2).any(|w| w[1].ego < w[0].ego) {
            return Err(SnapshotError::Corrupt(
                "checkpoint communities are not ego-ordered",
            ));
        }
        validate_members_are_neighbors(graph, &communities)?;
        let covered = merged.iter().map(|&(s, e)| u64::from(e - s)).sum();
        Ok(IncrementalMerge {
            graph,
            communities,
            merged,
            covered,
        })
    }

    /// Builds the final [`DivisionResult`] (membership table included) —
    /// bit-identical to a single-process `divide` over the same graph.
    /// Fails unless the absorbed ranges tile the whole ego range.
    pub fn finish(self, threads: usize) -> Result<DivisionResult, SnapshotError> {
        if !self.is_complete() {
            return Err(SnapshotError::Corrupt(
                "shards do not cover every ego of the graph",
            ));
        }
        Ok(DivisionResult::from_communities(
            self.graph,
            self.communities,
            threads,
        ))
    }
}

/// Merges the complete shard set of one run into a full [`DivisionResult`],
/// bit-identical to a single-process `divide` over the same graph. Checks
/// the declared set (non-empty, `shard_count` shards, each index once),
/// then runs the coordinator's [`IncrementalMerge`], which validates every
/// shard against `graph` and fails unless the ranges tile every ego.
pub fn merge_shards(
    graph: &CsrGraph,
    mut shards: Vec<DivisionShard>,
    threads: usize,
) -> Result<DivisionResult, SnapshotError> {
    if shards.is_empty() {
        return Err(SnapshotError::Corrupt("no shards to merge"));
    }
    // Absorbing in index order appends each shard at the end.
    shards.sort_by_key(|s| s.shard_index);
    let declared = shards[0].shard_count;
    if shards.len() != declared as usize {
        return Err(SnapshotError::Corrupt(
            "shard set does not match the declared shard count",
        ));
    }
    let mut merge = IncrementalMerge::new(graph);
    for (i, s) in shards.into_iter().enumerate() {
        if s.shard_count != declared || s.shard_index != i as u32 || !merge.absorb(s)? {
            return Err(SnapshotError::Corrupt("duplicate or mismatched shard"));
        }
    }
    merge.finish(threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use locec_core::phase1::{divide, divide_range};
    use locec_core::LocecConfig;
    use locec_synth::{Scenario, SynthConfig};

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("locec_div_{}_{name}", std::process::id()))
    }

    #[test]
    fn division_roundtrip_is_bit_identical() {
        let scenario = Scenario::generate(&SynthConfig::tiny(21));
        let config = LocecConfig::fast();
        let division = divide(&scenario.graph, &config);
        let path = tmp("full.lsnap");
        save_division(&path, &scenario.graph, &division).unwrap();
        let loaded = load_division(&path).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(loaded.num_communities(), division.num_communities());
        for (a, b) in loaded.communities.iter().zip(&division.communities) {
            assert_eq!(a.ego, b.ego);
            assert_eq!(a.members, b.members);
            assert_eq!(
                a.tightness.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
                b.tightness.iter().map(|t| t.to_bits()).collect::<Vec<_>>()
            );
        }
        assert_eq!(loaded.membership_table(), division.membership_table());
    }

    #[test]
    fn sharded_save_merge_equals_single_process() {
        let scenario = Scenario::generate(&SynthConfig::tiny(22));
        let config = LocecConfig::fast();
        let full = divide(&scenario.graph, &config);
        let n = scenario.graph.num_nodes();

        let shard_count = 3u32;
        let mut shards = Vec::new();
        for i in 0..shard_count {
            let range = DivisionShard::ego_range(i, shard_count, n);
            let shard = DivisionShard {
                ego_start: range.start,
                ego_end: range.end,
                num_nodes: n as u32,
                shard_index: i,
                shard_count,
                communities: divide_range(&scenario.graph, range, &config),
            };
            let path = tmp(&format!("shard{i}.lsnap"));
            save_shard(&path, &shard).unwrap();
            shards.push(load_shard(&path).unwrap());
            std::fs::remove_file(&path).ok();
        }
        let merged = merge_shards(&scenario.graph, shards, config.threads).unwrap();
        assert_eq!(merged.num_communities(), full.num_communities());
        for (a, b) in merged.communities.iter().zip(&full.communities) {
            assert_eq!(a.ego, b.ego);
            assert_eq!(a.members, b.members);
            assert_eq!(a.tightness, b.tightness);
        }
        assert_eq!(merged.membership_table(), full.membership_table());
    }

    #[test]
    fn merge_rejects_incomplete_or_mismatched_shard_sets() {
        let scenario = Scenario::generate(&SynthConfig::tiny(23));
        let config = LocecConfig::fast();
        let n = scenario.graph.num_nodes();
        let make = |i: u32, count: u32| {
            let range = DivisionShard::ego_range(i, count, n);
            DivisionShard {
                ego_start: range.start,
                ego_end: range.end,
                num_nodes: n as u32,
                shard_index: i,
                shard_count: count,
                communities: divide_range(&scenario.graph, range, &config),
            }
        };
        // Missing shard.
        assert!(merge_shards(&scenario.graph, vec![make(0, 2)], 2).is_err());
        // Duplicate shard.
        assert!(merge_shards(&scenario.graph, vec![make(0, 2), make(0, 2)], 2).is_err());
        // Wrong graph size.
        let mut wrong = make(1, 2);
        wrong.num_nodes += 1;
        assert!(merge_shards(&scenario.graph, vec![make(0, 2), wrong], 2).is_err());
        // Empty set.
        assert!(merge_shards(&scenario.graph, Vec::new(), 2).is_err());
        // The valid set passes.
        assert!(merge_shards(&scenario.graph, vec![make(0, 2), make(1, 2)], 2).is_ok());
    }

    #[test]
    fn merge_handles_more_shards_than_egos_in_any_file_order() {
        // 4 nodes, 8 shards: half the shards are empty and share ego_start
        // values — merge must order by shard_index, not ego_start.
        let mut b = locec_graph::GraphBuilder::new(4);
        for (u, v) in [(0u32, 1u32), (1, 2), (2, 3), (0, 2)] {
            b.add_edge(locec_graph::NodeId(u), locec_graph::NodeId(v));
        }
        let g = b.build();
        let config = LocecConfig::fast();
        let full = divide(&g, &config);
        let mut shards: Vec<DivisionShard> = (0..8u32)
            .map(|i| {
                let range = DivisionShard::ego_range(i, 8, g.num_nodes());
                DivisionShard {
                    ego_start: range.start,
                    ego_end: range.end,
                    num_nodes: g.num_nodes() as u32,
                    shard_index: i,
                    shard_count: 8,
                    communities: divide_range(&g, range, &config),
                }
            })
            .collect();
        shards.reverse(); // adversarial file order
        let merged = merge_shards(&g, shards, config.threads).unwrap();
        assert_eq!(merged.num_communities(), full.num_communities());
        assert_eq!(merged.membership_table(), full.membership_table());
    }

    #[test]
    fn merge_rejects_shards_from_a_different_graph_of_same_size() {
        // Same node count, different edges: validation must return a typed
        // error, not panic in the membership-table walk.
        let a = Scenario::generate(&SynthConfig::tiny(24));
        let b = Scenario::generate(&SynthConfig::tiny(25));
        assert_eq!(a.graph.num_nodes(), b.graph.num_nodes());
        let config = LocecConfig::fast();
        let n = b.graph.num_nodes();
        let shards: Vec<DivisionShard> = (0..2u32)
            .map(|i| {
                let range = DivisionShard::ego_range(i, 2, n);
                DivisionShard {
                    ego_start: range.start,
                    ego_end: range.end,
                    num_nodes: n as u32,
                    shard_index: i,
                    shard_count: 2,
                    communities: divide_range(&b.graph, range, &config),
                }
            })
            .collect();
        let err = match merge_shards(&a.graph, shards, config.threads) {
            Err(e) => e,
            Ok(_) => panic!("merged shards computed on a different graph"),
        };
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");
    }

    #[test]
    fn shard_bytes_roundtrip_matches_file_roundtrip() {
        let scenario = Scenario::generate(&SynthConfig::tiny(26));
        let config = LocecConfig::fast();
        let n = scenario.graph.num_nodes();
        let range = DivisionShard::ego_range(0, 2, n);
        let shard = DivisionShard {
            ego_start: range.start,
            ego_end: range.end,
            num_nodes: n as u32,
            shard_index: 0,
            shard_count: 2,
            communities: divide_range(&scenario.graph, range, &config),
        };
        let bytes = shard_to_bytes(&shard);
        let path = tmp("bytes.lsnap");
        save_shard(&path, &shard).unwrap();
        assert_eq!(bytes, std::fs::read(&path).unwrap());
        std::fs::remove_file(&path).ok();
        let back = shard_from_bytes(&bytes).unwrap();
        assert_eq!(back.ego_start, shard.ego_start);
        assert_eq!(back.ego_end, shard.ego_end);
        assert_eq!(back.communities.len(), shard.communities.len());
        for (a, b) in back.communities.iter().zip(&shard.communities) {
            assert_eq!(a.ego, b.ego);
            assert_eq!(a.members, b.members);
            assert_eq!(
                a.tightness.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
                b.tightness.iter().map(|t| t.to_bits()).collect::<Vec<_>>()
            );
        }
        assert!(shard_from_bytes(&bytes[..bytes.len() - 1]).is_err());
    }

    fn make_shard(
        graph: &locec_graph::CsrGraph,
        i: u32,
        count: u32,
        config: &LocecConfig,
    ) -> DivisionShard {
        let range = DivisionShard::ego_range(i, count, graph.num_nodes());
        DivisionShard {
            ego_start: range.start,
            ego_end: range.end,
            num_nodes: graph.num_nodes() as u32,
            shard_index: i,
            shard_count: count,
            communities: divide_range(graph, range, config),
        }
    }

    #[test]
    fn incremental_merge_any_order_equals_single_process() {
        let scenario = Scenario::generate(&SynthConfig::tiny(27));
        let config = LocecConfig::fast();
        let full = divide(&scenario.graph, &config);
        // Adversarial arrival order over 5 tasks.
        for order in [
            vec![4u32, 1, 3, 0, 2],
            vec![0, 1, 2, 3, 4],
            vec![4, 3, 2, 1, 0],
        ] {
            let mut merge = IncrementalMerge::new(&scenario.graph);
            for &i in &order {
                assert!(!merge.is_complete());
                assert!(merge
                    .absorb(make_shard(&scenario.graph, i, 5, &config))
                    .unwrap());
            }
            assert!(merge.is_complete());
            let merged = merge.finish(config.threads).unwrap();
            assert_eq!(merged.num_communities(), full.num_communities());
            for (a, b) in merged.communities.iter().zip(&full.communities) {
                assert_eq!(a.ego, b.ego);
                assert_eq!(a.members, b.members);
                assert_eq!(
                    a.tightness.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
                    b.tightness.iter().map(|t| t.to_bits()).collect::<Vec<_>>()
                );
            }
            assert_eq!(merged.membership_table(), full.membership_table());
        }
    }

    #[test]
    fn incremental_merge_drops_duplicates_and_rejects_overlap() {
        let scenario = Scenario::generate(&SynthConfig::tiny(28));
        let config = LocecConfig::fast();
        let mut merge = IncrementalMerge::new(&scenario.graph);
        assert!(merge
            .absorb(make_shard(&scenario.graph, 0, 3, &config))
            .unwrap());
        // Exact duplicate of an absorbed range: dropped, not an error.
        assert!(!merge
            .absorb(make_shard(&scenario.graph, 0, 3, &config))
            .unwrap());
        assert!(merge
            .absorb(make_shard(&scenario.graph, 1, 3, &config))
            .unwrap());
        // Duplicate of a range now *inside* a coalesced merged span.
        assert!(!merge
            .absorb(make_shard(&scenario.graph, 1, 3, &config))
            .unwrap());
        // A shard from a different tiling that partially overlaps merged
        // work is a typed error, not silent corruption.
        let straddling = make_shard(&scenario.graph, 1, 2, &config);
        assert!(matches!(
            merge.absorb(straddling),
            Err(SnapshotError::Corrupt(_))
        ));
        // Incomplete merges refuse to finish.
        assert!(!merge.is_complete());
        assert!(merge.finish(config.threads).is_err());
    }

    #[test]
    fn incremental_merge_rejects_foreign_graph_shards() {
        let a = Scenario::generate(&SynthConfig::tiny(24));
        let b = Scenario::generate(&SynthConfig::tiny(25));
        let config = LocecConfig::fast();
        let mut merge = IncrementalMerge::new(&a.graph);
        let foreign = make_shard(&b.graph, 0, 2, &config);
        assert!(matches!(
            merge.absorb(foreign),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn incremental_merge_of_empty_graph_is_instantly_complete() {
        let g = locec_graph::GraphBuilder::new(0).build();
        let merge = IncrementalMerge::new(&g);
        assert!(merge.is_complete());
        let d = merge.finish(1).unwrap();
        assert_eq!(d.num_communities(), 0);
    }

    #[test]
    fn ego_ranges_tile_the_node_range() {
        for (n, count) in [(9usize, 2u32), (300, 7), (5, 5), (4, 8)] {
            let mut next = 0u32;
            for i in 0..count {
                let r = DivisionShard::ego_range(i, count, n);
                assert_eq!(r.start, next);
                next = r.end;
            }
            assert_eq!(next as usize, n);
        }
    }
}

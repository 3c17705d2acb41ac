//! A division's communities are views into one shared column pair.
//!
//! * The snapshot reader slices its views by the stored member offsets, so
//!   every CRC-valid but inconsistent column set must be refused with a
//!   typed [`SnapshotError::Corrupt`] — never a panic — for each snapshot
//!   kind that carries communities. The snapshots are built here with the
//!   public `SnapshotWriter`/`Enc`, section by section.
//! * Every division the library hands out — loaded, divided, merged from
//!   shards, or spliced by any number of incremental updates — holds
//!   exactly Σ|C| members and tightness values: each community's views
//!   start where the previous community's ended.

use locec_core::phase1::{divide, divide_range, divide_update_owned};
use locec_core::{DivisionResult, LocecConfig};
use locec_graph::{dirty_egos, CsrGraph, GraphDelta, NodeId};
use locec_store::format::Enc;
use locec_store::{
    load_division, load_division_delta, merge_shards, save_division, shard_from_bytes,
    shard_to_bytes, DivisionShard, SnapshotError, SnapshotKind, SnapshotWriter,
};
use locec_synth::{Scenario, SynthConfig};

/// Node count of the hand-built snapshots.
const NODES: u32 = 4;

/// The four community columns as they are stored.
struct Columns {
    egos: Vec<u32>,
    offsets: Vec<u64>,
    members: Vec<u32>,
    tightness: Vec<f32>,
}

/// Three valid communities: two of ego 0, one of ego 2.
fn valid() -> Columns {
    Columns {
        egos: vec![0, 0, 2],
        offsets: vec![0, 2, 3, 5],
        members: vec![1, 3, 2, 0, 3],
        tightness: vec![1.0, 0.5, 1.0, 0.25, 0.75],
    }
}

fn add_columns(w: &mut SnapshotWriter, c: &Columns) {
    let mut egos = Enc::new();
    egos.u64(c.egos.len() as u64);
    egos.u32_slice(&c.egos);
    w.add("egos", egos.finish());
    let mut offsets = Enc::new();
    offsets.u64(c.offsets.len() as u64);
    for &o in &c.offsets {
        offsets.u64(o);
    }
    w.add("member_offsets", offsets.finish());
    let mut members = Enc::new();
    members.u64(c.members.len() as u64);
    members.u32_slice(&c.members);
    w.add("members", members.finish());
    let mut tightness = Enc::new();
    tightness.u64(c.tightness.len() as u64);
    tightness.f32_slice(&c.tightness);
    w.add("tightness", tightness.finish());
}

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("locec_columns_{}_{name}", std::process::id()))
}

/// Writes `c` as a `kind` snapshot over [`NODES`] nodes and reads it back
/// with that kind's public reader, returning the decoded community count.
fn decode(kind: SnapshotKind, c: &Columns) -> Result<usize, SnapshotError> {
    let mut w = SnapshotWriter::new(kind);
    match kind {
        SnapshotKind::Division => {
            let mut meta = Enc::new();
            meta.u64(NODES as u64);
            w.add("meta", meta.finish());
            add_columns(&mut w, c);
            // An empty membership table: the reader checks indices, not
            // coverage (that is `ensure_matches`' job against a graph).
            let mut membership = Enc::new();
            membership.u64(0);
            w.add("membership", membership.finish());
            let path = tmp("division.lsnap");
            w.write_to(&path)?;
            let loaded = load_division(&path);
            std::fs::remove_file(&path).ok();
            Ok(loaded?.num_communities())
        }
        SnapshotKind::DivisionShard => {
            let mut meta = Enc::new();
            for v in [0, NODES, NODES, 0, 1] {
                meta.u32(v);
            }
            w.add("shard", meta.finish());
            add_columns(&mut w, c);
            Ok(shard_from_bytes(&w.to_bytes())?.communities.len())
        }
        SnapshotKind::DivisionDelta => {
            let mut meta = Enc::new();
            meta.u32(NODES);
            meta.u64(NODES as u64);
            w.add("meta", meta.finish());
            let mut dirty = Enc::new();
            dirty.u32_slice(&(0..NODES).collect::<Vec<_>>());
            w.add("dirty", dirty.finish());
            add_columns(&mut w, c);
            let path = tmp("ddelta.lsnap");
            w.write_to(&path)?;
            let loaded = load_division_delta(&path);
            std::fs::remove_file(&path).ok();
            Ok(loaded?.communities.len())
        }
        other => unreachable!("{other:?} carries no communities"),
    }
}

#[test]
fn inconsistent_community_columns_are_typed_errors_for_every_kind() {
    type Edit = fn(&mut Columns);
    let cases: [(&str, Edit, &str); 12] = [
        ("offsets start at 1", |c| c.offsets[0] = 1, "not monotonic"),
        (
            "decreasing offsets",
            |c| c.offsets = vec![0, 3, 2, 5],
            "not monotonic",
        ),
        (
            "last offset short of the member count",
            |c| c.offsets[3] = 4,
            "member count mismatch",
        ),
        (
            "last offset past the member count",
            |c| c.offsets[3] = 6,
            "member count mismatch",
        ),
        (
            "last offset beyond a u32 view",
            |c| c.offsets[3] = 1 << 33,
            "exceeds u32",
        ),
        (
            "one offset too few",
            |c| c.offsets = vec![0, 2, 5],
            "offset count mismatch",
        ),
        (
            "tightness count differs",
            |c| {
                c.tightness.pop();
            },
            "tightness count mismatch",
        ),
        (
            "members not ascending",
            |c| c.members = vec![3, 1, 2, 0, 3],
            "not ascending",
        ),
        (
            "ego out of range",
            |c| c.egos[2] = NODES,
            "ego out of node range",
        ),
        (
            "egos out of order",
            |c| c.egos = vec![0, 2, 0],
            "not in ego order",
        ),
        (
            "zero-member community",
            |c| {
                c.egos = vec![0, 0, 1, 2];
                c.offsets = vec![0, 2, 3, 3, 5];
            },
            "has no members",
        ),
        (
            "member out of range",
            |c| c.members[4] = NODES,
            "member out of node range",
        ),
    ];
    for kind in [
        SnapshotKind::Division,
        SnapshotKind::DivisionShard,
        SnapshotKind::DivisionDelta,
    ] {
        assert_eq!(
            decode(kind, &valid()).unwrap(),
            3,
            "{kind:?}: valid columns"
        );
        for (what, edit, expected) in cases {
            let mut c = valid();
            edit(&mut c);
            match decode(kind, &c) {
                Err(SnapshotError::Corrupt(msg)) => {
                    assert!(msg.contains(expected), "{kind:?}, {what}: {msg}")
                }
                other => panic!("{kind:?}, {what}: expected Corrupt({expected}), got {other:?}"),
            }
        }
    }
}

/// Asserts that `d`'s communities tile one members buffer and one
/// tightness buffer in community order, holding `graph.volume()` members.
fn assert_packed(d: &DivisionResult, graph: &CsrGraph, what: &str) {
    for (i, w) in d.communities.windows(2).enumerate() {
        assert_eq!(
            w[0].members.as_ptr_range().end,
            w[1].members.as_ptr(),
            "{what}: members of community {} do not start where {i}'s end",
            i + 1
        );
        assert_eq!(
            w[0].tightness.as_ptr_range().end,
            w[1].tightness.as_ptr(),
            "{what}: tightness of community {} does not start where {i}'s ends",
            i + 1
        );
    }
    let total: usize = d.communities.iter().map(|c| c.len()).sum();
    assert_eq!(total, graph.volume(), "{what}: Σ|C| is the graph's 2m");
}

/// A delta of a few removed and inserted edges, different per `batch`.
fn churn(graph: &CsrGraph, batch: u64) -> GraphDelta {
    let mut state = batch.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = |bound: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound as u64) as u32
    };
    let edges: Vec<(u32, u32)> = graph.edges().map(|(_, u, v)| (u.0, v.0)).collect();
    let mut removes: Vec<(u32, u32)> = (0..4).map(|_| edges[next(edges.len()) as usize]).collect();
    removes.sort_unstable();
    removes.dedup();
    let n = graph.num_nodes();
    let mut inserts = Vec::new();
    while inserts.len() < 4 {
        let (u, v) = (next(n), next(n));
        let pair = (u.min(v), u.max(v));
        if u != v && !graph.has_edge(NodeId(u), NodeId(v)) && !inserts.contains(&pair) {
            inserts.push(pair);
        }
    }
    GraphDelta::new(n, inserts, removes).unwrap()
}

#[test]
fn loaded_divided_merged_and_spliced_divisions_hold_one_column_pair() {
    let scenario = Scenario::generate(&SynthConfig::tiny(61));
    let config = LocecConfig::fast();
    let graph = &scenario.graph;

    let divided = divide(graph, &config);
    assert_packed(&divided, graph, "divide");

    let path = tmp("packed.lsnap");
    save_division(&path, graph, &divided).unwrap();
    let loaded = load_division(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_packed(&loaded, graph, "load_division");

    let shards: Vec<DivisionShard> = (0..3u32)
        .map(|i| {
            let range = DivisionShard::ego_range(i, 3, graph.num_nodes());
            let shard = DivisionShard {
                ego_start: range.start,
                ego_end: range.end,
                num_nodes: graph.num_nodes() as u32,
                shard_index: i,
                shard_count: 3,
                communities: divide_range(graph, range, &config),
            };
            shard_from_bytes(&shard_to_bytes(&shard)).unwrap()
        })
        .collect();
    let merged = merge_shards(graph, shards, config.threads).unwrap();
    assert_packed(&merged, graph, "merge_shards");
    assert_eq!(merged.communities, divided.communities);

    let mut graph = graph.clone();
    let mut division = loaded;
    for batch in 1..=10 {
        let delta = churn(&graph, batch);
        let evolved = graph.apply_delta(&delta).unwrap().graph;
        let dirty = dirty_egos(&graph, &delta);
        division = divide_update_owned(&evolved, division, &dirty, &config);
        graph = evolved;
        assert_packed(&division, &graph, &format!("update batch {batch}"));
    }
    let full = divide(&graph, &config);
    assert_eq!(division.communities, full.communities);
    assert_eq!(division.membership_table(), full.membership_table());
}

//! Delta snapshots: persisted edge-event streams and incremental division
//! updates.
//!
//! Two snapshot kinds extend the pipeline to evolving graphs:
//!
//! * **world-delta** ([`save_world_delta`] / [`load_world_delta`]) persists
//!   a [`WorldDelta`] — timestamped insert/remove edge batches with an
//!   interaction row per inserted edge. [`apply_world_delta`] replays it
//!   against a [`StoredWorld`], rebuilding the graph canonically and
//!   migrating every per-edge payload (interactions, labels, train/test
//!   split) across the edge-id renumbering via the delta application's
//!   provenance. Labels of removed edges are dropped; inserted edges
//!   arrive unlabeled, as in production.
//! * **division-delta** ([`save_division_delta`] / [`load_division_delta`])
//!   persists only what an incremental Phase I run recomputed: the dirty
//!   egos and their re-divided communities. [`apply_division_delta`]
//!   splices it into a base division against the evolved graph,
//!   reproducing a full `divide` of that graph bit for bit — the property
//!   `locec divide --update` is built on.
//!
//! Both kinds use the same container discipline as every other snapshot:
//! magic + section table + per-section CRC32, little-endian columnar
//! payloads, typed errors on malformation.

use crate::division::{add_community_sections, read_community_sections};
use crate::format::{Enc, Snapshot, SnapshotError, SnapshotKind, SnapshotWriter};
use crate::world::StoredWorld;
use locec_core::phase1::{splice_update, DivisionResult, LocalCommunity};
use locec_graph::{EdgeOrigin, GraphDelta, NodeId};
use locec_synth::evolve::{EdgeEventBatch, WorldDelta};
use locec_synth::interactions::EdgeInteractions;
use locec_synth::types::INTERACTION_DIMS;
use std::path::Path;

/// Writes a world-delta snapshot. Batches are stored verbatim (arrival
/// order preserved), columnar: per-batch bounds plus flat insert, row and
/// remove columns.
pub fn save_world_delta(path: &Path, delta: &WorldDelta) -> Result<(), SnapshotError> {
    let mut w = SnapshotWriter::new(SnapshotKind::WorldDelta);

    let mut meta = Enc::new();
    meta.u32(delta.num_nodes);
    meta.u64(delta.base_num_edges);
    meta.u64(delta.batches.len() as u64);
    w.add("meta", meta.finish());

    let mut bounds = Enc::new();
    for b in &delta.batches {
        bounds.u32(b.time);
        bounds.u64(b.inserts.len() as u64);
        bounds.u64(b.removes.len() as u64);
    }
    w.add("batch_bounds", bounds.finish());

    let mut inserts = Enc::new();
    let mut rows = Enc::new();
    let mut removes = Enc::new();
    for b in &delta.batches {
        for &(u, v) in &b.inserts {
            inserts.u32(u);
            inserts.u32(v);
        }
        for row in &b.insert_interactions {
            rows.f32_slice(row);
        }
        for &(u, v) in &b.removes {
            removes.u32(u);
            removes.u32(v);
        }
    }
    w.add("inserts", inserts.finish());
    w.add("insert_interactions", rows.finish());
    w.add("removes", removes.finish());

    w.write_to(path)
}

/// Reads a world-delta snapshot back, bit-identically, validating pair
/// canonicality and cross-section consistency.
pub fn load_world_delta(path: &Path) -> Result<WorldDelta, SnapshotError> {
    let snap = Snapshot::read_from(path)?;
    snap.expect_kind(SnapshotKind::WorldDelta)?;

    let mut dec = snap.section("meta")?;
    let num_nodes = dec.u32()?;
    let base_num_edges = dec.u64()?;
    let num_batches = dec.count()?;
    dec.done()?;

    // Every count below comes from the (CRC-valid but untrusted) file, so
    // nothing may allocate from or add counts before they are bounded:
    // a crafted snapshot must surface as a typed error, never an abort,
    // wrap or panic. `Vec::new` + push keeps allocation proportional to
    // the actual section bytes, which `Dec` bounds-checks per read.
    let mut dec = snap.section("batch_bounds")?;
    let mut bounds = Vec::new();
    for _ in 0..num_batches {
        let time = dec.u32()?;
        let n_ins = dec.count()?;
        let n_rem = dec.count()?;
        bounds.push((time, n_ins, n_rem));
    }
    dec.done()?;

    let checked_total = |pick: fn(&(u32, usize, usize)) -> usize| {
        bounds
            .iter()
            .try_fold(0usize, |acc, b| acc.checked_add(pick(b)))
            .ok_or(SnapshotError::Corrupt("event count overflow"))
    };
    let total_inserts = checked_total(|b| b.1)?;
    let total_removes = checked_total(|b| b.2)?;

    let read_pairs = |name: &'static str, count: usize| -> Result<Vec<(u32, u32)>, SnapshotError> {
        let mut dec = snap.section(name)?;
        let flat = dec.u32_vec(
            count
                .checked_mul(2)
                .ok_or(SnapshotError::Corrupt("event count overflow"))?,
        )?;
        dec.done()?;
        let pairs: Vec<(u32, u32)> = flat.chunks_exact(2).map(|c| (c[0], c[1])).collect();
        for &(u, v) in &pairs {
            if u >= v || v >= num_nodes {
                return Err(SnapshotError::Corrupt("delta edge pair is not canonical"));
            }
        }
        Ok(pairs)
    };
    let inserts = read_pairs("inserts", total_inserts)?;
    let removes = read_pairs("removes", total_removes)?;

    let mut dec = snap.section("insert_interactions")?;
    let flat = dec.f32_vec(
        total_inserts
            .checked_mul(INTERACTION_DIMS)
            .ok_or(SnapshotError::Corrupt("interaction row overflow"))?,
    )?;
    dec.done()?;
    let rows: Vec<[f32; INTERACTION_DIMS]> = crate::format::rows_of(&flat);

    let mut batches = Vec::with_capacity(num_batches);
    let (mut ins_at, mut rem_at) = (0usize, 0usize);
    for (time, n_ins, n_rem) in bounds {
        batches.push(EdgeEventBatch {
            time,
            inserts: inserts[ins_at..ins_at + n_ins].to_vec(),
            insert_interactions: rows[ins_at..ins_at + n_ins].to_vec(),
            removes: removes[rem_at..rem_at + n_rem].to_vec(),
        });
        ins_at += n_ins;
        rem_at += n_rem;
    }

    Ok(WorldDelta {
        num_nodes,
        base_num_edges,
        batches,
    })
}

/// Replays an edge-event stream against a stored world: evolves the graph
/// and migrates interactions, the labeled edge set and the train/test
/// split across the edge-id renumbering. Fails (typed, never panicking) if
/// the delta was recorded against a different world.
pub fn apply_world_delta(
    world: &StoredWorld,
    delta: &WorldDelta,
) -> Result<StoredWorld, SnapshotError> {
    if delta.num_nodes as usize != world.graph.num_nodes()
        || delta.base_num_edges as usize != world.graph.num_edges()
    {
        return Err(SnapshotError::Corrupt(
            "world delta was recorded against a different world",
        ));
    }
    let (insert_pairs, insert_rows, remove_pairs) = delta.flatten();
    let graph_delta = GraphDelta::new(world.graph.num_nodes(), insert_pairs, remove_pairs)
        .map_err(SnapshotError::Corrupt)?;
    let applied = world
        .graph
        .apply_delta(&graph_delta)
        .map_err(SnapshotError::Corrupt)?;

    // Interactions: one row per evolved edge, pulled from the base world or
    // the delta according to provenance. `GraphDelta::new` preserves the
    // (already sorted, duplicate-free) order of `flatten`'s insert list, so
    // `Inserted(i)` indexes `insert_rows` directly.
    let rows: Vec<[f32; INTERACTION_DIMS]> = applied
        .provenance
        .iter()
        .map(|origin| match *origin {
            EdgeOrigin::Kept(old) => *world.interactions.edge(old),
            EdgeOrigin::Inserted(i) => insert_rows[i as usize],
        })
        .collect();

    // Labels follow surviving edges to their new ids.
    let base_map = applied.base_edge_map(world.graph.num_edges());
    let remap = |pairs: &[(locec_graph::EdgeId, locec_synth::types::RelationType)]| {
        pairs
            .iter()
            .filter_map(|&(e, t)| base_map[e.index()].map(|ne| (ne, t)))
            .collect::<Vec<_>>()
    };
    let labeled_edges = world
        .labeled_edges
        .iter()
        .filter_map(|(&e, &t)| base_map[e.index()].map(|ne| (ne, t)))
        .collect();

    Ok(StoredWorld {
        graph: applied.graph,
        user_features: world.user_features.clone(),
        interactions: EdgeInteractions::from_rows(rows),
        labeled_edges,
        train_edges: remap(&world.train_edges),
        test_edges: remap(&world.test_edges),
    })
}

/// The incremental complement of a full division snapshot: the egos one
/// world delta dirtied, and their re-divided communities — nothing else.
/// At 1% churn this is two orders of magnitude smaller than the full
/// division it updates.
pub struct DivisionDelta {
    /// Node count of the evolved graph the delta was computed on.
    pub num_nodes: u32,
    /// The dirty egos (ascending, deduplicated).
    pub dirty: Vec<NodeId>,
    /// Re-divided communities of exactly the dirty egos, in ego order.
    pub communities: Vec<LocalCommunity>,
}

/// Writes a division-delta snapshot.
pub fn save_division_delta(path: &Path, delta: &DivisionDelta) -> Result<(), SnapshotError> {
    let mut w = SnapshotWriter::new(SnapshotKind::DivisionDelta);
    let mut meta = Enc::new();
    meta.u32(delta.num_nodes);
    meta.u64(delta.dirty.len() as u64);
    w.add("meta", meta.finish());
    let mut dirty = Enc::new();
    for &d in &delta.dirty {
        dirty.u32(d.0);
    }
    w.add("dirty", dirty.finish());
    add_community_sections(&mut w, &delta.communities);
    w.write_to(path)
}

/// Reads a division-delta snapshot back, validating that the dirty list is
/// ascending and that every community belongs to a dirty ego.
pub fn load_division_delta(path: &Path) -> Result<DivisionDelta, SnapshotError> {
    let snap = Snapshot::read_from(path)?;
    snap.expect_kind(SnapshotKind::DivisionDelta)?;
    let mut dec = snap.section("meta")?;
    let num_nodes = dec.u32()?;
    let dirty_count = dec.count()?;
    dec.done()?;
    let mut dec = snap.section("dirty")?;
    let dirty_raw = dec.u32_vec(dirty_count)?;
    dec.done()?;
    if dirty_raw.windows(2).any(|w| w[0] >= w[1]) {
        return Err(SnapshotError::Corrupt("dirty egos are not ascending"));
    }
    if dirty_raw.iter().any(|&d| d >= num_nodes) {
        return Err(SnapshotError::Corrupt("dirty ego out of node range"));
    }
    let communities = read_community_sections(&snap, num_nodes)?;
    if communities
        .iter()
        .any(|c| dirty_raw.binary_search(&c.ego.0).is_err())
    {
        return Err(SnapshotError::Corrupt(
            "division delta has a community of a non-dirty ego",
        ));
    }
    Ok(DivisionDelta {
        num_nodes,
        dirty: dirty_raw.into_iter().map(NodeId).collect(),
        communities,
    })
}

/// Splices a division delta into a base division against the evolved
/// graph. Provided the artifacts belong together — the base division was
/// computed on the pre-delta graph and the delta's communities on
/// `graph` — the result is bit-identical to a full
/// [`locec_core::phase1::divide`] of `graph`.
pub fn apply_division_delta(
    graph: &locec_graph::CsrGraph,
    base: DivisionResult,
    delta: DivisionDelta,
    threads: usize,
) -> Result<DivisionResult, SnapshotError> {
    if delta.num_nodes as usize != graph.num_nodes() {
        return Err(SnapshotError::Corrupt(
            "division delta computed on a different graph",
        ));
    }
    crate::division::validate_members_are_neighbors(graph, &delta.communities)?;
    Ok(splice_update(
        graph,
        base,
        &delta.dirty,
        delta.communities,
        threads,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use locec_core::phase1::{divide, divide_egos, divide_update};
    use locec_core::LocecConfig;
    use locec_graph::dirty_egos;
    use locec_synth::evolve::EvolveConfig;
    use locec_synth::{Scenario, SynthConfig};

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("locec_delta_{}_{name}", std::process::id()))
    }

    fn world_and_delta() -> (StoredWorld, WorldDelta) {
        let scenario = Scenario::generate(&SynthConfig::tiny(31));
        let world = StoredWorld::from_scenario(&scenario, 0.8, 7);
        let delta = scenario.evolve(&EvolveConfig {
            seed: 5,
            insert_fraction: 0.02,
            remove_fraction: 0.02,
            ..Default::default()
        });
        (world, delta)
    }

    #[test]
    fn world_delta_roundtrip_is_bit_identical() {
        let (_, delta) = world_and_delta();
        let path = tmp("wd_roundtrip.lsnap");
        save_world_delta(&path, &delta).unwrap();
        let loaded = load_world_delta(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.num_nodes, delta.num_nodes);
        assert_eq!(loaded.base_num_edges, delta.base_num_edges);
        assert_eq!(loaded.batches.len(), delta.batches.len());
        for (a, b) in loaded.batches.iter().zip(&delta.batches) {
            assert_eq!(a.time, b.time);
            assert_eq!(a.inserts, b.inserts);
            assert_eq!(a.removes, b.removes);
            let bits = |rows: &[[f32; INTERACTION_DIMS]]| {
                rows.iter()
                    .flat_map(|r| r.iter().map(|v| v.to_bits()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(&a.insert_interactions), bits(&b.insert_interactions));
        }
    }

    #[test]
    fn apply_world_delta_migrates_every_per_edge_payload() {
        let (world, delta) = world_and_delta();
        let evolved = apply_world_delta(&world, &delta).unwrap();
        let expected_edges = world.graph.num_edges() + delta.num_inserts() - delta.num_removes();
        assert_eq!(evolved.graph.num_edges(), expected_edges);
        assert_eq!(evolved.graph.num_nodes(), world.graph.num_nodes());
        assert_eq!(evolved.user_features, world.user_features);
        assert_eq!(evolved.interactions.num_edges(), expected_edges);

        // Surviving edges carry their old interaction rows and labels.
        let (inserts, _, removes) = delta.flatten();
        let gd = GraphDelta::new(world.graph.num_nodes(), inserts, removes).unwrap();
        let applied = world.graph.apply_delta(&gd).unwrap();
        let base_map = applied.base_edge_map(world.graph.num_edges());
        for (e, u, v) in world.graph.edges() {
            match base_map[e.index()] {
                Some(ne) => {
                    assert_eq!(evolved.graph.endpoints(ne), (u, v));
                    assert_eq!(evolved.interactions.edge(ne), world.interactions.edge(e));
                    assert_eq!(
                        evolved.labeled_edges.get(&ne),
                        world.labeled_edges.get(&e),
                        "label must follow the surviving edge"
                    );
                }
                None => assert!(gd.removes().contains(&(u.0, v.0))),
            }
        }
        // The split stays consistent: train/test edges are survivors with
        // their labels intact and no removed edge lingers.
        assert!(evolved.train_edges.len() <= world.train_edges.len());
        for &(e, t) in evolved.train_edges.iter().chain(&evolved.test_edges) {
            assert_eq!(evolved.labeled_edges.get(&e), Some(&t));
        }
    }

    #[test]
    fn apply_world_delta_rejects_foreign_worlds() {
        let (world, _) = world_and_delta();
        let other = Scenario::generate(&SynthConfig::tiny(99));
        let foreign = other.evolve(&EvolveConfig::default());
        assert!(matches!(
            apply_world_delta(&world, &foreign),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn division_delta_roundtrip_and_apply_reproduce_full_divide() {
        let (world, delta) = world_and_delta();
        let config = LocecConfig::fast();
        let base_division = divide(&world.graph, &config);

        let (inserts, _, removes) = delta.flatten();
        let gd = GraphDelta::new(world.graph.num_nodes(), inserts, removes).unwrap();
        let applied = world.graph.apply_delta(&gd).unwrap();
        let dirty = dirty_egos(&world.graph, &gd);
        let fresh = divide_egos(&applied.graph, &dirty, &config);

        let dd = DivisionDelta {
            num_nodes: applied.graph.num_nodes() as u32,
            dirty: dirty.clone(),
            communities: fresh,
        };
        let path = tmp("dd_roundtrip.lsnap");
        save_division_delta(&path, &dd).unwrap();
        let loaded = load_division_delta(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.num_nodes, dd.num_nodes);
        assert_eq!(loaded.dirty, dd.dirty);
        assert_eq!(loaded.communities.len(), dd.communities.len());

        let spliced = apply_division_delta(
            &applied.graph,
            base_division.clone(),
            loaded,
            config.threads,
        )
        .unwrap();
        let full = divide(&applied.graph, &config);
        let updated = divide_update(&applied.graph, &base_division, &dirty, &config);
        for reference in [&full, &updated] {
            assert_eq!(spliced.num_communities(), reference.num_communities());
            for (a, b) in spliced.communities.iter().zip(&reference.communities) {
                assert_eq!(a.ego, b.ego);
                assert_eq!(a.members, b.members);
                assert_eq!(
                    a.tightness.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
                    b.tightness.iter().map(|t| t.to_bits()).collect::<Vec<_>>()
                );
            }
            assert_eq!(spliced.membership_table(), reference.membership_table());
        }
    }

    #[test]
    fn corrupted_delta_snapshots_yield_typed_errors() {
        let (_, delta) = world_and_delta();
        let path = tmp("wd_corrupt.lsnap");
        save_world_delta(&path, &delta).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_world_delta(&path),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        // Truncations never panic.
        let intact = {
            save_world_delta(&path, &delta).unwrap();
            std::fs::read(&path).unwrap()
        };
        for cut in (0..intact.len()).step_by(17) {
            std::fs::write(&path, &intact[..cut]).unwrap();
            assert!(load_world_delta(&path).is_err());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn division_delta_rejects_wrong_graph_and_stray_communities() {
        let (world, delta) = world_and_delta();
        let config = LocecConfig::fast();
        let base_division = divide(&world.graph, &config);
        let (inserts, _, removes) = delta.flatten();
        let gd = GraphDelta::new(world.graph.num_nodes(), inserts, removes).unwrap();
        let applied = world.graph.apply_delta(&gd).unwrap();
        let dirty = dirty_egos(&world.graph, &gd);
        let fresh = divide_egos(&applied.graph, &dirty, &config);

        // Node-count mismatch.
        let dd = DivisionDelta {
            num_nodes: applied.graph.num_nodes() as u32 + 1,
            dirty: dirty.clone(),
            communities: fresh.clone(),
        };
        assert!(apply_division_delta(&applied.graph, base_division.clone(), dd, 2).is_err());

        // A community whose member is not a neighbor of its ego in this
        // graph must be rejected before it can corrupt the membership walk.
        let ego = NodeId(0);
        let non_neighbor = (1..applied.graph.num_nodes() as u32)
            .map(NodeId)
            .find(|&v| !applied.graph.has_edge(ego, v))
            .expect("node 0 is not adjacent to everyone");
        let stray = LocalCommunity {
            ego,
            members: vec![non_neighbor],
            tightness: vec![1.0],
        };
        let mut dirty2 = dirty.clone();
        if dirty2.binary_search(&stray.ego).is_err() {
            dirty2.push(stray.ego);
            dirty2.sort_unstable();
        }
        let mut communities = fresh;
        communities.push(stray);
        communities.sort_by_key(|c| c.ego);
        let dd = DivisionDelta {
            num_nodes: applied.graph.num_nodes() as u32,
            dirty: dirty2,
            communities,
        };
        assert!(apply_division_delta(&applied.graph, base_division, dd, 2).is_err());
    }
}

//! The Girvan–Newman divisive community detection algorithm.
//!
//! Paper §IV-A: *"we adopt the Girvan-Newman community detection algorithm
//! (GN) to detect local communities in the ego networks."* GN repeatedly
//! removes the edge with the highest betweenness; the connected components
//! after each removal form a dendrogram of nested partitions, and the
//! partition with maximum modularity (measured on the original graph) is
//! returned.
//!
//! Complexity is `O(m² n)` worst case, acceptable because ego networks are
//! small (paper Fig. 10a: median community size 8, 90% below 30 members).
//! The production path ([`girvan_newman_with`]) is engineered for Phase I
//! throughput:
//!
//! * betweenness scores live in a flat `Vec<f64>` indexed by the graph's
//!   [`EdgeId`]s (plus an `alive` bitmask) — the max-edge scan and the
//!   incremental rescore are pure array arithmetic, no hash maps;
//! * after a removal, betweenness is recomputed only from the nodes of the
//!   component(s) the removed edge belonged to, read off the component
//!   member lists that connected-components labelling already produced —
//!   not a full `0..n` scan per removal;
//! * every buffer (mutable graph, Brandes workspace, component tables)
//!   lives in a caller-owned [`GnScratch`], so one worker detecting
//!   communities in millions of ego networks allocates only when an ego
//!   network outgrows every predecessor;
//! * the loop stops early once every component is smaller than
//!   [`GirvanNewmanConfig::min_split_size`], since no better modularity can
//!   be found by splitting further in LoCEC's regime.
//!
//! [`girvan_newman_reference`] preserves the original hash-map formulation
//! as an executable specification; property tests assert the fast path
//! returns identical partitions.

use crate::betweenness::{edge_betweenness_flat_into, edge_betweenness_from, BrandesWorkspace};
use crate::modularity::{modularity, modularity_of_labels};
use crate::partition::Partition;
use locec_graph::{
    connected_components, connected_components_into, group_members, CsrGraph, EdgeId, MutableGraph,
    NodeId,
};
use std::collections::{HashMap, VecDeque};

/// Tuning knobs for [`girvan_newman`].
#[derive(Clone, Debug)]
pub struct GirvanNewmanConfig {
    /// Stop splitting components smaller than this (default 2 = split all
    /// the way; the dendrogram is still scanned for the best modularity).
    pub min_split_size: usize,
    /// Hard cap on edge removals (safety valve for huge inputs; `usize::MAX`
    /// by default).
    pub max_removals: usize,
}

impl Default for GirvanNewmanConfig {
    fn default() -> Self {
        GirvanNewmanConfig {
            min_split_size: 2,
            max_removals: usize::MAX,
        }
    }
}

/// Reusable buffers for [`girvan_newman_with`]. One instance per worker
/// thread makes repeated GN runs allocation-free in steady state.
#[derive(Clone, Debug, Default)]
pub struct GnScratch {
    /// Mutable copy of the input graph that edges are removed from.
    work: MutableGraph,
    /// Brandes per-source state.
    ws: BrandesWorkspace,
    /// Flat betweenness scores indexed by `EdgeId`.
    scores: Vec<f64>,
    /// Whether each edge is still present in `work`.
    alive: Vec<bool>,
    /// Component labels after the latest removal.
    labels: Vec<u32>,
    /// BFS queue for component labelling.
    queue: VecDeque<NodeId>,
    /// CSR-style component member table (offsets into `comp_members`).
    comp_offsets: Vec<u32>,
    comp_members: Vec<NodeId>,
    /// Ascending union of the two affected components' members.
    affected: Vec<NodeId>,
    /// Modularity accumulators (per-community intra-edge and degree sums).
    intra: Vec<f64>,
    degree_sum: Vec<f64>,
}

/// Runs Girvan–Newman on `g` and returns the modularity-maximizing
/// partition of its dendrogram (ties broken toward fewer removals).
///
/// An edgeless or empty graph yields the singleton partition.
pub fn girvan_newman(g: &CsrGraph, config: &GirvanNewmanConfig) -> Partition {
    girvan_newman_with(g, config, &mut GnScratch::default())
}

/// [`girvan_newman`] with caller-owned scratch buffers — the Phase I hot
/// path. Results are identical to [`girvan_newman_reference`].
pub fn girvan_newman_with(
    g: &CsrGraph,
    config: &GirvanNewmanConfig,
    scratch: &mut GnScratch,
) -> Partition {
    let n = g.num_nodes();
    if n == 0 || g.num_edges() == 0 {
        return Partition::singletons(n);
    }
    let m = g.num_edges();

    let s = scratch;
    s.work.rebuild_from_csr(g);

    // Initial components and betweenness over the full graph. Component
    // labels are already dense and canonical, so they are usable directly
    // as a partition's labels — `Partition::from_labels` is only invoked
    // when a new best is found.
    let num_comp = connected_components_into(&s.work, &mut s.labels, &mut s.queue);
    let mut best_partition = Partition::from_labels(&s.labels);
    let mut best_q = modularity_of_labels(g, &s.labels, num_comp, &mut s.intra, &mut s.degree_sum);

    s.scores.clear();
    s.scores.resize(m, 0.0);
    s.alive.clear();
    s.alive.resize(m, true);
    edge_betweenness_flat_into(&s.work, None, &mut s.scores, &mut s.ws);

    let mut removals = 0usize;
    while s.work.num_edges() > 0 && removals < config.max_removals {
        // Pick the max-betweenness live edge; ties break toward the
        // smallest canonical endpoint pair, keeping runs reproducible and
        // matching the reference implementation's ordering.
        let mut best_edge: Option<EdgeId> = None;
        for e in 0..m {
            if !s.alive[e] {
                continue;
            }
            let better = match best_edge {
                None => true,
                Some(b) => {
                    let (sb, se) = (s.scores[b.index()], s.scores[e]);
                    se > sb || (se == sb && g.endpoints(EdgeId(e as u32)) < g.endpoints(b))
                }
            };
            if better {
                best_edge = Some(EdgeId(e as u32));
            }
        }
        let Some(edge) = best_edge else { break };
        let (u, v) = g.endpoints(edge);

        s.work.remove_edge(u, v);
        s.alive[edge.index()] = false;
        removals += 1;

        let num_comp = connected_components_into(&s.work, &mut s.labels, &mut s.queue);
        let q = modularity_of_labels(g, &s.labels, num_comp, &mut s.intra, &mut s.degree_sum);
        if q > best_q + 1e-12 {
            best_q = q;
            best_partition = Partition::from_labels(&s.labels);
        }

        // Component member lists (CSR layout, ascending node order within
        // each component — `connected_components` labels follow node order).
        group_members(
            &s.labels,
            num_comp,
            &mut s.comp_offsets,
            &mut s.comp_members,
        );

        // Early exit: all components below the split threshold.
        let all_small = (0..num_comp)
            .all(|c| (s.comp_offsets[c + 1] - s.comp_offsets[c]) < config.min_split_size as u32);
        if all_small {
            break;
        }

        // Recompute betweenness only inside the affected component(s): the
        // nodes that were in (u ∪ v)'s component before removal are exactly
        // the union of u's and v's components after removal. Read them off
        // the member lists instead of scanning every node, and merge to
        // ascending node order so the source iteration (and therefore the
        // floating-point accumulation) matches a full recomputation.
        let cu = s.labels[u.index()] as usize;
        let cv = s.labels[v.index()] as usize;
        s.affected.clear();
        let members = |c: usize| (s.comp_offsets[c] as usize)..(s.comp_offsets[c + 1] as usize);
        if cu == cv {
            s.affected.extend_from_slice(&s.comp_members[members(cu)]);
        } else {
            let (mut i, mut j) = (members(cu).start, members(cv).start);
            let (iend, jend) = (members(cu).end, members(cv).end);
            while i < iend && j < jend {
                if s.comp_members[i] < s.comp_members[j] {
                    s.affected.push(s.comp_members[i]);
                    i += 1;
                } else {
                    s.affected.push(s.comp_members[j]);
                    j += 1;
                }
            }
            s.affected.extend_from_slice(&s.comp_members[i..iend]);
            s.affected.extend_from_slice(&s.comp_members[j..jend]);
        }

        // Zero the stale scores of every live edge inside the affected node
        // set (any edge incident to an affected node has both endpoints in
        // the same component, hence both affected), then accumulate fresh
        // contributions from the affected sources.
        for &w in &s.affected {
            for (&x, &e) in s.work.neighbors(w).iter().zip(s.work.neighbor_edge_ids(w)) {
                if w < x {
                    s.scores[e.index()] = 0.0;
                }
            }
        }
        edge_betweenness_flat_into(&s.work, Some(&s.affected), &mut s.scores, &mut s.ws);
    }

    best_partition
}

/// The original hash-map Girvan–Newman, kept verbatim as an executable
/// specification of [`girvan_newman_with`]. Property tests assert both
/// return identical partitions on random graphs.
pub fn girvan_newman_reference(g: &CsrGraph, config: &GirvanNewmanConfig) -> Partition {
    let n = g.num_nodes();
    if n == 0 || g.num_edges() == 0 {
        return Partition::singletons(n);
    }

    let mut work = MutableGraph::from_csr(g);

    let mut best_partition = {
        let cc = connected_components(&work);
        Partition::from_labels(&cc.labels)
    };
    let mut best_q = modularity(g, &best_partition);

    let mut scores: HashMap<(NodeId, NodeId), f64> = edge_betweenness_from(&work, None);

    let mut removals = 0usize;
    while work.num_edges() > 0 && removals < config.max_removals {
        let (&(u, v), _) = match scores
            .iter()
            .filter(|(_, &s)| s.is_finite())
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap().then_with(|| b.0.cmp(a.0)))
        {
            Some(best) => best,
            None => break,
        };

        work.remove_edge(u, v);
        removals += 1;

        let cc = connected_components(&work);
        let partition = Partition::from_labels(&cc.labels);
        let q = modularity(g, &partition);
        if q > best_q + 1e-12 {
            best_q = q;
            best_partition = partition.clone();
        }

        if cc.sizes().iter().all(|&s| s < config.min_split_size) {
            break;
        }

        let cu = cc.component(u);
        let cv = cc.component(v);
        let affected: Vec<NodeId> = (0..work.num_nodes() as u32)
            .map(NodeId)
            .filter(|w| cc.component(*w) == cu || cc.component(*w) == cv)
            .collect();

        let in_affected: Vec<bool> = {
            let mut mask = vec![false; work.num_nodes()];
            for &w in &affected {
                mask[w.index()] = true;
            }
            mask
        };
        scores.retain(|&(a, b), _| !(in_affected[a.index()] && in_affected[b.index()]));
        scores.remove(&if u < v { (u, v) } else { (v, u) });

        for (k, sc) in edge_betweenness_from(&work, Some(&affected)) {
            scores.insert(k, sc);
        }
    }

    best_partition
}

#[cfg(test)]
mod tests {
    use super::*;
    use locec_graph::GraphBuilder;

    fn build(n: usize, edges: &[(u32, u32)]) -> CsrGraph {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in edges {
            b.add_edge(NodeId(u), NodeId(v));
        }
        b.build()
    }

    /// Runs both implementations and asserts they agree before returning
    /// the fast path's partition.
    fn gn_checked(g: &CsrGraph, config: &GirvanNewmanConfig) -> Partition {
        let fast = girvan_newman(g, config);
        let reference = girvan_newman_reference(g, config);
        assert_eq!(fast, reference, "fast GN diverged from the reference");
        fast
    }

    #[test]
    fn splits_barbell_at_the_bridge() {
        let g = build(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]);
        let p = gn_checked(&g, &GirvanNewmanConfig::default());
        assert_eq!(p.num_communities(), 2);
        assert!(p.same_community(NodeId(0), NodeId(2)));
        assert!(p.same_community(NodeId(3), NodeId(5)));
        assert!(!p.same_community(NodeId(0), NodeId(3)));
    }

    #[test]
    fn paper_fig7c_ego_network_communities() {
        // Ego network of U1 from paper Fig. 7(b): nodes {U2,U3,U4,U5,U6}
        // (locally 0..5), edges (U2,U3),(U2,U4),(U3,U4),(U4,U6),(U5,U6).
        // Fig. 7(c): communities C1={U2,U3,U4} and C2={U5,U6}.
        let g = build(5, &[(0, 1), (0, 2), (1, 2), (2, 4), (3, 4)]);
        let p = gn_checked(&g, &GirvanNewmanConfig::default());
        assert_eq!(p.num_communities(), 2);
        assert!(p.same_community(NodeId(0), NodeId(1)));
        assert!(p.same_community(NodeId(0), NodeId(2)));
        assert!(p.same_community(NodeId(3), NodeId(4)));
        assert!(!p.same_community(NodeId(2), NodeId(4)));
    }

    #[test]
    fn clique_stays_whole() {
        let mut edges = Vec::new();
        for i in 0..5u32 {
            for j in (i + 1)..5 {
                edges.push((i, j));
            }
        }
        let g = build(5, &edges);
        let p = gn_checked(&g, &GirvanNewmanConfig::default());
        assert_eq!(p.num_communities(), 1);
    }

    #[test]
    fn disconnected_components_stay_separate() {
        let g = build(5, &[(0, 1), (1, 2), (3, 4)]);
        let p = gn_checked(&g, &GirvanNewmanConfig::default());
        assert!(p.num_communities() >= 2);
        assert!(!p.same_community(NodeId(0), NodeId(3)));
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let p0 = gn_checked(&build(0, &[]), &GirvanNewmanConfig::default());
        assert_eq!(p0.num_nodes(), 0);
        let p1 = gn_checked(&build(4, &[]), &GirvanNewmanConfig::default());
        assert_eq!(p1.num_communities(), 4);
    }

    #[test]
    fn three_cliques_found() {
        let mut edges = Vec::new();
        for base in [0u32, 4, 8] {
            for i in 0..4u32 {
                for j in (i + 1)..4 {
                    edges.push((base + i, base + j));
                }
            }
        }
        // Sparse inter-clique links.
        edges.push((0, 4));
        edges.push((4, 8));
        let g = build(12, &edges);
        let p = gn_checked(&g, &GirvanNewmanConfig::default());
        assert_eq!(p.num_communities(), 3);
        for base in [0u32, 4, 8] {
            for i in 1..4u32 {
                assert!(p.same_community(NodeId(base), NodeId(base + i)));
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let g = build(
            6,
            &[
                (0, 1),
                (1, 2),
                (0, 2),
                (3, 4),
                (4, 5),
                (3, 5),
                (2, 3),
                (0, 5),
            ],
        );
        let p1 = gn_checked(&g, &GirvanNewmanConfig::default());
        let p2 = gn_checked(&g, &GirvanNewmanConfig::default());
        assert_eq!(p1, p2);
    }

    #[test]
    fn scratch_reuse_does_not_change_results() {
        let graphs = [
            build(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]),
            build(5, &[(0, 1), (0, 2), (1, 2), (2, 4), (3, 4)]),
            build(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]),
            build(3, &[]),
        ];
        let config = GirvanNewmanConfig::default();
        let mut scratch = GnScratch::default();
        for g in &graphs {
            let reused = girvan_newman_with(g, &config, &mut scratch);
            let fresh = girvan_newman(g, &config);
            assert_eq!(reused, fresh);
        }
        // Second pass over the same graphs with the now-warm scratch.
        for g in &graphs {
            let reused = girvan_newman_with(g, &config, &mut scratch);
            assert_eq!(reused, girvan_newman(g, &config));
        }
    }

    #[test]
    fn max_removals_cap_respected() {
        let g = build(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let cfg = GirvanNewmanConfig {
            max_removals: 1,
            ..Default::default()
        };
        // Must terminate and return a valid partition.
        let p = gn_checked(&g, &cfg);
        assert_eq!(p.num_nodes(), 4);
    }
}

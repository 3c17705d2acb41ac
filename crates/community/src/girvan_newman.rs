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
//!
//! There is one production implementation, [`girvan_newman_with`], and one
//! oracle, [`girvan_newman_reference`] (the original hash-map formulation,
//! kept verbatim as the executable specification). Property tests and a
//! golden division digest (`crates/store/tests/division_golden.rs`) hold
//! the two to identical partitions.
//!
//! # How the production path works
//!
//! The work graph is a [`BitGraph`]: one word-bitset row per node, for
//! every graph size. Removing an edge clears two bits; a component is a
//! mask found by flooding rows; betweenness is Brandes over
//! shortest-path-DAG edges only (see [`crate::betweenness`] for the kernel
//! and the ordering invariant that keeps its scores bit-identical to the
//! oracle's). Around it the loop does only what a removal can change:
//!
//! * **The arg-max** scans a compact list of the live edge ids. The order
//!   `(score, then smallest canonical endpoint pair)` is total, so the
//!   list's own order — it is `swap_remove`d — cannot change the winner.
//! * **A removal that splits nothing** (three in five) leaves the partition
//!   as it was, so its modularity is the same `f64` to the bit, `best_q`
//!   cannot move and the early-exit test reads as before: labels,
//!   modularity and the split test are skipped outright. Whether it split
//!   is read off the flood from one endpoint, whose mask is also the set of
//!   sources whose shortest paths the removal can have changed.
//! * **A removal that splits** a component relabels in place — the half
//!   that lost the component's smallest node takes the next label after
//!   every component that starts below it, later labels shift up by one,
//!   which is exactly the canonical smallest-member numbering a fresh
//!   labelling would give — and evaluates [`modularity_of_labels`] with the
//!   same fold as ever.
//! * **Betweenness** is then recomputed from the members of the affected
//!   component(s) only, ascending, into zeroed slots — the same addends in
//!   the same order as a full recomputation gives those edges.
//! * The loop stops early once every component is smaller than
//!   [`GirvanNewmanConfig::min_split_size`].
//!
//! Every buffer lives in a caller-owned [`GnScratch`], so one worker
//! detecting communities in millions of ego networks allocates only when
//! an ego network outgrows every predecessor.

use crate::betweenness::{edge_betweenness_from, has_bit, set_bits, BitGraph};
use crate::modularity::{modularity, modularity_of_labels};
use crate::partition::Partition;
use locec_graph::{connected_components, CsrGraph, EdgeId, MutableGraph, NodeId};
use std::collections::HashMap;

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
    /// Edges the last run removed.
    pub removals: u64,
    /// Removals of the last run that split a component.
    pub splits: u64,
    /// Sources the last run ran Brandes from, the initial full pass
    /// included.
    pub brandes_sources: u64,
    /// The work graph edges are removed from, and the Brandes state.
    bits: BitGraph,
    /// Flat betweenness scores indexed by `EdgeId`.
    scores: Vec<f64>,
    /// Ids of the edges still present, in no particular order.
    live: Vec<EdgeId>,
    /// Canonical component labels after the latest removal.
    labels: Vec<u32>,
    /// Component masks of the removed edge's two endpoints.
    side_u: Vec<u64>,
    side_v: Vec<u64>,
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
    let s = scratch;
    (s.removals, s.splits, s.brandes_sources) = (0, 0, 0);
    let n = g.num_nodes();
    if n == 0 || g.num_edges() == 0 {
        return Partition::singletons(n);
    }
    s.bits.load(g);

    // Initial components, labelled in smallest-member order: dense and
    // canonical, so usable directly as a partition's labels.
    // `Partition::from_labels` is only invoked when a new best is found.
    const UNLABELLED: u32 = u32::MAX;
    s.labels.clear();
    s.labels.resize(n, UNLABELLED);
    let mut num_comp = 0usize;
    // Components of at least `min_split_size` nodes; the loop ends at zero.
    let mut splittable = 0usize;
    for start in 0..n {
        if s.labels[start] != UNLABELLED {
            continue;
        }
        s.bits.component_of(start, &mut s.side_u);
        let mut size = 0usize;
        for x in set_bits(&s.side_u) {
            s.labels[x] = num_comp as u32;
            size += 1;
        }
        splittable += usize::from(size >= config.min_split_size);
        num_comp += 1;
    }
    let mut best_partition = Partition::from_labels(&s.labels);
    let mut best_q = modularity_of_labels(g, &s.labels, num_comp, &mut s.intra, &mut s.degree_sum);

    s.scores.clear();
    s.scores.resize(g.num_edges(), 0.0);
    s.live.clear();
    s.live.extend((0..g.num_edges() as u32).map(EdgeId));
    for source in 0..n {
        s.bits.accumulate_from(source, &mut s.scores);
    }
    s.brandes_sources += n as u64;

    while !s.live.is_empty() && s.removals < config.max_removals as u64 {
        // Pick the max-betweenness live edge; ties break toward the
        // smallest canonical endpoint pair, keeping runs reproducible and
        // matching the reference implementation's ordering.
        let mut best = 0usize;
        for i in 1..s.live.len() {
            let (eb, ei) = (s.live[best], s.live[i]);
            let (sb, si) = (s.scores[eb.index()], s.scores[ei.index()]);
            if si > sb || (si == sb && g.endpoints(ei) < g.endpoints(eb)) {
                best = i;
            }
        }
        let (u, v) = g.endpoints(s.live.swap_remove(best));
        let (u, v) = (u.index(), v.index());
        s.bits.remove_edge(u, v);
        s.removals += 1;

        // `side_u` becomes the node set whose shortest paths the removal
        // can have changed: the component (u ∪ v) was before it.
        s.bits.component_of(u, &mut s.side_u);
        if !has_bit(&s.side_u, v) {
            s.splits += 1;
            s.bits.component_of(v, &mut s.side_v);
            let first = |side: &[u64]| set_bits(side).next().expect("a side holds its endpoint");
            let (first_u, first_v) = (first(&s.side_u), first(&s.side_v));
            let (moved, moved_first) = if first_u < first_v {
                (&s.side_v, first_v)
            } else {
                (&s.side_u, first_u)
            };
            // Labels follow smallest members, so the components starting
            // below `moved_first` are exactly those of the nodes below it.
            let label = 1 + *s.labels[..moved_first]
                .iter()
                .max()
                .expect("the kept side starts below the moved one");
            for l in s.labels.iter_mut() {
                *l += u32::from(*l >= label);
            }
            for x in set_bits(moved) {
                s.labels[x] = label;
            }
            num_comp += 1;

            let q = modularity_of_labels(g, &s.labels, num_comp, &mut s.intra, &mut s.degree_sum);
            if q > best_q + 1e-12 {
                best_q = q;
                best_partition = Partition::from_labels(&s.labels);
            }

            let (size_u, size_v) = (set_bits(&s.side_u).count(), set_bits(&s.side_v).count());
            let min = config.min_split_size;
            splittable += usize::from(size_u >= min) + usize::from(size_v >= min);
            splittable -= usize::from(size_u + size_v >= min);

            for (a, b) in s.side_u.iter_mut().zip(&s.side_v) {
                *a |= b;
            }
        }

        // Early exit: all components below the split threshold.
        if splittable == 0 {
            break;
        }

        s.brandes_sources += s.bits.rescore(&s.side_u, &mut s.scores);
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

    #[test]
    fn max_removals_hit_on_a_non_splitting_removal() {
        // Two 4-cliques joined by two links: the first removals split
        // nothing, so every cap below the first split stops on the
        // skip-the-bookkeeping path and must still return the oracle's
        // answer (the initial partition).
        let mut edges = vec![(3, 4), (0, 7)];
        for base in [0u32, 4] {
            for i in 0..4u32 {
                for j in (i + 1)..4 {
                    edges.push((base + i, base + j));
                }
            }
        }
        let g = build(8, &edges);
        let mut scratch = GnScratch::default();
        for max_removals in 0..=4 {
            let cfg = GirvanNewmanConfig {
                max_removals,
                ..Default::default()
            };
            let p = girvan_newman_with(&g, &cfg, &mut scratch);
            assert_eq!(p, girvan_newman_reference(&g, &cfg), "cap {max_removals}");
            assert_eq!(scratch.removals, max_removals as u64);
            if max_removals < 2 {
                assert_eq!(scratch.splits, 0);
                assert_eq!(p.num_communities(), 1);
            }
        }
    }

    #[test]
    fn min_split_size_above_two_matches_the_reference() {
        // A path of triangles and pendant nodes: thresholds 3..=9 stop the
        // loop at different depths, including before the first split
        // (threshold above every component) and on the very first removal.
        let g = build(
            10,
            &[
                (0, 1),
                (1, 2),
                (0, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (3, 5),
                (5, 6),
                (6, 7),
                (7, 8),
                (6, 8),
                (8, 9),
            ],
        );
        let mut scratch = GnScratch::default();
        for min_split_size in 2..=11 {
            let cfg = GirvanNewmanConfig {
                min_split_size,
                ..Default::default()
            };
            let p = girvan_newman_with(&g, &cfg, &mut scratch);
            assert_eq!(
                p,
                girvan_newman_reference(&g, &cfg),
                "min_split_size {min_split_size}"
            );
        }
        // Above the whole graph's size the loop ends on its first removal.
        assert_eq!(scratch.removals, 1);
    }

    #[test]
    fn work_counters_describe_the_last_run() {
        // Barbell: the bridge goes first and splits; then each triangle
        // loses its three edges, the second and third removal of each
        // splitting off a node.
        let g = build(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]);
        let mut scratch = GnScratch::default();
        girvan_newman_with(&g, &GirvanNewmanConfig::default(), &mut scratch);
        assert_eq!(scratch.removals, 7);
        assert_eq!(scratch.splits, 5);
        // 6 up front, 6 after the bridge, then per triangle 3 + 3 (the
        // last removal leaves singletons only and stops the loop).
        assert!(scratch.brandes_sources >= 6 + 6);
        // An edgeless run resets them.
        girvan_newman_with(&build(3, &[]), &GirvanNewmanConfig::default(), &mut scratch);
        assert_eq!(
            (scratch.removals, scratch.splits, scratch.brandes_sources),
            (0, 0, 0)
        );
    }
}

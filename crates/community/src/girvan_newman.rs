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
//! The work graph is a `BitGraph`: one word-bitset row per node, for
//! every graph size. Removing an edge clears two bits; a component is a
//! mask found by flooding rows; betweenness is Brandes over
//! shortest-path-DAG edges only (see [`crate::betweenness`] for the kernel
//! and the ordering invariant that keeps its scores bit-identical to the
//! oracle's). Around it the loop does only what a removal can change:
//!
//! * **The arg-max** scans a compact list of the live edge ids. The order
//!   `(score, then smallest canonical endpoint pair)` is total, so the
//!   list's own order — it is `swap_remove`d — cannot change the winner.
//! * **A removal that splits nothing** (two in three) leaves the partition
//!   as it was, so its modularity is the same `f64` to the bit, `best_q`
//!   cannot move and the early-exit tests read as before: labels,
//!   modularity, the split test and the bound are skipped outright.
//!   Whether it split is read off the flood from one endpoint, whose mask
//!   is also the set of sources whose shortest paths the removal can have
//!   changed.
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
//! * **The loop also stops once no split can still win.** After each
//!   split, an upper bound `UB` on the modularity of every partition the
//!   rest of the dendrogram can reach (below) is summed from the sums
//!   [`modularity_of_labels`] has just filled; once `UB < best_q − 1e-9`
//!   no later `q > best_q + 1e-12` test could fire, so the answer is final.
//!   The margin is far above the rounding error of the `O(n)`-term sums.
//!   On a 25 000-user synthetic world this skips three removals in four.
//!   The initial components are not tested: there every component's bound
//!   is at least its own term of `best_q`, so the test cannot fire.
//!
//! # Why the bound holds
//!
//! GN only removes edges, so every later partition refines the current
//! components. Take a component `c` with `s` nodes, `L` edges of `g`
//! inside it, degree sum `D` and `S = Σ d_v²` (degrees in `g`). A
//! refinement of `c` into `k` parts `P_i` with `L_i` inner edges and
//! degree sums `D_i` adds `Σ_i (L_i/m − D_i²/4m²)` to the modularity, and:
//!
//! * `c` is connected in the live graph, whose edges are edges of `g`, so
//!   any split into `k` parts cuts at least `k − 1` of `c`'s `L` edges:
//!   `Σ L_i ≤ L − (k − 1)`;
//! * `Σ L_i ≤ Σ C(|P_i|, 2)`, which, `C(·, 2)` being convex, is largest
//!   for the composition `(s − k + 1, 1, …, 1)`: `Σ L_i ≤ C(s − k + 1, 2)`;
//! * `Σ D_i² ≥ D²/k` by Cauchy–Schwarz, and `Σ D_i² ≥ S` as every `D_i²`
//!   is at least the sum of its members' squared degrees.
//!
//! So `c` contributes at most `ub(c) = max_{k=1..s} cap_k/m −
//! max(D²/k, S)/4m²` with `cap_1 = L` and `cap_k = min(L − (k − 1),
//! C(s − k + 1, 2))` for `k ≥ 2`, and no partition the dendrogram can
//! still reach beats `UB = Σ_c ub(c)`. Once `D²/k ≤ S` the penalty stops
//! falling while `cap_k` keeps falling, so the maximum over `k` ends there.
//! `min_split_size` and `max_removals` only cut the dendrogram shorter,
//! which keeps the bound valid.
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
    /// Whether the last run ended on the modularity bound, before the
    /// dendrogram ran out.
    pub bound_stopped: bool,
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
    /// Per-component node counts and squared-degree sums for the bound.
    comp_size: Vec<u32>,
    degree_sq: Vec<f64>,
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
    (s.removals, s.splits, s.brandes_sources, s.bound_stopped) = (0, 0, 0, false);
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
        let splitting = !has_bit(&s.side_u, v);
        if splitting {
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
        // Early exit: no refinement of the components left can beat `best_q`
        // (a split is the only removal that changes either side of the test).
        if splitting && s.refinement_bound(g) < best_q - 1e-9 {
            s.bound_stopped = true;
            break;
        }

        s.brandes_sources += s.bits.rescore(&s.side_u, &mut s.scores);
    }

    best_partition
}

impl GnScratch {
    /// An upper bound on the modularity of every partition that refines the
    /// connected components `labels` names (see the module doc for the
    /// proof). `intra` and `degree_sum` must hold [`modularity_of_labels`]'
    /// sums for those labels.
    fn refinement_bound(&mut self, g: &CsrGraph) -> f64 {
        let num_comp = self.intra.len();
        self.comp_size.clear();
        self.comp_size.resize(num_comp, 0);
        self.degree_sq.clear();
        self.degree_sq.resize(num_comp, 0.0);
        for v in g.nodes() {
            let c = self.labels[v.index()] as usize;
            self.comp_size[c] += 1;
            self.degree_sq[c] += (g.degree(v) as f64).powi(2);
        }
        let m = g.num_edges() as f64;
        let four_m2 = 4.0 * m * m;
        let mut bound = 0.0;
        for c in 0..num_comp {
            let (size, edges) = (self.comp_size[c], self.intra[c]);
            let (d2, sq) = (self.degree_sum[c].powi(2), self.degree_sq[c]);
            let mut best = edges / m - d2 / four_m2;
            for k in 2..=size {
                // k parts cut at least k − 1 edges of the connected
                // component, and hold at most the edges of one
                // (size − k + 1)-clique.
                let rest = f64::from(size - k + 1);
                let cap = (edges - f64::from(k - 1)).min(rest * (rest - 1.0) / 2.0);
                let d2_k = d2 / f64::from(k);
                best = best.max(cap / m - d2_k.max(sq) / four_m2);
                if d2_k <= sq {
                    // The penalty is at its floor; the capacity only falls.
                    break;
                }
            }
            bound += best;
        }
        bound
    }
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
        // The bound ends the run once a clique starts to break up.
        let mut scratch = GnScratch::default();
        girvan_newman_with(&g, &GirvanNewmanConfig::default(), &mut scratch);
        assert!(scratch.bound_stopped);
        assert!(
            scratch.removals < g.num_edges() as u64,
            "{} removals",
            scratch.removals
        );
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

    /// Calls `f` with every partition of `0..n`, as dense labels (the
    /// restricted-growth strings: a node's label is at most one above every
    /// label before it).
    fn for_each_partition(labels: &mut Vec<u32>, n: usize, f: &mut impl FnMut(&[u32])) {
        if labels.len() == n {
            return f(labels);
        }
        let next = labels.iter().max().map_or(0, |&l| l + 1);
        for l in 0..=next {
            labels.push(l);
            for_each_partition(labels, n, f);
            labels.pop();
        }
    }

    fn small_graph() -> impl proptest::strategy::Strategy<Value = CsrGraph> {
        use proptest::prelude::*;
        (1usize..=8).prop_flat_map(|n| {
            proptest::collection::vec((0..n as u32, 0..n as u32), 0..=20).prop_map(move |pairs| {
                let mut b = GraphBuilder::new(n);
                for (u, v) in pairs.into_iter().filter(|(u, v)| u != v) {
                    b.add_edge(NodeId(u), NodeId(v));
                }
                b.build()
            })
        })
    }

    proptest::proptest! {
        /// Walks the full dendrogram (no bound stop, every edge removed in
        /// GN order) and, on the initial components and after every split,
        /// checks the bound against the modularity of every partition that
        /// refines the components, enumerated exhaustively (Bell(8) = 4 140).
        #[test]
        fn bound_covers_every_refinement_at_every_split(g in small_graph()) {
            if g.num_edges() == 0 {
                // GN returns before any bound on an edgeless graph.
                return;
            }
            let n = g.num_nodes();
            let mut scratch = GnScratch::default();
            let (mut intra, mut degree_sum) = (Vec::new(), Vec::new());
            let mut work = MutableGraph::from_csr(&g);
            let mut num_comp = 0;
            loop {
                let cc = connected_components(&work);
                if cc.num_components > num_comp {
                    num_comp = cc.num_components;
                    let comp = Partition::from_labels(&cc.labels);
                    scratch.labels = comp.labels().to_vec();
                    let s = &mut scratch;
                    modularity_of_labels(&g, &s.labels, num_comp, &mut s.intra, &mut s.degree_sum);
                    let ub = scratch.refinement_bound(&g);
                    let mut refinements = 0usize;
                    for_each_partition(&mut Vec::with_capacity(n), n, &mut |labels| {
                        let refines = (0..n).all(|u| {
                            (0..n).all(|v| labels[u] != labels[v] || comp.labels()[u] == comp.labels()[v])
                        });
                        if refines {
                            refinements += 1;
                            let k = 1 + *labels.iter().max().unwrap() as usize;
                            let q = modularity_of_labels(&g, labels, k, &mut intra, &mut degree_sum);
                            proptest::prop_assert!(q <= ub + 1e-12, "refinement {labels:?} has q {q} > bound {ub}");
                        }
                    });
                    proptest::prop_assert!(refinements >= 1);
                }
                let scores = edge_betweenness_from(&work, None);
                let Some((&(u, v), _)) = scores
                    .iter()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap().then_with(|| b.0.cmp(a.0)))
                else {
                    break;
                };
                work.remove_edge(u, v);
            }
        }
    }

    #[test]
    fn work_counters_describe_the_last_run() {
        // Barbell: triangles {0,1,2} and {3,4,5} joined by (2,3); m = 7,
        // degrees 2,2,3,3,2,2. Brandes runs from all 6 nodes up front.
        //
        // 1. The bridge goes first and splits: q = 2·(3/7 − (7/14)²) =
        //    0.357 becomes `best_q`. Each triangle (s = 3, L = 3, D = 7,
        //    S = 17) bounds at its own term, 3/7 − 49/196 (k = 2 gives
        //    1/7 − 24.5/196, k = 3 gives −17/196), so UB = best_q and the
        //    loop goes on: Brandes again from all 6 nodes.
        // 2. Every triangle edge now scores alike; the smallest pair (0,1)
        //    goes and splits nothing: Brandes from {0,1,2}, 3 sources.
        // 3. On the path 0–2–1, (0,2) and (1,2) tie; (0,2) goes and splits
        //    off {0}. The bound is −4/196 for {0}, 1/7 − 25/196 for {1,2}
        //    (k = 2: −13/196) and 3/7 − 49/196 for {3,4,5}: UB = 0.173 <
        //    0.357, so the loop ends before rescoring.
        let g = build(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]);
        let config = GirvanNewmanConfig::default();
        let mut scratch = GnScratch::default();
        let p = girvan_newman_with(&g, &config, &mut scratch);
        assert_eq!(p, girvan_newman_reference(&g, &config));
        assert_eq!(scratch.removals, 3);
        assert_eq!(scratch.splits, 2);
        assert_eq!(scratch.brandes_sources, 6 + 6 + 3);
        assert!(scratch.bound_stopped);
        // An edgeless run resets them.
        girvan_newman_with(&build(3, &[]), &config, &mut scratch);
        assert_eq!(
            (
                scratch.removals,
                scratch.splits,
                scratch.brandes_sources,
                scratch.bound_stopped
            ),
            (0, 0, 0, false)
        );
    }
}

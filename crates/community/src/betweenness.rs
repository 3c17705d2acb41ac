//! Brandes' algorithm for exact edge betweenness centrality.
//!
//! Edge betweenness of edge `e` is the number of shortest paths between all
//! node pairs that pass through `e` (each pair's paths weighted by
//! 1/number-of-shortest-paths). Girvan–Newman repeatedly removes the edge
//! with the highest betweenness; Brandes (2001) computes all edge scores in
//! `O(nm)` on unweighted graphs via per-source BFS plus a reverse-order
//! dependency accumulation.
//!
//! There is one production kernel, [`BitGraph::accumulate_from`], and one
//! oracle, [`edge_betweenness_from`] (the original `HashMap<(NodeId,
//! NodeId), f64>` formulation, kept verbatim as the executable
//! specification). [`edge_betweenness_flat`] is the kernel behind a
//! `CsrGraph → Vec<f64>` signature so property tests can compare the two
//! bit for bit.
//!
//! # The kernel and the invariant it keeps
//!
//! [`BitGraph`] holds the graph as one row of `⌈n/64⌉` `u64` words per
//! node, for every `n` — there is no second layout for large graphs. The
//! ego networks GN runs on are dense circles of 8–15 nodes, where three of
//! four adjacency entries join two nodes of the *same* BFS level and carry
//! no shortest path; on bitset rows those entries are masked away a word at
//! a time, so the kernel touches shortest-path-DAG edges only and never
//! compares a `dist` per neighbour.
//!
//! The scores must stay **bit-identical** to the oracle's (GN's arg-max
//! ties, and through them every division byte, depend on it). Floating
//! point addition is not associative, so that means: every `scores[e]`,
//! every `σ[v]` and every `δ[v]` must receive the same addends in the same
//! order as in [`edge_betweenness_from`]. The kernel guarantees it by
//! construction, and an edit must keep all four of these:
//!
//! 1. **Visit order.** Level `L + 1` is discovered by walking level `L` in
//!    queue order and appending the set bits of `adj[v] & !visited`
//!    ascending. Adjacency lists are sorted, so this is exactly the
//!    oracle's pop/push order and `order` is the same sequence.
//! 2. **`σ` order.** `σ[v]` is added into the set bits of
//!    `adj[v] & level[L + 1]` for `v` in that same queue order, so each
//!    `σ[w]` sums its predecessors in the order the oracle pushed them.
//! 3. **Backward order.** Nodes are taken in reverse `order`; node `w` of
//!    level `L` walks `adj[w] & level[L − 1]`, i.e. its predecessors. The
//!    walk is ascending by node id, not in the oracle's push order, and
//!    that is free: within one `w` every predecessor `v` and every edge
//!    `(v, w)` is a distinct accumulator receiving exactly one addend.
//!    What fixes the order of addends per accumulator is the order of the
//!    `w`s, which is unchanged.
//! 4. **Arithmetic.** `c = σ[v] · (1 + δ[w]) / σ[w]` is evaluated with the
//!    oracle's association, and the halving is applied per addend
//!    (`0.5 · c`): scaling by a power of two is exact, so the sum of halves
//!    equals the oracle's halved sum.
//!
//! Sources of different components touch disjoint accumulators, so only
//! the relative order of sources *within* a component matters; callers
//! iterate sources ascending, as the oracle does.

use locec_graph::traversal::AdjacencyView;
use locec_graph::{CsrGraph, NodeId};
use std::collections::HashMap;

const WORD: usize = u64::BITS as usize;

/// Iterates the set bits of word `k` of a bitset as node indices, ascending.
fn word_bits(k: usize, mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            k * WORD + bit
        })
    })
}

/// Iterates the indices of the set bits of a word-bitset, ascending.
pub(crate) fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words
        .iter()
        .enumerate()
        .flat_map(|(k, &word)| word_bits(k, word))
}

/// Whether bit `i` of a word-bitset is set.
pub(crate) fn has_bit(words: &[u64], i: usize) -> bool {
    words[i / WORD] >> (i % WORD) & 1 != 0
}

/// A graph on word-bitset adjacency rows that edges can be removed from,
/// plus the per-source state of Brandes' algorithm over it — the work graph
/// of Girvan–Newman. Every buffer is reused across [`BitGraph::load`]s, so
/// a worker that loads millions of ego networks allocates only when one
/// outgrows every predecessor.
#[derive(Clone, Debug, Default)]
pub(crate) struct BitGraph {
    n: usize,
    /// Words per row, `⌈n/64⌉`.
    w: usize,
    /// Live adjacency, `n` rows of `w` words.
    adj: Vec<u64>,
    /// `edge_of[v · n + x]` is the id of edge `{v, x}`; only the slots of
    /// loaded edges are ever written or read. The one `n²` buffer here
    /// (56 KiB at the default 120-friend cap): a single load per DAG edge
    /// in the kernel's inner loop, where a rank in the CSR row would cost a
    /// popcount the baseline x86-64 target has no instruction for. GN's own
    /// `O(m² n)` time rules out any `n` at which the table would matter.
    edge_of: Vec<u32>,
    /// Shortest-path counts and dependencies of the nodes in `order`.
    sigma: Vec<f64>,
    delta: Vec<f64>,
    /// Nodes reached from the current source, in BFS order; level `L` is
    /// `order[level_start[L]..level_start[L + 1]]`.
    order: Vec<u32>,
    level_start: Vec<u32>,
    /// Member mask of each level, `w` words per level.
    level_mask: Vec<u64>,
    visited: Vec<u64>,
}

impl BitGraph {
    /// Rebuilds this graph in place as a copy of `g`, keeping `g`'s edge
    /// ids, so scores indexed by [`locec_graph::EdgeId`] line up with `g`.
    pub(crate) fn load(&mut self, g: &CsrGraph) {
        let n = g.num_nodes();
        let w = n.div_ceil(WORD);
        self.n = n;
        self.w = w;
        self.adj.clear();
        self.adj.resize(n * w, 0);
        if self.edge_of.len() < n * n {
            self.edge_of.resize(n * n, 0);
        }
        for (e, u, v) in g.edges() {
            let (u, v) = (u.index(), v.index());
            self.adj[u * w + v / WORD] |= 1 << (v % WORD);
            self.adj[v * w + u / WORD] |= 1 << (u % WORD);
            self.edge_of[u * n + v] = e.0;
            self.edge_of[v * n + u] = e.0;
        }
        if self.sigma.len() < n {
            self.sigma.resize(n, 0.0);
            self.delta.resize(n, 0.0);
        }
        self.visited.clear();
        self.visited.resize(w, 0);
    }

    /// Removes the edge `{u, v}`.
    pub(crate) fn remove_edge(&mut self, u: usize, v: usize) {
        self.adj[u * self.w + v / WORD] &= !(1 << (v % WORD));
        self.adj[v * self.w + u / WORD] &= !(1 << (u % WORD));
    }

    /// Writes the member mask of `start`'s connected component to `out`.
    pub(crate) fn component_of(&mut self, start: usize, out: &mut Vec<u64>) {
        let w = self.w;
        out.clear();
        out.resize(w, 0);
        out[start / WORD] = 1 << (start % WORD);
        // Members whose neighbours have not been added yet.
        let todo = &mut self.visited;
        todo.copy_from_slice(out);
        while let Some(k) = todo.iter().position(|&t| t != 0) {
            let x = k * WORD + todo[k].trailing_zeros() as usize;
            todo[k] &= todo[k] - 1;
            for (j, &row) in self.adj[x * w..(x + 1) * w].iter().enumerate() {
                let new = row & !out[j];
                out[j] |= new;
                todo[j] |= new;
            }
        }
    }

    /// Recomputes the scores of every live edge inside `members`, a union
    /// of whole components: zeroes their slots, then accumulates from each
    /// member in ascending order. Returns the number of members.
    pub(crate) fn rescore(&mut self, members: &[u64], scores: &mut [f64]) -> u64 {
        let (n, w) = (self.n, self.w);
        for x in set_bits(members) {
            for y in set_bits(&self.adj[x * w..(x + 1) * w]) {
                if x < y {
                    scores[self.edge_of[x * n + y] as usize] = 0.0;
                }
            }
        }
        let mut sources = 0;
        for x in set_bits(members) {
            self.accumulate_from(x, scores);
            sources += 1;
        }
        sources
    }

    /// One source of Brandes' algorithm: adds the contribution of the
    /// shortest paths starting at `source` into `scores[edge id]`, halved
    /// (each unordered pair contributes once from either end). The module
    /// docs state the ordering invariant this loop keeps.
    pub(crate) fn accumulate_from(&mut self, source: usize, scores: &mut [f64]) {
        let (n, w) = (self.n, self.w);
        let BitGraph {
            adj,
            edge_of,
            sigma,
            delta,
            order,
            level_start,
            level_mask,
            visited,
            ..
        } = self;

        order.clear();
        order.push(source as u32);
        sigma[source] = 1.0;
        delta[source] = 0.0;
        visited.fill(0);
        visited[source / WORD] = 1 << (source % WORD);
        level_mask.clear();
        level_mask.extend_from_slice(visited);
        level_start.clear();
        level_start.push(0);

        // Forward, one level per iteration: `order[lo..hi]` is level `L`.
        let mut lo = 0;
        loop {
            let hi = order.len();
            level_start.push(hi as u32);
            let next = level_mask.len();
            level_mask.resize(next + w, 0);
            for i in lo..hi {
                let row = &adj[order[i] as usize * w..][..w];
                for k in 0..w {
                    let new = row[k] & !visited[k];
                    visited[k] |= new;
                    level_mask[next + k] |= new;
                    for x in word_bits(k, new) {
                        sigma[x] = 0.0;
                        delta[x] = 0.0;
                        order.push(x as u32);
                    }
                }
            }
            if order.len() == hi {
                break;
            }
            let next_level = &level_mask[next..];
            for &v in &order[lo..hi] {
                let row = &adj[v as usize * w..][..w];
                let paths = sigma[v as usize];
                for k in 0..w {
                    for x in word_bits(k, row[k] & next_level[k]) {
                        sigma[x] += paths;
                    }
                }
            }
            lo = hi;
        }

        // Backward, in reverse `order`; level 0 (the source) has no
        // predecessors.
        for level in (1..level_start.len() - 1).rev() {
            let prev_level = &level_mask[(level - 1) * w..][..w];
            let nodes = level_start[level] as usize..level_start[level + 1] as usize;
            for &x in order[nodes].iter().rev() {
                let x = x as usize;
                let row = &adj[x * w..][..w];
                let edges = &edge_of[x * n..][..n];
                let coeff = (1.0 + delta[x]) / sigma[x];
                for k in 0..w {
                    for v in word_bits(k, row[k] & prev_level[k]) {
                        let c = sigma[v] * coeff;
                        scores[edges[v] as usize] += 0.5 * c;
                        delta[v] += c;
                    }
                }
            }
        }
    }
}

/// Exact edge betweenness of `g` as a flat vector indexed by
/// [`locec_graph::EdgeId`], computed by the production kernel
/// ([`BitGraph`]) — bit-identical to [`edge_betweenness_from`].
///
/// `sources` restricts the contribution to shortest paths *starting* at the
/// given sources, taken in the order given; pass `None` for the exact full
/// computation. Scores count each unordered node pair once (the symmetric
/// double-count is halved).
pub fn edge_betweenness_flat(g: &CsrGraph, sources: Option<&[NodeId]>) -> Vec<f64> {
    let mut scores = vec![0.0; g.num_edges()];
    let mut bits = BitGraph::default();
    bits.load(g);
    let mut from = |s: usize| bits.accumulate_from(s, &mut scores);
    match sources {
        Some(sources) => sources.iter().for_each(|s| from(s.index())),
        None => (0..g.num_nodes()).for_each(from),
    }
    scores
}

/// Exact edge betweenness for all edges of an undirected, unweighted graph —
/// the original hash-map formulation, kept as the executable reference for
/// the flat implementation.
///
/// Keys are canonical `(min, max)` endpoint pairs. Scores count each
/// unordered node pair once (the symmetric double-count is halved).
///
/// `sources` restricts the contribution to shortest paths *starting* at the
/// given sources (still halved); pass `None` for the exact full computation.
pub fn edge_betweenness_from<G: AdjacencyView>(
    g: &G,
    sources: Option<&[NodeId]>,
) -> HashMap<(NodeId, NodeId), f64> {
    let n = g.n();
    let mut scores: HashMap<(NodeId, NodeId), f64> = HashMap::new();

    // Reused per-source workspaces (allocation-free inner loop).
    let mut sigma = vec![0f64; n];
    let mut dist = vec![-1i32; n];
    let mut delta = vec![0f64; n];
    let mut preds: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    let mut order: Vec<NodeId> = Vec::with_capacity(n);
    let mut queue: std::collections::VecDeque<NodeId> = std::collections::VecDeque::new();

    let all_sources: Vec<NodeId>;
    let sources: &[NodeId] = match sources {
        Some(s) => s,
        None => {
            all_sources = (0..n as u32).map(NodeId).collect();
            &all_sources
        }
    };

    for &s in sources {
        // --- forward BFS phase ---
        for v in order.drain(..) {
            // Reset only the nodes touched by the previous source.
            sigma[v.index()] = 0.0;
            dist[v.index()] = -1;
            delta[v.index()] = 0.0;
            preds[v.index()].clear();
        }
        sigma[s.index()] = 1.0;
        dist[s.index()] = 0;
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let dv = dist[v.index()];
            for &w in g.adj(v) {
                if dist[w.index()] < 0 {
                    dist[w.index()] = dv + 1;
                    queue.push_back(w);
                }
                if dist[w.index()] == dv + 1 {
                    sigma[w.index()] += sigma[v.index()];
                    preds[w.index()].push(v);
                }
            }
        }

        // --- backward accumulation phase ---
        for &w in order.iter().rev() {
            let coeff = (1.0 + delta[w.index()]) / sigma[w.index()];
            for &v in &preds[w.index()] {
                let c = sigma[v.index()] * coeff;
                let key = if v < w { (v, w) } else { (w, v) };
                *scores.entry(key).or_insert(0.0) += c;
                delta[v.index()] += c;
            }
        }
    }

    // Each unordered pair {s, t} contributes twice (once from each side)
    // when all sources are used; halve to count pairs once. For restricted
    // sources the same convention keeps scores comparable.
    for v in scores.values_mut() {
        *v *= 0.5;
    }
    scores
}

/// Exact edge betweenness from every source. See [`edge_betweenness_from`].
pub fn edge_betweenness<G: AdjacencyView>(g: &G) -> HashMap<(NodeId, NodeId), f64> {
    edge_betweenness_from(g, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use locec_graph::{GraphBuilder, NodeId};

    fn build(n: usize, edges: &[(u32, u32)]) -> CsrGraph {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in edges {
            b.add_edge(NodeId(u), NodeId(v));
        }
        b.build()
    }

    /// Flat scores must agree edge-for-edge with the hash-map reference.
    fn assert_flat_matches_reference(g: &CsrGraph, sources: Option<&[NodeId]>) {
        let reference = edge_betweenness_from(g, sources);
        let flat = edge_betweenness_flat(g, sources);
        assert_eq!(flat.len(), g.num_edges());
        for (e, v, w) in g.edges() {
            let want = reference.get(&(v, w)).copied().unwrap_or(0.0);
            assert_eq!(flat[e.index()], want, "edge ({v}, {w})");
        }
    }

    /// All-sources scores of `g` on a caller-owned work graph.
    fn scores_on(bits: &mut BitGraph, g: &CsrGraph) -> Vec<f64> {
        let mut scores = vec![0.0; g.num_edges()];
        bits.load(g);
        for s in 0..g.num_nodes() {
            bits.accumulate_from(s, &mut scores);
        }
        scores
    }

    #[test]
    fn path_graph_scores() {
        // 0-1-2-3: edge (1,2) lies on paths {0,1,2,3}×..: pairs crossing it
        // are (0,2),(0,3),(1,2),(1,3) → 4. Edge (0,1): (0,1),(0,2),(0,3) → 3.
        let g = build(4, &[(0, 1), (1, 2), (2, 3)]);
        let bc = edge_betweenness(&g);
        assert_eq!(bc[&(NodeId(0), NodeId(1))], 3.0);
        assert_eq!(bc[&(NodeId(1), NodeId(2))], 4.0);
        assert_eq!(bc[&(NodeId(2), NodeId(3))], 3.0);
        assert_flat_matches_reference(&g, None);
    }

    #[test]
    fn triangle_scores_are_uniform() {
        // Every edge carries exactly its endpoints' pair: score 1 each.
        let g = build(3, &[(0, 1), (1, 2), (0, 2)]);
        let bc = edge_betweenness(&g);
        for (_, v) in bc {
            assert!((v - 1.0).abs() < 1e-9);
        }
        assert_flat_matches_reference(&g, None);
    }

    #[test]
    fn barbell_bridge_has_max_betweenness() {
        // Two triangles joined by bridge (2,3).
        let g = build(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]);
        let bc = edge_betweenness(&g);
        let bridge = bc[&(NodeId(2), NodeId(3))];
        // Bridge carries all 3×3 cross pairs = 9.
        assert!((bridge - 9.0).abs() < 1e-9);
        for (&(u, v), &score) in &bc {
            if (u, v) != (NodeId(2), NodeId(3)) {
                assert!(score < bridge, "bridge must dominate, edge ({u},{v})");
            }
        }
        assert_flat_matches_reference(&g, None);
    }

    #[test]
    fn split_shortest_paths_share_credit() {
        // Square 0-1-2-3-0: diagonal pairs split 50/50 over two shortest
        // paths, so every edge gets 1 (own pair) + 0.5 + 0.5 = 2.0.
        let g = build(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let bc = edge_betweenness(&g);
        for (_, v) in bc {
            assert!((v - 2.0).abs() < 1e-9);
        }
        assert_flat_matches_reference(&g, None);
    }

    #[test]
    fn disconnected_components_are_independent() {
        let g = build(4, &[(0, 1), (2, 3)]);
        let bc = edge_betweenness(&g);
        assert_eq!(bc[&(NodeId(0), NodeId(1))], 1.0);
        assert_eq!(bc[&(NodeId(2), NodeId(3))], 1.0);
        assert_eq!(bc.len(), 2);
        assert_flat_matches_reference(&g, None);
    }

    #[test]
    fn restricted_sources_cover_component() {
        // Computing from all nodes of one component only must reproduce the
        // full scores for that component's edges.
        let g = build(5, &[(0, 1), (1, 2), (3, 4)]);
        let full = edge_betweenness(&g);
        let sources = [NodeId(0), NodeId(1), NodeId(2)];
        let restricted = edge_betweenness_from(&g, Some(&sources));
        assert_eq!(
            restricted[&(NodeId(0), NodeId(1))],
            full[&(NodeId(0), NodeId(1))]
        );
        assert!(!restricted.contains_key(&(NodeId(3), NodeId(4))));
        assert_flat_matches_reference(&g, Some(&sources));
    }

    #[test]
    fn workspace_is_reusable_across_graphs() {
        // One work graph loaded with a two-word graph, then a one-word
        // graph, then the first again: stale rows, edge-id slots and
        // per-source state of a previous load must never leak.
        let mut edges: Vec<(u32, u32)> = (0..69).map(|i| (i, i + 1)).collect();
        edges.extend([(0, 64), (3, 69), (10, 65)]);
        let big = build(70, &edges);
        let small = build(4, &[(0, 1), (1, 2), (2, 3)]);

        let mut bits = BitGraph::default();
        let scores_big = scores_on(&mut bits, &big);
        assert_eq!(scores_big, edge_betweenness_flat(&big, None));
        let scores_small = scores_on(&mut bits, &small);
        assert_eq!(scores_small, edge_betweenness_flat(&small, None));
        assert_eq!(scores_on(&mut bits, &big), scores_big);
        assert_flat_matches_reference(&big, None);
    }

    #[test]
    fn flat_accumulates_into_existing_slots() {
        let g = build(3, &[(0, 1), (1, 2)]);
        let mut bits = BitGraph::default();
        let once = scores_on(&mut bits, &g);
        // A second accumulation without zeroing doubles every slot.
        let mut scores = once.clone();
        for s in 0..g.num_nodes() {
            bits.accumulate_from(s, &mut scores);
        }
        for (a, b) in scores.iter().zip(&once) {
            assert_eq!(*a, 2.0 * b);
        }
    }

    #[test]
    fn removal_and_rescore_match_a_fresh_graph() {
        // Remove the barbell's bridge, rescore one side: that side's edges
        // equal the scores of the graph built without the bridge, and the
        // component mask is the side's three nodes.
        let g = build(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]);
        let mut bits = BitGraph::default();
        let mut scores = scores_on(&mut bits, &g);
        bits.remove_edge(2, 3);
        let mut side = Vec::new();
        bits.component_of(3, &mut side);
        assert_eq!(set_bits(&side).collect::<Vec<_>>(), vec![3, 4, 5]);
        bits.rescore(&side, &mut scores);

        let split = build(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
        let want = edge_betweenness_from(&split, None);
        for (e, u, v) in g.edges() {
            if u.index() >= 3 {
                assert_eq!(scores[e.index()], want[&(u, v)], "edge ({u}, {v})");
            }
        }
    }

    #[test]
    fn empty_graph() {
        let g = build(3, &[]);
        assert!(edge_betweenness(&g).is_empty());
        assert!(edge_betweenness_flat(&g, None).is_empty());
    }
}

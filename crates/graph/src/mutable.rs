//! A mutable adjacency-list graph view supporting edge deletion.
//!
//! Girvan–Newman community detection (paper §IV-A) removes the
//! highest-betweenness edge repeatedly and [`crate::CsrGraph`] is
//! immutable. The production GN keeps its own word-bitset work graph
//! (`locec_community::betweenness`); this type now serves the reference
//! implementation it is checked against (`girvan_newman_reference`) and
//! tests, where plain sorted lists are the point.

use crate::csr::CsrGraph;
use crate::ids::NodeId;

/// Undirected graph with sorted `Vec` adjacency lists. Finding an edge is an
/// `O(log d)` binary search; inserting or removing it then shifts the tail
/// of both lists (`Vec::insert` / `Vec::remove`), so a mutation is `O(d)`.
/// Intended for the small graphs (ego networks) GN operates on.
#[derive(Clone, Debug, Default)]
pub struct MutableGraph {
    adj: Vec<Vec<NodeId>>,
    num_edges: usize,
}

impl MutableGraph {
    /// Creates an empty graph over `n` nodes.
    pub fn new(n: usize) -> Self {
        MutableGraph {
            adj: vec![Vec::new(); n],
            num_edges: 0,
        }
    }

    /// Copies the structure of a CSR graph.
    pub fn from_csr(g: &CsrGraph) -> Self {
        let mut m = MutableGraph::default();
        m.rebuild_from_csr(g);
        m
    }

    /// Rebuilds this graph in place as a copy of `g`, reusing the inner
    /// adjacency allocations.
    pub fn rebuild_from_csr(&mut self, g: &CsrGraph) {
        self.adj.resize_with(g.num_nodes(), Vec::new);
        for v in g.nodes() {
            let list = &mut self.adj[v.index()];
            list.clear();
            list.extend_from_slice(g.neighbors(v));
        }
        self.num_edges = g.num_edges();
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Number of remaining undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Sorted neighbour list of `v`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.adj[v.index()]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.adj[v.index()].len()
    }

    /// Adds the undirected edge `{u, v}`. Returns `false` if it already
    /// exists or is a self-loop.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if u == v {
            return false;
        }
        match self.adj[u.index()].binary_search(&v) {
            Ok(_) => false,
            Err(pos_u) => {
                let pos_v = self.adj[v.index()]
                    .binary_search(&u)
                    .expect_err("adjacency symmetric");
                self.adj[u.index()].insert(pos_u, v);
                self.adj[v.index()].insert(pos_v, u);
                self.num_edges += 1;
                true
            }
        }
    }

    /// Removes the undirected edge `{u, v}`. Returns `false` if absent.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        match self.adj[u.index()].binary_search(&v) {
            Err(_) => false,
            Ok(pos_u) => {
                let pos_v = self.adj[v.index()]
                    .binary_search(&u)
                    .expect("adjacency symmetric");
                self.adj[u.index()].remove(pos_u);
                self.adj[v.index()].remove(pos_v);
                self.num_edges -= 1;
                true
            }
        }
    }

    /// Whether `{u, v}` is an edge.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.adj[u.index()].binary_search(&v).is_ok()
    }

    /// All remaining edges as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.adj.iter().enumerate().flat_map(|(u, ns)| {
            let u = NodeId(u as u32);
            ns.iter()
                .copied()
                .filter_map(move |v| if u < v { Some((u, v)) } else { None })
        })
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.adj.len() as u32).map(NodeId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn triangle() -> MutableGraph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(1), NodeId(2));
        b.add_edge(NodeId(0), NodeId(2));
        MutableGraph::from_csr(&b.build())
    }

    #[test]
    fn from_csr_copies_structure() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert!(g.has_edge(NodeId(0), NodeId(2)));
    }

    #[test]
    fn rebuild_reuses_and_resets() {
        let csr3 = {
            let mut b = GraphBuilder::new(3);
            b.add_edge(NodeId(0), NodeId(1));
            b.build()
        };
        let mut g = triangle();
        g.remove_edge(NodeId(0), NodeId(1));
        g.rebuild_from_csr(&csr3);
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 1);
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(!g.has_edge(NodeId(1), NodeId(2)));
    }

    #[test]
    fn remove_edge_is_symmetric() {
        let mut g = triangle();
        assert!(g.remove_edge(NodeId(2), NodeId(0)));
        assert!(!g.has_edge(NodeId(0), NodeId(2)));
        assert!(!g.has_edge(NodeId(2), NodeId(0)));
        assert_eq!(g.num_edges(), 2);
        assert!(!g.remove_edge(NodeId(0), NodeId(2)), "double remove");
    }

    #[test]
    fn add_edge_rejects_duplicates_and_loops() {
        let mut g = MutableGraph::new(3);
        assert!(g.add_edge(NodeId(0), NodeId(1)));
        assert!(!g.add_edge(NodeId(1), NodeId(0)));
        assert!(!g.add_edge(NodeId(1), NodeId(1)));
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn neighbors_stay_sorted_under_mutation() {
        let mut g = MutableGraph::new(6);
        for v in [5u32, 1, 3, 2, 4] {
            g.add_edge(NodeId(0), NodeId(v));
        }
        assert_eq!(
            g.neighbors(NodeId(0)),
            &[NodeId(1), NodeId(2), NodeId(3), NodeId(4), NodeId(5)]
        );
        g.remove_edge(NodeId(0), NodeId(3));
        assert_eq!(
            g.neighbors(NodeId(0)),
            &[NodeId(1), NodeId(2), NodeId(4), NodeId(5)]
        );
    }

    #[test]
    fn edges_iterator_canonical() {
        let g = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(
            edges,
            vec![
                (NodeId(0), NodeId(1)),
                (NodeId(0), NodeId(2)),
                (NodeId(1), NodeId(2))
            ]
        );
    }
}

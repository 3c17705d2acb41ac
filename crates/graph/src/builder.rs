//! Incremental construction of [`CsrGraph`]s.
//!
//! The builder accumulates undirected edges, silently ignoring self-loops and
//! duplicate edges (the WeChat friendship graph is simple), then freezes into
//! the immutable CSR representation used everywhere else.

use crate::csr::CsrGraph;
use crate::ids::NodeId;

/// Accumulates edges for an undirected simple graph with a fixed node count.
///
/// ```
/// use locec_graph::{GraphBuilder, NodeId};
///
/// let mut b = GraphBuilder::new(4);
/// b.add_edge(NodeId(0), NodeId(1));
/// b.add_edge(NodeId(1), NodeId(0)); // duplicate, ignored
/// b.add_edge(NodeId(2), NodeId(2)); // self-loop, ignored
/// b.add_edge(NodeId(2), NodeId(3));
/// let g = b.build();
/// assert_eq!(g.num_nodes(), 4);
/// assert_eq!(g.num_edges(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    num_nodes: usize,
    /// Canonicalized (min, max) endpoint pairs; deduplicated at build time.
    edges: Vec<(u32, u32)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph over nodes `0..num_nodes`.
    pub fn new(num_nodes: usize) -> Self {
        assert!(
            num_nodes <= u32::MAX as usize,
            "node count {num_nodes} exceeds u32 index space"
        );
        GraphBuilder {
            num_nodes,
            edges: Vec::new(),
        }
    }

    /// Creates a builder with pre-allocated room for `edge_capacity` edges.
    pub fn with_capacity(num_nodes: usize, edge_capacity: usize) -> Self {
        let mut b = Self::new(num_nodes);
        b.edges.reserve(edge_capacity);
        b
    }

    /// Number of nodes the built graph will have.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Adds the undirected edge `{u, v}`. Self-loops are ignored. Duplicates
    /// (in either orientation) are removed when the graph is built.
    ///
    /// Returns `true` if the pair was recorded (i.e. was not a self-loop).
    ///
    /// # Panics
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        assert!(
            u.index() < self.num_nodes && v.index() < self.num_nodes,
            "edge ({u}, {v}) out of range for {} nodes",
            self.num_nodes
        );
        if u == v {
            return false;
        }
        let (a, b) = if u.0 <= v.0 { (u.0, v.0) } else { (v.0, u.0) };
        self.edges.push((a, b));
        true
    }

    /// Freezes the builder into an immutable [`CsrGraph`].
    ///
    /// Edge ids are assigned in lexicographic `(min, max)` endpoint order,
    /// which makes them deterministic regardless of insertion order.
    pub fn build(mut self) -> CsrGraph {
        self.edges.sort_unstable();
        self.edges.dedup();
        CsrGraph::from_canonical_edges(self.num_nodes, self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedups_both_orientations() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(1), NodeId(0));
        b.add_edge(NodeId(0), NodeId(1));
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn ignores_self_loops() {
        let mut b = GraphBuilder::new(2);
        assert!(!b.add_edge(NodeId(1), NodeId(1)));
        assert!(b.add_edge(NodeId(0), NodeId(1)));
        assert_eq!(b.build().num_edges(), 1);
    }

    #[test]
    fn edge_ids_are_insertion_order_independent() {
        let mut b1 = GraphBuilder::new(4);
        b1.add_edge(NodeId(2), NodeId(3));
        b1.add_edge(NodeId(0), NodeId(1));
        let g1 = b1.build();

        let mut b2 = GraphBuilder::new(4);
        b2.add_edge(NodeId(1), NodeId(0));
        b2.add_edge(NodeId(3), NodeId(2));
        let g2 = b2.build();

        for e in 0..g1.num_edges() {
            assert_eq!(
                g1.endpoints(crate::EdgeId(e as u32)),
                g2.endpoints(crate::EdgeId(e as u32))
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn panics_on_out_of_range() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(5));
    }

    #[test]
    fn empty_graph_builds() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
    }
}

//! Breadth-first traversal and connected components.
//!
//! Connected-component labelling is the termination/splitting check of the
//! reference Girvan–Newman, and BFS distances back the property tests of
//! Brandes' betweenness.

use crate::csr::CsrGraph;
use crate::ids::NodeId;
use crate::mutable::MutableGraph;
use std::collections::VecDeque;

/// Result of connected-component labelling.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ComponentLabels {
    /// `labels[v] = c` assigns node `v` to component `c ∈ 0..num_components`.
    pub labels: Vec<u32>,
    /// Number of components.
    pub num_components: usize,
}

impl ComponentLabels {
    /// Component of a node.
    #[inline]
    pub fn component(&self, v: NodeId) -> u32 {
        self.labels[v.index()]
    }

    /// Groups node ids by component, in ascending node order.
    pub fn groups(&self) -> Vec<Vec<NodeId>> {
        let mut groups = vec![Vec::new(); self.num_components];
        for (i, &c) in self.labels.iter().enumerate() {
            groups[c as usize].push(NodeId(i as u32));
        }
        groups
    }

    /// Size of each component.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_components];
        for &c in &self.labels {
            sizes[c as usize] += 1;
        }
        sizes
    }
}

/// Generic neighbour access so traversals work on both graph types.
pub trait AdjacencyView {
    /// Number of nodes.
    fn n(&self) -> usize;
    /// Sorted neighbour slice.
    fn adj(&self, v: NodeId) -> &[NodeId];
}

impl AdjacencyView for CsrGraph {
    fn n(&self) -> usize {
        self.num_nodes()
    }
    fn adj(&self, v: NodeId) -> &[NodeId] {
        self.neighbors(v)
    }
}

impl AdjacencyView for MutableGraph {
    fn n(&self) -> usize {
        self.num_nodes()
    }
    fn adj(&self, v: NodeId) -> &[NodeId] {
        self.neighbors(v)
    }
}

/// Labels connected components with consecutive ids (component ids follow
/// the smallest node id they contain, ascending).
pub fn connected_components<G: AdjacencyView>(g: &G) -> ComponentLabels {
    let mut labels = Vec::new();
    let mut queue = VecDeque::new();
    let num_components = connected_components_into(g, &mut labels, &mut queue);
    ComponentLabels {
        labels,
        num_components,
    }
}

/// Allocation-reusing form of [`connected_components`]: fills `labels` (one
/// entry per node) and returns the component count. `queue` is BFS scratch.
pub fn connected_components_into<G: AdjacencyView>(
    g: &G,
    labels: &mut Vec<u32>,
    queue: &mut VecDeque<NodeId>,
) -> usize {
    const UNVISITED: u32 = u32::MAX;
    let n = g.n();
    labels.clear();
    labels.resize(n, UNVISITED);
    queue.clear();
    let mut num_components = 0u32;
    for start in 0..n {
        if labels[start] != UNVISITED {
            continue;
        }
        let c = num_components;
        num_components += 1;
        labels[start] = c;
        queue.push_back(NodeId(start as u32));
        while let Some(v) = queue.pop_front() {
            for &w in g.adj(v) {
                if labels[w.index()] == UNVISITED {
                    labels[w.index()] = c;
                    queue.push_back(w);
                }
            }
        }
    }
    num_components as usize
}

/// Groups nodes by label into a reusable CSR-style table: after the call,
/// the members of group `c` (ascending node order) are
/// `members[offsets[c] as usize..offsets[c + 1] as usize]`. Both output
/// buffers are reused across calls. Labels must be dense in
/// `0..num_groups`.
pub fn group_members(
    labels: &[u32],
    num_groups: usize,
    offsets: &mut Vec<u32>,
    members: &mut Vec<NodeId>,
) {
    offsets.clear();
    offsets.resize(num_groups + 1, 0);
    for &c in labels {
        offsets[c as usize + 1] += 1;
    }
    for c in 0..num_groups {
        offsets[c + 1] += offsets[c];
    }
    members.clear();
    members.resize(labels.len(), NodeId(0));
    // Use the offsets themselves as write cursors, then shift them back —
    // keeps the helper allocation-free.
    for (i, &c) in labels.iter().enumerate() {
        let pos = offsets[c as usize] as usize;
        members[pos] = NodeId(i as u32);
        offsets[c as usize] += 1;
    }
    for c in (1..=num_groups).rev() {
        offsets[c] = offsets[c - 1];
    }
    if num_groups > 0 {
        offsets[0] = 0;
    }
}

/// Returns the nodes reachable from `start` in BFS order (including `start`).
pub fn bfs_order<G: AdjacencyView>(g: &G, start: NodeId) -> Vec<NodeId> {
    let mut visited = vec![false; g.n()];
    let mut order = Vec::new();
    let mut queue = VecDeque::new();
    visited[start.index()] = true;
    queue.push_back(start);
    while let Some(v) = queue.pop_front() {
        order.push(v);
        for &w in g.adj(v) {
            if !visited[w.index()] {
                visited[w.index()] = true;
                queue.push_back(w);
            }
        }
    }
    order
}

/// Single-source shortest-path distances over unweighted edges.
/// Unreachable nodes get `u32::MAX`.
pub fn bfs_distances<G: AdjacencyView>(g: &G, start: NodeId) -> Vec<u32> {
    let mut dist = vec![u32::MAX; g.n()];
    let mut queue = VecDeque::new();
    dist[start.index()] = 0;
    queue.push_back(start);
    while let Some(v) = queue.pop_front() {
        let d = dist[v.index()];
        for &w in g.adj(v) {
            if dist[w.index()] == u32::MAX {
                dist[w.index()] = d + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn two_triangles() -> CsrGraph {
        let mut b = GraphBuilder::new(6);
        for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            b.add_edge(NodeId(u), NodeId(v));
        }
        b.build()
    }

    #[test]
    fn components_of_disconnected_graph() {
        let g = two_triangles();
        let cc = connected_components(&g);
        assert_eq!(cc.num_components, 2);
        assert_eq!(cc.component(NodeId(0)), cc.component(NodeId(2)));
        assert_ne!(cc.component(NodeId(0)), cc.component(NodeId(3)));
        assert_eq!(cc.sizes(), vec![3, 3]);
        let groups = cc.groups();
        assert_eq!(groups[0], vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn components_update_after_removal() {
        let g = two_triangles();
        let mut m = MutableGraph::from_csr(&g);
        m.add_edge(NodeId(2), NodeId(3));
        assert_eq!(connected_components(&m).num_components, 1);
        m.remove_edge(NodeId(2), NodeId(3));
        assert_eq!(connected_components(&m).num_components, 2);
    }

    #[test]
    fn isolated_nodes_are_singleton_components() {
        let b = GraphBuilder::new(3);
        let g = b.build();
        let cc = connected_components(&g);
        assert_eq!(cc.num_components, 3);
        assert_eq!(cc.sizes(), vec![1, 1, 1]);
    }

    #[test]
    fn connected_components_into_reuses_buffers() {
        let g = two_triangles();
        let mut labels = vec![99; 50];
        let mut queue = VecDeque::new();
        queue.push_back(NodeId(0)); // stale state must be cleared
        let k = connected_components_into(&g, &mut labels, &mut queue);
        assert_eq!(k, 2);
        assert_eq!(labels.len(), 6);
        assert_eq!(labels, connected_components(&g).labels);
    }

    #[test]
    fn group_members_matches_groups() {
        let g = two_triangles();
        let cc = connected_components(&g);
        let mut offsets = Vec::new();
        let mut members = Vec::new();
        group_members(&cc.labels, cc.num_components, &mut offsets, &mut members);
        let groups = cc.groups();
        assert_eq!(offsets.len(), cc.num_components + 1);
        for (c, group) in groups.iter().enumerate() {
            let slice = &members[offsets[c] as usize..offsets[c + 1] as usize];
            assert_eq!(slice, group.as_slice(), "component {c}");
        }
        // Second call on different input reuses the buffers correctly.
        group_members(&[0, 0, 0], 1, &mut offsets, &mut members);
        assert_eq!(offsets, vec![0, 3]);
        assert_eq!(members, vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn bfs_order_visits_component_once() {
        let g = two_triangles();
        let order = bfs_order(&g, NodeId(3));
        assert_eq!(order.len(), 3);
        assert_eq!(order[0], NodeId(3));
        assert!(order.contains(&NodeId(4)) && order.contains(&NodeId(5)));
    }

    #[test]
    fn bfs_distances_path_graph() {
        let mut b = GraphBuilder::new(4);
        for i in 0..3 {
            b.add_edge(NodeId(i), NodeId(i + 1));
        }
        let g = b.build();
        assert_eq!(bfs_distances(&g, NodeId(0)), vec![0, 1, 2, 3]);
    }

    #[test]
    fn bfs_distances_unreachable() {
        let g = two_triangles();
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d[5], u32::MAX);
        assert_eq!(d[1], 1);
    }
}

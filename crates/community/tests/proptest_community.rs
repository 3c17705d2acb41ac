//! Property-based tests of the community-detection substrate.

use locec_community::{
    edge_betweenness, edge_betweenness_flat, edge_betweenness_from, girvan_newman,
    girvan_newman_reference, girvan_newman_with, label_propagation, louvain, modularity,
    GirvanNewmanConfig, GnScratch, Partition,
};
use locec_graph::{connected_components, CsrGraph, GraphBuilder, NodeId};
use proptest::prelude::*;

fn random_graph() -> impl Strategy<Value = CsrGraph> {
    (2usize..=20).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=50).prop_map(move |pairs| {
            let mut b = GraphBuilder::new(n);
            for (u, v) in pairs {
                if u != v {
                    b.add_edge(NodeId(u), NodeId(v));
                }
            }
            b.build()
        })
    })
}

/// Graphs whose node ids straddle the bitset word boundaries: `n` is one
/// of 63, 64, 65, 127, 128, 129 or 200, the nodes are cut into planted
/// cliques of 6–15 (consecutive ids, so cliques span words) and a few
/// sparse cross links join them — the shape that dominates synthetic ego
/// networks. The 2–20-node strategy above never leaves word 0.
fn word_boundary_graph() -> impl Strategy<Value = CsrGraph> {
    (0usize..7).prop_flat_map(|pick| {
        let n = [63usize, 64, 65, 127, 128, 129, 200][pick];
        (
            proptest::collection::vec(6usize..=15, n / 6 + 1),
            proptest::collection::vec((0..n as u32, 0..n as u32), 0..=12),
            // Drop a few clique edges so circles are dense, not complete.
            proptest::collection::vec((0..n as u32, 0..15u32), 0..=20),
        )
            .prop_map(move |(sizes, links, holes)| {
                let mut b = GraphBuilder::new(n);
                let hole = |u: u32, v: u32| holes.iter().any(|&(a, d)| a == u && a + d + 1 == v);
                let mut start = 0usize;
                for size in sizes {
                    let end = (start + size).min(n);
                    for u in start..end {
                        for v in (u + 1)..end {
                            if !hole(u as u32, v as u32) {
                                b.add_edge(NodeId(u as u32), NodeId(v as u32));
                            }
                        }
                    }
                    start = end;
                }
                for (u, v) in links {
                    if u != v {
                        b.add_edge(NodeId(u), NodeId(v));
                    }
                }
                b.build()
            })
    })
}

/// Planted circles: disjoint cliques of 3–8 consecutive ids laid from 0 up
/// to `n` (64, 65, 70, 128, 129 or 140 nodes, so cliques straddle the word
/// boundaries) plus a few random bridges — the ego shape on which the
/// modularity bound stops Girvan–Newman long before the last removal.
fn planted_circle_graph() -> impl Strategy<Value = CsrGraph> {
    (0usize..6).prop_flat_map(|pick| {
        let n = [64usize, 65, 70, 128, 129, 140][pick];
        (
            proptest::collection::vec(3usize..=8, n / 3 + 1),
            proptest::collection::vec((0..n as u32, 0..n as u32), 1..=6),
        )
            .prop_map(move |(sizes, bridges)| {
                let mut b = GraphBuilder::new(n);
                let mut start = 0usize;
                for size in sizes {
                    let end = (start + size).min(n);
                    for u in start..end {
                        for v in (u + 1)..end {
                            b.add_edge(NodeId(u as u32), NodeId(v as u32));
                        }
                    }
                    start = end;
                }
                for (u, v) in bridges {
                    if u != v {
                        b.add_edge(NodeId(u), NodeId(v));
                    }
                }
                b.build()
            })
    })
}

/// The production kernel's scores equal the hash-map oracle's bit for bit
/// (same accumulation order, exact halving), from every source and from
/// one component's nodes only (the Girvan–Newman incremental path).
fn assert_flat_equals_reference(g: &CsrGraph) {
    // The component of the last node: on the word-boundary graphs it lives
    // in the highest word.
    let cc = connected_components(g);
    let last = NodeId(g.num_nodes() as u32 - 1);
    let component: Vec<NodeId> = g
        .nodes()
        .filter(|&v| cc.component(v) == cc.component(last))
        .collect();
    for sources in [None, Some(component.as_slice())] {
        let flat = edge_betweenness_flat(g, sources);
        let reference = edge_betweenness_from(g, sources);
        prop_assert_eq!(flat.len(), g.num_edges());
        for (e, u, v) in g.edges() {
            let want = reference.get(&(u, v)).copied().unwrap_or(0.0);
            prop_assert_eq!(
                flat[e.index()].to_bits(),
                want.to_bits(),
                "edge ({}, {}), restricted sources: {}",
                u,
                v,
                sources.is_some()
            );
        }
    }
}

fn assert_gn_equals_reference(g: &CsrGraph) {
    let config = GirvanNewmanConfig::default();
    let fast = girvan_newman(g, &config);
    let reference = girvan_newman_reference(g, &config);
    prop_assert_eq!(&fast, &reference);
    // A warm scratch must not change the answer either.
    let mut scratch = GnScratch::default();
    girvan_newman_with(g, &config, &mut scratch);
    let warm = girvan_newman_with(g, &config, &mut scratch);
    prop_assert_eq!(&warm, &reference);
}

proptest! {
    #[test]
    fn betweenness_scores_are_positive_and_cover_edges(g in random_graph()) {
        let bc = edge_betweenness(&g);
        prop_assert_eq!(bc.len(), g.num_edges());
        for (&(u, v), &score) in &bc {
            prop_assert!(u < v, "non-canonical key");
            // Every edge carries at least its own endpoint pair.
            prop_assert!(score >= 1.0 - 1e-9, "edge ({u},{v}) scored {score}");
        }
    }

    #[test]
    fn betweenness_total_equals_pair_distances(g in random_graph()) {
        // Sum of edge betweenness = sum over connected pairs of d(s,t),
        // since every shortest path contributes its length in edge hops.
        let bc = edge_betweenness(&g);
        let total: f64 = bc.values().sum();
        let mut dist_sum = 0.0f64;
        for s in g.nodes() {
            let dist = locec_graph::traversal::bfs_distances(&g, s);
            for t in g.nodes() {
                if t > s && dist[t.index()] != u32::MAX {
                    dist_sum += dist[t.index()] as f64;
                }
            }
        }
        prop_assert!((total - dist_sum).abs() < 1e-6 * (1.0 + dist_sum));
    }

    #[test]
    fn all_detectors_respect_components(g in random_graph()) {
        let cc = connected_components(&g);
        for p in [
            girvan_newman(&g, &GirvanNewmanConfig::default()),
            louvain(&g, 3),
            label_propagation(&g, 3, 50),
        ] {
            for (_, u, v) in g.edges() {
                if p.same_community(u, v) {
                    prop_assert_eq!(cc.component(u), cc.component(v));
                }
            }
        }
    }

    #[test]
    fn flat_betweenness_equals_hashmap_reference(g in random_graph()) {
        assert_flat_equals_reference(&g);
    }

    #[test]
    fn gn_fast_path_equals_reference(g in random_graph()) {
        assert_gn_equals_reference(&g);
    }

    #[test]
    fn gn_is_deterministic(g in random_graph()) {
        let p1 = girvan_newman(&g, &GirvanNewmanConfig::default());
        let p2 = girvan_newman(&g, &GirvanNewmanConfig::default());
        prop_assert_eq!(p1, p2);
    }

    #[test]
    fn partition_groups_are_a_partition(g in random_graph()) {
        let p = girvan_newman(&g, &GirvanNewmanConfig::default());
        let mut seen = vec![false; g.num_nodes()];
        for group in p.groups() {
            for v in group {
                prop_assert!(!seen[v.index()]);
                seen[v.index()] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn modularity_of_whole_is_never_positive_minus_epsilon(g in random_graph()) {
        // Q(whole) = 1·(m/m) − Σ(d_c/2m)² with one community = 0 exactly.
        if g.num_edges() > 0 {
            let q = modularity(&g, &Partition::whole(g.num_nodes()));
            prop_assert!(q.abs() < 1e-9);
        }
    }

    #[test]
    fn louvain_never_loses_to_singletons(g in random_graph()) {
        let p = louvain(&g, 11);
        let q_louvain = modularity(&g, &p);
        let q_singletons = modularity(&g, &Partition::singletons(g.num_nodes()));
        prop_assert!(q_louvain >= q_singletons - 1e-9);
    }
}

proptest! {
    // The oracle is `O(m² n)` hash-map work on up to 200 nodes.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn flat_betweenness_equals_hashmap_reference_across_words(g in word_boundary_graph()) {
        assert_flat_equals_reference(&g);
    }

    #[test]
    fn gn_fast_path_equals_reference_across_words(g in word_boundary_graph()) {
        assert_gn_equals_reference(&g);
    }

    #[test]
    fn gn_fast_path_equals_reference_on_planted_circles(g in planted_circle_graph()) {
        assert_gn_equals_reference(&g);
    }

    #[test]
    fn gn_scratch_survives_shrinking_and_growing(
        big in word_boundary_graph(),
        small in random_graph(),
    ) {
        // Big graph, then a one-word graph, then the big one again on one
        // scratch: rows, edge-id slots and masks sized for the first load
        // must not leak into the later ones.
        let config = GirvanNewmanConfig::default();
        let want_big = girvan_newman_reference(&big, &config);
        let want_small = girvan_newman_reference(&small, &config);
        let mut scratch = GnScratch::default();
        prop_assert_eq!(&girvan_newman_with(&big, &config, &mut scratch), &want_big);
        prop_assert_eq!(&girvan_newman_with(&small, &config, &mut scratch), &want_small);
        prop_assert_eq!(&girvan_newman_with(&big, &config, &mut scratch), &want_big);
    }
}

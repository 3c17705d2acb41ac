//! Property-based tests over the cross-crate invariants of the LoCEC
//! stack: random graphs in, structural guarantees out.

use locec::community::{girvan_newman, modularity, GirvanNewmanConfig, Partition};
use locec::core::features::tightness;
use locec::core::LocecConfig;
use locec::graph::{
    connected_components, CsrGraph, EgoNetwork, GraphBuilder, MutableGraph, NodeId,
};
use locec::synth::{Scenario, SynthConfig};
use locec_core::phase1;
use proptest::prelude::*;

/// Strategy: a random simple undirected graph with 2..=24 nodes.
fn random_graph() -> impl Strategy<Value = CsrGraph> {
    (2usize..=24).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=max_edges.min(60)).prop_map(
            move |pairs| {
                let mut b = GraphBuilder::new(n);
                for (u, v) in pairs {
                    if u != v {
                        b.add_edge(NodeId(u), NodeId(v));
                    }
                }
                b.build()
            },
        )
    })
}

/// Strategy: a random power-law-ish graph built by preferential attachment —
/// every new node attaches to `k` picks that favour high-degree targets, so
/// hub ego networks dwarf the median, the regime the chunked worker pool
/// must load-balance.
fn random_power_law_graph() -> impl Strategy<Value = CsrGraph> {
    (20usize..=60, 1usize..=3, 0u64..1u64 << 32).prop_map(|(n, k, seed)| {
        let mut b = GraphBuilder::new(n);
        // Repeated-endpoint list: picking a uniform element of `ends` is a
        // degree-proportional pick (Barabási–Albert style).
        let mut ends: Vec<u32> = vec![0, 1];
        b.add_edge(NodeId(0), NodeId(1));
        let mut state = seed | 1;
        let mut next = move |bound: usize| {
            // xorshift64* — deterministic, dependency-free.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % bound
        };
        for v in 2..n as u32 {
            for _ in 0..k.min(v as usize) {
                let target = ends[next(ends.len())];
                if target != v && b.add_edge(NodeId(v), NodeId(target)) {
                    ends.push(target);
                    ends.push(v);
                }
            }
        }
        b.build()
    })
}

proptest! {
    #[test]
    fn csr_adjacency_is_symmetric(g in random_graph()) {
        for v in g.nodes() {
            for &w in g.neighbors(v) {
                prop_assert!(g.neighbors(w).contains(&v), "asymmetric adjacency");
                prop_assert_eq!(g.edge_between(v, w), g.edge_between(w, v));
            }
        }
    }

    #[test]
    fn csr_degree_sums_to_twice_edges(g in random_graph()) {
        let total: usize = g.nodes().map(|v| g.degree(v)).sum();
        prop_assert_eq!(total, 2 * g.num_edges());
    }

    #[test]
    fn ego_networks_exclude_ego_and_preserve_edges(g in random_graph()) {
        for v in g.nodes() {
            let ego = EgoNetwork::extract(&g, v);
            prop_assert!(ego.to_local(v).is_none(), "ego inside own network");
            prop_assert_eq!(ego.num_friends(), g.degree(v));
            // Every local edge maps to a real global edge between friends.
            for (le, lu, lv) in ego.graph.edges() {
                let (gu, gv) = (ego.to_global(lu), ego.to_global(lv));
                prop_assert!(g.has_edge(gu, gv));
                let ge = ego.edge_to_global(le);
                let (a, b) = g.endpoints(ge);
                prop_assert!((a == gu && b == gv) || (a == gv && b == gu));
            }
            // Every global edge among friends appears locally.
            let friends = ego.friends();
            for (i, &fu) in friends.iter().enumerate() {
                for &fv in &friends[i + 1..] {
                    if g.has_edge(fu, fv) {
                        let lu = ego.to_local(fu).unwrap();
                        let lv = ego.to_local(fv).unwrap();
                        prop_assert!(ego.graph.has_edge(lu, lv));
                    }
                }
            }
        }
    }

    #[test]
    fn girvan_newman_partitions_are_valid(g in random_graph()) {
        let p = girvan_newman(&g, &GirvanNewmanConfig::default());
        prop_assert_eq!(p.num_nodes(), g.num_nodes());
        // Partition labels are dense.
        for v in g.nodes() {
            prop_assert!((p.community_of(v) as usize) < p.num_communities());
        }
        // Communities never straddle connected components.
        let cc = connected_components(&g);
        for (_, u, v) in g.edges() {
            if p.same_community(u, v) {
                prop_assert_eq!(cc.component(u), cc.component(v));
            }
        }
        // GN's choice is at least as good as the trivial partitions it
        // always contains in its dendrogram (the initial component split).
        let components = Partition::from_labels(&cc.labels);
        prop_assert!(
            modularity(&g, &p) >= modularity(&g, &components) - 1e-9,
            "GN must not underperform the component partition"
        );
    }

    #[test]
    fn modularity_is_bounded(g in random_graph()) {
        let p = girvan_newman(&g, &GirvanNewmanConfig::default());
        let q = modularity(&g, &p);
        prop_assert!((-1.0..=1.0).contains(&q), "modularity {} out of range", q);
    }

    #[test]
    fn mutable_graph_edge_removal_roundtrip(g in random_graph()) {
        let mut m = MutableGraph::from_csr(&g);
        let edges: Vec<_> = m.edges().collect();
        for &(u, v) in &edges {
            prop_assert!(m.remove_edge(u, v));
        }
        prop_assert_eq!(m.num_edges(), 0);
        for &(u, v) in &edges {
            prop_assert!(m.add_edge(u, v));
        }
        prop_assert_eq!(m.num_edges(), g.num_edges());
    }

    #[test]
    fn tightness_is_a_unit_interval_measure(
        friends_in_c in 0usize..30,
        extra_out in 0usize..30,
        size in 1usize..40,
    ) {
        let friends_in_c = friends_in_c.min(size.saturating_sub(1));
        let ego_degree = friends_in_c + extra_out;
        let t = tightness(friends_in_c, ego_degree, size);
        prop_assert!((0.0..=1.0).contains(&t), "tightness {}", t);
        // Monotone: more outside connections never raise tightness.
        let t_more_outside = tightness(friends_in_c, ego_degree + 1, size);
        prop_assert!(t_more_outside <= t + 1e-6);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The pooled, arena-reusing `divide` must be bit-identical across pool
    /// sizes and to the preserved pre-optimization implementation on random
    /// power-law graphs (hubs are exactly where scheduling could diverge).
    #[test]
    fn divide_is_identical_across_pool_sizes_and_to_reference(g in random_power_law_graph()) {
        let run = |threads: usize| {
            phase1::divide(&g, &LocecConfig { threads, ..LocecConfig::fast() })
        };
        let base = run(1);
        for threads in [2usize, 8] {
            let d = run(threads);
            prop_assert_eq!(d.num_communities(), base.num_communities());
            for (a, b) in d.communities.iter().zip(&base.communities) {
                prop_assert_eq!(a.ego, b.ego);
                prop_assert_eq!(&a.members, &b.members);
                prop_assert_eq!(&a.tightness, &b.tightness);
            }
        }
        let reference = phase1::reference::divide_reference(
            &g,
            &LocecConfig { threads: 2, ..LocecConfig::fast() },
        );
        prop_assert_eq!(base.num_communities(), reference.num_communities());
        for (a, b) in base.communities.iter().zip(&reference.communities) {
            prop_assert_eq!(a.ego, b.ego);
            prop_assert_eq!(&a.members, &b.members);
            prop_assert_eq!(&a.tightness, &b.tightness);
        }
        // Membership tables agree through the public lookup.
        for (_, u, v) in g.edges() {
            prop_assert_eq!(
                base.community_index_of(&g, u, v),
                reference.community_index_of(&g, u, v)
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Phase I invariants hold on full synthetic worlds (expensive case
    /// count kept low).
    #[test]
    fn division_covers_every_edge_of_random_worlds(seed in 0u64..500) {
        let mut config = SynthConfig::tiny(seed);
        config.num_users = 120;
        config.surveyed_users = 20;
        let s = Scenario::generate(&config);
        let division = phase1::divide(&s.graph, &LocecConfig { threads: 2, ..LocecConfig::fast() });
        for (_, u, v) in s.graph.edges() {
            prop_assert!(division.community_of(&s.graph, u, v).is_some());
            prop_assert!(division.community_of(&s.graph, v, u).is_some());
        }
        // Tightness bounds hold everywhere.
        for c in &division.communities {
            for &t in &c.tightness {
                prop_assert!((0.0..=1.0).contains(&t));
            }
        }
    }
}

/// Strategy helper: a deterministic random edge delta against `g` —
/// `removes` sampled from the edge set, `inserts` from non-adjacent pairs —
/// mimicking the shape of `locec_synth::evolve`'s event streams.
fn random_delta(g: &CsrGraph, seed: u64, churn: usize) -> locec::graph::GraphDelta {
    let mut state = seed | 1;
    let mut next = move |bound: usize| {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % bound.max(1)
    };
    let m = g.num_edges();
    let n = g.num_nodes() as u32;
    let mut removes = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for _ in 0..churn.min(m / 2) {
        let e = next(m) as u32;
        if seen.insert(e) {
            let (u, v) = g.endpoints(locec::graph::EdgeId(e));
            removes.push((u.0, v.0));
        }
    }
    let mut inserts = Vec::new();
    let mut chosen = std::collections::HashSet::new();
    let mut attempts = 0;
    while inserts.len() < churn && attempts < 50 * churn + 100 {
        attempts += 1;
        let a = next(n as usize) as u32;
        let b = next(n as usize) as u32;
        if a == b {
            continue;
        }
        let pair = (a.min(b), a.max(b));
        if g.has_edge(NodeId(pair.0), NodeId(pair.1)) || !chosen.insert(pair) {
            continue;
        }
        inserts.push(pair);
    }
    locec::graph::GraphDelta::new(g.num_nodes(), inserts, removes).expect("constructed valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The incremental-update identity: on random power-law graphs under
    /// random edge-event churn, `divide_update` over the dirty egos of the
    /// delta is bit-identical to a full `divide` of the evolved graph — for
    /// every pool size, including the membership table.
    #[test]
    fn divide_update_equals_full_divide_of_the_evolved_graph(
        g in random_power_law_graph(),
        seed in 0u64..1u64 << 32,
        churn in 1usize..8,
    ) {
        let delta = random_delta(&g, seed, churn);
        // `random_delta` removes real edges and inserts real non-edges, so
        // application cannot fail.
        let applied = g.apply_delta(&delta).expect("valid delta applies");
        let dirty = locec::graph::dirty_egos(&g, &delta);
        let base = phase1::divide(&g, &LocecConfig { threads: 2, ..LocecConfig::fast() });
        let full = phase1::divide(&applied.graph, &LocecConfig { threads: 2, ..LocecConfig::fast() });
        for threads in [1usize, 2, 8] {
            let config = LocecConfig { threads, ..LocecConfig::fast() };
            let updated = phase1::divide_update(&applied.graph, &base, &dirty, &config);
            prop_assert_eq!(updated.num_communities(), full.num_communities());
            for (a, b) in updated.communities.iter().zip(&full.communities) {
                prop_assert_eq!(a.ego, b.ego);
                prop_assert_eq!(&a.members, &b.members);
                prop_assert_eq!(
                    a.tightness.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
                    b.tightness.iter().map(|t| t.to_bits()).collect::<Vec<_>>()
                );
            }
            prop_assert_eq!(
                updated.membership_table(),
                full.membership_table(),
                "membership diverged at {} threads",
                threads
            );
        }
    }

    /// Applying a world delta through the synth event-stream layer keeps
    /// every surviving edge's payload and is idempotent on re-application
    /// of the same base (determinism of the whole evolve path).
    #[test]
    fn evolve_streams_compose_into_consistent_graph_deltas(
        n_users in 40usize..80,
        seed in 0u64..1u64 << 16,
    ) {
        let mut sc = SynthConfig::tiny(seed);
        sc.num_users = n_users;
        sc.surveyed_users = 10;
        let s = Scenario::generate(&sc);
        let delta = s.evolve(&locec::synth::evolve::EvolveConfig {
            seed: seed ^ 0xBEEF,
            insert_fraction: 0.05,
            remove_fraction: 0.05,
            batches: 3,
            ..Default::default()
        });
        let (inserts, rows, removes) = delta.flatten();
        prop_assert_eq!(inserts.len(), rows.len());
        let gd = locec::graph::GraphDelta::new(s.graph.num_nodes(), inserts, removes).unwrap();
        let applied = s.graph.apply_delta(&gd).unwrap();
        prop_assert_eq!(
            applied.graph.num_edges(),
            s.graph.num_edges() + delta.num_inserts() - delta.num_removes()
        );
        // Dirty egos are sorted, deduplicated and within range.
        let dirty = locec::graph::dirty_egos(&s.graph, &gd);
        prop_assert!(dirty.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(dirty.iter().all(|d| d.index() < s.graph.num_nodes()));
    }
}

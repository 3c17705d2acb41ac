//! Phase II feature machinery: Eq. 1 (interaction aggregation), Eq. 3
//! (tightness) and Algorithm 1 (feature-matrix construction).
//!
//! These three pieces are LoCEC's answer to feature sparsity: even when the
//! ego–friend pair never interacts, the friend's interactions with the rest
//! of their shared local community produce a dense, normalized feature row.

use crate::phase1::LocalCommunity;
use locec_graph::CsrGraph;
use locec_ml::Tensor;
use locec_synth::interactions::EdgeInteractions;
use locec_synth::types::{INTERACTION_DIMS, USER_FEATURE_DIMS};

/// Width of one feature-matrix row: `|I| + |f|`.
pub const FEATURE_COLS: usize = INTERACTION_DIMS + USER_FEATURE_DIMS;

/// Eq. 3 — tightness of a member given its in-community degree, its
/// ego-network degree, and the community size `|C|`:
///
/// ```text
/// tightness(u, C) = 1                                          if |C| = 1
///                 = (friend(u,C)/friend(u,Gv)) · friend(u,C)/(|C|−1)  else
/// ```
///
/// A member connected to every other member and to nothing outside the
/// community scores 1. The degenerate `friend(u, Gv) = 0` case (isolated
/// friend in a multi-member community) cannot occur for partitions produced
/// by connectivity-respecting detectors, but is defined as 0 for safety.
pub fn tightness(friends_in_c: usize, friends_in_ego: usize, community_size: usize) -> f32 {
    if community_size <= 1 {
        return 1.0;
    }
    if friends_in_ego == 0 {
        return 0.0;
    }
    let a = friends_in_c as f32 / friends_in_ego as f32;
    let b = friends_in_c as f32 / (community_size - 1) as f32;
    a * b
}

/// Eq. 1 — the aggregated interaction features of every member of a local
/// community, all dimensions at once.
///
/// `interact(u, C, j) = Σ_{v∈C\u} I_j(u,v) / Σ_{{v,w}⊆C} I_j(v,w)`;
/// dimensions with a zero denominator yield 0 for every member.
///
/// Returns one `|I|`-dim row per member, in `community.members` order.
pub fn interact(
    graph: &CsrGraph,
    interactions: &EdgeInteractions,
    community: &LocalCommunity,
) -> Vec<[f32; INTERACTION_DIMS]> {
    let members = &community.members;
    let mut per_member = vec![[0.0f32; INTERACTION_DIMS]; members.len()];
    let mut totals = [0.0f32; INTERACTION_DIMS];

    for (i, &u) in members.iter().enumerate() {
        for (jdx, &v) in members.iter().enumerate().skip(i + 1) {
            let Some(edge) = graph.edge_between(u, v) else {
                continue;
            };
            let counts = interactions.edge(edge);
            for d in 0..INTERACTION_DIMS {
                let c = counts[d];
                per_member[i][d] += c;
                per_member[jdx][d] += c;
                totals[d] += c;
            }
        }
    }

    for row in per_member.iter_mut() {
        for d in 0..INTERACTION_DIMS {
            if totals[d] > 0.0 {
                row[d] /= totals[d];
            } else {
                row[d] = 0.0;
            }
        }
    }
    per_member
}

/// Algorithm 1 — the `k × (|I| + |f|)` feature matrix of a local community.
///
/// Rows are the concatenated `[I_u^C, f_u]` features of the top-`k` members
/// by tightness (descending; ties broken by ascending node id so results
/// are deterministic); communities smaller than `k` are zero-padded.
pub fn community_feature_matrix(
    graph: &CsrGraph,
    interactions: &EdgeInteractions,
    user_features: &[[f32; USER_FEATURE_DIMS]],
    community: &LocalCommunity,
    k: usize,
) -> Tensor {
    community_feature_matrix_ordered(
        graph,
        interactions,
        user_features,
        community,
        k,
        crate::config::RowOrder::Tightness,
        0,
    )
}

/// [`community_feature_matrix`] with an explicit row ordering — the
/// ablation entry point. `seed` only matters for [`RowOrder::Random`].
///
/// [`RowOrder::Random`]: crate::config::RowOrder::Random
#[allow(clippy::too_many_arguments)]
pub fn community_feature_matrix_ordered(
    graph: &CsrGraph,
    interactions: &EdgeInteractions,
    user_features: &[[f32; USER_FEATURE_DIMS]],
    community: &LocalCommunity,
    k: usize,
    row_order: crate::config::RowOrder,
    seed: u64,
) -> Tensor {
    let rows = member_feature_rows(graph, interactions, user_features, community);
    let mut order: Vec<usize> = (0..community.members.len()).collect();
    match row_order {
        crate::config::RowOrder::Tightness => {
            order.sort_by(|&a, &b| {
                community.tightness[b]
                    .partial_cmp(&community.tightness[a])
                    .expect("finite tightness")
                    .then(community.members[a].cmp(&community.members[b]))
            });
        }
        crate::config::RowOrder::Random => {
            use rand::seq::SliceRandom;
            use rand::SeedableRng;
            // Per-community deterministic shuffle keyed on the ego.
            let mut rng = rand::rngs::StdRng::seed_from_u64(
                seed ^ (community.ego.0 as u64).wrapping_mul(0x9E37_79B9),
            );
            order.shuffle(&mut rng);
        }
    }

    let mut matrix = Tensor::zeros(&[k, FEATURE_COLS]);
    for (slot, &idx) in order.iter().take(k).enumerate() {
        for (col, &v) in rows[idx].iter().enumerate() {
            *matrix.at2_mut(slot, col) = v;
        }
    }
    matrix
}

/// The unsorted `[I_u^C, f_u]` feature row of every member.
pub fn member_feature_rows(
    graph: &CsrGraph,
    interactions: &EdgeInteractions,
    user_features: &[[f32; USER_FEATURE_DIMS]],
    community: &LocalCommunity,
) -> Vec<[f32; FEATURE_COLS]> {
    let interact_rows = interact(graph, interactions, community);
    community
        .members
        .iter()
        .zip(&interact_rows)
        .map(|(&u, irow)| {
            let mut row = [0.0f32; FEATURE_COLS];
            row[..INTERACTION_DIMS].copy_from_slice(irow);
            row[INTERACTION_DIMS..].copy_from_slice(&user_features[u.index()]);
            row
        })
        .collect()
}

/// The LoCEC-XGB pooled feature vector: per-column mean and standard
/// deviation over the community's *actual* members (no padding), giving a
/// `2·(|I|+|f|)`-dim vector (paper §IV-B2, XGBoost variant).
pub fn pooled_feature_vector(
    graph: &CsrGraph,
    interactions: &EdgeInteractions,
    user_features: &[[f32; USER_FEATURE_DIMS]],
    community: &LocalCommunity,
) -> Vec<f32> {
    let rows = member_feature_rows(graph, interactions, user_features, community);
    let n = rows.len().max(1) as f32;
    let mut mean = [0.0f32; FEATURE_COLS];
    for row in &rows {
        for (m, &v) in mean.iter_mut().zip(row.iter()) {
            *m += v;
        }
    }
    mean.iter_mut().for_each(|m| *m /= n);
    let mut std = [0.0f32; FEATURE_COLS];
    for row in &rows {
        for (s, (&v, &m)) in std.iter_mut().zip(row.iter().zip(mean.iter())) {
            *s += (v - m) * (v - m);
        }
    }
    std.iter_mut().for_each(|s| *s = (*s / n).sqrt());

    let mut out = Vec::with_capacity(2 * FEATURE_COLS);
    out.extend_from_slice(&mean);
    out.extend_from_slice(&std);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use locec_graph::{EdgeId, GraphBuilder, NodeId};

    fn triangle_world() -> (CsrGraph, EdgeInteractions, Vec<[f32; USER_FEATURE_DIMS]>) {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(1), NodeId(2));
        b.add_edge(NodeId(0), NodeId(2));
        let g = b.build();
        let mut inter = EdgeInteractions::zeros(3);
        // Edge (0,1): 4 messages; edge (1,2): 1 message, 2 picture likes.
        let e01 = g.edge_between(NodeId(0), NodeId(1)).unwrap();
        let e12 = g.edge_between(NodeId(1), NodeId(2)).unwrap();
        inter.edge_mut(e01)[0] = 4.0;
        inter.edge_mut(e12)[0] = 1.0;
        inter.edge_mut(e12)[1] = 2.0;
        let feats = vec![[0.5; USER_FEATURE_DIMS]; 3];
        (g, inter, feats)
    }

    fn community(members: &[u32], tight: &[f32]) -> LocalCommunity {
        LocalCommunity {
            ego: NodeId(99),
            members: members
                .iter()
                .map(|&m| NodeId(m))
                .collect::<Vec<_>>()
                .into(),
            tightness: tight.to_vec().into(),
        }
    }

    #[test]
    fn tightness_paper_values() {
        // §IV-B: U4 in C1 has 2 friends inside C1 out of 3 in the ego
        // network and |C1| = 3 ⇒ (2/3)·(2/2) = 2/3.
        assert_eq!(tightness(2, 3, 3), 2.0 / 3.0);
        // U2 and U3: all 2 ego-network friends are inside C1 ⇒ 1.
        assert_eq!(tightness(2, 2, 3), 1.0);
        assert_eq!(tightness(1, 1, 2), 1.0); // pair community, no outside
        assert_eq!(tightness(0, 5, 4), 0.0);
        assert_eq!(tightness(0, 0, 1), 1.0); // singleton
        assert_eq!(tightness(0, 0, 3), 0.0); // degenerate guard
    }

    #[test]
    fn interact_normalizes_per_dimension() {
        let (g, inter, _) = triangle_world();
        let c = community(&[0, 1, 2], &[1.0, 1.0, 1.0]);
        let rows = interact(&g, &inter, &c);
        // Dim 0 totals 5 (4 + 1): node0 = 4/5, node1 = 5/5, node2 = 1/5.
        assert!((rows[0][0] - 0.8).abs() < 1e-6);
        assert!((rows[1][0] - 1.0).abs() < 1e-6);
        assert!((rows[2][0] - 0.2).abs() < 1e-6);
        // Dim 1 totals 2: node0 = 0, node1 = node2 = 1.
        assert_eq!(rows[0][1], 0.0);
        assert!((rows[1][1] - 1.0).abs() < 1e-6);
        // Dims with zero totals are all zero.
        for r in &rows {
            assert_eq!(r[3], 0.0);
        }
    }

    #[test]
    fn interact_ignores_non_adjacent_members() {
        // Path 0-1-2: pair (0,2) is not an edge, so only edges count.
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(1), NodeId(2));
        let g = b.build();
        let mut inter = EdgeInteractions::zeros(2);
        inter.edge_mut(EdgeId(0))[0] = 3.0;
        let c = community(&[0, 1, 2], &[1.0, 1.0, 1.0]);
        let rows = interact(&g, &inter, &c);
        let total: f32 = rows.iter().map(|r| r[0]).sum();
        // Node 0 and node 1 each see the 3 messages; node 2 none.
        assert!((total - 2.0).abs() < 1e-6);
        assert_eq!(rows[2][0], 0.0);
    }

    #[test]
    fn feature_matrix_sorts_by_tightness_and_pads() {
        let (g, inter, feats) = triangle_world();
        let c = community(&[0, 1, 2], &[0.2, 0.9, 0.5]);
        let m = community_feature_matrix(&g, &inter, &feats, &c, 5);
        assert_eq!(m.shape(), &[5, FEATURE_COLS]);
        // Row 0 = node 1 (tightness 0.9): dim0 share = 1.0.
        assert!((m.at2(0, 0) - 1.0).abs() < 1e-6);
        // Row 1 = node 2 (0.5): dim0 share = 0.2.
        assert!((m.at2(1, 0) - 0.2).abs() < 1e-6);
        // Row 2 = node 0 (0.2): dim0 share = 0.8.
        assert!((m.at2(2, 0) - 0.8).abs() < 1e-6);
        // Padded rows are zero.
        for col in 0..FEATURE_COLS {
            assert_eq!(m.at2(3, col), 0.0);
            assert_eq!(m.at2(4, col), 0.0);
        }
        // User features occupy the trailing columns.
        assert_eq!(m.at2(0, INTERACTION_DIMS), 0.5);
    }

    #[test]
    fn feature_matrix_truncates_to_top_k() {
        let (g, inter, feats) = triangle_world();
        let c = community(&[0, 1, 2], &[0.2, 0.9, 0.5]);
        let m = community_feature_matrix(&g, &inter, &feats, &c, 2);
        assert_eq!(m.shape(), &[2, FEATURE_COLS]);
        // Only nodes 1 and 2 make the cut.
        assert!((m.at2(0, 0) - 1.0).abs() < 1e-6);
        assert!((m.at2(1, 0) - 0.2).abs() < 1e-6);
    }

    #[test]
    fn tie_break_is_deterministic() {
        let (g, inter, feats) = triangle_world();
        let c = community(&[0, 1, 2], &[0.5, 0.5, 0.5]);
        let m1 = community_feature_matrix(&g, &inter, &feats, &c, 3);
        let m2 = community_feature_matrix(&g, &inter, &feats, &c, 3);
        assert_eq!(m1.data(), m2.data());
        // Equal tightness → ascending node id: row 0 is node 0 (share 0.8).
        assert!((m1.at2(0, 0) - 0.8).abs() < 1e-6);
    }

    #[test]
    fn pooled_vector_has_mean_and_std() {
        let (g, inter, feats) = triangle_world();
        let c = community(&[0, 1, 2], &[1.0, 1.0, 1.0]);
        let v = pooled_feature_vector(&g, &inter, &feats, &c);
        assert_eq!(v.len(), 2 * FEATURE_COLS);
        // Mean of dim 0 shares (0.8 + 1.0 + 0.2)/3.
        assert!((v[0] - 2.0 / 3.0).abs() < 1e-5);
        // Std of the constant user feature column is 0.
        assert!(v[FEATURE_COLS + INTERACTION_DIMS].abs() < 1e-6);
    }
}

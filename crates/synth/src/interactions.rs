//! Per-edge interaction generation.
//!
//! The paper's central difficulty is that interaction features are *sparse*:
//! "around 60% of user pairs have no interactions over a month" (§I), yet
//! *which* interactions occur is type-discriminative (Figure 3: everyone
//! likes pictures; colleagues and schoolmates like articles more than
//! family; schoolmates dominate game likes and game comments; colleagues
//! barely discuss games). The generator reproduces exactly that regime:
//! most edges are all-zero, and active edges draw dimension activations
//! from type-conditional propensity tables whose orderings match Figure 3.

use crate::config::SynthConfig;
use crate::types::{EdgeCategory, INTERACTION_DIMS};
use crate::users::UserProfile;
use locec_graph::{CsrGraph, EdgeId};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// Probability each interaction dimension is active, *given the edge has
/// any interaction*, indexed `[category][dimension]` with dimensions
/// `[message, like_pic, like_art, like_game, com_pic, com_art, com_game,
/// repost]`. Orderings encode Figure 3.
pub const DIM_PROPENSITY: [[f64; INTERACTION_DIMS]; 4] = [
    // Family
    [0.75, 0.70, 0.28, 0.10, 0.60, 0.15, 0.08, 0.20],
    // Colleague
    [0.65, 0.72, 0.48, 0.15, 0.55, 0.38, 0.05, 0.25],
    // Schoolmate
    [0.60, 0.75, 0.45, 0.50, 0.62, 0.22, 0.35, 0.22],
    // Other
    [0.30, 0.45, 0.25, 0.15, 0.25, 0.12, 0.08, 0.10],
];

/// Interaction count vectors for every edge of a graph.
#[derive(Clone, Debug)]
pub struct EdgeInteractions {
    counts: Vec<[f32; INTERACTION_DIMS]>,
}

impl EdgeInteractions {
    /// Generates interactions for every edge.
    pub fn generate(
        graph: &CsrGraph,
        edge_categories: &[EdgeCategory],
        profiles: &[UserProfile],
        config: &SynthConfig,
    ) -> Self {
        assert_eq!(graph.num_edges(), edge_categories.len());
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_mul(0x9E37_79B9).wrapping_add(2));
        let mut counts = vec![[0.0f32; INTERACTION_DIMS]; graph.num_edges()];

        for (e, u, v) in graph.edges() {
            let cat = edge_categories[e.index()];
            // Activity of the pair modulates whether they interact at all.
            let pair_activity =
                0.5 * (profiles[u.index()].activity + profiles[v.index()].activity) as f64;
            let p_active =
                (config.interaction_prob[cat as usize] * (0.6 + 0.8 * pair_activity)).min(1.0);
            if !rng.gen_bool(p_active) {
                continue; // ~60% of pairs stay all-zero
            }
            let propensity = &DIM_PROPENSITY[cat as usize];
            for (d, &p_dim) in propensity.iter().enumerate() {
                if rng.gen_bool(p_dim) {
                    counts[e.index()][d] = sample_count(config.interaction_mean, &mut rng);
                }
            }
        }

        EdgeInteractions { counts }
    }

    /// The raw per-edge count rows, indexed by `EdgeId` — public for
    /// persistence (columnar snapshot writers stream this slice directly).
    pub fn rows(&self) -> &[[f32; INTERACTION_DIMS]] {
        &self.counts
    }

    /// Rebuilds interactions from raw rows (the inverse of
    /// [`EdgeInteractions::rows`]).
    pub fn from_rows(counts: Vec<[f32; INTERACTION_DIMS]>) -> Self {
        EdgeInteractions { counts }
    }

    /// All-zero interactions (for hand-built test graphs).
    pub fn zeros(num_edges: usize) -> Self {
        EdgeInteractions {
            counts: vec![[0.0; INTERACTION_DIMS]; num_edges],
        }
    }

    /// Interaction vector of one edge.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> &[f32; INTERACTION_DIMS] {
        &self.counts[e.index()]
    }

    /// Mutable interaction vector (used by tests and ablations).
    #[inline]
    pub fn edge_mut(&mut self, e: EdgeId) -> &mut [f32; INTERACTION_DIMS] {
        &mut self.counts[e.index()]
    }

    /// Total interaction count of one edge across all dimensions.
    pub fn total(&self, e: EdgeId) -> f32 {
        self.counts[e.index()].iter().sum()
    }

    /// Number of edges covered.
    pub fn num_edges(&self) -> usize {
        self.counts.len()
    }

    /// Fraction of edges with zero interactions.
    pub fn sparsity(&self) -> f64 {
        if self.counts.is_empty() {
            return 0.0;
        }
        let zero = self
            .counts
            .iter()
            .filter(|c| c.iter().all(|&v| v == 0.0))
            .count();
        zero as f64 / self.counts.len() as f64
    }
}

/// A 1-based geometric-ish count with the given mean.
fn sample_count(mean: f64, rng: &mut StdRng) -> f32 {
    let p = 1.0 / mean.max(1.0);
    let mut count = 1u32;
    while count < 50 && !rng.gen_bool(p) {
        count += 1;
    }
    count as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use crate::types::*;

    fn scenario() -> Scenario {
        Scenario::generate(&SynthConfig::tiny(3))
    }

    #[test]
    fn roughly_sixty_percent_of_pairs_are_silent() {
        let s = scenario();
        let sparsity = s.interactions.sparsity();
        assert!(
            (0.40..=0.75).contains(&sparsity),
            "sparsity {sparsity} out of the paper's regime"
        );
    }

    #[test]
    fn propensity_orderings_match_figure3() {
        for p in &DIM_PROPENSITY[..4] {
            // Pictures are liked more than articles and games (all types).
            assert!(p[DIM_LIKE_PICTURE] > p[DIM_LIKE_ARTICLE]);
            assert!(p[DIM_LIKE_PICTURE] > p[DIM_LIKE_GAME]);
            // Comments concentrate on pictures.
            assert!(p[DIM_COMMENT_PICTURE] > p[DIM_COMMENT_ARTICLE]);
        }
        let fam = &DIM_PROPENSITY[EdgeCategory::Family as usize];
        let col = &DIM_PROPENSITY[EdgeCategory::Colleague as usize];
        let sch = &DIM_PROPENSITY[EdgeCategory::Schoolmate as usize];
        // Colleagues and schoolmates like articles more than family members.
        assert!(col[DIM_LIKE_ARTICLE] > fam[DIM_LIKE_ARTICLE]);
        assert!(sch[DIM_LIKE_ARTICLE] > fam[DIM_LIKE_ARTICLE]);
        // Schoolmates have the highest game likes and clear game comments.
        assert!(sch[DIM_LIKE_GAME] > col[DIM_LIKE_GAME]);
        assert!(sch[DIM_LIKE_GAME] > fam[DIM_LIKE_GAME]);
        assert!(sch[DIM_COMMENT_GAME] > 0.3);
        // Colleagues barely discuss games but comment articles the most.
        assert!(col[DIM_COMMENT_GAME] < 0.1);
        assert!(col[DIM_COMMENT_ARTICLE] > sch[DIM_COMMENT_ARTICLE]);
        assert!(col[DIM_COMMENT_ARTICLE] > fam[DIM_COMMENT_ARTICLE]);
    }

    #[test]
    fn active_edges_have_positive_counts() {
        let s = scenario();
        let mut saw_active = false;
        for (e, _, _) in s.graph.edges() {
            let row = s.interactions.edge(e);
            for &v in row {
                assert!((0.0..=50.0).contains(&v));
            }
            if row.iter().any(|&v| v > 0.0) {
                saw_active = true;
                assert!(s.interactions.total(e) >= 1.0);
            }
        }
        assert!(saw_active);
    }

    #[test]
    fn deterministic_for_seed() {
        let s1 = Scenario::generate(&SynthConfig::tiny(9));
        let s2 = Scenario::generate(&SynthConfig::tiny(9));
        for (e, _, _) in s1.graph.edges() {
            assert_eq!(s1.interactions.edge(e), s2.interactions.edge(e));
        }
    }

    #[test]
    fn zeros_constructor() {
        let z = EdgeInteractions::zeros(3);
        assert_eq!(z.num_edges(), 3);
        assert_eq!(z.sparsity(), 1.0);
        assert_eq!(z.total(EdgeId(1)), 0.0);
    }
}

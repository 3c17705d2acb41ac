//! Raw XGBoost edge classification — no community aggregation.
//!
//! Paper §V: "The input feature consists of the individual features of two
//! end users and the interaction feature between them." This baseline
//! exists to demonstrate the sparsity problem LoCEC solves: ≈60% of pairs
//! have all-zero interaction features, so the booster can separate only the
//! minority of active pairs — recall collapses (Table IV: the lowest
//! F1 of all methods), and *adding more labels does not help* (Fig. 11),
//! because the features themselves carry no signal for silent pairs.

use locec_graph::EdgeId;
use locec_ml::gbdt::{Gbdt, GbdtConfig};
use locec_ml::Dataset;
use locec_synth::types::{RelationType, INTERACTION_DIMS, USER_FEATURE_DIMS};
use locec_synth::SocialDataset;

/// Configuration of the raw-XGBoost baseline.
#[derive(Clone, Debug, Default)]
pub struct XgbEdgeConfig {
    /// Booster hyper-parameters.
    pub gbdt: GbdtConfig,
}

/// Feature width: two profiles plus the pair interaction vector.
pub const EDGE_FEATURE_DIMS: usize = 2 * USER_FEATURE_DIMS + INTERACTION_DIMS;

/// Builds the raw edge feature `[f_u, f_v, I_uv]` with endpoints ordered
/// canonically (min id first) for orientation invariance.
pub fn raw_edge_feature(data: &SocialDataset<'_>, e: EdgeId) -> [f32; EDGE_FEATURE_DIMS] {
    let (u, v) = data.graph.endpoints(e);
    let mut out = [0.0f32; EDGE_FEATURE_DIMS];
    out[..USER_FEATURE_DIMS].copy_from_slice(&data.user_features[u.index()]);
    out[USER_FEATURE_DIMS..2 * USER_FEATURE_DIMS].copy_from_slice(&data.user_features[v.index()]);
    out[2 * USER_FEATURE_DIMS..].copy_from_slice(data.interactions.edge(e));
    out
}

/// Trains the booster on raw edge features of `train_edges`, predicts
/// `test_edges`.
pub fn xgb_edge_predict(
    data: &SocialDataset<'_>,
    train_edges: &[(EdgeId, RelationType)],
    test_edges: &[EdgeId],
    config: &XgbEdgeConfig,
) -> Vec<usize> {
    let mut ds = Dataset::new(EDGE_FEATURE_DIMS);
    for &(e, t) in train_edges {
        ds.push(&raw_edge_feature(data, e), t.label());
    }
    let model = Gbdt::fit(&ds, RelationType::COUNT, &config.gbdt);
    test_edges
        .iter()
        .map(|&e| model.predict(&raw_edge_feature(data, e)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split_labels;
    use locec_ml::metrics::evaluate;
    use locec_synth::{Scenario, SynthConfig};

    #[test]
    fn beats_chance_but_not_by_much() {
        let s = Scenario::generate(&SynthConfig::tiny(95));
        let (train, test) = split_labels(&s, 0.8);
        let test_ids: Vec<EdgeId> = test.iter().map(|&(e, _)| e).collect();
        let preds = xgb_edge_predict(
            &s.dataset(),
            &train,
            &test_ids,
            &XgbEdgeConfig {
                gbdt: GbdtConfig::fast(),
            },
        );
        let y_true: Vec<usize> = test.iter().map(|&(_, t)| t.label()).collect();
        let eval = evaluate(&y_true, &preds, RelationType::COUNT);
        assert!(eval.accuracy > 0.40, "accuracy {}", eval.accuracy);
    }

    #[test]
    fn feature_layout_is_stable() {
        let s = Scenario::generate(&SynthConfig::tiny(96));
        let ds = s.dataset();
        let (e, u, v) = ds.graph.edges().next().unwrap();
        let f = raw_edge_feature(&ds, e);
        assert_eq!(f[..4], ds.user_features[u.index()]);
        assert_eq!(f[4..8], ds.user_features[v.index()]);
        assert_eq!(&f[8..], ds.interactions.edge(e));
    }

    #[test]
    fn silent_pairs_share_identical_interaction_features() {
        // The sparsity pathology: two silent edges differ only in profile
        // features.
        let s = Scenario::generate(&SynthConfig::tiny(97));
        let ds = s.dataset();
        let silent: Vec<EdgeId> = ds
            .graph
            .edges()
            .map(|(e, _, _)| e)
            .filter(|&e| ds.interactions.total(e) == 0.0)
            .take(2)
            .collect();
        assert_eq!(silent.len(), 2, "synthetic world must contain silent pairs");
        let f0 = raw_edge_feature(&ds, silent[0]);
        let f1 = raw_edge_feature(&ds, silent[1]);
        assert_eq!(f0[8..], f1[8..], "interaction part must be all zero");
    }
}

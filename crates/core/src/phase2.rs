//! Phase II — Aggregation: community classification.
//!
//! Two model variants, exactly as compared in the paper:
//!
//! * **LoCEC-XGB** — the Algorithm 1 member rows are pooled into per-column
//!   mean/std vectors and classified by gradient-boosted trees; the
//!   community embedding `r_C` handed to Phase III is the concatenated leaf
//!   values of all trees (the GBDT→LR trick, §IV-C).
//! * **LoCEC-CNN** — the full `k × (|I|+|f|)` feature matrix is classified
//!   by CommCNN; `r_C` is the softmax probability vector `[P(C,l) ∀l∈L]`.

use crate::commcnn::CommCnn;
use crate::config::{CommunityModelKind, LocecConfig};
use crate::features::{community_feature_matrix_ordered, pooled_feature_vector};
use crate::phase1::DivisionResult;
use locec_ml::gbdt::Gbdt;
use locec_ml::linear::argmax;
use locec_ml::metrics::{evaluate, Evaluation};
use locec_ml::{Dataset, Scratch, Tensor};
use locec_runtime::run_chunked;
use locec_synth::types::RelationType;
use locec_synth::SocialDataset;
use std::sync::Mutex;

/// Communities per chunk for feature building. Feature cost scales with
/// community size, so the small grain lets the dynamic scheduler
/// re-balance around the big-community tail.
const FEATURE_GRAIN: usize = 64;

/// Builds the Algorithm 1 feature matrix of each listed community, in
/// order, in parallel chunks. Pure per-community work, so the output is
/// identical for every thread count.
fn feature_matrices(
    data: &SocialDataset<'_>,
    division: &DivisionResult,
    ids: &[u32],
    config: &LocecConfig,
) -> Vec<Tensor> {
    let threads = config.threads.max(1);
    let chunks: Vec<Vec<Tensor>> = run_chunked(ids.len(), threads, FEATURE_GRAIN, |range| {
        range
            .map(|i| {
                community_feature_matrix_ordered(
                    data.graph,
                    data.interactions,
                    data.user_features,
                    &division.communities[ids[i] as usize],
                    config.k,
                    config.row_order,
                    config.seed,
                )
            })
            .collect()
    });
    chunks.into_iter().flatten().collect()
}

/// Builds the LoCEC-XGB pooled feature vector of each listed community, in
/// order, in parallel chunks.
fn pooled_rows(
    data: &SocialDataset<'_>,
    division: &DivisionResult,
    ids: &[u32],
    threads: usize,
) -> Vec<Vec<f32>> {
    let threads = threads.max(1);
    let chunks: Vec<Vec<Vec<f32>>> = run_chunked(ids.len(), threads, FEATURE_GRAIN, |range| {
        range
            .map(|i| {
                pooled_feature_vector(
                    data.graph,
                    data.interactions,
                    data.user_features,
                    &division.communities[ids[i] as usize],
                )
            })
            .collect()
    });
    chunks.into_iter().flatten().collect()
}

/// A trained Phase II model.
pub enum CommunityClassifier {
    /// Gradient-boosted trees on pooled features.
    Xgb(Gbdt),
    /// CommCNN on feature matrices.
    Cnn(Box<CommCnn>),
}

/// `r_C` vectors (and class predictions) for every local community: two
/// flat row-major matrices with one row per community index, so Phase III
/// reads a row with one offset computation and the snapshot store moves
/// each matrix as a single column.
#[derive(Clone, Debug, PartialEq)]
pub struct AggregationResult {
    /// `len × embedding_dim` embeddings `r_C` handed to Phase III
    /// (probabilities for CNN, leaf values for XGB).
    embeddings: Vec<f32>,
    /// `len × |L|` class probabilities.
    probabilities: Vec<f32>,
    embedding_dim: usize,
}

impl AggregationResult {
    /// Wraps the two flat matrices, checking that they describe the same
    /// number of communities.
    pub fn from_flat(
        embeddings: Vec<f32>,
        probabilities: Vec<f32>,
        embedding_dim: usize,
    ) -> Result<Self, &'static str> {
        if !probabilities.len().is_multiple_of(RelationType::COUNT) {
            return Err("probability matrix is not whole rows");
        }
        let len = probabilities.len() / RelationType::COUNT;
        if len.checked_mul(embedding_dim) != Some(embeddings.len()) {
            return Err("embedding matrix does not match the community count");
        }
        Ok(AggregationResult {
            embeddings,
            probabilities,
            embedding_dim,
        })
    }

    /// Number of communities covered.
    pub fn len(&self) -> usize {
        self.probabilities.len() / RelationType::COUNT
    }

    /// Whether no community is covered.
    pub fn is_empty(&self) -> bool {
        self.probabilities.is_empty()
    }

    /// Dimensionality of one embedding.
    pub fn embedding_dim(&self) -> usize {
        self.embedding_dim
    }

    /// The embedding `r_C` of a community.
    pub fn embedding(&self, community_idx: usize) -> &[f32] {
        &self.embeddings[community_idx * self.embedding_dim..][..self.embedding_dim]
    }

    /// The class probabilities of a community (length `|L|`).
    pub fn probabilities(&self, community_idx: usize) -> &[f32] {
        &self.probabilities[community_idx * RelationType::COUNT..][..RelationType::COUNT]
    }

    /// The whole embedding matrix, row-major.
    pub fn embeddings_flat(&self) -> &[f32] {
        &self.embeddings
    }

    /// The whole probability matrix, row-major.
    pub fn probabilities_flat(&self) -> &[f32] {
        &self.probabilities
    }

    /// Predicted class of a community (argmax of probabilities).
    pub fn predicted_class(&self, community_idx: u32) -> usize {
        argmax(self.probabilities(community_idx as usize))
    }

    /// Distribution of predicted community classes (Fig. 13a).
    pub fn class_distribution(&self) -> [f64; RelationType::COUNT] {
        let mut counts = [0usize; RelationType::COUNT];
        for p in self.probabilities.chunks_exact(RelationType::COUNT) {
            counts[argmax(p)] += 1;
        }
        let total = self.len().max(1) as f64;
        [
            counts[0] as f64 / total,
            counts[1] as f64 / total,
            counts[2] as f64 / total,
        ]
    }
}

impl CommunityClassifier {
    /// Trains the configured model on ground-truth-labeled communities
    /// (`labeled` pairs community indices with labels).
    pub fn train(
        data: &SocialDataset<'_>,
        division: &DivisionResult,
        labeled: &[(u32, RelationType)],
        config: &LocecConfig,
    ) -> Self {
        assert!(!labeled.is_empty(), "no labeled communities to train on");
        let ids: Vec<u32> = labeled.iter().map(|&(idx, _)| idx).collect();
        match config.community_model {
            CommunityModelKind::Xgb => {
                let rows = pooled_rows(data, division, &ids, config.threads);
                let mut ds = Dataset::new(2 * crate::features::FEATURE_COLS);
                for (row, &(_, label)) in rows.iter().zip(labeled) {
                    ds.push(row, label.label());
                }
                let model = Gbdt::fit(&ds, RelationType::COUNT, &config.gbdt);
                CommunityClassifier::Xgb(model)
            }
            CommunityModelKind::Cnn => {
                let matrices = feature_matrices(data, division, &ids, config);
                let labels: Vec<usize> = labeled.iter().map(|&(_, l)| l.label()).collect();
                let mut cnn = CommCnn::new(
                    config.k,
                    crate::features::FEATURE_COLS,
                    RelationType::COUNT,
                    &config.commcnn,
                );
                cnn.train(&matrices, &labels);
                CommunityClassifier::Cnn(Box::new(cnn))
            }
        }
    }

    /// Computes `r_C` (embedding + probabilities) for every community.
    ///
    /// Both result matrices are allocated at their final size and split
    /// into one disjoint row block per chunk; each chunk builds its
    /// features, runs the model and writes its rows in place. Chunk
    /// boundaries depend only on `(n, FEATURE_GRAIN)`, keeping the output —
    /// and the `ml.*` counters — thread-count invariant.
    pub fn predict_all(
        &self,
        data: &SocialDataset<'_>,
        division: &DivisionResult,
        config: &LocecConfig,
    ) -> AggregationResult {
        const CLASSES: usize = RelationType::COUNT;
        let n = division.communities.len();
        let dim = match self {
            CommunityClassifier::Xgb(model) => model.num_trees(),
            CommunityClassifier::Cnn(_) => CLASSES,
        };
        let mut embeddings = vec![0.0f32; n * dim];
        let mut probabilities = vec![0.0f32; n * CLASSES];
        {
            // Each slot is locked exactly once, by the chunk that owns it.
            // (A zero-width embedding has no blocks to hand out; its chunks
            // get empty ones.)
            let mut emb_blocks = embeddings.chunks_mut((FEATURE_GRAIN * dim).max(1));
            let slots: Vec<Mutex<(&mut [f32], &mut [f32])>> = probabilities
                .chunks_mut(FEATURE_GRAIN * CLASSES)
                .map(|prob| Mutex::new((emb_blocks.next().unwrap_or_default(), prob)))
                .collect();
            let threads = config.threads.max(1);
            run_chunked(n, threads, FEATURE_GRAIN, |range| {
                let mut slot = slots[range.start / FEATURE_GRAIN]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                let (emb, prob) = &mut *slot;
                match self {
                    CommunityClassifier::Xgb(model) => {
                        for (row, i) in range.enumerate() {
                            let v = pooled_feature_vector(
                                data.graph,
                                data.interactions,
                                data.user_features,
                                &division.communities[i],
                            );
                            model.leaf_values_into(&v, &mut emb[row * dim..(row + 1) * dim]);
                            prob[row * CLASSES..(row + 1) * CLASSES]
                                .copy_from_slice(&model.predict_proba(&v));
                        }
                    }
                    CommunityClassifier::Cnn(cnn) => {
                        // The frozen forward pass is `&self`, so every
                        // chunk infers with its own scratch arena.
                        let matrices: Vec<Tensor> = range
                            .map(|i| {
                                community_feature_matrix_ordered(
                                    data.graph,
                                    data.interactions,
                                    data.user_features,
                                    &division.communities[i],
                                    config.k,
                                    config.row_order,
                                    config.seed,
                                )
                            })
                            .collect();
                        let refs: Vec<&Tensor> = matrices.iter().collect();
                        let mut scratch = Scratch::new();
                        let rows = cnn.predict_proba_chunk(&refs, &mut scratch);
                        for (row, p) in rows.iter().enumerate() {
                            emb[row * CLASSES..(row + 1) * CLASSES].copy_from_slice(p);
                            prob[row * CLASSES..(row + 1) * CLASSES].copy_from_slice(p);
                        }
                    }
                }
            });
        }
        AggregationResult {
            embeddings,
            probabilities,
            // An empty division keeps the width it always reported.
            embedding_dim: if n == 0 { 0 } else { dim },
        }
    }

    /// Evaluates community classification on held-out labeled communities
    /// (Table V).
    pub fn evaluate_on(
        &self,
        data: &SocialDataset<'_>,
        division: &DivisionResult,
        test: &[(u32, RelationType)],
        config: &LocecConfig,
    ) -> Evaluation {
        let mut y_true = Vec::with_capacity(test.len());
        let mut y_pred = Vec::with_capacity(test.len());
        for &(idx, label) in test {
            let c = &division.communities[idx as usize];
            let pred = match self {
                CommunityClassifier::Xgb(model) => {
                    let v =
                        pooled_feature_vector(data.graph, data.interactions, data.user_features, c);
                    model.predict(&v)
                }
                CommunityClassifier::Cnn(cnn) => {
                    let m = community_feature_matrix_ordered(
                        data.graph,
                        data.interactions,
                        data.user_features,
                        c,
                        config.k,
                        config.row_order,
                        config.seed,
                    );
                    cnn.predict(&m)
                }
            };
            y_true.push(label.label());
            y_pred.push(pred);
        }
        evaluate(&y_true, &y_pred, RelationType::COUNT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground_truth::community_ground_truth;
    use crate::phase1::divide;
    use locec_synth::{Scenario, SynthConfig};

    fn setup() -> (Scenario, DivisionResult, LocecConfig) {
        let scenario = Scenario::generate(&SynthConfig::tiny(31));
        let config = LocecConfig::fast();
        let division = divide(&scenario.graph, &config);
        (scenario, division, config)
    }

    fn labeled_communities(
        scenario: &Scenario,
        division: &DivisionResult,
        config: &LocecConfig,
    ) -> Vec<(u32, RelationType)> {
        let ds = scenario.dataset();
        community_ground_truth(
            ds.graph,
            division,
            ds.labeled_edges,
            config.community_label_min_coverage,
        )
    }

    #[test]
    fn xgb_variant_trains_and_predicts_all() {
        let (scenario, division, mut config) = setup();
        config.community_model = CommunityModelKind::Xgb;
        let labeled = labeled_communities(&scenario, &division, &config);
        assert!(labeled.len() >= 10, "only {} labeled", labeled.len());
        let ds = scenario.dataset();
        let model = CommunityClassifier::train(&ds, &division, &labeled, &config);
        let agg = model.predict_all(&ds, &division, &config);
        assert_eq!(agg.len(), division.num_communities());
        assert!(agg.embedding_dim() > RelationType::COUNT, "leaf values");
        assert_eq!(agg.embeddings_flat().len(), agg.len() * agg.embedding_dim());
        for i in 0..agg.len() {
            assert!((agg.probabilities(i).iter().sum::<f32>() - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn cnn_variant_trains_and_predicts_all() {
        let (scenario, division, mut config) = setup();
        config.community_model = CommunityModelKind::Cnn;
        config.commcnn.epochs = 8; // keep the unit test quick
        let labeled = labeled_communities(&scenario, &division, &config);
        let ds = scenario.dataset();
        let model = CommunityClassifier::train(&ds, &division, &labeled, &config);
        let agg = model.predict_all(&ds, &division, &config);
        assert_eq!(agg.len(), division.num_communities());
        assert_eq!(agg.embedding_dim(), RelationType::COUNT);
        assert_eq!(agg.embeddings_flat(), agg.probabilities_flat());
        let dist = agg.class_distribution();
        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn xgb_fits_its_training_communities() {
        let (scenario, division, mut config) = setup();
        config.community_model = CommunityModelKind::Xgb;
        let labeled = labeled_communities(&scenario, &division, &config);
        let ds = scenario.dataset();
        let model = CommunityClassifier::train(&ds, &division, &labeled, &config);
        let eval = model.evaluate_on(&ds, &division, &labeled, &config);
        assert!(
            eval.accuracy > 0.8,
            "train-set accuracy {} too low",
            eval.accuracy
        );
    }

    #[test]
    fn predict_all_is_thread_count_invariant() {
        let (scenario, division, mut config) = setup();
        let labeled = labeled_communities(&scenario, &division, &config);
        let ds = scenario.dataset();
        for kind in [CommunityModelKind::Xgb, CommunityModelKind::Cnn] {
            config.community_model = kind;
            config.commcnn.epochs = 4; // keep the unit test quick
            let model = CommunityClassifier::train(&ds, &division, &labeled, &config);
            let base = model.predict_all(&ds, &division, &config);
            for threads in [1usize, 2, 4, 8] {
                let cfg = LocecConfig {
                    threads,
                    ..config.clone()
                };
                let agg = model.predict_all(&ds, &division, &cfg);
                assert_eq!(agg, base, "{kind:?} {threads} threads");
            }
        }
    }

    #[test]
    #[should_panic(expected = "no labeled communities")]
    fn training_requires_labels() {
        let (scenario, division, config) = setup();
        let ds = scenario.dataset();
        let _ = CommunityClassifier::train(&ds, &division, &[], &config);
    }
}

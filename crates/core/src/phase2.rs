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
//!
//! [`CommunityClassifier::embed_into`] is the one place a community becomes
//! its `r_C`: batch inference and the serve daemon's lazy per-community memo
//! both call it, and training builds its inputs with the same
//! per-community builders.

use crate::commcnn::CommCnn;
use crate::config::{CommunityModelKind, LocecConfig};
use crate::features::{community_feature_matrix_ordered, pooled_feature_vector, FEATURE_COLS};
use crate::phase1::{DivisionResult, LocalCommunity};
use locec_ml::gbdt::Gbdt;
use locec_ml::linear::argmax;
use locec_ml::metrics::{evaluate, Evaluation};
use locec_ml::{Dataset, Scratch, Tensor};
use locec_runtime::run_chunked;
use locec_synth::types::RelationType;
use locec_synth::SocialDataset;
use std::cell::RefCell;
use std::sync::Mutex;

/// Communities per chunk for feature building. Feature cost scales with
/// community size, so the small grain lets the dynamic scheduler
/// re-balance around the big-community tail.
const FEATURE_GRAIN: usize = 64;

/// The LoCEC-XGB input of one community: its pooled feature vector.
fn pooled(data: &SocialDataset<'_>, community: &LocalCommunity) -> Vec<f32> {
    pooled_feature_vector(data.graph, data.interactions, data.user_features, community)
}

/// The LoCEC-CNN input of one community: its Algorithm 1 feature matrix.
fn matrix(data: &SocialDataset<'_>, community: &LocalCommunity, config: &LocecConfig) -> Tensor {
    community_feature_matrix_ordered(
        data.graph,
        data.interactions,
        data.user_features,
        community,
        config.k,
        config.row_order,
        config.seed,
    )
}

/// `input` of each listed community, in order, in parallel chunks. Pure
/// per-community work, so the output is identical for every thread count.
fn inputs<T: Send>(
    division: &DivisionResult,
    ids: &[u32],
    threads: usize,
    input: impl Fn(&LocalCommunity) -> T + Sync,
) -> Vec<T> {
    let chunks: Vec<Vec<T>> = run_chunked(ids.len(), threads.max(1), FEATURE_GRAIN, |range| {
        range
            .map(|i| input(&division.communities[ids[i] as usize]))
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

    /// Community classification quality on held-out labeled communities
    /// (Table V), read from the predictions already made.
    pub fn evaluate_on(&self, test: &[(u32, RelationType)]) -> Evaluation {
        let (y_true, y_pred): (Vec<usize>, Vec<usize>) = test
            .iter()
            .map(|&(idx, label)| (label.label(), self.predicted_class(idx)))
            .unzip();
        evaluate(&y_true, &y_pred, RelationType::COUNT)
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
        let labels = labeled.iter().map(|&(_, l)| l.label());
        match config.community_model {
            CommunityModelKind::Xgb => {
                let rows = inputs(division, &ids, config.threads, |c| pooled(data, c));
                let mut ds = Dataset::new(2 * FEATURE_COLS);
                for (row, label) in rows.iter().zip(labels) {
                    ds.push(row, label);
                }
                CommunityClassifier::Xgb(Gbdt::fit(&ds, RelationType::COUNT, &config.gbdt))
            }
            CommunityModelKind::Cnn => {
                let matrices = inputs(division, &ids, config.threads, |c| matrix(data, c, config));
                let mut cnn =
                    CommCnn::new(config.k, FEATURE_COLS, RelationType::COUNT, &config.commcnn);
                cnn.train_threaded(&matrices, &labels.collect::<Vec<_>>(), config.threads);
                CommunityClassifier::Cnn(Box::new(cnn))
            }
        }
    }

    /// Width of one `r_C` row: one leaf value per tree (XGB) or one
    /// probability per class (CNN).
    pub fn embedding_dim(&self) -> usize {
        match self {
            CommunityClassifier::Xgb(model) => model.num_trees(),
            CommunityClassifier::Cnn(_) => RelationType::COUNT,
        }
    }

    /// Phase II inference for a run of communities: writes each one's
    /// `r_C` row ([`CommunityClassifier::embedding_dim`] wide) into
    /// `embeddings` and its class-probability row (`|L|` wide) into
    /// `probabilities`, in order. The CNN input is built with `config.k`,
    /// `config.row_order` and `config.seed`; the frozen forward pass runs in
    /// `scratch`.
    ///
    /// [`CommunityClassifier::predict_all`] calls this once per chunk and
    /// the serve daemon once per community. The CNN forward pass is
    /// batch-shape invariant, so a community's rows are bitwise the same
    /// either way.
    pub fn embed_into(
        &self,
        data: &SocialDataset<'_>,
        communities: &[LocalCommunity],
        config: &LocecConfig,
        scratch: &mut Scratch,
        embeddings: &mut [f32],
        probabilities: &mut [f32],
    ) {
        const CLASSES: usize = RelationType::COUNT;
        let dim = self.embedding_dim();
        match self {
            CommunityClassifier::Xgb(model) => {
                for (row, c) in communities.iter().enumerate() {
                    let v = pooled(data, c);
                    model.leaf_values_into(&v, &mut embeddings[row * dim..][..dim]);
                    probabilities[row * CLASSES..][..CLASSES]
                        .copy_from_slice(&model.predict_proba(&v));
                }
            }
            CommunityClassifier::Cnn(cnn) => {
                let matrices: Vec<Tensor> = communities
                    .iter()
                    .map(|c| matrix(data, c, config))
                    .collect();
                let refs: Vec<&Tensor> = matrices.iter().collect();
                for (row, p) in cnn.predict_proba_chunk(&refs, scratch).iter().enumerate() {
                    embeddings[row * CLASSES..][..CLASSES].copy_from_slice(p);
                    probabilities[row * CLASSES..][..CLASSES].copy_from_slice(p);
                }
            }
        }
    }

    /// Computes `r_C` (embedding + probabilities) for every community.
    ///
    /// Both result matrices are allocated at their final size and split
    /// into one disjoint row block per chunk; each chunk fills its rows in
    /// place through [`CommunityClassifier::embed_into`]. Chunk boundaries
    /// depend only on `(n, FEATURE_GRAIN)`, keeping the output — and the
    /// `ml.*` counters — thread-count invariant.
    pub fn predict_all(
        &self,
        data: &SocialDataset<'_>,
        division: &DivisionResult,
        config: &LocecConfig,
    ) -> AggregationResult {
        const CLASSES: usize = RelationType::COUNT;
        thread_local! {
            static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::new());
        }
        let n = division.communities.len();
        let dim = self.embedding_dim();
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
            run_chunked(n, config.threads.max(1), FEATURE_GRAIN, |range| {
                let mut slot = slots[range.start / FEATURE_GRAIN]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                let (emb, prob) = &mut *slot;
                // The frozen forward pass is `&self`, so each thread infers
                // with its own scratch arena, kept across its chunks (every
                // op resizes and overwrites what it uses).
                SCRATCH.with(|scratch| {
                    self.embed_into(
                        data,
                        &division.communities[range],
                        config,
                        &mut scratch.borrow_mut(),
                        emb,
                        prob,
                    )
                });
            });
        }
        AggregationResult {
            embeddings,
            probabilities,
            // An empty division keeps the width it always reported.
            embedding_dim: if n == 0 { 0 } else { dim },
        }
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
        let eval = model
            .predict_all(&ds, &division, &config)
            .evaluate_on(&labeled);
        assert!(
            eval.accuracy > 0.8,
            "train-set accuracy {} too low",
            eval.accuracy
        );
    }

    /// `evaluate_on` reads the batched `predict_all` rows; an evaluation
    /// from separate one-community inference must be the same, so a
    /// community's class does not depend on the batch it was inferred in.
    #[test]
    fn evaluation_equals_per_community_inference() {
        let (scenario, division, mut config) = setup();
        let labeled = labeled_communities(&scenario, &division, &config);
        let ds = scenario.dataset();
        for kind in [CommunityModelKind::Xgb, CommunityModelKind::Cnn] {
            config.community_model = kind;
            config.commcnn.epochs = 4; // keep the unit test quick
            let model = CommunityClassifier::train(&ds, &division, &labeled, &config);
            let batched = model
                .predict_all(&ds, &division, &config)
                .evaluate_on(&labeled);
            let mut scratch = Scratch::new();
            let (y_true, y_pred): (Vec<usize>, Vec<usize>) = labeled
                .iter()
                .map(|&(idx, label)| {
                    let c = &division.communities[idx as usize];
                    let pred = match &model {
                        CommunityClassifier::Xgb(gbdt) => gbdt.predict(&pooled_feature_vector(
                            ds.graph,
                            ds.interactions,
                            ds.user_features,
                            c,
                        )),
                        CommunityClassifier::Cnn(cnn) => {
                            let m = matrix(&ds, c, &config);
                            argmax(&cnn.predict_proba_chunk(&[&m], &mut scratch)[0])
                        }
                    };
                    (label.label(), pred)
                })
                .unzip();
            let single = evaluate(&y_true, &y_pred, RelationType::COUNT);
            assert_eq!(batched.confusion, single.confusion, "{kind:?}");
        }
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

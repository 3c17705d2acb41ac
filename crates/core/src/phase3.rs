//! Phase III — Combination: edge labeling.
//!
//! For an edge ⟨u,v⟩, `C_u` is the local community u occupies in *v's* ego
//! network and `C_v` the community v occupies in *u's* ego network. Their
//! classification results usually — but not always — agree; a logistic
//! regression over the Eq. 4 feature vector
//! `f⟨u,v⟩ = [tightness(u,C_u), tightness(v,C_v), r_Cu, r_Cv]`
//! arbitrates and emits the final relationship type.

use crate::phase1::DivisionResult;
use crate::phase2::AggregationResult;
use locec_graph::{CsrGraph, EdgeId, NodeId};
use locec_ml::linear::{BlockScratch, LogisticRegression, LogisticRegressionConfig};
use locec_ml::metrics::{evaluate, Evaluation};
use locec_ml::Dataset;
use locec_runtime::run_chunked;
use locec_synth::types::RelationType;
use std::cell::RefCell;

/// Builds the Eq. 4 feature vector of an edge. Returns `None` only when the
/// division result does not cover the edge (cannot happen for divisions
/// computed on the same graph).
pub fn edge_feature(
    graph: &CsrGraph,
    division: &DivisionResult,
    agg: &AggregationResult,
    edge: EdgeId,
) -> Option<Vec<f32>> {
    let mut f = vec![0.0; feature_dim(agg)];
    EdgeParts::of(graph, division, agg, edge)?.write(&mut f, 1);
    Some(f)
}

/// Width of the Eq. 4 vector.
fn feature_dim(agg: &AggregationResult) -> usize {
    2 + 2 * agg.embedding_dim()
}

/// The four parts of one edge's Eq. 4 vector, borrowed from the division
/// and the aggregation.
struct EdgeParts<'a> {
    tight_u: f32,
    tight_v: f32,
    r_cu: &'a [f32],
    r_cv: &'a [f32],
}

impl<'a> EdgeParts<'a> {
    fn of(
        graph: &CsrGraph,
        division: &DivisionResult,
        agg: &'a AggregationResult,
        edge: EdgeId,
    ) -> Option<Self> {
        let (u, v): (NodeId, NodeId) = graph.endpoints(edge);
        // C_u: u's community in v's ego network; C_v: v's in u's.
        let cu_idx = division.community_index_of(graph, v, u)? as usize;
        let cv_idx = division.community_index_of(graph, u, v)? as usize;
        Some(EdgeParts {
            tight_u: division.communities[cu_idx].member_tightness(u)?,
            tight_v: division.communities[cv_idx].member_tightness(v)?,
            r_cu: agg.embedding(cu_idx),
            r_cv: agg.embedding(cv_idx),
        })
    }

    /// Writes feature `j` to `out[j * stride]`: stride 1 fills a row,
    /// stride `rows` fills one sample's column of a feature-major block.
    fn write(&self, out: &mut [f32], stride: usize) {
        out[0] = self.tight_u;
        out[stride] = self.tight_v;
        let mut at = 2;
        for r_c in [self.r_cu, self.r_cv] {
            let slots = out[at * stride..].iter_mut().step_by(stride);
            for (slot, &r) in slots.zip(r_c) {
                *slot = r;
            }
            at += r_c.len();
        }
    }
}

/// The trained Phase III edge classifier.
pub struct EdgeClassifier {
    lr: LogisticRegression,
}

impl EdgeClassifier {
    /// The fitted logistic regression — public for persistence.
    pub fn model(&self) -> &LogisticRegression {
        &self.lr
    }

    /// Reassembles a classifier around an already-fitted model (the
    /// snapshot load path).
    pub fn from_model(lr: LogisticRegression) -> Self {
        EdgeClassifier { lr }
    }

    /// Trains the logistic regression on labeled training edges.
    pub fn train(
        graph: &CsrGraph,
        division: &DivisionResult,
        agg: &AggregationResult,
        train_edges: &[(EdgeId, RelationType)],
        lr_config: &LogisticRegressionConfig,
    ) -> Self {
        assert!(!train_edges.is_empty(), "no labeled edges to train on");
        let mut ds = Dataset::new(feature_dim(agg));
        let mut row = vec![0.0; feature_dim(agg)];
        for &(e, label) in train_edges {
            if let Some(parts) = EdgeParts::of(graph, division, agg, e) {
                parts.write(&mut row, 1);
                ds.push(&row, label.label());
            }
        }
        assert!(!ds.is_empty(), "no train edge produced a feature vector");
        let (lr, epochs) =
            LogisticRegression::fit_counting_epochs(&ds, RelationType::COUNT, lr_config);
        locec_obs::Recorder::global()
            .counter("phase3.train_epochs")
            .add(epochs as u64);
        EdgeClassifier { lr }
    }

    /// Predicted relationship type of one edge.
    pub fn predict(
        &self,
        graph: &CsrGraph,
        division: &DivisionResult,
        agg: &AggregationResult,
        edge: EdgeId,
    ) -> Option<RelationType> {
        let f = edge_feature(graph, division, agg, edge)?;
        Some(RelationType::from_label(self.lr.predict(&f)))
    }

    /// Class probabilities of one edge.
    pub fn predict_proba(
        &self,
        graph: &CsrGraph,
        division: &DivisionResult,
        agg: &AggregationResult,
        edge: EdgeId,
    ) -> Option<Vec<f32>> {
        let f = edge_feature(graph, division, agg, edge)?;
        Some(self.lr.predict_proba(&f))
    }

    /// Evaluates on held-out labeled edges (Table IV / Fig. 11).
    pub fn evaluate_on(
        &self,
        graph: &CsrGraph,
        division: &DivisionResult,
        agg: &AggregationResult,
        test_edges: &[(EdgeId, RelationType)],
    ) -> Evaluation {
        let mut y_true = Vec::with_capacity(test_edges.len());
        let mut y_pred = Vec::with_capacity(test_edges.len());
        for &(e, label) in test_edges {
            if let Some(pred) = self.predict(graph, division, agg, e) {
                y_true.push(label.label());
                y_pred.push(pred.label());
            }
        }
        evaluate(&y_true, &y_pred, RelationType::COUNT)
    }

    /// Predicted type of every edge in the graph (Fig. 13b distribution).
    ///
    /// Embarrassingly parallel over edges (§V-D): each
    /// [`locec_runtime::run_chunked`] chunk builds its edges' vectors as
    /// feature-major blocks in thread-local scratch and classifies a block
    /// with one GEMM ([`LogisticRegression::predict_block`]). Chunk and
    /// block boundaries depend on the edge count alone and chunk outputs
    /// are merged in edge order, so the labels — bit for bit those of
    /// [`EdgeClassifier::predict`] — and the `ml.linear_gemm_calls` total
    /// are the same for every thread count.
    pub fn predict_all(
        &self,
        graph: &CsrGraph,
        division: &DivisionResult,
        agg: &AggregationResult,
        threads: usize,
    ) -> Vec<RelationType> {
        /// Edges per chunk.
        const EDGE_GRAIN: usize = 1024;
        /// Edges per GEMM within a chunk. Sixteen times an odd number:
        /// whole kernel panels, and a feature-major column stride of an
        /// odd count of cache lines, so the strided writes that fill a
        /// block spread over every cache set instead of a few.
        const EDGE_BLOCK: usize = 208;
        thread_local! {
            static SCRATCH: RefCell<(Vec<f32>, BlockScratch)> = RefCell::default();
        }
        let m = graph.num_edges();
        let dim = feature_dim(agg);
        let threads = threads.clamp(1, m.max(1));
        let chunks: Vec<Vec<RelationType>> = run_chunked(m, threads, EDGE_GRAIN, |range| {
            SCRATCH.with_borrow_mut(|(xt, scratch)| {
                let mut labels = Vec::with_capacity(range.len());
                let mut parts = Vec::with_capacity(EDGE_BLOCK);
                for first in range.clone().step_by(EDGE_BLOCK) {
                    let rows = EDGE_BLOCK.min(range.end - first);
                    // Resolve the whole block before copying any of it:
                    // a resolution is a short chain of dependent cache
                    // misses, and many short iterations in a row let
                    // the chains of different edges overlap.
                    parts.clear();
                    parts.extend((first..first + rows).map(|e| {
                        EdgeParts::of(graph, division, agg, EdgeId(e as u32))
                            .expect("division covers every edge")
                    }));
                    xt.resize(dim * rows, 0.0);
                    for (i, p) in parts.iter().enumerate() {
                        p.write(&mut xt[i..], rows);
                    }
                    self.lr.predict_block(xt, rows, scratch, &mut labels);
                }
                labels.into_iter().map(RelationType::from_label).collect()
            })
        });
        chunks.into_iter().flatten().collect()
    }
}

/// Distribution of predicted edge types (Fig. 13b).
pub fn type_distribution(predictions: &[RelationType]) -> [f64; RelationType::COUNT] {
    let mut counts = [0usize; RelationType::COUNT];
    for p in predictions {
        counts[p.label()] += 1;
    }
    let total = predictions.len().max(1) as f64;
    [
        counts[0] as f64 / total,
        counts[1] as f64 / total,
        counts[2] as f64 / total,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CommunityModelKind, LocecConfig};
    use crate::ground_truth::community_ground_truth;
    use crate::phase1::divide;
    use crate::phase2::CommunityClassifier;
    use locec_synth::{Scenario, SynthConfig};

    struct Fixture {
        scenario: Scenario,
        division: DivisionResult,
        agg: AggregationResult,
        config: LocecConfig,
    }

    fn fixture() -> Fixture {
        let scenario = Scenario::generate(&SynthConfig::tiny(41));
        let mut config = LocecConfig::fast();
        config.community_model = CommunityModelKind::Xgb;
        let division = divide(&scenario.graph, &config);
        let ds = scenario.dataset();
        let labeled = community_ground_truth(
            ds.graph,
            &division,
            ds.labeled_edges,
            config.community_label_min_coverage,
        );
        let model = CommunityClassifier::train(&ds, &division, &labeled, &config);
        let agg = model.predict_all(&ds, &division, &config);
        Fixture {
            scenario,
            division,
            agg,
            config,
        }
    }

    #[test]
    fn edge_features_have_consistent_dimension() {
        let f = fixture();
        let expected = 2 + 2 * f.agg.embedding_dim();
        for (e, _, _) in f.scenario.graph.edges().take(100) {
            let feat = edge_feature(&f.scenario.graph, &f.division, &f.agg, e).unwrap();
            assert_eq!(feat.len(), expected);
            assert!((0.0..=1.0).contains(&feat[0]), "tightness {}", feat[0]);
            assert!((0.0..=1.0).contains(&feat[1]));
        }
    }

    #[test]
    fn classifier_beats_chance_on_train_edges() {
        let f = fixture();
        let ds = f.scenario.dataset();
        let labeled = ds.labeled_edges_sorted();
        let clf = EdgeClassifier::train(ds.graph, &f.division, &f.agg, &labeled, &f.config.lr);
        let eval = clf.evaluate_on(ds.graph, &f.division, &f.agg, &labeled);
        assert!(
            eval.accuracy > 0.5,
            "training accuracy {} is not above chance",
            eval.accuracy
        );
    }

    #[test]
    fn predict_all_covers_every_edge() {
        let f = fixture();
        let ds = f.scenario.dataset();
        let labeled = ds.labeled_edges_sorted();
        let clf = EdgeClassifier::train(ds.graph, &f.division, &f.agg, &labeled, &f.config.lr);
        let preds = clf.predict_all(ds.graph, &f.division, &f.agg, f.config.threads);
        assert_eq!(preds.len(), ds.graph.num_edges());
        let dist = type_distribution(&preds);
        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn predict_all_equals_per_edge_predict_at_every_pool_size() {
        let f = fixture();
        let ds = f.scenario.dataset();
        let labeled = ds.labeled_edges_sorted();
        let clf = EdgeClassifier::train(ds.graph, &f.division, &f.agg, &labeled, &f.config.lr);
        // The tiny graph spans several pool chunks and, within a chunk,
        // several GEMM blocks, the last of each ragged.
        assert!(ds.graph.num_edges() > 3 * 1024);
        let per_edge: Vec<RelationType> = (0..ds.graph.num_edges())
            .map(|e| {
                clf.predict(ds.graph, &f.division, &f.agg, EdgeId(e as u32))
                    .unwrap()
            })
            .collect();
        for threads in [1usize, 2, 8] {
            let preds = clf.predict_all(ds.graph, &f.division, &f.agg, threads);
            assert_eq!(preds, per_edge, "{threads} threads diverged");
        }
    }

    #[test]
    #[should_panic(expected = "no labeled edges")]
    fn training_requires_edges() {
        let f = fixture();
        let ds = f.scenario.dataset();
        let _ = EdgeClassifier::train(ds.graph, &f.division, &f.agg, &[], &f.config.lr);
    }
}

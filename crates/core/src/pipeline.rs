//! Algorithm 2 — the end-to-end LoCEC pipeline.
//!
//! Division → aggregation → combination with leak-free label handling: the
//! survey-labeled edge set is split into train/test; community ground truth
//! (majority vote) is derived *from training labels only*; Phase II trains
//! on those communities; Phase III trains its logistic regression on the
//! training edges and is evaluated on the held-out ones.

use crate::config::LocecConfig;
use crate::ground_truth::community_ground_truth;
use crate::phase1::{divide, DivisionResult};
use crate::phase2::CommunityClassifier;
use crate::phase3::{type_distribution, EdgeClassifier};
use locec_graph::EdgeId;
use locec_ml::metrics::Evaluation;
use locec_synth::types::RelationType;
use locec_synth::SocialDataset;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Everything a pipeline run produces.
pub struct LocecOutcome {
    /// Edge classification quality on the held-out labeled edges
    /// (Table IV / Fig. 11).
    pub edge_eval: Evaluation,
    /// Community classification quality on held-out labeled communities
    /// (Table V); `None` when too few labeled communities exist to split.
    pub community_eval: Option<Evaluation>,
    /// Number of local communities detected (Phase I).
    pub num_communities: usize,
    /// Sizes of all local communities (Fig. 10a CDF).
    pub community_sizes: Vec<u32>,
    /// Distribution of predicted community types over the whole network
    /// (Fig. 13a).
    pub community_type_distribution: [f64; RelationType::COUNT],
    /// Distribution of predicted relationship types over all edges
    /// (Fig. 13b).
    pub edge_type_distribution: [f64; RelationType::COUNT],
    /// Predicted type of every edge, indexed by `EdgeId` — the pipeline's
    /// final artifact (and the reference the `locec classify` CLI output is
    /// checked against).
    pub edge_predictions: Vec<RelationType>,
    /// Wall-clock time of Phase I (division).
    pub phase1_time: Duration,
    /// Wall-clock time of Phase II inference over all communities.
    pub phase2_time: Duration,
    /// Wall-clock time of Phase III (training + labeling all edges).
    pub phase3_time: Duration,
    /// Wall-clock time of Phase II training (CommCNN / GBDT — the paper
    /// reports training separately from the three phases, Table VI): the
    /// whole of [`train_communities`], so the community ground-truth vote
    /// over the training edges is included along with the model fit.
    pub training_time: Duration,
    /// Number of labeled edges used for training.
    pub num_train_edges: usize,
    /// Number of labeled edges evaluated.
    pub num_test_edges: usize,
}

/// The orchestrator. Holds only configuration; all state flows through
/// [`LocecPipeline::run`].
pub struct LocecPipeline {
    /// The configuration used for every phase.
    pub config: LocecConfig,
}

impl LocecPipeline {
    /// A pipeline with the given configuration.
    pub fn new(config: LocecConfig) -> Self {
        LocecPipeline { config }
    }

    /// Runs Algorithm 2 end to end, holding out `1 − train_fraction` of the
    /// labeled edges for evaluation.
    pub fn run(&mut self, data: &SocialDataset<'_>, train_fraction: f64) -> LocecOutcome {
        let labeled = data.labeled_edges_sorted();
        let (train_edges, test_edges) = split_edges(&labeled, train_fraction, self.config.seed);
        self.run_with_splits(data, &train_edges, &test_edges)
    }

    /// Runs with explicit train/test labeled-edge sets (used by the Fig. 11
    /// label-fraction sweep).
    pub fn run_with_splits(
        &mut self,
        data: &SocialDataset<'_>,
        train_edges: &[(EdgeId, RelationType)],
        test_edges: &[(EdgeId, RelationType)],
    ) -> LocecOutcome {
        // --- Phase I: division ---
        let t0 = Instant::now();
        let division = divide(data.graph, &self.config);
        let phase1_time = t0.elapsed();
        self.run_with_division(data, &division, phase1_time, train_edges, test_edges)
    }

    /// Runs Phases II/III against a precomputed division. Phase I depends
    /// only on the graph, so parameter sweeps (Fig. 10b, Fig. 11) reuse one
    /// division across sweep points.
    pub fn run_with_division(
        &mut self,
        data: &SocialDataset<'_>,
        division: &DivisionResult,
        phase1_time: Duration,
        train_edges: &[(EdgeId, RelationType)],
        test_edges: &[(EdgeId, RelationType)],
    ) -> LocecOutcome {
        let recorder = locec_obs::Recorder::global();

        // --- Phase II: train + classify every community ---
        let t1 = Instant::now();
        let (classifier, (_, community_test)) =
            train_communities(data, division, train_edges, &self.config)
                .expect("no labeled communities to train on");
        let training_time = t1.elapsed();
        recorder.histogram("phase2.training_nanos").record_since(t1);

        let t2 = Instant::now();
        let agg = classifier.predict_all(data, division, &self.config);
        let phase2_time = t2.elapsed();
        recorder.histogram("phase2.wall_nanos").record_since(t2);

        let community_eval = if community_test.is_empty() {
            None
        } else {
            Some(agg.evaluate_on(&community_test))
        };

        // --- Phase III: edge labeling ---
        let t3 = Instant::now();
        let edge_clf =
            EdgeClassifier::train(data.graph, division, &agg, train_edges, &self.config.lr);
        let edge_eval = edge_clf.evaluate_on(data.graph, division, &agg, test_edges);
        let all_predictions = edge_clf.predict_all(data.graph, division, &agg, self.config.threads);
        let phase3_time = t3.elapsed();
        recorder.histogram("phase3.wall_nanos").record_since(t3);

        LocecOutcome {
            edge_eval,
            community_eval,
            num_communities: division.num_communities(),
            community_sizes: division.community_sizes(),
            community_type_distribution: agg.class_distribution(),
            edge_type_distribution: type_distribution(&all_predictions),
            edge_predictions: all_predictions,
            phase1_time,
            phase2_time,
            phase3_time,
            training_time,
            num_train_edges: train_edges.len(),
            num_test_edges: test_edges.len(),
        }
    }
}

/// Phase II's training recipe, shared by every driver of Algorithm 2:
/// community ground truth from the *training* edges only (no leakage),
/// the seeded 80/20 [`split_communities`], then
/// [`CommunityClassifier::train`] on the first part. Returns the fitted
/// classifier and the `(train, held-out)` labelled communities; `None`
/// when no community got a ground-truth label.
pub fn train_communities(
    data: &SocialDataset<'_>,
    division: &DivisionResult,
    train_edges: &[(EdgeId, RelationType)],
    config: &LocecConfig,
) -> Option<(CommunityClassifier, Split<(u32, RelationType)>)> {
    let train_labels: HashMap<EdgeId, RelationType> = train_edges.iter().copied().collect();
    let labeled = community_ground_truth(
        data.graph,
        division,
        &train_labels,
        config.community_label_min_coverage,
    );
    if labeled.is_empty() {
        return None;
    }
    let (train, held_out) = split_communities(&labeled, 0.8, config.seed);
    let classifier = CommunityClassifier::train(data, division, &train, config);
    Some((classifier, (train, held_out)))
}

/// A `(train, test)` split.
pub type Split<T> = (Vec<T>, Vec<T>);

/// Seeded shuffle split of labeled edges.
pub fn split_edges(
    labeled: &[(EdgeId, RelationType)],
    train_fraction: f64,
    seed: u64,
) -> Split<(EdgeId, RelationType)> {
    seeded_split(labeled, train_fraction, seed ^ 0xE0E0)
}

/// Seeded shuffle split of labeled communities (Phase II's train/test
/// split in [`train_communities`]).
pub fn split_communities(
    labeled: &[(u32, RelationType)],
    train_fraction: f64,
    seed: u64,
) -> Split<(u32, RelationType)> {
    seeded_split(labeled, train_fraction, seed ^ 0xC0C0)
}

/// Shuffles `labeled` with `seed` and cuts it at `train_fraction`, keeping
/// at least one item on each side when there are two or more.
fn seeded_split<T: Copy>(labeled: &[T], train_fraction: f64, seed: u64) -> Split<T> {
    let mut idx: Vec<usize> = (0..labeled.len()).collect();
    idx.shuffle(&mut StdRng::seed_from_u64(seed));
    let mut cut = (labeled.len() as f64 * train_fraction).round() as usize;
    if labeled.len() >= 2 {
        cut = cut.clamp(1, labeled.len() - 1);
    }
    let train = idx[..cut].iter().map(|&i| labeled[i]).collect();
    let test = idx[cut..].iter().map(|&i| labeled[i]).collect();
    (train, test)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CommunityModelKind;
    use locec_synth::{Scenario, SynthConfig};

    #[test]
    fn end_to_end_xgb_beats_chance_comfortably() {
        let scenario = Scenario::generate(&SynthConfig::tiny(51));
        let mut pipeline = LocecPipeline::new(LocecConfig {
            community_model: CommunityModelKind::Xgb,
            ..LocecConfig::fast()
        });
        let outcome = pipeline.run(&scenario.dataset(), 0.8);
        assert!(
            outcome.edge_eval.overall.f1 > 0.5,
            "edge F1 {} too low",
            outcome.edge_eval.overall.f1
        );
        assert!(outcome.num_communities > 100);
        assert!(outcome.num_train_edges > outcome.num_test_edges);
    }

    #[test]
    fn distributions_are_normalized() {
        let scenario = Scenario::generate(&SynthConfig::tiny(52));
        let mut pipeline = LocecPipeline::new(LocecConfig {
            community_model: CommunityModelKind::Xgb,
            ..LocecConfig::fast()
        });
        let outcome = pipeline.run(&scenario.dataset(), 0.8);
        assert!((outcome.community_type_distribution.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((outcome.edge_type_distribution.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn split_edges_partitions() {
        let labeled: Vec<(EdgeId, RelationType)> = (0..10)
            .map(|i| (EdgeId(i), RelationType::from_label(i as usize % 3)))
            .collect();
        let (train, test) = split_edges(&labeled, 0.8, 1);
        assert_eq!(train.len(), 8);
        assert_eq!(test.len(), 2);
        let mut all: Vec<u32> = train.iter().chain(&test).map(|(e, _)| e.0).collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn timings_are_recorded() {
        let scenario = Scenario::generate(&SynthConfig::tiny(53));
        let mut pipeline = LocecPipeline::new(LocecConfig {
            community_model: CommunityModelKind::Xgb,
            ..LocecConfig::fast()
        });
        let outcome = pipeline.run(&scenario.dataset(), 0.8);
        assert!(outcome.phase1_time > Duration::ZERO);
        assert!(outcome.phase3_time > Duration::ZERO);
    }
}

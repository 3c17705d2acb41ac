//! Framework configuration.

use locec_ml::gbdt::GbdtConfig;
use locec_ml::linear::LogisticRegressionConfig;

use crate::commcnn::CommCnnConfig;

/// Which algorithm detects local communities in Phase I.
///
/// The paper uses Girvan–Newman; Louvain and label propagation are provided
/// as ablations (and as a pragmatic fallback for oversized ego networks).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommunityDetector {
    /// Girvan–Newman with modularity-maximizing cut (the paper's choice).
    GirvanNewman,
    /// Louvain greedy modularity.
    Louvain,
    /// Asynchronous label propagation.
    LabelPropagation,
}

/// Which model classifies local communities in Phase II.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommunityModelKind {
    /// LoCEC-XGB: mean/std-pooled features into gradient-boosted trees.
    Xgb,
    /// LoCEC-CNN: the CommCNN feature-matrix network (paper Fig. 8).
    Cnn,
}

/// How Algorithm 1 orders feature-matrix rows. The paper sorts by
/// tightness; `Random` is the ablation showing that ordering matters
/// (it determines *which* members survive the top-k truncation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowOrder {
    /// Descending Eq. 3 tightness (the paper's Algorithm 1).
    Tightness,
    /// Seeded random order (ablation).
    Random,
}

/// Configuration of the full LoCEC pipeline.
#[derive(Clone, Debug)]
pub struct LocecConfig {
    /// Feature-matrix row count `k` (paper Fig. 10b: best at 20).
    pub k: usize,
    /// Phase I community detector.
    pub detector: CommunityDetector,
    /// Ego networks larger than this fall back to Louvain (Girvan–Newman is
    /// `O(m²n)`; the paper runs it on ego networks whose median community
    /// size is 8, so the cap rarely binds).
    pub gn_max_friends: usize,
    /// Phase II model.
    pub community_model: CommunityModelKind,
    /// Feature-matrix row ordering (ablation switch; the paper uses
    /// tightness).
    pub row_order: RowOrder,
    /// GBDT hyper-parameters (LoCEC-XGB and the raw-XGBoost baseline).
    pub gbdt: GbdtConfig,
    /// CommCNN hyper-parameters (LoCEC-CNN).
    pub commcnn: CommCnnConfig,
    /// Phase III logistic-regression hyper-parameters.
    pub lr: LogisticRegressionConfig,
    /// Threads for the parallel phases (the paper's "servers"). Each
    /// parallel call (`locec_runtime::run_chunked`) runs on the calling
    /// thread plus scoped threads that live for that call, clamped to the
    /// machine's hardware threads; results are identical for every value
    /// (only wall-clock time changes).
    pub threads: usize,
    /// Minimum fraction of a community's members that must carry labels
    /// before the community gets a ground-truth label (majority vote).
    pub community_label_min_coverage: f64,
    /// RNG seed for model initialization and splits.
    pub seed: u64,
}

impl Default for LocecConfig {
    fn default() -> Self {
        LocecConfig {
            k: 20,
            detector: CommunityDetector::GirvanNewman,
            gn_max_friends: 120,
            community_model: CommunityModelKind::Cnn,
            row_order: RowOrder::Tightness,
            gbdt: GbdtConfig::default(),
            commcnn: CommCnnConfig::default(),
            lr: LogisticRegressionConfig::default(),
            threads: default_threads(),
            community_label_min_coverage: 0.5,
            seed: 7,
        }
    }
}

impl LocecConfig {
    /// A configuration tuned for fast unit/integration tests: smaller
    /// ensembles and few CNN epochs.
    pub fn fast() -> Self {
        LocecConfig {
            gbdt: GbdtConfig::fast(),
            commcnn: CommCnnConfig::fast(),
            lr: LogisticRegressionConfig {
                epochs: 120,
                ..Default::default()
            },
            threads: 2,
            ..Default::default()
        }
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_parameters() {
        let c = LocecConfig::default();
        assert_eq!(c.k, 20, "paper sets k = 20 (Fig. 10b)");
        assert_eq!(c.detector, CommunityDetector::GirvanNewman);
        assert_eq!(c.community_model, CommunityModelKind::Cnn);
        assert!(c.threads >= 1);
    }

    #[test]
    fn fast_is_lighter_than_default() {
        let fast = LocecConfig::fast();
        let full = LocecConfig::default();
        assert!(fast.commcnn.epochs <= full.commcnn.epochs);
        assert!(fast.gbdt.num_rounds <= full.gbdt.num_rounds);
    }
}

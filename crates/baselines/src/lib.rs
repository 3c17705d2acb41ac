#![forbid(unsafe_code)]
//! Comparison methods from the LoCEC evaluation (paper §V).
//!
//! * [`probwp`] — the label-propagation edge classifier of Aggarwal, He &
//!   Zhao (ICDE 2016, the paper's \[13\]): min-hash structural similarity
//!   (20 hash functions, per §V) selects the top-k nodes most similar to
//!   each endpoint, and labeled edges spanning the two sets vote.
//! * [`economix`] — the structure+content matrix-factorization method of
//!   Aggarwal, Li, Yu & Zhao (ICDE 2017, the paper's \[14\]): each
//!   interaction dimension with its bucketed count becomes a "word"; a
//!   joint edge × (words ∪ endpoints) matrix is factorized and a logistic
//!   regression runs on the latent edge factors.
//! * [`xgb_edge`] — raw XGBoost on the concatenated endpoint-profile and
//!   pair-interaction features, with no community aggregation. This is the
//!   paper's demonstration of the sparsity problem: most pairs have no
//!   interactions, so recall collapses.
//!
//! All three expose the same function shape so the experiment harness can
//! sweep them uniformly: `(dataset, train_edges, test_edges) → predictions`.

pub mod economix;
pub mod probwp;
pub mod xgb_edge;

pub use economix::{economix_predict, EconomixConfig};
pub use probwp::{probwp_predict, ProbWpConfig};
pub use xgb_edge::{xgb_edge_predict, XgbEdgeConfig};

/// Labelled edges, each with its relation type.
#[cfg(test)]
type LabeledEdges = Vec<(locec_graph::EdgeId, locec_synth::types::RelationType)>;

/// The baselines' tests' split: the first `train_fraction` of a scenario's
/// labelled edges, in edge order, for training and the rest for testing.
#[cfg(test)]
fn split_labels(s: &locec_synth::Scenario, train_fraction: f64) -> (LabeledEdges, LabeledEdges) {
    let labeled = s.dataset().labeled_edges_sorted();
    let cut = (labeled.len() as f64 * train_fraction) as usize;
    (labeled[..cut].to_vec(), labeled[cut..].to_vec())
}

#![forbid(unsafe_code)]
//! # LoCEC — Local Community-based Edge Classification
//!
//! The three-phase framework of Song et al. (ICDE 2020) for classifying
//! social-network edges into real-world relationship types (family /
//! colleague / schoolmate) under extreme feature and label sparsity:
//!
//! * **Phase I — Division** ([`phase1`]): extract every node's ego network
//!   (ego excluded) and detect *local communities* with Girvan–Newman.
//! * **Phase II — Aggregation** ([`features`], [`phase2`], [`commcnn`]):
//!   aggregate pairwise interactions within each local community (Eq. 1),
//!   order members by *tightness* (Eq. 3), form the top-`k` feature matrix
//!   (Algorithm 1) and classify it with XGBoost-style boosting
//!   (LoCEC-XGB) or the CommCNN network (LoCEC-CNN, Fig. 8).
//! * **Phase III — Combination** ([`phase3`]): for every edge ⟨u,v⟩,
//!   combine the two local-community results `r_Cu`, `r_Cv` and the two
//!   tightness values into the Eq. 4 feature vector and train a logistic
//!   regression to emit the final edge label.
//!
//! [`pipeline::LocecPipeline`] orchestrates Algorithm 2 end-to-end and is
//! the entry point most users want. Supporting modules reproduce the rest
//! of the paper's evaluation: [`group_names`] (the Table II rule miner) and
//! [`advertising`] (the Figure 14 social-advertising simulation). The
//! scalability results (Figure 12, Table VI) are timed, not modelled: the
//! `paper` harness in `locec_bench` runs [`phase1::divide`], the
//! `locec_cluster` coordinator and [`LocecPipeline::run`] and reports what
//! they took.

pub mod advertising;
pub mod commcnn;
pub mod config;
pub mod features;
pub mod ground_truth;
pub mod group_names;
pub mod phase1;
pub mod phase2;
pub mod phase3;
pub mod pipeline;

pub use commcnn::{CommCnn, CommCnnConfig};
pub use config::{CommunityDetector, CommunityModelKind, LocecConfig};
pub use features::{community_feature_matrix, interact, tightness};
pub use ground_truth::community_ground_truth;
pub use phase1::{DivisionResult, LocalCommunity};
pub use pipeline::{LocecOutcome, LocecPipeline};

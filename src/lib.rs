#![forbid(unsafe_code)]
//! # LoCEC — Local Community-based Edge Classification
//!
//! A full Rust reproduction of *"LoCEC: Local Community-based Edge
//! Classification in Large Online Social Networks"* (Song et al., ICDE 2020).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`graph`] — CSR social graphs, ego networks, traversals.
//! * [`community`] — Girvan–Newman, Brandes betweenness, modularity, Louvain.
//! * [`ml`] — from-scratch tensors/CNN, gradient-boosted trees, logistic
//!   regression, matrix factorization, min-hash, evaluation metrics.
//! * [`synth`] — synthetic WeChat-like social world with planted
//!   relationship types, interactions, chat groups and survey labels.
//! * [`core`] — the LoCEC three-phase framework itself.
//! * [`store`] — versioned binary columnar snapshots of every pipeline
//!   artifact, powering the sharded `locec` CLI.
//! * [`cluster`] — the coordinator/worker subsystem that distributes
//!   Phase I across processes or machines with streaming shard merge and
//!   lease-based fault tolerance (`locec coordinate` / `locec worker`).
//! * [`serve`] — the always-on edge-query daemon (`locec serve`):
//!   classify-edge / community-of / top-k-intimate over the `LCF1` frame
//!   protocol, with atomic epoch hot-swap of the serving division.
//! * [`baselines`] — ProbWP, Economix and raw-XGBoost comparison methods.
//! * [`lint`] — the workspace's own static-analysis pass (`locec lint`):
//!   panic-safety, no-unsafe and wire-format invariants.
//! * [`obs`] — structured observability: sharded counters, log-scale
//!   histograms, timing spans, leveled logging, and the versioned run
//!   report every CLI verb emits via `--report`.
//!
//! ## Quickstart
//!
//! ```
//! use locec::synth::{Scenario, SynthConfig};
//! use locec::core::{LocecConfig, LocecPipeline, CommunityModelKind};
//!
//! // Generate a small labeled social world and run the full pipeline.
//! let scenario = Scenario::generate(&SynthConfig::tiny(7));
//! let config = LocecConfig {
//!     community_model: CommunityModelKind::Xgb,
//!     ..LocecConfig::fast()
//! };
//! let mut pipeline = LocecPipeline::new(config);
//! let outcome = pipeline.run(&scenario.dataset(), 0.8);
//! assert!(outcome.edge_eval.overall.f1 > 0.5);
//! ```

pub use locec_baselines as baselines;
pub use locec_cluster as cluster;
pub use locec_community as community;
pub use locec_core as core;
pub use locec_graph as graph;
pub use locec_lint as lint;
pub use locec_ml as ml;
pub use locec_obs as obs;
pub use locec_serve as serve;
pub use locec_store as store;
pub use locec_synth as synth;

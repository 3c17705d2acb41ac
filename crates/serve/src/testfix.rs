//! Shared unit-test fixture: a tiny trained world plus the offline
//! pipeline's reference answers, against which every served reply is
//! checked bit-for-bit.

use locec_core::phase1::divide;
use locec_core::phase3::EdgeClassifier;
use locec_core::pipeline::{split_edges, train_communities};
use locec_core::{CommunityModelKind, DivisionResult, LocecConfig};
use locec_graph::EdgeId;
use locec_store::InferenceWorld;
use locec_synth::{Scenario, SynthConfig};

use crate::epoch::ServeAssets;

/// A trained tiny world with its offline reference answers.
pub(crate) struct Fixture {
    /// The serving-side world columns.
    pub world: InferenceWorld,
    /// The trained models + feature parameters.
    pub assets: ServeAssets,
    /// The Phase I division both sides use.
    pub division: DivisionResult,
    /// Offline `(label, probabilities)` per `EdgeId` — the bit-identity
    /// reference.
    pub expected: Vec<(u8, Vec<f32>)>,
}

/// Generates a tiny scenario, trains the full LoCEC stack on it exactly
/// the way `LocecPipeline::run_with_division` does, and records the
/// offline answer for every edge.
pub(crate) fn fixture(model: CommunityModelKind, seed: u64) -> Fixture {
    let scenario = Scenario::generate(&SynthConfig::tiny(seed));
    let config = LocecConfig {
        community_model: model,
        ..LocecConfig::fast()
    };
    let data = scenario.dataset();
    let division = divide(data.graph, &config);

    let labeled = data.labeled_edges_sorted();
    let (train, _test) = split_edges(&labeled, 0.8, config.seed);
    let (community_model, _) = train_communities(&data, &division, &train, &config)
        // locec-lint: allow(R2) — cfg(test)-only fixture; a tiny world's training labels label communities.
        .expect("some community is labeled");
    let agg = community_model.predict_all(&data, &division, &config);
    let edge_model = EdgeClassifier::train(data.graph, &division, &agg, &train, &config.lr);

    let expected: Vec<(u8, Vec<f32>)> = (0..data.graph.num_edges())
        .map(|i| {
            let e = EdgeId(i as u32);
            let label = edge_model
                .predict(data.graph, &division, &agg, e)
                // locec-lint: allow(R2) — cfg(test)-only fixture; a full divide covers every edge by construction.
                .expect("division covers every edge")
                .label() as u8;
            let proba = edge_model
                .predict_proba(data.graph, &division, &agg, e)
                // locec-lint: allow(R2) — cfg(test)-only fixture; a full divide covers every edge by construction.
                .expect("division covers every edge");
            (label, proba)
        })
        .collect();

    let world = InferenceWorld::from_parts(
        scenario.graph.clone(),
        scenario.user_features().to_vec(),
        scenario.interactions.clone(),
    );
    let assets = ServeAssets::new(community_model, edge_model, &config);
    Fixture {
        world,
        assets,
        division,
        expected,
    }
}

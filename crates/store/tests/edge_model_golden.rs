//! Golden digest of a trained edge model's snapshot.
//!
//! Phase III training runs as blocked GEMMs; its contract is that the
//! fitted parameters are bit-identical to the per-sample formulation it
//! replaced. `locec_ml` proves that against an in-tree oracle on random
//! data; this test pins the whole chain — Eq. 4 features, fit, snapshot
//! encoding — to the digest the per-sample implementation produced on a
//! fixed world, so a change to any link that moves one model bit fails here.

use locec_core::ground_truth::community_ground_truth;
use locec_core::phase1::divide;
use locec_core::phase2::CommunityClassifier;
use locec_core::phase3::EdgeClassifier;
use locec_core::{CommunityModelKind, LocecConfig};
use locec_store::format::crc32;
use locec_store::save_edge_model;
use locec_synth::{Scenario, SynthConfig};

/// CRC32 of the edge-model snapshot written at the commit before training
/// moved onto the GEMM kernel.
const GOLDEN_EDGE_MODEL_CRC32: u32 = 0xe60a_55a6;

#[test]
fn edge_model_snapshot_matches_the_golden_digest() {
    let scenario = Scenario::generate(&SynthConfig::tiny(41));
    let config = LocecConfig {
        community_model: CommunityModelKind::Xgb,
        ..LocecConfig::fast()
    };
    let division = divide(&scenario.graph, &config);
    let ds = scenario.dataset();
    let labeled = community_ground_truth(
        ds.graph,
        &division,
        ds.labeled_edges,
        config.community_label_min_coverage,
    );
    let agg = CommunityClassifier::train(&ds, &division, &labeled, &config)
        .predict_all(&ds, &division, &config);
    let clf = EdgeClassifier::train(
        ds.graph,
        &division,
        &agg,
        &ds.labeled_edges_sorted(),
        &config.lr,
    );

    let path = std::env::temp_dir().join(format!("locec_golden_edge_{}.lsnap", std::process::id()));
    save_edge_model(&path, &clf).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(
        crc32(&bytes),
        GOLDEN_EDGE_MODEL_CRC32,
        "edge-model snapshot bytes moved (crc32 {:#010x})",
        crc32(&bytes)
    );
}

//! Golden digests of trained models' snapshots.
//!
//! Phase III training runs as blocked GEMMs; its contract is that the
//! fitted parameters are bit-identical to the per-sample formulation it
//! replaced. `locec_ml` proves that against an in-tree oracle on random
//! data; this test pins the whole chain — Eq. 4 features, fit, snapshot
//! encoding — to the digest the per-sample implementation produced on a
//! fixed world, so a change to any link that moves one model bit fails here.
//!
//! The CommCNN case does the same for the neural layers: the digest is the
//! one a seeded CommCNN trained through `kernel::reference` (the naive
//! loops) serialised to, which the GEMM path must go on reproducing.

use locec_core::ground_truth::community_ground_truth;
use locec_core::phase1::divide;
use locec_core::phase2::CommunityClassifier;
use locec_core::phase3::EdgeClassifier;
use locec_core::{CommCnn, CommCnnConfig, CommunityModelKind, LocecConfig};
use locec_ml::Tensor;
use locec_store::format::crc32;
use locec_store::{save_community_model, save_edge_model};
use locec_synth::{Scenario, SynthConfig};
use std::path::Path;

/// CRC32 of the edge-model snapshot written at the commit before training
/// moved onto the GEMM kernel.
const GOLDEN_EDGE_MODEL_CRC32: u32 = 0xe60a_55a6;

/// CRC32 of the CommCNN snapshot written at the last commit that could
/// still route the layers through `kernel::reference`; it was the same
/// under both routes, in debug and release builds.
const GOLDEN_CNN_MODEL_CRC32: u32 = 0xf93b_3461;

/// CRC32 of the snapshot file `save` writes.
fn saved_crc32(name: &str, save: impl FnOnce(&Path)) -> u32 {
    let path =
        std::env::temp_dir().join(format!("locec_golden_{name}_{}.lsnap", std::process::id()));
    save(&path);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    crc32(&bytes)
}

#[test]
fn cnn_model_snapshot_matches_the_golden_digest() {
    let mut cnn = CommCnn::new(8, 12, 3, &CommCnnConfig::fast());
    let xs: Vec<Tensor> = (0..6)
        .map(|i| {
            let mut t = Tensor::zeros(&[8, 12]);
            t.data_mut()[i * 5] = 1.0;
            t.data_mut()[i * 7 + 3] = 0.5;
            t
        })
        .collect();
    cnn.train(&xs, &[0, 1, 2, 0, 1, 2]);
    let mut model = CommunityClassifier::Cnn(Box::new(cnn));

    let digest = saved_crc32("cnn", |path| {
        save_community_model(path, &mut model).unwrap()
    });
    assert_eq!(
        digest, GOLDEN_CNN_MODEL_CRC32,
        "CommCNN snapshot bytes moved (crc32 {digest:#010x})"
    );
}

/// CRC32 of the CommCNN snapshot Phase II trained on 75 labelled
/// communities at the last commit whose training ran each mini-batch
/// through one replica-free backward on one thread.
const GOLDEN_SHARDED_CNN_MODEL_CRC32: u32 = 0x935c_33d0;

#[test]
fn cnn_model_trained_in_shards_matches_the_golden_digest() {
    // 75 samples in batches of 32: two full batches of two 16-sample
    // shards each and a ragged last batch of 11, trained by Phase II on
    // two threads. A fold out of sample order moves the digest.
    let scenario = Scenario::generate(&SynthConfig::tiny(41));
    let config = LocecConfig {
        community_model: CommunityModelKind::Cnn,
        threads: 2,
        commcnn: CommCnnConfig {
            epochs: 2,
            ..CommCnnConfig::fast()
        },
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
    assert!(
        labeled.len() >= 75,
        "{} labelled communities",
        labeled.len()
    );
    let mut model = CommunityClassifier::train(&ds, &division, &labeled[..75], &config);

    let digest = saved_crc32("cnn_sharded", |path| {
        save_community_model(path, &mut model).unwrap()
    });
    assert_eq!(
        digest, GOLDEN_SHARDED_CNN_MODEL_CRC32,
        "sharded CommCNN snapshot bytes moved (crc32 {digest:#010x})"
    );
}

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

    let digest = saved_crc32("edge", |path| save_edge_model(path, &clf).unwrap());
    assert_eq!(
        digest, GOLDEN_EDGE_MODEL_CRC32,
        "edge-model snapshot bytes moved (crc32 {digest:#010x})"
    );
}

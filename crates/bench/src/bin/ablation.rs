//! Ablation study of LoCEC's design choices (DESIGN.md commitments).
//!
//! 1. **Local community detector** — Girvan–Newman (paper) vs Louvain vs
//!    label propagation.
//! 2. **Feature-matrix row ordering** — tightness (Algorithm 1) vs random.
//! 3. **Phase III edge features** — full Eq. 4 vs without the two
//!    tightness values.
//! 4. **Community feature pooling** — mean+std (LoCEC-XGB) vs mean-only.

use locec_bench::{harness_config, Scale};
use locec_core::config::RowOrder;
use locec_core::ground_truth::community_ground_truth;
use locec_core::phase3::edge_feature;
use locec_core::pipeline::split_edges;
use locec_core::{CommunityDetector, CommunityModelKind, LocecPipeline};
use locec_graph::EdgeId;
use locec_ml::linear::{LogisticRegression, LogisticRegressionConfig};
use locec_ml::metrics::evaluate;
use locec_ml::Dataset;
use locec_synth::types::RelationType;
use std::collections::HashMap;

fn main() {
    let scale = Scale::from_env();
    let scenario = scale.scenario(42);
    let data = scenario.dataset();
    let base = harness_config();
    let labeled = data.labeled_edges_sorted();
    let (train, test) = split_edges(&labeled, 0.8, 42);

    println!("=== Ablation study (LoCEC-XGB backbone unless noted) ===\n");

    // --- 1. community detector ---
    println!("(1) Phase I detector:");
    for (name, detector) in [
        ("Girvan-Newman (paper)", CommunityDetector::GirvanNewman),
        ("Louvain", CommunityDetector::Louvain),
        ("Label propagation", CommunityDetector::LabelPropagation),
    ] {
        let mut config = base.clone();
        config.detector = detector;
        config.community_model = CommunityModelKind::Xgb;
        let mut pipeline = LocecPipeline::new(config);
        let outcome = pipeline.run_with_splits(&data, &train, &test);
        println!(
            "    {name:<24} overall F1 {:.3}  ({} communities, median size sensitive)",
            outcome.edge_eval.overall.f1, outcome.num_communities
        );
    }

    // --- 2. row ordering (CNN path — ordering only matters there) ---
    println!("\n(2) Feature-matrix row order (LoCEC-CNN):");
    let division = LocecPipeline::new(base.clone()).divide_only(&data);
    for (name, order) in [
        ("tightness (Algorithm 1)", RowOrder::Tightness),
        ("random", RowOrder::Random),
    ] {
        let mut config = base.clone();
        config.community_model = CommunityModelKind::Cnn;
        config.row_order = order;
        let mut pipeline = LocecPipeline::new(config);
        let outcome =
            pipeline.run_with_division(&data, &division, std::time::Duration::ZERO, &train, &test);
        println!(
            "    {name:<24} overall F1 {:.3}",
            outcome.edge_eval.overall.f1
        );
    }

    // --- 3. tightness in the Eq. 4 edge feature ---
    println!("\n(3) Phase III edge features (LoCEC-XGB):");
    let mut config = base.clone();
    config.community_model = CommunityModelKind::Xgb;
    let train_map: HashMap<EdgeId, RelationType> = train.iter().copied().collect();
    let labeled_communities = community_ground_truth(
        data.graph,
        &division,
        &train_map,
        config.community_label_min_coverage,
    );
    let pipeline = LocecPipeline::new(config.clone());
    let (_, agg) = pipeline.aggregate_only(&data, &division, &labeled_communities);

    for (name, drop_tightness) in [("full Eq. 4", false), ("without tightness", true)] {
        let skip = usize::from(drop_tightness) * 2;
        let dim = 2 + 2 * agg.embedding_dim() - skip;
        let mut ds = Dataset::new(dim);
        for &(e, t) in &train {
            if let Some(f) = edge_feature(data.graph, &division, &agg, e) {
                ds.push(&f[skip..], t.label());
            }
        }
        let lr = LogisticRegression::fit(
            &ds,
            RelationType::COUNT,
            &LogisticRegressionConfig::default(),
        );
        let mut y_true = Vec::new();
        let mut y_pred = Vec::new();
        for &(e, t) in &test {
            if let Some(f) = edge_feature(data.graph, &division, &agg, e) {
                y_true.push(t.label());
                y_pred.push(lr.predict(&f[skip..]));
            }
        }
        let eval = evaluate(&y_true, &y_pred, RelationType::COUNT);
        println!("    {name:<24} overall F1 {:.3}", eval.overall.f1);
    }

    // --- 4. pooled features: mean+std vs mean-only (GBDT input) ---
    println!("\n(4) Community pooling (GBDT on pooled features directly):");
    use locec_core::features::{pooled_feature_vector, FEATURE_COLS};
    for (name, cols) in [
        ("mean + std (paper)", 2 * FEATURE_COLS),
        ("mean only", FEATURE_COLS),
    ] {
        let mut ds = Dataset::new(cols);
        for &(idx, label) in &labeled_communities {
            let v = pooled_feature_vector(
                data.graph,
                data.interactions,
                data.user_features,
                &division.communities[idx as usize],
            );
            ds.push(&v[..cols], label.label());
        }
        let (train_ds, test_ds) = ds.split(0.8, 42);
        let model = locec_ml::gbdt::Gbdt::fit(&train_ds, RelationType::COUNT, &config.gbdt);
        let preds = model.predict_all(&test_ds);
        let eval = evaluate(test_ds.labels(), &preds, RelationType::COUNT);
        println!("    {name:<24} community F1 {:.3}", eval.overall.f1);
    }

    println!("\nExpected: GN ≈ Louvain ≫ label propagation; tightness ordering ≥ random;");
    println!("full Eq. 4 ≥ no-tightness; mean+std ≥ mean-only.");
}

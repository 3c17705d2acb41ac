//! Model snapshots: trained Phase II community classifiers (GBDT or
//! CommCNN) and the Phase III logistic regression.
//!
//! GBDT ensembles persist as columnar flattened tree arenas; CommCNN
//! persists its architecture config plus the flat parameter vector in
//! [`locec_ml::nn::Model::visit_params`] order (the architecture is rebuilt
//! from the config, then the freshly initialized weights are overwritten). Both
//! load back to models whose predictions are bit-identical to the
//! originals.

use crate::format::{Enc, Snapshot, SnapshotError, SnapshotKind, SnapshotWriter};
use locec_core::phase2::CommunityClassifier;
use locec_core::phase3::EdgeClassifier;
use locec_core::{CommCnn, CommCnnConfig};
use locec_ml::gbdt::{FlatNode, Gbdt, RegressionTree};
use locec_ml::linear::LogisticRegression;
use locec_ml::nn::{export_params, import_params};
use locec_ml::Tensor;
use std::path::Path;

/// Discriminant of the community-model section.
const MODEL_GBDT: u8 = 0;
/// Discriminant of the community-model section.
const MODEL_CNN: u8 = 1;

/// Writes a trained Phase II community classifier. (`&mut` because
/// parameter traversal of the CNN goes through [`Model::visit_params`].)
///
/// [`Model::visit_params`]: locec_ml::nn::Model::visit_params
pub fn save_community_model(
    path: &Path,
    model: &mut CommunityClassifier,
) -> Result<(), SnapshotError> {
    let mut w = SnapshotWriter::new(SnapshotKind::CommunityModel);
    match model {
        CommunityClassifier::Xgb(gbdt) => {
            let mut kind = Enc::new();
            kind.u8(MODEL_GBDT);
            w.add("model_kind", kind.finish());
            add_gbdt_sections(&mut w, gbdt);
        }
        CommunityClassifier::Cnn(cnn) => {
            let mut kind = Enc::new();
            kind.u8(MODEL_CNN);
            w.add("model_kind", kind.finish());

            let (k, cols) = cnn.input_shape();
            let cfg = cnn.config().clone();
            let mut meta = Enc::new();
            meta.u64(k as u64);
            meta.u64(cols as u64);
            meta.u64(cnn.num_classes() as u64);
            meta.u64(cfg.square_channels as u64);
            meta.u64(cfg.module_channels.0 as u64);
            meta.u64(cfg.module_channels.1 as u64);
            meta.u64(cfg.branch_channels as u64);
            meta.u64(cfg.hidden as u64);
            meta.u64(cfg.epochs as u64);
            meta.u64(cfg.batch_size as u64);
            meta.f32(cfg.learning_rate);
            meta.f32(cfg.target_loss);
            meta.u64(cfg.seed);
            w.add("cnn_meta", meta.finish());

            let params = export_params(&mut **cnn);
            let mut enc = Enc::new();
            enc.u64(params.len() as u64);
            enc.f32_slice(&params);
            w.add("cnn_params", enc.finish());
        }
    }
    w.write_to(path)
}

/// Reads a trained Phase II community classifier back.
pub fn load_community_model(path: &Path) -> Result<CommunityClassifier, SnapshotError> {
    let snap = Snapshot::read_from(path)?;
    snap.expect_kind(SnapshotKind::CommunityModel)?;
    let mut dec = snap.section("model_kind")?;
    let kind = dec.u8()?;
    dec.done()?;
    match kind {
        MODEL_GBDT => Ok(CommunityClassifier::Xgb(read_gbdt_sections(&snap)?)),
        MODEL_CNN => {
            let mut dec = snap.section("cnn_meta")?;
            let k = dec.count()?;
            let cols = dec.count()?;
            let classes = dec.count()?;
            let config = CommCnnConfig {
                square_channels: dec.count()?,
                module_channels: (dec.count()?, dec.count()?),
                branch_channels: dec.count()?,
                hidden: dec.count()?,
                epochs: dec.count()?,
                batch_size: dec.count()?,
                learning_rate: dec.f32()?,
                target_loss: dec.f32()?,
                seed: dec.u64()?,
            };
            dec.done()?;
            // Pre-validate everything `CommCnn::new` would assert on, so a
            // corrupt file yields an error instead of a panic.
            if k < 4 || cols < 4 || classes == 0 {
                return Err(SnapshotError::Corrupt("CNN input shape out of range"));
            }
            if classes > 1024 {
                return Err(SnapshotError::Corrupt("CNN class count implausibly large"));
            }
            if k > 4096 || cols > 4096 {
                return Err(SnapshotError::Corrupt("CNN input shape implausibly large"));
            }
            if config.square_channels == 0
                || config.module_channels.0 == 0
                || config.module_channels.1 == 0
                || config.branch_channels == 0
                || config.hidden == 0
            {
                return Err(SnapshotError::Corrupt("CNN channel widths must be nonzero"));
            }
            if [
                config.square_channels,
                config.module_channels.0,
                config.module_channels.1,
                config.branch_channels,
                config.hidden,
            ]
            .iter()
            .any(|&c| c > 1 << 16)
            {
                return Err(SnapshotError::Corrupt(
                    "CNN channel widths implausibly large",
                ));
            }

            let mut dec = snap.section("cnn_params")?;
            let count = dec.count()?;
            let params = dec.f32_vec(count)?;
            dec.done()?;

            let mut cnn = CommCnn::new(k, cols, classes, &config);
            import_params(&mut cnn, &params).map_err(SnapshotError::Corrupt)?;
            Ok(CommunityClassifier::Cnn(Box::new(cnn)))
        }
        _ => Err(SnapshotError::Corrupt("unknown community model kind")),
    }
}

/// Writes a trained Phase III edge classifier.
pub fn save_edge_model(path: &Path, clf: &EdgeClassifier) -> Result<(), SnapshotError> {
    let mut w = SnapshotWriter::new(SnapshotKind::EdgeModel);
    let (weights, bias) = clf.model().params();
    let mut enc = Enc::new();
    enc.u64(weights.shape()[0] as u64);
    enc.u64(weights.shape()[1] as u64);
    enc.f32_slice(weights.data());
    enc.f32_slice(bias.data());
    w.add("logreg", enc.finish());
    w.write_to(path)
}

/// Reads a trained Phase III edge classifier back.
pub fn load_edge_model(path: &Path) -> Result<EdgeClassifier, SnapshotError> {
    let snap = Snapshot::read_from(path)?;
    snap.expect_kind(SnapshotKind::EdgeModel)?;
    let mut dec = snap.section("logreg")?;
    let d = dec.count()?;
    let k = dec.count()?;
    let w = dec.f32_vec(
        d.checked_mul(k)
            .ok_or(SnapshotError::Corrupt("weight size overflow"))?,
    )?;
    let b = dec.f32_vec(k)?;
    dec.done()?;
    let lr =
        LogisticRegression::from_params(Tensor::from_vec(&[d, k], w), Tensor::from_vec(&[k], b))
            .map_err(SnapshotError::Corrupt)?;
    Ok(EdgeClassifier::from_model(lr))
}

/// Columnar GBDT sections: meta, per-tree node offsets, then one column
/// per [`FlatNode`] field.
fn add_gbdt_sections(w: &mut SnapshotWriter, gbdt: &Gbdt) {
    let mut meta = Enc::new();
    meta.u64(gbdt.num_classes() as u64);
    meta.u64(gbdt.num_features() as u64);
    meta.f32(gbdt.learning_rate());
    meta.u64(gbdt.num_trees() as u64);
    w.add("gbdt_meta", meta.finish());

    let flat: Vec<Vec<FlatNode>> = gbdt
        .trees()
        .iter()
        .map(RegressionTree::flat_nodes)
        .collect();
    let mut offsets = Enc::new();
    let total: u64 = flat.iter().map(|t| t.len() as u64).sum();
    offsets.u64(flat.len() as u64 + 1);
    let mut acc = 0u64;
    offsets.u64(0);
    for t in &flat {
        acc += t.len() as u64;
        offsets.u64(acc);
    }
    w.add("gbdt_tree_offsets", offsets.finish());

    let mut features = Enc::new();
    let mut thresholds = Enc::new();
    let mut lefts = Enc::new();
    let mut rights = Enc::new();
    let mut weights = Enc::new();
    features.u64(total);
    for t in &flat {
        for n in t {
            features.u32(n.feature);
            thresholds.f32(n.threshold);
            lefts.u32(n.left);
            rights.u32(n.right);
            weights.f32(n.weight);
        }
    }
    w.add("gbdt_features", features.finish());
    w.add("gbdt_thresholds", thresholds.finish());
    w.add("gbdt_lefts", lefts.finish());
    w.add("gbdt_rights", rights.finish());
    w.add("gbdt_weights", weights.finish());
}

fn read_gbdt_sections(snap: &Snapshot) -> Result<Gbdt, SnapshotError> {
    let mut dec = snap.section("gbdt_meta")?;
    let num_classes = dec.count()?;
    let num_features = dec.count()?;
    let learning_rate = dec.f32()?;
    let num_trees = dec.count()?;
    dec.done()?;

    let mut dec = snap.section("gbdt_tree_offsets")?;
    if dec.count()? != num_trees + 1 {
        return Err(SnapshotError::Corrupt("tree offset count mismatch"));
    }
    let mut offsets = Vec::with_capacity(num_trees + 1);
    for _ in 0..=num_trees {
        offsets.push(dec.count()?);
    }
    dec.done()?;
    if offsets[0] != 0 || offsets.windows(2).any(|w| w[0] >= w[1]) {
        return Err(SnapshotError::Corrupt("tree offsets are not increasing"));
    }
    let total = offsets[num_trees];

    let mut dec = snap.section("gbdt_features")?;
    if dec.count()? != total {
        return Err(SnapshotError::Corrupt("node count mismatch"));
    }
    let features = dec.u32_vec(total)?;
    dec.done()?;
    let mut dec = snap.section("gbdt_thresholds")?;
    let thresholds = dec.f32_vec(total)?;
    dec.done()?;
    let mut dec = snap.section("gbdt_lefts")?;
    let lefts = dec.u32_vec(total)?;
    dec.done()?;
    let mut dec = snap.section("gbdt_rights")?;
    let rights = dec.u32_vec(total)?;
    dec.done()?;
    let mut dec = snap.section("gbdt_weights")?;
    let weights = dec.f32_vec(total)?;
    dec.done()?;

    let trees: Vec<RegressionTree> = (0..num_trees)
        .map(|t| {
            let slice = offsets[t]..offsets[t + 1];
            // Child ids are tree-local; validate against the local arena.
            let nodes: Vec<FlatNode> = slice
                .clone()
                .map(|i| FlatNode {
                    feature: features[i],
                    threshold: thresholds[i],
                    left: lefts[i],
                    right: rights[i],
                    weight: weights[i],
                })
                .collect();
            RegressionTree::from_flat_nodes(&nodes, num_features).map_err(SnapshotError::Corrupt)
        })
        .collect::<Result<_, _>>()?;
    Gbdt::from_parts(trees, num_classes, num_features, learning_rate)
        .map_err(SnapshotError::Corrupt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use locec_ml::Dataset;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("locec_model_{}_{name}", std::process::id()))
    }

    fn toy_gbdt() -> Gbdt {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..30 {
            let x = i as f32 / 3.0;
            rows.push(vec![x, (i % 7) as f32]);
            labels.push((i / 10) as usize);
        }
        let data = Dataset::from_rows(&rows, &labels);
        Gbdt::fit(&data, 3, &locec_ml::gbdt::GbdtConfig::fast())
    }

    #[test]
    fn gbdt_model_roundtrips_bit_identically() {
        let gbdt = toy_gbdt();
        let mut model = CommunityClassifier::Xgb(gbdt);
        let path = tmp("gbdt.lsnap");
        save_community_model(&path, &mut model).unwrap();
        let loaded = load_community_model(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let (CommunityClassifier::Xgb(a), CommunityClassifier::Xgb(b)) = (&model, &loaded) else {
            panic!("kind changed across roundtrip");
        };
        assert_eq!(a.num_trees(), b.num_trees());
        for i in 0..40 {
            let x = [i as f32 / 5.0, (i % 3) as f32];
            assert_eq!(
                a.predict_margins(&x)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                b.predict_margins(&x)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>()
            );
            assert_eq!(a.leaf_values(&x), b.leaf_values(&x));
        }
    }

    #[test]
    fn cnn_model_roundtrips_bit_identically() {
        let config = CommCnnConfig::fast();
        let mut cnn = CommCnn::new(8, 12, 3, &config);
        // Train briefly so the weights are not the seeded init.
        let xs: Vec<Tensor> = (0..6)
            .map(|i| {
                let mut t = Tensor::zeros(&[8, 12]);
                t.data_mut()[i] = 1.0;
                t
            })
            .collect();
        let ys = vec![0, 1, 2, 0, 1, 2];
        cnn.train(&xs, &ys);
        let probe = xs[0].clone();
        let before = cnn.predict_proba(&probe);

        let mut model = CommunityClassifier::Cnn(Box::new(cnn));
        let path = tmp("cnn.lsnap");
        save_community_model(&path, &mut model).unwrap();
        let loaded = load_community_model(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let CommunityClassifier::Cnn(b) = loaded else {
            panic!("kind changed across roundtrip");
        };
        let after = b.predict_proba(&probe);
        assert_eq!(
            before.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            after.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn edge_model_roundtrips_bit_identically() {
        let data = Dataset::from_rows(
            &[
                vec![1.0, 0.0],
                vec![0.0, 1.0],
                vec![-1.0, 0.5],
                vec![0.3, -0.8],
            ],
            &[0, 1, 2, 0],
        );
        let lr = LogisticRegression::fit(&data, 3, &Default::default());
        let clf = EdgeClassifier::from_model(lr);
        let path = tmp("edge.lsnap");
        save_edge_model(&path, &clf).unwrap();
        let loaded = load_edge_model(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let x = [0.4f32, -0.2];
        assert_eq!(
            clf.model()
                .predict_proba(&x)
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            loaded
                .model()
                .predict_proba(&x)
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn wrong_kind_is_a_typed_error() {
        let gbdt = toy_gbdt();
        let mut model = CommunityClassifier::Xgb(gbdt);
        let path = tmp("wrongkind.lsnap");
        save_community_model(&path, &mut model).unwrap();
        let err = match load_edge_model(&path) {
            Err(e) => e,
            Ok(_) => panic!("loaded an edge model from a community-model file"),
        };
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, SnapshotError::WrongKind { .. }), "{err}");
    }
}

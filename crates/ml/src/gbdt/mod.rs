//! Gradient-boosted decision trees with a softmax multiclass objective —
//! the from-scratch stand-in for XGBoost (paper \[20\]).
//!
//! Each boosting round fits one regression tree per class on the softmax
//! gradients `g = p − y` and (diagonal) hessians `h = p·(1 − p)`, then
//! advances the margins by `η · tree(x)`. Besides class probabilities, the
//! booster exposes the **leaf-value embedding** used by LoCEC-XGB: the
//! concatenated leaf outputs of every tree for a sample (paper §IV-C, the
//! GBDT→LR trick of He et al., ADKDD 2014).

pub mod tree;

pub use tree::{FlatNode, RegressionTree, TreeConfig, FLAT_LEAF};

use crate::data::Dataset;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Hyper-parameters for [`Gbdt`].
#[derive(Clone, Debug)]
pub struct GbdtConfig {
    /// Number of boosting rounds (trees per class).
    pub num_rounds: usize,
    /// Shrinkage η applied to each tree's contribution.
    pub learning_rate: f32,
    /// Row subsampling fraction per tree (1.0 = none).
    pub subsample: f64,
    /// Per-tree structural parameters.
    pub tree: TreeConfig,
    /// RNG seed for subsampling.
    pub seed: u64,
}

impl Default for GbdtConfig {
    fn default() -> Self {
        GbdtConfig {
            num_rounds: 50,
            learning_rate: 0.2,
            subsample: 1.0,
            tree: TreeConfig::default(),
            seed: 0,
        }
    }
}

impl GbdtConfig {
    /// A small, fast configuration for unit tests and tiny datasets.
    pub fn fast() -> Self {
        GbdtConfig {
            num_rounds: 20,
            learning_rate: 0.3,
            subsample: 1.0,
            tree: TreeConfig {
                max_depth: 3,
                ..Default::default()
            },
            seed: 0,
        }
    }
}

/// A trained multiclass gradient-boosted tree ensemble.
#[derive(Clone, Debug)]
pub struct Gbdt {
    /// Round-major: `trees[round * num_classes + class]`.
    trees: Vec<RegressionTree>,
    num_classes: usize,
    num_features: usize,
    learning_rate: f32,
}

impl Gbdt {
    /// Fits the ensemble on `data` with labels in `0..num_classes`.
    pub fn fit(data: &Dataset, num_classes: usize, config: &GbdtConfig) -> Self {
        assert!(!data.is_empty(), "empty training set");
        assert!(num_classes >= 2, "need at least two classes");
        let n = data.len();
        let k = num_classes;
        let mut rng = StdRng::seed_from_u64(config.seed);

        // margins[i * k + c] is the running score F_c(x_i).
        let mut margins = vec![0.0f32; n * k];
        let mut probs = vec![0.0f32; n * k];
        let mut grad = vec![0.0f32; n];
        let mut hess = vec![0.0f32; n];
        let mut trees = Vec::with_capacity(config.num_rounds * k);

        let mut all_indices: Vec<usize> = (0..n).collect();
        let subsample_count = ((n as f64) * config.subsample).ceil().max(1.0) as usize;

        for _round in 0..config.num_rounds {
            // Softmax over current margins.
            for i in 0..n {
                let row = &margins[i * k..(i + 1) * k];
                let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let mut denom = 0.0f32;
                for c in 0..k {
                    let e = (row[c] - max).exp();
                    probs[i * k + c] = e;
                    denom += e;
                }
                for c in 0..k {
                    probs[i * k + c] /= denom;
                }
            }

            let sample: &[usize] = if subsample_count < n {
                all_indices.shuffle(&mut rng);
                &all_indices[..subsample_count]
            } else {
                &all_indices
            };

            for c in 0..k {
                for i in 0..n {
                    let p = probs[i * k + c];
                    let y = f32::from(data.label(i) == c);
                    grad[i] = p - y;
                    hess[i] = (p * (1.0 - p)).max(1e-6);
                }
                let tree = RegressionTree::fit(data, sample, &grad, &hess, &config.tree);
                for i in 0..n {
                    margins[i * k + c] += config.learning_rate * tree.predict(data.row(i));
                }
                trees.push(tree);
            }
        }

        Gbdt {
            trees,
            num_classes,
            num_features: data.cols(),
            learning_rate: config.learning_rate,
        }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Number of trees (`rounds × classes`).
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// Expected feature-row width.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// The shrinkage η the ensemble was trained with.
    pub fn learning_rate(&self) -> f32 {
        self.learning_rate
    }

    /// The fitted trees in round-major order
    /// (`trees[round * num_classes + class]`).
    pub fn trees(&self) -> &[RegressionTree] {
        &self.trees
    }

    /// Reassembles an ensemble from its parts (the inverse of the
    /// [`Gbdt::trees`]/[`Gbdt::num_features`]/[`Gbdt::learning_rate`]
    /// accessors), validating the round-major shape invariant.
    pub fn from_parts(
        trees: Vec<RegressionTree>,
        num_classes: usize,
        num_features: usize,
        learning_rate: f32,
    ) -> Result<Self, &'static str> {
        if num_classes < 2 {
            return Err("need at least two classes");
        }
        if trees.is_empty() || !trees.len().is_multiple_of(num_classes) {
            return Err("tree count must be a positive multiple of the class count");
        }
        if !learning_rate.is_finite() {
            return Err("learning rate is not finite");
        }
        Ok(Gbdt {
            trees,
            num_classes,
            num_features,
            learning_rate,
        })
    }

    /// Raw class margins `F_c(x) = Σ_t η·tree_t(x)` for one row, matching
    /// the scale the booster trained against.
    pub fn predict_margins(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.num_features, "feature width mismatch");
        let k = self.num_classes;
        let mut margins = vec![0.0f32; k];
        for (t, tree) in self.trees.iter().enumerate() {
            margins[t % k] += self.learning_rate * tree.predict(x);
        }
        margins
    }

    /// Class probabilities (softmax of the margins).
    pub fn predict_proba(&self, x: &[f32]) -> Vec<f32> {
        let mut m = self.predict_margins(x);
        let max = m.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0f32;
        for v in m.iter_mut() {
            *v = (*v - max).exp();
            denom += *v;
        }
        m.iter_mut().for_each(|v| *v /= denom);
        m
    }

    /// Most likely class for one row.
    pub fn predict(&self, x: &[f32]) -> usize {
        crate::linear::argmax(&self.predict_proba(x))
    }

    /// Predictions for every row of a dataset.
    pub fn predict_all(&self, data: &Dataset) -> Vec<usize> {
        (0..data.len()).map(|i| self.predict(data.row(i))).collect()
    }

    /// The leaf-value embedding: the leaf output of every tree for `x`,
    /// in tree order (`rounds × classes` values). This is the paper's
    /// "values of the leaf nodes on the final layers of generated trees"
    /// used as community embeddings in LoCEC-XGB.
    pub fn leaf_values(&self, x: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0; self.trees.len()];
        self.leaf_values_into(x, &mut out);
        out
    }

    /// [`Gbdt::leaf_values`] written into a caller-owned row of
    /// `num_trees()` values.
    pub fn leaf_values_into(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(out.len(), self.trees.len(), "one value per tree");
        for (slot, tree) in out.iter_mut().zip(&self.trees) {
            *slot = tree.predict(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_blobs() -> Dataset {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        let centers = [(0.0f32, 4.0f32), (4.0, -4.0), (-4.0, -4.0)];
        for (c, &(cx, cy)) in centers.iter().enumerate() {
            for i in 0..15 {
                let dx = (i % 5) as f32 * 0.3;
                let dy = (i / 5) as f32 * 0.3;
                rows.push(vec![cx + dx, cy + dy]);
                labels.push(c);
            }
        }
        Dataset::from_rows(&rows, &labels)
    }

    #[test]
    fn separable_blobs_fit_perfectly() {
        let data = three_blobs();
        let model = Gbdt::fit(&data, 3, &GbdtConfig::fast());
        let preds = model.predict_all(&data);
        assert_eq!(preds, data.labels());
    }

    #[test]
    fn xor_is_learnable() {
        // A perfectly symmetric 4-point XOR has zero first-order gain at the
        // root (no greedy booster splits it); a fifth point breaks the tie.
        let data = Dataset::from_rows(
            &[
                vec![0.0, 0.0],
                vec![0.0, 1.0],
                vec![1.0, 0.0],
                vec![1.0, 1.0],
                vec![0.1, 0.1],
            ],
            &[0, 1, 1, 0, 0],
        );
        let model = Gbdt::fit(&data, 2, &GbdtConfig::fast());
        assert_eq!(model.predict_all(&data), data.labels());
    }

    #[test]
    fn probabilities_are_normalized() {
        let data = three_blobs();
        let model = Gbdt::fit(&data, 3, &GbdtConfig::fast());
        let p = model.predict_proba(&[0.0, 0.0]);
        assert_eq!(p.len(), 3);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn leaf_values_have_tree_count_length() {
        let data = three_blobs();
        let cfg = GbdtConfig {
            num_rounds: 7,
            ..GbdtConfig::fast()
        };
        let model = Gbdt::fit(&data, 3, &cfg);
        assert_eq!(model.num_trees(), 21);
        assert_eq!(model.leaf_values(&[1.0, 1.0]).len(), 21);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = three_blobs();
        let cfg = GbdtConfig {
            subsample: 0.8,
            seed: 5,
            ..GbdtConfig::fast()
        };
        let m1 = Gbdt::fit(&data, 3, &cfg);
        let m2 = Gbdt::fit(&data, 3, &cfg);
        assert_eq!(
            m1.predict_margins(&[0.5, 0.5]),
            m2.predict_margins(&[0.5, 0.5])
        );
    }

    #[test]
    fn subsampling_still_learns() {
        let data = three_blobs();
        let cfg = GbdtConfig {
            subsample: 0.7,
            num_rounds: 40,
            ..GbdtConfig::fast()
        };
        let model = Gbdt::fit(&data, 3, &cfg);
        let preds = model.predict_all(&data);
        let acc = preds
            .iter()
            .zip(data.labels())
            .filter(|(a, b)| a == b)
            .count() as f64
            / data.len() as f64;
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn more_rounds_do_not_hurt_training_fit() {
        let data = three_blobs();
        let short = Gbdt::fit(
            &data,
            3,
            &GbdtConfig {
                num_rounds: 2,
                ..GbdtConfig::fast()
            },
        );
        let long = Gbdt::fit(
            &data,
            3,
            &GbdtConfig {
                num_rounds: 30,
                ..GbdtConfig::fast()
            },
        );
        let acc = |m: &Gbdt| {
            m.predict_all(&data)
                .iter()
                .zip(data.labels())
                .filter(|(a, b)| a == b)
                .count()
        };
        assert!(acc(&long) >= acc(&short));
    }

    #[test]
    fn from_parts_roundtrips_predictions_bit_identically() {
        let data = three_blobs();
        let model = Gbdt::fit(&data, 3, &GbdtConfig::fast());
        let rebuilt = Gbdt::from_parts(
            model.trees().to_vec(),
            model.num_classes(),
            model.num_features(),
            model.learning_rate(),
        )
        .unwrap();
        for i in 0..data.len() {
            let a = model.predict_margins(data.row(i));
            let b = rebuilt.predict_margins(data.row(i));
            assert_eq!(
                a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
            assert_eq!(
                model.leaf_values(data.row(i)),
                rebuilt.leaf_values(data.row(i))
            );
        }
    }

    #[test]
    fn from_parts_rejects_bad_shapes() {
        let data = three_blobs();
        let model = Gbdt::fit(&data, 3, &GbdtConfig::fast());
        let trees = model.trees().to_vec();
        assert!(Gbdt::from_parts(Vec::new(), 3, 2, 0.3).is_err());
        assert!(Gbdt::from_parts(trees.clone(), 1, 2, 0.3).is_err());
        let odd = trees[..trees.len() - 1].to_vec();
        assert!(Gbdt::from_parts(odd, 3, 2, 0.3).is_err());
        assert!(Gbdt::from_parts(trees, 3, 2, f32::NAN).is_err());
    }

    #[test]
    #[should_panic(expected = "feature width mismatch")]
    fn predict_rejects_wrong_width() {
        let data = three_blobs();
        let model = Gbdt::fit(&data, 3, &GbdtConfig::fast());
        model.predict(&[1.0]);
    }
}

//! Multinomial logistic regression.
//!
//! LoCEC Phase III (paper §IV-C) trains *"a logistic regression model as a
//! multi-label classifier to predict the edge label for each edge"* on the
//! Eq. 4 feature vectors. Trained full-batch with Adam and L2
//! regularization.
//!
//! # Training and block inference as GEMMs
//!
//! Both go through [`crate::kernel::sgemm`] with the *samples* on a GEMM's
//! wide axis, so the micro-kernel vectorizes across samples and the class
//! axis (2–4 wide) only costs a partly filled register strip:
//!
//! * scores — `Pᵀ (k×B) = bias ⊕ Wᵀ (k×d) · Xᵀ (d×B)` over a
//!   *feature-major* block of `B` samples, then a softmax down each column;
//! * gradient — `∇Wᵀ (k×d) += Gᵀ (k×B) · X (B×d)` with `G = (P − Y) / n`,
//!   one call per block of [`ROW_BLOCK`] samples in ascending order.
//!
//! The kernel folds every output element over its contraction axis in
//! ascending order *starting from the value already in `C`* and never
//! splits that axis, so a score is the same `b + Σ_j x_j·w_jc` left-fold a
//! per-row loop computes, and streaming the gradient block after block
//! continues one ascending-sample fold per weight — exactly the
//! accumulation order of a per-sample loop. The loss stays a sequential
//! scalar sum. Fitted parameters, the epoch the `tol` stop fires on and
//! every predicted label are therefore bit-identical to the per-sample
//! formulation, which the tests keep as their oracle.

use crate::data::Dataset;
use crate::kernel::timed_linear_sgemm;
use crate::nn::{Adam, Model};
use crate::tensor::Tensor;

/// Samples per streamed training block: the block's two layouts (`d×B`
/// feature-major for the scores, `B×d` row-major for the gradient) stay
/// cache-resident between the two GEMMs that read them. A multiple of the
/// kernel's panel width, so only a data set's last block has a ragged
/// panel.
const ROW_BLOCK: usize = 256;

/// Hyper-parameters for [`LogisticRegression`].
#[derive(Clone, Debug)]
pub struct LogisticRegressionConfig {
    /// Full-batch Adam learning rate.
    pub learning_rate: f32,
    /// Number of epochs.
    pub epochs: usize,
    /// L2 penalty strength.
    pub l2: f32,
    /// Early-stop when the loss improves less than this between epochs.
    pub tol: f32,
}

impl Default for LogisticRegressionConfig {
    fn default() -> Self {
        LogisticRegressionConfig {
            learning_rate: 0.1,
            epochs: 300,
            l2: 1e-4,
            tol: 1e-6,
        }
    }
}

/// A trained multinomial logistic regression model.
#[derive(Clone, Debug)]
pub struct LogisticRegression {
    /// Weights `(num_features, num_classes)`.
    w: Tensor,
    /// Bias `(num_classes)`.
    b: Tensor,
    num_classes: usize,
}

/// Training state. The weights are held transposed, `(num_classes,
/// num_features)`, which is the operand layout of both GEMMs; Adam and the
/// L2 term are element-wise, so the layout does not touch their arithmetic.
struct Params {
    wt: Tensor,
    b: Tensor,
    gwt: Tensor,
    gb: Tensor,
}

impl Model for Params {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        f(&mut self.wt, &mut self.gwt);
        f(&mut self.b, &mut self.gb);
    }
}

/// Reusable buffers of [`LogisticRegression::predict_block`]; keep one per
/// worker thread.
#[derive(Default)]
pub struct BlockScratch {
    wt: Vec<f32>,
    probs: Vec<f32>,
    pack: Vec<f32>,
}

impl LogisticRegression {
    /// Fits on a dataset with labels in `0..num_classes`.
    pub fn fit(data: &Dataset, num_classes: usize, config: &LogisticRegressionConfig) -> Self {
        Self::fit_counting_epochs(data, num_classes, config).0
    }

    /// [`LogisticRegression::fit`], also returning how many epochs ran
    /// before the `tol` stop (or `config.epochs` if it never fired).
    pub fn fit_counting_epochs(
        data: &Dataset,
        num_classes: usize,
        config: &LogisticRegressionConfig,
    ) -> (Self, usize) {
        assert!(!data.is_empty(), "empty training set");
        assert!(num_classes >= 2, "need at least two classes");
        assert!(data.cols() >= 1, "need at least one feature");
        let d = data.cols();
        let n = data.len();
        let k = num_classes;

        // X is constant over the epochs: lay out its feature-major copy
        // once, one contiguous `d × rows` matrix per row block.
        let mut xt = vec![0.0f32; n * d];
        for (blk, dst) in xt.chunks_mut(ROW_BLOCK * d).enumerate() {
            let rows = dst.len() / d;
            for i in 0..rows {
                for (j, &v) in data.row(blk * ROW_BLOCK + i).iter().enumerate() {
                    dst[j * rows + i] = v;
                }
            }
        }

        let mut params = Params {
            wt: Tensor::zeros(&[k, d]),
            b: Tensor::zeros(&[k]),
            gwt: Tensor::zeros(&[k, d]),
            gb: Tensor::zeros(&[k]),
        };
        let mut opt = Adam::new(config.learning_rate);
        let mut g = vec![0.0f32; k * ROW_BLOCK.min(n)];
        let mut pack = Vec::new();

        let mut epochs_run = 0;
        let mut prev_loss = f32::INFINITY;
        for _ in 0..config.epochs {
            epochs_run += 1;
            params.gwt.fill_zero();
            params.gb.fill_zero();
            let mut loss = 0.0f32;
            for (blk, xt_blk) in xt.chunks(ROW_BLOCK * d).enumerate() {
                let rows = xt_blk.len() / d;
                let first = blk * ROW_BLOCK;
                let g = &mut g[..k * rows];
                class_probabilities(
                    params.wt.data(),
                    params.b.data(),
                    xt_blk,
                    rows,
                    g,
                    &mut pack,
                );
                let gb = params.gb.data_mut();
                for i in 0..rows {
                    let y = data.label(first + i);
                    loss -= g[y * rows + i].max(1e-12).ln();
                    for c in 0..k {
                        let gc = (g[c * rows + i] - f32::from(c == y)) / n as f32;
                        gb[c] += gc;
                        g[c * rows + i] = gc;
                    }
                }
                timed_linear_sgemm(
                    k,
                    d,
                    rows,
                    g,
                    &data.features()[first * d..(first + rows) * d],
                    params.gwt.data_mut(),
                    &mut pack,
                );
            }
            loss /= n as f32;
            // L2 on weights only.
            for j in 0..d {
                for c in 0..k {
                    let w = params.wt.data()[c * d + j];
                    loss += 0.5 * config.l2 * w * w;
                    params.gwt.data_mut()[c * d + j] += config.l2 * w;
                }
            }
            opt.step(&mut params);
            if (prev_loss - loss).abs() < config.tol {
                break;
            }
            prev_loss = loss;
        }

        let mut w = Tensor::zeros(&[d, k]);
        for (c, row) in params.wt.data().chunks_exact(d).enumerate() {
            for (j, &v) in row.iter().enumerate() {
                *w.at2_mut(j, c) = v;
            }
        }
        let model = LogisticRegression {
            w,
            b: params.b,
            num_classes,
        };
        (model, epochs_run)
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Expected feature-row width.
    pub fn num_features(&self) -> usize {
        self.w.shape()[0]
    }

    /// The fitted parameters: weights `(num_features, num_classes)` and
    /// bias `(num_classes)`.
    pub fn params(&self) -> (&Tensor, &Tensor) {
        (&self.w, &self.b)
    }

    /// Reassembles a model from fitted parameters (the inverse of
    /// [`LogisticRegression::params`]), validating the shapes.
    pub fn from_params(w: Tensor, b: Tensor) -> Result<Self, &'static str> {
        let [d, k] = *w.shape() else {
            return Err("weights must be 2-D");
        };
        if b.shape() != [k] {
            return Err("bias length must equal the class count");
        }
        if k < 2 || d == 0 {
            return Err("need at least two classes and one feature");
        }
        if w.data().iter().chain(b.data()).any(|v| !v.is_finite()) {
            return Err("parameters must be finite");
        }
        Ok(LogisticRegression {
            w,
            b,
            num_classes: k,
        })
    }

    /// Class probabilities for one feature row.
    pub fn predict_proba(&self, x: &[f32]) -> Vec<f32> {
        softmax_row(x, &self.w, &self.b, self.num_classes)
    }

    /// Most likely class for one feature row.
    pub fn predict(&self, x: &[f32]) -> usize {
        argmax(&self.predict_proba(x))
    }

    /// Predictions for every row of a dataset.
    pub fn predict_all(&self, data: &Dataset) -> Vec<usize> {
        (0..data.len()).map(|i| self.predict(data.row(i))).collect()
    }

    /// Most likely class of each sample of a feature-major block
    /// (`xt[j * rows + i]` is feature `j` of sample `i`), appended to `out`
    /// in sample order — one GEMM for the block, and bit for bit the labels
    /// [`LogisticRegression::predict`] gives row by row.
    pub fn predict_block(
        &self,
        xt: &[f32],
        rows: usize,
        scratch: &mut BlockScratch,
        out: &mut Vec<usize>,
    ) {
        let (d, k) = (self.num_features(), self.num_classes);
        assert_eq!(xt.len(), d * rows, "block must be num_features × rows");
        scratch.wt.clear();
        for c in 0..k {
            scratch.wt.extend((0..d).map(|j| self.w.at2(j, c)));
        }
        scratch.probs.resize(k * rows, 0.0);
        let probs = &mut scratch.probs[..k * rows];
        class_probabilities(
            &scratch.wt,
            self.b.data(),
            xt,
            rows,
            probs,
            &mut scratch.pack,
        );
        out.extend((0..rows).map(|i| {
            // First maximum, as `argmax`.
            let mut best = 0;
            for c in 1..k {
                if probs[c * rows + i] > probs[best * rows + i] {
                    best = c;
                }
            }
            best
        }));
    }
}

/// Class probabilities of a feature-major block: `probs[c * rows + i] =
/// softmax_c(b + x_i·W)`, the scores by one GEMM over `wt` (`k × d`) and
/// `xt` (`d × rows`) with the bias preloaded.
fn class_probabilities(
    wt: &[f32],
    b: &[f32],
    xt: &[f32],
    rows: usize,
    probs: &mut [f32],
    pack: &mut Vec<f32>,
) {
    let k = b.len();
    for (row, &bias) in probs.chunks_exact_mut(rows).zip(b) {
        row.fill(bias);
    }
    timed_linear_sgemm(k, rows, wt.len() / k, wt, xt, probs, pack);
    for i in 0..rows {
        softmax_in_place(probs, i, rows, k);
    }
}

fn softmax_row(x: &[f32], w: &Tensor, b: &Tensor, k: usize) -> Vec<f32> {
    let mut logits = vec![0.0f32; k];
    for (c, logit) in logits.iter_mut().enumerate() {
        let mut acc = b.data()[c];
        for (j, &xj) in x.iter().enumerate() {
            acc += xj * w.at2(j, c);
        }
        *logit = acc;
    }
    softmax_in_place(&mut logits, 0, 1, k);
    logits
}

/// Softmax over the `k` values `v[at]`, `v[at + stride]`, …, in place.
fn softmax_in_place(v: &mut [f32], at: usize, stride: usize, k: usize) {
    let mut max = f32::NEG_INFINITY;
    for c in 0..k {
        max = max.max(v[at + c * stride]);
    }
    let mut denom = 0.0f32;
    for c in 0..k {
        let e = (v[at + c * stride] - max).exp();
        v[at + c * stride] = e;
        denom += e;
    }
    for c in 0..k {
        v[at + c * stride] /= denom;
    }
}

/// Index of the maximum element (first on ties).
pub fn argmax(values: &[f32]) -> usize {
    values
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap().then(b.0.cmp(&a.0)))
        .map(|(i, _)| i)
        .expect("non-empty slice")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-sample formulation of `fit` — one scalar pass over the rows
    /// per epoch — kept as the oracle the GEMM formulation must match bit
    /// for bit, epoch count included.
    fn fit_oracle(
        data: &Dataset,
        num_classes: usize,
        config: &LogisticRegressionConfig,
    ) -> (LogisticRegression, usize) {
        struct Params {
            w: Tensor,
            b: Tensor,
            gw: Tensor,
            gb: Tensor,
        }
        impl Model for Params {
            fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
                f(&mut self.w, &mut self.gw);
                f(&mut self.b, &mut self.gb);
            }
        }
        let d = data.cols();
        let n = data.len();
        let mut params = Params {
            w: Tensor::zeros(&[d, num_classes]),
            b: Tensor::zeros(&[num_classes]),
            gw: Tensor::zeros(&[d, num_classes]),
            gb: Tensor::zeros(&[num_classes]),
        };
        let mut opt = Adam::new(config.learning_rate);

        let mut epochs_run = 0;
        let mut prev_loss = f32::INFINITY;
        for _ in 0..config.epochs {
            epochs_run += 1;
            params.gw.fill_zero();
            params.gb.fill_zero();
            let mut loss = 0.0f32;
            for i in 0..n {
                let x = data.row(i);
                let y = data.label(i);
                let probs = softmax_row(x, &params.w, &params.b, num_classes);
                loss -= probs[y].max(1e-12).ln();
                for (c, &p) in probs.iter().enumerate() {
                    let g = (p - f32::from(c == y)) / n as f32;
                    params.gb.data_mut()[c] += g;
                    for (j, &xj) in x.iter().enumerate() {
                        *params.gw.at2_mut(j, c) += g * xj;
                    }
                }
            }
            loss /= n as f32;
            for j in 0..d {
                for c in 0..num_classes {
                    let w = params.w.at2(j, c);
                    loss += 0.5 * config.l2 * w * w;
                    *params.gw.at2_mut(j, c) += config.l2 * w;
                }
            }
            opt.step(&mut params);
            if (prev_loss - loss).abs() < config.tol {
                break;
            }
            prev_loss = loss;
        }
        let model = LogisticRegression {
            w: params.w,
            b: params.b,
            num_classes,
        };
        (model, epochs_run)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Seeded rows in roughly [-1, 1) with a sprinkling of exact zeros (the
    /// Eq. 4 vectors are sparse in places), labels cycling with a seeded
    /// offset so every class occurs.
    fn seeded_dataset(n: usize, d: usize, classes: usize, seed: u64) -> Dataset {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 33) as u32
        };
        let mut data = Dataset::new(d);
        let mut row = vec![0.0f32; d];
        for i in 0..n {
            for v in row.iter_mut() {
                let r = next();
                *v = if r % 7 == 0 {
                    0.0
                } else {
                    r as f32 / (1u32 << 30) as f32 - 1.0
                };
            }
            data.push(&row, (i + next() as usize % 2) % classes);
        }
        data
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Sizes straddle `ROW_BLOCK` and the kernel's panel width; `tol`
        /// is drawn so that some fits stop early and some run every epoch.
        #[test]
        fn fit_matches_the_per_sample_oracle_bitwise(
            n in 1usize..600,
            d in 1usize..130,
            classes in 2usize..5,
            tol_step in 0usize..3,
            seed in 0u64..u64::MAX,
        ) {
            let data = seeded_dataset(n, d, classes, seed);
            let config = LogisticRegressionConfig {
                epochs: 10,
                tol: [0.0, 2e-2, 1e-1][tol_step],
                ..Default::default()
            };
            let (got, got_epochs) = LogisticRegression::fit_counting_epochs(&data, classes, &config);
            let (want, want_epochs) = fit_oracle(&data, classes, &config);
            prop_assert_eq!(got_epochs, want_epochs, "tol stop fired on another epoch");
            prop_assert_eq!(bits(&got.w), bits(&want.w), "weights");
            prop_assert_eq!(bits(&got.b), bits(&want.b), "bias");
        }

        #[test]
        fn predict_block_matches_row_by_row_predict(
            rows in 1usize..70,
            d in 1usize..40,
            classes in 2usize..5,
            seed in 0u64..u64::MAX,
        ) {
            let data = seeded_dataset(rows.max(classes), d, classes, seed);
            let config = LogisticRegressionConfig { epochs: 5, ..Default::default() };
            let model = LogisticRegression::fit(&data, classes, &config);
            let rows = data.len();
            let mut xt = vec![0.0f32; d * rows];
            for i in 0..rows {
                for (j, &v) in data.row(i).iter().enumerate() {
                    xt[j * rows + i] = v;
                }
            }
            let mut got = Vec::new();
            model.predict_block(&xt, rows, &mut BlockScratch::default(), &mut got);
            prop_assert_eq!(got, model.predict_all(&data));
        }
    }

    #[test]
    fn early_stop_is_exercised_by_the_oracle_property() {
        // The property above draws `tol`; make sure both regimes exist.
        let data = seeded_dataset(300, 20, 3, 5);
        let run = |tol| {
            let config = LogisticRegressionConfig {
                epochs: 10,
                tol,
                ..Default::default()
            };
            LogisticRegression::fit_counting_epochs(&data, 3, &config).1
        };
        assert_eq!(run(0.0), 10);
        assert!(run(1e-1) < 10);
    }

    fn blobs() -> Dataset {
        // Three well-separated 2-D blobs.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        let centers = [(0.0f32, 5.0f32), (5.0, -5.0), (-5.0, -5.0)];
        for (c, &(cx, cy)) in centers.iter().enumerate() {
            for i in 0..20 {
                let dx = (i % 5) as f32 * 0.2 - 0.4;
                let dy = (i / 5) as f32 * 0.2 - 0.4;
                rows.push(vec![cx + dx, cy + dy]);
                labels.push(c);
            }
        }
        Dataset::from_rows(&rows, &labels)
    }

    #[test]
    fn separable_blobs_reach_high_accuracy() {
        let data = blobs();
        let model = LogisticRegression::fit(&data, 3, &LogisticRegressionConfig::default());
        let preds = model.predict_all(&data);
        let correct = preds
            .iter()
            .zip(data.labels())
            .filter(|(p, y)| p == y)
            .count();
        assert!(correct as f64 / data.len() as f64 > 0.95);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let data = blobs();
        let model = LogisticRegression::fit(&data, 3, &LogisticRegressionConfig::default());
        let p = model.predict_proba(&[1.0, 1.0]);
        assert_eq!(p.len(), 3);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!(p.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn binary_problem_works() {
        let data = Dataset::from_rows(
            &[vec![1.0], vec![2.0], vec![-1.0], vec![-2.0]],
            &[0, 0, 1, 1],
        );
        let model = LogisticRegression::fit(&data, 2, &LogisticRegressionConfig::default());
        assert_eq!(model.predict(&[3.0]), 0);
        assert_eq!(model.predict(&[-3.0]), 1);
    }

    #[test]
    fn l2_shrinks_weights() {
        let data = blobs();
        let weak = LogisticRegression::fit(
            &data,
            3,
            &LogisticRegressionConfig {
                l2: 0.0,
                ..Default::default()
            },
        );
        let strong = LogisticRegression::fit(
            &data,
            3,
            &LogisticRegressionConfig {
                l2: 1.0,
                ..Default::default()
            },
        );
        assert!(strong.w.norm() < weak.w.norm());
    }

    #[test]
    fn params_roundtrip_bit_identically() {
        let data = blobs();
        let model = LogisticRegression::fit(&data, 3, &LogisticRegressionConfig::default());
        let (w, b) = model.params();
        let rebuilt = LogisticRegression::from_params(w.clone(), b.clone()).unwrap();
        assert_eq!(rebuilt.num_classes(), 3);
        assert_eq!(rebuilt.num_features(), 2);
        let p1 = model.predict_proba(&[0.3, -1.2]);
        let p2 = rebuilt.predict_proba(&[0.3, -1.2]);
        assert_eq!(
            p1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            p2.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn from_params_rejects_bad_shapes() {
        assert!(LogisticRegression::from_params(Tensor::zeros(&[3]), Tensor::zeros(&[3])).is_err());
        assert!(
            LogisticRegression::from_params(Tensor::zeros(&[2, 3]), Tensor::zeros(&[2])).is_err()
        );
        assert!(
            LogisticRegression::from_params(Tensor::zeros(&[2, 1]), Tensor::zeros(&[1])).is_err()
        );
        assert!(LogisticRegression::from_params(
            Tensor::full(&[2, 3], f32::INFINITY),
            Tensor::zeros(&[3])
        )
        .is_err());
        assert!(
            LogisticRegression::from_params(Tensor::zeros(&[2, 3]), Tensor::zeros(&[3])).is_ok()
        );
    }

    #[test]
    fn argmax_tie_breaks_to_first() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), 1);
        assert_eq!(argmax(&[5.0]), 0);
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn rejects_empty_training_set() {
        LogisticRegression::fit(&Dataset::new(2), 2, &Default::default());
    }
}

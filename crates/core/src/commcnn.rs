//! CommCNN — the community classification network of paper Fig. 8.
//!
//! The input is the Algorithm 1 feature matrix (`k × (|I|+|f|)`, zero-padded
//! rows for small communities). Because feature *columns* have no spatial
//! locality (unlike images), the network runs three kernel geometries in
//! parallel and concatenates their outputs:
//!
//! * **square branch** — a 3×3 ("same") convolution followed by two *Square
//!   Convolution Modules* (3×3 convolution + 2×2 max pooling each), then a
//!   flatten;
//! * **wide branch** — a `1 × (|I|+|f|)` kernel reading one member's whole
//!   feature row at once, then a 1×1 convolution and global max pooling;
//! * **long branch** — a `k × 1` kernel comparing one feature across all
//!   members, then a 1×1 convolution and global max pooling.
//!
//! The concatenation feeds two fully connected layers and a softmax.
//!
//! Inference is immutable: the layer stacks compute through
//! `forward(&self, …, &mut Scratch)`, so a trained network is shared
//! across threads, each with its own scratch arena
//! ([`CommCnn::predict_proba_chunk`]).
//!
//! Training runs on `threads` threads ([`CommCnn::train_threaded`]). Each
//! mini-batch splits into fixed 16-sample shards (`TRAIN_GRAIN`); every shard
//! runs the forward and backward passes of its own replica of the three
//! branches, whose parameters are copied from the network at each step,
//! with one [`run_chunked`] call for the forwards and one for the
//! backwards. The head, the loss and Adam run once per step over the whole
//! batch. Why the result is bitwise one thread's, and one unsharded
//! backward's:
//!
//! * the branches treat samples independently — a batched conv forward
//!   folds each output element on its own, pooling and ReLU are
//!   per-sample — so a shard's outputs are the rows the whole batch would
//!   give;
//! * the head's backward over the whole batch hands each shard its rows of
//!   the gradient, and a conv backward's ∂input is per-sample too;
//! * a conv's parameter gradient is a per-sample term (`gb += ` a plane
//!   sum, `gw += ` a tile folded from zero) added in sample order. Each
//!   replica's convs keep those terms as records, and the network folds
//!   the shards' records shard after shard through
//!   [`Layer::fold_shard`] — the same additions in the same order.
//!
//! Shard boundaries depend on the batch alone, so every semantic `ml.*`
//! counter is the same at any thread count too; `train` is the one-thread
//! call of the same code.

use locec_ml::kernel;
use locec_ml::nn::{
    export_params, import_params, Adam, Conv2d, Dense, Flatten, GlobalMaxPool2d, Layer, MaxPool2d,
    Model, Relu, Sequential, SoftmaxCrossEntropy,
};
use locec_ml::{Scratch, Tensor};
use locec_runtime::run_chunked;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::cell::RefCell;
use std::sync::Mutex;

/// Samples per chunk during batch inference. Fixed (not derived from the
/// thread count) so the chunk layout — and therefore every semantic `ml.*`
/// counter — is identical at any thread count. Kept well under
/// [`INFER_BATCH`]: a chunk is one GEMM batch either way (every output
/// element's fold is independent of its neighbours, so the batch split
/// never changes results), and smaller chunks keep per-thread working sets
/// cache-friendly.
const INFER_GRAIN: usize = 32;

/// Upper bound on the NCHW batch assembled at once inside a chunk, keeping
/// peak activation memory flat for large divisions.
const INFER_BATCH: usize = 128;

/// Samples per training shard, the training counterpart of
/// [`INFER_GRAIN`]: fixed, so a mini-batch splits into the same shards at
/// every thread count. A 32-sample batch is two shards.
const TRAIN_GRAIN: usize = 16;

/// Hyper-parameters of [`CommCnn`].
#[derive(Clone, Debug)]
pub struct CommCnnConfig {
    /// Channels of the first square convolution.
    pub square_channels: usize,
    /// Channels of the two square convolution modules.
    pub module_channels: (usize, usize),
    /// Channels of the wide and long branches.
    pub branch_channels: usize,
    /// Width of the first fully connected layer.
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Stop early when an epoch's mean loss falls below this.
    pub target_loss: f32,
    /// RNG seed (init + batch shuffling).
    pub seed: u64,
}

impl Default for CommCnnConfig {
    fn default() -> Self {
        CommCnnConfig {
            square_channels: 8,
            module_channels: (12, 24),
            branch_channels: 8,
            hidden: 64,
            epochs: 45,
            batch_size: 64,
            learning_rate: 2e-3,
            target_loss: 0.05,
            seed: 0,
        }
    }
}

impl CommCnnConfig {
    /// A light configuration for unit tests.
    pub fn fast() -> Self {
        CommCnnConfig {
            square_channels: 4,
            module_channels: (6, 8),
            branch_channels: 4,
            hidden: 32,
            epochs: 25,
            batch_size: 32,
            learning_rate: 3e-3,
            target_loss: 0.05,
            seed: 0,
        }
    }
}

/// The three convolution branches of Fig. 8 — every layer that reads the
/// input matrix. Their outputs, side by side, are the head's input.
struct Branches {
    square: Sequential,
    wide: Sequential,
    long: Sequential,
}

impl Branches {
    fn new(k: usize, cols: usize, config: &CommCnnConfig, rng: &mut StdRng) -> Self {
        let (c1, (c2, c3)) = (config.square_channels, config.module_channels);
        let square = Sequential::new()
            .push(Conv2d::square3x3(1, c1, rng))
            .push(Relu::new())
            // Square Convolution Module #1
            .push(Conv2d::square3x3(c1, c2, rng))
            .push(Relu::new())
            .push(MaxPool2d::new(2, 2))
            // Square Convolution Module #2
            .push(Conv2d::square3x3(c2, c3, rng))
            .push(Relu::new())
            .push(MaxPool2d::new(2, 2))
            .push(Flatten::new());

        let cb = config.branch_channels;
        let wide = Sequential::new()
            .push(Conv2d::new(1, cb, 1, cols, rng))
            .push(Relu::new())
            .push(Conv2d::new(cb, cb, 1, 1, rng))
            .push(Relu::new())
            .push(GlobalMaxPool2d::new())
            .push(Flatten::new());
        let long = Sequential::new()
            .push(Conv2d::new(1, cb, k, 1, rng))
            .push(Relu::new())
            .push(Conv2d::new(cb, cb, 1, 1, rng))
            .push(Relu::new())
            .push(GlobalMaxPool2d::new())
            .push(Flatten::new());
        Branches { square, wide, long }
    }

    /// Immutable forward: the three outputs side by side, `(N, concat)`.
    ///
    /// Shape errors are unreachable here and in the training passes below:
    /// `batch_tensor` already asserted the input geometry, so any `MlError`
    /// would be a construction bug.
    fn forward(&self, batch: &Tensor, scratch: &mut Scratch) -> Tensor {
        let sq = self.square.forward(batch, scratch).expect("square branch");
        let wd = self.wide.forward(batch, scratch).expect("wide branch");
        let lg = self.long.forward(batch, scratch).expect("long branch");
        concat_cols(&[&sq, &wd, &lg])
    }

    /// Training-mode forward (caches activations for backward).
    fn forward_train(&mut self, batch: &Tensor, scratch: &mut Scratch) -> Tensor {
        let sq = self
            .square
            .forward_train(batch, scratch)
            .expect("square branch");
        let wd = self
            .wide
            .forward_train(batch, scratch)
            .expect("wide branch");
        let lg = self
            .long
            .forward_train(batch, scratch)
            .expect("long branch");
        concat_cols(&[&sq, &wd, &lg])
    }

    /// Backward from the gradient of the concatenated outputs, split at
    /// `widths`.
    fn backward(&mut self, grad: &Tensor, widths: &[usize; 3], scratch: &mut Scratch) {
        let parts = split_cols(grad, widths);
        // The branches' input is data, not parameters: nothing reads its
        // gradient, so their first convolutions skip computing it.
        self.square
            .backward_params(&parts[0], scratch)
            .expect("square backward");
        self.wide
            .backward_params(&parts[1], scratch)
            .expect("wide backward");
        self.long
            .backward_params(&parts[2], scratch)
            .expect("long backward");
    }

    /// Folds a replica's per-sample gradient records into these branches.
    fn fold_shard(&mut self, shard: &Branches) {
        self.square.fold_shard(&shard.square).expect("square fold");
        self.wide.fold_shard(&shard.wide).expect("wide fold");
        self.long.fold_shard(&shard.long).expect("long fold");
    }
}

impl Model for Branches {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        Layer::visit_params(&mut self.square, f);
        Layer::visit_params(&mut self.wide, f);
        Layer::visit_params(&mut self.long, f);
    }
}

/// One training shard: a replica of the branches and the scratch arena
/// its passes run in, both kept across steps.
struct Shard {
    branches: Branches,
    scratch: Scratch,
}

/// The CommCNN model.
pub struct CommCnn {
    branches: Branches,
    head: Sequential,
    k: usize,
    cols: usize,
    num_classes: usize,
    square_dim: usize,
    branch_dim: usize,
    config: CommCnnConfig,
}

impl CommCnn {
    /// Builds an untrained CommCNN for `k × cols` inputs and
    /// `num_classes` outputs.
    pub fn new(k: usize, cols: usize, num_classes: usize, config: &CommCnnConfig) -> Self {
        assert!(k >= 4 && cols >= 4, "need k ≥ 4 and cols ≥ 4 for pooling");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let branches = Branches::new(k, cols, config, &mut rng);
        let square_dim = config.module_channels.1 * (k / 2 / 2) * (cols / 2 / 2);
        assert!(square_dim > 0, "input too small for two 2x2 pools");

        let cb = config.branch_channels;
        let concat_dim = square_dim + 2 * cb;
        let head = Sequential::new()
            .push(Dense::new(concat_dim, config.hidden, &mut rng))
            .push(Relu::new())
            .push(Dense::new(config.hidden, num_classes, &mut rng));

        CommCnn {
            branches,
            head,
            k,
            cols,
            num_classes,
            square_dim,
            branch_dim: cb,
            config: config.clone(),
        }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Expected input shape `(k, cols)`.
    pub fn input_shape(&self) -> (usize, usize) {
        (self.k, self.cols)
    }

    /// The hyper-parameters the network was built with — together with
    /// [`CommCnn::input_shape`] and [`CommCnn::num_classes`] this is enough
    /// to reconstruct the architecture, after which
    /// [`locec_ml::nn::import_params`] restores the trained weights.
    pub fn config(&self) -> &CommCnnConfig {
        &self.config
    }

    /// Stacks `k × cols` feature matrices into an NCHW batch tensor.
    pub fn batch_tensor(&self, matrices: &[&Tensor]) -> Tensor {
        let n = matrices.len();
        let mut batch = Tensor::zeros(&[n, 1, self.k, self.cols]);
        for (i, m) in matrices.iter().enumerate() {
            assert_eq!(m.shape(), &[self.k, self.cols], "feature matrix shape");
            let offset = i * self.k * self.cols;
            batch.data_mut()[offset..offset + self.k * self.cols].copy_from_slice(m.data());
        }
        batch
    }

    /// Immutable forward pass producing `(N, num_classes)` logits.
    fn forward_frozen(&self, batch: &Tensor, scratch: &mut Scratch) -> Tensor {
        let features = self.branches.forward(batch, scratch);
        self.head.forward(&features, scratch).expect("head")
    }

    /// A fresh training shard. Its replica's initial weights are never
    /// read: every step first copies this network's parameters into it.
    fn shard(&self) -> Shard {
        let mut rng = StdRng::seed_from_u64(0);
        Shard {
            branches: Branches::new(self.k, self.cols, &self.config, &mut rng),
            scratch: Scratch::new(),
        }
    }

    /// Trains on feature matrices with labels on one thread; returns the
    /// final epoch's mean loss. The same as
    /// [`CommCnn::train_threaded`]`(…, 1)`.
    pub fn train(&mut self, matrices: &[Tensor], labels: &[usize]) -> f32 {
        self.train_threaded(matrices, labels, 1)
    }

    /// Trains on feature matrices with labels, each mini-batch's
    /// 16-sample shards fanned out over `threads` threads (see
    /// the module docs); returns the final epoch's mean loss. The trained
    /// parameters are bitwise the same at every thread count.
    pub fn train_threaded(&mut self, matrices: &[Tensor], labels: &[usize], threads: usize) -> f32 {
        assert_eq!(matrices.len(), labels.len());
        assert!(!matrices.is_empty(), "empty training set");
        let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(1));
        let mut opt = Adam::new(self.config.learning_rate);
        let mut order: Vec<usize> = (0..matrices.len()).collect();
        let bs = self.config.batch_size.max(1);
        let widths = [self.square_dim, self.branch_dim, self.branch_dim];
        let mut shards: Vec<Mutex<Shard>> = (0..bs.div_ceil(TRAIN_GRAIN))
            .map(|_| Mutex::new(self.shard()))
            .collect();
        let mut head_scratch = Scratch::new();

        let mut epoch_loss = f32::INFINITY;
        for _ in 0..self.config.epochs {
            order.shuffle(&mut rng);
            let mut total = 0.0f32;
            let mut batches = 0usize;
            for batch in order.chunks(bs) {
                self.zero_grad();
                let params = export_params(&mut self.branches);
                let num_shards = batch.len().div_ceil(TRAIN_GRAIN);
                let shard_rows =
                    |s: usize| s * TRAIN_GRAIN..((s + 1) * TRAIN_GRAIN).min(batch.len());
                // A panicking shard unwinds out of `run_chunked` and this
                // call, so no poisoned lock is ever taken again.
                let lock = |s: usize| shards[s].lock().expect("shard lock poisoned");

                let this = &*self;
                let features = run_chunked(num_shards, threads, 1, |range| {
                    range
                        .map(|s| {
                            let mut shard = lock(s);
                            let shard = &mut *shard;
                            import_params(&mut shard.branches, &params).expect("replica");
                            shard.branches.zero_grad();
                            let refs: Vec<&Tensor> =
                                batch[shard_rows(s)].iter().map(|&i| &matrices[i]).collect();
                            let x = this.batch_tensor(&refs);
                            shard.branches.forward_train(&x, &mut shard.scratch)
                        })
                        .collect::<Vec<_>>()
                });
                let features = stack_rows(features.iter().flatten());

                let logits = self
                    .head
                    .forward_train(&features, &mut head_scratch)
                    .expect("head");
                let y: Vec<usize> = batch.iter().map(|&i| labels[i]).collect();
                let (loss, probs) = SoftmaxCrossEntropy::loss(&logits, &y).expect("loss");
                let grad = SoftmaxCrossEntropy::grad(&probs, &y).expect("loss grad");
                let grad_features = self
                    .head
                    .backward(&grad, &mut head_scratch)
                    .expect("head backward");

                run_chunked(num_shards, threads, 1, |range| {
                    for s in range {
                        let mut shard = lock(s);
                        let shard = &mut *shard;
                        let grad = row_block(&grad_features, shard_rows(s));
                        shard.branches.backward(&grad, &widths, &mut shard.scratch);
                    }
                });
                for shard in &mut shards[..num_shards] {
                    let shard = shard.get_mut().expect("shard lock poisoned");
                    self.branches.fold_shard(&shard.branches);
                }
                opt.step(self);
                kernel::record_train_samples(batch.len());

                total += loss;
                batches += 1;
            }
            epoch_loss = total / batches.max(1) as f32;
            if epoch_loss < self.config.target_loss {
                break;
            }
        }
        epoch_loss
    }

    /// Class-probability vector `r_C` for one feature matrix (paper §IV-C:
    /// `r_C = [P(C, l) ∀ l ∈ L]`).
    pub fn predict_proba(&self, matrix: &Tensor) -> Vec<f32> {
        let mut scratch = Scratch::new();
        self.predict_proba_chunk(&[matrix], &mut scratch)
            .pop()
            .expect("one row")
    }

    /// Class-probability vectors for a batch of feature matrices, fanned
    /// out by [`run_chunked`] with `threads` degree of parallelism and one
    /// thread-local [`Scratch`] arena per thread (buffer contents never
    /// leak into results — every use resizes and overwrites — so reuse
    /// across chunks is free throughput).
    ///
    /// Chunk boundaries depend only on the input length and a fixed
    /// grain, never on `threads`, so the output (and every
    /// semantic `ml.*` counter) is bitwise identical at any thread count.
    pub fn predict_proba_batch(&self, matrices: &[&Tensor], threads: usize) -> Vec<Vec<f32>> {
        thread_local! {
            static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::new());
        }
        if matrices.is_empty() {
            return Vec::new();
        }
        let chunks = run_chunked(matrices.len(), threads, INFER_GRAIN, |range| {
            SCRATCH.with(|s| {
                self.predict_proba_chunk(&matrices[range.start..range.end], &mut s.borrow_mut())
            })
        });
        chunks.into_iter().flatten().collect()
    }

    /// Class-probability vectors for one chunk, reusing the
    /// caller's scratch arena. Sub-batches at a fixed sample count to
    /// bound peak activation memory; every output element's fold is
    /// independent of its neighbours, so the batch shape never changes a
    /// result.
    pub fn predict_proba_chunk(
        &self,
        matrices: &[&Tensor],
        scratch: &mut Scratch,
    ) -> Vec<Vec<f32>> {
        let mut rows = Vec::with_capacity(matrices.len());
        for sub in matrices.chunks(INFER_BATCH) {
            let batch = self.batch_tensor(sub);
            let logits = self.forward_frozen(&batch, scratch);
            let probs = SoftmaxCrossEntropy::softmax(&logits).expect("softmax");
            rows.extend((0..sub.len()).map(|i| probs.row(i).to_vec()));
        }
        kernel::record_infer_samples(matrices.len());
        rows
    }
}

impl Model for CommCnn {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        Model::visit_params(&mut self.branches, f);
        Layer::visit_params(&mut self.head, f);
    }
}

/// Stacks 2-D tensors of equal width along rows, in order.
fn stack_rows<'a>(parts: impl Iterator<Item = &'a Tensor>) -> Tensor {
    let mut width = 0;
    let mut data = Vec::new();
    for p in parts {
        width = p.shape()[1];
        data.extend_from_slice(p.data());
    }
    Tensor::from_vec(&[data.len() / width, width], data)
}

/// Rows `rows` of a 2-D tensor, as a tensor of their own.
fn row_block(t: &Tensor, rows: std::ops::Range<usize>) -> Tensor {
    let width = t.shape()[1];
    let data = t.data()[rows.start * width..rows.end * width].to_vec();
    Tensor::from_vec(&[rows.len(), width], data)
}

/// Concatenates 2-D tensors along columns (all must share the row count).
fn concat_cols(parts: &[&Tensor]) -> Tensor {
    let n = parts[0].shape()[0];
    let total: usize = parts.iter().map(|p| p.shape()[1]).sum();
    let mut out = Tensor::zeros(&[n, total]);
    for i in 0..n {
        let mut col = 0;
        for p in parts {
            assert_eq!(p.shape()[0], n);
            let w = p.shape()[1];
            for j in 0..w {
                *out.at2_mut(i, col + j) = p.at2(i, j);
            }
            col += w;
        }
    }
    out
}

/// Splits a 2-D tensor into column blocks of the given widths.
fn split_cols(t: &Tensor, widths: &[usize]) -> Vec<Tensor> {
    let n = t.shape()[0];
    assert_eq!(t.shape()[1], widths.iter().sum::<usize>());
    let mut parts = Vec::with_capacity(widths.len());
    let mut col = 0;
    for &w in widths {
        let mut p = Tensor::zeros(&[n, w]);
        for i in 0..n {
            for j in 0..w {
                *p.at2_mut(i, j) = t.at2(i, col + j);
            }
        }
        col += w;
        parts.push(p);
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    const K: usize = 8;
    const COLS: usize = 12;

    /// Synthetic "communities": class 0 concentrates mass in the first
    /// interaction column, class 1 in the second, class 2 in the third.
    fn toy_matrices(n_per_class: usize, seed: u64) -> (Vec<Tensor>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for class in 0..3usize {
            for _ in 0..n_per_class {
                let mut m = Tensor::zeros(&[K, COLS]);
                for r in 0..K {
                    use rand::Rng;
                    *m.at2_mut(r, class) = rng.gen_range(0.5..1.0);
                    *m.at2_mut(r, 5) = rng.gen_range(0.0..0.2); // noise col
                }
                xs.push(m);
                ys.push(class);
            }
        }
        (xs, ys)
    }

    #[test]
    fn shapes_are_consistent() {
        let cnn = CommCnn::new(K, COLS, 3, &CommCnnConfig::fast());
        assert_eq!(cnn.input_shape(), (K, COLS));
        let (xs, _) = toy_matrices(2, 0);
        let refs: Vec<&Tensor> = xs.iter().collect();
        let probs = cnn.predict_proba_chunk(&refs, &mut Scratch::new());
        assert_eq!(probs.len(), 6);
        for p in probs {
            assert_eq!(p.len(), 3);
            assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn batch_inference_is_thread_count_invariant() {
        // 100 per class = 300 matrices: several INFER_GRAIN chunks, so the
        // pool genuinely splits the work at every thread count.
        let (xs, ys) = toy_matrices(100, 7);
        // A couple of epochs is enough to move weights off their init.
        let mut cfg = CommCnnConfig::fast();
        cfg.epochs = 2;
        let mut cnn = CommCnn::new(K, COLS, 3, &cfg);
        cnn.train(&xs, &ys);
        let refs: Vec<&Tensor> = xs.iter().collect();
        let p1 = cnn.predict_proba_batch(&refs, 1);
        let p2 = cnn.predict_proba_batch(&refs, 2);
        let p8 = cnn.predict_proba_batch(&refs, 8);
        assert_eq!(p1, p2, "threads=1 vs threads=2");
        assert_eq!(p1, p8, "threads=1 vs threads=8");
    }

    #[test]
    fn learns_separable_feature_matrices() {
        let (xs, ys) = toy_matrices(12, 1);
        let mut cnn = CommCnn::new(K, COLS, 3, &CommCnnConfig::fast());
        let loss = cnn.train(&xs, &ys);
        assert!(loss < 0.7, "training loss {loss}");
        let correct = xs
            .iter()
            .zip(&ys)
            .filter(|(x, &y)| locec_ml::linear::argmax(&cnn.predict_proba(x)) == y)
            .count();
        assert!(
            correct as f64 / xs.len() as f64 > 0.85,
            "train accuracy {correct}/{}",
            xs.len()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (xs, ys) = toy_matrices(4, 2);
        let mut c1 = CommCnn::new(K, COLS, 3, &CommCnnConfig::fast());
        let mut c2 = CommCnn::new(K, COLS, 3, &CommCnnConfig::fast());
        c1.train(&xs, &ys);
        c2.train(&xs, &ys);
        assert_eq!(c1.predict_proba(&xs[0]), c2.predict_proba(&xs[0]));
        // Frozen inference must agree with what a training shard's forward
        // saw, once the shard holds the network's parameters.
        let batch = c1.batch_tensor(&[&xs[0]]);
        let logits_frozen = c1.forward_frozen(&batch, &mut Scratch::new());
        let logits_train = {
            let mut shard = c1.shard();
            let params = export_params(&mut c1.branches);
            import_params(&mut shard.branches, &params).unwrap();
            let features = shard.branches.forward_train(&batch, &mut shard.scratch);
            c1.head
                .forward_train(&features, &mut shard.scratch)
                .unwrap()
        };
        assert_eq!(logits_frozen.data(), logits_train.data());
    }

    #[test]
    fn concat_and_split_roundtrip() {
        let a = Tensor::from_vec(&[2, 2], vec![1., 2., 3., 4.]);
        let b = Tensor::from_vec(&[2, 1], vec![5., 6.]);
        let joined = concat_cols(&[&a, &b]);
        assert_eq!(joined.shape(), &[2, 3]);
        assert_eq!(joined.data(), &[1., 2., 5., 3., 4., 6.]);
        let parts = split_cols(&joined, &[2, 1]);
        assert_eq!(parts[0].data(), a.data());
        assert_eq!(parts[1].data(), b.data());
    }

    #[test]
    fn parameter_count_is_nontrivial() {
        let mut cnn = CommCnn::new(20, 12, 3, &CommCnnConfig::default());
        let params = Model::num_params(&mut cnn);
        assert!(params > 10_000, "CommCNN has {params} params");
    }

    #[test]
    #[should_panic(expected = "feature matrix shape")]
    fn rejects_wrong_input_shape() {
        let cnn = CommCnn::new(K, COLS, 3, &CommCnnConfig::fast());
        let bad = Tensor::zeros(&[K + 1, COLS]);
        let _ = cnn.predict_proba(&bad);
    }
}

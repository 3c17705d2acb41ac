//! Neural-network layers with manual backpropagation.
//!
//! Exactly the toolkit CommCNN (paper Fig. 8) needs: stride-1 2-D
//! convolutions with optional zero padding, 2×2 max pooling, global max
//! pooling, dense layers, ReLU, softmax cross-entropy, and Adam.
//!
//! The layer API splits inference from training:
//!
//! * [`Layer::forward`] takes `&self` plus a caller-provided
//!   [`Scratch`] arena and mutates nothing on the layer — a trained network
//!   is therefore shareable across threads, each thread holding its own
//!   scratch.
//! * [`Layer::forward_train`] takes `&mut self` and caches whatever the
//!   backward pass requires — a convolution keeps the zero-padded input
//!   plane its forward GEMM read; [`Layer::backward`] consumes the
//!   cache, accumulates parameter gradients and returns ∂loss/∂input.
//! * [`Layer::backward_params`] is `backward` for a caller that discards
//!   ∂loss/∂input — the first layer of a network, whose input is data. It
//!   leaves the same parameter gradients, bit for bit; a convolution skips
//!   the input-gradient plane and GEMM.
//! * [`Layer::fold_shard`] is how a batch trains in slices: replicas of a
//!   stack each run the forward and backward of one slice, and the master
//!   folds their per-sample gradient records slice by slice. A convolution
//!   keeps such records; the result is the whole-batch backward's bits.
//!
//! Data-dependent failures (mis-shaped inputs, a `backward` with no cached
//! activations) surface as typed [`MlError`]s; constructor invariants that
//! no runtime input can trigger remain assertions at construction time.
//! [`Adam`] visits parameters in a deterministic order through
//! [`Model::visit_params`], so its per-parameter state stays aligned
//! across steps. The heavy layers (conv, dense) compute through
//! [`crate::kernel`]'s blocked GEMM; its reference loops are a test
//! oracle only.

pub mod activation;
pub mod conv;
pub mod dense;
pub mod loss;
pub mod optim;
pub mod pool;

pub use activation::Relu;
pub use conv::Conv2d;
pub use dense::{Dense, Flatten};
pub use loss::SoftmaxCrossEntropy;
pub use optim::Adam;
pub use pool::{GlobalMaxPool2d, MaxPool2d};

use crate::error::MlError;
use crate::kernel::Scratch;
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::Rng;
use std::any::Any;

/// A differentiable layer.
pub trait Layer: Any {
    /// Computes the layer output without touching layer state. Safe to call
    /// concurrently on a shared layer as long as each caller brings its own
    /// `scratch`.
    fn forward(&self, input: &Tensor, scratch: &mut Scratch) -> Result<Tensor, MlError>;

    /// Training-mode forward: same math as [`Layer::forward`], but caches
    /// whatever the backward pass requires.
    fn forward_train(&mut self, input: &Tensor, scratch: &mut Scratch) -> Result<Tensor, MlError>;

    /// Propagates `grad_out` (∂loss/∂output) to ∂loss/∂input, accumulating
    /// parameter gradients along the way. Must follow [`Layer::forward_train`];
    /// otherwise returns [`MlError::BackwardWithoutForward`].
    fn backward(&mut self, grad_out: &Tensor, scratch: &mut Scratch) -> Result<Tensor, MlError>;

    /// [`Layer::backward`] for a caller that discards ∂loss/∂input:
    /// accumulates the same parameter gradients, bit for bit, and may skip
    /// computing the input gradient. The default runs `backward` and drops
    /// its result.
    fn backward_params(&mut self, grad_out: &Tensor, scratch: &mut Scratch) -> Result<(), MlError> {
        self.backward(grad_out, scratch).map(drop)
    }

    /// Adds to this layer's parameter gradients the per-sample records
    /// that `shard`'s last backward left, sample by sample. `shard` is a
    /// replica of this layer that ran [`Layer::forward_train`] and a
    /// backward on a slice of the batch; folding the replicas of
    /// consecutive slices in slice order leaves the parameter gradients one
    /// backward over the whole batch would, bit for bit. A parameter-free
    /// layer has nothing to fold (the default); one whose backward keeps no
    /// per-sample records, or a `shard` that is not its replica, is an
    /// error.
    fn fold_shard(&mut self, _shard: &dyn Layer) -> Result<(), MlError> {
        let mut params = 0;
        self.visit_params(&mut |_, _| params += 1);
        if params == 0 {
            return Ok(());
        }
        Err(MlError::shape(
            "fold_shard",
            "this layer keeps no per-sample gradient records",
        ))
    }

    /// Visits each `(value, gradient)` parameter pair in a fixed order.
    /// Parameter-free layers use the default empty impl.
    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {}
}

/// `shard` as the concrete layer type a [`Layer::fold_shard`] expects.
pub(crate) fn replica_of<L: Layer>(shard: &dyn Layer) -> Result<&L, MlError> {
    (shard as &dyn Any).downcast_ref::<L>().ok_or_else(|| {
        MlError::shape(
            "fold_shard",
            format!("shard is not a {}", std::any::type_name::<L>()),
        )
    })
}

/// Rejects a `grad_out` whose shape is not the cached forward output's.
pub(crate) fn check_grad_out(
    op: &'static str,
    grad_out: &Tensor,
    expected: &[usize],
) -> Result<(), MlError> {
    if grad_out.shape() == expected {
        return Ok(());
    }
    Err(MlError::shape(
        op,
        format!(
            "grad_out {:?} does not match forward output {expected:?}",
            grad_out.shape()
        ),
    ))
}

/// Destructures a 2-D shape or reports which op got what instead.
pub(crate) fn dims2(op: &'static str, t: &Tensor) -> Result<(usize, usize), MlError> {
    match *t.shape() {
        [n, d] => Ok((n, d)),
        ref s => Err(MlError::shape(op, format!("expected 2-D input, got {s:?}"))),
    }
}

/// Destructures an NCHW shape or reports which op got what instead.
pub(crate) fn dims4(op: &'static str, t: &Tensor) -> Result<(usize, usize, usize, usize), MlError> {
    match *t.shape() {
        [n, c, h, w] => Ok((n, c, h, w)),
        ref s => Err(MlError::shape(
            op,
            format!("expected NCHW input, got {s:?}"),
        )),
    }
}

/// Anything that exposes trainable parameters (a layer stack, CommCNN, …).
pub trait Model {
    /// Visits each `(value, gradient)` pair in a fixed order.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor));

    /// Zeroes all parameter gradients.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |_, g| g.fill_zero());
    }

    /// Total number of scalar parameters.
    fn num_params(&mut self) -> usize {
        let mut count = 0;
        self.visit_params(&mut |v, _| count += v.len());
        count
    }
}

/// Flattens every parameter tensor of a model into one vector, in
/// [`Model::visit_params`] order. The inverse of [`import_params`]; together
/// they are the persistence story for any `Model`: reconstruct the
/// architecture from its config, then overwrite the freshly initialized
/// parameters with the stored values.
pub fn export_params(model: &mut dyn Model) -> Vec<f32> {
    let mut out = Vec::new();
    model.visit_params(&mut |v, _| out.extend_from_slice(v.data()));
    out
}

/// Overwrites every parameter tensor of a model from a flat vector written
/// by [`export_params`]. Fails (leaving some parameters already updated)
/// when the total scalar count does not match the model's architecture.
pub fn import_params(model: &mut dyn Model, data: &[f32]) -> Result<(), &'static str> {
    let expected = model.num_params();
    if data.len() != expected {
        return Err("parameter count does not match the model architecture");
    }
    let mut offset = 0usize;
    model.visit_params(&mut |v, _| {
        let n = v.len();
        v.data_mut().copy_from_slice(&data[offset..offset + n]);
        offset += n;
    });
    Ok(())
}

/// A simple chain of layers.
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer + Send + Sync>>,
}

impl Sequential {
    /// Empty stack.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer (builder style).
    pub fn push(mut self, layer: impl Layer + Send + Sync + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the stack is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Layer for Sequential {
    fn forward(&self, input: &Tensor, scratch: &mut Scratch) -> Result<Tensor, MlError> {
        let mut x = input.clone();
        for layer in &self.layers {
            x = layer.forward(&x, scratch)?;
        }
        Ok(x)
    }

    fn forward_train(&mut self, input: &Tensor, scratch: &mut Scratch) -> Result<Tensor, MlError> {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward_train(&x, scratch)?;
        }
        Ok(x)
    }

    fn backward(&mut self, grad_out: &Tensor, scratch: &mut Scratch) -> Result<Tensor, MlError> {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g, scratch)?;
        }
        Ok(g)
    }

    /// Full backward through every layer but the first, which only
    /// accumulates its parameter gradients.
    fn backward_params(&mut self, grad_out: &Tensor, scratch: &mut Scratch) -> Result<(), MlError> {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return Ok(());
        };
        let mut g = grad_out.clone();
        for layer in rest.iter_mut().rev() {
            g = layer.backward(&g, scratch)?;
        }
        first.backward_params(&g, scratch)
    }

    /// Folds each layer's records from the same position of `shard`.
    fn fold_shard(&mut self, shard: &dyn Layer) -> Result<(), MlError> {
        let shard = replica_of::<Sequential>(shard)?;
        if shard.layers.len() != self.layers.len() {
            return Err(MlError::shape(
                "fold_shard",
                format!(
                    "shard has {} layers, this stack {}",
                    shard.layers.len(),
                    self.layers.len()
                ),
            ));
        }
        for (layer, replica) in self.layers.iter_mut().zip(&shard.layers) {
            layer.fold_shard(&**replica)?;
        }
        Ok(())
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }
}

impl Model for Sequential {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        Layer::visit_params(self, f)
    }
}

/// He-normal initialization (suits ReLU networks): `N(0, sqrt(2/fan_in))`.
pub fn he_normal(shape: &[usize], fan_in: usize, rng: &mut StdRng) -> Tensor {
    let std = (2.0 / fan_in as f64).sqrt();
    let data = (0..shape.iter().product::<usize>())
        .map(|_| (sample_standard_normal(rng) * std) as f32)
        .collect();
    Tensor::from_vec(shape, data)
}

/// Xavier-uniform initialization: `U(±sqrt(6/(fan_in+fan_out)))`.
pub fn xavier_uniform(shape: &[usize], fan_in: usize, fan_out: usize, rng: &mut StdRng) -> Tensor {
    let limit = (6.0 / (fan_in + fan_out) as f64).sqrt();
    let data = (0..shape.iter().product::<usize>())
        .map(|_| (rng.gen_range(-limit..limit)) as f32)
        .collect();
    Tensor::from_vec(shape, data)
}

/// Box–Muller standard normal sample (keeps `rand` usage to the `Rng` core,
/// avoiding a distribution-crate dependency).
fn sample_standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
pub(crate) mod gradcheck {
    //! Finite-difference gradient checking shared by the layer tests.
    use super::*;

    /// Checks ∂(sum of outputs)/∂input against finite differences.
    ///
    /// Using the plain sum as the loss makes the analytic gradient the
    /// backward pass applied to an all-ones upstream gradient.
    pub fn check_input_gradient(layer: &mut dyn Layer, input: &Tensor, tol: f32) {
        let mut scratch = Scratch::new();
        let out = layer.forward_train(input, &mut scratch).unwrap();
        let ones = Tensor::full(out.shape(), 1.0);
        let analytic = layer.backward(&ones, &mut scratch).unwrap();

        let eps = 1e-2f32;
        for i in 0..input.len() {
            let mut plus = input.clone();
            plus.data_mut()[i] += eps;
            let mut minus = input.clone();
            minus.data_mut()[i] -= eps;
            let f_plus = layer.forward(&plus, &mut scratch).unwrap().sum();
            let f_minus = layer.forward(&minus, &mut scratch).unwrap().sum();
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            let a = analytic.data()[i];
            assert!(
                (a - numeric).abs() <= tol * (1.0 + numeric.abs()),
                "input grad mismatch at {i}: analytic {a}, numeric {numeric}"
            );
        }
    }

    /// Checks parameter gradients against finite differences.
    pub fn check_param_gradients(layer: &mut dyn Layer, input: &Tensor, tol: f32) {
        // Accumulate analytic parameter gradients.
        let mut scratch = Scratch::new();
        layer.visit_params(&mut |_, g| g.fill_zero());
        let out = layer.forward_train(input, &mut scratch).unwrap();
        let ones = Tensor::full(out.shape(), 1.0);
        let _ = layer.backward(&ones, &mut scratch).unwrap();

        let mut analytic: Vec<Vec<f32>> = Vec::new();
        layer.visit_params(&mut |_, g| analytic.push(g.data().to_vec()));

        let eps = 1e-2f32;
        for (t, grads) in analytic.iter().enumerate() {
            for (i, &a) in grads.iter().enumerate() {
                let mut f_plus = 0.0;
                let mut f_minus = 0.0;
                perturb(layer, t, i, eps);
                f_plus += layer.forward(input, &mut scratch).unwrap().sum();
                perturb(layer, t, i, -2.0 * eps);
                f_minus += layer.forward(input, &mut scratch).unwrap().sum();
                perturb(layer, t, i, eps); // restore
                let numeric = (f_plus - f_minus) / (2.0 * eps);
                assert!(
                    (a - numeric).abs() <= tol * (1.0 + numeric.abs()),
                    "param grad mismatch tensor {t} elem {i}: analytic {a}, numeric {numeric}"
                );
            }
        }
    }

    fn perturb(layer: &mut dyn Layer, tensor_idx: usize, elem: usize, delta: f32) {
        let mut seen = 0usize;
        layer.visit_params(&mut |v, _| {
            if seen == tensor_idx {
                v.data_mut()[elem] += delta;
            }
            seen += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn sequential_identity_composition() {
        let mut scratch = Scratch::new();
        let mut seq = Sequential::new().push(Relu::new()).push(Relu::new());
        let x = Tensor::from_vec(&[1, 3], vec![1.0, -2.0, 3.0]);
        let y = seq.forward_train(&x, &mut scratch).unwrap();
        assert_eq!(y.data(), &[1.0, 0.0, 3.0]);
        let g = seq
            .backward(&Tensor::full(&[1, 3], 1.0), &mut scratch)
            .unwrap();
        assert_eq!(g.data(), &[1.0, 0.0, 1.0]);
    }

    #[test]
    fn sequential_immutable_forward_matches_train() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut seq = Sequential::new()
            .push(Dense::new(4, 5, &mut rng))
            .push(Relu::new())
            .push(Dense::new(5, 2, &mut rng));
        let x = Tensor::from_vec(&[2, 4], (0..8).map(|v| v as f32 * 0.3 - 1.0).collect());
        let mut scratch = Scratch::new();
        let trained = seq.forward_train(&x, &mut scratch).unwrap();
        let frozen = (&seq as &dyn Layer).forward(&x, &mut scratch).unwrap();
        assert_eq!(trained.data(), frozen.data());
    }

    #[test]
    fn fold_shard_rejects_what_keeps_no_records() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut dense = Sequential::new().push(Dense::new(3, 2, &mut rng));
        let replica = Sequential::new().push(Dense::new(3, 2, &mut rng));
        let e = dense.fold_shard(&replica).unwrap_err();
        assert!(e.to_string().contains("no per-sample gradient records"));
        // A stack of another length, or another layer type, is no replica.
        let mut convs = Sequential::new().push(Conv2d::new(1, 2, 1, 1, &mut rng));
        let e = convs.fold_shard(&Sequential::new()).unwrap_err();
        assert!(e.to_string().contains("layers"));
        let e = convs.fold_shard(&Relu::new()).unwrap_err();
        assert!(e.to_string().contains("shard is not a"));
        // Parameter-free layers have nothing to fold.
        assert!(Relu::new().fold_shard(&Relu::new()).is_ok());
    }

    #[test]
    fn he_init_statistics() {
        let mut rng = StdRng::seed_from_u64(0);
        let t = he_normal(&[1000], 50, &mut rng);
        let mean = t.sum() / 1000.0;
        let var = t.data().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 1000.0;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 2.0 / 50.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn xavier_init_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = xavier_uniform(&[200], 10, 20, &mut rng);
        let limit = (6.0f32 / 30.0).sqrt();
        assert!(t.data().iter().all(|v| v.abs() <= limit));
    }

    #[test]
    fn model_num_params_counts_scalars() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seq = Sequential::new().push(Dense::new(4, 3, &mut rng));
        assert_eq!(Model::num_params(&mut seq), 4 * 3 + 3);
    }

    #[test]
    fn export_import_params_roundtrip_bit_identically() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut a = Sequential::new()
            .push(Dense::new(4, 5, &mut rng))
            .push(Relu::new())
            .push(Dense::new(5, 2, &mut rng));
        let mut b = Sequential::new()
            .push(Dense::new(4, 5, &mut StdRng::seed_from_u64(99)))
            .push(Relu::new())
            .push(Dense::new(5, 2, &mut StdRng::seed_from_u64(100)));
        let params = export_params(&mut a);
        assert_eq!(params.len(), Model::num_params(&mut a));
        import_params(&mut b, &params).unwrap();
        let x = Tensor::from_vec(&[1, 4], vec![0.5, -1.0, 2.0, 0.1]);
        let mut scratch = Scratch::new();
        assert_eq!(
            a.forward(&x, &mut scratch).unwrap().data(),
            b.forward(&x, &mut scratch).unwrap().data()
        );
        // Mismatched architectures are rejected.
        assert!(import_params(&mut b, &params[1..]).is_err());
    }
}

//! Fully connected layers and flattening.
//!
//! CommCNN ends in two fully connected layers before the softmax (paper
//! Fig. 8); [`Flatten`] bridges the convolutional NCHW world to them. The
//! dense forward/backward math runs through [`crate::kernel`] (one GEMM
//! per call; `kernel::reference` keeps the original loops as the test
//! oracle).

use super::{check_grad_out, dims2, xavier_uniform, Layer};
use crate::error::MlError;
use crate::kernel::{self, Scratch};
use crate::tensor::Tensor;
use rand::rngs::StdRng;

/// Dense (fully connected) layer: `(N, in) → (N, out)`.
pub struct Dense {
    /// Weights `(in, out)`.
    w: Tensor,
    /// Bias `(out)`.
    b: Tensor,
    gw: Tensor,
    gb: Tensor,
    input_cache: Option<Tensor>,
}

impl Dense {
    /// New dense layer with Xavier-uniform weights.
    pub fn new(in_features: usize, out_features: usize, rng: &mut StdRng) -> Self {
        Dense {
            w: xavier_uniform(&[in_features, out_features], in_features, out_features, rng),
            b: Tensor::zeros(&[out_features]),
            gw: Tensor::zeros(&[in_features, out_features]),
            gb: Tensor::zeros(&[out_features]),
            input_cache: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.w.shape()[0]
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.w.shape()[1]
    }

    fn checked_dims(
        &self,
        op: &'static str,
        input: &Tensor,
    ) -> Result<(usize, usize, usize), MlError> {
        let (n, d) = dims2(op, input)?;
        let din = self.in_features();
        if d != din {
            return Err(MlError::shape(
                op,
                format!("feature mismatch: input {d}, layer expects {din}"),
            ));
        }
        Ok((n, din, self.out_features()))
    }

    fn run_forward(&self, input: &Tensor, scratch: &mut Scratch) -> Result<Tensor, MlError> {
        let (n, din, dout) = self.checked_dims("dense_forward", input)?;
        let mut out = Tensor::zeros(&[n, dout]);
        kernel::dense_forward(
            n,
            din,
            dout,
            self.w.data(),
            self.b.data(),
            input.data(),
            out.data_mut(),
            scratch,
        );
        Ok(out)
    }
}

impl Layer for Dense {
    fn forward(&self, input: &Tensor, scratch: &mut Scratch) -> Result<Tensor, MlError> {
        self.run_forward(input, scratch)
    }

    fn forward_train(&mut self, input: &Tensor, scratch: &mut Scratch) -> Result<Tensor, MlError> {
        let out = self.run_forward(input, scratch)?;
        self.input_cache = Some(input.clone());
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor, scratch: &mut Scratch) -> Result<Tensor, MlError> {
        let input = self
            .input_cache
            .take()
            .ok_or(MlError::BackwardWithoutForward { layer: "Dense" })?;
        let (n, din, dout) = self.checked_dims("dense_backward", &input)?;
        check_grad_out("dense_backward", grad_out, &[n, dout])?;
        let mut grad_in = Tensor::zeros(&[n, din]);
        kernel::dense_backward(
            n,
            din,
            dout,
            self.w.data(),
            input.data(),
            grad_out.data(),
            grad_in.data_mut(),
            self.gw.data_mut(),
            self.gb.data_mut(),
            scratch,
        );
        Ok(grad_in)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        f(&mut self.w, &mut self.gw);
        f(&mut self.b, &mut self.gb);
    }
}

/// Flattens `(N, C, H, W)` to `(N, C·H·W)`; backward reverses the reshape.
pub struct Flatten {
    in_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// New flatten layer.
    pub fn new() -> Self {
        Flatten { in_shape: None }
    }

    fn flat(input: &Tensor) -> Result<Tensor, MlError> {
        let shape = input.shape();
        if shape.is_empty() {
            return Err(MlError::shape(
                "flatten",
                "expected a batched tensor, got rank 0",
            ));
        }
        let n = shape[0];
        let rest: usize = shape[1..].iter().product();
        Ok(input.clone().reshape(&[n, rest]))
    }
}

impl Default for Flatten {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Flatten {
    fn forward(&self, input: &Tensor, _scratch: &mut Scratch) -> Result<Tensor, MlError> {
        Self::flat(input)
    }

    fn forward_train(&mut self, input: &Tensor, _scratch: &mut Scratch) -> Result<Tensor, MlError> {
        let out = Self::flat(input)?;
        self.in_shape = Some(input.shape().to_vec());
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor, _scratch: &mut Scratch) -> Result<Tensor, MlError> {
        let shape = self
            .in_shape
            .take()
            .ok_or(MlError::BackwardWithoutForward { layer: "Flatten" })?;
        let (n, rest) = (shape[0], shape[1..].iter().product());
        check_grad_out("flatten_backward", grad_out, &[n, rest])?;
        Ok(grad_out.clone().reshape(&shape))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::gradcheck;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(5)
    }

    fn scratch() -> Scratch {
        Scratch::new()
    }

    #[test]
    fn dense_known_output() {
        let mut d = Dense::new(2, 2, &mut rng());
        d.w.data_mut().copy_from_slice(&[1.0, 2.0, 3.0, 4.0]); // (in=2, out=2)
        d.b.data_mut().copy_from_slice(&[0.5, -0.5]);
        let x = Tensor::from_vec(&[1, 2], vec![1.0, 1.0]);
        let y = d.forward(&x, &mut scratch()).unwrap();
        // out_0 = 1*1 + 1*3 + 0.5 = 4.5 ; out_1 = 1*2 + 1*4 - 0.5 = 5.5
        assert_eq!(y.data(), &[4.5, 5.5]);
    }

    #[test]
    fn dense_gradient_check() {
        let mut d = Dense::new(3, 4, &mut rng());
        let x = Tensor::from_vec(&[2, 3], vec![0.5, -1.0, 2.0, 1.5, 0.0, -0.5]);
        gradcheck::check_input_gradient(&mut d, &x, 1e-2);
        gradcheck::check_param_gradients(&mut d, &x, 1e-2);
    }

    #[test]
    fn flatten_roundtrip() {
        let mut f = Flatten::new();
        let mut s = scratch();
        let x = Tensor::from_vec(&[2, 2, 1, 3], (0..12).map(|v| v as f32).collect());
        let y = f.forward_train(&x, &mut s).unwrap();
        assert_eq!(y.shape(), &[2, 6]);
        let g = f.backward(&y, &mut s).unwrap();
        assert_eq!(g.shape(), &[2, 2, 1, 3]);
        assert_eq!(g.data(), x.data());
    }

    #[test]
    fn flatten_rejects_mis_shaped_grad_out() {
        let mut f = Flatten::new();
        let mut s = scratch();
        let _ = f
            .forward_train(&Tensor::zeros(&[2, 2, 1, 3]), &mut s)
            .unwrap();
        let e = f.backward(&Tensor::zeros(&[2, 5]), &mut s).unwrap_err();
        assert!(matches!(
            e,
            MlError::ShapeMismatch {
                op: "flatten_backward",
                ..
            }
        ));
        assert!(e.to_string().contains("[2, 6]"));
    }

    #[test]
    fn dense_batch_independence() {
        // Each row of the batch must be transformed independently.
        let d = Dense::new(2, 1, &mut rng());
        let mut s = scratch();
        let single = d
            .forward(&Tensor::from_vec(&[1, 2], vec![1.0, 2.0]), &mut s)
            .unwrap();
        let batch = d
            .forward(&Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 1.0, 2.0]), &mut s)
            .unwrap();
        assert!((batch.at2(0, 0) - single.at2(0, 0)).abs() < 1e-6);
        assert!((batch.at2(1, 0) - single.at2(0, 0)).abs() < 1e-6);
    }

    #[test]
    fn dense_rejects_feature_mismatch() {
        let d = Dense::new(3, 2, &mut rng());
        let e = d
            .forward(&Tensor::zeros(&[1, 5]), &mut scratch())
            .unwrap_err();
        assert!(e.to_string().contains("feature mismatch"));
        let e = d.forward(&Tensor::zeros(&[5]), &mut scratch()).unwrap_err();
        assert!(e.to_string().contains("2-D"));
    }

    #[test]
    fn backward_requires_training_forward() {
        let mut d = Dense::new(2, 2, &mut rng());
        let mut s = scratch();
        let y = d.forward(&Tensor::zeros(&[1, 2]), &mut s).unwrap();
        assert_eq!(
            d.backward(&y, &mut s).unwrap_err(),
            MlError::BackwardWithoutForward { layer: "Dense" }
        );
    }
}

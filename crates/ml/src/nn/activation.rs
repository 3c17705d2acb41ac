//! Activation layers.

use super::{check_grad_out, Layer};
use crate::error::MlError;
use crate::kernel::Scratch;
use crate::tensor::Tensor;

/// Rectified linear unit, applied element-wise.
pub struct Relu {
    /// Cached (input shape, `input > 0` per element).
    cache: Option<(Vec<usize>, Vec<bool>)>,
}

impl Relu {
    /// New ReLU layer.
    pub fn new() -> Self {
        Relu { cache: None }
    }

    fn clamp(input: &Tensor) -> Tensor {
        // One pass: build the clamped buffer directly instead of cloning
        // (a full memcpy) and then rewriting it.
        let data = input
            .data()
            .iter()
            .map(|&v| if v < 0.0 { 0.0 } else { v })
            .collect();
        Tensor::from_vec(input.shape(), data)
    }
}

impl Default for Relu {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Relu {
    fn forward(&self, input: &Tensor, _scratch: &mut Scratch) -> Result<Tensor, MlError> {
        Ok(Self::clamp(input))
    }

    fn forward_train(&mut self, input: &Tensor, _scratch: &mut Scratch) -> Result<Tensor, MlError> {
        let keep = input.data().iter().map(|&v| v > 0.0).collect();
        self.cache = Some((input.shape().to_vec(), keep));
        Ok(Self::clamp(input))
    }

    fn backward(&mut self, grad_out: &Tensor, _scratch: &mut Scratch) -> Result<Tensor, MlError> {
        let (shape, mask) = self
            .cache
            .take()
            .ok_or(MlError::BackwardWithoutForward { layer: "Relu" })?;
        check_grad_out("relu_backward", grad_out, &shape)?;
        let mut g = grad_out.clone();
        for (v, &keep) in g.data_mut().iter_mut().zip(&mask) {
            if !keep {
                *v = 0.0;
            }
        }
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamps_negatives() {
        let relu = Relu::new();
        let x = Tensor::from_vec(&[1, 4], vec![-1.0, 0.0, 2.0, -3.0]);
        let y = relu.forward(&x, &mut Scratch::new()).unwrap();
        assert_eq!(y.data(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn gradient_masks_negatives_and_zero() {
        let mut relu = Relu::new();
        let mut s = Scratch::new();
        let x = Tensor::from_vec(&[1, 4], vec![-1.0, 0.0, 2.0, 5.0]);
        let _ = relu.forward_train(&x, &mut s).unwrap();
        let g = relu.backward(&Tensor::full(&[1, 4], 1.0), &mut s).unwrap();
        assert_eq!(g.data(), &[0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn rejects_mis_shaped_grad_out() {
        let mut relu = Relu::new();
        let mut s = Scratch::new();
        let _ = relu.forward_train(&Tensor::zeros(&[1, 4]), &mut s).unwrap();
        let e = relu.backward(&Tensor::zeros(&[1, 3]), &mut s).unwrap_err();
        assert!(matches!(
            e,
            MlError::ShapeMismatch {
                op: "relu_backward",
                ..
            }
        ));
        assert!(e.to_string().contains("[1, 4]"));
    }

    #[test]
    fn preserves_shape() {
        let relu = Relu::new();
        let x = Tensor::zeros(&[2, 3, 4, 5]);
        assert_eq!(
            relu.forward(&x, &mut Scratch::new()).unwrap().shape(),
            &[2, 3, 4, 5]
        );
    }

    #[test]
    fn backward_requires_training_forward() {
        let mut relu = Relu::new();
        let e = relu
            .backward(&Tensor::zeros(&[1, 2]), &mut Scratch::new())
            .unwrap_err();
        assert_eq!(e, MlError::BackwardWithoutForward { layer: "Relu" });
    }
}

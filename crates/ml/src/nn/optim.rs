//! The first-order optimizer CommCNN trains with.
//!
//! Adam visits parameters through [`Model::visit_params`] and keeps
//! per-parameter moment buffers aligned by visit order, so a model must
//! always present its parameters in the same order (true for all layers in
//! this crate).

use super::Model;
use crate::tensor::Tensor;

/// Adam (Kingma & Ba, 2015) with decoupled weight decay.
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical stabilizer.
    pub eps: f32,
    /// Decoupled L2 weight decay.
    pub weight_decay: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Adam with standard betas (0.9, 0.999).
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Adam with weight decay.
    pub fn with_weight_decay(lr: f32, weight_decay: f32) -> Self {
        Adam {
            weight_decay,
            ..Self::new(lr)
        }
    }

    /// Applies one update step using the gradients accumulated in `model`.
    pub fn step<M: Model + ?Sized>(&mut self, model: &mut M) {
        self.t += 1;
        let (b1, b2) = (self.beta1, self.beta2);
        let bias1 = 1.0 - b1.powi(self.t as i32);
        let bias2 = 1.0 - b2.powi(self.t as i32);
        let lr = self.lr;
        let eps = self.eps;
        let wd = self.weight_decay;
        let mut idx = 0usize;
        let (ms, vs) = (&mut self.m, &mut self.v);
        model.visit_params(&mut |value: &mut Tensor, grad: &mut Tensor| {
            if ms.len() <= idx {
                ms.push(vec![0.0; value.len()]);
                vs.push(vec![0.0; value.len()]);
            }
            let m = &mut ms[idx];
            let v2 = &mut vs[idx];
            debug_assert_eq!(m.len(), value.len(), "param order changed");
            for (((val, g), mi), vi) in value
                .data_mut()
                .iter_mut()
                .zip(grad.data())
                .zip(m.iter_mut())
                .zip(v2.iter_mut())
            {
                *mi = b1 * *mi + (1.0 - b1) * g;
                *vi = b2 * *vi + (1.0 - b2) * g * g;
                let m_hat = *mi / bias1;
                let v_hat = *vi / bias2;
                *val -= lr * (m_hat / (v_hat.sqrt() + eps) + wd * *val);
            }
            idx += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Scratch;
    use crate::nn::{Dense, Layer, Sequential, SoftmaxCrossEntropy};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A single learnable scalar minimizing (x - 3)².
    struct Scalar {
        value: Tensor,
        grad: Tensor,
    }

    impl Model for Scalar {
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
            f(&mut self.value, &mut self.grad);
        }
    }

    fn quadratic_steps<F: FnMut(&mut Scalar)>(mut stepper: F, iters: usize) -> f32 {
        let mut s = Scalar {
            value: Tensor::from_vec(&[1], vec![0.0]),
            grad: Tensor::zeros(&[1]),
        };
        for _ in 0..iters {
            let x = s.value.data()[0];
            s.grad.data_mut()[0] = 2.0 * (x - 3.0);
            stepper(&mut s);
        }
        s.value.data()[0]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.3);
        let x = quadratic_steps(|s| opt.step(s), 300);
        assert!((x - 3.0).abs() < 1e-2, "x = {x}");
    }

    #[test]
    fn adam_trains_a_tiny_classifier() {
        // Two linearly separable blobs must reach zero training error.
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = Sequential::new().push(Dense::new(2, 2, &mut rng));
        let x = Tensor::from_vec(&[4, 2], vec![2.0, 2.0, 3.0, 2.5, -2.0, -2.0, -3.0, -2.5]);
        let y = [0usize, 0, 1, 1];
        let mut opt = Adam::new(0.1);
        let mut scratch = Scratch::new();
        let mut last_loss = f32::INFINITY;
        for _ in 0..100 {
            Model::zero_grad(&mut net);
            let logits = net.forward_train(&x, &mut scratch).unwrap();
            let (loss, probs) = SoftmaxCrossEntropy::loss(&logits, &y).unwrap();
            let g = SoftmaxCrossEntropy::grad(&probs, &y).unwrap();
            net.backward(&g, &mut scratch).unwrap();
            opt.step(&mut net);
            last_loss = loss;
        }
        assert!(last_loss < 0.05, "loss {last_loss}");
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        let mut s = Scalar {
            value: Tensor::from_vec(&[1], vec![10.0]),
            grad: Tensor::zeros(&[1]),
        };
        let mut opt = Adam::with_weight_decay(0.1, 0.1);
        for _ in 0..50 {
            s.grad.fill_zero(); // no loss gradient; only decay acts
            opt.step(&mut s);
        }
        assert!(s.value.data()[0].abs() < 10.0);
    }
}

//! Max pooling layers.
//!
//! CommCNN's square-convolution modules each end in a 2×2 max pool, and the
//! wide/long branches end in *global* max pooling (paper Fig. 8), which
//! collapses each channel map to a single activation.

use super::{check_grad_out, dims4, Layer};
use crate::error::MlError;
use crate::kernel::Scratch;
use crate::tensor::Tensor;

/// Non-overlapping `kh × kw` max pooling (stride = kernel size). Trailing
/// rows/columns that do not fill a full window are dropped.
pub struct MaxPool2d {
    kh: usize,
    kw: usize,
    /// Cached (input shape, argmax flat index per output element).
    cache: Option<(Vec<usize>, Vec<usize>)>,
}

impl MaxPool2d {
    /// Pooling with a `kh × kw` window.
    pub fn new(kh: usize, kw: usize) -> Self {
        assert!(kh > 0 && kw > 0);
        MaxPool2d {
            kh,
            kw,
            cache: None,
        }
    }

    /// Output spatial size for an `h × w` input (floor division).
    pub fn output_size(&self, h: usize, w: usize) -> (usize, usize) {
        (h / self.kh, w / self.kw)
    }

    fn run(&self, input: &Tensor) -> Result<(Tensor, Vec<usize>), MlError> {
        let (n, c, h, w) = dims4("maxpool_forward", input)?;
        let (oh, ow) = self.output_size(h, w);
        if oh == 0 || ow == 0 {
            return Err(MlError::shape(
                "maxpool_forward",
                format!(
                    "input {h}x{w} smaller than pool window {}x{}",
                    self.kh, self.kw
                ),
            ));
        }
        let mut out = Tensor::zeros(&[n, c, oh, ow]);
        let mut argmax = vec![0usize; n * c * oh * ow];
        let mut oi = 0usize;
        for ni in 0..n {
            for ci in 0..c {
                for yo in 0..oh {
                    for xo in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0usize;
                        for ky in 0..self.kh {
                            for kx in 0..self.kw {
                                let yi = yo * self.kh + ky;
                                let xi = xo * self.kw + kx;
                                let idx = input.idx4(ni, ci, yi, xi);
                                let v = input.data()[idx];
                                if v > best {
                                    best = v;
                                    best_idx = idx;
                                }
                            }
                        }
                        out.data_mut()[oi] = best;
                        argmax[oi] = best_idx;
                        oi += 1;
                    }
                }
            }
        }
        Ok((out, argmax))
    }
}

impl Layer for MaxPool2d {
    fn forward(&self, input: &Tensor, _scratch: &mut Scratch) -> Result<Tensor, MlError> {
        // Inference needs no argmax: window maxima straight from row
        // slices, no per-element index arithmetic, no side allocation.
        // The max value is identical to `run`'s, so training and frozen
        // forwards stay bit-equal.
        let (n, c, h, w) = dims4("maxpool_forward", input)?;
        let (oh, ow) = self.output_size(h, w);
        if oh == 0 || ow == 0 {
            return Err(MlError::shape(
                "maxpool_forward",
                format!(
                    "input {h}x{w} smaller than pool window {}x{}",
                    self.kh, self.kw
                ),
            ));
        }
        let mut out = Tensor::zeros(&[n, c, oh, ow]);
        let dst = out.data_mut();
        let mut oi = 0usize;
        for plane in input.data().chunks_exact(h * w).take(n * c) {
            for yo in 0..oh {
                let row = &mut dst[oi..oi + ow];
                oi += ow;
                for ky in 0..self.kh {
                    let src = &plane[(yo * self.kh + ky) * w..(yo * self.kh + ky + 1) * w];
                    for (xo, best) in row.iter_mut().enumerate() {
                        let window = &src[xo * self.kw..(xo + 1) * self.kw];
                        let m = window
                            .iter()
                            .fold(f32::NEG_INFINITY, |m, &v| if v > m { v } else { m });
                        if ky == 0 || m > *best {
                            *best = m;
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    fn forward_train(&mut self, input: &Tensor, _scratch: &mut Scratch) -> Result<Tensor, MlError> {
        let (out, argmax) = self.run(input)?;
        self.cache = Some((input.shape().to_vec(), argmax));
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor, _scratch: &mut Scratch) -> Result<Tensor, MlError> {
        let (in_shape, argmax) = self
            .cache
            .take()
            .ok_or(MlError::BackwardWithoutForward { layer: "MaxPool2d" })?;
        let (oh, ow) = self.output_size(in_shape[2], in_shape[3]);
        check_grad_out(
            "maxpool_backward",
            grad_out,
            &[in_shape[0], in_shape[1], oh, ow],
        )?;
        let mut grad_in = Tensor::zeros(&in_shape);
        for (g, &idx) in grad_out.data().iter().zip(&argmax) {
            grad_in.data_mut()[idx] += g;
        }
        Ok(grad_in)
    }
}

/// Global max pooling: `(N, C, H, W) → (N, C, 1, 1)`.
pub struct GlobalMaxPool2d {
    cache: Option<(Vec<usize>, Vec<usize>)>,
}

impl GlobalMaxPool2d {
    /// New global pooling layer.
    pub fn new() -> Self {
        GlobalMaxPool2d { cache: None }
    }

    fn run(input: &Tensor) -> Result<(Tensor, Vec<usize>), MlError> {
        let (n, c, h, w) = dims4("global_maxpool_forward", input)?;
        if h * w == 0 {
            return Err(MlError::shape(
                "global_maxpool_forward",
                "empty spatial extent",
            ));
        }
        let mut out = Tensor::zeros(&[n, c, 1, 1]);
        let mut argmax = vec![0usize; n * c];
        for ni in 0..n {
            for ci in 0..c {
                let mut best = f32::NEG_INFINITY;
                let mut best_idx = 0usize;
                for yi in 0..h {
                    for xi in 0..w {
                        let idx = input.idx4(ni, ci, yi, xi);
                        let v = input.data()[idx];
                        if v > best {
                            best = v;
                            best_idx = idx;
                        }
                    }
                }
                out.data_mut()[ni * c + ci] = best;
                argmax[ni * c + ci] = best_idx;
            }
        }
        Ok((out, argmax))
    }
}

impl Default for GlobalMaxPool2d {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for GlobalMaxPool2d {
    fn forward(&self, input: &Tensor, _scratch: &mut Scratch) -> Result<Tensor, MlError> {
        // Inference fast path: one slice fold per channel plane, no argmax.
        let (n, c, h, w) = dims4("global_maxpool_forward", input)?;
        if h * w == 0 {
            return Err(MlError::shape(
                "global_maxpool_forward",
                "empty spatial extent",
            ));
        }
        let mut out = Tensor::zeros(&[n, c, 1, 1]);
        for (dst, plane) in out
            .data_mut()
            .iter_mut()
            .zip(input.data().chunks_exact(h * w))
        {
            *dst = plane
                .iter()
                .fold(f32::NEG_INFINITY, |m, &v| if v > m { v } else { m });
        }
        Ok(out)
    }

    fn forward_train(&mut self, input: &Tensor, _scratch: &mut Scratch) -> Result<Tensor, MlError> {
        let (out, argmax) = Self::run(input)?;
        self.cache = Some((input.shape().to_vec(), argmax));
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor, _scratch: &mut Scratch) -> Result<Tensor, MlError> {
        let (in_shape, argmax) = self.cache.take().ok_or(MlError::BackwardWithoutForward {
            layer: "GlobalMaxPool2d",
        })?;
        check_grad_out(
            "global_maxpool_backward",
            grad_out,
            &[in_shape[0], in_shape[1], 1, 1],
        )?;
        let mut grad_in = Tensor::zeros(&in_shape);
        for (g, &idx) in grad_out.data().iter().zip(&argmax) {
            grad_in.data_mut()[idx] += g;
        }
        Ok(grad_in)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::gradcheck;

    fn scratch() -> Scratch {
        Scratch::new()
    }

    #[test]
    fn pool_2x2_takes_max() {
        let pool = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(&[1, 1, 2, 4], vec![1., 5., 2., 0., 3., 4., 8., 6.]);
        let y = pool.forward(&x, &mut scratch()).unwrap();
        assert_eq!(y.shape(), &[1, 1, 1, 2]);
        assert_eq!(y.data(), &[5.0, 8.0]);
    }

    #[test]
    fn pool_drops_partial_windows() {
        let pool = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(&[1, 1, 3, 3], vec![1., 2., 9., 3., 4., 9., 9., 9., 9.]);
        let y = pool.forward(&x, &mut scratch()).unwrap();
        assert_eq!(y.shape(), &[1, 1, 1, 1]);
        assert_eq!(y.data(), &[4.0]);
    }

    #[test]
    fn pool_rejects_undersized_input() {
        let pool = MaxPool2d::new(2, 2);
        let x = Tensor::zeros(&[1, 1, 1, 3]);
        let e = pool.forward(&x, &mut scratch()).unwrap_err();
        assert!(e.to_string().contains("smaller than pool window"));
    }

    #[test]
    fn pool_backward_routes_to_argmax() {
        let mut pool = MaxPool2d::new(2, 2);
        let mut s = scratch();
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1., 5., 2., 0.]);
        let _ = pool.forward_train(&x, &mut s).unwrap();
        let g = pool
            .backward(&Tensor::full(&[1, 1, 1, 1], 7.0), &mut s)
            .unwrap();
        assert_eq!(g.data(), &[0.0, 7.0, 0.0, 0.0]);
    }

    #[test]
    fn pool_rejects_mis_shaped_grad_out() {
        let mut pool = MaxPool2d::new(2, 2);
        let mut s = scratch();
        let _ = pool
            .forward_train(&Tensor::zeros(&[1, 2, 4, 4]), &mut s)
            .unwrap();
        let e = pool
            .backward(&Tensor::zeros(&[1, 2, 2, 1]), &mut s)
            .unwrap_err();
        assert!(matches!(
            e,
            MlError::ShapeMismatch {
                op: "maxpool_backward",
                ..
            }
        ));
        assert!(e.to_string().contains("[1, 2, 2, 2]"));
    }

    #[test]
    fn global_pool_rejects_mis_shaped_grad_out() {
        let mut gp = GlobalMaxPool2d::new();
        let mut s = scratch();
        let _ = gp
            .forward_train(&Tensor::zeros(&[2, 3, 2, 2]), &mut s)
            .unwrap();
        let e = gp
            .backward(&Tensor::zeros(&[2, 2, 1, 1]), &mut s)
            .unwrap_err();
        assert!(matches!(
            e,
            MlError::ShapeMismatch {
                op: "global_maxpool_backward",
                ..
            }
        ));
        assert!(e.to_string().contains("[2, 3, 1, 1]"));
    }

    #[test]
    fn global_pool_shape_and_value() {
        let gp = GlobalMaxPool2d::new();
        let x = Tensor::from_vec(&[1, 2, 2, 2], vec![1., 2., 3., 4., -1., -2., -3., -4.]);
        let y = gp.forward(&x, &mut scratch()).unwrap();
        assert_eq!(y.shape(), &[1, 2, 1, 1]);
        assert_eq!(y.data(), &[4.0, -1.0]);
    }

    #[test]
    fn global_pool_gradient_check() {
        let mut gp = GlobalMaxPool2d::new();
        // Distinct values so the max is stable under ±eps perturbation.
        let x = Tensor::from_vec(
            &[2, 2, 2, 2],
            (0..16).map(|i| i as f32 * 0.37 - 2.0).collect(),
        );
        gradcheck::check_input_gradient(&mut gp, &x, 1e-2);
    }

    #[test]
    fn maxpool_gradient_check() {
        let mut pool = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(
            &[1, 2, 4, 4],
            (0..32).map(|i| ((i * 7) % 13) as f32 - 6.0).collect(),
        );
        gradcheck::check_input_gradient(&mut pool, &x, 1e-2);
    }
}

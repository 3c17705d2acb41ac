//! Stride-1 2-D convolution with optional zero padding.
//!
//! CommCNN uses four kernel geometries (paper §IV-B2): 3×3 "square" kernels
//! (padded, so square modules can stack), the 1×(|I|+|f|) "wide" kernel that
//! reads one member's whole feature row, the k×1 "long" kernel that reads
//! one feature across all members, and 1×1 kernels after the wide/long
//! branches. All are stride-1 instances of this layer.
//!
//! The compute lives in [`crate::kernel`], which lays the batch out once
//! as a zero-padded plane and runs the blocked GEMM on shifted row views
//! of it; `kernel::reference` keeps the original loop nests as the test
//! oracle, bit-identical to that path. A training forward keeps that
//! padded input plane for the weight gradient.

use super::{check_grad_out, he_normal, replica_of, Layer};
use crate::error::MlError;
use crate::kernel::{self, ConvGeom, Scratch};
use crate::tensor::Tensor;
use rand::rngs::StdRng;

/// 2-D convolution, NCHW layout, stride 1.
pub struct Conv2d {
    /// Weights `(C_out, C_in, KH, KW)`.
    w: Tensor,
    /// Bias `(C_out)`.
    b: Tensor,
    gw: Tensor,
    gb: Tensor,
    pad_h: usize,
    pad_w: usize,
    kh: usize,
    kw: usize,
    c_in: usize,
    c_out: usize,
    /// Geometry of the last training forward; `backward` takes it.
    geom_cache: Option<ConvGeom>,
    /// That forward's padded input plane (`kernel::plane`). The buffer is
    /// kept across steps and lent to the kernel through `Scratch`, so it is
    /// filled in place, never reallocated once grown.
    plane: Vec<f32>,
    /// The last backward's per-sample parameter-gradient records (see
    /// [`kernel::conv2d_backward_samples`]): folded into `gw`/`gb` by that
    /// backward, and read by a master layer's [`Layer::fold_shard`] when
    /// this layer is a shard replica.
    records: Vec<f32>,
}

impl Conv2d {
    /// A convolution with `c_in → c_out` channels and a `kh × kw` kernel,
    /// no padding ("valid").
    pub fn new(c_in: usize, c_out: usize, kh: usize, kw: usize, rng: &mut StdRng) -> Self {
        Self::with_padding(c_in, c_out, kh, kw, 0, 0, rng)
    }

    /// A convolution with explicit zero padding on each side.
    pub fn with_padding(
        c_in: usize,
        c_out: usize,
        kh: usize,
        kw: usize,
        pad_h: usize,
        pad_w: usize,
        rng: &mut StdRng,
    ) -> Self {
        assert!(kh > 0 && kw > 0 && c_in > 0 && c_out > 0);
        let fan_in = c_in * kh * kw;
        Conv2d {
            w: he_normal(&[c_out, c_in, kh, kw], fan_in, rng),
            b: Tensor::zeros(&[c_out]),
            gw: Tensor::zeros(&[c_out, c_in, kh, kw]),
            gb: Tensor::zeros(&[c_out]),
            pad_h,
            pad_w,
            kh,
            kw,
            c_in,
            c_out,
            geom_cache: None,
            plane: Vec::new(),
            records: Vec::new(),
        }
    }

    /// "Same" 3×3 convolution (padding 1), the square-kernel configuration.
    pub fn square3x3(c_in: usize, c_out: usize, rng: &mut StdRng) -> Self {
        Self::with_padding(c_in, c_out, 3, 3, 1, 1, rng)
    }

    /// Output spatial size for an input of `h × w`.
    pub fn output_size(&self, h: usize, w: usize) -> (usize, usize) {
        let oh = h + 2 * self.pad_h + 1 - self.kh;
        let ow = w + 2 * self.pad_w + 1 - self.kw;
        (oh, ow)
    }

    fn geom(&self, op: &'static str, input: &Tensor) -> Result<ConvGeom, MlError> {
        ConvGeom::validate(
            op,
            input.shape(),
            self.c_in,
            self.c_out,
            self.kh,
            self.kw,
            self.pad_h,
            self.pad_w,
        )
    }

    fn run_forward(&self, g: &ConvGeom, input: &Tensor, scratch: &mut Scratch) -> Tensor {
        let mut out = Tensor::zeros(&[g.n, g.c_out, g.oh, g.ow]);
        kernel::conv2d_forward(
            g,
            self.w.data(),
            self.b.data(),
            input.data(),
            out.data_mut(),
            scratch,
        );
        out
    }

    /// Takes the cached training geometry and checks `grad_out` against it.
    fn take_geom(&mut self, grad_out: &Tensor) -> Result<ConvGeom, MlError> {
        let g = self
            .geom_cache
            .take()
            .ok_or(MlError::BackwardWithoutForward { layer: "Conv2d" })?;
        check_grad_out("conv2d_backward", grad_out, &[g.n, g.c_out, g.oh, g.ow])?;
        Ok(g)
    }

    fn run_backward(
        &mut self,
        g: &ConvGeom,
        grad_out: &Tensor,
        grad_in: Option<&mut [f32]>,
        scratch: &mut Scratch,
    ) {
        kernel::conv2d_backward_samples(
            g,
            self.w.data(),
            &self.plane,
            grad_out.data(),
            grad_in,
            &mut self.records,
            scratch,
        );
        kernel::conv2d_fold(&self.records, self.gw.data_mut(), self.gb.data_mut());
    }
}

impl Layer for Conv2d {
    fn forward(&self, input: &Tensor, scratch: &mut Scratch) -> Result<Tensor, MlError> {
        let g = self.geom("conv2d_forward", input)?;
        Ok(self.run_forward(&g, input, scratch))
    }

    fn forward_train(&mut self, input: &Tensor, scratch: &mut Scratch) -> Result<Tensor, MlError> {
        let g = self.geom("conv2d_forward", input)?;
        // The kernel lays the input out in `scratch.plane`: lend it this
        // layer's buffer for the call and take the filled plane back after.
        std::mem::swap(&mut self.plane, &mut scratch.plane);
        let out = self.run_forward(&g, input, scratch);
        std::mem::swap(&mut self.plane, &mut scratch.plane);
        self.geom_cache = Some(g);
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor, scratch: &mut Scratch) -> Result<Tensor, MlError> {
        let g = self.take_geom(grad_out)?;
        let mut grad_in = Tensor::zeros(&[g.n, g.c_in, g.h, g.w]);
        self.run_backward(&g, grad_out, Some(grad_in.data_mut()), scratch);
        Ok(grad_in)
    }

    fn backward_params(&mut self, grad_out: &Tensor, scratch: &mut Scratch) -> Result<(), MlError> {
        let g = self.take_geom(grad_out)?;
        self.run_backward(&g, grad_out, None, scratch);
        Ok(())
    }

    fn fold_shard(&mut self, shard: &dyn Layer) -> Result<(), MlError> {
        let shard = replica_of::<Conv2d>(shard)?;
        if shard.w.shape() != self.w.shape() {
            return Err(MlError::shape(
                "fold_shard",
                format!(
                    "shard conv {:?} does not match this conv {:?}",
                    shard.w.shape(),
                    self.w.shape()
                ),
            ));
        }
        kernel::conv2d_fold(&shard.records, self.gw.data_mut(), self.gb.data_mut());
        Ok(())
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        f(&mut self.w, &mut self.gw);
        f(&mut self.b, &mut self.gb);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::gradcheck;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    fn scratch() -> Scratch {
        Scratch::new()
    }

    #[test]
    fn identity_kernel_passes_through() {
        let mut conv = Conv2d::new(1, 1, 1, 1, &mut rng());
        conv.w.data_mut()[0] = 1.0;
        conv.b.data_mut()[0] = 0.0;
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let y = conv.forward(&x, &mut scratch()).unwrap();
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn valid_conv_output_shape() {
        let conv = Conv2d::new(1, 4, 3, 3, &mut rng());
        assert_eq!(conv.output_size(20, 12), (18, 10));
        let wide = Conv2d::new(1, 4, 1, 12, &mut rng());
        assert_eq!(wide.output_size(20, 12), (20, 1));
        let long = Conv2d::new(1, 4, 20, 1, &mut rng());
        assert_eq!(long.output_size(20, 12), (1, 12));
    }

    #[test]
    fn same_padding_preserves_shape() {
        let conv = Conv2d::square3x3(1, 2, &mut rng());
        let x = Tensor::zeros(&[2, 1, 5, 7]);
        let y = conv.forward(&x, &mut scratch()).unwrap();
        assert_eq!(y.shape(), &[2, 2, 5, 7]);
    }

    #[test]
    fn known_sum_kernel() {
        // 2×2 all-ones kernel over a 2×3 input computes sliding sums.
        let mut conv = Conv2d::new(1, 1, 2, 2, &mut rng());
        conv.w.data_mut().iter_mut().for_each(|v| *v = 1.0);
        conv.b.data_mut()[0] = 0.0;
        let x = Tensor::from_vec(&[1, 1, 2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let y = conv.forward(&x, &mut scratch()).unwrap();
        assert_eq!(y.shape(), &[1, 1, 1, 2]);
        assert_eq!(y.data(), &[12.0, 16.0]);
    }

    #[test]
    fn multi_channel_accumulates() {
        let mut conv = Conv2d::new(2, 1, 1, 1, &mut rng());
        conv.w.data_mut().copy_from_slice(&[2.0, 3.0]);
        conv.b.data_mut()[0] = 1.0;
        let x = Tensor::from_vec(&[1, 2, 1, 1], vec![10.0, 100.0]);
        let y = conv.forward(&x, &mut scratch()).unwrap();
        assert_eq!(y.data(), &[2.0 * 10.0 + 3.0 * 100.0 + 1.0]);
    }

    #[test]
    fn gradient_check_input_valid() {
        let mut conv = Conv2d::new(2, 3, 2, 2, &mut rng());
        let x = he_normal(&[2, 2, 4, 3], 4, &mut rng());
        gradcheck::check_input_gradient(&mut conv, &x, 2e-2);
    }

    #[test]
    fn gradient_check_params_padded() {
        let mut conv = Conv2d::with_padding(1, 2, 3, 3, 1, 1, &mut rng());
        let x = he_normal(&[1, 1, 4, 4], 4, &mut rng());
        gradcheck::check_param_gradients(&mut conv, &x, 2e-2);
    }

    #[test]
    fn gradient_check_wide_kernel() {
        let mut conv = Conv2d::new(1, 2, 1, 5, &mut rng());
        let x = he_normal(&[1, 1, 3, 5], 5, &mut rng());
        gradcheck::check_input_gradient(&mut conv, &x, 2e-2);
        gradcheck::check_param_gradients(&mut conv, &x, 2e-2);
    }

    #[test]
    fn backward_requires_training_forward() {
        let mut conv = Conv2d::new(1, 1, 1, 1, &mut rng());
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        let mut s = scratch();
        let y = conv.forward(&x, &mut s).unwrap();
        assert_eq!(
            conv.backward(&y, &mut s).unwrap_err(),
            MlError::BackwardWithoutForward { layer: "Conv2d" }
        );
    }

    #[test]
    fn mis_shaped_inputs_are_typed_errors() {
        let conv = Conv2d::new(2, 1, 3, 3, &mut rng());
        let mut s = scratch();
        // Not NCHW.
        let e = conv.forward(&Tensor::zeros(&[2, 2]), &mut s).unwrap_err();
        assert!(e.to_string().contains("NCHW"));
        // Wrong channel count.
        let e = conv
            .forward(&Tensor::zeros(&[1, 3, 5, 5]), &mut s)
            .unwrap_err();
        assert!(e.to_string().contains("channel mismatch"));
        // Kernel larger than the (unpadded) input.
        let e = conv
            .forward(&Tensor::zeros(&[1, 2, 2, 2]), &mut s)
            .unwrap_err();
        assert!(e.to_string().contains("larger than padded input"));
    }
}

//! The `locec_ml` math kernel: blocked GEMM, padded-plane convolution
//! views, and the conv/dense ops the `nn` layers compute through.
//!
//! # Structure
//!
//! * [`sgemm`](self::sgemm::sgemm) — packed, register-blocked `C += A·B`
//!   (see `sgemm.rs` for the blocking scheme), and its view form
//!   [`sgemm_rows`](self::sgemm::sgemm_rows), whose `B` rows are windows
//!   of one buffer at per-row offsets.
//! * [`plane`] — the padded, batch-stacked plane a convolution's input (or
//!   output gradient) is laid out in once, so that every kernel tap is a
//!   shifted row view of it and no column matrix is built (layout
//!   documented there).
//! * [`fast`] — the GEMM-backed conv/dense ops, re-exported here as
//!   `kernel::{conv2d,dense}_{forward,backward}`: the only path a build runs.
//! * [`mod@reference`] — the seed's naive loops, preserved verbatim; the
//!   semantics and *bit patterns* the fast paths are tested against.
//!   Nothing outside tests calls them.
//!
//! # Bit-exactness contract
//!
//! For finite inputs, [`fast`] and [`mod@reference`] produce bitwise-identical
//! results, up to the sign of zero in degenerate all-zero accumulations.
//! This is engineered, not accidental:
//!
//! 1. **Same fold order.** Every output element in both modules is one
//!    flat left-fold over the contraction axis in the same ascending order
//!    (GEMM `k` index = the reference's `(ci, ky, kx)` / `j` / `(co, ky,
//!    kx)` loop nests, which iterate ascending). The GEMM never k-blocks,
//!    so no re-association happens.
//! 2. **Same rounding.** The micro-kernel uses plain multiply-then-add —
//!    no FMA / `mul_add`, whose single rounding would differ from the
//!    reference's two.
//! 3. **Zeros are inert.** Where the reference *skips* work (`weight ==
//!    0.0` / `g == 0.0` fast-outs, kernel taps that fall in padding), the
//!    GEMM instead folds a `x·(±0.0)` term. For IEEE-754 round-to-nearest,
//!    `acc + (±0.0)` returns `acc` bit-for-bit whenever `acc` is a finite
//!    non-zero value, and accumulators seeded from `+0.0` can never become
//!    `-0.0` (that would require adding `-0.0` to `-0.0`). The only
//!    observable divergence is a `-0.0`-seeded accumulator (e.g. a bias of
//!    `-0.0` with all-zero weights) normalizing to `+0.0` — degenerate and
//!    accepted.
//! 4. **Multiplication operand order** is irrelevant: IEEE-754 `×` is
//!    commutative including NaN payload propagation on this target.
//!
//! Equivalence is pinned by unit tests here and property tests in
//! `tests/proptest_kernel.rs` (odd shapes, non-multiple-of-block dims).
//!
//! # Scratch lifetime
//!
//! All fast-path temporaries (padded planes, tap offsets, GEMM output
//! grids, ∂weights tap matrices, GEMM packing buffers, weight
//! permutations) live in a caller-provided [`Scratch`] arena. A `Scratch`
//! grows to the high-water mark of the ops run through it and is fully
//! overwritten by each op — callers keep one per thread (inference) or one
//! per training loop and reuse it across calls; nothing leaks between
//! calls. This is what lets `forward(&self, input, &mut Scratch)` be
//! immutable on the layer and therefore shareable across threads.

pub mod fast;
pub mod plane;
pub mod reference;
pub mod sgemm;

pub use fast::{
    conv2d_backward_samples, conv2d_fold, conv2d_forward, dense_backward, dense_forward,
};

use crate::error::MlError;
use std::sync::OnceLock;
use std::time::Instant;

/// Reusable arena for fast-path temporaries. See the module docs for the
/// lifetime contract; create one per worker / training loop and pass it to
/// every `forward` / `backward` call.
#[derive(Default)]
pub struct Scratch {
    /// The conv forward's padded input plane; a training `Conv2d` keeps it
    /// for its backward.
    pub(crate) plane: Vec<f32>,
    /// The ∂weights tap matrix of one sample, then the output-gradient
    /// plane of the ∂input GEMM.
    pub(crate) cols: Vec<f32>,
    /// Row-view offsets of the current view GEMM, one per kernel tap.
    pub(crate) offsets: Vec<usize>,
    /// Conv GEMM output on the plane's grid; transposed inputs for dense.
    pub(crate) tmp: Vec<f32>,
    /// Permuted / transposed weight operands.
    pub(crate) wperm: Vec<f32>,
    /// GEMM A-panel packing buffer.
    pub(crate) pack: Vec<f32>,
}

impl Scratch {
    /// An empty arena; buffers grow on first use.
    pub fn new() -> Self {
        Scratch::default()
    }
}

/// Validated geometry of one stride-1 padded convolution call.
#[derive(Clone, Copy, Debug)]
pub struct ConvGeom {
    /// Batch size.
    pub n: usize,
    /// Input channels.
    pub c_in: usize,
    /// Output channels.
    pub c_out: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Zero padding (top/bottom).
    pub ph: usize,
    /// Zero padding (left/right).
    pub pw: usize,
    /// Output height.
    pub oh: usize,
    /// Output width.
    pub ow: usize,
}

impl ConvGeom {
    /// Checks an NCHW input shape against the layer's parameters and
    /// derives the output grid. All failures are data-dependent and
    /// surface as [`MlError::ShapeMismatch`].
    #[allow(clippy::too_many_arguments)]
    pub fn validate(
        op: &'static str,
        input_shape: &[usize],
        c_in: usize,
        c_out: usize,
        kh: usize,
        kw: usize,
        ph: usize,
        pw: usize,
    ) -> Result<ConvGeom, MlError> {
        let [n, c, h, w] = *input_shape else {
            return Err(MlError::shape(
                op,
                format!("expected NCHW input, got {input_shape:?}"),
            ));
        };
        if c != c_in {
            return Err(MlError::shape(
                op,
                format!("channel mismatch: input has {c}, layer expects {c_in}"),
            ));
        }
        let oh = (h + 2 * ph + 1).saturating_sub(kh);
        let ow = (w + 2 * pw + 1).saturating_sub(kw);
        if oh == 0 || ow == 0 {
            return Err(MlError::shape(
                op,
                format!("kernel {kh}x{kw} larger than padded input {h}x{w} (pad {ph}x{pw})"),
            ));
        }
        Ok(ConvGeom {
            n,
            c_in,
            c_out,
            h,
            w,
            kh,
            kw,
            ph,
            pw,
            oh,
            ow,
        })
    }
}

struct MlMetrics {
    gemm_nanos: locec_obs::Counter,
    gemm_calls: locec_obs::Counter,
    linear_gemm_nanos: locec_obs::Counter,
    linear_gemm_calls: locec_obs::Counter,
    im2col_nanos: locec_obs::Counter,
    im2col_calls: locec_obs::Counter,
    train_samples: locec_obs::Counter,
    infer_samples: locec_obs::Counter,
}

impl MlMetrics {
    fn get() -> &'static MlMetrics {
        static METRICS: OnceLock<MlMetrics> = OnceLock::new();
        METRICS.get_or_init(|| {
            let rec = locec_obs::Recorder::global();
            MlMetrics {
                gemm_nanos: rec.counter("ml.gemm_nanos"),
                gemm_calls: rec.counter("ml.gemm_calls"),
                linear_gemm_nanos: rec.counter("ml.linear_gemm_nanos"),
                linear_gemm_calls: rec.counter("ml.linear_gemm_calls"),
                im2col_nanos: rec.counter("ml.im2col_nanos"),
                im2col_calls: rec.counter("ml.im2col_calls"),
                train_samples: rec.counter("ml.train_samples"),
                infer_samples: rec.counter("ml.infer_samples"),
            }
        })
    }
}

/// Records `n` samples pushed through a training step (`ml.train_samples`).
pub fn record_train_samples(n: usize) {
    MlMetrics::get().train_samples.add(n as u64);
}

/// Records `n` samples pushed through batch inference (`ml.infer_samples`).
pub fn record_infer_samples(n: usize) {
    MlMetrics::get().infer_samples.add(n as u64);
}

/// `sgemm` with `ml.gemm_nanos` / `ml.gemm_calls` accounting: the conv
/// and dense layers' dense GEMMs.
pub(crate) fn timed_sgemm(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    pack: &mut Vec<f32>,
) {
    let metrics = MlMetrics::get();
    recording(&metrics.gemm_nanos, &metrics.gemm_calls, || {
        sgemm::sgemm(m, n, k, a, b, c, pack)
    });
}

/// [`sgemm::sgemm_rows`] with `ml.gemm_nanos` / `ml.gemm_calls`
/// accounting: the conv layers' view GEMMs.
#[allow(clippy::too_many_arguments)]
pub(crate) fn timed_sgemm_rows(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    base: &[f32],
    offsets: &[usize],
    c: &mut [f32],
    pack: &mut Vec<f32>,
) {
    let metrics = MlMetrics::get();
    recording(&metrics.gemm_nanos, &metrics.gemm_calls, || {
        sgemm::sgemm_rows(m, n, k, a, base, offsets, c, pack)
    });
}

/// `sgemm` with `ml.linear_gemm_nanos` / `ml.linear_gemm_calls`
/// accounting: the logistic regression's GEMMs, kept apart so that
/// `ml.gemm_*` goes on meaning the neural layers alone.
pub(crate) fn timed_linear_sgemm(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    pack: &mut Vec<f32>,
) {
    let metrics = MlMetrics::get();
    recording(
        &metrics.linear_gemm_nanos,
        &metrics.linear_gemm_calls,
        || sgemm::sgemm(m, n, k, a, b, c, pack),
    );
}

/// Runs `f`, adding its wall time to `nanos` and one call to `calls`.
fn recording<R>(
    nanos: &locec_obs::Counter,
    calls: &locec_obs::Counter,
    f: impl FnOnce() -> R,
) -> R {
    let start = Instant::now();
    let out = f();
    nanos.add(locec_obs::metrics::saturating_nanos(start));
    calls.incr();
    out
}

/// Runs a conv layout step — a padded-plane build or a ∂weights tap
/// gather — with `ml.im2col_nanos` / `ml.im2col_calls` accounting. The
/// names are those of the im2col lowerings these steps replaced.
pub(crate) fn timed_layout<R>(f: impl FnOnce() -> R) -> R {
    let metrics = MlMetrics::get();
    recording(&metrics.im2col_nanos, &metrics.im2col_calls, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(seed: &mut u64) -> f32 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (((*seed >> 33) as u32) as f32 / u32::MAX as f32) * 2.0 - 1.0
    }

    fn fill(v: &mut [f32], seed: &mut u64) {
        for x in v.iter_mut() {
            *x = pseudo(seed);
        }
    }

    fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x} vs {y}");
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn conv_case(
        n: usize,
        c_in: usize,
        c_out: usize,
        h: usize,
        w: usize,
        kh: usize,
        kw: usize,
        ph: usize,
        pw: usize,
    ) {
        let g = ConvGeom::validate("test", &[n, c_in, h, w], c_in, c_out, kh, kw, ph, pw).unwrap();
        let mut seed = (n * 31 + c_in * 7 + c_out * 3 + h + w + kh + kw) as u64 + 1;
        let mut wt = vec![0.0f32; c_out * c_in * kh * kw];
        let mut b = vec![0.0f32; c_out];
        let mut x = vec![0.0f32; n * c_in * h * w];
        let mut gout = vec![0.0f32; n * c_out * g.oh * g.ow];
        fill(&mut wt, &mut seed);
        fill(&mut b, &mut seed);
        fill(&mut x, &mut seed);
        fill(&mut gout, &mut seed);
        // Exercise the zero-skip paths too.
        wt[0] = 0.0;
        gout[0] = 0.0;

        let mut scratch = Scratch::new();
        let mut out_f = vec![0.0f32; n * c_out * g.oh * g.ow];
        let mut out_r = out_f.clone();
        fast::conv2d_forward(&g, &wt, &b, &x, &mut out_f, &mut scratch);
        reference::conv2d_forward(&g, &wt, &b, &x, &mut out_r);
        assert_bits_eq(&out_f, &out_r, "conv forward");

        let mut gw_seed = vec![0.0f32; wt.len()];
        fill(&mut gw_seed, &mut seed);
        let (mut gin_f, mut gw_f, mut gb_f) = (vec![0.0f32; x.len()], gw_seed.clone(), b.clone());
        let (mut gin_r, mut gw_r, mut gb_r) = (vec![0.0f32; x.len()], gw_seed, b.clone());
        let plane = scratch.plane.clone();
        let mut records = Vec::new();
        fast::conv2d_backward_samples(
            &g,
            &wt,
            &plane,
            &gout,
            Some(&mut gin_f),
            &mut records,
            &mut scratch,
        );
        fast::conv2d_fold(&records, &mut gw_f, &mut gb_f);
        reference::conv2d_backward(&g, &wt, &x, &gout, &mut gin_r, &mut gw_r, &mut gb_r);
        assert_bits_eq(&gin_f, &gin_r, "conv grad_in");
        assert_bits_eq(&gw_f, &gw_r, "conv grad_w");
        assert_bits_eq(&gb_f, &gb_r, "conv grad_b");
    }

    #[test]
    fn conv_fast_matches_reference_bitwise() {
        conv_case(2, 3, 4, 5, 6, 3, 3, 1, 1); // square, padded
        conv_case(1, 1, 2, 4, 7, 1, 7, 0, 0); // wide kernel
        conv_case(2, 2, 3, 6, 3, 6, 1, 0, 0); // long kernel
        conv_case(1, 2, 2, 2, 2, 3, 3, 1, 1); // kernel larger than input, padded
        conv_case(3, 1, 1, 1, 1, 1, 1, 0, 0); // degenerate 1×1 everywhere
        conv_case(1, 4, 5, 9, 10, 2, 4, 1, 2); // asymmetric everything
    }

    fn dense_case(n: usize, din: usize, dout: usize) {
        let mut seed = (n * 101 + din * 13 + dout) as u64 + 9;
        let mut w = vec![0.0f32; din * dout];
        let mut b = vec![0.0f32; dout];
        let mut x = vec![0.0f32; n * din];
        let mut gout = vec![0.0f32; n * dout];
        fill(&mut w, &mut seed);
        fill(&mut b, &mut seed);
        fill(&mut x, &mut seed);
        fill(&mut gout, &mut seed);
        gout[0] = 0.0; // exercise the g == 0 skip

        let mut scratch = Scratch::new();
        let mut out_f = vec![0.0f32; n * dout];
        let mut out_r = out_f.clone();
        fast::dense_forward(n, din, dout, &w, &b, &x, &mut out_f, &mut scratch);
        reference::dense_forward(n, din, dout, &w, &b, &x, &mut out_r);
        assert_bits_eq(&out_f, &out_r, "dense forward");

        let mut gw_seed = vec![0.0f32; w.len()];
        fill(&mut gw_seed, &mut seed);
        let (mut gin_f, mut gw_f, mut gb_f) = (vec![0.0f32; x.len()], gw_seed.clone(), b.clone());
        let (mut gin_r, mut gw_r, mut gb_r) = (vec![0.0f32; x.len()], gw_seed, b.clone());
        fast::dense_backward(
            n,
            din,
            dout,
            &w,
            &x,
            &gout,
            &mut gin_f,
            &mut gw_f,
            &mut gb_f,
            &mut scratch,
        );
        reference::dense_backward(
            n, din, dout, &w, &x, &gout, &mut gin_r, &mut gw_r, &mut gb_r,
        );
        assert_bits_eq(&gin_f, &gin_r, "dense grad_in");
        assert_bits_eq(&gw_f, &gw_r, "dense grad_w");
        assert_bits_eq(&gb_f, &gb_r, "dense grad_b");
    }

    #[test]
    fn dense_fast_matches_reference_bitwise() {
        dense_case(1, 1, 1);
        dense_case(3, 5, 7);
        dense_case(8, 64, 32);
        dense_case(5, 17, 19); // ragged against MR/NR
    }

    #[test]
    fn validate_rejects_bad_shapes() {
        let e = ConvGeom::validate("op", &[2, 3], 1, 1, 1, 1, 0, 0).unwrap_err();
        assert!(e.to_string().contains("NCHW"));
        let e = ConvGeom::validate("op", &[1, 2, 4, 4], 3, 1, 1, 1, 0, 0).unwrap_err();
        assert!(e.to_string().contains("channel mismatch"));
        let e = ConvGeom::validate("op", &[1, 1, 2, 2], 1, 1, 5, 5, 0, 0).unwrap_err();
        assert!(e.to_string().contains("larger than padded input"));
        // Padding can rescue a kernel larger than the raw input.
        assert!(ConvGeom::validate("op", &[1, 1, 2, 2], 1, 1, 3, 3, 1, 1).is_ok());
    }
}

//! GEMM-backed convolution and dense ops — what the `nn` layers run.
//!
//! Each op is one or more calls of [`super::sgemm::sgemm`] or its view
//! form [`super::sgemm::sgemm_rows`], arranged so every output element is a single flat fold over the same contraction
//! axis, in the same ascending order, with the same operand order as the
//! loops in [`super::reference`]. That makes the fast paths bitwise
//! identical to the naive ones for finite data (up to the sign of zero;
//! see the kernel module docs for the argument).
//!
//! GEMM recipes (`R = c_in·kh·kw`, `P = oh·ow`, `K₂ = c_out·kh·kw`; a
//! *plane* is the batch laid out once with its zero padding, see
//! [`super::plane`], and a *view* reads one `B` row per kernel tap from it
//! at a per-tap offset; `span` is the plane's output-grid columns, ≈ `N·P`):
//!
//! | op            | A (m×k)              | B (k×n)                                 | C preload     |
//! |---------------|----------------------|-----------------------------------------|---------------|
//! | conv forward  | weights `c_out×R`    | view of the input plane `R×span`        | bias rows     |
//! | conv ∂weights | gout `c_out×P`       | per sample, gathered from that, `P×R`   | zeroed record |
//! | conv ∂input   | permuted w `c_in×K₂` | flipped view of the gout plane `K₂×span`| zeros         |
//! | dense forward | input `N×I`          | weights `I×O`                           | bias rows     |
//! | dense ∂weights| inputᵀ `I×N`         | gout `N×O`                              | existing `gw` |
//! | dense ∂input  | gout `N×O`           | weightsᵀ `O×I`                          | zeros         |
//!
//! Conv forward and ∂input are one GEMM for the whole batch each, on the
//! plane's grid; only the valid cells are copied out to NCHW. A training
//! forward keeps its input plane, and sample `ni`'s ∂weights operand is
//! gathered from it — the same `P×R` tap matrix an im2col lowering would
//! transpose out, so the GEMM sees the same operands. The ∂input plane and
//! GEMM run only when the caller reads the result: a network's first
//! conv, whose input is data, skips them.
//!
//! The conv backward is two steps. [`conv2d_backward_samples`] computes
//! the batch's ∂input and each sample's *record*: the sample's bias sums
//! and its ∂weights tile, the GEMM landing in a zeroed slot. [`conv2d_fold`]
//! then adds the records to `gb`/`gw` in sample order. That split is forced
//! by the reference, which folds a local `wgrad` from zero per sample and
//! then does one `gw += wgrad` — not the float sequence of folding on top
//! of `gw`. It is also what lets a batch train in slices: records of
//! consecutive slices, folded slice after slice, are the whole batch's
//! additions in the whole batch's order. The dense weight gradient is the
//! opposite case — the reference folds straight onto `gw`, so there the
//! GEMM preloads `C` with the existing values, and a dense layer trains on
//! the whole batch.

use super::plane::PlaneLayout;
use super::{timed_layout, timed_sgemm, timed_sgemm_rows, ConvGeom, Scratch};

/// Convolution forward as one view GEMM over the whole batch: the input is
/// laid out once as a padded plane ([`PlaneLayout::conv_input`]), each
/// kernel tap `(ci, ky, kx)` is a shifted row view of it, and the GEMM
/// output — seeded with the bias — is copied to NCHW cell by cell. Each
/// output element is the ascending-`R` fold from its bias that an im2col
/// lowering would give, padding taps included as real zeros, so the bits
/// are the same. `out` must hold `n·c_out·oh·ow` elements; fully
/// overwritten. The plane is left in `scratch.plane`, where a training
/// forward takes it for [`conv2d_backward_samples`].
pub fn conv2d_forward(
    g: &ConvGeom,
    w: &[f32],
    b: &[f32],
    input: &[f32],
    out: &mut [f32],
    scratch: &mut Scratch,
) {
    let (r, layout) = (g.c_in * g.kh * g.kw, PlaneLayout::conv_input(g));
    let span = layout.span();
    timed_layout(|| layout.fill(input, g.c_in, &mut scratch.plane));
    let (ph, pw) = (g.ph as isize, g.pw as isize);
    layout.taps(
        g.c_in,
        g.kh,
        g.kw,
        |ky, kx| (ky as isize - ph, kx as isize - pw),
        &mut scratch.offsets,
    );
    scratch.tmp.clear();
    for &bias in b {
        scratch.tmp.resize(scratch.tmp.len() + span, bias);
    }
    timed_sgemm_rows(
        g.c_out,
        span,
        r,
        w,
        &scratch.plane,
        &scratch.offsets,
        &mut scratch.tmp,
        &mut scratch.pack,
    );
    layout.scatter(&scratch.tmp, g.c_out, out);
}

/// The convolution backward's GEMMs, from the forward's padded input
/// plane: `plane` is what [`conv2d_forward`] laid out for this batch
/// (`scratch.plane` after the call), so each sample's ∂weights operand is
/// gathered from it instead of lowering the input again.
///
/// Sample `ni`'s parameter-gradient terms go to its record,
/// `records[ni·(c_out + c_out·R)..]`: its `c_out` bias sums (one plane sum
/// each), then its `c_out×R` ∂weights tile, folded from zero.
/// [`conv2d_fold`] adds them to `gw`/`gb`. `records` is resized and fully
/// overwritten. `gin`, when given, is fully overwritten with the input
/// gradient; `None` skips it — its plane and its GEMM — for a caller that
/// would discard it.
pub fn conv2d_backward_samples(
    g: &ConvGeom,
    w: &[f32],
    plane: &[f32],
    gout: &[f32],
    gin: Option<&mut [f32]>,
    records: &mut Vec<f32>,
    scratch: &mut Scratch,
) {
    let ConvGeom {
        n,
        c_in,
        c_out,
        kh,
        kw,
        ph,
        pw,
        oh,
        ow,
        ..
    } = *g;
    let (r, p, k2) = (c_in * kh * kw, oh * ow, c_out * kh * kw);
    let stride = c_out + c_out * r;
    records.clear();
    records.resize(n * stride, 0.0);
    let (ph, pw) = (ph as isize, pw as isize);

    let layout = PlaneLayout::conv_input(g);
    layout.taps(
        c_in,
        kh,
        kw,
        |ky, kx| (ky as isize - ph, kx as isize - pw),
        &mut scratch.offsets,
    );
    for (ni, record) in records.chunks_exact_mut(stride).enumerate() {
        let g_sample = &gout[ni * c_out * p..(ni + 1) * c_out * p];
        let (bias_sums, tile) = record.split_at_mut(c_out);

        // Bias gradient: same per-plane sum as the reference.
        for (co, sum) in bias_sums.iter_mut().enumerate() {
            *sum = g_sample[co * p..(co + 1) * p].iter().sum::<f32>();
        }

        // Weight gradient: folded into the zeroed tile — the reference's
        // local `wgrad`, which the fold then adds to `gw`.
        timed_layout(|| layout.gather(plane, &scratch.offsets, ni, &mut scratch.cols));
        timed_sgemm(
            c_out,
            r,
            p,
            g_sample,
            &scratch.cols,
            tile,
            &mut scratch.pack,
        );
    }

    // Input gradient: one flipped-kernel view GEMM over the output
    // gradient's plane — one fold per element, ordered (co, ky, kx).
    let Some(gin) = gin else {
        return;
    };
    // Weights permuted to (ci, (co, ky, kx)): the GEMM's A operand.
    scratch.wperm.clear();
    scratch.wperm.resize(c_in * k2, 0.0);
    for co in 0..c_out {
        for ci in 0..c_in {
            for t in 0..kh * kw {
                scratch.wperm[ci * k2 + co * kh * kw + t] = w[(co * c_in + ci) * kh * kw + t];
            }
        }
    }
    let back = PlaneLayout::conv_grad_out(g);
    timed_layout(|| back.fill(gout, c_out, &mut scratch.cols));
    back.taps(
        c_out,
        kh,
        kw,
        |ky, kx| (ph - ky as isize, pw - kx as isize),
        &mut scratch.offsets,
    );
    scratch.tmp.clear();
    scratch.tmp.resize(c_in * back.span(), 0.0);
    timed_sgemm_rows(
        c_in,
        back.span(),
        k2,
        &scratch.wperm,
        &scratch.cols,
        &scratch.offsets,
        &mut scratch.tmp,
        &mut scratch.pack,
    );
    back.scatter(&scratch.tmp, c_in, gin);
}

/// The in-order fold of the convolution backward: for each record
/// [`conv2d_backward_samples`] wrote, in sample order, `gb += ` its bias
/// sums and then `gw += ` its tile. That is the reference's float sequence
/// — a per-sample `wgrad` folded from zero, then one `gw += wgrad` — so
/// records from consecutive slices of a batch, folded slice after slice,
/// leave the bits one call over the whole batch would.
pub fn conv2d_fold(records: &[f32], gw: &mut [f32], gb: &mut [f32]) {
    for record in records.chunks_exact(gb.len() + gw.len()) {
        let (bias_sums, tile) = record.split_at(gb.len());
        for (gbv, &s) in gb.iter_mut().zip(bias_sums) {
            *gbv += s;
        }
        for (gwv, &t) in gw.iter_mut().zip(tile) {
            *gwv += t;
        }
    }
}

/// GEMM dense forward: `C` preloaded with bias rows, then `C += X·W`.
/// `out` must hold `n·dout` elements; fully overwritten.
#[allow(clippy::too_many_arguments)]
pub fn dense_forward(
    n: usize,
    din: usize,
    dout: usize,
    w: &[f32],
    b: &[f32],
    input: &[f32],
    out: &mut [f32],
    scratch: &mut Scratch,
) {
    for row in out.chunks_exact_mut(dout) {
        row.copy_from_slice(b);
    }
    timed_sgemm(n, dout, din, input, w, out, &mut scratch.pack);
}

/// GEMM dense backward. `gin` must be zeroed by the caller; `gw`/`gb` are
/// accumulated into.
#[allow(clippy::too_many_arguments)]
pub fn dense_backward(
    n: usize,
    din: usize,
    dout: usize,
    w: &[f32],
    input: &[f32],
    gout: &[f32],
    gin: &mut [f32],
    gw: &mut [f32],
    gb: &mut [f32],
    scratch: &mut Scratch,
) {
    // Bias gradient keeps the reference's explicit loop (and its
    // zero-gradient skip) — it is O(N·O) and not worth a GEMM.
    for i in 0..n {
        for o in 0..dout {
            let g = gout[i * dout + o];
            if g == 0.0 {
                continue;
            }
            gb[o] += g;
        }
    }

    // Weight gradient: Xᵀ·G folded directly on top of the existing gw,
    // exactly like the reference's running accumulation over i.
    scratch.tmp.clear();
    scratch.tmp.resize(din * n, 0.0);
    for i in 0..n {
        for (j, &x) in input[i * din..(i + 1) * din].iter().enumerate() {
            scratch.tmp[j * n + i] = x;
        }
    }
    timed_sgemm(din, dout, n, &scratch.tmp, gout, gw, &mut scratch.pack);

    // Input gradient: G·Wᵀ into the zeroed grad buffer.
    scratch.wperm.clear();
    scratch.wperm.resize(dout * din, 0.0);
    for j in 0..din {
        for o in 0..dout {
            scratch.wperm[o * din + j] = w[j * dout + o];
        }
    }
    timed_sgemm(n, din, dout, gout, &scratch.wperm, gin, &mut scratch.pack);
}

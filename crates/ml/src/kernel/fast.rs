//! GEMM-backed convolution and dense ops — what the `nn` layers run.
//!
//! Each op lowers to one or more calls of [`super::sgemm::sgemm`] arranged
//! so every output element is a single flat fold over the same contraction
//! axis, in the same ascending order, with the same operand order as the
//! loops in [`super::reference`]. That makes the fast paths bitwise
//! identical to the naive ones for finite data (up to the sign of zero;
//! see the kernel module docs for the argument).
//!
//! Lowering recipes (`R = c_in·kh·kw`, `P = oh·ow`, `K₂ = c_out·kh·kw`;
//! conv forward is one GEMM for the whole batch, the conv backward GEMMs
//! run per sample):
//!
//! | op            | A (m×k)              | B (k×n)                        | C preload        |
//! |---------------|----------------------|--------------------------------|------------------|
//! | conv forward  | weights `c_out×R`    | im2col `R×(N·P)`               | bias rows        |
//! | conv ∂weights | gout `c_out×P`       | forward's cols, block ᵀ `P×R`  | zeroed record    |
//! | conv ∂input   | permuted w `c_in×K₂` | flipped-im2col `K₂×(h·w)`      | zeros            |
//! | dense forward | input `N×I`          | weights `I×O`                  | bias rows        |
//! | dense ∂weights| inputᵀ `I×N`         | gout `N×O`                     | existing `gw`    |
//! | dense ∂input  | gout `N×O`           | weightsᵀ `O×I`                 | zeros            |
//!
//! The conv backward lowers no input: a training forward keeps its
//! `R×(N·P)` columns, and sample `ni`'s ∂weights operand is the transpose
//! of its `R×P` block — the same matrix a fresh per-sample lowering would
//! build, so the GEMM sees the same operands. The ∂input lowering and GEMM
//! run only when the caller reads the result: a network's first conv,
//! whose input is data, skips them.
//!
//! The conv backward is two steps. [`conv2d_backward_samples`] computes
//! each sample's ∂input and its *record*: the sample's bias sums and its
//! ∂weights tile, the GEMM landing in a zeroed slot. [`conv2d_fold`] then
//! adds the records to `gb`/`gw` in sample order. That split is forced by
//! the reference, which folds a local `wgrad` from zero per sample and then
//! does one `gw += wgrad` — not the float sequence of folding on top of
//! `gw`. It is also what lets a batch train in slices: records of
//! consecutive slices, folded slice after slice, are the whole batch's
//! additions in the whole batch's order. The dense weight gradient is the
//! opposite case — the reference folds straight onto `gw`, so there the
//! GEMM preloads `C` with the existing values, and a dense layer trains on
//! the whole batch.

use super::im2col::{flipped_im2col, im2col_batched, sample_rows};
use super::{timed_sgemm, with_im2col_timing, ConvGeom, Scratch};

/// im2col + GEMM convolution forward, batched: the whole `n`-sample batch
/// is lowered into one `R×(N·P)` column matrix and multiplied in a single
/// GEMM (weights packed once, not once per sample), then scattered back to
/// NCHW. Each output element is still the same ascending-`R` fold seeded
/// from its bias value — only the column's position in the GEMM changes,
/// so the result is bitwise identical to the per-sample lowering. `out`
/// must hold `n·c_out·oh·ow` elements; fully overwritten. The columns are
/// left in `scratch.cols`, where a training forward takes them for
/// [`conv2d_backward_samples`].
// The bias fill indexes `b` by `co` to fill row `co`; a `chunks_exact_mut`
// rewrite would panic on an empty batch (`np = 0`).
#[allow(clippy::needless_range_loop)]
pub fn conv2d_forward(
    g: &ConvGeom,
    w: &[f32],
    b: &[f32],
    input: &[f32],
    out: &mut [f32],
    scratch: &mut Scratch,
) {
    let ConvGeom {
        n,
        c_in,
        c_out,
        h,
        w: iw,
        kh,
        kw,
        ph,
        pw,
        oh,
        ow,
    } = *g;
    let (r, p) = (c_in * kh * kw, oh * ow);
    let np = n * p;
    with_im2col_timing(|| {
        im2col_batched(
            input,
            n,
            c_in,
            h,
            iw,
            kh,
            kw,
            ph,
            pw,
            oh,
            ow,
            &mut scratch.cols,
        )
    });
    scratch.tmp.clear();
    scratch.tmp.resize(c_out * np, 0.0);
    for co in 0..c_out {
        scratch.tmp[co * np..(co + 1) * np].fill(b[co]);
    }
    timed_sgemm(
        c_out,
        np,
        r,
        w,
        &scratch.cols,
        &mut scratch.tmp,
        &mut scratch.pack,
    );
    for ni in 0..n {
        let out_sample = &mut out[ni * c_out * p..(ni + 1) * c_out * p];
        for co in 0..c_out {
            out_sample[co * p..(co + 1) * p]
                .copy_from_slice(&scratch.tmp[co * np + ni * p..co * np + (ni + 1) * p]);
        }
    }
}

/// The per-sample part of the GEMM convolution backward, from the
/// forward's columns: `cols` is the `R×(N·P)` matrix [`conv2d_forward`]
/// lowered for this batch, so the weight gradient reads each sample's block
/// through [`sample_rows`] instead of lowering the input again.
///
/// Sample `ni`'s parameter-gradient terms go to its record,
/// `records[ni·(c_out + c_out·R)..]`: its `c_out` bias sums (one plane sum
/// each), then its `c_out×R` ∂weights tile, folded from zero.
/// [`conv2d_fold`] adds them to `gw`/`gb`. `records` is resized and fully
/// overwritten. `gin`, when given, must be zeroed by the caller; `None`
/// skips the input gradient — its lowering and its GEMM — for a caller that
/// would discard it.
pub fn conv2d_backward_samples(
    g: &ConvGeom,
    w: &[f32],
    cols: &[f32],
    gout: &[f32],
    mut gin: Option<&mut [f32]>,
    records: &mut Vec<f32>,
    scratch: &mut Scratch,
) {
    let ConvGeom {
        n,
        c_in,
        c_out,
        h,
        w: iw,
        kh,
        kw,
        ph,
        pw,
        oh,
        ow,
    } = *g;
    let (r, p, k2) = (c_in * kh * kw, oh * ow, c_out * kh * kw);
    let stride = c_out + c_out * r;
    records.clear();
    records.resize(n * stride, 0.0);

    // Weights permuted to (ci, (co, ky, kx)) — the A operand of the
    // input-gradient GEMM. Built once per call, reused across samples.
    if gin.is_some() {
        scratch.wperm.clear();
        scratch.wperm.resize(c_in * k2, 0.0);
        for co in 0..c_out {
            for ci in 0..c_in {
                for t in 0..kh * kw {
                    scratch.wperm[ci * k2 + co * kh * kw + t] = w[(co * c_in + ci) * kh * kw + t];
                }
            }
        }
    }

    for (ni, record) in records.chunks_exact_mut(stride).enumerate() {
        let g_sample = &gout[ni * c_out * p..(ni + 1) * c_out * p];
        let (bias_sums, tile) = record.split_at_mut(c_out);

        // Bias gradient: same per-plane sum as the reference.
        for (co, sum) in bias_sums.iter_mut().enumerate() {
            *sum = g_sample[co * p..(co + 1) * p].iter().sum::<f32>();
        }

        // Weight gradient: folded into the zeroed tile — the reference's
        // local `wgrad`, which the fold then adds to `gw`.
        with_im2col_timing(|| sample_rows(cols, r, n, p, ni, &mut scratch.cols));
        timed_sgemm(
            c_out,
            r,
            p,
            g_sample,
            &scratch.cols,
            tile,
            &mut scratch.pack,
        );

        // Input gradient: flipped-kernel GEMM straight into the (zeroed)
        // gradient plane — one fold per element, ordered (co, ky, kx).
        let Some(gin) = gin.as_deref_mut() else {
            continue;
        };
        with_im2col_timing(|| {
            flipped_im2col(
                g_sample,
                c_out,
                oh,
                ow,
                kh,
                kw,
                ph,
                pw,
                h,
                iw,
                &mut scratch.cols,
            )
        });
        timed_sgemm(
            c_in,
            h * iw,
            k2,
            &scratch.wperm,
            &scratch.cols,
            &mut gin[ni * c_in * h * iw..(ni + 1) * c_in * h * iw],
            &mut scratch.pack,
        );
    }
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

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
//! | conv ∂weights | gout `c_out×P`       | forward's cols, block ᵀ `P×R`  | zeros → `gw += Σ`|
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
//! The conv weight-gradient GEMM must land in a zeroed scratch buffer and
//! be *added* to `gw` afterwards: the reference folds a local `wgrad` from
//! zero per sample and then does one `gw += wgrad`, which is not the same
//! float sequence as folding directly on top of `gw`. The dense weight
//! gradient is the opposite case — the reference folds straight onto `gw`,
//! so there the GEMM preloads `C` with the existing values.

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
/// [`conv2d_backward`].
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

/// GEMM convolution backward from the forward's columns: `cols` is the
/// `R×(N·P)` matrix [`conv2d_forward`] lowered for this batch, so the
/// weight gradient reads each sample's block through [`sample_rows`]
/// instead of lowering the input again. `gin`, when given, must be zeroed
/// by the caller; `None` skips the input gradient — its lowering and its
/// GEMM — for a caller that would discard it. `gw`/`gb` are accumulated
/// into (optimizer semantics), bit for bit the same either way.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_backward(
    g: &ConvGeom,
    w: &[f32],
    cols: &[f32],
    gout: &[f32],
    mut gin: Option<&mut [f32]>,
    gw: &mut [f32],
    gb: &mut [f32],
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

    for ni in 0..n {
        let g_sample = &gout[ni * c_out * p..(ni + 1) * c_out * p];

        // Bias gradient: same per-plane sum as the reference.
        for co in 0..c_out {
            gb[co] += g_sample[co * p..(co + 1) * p].iter().sum::<f32>();
        }

        // Weight gradient: fold into a zeroed per-sample buffer, then add —
        // matching the reference's local-wgrad-then-accumulate order.
        with_im2col_timing(|| sample_rows(cols, r, n, p, ni, &mut scratch.cols));
        scratch.tmp.clear();
        scratch.tmp.resize(c_out * r, 0.0);
        timed_sgemm(
            c_out,
            r,
            p,
            g_sample,
            &scratch.cols,
            &mut scratch.tmp,
            &mut scratch.pack,
        );
        for (gwv, &t) in gw.iter_mut().zip(&scratch.tmp) {
            *gwv += t;
        }

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

/// GEMM dense forward: `C` preloaded with bias rows, then `C += X·W`.
/// `out` must hold `n·dout` elements; fully overwritten.
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

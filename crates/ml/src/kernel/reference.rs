//! The preserved naive compute loops — the semantics the fast paths are
//! property-tested against.
//!
//! These are the seed implementations of `Conv2d` / `Dense`
//! forward/backward, lifted out of the layer structs verbatim (same loop
//! nests, same fold orders, same zero-weight / zero-gradient skips). They
//! define the *bit pattern* every other backend must reproduce: the fast
//! padded-plane GEMM paths in [`super::fast`] fold each output element
//! over the same contraction axis in the same ascending order, so for
//! finite inputs their results are bitwise identical (see the
//! bit-exactness notes on [`crate::kernel`]).

use super::ConvGeom;

/// Naive convolution forward: kernel-position-major axpy loops.
/// `out` must hold `n·c_out·oh·ow` elements; it is fully overwritten.
// The seed's loop nest, kept verbatim: its index order is the fold order
// the fast path reproduces.
#[allow(clippy::needless_range_loop)]
pub fn conv2d_forward(g: &ConvGeom, w: &[f32], b: &[f32], input: &[f32], out: &mut [f32]) {
    let ConvGeom {
        n,
        c_in,
        c_out,
        h,
        w: iw,
        kh,
        kw,
        oh,
        ow,
        ..
    } = *g;
    let (ph, pw) = (g.ph as isize, g.pw as isize);
    for ni in 0..n {
        for co in 0..c_out {
            let out_plane = (ni * c_out + co) * oh * ow;
            let bias = b[co];
            out[out_plane..out_plane + oh * ow].fill(bias);
            for ci in 0..c_in {
                let in_plane = (ni * c_in + ci) * h * iw;
                let w_base = (co * c_in + ci) * kh * kw;
                for ky in 0..kh {
                    for kx in 0..kw {
                        let weight = w[w_base + ky * kw + kx];
                        if weight == 0.0 {
                            continue;
                        }
                        // Valid output range for this kernel offset.
                        let dy = ky as isize - ph;
                        let dx = kx as isize - pw;
                        let yo_lo = (-dy).max(0) as usize;
                        let yo_hi = ((h as isize - dy).min(oh as isize)).max(0) as usize;
                        let xo_lo = (-dx).max(0) as usize;
                        let xo_hi = ((iw as isize - dx).min(ow as isize)).max(0) as usize;
                        if xo_hi <= xo_lo {
                            continue;
                        }
                        for yo in yo_lo..yo_hi {
                            let yi = (yo as isize + dy) as usize;
                            let out_row = out_plane + yo * ow;
                            let in_row = in_plane + yi * iw;
                            let o = &mut out[out_row + xo_lo..out_row + xo_hi];
                            let iv = &input[in_row + (xo_lo as isize + dx) as usize
                                ..in_row + (xo_hi as isize + dx) as usize];
                            for (ov, &x) in o.iter_mut().zip(iv) {
                                *ov += weight * x;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Naive convolution backward: interleaved input-gradient axpy and
/// weight-gradient fold per kernel position. `gin` must be zeroed by the
/// caller; `gw`/`gb` are accumulated into (optimizer semantics).
// The seed's loop nest, kept verbatim (see `conv2d_forward`).
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
pub fn conv2d_backward(
    g: &ConvGeom,
    w: &[f32],
    input: &[f32],
    gout: &[f32],
    gin: &mut [f32],
    gw: &mut [f32],
    gb: &mut [f32],
) {
    let ConvGeom {
        n,
        c_in,
        c_out,
        h,
        w: iw,
        kh,
        kw,
        oh,
        ow,
        ..
    } = *g;
    let (ph, pw) = (g.ph as isize, g.pw as isize);
    for ni in 0..n {
        for co in 0..c_out {
            let g_plane = (ni * c_out + co) * oh * ow;
            gb[co] += gout[g_plane..g_plane + oh * ow].iter().sum::<f32>();
            for ci in 0..c_in {
                let in_plane = (ni * c_in + ci) * h * iw;
                let w_base = (co * c_in + ci) * kh * kw;
                for ky in 0..kh {
                    for kx in 0..kw {
                        let dy = ky as isize - ph;
                        let dx = kx as isize - pw;
                        let yo_lo = (-dy).max(0) as usize;
                        let yo_hi = ((h as isize - dy).min(oh as isize)).max(0) as usize;
                        let xo_lo = (-dx).max(0) as usize;
                        let xo_hi = ((iw as isize - dx).min(ow as isize)).max(0) as usize;
                        if xo_hi <= xo_lo {
                            continue;
                        }
                        let weight = w[w_base + ky * kw + kx];
                        let mut wgrad = 0.0f32;
                        for yo in yo_lo..yo_hi {
                            let yi = (yo as isize + dy) as usize;
                            let g_row = g_plane + yo * ow;
                            let in_row = in_plane + yi * iw;
                            let gs = &gout[g_row + xo_lo..g_row + xo_hi];
                            let ilo = (in_row as isize + xo_lo as isize + dx) as usize;
                            let ihi = (in_row as isize + xo_hi as isize + dx) as usize;
                            let ivs = &input[ilo..ihi];
                            let gins = &mut gin[ilo..ihi];
                            for ((giv, &gv), &x) in gins.iter_mut().zip(gs).zip(ivs) {
                                *giv += weight * gv;
                                wgrad += gv * x;
                            }
                        }
                        gw[w_base + ky * kw + kx] += wgrad;
                    }
                }
            }
        }
    }
}

/// Naive dense forward: per-row dot products, `j` ascending, accumulator
/// seeded with the bias. `out` must hold `n·dout` elements; fully
/// overwritten.
pub fn dense_forward(
    n: usize,
    din: usize,
    dout: usize,
    w: &[f32],
    b: &[f32],
    input: &[f32],
    out: &mut [f32],
) {
    for i in 0..n {
        let row = &input[i * din..(i + 1) * din];
        for o in 0..dout {
            let mut acc = b[o];
            for (j, &x) in row.iter().enumerate() {
                acc += x * w[j * dout + o];
            }
            out[i * dout + o] = acc;
        }
    }
}

/// Naive dense backward with the seed's zero-gradient skip. `gin` must be
/// zeroed by the caller; `gw`/`gb` are accumulated into.
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
) {
    for i in 0..n {
        for o in 0..dout {
            let g = gout[i * dout + o];
            if g == 0.0 {
                continue;
            }
            gb[o] += g;
            for j in 0..din {
                gw[j * dout + o] += g * input[i * din + j];
                gin[i * din + j] += g * w[j * dout + o];
            }
        }
    }
}

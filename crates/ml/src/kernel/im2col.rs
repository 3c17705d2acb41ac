//! im2col-family lowerings: reshaping convolution into matrix multiply.
//!
//! # Layouts
//!
//! For a padded convolution with `c` input planes of `h×w`, kernel `kh×kw`,
//! padding `ph×pw` and output grid `oh×ow` (`P = oh·ow` pixels,
//! `R = c·kh·kw` kernel taps):
//!
//! * [`im2col`] builds the **R×P** column matrix: row `(ci, ky, kx)` holds,
//!   for every output pixel `(yo, xo)`, the input value
//!   `input[ci][yo+ky-ph][xo+kx-pw]` (zero where the tap falls in padding).
//!   Forward conv is then `weights(c_out×R) · cols(R×P)`.
//! * [`im2col_batched`] concatenates the per-sample column matrices along
//!   the pixel axis into one **R×(N·P)** matrix (row `r`, sample `ni` at
//!   columns `ni·P..(ni+1)·P`), so a whole batch forward is a *single*
//!   GEMM — the weight panel is packed once instead of once per sample.
//! * [`sample_rows`] transposes one sample's block of the batched matrix
//!   into **P×R**, the `B` operand of that sample's weight-gradient GEMM
//!   `gout(c_out×P) · rows(P×R)`. Training caches the forward's columns,
//!   so the backward pass reads them instead of lowering the input again.
//! * [`flipped_im2col`] lowers the *output* gradient against the flipped
//!   kernel for the input-gradient GEMM: row `(co, ky, kx)`, column
//!   `(yi, xi)` holds `gout[co][yi-ky+ph][xi-kx+pw]` (zero out of range),
//!   so `wperm(c_in×c_out·kh·kw) · cols = grad_input`.
//! * [`col2im`] is the scatter-add adjoint of [`im2col`]; the backward pass
//!   itself uses the flipped-kernel GEMM (one fold per output element keeps
//!   bit-exactness with the reference loops), but the adjoint is what makes
//!   the lowering self-checking: `⟨im2col(x), g⟩ = ⟨x, col2im(g)⟩`.
//!
//! All functions resize their destination buffer and overwrite it fully;
//! scratch reuse across calls is safe.

/// Fills `dst` (a `gh·gw` grid, row-major) with `src[gy+dy][gx+dx]` for every
/// grid cell, writing zero where the shifted index leaves the `sh×sw` source.
/// Valid spans are contiguous in `x`, so each grid row is at most one
/// `copy_from_slice` plus zero fills; a one-column grid (the wide `1×cols`
/// kernel's output) is one strided gather down a source column instead.
#[allow(clippy::too_many_arguments)]
fn shifted_plane(
    src: &[f32],
    sh: usize,
    sw: usize,
    gh: usize,
    gw: usize,
    dy: isize,
    dx: isize,
    dst: &mut [f32],
) {
    debug_assert_eq!(src.len(), sh * sw);
    debug_assert_eq!(dst.len(), gh * gw);
    // gx + dx ∈ [0, sw)  ⇒  gx ∈ [max(0, -dx), min(gw, sw - dx))
    let x_lo = (-dx).max(0).min(gw as isize) as usize;
    let x_hi = (sw as isize - dx).clamp(0, gw as isize) as usize;
    if gw == 1 {
        // gy + dy ∈ [0, sh)  ⇒  gy ∈ [max(0, -dy), min(gh, sh - dy))
        let y_lo = (-dy).max(0).min(gh as isize) as usize;
        let y_hi = (sh as isize - dy).clamp(0, gh as isize) as usize;
        if x_lo >= x_hi || y_lo >= y_hi {
            dst.fill(0.0);
            return;
        }
        dst[..y_lo].fill(0.0);
        let first = (y_lo as isize + dy) as usize * sw + dx as usize;
        for (d, &v) in dst[y_lo..y_hi]
            .iter_mut()
            .zip(src[first..].iter().step_by(sw))
        {
            *d = v;
        }
        dst[y_hi..].fill(0.0);
        return;
    }
    if dx == 0 && gw == sw {
        // Full-width rows (e.g. the dx=0 taps of a same-pad kernel): the
        // valid rows form one contiguous block in both source and
        // destination — a single copy instead of gh row-sized ones.
        let y_lo = (-dy).max(0).min(gh as isize) as usize;
        let y_hi = (sh as isize - dy).clamp(0, gh as isize) as usize;
        dst[..y_lo * gw].fill(0.0);
        if y_lo < y_hi {
            let s0 = (y_lo as isize + dy) as usize * sw;
            dst[y_lo * gw..y_hi * gw].copy_from_slice(&src[s0..s0 + (y_hi - y_lo) * gw]);
        }
        dst[y_hi.max(y_lo) * gw..].fill(0.0);
        return;
    }
    for gy in 0..gh {
        let row = &mut dst[gy * gw..(gy + 1) * gw];
        let sy = gy as isize + dy;
        if sy < 0 || sy >= sh as isize || x_lo >= x_hi {
            row.fill(0.0);
            continue;
        }
        let src_row = &src[sy as usize * sw..(sy as usize + 1) * sw];
        row[..x_lo].fill(0.0);
        let s0 = (x_lo as isize + dx) as usize;
        row[x_lo..x_hi].copy_from_slice(&src_row[s0..s0 + (x_hi - x_lo)]);
        row[x_hi..].fill(0.0);
    }
}

/// Lowers one `c×h×w` sample into the `R×P` column matrix
/// (`R = c·kh·kw`, `P = oh·ow`). `cols` is resized and fully overwritten.
#[allow(clippy::too_many_arguments)]
pub fn im2col(
    input: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    ph: usize,
    pw: usize,
    oh: usize,
    ow: usize,
    cols: &mut Vec<f32>,
) {
    let p = oh * ow;
    cols.clear();
    cols.resize(c * kh * kw * p, 0.0);
    for ci in 0..c {
        let plane = &input[ci * h * w..(ci + 1) * h * w];
        for ky in 0..kh {
            for kx in 0..kw {
                let r = (ci * kh + ky) * kw + kx;
                shifted_plane(
                    plane,
                    h,
                    w,
                    oh,
                    ow,
                    ky as isize - ph as isize,
                    kx as isize - pw as isize,
                    &mut cols[r * p..(r + 1) * p],
                );
            }
        }
    }
}

/// Lowers a whole `n×c×h×w` batch into the `R×(N·P)` column matrix: the
/// per-sample [`im2col`] matrices concatenated along the pixel axis, so
/// row `r` of sample `ni` sits at `cols[r·n·P + ni·P ..][..P]`. Column
/// contents are identical to the per-sample lowering — only the stride
/// changes. `cols` is resized and fully overwritten.
#[allow(clippy::too_many_arguments)]
pub fn im2col_batched(
    input: &[f32],
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    ph: usize,
    pw: usize,
    oh: usize,
    ow: usize,
    cols: &mut Vec<f32>,
) {
    let p = oh * ow;
    let np = n * p;
    cols.clear();
    cols.resize(c * kh * kw * np, 0.0);
    for ni in 0..n {
        let sample = &input[ni * c * h * w..(ni + 1) * c * h * w];
        for ci in 0..c {
            let plane = &sample[ci * h * w..(ci + 1) * h * w];
            for ky in 0..kh {
                for kx in 0..kw {
                    let r = (ci * kh + ky) * kw + kx;
                    shifted_plane(
                        plane,
                        h,
                        w,
                        oh,
                        ow,
                        ky as isize - ph as isize,
                        kx as isize - pw as isize,
                        &mut cols[r * np + ni * p..r * np + (ni + 1) * p],
                    );
                }
            }
        }
    }
}

/// Transposes sample `ni`'s `R×P` block of an [`im2col_batched`] matrix
/// (`cols`, `R×(N·P)`) into the `P×R` row matrix: the `B` operand of that
/// sample's weight-gradient GEMM. Each output row is written contiguously
/// from one column of the block; consecutive rows read the next element of
/// the same `R` source rows, so each source cache line serves several
/// output rows while those `R` lines stay resident. `rows` is resized and
/// fully overwritten.
pub fn sample_rows(cols: &[f32], r_dim: usize, n: usize, p: usize, ni: usize, rows: &mut Vec<f32>) {
    let np = n * p;
    debug_assert_eq!(cols.len(), r_dim * np);
    // Every element is written below, so stale contents need no clearing.
    rows.truncate(p * r_dim);
    rows.resize(p * r_dim, 0.0);
    let block = &cols[ni * p..];
    for (q, row) in rows.chunks_exact_mut(r_dim).enumerate() {
        for (r, v) in row.iter_mut().enumerate() {
            *v = block[r * np + q];
        }
    }
}

/// Lowers one `c_out×oh×ow` output-gradient sample against the *flipped*
/// kernel: the resulting `(c_out·kh·kw)×(h·w)` matrix, multiplied by the
/// `(ci, (co,ky,kx))`-permuted weights, yields the input gradient in a
/// single GEMM. `cols` is resized and fully overwritten.
#[allow(clippy::too_many_arguments)]
pub fn flipped_im2col(
    gout: &[f32],
    c_out: usize,
    oh: usize,
    ow: usize,
    kh: usize,
    kw: usize,
    ph: usize,
    pw: usize,
    h: usize,
    w: usize,
    cols: &mut Vec<f32>,
) {
    let p = h * w;
    cols.clear();
    cols.resize(c_out * kh * kw * p, 0.0);
    for co in 0..c_out {
        let plane = &gout[co * oh * ow..(co + 1) * oh * ow];
        for ky in 0..kh {
            for kx in 0..kw {
                let r = (co * kh + ky) * kw + kx;
                shifted_plane(
                    plane,
                    oh,
                    ow,
                    h,
                    w,
                    ph as isize - ky as isize,
                    pw as isize - kx as isize,
                    &mut cols[r * p..(r + 1) * p],
                );
            }
        }
    }
}

/// Scatter-add adjoint of [`im2col`]: accumulates an `R×P` column matrix
/// back into a `c×h×w` image. `out` must already hold `c·h·w` elements (it
/// is accumulated into, not overwritten).
#[allow(clippy::too_many_arguments)]
pub fn col2im(
    cols: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    ph: usize,
    pw: usize,
    oh: usize,
    ow: usize,
    out: &mut [f32],
) {
    debug_assert_eq!(cols.len(), c * kh * kw * oh * ow);
    debug_assert_eq!(out.len(), c * h * w);
    let p = oh * ow;
    for ci in 0..c {
        let plane = &mut out[ci * h * w..(ci + 1) * h * w];
        for ky in 0..kh {
            for kx in 0..kw {
                let r = (ci * kh + ky) * kw + kx;
                let col_row = &cols[r * p..(r + 1) * p];
                for yo in 0..oh {
                    let yi = (yo + ky) as isize - ph as isize;
                    if yi < 0 || yi >= h as isize {
                        continue;
                    }
                    for xo in 0..ow {
                        let xi = (xo + kx) as isize - pw as isize;
                        if xi < 0 || xi >= w as isize {
                            continue;
                        }
                        plane[yi as usize * w + xi as usize] += col_row[yo * ow + xo];
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tap(input: &[f32], h: usize, w: usize, y: isize, x: isize) -> f32 {
        if y < 0 || x < 0 || y >= h as isize || x >= w as isize {
            0.0
        } else {
            input[y as usize * w + x as usize]
        }
    }

    #[test]
    fn im2col_matches_direct_indexing() {
        // A padded 3×2 kernel, the wide kernel's one-column output grid
        // (strided-gather path), and a padded one-column grid whose edge
        // taps fall in padding.
        for (c, h, w, kh, kw, ph, pw) in [
            (2, 4, 5, 3, 2, 1, 1),
            (2, 4, 5, 1, 5, 0, 0),
            (1, 3, 5, 3, 7, 1, 1),
        ] {
            im2col_case(c, h, w, kh, kw, ph, pw);
        }
    }

    fn im2col_case(c: usize, h: usize, w: usize, kh: usize, kw: usize, ph: usize, pw: usize) {
        let (oh, ow) = (h + 2 * ph + 1 - kh, w + 2 * pw + 1 - kw);
        let input: Vec<f32> = (0..c * h * w).map(|i| i as f32 + 0.5).collect();
        let mut cols = Vec::new();
        im2col(&input, c, h, w, kh, kw, ph, pw, oh, ow, &mut cols);
        for ci in 0..c {
            let plane = &input[ci * h * w..(ci + 1) * h * w];
            for ky in 0..kh {
                for kx in 0..kw {
                    let r = (ci * kh + ky) * kw + kx;
                    for yo in 0..oh {
                        for xo in 0..ow {
                            let want = tap(
                                plane,
                                h,
                                w,
                                (yo + ky) as isize - ph as isize,
                                (xo + kx) as isize - pw as isize,
                            );
                            assert_eq!(
                                cols[r * oh * ow + yo * ow + xo],
                                want,
                                "r={r} yo={yo} xo={xo}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn flipped_im2col_matches_direct_indexing() {
        let (c_out, oh, ow, kh, kw, ph, pw, h, w) = (2, 4, 4, 3, 3, 1, 1, 4, 4);
        let gout: Vec<f32> = (0..c_out * oh * ow).map(|i| i as f32 - 7.0).collect();
        let mut cols = Vec::new();
        flipped_im2col(&gout, c_out, oh, ow, kh, kw, ph, pw, h, w, &mut cols);
        for co in 0..c_out {
            let plane = &gout[co * oh * ow..(co + 1) * oh * ow];
            for ky in 0..kh {
                for kx in 0..kw {
                    let r = (co * kh + ky) * kw + kx;
                    for yi in 0..h {
                        for xi in 0..w {
                            let want = tap(
                                plane,
                                oh,
                                ow,
                                yi as isize - ky as isize + ph as isize,
                                xi as isize - kx as isize + pw as isize,
                            );
                            assert_eq!(cols[r * h * w + yi * w + xi], want);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // ⟨im2col(x), g⟩ must equal ⟨x, col2im(g)⟩ for the pair to be a
        // genuine linear-operator adjoint.
        let (c, h, w, kh, kw, ph, pw) = (2, 3, 4, 3, 3, 1, 1);
        let (oh, ow) = (h + 2 * ph + 1 - kh, w + 2 * pw + 1 - kw);
        let x: Vec<f32> = (0..c * h * w).map(|i| (i % 7) as f32 - 3.0).collect();
        let g: Vec<f32> = (0..c * kh * kw * oh * ow)
            .map(|i| (i % 5) as f32 - 2.0)
            .collect();
        let mut cols = Vec::new();
        im2col(&x, c, h, w, kh, kw, ph, pw, oh, ow, &mut cols);
        let lhs: f64 = cols.iter().zip(&g).map(|(&a, &b)| (a * b) as f64).sum();
        let mut back = vec![0.0f32; c * h * w];
        col2im(&g, c, h, w, kh, kw, ph, pw, oh, ow, &mut back);
        let rhs: f64 = x.iter().zip(&back).map(|(&a, &b)| (a * b) as f64).sum();
        assert!((lhs - rhs).abs() < 1e-6, "lhs={lhs} rhs={rhs}");
    }

    #[test]
    fn im2col_batched_concatenates_per_sample_matrices() {
        let (n, c, h, w, kh, kw, ph, pw) = (3, 2, 4, 5, 3, 2, 1, 1);
        let (oh, ow) = (h + 2 * ph + 1 - kh, w + 2 * pw + 1 - kw);
        let p = oh * ow;
        let input: Vec<f32> = (0..n * c * h * w).map(|i| (i as f32).cos()).collect();
        let mut batched = Vec::new();
        im2col_batched(&input, n, c, h, w, kh, kw, ph, pw, oh, ow, &mut batched);
        let r_dim = c * kh * kw;
        assert_eq!(batched.len(), r_dim * n * p);
        let mut single = Vec::new();
        for ni in 0..n {
            im2col(
                &input[ni * c * h * w..(ni + 1) * c * h * w],
                c,
                h,
                w,
                kh,
                kw,
                ph,
                pw,
                oh,
                ow,
                &mut single,
            );
            for r in 0..r_dim {
                assert_eq!(
                    &batched[r * n * p + ni * p..r * n * p + (ni + 1) * p],
                    &single[r * p..(r + 1) * p],
                    "sample {ni} row {r}"
                );
            }
        }
    }

    #[test]
    fn kernel_larger_than_input_with_padding_still_lowers() {
        // 1×2×2 input, 3×3 kernel, pad 1 → 2×2 output, every tap partly in
        // padding.
        let input = [1.0f32, 2.0, 3.0, 4.0];
        let mut cols = Vec::new();
        im2col(&input, 1, 2, 2, 3, 3, 1, 1, 2, 2, &mut cols);
        assert_eq!(cols.len(), 9 * 4);
        // Center tap (ky=1, kx=1) sees the image unshifted.
        let r = 4;
        assert_eq!(&cols[r * 4..(r + 1) * 4], &input);
    }
}

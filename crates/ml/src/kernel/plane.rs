//! Padded planes: the one copy of a convolution's input its GEMMs read.
//!
//! A stride-1 convolution over a zero-padded plane needs no column matrix.
//! Lay each channel of the batch out once, with its padding as real zeros,
//! and the GEMM's `B` row for kernel tap `(dy, dx)` is just the plane read
//! from a per-tap offset: output cell `j` of that row is the source pixel
//! `(gy + dy, gx + dx)` of cell `j`'s grid position `(gy, gx)`.
//! [`super::sgemm::sgemm_rows`] multiplies by such a view directly.
//!
//! # Layout
//!
//! One channel of an `n`-sample batch is a grid of rows of `pitch` values.
//! Each row holds, side by side, the same source row of every sample, each
//! followed by `gap` zeros; `top` zero rows come before the first source
//! row and `bottom` after the last, and `gap` leading zeros let the first
//! tap read left of the top-left corner:
//!
//! ```text
//! [gap zeros]
//! top × [ 0 … 0 | 0 … 0 | … ]                    (pitch = n·(sw + gap))
//! sh  × [ s₀ row, gap zeros | s₁ row, gap zeros | … ]
//! bottom × [ 0 … 0 | 0 … 0 | … ]
//! ```
//!
//! A tap that reads past a sample's right edge lands in that sample's gap;
//! one that reads left of it lands in the previous sample's gap, or the
//! previous row's last one; one above or below lands in the zero rows. The
//! gap and zero-row counts are the smallest that make every valid output
//! cell read its tap or a zero. Cells between samples are computed too and
//! dropped by [`PlaneLayout::scatter`].
//!
//! A one-column output grid (the wide `1×cols` kernel) would leave all
//! but one column per sample of that grid idle, so that case stores the
//! plane *transposed* — source columns as rows, a strided gather to build —
//! and its grid becomes one dense row per batch.
//!
//! # Uses
//!
//! * conv forward: the input plane, taps `(ky − ph, kx − pw)` ordered
//!   `(ci, ky, kx)`, output grid `oh×ow`;
//! * conv ∂input: the output-gradient plane, taps `(ph − ky, pw − kx)` —
//!   the flipped kernel — ordered `(co, ky, kx)`, output grid `h×w`;
//! * conv ∂weights: each sample's `P×R` operand, gathered from the
//!   forward's input plane by [`PlaneLayout::gather`].

use super::ConvGeom;

/// Where one channel of an `n`-sample batch sits in a padded plane, and
/// where the output grid's cells sit in the GEMM's columns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlaneLayout {
    /// Samples in the batch.
    n: usize,
    /// Source extent `(rows, cols)` of one sample's channel.
    src: (usize, usize),
    /// Output grid extent `(rows, cols)` of one sample's channel.
    grid: (usize, usize),
    /// Source columns are stored as rows (one-column grids).
    transposed: bool,
    /// Values per stored row.
    pitch: usize,
    /// Distance between two samples' origins along a stored row.
    sample: usize,
    /// Index of sample 0's source `(0, 0)` within a channel plane.
    origin: usize,
    /// Values per channel plane.
    len: usize,
    /// GEMM columns: one past the last valid output cell.
    span: usize,
}

impl PlaneLayout {
    /// The layout of `n` samples of `src` rows×cols, read at every tap
    /// shift `dy ∈ [dy.0, dy.1]`, `dx ∈ [dx.0, dx.1]` to produce a `grid`
    /// rows×cols output.
    pub fn new(
        n: usize,
        src: (usize, usize),
        grid: (usize, usize),
        dy: (isize, isize),
        dx: (isize, isize),
    ) -> Self {
        let transposed = grid.1 == 1 && grid.0 > 1;
        let swap = |p: (usize, usize)| if transposed { (p.1, p.0) } else { p };
        let ((su, sv), (gu, gv)) = (swap(src), swap(grid));
        let (du, dv) = if transposed { (dx, dy) } else { (dy, dx) };
        let (su, sv, gu, gv) = (su as isize, sv as isize, gu as isize, gv as isize);
        // Left reach into the gap before a sample, right reach past its
        // last column, and room for the grid's columns between samples.
        let gap = 0.max(-dv.0).max(gv + dv.1 - sv).max(gv - sv) as usize;
        let top = 0.max(-du.0) as usize;
        let bottom = 0.max(gu + du.1 - su) as usize;
        let (su, sv, gu, gv) = (su as usize, sv as usize, gu as usize, gv as usize);
        let sample = sv + gap;
        let pitch = n * sample;
        let origin = gap + top * pitch;
        PlaneLayout {
            n,
            src,
            grid,
            transposed,
            pitch,
            sample,
            origin,
            len: origin + (su + bottom) * pitch,
            span: if n == 0 {
                0
            } else {
                (gu - 1) * pitch + (n - 1) * sample + gv
            },
        }
    }

    /// The conv forward's input plane: source `h×w`, grid `oh×ow`, taps
    /// `(ky − ph, kx − pw)`.
    pub fn conv_input(g: &ConvGeom) -> Self {
        let (ph, pw) = (g.ph as isize, g.pw as isize);
        PlaneLayout::new(
            g.n,
            (g.h, g.w),
            (g.oh, g.ow),
            (-ph, g.kh as isize - 1 - ph),
            (-pw, g.kw as isize - 1 - pw),
        )
    }

    /// The conv ∂input's output-gradient plane: source `oh×ow`, grid
    /// `h×w`, flipped taps `(ph − ky, pw − kx)`.
    pub fn conv_grad_out(g: &ConvGeom) -> Self {
        let (ph, pw) = (g.ph as isize, g.pw as isize);
        PlaneLayout::new(
            g.n,
            (g.oh, g.ow),
            (g.h, g.w),
            (ph + 1 - g.kh as isize, ph),
            (pw + 1 - g.kw as isize, pw),
        )
    }

    /// Values per channel plane.
    pub fn channel_len(&self) -> usize {
        self.len
    }

    /// GEMM columns of the output grid: the `n` of the view GEMM.
    pub fn span(&self) -> usize {
        self.span
    }

    /// Row-view offset of the tap that shifts by `(dy, dx)`, from the
    /// start of a channel plane.
    pub fn tap(&self, dy: isize, dx: isize) -> usize {
        let (du, dv) = if self.transposed { (dx, dy) } else { (dy, dx) };
        (self.origin as isize + du * self.pitch as isize + dv) as usize
    }

    /// GEMM column of sample `ni`'s output cell `(gy, gx)`. Source pixel
    /// `(y, x)` sits at `origin + cell(ni, y, x)` of its channel plane.
    pub fn cell(&self, ni: usize, gy: usize, gx: usize) -> usize {
        let (u, v) = if self.transposed { (gx, gy) } else { (gy, gx) };
        u * self.pitch + ni * self.sample + v
    }

    /// Lays out the `n×c×rows×cols` NCHW batch `src` as `c` padded
    /// channel planes, one after another. `plane` is resized and fully
    /// overwritten.
    pub fn fill(&self, src: &[f32], c: usize, plane: &mut Vec<f32>) {
        let (sh, sw) = self.src;
        debug_assert_eq!(src.len(), self.n * c * sh * sw);
        plane.clear();
        plane.resize(c * self.len, 0.0);
        for (ci, dst) in plane.chunks_exact_mut(self.len.max(1)).enumerate() {
            for ni in 0..self.n {
                let s = &src[(ni * c + ci) * sh * sw..][..sh * sw];
                if self.transposed {
                    // Source column x is stored row x: a strided gather.
                    for x in 0..sw {
                        let d = &mut dst[self.origin + self.cell(ni, 0, x)..][..sh];
                        for (dv, &sv) in d.iter_mut().zip(s[x..].iter().step_by(sw)) {
                            *dv = sv;
                        }
                    }
                } else {
                    for (y, row) in s.chunks_exact(sw).enumerate() {
                        dst[self.origin + self.cell(ni, y, 0)..][..sw].copy_from_slice(row);
                    }
                }
            }
        }
    }

    /// Row-view offsets for taps ordered `(ch, ky, kx)` over `c` channel
    /// planes: channel `ch`'s plane starts at `ch·len`, and `shift(ky, kx)`
    /// gives the tap's `(dy, dx)`. `offsets` is resized and overwritten.
    pub fn taps(
        &self,
        c: usize,
        kh: usize,
        kw: usize,
        shift: impl Fn(usize, usize) -> (isize, isize),
        offsets: &mut Vec<usize>,
    ) {
        offsets.clear();
        for ch in 0..c {
            for ky in 0..kh {
                for kx in 0..kw {
                    let (dy, dx) = shift(ky, kx);
                    offsets.push(ch * self.len + self.tap(dy, dx));
                }
            }
        }
    }

    /// Copies the valid cells of a `c×span` GEMM result into the
    /// `n×c×rows×cols` NCHW `out`, which is fully overwritten.
    pub fn scatter(&self, grid: &[f32], c: usize, out: &mut [f32]) {
        let (gh, gw) = self.grid;
        debug_assert_eq!(grid.len(), c * self.span);
        debug_assert_eq!(out.len(), self.n * c * gh * gw);
        for (plane_ix, dst) in out.chunks_exact_mut(gh * gw).enumerate() {
            let (ni, ch) = (plane_ix / c, plane_ix % c);
            let src = &grid[ch * self.span..][..self.span];
            if self.transposed {
                for gx in 0..gw {
                    let s = &src[self.cell(ni, 0, gx)..][..gh];
                    for (dv, &sv) in dst[gx..].iter_mut().step_by(gw).zip(s) {
                        *dv = sv;
                    }
                }
            } else {
                for (gy, row) in dst.chunks_exact_mut(gw).enumerate() {
                    row.copy_from_slice(&src[self.cell(ni, gy, 0)..][..gw]);
                }
            }
        }
    }

    /// Sample `ni`'s `P×R` tap matrix (`P = rows·cols` output cells in
    /// row-major order, `R = offsets.len()` taps): row `q` holds what
    /// every tap reads for cell `q` — the `B` operand of that sample's
    /// ∂weights GEMM. `rows` is resized and fully overwritten.
    pub fn gather(&self, plane: &[f32], offsets: &[usize], ni: usize, rows: &mut Vec<f32>) {
        let (gh, gw) = self.grid;
        let r = offsets.len();
        // Every element is written below, so stale contents need no clearing.
        rows.truncate(gh * gw * r);
        rows.resize(gh * gw * r, 0.0);
        if r == 0 {
            return;
        }
        for (q, dst) in rows.chunks_exact_mut(r).enumerate() {
            let cell = self.cell(ni, q / gw, q % gw);
            for (d, &o) in dst.iter_mut().zip(offsets) {
                *d = plane[o + cell];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The source value a tap reads, or zero in the padding.
    fn tap(src: &[f32], h: usize, w: usize, y: isize, x: isize) -> f32 {
        if y < 0 || x < 0 || y >= h as isize || x >= w as isize {
            0.0
        } else {
            src[y as usize * w + x as usize]
        }
    }

    /// Every valid cell of every tap view reads its source pixel or zero.
    fn check(
        n: usize,
        c: usize,
        src: (usize, usize),
        grid: (usize, usize),
        dy: (isize, isize),
        dx: (isize, isize),
    ) {
        let layout = PlaneLayout::new(n, src, grid, dy, dx);
        let (sh, sw) = src;
        let input: Vec<f32> = (0..n * c * sh * sw).map(|i| i as f32 + 1.0).collect();
        // Stale contents prove the plane is fully overwritten.
        let mut plane = vec![f32::NAN; 3 * c * layout.channel_len() + 5];
        layout.fill(&input, c, &mut plane);
        assert_eq!(plane.len(), c * layout.channel_len());
        for ci in 0..c {
            for y0 in dy.0..=dy.1 {
                for x0 in dx.0..=dx.1 {
                    let off = ci * layout.channel_len() + layout.tap(y0, x0);
                    assert!(off + layout.span() <= plane.len(), "view in bounds");
                    for ni in 0..n {
                        let s = &input[(ni * c + ci) * sh * sw..][..sh * sw];
                        for gy in 0..grid.0 {
                            for gx in 0..grid.1 {
                                let want = tap(s, sh, sw, gy as isize + y0, gx as isize + x0);
                                let got = plane[off + layout.cell(ni, gy, gx)];
                                assert_eq!(
                                    got, want,
                                    "n{ni} c{ci} tap ({y0},{x0}) cell ({gy},{gx})"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn forward_views_match_direct_indexing() {
        // Same-padded 3×3, the wide (one-column grid, transposed plane)
        // and long kernels, a 1×1, and padding wider than the kernel.
        check(3, 2, (5, 4), (5, 4), (-1, 1), (-1, 1));
        check(2, 1, (6, 5), (6, 1), (0, 0), (0, 4));
        check(2, 1, (6, 5), (1, 5), (0, 5), (0, 0));
        check(1, 3, (2, 3), (2, 3), (0, 0), (0, 0));
        check(2, 1, (2, 2), (6, 4), (-2, -2), (-1, -1));
    }

    #[test]
    fn flipped_views_match_direct_indexing() {
        // The ∂input views of the wide, long and square kernels, and of a
        // padding wider than the kernel (a crop: every shift positive).
        let (wide, long) = ((6, 1), (1, 5));
        check(2, 2, wide, (6, 5), (0, 0), (-4, 0));
        check(2, 2, long, (6, 5), (-5, 0), (0, 0));
        check(3, 2, (5, 4), (5, 4), (-1, 1), (-1, 1));
        check(2, 1, (6, 4), (2, 2), (2, 2), (1, 1));
    }

    #[test]
    fn kernel_larger_than_input_with_padding_still_lays_out() {
        // A 1×1 input under a 5×5 kernel with pad 2: one output cell whose
        // taps are all padding but the centre.
        check(1, 2, (1, 1), (1, 1), (-2, 2), (-2, 2));
        let layout = PlaneLayout::new(1, (1, 1), (1, 1), (-2, 2), (-2, 2));
        let mut plane = Vec::new();
        layout.fill(&[7.0], 1, &mut plane);
        assert_eq!(plane[layout.tap(0, 0)], 7.0);
        assert_eq!(plane.iter().filter(|&&v| v != 0.0).count(), 1);
    }

    #[test]
    fn batched_views_match_per_sample_views() {
        // Stacking samples side by side changes where a cell sits, never
        // what it reads: sample `ni`'s cells in the batched plane hold what
        // the same cells hold in a one-sample plane of that sample alone.
        let (n, c, src, grid, dy, dx) = (3, 2, (4, 5), (4, 4), (-1, 1), (-1, 2));
        let batched = PlaneLayout::new(n, src, grid, dy, dx);
        let single = PlaneLayout::new(1, src, grid, dy, dx);
        let input: Vec<f32> = (0..n * c * 20).map(|i| (i as f32).cos()).collect();
        let (mut all, mut one) = (Vec::new(), Vec::new());
        batched.fill(&input, c, &mut all);
        for ni in 0..n {
            single.fill(&input[ni * c * 20..][..c * 20], c, &mut one);
            for ci in 0..c {
                for (y0, x0) in [(-1, -1), (0, 2), (1, 0)] {
                    for gy in 0..grid.0 {
                        for gx in 0..grid.1 {
                            let a = all[ci * batched.channel_len()
                                + batched.tap(y0, x0)
                                + batched.cell(ni, gy, gx)];
                            let b = one[ci * single.channel_len()
                                + single.tap(y0, x0)
                                + single.cell(0, gy, gx)];
                            assert_eq!(a, b, "n{ni} c{ci} tap ({y0},{x0}) cell ({gy},{gx})");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn one_column_grids_store_the_plane_transposed() {
        let wide = PlaneLayout::new(4, (20, 12), (20, 1), (0, 0), (0, 11));
        assert!(wide.transposed);
        // The grid is one dense row: 20 cells per sample, no gaps.
        assert_eq!(wide.span(), 4 * 20);
        let long = PlaneLayout::new(4, (20, 12), (1, 12), (0, 19), (0, 0));
        assert!(!long.transposed);
        assert_eq!(long.span(), 4 * 12);
        let one = PlaneLayout::new(4, (20, 1), (20, 1), (0, 0), (0, 0));
        assert_eq!(one.span(), 4 * 20);
    }

    #[test]
    fn scatter_keeps_valid_cells_only() {
        for (src, grid, dy, dx) in [
            ((4, 5), (4, 5), (-1, 1), (-1, 1)),
            ((4, 5), (4, 1), (0, 0), (0, 4)),
        ] {
            let (n, c) = (3, 2);
            let layout = PlaneLayout::new(n, src, grid, dy, dx);
            let values: Vec<f32> = (0..c * layout.span()).map(|i| i as f32).collect();
            let mut out = vec![f32::NAN; n * c * grid.0 * grid.1];
            layout.scatter(&values, c, &mut out);
            for ni in 0..n {
                for ch in 0..c {
                    for gy in 0..grid.0 {
                        for gx in 0..grid.1 {
                            let got = out[((ni * c + ch) * grid.0 + gy) * grid.1 + gx];
                            let want = values[ch * layout.span() + layout.cell(ni, gy, gx)];
                            assert_eq!(got, want);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn empty_batch_lays_out_nothing() {
        let layout = PlaneLayout::new(0, (3, 3), (3, 3), (-1, 1), (-1, 1));
        assert_eq!(layout.span(), 0);
        let mut plane = vec![1.0];
        layout.fill(&[], 2, &mut plane);
        assert!(plane.iter().all(|&v| v == 0.0));
    }
}

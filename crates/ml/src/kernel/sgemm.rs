//! Blocked f32 GEMM: `C += A · B` with packed A panels and an MR×NR
//! register micro-kernel.
//!
//! # Blocking scheme
//!
//! * **A is packed** into strips of [`MR`] rows, transposed so the
//!   micro-kernel reads `MR` values per `k`-step from one contiguous
//!   cache line (`pack[strip][p·MR + i] = A[i₀+i][p]`). Ragged strips are
//!   zero-padded; the padded rows produce all-zero accumulators that are
//!   never written back.
//! * **B is read in place.** The `n` axis is walked in [`NC`]-wide
//!   blocks, and every A strip runs over a block before the next block
//!   starts, so the block stays cache-resident across strips; the
//!   micro-kernel reads its `NR` values per `k`-step straight from `B`'s
//!   rows. Where a row starts is the caller's: `p·n` for a dense matrix
//!   ([`sgemm`]), an offset table for a view ([`sgemm_rows`]) whose rows
//!   are shifted windows of one buffer. Repacking full panels k-major was
//!   measured slower on every shape CommCNN runs — conv forward, ∂weights
//!   and ∂input, dense layers,
//!   2 to 8 strips: by 7–39 % per GEMM on a 2-vCPU x86-64 VM at the
//!   baseline target — because `k` is small and a block's rows are few
//!   enough to stay cached either way. A ragged right edge
//!   (fewer than `NR` columns left) is packed, zero-padded to a full
//!   panel, so it runs through the same micro-kernel; the padded lanes fold
//!   zeros and are never written back.
//! * **No k-blocking.** Each output element is one flat left-fold over the
//!   *entire* `k` dimension, in ascending order, starting from the value
//!   already in `C`. Splitting `k` into cache panels would re-associate
//!   the floating-point sum and break the bit-exactness contract with
//!   [`super::reference`] (see the module docs of [`crate::kernel`]). The
//!   CommCNN workload keeps `k ≤ c_in·kh·kw` or `k ≤` batch size — at most
//!   a few hundred — so every A panel fits in L1/L2 anyway and k-blocking
//!   would buy nothing.
//!
//! The micro-kernel is plain safe Rust (the workspace has no `unsafe`):
//! fixed-size local arrays keep the MR×NR accumulator
//! block in vector registers, and slice-to-array copies give LLVM
//! bounds-check-free, vectorizable inner loops.

/// Rows per packed A strip (register-block height).
pub const MR: usize = 4;
/// Columns per B tile (register-block width).
pub const NR: usize = 16;
/// Columns per B block (cache-block width, a multiple of [`NR`]): a
/// `k×NC` block at the workload's largest `k` (~100s) stays within L2.
pub const NC: usize = 256;

/// `C += A · B` for row-major slices: `A` is `m×k`, `B` is `k×n`, `C` is
/// `m×n`. `pack` is the caller's reusable packing buffer (grown on demand,
/// contents overwritten).
///
/// Accumulation per element is a single left-fold over `k` in ascending
/// order seeded with the existing `C` value — callers preload `C` with the
/// bias (forward) or the running gradient (backward) to fold initialization
/// into the kernel without an extra pass.
///
/// This is the dense case of [`sgemm_rows`]: row `p` of `B` starts at
/// `b[p·n]`.
pub fn sgemm(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    pack: &mut Vec<f32>,
) {
    assert_eq!(b.len(), k * n, "B must be k×n");
    gemm(m, n, k, a, b, |p| p * n, c, pack);
}

/// `C += A · B` where `B` is a *view*: row `p` of the `k×n` operand is
/// `base[offsets[p]..offsets[p] + n]`. Rows may overlap, repeat or sit in
/// any order, so a convolution reads its taps as shifted windows of one
/// padded plane instead of a materialised column matrix. Same fold, same
/// blocking and same bits as [`sgemm`] on the materialised `B`.
#[allow(clippy::too_many_arguments)]
pub fn sgemm_rows(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    base: &[f32],
    offsets: &[usize],
    c: &mut [f32],
    pack: &mut Vec<f32>,
) {
    assert_eq!(offsets.len(), k, "B must have k rows");
    assert!(
        n == 0 || offsets.iter().all(|&o| o + n <= base.len()),
        "every B row must lie inside its base"
    );
    gemm(m, n, k, a, base, |p| offsets[p], c, pack);
}

/// The blocked GEMM over a `B` whose row `p` starts at `base[row(p)]`.
#[allow(clippy::too_many_arguments)]
fn gemm(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    base: &[f32],
    row: impl Fn(usize) -> usize,
    c: &mut [f32],
    pack: &mut Vec<f32>,
) {
    assert_eq!(a.len(), m * k, "A must be m×k");
    assert_eq!(c.len(), m * n, "C must be m×n");
    if m == 0 || n == 0 || k == 0 {
        return;
    }

    // A panels at the front of `pack`, the zero-padded ragged B panel (if
    // any) after them. `NC` is a multiple of `NR`, so only the last block
    // can be ragged.
    let strips = m.div_ceil(MR);
    let a_len = strips * MR * k;
    let ragged_len = if n.is_multiple_of(NR) { 0 } else { k * NR };
    pack_a(m, k, a, pack);
    pack.resize(a_len + ragged_len, 0.0);
    let (apack, ragged_panel) = pack.split_at_mut(a_len);

    let mut jc = 0;
    while jc < n {
        let nb = NC.min(n - jc);
        let full = nb / NR;
        let ragged = nb % NR;
        if ragged > 0 {
            let jt = jc + full * NR;
            for (p, dst) in ragged_panel.chunks_exact_mut(NR).enumerate() {
                let src = row(p) + jt;
                dst[..ragged].copy_from_slice(&base[src..src + ragged]);
                dst[ragged..].fill(0.0);
            }
        }

        for (s, a_strip) in apack.chunks_exact(MR * k).enumerate() {
            let i0 = s * MR;
            let rows = MR.min(m - i0);

            for t in 0..full {
                let jt = jc + t * NR;
                let mut acc = load_tile(c, n, i0, rows, jt, NR);
                micro_tile_rows(a_strip, base, &row, jt, &mut acc);
                store_tile(&acc, c, n, i0, rows, jt, NR);
            }
            if ragged > 0 {
                let jt = jc + full * NR;
                let mut acc = load_tile(c, n, i0, rows, jt, ragged);
                micro_tile_packed(a_strip, ragged_panel, &mut acc);
                store_tile(&acc, c, n, i0, rows, jt, ragged);
            }
        }
        jc += nb;
    }
}

/// Loads the `rows × width` block of `C` at `(i0, jt)` into a zeroed
/// register tile: the fold starts from the value already in `C`.
#[inline(always)]
fn load_tile(
    c: &[f32],
    n: usize,
    i0: usize,
    rows: usize,
    jt: usize,
    width: usize,
) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for (i, row) in acc.iter_mut().enumerate().take(rows) {
        row[..width].copy_from_slice(&c[(i0 + i) * n + jt..(i0 + i) * n + jt + width]);
    }
    acc
}

/// Stores the tile's `rows × width` live block back to `C`.
#[inline(always)]
fn store_tile(
    acc: &[[f32; NR]; MR],
    c: &mut [f32],
    n: usize,
    i0: usize,
    rows: usize,
    jt: usize,
    width: usize,
) {
    for (i, row) in acc.iter().enumerate().take(rows) {
        c[(i0 + i) * n + jt..(i0 + i) * n + jt + width].copy_from_slice(&row[..width]);
    }
}

/// Rank-1 update of the MR×NR accumulator block for one `k`-step.
#[inline(always)]
fn rank1(ap: &[f32], bv: &[f32; NR], acc: &mut [[f32; NR]; MR]) {
    let mut av = [0.0f32; MR];
    av.copy_from_slice(ap);
    for (row, &ai) in acc.iter_mut().zip(&av) {
        for (cv, &bj) in row.iter_mut().zip(bv) {
            *cv += ai * bj;
        }
    }
}

/// The register micro-kernel over the packed ragged B panel: both operands
/// stream contiguously, so the whole k-loop is bounds-check free
/// (`chunks_exact` on both sides). Strictly ascending `k`.
#[inline]
fn micro_tile_packed(a_strip: &[f32], panel: &[f32], acc: &mut [[f32; NR]; MR]) {
    for (ap, bp) in a_strip.chunks_exact(MR).zip(panel.chunks_exact(NR)) {
        let mut bv = [0.0f32; NR];
        bv.copy_from_slice(bp);
        rank1(ap, &bv, acc);
    }
}

/// The register micro-kernel reading B in place: NR values per `k`-step at
/// `base[row(p) + jt..]`. Strictly ascending `k`, the same rank-1 updates
/// as [`micro_tile_packed`].
#[inline]
fn micro_tile_rows(
    a_strip: &[f32],
    base: &[f32],
    row: &impl Fn(usize) -> usize,
    jt: usize,
    acc: &mut [[f32; NR]; MR],
) {
    for (p, ap) in a_strip.chunks_exact(MR).enumerate() {
        let src = row(p) + jt;
        let mut bv = [0.0f32; NR];
        bv.copy_from_slice(&base[src..src + NR]);
        rank1(ap, &bv, acc);
    }
}

/// Packs A into zero-padded MR-row strips, k-major within a strip.
fn pack_a(m: usize, k: usize, a: &[f32], pack: &mut Vec<f32>) {
    let strips = m.div_ceil(MR);
    pack.clear();
    pack.resize(strips * MR * k, 0.0);
    for (s, dst) in pack.chunks_exact_mut(MR * k).enumerate() {
        let rows = MR.min(m - s * MR);
        // `resize` only zeroes freshly grown tail; ragged strips must not
        // inherit stale values from a previous, larger call.
        if rows < MR {
            dst.fill(0.0);
        }
        for i in 0..rows {
            let src = &a[(s * MR + i) * k..(s * MR + i + 1) * k];
            for (p, &v) in src.iter().enumerate() {
                dst[p * MR + i] = v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook triple loop, k ascending — the fold `sgemm` must match
    /// bit for bit.
    fn naive(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        for i in 0..m {
            for j in 0..n {
                let mut acc = c[i * n + j];
                for p in 0..k {
                    acc += a[i * k + p] * b[p * n + j];
                }
                c[i * n + j] = acc;
            }
        }
    }

    fn pseudo(seed: &mut u64) -> f32 {
        // Deterministic splitmix-style values in roughly [-2, 2).
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (((*seed >> 33) as u32) as f32 / u32::MAX as f32) * 4.0 - 2.0
    }

    fn check(m: usize, n: usize, k: usize) {
        let mut s = (m * 131 + n * 17 + k + 1) as u64;
        let a: Vec<f32> = (0..m * k).map(|_| pseudo(&mut s)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| pseudo(&mut s)).collect();
        let c0: Vec<f32> = (0..m * n).map(|_| pseudo(&mut s)).collect();

        let mut fast = c0.clone();
        let mut pack = Vec::new();
        sgemm(m, n, k, &a, &b, &mut fast, &mut pack);
        let mut slow = c0;
        naive(m, n, k, &a, &b, &mut slow);
        for (i, (x, y)) in fast.iter().zip(&slow).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "({m}×{k}·{k}×{n}) diverged at {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn matches_naive_bitwise_across_shapes() {
        // Multiples of the block, ragged edges, degenerate dims, m=1 rows.
        for &(m, n, k) in &[
            (4, 16, 8),
            (8, 32, 4),
            (5, 17, 9),
            (3, 1, 7),
            (1, 40, 3),
            (13, 19, 1),
            (2, 15, 21),
            (24, 480, 108),
            (1, 3, 736),
            (7, 33, 64),
            // Several NC blocks, the last one ragged.
            (5, 300, 7),
            (9, 529, 13),
        ] {
            check(m, n, k);
        }
    }

    /// `sgemm_rows` over `offsets` into `base` against `sgemm` over the
    /// same rows copied out into a dense `k×n` matrix.
    fn check_rows(m: usize, n: usize, k: usize, base_len: usize, offsets: &[usize]) {
        let mut s = (m * 7 + n * 31 + k * 3 + base_len) as u64;
        let a: Vec<f32> = (0..m * k).map(|_| pseudo(&mut s)).collect();
        let base: Vec<f32> = (0..base_len).map(|_| pseudo(&mut s)).collect();
        let c0: Vec<f32> = (0..m * n).map(|_| pseudo(&mut s)).collect();
        let dense: Vec<f32> = offsets
            .iter()
            .flat_map(|&o| base[o..o + n].iter().copied())
            .collect();

        let mut pack = Vec::new();
        let mut want = c0.clone();
        sgemm(m, n, k, &a, &dense, &mut want, &mut pack);
        let mut got = c0;
        sgemm_rows(m, n, k, &a, &base, offsets, &mut got, &mut pack);
        for (i, (x, y)) in got.iter().zip(&want).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "({m}×{k}·{k}×{n}) element {i}");
        }
    }

    #[test]
    fn row_views_match_the_materialised_operand_bitwise() {
        // Dense rows (offset p·n).
        let dense: Vec<usize> = (0..9).map(|p| p * 40).collect();
        check_rows(5, 40, 9, 9 * 40, &dense);
        // Overlapping shifted windows at arbitrary offsets, out of order
        // and repeated; a ragged NR edge (n = 37).
        check_rows(3, 37, 6, 200, &[0, 1, 13, 2, 163, 13]);
        // Several NC blocks, the last one ragged, windows one apart: the
        // layout a 1×k kernel reads.
        let shifted: Vec<usize> = (0..7).map(|p| p * 3 + 1).collect();
        check_rows(6, 2 * NC + 21, 7, 2 * NC + 60, &shifted);
        // Fewer columns than one tile.
        check_rows(4, 5, 3, 12, &[7, 0, 3]);
    }

    #[test]
    #[should_panic(expected = "inside its base")]
    fn a_row_past_the_base_is_refused() {
        let mut c = vec![0.0f32; 4];
        sgemm_rows(
            1,
            4,
            2,
            &[1.0, 1.0],
            &[0.0; 8],
            &[0, 5],
            &mut c,
            &mut Vec::new(),
        );
    }

    #[test]
    fn degenerate_dims_are_noops() {
        let mut pack = Vec::new();
        let mut c = vec![1.5f32; 6];
        sgemm(0, 3, 4, &[], &[0.0; 12], &mut [], &mut pack);
        sgemm(2, 3, 0, &[], &[], &mut c, &mut pack);
        assert!(c.iter().all(|&v| v == 1.5));
    }

    #[test]
    fn accumulates_on_top_of_c() {
        // C preloaded with bias must end at bias + A·B.
        let a = [1.0f32, 2.0];
        let b = [10.0f32, 100.0];
        let mut c = [0.5f32, 0.25];
        let mut pack = Vec::new();
        sgemm(2, 1, 1, &a, &b[..1], &mut c, &mut pack);
        assert_eq!(c, [10.5, 20.25]);
    }

    #[test]
    fn stale_pack_buffer_is_harmless() {
        // A large call followed by a small ragged one must not leak padding.
        let mut pack = Vec::new();
        let a: Vec<f32> = (0..6 * 4).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..4 * 4).map(|i| (i as f32) * 0.5).collect();
        let mut c = vec![0.0f32; 6 * 4];
        sgemm(6, 4, 4, &a, &b, &mut c, &mut pack);
        check(3, 2, 2); // ragged strip, reuses nothing but proves shape
        let a2 = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b2 = [1.0f32, 0.0, 0.0, 1.0];
        let mut c2 = vec![0.0f32; 3 * 2];
        sgemm(3, 2, 2, &a2, &b2, &mut c2, &mut pack);
        assert_eq!(c2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }
}

//! Exhaustive sweep of small convolution geometries, fast vs reference,
//! bit for bit.
//!
//! The property tests draw a few dozen shapes per run; the padded-plane
//! layout's edge cases — padding wider than kernel − 1, a kernel larger
//! than the input, one-row and one-column output grids, one-sample
//! batches — are too many to leave to the draw. This test walks every
//! geometry with `n` 1–2, `c_in` 1–3, `h`/`w` 1–6, `kh`/`kw` 1–5 and
//! `ph`/`pw` 0–2, plus CommCNN's own 20×12 shapes, and checks the forward,
//! the input gradient and the folded ∂weights/bias records against
//! `kernel::reference`. One `Scratch` serves every call, so stale buffer
//! contents from a larger geometry must never leak into a smaller one.

use locec_ml::kernel::plane::PlaneLayout;
use locec_ml::kernel::{fast, reference, ConvGeom, Scratch};

fn pseudo(seed: &mut u64) -> f32 {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (((*seed >> 33) as u32) as f32 / u32::MAX as f32) * 2.0 - 1.0
}

fn filled(len: usize, seed: &mut u64) -> Vec<f32> {
    (0..len).map(|_| pseudo(seed)).collect()
}

fn assert_bits_eq(got: &[f32], want: &[f32], what: &str, g: &ConvGeom) {
    assert_eq!(got.len(), want.len(), "{what} length, {g:?}");
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}[{i}]: {a} vs {b}, {g:?}");
    }
}

/// Forward, ∂input and the folded records of one geometry, fast against
/// reference. Returns `false` when the kernel does not fit the padded
/// input (both backends refuse it through the same `validate`).
fn check(dims: [usize; 9], scratch: &mut Scratch) -> bool {
    let [n, c_in, c_out, h, w, kh, kw, ph, pw] = dims;
    let Ok(g) = ConvGeom::validate("sweep", &[n, c_in, h, w], c_in, c_out, kh, kw, ph, pw) else {
        return false;
    };
    let mut s = dims.iter().fold(17u64, |acc, &d| acc * 31 + d as u64);
    let wts = filled(c_out * c_in * kh * kw, &mut s);
    let bias = filled(c_out, &mut s);
    let input = filled(n * c_in * h * w, &mut s);
    let gout = filled(n * c_out * g.oh * g.ow, &mut s);
    // Junk in gw/gb proves the fold accumulates (+=) like the reference.
    let gw0 = filled(wts.len(), &mut s);
    let gb0 = filled(c_out, &mut s);

    let out_len = n * c_out * g.oh * g.ow;
    let (mut out_fast, mut out_ref) = (vec![f32::NAN; out_len], vec![0.0f32; out_len]);
    fast::conv2d_forward(&g, &wts, &bias, &input, &mut out_fast, scratch);
    reference::conv2d_forward(&g, &wts, &bias, &input, &mut out_ref);
    assert_bits_eq(&out_fast, &out_ref, "forward", &g);

    let mut plane = Vec::new();
    PlaneLayout::conv_input(&g).fill(&input, c_in, &mut plane);
    let mut gin_fast = vec![f32::NAN; input.len()];
    let mut gin_ref = vec![0.0f32; input.len()];
    let (mut gw_fast, mut gw_ref) = (gw0.clone(), gw0);
    let (mut gb_fast, mut gb_ref) = (gb0.clone(), gb0);
    let mut records = Vec::new();
    fast::conv2d_backward_samples(
        &g,
        &wts,
        &plane,
        &gout,
        Some(&mut gin_fast),
        &mut records,
        scratch,
    );
    fast::conv2d_fold(&records, &mut gw_fast, &mut gb_fast);
    reference::conv2d_backward(
        &g,
        &wts,
        &input,
        &gout,
        &mut gin_ref,
        &mut gw_ref,
        &mut gb_ref,
    );
    assert_bits_eq(&gin_fast, &gin_ref, "grad_in", &g);
    assert_bits_eq(&gw_fast, &gw_ref, "grad_w", &g);
    assert_bits_eq(&gb_fast, &gb_ref, "grad_b", &g);
    true
}

#[test]
fn every_small_geometry_matches_reference_bitwise() {
    let mut scratch = Scratch::new();
    let (mut valid, mut refused) = (0usize, 0usize);
    for n in 1..=2 {
        for c_in in 1..=3 {
            // c_out runs 3, 2, 1 against c_in's 1, 2, 3.
            let c_out = 4 - c_in;
            for h in 1..=6 {
                for w in 1..=6 {
                    for kh in 1..=5 {
                        for kw in 1..=5 {
                            for ph in 0..=2 {
                                for pw in 0..=2 {
                                    let dims = [n, c_in, c_out, h, w, kh, kw, ph, pw];
                                    if check(dims, &mut scratch) {
                                        valid += 1;
                                    } else {
                                        refused += 1;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    assert_eq!(valid + refused, 2 * 3 * 6 * 6 * 5 * 5 * 3 * 3);
    assert!(valid > refused, "{valid} valid vs {refused} refused");
}

#[test]
fn commcnn_geometries_match_reference_bitwise() {
    // The `fast` preset's convolutions on a 20×12 feature matrix: the 3×3
    // square stack (1→4→6 at 20×12, 6→8 at 10×6), the wide 1×12 and long
    // 20×1 kernels, and the 1×1 convolutions after them — at one sample
    // (the serve path's one-community forward), a training shard and an
    // inference batch.
    let mut scratch = Scratch::new();
    for n in [1, 16, 33] {
        for dims in [
            [n, 1, 4, 20, 12, 3, 3, 1, 1],
            [n, 4, 6, 20, 12, 3, 3, 1, 1],
            [n, 6, 8, 10, 6, 3, 3, 1, 1],
            [n, 1, 4, 20, 12, 1, 12, 0, 0],
            [n, 4, 4, 20, 1, 1, 1, 0, 0],
            [n, 1, 4, 20, 12, 20, 1, 0, 0],
            [n, 4, 4, 1, 12, 1, 1, 0, 0],
        ] {
            assert!(check(dims, &mut scratch), "{dims:?} must be valid");
        }
    }
}

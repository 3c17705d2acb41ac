//! Property tests of the fast math kernel against the reference loops.
//!
//! The kernel module's contract is *bitwise* equivalence for finite data
//! (see `kernel::mod` docs), so every comparison here is `==` on the f32
//! bit patterns — no tolerances. Shapes are drawn odd and ragged on
//! purpose: the blocked GEMM's MR×NR micro-kernel has to handle partial
//! strips and partial tiles, and the padded-plane layout has to handle
//! kernels larger than the unpadded input.

use locec_ml::kernel::plane::PlaneLayout;
use locec_ml::kernel::sgemm::{sgemm, sgemm_rows, NC};
use locec_ml::kernel::{fast, reference, ConvGeom, Scratch};
use locec_ml::nn::{Conv2d, Layer, Relu, Sequential};
use locec_ml::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Deterministic splitmix-style generator: proptest supplies the seed,
/// the generator supplies however many values the drawn shape needs.
fn pseudo(seed: &mut u64) -> f32 {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (((*seed >> 33) as u32) as f32 / u32::MAX as f32) * 2.0 - 1.0
}

fn filled(len: usize, seed: &mut u64) -> Vec<f32> {
    (0..len).map(|_| pseudo(seed)).collect()
}

/// Every parameter gradient of `layer`, in `visit_params` order.
fn param_grads(layer: &mut dyn Layer) -> Vec<Vec<f32>> {
    let mut grads = Vec::new();
    layer.visit_params(&mut |_, g| grads.push(g.data().to_vec()));
    grads
}

fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
    prop_assert_eq!(got.len(), want.len(), "{} length", what);
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        prop_assert_eq!(a.to_bits(), b.to_bits(), "{}[{}]: {} vs {}", what, i, a, b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sgemm_matches_naive_bitwise(
        m in 1usize..24,
        n in 1usize..40,
        k in 1usize..24,
        seed in 0u64..u64::MAX,
    ) {
        let mut s = seed;
        let a = filled(m * k, &mut s);
        let b = filled(k * n, &mut s);
        let c0 = filled(m * n, &mut s);

        let mut want = c0.clone();
        for i in 0..m {
            for j in 0..n {
                let mut acc = want[i * n + j];
                for p in 0..k {
                    acc += a[i * k + p] * b[p * n + j];
                }
                want[i * n + j] = acc;
            }
        }

        let mut got = c0;
        let mut pack = Vec::new();
        sgemm(m, n, k, &a, &b, &mut got, &mut pack);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert_eq!(g.to_bits(), w.to_bits(), "element {} differs: {} vs {}", i, g, w);
        }
    }

    #[test]
    fn conv2d_fast_matches_reference_bitwise(
        n in 1usize..3,
        c_in in 1usize..4,
        c_out in 1usize..5,
        h in 1usize..8,
        w in 1usize..8,
        kh in 1usize..6,
        kw in 1usize..6,
        ph in 0usize..3,
        pw in 0usize..3,
        seed in 0u64..u64::MAX,
    ) {
        // Kernel larger than the padded input: both backends reject it the
        // same way (via the shared validate), nothing to compare.
        if let Ok(g) = ConvGeom::validate("prop", &[n, c_in, h, w], c_in, c_out, kh, kw, ph, pw) {
        let mut s = seed;
        let wts = filled(c_out * c_in * kh * kw, &mut s);
        let bias = filled(c_out, &mut s);
        let input = filled(n * c_in * h * w, &mut s);
        let gout = filled(n * c_out * g.oh * g.ow, &mut s);
        // Seed gw/gb with junk to prove accumulation (+=) matches too.
        let gw0 = filled(wts.len(), &mut s);
        let gb0 = filled(c_out, &mut s);

        let out_len = n * c_out * g.oh * g.ow;
        let mut out_ref = vec![0.0f32; out_len];
        let mut out_fast = vec![0.0f32; out_len];
        let mut scratch = Scratch::new();
        reference::conv2d_forward(&g, &wts, &bias, &input, &mut out_ref);
        fast::conv2d_forward(&g, &wts, &bias, &input, &mut out_fast, &mut scratch);
        for (a, b) in out_fast.iter().zip(&out_ref) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "forward {} vs {}", a, b);
        }

        let mut plane = Vec::new();
        PlaneLayout::conv_input(&g).fill(&input, c_in, &mut plane);
        let mut gin_ref = vec![0.0f32; input.len()];
        let mut gin_fast = vec![0.0f32; input.len()];
        let (mut gw_ref, mut gw_fast) = (gw0.clone(), gw0);
        let (mut gb_ref, mut gb_fast) = (gb0.clone(), gb0);
        reference::conv2d_backward(&g, &wts, &input, &gout, &mut gin_ref, &mut gw_ref, &mut gb_ref);
        let mut records = Vec::new();
        fast::conv2d_backward_samples(
            &g, &wts, &plane, &gout, Some(&mut gin_fast), &mut records, &mut scratch,
        );
        fast::conv2d_fold(&records, &mut gw_fast, &mut gb_fast);
        for (a, b) in gin_fast.iter().zip(&gin_ref) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "gin {} vs {}", a, b);
        }
        for (a, b) in gw_fast.iter().zip(&gw_ref) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "gw {} vs {}", a, b);
        }
        for (a, b) in gb_fast.iter().zip(&gb_ref) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "gb {} vs {}", a, b);
        }
        }
    }

    #[test]
    fn conv2d_layer_backward_matches_reference_bitwise(
        n in 1usize..=4,
        c_in in 1usize..4,
        c_out in 1usize..5,
        h in 1usize..8,
        w in 1usize..8,
        kh in 1usize..6,
        kw in 1usize..6,
        ph in 0usize..3,
        pw in 0usize..3,
        seed in 0u64..u64::MAX,
    ) {
        // The layer's own forward_train → backward: the padded plane cached
        // by the forward, not laid out again, must give the reference's bits. Shapes
        // span padded, asymmetric and kernel-larger-than-input cases.
        if let Ok(g) = ConvGeom::validate("prop", &[n, c_in, h, w], c_in, c_out, kh, kw, ph, pw) {
        let mut s = seed;
        let mut conv = Conv2d::with_padding(c_in, c_out, kh, kw, ph, pw, &mut StdRng::seed_from_u64(seed));
        let input = Tensor::from_vec(&[n, c_in, h, w], filled(n * c_in * h * w, &mut s));
        let gout = Tensor::from_vec(&[n, c_out, g.oh, g.ow], filled(n * c_out * g.oh * g.ow, &mut s));
        // Junk in gw/gb proves accumulation (+=) matches too.
        let mut params = Vec::new();
        conv.visit_params(&mut |v, gr| {
            let junk = filled(gr.len(), &mut s);
            gr.data_mut().copy_from_slice(&junk);
            params.push((v.data().to_vec(), gr.data().to_vec()));
        });
        let [(wts, mut gw_ref), (bias, mut gb_ref)] = <[_; 2]>::try_from(params).unwrap();

        let mut scratch = Scratch::new();
        let out = conv.forward_train(&input, &mut scratch).unwrap();
        let gin = conv.backward(&gout, &mut scratch).unwrap();

        let mut out_ref = vec![0.0f32; out.len()];
        let mut gin_ref = vec![0.0f32; input.len()];
        reference::conv2d_forward(&g, &wts, &bias, input.data(), &mut out_ref);
        reference::conv2d_backward(
            &g, &wts, input.data(), gout.data(), &mut gin_ref, &mut gw_ref, &mut gb_ref,
        );
        assert_bits_eq(out.data(), &out_ref, "forward");
        assert_bits_eq(gin.data(), &gin_ref, "gin");
        let grads = param_grads(&mut conv);
        assert_bits_eq(&grads[0], &gw_ref, "gw");
        assert_bits_eq(&grads[1], &gb_ref, "gb");
        }
    }

    #[test]
    fn backward_params_matches_full_backward_bitwise(
        n in 1usize..=4,
        c in 1usize..4,
        h in 1usize..8,
        w in 1usize..8,
        kh in 1usize..4,
        kw in 1usize..4,
        seed in 0u64..u64::MAX,
    ) {
        // conv → relu → conv: `backward_params` runs the full backward
        // through the last two layers and skips only the first conv's
        // input gradient, so every parameter gradient keeps its bits.
        let (ph, pw) = (kh / 2, kw / 2);
        let build = || {
            let mut rng = StdRng::seed_from_u64(seed);
            Sequential::new()
                .push(Conv2d::with_padding(1, c, kh, kw, ph, pw, &mut rng))
                .push(Relu::new())
                .push(Conv2d::new(c, 2, 1, 1, &mut rng))
        };
        let (mut full, mut params_only) = (build(), build());
        let (oh, ow) = (h + 2 * ph + 1 - kh, w + 2 * pw + 1 - kw);
        let mut s = seed;
        let input = Tensor::from_vec(&[n, 1, h, w], filled(n * h * w, &mut s));
        let gout = Tensor::from_vec(&[n, 2, oh, ow], filled(n * 2 * oh * ow, &mut s));
        let mut scratch = Scratch::new();

        full.forward_train(&input, &mut scratch).unwrap();
        full.backward(&gout, &mut scratch).unwrap();
        params_only.forward_train(&input, &mut scratch).unwrap();
        params_only.backward_params(&gout, &mut scratch).unwrap();
        for (i, (a, b)) in param_grads(&mut params_only)
            .iter()
            .zip(&param_grads(&mut full))
            .enumerate()
        {
            assert_bits_eq(a, b, &format!("param grad {i}"));
        }
    }

    #[test]
    fn shard_fold_matches_whole_batch_backward_bitwise(
        n in 2usize..=7,
        split in 1usize..7,
        c in 1usize..4,
        h in 1usize..8,
        w in 1usize..8,
        kh in 1usize..4,
        kw in 1usize..4,
        seed in 0u64..u64::MAX,
    ) {
        // conv → relu → conv over the whole batch, against two replicas
        // that each run forward and backward on one slice and are folded,
        // slice after slice, into a fresh master.
        let split = split.min(n - 1);
        let (ph, pw) = (kh / 2, kw / 2);
        let build = || {
            let mut rng = StdRng::seed_from_u64(seed);
            Sequential::new()
                .push(Conv2d::with_padding(1, c, kh, kw, ph, pw, &mut rng))
                .push(Relu::new())
                .push(Conv2d::new(c, 2, 1, 1, &mut rng))
        };
        let (mut whole, mut master) = (build(), build());
        let (oh, ow) = (h + 2 * ph + 1 - kh, w + 2 * pw + 1 - kw);
        let (in_len, out_len) = (h * w, 2 * oh * ow);
        let mut s = seed;
        let input = filled(n * in_len, &mut s);
        let gout = filled(n * out_len, &mut s);
        let mut scratch = Scratch::new();

        whole.forward_train(&Tensor::from_vec(&[n, 1, h, w], input.clone()), &mut scratch).unwrap();
        whole.backward_params(&Tensor::from_vec(&[n, 2, oh, ow], gout.clone()), &mut scratch).unwrap();
        for (lo, hi) in [(0, split), (split, n)] {
            let mut shard = build();
            let x = Tensor::from_vec(&[hi - lo, 1, h, w], input[lo * in_len..hi * in_len].to_vec());
            let g = Tensor::from_vec(&[hi - lo, 2, oh, ow], gout[lo * out_len..hi * out_len].to_vec());
            shard.forward_train(&x, &mut scratch).unwrap();
            shard.backward_params(&g, &mut scratch).unwrap();
            master.fold_shard(&shard).unwrap();
        }
        for (i, (a, b)) in param_grads(&mut master)
            .iter()
            .zip(&param_grads(&mut whole))
            .enumerate()
        {
            assert_bits_eq(a, b, &format!("param grad {i}"));
        }
    }

    #[test]
    fn sgemm_rows_matches_sgemm_on_the_materialised_operand(
        m in 1usize..12,
        n in 1usize..(2 * NC + 40),
        k in 1usize..12,
        extra in 0usize..300,
        seed in 0u64..u64::MAX,
    ) {
        // Row `p` of the view starts at an arbitrary offset into one base
        // buffer; rows overlap, repeat and run out of order. `n` crosses
        // ragged NR edges and up to three NC blocks.
        let mut s = seed;
        let a = filled(m * k, &mut s);
        let base = filled(n + extra, &mut s);
        let offsets: Vec<usize> = (0..k)
            .map(|_| ((pseudo(&mut s) + 1.0) * 0.5 * extra as f32) as usize % (extra + 1))
            .collect();
        let c0 = filled(m * n, &mut s);
        let dense: Vec<f32> = offsets.iter().flat_map(|&o| base[o..o + n].iter().copied()).collect();

        let mut pack = Vec::new();
        let mut want = c0.clone();
        sgemm(m, n, k, &a, &dense, &mut want, &mut pack);
        let mut got = c0;
        sgemm_rows(m, n, k, &a, &base, &offsets, &mut got, &mut pack);
        assert_bits_eq(&got, &want, "view GEMM");
    }

    #[test]
    fn padded_plane_views_match_direct_indexing(
        n in 1usize..=4,
        c in 1usize..4,
        h in 1usize..20,
        w in 1usize..20,
        kh in 1usize..6,
        kw in 1usize..6,
        ph in 0usize..3,
        pw in 0usize..3,
        seed in 0u64..u64::MAX,
    ) {
        // Every kernel tap's row view of the forward plane, read at every
        // output cell of every sample, is the input pixel under that tap or
        // a padding zero; so is every flipped tap's view of the
        // output-gradient plane at every input cell. Both stay in bounds
        // across the whole GEMM span.
        if let Ok(g) = ConvGeom::validate("prop", &[n, c, h, w], c, c, kh, kw, ph, pw) {
        let mut s = seed;
        let at = |src: &[f32], rows: usize, cols: usize, y: isize, x: isize| {
            if y < 0 || x < 0 || y >= rows as isize || x >= cols as isize {
                0.0
            } else {
                src[y as usize * cols + x as usize]
            }
        };
        let (ph, pw) = (ph as isize, pw as isize);
        for (layout, (sh, sw), (gh, gw), flipped) in [
            (PlaneLayout::conv_input(&g), (h, w), (g.oh, g.ow), false),
            (PlaneLayout::conv_grad_out(&g), (g.oh, g.ow), (h, w), true),
        ] {
            let src = filled(n * c * sh * sw, &mut s);
            // Stale contents prove the plane is fully overwritten.
            let mut plane = filled(2 * c * layout.channel_len() + 1, &mut s);
            layout.fill(&src, c, &mut plane);
            prop_assert_eq!(plane.len(), c * layout.channel_len());
            for ci in 0..c {
                for ky in 0..kh {
                    for kx in 0..kw {
                        let (dy, dx) = if flipped {
                            (ph - ky as isize, pw - kx as isize)
                        } else {
                            (ky as isize - ph, kx as isize - pw)
                        };
                        let off = ci * layout.channel_len() + layout.tap(dy, dx);
                        prop_assert!(off + layout.span() <= plane.len());
                        for ni in 0..n {
                            let plane_src = &src[(ni * c + ci) * sh * sw..][..sh * sw];
                            for gy in 0..gh {
                                for gx in 0..gw {
                                    let want = at(plane_src, sh, sw, gy as isize + dy, gx as isize + dx);
                                    let got = plane[off + layout.cell(ni, gy, gx)];
                                    prop_assert_eq!(got.to_bits(), want.to_bits());
                                }
                            }
                        }
                    }
                }
            }
        }
        }
    }

    #[test]
    fn dense_fast_matches_reference_bitwise(
        n in 1usize..12,
        din in 1usize..24,
        dout in 1usize..24,
        seed in 0u64..u64::MAX,
    ) {
        let mut s = seed;
        let wts = filled(din * dout, &mut s);
        let bias = filled(dout, &mut s);
        let input = filled(n * din, &mut s);
        let gout = filled(n * dout, &mut s);
        let gw0 = filled(wts.len(), &mut s);
        let gb0 = filled(dout, &mut s);

        let mut out_ref = vec![0.0f32; n * dout];
        let mut out_fast = vec![0.0f32; n * dout];
        let mut scratch = Scratch::new();
        reference::dense_forward(n, din, dout, &wts, &bias, &input, &mut out_ref);
        fast::dense_forward(n, din, dout, &wts, &bias, &input, &mut out_fast, &mut scratch);
        for (a, b) in out_fast.iter().zip(&out_ref) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "forward {} vs {}", a, b);
        }

        let mut gin_ref = vec![0.0f32; input.len()];
        let mut gin_fast = vec![0.0f32; input.len()];
        let (mut gw_ref, mut gw_fast) = (gw0.clone(), gw0);
        let (mut gb_ref, mut gb_fast) = (gb0.clone(), gb0);
        reference::dense_backward(
            n, din, dout, &wts, &input, &gout, &mut gin_ref, &mut gw_ref, &mut gb_ref,
        );
        fast::dense_backward(
            n, din, dout, &wts, &input, &gout, &mut gin_fast, &mut gw_fast, &mut gb_fast,
            &mut scratch,
        );
        for (a, b) in gin_fast.iter().zip(&gin_ref) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "gin {} vs {}", a, b);
        }
        for (a, b) in gw_fast.iter().zip(&gw_ref) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "gw {} vs {}", a, b);
        }
        for (a, b) in gb_fast.iter().zip(&gb_ref) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "gb {} vs {}", a, b);
        }
    }

    #[test]
    fn kernel_larger_than_padded_input_is_rejected(
        h in 1usize..4,
        w in 1usize..4,
        extra in 1usize..4,
    ) {
        // Kernel strictly larger than the padded extent in one axis.
        let kh = h + extra;
        let e = ConvGeom::validate("prop", &[1, 1, h, w], 1, 2, kh, 1, 0, 0).unwrap_err();
        prop_assert!(e.to_string().contains("larger than padded input"));
        // With enough padding the same kernel fits — and the backends agree.
        let g = ConvGeom::validate("prop", &[1, 1, h, w], 1, 2, kh, 1, extra, 0).unwrap();
        let mut s = 42u64;
        let wts = filled(2 * kh, &mut s);
        let bias = filled(2, &mut s);
        let input = filled(h * w, &mut s);
        let mut out_ref = vec![0.0f32; 2 * g.oh * g.ow];
        let mut out_fast = out_ref.clone();
        let mut scratch = Scratch::new();
        reference::conv2d_forward(&g, &wts, &bias, &input, &mut out_ref);
        fast::conv2d_forward(&g, &wts, &bias, &input, &mut out_fast, &mut scratch);
        for (a, b) in out_fast.iter().zip(&out_ref) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

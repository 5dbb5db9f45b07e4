//! Property-based tests for the reference kernels, the geometry algebra
//! and the zero-free plan's phase columns.

use lergan_tensor::conv::{tconv_forward_zero_insert, wconv_weight_grad_zero_insert};
use lergan_tensor::dconv::im2col_dconv;
use lergan_tensor::im2col::{im2col_into, ConvGeometry, ConvPlan};
use lergan_tensor::zero_insert::expand_tconv_input;
use lergan_tensor::{
    assert_tensors_close, Conv2d, DconvAxis, DconvGeometry, SconvGeometry, TconvGeometry, Tensor,
    WconvGeometry,
};
use proptest::prelude::*;

/// T-CONV forward through the direct scatter definition: each input pixel
/// scatters `w` into the output at `input·S′ − P′` offsets. Used to
/// cross-check the zero-insertion path.
///
/// # Panics
///
/// Panics on operand shape mismatches.
fn tconv_forward_direct(input: &Tensor, weights: &Tensor, geom: &TconvGeometry) -> Tensor {
    let (oc, ic, k) = (weights.shape()[0], weights.shape()[1], weights.shape()[2]);
    assert_eq!(k, geom.kernel, "kernel extent mismatch with geometry");
    assert_eq!(input.shape()[0], ic, "in-channel mismatch");
    assert_eq!(input.shape()[1], geom.input, "input extent mismatch");
    let o = geom.output;
    let mut out = Tensor::zeros(&[oc, o, o]);
    // out[oy] receives input[y] * w[ky] where oy = y*S' + P - ... : in the
    // expanded grid input y sits at P + y*S', and window oy covers expanded
    // rows oy..oy+W, so contribution requires oy + ky == P + y*S'.
    let p = geom.insertion_pad;
    let s = geom.converse_stride;
    for y in 0..geom.input {
        for x in 0..geom.input {
            let ey = p + y * s;
            let ex = p + x * s;
            for ky in 0..k {
                let Some(oy) = ey.checked_sub(ky).filter(|&v| v < o) else {
                    continue;
                };
                for kx in 0..k {
                    let Some(ox) = ex.checked_sub(kx).filter(|&v| v < o) else {
                        continue;
                    };
                    for ci in 0..ic {
                        let v = input[&[ci, y, x]];
                        if v == 0.0 {
                            continue;
                        }
                        for co in 0..oc {
                            out[&[co, oy, ox][..]] += v * weights[&[co, ci, ky, kx]];
                        }
                    }
                }
            }
        }
    }
    out
}

fn det_tensor(shape: &[usize], seed: u32) -> Tensor {
    // Small deterministic pseudo-random values without pulling in rand.
    let mut state = seed.wrapping_mul(2654435761).wrapping_add(12345);
    Tensor::from_fn(shape, |_| {
        state = state.wrapping_mul(1664525).wrapping_add(1013904223);
        ((state >> 16) as f32 / 65536.0) - 0.5
    })
}

#[test]
fn tconv_zero_insert_equals_direct() {
    for (i, w, s, ic, oc) in [
        (4, 5, 2, 3, 2),
        (8, 4, 2, 2, 4),
        (5, 5, 3, 1, 1),
        (7, 4, 2, 2, 2),
    ] {
        let geom = TconvGeometry::for_upsampling(i, w, s).unwrap();
        let input = det_tensor(&[ic, i, i], 10 + i as u32);
        let weights = det_tensor(&[oc, ic, w, w], 20 + w as u32);
        let a = tconv_forward_zero_insert(&input, &weights, &geom);
        let b = tconv_forward_direct(&input, &weights, &geom);
        assert_tensors_close(&a, &b, 1e-4);
    }
}

fn small_tensor(shape: Vec<usize>) -> impl Strategy<Value = Tensor> {
    let len: usize = shape.iter().product();
    proptest::collection::vec(-2.0f32..2.0, len)
        .prop_map(move |data| Tensor::from_vec(&shape, data))
}

/// Valid T-CONV upsampling configs: (input, kernel, converse stride).
fn tconv_config() -> impl Strategy<Value = TconvGeometry> {
    (2usize..8, 2usize..6, 2usize..4).prop_filter_map("geometry must exist", |(i, w, s)| {
        TconvGeometry::for_upsampling(i, w, s)
    })
}

/// Valid S-CONV configs: (input, kernel, stride, pad) with an output.
fn sconv_config() -> impl Strategy<Value = SconvGeometry> {
    (4usize..12, 2usize..6, 1usize..4, 0usize..3)
        .prop_filter_map("geometry must exist", |(i, w, s, p)| {
            SconvGeometry::new(i, w, s, p).filter(|g| g.output >= 1)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tconv_zero_insert_agrees_with_direct(geom in tconv_config(), seed in 0u64..1000) {
        let ic = 1 + (seed % 3) as usize;
        let oc = 1 + (seed % 2) as usize;
        let input = Tensor::from_fn(&[ic, geom.input, geom.input], |idx| {
            ((idx[0] * 31 + idx[1] * 7 + idx[2] * 3 + seed as usize) % 13) as f32 - 6.0
        });
        let weights = Tensor::from_fn(&[oc, ic, geom.kernel, geom.kernel], |idx| {
            ((idx[0] * 17 + idx[1] * 5 + idx[2] * 11 + idx[3] + seed as usize) % 7) as f32 - 3.0
        });
        let a = tconv_forward_zero_insert(&input, &weights, &geom);
        let b = tconv_forward_direct(&input, &weights, &geom);
        assert_tensors_close(&a, &b, 1e-4);
    }

    #[test]
    fn expanded_zero_count_matches_eq7(geom in tconv_config()) {
        // Use strictly non-zero inputs so every zero in the expansion is an
        // inserted/padding zero.
        let input = Tensor::from_fn(&[1, geom.input, geom.input], |idx| {
            1.0 + (idx[1] * geom.input + idx[2]) as f32
        });
        let e = expand_tconv_input(&input, &geom);
        prop_assert_eq!(e.count_zeros(), geom.zeros_per_plane());
        prop_assert_eq!(e.shape()[1] - geom.kernel + 1, geom.output);
    }

    #[test]
    fn conv_forward_is_linear(geom in sconv_config(), a in small_tensor(vec![2usize, 6, 6]), b in small_tensor(vec![2usize, 6, 6])) {
        // Restrict to a fixed 6x6 input so tensors can be generated eagerly.
        prop_assume!(geom.input == 6 || SconvGeometry::new(6, geom.kernel, geom.stride, geom.pad).is_some());
        let g = SconvGeometry::new(6, geom.kernel, geom.stride, geom.pad).unwrap();
        let conv = Conv2d::new(2, 3, g.kernel, g.stride, g.pad).unwrap();
        let w = Tensor::from_fn(&[3, 2, g.kernel, g.kernel], |idx| {
            ((idx[0] + idx[1] * 2 + idx[2] * 3 + idx[3] * 5) % 9) as f32 * 0.25 - 1.0
        });
        let sum = a.zip_with(&b, |x, y| x + y);
        let lhs = conv.forward(&sum, &w);
        let rhs = conv.forward(&a, &w).zip_with(&conv.forward(&b, &w), |x, y| x + y);
        assert_tensors_close(&lhs, &rhs, 1e-3);
    }

    #[test]
    fn wconv_zero_insert_agrees_with_defining_sum(geom in sconv_config(), seed in 0u64..1000) {
        let wg = WconvGeometry::new(geom.input, geom.kernel, geom.stride, geom.pad).unwrap();
        let conv = Conv2d::new(2, 2, geom.kernel, geom.stride, geom.pad).unwrap();
        let input = Tensor::from_fn(&[2, geom.input, geom.input], |idx| {
            ((idx[0] * 13 + idx[1] * 3 + idx[2] + seed as usize) % 11) as f32 * 0.5 - 2.5
        });
        let dout = Tensor::from_fn(&[2, geom.output, geom.output], |idx| {
            ((idx[0] * 7 + idx[1] * 5 + idx[2] * 2 + seed as usize) % 9) as f32 * 0.5 - 2.0
        });
        let a = conv.weight_grad(&input, &dout);
        let b = wconv_weight_grad_zero_insert(&input, &dout, &wg);
        assert_tensors_close(&a, &b, 1e-3);
    }

    #[test]
    fn sconv_geometry_window_fits(geom in sconv_config()) {
        // The last window must fit inside the padded input.
        let span = geom.input + 2 * geom.pad;
        prop_assert!((geom.output - 1) * geom.stride + geom.kernel <= span);
        prop_assert_eq!((span - geom.kernel) % geom.stride, geom.remainder);
    }

    #[test]
    fn tconv_useful_mults_never_exceed_total(geom in tconv_config()) {
        prop_assert!(geom.useful_multiplications_per_channel()
            <= geom.total_multiplications_per_channel());
        // At least the windows anchored on true inputs do useful work. (When
        // the kernel is smaller than the converse stride some interior
        // windows cover only inserted zeros, so not *every* window counts.)
        prop_assert!(geom.useful_multiplications_per_channel() >= geom.input * geom.input);
    }
}

/// Triple-loop oracle with the kernels' contract order: each element sums
/// its `k` products ascending from `0.0`. For degenerate shapes (any
/// dimension zero) the oracle is the empty sum — exactly `0.0` — over an
/// `m·n`-element (possibly empty) output.
fn oracle_gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for l in 0..k {
                acc += a[i * k + l] * b[l * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Degenerate and tiny GEMM shapes — `m`, `k`, or `n` of 0, and the
    /// 1×1×1 product — must be well-defined (no panic, no stale output)
    /// through every kernel entry point: the allocating wrappers, the
    /// `_into` variants, and the raw `_buf` kernels. All must agree with
    /// the triple-loop oracle bit-for-bit.
    #[test]
    fn degenerate_gemm_shapes_through_all_entry_points(
        m in 0usize..3,
        k in 0usize..3,
        n in 0usize..3,
        seed in 0u64..100,
    ) {
        use lergan_tensor::kernel::{gemm_buf, gemm_nt_buf, mmv_buf};
        use lergan_tensor::tensor::{gemm, gemm_nt, mmv};
        use lergan_tensor::{gemm_into, gemm_nt_into, mmv_into};

        let val = |i: usize| ((i as u64 * 37 + seed * 11) % 13) as f32 * 0.5 - 3.0;
        let a = Tensor::from_fn(&[m, k], |idx| val(idx[0] * k + idx[1]));
        let b = Tensor::from_fn(&[k, n], |idx| val(100 + idx[0] * n + idx[1]));
        let bt = Tensor::from_fn(&[n, k], |idx| {
            // bt is b transposed, so gemm and gemm_nt share one oracle.
            b.data()[idx[1] * n + idx[0]]
        });
        let v: Vec<f32> = (0..k).map(|i| val(200 + i)).collect();
        let want = oracle_gemm(m, k, n, a.data(), b.data());
        let want_v = oracle_gemm(m, k, 1, a.data(), &v);

        // Allocating wrappers.
        let g = gemm(&a, &b);
        prop_assert_eq!(g.shape(), &[m, n]);
        prop_assert_eq!(g.data(), &want[..]);
        let gnt = gemm_nt(&a, &bt);
        prop_assert_eq!(gnt.data(), &want[..]);
        let gv = mmv(&a, &v);
        prop_assert_eq!(&gv[..], &want_v[..]);

        // `_into` variants over a poisoned buffer: every element must be
        // overwritten (a surviving NaN fails the comparison).
        let mut out = vec![f32::NAN; m * n];
        gemm_into(&a, &b, &mut out);
        prop_assert_eq!(&out[..], &want[..]);
        out.fill(f32::NAN);
        gemm_nt_into(&a, &bt, &mut out);
        prop_assert_eq!(&out[..], &want[..]);
        let mut vout = vec![f32::NAN; m];
        mmv_into(&a, &v, &mut vout);
        prop_assert_eq!(&vout[..], &want_v[..]);

        // Raw slice kernels.
        out.fill(f32::NAN);
        gemm_buf(m, k, n, a.data(), b.data(), &mut out);
        prop_assert_eq!(&out[..], &want[..]);
        out.fill(f32::NAN);
        gemm_nt_buf(m, k, n, a.data(), bt.data(), &mut out);
        prop_assert_eq!(&out[..], &want[..]);
        vout.fill(f32::NAN);
        mmv_buf(m, k, a.data(), &v, &mut vout);
        prop_assert_eq!(&vout[..], &want_v[..]);
    }
}

/// Column counts around the driver's column tile (`NR` = 8), its blocks
/// of four tiles side by side (32 columns) and its column group of
/// `WIDE·NR` = 64 columns, the widest block.
const SEAM_N: [usize; 10] = [1, 7, 8, 9, 31, 32, 33, 63, 64, 65];
/// Reduction lengths: the shortest ones, and ones around 256.
const SEAM_K: [usize; 5] = [1, 2, 255, 256, 257];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On shapes around the driver's own seams — every `m` up to two of
    /// the tallest row blocks (`MR` = 8) and one more row, `n` and `k`
    /// from [`SEAM_N`] and [`SEAM_K`] — `gemm`, `gemm_nt` and `mmv` at 1,
    /// 2 and 8 threads must match their single-thread result bit for bit,
    /// and `gemm` must match the triple-loop oracle.
    #[test]
    fn gemm_bit_agrees_across_threads_on_tile_seams(
        ni in 0usize..10,
        ki in 0usize..5,
        seed in 0u64..1000,
    ) {
        use lergan_tensor::parallel;
        use lergan_tensor::tensor::{gemm, gemm_nt, mmv};

        let (n, k) = (SEAM_N[ni], SEAM_K[ki]);
        let val = |i: usize| ((i as u64 * 29 + seed * 17) % 23) as f32 * 0.25 - 2.75;
        for m in 1..=17 {
            let a = Tensor::from_fn(&[m, k], |idx| val(idx[0] * k + idx[1]));
            let b = Tensor::from_fn(&[k, n], |idx| val(300 + idx[0] * n + idx[1]));
            let bt = Tensor::from_fn(&[n, k], |idx| b.data()[idx[1] * n + idx[0]]);
            let v: Vec<f32> = (0..k).map(|i| val(700 + i)).collect();
            let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let run = || {
                (
                    bits(gemm(&a, &b).data()),
                    bits(gemm_nt(&a, &bt).data()),
                    bits(&mmv(&a, &v)),
                )
            };
            let want = parallel::with_threads(1, run);
            prop_assert_eq!(&want.0, &bits(&oracle_gemm(m, k, n, a.data(), b.data())));
            for threads in [1usize, 2, 8] {
                let got = parallel::with_threads(threads, run);
                prop_assert_eq!(&got, &want, "{}x{}x{} at {} threads", m, k, n, threads);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The plan's offset-addressed phase columns against the zero-insertion
// im2col.
// ---------------------------------------------------------------------------

/// The phase columns `ConvPlan::columns_into` reads from one `[C, H, W]`
/// sample's frame through the offset tables the GEMMs read.
fn plan_columns(plan: &ConvPlan, input: &Tensor) -> Vec<f32> {
    let mut cols = vec![f32::NAN; plan.cols_len()];
    plan.columns_into(input.data(), &mut cols);
    cols
}

/// One axis of a zero-insertion im2col: `phases` phases, phase `r` at
/// positions `r, r + phases, …` below `output`, where kernel tap `j` is
/// live iff `live(r, j)`.
struct DenseAxis<'a> {
    output: usize,
    kernel: usize,
    phases: usize,
    live: &'a dyn Fn(usize, usize) -> bool,
}

/// Selects the zero-free phase columns from a dense `[C·Kh·Kw, Oh·Ow]`
/// im2col matrix, in the plan's layout: phase blocks row phase × column
/// phase, each `[C·|live taps|, positions]` with taps and positions
/// ascending.
fn zero_free_selection(dense: &[f32], c: usize, rows: &DenseAxis, cols: &DenseAxis) -> Vec<f32> {
    let (kh, kw, ow) = (rows.kernel, cols.kernel, cols.output);
    let at = |ci: usize, ky: usize, kx: usize, oy: usize, ox: usize| {
        dense[((ci * kh + ky) * kw + kx) * rows.output * ow + oy * ow + ox]
    };
    let positions = |a: &DenseAxis, r: usize| (r..a.output).step_by(a.phases);
    let taps = |a: &DenseAxis, r: usize| -> Vec<usize> {
        (0..a.kernel).filter(|&j| (a.live)(r, j)).collect()
    };
    let mut out = Vec::with_capacity(dense.len());
    for ry in 0..rows.phases {
        for rx in 0..cols.phases {
            for ci in 0..c {
                for ky in taps(rows, ry) {
                    for kx in taps(cols, rx) {
                        for oy in positions(rows, ry) {
                            out.extend(positions(cols, rx).map(|ox| at(ci, ky, kx, oy, ox)));
                        }
                    }
                }
            }
        }
    }
    out
}

/// Every entry of a dense im2col matrix that [`zero_free_selection`]
/// leaves out is a structural zero of the input: a T-CONV phase drops
/// only inserted and padding zeros, never a real input.
fn assert_dropped_entries_are_zeros(dense: &[f32], axis: &DenseAxis) {
    let (k, o) = (axis.kernel, axis.output);
    for (i, &v) in dense.iter().enumerate() {
        let (row, pos) = (i / (o * o), i % (o * o));
        let (ky, kx, oy, ox) = ((row / k) % k, row % k, pos / o, pos % o);
        let live = (axis.live)(oy % axis.phases, ky) && (axis.live)(ox % axis.phases, kx);
        assert!(live || v == 0.0, "a dropped tap reads a real input");
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// S-CONV: one phase holding every tap, the reference `im2col_into`.
fn check_sconv_columns(geom: &SconvGeometry, c: usize, seed: u32) {
    let input = det_tensor(&[c, geom.input, geom.input], seed);
    let mut want = vec![0.0; c * geom.kernel * geom.kernel * geom.output * geom.output];
    im2col_into(&input, geom, &mut want);
    let got = plan_columns(&geom.plan(c, 1), &input);
    assert_eq!(bits(&got), bits(&want), "{geom:?} c={c}");
}

/// T-CONV: `S′` phases per axis over the reference `im2col_into` of the
/// zero-inserted, padded input — end pad included.
fn check_tconv_columns(geom: &TconvGeometry, c: usize, seed: u32) {
    let input = det_tensor(&[c, geom.input, geom.input], seed);
    let expanded = expand_tconv_input(&input, geom);
    let inner = SconvGeometry::new(geom.expanded(), geom.kernel, 1, 0).unwrap();
    assert_eq!(inner.output, geom.output);
    let mut dense = vec![0.0; c * geom.kernel * geom.kernel * geom.output * geom.output];
    im2col_into(&expanded, &inner, &mut dense);
    let s = geom.converse_stride;
    // Tap `j` of output `o` meets a real input iff `o + j − P` is a
    // multiple of `S′`.
    let live =
        |r: usize, j: usize| (r + j + s * geom.kernel - geom.insertion_pad).is_multiple_of(s);
    let axis = DenseAxis {
        output: geom.output,
        kernel: geom.kernel,
        phases: s,
        live: &live,
    };
    assert_dropped_entries_are_zeros(&dense, &axis);
    let want = zero_free_selection(&dense, c, &axis, &axis);
    let got = plan_columns(&geom.plan(c, 1), &input);
    assert_eq!(bits(&got), bits(&want), "{geom:?} c={c}");
}

/// D-CONV: one phase holding the true taps of the zero-inserted kernel's
/// im2col (`im2col_dconv`), on either axis independently. The rows it
/// drops are the ones the inserted kernel zeros multiply.
fn check_dconv_columns(geom: &DconvGeometry, c: usize, seed: u32) {
    let input = det_tensor(&[c, geom.rows.input, geom.cols.input], seed);
    let dense = im2col_dconv(&input, geom);
    let (dh, dw) = (geom.rows.dilation, geom.cols.dilation);
    let live_h = |_: usize, j: usize| j.is_multiple_of(dh);
    let live_w = |_: usize, j: usize| j.is_multiple_of(dw);
    let rows = DenseAxis {
        output: geom.rows.output,
        kernel: geom.rows.effective_kernel(),
        phases: 1,
        live: &live_h,
    };
    let cols = DenseAxis {
        output: geom.cols.output,
        kernel: geom.cols.effective_kernel(),
        phases: 1,
        live: &live_w,
    };
    let want = zero_free_selection(dense.data(), c, &rows, &cols);
    let got = plan_columns(&geom.plan(c, 1), &input);
    assert_eq!(bits(&got), bits(&want), "{geom:?} c={c}");
}

#[test]
fn frame_columns_cover_the_edge_geometries() {
    // 4k1s: a same-size stride-1 T-CONV with an even kernel needs one
    // extra end-pad zero, so the frame reaches past pad + input.
    let g = TconvGeometry::for_target(4, 4, 1, 4).unwrap();
    assert_eq!((g.output, g.extra_end_pad), (4, 1));
    check_tconv_columns(&g, 2, 1);
    // K < S′: phases with no live tap.
    let g = TconvGeometry::for_upsampling(3, 1, 3).unwrap();
    assert!(g.kernel < g.converse_stride);
    check_tconv_columns(&g, 2, 2);
    // O < S′: phases with no output position.
    let g = TconvGeometry::for_target(1, 2, 3, 2).unwrap();
    assert!(g.output < g.converse_stride);
    check_tconv_columns(&g, 1, 3);
    // Asymmetric Kh × Kw, dilation and stride on one axis only.
    let g = DconvGeometry::new(
        DconvAxis::new(7, 3, 1, 2, 2).unwrap(),
        DconvAxis::new(9, 2, 2, 1, 0).unwrap(),
    );
    check_dconv_columns(&g, 3, 4);
}

fn tconv_any() -> impl Strategy<Value = TconvGeometry> {
    (1usize..7, 1usize..6, 1usize..4, 0usize..20)
        .prop_filter_map("geometry must exist", |(i, k, s, target)| {
            TconvGeometry::for_target(i, k, s, target.max(1))
        })
}

fn dconv_axis() -> impl Strategy<Value = DconvAxis> {
    (1usize..10, 1usize..5, 1usize..4, 1usize..4, 0usize..4)
        .prop_filter_map("axis must exist", |(i, k, s, d, p)| {
            DconvAxis::new(i, k, s, d, p)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sconv_frame_columns_are_the_reference_im2col(geom in sconv_config(), c in 1usize..4, seed in 0u32..1000) {
        check_sconv_columns(&geom, c, seed);
    }

    #[test]
    fn tconv_frame_columns_are_the_zero_inserted_im2col(geom in tconv_any(), c in 1usize..4, seed in 0u32..1000) {
        check_tconv_columns(&geom, c, seed);
    }

    #[test]
    fn dconv_frame_columns_are_the_zero_inserted_kernel_im2col(rows in dconv_axis(), cols in dconv_axis(), c in 1usize..4, seed in 0u32..1000) {
        check_dconv_columns(&DconvGeometry::new(rows, cols), c, seed);
    }
}

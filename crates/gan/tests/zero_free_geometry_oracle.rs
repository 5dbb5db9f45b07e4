//! The trainer's conv-family layer against the per-sample reference
//! kernels, over the geometries the topology grammar can produce.
//!
//! `ConvTrainLayer` runs S-CONV, T-CONV and D-CONV on one zero-free phase
//! plan and never materialises an inserted zero; its input gradient is
//! the dual plan's forward on the flipped kernel. The oracle runs one
//! sample at a time on the `lergan-tensor` reference kernels — for T-CONV
//! and D-CONV the formulation the analytics count as `macs_dense`:
//!
//! * S-CONV forward, ∇W and ∇input: the loop-nest `Conv2d::forward`,
//!   `Conv2d::weight_grad` and `Conv2d::input_grad`.
//! * T-CONV forward `tconv_forward_zero_insert`; ∇W the stride-1
//!   `Conv2d::weight_grad` over `expand_tconv_input`; ∇input the stride-1
//!   `Conv2d::input_grad` over the expanded plane, gathered back at the
//!   original positions.
//! * D-CONV forward `dconv_zero_insertion`; ∇W the defining dot products
//!   over the dense `im2col_dconv` rows of the true taps; ∇input the
//!   training oracle's true-tap scatter `dconv_input_grad_scatter`.
//!
//! Per-sample weight gradients are folded by the library's fixed
//! reduction tree. Every value must match bit for bit, at batch 1 and 3,
//! under each [`Grads`] request, at 1, 2 and 8 worker threads, with the
//! layer's output, ∇input and partial-gradient buffers drawn NaN-poisoned
//! from its workspace.
//!
//! The plan's GEMMs read the input frame in place through offset tables,
//! eight positions (or taps, or channels) per vector: the edge inputs
//! cover window widths 1–17 (tiles that span two window rows, partial
//! tiles), column strides 1–3 and 1, 3, 8, 9 and 17 output channels.

mod oracle;

use lergan_gan::train::{tree_reduce_in_place, ConvTrainLayer, Grads, TrainableLayer};
use lergan_tensor::conv::{tconv_forward_zero_insert, Conv2d};
use lergan_tensor::dconv::{dconv_zero_insertion, im2col_dconv};
use lergan_tensor::zero_insert::expand_tconv_input;
use lergan_tensor::{
    parallel, DconvAxis, DconvGeometry, SconvGeometry, TconvGeometry, Tensor, Workspace,
};
use oracle::dconv_input_grad_scatter;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn det(shape: &[usize], seed: u32) -> Tensor {
    let mut state = seed.wrapping_mul(747796405).wrapping_add(1);
    Tensor::from_fn(shape, |_| {
        state = state.wrapping_mul(1664525).wrapping_add(1013904223);
        ((state >> 16) as f32 / 65536.0) - 0.5
    })
}

fn bits_eq(a: &[f32], b: &[f32], what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len(), "{} length", what);
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        prop_assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{} element {} ({} vs {})",
            what,
            i,
            x,
            y
        );
    }
    Ok(())
}

/// One sample's oracle results: output, weight gradient, input gradient.
type Oracle = (Tensor, Tensor, Tensor);

/// Runs `layer` (fresh from `build`) on `batch` samples under every
/// [`Grads`] request at 1, 2 and 8 threads, and bit-compares against the
/// per-sample `oracle`, with weight gradients folded by the fixed tree.
fn check<L: TrainableLayer>(
    build: impl Fn() -> L,
    in_shape: &[usize],
    out_shape: &[usize],
    batch: usize,
    seed: u32,
    oracle: impl Fn(&Tensor, &Tensor, &Tensor) -> Oracle,
) -> Result<(), TestCaseError> {
    let weights = build().capture_state().get("weights").unwrap().clone();
    let inputs: Vec<Tensor> = (0..batch).map(|b| det(in_shape, seed + b as u32)).collect();
    let seeds: Vec<Tensor> = (0..batch)
        .map(|b| det(out_shape, seed + 50 + b as u32))
        .collect();
    let expected: Vec<Oracle> = inputs
        .iter()
        .zip(&seeds)
        .map(|(x, g)| oracle(x, &weights, g))
        .collect();
    let wlen = weights.len();
    let mut parts: Vec<f32> = expected.iter().flat_map(|e| e.1.data().to_vec()).collect();
    tree_reduce_in_place(&mut parts, batch, wlen);
    let mut want_grad = Tensor::zeros(weights.shape());
    want_grad.axpy_slice_in_place(1.0, &parts[..wlen]);

    let packed = lergan_gan::train::pack_batch(&inputs);
    let packed_seeds = lergan_gan::train::pack_batch(&seeds);
    let ilen = inputs[0].len();
    let olen = seeds[0].len();
    for threads in [1usize, 2, 8] {
        parallel::with_threads(threads, || -> Result<(), TestCaseError> {
            for grads in [Grads::All, Grads::Params, Grads::Input] {
                let mut ws = Workspace::new();
                for len in [batch * olen, batch * ilen, batch * wlen] {
                    ws.give(vec![f32::NAN; len]);
                }
                let mut layer = build();
                let out = layer.forward_batch(&packed, batch, &mut ws).unwrap();
                let olen = out.len() / batch;
                for (b, e) in expected.iter().enumerate() {
                    bits_eq(&out.data()[b * olen..(b + 1) * olen], e.0.data(), "output")?;
                }
                let din = layer
                    .backward_batch(&packed_seeds, batch, grads, &mut ws)
                    .unwrap();
                let got_grad = layer.capture_grads();
                let got_grad = got_grad.get("grad").unwrap().data();
                if grads.params() {
                    bits_eq(got_grad, want_grad.data(), "∇W")?;
                } else {
                    prop_assert!(got_grad.iter().all(|&v| v == 0.0), "∇W accumulated");
                }
                match din {
                    Some(din) => {
                        prop_assert!(grads.input(), "∇input returned for {:?}", grads);
                        let ilen = din.len() / batch;
                        for (b, e) in expected.iter().enumerate() {
                            bits_eq(&din.data()[b * ilen..(b + 1) * ilen], e.2.data(), "∇input")?;
                        }
                    }
                    None => prop_assert!(!grads.input(), "no ∇input for {:?}", grads),
                }
            }
            Ok(())
        })?;
    }
    Ok(())
}

fn check_sconv(
    geom: SconvGeometry,
    (ic, oc): (usize, usize),
    batch: usize,
    seed: u32,
) -> Result<(), TestCaseError> {
    let build = || ConvTrainLayer::new(ic, oc, geom, &mut StdRng::seed_from_u64(u64::from(seed)));
    let (i, o) = (geom.input, geom.output);
    check(build, &[ic, i, i], &[oc, o, o], batch, seed, |x, w, g| {
        let conv = Conv2d::new(ic, oc, geom.kernel, geom.stride, geom.pad).unwrap();
        (
            conv.forward(x, w),
            conv.weight_grad(x, g),
            conv.input_grad(g, w, i),
        )
    })
}

fn check_tconv(
    geom: TconvGeometry,
    (ic, oc): (usize, usize),
    batch: usize,
    seed: u32,
) -> Result<(), TestCaseError> {
    let build = || ConvTrainLayer::new(ic, oc, geom, &mut StdRng::seed_from_u64(u64::from(seed)));
    let (p, s) = (geom.insertion_pad, geom.converse_stride);
    check(
        build,
        &[ic, geom.input, geom.input],
        &[oc, geom.output, geom.output],
        batch,
        seed,
        |x, w, g| {
            let inner = Conv2d::new(ic, oc, geom.kernel, 1, 0).unwrap();
            let dex = inner.input_grad(g, w, geom.expanded());
            let din = Tensor::from_fn(&[ic, geom.input, geom.input], |i| {
                dex[&[i[0], p + i[1] * s, p + i[2] * s]]
            });
            let dw = inner.weight_grad(&expand_tconv_input(x, &geom), g);
            (tconv_forward_zero_insert(x, w, &geom), dw, din)
        },
    )
}

fn check_dconv(
    geom: DconvGeometry,
    (ic, oc): (usize, usize),
    batch: usize,
    seed: u32,
) -> Result<(), TestCaseError> {
    let build = || ConvTrainLayer::new(ic, oc, geom, &mut StdRng::seed_from_u64(u64::from(seed)));
    let (h, w) = (geom.rows.input, geom.cols.input);
    let (kh, kw) = (geom.rows.kernel, geom.cols.kernel);
    let (eh, ew) = (geom.rows.effective_kernel(), geom.cols.effective_kernel());
    let (dh, dw) = (geom.rows.dilation, geom.cols.dilation);
    let oo = geom.rows.output * geom.cols.output;
    check(
        build,
        &[ic, h, w],
        &[oc, geom.rows.output, geom.cols.output],
        batch,
        seed,
        |x, wt, g| {
            let cols = im2col_dconv(x, &geom);
            let grad = Tensor::from_fn(&[oc, ic, kh, kw], |i| {
                let row = (i[1] * eh + i[2] * dh) * ew + i[3] * dw;
                let mut acc = 0.0;
                for pos in 0..oo {
                    acc += g.data()[i[0] * oo + pos] * cols.data()[row * oo + pos];
                }
                acc
            });
            let mut din = vec![0.0; ic * h * w];
            dconv_input_grad_scatter(g.data(), wt, &geom, &mut din);
            (
                dconv_zero_insertion(x, wt, &geom),
                grad,
                Tensor::from_vec(&[ic, h, w], din),
            )
        },
    )
}

#[test]
fn named_sconv_geometries_match_the_loop_nest_oracle() {
    let sconv = |i, k, s, p| SconvGeometry::new(i, k, s, p).unwrap();
    let cases = [
        // 3k2s 16->8: the reduced benchmark GANs.
        (sconv(16, 3, 2, 1), "3k2s"),
        // 5k2s 8->4 with R = 1: DCGAN.
        (sconv(8, 5, 2, 2), "5k2s"),
        // 4k2s: most Table V discriminators.
        (sconv(16, 4, 2, 1), "4k2s"),
        (sconv(8, 3, 1, 1), "3k1s"),
        (sconv(8, 1, 1, 0), "1k1s"),
        // 3k3s: three dual phases per axis.
        (sconv(9, 3, 3, 0), "3k3s"),
    ];
    assert_eq!(cases[0].0.output, 8, "3k2s halves 16");
    assert_eq!(
        (cases[1].0.output, cases[1].0.remainder),
        (4, 1),
        "5k2s realises R = 1"
    );
    for (geom, name) in cases {
        for batch in [1, 3] {
            check_sconv(geom, (3, 2), batch, 5)
                .unwrap_or_else(|e| panic!("{name} at batch {batch}: {e}"));
        }
    }
}

/// The T-CONV geometry the grammar builds for `kernel`/`stride` from
/// `input` to `output` (`TconvGeometry::for_target`, exact outputs only).
fn tconv(input: usize, kernel: usize, stride: usize, output: usize) -> Option<TconvGeometry> {
    TconvGeometry::for_target(input, kernel, stride, output).filter(|g| g.output == output)
}

#[test]
fn named_tconv_geometries_match_the_zero_insertion_oracle() {
    let cases = [
        // 3k2s: the reduced benchmark GANs.
        (tconv(4, 3, 2, 8).unwrap(), "3k2s"),
        // 4k2s: most Table V generators.
        (tconv(4, 4, 2, 8).unwrap(), "4k2s"),
        // 5k2s with R = 1: DCGAN.
        (tconv(4, 5, 2, 8).unwrap(), "5k2s"),
        // 7k1s: MAGAN.
        (tconv(5, 7, 1, 5).unwrap(), "7k1s"),
        // 3k3s: three phases per axis.
        (tconv(3, 3, 3, 9).unwrap(), "3k3s"),
        // 4k1s: ArtGAN-CIFAR-10, realised with one extra end-pad zero.
        (tconv(4, 4, 1, 4).unwrap(), "4k1s"),
    ];
    assert_eq!(cases[2].0.remainder, 1, "5k2s realises R = 1");
    assert_eq!(cases[5].0.extra_end_pad, 1, "4k1s needs the extra end pad");
    for (geom, name) in cases {
        for batch in [1, 3] {
            check_tconv(geom, (3, 2), batch, 7)
                .unwrap_or_else(|e| panic!("{name} at batch {batch}: {e}"));
        }
    }
}

#[test]
fn named_dconv_geometries_match_the_zero_insertion_oracle() {
    let axis = |i, k, s, d, o| DconvAxis::for_target(i, k, s, d, o).unwrap();
    let cases = [
        // 3k1s2d: the extended benchmark discriminator.
        DconvGeometry::new(axis(8, 3, 1, 2, 8), axis(8, 3, 1, 2, 8)),
        // Asymmetric kernel, stride and dilation per axis.
        DconvGeometry::new(axis(9, 3, 2, 3, 5), axis(9, 2, 1, 2, 9)),
        DconvGeometry::new(axis(8, 1, 1, 1, 8), axis(8, 5, 2, 2, 4)),
        DconvGeometry::new(axis(10, 3, 2, 2, 5), axis(7, 3, 1, 3, 7)),
    ];
    for geom in cases {
        for batch in [1, 3] {
            check_dconv(geom, (2, 3), batch, 11)
                .unwrap_or_else(|e| panic!("{geom:?} at batch {batch}: {e}"));
        }
    }
}

/// Output channels the edge inputs cycle through: below, at and past one
/// vector of eight lanes, and past two.
const EDGE_CHANNELS: [usize; 5] = [1, 3, 8, 9, 17];

#[test]
fn window_widths_strides_and_channel_counts_match_the_oracles() {
    for stride in 1..=3 {
        for width in 1..=17 {
            let oc = EDGE_CHANNELS[(width + stride) % EDGE_CHANNELS.len()];
            let name = format!("stride {stride}, width {width}, {oc} channels");
            // An S-CONV whose windows are `width` wide and tall: its
            // forward reads the column-split frame at `stride`, its dual
            // runs `stride` phases per axis.
            let sconv = SconvGeometry::new((width - 1) * stride + 1, 3, stride, 1).unwrap();
            assert_eq!(sconv.output, width);
            // A D-CONV three rows tall: one window row per vector tile at
            // width 8, two or more below it.
            let dconv = DconvGeometry::new(
                DconvAxis::for_target(5, 3, 1, 2, 5).unwrap(),
                DconvAxis::new((width - 1) * stride + 1, 2, stride, 2, 1).unwrap(),
            );
            assert_eq!(dconv.cols.output, width);
            for batch in [1, 3] {
                check_sconv(sconv, (2, oc), batch, width as u32)
                    .unwrap_or_else(|e| panic!("S-CONV {name} at batch {batch}: {e}"));
                check_dconv(dconv, (2, oc), batch, width as u32)
                    .unwrap_or_else(|e| panic!("D-CONV {name} at batch {batch}: {e}"));
            }
        }
        // T-CONVs upsampling by `stride`: phase windows as wide as the
        // input, and a dual that reads the column-split frame at `stride`.
        for input in 1..=9 {
            let oc = EDGE_CHANNELS[(input + stride) % EDGE_CHANNELS.len()];
            let geom = tconv(input, 3, stride, input * stride).unwrap();
            for batch in [1, 3] {
                check_tconv(geom, (2, oc), batch, input as u32).unwrap_or_else(|e| {
                    panic!("T-CONV stride {stride}, input {input}, {oc} channels at batch {batch}: {e}")
                });
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random grammar S-CONV geometries: kernel 1–7, stride 1–3 and every
    /// pad below the kernel that `SconvGeometry::new` accepts, including
    /// `R > 0`, where the last input rows are reached by no window.
    #[test]
    fn random_sconv_geometries_match_the_loop_nest_oracle(
        input in 1usize..12,
        kernel in 1usize..8,
        stride in 1usize..4,
        ic in 1usize..4,
        oc in 1usize..4,
        batch in prop_oneof![Just(1usize), Just(3)],
        seed in 0u32..1000,
    ) {
        let geoms: Vec<_> =
            (0..kernel).filter_map(|p| SconvGeometry::new(input, kernel, stride, p)).collect();
        prop_assume!(!geoms.is_empty());
        for geom in geoms {
            check_sconv(geom, (ic, oc), batch, seed)?;
        }
    }

    /// Random grammar T-CONV geometries: any kernel, converse stride and
    /// upsampling target `for_target` realises exactly, including kernels
    /// smaller than the stride (phases with no live tap).
    #[test]
    fn random_tconv_geometries_match_the_zero_insertion_oracle(
        input in 1usize..6,
        kernel in 1usize..8,
        stride in 1usize..4,
        grow in 0usize..2,
        ic in 1usize..4,
        oc in 1usize..4,
        batch in prop_oneof![Just(1usize), Just(3)],
        seed in 0u32..1000,
    ) {
        let geom = tconv(input, kernel, stride, input * stride + grow);
        prop_assume!(geom.is_some());
        check_tconv(geom.unwrap(), (ic, oc), batch, seed)?;
    }

    /// Random D-CONV geometries with per-axis kernels, strides 1–2 and
    /// dilations 1–3, at the extents `for_target` realises.
    #[test]
    fn random_dconv_geometries_match_the_zero_insertion_oracle(
        (h, w) in (3usize..10, 3usize..10),
        (kh, kw) in (1usize..4, 1usize..4),
        (sh, sw) in (1usize..3, 1usize..3),
        (dh, dw) in (1usize..4, 1usize..4),
        ic in 1usize..4,
        oc in 1usize..4,
        batch in prop_oneof![Just(1usize), Just(3)],
        seed in 0u32..1000,
    ) {
        let rows = DconvAxis::for_target(h, kh, sh, dh, h.div_ceil(sh));
        let cols = DconvAxis::for_target(w, kw, sw, dw, w.div_ceil(sw));
        prop_assume!(rows.is_some() && cols.is_some());
        check_dconv(DconvGeometry::new(rows.unwrap(), cols.unwrap()), (ic, oc), batch, seed)?;
    }
}

//! The simulator's ZFDR reshape classes describe the GEMMs the zero-free
//! executor runs.
//!
//! `ZfdrPlan` is the cost model: per axis position, the kernel taps
//! (T-CONV), effective kernel offsets `j·D` (D-CONV) or `∇out` indices
//! (W-CONV-S) that meet a real input. `ConvPlan` is the executor: one
//! GEMM per output phase over the raw input. Over every T-CONV, S-CONV
//! weight gradient and symmetric D-CONV of the benchmark GANs, and over
//! random grammar geometries, two checks tie them:
//!
//! * **(a) Support.** Over an all-ones input, a one-hot kernel (a one-hot
//!   `∇out` for W-CONV-S) yields 1 exactly where the executed plan
//!   multiplies that tap by a real input. Those positions must be exactly
//!   the pairs the class patterns list.
//! * **(b) MACs.** `oc · cols_len`, the MACs the plan's forward GEMMs
//!   execute, equals `ic · oc · Π_axis (Σ_o |pattern(o)| + border)`. The
//!   border term counts the (position, tap) pairs of a phase window that
//!   read im2col padding: taps the Edge and Corner classes clip.
//!
//! Only the public `ConvPlan` API is used.

use lergan_core::ZfdrPlan;
use lergan_gan::{benchmarks, Layer};
use lergan_tensor::im2col::{ConvGeometry, ConvPlan};
use lergan_tensor::{
    DconvAxis, DconvGeometry, SconvGeometry, TconvGeometry, Tensor, WconvGeometry,
};
use proptest::prelude::*;
use std::collections::HashSet;

/// Channel counts of the MAC check.
const CHANNELS: (usize, usize) = (3, 2);

/// The pattern at every axis position of `plan`.
fn patterns(plan: &ZfdrPlan) -> Vec<Vec<usize>> {
    (0..plan.positions())
        .map(|p| plan.axis_classes()[plan.class_at(p)].pattern.clone())
        .collect()
}

/// A tensor of `shape` that is 1 at `[.., y, x]` and 0 elsewhere.
fn one_hot(shape: &[usize], y: usize, x: usize) -> Tensor {
    Tensor::from_fn(shape, |i| f32::from(u8::from(i[i.len() - 2..] == [y, x])))
}

/// (a) For every probe `(a, b)` — a one-hot tap or `∇out` element —
/// `run(a, b)` over an all-ones input is 1 exactly at the positions `(y,
/// x)` where `patterns[y]` lists `key(a)` and `patterns[x]` lists
/// `key(b)`, and 0 elsewhere.
fn check_support(
    patterns: &[Vec<usize>],
    probes: usize,
    key: impl Fn(usize) -> usize,
    run: impl Fn(usize, usize) -> Tensor,
    what: &str,
) {
    let n = patterns.len();
    for a in 0..probes {
        for b in 0..probes {
            let want: Vec<f32> = (0..n * n)
                .map(|p| {
                    let (y, x) = (p / n, p % n);
                    f32::from(u8::from(
                        patterns[y].contains(&key(a)) && patterns[x].contains(&key(b)),
                    ))
                })
                .collect();
            assert_eq!(
                run(a, b).data(),
                &want[..],
                "{what}: support of probe ({a}, {b})"
            );
        }
    }
}

/// (b) `oc · cols_len` of the `CHANNELS` plan equals `ic · oc` times the
/// square of one axis's useful pairs plus its `border` pairs.
fn check_macs(plan: &ConvPlan, patterns: &[Vec<usize>], border: usize, what: &str) {
    let (ic, oc) = CHANNELS;
    let useful: usize = patterns.iter().map(Vec::len).sum();
    assert_eq!(
        oc * plan.cols_len(),
        ic * oc * (useful + border).pow(2),
        "{what}: executed MACs vs useful {useful} + border {border} per axis"
    );
}

fn check_tconv(g: &TconvGeometry) {
    let what = format!("T-CONV {g:?}");
    let pat = patterns(&ZfdrPlan::for_tconv(g));
    let (k, o) = (g.kernel, g.output);
    let plan = g.plan(1, 1);
    let ones = Tensor::ones(&[1, g.input, g.input]);
    check_support(
        &pat,
        k,
        |j| j,
        |a, b| plan.forward(&ones, &one_hot(&[1, 1, k, k], a, b)),
        &what,
    );
    // A phase window holds the pairs whose expanded coordinate `o + j`
    // lies on the insertion lattice `P + x·S′`; it reads padding where
    // `x` falls outside the input.
    let s = g.converse_stride as isize;
    let border = (0..o)
        .flat_map(|o| (0..k).map(move |j| o + j))
        .filter(|&e| {
            (e as isize - g.insertion_pad as isize).rem_euclid(s) == 0
                && g.original_of_expanded(e).is_none()
        })
        .count();
    check_macs(&g.plan(CHANNELS.0, CHANNELS.1), &pat, border, &what);
}

fn check_wconv(g: &SconvGeometry) {
    let what = format!("W-CONV-S {g:?}");
    let w = WconvGeometry { forward: *g };
    let pat = patterns(&ZfdrPlan::for_wconv(&w));
    let (k, o) = (g.kernel, g.output);
    let plan = g.plan(1, 1);
    let ones = Tensor::ones(&[1, g.input, g.input]);
    check_support(
        &pat,
        o,
        |oh| oh,
        |a, b| plan.weight_grad(&ones, &one_hot(&[1, o, o], a, b)),
        &what,
    );
    // One phase: every (tap, ∇out) pair is in the window.
    let border = (0..k)
        .flat_map(|i| (0..o).map(move |oh| i + oh * g.stride))
        .filter(|&pos| !w.is_true_input(pos))
        .count();
    check_macs(&g.plan(CHANNELS.0, CHANNELS.1), &pat, border, &what);
}

fn check_dconv(axis: &DconvAxis) {
    let what = format!("D-CONV {axis:?}");
    let g = DconvGeometry::new(*axis, *axis);
    let pat = patterns(&ZfdrPlan::for_dconv(axis));
    let k = axis.kernel;
    let plan = g.plan(1, 1);
    let ones = Tensor::ones(&[1, axis.input, axis.input]);
    check_support(
        &pat,
        k,
        |j| j * axis.dilation,
        |a, b| plan.forward(&ones, &one_hot(&[1, 1, k, k], a, b)),
        &what,
    );
    // One phase: every (position, tap) pair is in the window.
    let border = (0..axis.output)
        .flat_map(|o| (0..k).map(move |j| o * axis.stride + j * axis.dilation))
        .filter(|&pos| pos < axis.pad || pos >= axis.pad + axis.input)
        .count();
    check_macs(&g.plan(CHANNELS.0, CHANNELS.1), &pat, border, &what);
}

/// Every layer of the Table V and extended benchmarks.
fn benchmark_layers() -> Vec<Layer> {
    benchmarks::all()
        .into_iter()
        .chain(benchmarks::extended())
        .flat_map(|gan| [gan.generator, gan.discriminator])
        .flat_map(|net| net.layers)
        .collect()
}

#[test]
fn benchmark_tconv_classes_are_the_executed_phases() {
    let mut seen = HashSet::new();
    for layer in benchmark_layers() {
        if let Layer::Tconv(t) = layer {
            if seen.insert(t.geometry) {
                check_tconv(&t.geometry);
            }
        }
    }
    assert!(seen.len() >= 10, "only {} T-CONV geometries", seen.len());
}

#[test]
fn benchmark_wconv_classes_are_the_executed_weight_gradient() {
    let mut seen = HashSet::new();
    for layer in benchmark_layers() {
        if let Layer::Conv(c) = layer {
            if seen.insert(c.geometry) {
                check_wconv(&c.geometry);
            }
        }
    }
    assert!(seen.len() >= 10, "only {} S-CONV geometries", seen.len());
}

#[test]
fn benchmark_dconv_classes_are_the_executed_taps() {
    let mut seen = HashSet::new();
    for layer in benchmark_layers() {
        if let Layer::Dconv(d) = layer {
            if d.geometry.is_symmetric() && seen.insert(d.geometry.rows) {
                check_dconv(&d.geometry.rows);
            }
        }
    }
    assert!(!seen.is_empty(), "no symmetric D-CONV geometry");
}

#[test]
fn conv1_executes_400_macs_for_289_useful_per_channel_pair() {
    // DCGAN CONV1 (Sec. III-A): 17 useful (position, tap) pairs per axis,
    // plus 3 pairs whose phase window reads padding.
    let g = TconvGeometry::for_upsampling(4, 5, 2).unwrap();
    assert_eq!(g.useful_multiplications_per_channel(), 289);
    assert_eq!(g.plan(1, 1).cols_len(), 400);
    check_tconv(&g);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Grammar T-CONV geometries: any kernel, converse stride and
    /// upsampling target `for_target` realises exactly, including kernels
    /// smaller than the stride.
    #[test]
    fn random_tconv_classes_are_the_executed_phases(
        input in 1usize..8,
        kernel in 1usize..8,
        stride in 1usize..4,
        grow in 0usize..2,
    ) {
        let output = input * stride + grow;
        let geom = TconvGeometry::for_target(input, kernel, stride, output)
            .filter(|g| g.output == output);
        prop_assume!(geom.is_some());
        check_tconv(&geom.unwrap());
    }

    /// Grammar S-CONV geometries: kernel 1–7, stride 1–3 and every pad
    /// below the kernel that `SconvGeometry::new` accepts, including
    /// `R > 0`.
    #[test]
    fn random_wconv_classes_are_the_executed_weight_gradient(
        input in 1usize..14,
        kernel in 1usize..8,
        stride in 1usize..4,
    ) {
        let geoms: Vec<_> =
            (0..kernel).filter_map(|p| SconvGeometry::new(input, kernel, stride, p)).collect();
        prop_assume!(!geoms.is_empty());
        for g in &geoms {
            check_wconv(g);
        }
    }

    /// Symmetric D-CONV geometries: kernel 1–4, stride 1–2 and dilation
    /// 1–3 at the extents `for_target` realises.
    #[test]
    fn random_dconv_classes_are_the_executed_taps(
        input in 3usize..12,
        kernel in 1usize..5,
        stride in 1usize..3,
        dilation in 1usize..4,
    ) {
        let axis = DconvAxis::for_target(input, kernel, stride, dilation, input.div_ceil(stride));
        prop_assume!(axis.is_some());
        check_dconv(&axis.unwrap());
    }
}

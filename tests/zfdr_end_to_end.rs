//! Cross-crate functional tests: the zero-free executor, `ConvPlan`, must
//! agree bit for bit with the naive zero-insertion kernels on every
//! geometry that occurs in the benchmark GANs, at full extent.

use lergan::gan::{benchmarks, Layer};
use lergan::tensor::conv::{tconv_forward_zero_insert, wconv_weight_grad_zero_insert};
use lergan::tensor::dconv::dconv_zero_insertion;
use lergan::tensor::im2col::ConvGeometry;
use lergan::tensor::{Tensor, WconvGeometry};
use proptest::prelude::*;
use std::collections::HashSet;

fn det(shape: &[usize], seed: u32) -> Tensor {
    let mut state = seed.wrapping_mul(2654435761).wrapping_add(99);
    Tensor::from_fn(shape, |_| {
        state = state.wrapping_mul(1664525).wrapping_add(1013904223);
        ((state >> 16) as f32 / 65536.0) - 0.5
    })
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Every layer of the Table V benchmarks and the extended set.
fn benchmark_layers() -> Vec<Layer> {
    benchmarks::all()
        .into_iter()
        .chain(benchmarks::extended())
        .flat_map(|gan| [gan.generator, gan.discriminator])
        .flat_map(|net| net.layers)
        .collect()
}

/// Every distinct T-CONV geometry, with reduced channels.
#[test]
fn zfdr_matches_naive_on_every_benchmark_tconv_geometry() {
    let mut seen = HashSet::new();
    let mut exercised = 0;
    for layer in benchmark_layers() {
        let Layer::Tconv(t) = layer else { continue };
        let g = t.geometry;
        if !seen.insert(g) {
            continue;
        }
        let input = det(&[3, g.input, g.input], exercised + 1);
        let weights = det(&[2, 3, g.kernel, g.kernel], exercised + 77);
        let zf = g.plan(3, 2).forward(&input, &weights);
        let naive = tconv_forward_zero_insert(&input, &weights, &g);
        assert_eq!(bits(&zf), bits(&naive), "{g:?}");
        exercised += 1;
    }
    assert!(exercised >= 4, "expected several distinct geometries");
}

/// Every distinct S-CONV geometry's weight-gradient (W-CONV-S) direction.
#[test]
fn wconv_zfdr_matches_naive_on_benchmark_geometries() {
    let mut seen = HashSet::new();
    let mut exercised = 0;
    for layer in benchmark_layers() {
        let Layer::Conv(c) = layer else { continue };
        let g = c.geometry;
        if !seen.insert(g) {
            continue;
        }
        let input = det(&[2, g.input, g.input], exercised + 5);
        let dout = det(&[3, g.output, g.output], exercised + 50);
        let zf = g.plan(2, 3).weight_grad(&input, &dout);
        let naive = wconv_weight_grad_zero_insert(&input, &dout, &WconvGeometry { forward: g });
        assert_eq!(bits(&zf), bits(&naive), "{g:?}");
        exercised += 1;
    }
    assert!(exercised >= 2, "expected several distinct geometries");
}

/// Every distinct D-CONV geometry of the extended benchmarks.
#[test]
fn dconv_plan_matches_naive_on_extended_geometries() {
    let mut seen = HashSet::new();
    for layer in benchmark_layers() {
        let Layer::Dconv(d) = layer else { continue };
        let g = d.geometry;
        if !seen.insert(g) {
            continue;
        }
        let (kh, kw) = (g.rows.kernel, g.cols.kernel);
        let input = det(&[3, g.rows.input, g.cols.input], seen.len() as u32 + 9);
        let weights = det(&[2, 3, kh, kw], seen.len() as u32 + 90);
        let zf = g.plan(3, 2).forward(&input, &weights);
        let naive = dconv_zero_insertion(&input, &weights, &g);
        assert_eq!(bits(&zf), bits(&naive), "{g:?}");
    }
    assert!(
        !seen.is_empty(),
        "the extended benchmarks carry D-CONV layers"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random valid geometries: zero-free execution equals the
    /// zero-insertion reference (the core correctness property of the
    /// paper).
    #[test]
    fn zfdr_tconv_equivalence_random(i in 2usize..8, w in 2usize..6, s in 2usize..4, seed in 0u32..500) {
        prop_assume!(w >= s); // avoid output holes (degenerate for GANs)
        let Some(geom) = lergan::tensor::TconvGeometry::for_upsampling(i, w, s) else {
            return Ok(());
        };
        let input = det(&[2, i, i], seed);
        let weights = det(&[2, 2, w, w], seed + 1000);
        let zf = geom.plan(2, 2).forward(&input, &weights);
        let naive = tconv_forward_zero_insert(&input, &weights, &geom);
        prop_assert_eq!(bits(&zf), bits(&naive));
    }

    /// Random valid W-CONV-S geometries.
    #[test]
    fn zfdr_wconv_equivalence_random(i in 4usize..12, w in 2usize..6, s in 1usize..3, p in 0usize..3, seed in 0u32..500) {
        let Some(geom) = WconvGeometry::new(i, w, s, p) else {
            return Ok(());
        };
        prop_assume!(geom.forward.output >= 1);
        let input = det(&[2, i, i], seed);
        let dout = det(&[2, geom.forward.output, geom.forward.output], seed + 2000);
        let zf = geom.forward.plan(2, 2).weight_grad(&input, &dout);
        let naive = wconv_weight_grad_zero_insert(&input, &dout, &geom);
        prop_assert_eq!(bits(&zf), bits(&naive));
    }
}

//! Golden bit-identity: the GEMM driver behind `gemm`, `gemm_nt` and
//! `mmv` must reproduce the pre-packing kernels (preserved verbatim in
//! `lergan_bench::naive`) **bit-for-bit** on every GEMM shape the eight
//! Table V benchmark GANs execute, at 1, 2, and 8 threads.
//!
//! Both promise the same contract — every output element accumulates its
//! `k` products in ascending order from an f32 `+0.0`, and thread splits
//! only partition output elements — so equality here is exact
//! (`to_bits`), not approximate. Shapes are harvested from the op-graph IR
//! of each benchmark (all six training phases) and clamped to a cap so the
//! suite stays fast; the clamp preserves the shape *mix* (tall, wide,
//! deep, degenerate-thin) that the trainers actually issue.

use lergan::gan::benchmarks;
use lergan::gan::ir::OpGraph;
use lergan::tensor::parallel;
use lergan::tensor::tensor::{gemm, gemm_nt, mmv};
use lergan::tensor::Tensor;
use lergan_bench::naive;
use std::collections::BTreeSet;

/// Cap on each GEMM dimension: big enough to cross every tile boundary of
/// the driver (MR = 8 rows, NR = 8 and WIDE·NR = 64 columns) while keeping
/// the whole benchmark sweep under a second.
const DIM_CAP: usize = 96;

fn det(shape: &[usize], seed: u32) -> Tensor {
    let mut state = seed.wrapping_mul(2891336453).wrapping_add(11);
    Tensor::from_fn(shape, |_| {
        state = state.wrapping_mul(1664525).wrapping_add(1013904223);
        ((state >> 16) as f32 / 65536.0) - 0.5
    })
}

fn assert_bits_eq(got: &[f32], want: &[f32], what: &str, shape: (usize, usize, usize)) {
    assert_eq!(got.len(), want.len(), "{what} length at {shape:?}");
    for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what} bit mismatch at element {i}, shape {shape:?}: {g} vs {w}"
        );
    }
}

/// Every distinct `(m, k, n)` the benchmark op graphs issue, clamped.
fn benchmark_shapes() -> BTreeSet<(usize, usize, usize)> {
    let mut shapes = BTreeSet::new();
    for spec in benchmarks::all() {
        for op in OpGraph::build(&spec).ops() {
            let clamp = |d: u128| (d as usize).clamp(1, DIM_CAP);
            shapes.insert((clamp(op.gemm.m), clamp(op.gemm.k), clamp(op.gemm.n)));
        }
    }
    shapes
}

#[test]
fn gemm_matches_naive_bit_for_bit_on_all_benchmark_shapes() {
    let shapes = benchmark_shapes();
    assert!(
        shapes.len() >= 20,
        "expected a rich shape mix from 8 GANs, got {}",
        shapes.len()
    );
    for (i, &(m, k, n)) in shapes.iter().enumerate() {
        let seed = i as u32 * 7 + 1;
        let a = det(&[m, k], seed);
        let b = det(&[k, n], seed + 1);
        let bt = det(&[n, k], seed + 2);
        let v = det(&[k], seed + 3);
        // The naive kernels are thread-count invariant (proven pre-PR);
        // compute the golden values serially once.
        let (want_g, want_nt, want_v) = parallel::with_threads(1, || {
            (
                naive::gemm(&a, &b),
                naive::gemm_nt(&a, &bt),
                naive::mmv(&a, v.data()),
            )
        });
        for threads in [1, 2, 8] {
            parallel::with_threads(threads, || {
                let what = |op: &str| format!("{op}[{threads}t]");
                assert_bits_eq(gemm(&a, &b).data(), want_g.data(), &what("gemm"), (m, k, n));
                assert_bits_eq(
                    gemm_nt(&a, &bt).data(),
                    want_nt.data(),
                    &what("gemm_nt"),
                    (m, k, n),
                );
                assert_bits_eq(&mmv(&a, v.data()), &want_v, &what("mmv"), (m, k, n));
            });
        }
    }
}

#[test]
fn into_variants_match_naive_on_stale_buffers() {
    // The `_into` entry points must fully overwrite their output buffer;
    // seed it with NaN so any skipped element is caught by the bit check.
    use lergan::tensor::{gemm_into, gemm_nt_into, mmv_into};
    for &(m, k, n) in benchmark_shapes().iter().step_by(5) {
        let a = det(&[m, k], 101);
        let b = det(&[k, n], 102);
        let bt = det(&[n, k], 103);
        let v = det(&[k], 104);
        let want_g = naive::gemm(&a, &b);
        let want_nt = naive::gemm_nt(&a, &bt);
        let want_v = naive::mmv(&a, v.data());
        let mut out = vec![f32::NAN; m * n];
        gemm_into(&a, &b, &mut out);
        assert_bits_eq(&out, want_g.data(), "gemm_into", (m, k, n));
        out.fill(f32::NAN);
        gemm_nt_into(&a, &bt, &mut out);
        assert_bits_eq(&out, want_nt.data(), "gemm_nt_into", (m, k, n));
        let mut vout = vec![f32::NAN; m];
        mmv_into(&a, v.data(), &mut vout);
        assert_bits_eq(&vout, &want_v, "mmv_into", (m, k, n));
    }
}

#[test]
fn all_negative_zero_products_sum_to_positive_zero() {
    // a = [-1, 2] against b = [0, -0]: both products are -0.0, and the
    // chain from +0.0 gives (+0 + -0) + -0 = +0. A fold from -0.0
    // (`Iterator::sum`) would give -0.0 instead.
    let a = Tensor::from_vec(&[1, 2], vec![-1.0, 2.0]);
    let b = Tensor::from_vec(&[2, 1], vec![0.0, -0.0]);
    let bt = Tensor::from_vec(&[1, 2], vec![0.0, -0.0]);
    let want_g = naive::gemm(&a, &b);
    let want_nt = naive::gemm_nt(&a, &bt);
    let want_v = naive::mmv(&a, bt.data());
    for want in [want_g.data(), want_nt.data(), &want_v[..]] {
        assert_eq!(want[0].to_bits(), 0x0000_0000, "oracle is not +0.0");
    }
    let shape = (1, 2, 1);
    assert_bits_eq(gemm(&a, &b).data(), want_g.data(), "gemm", shape);
    assert_bits_eq(gemm_nt(&a, &bt).data(), want_nt.data(), "gemm_nt", shape);
    assert_bits_eq(&mmv(&a, bt.data()), &want_v, "mmv", shape);
}

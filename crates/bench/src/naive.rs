//! The pre-packing GEMM kernels, kept as golden references.
//!
//! These are the row-streaming kernels `lergan_tensor` shipped before its
//! register-tiled driver ([`lergan_tensor::kernel`]): `k` blocked into
//! 256-deep panels, no operand packing, each worker owning disjoint output
//! rows. They exist for exactly two purposes:
//!
//! * **Bit-identity oracles** — the driver promises the same per-element
//!   accumulation chain (`l` ascending from `+0.0`), so
//!   `tests/gemm_bit_identity.rs` pins driver ≡ naive via `to_bits` over
//!   every GEMM shape of the benchmark GANs at 1/2/8 threads.
//! * **Speedup baselines** — `perf_snapshot` times the driver against
//!   naive on the Table-of-topologies sizes so BENCH_zfdr.json records the
//!   win.
//!
//! Do not "improve" these kernels: their value is that they never change.

use lergan_tensor::{parallel, Tensor};

/// Work floor (multiply-adds) below which the kernels stay
/// single-threaded, mirroring the tensor crate's internal constant.
const MIN_PARALLEL_FLOPS: usize = 32 * 1024;

/// Inner-kernel K-blocking factor of the pre-packing kernels.
const GEMM_KC: usize = 256;

/// Pre-packing matrix-multiply-vector: `m` is `[rows, cols]`, `v` has
/// `cols` elements.
///
/// # Panics
///
/// Panics if `m` is not rank-2 or the vector length does not match.
pub fn mmv(m: &Tensor, v: &[f32]) -> Vec<f32> {
    assert_eq!(m.shape().len(), 2, "mmv expects a rank-2 matrix");
    let (rows, cols) = (m.shape()[0], m.shape()[1]);
    assert_eq!(v.len(), cols, "mmv vector length mismatch");
    let mut out = vec![0.0; rows];
    let min_rows = (MIN_PARALLEL_FLOPS / cols.max(1)).max(1);
    parallel::for_each_chunk_mut(&mut out, min_rows, |row0, chunk| {
        for (i, slot) in chunk.iter_mut().enumerate() {
            let r = row0 + i;
            let row = &m.data()[r * cols..(r + 1) * cols];
            *slot = dot(row, v);
        }
    });
    out
}

/// Pre-packing blocked matrix-matrix product: `a` is `[m, k]`, `b` is
/// `[k, n]`, returning `[m, n]`. Accumulates along `k` ascending exactly
/// like [`mmv`] and the packed [`lergan_tensor::tensor::gemm`].
///
/// # Panics
///
/// Panics if either operand is not rank-2 or the inner dimensions differ.
pub fn gemm(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape().len(), 2, "gemm expects rank-2 operands");
    assert_eq!(b.shape().len(), 2, "gemm expects rank-2 operands");
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (kb, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, kb, "gemm inner dimensions disagree");
    let mut out = Tensor::zeros(&[m, n]);
    let min_rows = (MIN_PARALLEL_FLOPS / (k * n).max(1)).max(1);
    let mut rows: Vec<&mut [f32]> = out.data_mut().chunks_mut(n.max(1)).collect();
    parallel::for_each_chunk_mut(&mut rows, min_rows, |row0, out_rows| {
        gemm_rows(out_rows, row0, a.data(), b.data(), k, n);
    });
    out
}

/// Pre-packing GEMM with a pre-transposed right operand:
/// `[m, k] × ([n, k])ᵀ → [m, n]`, each output element one contiguous dot
/// product — bit-identical per column to [`mmv`] on that `bt` row.
///
/// # Panics
///
/// Panics if either operand is not rank-2 or the inner dimensions (the
/// *second* extent of both operands) disagree.
pub fn gemm_nt(a: &Tensor, bt: &Tensor) -> Tensor {
    assert_eq!(a.shape().len(), 2, "gemm_nt expects rank-2 operands");
    assert_eq!(bt.shape().len(), 2, "gemm_nt expects rank-2 operands");
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (n, kb) = (bt.shape()[0], bt.shape()[1]);
    assert_eq!(k, kb, "gemm_nt inner dimensions disagree");
    let mut out = Tensor::zeros(&[m, n]);
    let min_rows = (MIN_PARALLEL_FLOPS / (k * n).max(1)).max(1);
    let mut rows: Vec<&mut [f32]> = out.data_mut().chunks_mut(n.max(1)).collect();
    let adata = a.data();
    let bdata = bt.data();
    parallel::for_each_chunk_mut(&mut rows, min_rows, |row0, out_rows| {
        for (i, orow) in out_rows.iter_mut().enumerate() {
            let abase = (row0 + i) * k;
            let arow = &adata[abase..abase + k];
            for (j, slot) in orow.iter_mut().enumerate() {
                *slot = dot(arow, &bdata[j * k..j * k + k]);
            }
        }
    });
    out
}

/// The ascending chain `((0 + x₀y₀) + x₁y₁) + …` from `+0.0`. Not
/// `Iterator::sum`, whose `f32` fold starts from `-0.0`: a row whose every
/// product is `-0.0` would sum to `-0.0`, not the `+0.0` of [`gemm`].
fn dot(x: &[f32], y: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (&a, &b) in x.iter().zip(y) {
        acc += a * b;
    }
    acc
}

/// Serial kernel: accumulates `out_rows[i] += a[row0+i, :] * b` with `k`
/// blocked into panels of [`GEMM_KC`].
fn gemm_rows(out_rows: &mut [&mut [f32]], row0: usize, a: &[f32], b: &[f32], k: usize, n: usize) {
    for kb in (0..k).step_by(GEMM_KC) {
        let kend = (kb + GEMM_KC).min(k);
        for (i, orow) in out_rows.iter_mut().enumerate() {
            let abase = (row0 + i) * k;
            let arow = &a[abase..abase + k];
            let orow = &mut orow[..n];
            for (l, &av) in arow.iter().enumerate().take(kend).skip(kb) {
                let brow = &b[l * n..l * n + n];
                for j in 0..n {
                    orow[j] += av * brow[j];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::det;

    #[test]
    fn naive_gemm_nt_column_equals_naive_mmv() {
        let a = det(&[5, 300], 1);
        let bt = det(&[3, 300], 2);
        let product = gemm_nt(&a, &bt);
        for j in 0..3 {
            let col = mmv(&a, &bt.data()[j * 300..(j + 1) * 300]);
            for (r, &v) in col.iter().enumerate() {
                assert_eq!(product.data()[r * 3 + j].to_bits(), v.to_bits());
            }
        }
    }

    #[test]
    fn naive_kernels_are_thread_count_invariant() {
        let a = det(&[7, 520], 3);
        let b = det(&[520, 9], 4);
        let one = parallel::with_threads(1, || gemm(&a, &b));
        let eight = parallel::with_threads(8, || gemm(&a, &b));
        assert_eq!(one.data(), eight.data());
    }
}

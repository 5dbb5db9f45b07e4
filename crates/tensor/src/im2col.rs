//! im2col + GEMM convolution — the matrix formulation PIM mappings (and
//! GPUs) actually execute.
//!
//! `im2col` unrolls every convolution window into a matrix column; the
//! convolution then becomes one matrix-matrix product with the reshaped
//! kernels. This is the dense formulation whose zero columns ZFDR prunes,
//! so having it as a first-class reference both cross-checks the loop-nest
//! kernels and quantifies the im2col traffic the baselines pay.

use crate::geometry::SconvGeometry;
use crate::tensor::Tensor;

/// Unrolls a padded `[C, H, W]` input into the im2col matrix
/// `[C·K·K, O·O]` for the given geometry: column `(oy·O + ox)` holds the
/// window at output position `(oy, ox)` in channel-major, then
/// row-major-kernel order. Allocating wrapper over [`im2col_into`].
///
/// # Panics
///
/// Panics if the input shape disagrees with the geometry.
pub fn im2col(input: &Tensor, geom: &SconvGeometry) -> Tensor {
    let c = input.shape()[0];
    let k = geom.kernel;
    let o = geom.output;
    let mut out = vec![0.0; c * k * k * o * o];
    im2col_into(input, geom, &mut out);
    Tensor::from_vec(&[c * k * k, o * o], out)
}

/// [`im2col`] into a caller-owned buffer of length `C·K·K · O·O`, fully
/// overwritten. Padding is resolved inline against the unpadded input (no
/// padded intermediate plane is materialised): out-of-bounds window taps
/// are written as `0.0`, producing exactly the values of the padded
/// formulation.
///
/// # Panics
///
/// Panics if the input shape disagrees with the geometry or the buffer
/// length is wrong.
pub fn im2col_into(input: &Tensor, geom: &SconvGeometry, out: &mut [f32]) {
    assert_eq!(input.shape().len(), 3, "im2col expects [C, H, W]");
    assert_eq!(input.shape()[1], geom.input, "input extent mismatch");
    assert_eq!(input.shape()[2], geom.input, "input extent mismatch");
    let c = input.shape()[0];
    let k = geom.kernel;
    let o = geom.output;
    let h = geom.input;
    let (stride, pad) = (geom.stride, geom.pad);
    assert_eq!(out.len(), c * k * k * o * o, "im2col buffer length mismatch");
    let data = input.data();
    for ci in 0..c {
        for ky in 0..k {
            for kx in 0..k {
                let row = ci * k * k + ky * k + kx;
                let orow = &mut out[row * o * o..(row + 1) * o * o];
                for oy in 0..o {
                    let y = oy * stride + ky;
                    let dst = &mut orow[oy * o..(oy + 1) * o];
                    if y < pad || y >= pad + h {
                        dst.fill(0.0);
                        continue;
                    }
                    let irow = &data[ci * h * h + (y - pad) * h..ci * h * h + (y - pad + 1) * h];
                    for (ox, slot) in dst.iter_mut().enumerate() {
                        let x = ox * stride + kx;
                        *slot = if x < pad || x >= pad + h {
                            0.0
                        } else {
                            irow[x - pad]
                        };
                    }
                }
            }
        }
    }
}

/// Batched [`im2col_into`] over `B` concatenated `[C, H, W]` sample
/// planes: writes the `[C·K·K, B·O·O]` matrix whose column `b·O·O + p` is
/// exactly [`im2col_into`]'s column `p` for sample `b` — the per-sample
/// matrices stacked along the *column* axis.
///
/// One `[OC, C·K·K] × [C·K·K, B·O·O]` product over the stacked matrix
/// covers the whole batch with `n` multiplied by `B`. The trainer calls
/// it with `B = 1`, once per sample, to fill each sample's block of its
/// sample-major im2col cache. Work is sharded across workers by matrix
/// row; every element is a pure copy or a structural zero, so the
/// sharding cannot change any value.
///
/// Unlike the per-sample reference builders, this one takes the fast
/// paths the trainer's hot loop earns: stride-1 window rows are straight
/// `memcpy`s, and strided rows precompute the in-bounds column range so
/// the inner loop carries no per-element padding branch. Both are pure
/// data movement — the emitted values are bit-identical to
/// [`im2col_into`]'s (pinned by the stacking test).
///
/// # Panics
///
/// Panics if the slice lengths disagree with the geometry.
pub fn im2col_batch_into(
    inputs: &[f32],
    batch: usize,
    channels: usize,
    geom: &SconvGeometry,
    out: &mut [f32],
) {
    let k = geom.kernel;
    let o = geom.output;
    let h = geom.input;
    let (stride, pad) = (geom.stride, geom.pad);
    let slen = channels * h * h;
    assert_eq!(inputs.len(), batch * slen, "batch input length mismatch");
    let red = channels * k * k;
    let (oo, bo) = (o * o, batch * o * o);
    assert_eq!(out.len(), red * bo, "im2col buffer length mismatch");
    let min_rows = (crate::tensor::MIN_PARALLEL_FLOPS / bo.max(1)).max(1);
    crate::parallel::for_each_unit_chunk_mut(out, bo, min_rows, |row0, rows| {
        for (d, orow) in rows.chunks_mut(bo).enumerate() {
            let row = row0 + d;
            let ci = row / (k * k);
            let ky = (row / k) % k;
            let kx = row % k;
            // Columns `ox` whose tap `x = ox·stride + kx` lands inside the
            // unpadded plane: `pad ≤ x < pad + h`. Everything outside the
            // range is a structural zero.
            let x_lo = pad.saturating_sub(kx).div_ceil(stride).min(o);
            let x_hi = if pad + h > kx {
                (pad + h - kx).div_ceil(stride).min(o)
            } else {
                0
            }
            .max(x_lo);
            for b in 0..batch {
                let plane = &inputs[b * slen + ci * h * h..b * slen + (ci + 1) * h * h];
                let brow = &mut orow[b * oo..(b + 1) * oo];
                for oy in 0..o {
                    let y = oy * stride + ky;
                    let dst = &mut brow[oy * o..(oy + 1) * o];
                    if y < pad || y >= pad + h {
                        dst.fill(0.0);
                        continue;
                    }
                    let irow = &plane[(y - pad) * h..(y - pad + 1) * h];
                    dst[..x_lo].fill(0.0);
                    dst[x_hi..].fill(0.0);
                    if stride == 1 {
                        // Contiguous window row: one copy.
                        dst[x_lo..x_hi]
                            .copy_from_slice(&irow[x_lo + kx - pad..x_hi + kx - pad]);
                    } else {
                        let base = x_lo * stride + kx - pad;
                        for (i, slot) in dst[x_lo..x_hi].iter_mut().enumerate() {
                            *slot = irow[base + i * stride];
                        }
                    }
                }
            }
        }
    });
}

/// Transposed [`im2col_into`] over a raw `[C, H, W]` slice: writes the
/// `[O·O, C·K·K]` matrix whose row `p = oy·O + ox` holds the window at
/// output position `p` in ascending `(ci, ky, kx)` order — exactly
/// [`im2col_into`]'s column `p`, relaid row-major.
///
/// This is the layout for GEMMs that want window-major operands (e.g.
/// products against a `[C·K·K, OC]` weight matrix with `m = O·O`). Taking
/// the input as a slice (not a [`Tensor`]) lets callers pass per-sample
/// planes of a batch buffer without intermediate views. Padding taps are
/// written as `0.0`, matching the padded formulation exactly.
///
/// # Panics
///
/// Panics if the slice lengths disagree with the geometry.
pub fn im2col_t_into(input: &[f32], channels: usize, geom: &SconvGeometry, out: &mut [f32]) {
    let k = geom.kernel;
    let o = geom.output;
    let h = geom.input;
    let (stride, pad) = (geom.stride, geom.pad);
    assert_eq!(input.len(), channels * h * h, "input length mismatch");
    let red = channels * k * k;
    assert_eq!(out.len(), o * o * red, "im2col buffer length mismatch");
    for oy in 0..o {
        for ox in 0..o {
            let prow = &mut out[(oy * o + ox) * red..(oy * o + ox + 1) * red];
            let mut r = 0;
            for ci in 0..channels {
                let plane = &input[ci * h * h..(ci + 1) * h * h];
                for ky in 0..k {
                    let y = oy * stride + ky;
                    if y < pad || y >= pad + h {
                        prow[r..r + k].fill(0.0);
                        r += k;
                        continue;
                    }
                    let irow = &plane[(y - pad) * h..(y - pad + 1) * h];
                    for kx in 0..k {
                        let x = ox * stride + kx;
                        prow[r] = if x < pad || x >= pad + h {
                            0.0
                        } else {
                            irow[x - pad]
                        };
                        r += 1;
                    }
                }
            }
        }
    }
}

/// Reshapes `[OC, IC, K, K]` kernels into the GEMM weight matrix
/// `[OC, IC·K·K]` matching [`im2col`]'s row order.
///
/// # Panics
///
/// Panics if the weights are not rank-4.
pub fn kernels_to_matrix(weights: &Tensor) -> Tensor {
    assert_eq!(weights.shape().len(), 4, "expected [OC, IC, K, K] kernels");
    let (oc, ic, k) = (weights.shape()[0], weights.shape()[1], weights.shape()[2]);
    Tensor::from_fn(&[oc, ic * k * k], |idx| {
        let (row, col) = (idx[0], idx[1]);
        let ci = col / (k * k);
        let ky = (col / k) % k;
        let kx = col % k;
        weights[&[row, ci, ky, kx]]
    })
}

/// Matrix multiply `[m, k] × [k, n] → [m, n]` through the blocked,
/// thread-parallel [`crate::tensor::gemm`] kernel.
///
/// # Panics
///
/// Panics on inner-dimension mismatch.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(
        a.shape()[1],
        b.shape()[0],
        "inner dimensions disagree: {:?} x {:?}",
        a.shape(),
        b.shape()
    );
    crate::tensor::gemm(a, b)
}

/// Convolution through im2col + GEMM; identical to
/// [`crate::conv::Conv2d::forward`].
///
/// # Panics
///
/// Panics on operand shape mismatches.
pub fn conv2d_gemm(input: &Tensor, weights: &Tensor, geom: &SconvGeometry) -> Tensor {
    let oc = weights.shape()[0];
    let cols = im2col(input, geom);
    let w = kernels_to_matrix(weights);
    let flat = matmul(&w, &cols);
    flat.reshaped(&[oc, geom.output, geom.output])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_tensors_close;
    use crate::conv::Conv2d;

    fn det(shape: &[usize], seed: u32) -> Tensor {
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(7);
        Tensor::from_fn(shape, |_| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            ((state >> 16) as f32 / 65536.0) - 0.5
        })
    }

    #[test]
    fn transposed_im2col_is_the_exact_transpose() {
        for (i, k, s, p, c) in [(8, 3, 1, 1, 2), (8, 5, 2, 2, 3), (6, 3, 3, 0, 1)] {
            let geom = SconvGeometry::new(i, k, s, p).unwrap();
            let input = det(&[c, i, i], i as u32 + 3);
            let (red, oo) = (c * k * k, geom.output * geom.output);
            let mut cols = vec![0.0; red * oo];
            im2col_into(&input, &geom, &mut cols);
            let mut cols_t = vec![0.0; oo * red];
            im2col_t_into(input.data(), c, &geom, &mut cols_t);
            for r in 0..red {
                for p_ in 0..oo {
                    assert_eq!(
                        cols[r * oo + p_].to_bits(),
                        cols_t[p_ * red + r].to_bits(),
                        "(i={i},k={k},s={s},p={p}) element ({r},{p_})"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_im2col_stacks_per_sample_columns_bitwise() {
        // Column b·O·O + p of the batched matrix must be bit-identical to
        // column p of sample b's own im2col matrix, at every worker count
        // (row sharding is pure data movement).
        let batch = 3;
        for (i, k, s, p, c) in [(8, 3, 1, 1, 2), (8, 5, 2, 2, 3), (6, 3, 3, 0, 1)] {
            let geom = SconvGeometry::new(i, k, s, p).unwrap();
            let (red, oo) = (c * k * k, geom.output * geom.output);
            let samples: Vec<Tensor> =
                (0..batch).map(|b| det(&[c, i, i], (i + b) as u32)).collect();
            let mut inputs = Vec::new();
            for t in &samples {
                inputs.extend_from_slice(t.data());
            }
            for threads in [1usize, 2, 8] {
                let mut batched = vec![f32::NAN; red * batch * oo];
                crate::parallel::with_threads(threads, || {
                    im2col_batch_into(&inputs, batch, c, &geom, &mut batched);
                });
                for (b, t) in samples.iter().enumerate() {
                    let mut cols = vec![0.0; red * oo];
                    im2col_into(t, &geom, &mut cols);
                    for r in 0..red {
                        for q in 0..oo {
                            assert_eq!(
                                batched[r * batch * oo + b * oo + q].to_bits(),
                                cols[r * oo + q].to_bits(),
                                "(i={i},k={k},s={s},p={p}) sample {b} element ({r},{q}) threads={threads}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn gemm_conv_equals_loop_nest() {
        for (i, k, s, p, ic, oc) in [
            (8, 3, 1, 1, 2, 3),
            (8, 5, 2, 2, 3, 4),
            (16, 4, 2, 1, 2, 2),
            (6, 3, 3, 0, 1, 1),
        ] {
            let geom = SconvGeometry::new(i, k, s, p).unwrap();
            let conv = Conv2d::new(ic, oc, k, s, p).unwrap();
            let input = det(&[ic, i, i], i as u32);
            let weights = det(&[oc, ic, k, k], k as u32);
            let a = conv.forward(&input, &weights);
            let b = conv2d_gemm(&input, &weights, &geom);
            assert_tensors_close(&a, &b, 1e-4);
        }
    }

    #[test]
    fn im2col_shape_and_content() {
        let geom = SconvGeometry::new(4, 3, 1, 0).unwrap();
        let input = Tensor::from_fn(&[1, 4, 4], |i| (i[1] * 4 + i[2]) as f32);
        let cols = im2col(&input, &geom);
        assert_eq!(cols.shape(), &[9, 4]);
        // First column = top-left window, row-major.
        let first: Vec<f32> = (0..9).map(|r| cols[&[r, 0]]).collect();
        assert_eq!(first, vec![0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 8.0, 9.0, 10.0]);
    }

    #[test]
    fn inline_padding_matches_padded_formulation() {
        // im2col_into resolves padding inline; it must reproduce the
        // materialised pad_planes formulation value-for-value.
        use crate::zero_insert::pad_planes;
        for (i, k, s, p, c) in [(8, 3, 1, 1, 2), (8, 5, 2, 2, 3), (16, 4, 2, 1, 2), (6, 3, 3, 0, 1)]
        {
            let geom = SconvGeometry::new(i, k, s, p).unwrap();
            let input = det(&[c, i, i], 5);
            let cols = im2col(&input, &geom);
            let padded = pad_planes(&input, p);
            let o = geom.output;
            for ci in 0..c {
                for ky in 0..k {
                    for kx in 0..k {
                        let row = ci * k * k + ky * k + kx;
                        for oy in 0..o {
                            for ox in 0..o {
                                let want = padded[&[ci, oy * s + ky, ox * s + kx]];
                                let got = cols[&[row, oy * o + ox]];
                                assert_eq!(got.to_bits(), want.to_bits());
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn matmul_identity() {
        let a = det(&[3, 3], 9);
        let id = Tensor::from_fn(&[3, 3], |i| if i[0] == i[1] { 1.0 } else { 0.0 });
        assert_tensors_close(&matmul(&a, &id), &a, 1e-6);
        assert_tensors_close(&matmul(&id, &a), &a, 1e-6);
    }

    #[test]
    #[should_panic(expected = "inner dimensions disagree")]
    fn matmul_rejects_mismatch() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        let _ = matmul(&a, &b);
    }
}

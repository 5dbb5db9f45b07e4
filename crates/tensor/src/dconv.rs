//! Dilated / asymmetric convolution (D-CONV) reference kernels.
//!
//! A dilation-`D` kernel is a *zero-inserted* kernel: `K` true taps with
//! `D − 1` zeros between neighbours, giving an effective dense extent
//! `K_eff = (K − 1)·D + 1`. This is the exact dual of T-CONV's
//! zero-inserted input (the EcoFlow observation), and structurally the
//! same shape as W-CONV-S, where the zero-inserted `∇output` slides as a
//! kernel. Two formulations live here:
//!
//! * **Zero-insertion (naive)** — materialise the `K_eff` kernel
//!   ([`expand_dilated_kernel`]) and run the dense im2col + GEMM over it
//!   ([`dconv_zero_insertion`], [`im2col_dconv_into`]). This is the
//!   formulation whose inserted zeros the workload analytics count as
//!   `macs_dense`, the GEMM shape the op-graph IR models, and the oracle
//!   the trainer is pinned to.
//! * **Zero-free** — [`dconv_direct`] touches only the `K` true taps per
//!   axis with a scalar gather; [`dconv_zero_free`] runs the same taps as
//!   one GEMM over the compact im2col ([`im2col_dconv_compact`]), the
//!   columns of the one-phase plan the trainer's D-CONV layer executes
//!   ([`crate::im2col::ConvPlan`]). Both are the software
//!   realisation of the ZFDR-style plan that `lergan-core` maps onto
//!   crossbars, proven equal to the naive path.

use crate::geometry::DconvGeometry;
use crate::im2col::{im2col_taps_into, TapAxis};
use crate::tensor::Tensor;

/// Expands `[OC, IC, Kh, Kw]` true-tap weights into the zero-inserted
/// dense kernel `[OC, IC, Kh_eff, Kw_eff]`: tap `(jy, jx)` lands at
/// `(jy·Dh, jx·Dw)`, every other position is `0.0`.
///
/// # Panics
///
/// Panics if the weight shape disagrees with the geometry.
pub fn expand_dilated_kernel(weights: &Tensor, geom: &DconvGeometry) -> Tensor {
    let (kh, kw) = (geom.rows.kernel, geom.cols.kernel);
    assert_eq!(weights.shape().len(), 4, "expected [OC, IC, Kh, Kw] weights");
    assert_eq!(weights.shape()[2], kh, "kernel row count mismatch");
    assert_eq!(weights.shape()[3], kw, "kernel col count mismatch");
    let (oc, ic) = (weights.shape()[0], weights.shape()[1]);
    let (eh, ew) = (geom.rows.effective_kernel(), geom.cols.effective_kernel());
    let (dh, dw) = (geom.rows.dilation, geom.cols.dilation);
    let mut out = vec![0.0; oc * ic * eh * ew];
    let taps = weights.data().chunks_exact(kh * kw);
    for (src, dst) in taps.zip(out.chunks_exact_mut(eh * ew)) {
        for jy in 0..kh {
            for jx in 0..kw {
                dst[jy * dh * ew + jx * dw] = src[jy * kw + jx];
            }
        }
    }
    Tensor::from_vec(&[oc, ic, eh, ew], out)
}

/// Unrolls a `[C, H, W]` input into the dense im2col matrix
/// `[C·Kh_eff·Kw_eff, Oh·Ow]` of the zero-inserted-kernel formulation:
/// the asymmetric, effective-extent analogue of
/// [`crate::im2col::im2col_into`], with inline padding.
///
/// # Panics
///
/// Panics on shape or buffer-length mismatch.
pub fn im2col_dconv_into(input: &Tensor, geom: &DconvGeometry, out: &mut [f32]) {
    assert_eq!(input.shape().len(), 3, "im2col expects [C, H, W]");
    assert_eq!(input.shape()[1], geom.rows.input, "input row extent mismatch");
    assert_eq!(input.shape()[2], geom.cols.input, "input col extent mismatch");
    let c = input.shape()[0];
    let (eh, ew) = (geom.rows.effective_kernel(), geom.cols.effective_kernel());
    let (oh, ow) = (geom.rows.output, geom.cols.output);
    let (h, w) = (geom.rows.input, geom.cols.input);
    let (sh, sw) = (geom.rows.stride, geom.cols.stride);
    let (ph, pw) = (geom.rows.pad, geom.cols.pad);
    assert_eq!(out.len(), c * eh * ew * oh * ow, "im2col buffer length mismatch");
    let data = input.data();
    for ci in 0..c {
        for ky in 0..eh {
            for kx in 0..ew {
                let row = ci * eh * ew + ky * ew + kx;
                let orow = &mut out[row * oh * ow..(row + 1) * oh * ow];
                for oy in 0..oh {
                    let y = oy * sh + ky;
                    let dst = &mut orow[oy * ow..(oy + 1) * ow];
                    if y < ph || y >= ph + h {
                        dst.fill(0.0);
                        continue;
                    }
                    let irow = &data[ci * h * w + (y - ph) * w..ci * h * w + (y - ph + 1) * w];
                    for (ox, slot) in dst.iter_mut().enumerate() {
                        let x = ox * sw + kx;
                        *slot = if x < pw || x >= pw + w { 0.0 } else { irow[x - pw] };
                    }
                }
            }
        }
    }
}

/// Allocating wrapper over [`im2col_dconv_into`].
pub fn im2col_dconv(input: &Tensor, geom: &DconvGeometry) -> Tensor {
    let c = input.shape()[0];
    let (eh, ew) = (geom.rows.effective_kernel(), geom.cols.effective_kernel());
    let (oh, ow) = (geom.rows.output, geom.cols.output);
    let mut out = vec![0.0; c * eh * ew * oh * ow];
    im2col_dconv_into(input, geom, &mut out);
    Tensor::from_vec(&[c * eh * ew, oh * ow], out)
}

/// Naive zero-insertion D-CONV: expand the kernel to its dense effective
/// extent and run the full im2col + GEMM — the baseline whose inserted
/// zeros the zero-free path removes.
///
/// # Panics
///
/// Panics on operand shape mismatches.
pub fn dconv_zero_insertion(input: &Tensor, weights: &Tensor, geom: &DconvGeometry) -> Tensor {
    let (oc, ic) = (weights.shape()[0], weights.shape()[1]);
    let (eh, ew) = (geom.rows.effective_kernel(), geom.cols.effective_kernel());
    let expanded = expand_dilated_kernel(weights, geom);
    let cols = im2col_dconv(input, geom);
    let wmat = expanded.reshaped(&[oc, ic * eh * ew]);
    let flat = crate::tensor::gemm(&wmat, &cols);
    flat.reshaped(&[oc, geom.rows.output, geom.cols.output])
}

/// Unrolls a `[C, H, W]` input into the *compact* im2col matrix
/// `[C·Kh·Kw, Oh·Ow]` of the zero-free formulation: row `(ci, jy, jx)`
/// samples the input at the true tap offsets `(jy·Dh, jx·Dw)` only, so
/// the GEMM reduction dimension shrinks from `C·Kh_eff·Kw_eff` to
/// `C·Kh·Kw` — the inserted zeros are never materialised, let alone
/// multiplied. These are the columns of the one-phase D-CONV
/// [`ConvPlan`](crate::im2col::ConvPlan) the trainer runs.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn im2col_dconv_compact(input: &Tensor, geom: &DconvGeometry) -> Tensor {
    assert_eq!(input.shape().len(), 3, "im2col expects [C, H, W]");
    let c = input.shape()[0];
    let (kh, kw) = (geom.rows.kernel, geom.cols.kernel);
    let (oh, ow) = (geom.rows.output, geom.cols.output);
    let axis = |a: &crate::geometry::DconvAxis| TapAxis {
        input: a.input,
        output: a.output,
        stride: a.stride,
        pad: a.pad,
        taps: a.kernel,
        first: 0,
        step: a.dilation,
    };
    let (rows, cols) = (axis(&geom.rows), axis(&geom.cols));
    let mut out = vec![0.0; c * kh * kw * oh * ow];
    im2col_taps_into(input.data(), c, &rows, &cols, &mut out);
    Tensor::from_vec(&[c * kh * kw, oh * ow], out)
}

/// Zero-free D-CONV through the compact im2col + GEMM: the true-tap
/// weights `[OC, IC·Kh·Kw]` multiply [`im2col_dconv_compact`]'s matrix,
/// skipping every inserted zero of the dilated kernel while keeping the
/// arithmetic on the same GEMM dispatch as the naive path — the software
/// realisation of the ZFDR-style dilated plan.
///
/// # Panics
///
/// Panics on operand shape mismatches.
pub fn dconv_zero_free(input: &Tensor, weights: &Tensor, geom: &DconvGeometry) -> Tensor {
    let (oc, ic) = (weights.shape()[0], weights.shape()[1]);
    let (kh, kw) = (geom.rows.kernel, geom.cols.kernel);
    assert_eq!(weights.shape()[2], kh, "kernel row count mismatch");
    assert_eq!(weights.shape()[3], kw, "kernel col count mismatch");
    let cols = im2col_dconv_compact(input, geom);
    let wmat = weights.reshaped(&[oc, ic * kh * kw]);
    let flat = crate::tensor::gemm(&wmat, &cols);
    flat.reshaped(&[oc, geom.rows.output, geom.cols.output])
}

/// Zero-free D-CONV reference: touches only the `Kh·Kw` true taps per
/// window with a scalar gather. Each output element accumulates taps in
/// ascending `(ci, jy, jx)` order from `0.0`, the same chain the
/// zero-insertion GEMM evaluates over the true taps, so the two paths
/// agree bitwise when padding taps contribute exact zeros.
///
/// # Panics
///
/// Panics on operand shape mismatches.
pub fn dconv_direct(input: &Tensor, weights: &Tensor, geom: &DconvGeometry) -> Tensor {
    assert_eq!(input.shape()[1], geom.rows.input, "input row extent mismatch");
    assert_eq!(input.shape()[2], geom.cols.input, "input col extent mismatch");
    let (oc, ic) = (weights.shape()[0], weights.shape()[1]);
    assert_eq!(input.shape()[0], ic, "channel count mismatch");
    let (kh, kw) = (geom.rows.kernel, geom.cols.kernel);
    let (oh, ow) = (geom.rows.output, geom.cols.output);
    let (h, w) = (geom.rows.input, geom.cols.input);
    let (sh, sw) = (geom.rows.stride, geom.cols.stride);
    let (dh, dw) = (geom.rows.dilation, geom.cols.dilation);
    let (ph, pw) = (geom.rows.pad, geom.cols.pad);
    let data = input.data();
    let wdata = weights.data();
    Tensor::from_fn(&[oc, oh, ow], |idx| {
        let (co, oy, ox) = (idx[0], idx[1], idx[2]);
        let mut acc = 0.0f32;
        for ci in 0..ic {
            let plane = &data[ci * h * w..(ci + 1) * h * w];
            let taps = &wdata[(co * ic + ci) * kh * kw..(co * ic + ci + 1) * kh * kw];
            for jy in 0..kh {
                let y = oy * sh + jy * dh;
                if y < ph || y >= ph + h {
                    continue;
                }
                let irow = &plane[(y - ph) * w..(y - ph + 1) * w];
                for jx in 0..kw {
                    let x = ox * sw + jx * dw;
                    if x < pw || x >= pw + w {
                        continue;
                    }
                    acc += taps[jy * kw + jx] * irow[x - pw];
                }
            }
        }
        acc
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_tensors_close;
    use crate::geometry::DconvAxis;

    fn det(shape: &[usize], seed: u32) -> Tensor {
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(7);
        Tensor::from_fn(shape, |_| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            ((state >> 16) as f32 / 65536.0) - 0.5
        })
    }

    #[test]
    fn expanded_kernel_places_taps_at_dilation_multiples() {
        let geom = DconvGeometry::square(8, 3, 1, 2, 2).unwrap();
        let weights = det(&[2, 1, 3, 3], 3);
        let e = expand_dilated_kernel(&weights, &geom);
        assert_eq!(e.shape(), &[2, 1, 5, 5]);
        for jy in 0..3 {
            for jx in 0..3 {
                assert_eq!(
                    e[&[0, 0, jy * 2, jx * 2]].to_bits(),
                    weights[&[0, 0, jy, jx]].to_bits()
                );
            }
        }
        // Off-tap positions are exactly zero.
        assert_eq!(e[&[0, 0, 1, 0]], 0.0);
        assert_eq!(e[&[0, 0, 3, 3]], 0.0);
    }

    #[test]
    fn zero_insertion_equals_direct() {
        for (i, k, s, d, p, ic, oc) in [
            (8, 3, 1, 2, 2, 2, 3),
            (9, 3, 2, 3, 3, 1, 2),
            (16, 2, 2, 4, 0, 3, 1),
            (8, 3, 1, 1, 1, 2, 2), // dilation 1 degenerates to plain conv
        ] {
            let geom = DconvGeometry::square(i, k, s, d, p).unwrap();
            let input = det(&[ic, i, i], i as u32);
            let weights = det(&[oc, ic, k, k], k as u32 + 11);
            let a = dconv_zero_insertion(&input, &weights, &geom);
            let b = dconv_direct(&input, &weights, &geom);
            assert_tensors_close(&a, &b, 1e-4);
            let c = dconv_zero_free(&input, &weights, &geom);
            assert_tensors_close(&a, &c, 1e-4);
        }
    }

    #[test]
    fn compact_im2col_has_the_true_tap_rows_of_the_dense_one() {
        // Row (ci, jy, jx) of the compact matrix must equal row
        // (ci, jy·Dh, jx·Dw) of the dense effective-extent matrix.
        let geom = DconvGeometry::square(10, 3, 2, 3, 3).unwrap();
        let input = det(&[2, 10, 10], 21);
        let dense = im2col_dconv(&input, &geom);
        let compact = im2col_dconv_compact(&input, &geom);
        let (eh, ew) = (geom.rows.effective_kernel(), geom.cols.effective_kernel());
        let positions = geom.rows.output * geom.cols.output;
        assert_eq!(compact.shape(), &[2 * 3 * 3, positions]);
        for ci in 0..2 {
            for jy in 0..3 {
                for jx in 0..3 {
                    let crow = ci * 9 + jy * 3 + jx;
                    let drow = ci * eh * ew + (jy * geom.rows.dilation) * ew + jx * geom.cols.dilation;
                    assert_eq!(
                        &compact.data()[crow * positions..(crow + 1) * positions],
                        &dense.data()[drow * positions..(drow + 1) * positions],
                        "tap ({ci},{jy},{jx})"
                    );
                }
            }
        }
    }

    #[test]
    fn asymmetric_geometry_executes() {
        let rows = DconvAxis::new(12, 3, 1, 1, 1).unwrap();
        let cols = DconvAxis::new(12, 5, 2, 1, 2).unwrap();
        let geom = DconvGeometry::new(rows, cols);
        let input = det(&[2, 12, 12], 4);
        let weights = det(&[3, 2, 3, 5], 5);
        let a = dconv_zero_insertion(&input, &weights, &geom);
        let b = dconv_direct(&input, &weights, &geom);
        assert_eq!(a.shape(), &[3, 12, 6]);
        assert_tensors_close(&a, &b, 1e-4);
    }

    #[test]
    fn dilation_one_square_matches_conv2d_gemm() {
        use crate::geometry::SconvGeometry;
        use crate::im2col::conv2d_gemm;
        let geom = DconvGeometry::square(8, 5, 2, 1, 2).unwrap();
        let sgeom = SconvGeometry::new(8, 5, 2, 2).unwrap();
        let input = det(&[3, 8, 8], 9);
        let weights = det(&[4, 3, 5, 5], 10);
        let a = dconv_zero_insertion(&input, &weights, &geom);
        let b = conv2d_gemm(&input, &weights, &sgeom);
        assert_tensors_close(&a, &b, 1e-5);
    }

    #[test]
    fn im2col_nonzero_count_matches_useful_macs() {
        // The literal nonzero count of the zero-inserted formulation's
        // operands equals the analytic useful-MAC count: ones input, the
        // expanded kernel's nonzero structure, padding zeros inline.
        let geom = DconvGeometry::square(8, 3, 1, 2, 2).unwrap();
        let cols = im2col_dconv(&Tensor::ones(&[1, 8, 8]), &geom);
        let expanded = expand_dilated_kernel(&Tensor::ones(&[1, 1, 3, 3]), &geom);
        let (eh, ew) = (5, 5);
        let (oh, ow) = (geom.rows.output, geom.cols.output);
        let mut useful = 0usize;
        for ky in 0..eh {
            for kx in 0..ew {
                if expanded[&[0, 0, ky, kx]] == 0.0 {
                    continue;
                }
                for o in 0..oh * ow {
                    if cols[&[ky * ew + kx, o]] != 0.0 {
                        useful += 1;
                    }
                }
            }
        }
        assert_eq!(useful, geom.useful_multiplications_per_pair());
    }
}

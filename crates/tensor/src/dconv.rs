//! Dilated / asymmetric convolution (D-CONV) reference kernels.
//!
//! A dilation-`D` kernel is a *zero-inserted* kernel: `K` true taps with
//! `D − 1` zeros between neighbours, giving an effective dense extent
//! `K_eff = (K − 1)·D + 1`. This is the exact dual of T-CONV's
//! zero-inserted input (the EcoFlow observation), and structurally the
//! same shape as W-CONV-S, where the zero-inserted `∇output` slides as a
//! kernel.
//!
//! This module holds the zero-insertion (naive) formulation: materialise
//! the `K_eff` kernel ([`expand_dilated_kernel`]) and run the dense
//! im2col + GEMM over it ([`dconv_zero_insertion`], [`im2col_dconv_into`]).
//! It is the formulation whose inserted zeros the workload analytics count
//! as `macs_dense`, the GEMM shape the op-graph IR models, and the oracle
//! the trainer is pinned to.
//!
//! The zero-free D-CONV is the one-phase
//! [`ConvPlan`](crate::im2col::ConvPlan) of a [`DconvGeometry`]: one GEMM
//! over a compact im2col whose rows are the `Kh·Kw` true taps, bit-identical
//! to [`dconv_zero_insertion`]. It is the workspace's only zero-free
//! executor. `lergan-core`'s `ZfdrPlan::for_dconv` is the simulator's cost
//! model of the same taps, not a second executor.

use crate::geometry::DconvGeometry;
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
    assert_eq!(
        weights.shape().len(),
        4,
        "expected [OC, IC, Kh, Kw] weights"
    );
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
    assert_eq!(
        input.shape()[1],
        geom.rows.input,
        "input row extent mismatch"
    );
    assert_eq!(
        input.shape()[2],
        geom.cols.input,
        "input col extent mismatch"
    );
    let c = input.shape()[0];
    let (eh, ew) = (geom.rows.effective_kernel(), geom.cols.effective_kernel());
    let (oh, ow) = (geom.rows.output, geom.cols.output);
    let (h, w) = (geom.rows.input, geom.cols.input);
    let (sh, sw) = (geom.rows.stride, geom.cols.stride);
    let (ph, pw) = (geom.rows.pad, geom.cols.pad);
    assert_eq!(
        out.len(),
        c * eh * ew * oh * ow,
        "im2col buffer length mismatch"
    );
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
                        *slot = if x < pw || x >= pw + w {
                            0.0
                        } else {
                            irow[x - pw]
                        };
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_tensors_close;

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
    fn plan_forward_reads_the_true_tap_rows_of_the_dense_im2col() {
        // With a one-hot kernel on tap (ci, jy, jx), the plan's forward is
        // row (ci, jy·Dh, jx·Dw) of the dense effective-extent matrix.
        use crate::im2col::ConvGeometry;
        let geom = DconvGeometry::square(10, 3, 2, 3, 3).unwrap();
        let input = det(&[2, 10, 10], 21);
        let dense = im2col_dconv(&input, &geom);
        let plan = geom.plan(2, 1);
        let (eh, ew) = (geom.rows.effective_kernel(), geom.cols.effective_kernel());
        let positions = geom.rows.output * geom.cols.output;
        for ci in 0..2 {
            for jy in 0..3 {
                for jx in 0..3 {
                    let hot = Tensor::from_fn(&[1, 2, 3, 3], |i| {
                        f32::from(u8::from(i[1..] == [ci, jy, jx]))
                    });
                    let out = plan.forward(&input, &hot);
                    let drow =
                        ci * eh * ew + (jy * geom.rows.dilation) * ew + jx * geom.cols.dilation;
                    assert_eq!(
                        out.data(),
                        &dense.data()[drow * positions..(drow + 1) * positions],
                        "tap ({ci},{jy},{jx})"
                    );
                }
            }
        }
    }

    #[test]
    fn dilation_one_square_matches_the_sconv_plan() {
        use crate::geometry::SconvGeometry;
        use crate::im2col::ConvGeometry;
        let geom = DconvGeometry::square(8, 5, 2, 1, 2).unwrap();
        let sgeom = SconvGeometry::new(8, 5, 2, 2).unwrap();
        let input = det(&[3, 8, 8], 9);
        let weights = det(&[4, 3, 5, 5], 10);
        let a = dconv_zero_insertion(&input, &weights, &geom);
        let b = sgeom.plan(3, 4).forward(&input, &weights);
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

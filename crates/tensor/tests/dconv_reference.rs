//! The D-CONV zero-insertion formulation against a scalar true-tap
//! reference and the zero-free one-phase plan.

use lergan_tensor::dconv::dconv_zero_insertion;
use lergan_tensor::im2col::ConvGeometry;
use lergan_tensor::{assert_tensors_close, DconvAxis, DconvGeometry, Tensor};

fn det(shape: &[usize], seed: u32) -> Tensor {
    let mut state = seed.wrapping_mul(2654435761).wrapping_add(7);
    Tensor::from_fn(shape, |_| {
        state = state.wrapping_mul(1664525).wrapping_add(1013904223);
        ((state >> 16) as f32 / 65536.0) - 0.5
    })
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
fn dconv_direct(input: &Tensor, weights: &Tensor, geom: &DconvGeometry) -> Tensor {
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
        let c = geom.plan(ic, oc).forward(&input, &weights);
        assert_tensors_close(&a, &c, 1e-4);
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

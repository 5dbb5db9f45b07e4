//! End-to-end data-path test: a real convolution pushed through the whole
//! hardware stack — 16-bit quantisation (tensor), ZFDR gathering (core),
//! integer MMV with 4-bit bit-slicing (reram), and conductance variation —
//! must agree with the floating-point reference within the analysed
//! bounds.

use lergan::core::zfdr::plan::ZfdrPlan;
use lergan::reram::bitslice::sliced_dot;
use lergan::reram::variation::VariationModel;
use lergan::reram::ReramConfig;
use lergan::tensor::conv::tconv_forward_zero_insert;
use lergan::tensor::im2col::ConvGeometry;
use lergan::tensor::quant::FixedPoint;
use lergan::tensor::{TconvGeometry, Tensor};

fn det(shape: &[usize], seed: u32) -> Tensor {
    let mut state = seed.wrapping_mul(2654435761).wrapping_add(3);
    Tensor::from_fn(shape, |_| {
        state = state.wrapping_mul(1664525).wrapping_add(1013904223);
        ((state >> 16) as f32 / 65536.0) - 0.5
    })
}

/// ZFDR T-CONV executed entirely in the quantised integer domain with
/// slice-wise dot products — the computation the crossbars physically do.
fn zfdr_tconv_integer(
    input: &Tensor,
    weights: &Tensor,
    geom: &TconvGeometry,
    q: FixedPoint,
    reram: &ReramConfig,
) -> Tensor {
    let (oc, ic) = (weights.shape()[0], weights.shape()[1]);
    let plan = ZfdrPlan::for_tconv(geom);
    let o = geom.output;
    let p = geom.insertion_pad;
    let s = geom.converse_stride;
    let wq = q.quantize_tensor(weights);
    let xq = q.quantize_tensor(input);
    let scale = q.step() * q.step();
    let mut out = Tensor::zeros(&[oc, o, o]);
    for oy in 0..o {
        let pr = plan.axis_classes()[plan.class_at(oy)].pattern.clone();
        for ox in 0..o {
            let pc = plan.axis_classes()[plan.class_at(ox)].pattern.clone();
            if pr.is_empty() || pc.is_empty() {
                continue;
            }
            for co in 0..oc {
                // Gather weight and input codes for this position.
                let mut wrow = Vec::new();
                let mut xvec = Vec::new();
                for &ky in &pr {
                    let iy = (oy + ky - p) / s;
                    for &kx in &pc {
                        let ix = (ox + kx - p) / s;
                        for ci in 0..ic {
                            let widx = ((co * ic + ci) * geom.kernel + ky) * geom.kernel + kx;
                            wrow.push(wq[widx]);
                            let xidx = (ci * geom.input + iy) * geom.input + ix;
                            xvec.push(xq[xidx]);
                        }
                    }
                }
                // The crossbar computes this dot product slice-wise.
                let acc = sliced_dot(&wrow, &xvec, reram);
                out[&[co, oy, ox][..]] = acc as f32 * scale;
            }
        }
    }
    out
}

#[test]
fn quantized_sliced_zfdr_matches_float_reference() {
    let geom = TconvGeometry::for_upsampling(4, 5, 2).unwrap();
    let input = det(&[4, 4, 4], 1);
    let weights = det(&[3, 4, 5, 5], 2);
    let q = FixedPoint::paper_default();
    let reram = ReramConfig::default();
    let hw = zfdr_tconv_integer(&input, &weights, &geom, q, &reram);
    let reference = tconv_forward_zero_insert(&input, &weights, &geom);
    // Quantisation error bound: each product off by <= (|w|+|x|+step)*step/2,
    // accumulated over at most 25*4 = 100 terms of magnitude <= 0.5.
    let bound = 100.0 * q.step();
    for (h, r) in hw.data().iter().zip(reference.data().iter()) {
        assert!(
            (h - r).abs() < bound,
            "hardware {h} vs reference {r} (bound {bound})"
        );
    }
}

#[test]
fn variation_degrades_gracefully_on_zfdr_gathers() {
    // Disturb the stored (gathered) weights with sub-level cell variation
    // and check the conv output error stays proportional to the
    // disturbance magnitude.
    let reram = ReramConfig::default();
    let q = FixedPoint::paper_default();
    let weights: Vec<i32> = (0..100)
        .map(|i| q.quantize(((i * 37 % 101) as f32 - 50.0) / 60.0))
        .collect();
    let inputs: Vec<i32> = (0..100)
        .map(|i| q.quantize(((i * 53 % 89) as f32 - 44.0) / 55.0))
        .collect();
    let mut prev = 0.0f64;
    for level in [0.05f64, 0.2, 0.8] {
        let m = VariationModel::new(level, 99);
        let (exact, perceived) = m.disturbed_dot(&weights, &inputs, &reram);
        let err = (perceived - exact as f64).abs();
        assert!(
            err >= prev,
            "error should not shrink as variation grows ({prev} -> {err})"
        );
        prev = err;
    }
    // At sub-level variation the result still identifies the true value:
    // relative aggregate error stays small.
    let rms = VariationModel::new(0.25, 5).relative_rms_error(128, 20, &reram);
    assert!(rms < 0.06, "aggregate rms {rms}");
}

#[test]
fn quantization_noise_does_not_break_pattern_structure() {
    // ZFDR's pattern classification depends only on geometry, never on
    // values — quantising the operands must not change which positions
    // share reshaped matrices.
    let geom = TconvGeometry::for_upsampling(8, 4, 2).unwrap();
    let q = FixedPoint::new(8, 4).unwrap();
    let input = det(&[2, 8, 8], 9);
    let rounded = q.round_trip(&input);
    let w = det(&[2, 2, 4, 4], 10);
    // One plan, built from the geometry alone, runs both inputs.
    let plan = geom.plan(2, 2);
    let a = plan.forward(&input, &w);
    let b = plan.forward(&rounded, &w);
    let max_dev = a
        .data()
        .iter()
        .zip(b.data().iter())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f32, f32::max);
    // 16 kernel taps x 2 channels, each off by at most step/2 x |w|<=0.5.
    assert!(
        max_dev <= 32.0 * q.step() * 0.5 + 1e-4,
        "max deviation {max_dev}"
    );
}

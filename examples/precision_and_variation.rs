//! Hardware data-path study: 16-bit fixed point, 4-bit cell slicing, and
//! cell-conductance variation — does the analog pipeline still compute the
//! right convolutions?
//!
//! ```text
//! cargo run --release --example precision_and_variation
//! ```

use lergan::reram::bitslice::{slice_weight, sliced_dot, unslice_weight};
use lergan::reram::variation::VariationModel;
use lergan::reram::{EnergyModel, ReramConfig};
use lergan::tensor::conv::tconv_forward_zero_insert;
use lergan::tensor::im2col::ConvGeometry;
use lergan::tensor::quant::FixedPoint;
use lergan::tensor::{TconvGeometry, Tensor};

fn main() {
    let reram = ReramConfig::default();
    let q = FixedPoint::paper_default();

    println!("--- 16-bit fixed point (the PipeLayer-style data path) ---");
    println!(
        "format: {} bits, {} fraction bits, step {:.2e}, range ±{:.2}",
        q.total_bits(),
        q.frac_bits(),
        q.step(),
        q.max_value()
    );
    for v in [0.75f32, -0.001, std::f32::consts::PI] {
        let code = q.quantize(v);
        println!(
            "  {v:>9.5} -> code {code:>6} -> {:>9.5}",
            q.dequantize(code)
        );
    }

    println!("\n--- 4-bit cell slicing (4 cells per 16-bit weight) ---");
    for code in [12345i32, -12345] {
        let slices = slice_weight(code, &reram);
        println!(
            "  code {code:>6} -> cells {:?} -> {}",
            slices,
            unslice_weight(&slices, &reram)
        );
    }
    let w = [1234i32, -5678, 30000, -7];
    let x = [3i32, -2, 1, 9];
    let direct: i64 = w
        .iter()
        .zip(x.iter())
        .map(|(&a, &b)| a as i64 * b as i64)
        .sum();
    println!(
        "  sliced dot == direct dot: {} == {}",
        sliced_dot(&w, &x, &reram),
        direct
    );

    println!("\n--- quantisation error through the zero-free T-CONV ---");
    let geom = TconvGeometry::for_upsampling(8, 4, 2).unwrap();
    let mut seed = 77u32;
    let mut rnd = move || {
        seed = seed.wrapping_mul(1664525).wrapping_add(1013904223);
        ((seed >> 16) as f32 / 65536.0) - 0.5
    };
    let input = Tensor::from_fn(&[4, 8, 8], |_| rnd());
    let weights = Tensor::from_fn(&[4, 4, 4, 4], |_| rnd());
    let exact = tconv_forward_zero_insert(&input, &weights, &geom);
    let zfdr_q = geom
        .plan(4, 4)
        .forward(&q.round_trip(&input), &q.round_trip(&weights));
    let max_err = exact
        .data()
        .iter()
        .zip(zfdr_q.data().iter())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    println!("  max output deviation after quantising both operands: {max_err:.2e}");

    println!("\n--- cell-conductance variation (the [66] tolerance question) ---");
    for level in [0.05f64, 0.15, 0.25, 0.5, 1.0] {
        let rms = VariationModel::new(level, 5).relative_rms_error(128, 30, &reram);
        println!(
            "  ±{level:.2} cell levels -> {:.2}% aggregate dot-product error",
            rms * 100.0
        );
    }

    println!("\n--- the Sec. VI-D energy what-if replayed on this data path ---");
    let base = EnergyModel::default();
    let opt = base.optimistic_whatif();
    println!(
        "  ADC energy {:.1} -> {:.1} pJ/op; cell switching {:.1} -> {:.1} pJ/cell",
        base.adc_pj_per_op,
        opt.adc_pj_per_op,
        base.cell_switch_pj_per_cell,
        opt.cell_switch_pj_per_cell
    );
}

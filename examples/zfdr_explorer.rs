//! ZFDR explorer: walks through Zero-Free Data Reshaping on the paper's
//! worked example (CONV1 of the DCGAN generator, Sec. III-A/IV-A) and
//! verifies every published number — zeros, efficiency, class counts,
//! cycles, storage — then runs the layer on the zero-free executor
//! (`ConvPlan`) bit for bit against the naive zero-insertion kernel.
//!
//! ```text
//! cargo run --release --example zfdr_explorer
//! ```

use lergan::core::replica::ReplicaPlan;
use lergan::core::zfdr::closed_form;
use lergan::core::zfdr::plan::ClassKind;
use lergan::core::ZfdrPlan;
use lergan::tensor::conv::tconv_forward_zero_insert;
use lergan::tensor::im2col::ConvGeometry;
use lergan::tensor::{TconvGeometry, Tensor};

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn main() {
    // CONV1 of the DCGAN generator: a 4x4x1024 input transposed-convolved
    // with 512 kernels of 5x5x1024 at stride 1/2 into an 8x8x512 output.
    let geom = TconvGeometry::for_upsampling(4, 5, 2).unwrap();
    println!("CONV1 geometry: {geom:#?}\n");

    println!("--- Zero insertion (Fig. 4) ---");
    println!(
        "expanded plane: {0}x{0} (insert {1} zero(s) between elements, {2} at \
         the end, pad {3})",
        geom.expanded(),
        geom.converse_stride - 1,
        geom.remainder,
        geom.insertion_pad
    );
    println!(
        "stored values per 1024-channel input: {} total, {} useful",
        geom.expanded() * geom.expanded() * 1024,
        geom.input * geom.input * 1024
    );
    let total = geom.total_multiplications_per_channel() * 1024;
    let useful = geom.useful_multiplications_per_channel() * 1024;
    println!(
        "multiplications: {total} total, {useful} useful -> {:.2}% efficiency \
         (paper: 18.06%)\n",
        useful as f64 / total as f64 * 100.0
    );

    println!("--- ZFDR reshape classes (Sec. IV-A) ---");
    let plan = ZfdrPlan::for_tconv(&geom);
    println!(
        "distinct reshaped matrices: {} (paper: 25)",
        plan.distinct_classes(2)
    );
    for kind in ClassKind::ALL {
        let s = plan.kind(kind, 2);
        println!(
            "  {kind:?}: {} classes, max reuse {}, covering {} output positions",
            s.classes, s.max_reuse, s.total_positions
        );
    }
    println!(
        "closed form: LL={} R1={} R2={} cases={:?} (matches enumeration)",
        closed_form::loop_length(&geom),
        closed_form::r1(&geom),
        closed_form::r2(&geom),
        closed_form::tconv_cases(&geom)
    );
    println!(
        "cycles without duplication: {} (paper: 9; normal reshape: 64)\n",
        plan.kind_summaries(2).cycles(&ReplicaPlan::unity())
    );

    println!("--- storage (the 75% claim) ---");
    println!(
        "ZFDR stores {} kernel positions per channel pair (plain kernel: 25);",
        plan.pattern_volume_total(2)
    );
    println!(
        "7-copy plain duplication for the same 9-cycle latency stores {} -> \
         {:.0}% more than ZFDR (paper: 75%)\n",
        7 * 25,
        (7.0 * 25.0 / plan.pattern_volume_total(2) as f64 - 1.0) * 100.0
    );

    println!("--- zero-free execution ---");
    // Scaled-down channels: the algebra is identical.
    let mut seed = 0x2337u32;
    let mut rnd = move || {
        seed = seed.wrapping_mul(1664525).wrapping_add(1013904223);
        ((seed >> 16) as f32 / 65536.0) - 0.5
    };
    let input = Tensor::from_fn(&[16, 4, 4], |_| rnd());
    let weights = Tensor::from_fn(&[8, 16, 5, 5], |_| rnd());
    let conv_plan = geom.plan(16, 8);
    let zero_free = conv_plan.forward(&input, &weights);
    let naive = tconv_forward_zero_insert(&input, &weights, &geom);
    assert_eq!(bits(&zero_free), bits(&naive));
    println!(
        "ConvPlan forward == naive zero-insertion, bit for bit: {} phases \
         (the Inside classes), {} reshaped matrices and {} MMVs in the ZFDR model",
        geom.converse_stride * geom.converse_stride,
        plan.distinct_classes(2),
        plan.mmvs_per_sample(2)
    );
    println!(
        "MACs per channel pair: {} useful, {} executed (the phase windows' \
         border taps read im2col padding where the Edge/Corner classes clip them)",
        geom.useful_multiplications_per_channel(),
        conv_plan.cols_len() / 16
    );

    println!("\n--- future-GAN stride 3 (Sec. IV-A's generality claim) ---");
    let g3 = TconvGeometry::for_upsampling(5, 5, 3).unwrap();
    let p3 = ZfdrPlan::for_tconv(&g3);
    let input = Tensor::from_fn(&[4, 5, 5], |_| rnd());
    let weights = Tensor::from_fn(&[2, 4, 5, 5], |_| rnd());
    let zf = g3.plan(4, 2).forward(&input, &weights);
    let nv = tconv_forward_zero_insert(&input, &weights, &g3);
    assert_eq!(bits(&zf), bits(&nv));
    println!(
        "stride-3 T-CONV: {} classes (inside {} = S'^2), bit-identical execution",
        p3.distinct_classes(2),
        p3.kind(ClassKind::Inside, 2).classes
    );
}

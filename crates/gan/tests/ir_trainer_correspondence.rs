//! The op-graph IR and the functional trainer must describe the *same*
//! network: every forward [`PhaseOp`]'s GEMM shape has to match what the
//! built [`Sequential`] actually computes (its im2col shapes), and the
//! useful-MAC counts of the zero-inserted ops have to equal a literal
//! nonzero count over the materialised im2col matrix.

use lergan_gan::ir::{self, OpGraph};
use lergan_gan::train::build_trainable_bound;
use lergan_gan::{benchmarks, GanSpec, Phase, WorkloadKind};
use lergan_tensor::im2col::im2col;
use lergan_tensor::zero_insert::expand_tconv_input;
use lergan_tensor::{SconvGeometry, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Checks one GAN: build the graph and both trainers, then walk the
/// op ↔ train-layer bindings comparing GEMM shapes.
fn check_trainer_correspondence(gan: &GanSpec) {
    let graph = OpGraph::build(gan);
    for (is_generator, phase) in [(true, Phase::GForward), (false, Phase::DForward)] {
        let net = gan.network_for(phase);
        let mut rng = StdRng::seed_from_u64(11);
        let (seq, bindings) = build_trainable_bound(net, is_generator, false, &mut rng);
        let ops = graph.phase_ops(phase);
        assert_eq!(
            bindings.len(),
            ops.len(),
            "{}: every forward op is bound to a trainer layer",
            gan.name
        );
        for (binding, op) in bindings.iter().zip(ops) {
            assert_eq!(binding.op.0, op.id.0 - ops[0].id.0, "ids run from zero");
            assert_eq!(binding.layer_index, op.layer_index);
            let trainer_gemm = seq
                .layer(binding.train_index)
                .gemm_shape()
                .unwrap_or_else(|| {
                    panic!(
                        "{} {} L{}: bound trainer layer must expose a GEMM shape",
                        gan.name, phase, op.layer_index
                    )
                });
            assert_eq!(
                trainer_gemm, op.gemm,
                "{} {} L{}: IR GEMM vs trainer im2col GEMM",
                gan.name, phase, op.layer_index
            );
        }
    }
}

#[test]
fn every_2d_benchmark_trainer_matches_the_ir() {
    for gan in benchmarks::all().into_iter().chain(benchmarks::extended()) {
        if gan.generator.dims != 2 {
            continue; // the functional trainer is 2-D only
        }
        check_trainer_correspondence(&gan);
    }
    // The skip above must not silently empty the loop.
    assert!(benchmarks::all().iter().any(|g| g.generator.dims == 2));
}

/// Counts nonzero entries of the im2col matrix of an all-ones input run
/// through the zero-inserting T-CONV expansion — the ground-truth useful
/// MAC count per (in, out) channel pair.
fn tconv_useful_macs_by_im2col(geom: &lergan_tensor::TconvGeometry) -> u128 {
    let ones = Tensor::from_fn(&[1, geom.input, geom.input], |_| 1.0);
    let expanded = expand_tconv_input(&ones, geom);
    let e = expanded.shape()[1];
    // The T-CONV over the expanded plane is a stride-1, pad-0 S-CONV.
    let sconv =
        SconvGeometry::new(e, geom.kernel, 1, 0).expect("expanded plane admits the stride-1 conv");
    assert_eq!(
        sconv.output, geom.output,
        "expansion reproduces the output extent"
    );
    let cols = im2col(&expanded, &sconv);
    cols.data().iter().filter(|&&v| v != 0.0).count() as u128
}

/// Counts nonzero products of the zero-inserted D-CONV formulation on an
/// all-ones input: im2col entries gated by the expanded kernel's tap
/// structure — the ground-truth useful MAC count per channel pair.
fn dconv_useful_macs_by_im2col(geom: &lergan_tensor::DconvGeometry) -> u128 {
    use lergan_tensor::dconv::{expand_dilated_kernel, im2col_dconv};
    let ones = Tensor::from_fn(&[1, geom.rows.input, geom.cols.input], |_| 1.0);
    let cols = im2col_dconv(&ones, geom);
    let taps = expand_dilated_kernel(
        &Tensor::from_fn(&[1, 1, geom.rows.kernel, geom.cols.kernel], |_| 1.0),
        geom,
    );
    let (eh, ew) = (geom.rows.effective_kernel(), geom.cols.effective_kernel());
    let positions = geom.rows.output * geom.cols.output;
    let mut useful = 0u128;
    for r in 0..eh * ew {
        if taps.data()[r] == 0.0 {
            continue;
        }
        useful += cols.data()[r * positions..(r + 1) * positions]
            .iter()
            .filter(|&&v| v != 0.0)
            .count() as u128;
    }
    useful
}

#[test]
fn useful_mac_counts_match_materialised_im2col_zeros() {
    for gan in benchmarks::all().into_iter().chain(benchmarks::extended()) {
        if gan.generator.dims != 2 {
            continue;
        }
        let graph = OpGraph::build(&gan);
        for op in graph.ops() {
            match &op.workload.kind {
                WorkloadKind::TconvInput(geom) => {
                    let pair = op.workload.in_channels as u128 * op.workload.out_channels as u128;
                    let per_pair = tconv_useful_macs_by_im2col(geom);
                    assert_eq!(
                        op.workload.macs_useful,
                        pair * per_pair,
                        "{} {} L{}: analytic useful MACs vs counted nonzeros",
                        gan.name,
                        op.phase,
                        op.layer_index
                    );
                }
                WorkloadKind::Dense => {
                    assert_eq!(
                        op.workload.macs_useful, op.workload.macs_dense,
                        "{} {} L{}: dense ops have no zeros to skip",
                        gan.name, op.phase, op.layer_index
                    );
                    assert_eq!(op.gemm.macs(), op.workload.macs_useful);
                }
                WorkloadKind::WconvKernel(_) => {
                    // W-CONV-S usefulness is validated exhaustively against
                    // the pattern enumeration in lergan-core's zfdr tests;
                    // here just keep it within the dense envelope.
                    assert!(op.workload.macs_useful <= op.workload.macs_dense);
                }
                WorkloadKind::DconvKernel(geom) => {
                    let pair = op.workload.in_channels as u128 * op.workload.out_channels as u128;
                    assert_eq!(
                        op.workload.macs_useful,
                        pair * dconv_useful_macs_by_im2col(geom),
                        "{} {} L{}: analytic useful MACs vs counted nonzeros",
                        gan.name,
                        op.phase,
                        op.layer_index
                    );
                    assert_eq!(
                        op.workload.macs_dense,
                        pair * geom.total_multiplications_per_pair() as u128,
                        "{} {} L{}: dense MACs cover the zero-inserted kernel",
                        gan.name,
                        op.phase,
                        op.layer_index
                    );
                }
            }
        }
    }
}

/// Random DCGAN-shaped generator/discriminator pairs in the compact
/// Table V notation.
fn random_gan() -> impl Strategy<Value = GanSpec> {
    (1usize..4, 3usize..7, 1usize..3, 0usize..3, 1usize..4).prop_filter_map(
        "topology parses and maps",
        |(depth, kernel, stride, base_ch_log, seed_units)| {
            let item = 8 << (depth - 1) as u32;
            let base = 8 << base_ch_log;
            let gen_chain: Vec<String> = (0..depth)
                .map(|i| format!("{}t", base << (depth - 1 - i)))
                .collect();
            let disc_chain: Vec<String> = std::iter::once("3c".to_string())
                .chain((0..depth.saturating_sub(1)).map(|i| format!("{}c", base << i)))
                .collect();
            GanSpec::parse(
                &format!("rand-{depth}-{kernel}-{stride}-{base}"),
                &format!(
                    "{}f-({})({kernel}k{stride}s)-t3",
                    100 * seed_units,
                    gen_chain.join("-")
                ),
                &format!("({})({kernel}k{stride}s)-f1", disc_chain.join("-")),
                &[item, item],
            )
            .ok()
        },
    )
}

/// Random topologies drawn from the *extended* grammar: a tconv upsample
/// into a dilated residual block with an optional norm tag, and a
/// discriminator whose dilated block may use an asymmetric `3x5` kernel.
fn random_extended_gan() -> impl Strategy<Value = GanSpec> {
    (
        1usize..4, // latent units (×100)
        0usize..2, // generator head channels log
        0usize..3, // block channels log
        2usize..4, // dilation
        0usize..4, // norm tag
        0usize..2, // asymmetric discriminator kernel
        0usize..2, // item extent log
    )
        .prop_filter_map(
            "extended topology parses and maps",
            |(z, a_log, b_log, dil, norm_idx, asym, item_log)| {
                let item = 16 << item_log;
                let a = 32 << a_log;
                let b = 8 << b_log;
                let norm = ["", "bn", "pn", "nn"][norm_idx];
                let kern = if asym == 1 { "3x5" } else { "3" };
                GanSpec::parse(
                    &format!("ext-{z}-{a}-{b}-{dil}{norm}-{kern}-{item}"),
                    &format!(
                        "{}f-{a}t4k2s-{b}c3k1s{dil}d{norm}+2-{b}c3k1s-{b}c3k1s-t3",
                        100 * z
                    ),
                    &format!("3c4k2s-{b}c{kern}k1s{dil}d{norm}+2-{b}c3k1s-{b}c3k1s-{a}c4k2s-f1"),
                    &[item, item],
                )
                .ok()
            },
        )
}

/// Deterministic pseudo-random input for the first layer of `net`.
fn seed_input(net: &lergan_gan::NetworkSpec) -> Tensor {
    let first = &net.layers[0];
    let shape: Vec<usize> = match first {
        lergan_gan::Layer::Fc(f) => vec![f.in_units],
        _ => vec![
            first.fan_in_channels(),
            first.in_spatial(),
            first.in_spatial(),
        ],
    };
    let len: usize = shape.iter().product();
    let data: Vec<f32> = (0..len)
        .map(|i| (i.wrapping_mul(2654435761) % 997) as f32 / 997.0 - 0.5)
        .collect();
    Tensor::from_vec(&shape, data)
}

/// Builds the phase's trainer fresh, runs one forward/backward, and
/// returns the exact bit patterns of the output and the input gradient.
fn forward_backward_bits(
    gan: &GanSpec,
    is_generator: bool,
    phase: Phase,
    threads: usize,
) -> (Vec<u32>, Vec<u32>) {
    lergan_tensor::parallel::with_threads(threads, || {
        let net = gan.network_for(phase);
        let mut rng = StdRng::seed_from_u64(7);
        let (mut seq, _) = build_trainable_bound(net, is_generator, true, &mut rng);
        let x = seed_input(net);
        let y = seq.forward(&x);
        let gdata: Vec<f32> = (0..y.len())
            .map(|i| (i.wrapping_mul(40503) % 613) as f32 / 613.0 - 0.5)
            .collect();
        let g = Tensor::from_vec(y.shape(), gdata);
        let din = seq.backward(&g);
        (
            y.data().iter().map(|v| v.to_bits()).collect(),
            din.data().iter().map(|v| v.to_bits()).collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_topologies_bind_ir_to_trainer(gan in random_gan()) {
        let graph = OpGraph::build(&gan);
        // GEMM accounting holds for every op of every phase.
        for op in graph.ops() {
            prop_assert_eq!(op.gemm.macs(), op.workload.macs_dense);
        }
        // The standalone per-phase view used by the trainer matches the
        // stitched graph.
        for phase in Phase::ALL {
            let standalone = ir::network_ops(gan.network_for(phase), phase);
            let in_graph = graph.phase_ops(phase);
            prop_assert_eq!(standalone.len(), in_graph.len());
            for (a, b) in standalone.iter().zip(in_graph) {
                prop_assert_eq!(&a.workload, &b.workload);
                prop_assert_eq!(a.gemm, b.gemm);
            }
        }
        check_trainer_correspondence(&gan);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The extended grammar — dilation, skip edges, norm variants — binds
    /// op ids to trainer layers exactly like the DCGAN-shaped chains do,
    /// and the trainer's arithmetic is bit-deterministic across the
    /// parallel substrate's thread counts.
    #[test]
    fn extended_grammar_binds_and_is_thread_deterministic(gan in random_extended_gan()) {
        // Op-id ↔ train-layer binding over the extended op algebra.
        check_trainer_correspondence(&gan);
        // GEMM accounting still covers every op of every phase.
        let graph = OpGraph::build(&gan);
        for op in graph.ops() {
            prop_assert!(op.workload.macs_useful <= op.workload.macs_dense);
            prop_assert_eq!(op.gemm.macs(), op.workload.macs_dense);
        }
        // Bit-determinism at LERGAN_THREADS 1/2/8 (pinned per call, so
        // concurrent proptest cases cannot race on the environment).
        for (is_generator, phase) in [(true, Phase::GForward), (false, Phase::DForward)] {
            let one = forward_backward_bits(&gan, is_generator, phase, 1);
            let two = forward_backward_bits(&gan, is_generator, phase, 2);
            let eight = forward_backward_bits(&gan, is_generator, phase, 8);
            prop_assert_eq!(&one, &two, "{} {}: 1 vs 2 threads", gan.name, phase);
            prop_assert_eq!(&one, &eight, "{} {}: 1 vs 8 threads", gan.name, phase);
        }
    }

    /// Rendering a parsed network back to compact notation and reparsing
    /// it reproduces the layers, skip edges and norm tags exactly — over
    /// the full extended grammar, not just the hand-picked unit cases.
    #[test]
    fn rendered_notation_round_trips(gan in random_extended_gan()) {
        use lergan_gan::topology::{parse_network, render_notation};
        for net in [&gan.generator, &gan.discriminator] {
            let rendered = render_notation(net);
            let reparsed = parse_network(&net.name, &rendered, net.dims, gan.item_size[0])
                .unwrap_or_else(|e| panic!("`{rendered}`: {e}"));
            prop_assert_eq!(&reparsed.layers, &net.layers, "via `{}`", rendered);
            prop_assert_eq!(&reparsed.skips, &net.skips, "via `{}`", rendered);
            prop_assert_eq!(&reparsed.norms, &net.norms, "via `{}`", rendered);
        }
    }
}

//! Property tests for the trainer's bit-identity contract.
//!
//! For randomly drawn topologies — DCGAN-style generator stacks and
//! extended-grammar discriminator stacks mixing dilated convolutions,
//! skip edges and norm variants — one batched forward/backward must
//! reproduce, bit for bit, the per-sample oracle built on the
//! `lergan-tensor` reference kernels: every output row and input-gradient
//! row equals the oracle's for that sample, every accumulated weight
//! gradient equals the oracle's per-sample gradients folded through the
//! fixed reduction tree, and the persistent state (batch-norm running
//! statistics) matches. Checked at 1, 2 and 8 worker threads, so the
//! contract covers the data-parallel sharding too.
//!
//! The partial backward passes a train step runs are pinned to the full
//! one on the same stacks: a parameters-only backward accumulates the
//! full backward's gradients bit for bit and returns no input gradient,
//! and an input-only backward returns the full backward's input gradient
//! bit for bit and accumulates nothing.

mod oracle;

use lergan_gan::topology::parse_network;
use lergan_gan::train::{build_trainable_with, pack_batch, Grads, LayerState, Sequential};
use lergan_tensor::{parallel, Tensor};
use oracle::{assert_states_bitwise, OracleStack};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn det(shape: &[usize], seed: u32) -> Tensor {
    let mut state = seed.wrapping_mul(747796405).wrapping_add(1);
    Tensor::from_fn(shape, |_| {
        state = state.wrapping_mul(1664525).wrapping_add(1013904223);
        ((state >> 16) as f32 / 65536.0) - 0.5
    })
}

fn bits_eq(a: &[f32], b: &[f32]) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        prop_assert_eq!(x.to_bits(), y.to_bits(), "element {} ({} vs {})", i, x, y);
    }
    Ok(())
}

fn all_zero(states: &[LayerState]) -> Result<(), TestCaseError> {
    for (li, state) in states.iter().enumerate() {
        for (key, t) in state.entries() {
            prop_assert!(
                t.data().iter().all(|&v| v == 0.0),
                "layer {} {} accumulated a gradient",
                li,
                key
            );
        }
    }
    Ok(())
}

/// Runs the batched stack against the per-sample oracle at each thread
/// count and bit-compares outputs, input gradients, tree-reduced weight
/// gradients and persistent state; then pins the parameters-only and
/// input-only backward passes to the full one.
#[allow(clippy::too_many_arguments)]
fn check(
    notation: &str,
    is_generator: bool,
    batch_norm: bool,
    extent: usize,
    input_shape: &[usize],
    seed_shape: &[usize],
    batch: usize,
    case_seed: u32,
) -> Result<(), TestCaseError> {
    let spec = parse_network("prop", notation, 2, extent).unwrap();
    let inputs: Vec<Tensor> = (0..batch)
        .map(|b| det(input_shape, case_seed + b as u32))
        .collect();
    let seeds: Vec<Tensor> = (0..batch)
        .map(|b| det(seed_shape, case_seed + 100 + b as u32))
        .collect();
    let packed = pack_batch(&inputs);
    let packed_seeds = pack_batch(&seeds);
    for threads in [1usize, 2, 8] {
        parallel::with_threads(threads, || -> Result<(), TestCaseError> {
            let build = || {
                let mut rng = StdRng::seed_from_u64(u64::from(case_seed));
                build_trainable_with(&spec, is_generator, batch_norm, &mut rng)
            };
            let mut net = build();
            let mut oracle =
                OracleStack::build(&spec, is_generator, batch_norm, &net.capture_state());

            let out = net.forward_batch(&packed, batch).unwrap();
            let din = net.backward_batch(&packed_seeds, batch).unwrap();
            let slen = out.len() / batch;
            let dlen = din.len() / batch;
            let mut partials = Vec::new();
            for (b, input) in inputs.iter().enumerate() {
                let o = oracle.forward(input);
                bits_eq(&out.data()[b * slen..(b + 1) * slen], o.data())?;
                let d = oracle.backward(&seeds[b]);
                bits_eq(&din.data()[b * dlen..(b + 1) * dlen], d.data())?;
                partials.push(oracle.sample_grads());
            }
            oracle.accumulate(&partials);
            assert_states_bitwise(&net.capture_grads(), &oracle.grads(), "gradients");
            assert_states_bitwise(&net.capture_state(), &oracle.states(), "state");

            let forwarded = || -> Sequential {
                let mut twin = build();
                let out = twin.forward_batch(&packed, batch).unwrap();
                twin.recycle(out);
                twin
            };
            let mut params_only = forwarded();
            let none = params_only
                .backward_batch_with(&packed_seeds, batch, Grads::Params)
                .unwrap();
            prop_assert!(none.is_none(), "a parameters-only backward returned ∇input");
            assert_states_bitwise(
                &params_only.capture_grads(),
                &net.capture_grads(),
                "parameters-only gradients",
            );
            let mut input_only = forwarded();
            let only = input_only
                .backward_batch_with(&packed_seeds, batch, Grads::Input)
                .unwrap()
                .expect("an input-only backward returns ∇input");
            bits_eq(only.data(), din.data())?;
            all_zero(&input_only.capture_grads())?;
            Ok(())
        })?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random DCGAN-style generator stacks: FC reshape, two stride-2
    /// T-CONV upsampling stages, stride-1 T-CONV head.
    #[test]
    fn random_generator_stacks_match_per_sample_oracle(
        c1 in 2usize..7,
        c2 in 2usize..5,
        noise in prop_oneof![Just(4usize), Just(8)],
        batch_norm in prop_oneof![Just(false), Just(true)],
        batch in 1usize..6,
        case_seed in 0u32..1000,
    ) {
        let notation = format!("{noise}f-({c1}t-{c2}t)(3k2s)-t1");
        check(&notation, true, batch_norm, 8, &[noise], &[1, 8, 8], batch, case_seed)?;
    }

    /// Random extended-grammar discriminator stacks: stride-1 conv core
    /// plus optional dilated conv, norm-tagged conv and skip edge, FC
    /// head.
    #[test]
    fn random_extended_stacks_match_per_sample_oracle(
        c in 3usize..9,
        dilated in prop_oneof![Just(false), Just(true)],
        norm in prop_oneof![Just(""), Just("bn"), Just("pn")],
        skip in prop_oneof![Just(false), Just(true)],
        batch in 1usize..5,
        case_seed in 0u32..1000,
    ) {
        let mut mid = String::new();
        if dilated {
            mid.push_str(&format!("-{c}c3k1s2d"));
        }
        // The skip edge jumps two layers, so two same-shape convs always
        // follow its source.
        mid.push_str(&format!("-{c}c3k1s{norm}"));
        if skip {
            mid.push_str("+2");
        }
        mid.push_str(&format!("-{c}c3k1s-{c}c3k1s"));
        let notation = format!("(1c-{c}c)(3k1s){mid}-f1");
        check(&notation, false, false, 8, &[1, 8, 8], &[1], batch, case_seed)?;
    }
}

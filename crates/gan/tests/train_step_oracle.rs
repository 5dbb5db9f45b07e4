//! `Gan::train_step` pinned to the per-sample oracle, bit for bit.
//!
//! The trainer has one execution path: `train_step` packs its samples
//! into a pooled batch and runs the batched step. These tests pin that
//! path's losses and full checkpoints (weights, Adam moments, step, RNG
//! position) after every step to the oracle of `oracle/mod.rs`, on the
//! four reduced suite GANs the benchmark times, at 1, 2 and 8 worker
//! threads — and pin the empty step to a no-op.

mod oracle;

use lergan_gan::topology::parse_network;
use lergan_gan::train::{build_trainable_with, Gan, UpdateRule};
use lergan_gan::NetworkSpec;
use lergan_tensor::{parallel, Tensor};
use oracle::OracleGan;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A reduced benchmark GAN: generator and discriminator notation, image
/// extent and noise width.
struct SuiteGan {
    name: &'static str,
    gen: &'static str,
    disc: &'static str,
    extent: usize,
    noise: usize,
}

const SUITE: [SuiteGan; 4] = [
    SuiteGan {
        name: "dcgan16",
        gen: "8f-(8t-4t)(3k2s)-t1",
        disc: "(1c-8c)(3k2s)-f1",
        extent: 16,
        noise: 8,
    },
    SuiteGan {
        name: "dcgan32deep",
        gen: "8f-(16t-8t-4t)(3k2s)-t1",
        disc: "(1c-8c-16c)(3k2s)-f1",
        extent: 32,
        noise: 8,
    },
    SuiteGan {
        name: "widegan16",
        gen: "16f-(16t-8t)(3k2s)-t1",
        disc: "(1c-16c)(3k2s)-f1",
        extent: 16,
        noise: 16,
    },
    SuiteGan {
        name: "extgan8",
        gen: "8f-(4t)(3k2s)-t1",
        disc: "(1c-8c)(3k1s)-8c3k1s2d-8c3k1sbn+2-8c3k1s-8c3k1spn-f1",
        extent: 8,
        noise: 8,
    },
];

const STEPS: usize = 3;

fn rule() -> UpdateRule {
    UpdateRule::dcgan_adam(0.01)
}

fn specs(g: &SuiteGan) -> (NetworkSpec, NetworkSpec) {
    (
        parse_network("g", g.gen, 2, g.extent).unwrap(),
        parse_network("d", g.disc, 2, g.extent).unwrap(),
    )
}

fn build(g: &SuiteGan, seed: u64) -> Gan {
    let (gen, disc) = specs(g);
    let mut rng = StdRng::seed_from_u64(seed);
    let generator = build_trainable_with(&gen, true, false, &mut rng);
    let discriminator = build_trainable_with(&disc, false, false, &mut rng);
    Gan::new(generator, discriminator, g.noise, 0.01, seed + 1).with_optimizer(rule())
}

fn sample(g: &SuiteGan, rng: &mut StdRng) -> Tensor {
    let pixels = (0..g.extent * g.extent)
        .map(|_| rng.gen::<f32>() * 2.0 - 1.0)
        .collect();
    Tensor::from_vec(&[1, g.extent, g.extent], pixels)
}

/// Trains the library GAN and its oracle twin side by side on batches of
/// `batch` samples, comparing loss bits and checkpoints after every step.
fn pin_to_oracle(g: &SuiteGan, batch: usize, threads: usize) {
    parallel::with_threads(threads, || {
        let mut gan = build(g, 7);
        let (gen, disc) = specs(g);
        let mut oracle =
            OracleGan::from_checkpoint(&gen, &disc, false, &gan.checkpoint(), g.noise, rule());
        let mut data = StdRng::seed_from_u64(0xDA7A);
        for step in 0..STEPS {
            let reals: Vec<Tensor> = (0..batch).map(|_| sample(g, &mut data)).collect();
            let stats = gan.train_step(&reals);
            let (d_loss, g_loss) = oracle.train_step(&reals);
            let at = format!("{} B={batch} threads {threads} step {step}", g.name);
            assert_eq!(stats.d_loss.to_bits(), d_loss.to_bits(), "{at}: d_loss");
            assert_eq!(stats.g_loss.to_bits(), g_loss.to_bits(), "{at}: g_loss");
            let (lib, reference) = (gan.checkpoint(), oracle.checkpoint());
            oracle::assert_states_bitwise(&lib.generator, &reference.generator, &at);
            oracle::assert_states_bitwise(&lib.discriminator, &reference.discriminator, &at);
            assert_eq!(lib, reference, "{at}: checkpoint");
        }
    });
}

#[test]
fn one_sample_train_step_matches_the_oracle_on_every_suite_gan() {
    for threads in [1, 2, 8] {
        for g in &SUITE {
            pin_to_oracle(g, 1, threads);
        }
    }
}

#[test]
fn multi_sample_train_step_matches_the_oracle_tree_fold() {
    // A non-power-of-two batch exercises the ragged edge of the tree.
    for threads in [1, 8] {
        pin_to_oracle(&SUITE[0], 3, threads);
        pin_to_oracle(&SUITE[3], 3, threads);
    }
}

#[test]
fn empty_train_step_returns_zeroed_stats_and_changes_nothing() {
    let mut gan = build(&SUITE[0], 9);
    let mut data = StdRng::seed_from_u64(1);
    gan.train_step(&[sample(&SUITE[0], &mut data)]);
    let before = gan.checkpoint();
    let stats = gan.train_step(&[]);
    assert_eq!(stats.d_loss.to_bits(), 0.0f32.to_bits());
    assert_eq!(stats.g_loss.to_bits(), 0.0f32.to_bits());
    assert_eq!(gan.step(), before.step);
    assert_eq!(gan.checkpoint(), before);
}

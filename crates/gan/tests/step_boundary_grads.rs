//! Neither stack holds gradients at a train-step boundary.
//!
//! A step computes only the gradients it reads: the discriminator half
//! runs no generator backward, and the generator half asks the
//! discriminator for its input gradient alone. Each half's update then
//! clears the gradients it applied, so after every `train_step` (one
//! sample) and every `train_step_batched` (a batch of 8) both stacks'
//! accumulated gradients must be exactly zero, on each of the four
//! reduced suite GANs the benchmark times (extgan8 covers dilated
//! convolutions, a skip edge, batch and pixel norm).

use lergan_gan::topology::parse_network;
use lergan_gan::train::{build_trainable_with, pack_batch, Gan, LayerState, UpdateRule};
use lergan_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// (name, generator, discriminator, image extent, noise width).
const SUITE: [(&str, &str, &str, usize, usize); 4] = [
    ("dcgan16", "8f-(8t-4t)(3k2s)-t1", "(1c-8c)(3k2s)-f1", 16, 8),
    (
        "dcgan32deep",
        "8f-(16t-8t-4t)(3k2s)-t1",
        "(1c-8c-16c)(3k2s)-f1",
        32,
        8,
    ),
    (
        "widegan16",
        "16f-(16t-8t)(3k2s)-t1",
        "(1c-16c)(3k2s)-f1",
        16,
        16,
    ),
    (
        "extgan8",
        "8f-(4t)(3k2s)-t1",
        "(1c-8c)(3k1s)-8c3k1s2d-8c3k1sbn+2-8c3k1s-8c3k1spn-f1",
        8,
        8,
    ),
];

const STEPS: usize = 3;

fn build(gen: &str, disc: &str, extent: usize, noise: usize) -> Gan {
    let mut rng = StdRng::seed_from_u64(5);
    let g = build_trainable_with(
        &parse_network("g", gen, 2, extent).unwrap(),
        true,
        false,
        &mut rng,
    );
    let d = build_trainable_with(
        &parse_network("d", disc, 2, extent).unwrap(),
        false,
        false,
        &mut rng,
    );
    Gan::new(g, d, noise, 0.01, 6).with_optimizer(UpdateRule::dcgan_adam(0.01))
}

fn assert_zero(states: &[LayerState], at: &str) {
    for (li, state) in states.iter().enumerate() {
        for (key, t) in state.entries() {
            assert!(
                t.data().iter().all(|&v| v == 0.0),
                "{at}: layer {li} {key} holds a gradient"
            );
        }
    }
}

fn samples(extent: usize, n: usize, rng: &mut StdRng) -> Vec<Tensor> {
    (0..n)
        .map(|_| {
            let pixels = (0..extent * extent)
                .map(|_| rng.gen::<f32>() * 2.0 - 1.0)
                .collect();
            Tensor::from_vec(&[1, extent, extent], pixels)
        })
        .collect()
}

#[test]
fn both_stacks_hold_no_gradients_after_every_step() {
    for (name, gen, disc, extent, noise) in SUITE {
        let mut one = build(gen, disc, extent, noise);
        let mut eight = build(gen, disc, extent, noise);
        let mut data = StdRng::seed_from_u64(0xB0);
        for step in 0..STEPS {
            one.train_step(&samples(extent, 1, &mut data));
            let at = format!("{name} B=1 step {step}");
            assert_zero(&one.generator.capture_grads(), &format!("{at} generator"));
            assert_zero(
                &one.discriminator.capture_grads(),
                &format!("{at} discriminator"),
            );

            let batch = pack_batch(&samples(extent, 8, &mut data));
            eight.train_step_batched(&batch).unwrap();
            let at = format!("{name} B=8 step {step}");
            assert_zero(&eight.generator.capture_grads(), &format!("{at} generator"));
            assert_zero(
                &eight.discriminator.capture_grads(),
                &format!("{at} discriminator"),
            );
        }
    }
}

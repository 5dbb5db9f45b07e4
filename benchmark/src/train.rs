//! `train_b1` and `train_b8`: closed-loop training rounds over a reduced
//! benchmark-GAN suite. One round is one step of each suite GAN; an item
//! is one real sample.
//!
//! The traced pass replays a step's dataflow through the public
//! `Sequential` calls (`forward`/`backward` at B = 1, `forward_batch`/
//! `backward_batch` above it, `apply_update`, `zero_grads`), timing each
//! into its phase, and replays the suite's im2col GEMM shapes from
//! `ir::network_ops` through `lergan_tensor::{gemm, gemm_nt}`.

use crate::{stats, timed, two_threads, Bench, Layers, Round};
use lergan_gan::ir::network_ops;
use lergan_gan::topology::parse_network;
use lergan_gan::train::{
    build_trainable_with, pack_batch, Gan, Sequential, TrainError, UpdateRule,
};
use lergan_gan::{NetworkSpec, Phase};
use lergan_tensor::{gemm, gemm_nt, parallel, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// A reduced benchmark GAN: each mirrors a Table V network's shape mix at
/// a resolution where one step takes about a millisecond (the suite of
/// `crates/bench/src/bin/scaling_sweep.rs`).
struct SuiteGan {
    /// The per-layer metric of this GAN's step share.
    step_metric: &'static str,
    gen: &'static str,
    disc: &'static str,
    extent: usize,
    noise: usize,
}

const SUITE: [SuiteGan; 4] = [
    // The 16 px DCGAN every other harness uses.
    SuiteGan {
        step_metric: "gan.step_share.dcgan16",
        gen: "8f-(8t-4t)(3k2s)-t1",
        disc: "(1c-8c)(3k2s)-f1",
        extent: 16,
        noise: 8,
    },
    // One more upsampling stage: a deeper stack.
    SuiteGan {
        step_metric: "gan.step_share.dcgan32deep",
        gen: "8f-(16t-8t-4t)(3k2s)-t1",
        disc: "(1c-8c-16c)(3k2s)-f1",
        extent: 32,
        noise: 8,
    },
    // Wider channels: GEMMs closer to compute-bound.
    SuiteGan {
        step_metric: "gan.step_share.widegan16",
        gen: "16f-(16t-8t)(3k2s)-t1",
        disc: "(1c-16c)(3k2s)-f1",
        extent: 16,
        noise: 16,
    },
    // Extended grammar: dilated conv, skip edge, batch and pixel norm.
    SuiteGan {
        step_metric: "gan.step_share.extgan8",
        gen: "8f-(4t)(3k2s)-t1",
        disc: "(1c-8c)(3k1s)-8c3k1s2d-8c3k1sbn+2-8c3k1s-8c3k1spn-f1",
        extent: 8,
        noise: 8,
    },
];

/// Distinct real batches per GAN, cycled round by round.
const POOL: usize = 8;
/// Rounds trained during set-up so workspaces and caches are warm.
const WARMUP_ROUNDS: usize = 2;
/// Steps whose loss bits must agree at one and two worker threads.
const DETERMINISM_STEPS: usize = 4;

/// Phases of the replayed step: their share of the round, and their time
/// at two worker threads over one.
const SHARE_METRICS: [&str; 5] = [
    "gan.d_forward_share",
    "gan.d_backward_share",
    "gan.g_forward_share",
    "gan.g_backward_share",
    "gan.update_share",
];
const T2_METRICS: [&str; 5] = [
    "tensor.parallel_t2_over_t1.d_forward",
    "tensor.parallel_t2_over_t1.d_backward",
    "tensor.parallel_t2_over_t1.g_forward",
    "tensor.parallel_t2_over_t1.g_backward",
    "tensor.parallel_t2_over_t1.update",
];
const D_FWD: usize = 0;
const D_BWD: usize = 1;
const G_FWD: usize = 2;
const G_BWD: usize = 3;
const UPDATE: usize = 4;

fn rule() -> UpdateRule {
    UpdateRule::dcgan_adam(0.01)
}

fn specs(g: &SuiteGan) -> Result<(NetworkSpec, NetworkSpec), String> {
    let gen = parse_network("g", g.gen, 2, g.extent).map_err(|e| e.to_string())?;
    let disc = parse_network("d", g.disc, 2, g.extent).map_err(|e| e.to_string())?;
    Ok((gen, disc))
}

fn build_gan(g: &SuiteGan, seed: u64) -> Result<Gan, String> {
    let (gen, disc) = specs(g)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let generator = build_trainable_with(&gen, true, false, &mut rng);
    let discriminator = build_trainable_with(&disc, false, false, &mut rng);
    Ok(Gan::new(
        generator,
        discriminator,
        g.noise,
        0.01,
        seed.wrapping_add(1),
    )
    .with_optimizer(rule()))
}

/// One real batch in both layouts: the samples for `train_step` and the
/// packed `[B, 1, e, e]` tensor for `train_step_batched`.
struct Batch {
    samples: Vec<Tensor>,
    packed: Tensor,
}

fn batches(g: &SuiteGan, batch: usize, seed: u64) -> Vec<Batch> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..POOL)
        .map(|_| {
            let samples: Vec<Tensor> = (0..batch)
                .map(|_| {
                    let pixels = (0..g.extent * g.extent)
                        .map(|_| rng.gen::<f32>() * 2.0 - 1.0)
                        .collect();
                    Tensor::from_vec(&[1, g.extent, g.extent], pixels)
                })
                .collect();
            let packed = pack_batch(&samples);
            Batch { samples, packed }
        })
        .collect()
}

/// Per-GAN seed derived from the run seed.
fn gan_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i as u64)
}

/// One train step at batch size `b`: the per-sample trainer at 1, the
/// batched trainer above.
fn step(gan: &mut Gan, batch: &Batch, b: usize) -> Result<(f32, f32), TrainError> {
    let stats = if b == 1 {
        gan.train_step(&batch.samples)
    } else {
        gan.train_step_batched(&batch.packed)?
    };
    Ok((stats.d_loss, stats.g_loss))
}

/// The suite at one batch size.
pub struct Suite {
    gans: Vec<Gan>,
    batches: Vec<Vec<Batch>>,
    batch: usize,
    seed: u64,
    round: usize,
}

impl Suite {
    pub fn setup(seed: u64, batch: usize) -> Result<Suite, String> {
        let mut suite = Suite {
            gans: Vec::new(),
            batches: Vec::new(),
            batch,
            seed,
            round: 0,
        };
        for (i, g) in SUITE.iter().enumerate() {
            suite.gans.push(build_gan(g, gan_seed(seed, i))?);
            suite
                .batches
                .push(batches(g, batch, gan_seed(seed, i) ^ 0xBA7C));
        }
        for _ in 0..WARMUP_ROUNDS {
            if suite.round().failed > 0 {
                return Err("warm-up step failed".into());
            }
        }
        Ok(suite)
    }

    /// Loss bits of the first steps of freshly built GANs at `threads`.
    fn loss_trace(&self, threads: usize) -> Result<Vec<(u32, u32)>, String> {
        parallel::with_threads(threads, || {
            let mut bits = Vec::new();
            for (i, g) in SUITE.iter().enumerate() {
                let mut gan = build_gan(g, gan_seed(self.seed, i))?;
                for batch in &self.batches[i][..DETERMINISM_STEPS] {
                    let (d, g) = step(&mut gan, batch, self.batch).map_err(|e| e.to_string())?;
                    bits.push((d.to_bits(), g.to_bits()));
                }
            }
            Ok(bits)
        })
    }

    /// The batch index of the next round.
    fn next_batch(&mut self) -> usize {
        self.round += 1;
        (self.round - 1) % POOL
    }

    /// Replays one round's dataflow on batch `k`, adding each phase's
    /// time to `spans`; returns the steps that failed.
    fn replay_round(&mut self, k: usize, rng: &mut StdRng, spans: &mut [f64; 5]) -> u64 {
        let mut failed = 0;
        for (i, gan) in self.gans.iter_mut().enumerate() {
            let batch = &self.batches[i][k];
            if replay_step(gan, batch, self.batch, SUITE[i].noise, rng, spans).is_err() {
                failed += 1;
            }
        }
        failed
    }
}

impl Bench for Suite {
    fn round(&mut self) -> Round {
        let k = self.next_batch();
        let mut failed = 0;
        for (gan, batches) in self.gans.iter_mut().zip(&self.batches) {
            match step(gan, &batches[k], self.batch) {
                Ok((d, g)) if d.is_finite() && g.is_finite() => {}
                _ => failed += 1,
            }
        }
        Round {
            items: (SUITE.len() * self.batch) as u64,
            ops: SUITE.len() as u64,
            failed,
        }
    }

    fn check(&mut self) -> u64 {
        match (self.loss_trace(1), self.loss_trace(two_threads())) {
            (Ok(one), Ok(two)) if one == two => 0,
            (Ok(_), Ok(_)) => {
                eprintln!(
                    "train: loss bits differ between 1 and {} threads",
                    two_threads()
                );
                1
            }
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("train: determinism check failed: {e}");
                1
            }
        }
    }

    /// Every iteration replays one round's dataflow at one and at two
    /// worker threads, runs the bare steps, and replays the GEMM set, so
    /// each ratio compares numbers taken in the same seconds: the host's
    /// speed drifts too much for a denominator timed earlier.
    fn trace(&mut self, seconds: f64) -> Layers {
        let b = self.batch;
        let mut layers = Layers::default();
        let gemms = match GemmReplay::new(b) {
            Ok(g) => g,
            Err(e) => {
                eprintln!("train: GEMM replay failed: {e}");
                layers.failed += 1;
                return layers;
            }
        };
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x7ACE);
        let (mut phases, mut phases2): (Vec<[f64; 5]>, Vec<[f64; 5]>) = (Vec::new(), Vec::new());
        let mut steps: Vec<Vec<f64>> = vec![Vec::new(); SUITE.len()];
        let mut batched_b1: Vec<Vec<f64>> = vec![Vec::new(); SUITE.len()];
        let mut gemm_s = Vec::new();
        let until = Instant::now();
        while phases.is_empty() || until.elapsed().as_secs_f64() < seconds {
            let k = self.next_batch();
            let mut spans = [0.0; 5];
            layers.failed += self.replay_round(k, &mut rng, &mut spans);
            phases.push(spans);
            let mut spans = [0.0; 5];
            layers.failed += parallel::with_threads(two_threads(), || {
                self.replay_round(k, &mut rng, &mut spans)
            });
            phases2.push(spans);
            for (i, gan) in self.gans.iter_mut().enumerate() {
                let batch = &self.batches[i][k];
                let mut t = 0.0;
                if timed(&mut t, || step(gan, batch, b)).is_err() {
                    layers.failed += 1;
                }
                steps[i].push(t);
                if b == 1 {
                    let mut t = 0.0;
                    if timed(&mut t, || gan.train_step_batched(&batch.packed)).is_err() {
                        layers.failed += 1;
                    }
                    batched_b1[i].push(t);
                }
            }
            let mut t = 0.0;
            timed(&mut t, || gemms.run());
            gemm_s.push(t);
        }

        // The bare round: one untraced step of every suite GAN.
        let step_medians: Vec<f64> = steps.iter().map(|t| stats::median(t)).collect();
        let round: f64 = step_medians.iter().sum();
        let phase_medians = stats::column_medians(&phases);
        for (name, m) in SHARE_METRICS.into_iter().zip(phase_medians) {
            layers.values.push((name, m / round));
        }
        layers
            .values
            .push(("trace.coverage", phase_medians.iter().sum::<f64>() / round));
        for (g, m) in SUITE.iter().zip(&step_medians) {
            layers.values.push((g.step_metric, m / round));
        }
        if b == 1 {
            let batched: f64 = batched_b1.iter().map(|t| stats::median(t)).sum();
            layers
                .values
                .push(("gan.batched_b1_over_per_sample", batched / round));
        }
        let gemm = stats::median(&gemm_s);
        layers.values.extend([
            ("tensor.gemm_share", gemm / round),
            ("tensor.gemm_calls", gemms.ops.len() as f64),
            ("tensor.gemm_gflops", gemms.flops / gemm / 1e9),
        ]);
        for (name, (t2, t1)) in T2_METRICS.into_iter().zip(
            stats::column_medians(&phases2)
                .into_iter()
                .zip(phase_medians),
        ) {
            layers.values.push((name, t2 / t1));
        }
        layers
    }
}

fn forward(
    net: &mut Sequential,
    x: &Tensor,
    b: usize,
    slot: &mut f64,
) -> Result<Tensor, TrainError> {
    timed(slot, || {
        if b == 1 {
            Ok(net.forward(x))
        } else {
            net.forward_batch(x, b)
        }
    })
}

fn backward(
    net: &mut Sequential,
    g: &Tensor,
    b: usize,
    slot: &mut f64,
) -> Result<Tensor, TrainError> {
    timed(slot, || {
        if b == 1 {
            Ok(net.backward(g))
        } else {
            net.backward_batch(g, b)
        }
    })
}

/// Noise for `b` samples in the layout the passes expect.
fn noise(rng: &mut StdRng, dim: usize, b: usize) -> Tensor {
    let values = (0..b * dim).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect();
    if b == 1 {
        Tensor::from_vec(&[dim], values)
    } else {
        Tensor::from_vec(&[b, dim], values)
    }
}

/// Loss-gradient seeds `(sigmoid(logit) - target) / b` of a logit batch.
fn seeds(logits: &Tensor, target: f32, b: usize) -> Tensor {
    let values = logits
        .data()
        .iter()
        .map(|&l| (1.0 / (1.0 + (-l).exp()) - target) / b as f32)
        .collect();
    if b == 1 {
        Tensor::from_vec(&[1], values)
    } else {
        Tensor::from_vec(&[b, 1], values)
    }
}

/// One training step's dataflow (train D on real and fake, then G through
/// the frozen D), each public `Sequential` call timed into its phase.
fn replay_step(
    gan: &mut Gan,
    batch: &Batch,
    b: usize,
    noise_dim: usize,
    rng: &mut StdRng,
    spans: &mut [f64; 5],
) -> Result<(), TrainError> {
    let reals = if b == 1 {
        &batch.samples[0]
    } else {
        &batch.packed
    };
    let step = gan.step() + 1;
    let (g, d) = (&mut gan.generator, &mut gan.discriminator);

    let logits = forward(d, reals, b, &mut spans[D_FWD])?;
    let grad = seeds(&logits, 1.0, b);
    d.recycle(logits);
    let din = backward(d, &grad, b, &mut spans[D_BWD])?;
    d.recycle(din);
    let fakes = forward(g, &noise(rng, noise_dim, b), b, &mut spans[G_FWD])?;
    let logits = forward(d, &fakes, b, &mut spans[D_FWD])?;
    g.recycle(fakes);
    let grad = seeds(&logits, 0.0, b);
    d.recycle(logits);
    let din = backward(d, &grad, b, &mut spans[D_BWD])?;
    d.recycle(din);
    timed(&mut spans[UPDATE], || {
        d.apply_update(&rule(), step);
        g.zero_grads();
    });

    let fakes = forward(g, &noise(rng, noise_dim, b), b, &mut spans[G_FWD])?;
    let logits = forward(d, &fakes, b, &mut spans[D_FWD])?;
    g.recycle(fakes);
    let grad = seeds(&logits, 1.0, b);
    d.recycle(logits);
    let d_input_grad = backward(d, &grad, b, &mut spans[D_BWD])?;
    let g_input_grad = backward(g, &d_input_grad, b, &mut spans[G_BWD])?;
    d.recycle(d_input_grad);
    g.recycle(g_input_grad);
    timed(&mut spans[UPDATE], || {
        g.apply_update(&rule(), step);
        d.zero_grads();
    });
    Ok(())
}

/// Operands of one replayed GEMM; `nt` marks a ∇weight op, run through
/// `gemm_nt`.
struct GemmOp {
    a: Tensor,
    b: Tensor,
    nt: bool,
}

/// Every forward, input-grad and ∇weight GEMM shape `ir::network_ops`
/// gives for the suite, with m scaled by the batch, and its flop count.
struct GemmReplay {
    ops: Vec<GemmOp>,
    flops: f64,
}

impl GemmReplay {
    fn new(batch: usize) -> Result<GemmReplay, String> {
        let mut replay = GemmReplay {
            ops: Vec::new(),
            flops: 0.0,
        };
        for g in &SUITE {
            let (gen, disc) = specs(g)?;
            for phase in Phase::ALL {
                let net = if phase.is_generator_phase() {
                    &gen
                } else {
                    &disc
                };
                for op in network_ops(net, phase) {
                    let dim = |x: u128| {
                        usize::try_from(x).map_err(|_| format!("GEMM dimension {x} overflows"))
                    };
                    let (m, k, n) = (dim(op.gemm.m)? * batch, dim(op.gemm.k)?, dim(op.gemm.n)?);
                    replay.flops += 2.0 * (m * k * n) as f64;
                    let nt = phase.is_weight_grad();
                    let b_shape = if nt { [n, k] } else { [k, n] };
                    replay.ops.push(GemmOp {
                        a: Tensor::filled(&[m, k], 0.5),
                        b: Tensor::filled(&b_shape, 0.25),
                        nt,
                    });
                }
            }
        }
        Ok(replay)
    }

    /// One call per op, in suite and phase order.
    fn run(&self) {
        for op in &self.ops {
            black_box(if op.nt {
                gemm_nt(&op.a, &op.b)
            } else {
                gemm(&op.a, &op.b)
            });
        }
    }
}

//! Criterion benches for the functional training substrate: full GAN
//! steps, batch normalisation, and the quantised/sliced hardware data
//! path.

use criterion::{criterion_group, criterion_main, Criterion};
use lergan_gan::topology::parse_network;
use lergan_gan::train::{build_trainable_with, BatchNorm, Gan, Grads, TrainableLayer, UpdateRule};
use lergan_reram::bitslice::sliced_dot;
use lergan_reram::ReramConfig;
use lergan_tensor::quant::{quantized_mmv, FixedPoint};
use lergan_tensor::{Tensor, Workspace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_train_step(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let gen_spec = parse_network("g", "8f-(8t-4t)(3k2s)-t1", 2, 16).unwrap();
    let disc_spec = parse_network("d", "(1c-8c)(3k2s)-f1", 2, 16).unwrap();
    let g = build_trainable_with(&gen_spec, true, false, &mut rng);
    let d = build_trainable_with(&disc_spec, false, false, &mut rng);
    let mut gan = Gan::new(g, d, 8, 0.01, 2).with_optimizer(UpdateRule::dcgan_adam(0.01));
    let reals: Vec<Tensor> = (0..2).map(|_| Tensor::filled(&[1, 16, 16], 0.5)).collect();
    c.bench_function("gan_train_step_16px", |b| {
        b.iter(|| gan.train_step(black_box(&reals)))
    });
}

fn bench_batchnorm(c: &mut Criterion) {
    let mut ws = Workspace::new();
    let mut bn = BatchNorm::new(16);
    let input = Tensor::from_fn(&[1, 16, 16, 16], |i| (i[1] + i[2] * i[3]) as f32 * 0.01);
    c.bench_function("batchnorm_forward_16x16x16", |b| {
        b.iter(|| {
            let out = bn.forward_batch(black_box(&input), 1, &mut ws).unwrap();
            ws.give_tensor(out);
        })
    });
    let _ = bn.forward_batch(&input, 1, &mut ws).unwrap();
    let grad = Tensor::ones(&[1, 16, 16, 16]);
    c.bench_function("batchnorm_backward_16x16x16", |b| {
        b.iter(|| {
            let din = bn
                .backward_batch(black_box(&grad), 1, Grads::All, &mut ws)
                .unwrap()
                .unwrap();
            ws.give_tensor(din);
        })
    });
}

fn bench_quantized_path(c: &mut Criterion) {
    let q = FixedPoint::paper_default();
    let m = Tensor::from_fn(&[32, 128], |i| ((i[0] * 128 + i[1]) as f32).sin() * 0.4);
    let v = Tensor::from_fn(&[128], |i| ((i[0]) as f32).cos() * 0.4);
    let mc = q.quantize_tensor(&m);
    let vc = q.quantize_tensor(&v);
    c.bench_function("quantized_mmv_32x128", |b| {
        b.iter(|| quantized_mmv(black_box(&mc), 32, 128, black_box(&vc)))
    });
    let cfg = ReramConfig::default();
    let w: Vec<i32> = mc[..128].to_vec();
    c.bench_function("sliced_dot_128", |b| {
        b.iter(|| sliced_dot(black_box(&w), black_box(&vc), &cfg))
    });
}

criterion_group!(
    benches,
    bench_train_step,
    bench_batchnorm,
    bench_quantized_path
);
criterion_main!(benches);

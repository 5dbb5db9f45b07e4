//! Batch-parallel training scaling sweep, written to `BENCH_scaling.json`.
//!
//! Measures what fusing a batch buys: one `train_step_batched` call over
//! a packed batch of B samples against B one-sample `train_step` calls
//! (`sequential_8x_b1`). Both run the trainer's single batched path — a
//! one-sample step is a batch of one — so the ratio isolates what a batch
//! shares: each dense layer's B matrix-vector products become one GEMM,
//! per-layer overheads are paid once per pass, and the optimiser apply
//! once instead of B times (conv layers run one GEMM per sample either
//! way, since bit-identity pins each sample's chains). Timed on the reduced
//! 16 px DCGAN (the acceptance workload) and on a suite of reduced
//! benchmark-GAN topologies spanning the op-graph grammar (deeper 32 px
//! stacks, wide channels, dilated convs + skip edges + norm variants),
//! with the geomean speedup recorded beside the per-GAN entries.
//!
//! The two sides of each ratio are timed in alternating windows, and the
//! ratio is the median of the per-window-pair ratios: a slow period of a
//! shared host stretches both windows of a pair alike, where timing each
//! side on its own would fold it into one side only.
//!
//! Strong scaling of the batched step is recorded at `LERGAN_THREADS`
//! ∈ {1, 2, 8}; on a single-core host the thread-scaling keys carry the
//! `skipped_single_core` marker *with* the 1-thread measurement, the
//! same convention as `perf_snapshot`.
//!
//! Before writing, the tool self-asserts the batched path's byte
//! determinism: a fixed-seed batched training trajectory (loss bits per
//! step) is replayed at 1, 2 and 8 worker threads and across two runs,
//! and all five traces must agree bit-for-bit. The `determinism` section
//! of the JSON depends only on those trajectories, so CI can diff it
//! across `LERGAN_THREADS` settings.
//!
//! Usage: `scaling_sweep [output.json]` (default `BENCH_scaling.json`).

use lergan_gan::topology::parse_network;
use lergan_gan::train::{build_trainable_with, pack_batch, Gan, UpdateRule};
use lergan_tensor::{parallel, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Batch size of the batched step and the length of the sequential run
/// it is compared against.
const BATCH: usize = 8;

/// A reduced benchmark-GAN topology: full Table V networks would take
/// seconds per step, so each entry mirrors a benchmark GAN's *shape mix*
/// (stage count, channel growth, op grammar) at bench resolution —
/// exactly the reduction `perf_snapshot` applies to its GEMM sweep.
struct BenchGan {
    name: &'static str,
    gen: &'static str,
    disc: &'static str,
    extent: usize,
}

const BENCH_GANS: &[BenchGan] = &[
    // The acceptance workload: the 16 px DCGAN every other harness uses.
    BenchGan {
        name: "dcgan16",
        gen: "8f-(8t-4t)(3k2s)-t1",
        disc: "(1c-8c)(3k2s)-f1",
        extent: 16,
    },
    // One more upsampling stage: deeper stacks amortise the batched
    // im2col differently than shallow ones.
    BenchGan {
        name: "dcgan32deep",
        gen: "8f-(16t-8t-4t)(3k2s)-t1",
        disc: "(1c-8c-16c)(3k2s)-f1",
        extent: 32,
    },
    // Wider channels shift the GEMMs toward the compute-bound regime.
    BenchGan {
        name: "widegan16",
        gen: "16f-(16t-8t)(3k2s)-t1",
        disc: "(1c-16c)(3k2s)-f1",
        extent: 16,
    },
    // Extended grammar: dilated conv, skip edge, batch-norm and
    // pixel-norm tags in the discriminator.
    BenchGan {
        name: "extgan8",
        gen: "8f-(4t)(3k2s)-t1",
        disc: "(1c-8c)(3k1s)-8c3k1s2d-8c3k1sbn+2-8c3k1s-8c3k1spn-f1",
        extent: 8,
    },
];

/// Nanoseconds per iteration: warmup, calibration to a ~70 ms window,
/// then the minimum over two more windows (preemption only ever
/// inflates a window, so the min is the stable estimator on a busy
/// 1-core host).
fn time_ns(mut f: impl FnMut()) -> f64 {
    f();
    let window = Duration::from_millis(70);
    let mut iters: u64 = 1;
    let (mut best, iters) = loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed();
        let per = (elapsed.as_nanos() as f64 / iters as f64).max(1.0);
        if elapsed >= window || iters >= 1_000_000 {
            break (per, iters);
        }
        iters = ((7.0e7 / per).ceil() as u64).clamp(iters * 2, 1_000_000);
    };
    for _ in 0..2 {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let per = (start.elapsed().as_nanos() as f64 / iters as f64).max(1.0);
        best = best.min(per);
    }
    best
}

/// Alternating windows per ratio (an odd count, so the median is one
/// window pair's ratio).
const PAIRS: usize = 15;

/// Times `a` and `b` in `PAIRS` alternating ~35 ms windows (the order
/// flips every pair, so a drifting host speed favours neither side).
/// Returns the minimum ns/iter of each side and the median of the
/// per-pair ratios `a / b`.
fn time_pair_ns(mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64, f64) {
    let iters_for = |f: &mut dyn FnMut()| {
        f();
        let start = Instant::now();
        f();
        let per = start.elapsed().as_nanos().max(1) as f64;
        ((3.5e7 / per).ceil() as u64).clamp(1, 1_000_000)
    };
    let (ia, ib) = (iters_for(&mut a), iters_for(&mut b));
    let window = |f: &mut dyn FnMut(), iters: u64| {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        (start.elapsed().as_nanos() as f64 / iters as f64).max(1.0)
    };
    let (mut best_a, mut best_b) = (f64::MAX, f64::MAX);
    let mut ratios = Vec::with_capacity(PAIRS);
    for pair in 0..PAIRS {
        let (ta, tb) = if pair % 2 == 0 {
            let ta = window(&mut a, ia);
            (ta, window(&mut b, ib))
        } else {
            let tb = window(&mut b, ib);
            (window(&mut a, ia), tb)
        };
        best_a = best_a.min(ta);
        best_b = best_b.min(tb);
        ratios.push(ta / tb);
    }
    ratios.sort_by(f64::total_cmp);
    (best_a, best_b, ratios[PAIRS / 2])
}

fn build_gan(bg: &BenchGan, seed: u64) -> Gan {
    let g_spec = parse_network("g", bg.gen, 2, bg.extent).unwrap();
    let d_spec = parse_network("d", bg.disc, 2, bg.extent).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let g = build_trainable_with(&g_spec, true, false, &mut rng);
    let d = build_trainable_with(&d_spec, false, false, &mut rng);
    let noise = bg.gen.split('f').next().unwrap().parse().unwrap();
    Gan::new(g, d, noise, 0.01, seed.wrapping_add(1)).with_optimizer(UpdateRule::dcgan_adam(0.01))
}

fn real_sample(bg: &BenchGan, i: usize) -> Tensor {
    Tensor::filled(&[1, bg.extent, bg.extent], 0.4 + 0.02 * i as f32)
}

/// The fixed-seed batched trajectory: loss bits of `steps` batched steps
/// on deterministic data, as hex `d:g` pairs. Depends only on f32
/// arithmetic, so it must replay bit-identically at any worker count.
fn batched_loss_trace(steps: usize) -> Vec<String> {
    let bg = &BENCH_GANS[0];
    let mut gan = build_gan(bg, 41);
    let reals = pack_batch(&(0..BATCH).map(|i| real_sample(bg, i)).collect::<Vec<_>>());
    (0..steps)
        .map(|_| {
            let stats = gan.train_step_batched(&reals).expect("well-formed batch");
            format!("{:08x}:{:08x}", stats.d_loss.to_bits(), stats.g_loss.to_bits())
        })
        .collect()
}

struct Entry {
    name: String,
    threads: usize,
    ns: f64,
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_scaling.json".to_string());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = parallel::current_threads();

    // ---- Determinism self-asserts, before any timing. ----
    let trace = |t: usize| parallel::with_threads(t, || batched_loss_trace(4));
    let reference = trace(1);
    assert_eq!(reference, trace(1), "batched trajectory must replay across runs");
    for t in [2usize, 8] {
        assert_eq!(
            reference,
            trace(t),
            "batched trajectory diverged at {t} worker threads"
        );
    }

    let mut entries: Vec<Entry> = Vec::new();
    let mut record = |name: &str, t: usize, ns: f64| {
        println!("{name:40} threads={t}  {ns:>12.0} ns/iter");
        entries.push(Entry {
            name: name.to_string(),
            threads: t,
            ns,
        });
    };

    // ---- Batched vs sequential, per benchmark GAN, 1 thread. ----
    let mut ratios: Vec<(String, f64)> = Vec::new();
    for bg in BENCH_GANS {
        let singles: Vec<Vec<Tensor>> = (0..BATCH).map(|i| vec![real_sample(bg, i)]).collect();
        let packed = pack_batch(&(0..BATCH).map(|i| real_sample(bg, i)).collect::<Vec<_>>());

        let mut seq_gan = build_gan(bg, 7);
        let mut bat_gan = build_gan(bg, 7);
        let (seq_ns, bat_ns, ratio) = parallel::with_threads(1, || {
            time_pair_ns(
                || {
                    for reals in &singles {
                        black_box(seq_gan.train_step(black_box(reals)));
                    }
                },
                || {
                    black_box(bat_gan.train_step_batched(black_box(&packed)).unwrap());
                },
            )
        });
        record(&format!("scaling_{}/sequential_8x_b1", bg.name), 1, seq_ns);
        record(&format!("scaling_{}/batched_b8", bg.name), 1, bat_ns);
        ratios.push((bg.name.to_string(), ratio));
    }
    let speedup_16px = ratios
        .iter()
        .find(|(n, _)| n == "dcgan16")
        .map_or(0.0, |(_, r)| *r);
    let geomean = if ratios.is_empty() {
        0.0
    } else {
        (ratios.iter().map(|(_, r)| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
    };

    // ---- Strong scaling of the batched step at 1/2/8 workers. ----
    let bg = &BENCH_GANS[0];
    let packed = pack_batch(&(0..BATCH).map(|i| real_sample(bg, i)).collect::<Vec<_>>());
    let mut scale_ns = Vec::new();
    for t in [1usize, 2, 8] {
        let mut gan = build_gan(bg, 9);
        let ns = parallel::with_threads(t, || {
            time_ns(|| {
                black_box(gan.train_step_batched(black_box(&packed)).unwrap());
            })
        });
        record(&format!("scaling_{}/batched_b8_strong", bg.name), t, ns);
        scale_ns.push(ns);
    }
    // Thread speedups are meaningless when the host has one core (the
    // workers timeshare it): carry the marker plus the 1-thread number,
    // the same convention perf_snapshot uses.
    let strong = |idx: usize| {
        if cores == 1 {
            format!(
                "{{ \"marker\": \"skipped_single_core\", \"one_thread_ns\": {:.0} }}",
                scale_ns[0]
            )
        } else {
            format!("{:.2}", scale_ns[0] / scale_ns[idx].max(1.0))
        }
    };
    let (strong_t2, strong_t8) = (strong(1), strong(2));

    // ---- JSON. ----
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"host\": {{ \"cores\": {cores}, \"configured_threads\": {threads}, \"batch\": {BATCH} }},\n"
    ));
    json.push_str("  \"results\": [\n");
    for (i, e) in entries.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"name\": \"{}\", \"threads\": {}, \"ns_per_iter\": {:.0} }}{}\n",
            e.name,
            e.threads,
            e.ns,
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"speedups\": {\n");
    json.push_str(&format!(
        "    \"batched_b8_vs_8x_b1_16px\": {speedup_16px:.2},\n"
    ));
    for (name, r) in &ratios {
        json.push_str(&format!("    \"batched_b8_vs_8x_b1_{name}\": {r:.2},\n"));
    }
    json.push_str(&format!(
        "    \"batched_geomean_benchmarks\": {geomean:.2},\n    \"strong_scaling_t2\": {strong_t2},\n    \"strong_scaling_t8\": {strong_t8}\n  }},\n"
    ));
    json.push_str("  \"determinism\": {\n    \"threads_checked\": [1, 2, 8],\n    \"thread_invariant\": true,\n    \"loss_trace_bits\": [\n");
    for (i, step) in reference.iter().enumerate() {
        json.push_str(&format!(
            "      \"{step}\"{}\n",
            if i + 1 < reference.len() { "," } else { "" }
        ));
    }
    json.push_str("    ]\n  }\n}\n");
    std::fs::write(&out_path, &json).expect("write scaling sweep");

    println!("\nbatched B=8 vs 8x B=1 (16 px DCGAN, 1 thread): {speedup_16px:.2}x");
    println!("geomean over {} benchmark GANs:               {geomean:.2}x", ratios.len());
    println!("strong scaling t2: {strong_t2}   t8: {strong_t8}");
    println!("wrote {out_path}");
}

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
//! The two sides of each ratio are timed in alternating windows
//! ([`lergan_bench::harness::time_pair`]), and the ratio is the median of
//! the per-window-pair ratios, recorded next to their interquartile range
//! (`<key>_iqr`). Every results row carries the minimum (`ns_per_iter`),
//! median and interquartile range of its windows.
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

use lergan_bench::harness::{host_cores, thread_speedup_json, time, time_pair, Results};
use lergan_gan::topology::parse_network;
use lergan_gan::train::{build_trainable_with, pack_batch, Gan, UpdateRule};
use lergan_tensor::{parallel, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Duration;

/// Batch size of the batched step and the length of the sequential run
/// it is compared against.
const BATCH: usize = 8;

/// Measurement window of the strong-scaling timings; each side of an
/// alternating pair gets half of it.
const WINDOW: Duration = Duration::from_millis(70);

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

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_scaling.json".to_string());
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

    let mut results = Results::default();

    // ---- Batched vs sequential, per benchmark GAN, 1 thread. ----
    let mut ratios: Vec<(String, f64, f64)> = Vec::new();
    for bg in BENCH_GANS {
        let singles: Vec<Vec<Tensor>> = (0..BATCH).map(|i| vec![real_sample(bg, i)]).collect();
        let packed = pack_batch(&(0..BATCH).map(|i| real_sample(bg, i)).collect::<Vec<_>>());

        let mut seq_gan = build_gan(bg, 7);
        let mut bat_gan = build_gan(bg, 7);
        let pair = parallel::with_threads(1, || {
            time_pair(
                WINDOW / 2,
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
        results.record(&format!("scaling_{}/sequential_8x_b1", bg.name), 1, pair.a);
        results.record(&format!("scaling_{}/batched_b8", bg.name), 1, pair.b);
        ratios.push((bg.name.to_string(), pair.ratio, pair.ratio_iqr));
    }
    let (_, speedup_16px, iqr_16px) = ratios
        .iter()
        .find(|(n, _, _)| n == "dcgan16")
        .cloned()
        .expect("the dcgan16 workload is timed");
    let geomean =
        (ratios.iter().map(|(_, r, _)| r.ln()).sum::<f64>() / ratios.len() as f64).exp();

    // ---- Strong scaling of the batched step at 1/2/8 workers. ----
    let bg = &BENCH_GANS[0];
    let packed = pack_batch(&(0..BATCH).map(|i| real_sample(bg, i)).collect::<Vec<_>>());
    let strong_name = format!("scaling_{}/batched_b8_strong", bg.name);
    for t in [1usize, 2, 8] {
        let mut gan = build_gan(bg, 9);
        let timing = parallel::with_threads(t, || {
            time(WINDOW, || {
                black_box(gan.train_step_batched(black_box(&packed)).unwrap());
            })
        });
        results.record(&strong_name, t, timing);
    }
    let strong = |t: usize| {
        thread_speedup_json(
            results.get(&strong_name, 1).min_ns,
            results.get(&strong_name, t).min_ns,
            t,
        )
    };
    let (strong_t2, strong_t8) = (strong(2), strong(8));

    // ---- JSON. ----
    let cores = host_cores();
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"host\": {{ \"cores\": {cores}, \"configured_threads\": {threads}, \"batch\": {BATCH} }},\n"
    ));
    json.push_str(&results.json());
    json.push_str("  \"speedups\": {\n");
    json.push_str(&format!(
        "    \"batched_b8_vs_8x_b1_16px\": {speedup_16px:.2},\n    \"batched_b8_vs_8x_b1_16px_iqr\": {iqr_16px:.3},\n"
    ));
    for (name, r, iqr) in &ratios {
        json.push_str(&format!(
            "    \"batched_b8_vs_8x_b1_{name}\": {r:.2},\n    \"batched_b8_vs_8x_b1_{name}_iqr\": {iqr:.3},\n"
        ));
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

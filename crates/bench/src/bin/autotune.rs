//! One-shot autotuner for the shape-adaptive GEMM dispatch thresholds.
//!
//! Sweeps every distinct GEMM shape the eight Table V benchmark GANs
//! issue (harvested from the op-graph IR, clamped like `perf_snapshot`),
//! times the three execution strategies — direct, packed (scalar
//! microkernel) and packed+SIMD — on each, for both the `gemm` and
//! `gemm_nt` entry points, then picks the `(max_m, max_kn)` split that
//! minimises total wall-clock across the sweep and writes it to the
//! committed thresholds file `lergan_tensor::dispatch` compiles in.
//!
//! Usage: `autotune [output.json]`
//! (default `crates/tensor/dispatch_thresholds.json`).
//!
//! Strategy choice never affects results — every strategy computes the
//! same accumulation chain, pinned by `tests/gemm_bit_identity.rs` — so
//! re-tuning on a new host changes speed only. Timings run at one worker
//! thread: dispatch must win in the regime CI measures, and the parallel
//! substrate splits rows identically for every strategy anyway.

use lergan_bench::harness::{det, time};
use lergan_gan::benchmarks;
use lergan_gan::ir::OpGraph;
use lergan_tensor::dispatch::{simd_available, with_strategy, ForcedStrategy};
use lergan_tensor::parallel;
use lergan_tensor::tensor::{gemm, gemm_nt};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Duration;

/// Dimension clamp matching `perf_snapshot`'s per-GAN GEMM entries.
const DIM_CAP: usize = 192;

/// Batch size of the batched trainer, whose fused forward GEMMs are the
/// n-multiplied duals of the op-graph shapes.
const TRAIN_BATCH: usize = 8;

/// Clamp for the batched `n = B·positions` axis: wide enough to reach the
/// regime where the right operand far exceeds cache, without letting the
/// sweep degenerate into megabyte products.
const BATCH_N_CAP: usize = 2048;

/// Measurement window per timing: light, since the sweep times every
/// (shape, strategy, entry point) triple.
const WINDOW: Duration = Duration::from_millis(20);

/// Per-shape timings of the three strategies for one entry point.
struct Sample {
    m: usize,
    kn: usize,
    direct_ns: f64,
    packed_best_ns: f64,
}

/// Total predicted time under a `(max_m, max_kn)` rule: direct when
/// `m <= max_m || k·n <= max_kn`, best packed otherwise.
fn rule_cost(samples: &[Sample], max_m: usize, max_kn: usize) -> f64 {
    samples
        .iter()
        .map(|s| {
            if s.m <= max_m || s.kn <= max_kn {
                s.direct_ns
            } else {
                s.packed_best_ns
            }
        })
        .sum()
}

/// Picks the `(max_m, max_kn)` pair minimising [`rule_cost`] over the
/// candidate grid spanned by the observed shape dimensions (plus 0, so
/// "never direct" on an axis is expressible). Deterministic: ties resolve
/// to the smallest thresholds, keeping regenerated files stable.
fn pick_thresholds(samples: &[Sample]) -> (usize, usize) {
    let mut m_cands: BTreeSet<usize> = samples.iter().map(|s| s.m).collect();
    m_cands.insert(0);
    let mut kn_cands: BTreeSet<usize> = samples.iter().map(|s| s.kn).collect();
    kn_cands.insert(0);
    let mut best = (0usize, 0usize);
    let mut best_cost = f64::INFINITY;
    for &mm in &m_cands {
        for &kk in &kn_cands {
            let cost = rule_cost(samples, mm, kk);
            if cost < best_cost - 1e-9 {
                best_cost = cost;
                best = (mm, kk);
            }
        }
    }
    best
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "crates/tensor/dispatch_thresholds.json".to_string());

    // Every distinct (m, k, n) the benchmark op graphs issue, clamped —
    // plus the batched trainer's fused forward duals `(n, k, B·m)`: one
    // GEMM per layer whose row count is the (small) channel count and
    // whose column count is the batch-multiplied position count, the
    // regime where packing the huge right operand cannot amortise over a
    // handful of rows.
    let mut shapes: BTreeSet<(usize, usize, usize)> = BTreeSet::new();
    for spec in benchmarks::all() {
        for op in OpGraph::build(&spec).ops() {
            let clamp = |d: u128| (d as usize).clamp(1, DIM_CAP);
            shapes.insert((clamp(op.gemm.m), clamp(op.gemm.k), clamp(op.gemm.n)));
            let bn = (op.gemm.m as usize)
                .saturating_mul(TRAIN_BATCH)
                .clamp(1, BATCH_N_CAP);
            shapes.insert((clamp(op.gemm.n), clamp(op.gemm.k), bn));
        }
    }
    println!(
        "autotuning over {} benchmark GEMM shapes (SIMD: {})",
        shapes.len(),
        if simd_available() { "avx" } else { "scalar only" }
    );

    let mut gemm_samples = Vec::new();
    let mut gemm_nt_samples = Vec::new();
    for (i, &(m, k, n)) in shapes.iter().enumerate() {
        let seed = i as u32 * 13 + 5;
        let a = det(&[m, k], seed);
        let b = det(&[k, n], seed + 1);
        let bt = det(&[n, k], seed + 2);
        let timed = |forced: ForcedStrategy, nt: bool| {
            parallel::with_threads(1, || {
                with_strategy(forced, || {
                    time(WINDOW, || {
                        if nt {
                            black_box(gemm_nt(black_box(&a), black_box(&bt)));
                        } else {
                            black_box(gemm(black_box(&a), black_box(&b)));
                        }
                    })
                    .min_ns
                })
            })
        };
        for nt in [false, true] {
            let direct_ns = timed(ForcedStrategy::Direct, nt);
            let packed_ns = timed(ForcedStrategy::Packed, nt);
            let simd_ns = if simd_available() {
                timed(ForcedStrategy::Simd, nt)
            } else {
                packed_ns
            };
            let packed_best_ns = packed_ns.min(simd_ns);
            println!(
                "{:7} {m:4}x{k:4}x{n:4}  direct {direct_ns:9.0}  packed {packed_ns:9.0}  simd {simd_ns:9.0}",
                if nt { "gemm_nt" } else { "gemm" }
            );
            let sample = Sample {
                m,
                kn: k * n,
                direct_ns,
                packed_best_ns,
            };
            if nt {
                gemm_nt_samples.push(sample);
            } else {
                gemm_samples.push(sample);
            }
        }
    }

    let (gemm_max_m, gemm_max_kn) = pick_thresholds(&gemm_samples);
    let (nt_max_m, nt_max_kn) = pick_thresholds(&gemm_nt_samples);
    let show = |label: &str, samples: &[Sample], mm: usize, kk: usize| {
        let tuned = rule_cost(samples, mm, kk);
        let all_direct = rule_cost(samples, usize::MAX, 0);
        let all_packed = rule_cost(samples, 0, 0);
        println!(
            "{label}: max_m={mm} max_kn={kk}  sweep {tuned:.0} ns (all-direct {all_direct:.0}, all-packed {all_packed:.0})"
        );
    };
    show("gemm   ", &gemm_samples, gemm_max_m, gemm_max_kn);
    show("gemm_nt", &gemm_nt_samples, nt_max_m, nt_max_kn);

    let json = format!(
        "{{\n  \"version\": 1,\n  \"generated_by\": \"lergan-bench autotune over {} benchmark GEMM shapes\",\n  \"gemm_direct_max_m\": {gemm_max_m},\n  \"gemm_direct_max_kn\": {gemm_max_kn},\n  \"gemm_nt_direct_max_m\": {nt_max_m},\n  \"gemm_nt_direct_max_kn\": {nt_max_kn}\n}}\n",
        shapes.len()
    );
    std::fs::write(&out_path, &json).expect("write thresholds");
    println!("wrote {out_path}");
}

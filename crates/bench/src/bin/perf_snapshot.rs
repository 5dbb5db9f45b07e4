//! Wall-clock performance snapshot of the zero-free conv executor and the
//! training substrate, written to `BENCH_zfdr.json`.
//!
//! Times these workloads with [`lergan_bench::harness::time`]:
//!
//! * T-CONV forward and W-CONV-S weight gradient on the zero-free
//!   `ConvPlan`, as the allocating one-shot call (`batched`) and as the
//!   trainer's per-sample path with plan, workspace and buffers held
//!   across calls (`engine_cached`), against the naive zero-insertion
//!   kernels (`zero_inserted`),
//! * D-CONV dilated convolution: the zero-free plan against the naive
//!   zero-inserted-kernel formulation,
//! * S-CONV through the one-phase plan, and the trainer's hottest conv
//!   (extgan8's 3k1s 8 px D layer) cached, with its input gradient (the
//!   dual plan's forward) and its weight gradient,
//! * the GEMM driver (`driver`) against the pre-packing kernel preserved
//!   in [`lergan_bench::naive`] (`naive`), on the dominant GEMM shape of
//!   every Table V benchmark GAN,
//! * `mmv` on an FC-discriminator-head shape,
//! * one full DCGAN training step on the reduced 16 px networks.
//!
//! Every results row records the minimum (`ns_per_iter`), median and
//! interquartile range of the per-iteration time over the harness's
//! windows. Each conv workload is timed at one worker thread and at the
//! configured thread count (`LERGAN_THREADS` or the host parallelism), so
//! the snapshot records both algorithmic and threading speedups; where
//! the multi-thread run can use only one core, the thread-scaling key
//! becomes the `skipped_single_core` marker (see
//! [`lergan_bench::harness::thread_speedup_json`]). When the output file
//! already exists, its 1-thread `gan_train_step_16px/full` time is read
//! back first and the new snapshot records the ratio as
//! `gan_train_step_vs_previous`.
//!
//! Usage: `perf_snapshot [output.json]` (default `BENCH_zfdr.json`).

use lergan_bench::harness::{det, host_cores, thread_speedup_json, time, Results};
use lergan_bench::naive;
use lergan_gan::benchmarks;
use lergan_gan::ir::OpGraph;
use lergan_gan::topology::parse_network;
use lergan_gan::train::{build_trainable_with, Gan, UpdateRule};
use lergan_tensor::conv::{tconv_forward_zero_insert, wconv_weight_grad_zero_insert};
use lergan_tensor::dconv::dconv_zero_insertion;
use lergan_tensor::im2col::{ConvGeometry, ConvPlan};
use lergan_tensor::tensor::{gemm, mmv};
use lergan_tensor::{parallel, SconvGeometry, TconvGeometry, Tensor, WconvGeometry, Workspace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Duration;

/// Measurement window of every timing.
const WINDOW: Duration = Duration::from_millis(70);

/// Records `f` under `name`, timed at one worker thread and, when more
/// are configured, at `threads`.
fn record_threads(results: &mut Results, name: &str, threads: usize, mut f: impl FnMut()) {
    let counts: &[usize] = if threads == 1 { &[1] } else { &[1, threads] };
    for &t in counts {
        let timing = parallel::with_threads(t, || time(WINDOW, &mut f));
        results.record(name, t, timing);
    }
}

/// The 1-thread `gan_train_step_16px/full` time recorded in a previous
/// snapshot at `path`, if one exists in this tool's output format.
fn previous_train_step_ns(path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    for line in text.lines() {
        if line.contains("\"gan_train_step_16px/full\"") && line.contains("\"threads\": 1") {
            let key = "\"ns_per_iter\": ";
            let start = line.find(key)? + key.len();
            let rest = &line[start..];
            let end = rest
                .find(|c: char| !(c.is_ascii_digit() || c == '.'))
                .unwrap_or(rest.len());
            return rest[..end].parse().ok();
        }
    }
    None
}

/// The trainer's per-sample forward: `plan`, workspace, input frame,
/// output and the gathered phase weights held across calls.
fn cached_forward<'a>(
    plan: &'a ConvPlan,
    input: &'a Tensor,
    weights: &Tensor,
) -> impl FnMut() + 'a {
    let mut ws = Workspace::new();
    let mut frame = vec![0.0; plan.frame_len()];
    let mut out = vec![0.0; plan.output_shape().iter().product()];
    let mut pw = vec![0.0; weights.len()];
    plan.phase_weights_into(weights.data(), &mut pw);
    move || {
        plan.forward_into(black_box(input.data()), &pw, &mut frame, &mut out, &mut ws);
        black_box(&out);
    }
}

/// The trainer's per-sample weight gradient: `plan`, workspace, the frame
/// of `input` its forward built and the gradient buffer held across calls.
fn cached_weight_grad<'a>(
    plan: &'a ConvPlan,
    input: &Tensor,
    dout: &'a Tensor,
) -> impl FnMut() + 'a {
    let mut ws = Workspace::new();
    let mut frame = vec![0.0; plan.frame_len()];
    plan.frame_into(input.data(), &mut frame);
    let mut grad = vec![0.0; plan.weight_shape().iter().product()];
    move || {
        plan.weight_grad_into(black_box(dout.data()), &frame, &mut grad, &mut ws);
        black_box(&grad);
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_zfdr.json".to_string());
    let previous_step_ns = previous_train_step_ns(&out_path);
    let threads = parallel::current_threads();
    let mut results = Results::default();

    // T-CONV at the CONV1 bench geometry (16 in / 8 out channels).
    let geom = TconvGeometry::for_upsampling(4, 5, 2).unwrap();
    let input = det(&[16, 4, 4], 1);
    let weights = det(&[8, 16, 5, 5], 2);
    record_threads(
        &mut results,
        "tconv_conv1_16x8ch/zero_inserted",
        threads,
        || {
            black_box(tconv_forward_zero_insert(
                black_box(&input),
                black_box(&weights),
                &geom,
            ));
        },
    );
    // Plans are built once, outside every timed closure: `batched` times
    // the allocating plan call, `engine_cached` the trainer's buffered one.
    let plan = geom.plan(16, 8);
    record_threads(&mut results, "tconv_conv1_16x8ch/batched", threads, || {
        black_box(plan.forward(black_box(&input), black_box(&weights)));
    });
    record_threads(
        &mut results,
        "tconv_conv1_16x8ch/engine_cached",
        threads,
        cached_forward(&plan, &input, &weights),
    );

    // T-CONV at realistic mid-network channel counts.
    let geom_w = TconvGeometry::for_upsampling(16, 5, 2).unwrap();
    let input_w = det(&[64, 16, 16], 5);
    let weights_w = det(&[32, 64, 5, 5], 6);
    let plan_w = geom_w.plan(64, 32);
    record_threads(
        &mut results,
        "tconv_16to32_64x32ch/batched",
        threads,
        || {
            black_box(plan_w.forward(black_box(&input_w), black_box(&weights_w)));
        },
    );
    record_threads(
        &mut results,
        "tconv_16to32_64x32ch/engine_cached",
        threads,
        cached_forward(&plan_w, &input_w, &weights_w),
    );

    // W-CONV-S weight gradient: the S-CONV plan's ∇W.
    let geom_g = WconvGeometry::new(8, 5, 2, 2).unwrap();
    let input_g = det(&[8, 8, 8], 3);
    let dout_g = det(&[8, 4, 4], 4);
    record_threads(&mut results, "wconv_8x8_8ch/zero_inserted", threads, || {
        black_box(wconv_weight_grad_zero_insert(
            black_box(&input_g),
            black_box(&dout_g),
            &geom_g,
        ));
    });
    let plan_g = geom_g.forward.plan(8, 8);
    record_threads(&mut results, "wconv_8x8_8ch/batched", threads, || {
        black_box(plan_g.weight_grad(black_box(&input_g), black_box(&dout_g)));
    });
    // Cached: the trainer's ∇W step over the frame its forward kept.
    record_threads(
        &mut results,
        "wconv_8x8_8ch/engine_cached",
        threads,
        cached_weight_grad(&plan_g, &input_g, &dout_g),
    );

    // D-CONV: the zero-free plan against the naive formulation that
    // materialises the zero-inserted dilated kernel (the EcoFlow dual of
    // T-CONV's zero-inserted input); both run the same GEMM driver, so
    // the gap is purely the skipped zeros. Geometry mirrors the
    // ResDilatedGAN refiner block: 3x3 kernel at dilation 2 over a 16 px
    // plane, extent-preserving.
    let geom_d = {
        let axis = lergan_tensor::DconvAxis::for_target(16, 3, 1, 2, 16)
            .expect("stride-1 dilated conv keeps the extent");
        lergan_tensor::DconvGeometry::new(axis, axis)
    };
    let input_d = det(&[16, 16, 16], 9);
    let weights_d = det(&[16, 16, 3, 3], 10);
    record_threads(
        &mut results,
        "dconv_16px_16x16ch_d2/zero_inserted",
        threads,
        || {
            black_box(dconv_zero_insertion(
                black_box(&input_d),
                black_box(&weights_d),
                &geom_d,
            ));
        },
    );
    let plan_d = geom_d.plan(16, 16);
    record_threads(
        &mut results,
        "dconv_16px_16x16ch_d2/zero_free",
        threads,
        || {
            black_box(plan_d.forward(black_box(&input_d), black_box(&weights_d)));
        },
    );

    // S-CONV through the one-phase plan (discriminator-style layer).
    let geom_s = SconvGeometry::new(16, 5, 2, 2).unwrap();
    let input_s = det(&[32, 16, 16], 7);
    let weights_s = det(&[32, 32, 5, 5], 8);
    let plan_s = geom_s.plan(32, 32);
    record_threads(
        &mut results,
        "sconv_16px_32x32ch/im2col_gemm",
        threads,
        || {
            black_box(plan_s.forward(black_box(&input_s), black_box(&weights_s)));
        },
    );

    // The trainer's hottest conv: extgan8's 3k1s 8 -> 8 ch, 8 px D layer,
    // forward and input gradient (its dual's forward), as the trainer
    // runs them.
    let plan_h = SconvGeometry::new(8, 3, 1, 1).unwrap().plan(8, 8);
    let dual_h = plan_h.dual();
    let input_h = det(&[8, 8, 8], 11);
    let weights_h = det(&[8, 8, 3, 3], 12);
    let dout_h = det(&[8, 8, 8], 13);
    record_threads(
        &mut results,
        "sconv_3k1s_8px_8x8ch/engine_cached",
        threads,
        cached_forward(&plan_h, &input_h, &weights_h),
    );
    record_threads(
        &mut results,
        "sconv_3k1s_8px_8x8ch/dual_cached",
        threads,
        cached_forward(&dual_h, &dout_h, &weights_h),
    );
    record_threads(
        &mut results,
        "sconv_3k1s_8px_8x8ch/wgrad_cached",
        threads,
        cached_weight_grad(&plan_h, &input_h, &dout_h),
    );

    // The GEMM driver and the pre-packing naive kernel on the dominant
    // (largest-MAC) im2col shape of every Table V benchmark GAN,
    // dimensions clamped so the sweep stays fast while preserving each
    // topology's aspect mix. CI gates on these rows: the driver must stay
    // at or ahead of `naive` on every one of these shapes.
    let mut gemm_ratios: Vec<f64> = Vec::new();
    for spec in benchmarks::all() {
        let Some(shape) = OpGraph::build(&spec)
            .ops()
            .iter()
            .map(|op| op.gemm)
            .max_by_key(|g| g.macs())
        else {
            continue;
        };
        let clamp = |d: u128| (d as usize).clamp(1, 192);
        let (m, k, n) = (clamp(shape.m), clamp(shape.k), clamp(shape.n));
        let a = det(&[m, k], 31);
        let b = det(&[k, n], 32);
        let slug: String = spec
            .name
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '_'
                }
            })
            .collect();
        let name = |kernel: &str| format!("gemm_{slug}_{m}x{k}x{n}/{kernel}");
        let driver = parallel::with_threads(1, || {
            time(WINDOW, || {
                black_box(gemm(black_box(&a), black_box(&b)));
            })
        });
        results.record(&name("driver"), 1, driver);
        let naive_timing = parallel::with_threads(1, || {
            time(WINDOW, || {
                black_box(naive::gemm(black_box(&a), black_box(&b)));
            })
        });
        results.record(&name("naive"), 1, naive_timing);
        gemm_ratios.push(naive_timing.min_ns / driver.min_ns);
    }
    let gemm_geomean = if gemm_ratios.is_empty() {
        1.0
    } else {
        (gemm_ratios.iter().map(|r| r.ln()).sum::<f64>() / gemm_ratios.len() as f64).exp()
    };

    // `mmv` on an FC-discriminator-head shape.
    let mmv_mat = det(&[64, 1024], 33);
    let mmv_vec: Vec<f32> = det(&[1024], 34).data().to_vec();
    let timing = parallel::with_threads(1, || {
        time(WINDOW, || {
            black_box(mmv(black_box(&mmv_mat), black_box(&mmv_vec)));
        })
    });
    results.record("mmv_fc_64x1024/driver", 1, timing);

    // One full DCGAN training step on the reduced 16 px networks.
    let mut rng = StdRng::seed_from_u64(1);
    let gen_spec = parse_network("g", "8f-(8t-4t)(3k2s)-t1", 2, 16).unwrap();
    let disc_spec = parse_network("d", "(1c-8c)(3k2s)-f1", 2, 16).unwrap();
    let g = build_trainable_with(&gen_spec, true, false, &mut rng);
    let d = build_trainable_with(&disc_spec, false, false, &mut rng);
    let mut gan = Gan::new(g, d, 8, 0.01, 2).with_optimizer(UpdateRule::dcgan_adam(0.01));
    let reals: Vec<Tensor> = (0..2).map(|_| Tensor::filled(&[1, 16, 16], 0.5)).collect();
    record_threads(&mut results, "gan_train_step_16px/full", threads, || {
        black_box(gan.train_step(black_box(&reals)));
    });

    let min_ns = |name: &str, t: usize| results.get(name, t).min_ns;
    let batched_conv1 = min_ns("tconv_conv1_16x8ch/batched", 1);
    let tconv_speedup = min_ns("tconv_conv1_16x8ch/zero_inserted", 1) / batched_conv1;
    let thread_scaling_json = thread_speedup_json(
        batched_conv1,
        min_ns("tconv_conv1_16x8ch/batched", threads),
        threads,
    );
    let dconv_speedup = min_ns("dconv_16px_16x16ch_d2/zero_inserted", 1)
        / min_ns("dconv_16px_16x16ch_d2/zero_free", 1);
    let step_vs_previous =
        previous_step_ns.map_or(1.0, |prev| prev / min_ns("gan_train_step_16px/full", 1));

    let cores = host_cores();
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"host\": {{ \"cores\": {cores}, \"configured_threads\": {threads} }},\n"
    ));
    json.push_str(&results.json());
    json.push_str(&format!(
        "  \"speedups\": {{\n    \"tconv_zero_free_vs_naive\": {tconv_speedup:.2},\n    \"tconv_conv1_batched_multi_vs_1thread\": {thread_scaling_json},\n    \"dconv_zero_free_vs_naive\": {dconv_speedup:.2},\n    \"gemm_vs_naive_geomean\": {gemm_geomean:.2},\n    \"gan_train_step_vs_previous\": {step_vs_previous:.2}\n  }}\n"
    ));
    json.push_str("}\n");
    std::fs::write(&out_path, &json).expect("write snapshot");
    println!("\ntconv zero-free vs zero-inserted (CONV1):      {tconv_speedup:.2}x");
    println!("batched {threads} threads vs 1 thread (CONV1):    {thread_scaling_json}");
    println!("dconv zero-free vs zero-inserted (d=2, 16 px):  {dconv_speedup:.2}x");
    println!("GEMM driver vs naive (geomean over Table V):    {gemm_geomean:.2}x");
    println!("train step vs previous snapshot (1 thread):     {step_vs_previous:.2}x");
    println!("wrote {out_path}");
}

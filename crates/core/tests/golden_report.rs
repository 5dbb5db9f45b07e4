//! Golden-value regression: the op-graph refactor must not perturb the
//! reported totals.
//!
//! The bit patterns below are `f64::to_bits` of `iteration_latency_ns` and
//! `total_energy_pj` from `LerGan::builder(&gan).build().train_iterations(1)`
//! under the default configuration (ZFDR, 3D connection, `Low` degree),
//! captured immediately *before* the schedule lowering was extracted into
//! `lergan_core::schedule`. Exact bit equality proves the refactor preserved
//! the task graph and the floating-point accumulation order.

use lergan_core::LerGan;
use lergan_gan::{benchmarks, GanSpec};

fn golden() -> Vec<(&'static str, GanSpec, u64, u64)> {
    vec![
        (
            "DCGAN",
            benchmarks::dcgan(),
            0x417e047e90a3d709,
            0x4214119764033334,
        ),
        (
            "cGAN",
            benchmarks::cgan(),
            0x41745535aca3d706,
            0x41eedb8653000001,
        ),
        (
            "3D-GAN",
            benchmarks::threed_gan(),
            0x41c2f1c6ddbeb852,
            0x4244c7bbf3eb3333,
        ),
        (
            "ArtGAN-CIFAR-10",
            benchmarks::artgan_cifar10(),
            0x416f3f359ae147ab,
            0x420141e0c6400000,
        ),
        (
            "GPGAN",
            benchmarks::gpgan(),
            0x4174fd24123d70a1,
            0x41f47d71f3a66666,
        ),
        (
            "MAGAN-MNIST",
            benchmarks::magan_mnist(),
            0x413d01857d70a3d6,
            0x41ce63a84acccccd,
        ),
        (
            "DiscoGAN-4pairs",
            benchmarks::discogan_4pairs(),
            0x417de57be570a3d2,
            0x41fb1495ed666667,
        ),
        (
            "DiscoGAN-5pairs",
            benchmarks::discogan_5pairs(),
            0x417e4fb594a3d706,
            0x41fe571b7cd9999a,
        ),
    ]
}

#[test]
fn default_reports_are_bit_identical_to_pre_refactor_values() {
    for (name, gan, latency_bits, energy_bits) in golden() {
        let accel = LerGan::builder(&gan)
            .build()
            .unwrap_or_else(|e| panic!("{name} should build under the default configuration: {e}"));
        let report = accel.train_iterations(1);
        assert_eq!(
            report.iteration_latency_ns.to_bits(),
            latency_bits,
            "{name}: iteration latency drifted ({} vs golden {})",
            report.iteration_latency_ns,
            f64::from_bits(latency_bits),
        );
        assert_eq!(
            report.total_energy_pj.to_bits(),
            energy_bits,
            "{name}: total energy drifted ({} vs golden {})",
            report.total_energy_pj,
            f64::from_bits(energy_bits),
        );
    }
}

#[test]
fn per_op_stats_cover_every_op_and_sum_consistently() {
    let gan = benchmarks::dcgan();
    let accel = LerGan::builder(&gan).build().unwrap();
    let report = accel.train_iterations(1);

    // One bucket per (phase, layer) — the op labels.
    let expected: usize = lergan_gan::OpGraph::build(&gan).len();
    assert_eq!(report.op_latency.len(), expected);
    assert_eq!(report.op_energy.len(), expected);

    for (label, latency) in report.op_latency.iter() {
        assert!(
            latency > 0.0,
            "op {label} should have positive busy time, got {latency}"
        );
    }
    // Per-op energy is a full attribution of compute energy plus the ops'
    // own transfer energy, so it must not exceed the iteration total.
    let attributed = report.op_energy.total();
    assert!(
        attributed > 0.0 && attributed <= report.total_energy_pj,
        "attributed {attributed} pJ vs total {} pJ",
        report.total_energy_pj
    );
}

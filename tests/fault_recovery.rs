//! End-to-end fault recovery: checkpoint the trainer, lose hardware,
//! remap around the damage, and resume bit-exactly.
//!
//! This is the workflow the fault subsystem exists for. Training state
//! lives in `lergan_gan::train` (pure f32 math); the hardware mapping
//! lives in `lergan_core` (tiles, replicas, interconnect). A tile death
//! mid-epoch therefore costs *throughput*, never *correctness*: the
//! trainer checkpoints, the accelerator rebuilds with a `SystemFaults`
//! scenario (dead tiles skipped, replicas shed, broken wires rerouted),
//! and the restored trainer continues the exact numeric trajectory it
//! would have followed uninterrupted.

use lergan::core::{LerGan, RecoveryPolicy, SelfHealingRuntime, SystemFaults};
use lergan::gan::topology::parse_network;
use lergan::gan::train::{build_trainable_with, Gan, UpdateRule};
use lergan::gan::{benchmarks, Phase};
use lergan::reram::{FaultMap, ReramConfig, WearModel, WritePolicy};
use lergan::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A small 16 px DCGAN-shaped trainer (the perf-snapshot geometry).
fn small_gan(init_seed: u64, noise_seed: u64) -> Gan {
    let gen_spec = parse_network("g", "8f-(8t-4t)(3k2s)-t1", 2, 16).unwrap();
    let disc_spec = parse_network("d", "(1c-8c)(3k2s)-f1", 2, 16).unwrap();
    let mut rng = StdRng::seed_from_u64(init_seed);
    let g = build_trainable_with(&gen_spec, true, false, &mut rng);
    let d = build_trainable_with(&disc_spec, false, false, &mut rng);
    Gan::new(g, d, 8, 0.0, noise_seed).with_optimizer(UpdateRule::dcgan_adam(0.01))
}

fn batch(data_rng: &mut StdRng) -> Vec<Tensor> {
    (0..2)
        .map(|_| {
            let v = 0.5 + (data_rng.gen::<f32>() - 0.5) * 0.2;
            Tensor::filled(&[1, 16, 16], v)
        })
        .collect()
}

/// A fault scenario plausible for a mid-epoch hardware event: one tile
/// dies in the G→ bank, a sprinkling of cells sticks, one added
/// horizontal wire severs.
fn tile_loss_scenario() -> SystemFaults {
    let mut faults = SystemFaults::none();
    *faults.bank_mut(Phase::GForward) = FaultMap::seeded(0xFA17, 0.001, 100_000);
    faults.bank_mut(Phase::GForward).kill_tile(5);
    faults.links_mut().break_horizontal(0, 0, 2);
    faults
}

#[test]
fn checkpoint_remap_restore_resumes_bit_exactly() {
    // Reference trajectory: five uninterrupted steps.
    let mut reference = small_gan(31, 77);
    let mut data_rng = StdRng::seed_from_u64(900);
    let mut reference_tail = Vec::new();
    for step in 0..5 {
        let stats = reference.train_step(&batch(&mut data_rng));
        if step >= 2 {
            reference_tail.push((stats.d_loss.to_bits(), stats.g_loss.to_bits()));
        }
    }

    // Interrupted run: two steps, then the "hardware event".
    let mut gan = small_gan(31, 77);
    let mut data_rng = StdRng::seed_from_u64(900);
    for _ in 0..2 {
        gan.train_step(&batch(&mut data_rng));
    }
    let ckpt = gan.checkpoint();
    drop(gan);

    // The accelerator mapped the workload fault-free...
    let spec = benchmarks::dcgan();
    let healthy = LerGan::builder(&spec).build().expect("fault-free build");
    assert!(healthy.degradation_report().is_none());

    // ...then loses a tile: rebuild around the damage instead of failing.
    let degraded = LerGan::builder(&spec)
        .faults(tile_loss_scenario())
        .build()
        .expect("one dead tile of sixteen is absorbable");
    let alloc = degraded.allocation(Phase::GForward);
    assert_eq!(alloc.healthy_tiles(), 15);
    let report = degraded
        .degradation_report()
        .expect("a faulted build quantifies its degradation");
    assert_eq!(report.dead_tiles, 1);
    assert_eq!(report.broken_wires, 1);
    // Degradation is quantified, not assumed: losing a tile sheds replica
    // copies, which can trade update traffic against MMV parallelism, so
    // the report's job is to be finite and deterministic, not monotone.
    assert!(report.slowdown().is_finite() && report.slowdown() > 0.0);

    // Resume on the remapped hardware: a *fresh* trainer (different init
    // and noise seeds — everything must come from the checkpoint) picks
    // up the trajectory bit-for-bit.
    let mut resumed = small_gan(9999, 1);
    resumed.restore(&ckpt).expect("same architecture");
    let mut resumed_tail = Vec::new();
    for _ in 0..3 {
        let stats = resumed.train_step(&batch(&mut data_rng));
        resumed_tail.push((stats.d_loss.to_bits(), stats.g_loss.to_bits()));
    }
    assert_eq!(
        reference_tail, resumed_tail,
        "remap-and-resume must not perturb the training trajectory"
    );
}

#[test]
fn seeded_fault_scenarios_are_deterministic_and_panic_free() {
    let spec = benchmarks::dcgan();
    for &rate in &[0.001, 0.01] {
        let scenario = || {
            let mut faults = SystemFaults::none();
            *faults.bank_mut(Phase::GForward) = FaultMap::seeded(0xBEEF, rate, 200_000);
            *faults.bank_mut(Phase::DForward) = FaultMap::seeded(0xCAFE, rate, 200_000);
            faults.bank_mut(Phase::GForward).kill_tile(3);
            faults.links_mut().break_horizontal(1, 2, 4);
            faults.links_mut().break_vertical(0, 1, 7);
            faults
        };
        let run = || {
            LerGan::builder(&spec)
                .faults(scenario())
                .build()
                .expect("sweep scenarios stay within capacity")
                .degradation_report()
                .expect("non-empty scenario yields a report")
        };
        let first = run();
        let second = run();
        assert_eq!(first, second, "rate {rate}: reports must be deterministic");
        assert!(first.stuck_cells > 0, "rate {rate} must stick some cells");
        assert_eq!(first.dead_tiles, 1);
        assert_eq!(first.broken_wires, 2);
        assert!(first.degraded_latency_ns.is_finite() && first.degraded_latency_ns > 0.0);
        assert!(first.degraded_energy_pj.is_finite() && first.degraded_energy_pj > 0.0);
    }
}

#[test]
fn wear_induced_fault_self_heals_bit_exactly_end_to_end() {
    // Reference trajectory: the same trainer seeds, no hardware at all.
    let mut reference = small_gan(31, 77);
    let mut data_rng = StdRng::seed_from_u64(321);
    for _ in 0..30 {
        reference.train_step(&batch(&mut data_rng));
    }

    // Self-healed run: wear breaks cells of the ABFT-monitored block
    // mid-run; residuals flag them, the ladder heals them online.
    let wear = WearModel::new(15, 1.3, 0xFEED);
    let mut rt = SelfHealingRuntime::new(
        &benchmarks::dcgan(),
        small_gan(31, 77),
        SystemFaults::none(),
        RecoveryPolicy::default(),
        wear,
    )
    .expect("pristine bank assembles");
    let mut data_rng = StdRng::seed_from_u64(321);
    rt.run(30, |_| batch(&mut data_rng)).expect("run completes");

    let r = rt.report().clone();
    assert!(r.wear_broken_cells > 0, "wear must break cells mid-run");
    assert!(r.detected > 0, "ABFT residuals must flag the breaks");
    assert!(
        r.corrected + r.remapped + r.rolled_back >= r.detected,
        "every detection resolves: {r:?}"
    );
    assert_eq!(
        rt.into_trainer().checkpoint(),
        reference.checkpoint(),
        "healing must cost throughput, never correctness"
    );
}

#[test]
fn stuck_at_sweep_matches_its_pinned_values() {
    // Programming a CONV1-class 512 x 512 block (4 cells per weight)
    // through a seeded pre-faulted array, and the DCGAN accelerator
    // rebuilt around the same map — at non-zero rates with one dead tile
    // and one broken added wire too — versus its fault-free twin. Every
    // stream is seeded, so any drift is a real behaviour change of the
    // fault map, write-and-verify or the degraded planner.
    let cfg = ReramConfig::default();
    let spec = benchmarks::dcgan();
    let weights: Vec<i32> = (0..512 * 512).map(|i| i % 15 - 7).collect();
    let cells = (weights.len() * cfg.cells_per_weight()) as u64;
    // (rate, stuck before programming, pulses, quarantined, unprogrammable,
    //  degraded latency ns, slowdown, energy overhead)
    let pinned = [
        (
            0.0, 0, 1_072_723, 56, 56, "31475689", "1.000000", "1.000000",
        ),
        (
            0.001, 1045, 1_071_651, 55, 689, "31639556", "1.005206", "1.001174",
        ),
        (
            0.01, 10481, 1_062_012, 54, 6474, "31639556", "1.005206", "1.001174",
        ),
    ];
    for (rate, stuck, pulses, quarantined, unprogrammable, latency, slowdown, energy) in pinned {
        let seeded = FaultMap::seeded(0xFA11_5EED, rate, cells);
        assert_eq!(seeded.stuck_cells(), stuck, "rate {rate}");
        let mut map = seeded.clone();
        let report = map.program_matrix(&weights, &cfg, &WritePolicy::with_fail_rate(0.02, 0xBEEF));
        assert_eq!(
            (
                report.attempts,
                report.newly_stuck,
                report.failed_cells.len()
            ),
            (pulses, quarantined, unprogrammable),
            "rate {rate}: programming cost"
        );

        let mut faults = SystemFaults::none();
        *faults.bank_mut(Phase::GForward) = seeded;
        if rate > 0.0 {
            faults.bank_mut(Phase::GForward).kill_tile(3);
            faults.links_mut().break_horizontal(0, 0, 2);
        }
        let accel = LerGan::builder(&spec)
            .faults(faults)
            .build()
            .expect("sweep scenarios stay within surviving capacity");
        let (clean_ns, degraded_ns, slow, energy_ratio) = match accel.degradation_report() {
            Some(r) => (
                r.fault_free_latency_ns,
                r.degraded_latency_ns,
                r.slowdown(),
                r.energy_overhead(),
            ),
            // A map with no stuck cells builds the fault-free plan itself.
            None => {
                let ns = accel.train_iterations(1).iteration_latency_ns;
                (ns, ns, 1.0, 1.0)
            }
        };
        assert_eq!(format!("{clean_ns:.0}"), "31475689", "rate {rate}");
        assert_eq!(format!("{degraded_ns:.0}"), latency, "rate {rate}");
        assert_eq!(format!("{slow:.6}"), slowdown, "rate {rate}");
        assert_eq!(format!("{energy_ratio:.6}"), energy, "rate {rate}");
    }
}

#[test]
fn recovery_slowdown_never_beats_the_clean_baseline() {
    // The whole point of the accounting: detection rides on every MMV and
    // recovery only ever adds work, so slowdown >= 1.0 in every scenario.
    // The last scenario leaves too few healthy tiles for a remap, so the
    // ladder must fall through to a checkpoint rollback.
    let default_kill = RecoveryPolicy::default().tile_kill_cells;
    let scenarios: [(&str, WearModel, f64, usize, usize); 5] = [
        ("no_wear", WearModel::disabled(), 0.0, 0, default_kill),
        (
            "mild_wear",
            WearModel::new(25, 1.5, 0xD1E),
            0.0,
            0,
            default_kill,
        ),
        (
            "harsh_wear",
            WearModel::new(15, 1.3, 0xFEED),
            0.0,
            0,
            default_kill,
        ),
        (
            "dirty_bank",
            WearModel::new(10, 1.2, 0xACE),
            0.0005,
            0,
            default_kill,
        ),
        (
            "no_spare_tiles",
            WearModel::new(10, 1.2, 0xACE),
            0.0,
            14,
            64,
        ),
    ];
    for (label, wear, stuck_rate, dead_tiles, tile_kill_cells) in scenarios {
        let run = || {
            let mut faults = SystemFaults::none();
            if stuck_rate > 0.0 {
                *faults.bank_mut(Phase::GForward) = FaultMap::seeded(0x5EED, stuck_rate, 300_000);
            }
            for t in 1..=dead_tiles {
                faults.bank_mut(Phase::GForward).kill_tile(t);
            }
            let policy = RecoveryPolicy {
                tile_kill_cells,
                ..RecoveryPolicy::default()
            };
            let mut rt = SelfHealingRuntime::new(
                &benchmarks::dcgan(),
                small_gan(31, 77),
                faults,
                policy,
                wear,
            )
            .expect("scenarios stay within surviving capacity");
            let mut data_rng = StdRng::seed_from_u64(7);
            rt.run(12, |_| batch(&mut data_rng)).expect("run completes");
            rt.report().clone()
        };
        let r = run();
        assert!(
            r.slowdown() >= 1.0,
            "{label}: degraded run must not beat the clean baseline ({})",
            r.slowdown()
        );
        assert!(r.detection_overhead_frac() > 0.0 && r.detection_overhead_frac() < 0.01);
        if dead_tiles > 0 {
            assert!(
                r.rolled_back > 0,
                "{label}: no spare tile, yet no rollback: {r:?}"
            );
        }
        assert_eq!(r, run(), "{label}: self-healed runs must be deterministic");
    }
}

#[test]
fn empty_fault_scenario_changes_nothing_end_to_end() {
    let spec = benchmarks::dcgan();
    let clean = LerGan::builder(&spec).build().unwrap();
    let noop = LerGan::builder(&spec)
        .faults(SystemFaults::none())
        .build()
        .unwrap();
    let a = clean.train_iterations(2);
    let b = noop.train_iterations(2);
    assert_eq!(
        a.iteration_latency_ns.to_bits(),
        b.iteration_latency_ns.to_bits()
    );
    assert_eq!(a.total_energy_pj.to_bits(), b.total_energy_pj.to_bits());
    assert!(noop.degradation_report().is_none());
}

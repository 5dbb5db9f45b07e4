//! What the self-healing runtime may take from a shared fault-free plan.
//!
//! `LerGanBuilder::build` reads only a scenario's dead tiles and link
//! faults. Stuck cells and wear counters live in the banks' cell arrays,
//! which the mapping, the fabric and the iteration simulation never read,
//! so a build under them simulates exactly like the fault-free build, and a
//! build under tile or link faults like the build under their
//! `SystemFaults::build_key`. A serving layer therefore hands
//! `SelfHealingRuntime::from_figures` the figures it keeps beside its plan,
//! and builds only when the starting faults kill tiles or break links,
//! once per build key. These tests pin both halves: the figures under
//! stuck cells and wear are the clean ones (or the build key's) bit for
//! bit, and the figures path runs exactly like `SelfHealingRuntime::new`
//! with and without a build.

use lergan_core::{IterationFigures, LerGan, RecoveryPolicy, SelfHealingRuntime, SystemFaults};
use lergan_gan::topology::parse_network;
use lergan_gan::train::{build_trainable_with, Gan, UpdateRule};
use lergan_gan::{benchmarks, GanSpec, Phase};
use lergan_reram::{FaultMap, ReramConfig, WearModel, WritePolicy};
use lergan_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Cells seeded per bank, as a serving pair seeds them.
const CELLS: u64 = 300_000;

fn small_trainer() -> Gan {
    let g_spec = parse_network("g", "8f-(8t-4t)(3k2s)-t1", 2, 16).unwrap();
    let d_spec = parse_network("d", "(1c-8c)(3k2s)-f1", 2, 16).unwrap();
    let mut rng = StdRng::seed_from_u64(31);
    let g = build_trainable_with(&g_spec, true, false, &mut rng);
    let d = build_trainable_with(&d_spec, false, false, &mut rng);
    Gan::new(g, d, 8, 0.0, 77).with_optimizer(UpdateRule::dcgan_adam(0.01))
}

fn batch(rng: &mut StdRng) -> Vec<Tensor> {
    (0..2)
        .map(|_| Tensor::filled(&[1, 16, 16], 0.5 + (rng.gen::<f32>() - 0.5) * 0.2))
        .collect()
}

/// Stuck cells in every bank, plus wear counters and write-verify damage
/// in the `G→` bank.
fn stuck_and_worn() -> SystemFaults {
    let mut faults = SystemFaults::none();
    for (i, phase) in Phase::ALL.into_iter().enumerate() {
        *faults.bank_mut(phase) = FaultMap::seeded(0x5EED + i as u64, 0.0005, CELLS);
    }
    let bank = faults.bank_mut(Phase::GForward);
    let model = WearModel::new(6, 1.5, 0xACE);
    bank.advance_wear(&mut model.limits(1_000..9_000), 4);
    bank.advance_wear(&mut model.limits(5_000..20_000), 3);
    let weights: Vec<i32> = (0..2_000).map(|i| (i * 37) % 4_001 - 2_000).collect();
    let policy = WritePolicy {
        endurance_limit: 5,
        ..WritePolicy::with_fail_rate(0.2, 0xBEEF)
    };
    bank.program_matrix(&weights, &ReramConfig::default(), &policy);
    faults
}

fn figures(spec: &GanSpec, faults: SystemFaults) -> (u64, u64) {
    let report = LerGan::builder(spec)
        .faults(faults)
        .build()
        .expect("the scenario maps")
        .train_iterations(1);
    let g_forward = report.phase_latency.get(&Phase::GForward.to_string());
    (report.iteration_latency_ns.to_bits(), g_forward.to_bits())
}

#[test]
fn stuck_cells_and_wear_leave_the_iteration_figures_bit_equal() {
    let faults = stuck_and_worn();
    assert!(faults.stuck_cells() > 0 && faults.builds_fault_free());
    let bank = faults.bank(Phase::GForward).unwrap();
    assert!(
        (1_000..20_000).any(|c| bank.wear_of(c) > 0),
        "no wear counters"
    );
    for spec in [benchmarks::dcgan(), benchmarks::cgan()] {
        let clean = figures(&spec, SystemFaults::none());
        assert_eq!(figures(&spec, faults.clone()), clean, "{}", spec.name);
        let plan = IterationFigures::of(&LerGan::builder(&spec).build().unwrap());
        assert_eq!(
            (plan.iteration_ns.to_bits(), plan.g_forward_ns.to_bits()),
            clean,
            "{}: IterationFigures reads the simulated figures",
            spec.name
        );
    }
}

#[test]
fn stuck_cells_and_wear_do_not_enter_a_faulted_build() {
    let mut faults = stuck_and_worn();
    faults.bank_mut(Phase::GForward).kill_tile(0);
    faults.bank_mut(Phase::DForward).kill_tile(2);
    faults.links_mut().break_horizontal(0, 0, 11);
    let key = faults.build_key();
    assert_eq!(key.stuck_cells(), 0);
    assert_eq!(key.dead_tiles(), 2);
    assert_eq!(key.links(), faults.links());
    assert_eq!(key, key.build_key(), "a build key is its own key");
    for spec in [benchmarks::dcgan(), benchmarks::cgan()] {
        assert_eq!(
            figures(&spec, faults.clone()),
            figures(&spec, key.clone()),
            "{}",
            spec.name
        );
    }
}

/// The three starting scenarios: stuck cells only, plus one dead tile,
/// plus one broken wire. The flag says whether the runtime must build. The
/// tile and the wire are ones whose loss changes both figures of DCGAN.
fn scenarios() -> Vec<(&'static str, SystemFaults, bool)> {
    let stuck = || {
        let mut faults = SystemFaults::none();
        *faults.bank_mut(Phase::GForward) = FaultMap::seeded(0x7777, 0.0005, CELLS);
        faults
    };
    let mut dead_tile = stuck();
    dead_tile.bank_mut(Phase::GForward).kill_tile(0);
    let mut broken_wire = stuck();
    broken_wire.links_mut().break_horizontal(0, 0, 11);
    vec![
        ("stuck cells", stuck(), false),
        ("dead tile", dead_tile, true),
        ("broken wire", broken_wire, true),
    ]
}

#[test]
fn the_figures_path_runs_like_new_and_builds_only_under_tile_or_link_faults() {
    let spec = benchmarks::dcgan();
    let clean = IterationFigures::of(&LerGan::builder(&spec).build().unwrap());
    let wear = WearModel::new(12, 1.3, 0xB0B);
    let policy = RecoveryPolicy::default();
    for (name, faults, builds) in scenarios() {
        assert_eq!(!faults.builds_fault_free(), builds, "{name}");
        let built = IterationFigures::of(
            &LerGan::builder(&spec)
                .faults(faults.clone())
                .build()
                .unwrap(),
        );
        assert_eq!(
            built != clean,
            builds,
            "{name}: the build changes the figures"
        );
        let mut by_new =
            SelfHealingRuntime::new(&spec, small_trainer(), faults.clone(), policy, wear).unwrap();
        let start = IterationFigures::under(&spec, &faults, clean).unwrap();
        assert_eq!(start, if builds { built } else { clean }, "{name}");
        let mut by_figures = SelfHealingRuntime::from_figures(
            &spec,
            small_trainer(),
            faults,
            policy,
            wear,
            clean,
            start,
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for step in 0..20 {
            let reals = batch(&mut rng);
            by_new.step(&reals).unwrap();
            by_figures.step(&reals).unwrap();
            if step == 0 {
                // One step charges the starting mapping's iteration latency:
                // the faulted build's under tile and link faults.
                let charged = by_figures.report().compute_latency_ns;
                assert_eq!(charged.to_bits(), built.iteration_ns.to_bits(), "{name}");
            }
        }
        let report = by_figures.report();
        assert!(report.detected > 0, "{name}: the run must fault");
        assert_eq!(report, by_new.report(), "{name}");
        assert_eq!(
            report.clean_iteration_ns.to_bits(),
            clean.iteration_ns.to_bits(),
            "{name}"
        );
    }
}

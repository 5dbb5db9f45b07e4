//! Cross-crate consistency checks: compiled mappings vs workloads vs the
//! hardware models, and the lowered Fig. 13 iteration vs the paper's
//! ordering.

use lergan::core::compiler::{self, CompilerOptions};
use lergan::core::lergan::CostModel;
use lergan::core::schedule::{lower_iteration, ScheduleContext};
use lergan::core::{Connection, LerGan, ReplicaDegree, ReshapeScheme};
use lergan::gan::{benchmarks, Phase};
use lergan::noc::{DcuPair, NocConfig};
use lergan::reram::{CrossbarLayout, ReramConfig, TileSpec};
use lergan::sim::engine::{Engine, TaskId};
use std::collections::HashMap;

#[test]
fn compiled_storage_fits_tile_accounting() {
    let cfg = ReramConfig::default();
    let tile = TileSpec::new(&cfg);
    for gan in benchmarks::all() {
        let compiled = compiler::compile(
            &gan,
            CompilerOptions {
                scheme: ReshapeScheme::Zfdr,
                degree: ReplicaDegree::High,
                connection: Connection::ThreeD,
                phase_degrees: Default::default(),
            },
            &cfg,
        );
        for phase in &compiled.phases {
            for layer in &phase.layers {
                // The declared tile span must cover the stored values.
                let capacity = layer.tiles as u128 * tile.carray_weights as u128;
                assert!(
                    capacity >= layer.stored_values,
                    "{} {} layer {}: {} values in {} tiles",
                    gan.name,
                    phase.phase,
                    layer.workload.layer_index,
                    layer.stored_values,
                    layer.tiles
                );
            }
        }
    }
}

#[test]
fn zfdr_never_loses_to_normal_on_cycles() {
    let cfg = ReramConfig::default();
    for gan in benchmarks::all() {
        let z = compiler::compile(
            &gan,
            CompilerOptions {
                scheme: ReshapeScheme::Zfdr,
                degree: ReplicaDegree::Low,
                connection: Connection::ThreeD,
                phase_degrees: Default::default(),
            },
            &cfg,
        );
        let n = compiler::compile(
            &gan,
            CompilerOptions {
                scheme: ReshapeScheme::Normal,
                degree: ReplicaDegree::Low,
                connection: Connection::ThreeD,
                phase_degrees: Default::default(),
            },
            &cfg,
        );
        for phase in Phase::ALL {
            let zc = z.phase(phase).cycles_per_sample();
            let nc = n.phase(phase).cycles_per_sample();
            assert!(
                zc <= nc,
                "{} {phase}: ZFDR {zc} cycles vs normal {nc}",
                gan.name
            );
        }
    }
}

/// The tasks of `engine` labelled `label`, in emission order.
fn labelled(engine: &Engine, label: &str) -> Vec<TaskId> {
    engine
        .task_ids()
        .filter(|&t| engine.label(t) == label)
        .collect()
}

/// The compute tasks of `phase` (labelled `"{phase} L{layer}"`), in
/// emission order.
fn computes(engine: &Engine, phase: Phase) -> Vec<TaskId> {
    let prefix = format!("{phase} L");
    engine
        .task_ids()
        .filter(|&t| {
            engine
                .label(t)
                .strip_prefix(&prefix)
                .is_some_and(|layer| !layer.is_empty() && layer.bytes().all(|b| b.is_ascii_digit()))
        })
        .collect()
}

#[test]
fn lowered_iteration_follows_fig13_order() {
    let reram = ReramConfig::default();
    let noc = NocConfig::default();
    let cost = CostModel::default();
    for gan in benchmarks::all() {
        for connection in [Connection::ThreeD, Connection::HTree] {
            let accel = LerGan::builder(&gan)
                .connection(connection)
                .build()
                .unwrap();
            let allocs: HashMap<_, _> = Phase::ALL
                .into_iter()
                .map(|p| (p, accel.allocation(p).clone()))
                .collect();
            let pair = DcuPair::with_faults(&noc, accel.faults().links());
            let ctx = ScheduleContext {
                gan: accel.gan(),
                compiled: accel.compiled(),
                allocs: &allocs,
                pair: &pair,
                reram: &reram,
                noc: &noc,
                cost: &cost,
            };
            let lowered = lower_iteration(&ctx);
            let engine = &lowered.engine;
            let s = engine.run().unwrap();
            let at = format!("{} {connection:?}", gan.name);
            // This is the graph the accelerator's report times.
            assert_eq!(
                s.makespan_ns().to_bits(),
                accel.train_iterations(1).iteration_latency_ns.to_bits(),
                "{at}"
            );

            // (a) Every phase computes: G→, D→ and D← in both halves,
            // D-w, G← and G-w once. Each run is one compute per layer, in
            // emission order.
            let runs = |phase: Phase| -> Vec<Vec<TaskId>> {
                let layers = accel.compiled().phase(phase).layers.len();
                let all = computes(engine, phase);
                assert!(layers > 0, "{at}: {phase} has no layers");
                assert_eq!(all.len() % layers, 0, "{at}: {phase} ran a partial run");
                all.chunks(layers).map(<[TaskId]>::to_vec).collect()
            };
            for (phase, expected) in [
                (Phase::GForward, 2),
                (Phase::DForward, 2),
                (Phase::DBackward, 2),
                (Phase::DWeightGrad, 1),
                (Phase::GBackward, 1),
                (Phase::GWeightGrad, 1),
            ] {
                assert_eq!(runs(phase).len(), expected, "{at}: {phase} runs");
            }
            let first = |phase: Phase, run: usize| runs(phase)[run][0];
            let last = |phase: Phase, run: usize| *runs(phase)[run].last().unwrap();

            // The iteration's one mode switch precedes every compute.
            let [switches] = labelled(engine, "configure switches")[..] else {
                panic!("{at}: not one switch configuration");
            };
            assert!(
                s.finish_ns(switches) <= s.start_ns(first(Phase::GForward, 0)),
                "{at}"
            );

            // (b) Each model is updated exactly once.
            let [update_d] = labelled(engine, "update discriminator")[..] else {
                panic!("{at}: not one discriminator update");
            };
            let [update_g] = labelled(engine, "update generator")[..] else {
                panic!("{at}: not one generator update");
            };

            // (c) The discriminator update follows D-w and closes half (a)
            // before the second G→ run; the generator update follows G-w.
            assert!(
                s.start_ns(update_d) >= s.finish_ns(last(Phase::DWeightGrad, 0)),
                "{at}"
            );
            assert!(
                s.finish_ns(update_d) <= s.start_ns(first(Phase::GForward, 1)),
                "{at}"
            );
            // Half (a)'s D← also ends first. No edge orders it (D-w waits
            // only for D←'s first task); the durations do.
            assert!(
                s.finish_ns(last(Phase::DBackward, 0)) <= s.start_ns(update_d),
                "{at}"
            );
            assert!(
                s.start_ns(update_g) >= s.finish_ns(last(Phase::GWeightGrad, 0)),
                "{at}"
            );

            // (d) Every mapping lands before its phase's first compute in
            // the same half. A task belongs to half (a) if it finishes
            // before the discriminator update starts, to half (b) if it
            // starts after that update finishes.
            let in_half_b = |t: TaskId| {
                if s.finish_ns(t) <= s.start_ns(update_d) {
                    false
                } else {
                    assert!(
                        s.start_ns(t) >= s.finish_ns(update_d),
                        "{at}: {} straddles the discriminator update",
                        engine.label(t)
                    );
                    true
                }
            };
            for phase in Phase::ALL {
                for map in labelled(engine, &format!("map {phase}")) {
                    let half = in_half_b(map);
                    let run = runs(phase)
                        .into_iter()
                        .find(|run| in_half_b(run[0]) == half)
                        .unwrap_or_else(|| panic!("{at}: map {phase} in a half without {phase}"));
                    assert!(
                        s.finish_ns(map) <= s.start_ns(run[0]),
                        "{at}: map {phase} lands after {phase} starts"
                    );
                }
            }

            // (e) Fig. 13a: under the 3D connection D-w is mapped while D→
            // still runs.
            if connection == Connection::ThreeD {
                let [map_dw] = labelled(engine, "map D-w")[..] else {
                    panic!("{at}: not one D-w mapping");
                };
                assert!(
                    s.start_ns(map_dw) < s.finish_ns(last(Phase::DForward, 0)),
                    "{at}"
                );
            }
        }
    }
}

#[test]
fn crossbar_layouts_are_consistent_with_config() {
    let cfg = ReramConfig::default();
    // A layout's stored weights must cover its logical matrix.
    for (rows, cols) in [(100, 16384), (4096, 512), (25600, 1024), (1, 1)] {
        let l = CrossbarLayout::for_matrix(rows, cols, &cfg);
        assert!(l.stored_weights(&cfg) >= (rows * cols) as u64);
        assert!(l.occupancy(&cfg) <= 1.0 + 1e-12);
        assert_eq!(l.ops_per_mmv(), l.crossbars());
    }
}

#[test]
fn training_reports_are_internally_consistent() {
    for gan in [benchmarks::dcgan(), benchmarks::magan_mnist()] {
        let r = LerGan::builder(&gan).build().unwrap().train_iterations(3);
        // Totals scale with iterations.
        assert!(
            (r.total_latency_ns - 3.0 * r.iteration_latency_ns).abs() < 1e-6 * r.total_latency_ns
        );
        // The Fig. 23 buckets sum to the total energy.
        assert!((r.energy_breakdown.total() - r.total_energy_pj).abs() < 1e-6 * r.total_energy_pj);
        // Compute bucket equals the tile breakdown (for one iteration,
        // scaled by 3).
        let tile = r.tile_breakdown.total_pj() * 3.0;
        assert!(
            (r.energy_breakdown.get("compute") - tile).abs() < 1e-6 * tile,
            "{}: compute bucket {} vs tile total {}",
            gan.name,
            r.energy_breakdown.get("compute"),
            tile
        );
        // Phase latencies are positive for every phase.
        for phase in Phase::ALL {
            assert!(
                r.phase_latency.get(&phase.to_string()) > 0.0,
                "{}: no latency recorded for {phase}",
                gan.name
            );
        }
    }
}

#[test]
fn space_equalization_factor_reflects_zfdr_footprint() {
    let cfg = ReramConfig::default();
    let gan = benchmarks::dcgan();
    let z = compiler::compile(
        &gan,
        CompilerOptions {
            scheme: ReshapeScheme::Zfdr,
            degree: ReplicaDegree::Low,
            connection: Connection::ThreeD,
            phase_degrees: Default::default(),
        },
        &cfg,
    );
    let n = compiler::compile(
        &gan,
        CompilerOptions {
            scheme: ReshapeScheme::Normal,
            degree: ReplicaDegree::Low,
            connection: Connection::HTree,
            phase_degrees: Default::default(),
        },
        &cfg,
    );
    let factor = compiler::space_equalization_factor(&z, &n);
    // ZFDR stores roughly 2-6x the plain weights for the Table V nets.
    assert!(
        (2..=8).contains(&factor),
        "space factor {factor} out of the expected band"
    );
}

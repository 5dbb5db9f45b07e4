//! Per-op report labels and the lowering's interconnect parameters.
//!
//! A report's per-op breakdowns are keyed by join labels `"{phase} L{layer}"`
//! that the lowering borrows from a table rendered once per process for
//! layers below 64 and renders per op beyond. The first test drives a
//! grammar GAN deeper than that table through the whole stack and
//! re-derives both per-op breakdowns from the lowered schedule, task by
//! task with freshly rendered labels, as the report used to: keys and
//! bits must agree.
//!
//! The second holds the lowering to one source of interconnect
//! parameters: a [`ScheduleContext`] whose `noc` disagrees with its
//! pair's configuration lowers exactly like the matched context.

use lergan_core::lergan::CostModel;
use lergan_core::schedule::{lower_iteration, LoweredIteration, ScheduleContext};
use lergan_core::{Connection, LerGan, ReshapeScheme};
use lergan_gan::{benchmarks, GanSpec, Phase};
use lergan_noc::{DcuPair, NocConfig};
use lergan_reram::ReramConfig;
use lergan_sim::engine::{Label, Schedule};
use lergan_sim::Breakdown;
use std::collections::HashMap;

/// 68 layers per network — every phase runs past the 64 rendered
/// labels — with a residual skip edge in each.
fn deep_gan() -> GanSpec {
    let body = |n: usize| vec!["8c3k1s"; n].join("-");
    GanSpec::parse(
        "deep-grammar",
        &format!("16f-8t4k2s-{}-8c3k1s+2-{}-t1", body(40), body(25)),
        &format!("1c4k2s-{}-8c3k1s+2-{}-f1", body(40), body(25)),
        &[16, 16],
    )
    .expect("deep grammar GAN is well-formed")
}

/// Lowers one iteration of `accel` under a context with `noc` as its
/// `noc` field and a pair built under `pair_noc`, runs it, and hands the
/// lowering and its schedule to `f`.
fn lowered<R>(
    accel: &LerGan,
    noc: &NocConfig,
    pair_noc: &NocConfig,
    f: impl FnOnce(&LoweredIteration, &Schedule) -> R,
) -> R {
    let allocs: HashMap<_, _> = Phase::ALL
        .into_iter()
        .map(|p| (p, accel.allocation(p).clone()))
        .collect();
    let pair = DcuPair::with_faults(pair_noc, accel.faults().links());
    let ctx = ScheduleContext {
        gan: accel.gan(),
        compiled: accel.compiled(),
        allocs: &allocs,
        pair: &pair,
        reram: &ReramConfig::default(),
        noc,
        cost: &CostModel::default(),
    };
    let lowering = lower_iteration(&ctx);
    let schedule = lowering.engine.run().expect("acyclic");
    f(&lowering, &schedule)
}

fn lower_makespan(accel: &LerGan, noc: &NocConfig, pair_noc: &NocConfig) -> f64 {
    lowered(accel, noc, pair_noc, |_, schedule| schedule.makespan_ns())
}

#[test]
fn deep_grammar_gan_reports_rendered_op_labels_bit_for_bit() {
    let gan = deep_gan();
    for layers in [gan.generator.layers.len(), gan.discriminator.layers.len()] {
        assert!(layers > 64, "only {layers} layers");
    }
    let bits = |b: &Breakdown| -> Vec<(String, u64)> {
        b.iter()
            .map(|(k, v)| (k.to_string(), v.to_bits()))
            .collect()
    };
    for connection in [Connection::ThreeD, Connection::HTree] {
        let accel = LerGan::builder(&gan)
            .connection(connection)
            .reshape_scheme(ReshapeScheme::Zfdr)
            .build()
            .expect("deep grammar GAN maps");
        let report = accel.train_iterations(1);
        let graph = &accel.compiled().graph;
        let noc = NocConfig::default();
        // The per-op attribution as it was written before labels were
        // borrowed and sums kept per op: one `add` per task, under a label
        // rendered on the spot.
        let (op_latency, op_energy) = lowered(&accel, &noc, &noc, |lowered, schedule| {
            assert_eq!(
                schedule.makespan_ns().to_bits(),
                report.iteration_latency_ns.to_bits()
            );
            let total_crossbar_ops: u128 = lowered.op_tasks.iter().map(|t| t.crossbar_ops).sum();
            let compute_pj = report.tile_breakdown.total_pj();
            let (mut op_latency, mut op_energy) = (Breakdown::new(), Breakdown::new());
            let mut fallbacks = 0;
            for t in &lowered.op_tasks {
                let op = graph.op(t.op);
                let rendered = format!("{} L{}", op.phase, op.layer_index);
                assert_eq!(t.label, rendered);
                assert_eq!(lowered.engine.label(t.compute), rendered);
                assert_eq!(
                    matches!(t.label, Label::Borrowed(_)),
                    op.layer_index < 64,
                    "{rendered}"
                );
                fallbacks += usize::from(op.layer_index >= 64);
                let busy = (schedule.finish_ns(t.xfer) - schedule.start_ns(t.xfer))
                    + (schedule.finish_ns(t.compute) - schedule.start_ns(t.compute));
                op_latency.add(&rendered, busy);
                let share = t.crossbar_ops as f64 / total_crossbar_ops as f64;
                op_energy.add(&rendered, t.comm_energy_pj + compute_pj * share);
            }
            assert!(fallbacks > 0, "no layer reached the fallback labels");
            (op_latency, op_energy)
        });
        assert_eq!(report.op_latency.len(), graph.len());
        assert_eq!(
            bits(&report.op_latency),
            bits(&op_latency),
            "{connection:?}"
        );
        assert_eq!(bits(&report.op_energy), bits(&op_energy), "{connection:?}");
    }
}

#[test]
fn lowering_reads_interconnect_parameters_from_the_pair() {
    let matched = NocConfig::default();
    let mismatched = NocConfig {
        cmode_parallel_channels: matched.cmode_parallel_channels * 4,
        tiles_per_bank: matched.tiles_per_bank / 2,
        ..NocConfig::default()
    };
    for gan in [benchmarks::dcgan(), benchmarks::res_dilated_gan()] {
        for connection in [Connection::ThreeD, Connection::HTree] {
            let accel = LerGan::builder(&gan)
                .connection(connection)
                .build()
                .expect("benchmark maps");
            let want = lower_makespan(&accel, &matched, &matched);
            assert_eq!(
                want.to_bits(),
                accel.train_iterations(1).iteration_latency_ns.to_bits()
            );
            let got = lower_makespan(&accel, &mismatched, &matched);
            assert_eq!(got.to_bits(), want.to_bits(), "{} {connection:?}", gan.name);
        }
    }
    // The pair's configuration does matter: a pair built under the other
    // channel count lowers differently.
    let accel = LerGan::builder(&benchmarks::dcgan()).build().expect("maps");
    let other = NocConfig {
        cmode_parallel_channels: 1,
        ..NocConfig::default()
    };
    assert_ne!(
        lower_makespan(&accel, &matched, &other).to_bits(),
        lower_makespan(&accel, &matched, &matched).to_bits()
    );
}

//! Design points do not depend on the order they are built in.
//!
//! Pairs are interned and memoise their routes, so a build can answer a
//! leg from a memo an earlier build filled, and the interner evicts pairs
//! as faulted builds pass through it. This test builds the benchmark
//! sweep's 80 design points (the eight Table V GANs and the two
//! extended-grammar GANs under {ZFDR, normal reshape} × {3D, H-tree} ×
//! {low, high} duplication) forward and then in reverse, with a faulted
//! build between every two points, and requires every field of every
//! `TrainingReport` to be bit-identical between the two orders. The
//! interner is flushed between the two sweeps, so a pair the first sweep
//! interned cannot answer for the second.

use lergan_core::{Connection, LerGan, ReplicaDegree, ReshapeScheme, SystemFaults, TrainingReport};
use lergan_gan::{benchmarks, GanSpec};
use lergan_noc::{DcuPair, NocConfig};
use lergan_sim::Breakdown;

/// Iterations per simulated design point.
const ITERATIONS: usize = 10;

type Point = (usize, ReshapeScheme, Connection, ReplicaDegree);

fn points(specs: &[GanSpec]) -> Vec<Point> {
    let mut points = Vec::new();
    for gan in 0..specs.len() {
        for scheme in [ReshapeScheme::Zfdr, ReshapeScheme::Normal] {
            for connection in [Connection::ThreeD, Connection::HTree] {
                for degree in [ReplicaDegree::Low, ReplicaDegree::High] {
                    points.push((gan, scheme, connection, degree));
                }
            }
        }
    }
    points
}

/// One more fault set than the interner keeps, so cycling through them
/// evicts every pair, the pristine one included. Set `i` breaks every
/// horizontal wire of one bank and every vertical wire at one node.
fn fault_sets() -> Vec<SystemFaults> {
    (0..=DcuPair::INTERNED_PAIRS)
        .map(|i| {
            let mut faults = SystemFaults::none();
            let links = faults.links_mut();
            let (side, bank) = (i % 2, i % 3);
            for node in 2..15 {
                links.break_horizontal(side, bank, node);
            }
            for bank in 0..2 {
                links.break_vertical(side, bank, 1 + i);
            }
            faults
        })
        .collect()
}

/// Interns [`DcuPair::INTERNED_PAIRS`] pairs under configurations no
/// sweep builds, evicting every pair the last sweep left.
fn flush_interner() {
    let base = NocConfig::default();
    for i in 0..DcuPair::INTERNED_PAIRS {
        DcuPair::new(&NocConfig {
            hop_latency_ns: base.hop_latency_ns * (2 + i) as f64,
            ..base.clone()
        });
    }
}

/// Every field of a report as bits: scalars, the tile breakdown, the raw
/// counts and each `(label, value)` of every breakdown.
fn bits(r: &TrainingReport) -> Vec<u128> {
    fn breakdown(out: &mut Vec<u128>, b: &Breakdown) {
        out.push(b.len() as u128);
        for (label, value) in b.iter() {
            out.extend(label.bytes().map(u128::from));
            out.push(u128::from(value.to_bits()));
        }
    }
    let mut out = vec![r.iterations as u128];
    let t = &r.tile_breakdown;
    let c = &r.counts;
    for v in [
        r.iteration_latency_ns,
        r.total_latency_ns,
        r.total_energy_pj,
        t.adc_pj,
        t.dac_pj,
        t.array_pj,
        t.shift_add_pj,
        t.cell_switching_pj,
        t.buffer_pj,
    ] {
        out.push(u128::from(v.to_bits()));
    }
    out.extend([
        c.crossbar_mmv_ops,
        c.weight_writes,
        c.buffer_values,
        c.sarray_read_values,
        c.sarray_write_values,
    ]);
    for b in [
        &r.energy_breakdown,
        &r.phase_latency,
        &r.resource_busy,
        &r.op_latency,
        &r.op_energy,
    ] {
        breakdown(&mut out, b);
    }
    out
}

fn build(spec: &GanSpec, point: Point, faults: SystemFaults) -> TrainingReport {
    let (_, scheme, connection, degree) = point;
    LerGan::builder(spec)
        .reshape_scheme(scheme)
        .connection(connection)
        .replica_degree(degree)
        .faults(faults)
        .build()
        .unwrap_or_else(|e| panic!("{} {point:?}: {e}", spec.name))
        .train_iterations(ITERATIONS)
}

/// Builds `order`'s points, each followed by the same point under one of
/// the fault sets (picked by point, so both orders pair them alike), and
/// returns each point's clean and faulted report bits, indexed by point.
fn sweep(specs: &[GanSpec], points: &[Point], order: &[usize]) -> Vec<[Vec<u128>; 2]> {
    let faults = fault_sets();
    let mut reports = vec![[Vec::new(), Vec::new()]; points.len()];
    for &i in order {
        let point = points[i];
        let spec = &specs[point.0];
        reports[i] = [
            bits(&build(spec, point, SystemFaults::none())),
            bits(&build(spec, point, faults[i % faults.len()].clone())),
        ];
    }
    reports
}

#[test]
fn reports_do_not_depend_on_build_order() {
    let mut specs = benchmarks::all();
    specs.extend(benchmarks::extended());
    let points = points(&specs);
    assert_eq!(points.len(), 80);
    let forward: Vec<usize> = (0..points.len()).collect();
    let reverse: Vec<usize> = forward.iter().rev().copied().collect();
    let fwd = sweep(&specs, &points, &forward);
    flush_interner();
    let rev = sweep(&specs, &points, &reverse);
    for (i, point) in points.iter().enumerate() {
        let name = &specs[point.0].name;
        assert!(
            fwd[i][0] == rev[i][0],
            "{name} {point:?}: clean report differs between build orders"
        );
        assert!(
            fwd[i][1] == rev[i][1],
            "{name} {point:?}: faulted report differs between build orders"
        );
    }
    let moved = fwd.iter().filter(|r| r[0] != r[1]).count();
    assert!(moved > 0, "no fault set moved any report");
}

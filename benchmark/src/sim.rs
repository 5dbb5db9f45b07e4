//! `sim_sweep`: the paper-figure half. One round is a pass over 80 design
//! points — the eight Table V GANs and the two extended-grammar GANs,
//! each under {ZFDR, normal reshape} × {3D, H-tree} × {low, high}
//! duplication — each built with `LerGan::builder(..).build()` and
//! simulated for ten iterations. The seed shuffles the order of every
//! pass; an item is one design point. No trainer or tensor code runs.
//!
//! Every pass's `iteration_latency_ns`/`total_energy_pj` bits, in
//! canonical point order, must hash to `golden/sim_sweep.digest`.

use crate::{stats, timed, Bench, Layers, Round};
use lergan_core::compiler::{self, CompilerOptions, PhaseDegrees};
use lergan_core::lergan::CostModel;
use lergan_core::schedule::{lower_iteration, ScheduleContext};
use lergan_core::{Connection, LerGan, ReplicaDegree, ReshapeScheme};
use lergan_gan::ir::OpGraph;
use lergan_gan::{benchmarks, GanSpec, Phase};
use lergan_noc::{DcuPair, NocConfig};
use lergan_reram::ReramConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// The digest every pass must reproduce.
const GOLDEN: &str = include_str!("../golden/sim_sweep.digest");

/// Iterations simulated per design point.
const ITERATIONS: usize = 10;

#[derive(Debug, Clone, Copy)]
struct Point {
    gan: usize,
    scheme: ReshapeScheme,
    connection: Connection,
    degree: ReplicaDegree,
}

impl Point {
    fn options(&self) -> CompilerOptions {
        CompilerOptions {
            scheme: self.scheme,
            degree: self.degree,
            connection: self.connection,
            phase_degrees: PhaseDegrees::none(),
        }
    }

    fn build(&self, spec: &GanSpec) -> Result<LerGan, String> {
        LerGan::builder(spec)
            .reshape_scheme(self.scheme)
            .connection(self.connection)
            .replica_degree(self.degree)
            .build()
            .map_err(|e| e.to_string())
    }
}

/// FNV-1a over the little-endian bytes of `words`.
fn digest(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The sweep: specs, points, the seeded pass order and the last pass's
/// result bits.
pub struct Sweep {
    specs: Vec<GanSpec>,
    points: Vec<Point>,
    order: Vec<usize>,
    rng: StdRng,
    bits: Vec<u64>,
    golden: u64,
}

impl Sweep {
    pub fn setup(seed: u64) -> Result<Sweep, String> {
        let golden = u64::from_str_radix(GOLDEN.trim(), 16)
            .map_err(|e| format!("golden/sim_sweep.digest is not a hex u64: {e}"))?;
        let mut specs = benchmarks::all();
        specs.extend(benchmarks::extended());
        let mut points = Vec::new();
        for gan in 0..specs.len() {
            for scheme in [ReshapeScheme::Zfdr, ReshapeScheme::Normal] {
                for connection in [Connection::ThreeD, Connection::HTree] {
                    for degree in [ReplicaDegree::Low, ReplicaDegree::High] {
                        points.push(Point {
                            gan,
                            scheme,
                            connection,
                            degree,
                        });
                    }
                }
            }
        }
        let mut sweep = Sweep {
            order: (0..points.len()).collect(),
            bits: vec![0; 2 * points.len()],
            specs,
            points,
            rng: StdRng::seed_from_u64(seed),
            golden,
        };
        // One warm-up pass, which must already reproduce the golden digest.
        if sweep.round().failed > 0 {
            return Err("warm-up pass failed its checks".into());
        }
        Ok(sweep)
    }
}

impl Bench for Sweep {
    fn round(&mut self) -> Round {
        // Fisher–Yates shuffle of the pass order.
        for i in (1..self.order.len()).rev() {
            let j = (self.rng.gen::<u64>() % (i as u64 + 1)) as usize;
            self.order.swap(i, j);
        }
        let mut failed = 0;
        for &idx in &self.order {
            let point = self.points[idx];
            match point.build(&self.specs[point.gan]) {
                Ok(accel) => {
                    let report = accel.train_iterations(ITERATIONS);
                    self.bits[2 * idx] = report.iteration_latency_ns.to_bits();
                    self.bits[2 * idx + 1] = report.total_energy_pj.to_bits();
                }
                Err(e) => {
                    eprintln!("sim_sweep: point {idx} failed to build: {e}");
                    failed += 1;
                }
            }
        }
        let got = digest(&self.bits);
        if failed == 0 && got != self.golden {
            eprintln!(
                "sim_sweep: digest {got:016x} != golden {:016x}",
                self.golden
            );
            failed = self.points.len() as u64;
        }
        let n = self.points.len() as u64;
        Round {
            items: n,
            ops: n,
            failed,
        }
    }

    /// Per iteration, one bare pass (a round, untraced) and then, point by
    /// point in canonical order: the IR build, the compile, the whole
    /// build, the simulation, and the simulation split into lowering and
    /// the event engine — the latter two with their context rebuilt from
    /// `LerGan` accessors and defaults, and checked to reproduce the
    /// report's latency bit for bit. Shares are over the bare pass timed
    /// in the same seconds.
    fn trace(&mut self, seconds: f64) -> Layers {
        let mut layers = Layers::default();
        // [ir, compile, build, simulate, lower, run, bare pass] seconds.
        let mut rows: Vec<[f64; 7]> = Vec::new();
        let (mut tasks, mut run_s) = (0usize, 0.0);
        let reram = ReramConfig::default();
        let noc = NocConfig::default();
        let cost = CostModel::default();
        let until = Instant::now();
        while rows.is_empty() || until.elapsed().as_secs_f64() < seconds {
            let mut t = [0.0; 7];
            layers.failed += timed(&mut t[6], || self.round()).failed;
            for point in &self.points {
                let spec = &self.specs[point.gan];
                timed(&mut t[0], || black_box(OpGraph::build(spec)));
                timed(&mut t[1], || {
                    black_box(compiler::compile(spec, point.options(), &reram))
                });
                let accel = match timed(&mut t[2], || point.build(spec)) {
                    Ok(a) => a,
                    Err(e) => {
                        eprintln!("sim_sweep: traced build failed: {e}");
                        layers.failed += 1;
                        continue;
                    }
                };
                let report = timed(&mut t[3], || accel.train_iterations(ITERATIONS));
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
                let lowered = timed(&mut t[4], || lower_iteration(&ctx));
                let mut dt = 0.0;
                match timed(&mut dt, || lowered.engine.run()) {
                    Ok(schedule)
                        if schedule.makespan_ns().to_bits()
                            == report.iteration_latency_ns.to_bits() =>
                    {
                        tasks += schedule.len();
                    }
                    _ => {
                        eprintln!("sim_sweep: replayed schedule disagrees with the report");
                        layers.failed += 1;
                    }
                }
                t[5] += dt;
                run_s += dt;
            }
            rows.push(t);
        }
        let m = stats::column_medians(&rows);
        let pass = m[6];
        let points = (rows.len() * self.points.len()) as f64;
        layers.values.extend([
            ("gan.ir_build_share", m[0] / pass),
            ("core.compile_share", m[1] / pass),
            ("core.build_share", m[2] / pass),
            ("core.simulate_share", m[3] / pass),
            ("core.lower_share", m[4] / pass),
            ("sim.run_share", m[5] / pass),
            ("trace.coverage", (m[2] + m[3]) / pass),
            ("sim.tasks", tasks as f64 / points),
            ("sim.tasks_per_us", tasks as f64 / (run_s * 1e6)),
        ]);
        layers
    }
}

//! Data generators for every evaluation figure (Fig. 16–24) and the
//! Sec. VI-E overhead analysis.
//!
//! Conventions shared with the paper:
//!
//! * training runs ten iterations per benchmark and averages (Fig. 19+);
//! * `2D`/`3D` denote H-tree vs 3D connection; `NR` denotes normal
//!   (zero-inserted) reshaping;
//! * `NS` denotes space-normalised comparison: PRIME granted the same
//!   CArray space as the LerGAN configuration it is compared against.

use crate::harness;
use lergan_baselines::{FpgaGan, GpuPlatform, Prime};
use lergan_core::compiler::{self, CompilerOptions};
use lergan_core::{Connection, LerGan, ReplicaDegree, ReshapeScheme, TrainingReport};
use lergan_gan::analysis::summarize_phase;
use lergan_gan::{benchmarks, GanSpec, Phase};
use lergan_reram::area::AreaModel;
use lergan_reram::{EnergyModel, ReramConfig};
use std::hint::black_box;
use std::time::Duration;

/// Iterations per measurement, as in the paper ("we train the
/// discriminator and generator of each GAN for ten iterations").
pub const ITERATIONS: usize = 10;

fn run(
    gan: &GanSpec,
    scheme: ReshapeScheme,
    connection: Connection,
    degree: ReplicaDegree,
) -> TrainingReport {
    LerGan::builder(gan)
        .reshape_scheme(scheme)
        .connection(connection)
        .replica_degree(degree)
        .build()
        .expect("Table V benchmarks map onto the default configuration")
        .train_iterations(ITERATIONS)
}

/// Convenience: the per-iteration latency of a configuration.
pub fn latency_ms(
    gan: &GanSpec,
    scheme: ReshapeScheme,
    connection: Connection,
    degree: ReplicaDegree,
) -> f64 {
    run(gan, scheme, connection, degree).iteration_latency_ns / 1e6
}

// ---------------------------------------------------------------- Fig 16

/// One phase's ZFDR effectiveness for one GAN.
#[derive(Debug, Clone)]
pub struct Fig16Row {
    /// Benchmark name.
    pub gan: String,
    /// Phase label (G→, G-w, D←, D-w, …).
    pub phase: String,
    /// Compute speedup of ZFDR over normal reshape on this phase
    /// (useful-vs-dense MAC ratio — the pure-ZFDR arithmetic effect).
    pub mac_speedup: f64,
    /// MMV-cycle speedup of the compiled ZFDR mapping over the compiled
    /// normal-reshape mapping (parallel reshaped matrices vs the serial
    /// scan) — the quantity Fig. 16's bars measure.
    pub cycle_speedup: f64,
    /// SArray space saving on the phase's moved data.
    pub space_saving: f64,
}

/// Fig. 16: the per-phase effectiveness of ZFDR across the benchmarks.
pub fn fig16() -> Vec<Fig16Row> {
    let cfg = ReramConfig::default();
    let mut rows = Vec::new();
    for gan in benchmarks::all() {
        let zfdr = lergan_core::compiler::compile(
            &gan,
            lergan_core::CompilerOptions {
                scheme: ReshapeScheme::Zfdr,
                degree: ReplicaDegree::Low,
                connection: Connection::ThreeD,
                phase_degrees: Default::default(),
            },
            &cfg,
        );
        let normal = lergan_core::compiler::compile(
            &gan,
            lergan_core::CompilerOptions {
                scheme: ReshapeScheme::Normal,
                degree: ReplicaDegree::Low,
                connection: Connection::ThreeD,
                phase_degrees: Default::default(),
            },
            &cfg,
        );
        for phase in gan.zfdr_phases() {
            let s = summarize_phase(&gan, phase);
            let zc = zfdr.phase(phase).cycles_per_sample().max(1);
            let nc = normal.phase(phase).cycles_per_sample().max(1);
            rows.push(Fig16Row {
                gan: gan.name.clone(),
                phase: phase.to_string(),
                mac_speedup: s.macs_dense as f64 / s.macs_useful.max(1) as f64,
                cycle_speedup: nc as f64 / zc as f64,
                space_saving: s.space_saving(),
            });
        }
    }
    rows
}

/// The headline Fig. 16 aggregates: (DCGAN G→ saving, average saving
/// across all ZFDR phases). Paper: 5.2× and 3.86×. (3D-GAN's volumetric
/// phases save more than 5.2× because the zero ratio cubes; the paper's
/// maximum is quoted for DCGAN.)
pub fn fig16_space_savings() -> (f64, f64) {
    let rows = fig16();
    let dcgan_gf = rows
        .iter()
        .find(|r| r.gan == "DCGAN" && r.phase == Phase::GForward.to_string())
        .map(|r| r.space_saving)
        .unwrap_or(1.0);
    let avg = rows.iter().map(|r| r.space_saving).sum::<f64>() / rows.len() as f64;
    (dcgan_gf, avg)
}

// ---------------------------------------------------------------- Fig 17/18

/// Speedups over the NR + H-tree baseline for one benchmark.
#[derive(Debug, Clone)]
pub struct ConnectionRow {
    /// Benchmark name.
    pub gan: String,
    /// ZFDR on the H-tree, no duplication.
    pub zfdr_2d_nodup: f64,
    /// ZFDR on the 3D connection, no duplication.
    pub zfdr_3d_nodup: f64,
    /// ZFDR on the H-tree, low duplication.
    pub zfdr_2d_low: f64,
    /// ZFDR on the 3D connection, low duplication.
    pub zfdr_3d_low: f64,
    /// Normal reshape on the 3D connection.
    pub nr_3d: f64,
}

/// Fig. 17/18 data: every connection × reshape combination, normalised to
/// NR + H-tree (the PRIME-style mapping).
pub fn fig17_18() -> Vec<ConnectionRow> {
    benchmarks::all()
        .into_iter()
        .map(|gan| {
            let base = latency_ms(
                &gan,
                ReshapeScheme::Normal,
                Connection::HTree,
                ReplicaDegree::Low,
            );
            let s = |scheme, conn, degree| base / latency_ms(&gan, scheme, conn, degree);
            ConnectionRow {
                zfdr_2d_nodup: s(
                    ReshapeScheme::Zfdr,
                    Connection::HTree,
                    ReplicaDegree::NoDuplication,
                ),
                zfdr_3d_nodup: s(
                    ReshapeScheme::Zfdr,
                    Connection::ThreeD,
                    ReplicaDegree::NoDuplication,
                ),
                zfdr_2d_low: s(ReshapeScheme::Zfdr, Connection::HTree, ReplicaDegree::Low),
                zfdr_3d_low: s(ReshapeScheme::Zfdr, Connection::ThreeD, ReplicaDegree::Low),
                nr_3d: s(
                    ReshapeScheme::Normal,
                    Connection::ThreeD,
                    ReplicaDegree::Low,
                ),
                gan: gan.name,
            }
        })
        .collect()
}

/// Fig. 18 averages: (ZFDR+3D with dup, ZFDR+3D without dup, NR+3D),
/// paper: 5.11× / 2.77× / 1.31×.
pub fn fig18_averages() -> (f64, f64, f64) {
    let rows = fig17_18();
    let n = rows.len() as f64;
    (
        rows.iter().map(|r| r.zfdr_3d_low).sum::<f64>() / n,
        rows.iter().map(|r| r.zfdr_3d_nodup).sum::<f64>() / n,
        rows.iter().map(|r| r.nr_3d).sum::<f64>() / n,
    )
}

// ---------------------------------------------------------------- Fig 19/20

/// LerGAN vs PRIME for one benchmark (Fig. 19 speedups, Fig. 20 energy).
#[derive(Debug, Clone)]
pub struct PrimeComparisonRow {
    /// Benchmark name.
    pub gan: String,
    /// Speedup of LerGAN-{low,middle,high} over plain PRIME.
    pub speedup: [f64; 3],
    /// Speedup of LerGAN-{low,middle,high} over space-equalised PRIME.
    pub speedup_ns: [f64; 3],
    /// Energy saving of LerGAN-{low,middle,high} over plain PRIME.
    pub energy_saving: [f64; 3],
    /// Energy saving over space-equalised PRIME.
    pub energy_saving_ns: [f64; 3],
}

/// Fig. 19/20 data.
pub fn fig19_20() -> Vec<PrimeComparisonRow> {
    benchmarks::all()
        .into_iter()
        .map(|gan| {
            let prime = Prime::new().train_iteration(&gan);
            let prime_ns = Prime::normalized_space().train_iteration(&gan);
            let mut speedup = [0.0; 3];
            let mut speedup_ns = [0.0; 3];
            let mut energy_saving = [0.0; 3];
            let mut energy_saving_ns = [0.0; 3];
            for (i, degree) in ReplicaDegree::ALL.into_iter().enumerate() {
                let r = run(&gan, ReshapeScheme::Zfdr, Connection::ThreeD, degree);
                let e = r.total_energy_pj / r.iterations as f64;
                speedup[i] = prime.iteration_latency_ns / r.iteration_latency_ns;
                speedup_ns[i] = prime_ns.iteration_latency_ns / r.iteration_latency_ns;
                energy_saving[i] = prime.iteration_energy_pj / e;
                energy_saving_ns[i] = prime_ns.iteration_energy_pj / e;
            }
            PrimeComparisonRow {
                gan: gan.name,
                speedup,
                speedup_ns,
                energy_saving,
                energy_saving_ns,
            }
        })
        .collect()
}

// ---------------------------------------------------------------- Fig 21/22

/// LerGAN vs FPGA-GAN and GPU for one benchmark.
#[derive(Debug, Clone)]
pub struct PlatformComparisonRow {
    /// Benchmark name.
    pub gan: String,
    /// Speedup of LerGAN-{low,middle,high} over the FPGA accelerator.
    pub speedup_fpga: [f64; 3],
    /// Speedup over the GPU platform.
    pub speedup_gpu: [f64; 3],
    /// Energy saving over the FPGA accelerator (may dip below 1).
    pub energy_saving_fpga: [f64; 3],
    /// Energy saving over the GPU platform.
    pub energy_saving_gpu: [f64; 3],
}

/// Fig. 21/22 data.
pub fn fig21_22() -> Vec<PlatformComparisonRow> {
    benchmarks::all()
        .into_iter()
        .map(|gan| {
            let fpga = FpgaGan::new().train_iteration(&gan);
            let gpu = GpuPlatform::new().train_iteration(&gan);
            let mut row = PlatformComparisonRow {
                gan: gan.name.clone(),
                speedup_fpga: [0.0; 3],
                speedup_gpu: [0.0; 3],
                energy_saving_fpga: [0.0; 3],
                energy_saving_gpu: [0.0; 3],
            };
            for (i, degree) in ReplicaDegree::ALL.into_iter().enumerate() {
                let r = run(&gan, ReshapeScheme::Zfdr, Connection::ThreeD, degree);
                let e = r.total_energy_pj / r.iterations as f64;
                row.speedup_fpga[i] = fpga.iteration_latency_ns / r.iteration_latency_ns;
                row.speedup_gpu[i] = gpu.iteration_latency_ns / r.iteration_latency_ns;
                row.energy_saving_fpga[i] = fpga.iteration_energy_pj / e;
                row.energy_saving_gpu[i] = gpu.iteration_energy_pj / e;
            }
            row
        })
        .collect()
}

/// Fleet averages for the headline claims:
/// (speedup vs FPGA, speedup vs GPU, energy saving vs GPU,
/// LerGAN/FPGA energy ratio). Paper: 47.2×, 21.42×, 9.75×, 1.04×.
pub fn headline_averages() -> (f64, f64, f64, f64) {
    let rows = fig21_22();
    let n = rows.len() as f64;
    let sf = rows.iter().map(|r| r.speedup_fpga[0]).sum::<f64>() / n;
    let sg = rows.iter().map(|r| r.speedup_gpu[0]).sum::<f64>() / n;
    let eg = rows.iter().map(|r| r.energy_saving_gpu[0]).sum::<f64>() / n;
    let ef = rows
        .iter()
        .map(|r| 1.0 / r.energy_saving_fpga[0])
        .sum::<f64>()
        / n;
    (sf, sg, eg, ef)
}

// ---------------------------------------------------------------- Fig 23/24

/// Fig. 23: overall LerGAN energy shares aggregated over the benchmarks:
/// (compute, communication, other). Paper: 70.4 % / 16 % / 13.6 %.
pub fn fig23() -> (f64, f64, f64) {
    // Average of per-benchmark shares (so one huge benchmark does not
    // dominate the distribution).
    let mut compute = 0.0;
    let mut comm = 0.0;
    let mut other = 0.0;
    let gans = benchmarks::all();
    for gan in &gans {
        let r = run(
            gan,
            ReshapeScheme::Zfdr,
            Connection::ThreeD,
            ReplicaDegree::Low,
        );
        compute += r.energy_breakdown.share("compute");
        comm += r.energy_breakdown.share("communication");
        other += r.energy_breakdown.share("other");
    }
    let n = gans.len() as f64;
    (compute / n, comm / n, other / n)
}

/// Fig. 24: the per-tile energy shares (ADC, cell switching, other)
/// aggregated over the benchmarks, plus the Sec. VI-D what-if power
/// reduction. Paper: 45.14 %, 40.16 %, ~14.7 %, ≈3×.
pub fn fig24() -> (f64, f64, f64, f64) {
    let mut acc = lergan_reram::EnergyCounts::default();
    for gan in benchmarks::all() {
        let r = run(
            &gan,
            ReshapeScheme::Zfdr,
            Connection::ThreeD,
            ReplicaDegree::Low,
        );
        acc.accumulate(&r.counts);
    }
    let model = EnergyModel::default();
    let b = model.breakdown(&acc);
    let whatif = model.optimistic_whatif().breakdown(&acc);
    (
        b.adc_share(),
        b.cell_switching_share(),
        b.other_share(),
        b.total_pj() / whatif.total_pj(),
    )
}

// ---------------------------------------------------------------- overhead

/// Sec. VI-E overhead data.
#[derive(Debug, Clone, Copy)]
pub struct OverheadReport {
    /// Extra compile time of the ZFDR pipeline over normal mapping
    /// (fraction; paper: 0.3252): the median over alternating timing
    /// windows of the per-pair time ratio, minus one.
    pub compile_overhead: f64,
    /// Interquartile range of those per-pair ratios (fraction): the
    /// measurement's spread.
    pub compile_overhead_iqr: f64,
    /// Extra chip area of the 3D wires/switches (fraction; paper: 0.133).
    pub area_overhead: f64,
    /// Speedup of LerGAN over PRIME granted the same space
    /// (paper: 2.1×).
    pub same_space_speedup: f64,
}

/// Timing window of each side of the compile-overhead pairs.
const COMPILE_WINDOW: Duration = Duration::from_millis(20);

/// Measures the Sec. VI-E overheads.
pub fn overhead() -> OverheadReport {
    // Compile-time overhead: the eight Table V GANs compiled under ZFDR on
    // the 3D fabric against normal mapping on the H-tree, in alternating
    // windows after a warm-up of each side, so a slow period of the host
    // stretches both sides of a pair alike.
    let cfg = ReramConfig::default();
    let gans = benchmarks::all();
    let compile_all = |scheme, connection| {
        for gan in &gans {
            let options = CompilerOptions {
                scheme,
                degree: ReplicaDegree::Low,
                connection,
                phase_degrees: Default::default(),
            };
            black_box(compiler::compile(black_box(gan), options, &cfg));
        }
    };
    let timing = harness::time_pair(
        COMPILE_WINDOW,
        || compile_all(ReshapeScheme::Zfdr, Connection::ThreeD),
        || compile_all(ReshapeScheme::Normal, Connection::HTree),
    );

    let area_overhead = AreaModel::default().overhead(&cfg);

    // Same-space speedup: LerGAN-low vs PRIME with equalised CArray space.
    let mut acc = 0.0;
    let gans = benchmarks::all();
    for gan in &gans {
        let prime_ns = Prime::normalized_space().train_iteration(gan);
        let lergan = run(
            gan,
            ReshapeScheme::Zfdr,
            Connection::ThreeD,
            ReplicaDegree::Low,
        );
        acc += prime_ns.iteration_latency_ns / lergan.iteration_latency_ns;
    }
    OverheadReport {
        compile_overhead: timing.ratio - 1.0,
        compile_overhead_iqr: timing.ratio_iqr,
        area_overhead,
        same_space_speedup: acc / gans.len() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig16_has_rows_for_every_zfdr_phase() {
        let rows = fig16();
        // 5 GANs with 4 phases, both DiscoGANs with 5 (their generators
        // mix S-CONV and T-CONV), and MAGAN with 2 (FC discriminator).
        assert_eq!(rows.len(), 5 * 4 + 2 * 5 + 2);
        assert!(rows.iter().all(|r| r.mac_speedup >= 1.0));
    }

    #[test]
    fn fig16_space_savings_match_paper_band() {
        let (dcgan, avg) = fig16_space_savings();
        assert!(
            (4.5..=6.0).contains(&dcgan),
            "DCGAN G-forward saving {dcgan:.2} (paper: 5.2x)"
        );
        assert!(
            (2.5..=5.0).contains(&avg),
            "avg saving {avg:.2} (paper: 3.86x)"
        );
    }

    #[test]
    fn fig18_ordering_matches_paper() {
        let (zfdr_dup, zfdr_nodup, nr3d) = fig18_averages();
        assert!(
            zfdr_dup >= zfdr_nodup && zfdr_nodup > nr3d && nr3d > 1.0,
            "ordering broken: {zfdr_dup:.2} / {zfdr_nodup:.2} / {nr3d:.2} \
             (paper: 5.11 / 2.77 / 1.31)"
        );
    }

    #[test]
    fn fig17_zfdr_needs_3d() {
        // "When we evaluate ... with H-tree connection, the speedup of
        // ZFDR almost disappears."
        for row in fig17_18() {
            assert!(
                row.zfdr_3d_low > row.zfdr_2d_low,
                "{}: 3D {:.2} should beat 2D {:.2}",
                row.gan,
                row.zfdr_3d_low,
                row.zfdr_2d_low
            );
        }
    }

    #[test]
    fn fig23_shares_match_paper_shape() {
        let (compute, comm, other) = fig23();
        assert!(
            (0.60..=0.85).contains(&compute),
            "compute share {compute:.3} (paper 0.704)"
        );
        assert!((0.05..=0.25).contains(&comm), "comm {comm:.3} (paper 0.16)");
        assert!(
            (0.05..=0.25).contains(&other),
            "other {other:.3} (paper 0.136)"
        );
    }

    #[test]
    fn fig24_shares_and_whatif() {
        let (adc, switch, other, reduction) = fig24();
        assert!((0.35..=0.55).contains(&adc), "adc {adc:.3} (paper 0.4514)");
        assert!(
            (0.30..=0.50).contains(&switch),
            "switch {switch:.3} (paper 0.4016)"
        );
        assert!((other - (1.0 - adc - switch)).abs() < 1e-9);
        assert!(
            (2.0..=4.0).contains(&reduction),
            "what-if reduction {reduction:.2} (paper ~3x)"
        );
    }

    #[test]
    fn overhead_matches_paper_bands() {
        let o = overhead();
        assert!((o.area_overhead - 0.133).abs() < 0.01);
        assert!(
            o.same_space_speedup > 1.3,
            "same-space speedup {:.2} (paper 2.1x)",
            o.same_space_speedup
        );
        // Compile overhead is measured wall time; just require that ZFDR
        // compilation costs more, and that the spread is a real number.
        assert!(
            o.compile_overhead > 0.0,
            "ZFDR compile overhead {:.3} should be positive (paper 0.3252)",
            o.compile_overhead
        );
        assert!(o.compile_overhead_iqr.is_finite() && o.compile_overhead_iqr >= 0.0);
    }
}

//! Whole-report regression: every field of `TrainingReport`, bit for bit.
//!
//! `golden_report.rs` pins two totals of the default build. This test pins
//! everything a report carries — the scalar fields, the Fig. 24 tile
//! breakdown, the raw counts, and every `(label, value)` entry of the
//! energy, phase, resource and per-op breakdowns — for the eight Table V
//! GANs under {ZFDR, normal reshape} × {3D, H-tree}, once on a pristine
//! fabric and once under each of two seeded link-fault sets. The fault
//! sets break half or more of the added wires and freeze a few switches,
//! so many flows detour over the H-tree and the bus, where equal-latency
//! alternatives are common. Which of two such alternatives the route
//! search picks is pinned at the route level by the linear-scan oracle in
//! `lergan-noc`'s `dcu` tests; on the paths the lowering uses, tied
//! alternatives have so far cost the same energy and width, so a report
//! does not see the choice.
//!
//! The golden digests were generated on the commit *before* the heap route
//! search, the per-lowering route cache and the once-per-layer ZFDR
//! summaries landed, so a match proves those changes left every simulated
//! bit unchanged.

use lergan_core::{Connection, LerGan, ReshapeScheme, SystemFaults, TrainingReport};
use lergan_gan::benchmarks;
use lergan_sim::Breakdown;

/// Iterations per simulated design point.
const ITERATIONS: usize = 10;

/// `(gan, [pristine, faults A, faults B])` digests.
const GOLDEN: [(&str, [u64; 3]); 8] = [
    (
        "DCGAN",
        [0xc36007d015f38ae6, 0x38294d202312cf44, 0x5c346cb219109746],
    ),
    (
        "cGAN",
        [0xfa7e0926a4754b17, 0x11c5ac65d078b1fd, 0x9e1b062f9fc5075a],
    ),
    (
        "3D-GAN",
        [0x94f7da585b6e1a89, 0xbc22568e7d326e81, 0x4573f06714406773],
    ),
    (
        "ArtGAN-CIFAR-10",
        [0x8ef1df11a00b8477, 0x64ebf46487d24b1e, 0x422c68281872e445],
    ),
    (
        "GPGAN",
        [0x856c1a17103e95c5, 0x376746c7514deb20, 0x505bed1f1e48325f],
    ),
    (
        "MAGAN-MNIST",
        [0xc6d44cf9cce66c94, 0x5ecf13fc21d5e539, 0xc6ef33797331af28],
    ),
    (
        "DiscoGAN-4pairs",
        [0x1ae93c8660d44029, 0x860ee26ba64cadf8, 0x3b0e9560253cf469],
    ),
    (
        "DiscoGAN-5pairs",
        [0x4eecac2ad40df99f, 0xce06ceb98de25d91, 0x03ca822653224c00],
    ),
];

/// FNV-1a, fed field by field.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn u128(&mut self, v: u128) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn breakdown(&mut self, b: &Breakdown) {
        self.u64(b.len() as u64);
        for (label, value) in b.iter() {
            self.u64(label.len() as u64);
            self.bytes(label.as_bytes());
            self.f64(value);
        }
    }

    fn report(&mut self, r: &TrainingReport) {
        self.u64(r.iterations as u64);
        self.f64(r.iteration_latency_ns);
        self.f64(r.total_latency_ns);
        self.f64(r.total_energy_pj);
        self.breakdown(&r.energy_breakdown);
        let t = &r.tile_breakdown;
        for v in [
            t.adc_pj,
            t.dac_pj,
            t.array_pj,
            t.shift_add_pj,
            t.cell_switching_pj,
            t.buffer_pj,
        ] {
            self.f64(v);
        }
        let c = &r.counts;
        for v in [
            c.crossbar_mmv_ops,
            c.weight_writes,
            c.buffer_values,
            c.sarray_read_values,
            c.sarray_write_values,
        ] {
            self.u128(v);
        }
        self.breakdown(&r.phase_latency);
        self.breakdown(&r.resource_busy);
        self.breakdown(&r.op_latency);
        self.breakdown(&r.op_energy);
    }
}

/// SplitMix64: a self-contained stream, so the fault sets never depend on
/// another crate's generator.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded link-fault set: each added wire breaks with probability
/// `break_per_8 / 8`, and each internal node's switch freezes with
/// probability 1/16. Tree links stay intact, so every endpoint stays
/// reachable.
fn link_faults(seed: u64, break_per_8: u64) -> SystemFaults {
    let mut state = seed;
    let mut faults = SystemFaults::none();
    let links = faults.links_mut();
    for side in 0..2 {
        for bank in 0..3 {
            for node in 2..16 {
                if splitmix(&mut state) % 8 < break_per_8 {
                    links.break_horizontal(side, bank, node);
                }
            }
            for node in 1..16 {
                if splitmix(&mut state).is_multiple_of(16) {
                    links.stick_switch(side, bank, node);
                }
            }
        }
        for bank in 0..2 {
            for node in 1..16 {
                if splitmix(&mut state) % 8 < break_per_8 {
                    links.break_vertical(side, bank, node);
                }
            }
        }
    }
    faults
}

fn scenarios() -> [SystemFaults; 3] {
    [
        SystemFaults::none(),
        link_faults(0x5eed_0001, 4),
        link_faults(0x5eed_0002, 6),
    ]
}

#[test]
fn every_report_field_matches_the_pre_change_golden() {
    let gans = benchmarks::all();
    assert_eq!(gans.len(), GOLDEN.len());
    let scenarios = scenarios();
    let mut mismatches = Vec::new();
    let mut table = String::new();
    for (gan, (name, golden)) in gans.iter().zip(GOLDEN) {
        assert_eq!(gan.name, name, "benchmark order changed");
        let mut got = [0u64; 3];
        for (slot, faults) in got.iter_mut().zip(&scenarios) {
            let mut h = Fnv::new();
            for scheme in [ReshapeScheme::Zfdr, ReshapeScheme::Normal] {
                for connection in [Connection::ThreeD, Connection::HTree] {
                    let accel = LerGan::builder(gan)
                        .reshape_scheme(scheme)
                        .connection(connection)
                        .faults(faults.clone())
                        .build()
                        .unwrap_or_else(|e| panic!("{name} {scheme:?} {connection:?}: {e}"));
                    h.report(&accel.train_iterations(ITERATIONS));
                }
            }
            *slot = h.0;
        }
        table.push_str(&format!(
            "    (\"{name}\", [0x{:016x}, 0x{:016x}, 0x{:016x}]),\n",
            got[0], got[1], got[2]
        ));
        if got != golden {
            mismatches.push(name);
        }
    }
    assert!(
        mismatches.is_empty(),
        "report digests drifted for {mismatches:?}; computed table:\n{table}"
    );
}

#[test]
fn seeded_fault_sets_reroute_and_are_deterministic() {
    let [_, a, b] = scenarios();
    for faults in [&a, &b] {
        assert!(faults.links().broken_wires() > 20);
        assert_eq!(faults.links().severed_tree_links(), 0);
    }
    assert_eq!(a, link_faults(0x5eed_0001, 4));
    assert_ne!(a, b);
}

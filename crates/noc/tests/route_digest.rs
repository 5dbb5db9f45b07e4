//! Golden digest of every route a [`DcuPair`] answers.
//!
//! For each ordered pair of addressable endpoints (every routing node and
//! tile leaf of both sides and all three banks) and both modes, the route
//! is hashed: its edge kinds in order, the latency and energy bits, the
//! narrowest width and the switch nodes — or the typed error when the
//! fabric is partitioned. One digest covers a pristine pair, another a
//! pair under combined link faults (broken horizontal and vertical wires,
//! frozen switches and severed tree links at once).
//!
//! The in-crate heap-versus-scan property reads the same adjacency as the
//! search it checks, so a fault in how the fabric is built (a wire's
//! weight, a wire kept in the wrong mode) moves both sides together and
//! passes it; these digests were taken from the adjacency-list fabric and
//! pin the routes themselves.

use lergan_noc::dcu::EdgeKind;
use lergan_noc::{DcuPair, Endpoint, LinkFaults, Mode, NocConfig};

/// Digest of every route of `DcuPair::new(&NocConfig::default())`.
const PRISTINE: u64 = 0x4034_4d16_cacd_49e5;
/// Digest of every route of the pair under [`combined_faults`].
const FAULTED: u64 = 0x176f_a809_7e21_5551;

/// FNV-1a, fed one little-endian word at a time.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn kind_code(kind: EdgeKind) -> u64 {
    match kind {
        EdgeKind::Tree => 1,
        EdgeKind::Horizontal => 2,
        EdgeKind::Vertical => 3,
        EdgeKind::Bypass => 4,
        EdgeKind::Bus => 5,
    }
}

fn endpoints(cfg: &NocConfig) -> Vec<Endpoint> {
    let mut out = Vec::new();
    for side in 0..2 {
        for bank in 0..3 {
            for node in 1..2 * cfg.tiles_per_bank {
                out.push(Endpoint { side, bank, node });
            }
        }
    }
    out
}

/// Hashes every `(from, to, mode)` route of `pair`; also returns how many
/// routes were unreachable.
fn route_digest(pair: &DcuPair) -> (u64, usize) {
    let all = endpoints(pair.config());
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut unreachable = 0;
    for mode in [Mode::Smode, Mode::Cmode] {
        for &from in &all {
            for &to in &all {
                match pair.route(from, to, mode) {
                    Ok(r) => {
                        h.word(r.edges.len() as u64);
                        for &e in &r.edges {
                            h.word(kind_code(e));
                        }
                        h.word(r.latency_ns.to_bits());
                        h.word(r.energy_pj_per_access.to_bits());
                        h.word(u64::from(r.min_width_bits));
                        h.word(r.switch_nodes.len() as u64);
                        for &(side, bank, node) in &r.switch_nodes {
                            h.word(side as u64);
                            h.word(bank as u64);
                            h.word(node as u64);
                        }
                    }
                    Err(_) => {
                        unreachable += 1;
                        h.word(u64::MAX);
                    }
                }
            }
        }
    }
    (h.0, unreachable)
}

/// Broken wires on both sides and several banks, two frozen switches and
/// one severed tree link (which partitions a leaf off its bank).
fn combined_faults() -> LinkFaults {
    let mut f = LinkFaults::none();
    f.break_horizontal(0, 0, 4)
        .break_horizontal(0, 1, 7)
        .break_horizontal(1, 2, 10)
        .break_vertical(0, 0, 3)
        .break_vertical(1, 1, 6)
        .break_vertical(1, 0, 1)
        .stick_switch(0, 1, 5)
        .stick_switch(1, 2, 12)
        .sever_tree(1, 0, 21);
    f
}

#[test]
fn pristine_pair_routes_match_their_digest() {
    let (digest, unreachable) = route_digest(&DcuPair::new(&NocConfig::default()));
    assert_eq!(unreachable, 0);
    assert_eq!(digest, PRISTINE, "pristine route digest {digest:016x}");
}

#[test]
fn faulted_pair_routes_match_their_digest() {
    let pair = DcuPair::with_faults(&NocConfig::default(), &combined_faults());
    let (digest, unreachable) = route_digest(&pair);
    // The severed leaf is cut off from every other endpoint, both ways,
    // in both modes.
    let others = endpoints(pair.config()).len() - 1;
    assert_eq!(unreachable, 2 * 2 * others);
    assert_eq!(digest, FAULTED, "faulted route digest {digest:016x}");
}

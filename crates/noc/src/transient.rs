//! Transient interconnect faults: in-flight bit-flips and dropped
//! transfers on the added wires.
//!
//! [`crate::fault::LinkFaults`] models *permanent* topology damage — a
//! severed wire stays severed, and routing simply never uses it. Real
//! added wires also fail *transiently*: crosstalk on the long horizontal
//! runs, marginal TSV contacts on the vertical wires, and switch
//! metastability corrupt or drop individual transfers while the wire
//! itself remains healthy. [`TransientFaults`] models exactly that class:
//! a seeded, **stateless** hazard on every added wire a route traverses,
//! evaluated per `(transfer, attempt)` so a retransmission of the same
//! payload can succeed where the first attempt was hit.
//!
//! Determinism is the whole design: an outcome is a pure hash of
//! `(seed, wire, sequence number, attempt)`, so the same fault model
//! replayed over the same transfer sequence produces bit-identical
//! corruption — across runs and across `LERGAN_THREADS` settings — and a
//! failing chaos schedule shrinks to a seed, not a heisenbug.
//!
//! Detection is real, not oracular: [`checked_transfer`] synthesises the
//! transfer's payload words from the same seed, applies the hazard's bit
//! flips, and compares CRC-32 checksums end to end. The retransmit
//! *policy* (backoff, soft-quarantine, re-route) lives above this crate in
//! `lergan-core`; this module provides the mechanism and the costs.

use crate::config::NocConfig;
use crate::dcu::Route;
use crate::fault::LinkFaults;

/// Identity of one added wire, in the same `(side, bank, node)`
/// coordinate system as [`crate::dcu::Endpoint`] and [`LinkFaults`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WireId {
    /// Horizontal wire between `node` and `node + 1` (keyed by the
    /// lower-numbered endpoint, matching [`LinkFaults::blocks_horizontal`]).
    Horizontal {
        /// 3DCU side within the pair.
        side: usize,
        /// Bank the wire runs in.
        bank: usize,
        /// Lower-numbered endpoint of the `(node, node + 1)` pair.
        node: usize,
    },
    /// Vertical wire between `bank` and `bank + 1` at `node` (keyed by
    /// the lower bank, matching [`LinkFaults::blocks_vertical`]).
    Vertical {
        /// 3DCU side within the pair.
        side: usize,
        /// Lower bank of the `(bank, bank + 1)` pair.
        bank: usize,
        /// Node the wire connects across banks.
        node: usize,
    },
}

impl WireId {
    /// The added wire between two switch endpoints, if they are in fact
    /// adjacent — `None` for a malformed pair.
    pub fn between(a: (usize, usize, usize), b: (usize, usize, usize)) -> Option<WireId> {
        let (s0, b0, n0) = a;
        let (s1, b1, n1) = b;
        if s0 != s1 {
            return None;
        }
        if b0 == b1 && n0.abs_diff(n1) == 1 {
            return Some(WireId::Horizontal {
                side: s0,
                bank: b0,
                node: n0.min(n1),
            });
        }
        if n0 == n1 && b0.abs_diff(b1) == 1 {
            return Some(WireId::Vertical {
                side: s0,
                bank: b0.min(b1),
                node: n0,
            });
        }
        None
    }

    /// Records this wire as *permanently* severed in a [`LinkFaults`] set
    /// — how the recovery layer soft-quarantines a flaky link so Dijkstra
    /// routes around it.
    pub fn sever_in(&self, faults: &mut LinkFaults) {
        match *self {
            WireId::Horizontal { side, bank, node } => {
                faults.break_horizontal(side, bank, node);
            }
            WireId::Vertical { side, bank, node } => {
                faults.break_vertical(side, bank, node);
            }
        }
    }

    /// Stable per-wire key folded into the hazard hash.
    fn key(&self) -> u64 {
        let (tag, side, bank, node) = match *self {
            WireId::Horizontal { side, bank, node } => (1u64, side, bank, node),
            WireId::Vertical { side, bank, node } => (2u64, side, bank, node),
        };
        tag | ((side as u64) << 8) | ((bank as u64) << 20) | ((node as u64) << 32)
    }
}

impl std::fmt::Display for WireId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            WireId::Horizontal { side, bank, node } => write!(f, "H({side},{bank},{node})"),
            WireId::Vertical { side, bank, node } => write!(f, "V({side},{bank},{node})"),
        }
    }
}

/// The added wires a route traverses, in traversal order, reconstructed
/// from [`Route::switch_nodes`] (one `(u, v)` endpoint pair per
/// horizontal/vertical edge, recorded during backward path
/// reconstruction).
pub fn route_wires(route: &Route) -> Vec<WireId> {
    let mut wires: Vec<WireId> = route
        .switch_nodes
        .chunks_exact(2)
        .filter_map(|pair| WireId::between(pair[0], pair[1]))
        .collect();
    // switch_nodes is recorded destination-to-source; present the wires
    // source-to-destination so "the first wire hit" reads naturally.
    wires.reverse();
    wires
}

/// A window of elevated hazard on one wire (or on every wire), modelling
/// a flaky-link episode: a marginal contact that misbehaves for a burst
/// of transfers and then settles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstEpisode {
    /// The wire the episode afflicts, or `None` for fabric-wide flakiness
    /// (e.g. a supply-noise event).
    pub wire: Option<WireId>,
    /// First transfer sequence number inside the episode.
    pub from_seq: u64,
    /// First sequence number *past* the episode (exclusive).
    pub until_seq: u64,
    /// Per-wire bit-flip probability while the episode is active.
    pub flip_rate: f64,
    /// Per-wire drop probability while the episode is active.
    pub drop_rate: f64,
}

impl BurstEpisode {
    fn covers(&self, wire: WireId, seq: u64) -> bool {
        seq >= self.from_seq && seq < self.until_seq && self.wire.is_none_or(|w| w == wire)
    }
}

/// What the hazard did to one `(transfer, attempt)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransientOutcome {
    /// Every wire on the path behaved; the payload arrived intact.
    Delivered,
    /// A wire flipped bits in flight. The CRC check catches it; the
    /// receiver must request a retransmission.
    Corrupted {
        /// The wire that corrupted the transfer.
        wire: WireId,
        /// How many payload bits flipped (1–3: within CRC-32's guaranteed
        /// detection distance at our payload sizes).
        flipped_bits: u32,
    },
    /// A wire lost the transfer outright; the receiver sees a timeout.
    Dropped {
        /// The wire that dropped the transfer.
        wire: WireId,
    },
}

/// Seeded transient-fault model over the added wires.
///
/// Rates are per-wire, per-attempt hazards: a route crossing three added
/// wires rolls the hazard three times, and the first wire that misbehaves
/// determines the outcome (drop beats flip at the same wire — a dropped
/// transfer never arrives to be CRC-checked).
#[derive(Debug, Clone, PartialEq)]
pub struct TransientFaults {
    seed: u64,
    flip_rate: f64,
    drop_rate: f64,
    bursts: Vec<BurstEpisode>,
}

impl TransientFaults {
    /// No transient hazard at all: every transfer is delivered.
    pub fn quiet() -> Self {
        Self::seeded(0, 0.0, 0.0)
    }

    /// A baseline hazard on every added wire.
    pub fn seeded(seed: u64, flip_rate: f64, drop_rate: f64) -> Self {
        TransientFaults {
            seed,
            flip_rate,
            drop_rate,
            bursts: Vec::new(),
        }
    }

    /// Adds a flaky-link burst episode.
    pub fn with_burst(mut self, burst: BurstEpisode) -> Self {
        self.bursts.push(burst);
        self
    }

    /// The seed the model was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether no transfer can ever be corrupted or dropped.
    pub fn is_quiet(&self) -> bool {
        self.flip_rate == 0.0
            && self.drop_rate == 0.0
            && self
                .bursts
                .iter()
                .all(|b| b.flip_rate == 0.0 && b.drop_rate == 0.0)
    }

    /// Effective `(flip, drop)` rates for `wire` at sequence number `seq`:
    /// the baseline, raised by any burst episode covering the wire.
    pub fn rates_for(&self, wire: WireId, seq: u64) -> (f64, f64) {
        let mut flip = self.flip_rate;
        let mut drop = self.drop_rate;
        for b in &self.bursts {
            if b.covers(wire, seq) {
                flip = flip.max(b.flip_rate);
                drop = drop.max(b.drop_rate);
            }
        }
        (flip, drop)
    }

    /// A uniform draw in `[0, 1)`, pure in `(seed, wire, seq, attempt,
    /// salt)` — no RNG state anywhere, so outcomes are replayable and
    /// independent of evaluation order.
    fn unit(&self, wire: WireId, seq: u64, attempt: u32, salt: u64) -> f64 {
        let x = splitmix(
            self.seed
                .wrapping_add(wire.key().wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_add(seq.wrapping_mul(0xD1B5_4A32_D192_ED03))
                .wrapping_add(u64::from(attempt).wrapping_mul(0x8CB9_2BA7_2F3D_8DD7))
                .wrapping_add(salt),
        );
        (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// The hazard's verdict on attempt `attempt` of transfer `seq` along
    /// `route`. Walks the route's added wires in traversal order; the
    /// first misbehaving wire decides.
    pub fn outcome(&self, route: &Route, seq: u64, attempt: u32) -> TransientOutcome {
        if self.is_quiet() {
            return TransientOutcome::Delivered;
        }
        for wire in route_wires(route) {
            let (flip, drop) = self.rates_for(wire, seq);
            if drop > 0.0 && self.unit(wire, seq, attempt, 0x0D0D) < drop {
                return TransientOutcome::Dropped { wire };
            }
            if flip > 0.0 && self.unit(wire, seq, attempt, 0xF11F) < flip {
                let bits = 1
                    + (splitmix(
                        self.seed
                            .wrapping_add(wire.key())
                            .wrapping_add(seq)
                            .wrapping_add(u64::from(attempt) << 17)
                            .wrapping_add(0xB175),
                    ) % 3) as u32;
                return TransientOutcome::Corrupted {
                    wire,
                    flipped_bits: bits,
                };
            }
        }
        TransientOutcome::Delivered
    }
}

/// SplitMix64 finalizer: the avalanche at the heart of every hazard draw.
fn splitmix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// CRC-32 (reflected, polynomial `0xEDB88320` — the IEEE 802.3 CRC) over
/// a slice of 16-bit payload words, little-endian byte order.
///
/// At our capped payload sizes (≤ [`CRC_PAYLOAD_CAP`] words = 8 KiB) this
/// CRC has Hamming distance 4: every 1-, 2- and 3-bit corruption is
/// guaranteed detected, which covers the whole [`TransientOutcome::
/// Corrupted`] range by construction.
pub fn crc32(words: &[u16]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for w in words {
        for byte in w.to_le_bytes() {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                let lsb = crc & 1;
                crc >>= 1;
                if lsb != 0 {
                    crc ^= 0xEDB8_8320;
                }
            }
        }
    }
    !crc
}

/// Payload-size cap (16-bit words) for CRC modelling: large transfers are
/// checksummed per 8 KiB frame in hardware, and one frame is all the
/// model needs to decide detection.
pub const CRC_PAYLOAD_CAP: u64 = 4096;

/// The seeded payload words of transfer `seq` (capped at
/// [`CRC_PAYLOAD_CAP`]): real bytes for the CRC to checksum, derived from
/// the transfer identity so sender and receiver agree without shared
/// state.
pub fn payload_words(seed: u64, seq: u64, values: u64) -> Vec<u16> {
    let n = values.min(CRC_PAYLOAD_CAP) as usize;
    (0..n)
        .map(|i| {
            let x = splitmix(
                seed.wrapping_add(seq.wrapping_mul(0xA0761D6478BD642F))
                    .wrapping_add((i as u64).wrapping_mul(0xE703_7ED1_A0B4_28DB)),
            );
            (x >> 21) as u16
        })
        .collect()
}

/// One CRC-checked transfer attempt: what arrived, whether the CRC
/// accepted it, and what the attempt cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckedTransfer {
    /// What the hazard did to this attempt.
    pub outcome: TransientOutcome,
    /// Whether any payload arrived at all (false on a drop).
    pub delivered: bool,
    /// Whether the receiver's CRC matched the sender's. Only meaningful
    /// when `delivered`; a dropped transfer reports `false`.
    pub crc_ok: bool,
    /// Simulated latency of the attempt, ns. A delivered (or corrupted —
    /// the receiver still clocks the bits in) transfer pays the route's
    /// serialised transfer latency; a drop pays the receiver's timeout,
    /// [`timeout_ns`] of the same route.
    pub latency_ns: f64,
    /// Energy charged to the attempt, pJ. Corrupted and dropped attempts
    /// still drove the wires.
    pub energy_pj: f64,
}

/// The receiver's timeout for a transfer of `values` words along `route`:
/// twice the clean serialised transfer latency — one transfer time of
/// grace beyond the expected arrival before the receiver declares the
/// attempt lost.
pub fn timeout_ns(route: &Route, values: u64, cfg: &NocConfig) -> f64 {
    let (latency, _) = route.transfer(values, cfg);
    2.0 * latency
}

/// Performs one CRC-checked attempt of transfer `seq` along `route`.
///
/// The payload is synthesised from `(payload seed, seq)`, the hazard's
/// bit flips are applied to the received copy, and detection is an
/// honest CRC-32 comparison — not a flag smuggled out of the fault model.
pub fn checked_transfer(
    route: &Route,
    values: u64,
    cfg: &NocConfig,
    faults: &TransientFaults,
    seq: u64,
    attempt: u32,
) -> CheckedTransfer {
    let (latency, energy) = route.transfer(values, cfg);
    let outcome = faults.outcome(route, seq, attempt);
    match outcome {
        TransientOutcome::Delivered => CheckedTransfer {
            outcome,
            delivered: true,
            crc_ok: true,
            latency_ns: latency,
            energy_pj: energy,
        },
        TransientOutcome::Corrupted { wire, flipped_bits } => {
            let sent = payload_words(faults.seed, seq, values);
            let sent_crc = crc32(&sent);
            let mut received = sent;
            let total_bits = received.len() as u64 * 16;
            for k in 0..u64::from(flipped_bits) {
                // Distinct bit positions: stride by a unit offset per flip
                // so two flips never cancel.
                let h = splitmix(
                    faults
                        .seed
                        .wrapping_add(wire.key())
                        .wrapping_add(seq.wrapping_mul(0x2545_F491_4F6C_DD1D))
                        .wrapping_add(u64::from(attempt) << 13)
                        .wrapping_add(k << 40)
                        .wrapping_add(0xC0DE),
                );
                let bit = (h % total_bits.max(1) + k) % total_bits.max(1);
                let word = (bit / 16) as usize;
                received[word] ^= 1 << (bit % 16);
            }
            CheckedTransfer {
                outcome,
                delivered: true,
                crc_ok: crc32(&received) == sent_crc,
                latency_ns: latency,
                energy_pj: energy,
            }
        }
        TransientOutcome::Dropped { .. } => CheckedTransfer {
            outcome,
            delivered: false,
            crc_ok: false,
            latency_ns: timeout_ns(route, values, cfg),
            energy_pj: energy,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcu::{DcuPair, Endpoint, Mode};

    fn wired_route() -> Route {
        // Bank 0 → bank 2 on one side crosses two vertical added wires.
        DcuPair::new(&NocConfig::default())
            .route(
                Endpoint::tile(0, 0),
                Endpoint::pair_tile(0, 2, 0),
                Mode::Cmode,
            )
            .unwrap()
    }

    #[test]
    fn route_wires_reconstructs_added_wires() {
        let route = wired_route();
        let wires = route_wires(&route);
        assert!(!wires.is_empty());
        assert!(wires
            .iter()
            .all(|w| matches!(w, WireId::Vertical { .. } | WireId::Horizontal { .. })));
        // A pure-tree route has no added wires to affect.
        let tree = DcuPair::new(&NocConfig::default())
            .route(Endpoint::tile(0, 0), Endpoint::tile(0, 15), Mode::Smode)
            .unwrap();
        assert!(route_wires(&tree).is_empty());
    }

    #[test]
    fn quiet_model_always_delivers() {
        let route = wired_route();
        let faults = TransientFaults::quiet();
        for seq in 0..64 {
            assert_eq!(faults.outcome(&route, seq, 1), TransientOutcome::Delivered);
        }
    }

    #[test]
    fn outcomes_are_deterministic_and_attempt_dependent() {
        let route = wired_route();
        let faults = TransientFaults::seeded(7, 0.4, 0.1);
        let a: Vec<_> = (0..200).map(|s| faults.outcome(&route, s, 1)).collect();
        let b: Vec<_> = (0..200).map(|s| faults.outcome(&route, s, 1)).collect();
        assert_eq!(a, b, "same (seed, seq, attempt) must replay identically");
        // Retransmissions re-roll the hazard: some first-attempt failure
        // must succeed on a later attempt.
        let healed = (0..200).any(|s| {
            faults.outcome(&route, s, 1) != TransientOutcome::Delivered
                && (2..6).any(|att| faults.outcome(&route, s, att) == TransientOutcome::Delivered)
        });
        assert!(healed, "no retransmission ever succeeded at 40% flip rate");
    }

    #[test]
    fn burst_episode_raises_the_hazard_only_inside_its_window() {
        let route = wired_route();
        let calm = TransientFaults::seeded(3, 0.0, 0.0);
        let bursty = calm.clone().with_burst(BurstEpisode {
            wire: None,
            from_seq: 50,
            until_seq: 60,
            flip_rate: 0.9,
            drop_rate: 0.0,
        });
        assert!(calm.is_quiet());
        assert!(!bursty.is_quiet());
        for seq in 0..50 {
            assert_eq!(bursty.outcome(&route, seq, 1), TransientOutcome::Delivered);
        }
        let hits = (50..60)
            .filter(|&s| bursty.outcome(&route, s, 1) != TransientOutcome::Delivered)
            .count();
        assert!(hits >= 5, "90% burst hazard barely fired: {hits}/10");
        for seq in 60..110 {
            assert_eq!(bursty.outcome(&route, seq, 1), TransientOutcome::Delivered);
        }
    }

    #[test]
    fn crc32_matches_known_vector() {
        // "123456789" as bytes → 0xCBF43926 (the universal CRC-32 check
        // value). Our input is u16 words, so pack the bytes LE.
        let bytes = b"123456789";
        let words: Vec<u16> = bytes
            .chunks(2)
            .map(|c| u16::from_le_bytes([c[0], *c.get(1).unwrap_or(&0)]))
            .collect();
        // Packing appends a zero byte (odd input length), so compare
        // against a straight bitwise reference over the padded bytes.
        let mut crc: u32 = 0xFFFF_FFFF;
        for w in &words {
            for byte in w.to_le_bytes() {
                crc ^= u32::from(byte);
                for _ in 0..8 {
                    let lsb = crc & 1;
                    crc >>= 1;
                    if lsb != 0 {
                        crc ^= 0xEDB8_8320;
                    }
                }
            }
        }
        assert_eq!(crc32(&words), !crc);
        // And the exact check value on an even-length prefix.
        let even: Vec<u16> = b"12345678"
            .chunks(2)
            .map(|c| u16::from_le_bytes([c[0], c[1]]))
            .collect();
        assert_eq!(crc32(&even), 0x9AE0_DAAF);
    }

    #[test]
    fn crc_detects_every_injected_corruption() {
        let route = wired_route();
        let cfg = NocConfig::default();
        let faults = TransientFaults::seeded(11, 0.5, 0.0);
        let mut corrupted = 0;
        for seq in 0..300 {
            let t = checked_transfer(&route, 256, &cfg, &faults, seq, 1);
            match t.outcome {
                TransientOutcome::Corrupted { .. } => {
                    corrupted += 1;
                    assert!(t.delivered);
                    assert!(!t.crc_ok, "CRC-32 missed a 1–3 bit corruption at seq {seq}");
                }
                TransientOutcome::Delivered => assert!(t.crc_ok),
                TransientOutcome::Dropped { .. } => unreachable!("drop rate is zero"),
            }
        }
        assert!(corrupted > 50, "hazard barely fired: {corrupted}/300");
    }

    #[test]
    fn drops_cost_the_timeout_not_the_transfer() {
        let route = wired_route();
        let cfg = NocConfig::default();
        let faults = TransientFaults::seeded(5, 0.0, 1.0);
        let t = checked_transfer(&route, 256, &cfg, &faults, 0, 1);
        assert!(matches!(t.outcome, TransientOutcome::Dropped { .. }));
        assert!(!t.delivered && !t.crc_ok);
        let (clean_lat, _) = route.transfer(256, &cfg);
        assert!((t.latency_ns - 2.0 * clean_lat).abs() < 1e-9);
    }

    #[test]
    fn severing_a_wire_matches_link_fault_coordinates() {
        let mut faults = LinkFaults::none();
        WireId::Horizontal {
            side: 0,
            bank: 1,
            node: 4,
        }
        .sever_in(&mut faults);
        WireId::Vertical {
            side: 1,
            bank: 0,
            node: 8,
        }
        .sever_in(&mut faults);
        assert!(faults.blocks_horizontal(0, 1, 4));
        assert!(faults.blocks_vertical(1, 0, 8));
        assert_eq!(faults.broken_wires(), 2);
    }
}

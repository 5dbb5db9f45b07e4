//! Tile allocation within a phase's bank (the vertical-alignment mapping
//! of Fig. 14).
//!
//! ZFDM splits each layer's (possibly duplicated) reshaped matrices across
//! consecutive tiles of the phase's bank, so that partial results flow in
//! small steps between neighbouring tiles — and line up vertically with
//! the corresponding slices of the ∇weight and error banks below. When a
//! phase needs more tiles than one bank offers, the tail wraps onto the
//! next 3DCU pair and the crossing pays the bus.
//!
//! The allocation is *fault-aware*: [`TileAllocation::for_phase_avoiding`]
//! maps layers onto the bank's **healthy** tiles only, skipping dead ones.
//! The translation is *position-preserving*: a slice whose nominal tile is
//! healthy stays exactly where the fault-free mapping put it, and only
//! slices that landed on a dead tile are relocated to spare tiles beyond
//! the phase's footprint. Preserving positions keeps the dataflow chain's
//! hop distances identical wherever no fault forced a move, so a degraded
//! bank can never *gain* latency from a remap (relocated hops only grow) —
//! the `slowdown >= 1.0` invariant the degradation twin relies on. The
//! earlier compaction scheme (shift everything left over the survivors)
//! violated that: shifting layer boundaries off expensive H-tree crossings
//! made some faulted runs measurably faster than fault-free ones. With
//! zero dead tiles the translation is the identity and the allocation is
//! bit-identical to the fault-free mapping.

use crate::compiler::CompiledPhase;
use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;

/// Typed error for tile-mapping failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MappingError {
    /// A layer index beyond the phase's layer count was addressed.
    LayerOutOfRange {
        /// The offending layer index.
        layer: usize,
        /// Layers the allocation holds.
        layers: usize,
    },
    /// Every tile of the bank is dead: nothing can be mapped.
    NoHealthyTiles {
        /// Physical tiles per bank.
        tiles_per_bank: usize,
        /// Dead tiles recorded.
        dead: usize,
    },
}

impl fmt::Display for MappingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MappingError::LayerOutOfRange { layer, layers } => {
                write!(
                    f,
                    "layer {layer} out of range: phase maps {layers} layer(s)"
                )
            }
            MappingError::NoHealthyTiles {
                tiles_per_bank,
                dead,
            } => write!(
                f,
                "no healthy tiles: {dead} of {tiles_per_bank} tile(s) are dead"
            ),
        }
    }
}

impl Error for MappingError {}

/// The tile range one layer occupies (logical, pre-wrap indices).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileRange {
    /// First tile index (before wrapping).
    pub start: usize,
    /// Number of tiles. A zero count is treated as one throughout (every
    /// layer occupies at least one tile).
    pub count: usize,
}

impl TileRange {
    /// Physical tile of a slice index, wrapped into the bank.
    pub fn tile(&self, slice: usize, tiles_per_bank: usize) -> usize {
        (self.start + slice) % tiles_per_bank
    }

    /// Whether this range wraps past the end of the bank (spills onto the
    /// next 3DCU pair). `count == 0` is clamped to one tile.
    pub fn wraps(&self, tiles_per_bank: usize) -> bool {
        let last = self.start + self.count.max(1) - 1;
        self.start / tiles_per_bank != last / tiles_per_bank
    }
}

/// The allocation of one compiled phase onto its bank's tiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileAllocation {
    ranges: Vec<TileRange>,
    tiles_per_bank: usize,
    /// Number of healthy tiles in the bank.
    healthy: usize,
    /// Position-preserving logical→physical translation, indexed by the
    /// nominal position `logical % tiles_per_bank`. Healthy positions map
    /// to themselves; dead positions map to spare healthy tiles outside
    /// the phase's footprint (cycling over all survivors once spares run
    /// out). With no dead tiles this is the identity map.
    table: Vec<usize>,
}

impl TileAllocation {
    /// Allocates a phase's layers onto consecutive tiles of a fault-free
    /// bank.
    ///
    /// # Errors
    ///
    /// Returns [`MappingError::NoHealthyTiles`] when `tiles_per_bank` is
    /// zero — the one way a fault-free bank can still be unmappable. (This
    /// used to panic; a zero-tile configuration now surfaces as the same
    /// typed error the fault-aware path reports.)
    pub fn for_phase(phase: &CompiledPhase, tiles_per_bank: usize) -> Result<Self, MappingError> {
        Self::for_phase_avoiding(phase, tiles_per_bank, &BTreeSet::new())
    }

    /// Allocates a phase's layers onto the bank's healthy tiles, skipping
    /// the `dead` ones. Layers keep their consecutive logical ranges and
    /// their fault-free physical positions; only slices whose nominal tile
    /// is dead relocate to spare tiles past the phase's footprint (lowest
    /// spare first, then cycling over all survivors). Capacity still
    /// shrinks with every dead tile, so a degraded allocation can overflow
    /// onto the next 3DCU pair where the fault-free one fit.
    ///
    /// # Errors
    ///
    /// Returns [`MappingError::NoHealthyTiles`] when every tile is dead
    /// (or `tiles_per_bank` is zero).
    pub fn for_phase_avoiding(
        phase: &CompiledPhase,
        tiles_per_bank: usize,
        dead: &BTreeSet<usize>,
    ) -> Result<Self, MappingError> {
        let survivors: Vec<usize> = (0..tiles_per_bank).filter(|t| !dead.contains(t)).collect();
        if survivors.is_empty() {
            return Err(MappingError::NoHealthyTiles {
                tiles_per_bank,
                dead: dead.len(),
            });
        }
        let mut ranges = Vec::with_capacity(phase.layers.len());
        let mut cursor = 0usize;
        for layer in &phase.layers {
            ranges.push(TileRange {
                start: cursor,
                count: layer.tiles.max(1),
            });
            cursor += layer.tiles.max(1);
        }
        // Position-preserving translation: the phase's footprint covers
        // nominal positions 0..min(demanded, bank); spares are the healthy
        // tiles beyond it. Dead positions (footprint or not) take the next
        // spare, falling back to cycling over the survivors when demand
        // leaves no tile unused.
        let footprint = cursor.min(tiles_per_bank);
        let mut spares = (footprint..tiles_per_bank).filter(|t| !dead.contains(t));
        let mut overflow = 0usize;
        let table = (0..tiles_per_bank)
            .map(|p| {
                if !dead.contains(&p) {
                    p
                } else if let Some(s) = spares.next() {
                    s
                } else {
                    let s = survivors[overflow % survivors.len()];
                    overflow += 1;
                    s
                }
            })
            .collect();
        Ok(TileAllocation {
            ranges,
            tiles_per_bank,
            healthy: survivors.len(),
            table,
        })
    }

    /// Healthy tiles per bank (equals `tiles_per_bank` when fault-free).
    pub fn healthy_tiles(&self) -> usize {
        self.healthy
    }

    /// The range of a layer (by position within the phase).
    ///
    /// # Errors
    ///
    /// Returns [`MappingError::LayerOutOfRange`] for a bad index.
    pub fn range(&self, layer: usize) -> Result<TileRange, MappingError> {
        self.ranges
            .get(layer)
            .copied()
            .ok_or(MappingError::LayerOutOfRange {
                layer,
                layers: self.ranges.len(),
            })
    }

    /// Physical (healthy) tile holding a layer's `slice`-th logical tile.
    ///
    /// # Errors
    ///
    /// Returns [`MappingError::LayerOutOfRange`] for a bad layer index.
    pub fn tile_for(&self, layer: usize, slice: usize) -> Result<usize, MappingError> {
        let r = self.range(layer)?;
        Ok(self.table[(r.start + slice) % self.tiles_per_bank])
    }

    /// Total tiles demanded by the phase (may exceed one bank).
    pub fn tiles_demanded(&self) -> usize {
        self.ranges.last().map(|r| r.start + r.count).unwrap_or(0)
    }

    /// How many extra 3DCU pairs this phase spills onto. Dead tiles shrink
    /// the effective bank, so a degraded allocation can overflow where the
    /// fault-free one fit.
    pub fn overflow_pairs(&self) -> usize {
        self.tiles_demanded().saturating_sub(1) / self.healthy
    }

    /// The physical tile pair an inter-layer transfer crosses: the last
    /// tile of `layer` and the first tile of `layer + 1` (both wrapped
    /// onto healthy tiles).
    ///
    /// # Errors
    ///
    /// Returns [`MappingError::LayerOutOfRange`] if `layer + 1` is out of
    /// range.
    pub fn handoff(&self, layer: usize) -> Result<(usize, usize), MappingError> {
        let from = self.range(layer)?;
        let to = self.range(layer + 1)?;
        let n = self.tiles_per_bank;
        Ok((
            self.table[(from.start + from.count.max(1) - 1) % n],
            self.table[to.start % n],
        ))
    }

    /// Whether the hand-off between `layer` and `layer + 1` crosses a bank
    /// boundary (and therefore the bus).
    ///
    /// # Errors
    ///
    /// Returns [`MappingError::LayerOutOfRange`] if `layer + 1` is out of
    /// range.
    pub fn handoff_crosses_bank(&self, layer: usize) -> Result<bool, MappingError> {
        let from = self.range(layer)?;
        let to = self.range(layer + 1)?;
        // Capacity-based wrap: losing tiles shrinks the effective bank.
        let n = self.healthy;
        let last = from.start + from.count.max(1) - 1;
        Ok(last / n != to.start / n)
    }

    /// Number of layers allocated.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Whether the allocation is empty.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{compile, CompilerOptions};
    use lergan_gan::{benchmarks, Phase};
    use lergan_reram::ReramConfig;
    use proptest::prelude::*;

    fn dcgan_gforward() -> CompiledPhase {
        compile(
            &benchmarks::dcgan(),
            CompilerOptions::default(),
            &ReramConfig::default(),
        )
        .phase(Phase::GForward)
        .clone()
    }

    #[test]
    fn ranges_are_consecutive_and_disjoint() {
        let phase = dcgan_gforward();
        let alloc = TileAllocation::for_phase(&phase, 16).unwrap();
        assert_eq!(alloc.len(), phase.layers.len());
        let mut expected_start = 0;
        for i in 0..alloc.len() {
            let r = alloc.range(i).unwrap();
            assert_eq!(r.start, expected_start);
            assert_eq!(r.count, phase.layers[i].tiles.max(1));
            expected_start += r.count;
        }
        assert_eq!(alloc.tiles_demanded(), expected_start);
    }

    #[test]
    fn handoffs_connect_adjacent_ranges() {
        let phase = dcgan_gforward();
        let alloc = TileAllocation::for_phase(&phase, 16).unwrap();
        for i in 0..alloc.len() - 1 {
            let (from, to) = alloc.handoff(i).unwrap();
            assert!(from < 16 && to < 16);
            // Consecutive allocation: the next layer starts right after.
            let r = alloc.range(i).unwrap();
            assert_eq!((r.start + r.count) % 16, to);
        }
    }

    #[test]
    fn wrapping_is_detected() {
        let r = TileRange {
            start: 14,
            count: 4,
        };
        assert!(r.wraps(16));
        assert_eq!(r.tile(0, 16), 14);
        assert_eq!(r.tile(3, 16), 1);
        let r = TileRange { start: 2, count: 3 };
        assert!(!r.wraps(16));
    }

    #[test]
    fn overflow_counts_extra_pairs() {
        let phase = dcgan_gforward();
        let alloc = TileAllocation::for_phase(&phase, 16).unwrap();
        if alloc.tiles_demanded() <= 16 {
            assert_eq!(alloc.overflow_pairs(), 0);
        } else {
            assert!(alloc.overflow_pairs() >= 1);
        }
        // A phase squeezed into tiny banks must overflow.
        let tiny = TileAllocation::for_phase(&phase, 2).unwrap();
        assert!(tiny.overflow_pairs() >= 1);
        let crossings = (0..tiny.len() - 1)
            .filter(|&i| tiny.handoff_crosses_bank(i).unwrap())
            .count();
        assert!(crossings >= 1);
    }

    #[test]
    fn bad_layer_indices_return_typed_errors() {
        let phase = dcgan_gforward();
        let alloc = TileAllocation::for_phase(&phase, 16).unwrap();
        let n = alloc.len();
        assert_eq!(
            alloc.range(n),
            Err(MappingError::LayerOutOfRange {
                layer: n,
                layers: n
            })
        );
        assert!(alloc.handoff(n - 1).is_err());
        assert!(alloc.handoff_crosses_bank(n - 1).is_err());
        assert!(alloc.tile_for(n, 0).is_err());
    }

    #[test]
    fn zero_dead_tiles_is_identical_to_fault_free() {
        let phase = dcgan_gforward();
        let clean = TileAllocation::for_phase(&phase, 16).unwrap();
        let avoided = TileAllocation::for_phase_avoiding(&phase, 16, &BTreeSet::new()).unwrap();
        assert_eq!(clean, avoided);
        assert_eq!(avoided.healthy_tiles(), 16);
        for layer in 0..clean.len() {
            let r = clean.range(layer).unwrap();
            // The physical translation is the identity.
            assert_eq!(
                clean.tile_for(layer, 0).unwrap(),
                r.tile(0, 16),
                "layer {layer}"
            );
        }
    }

    #[test]
    fn dead_tiles_are_skipped_by_every_translation() {
        let phase = dcgan_gforward();
        let dead: BTreeSet<usize> = [0usize, 5, 9].into_iter().collect();
        let alloc = TileAllocation::for_phase_avoiding(&phase, 16, &dead).unwrap();
        assert_eq!(alloc.healthy_tiles(), 13);
        for layer in 0..alloc.len() {
            let r = alloc.range(layer).unwrap();
            for slice in 0..r.count {
                let t = alloc.tile_for(layer, slice).unwrap();
                assert!(
                    !dead.contains(&t),
                    "layer {layer} slice {slice} on dead tile {t}"
                );
                assert!(t < 16);
            }
        }
        for layer in 0..alloc.len() - 1 {
            let (from, to) = alloc.handoff(layer).unwrap();
            assert!(!dead.contains(&from) && !dead.contains(&to));
        }
    }

    #[test]
    fn remap_preserves_positions_and_substitutes_spares() {
        let phase = dcgan_gforward();
        let clean = TileAllocation::for_phase(&phase, 16).unwrap();
        let demanded = clean.tiles_demanded();
        assert!(demanded < 16, "test assumes the phase leaves spare tiles");
        let dead: BTreeSet<usize> = [3usize].into_iter().collect();
        let alloc = TileAllocation::for_phase_avoiding(&phase, 16, &dead).unwrap();
        for layer in 0..alloc.len() {
            let r = alloc.range(layer).unwrap();
            for slice in 0..r.count {
                let nominal = clean.tile_for(layer, slice).unwrap();
                let got = alloc.tile_for(layer, slice).unwrap();
                if nominal == 3 {
                    // Relocated to the lowest spare beyond the footprint.
                    assert_eq!(got, demanded, "layer {layer} slice {slice}");
                } else {
                    // Everything else stays exactly where it was.
                    assert_eq!(got, nominal, "layer {layer} slice {slice}");
                }
            }
        }
        // Hand-offs not involving the dead tile are untouched.
        for layer in 0..alloc.len() - 1 {
            let (cf, ct) = clean.handoff(layer).unwrap();
            let (df, dt) = alloc.handoff(layer).unwrap();
            if cf != 3 && ct != 3 {
                assert_eq!((df, dt), (cf, ct), "handoff after layer {layer}");
            }
        }
    }

    #[test]
    fn zero_tile_bank_is_a_typed_error_not_a_panic() {
        let phase = dcgan_gforward();
        assert_eq!(
            TileAllocation::for_phase(&phase, 0),
            Err(MappingError::NoHealthyTiles {
                tiles_per_bank: 0,
                dead: 0
            })
        );
    }

    #[test]
    fn all_tiles_dead_is_a_typed_error() {
        let phase = dcgan_gforward();
        let dead: BTreeSet<usize> = (0..16).collect();
        assert_eq!(
            TileAllocation::for_phase_avoiding(&phase, 16, &dead),
            Err(MappingError::NoHealthyTiles {
                tiles_per_bank: 16,
                dead: 16
            })
        );
    }

    #[test]
    fn shrunken_banks_overflow_earlier() {
        let phase = dcgan_gforward();
        let demanded = TileAllocation::for_phase(&phase, 16)
            .unwrap()
            .tiles_demanded();
        // Kill tiles until fewer healthy ones remain than the phase needs:
        // the allocation must spill onto extra pairs.
        if demanded >= 2 {
            let dead: BTreeSet<usize> = (0..16 - (demanded - 1).min(15)).collect();
            let alloc = TileAllocation::for_phase_avoiding(&phase, 16, &dead).unwrap();
            assert!(alloc.healthy_tiles() < demanded);
            assert!(alloc.overflow_pairs() >= 1);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn tile_always_lands_inside_the_bank(
            start in 0usize..96,
            slice in 0usize..96,
            tpb in 1usize..33,
        ) {
            let r = TileRange { start, count: slice + 1 };
            prop_assert!(r.tile(slice, tpb) < tpb);
        }

        #[test]
        fn wraps_iff_the_range_crosses_a_boundary(
            start in 0usize..96,
            count in 0usize..96,
            tpb in 1usize..33,
        ) {
            let r = TileRange { start, count };
            // Clamped count: a zero-count range still occupies one tile.
            let crosses = (start % tpb) + count.max(1) > tpb;
            prop_assert_eq!(r.wraps(tpb), crosses);
        }

        #[test]
        fn zero_count_is_clamped_to_one(start in 0usize..96, tpb in 1usize..33) {
            let zero = TileRange { start, count: 0 };
            let one = TileRange { start, count: 1 };
            // No panic (the unclamped arithmetic would underflow at
            // start = 0) and identical wrapping behaviour.
            prop_assert_eq!(zero.wraps(tpb), one.wraps(tpb));
            prop_assert!(!zero.wraps(tpb));
        }

        #[test]
        fn exact_bank_boundary_does_not_wrap(
            lead in 0usize..32,
            pairs in 0usize..4,
            tpb in 1usize..33,
        ) {
            // A range ending exactly at a bank boundary stays inside it.
            let start = pairs * tpb + (lead % tpb);
            let count = tpb - (lead % tpb);
            let r = TileRange { start, count };
            prop_assert!(!r.wraps(tpb));
            // Its last slice sits on the bank's final tile.
            prop_assert_eq!(r.tile(count - 1, tpb), tpb - 1);
            // One more tile and it spills.
            let spill = TileRange { start, count: count + 1 };
            prop_assert!(spill.wraps(tpb));
        }

        #[test]
        fn multi_bank_ranges_always_wrap(
            start in 0usize..96,
            extra in 1usize..64,
            tpb in 1usize..33,
        ) {
            let r = TileRange { start, count: tpb + extra };
            prop_assert!(r.wraps(tpb));
            // Every slice still lands on a physical tile of the bank.
            for slice in [0, tpb / 2, tpb + extra - 1] {
                prop_assert!(r.tile(slice, tpb) < tpb);
            }
        }
    }
}

//! Interconnect timing/energy configuration.
//!
//! The H-tree numbers derive from Table IV (29.9 ns / 386 pJ per full
//! 4-level traversal). The added 3D wires are short: horizontal wires span
//! one sibling gap (same cost class as a tree hop), and vertical wires are
//! through-silicon-via-class (a fraction of a planar hop). Bus transfers
//! leave the bank through the memory controller and are far slower — that
//! is precisely the bottleneck Fig. 9 illustrates and the 3DCU removes.

/// Interconnect configuration; `Default` matches the paper's setup.
#[derive(Debug, Clone, PartialEq)]
pub struct NocConfig {
    /// Tiles per bank (16 ⇒ a 4-level H-tree).
    pub tiles_per_bank: usize,
    /// Latency of one H-tree hop (ns); Table IV's 29.9 ns over 4 levels.
    pub hop_latency_ns: f64,
    /// Energy of one H-tree hop per 64-byte access (pJ); 386 pJ over 4.
    pub hop_energy_pj: f64,
    /// Horizontal added-wire latency relative to a tree hop.
    pub horizontal_latency_factor: f64,
    /// Horizontal added-wire energy relative to a tree hop.
    pub horizontal_energy_factor: f64,
    /// Vertical (inter-die) added-wire latency relative to a tree hop.
    pub vertical_latency_factor: f64,
    /// Vertical added-wire energy relative to a tree hop.
    pub vertical_energy_factor: f64,
    /// Latency of the direct bypass link between paired 3DCUs (ns).
    pub bypass_latency_ns: f64,
    /// Energy of the bypass link per 64-byte access (pJ).
    pub bypass_energy_pj: f64,
    /// Latency of reaching another bank over the shared bus (ns),
    /// including memory-controller arbitration.
    pub bus_latency_ns: f64,
    /// Bus energy per 64-byte access (pJ).
    pub bus_energy_pj: f64,
    /// Root-level wire width in bits; merging nodes halve it per level.
    pub root_width_bits: u32,
    /// Wire clock period (ns) — 1.6 GHz I/O frequency.
    pub wire_cycle_ns: f64,
    /// 16-bit values covered by one `hop_energy_pj` access (64 B = 32).
    pub values_per_access: u32,
    /// Parallel distribution channels a Cmode-reconfigured 3DCU offers a
    /// streaming transfer (parent wire + vertical up/down + horizontal
    /// left/right paths; Fig. 14's vertically-aligned slices each ride
    /// their own short path).
    pub cmode_parallel_channels: u32,
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig {
            tiles_per_bank: 16,
            hop_latency_ns: 29.9 / 4.0,
            hop_energy_pj: 386.0,
            horizontal_latency_factor: 1.0,
            horizontal_energy_factor: 1.0,
            vertical_latency_factor: 0.4,
            vertical_energy_factor: 0.4,
            bypass_latency_ns: 12.0,
            bypass_energy_pj: 480.0,
            bus_latency_ns: 120.0,
            bus_energy_pj: 4800.0,
            root_width_bits: 1024,
            wire_cycle_ns: 1.0 / 1.6,
            values_per_access: 32,
            cmode_parallel_channels: 4,
        }
    }
}

impl NocConfig {
    /// Depth of the H-tree (4 levels for 16 tiles).
    ///
    /// # Panics
    ///
    /// Panics if `tiles_per_bank` is not a power of two.
    pub fn levels(&self) -> u32 {
        assert!(
            self.tiles_per_bank.is_power_of_two(),
            "tiles per bank must be a power of two"
        );
        self.tiles_per_bank.trailing_zeros()
    }

    /// Wire width (bits) of the edge between level `l` and `l+1`
    /// (level 0 = root). Width halves at each merging level, floored at
    /// 128 bits (the per-tile port width).
    pub fn width_bits_at(&self, level: u32) -> u32 {
        (self.root_width_bits >> level).max(128)
    }

    /// Whether two configurations agree bit for bit, floats compared by
    /// their bits (`0.0` and `-0.0` differ; a NaN field matches the same
    /// NaN). Fabrics built from identical configurations route
    /// identically, which `PartialEq`'s float comparison cannot promise.
    pub(crate) fn is_identical(&self, other: &NocConfig) -> bool {
        // Destructured without `..`, so a new field must be compared here.
        let NocConfig {
            tiles_per_bank,
            hop_latency_ns,
            hop_energy_pj,
            horizontal_latency_factor,
            horizontal_energy_factor,
            vertical_latency_factor,
            vertical_energy_factor,
            bypass_latency_ns,
            bypass_energy_pj,
            bus_latency_ns,
            bus_energy_pj,
            root_width_bits,
            wire_cycle_ns,
            values_per_access,
            cmode_parallel_channels,
        } = self;
        let floats = [
            (hop_latency_ns, other.hop_latency_ns),
            (hop_energy_pj, other.hop_energy_pj),
            (horizontal_latency_factor, other.horizontal_latency_factor),
            (horizontal_energy_factor, other.horizontal_energy_factor),
            (vertical_latency_factor, other.vertical_latency_factor),
            (vertical_energy_factor, other.vertical_energy_factor),
            (bypass_latency_ns, other.bypass_latency_ns),
            (bypass_energy_pj, other.bypass_energy_pj),
            (bus_latency_ns, other.bus_latency_ns),
            (bus_energy_pj, other.bus_energy_pj),
            (wire_cycle_ns, other.wire_cycle_ns),
        ];
        *tiles_per_bank == other.tiles_per_bank
            && *root_width_bits == other.root_width_bits
            && *values_per_access == other.values_per_access
            && *cmode_parallel_channels == other.cmode_parallel_channels
            && floats.iter().all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_derive_from_table_iv() {
        let c = NocConfig::default();
        assert_eq!(c.levels(), 4);
        assert!((c.hop_latency_ns * 4.0 - 29.9).abs() < 1e-9);
        assert!((c.hop_energy_pj - 386.0).abs() < 1e-9);
    }

    #[test]
    fn widths_halve_and_floor() {
        let c = NocConfig::default();
        assert_eq!(c.width_bits_at(0), 1024);
        assert_eq!(c.width_bits_at(1), 512);
        assert_eq!(c.width_bits_at(3), 128);
        assert_eq!(c.width_bits_at(6), 128); // floored
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_tiles_rejected() {
        let c = NocConfig {
            tiles_per_bank: 12,
            ..NocConfig::default()
        };
        let _ = c.levels();
    }
}

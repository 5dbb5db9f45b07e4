//! Hardware configuration constants (Table IV).
//!
//! Every latency is in nanoseconds and every energy in picojoules, exactly
//! as Table IV reports them. Fields the table does not give directly (the
//! per-component split of an MMV's energy) are derived in
//! [`crate::energy`] and calibrated against Fig. 24, with the calibration
//! recorded in `EXPERIMENTS.md`.

/// Complete ReRAM-based main-memory configuration.
///
/// `Default` is the paper's Table IV configuration.
///
/// # Example
///
/// ```
/// use lergan_reram::ReramConfig;
/// let cfg = ReramConfig::default();
/// assert_eq!(cfg.tiles_per_bank, 16);
/// assert_eq!(cfg.cell_bits, 4);
/// assert!((cfg.tile_read_latency_ns - 2.9).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ReramConfig {
    // ---- organisation ----
    /// Total main-memory capacity in bytes (16 GB).
    pub total_capacity_bytes: u64,
    /// Capacity per bank in bytes (2 GB).
    pub bank_capacity_bytes: u64,
    /// Capacity per tile in bytes (128 MB).
    pub tile_capacity_bytes: u64,
    /// Tiles per bank (derived: 16).
    pub tiles_per_bank: usize,
    /// Bytes of a tile configured as CArray (64 MB — half the tile).
    pub carray_bytes: u64,
    /// Bytes of a tile configured as BArray (2 MB — 1/64 of the tile).
    pub barray_bytes: u64,
    /// Bytes of a tile configured as SArray (62 MB — the rest).
    pub sarray_bytes: u64,

    // ---- cell / crossbar ----
    /// Bits stored per ReRAM cell (4).
    pub cell_bits: u32,
    /// Bits of inputs, weights and outputs (16, as in PipeLayer).
    pub data_bits: u32,
    /// Crossbar rows = columns (128 cells).
    pub crossbar_dim: usize,

    // ---- timing (ns) ----
    /// Bank read latency (32.8 ns).
    pub bank_read_latency_ns: f64,
    /// Bank write latency (41.4 ns).
    pub bank_write_latency_ns: f64,
    /// Full H-tree traversal latency within a bank (29.9 ns).
    pub htree_latency_ns: f64,
    /// Tile read latency (2.9 ns) — also the CArray MMV cycle `t_m`.
    pub tile_read_latency_ns: f64,
    /// Tile write latency (11.5 ns).
    pub tile_write_latency_ns: f64,
    /// Off-chip I/O frequency in GHz (1.6).
    pub io_frequency_ghz: f64,
    /// Off-chip I/O bus width in bits (64-bit DDR channel equivalent).
    pub io_bus_bits: u32,

    // ---- energy (pJ) ----
    /// Bank read energy (413 pJ).
    pub bank_read_energy_pj: f64,
    /// Bank write energy (665 pJ).
    pub bank_write_energy_pj: f64,
    /// Full H-tree traversal energy (386 pJ).
    pub htree_energy_pj: f64,
    /// Tile read energy (3.3 pJ).
    pub tile_read_energy_pj: f64,
    /// Tile write energy (34.8 pJ).
    pub tile_write_energy_pj: f64,
}

impl Default for ReramConfig {
    fn default() -> Self {
        const MB: u64 = 1 << 20;
        const GB: u64 = 1 << 30;
        ReramConfig {
            total_capacity_bytes: 16 * GB,
            bank_capacity_bytes: 2 * GB,
            tile_capacity_bytes: 128 * MB,
            tiles_per_bank: 16,
            carray_bytes: 64 * MB,
            barray_bytes: 2 * MB,
            sarray_bytes: 62 * MB,
            cell_bits: 4,
            data_bits: 16,
            crossbar_dim: 128,
            bank_read_latency_ns: 32.8,
            bank_write_latency_ns: 41.4,
            htree_latency_ns: 29.9,
            tile_read_latency_ns: 2.9,
            tile_write_latency_ns: 11.5,
            io_frequency_ghz: 1.6,
            io_bus_bits: 64,
            bank_read_energy_pj: 413.0,
            bank_write_energy_pj: 665.0,
            htree_energy_pj: 386.0,
            tile_read_energy_pj: 3.3,
            tile_write_energy_pj: 34.8,
        }
    }
}

impl ReramConfig {
    /// Number of banks in the memory (8 with the default 16 GB / 2 GB).
    pub fn banks(&self) -> usize {
        (self.total_capacity_bytes / self.bank_capacity_bytes) as usize
    }

    /// The two's-complement codes a `data_bits`-wide weight can hold
    /// (`-32768..32768` with defaults).
    pub fn codes(&self) -> std::ops::Range<i64> {
        -(1i64 << (self.data_bits - 1))..1i64 << (self.data_bits - 1)
    }

    /// Cells needed to hold one `data_bits`-wide weight (4 with defaults).
    pub fn cells_per_weight(&self) -> usize {
        self.data_bits.div_ceil(self.cell_bits) as usize
    }

    /// 16-bit weights one crossbar stores
    /// (`crossbar_dim × crossbar_dim / cells_per_weight` = 4096).
    pub fn weights_per_crossbar(&self) -> usize {
        self.crossbar_dim * self.crossbar_dim / self.cells_per_weight()
    }

    /// Bytes one crossbar occupies (8 KiB with defaults).
    pub fn crossbar_bytes(&self) -> u64 {
        (self.crossbar_dim as u64 * self.crossbar_dim as u64 * self.cell_bits as u64) / 8
    }

    /// Crossbars in one tile's CArray (8192 with defaults).
    pub fn crossbars_per_tile(&self) -> usize {
        (self.carray_bytes / self.crossbar_bytes()) as usize
    }

    /// 16-bit weights one tile's CArray can hold (32 Mi with defaults).
    pub fn weights_per_tile(&self) -> u64 {
        self.crossbars_per_tile() as u64 * self.weights_per_crossbar() as u64
    }

    /// The CArray MMV cycle time `t_m`.
    ///
    /// ISAAC-style crossbars (which LerGAN's CArrays adopt for 16-bit
    /// precision, Sec. V) stream the input bit-serially: one array read
    /// per input bit, so a 16-bit MMV takes `data_bits` read cycles.
    /// (PRIME's "one read cycle" claim applies to its low-precision
    /// inputs.)
    pub fn mmv_latency_ns(&self) -> f64 {
        self.tile_read_latency_ns * self.data_bits as f64
    }

    /// Latency of one hop between adjacent H-tree levels. The H-tree of a
    /// 16-tile bank is 4 levels deep, so a full traversal (Table IV's
    /// 29.9 ns) is 4 hops.
    pub fn htree_hop_latency_ns(&self) -> f64 {
        self.htree_latency_ns / 4.0
    }

    /// Energy of one hop between adjacent H-tree levels (Table IV's
    /// 386 pJ characterises the long tree wires each hop drives).
    pub fn htree_hop_energy_pj(&self) -> f64 {
        self.htree_energy_pj
    }

    /// Off-chip I/O time to move `bytes` (ns).
    pub fn io_transfer_ns(&self, bytes: u64) -> f64 {
        let bytes_per_ns = self.io_frequency_ghz * self.io_bus_bits as f64 / 8.0;
        bytes as f64 / bytes_per_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iv_defaults() {
        let c = ReramConfig::default();
        assert_eq!(c.banks(), 8);
        assert_eq!(c.tiles_per_bank, 16);
        assert_eq!(
            c.bank_capacity_bytes,
            c.tile_capacity_bytes * c.tiles_per_bank as u64
        );
        assert_eq!(
            c.carray_bytes + c.barray_bytes + c.sarray_bytes,
            c.tile_capacity_bytes
        );
    }

    #[test]
    fn crossbar_derivations() {
        let c = ReramConfig::default();
        assert_eq!(c.cells_per_weight(), 4);
        assert_eq!(c.weights_per_crossbar(), 4096);
        assert_eq!(c.crossbar_bytes(), 8 * 1024);
        assert_eq!(c.crossbars_per_tile(), 8192);
        assert_eq!(c.weights_per_tile(), 32 * (1 << 20));
    }

    #[test]
    fn io_transfer_scales_linearly() {
        let c = ReramConfig::default();
        let t1 = c.io_transfer_ns(1024);
        let t2 = c.io_transfer_ns(2048);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
        // 12.8 GB/s bus: 1 KiB in 80 ns.
        assert!((t1 - 80.0).abs() < 1.0);
    }

    #[test]
    fn hop_costs_quarter_the_tree() {
        let c = ReramConfig::default();
        assert!((c.htree_hop_latency_ns() * 4.0 - 29.9).abs() < 1e-9);
        assert!((c.htree_hop_energy_pj() - 386.0).abs() < 1e-9);
    }
}

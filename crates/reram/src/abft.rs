//! Algorithm-based fault tolerance (ABFT) for crossbar MMVs: one redundant
//! checksum column per weight block.
//!
//! RED-style ReRAM pipelines assume per-crossbar result checking is cheap
//! relative to the MMV itself; the classic way to get it is Huang–Abraham
//! checksums. Each weight block stores one extra column holding its weight
//! **row sums**: `c[r] = Σ_j W[r][j]`. Because an MMV is linear, the
//! checksum column's output equals the sum of the data outputs in exact
//! arithmetic — `Σ_r c[r]·x[r] = Σ_j y_j` — so the *residual*
//! `|s − Σ_j y_j|` of a perceived (fault- and variation-disturbed) MMV is
//! exactly zero on clean hardware and non-zero whenever a stuck cell
//! silently corrupted either the data or the checksum column. Detection
//! therefore rides along with every MMV at a storage and read-op overhead
//! of `1/cols`, with no second compute pass.
//!
//! The block's cells (data first, then the checksum column) live in the
//! same [`FaultMap`] cell space the programming loop wears out, so a cell
//! broken mid-run by [`crate::wear::WearModel`] perturbs the very residual
//! that is supposed to catch it.

use crate::config::ReramConfig;
use crate::fault::{bits, FaultMap, WritePolicy, WriteReport};
use crate::variation::VariationModel;

/// A `rows × cols` weight block with one appended checksum column,
/// anchored at a fixed cell base inside a bank's fault map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbftBlock {
    /// Input-vector length (weight rows).
    pub rows: usize,
    /// Output width (weight columns), excluding the checksum column.
    pub cols: usize,
    /// First absolute cell index of the block.
    pub cell_base: u64,
}

/// What one checked MMV observed.
#[derive(Debug, Clone, PartialEq)]
pub struct AbftObservation {
    /// Exact integer outputs (what healthy hardware computes).
    pub outputs_exact: Vec<i64>,
    /// Perceived outputs under the fault map (and optional variation).
    pub outputs_perceived: Vec<f64>,
    /// Perceived output of the checksum column.
    pub checksum_perceived: f64,
    /// `|checksum output − Σ data outputs|` of the perceived MMV.
    pub residual: f64,
}

impl AbftObservation {
    /// Whether the residual trips the detection threshold.
    pub fn flagged(&self, threshold: f64) -> bool {
        self.residual > threshold
    }
}

impl AbftBlock {
    /// A block of `rows × cols` weights at `cell_base`.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    pub fn new(rows: usize, cols: usize, cell_base: u64) -> Self {
        assert!(rows > 0 && cols > 0, "block dimensions must be non-zero");
        AbftBlock {
            rows,
            cols,
            cell_base,
        }
    }

    /// Stored weight values including the checksum column.
    pub fn stored_values(&self) -> u64 {
        (self.rows * (self.cols + 1)) as u64
    }

    /// Cells the block occupies (data then checksum, contiguous).
    pub fn cells(&self, config: &ReramConfig) -> u64 {
        self.stored_values() * config.cells_per_weight() as u64
    }

    /// Fractional storage / read-op overhead of the checksum column.
    pub fn overhead(&self) -> f64 {
        1.0 / self.cols as f64
    }

    /// Cell index of the weight at `(row, col)`; `col == cols` addresses
    /// the checksum column.
    fn cell_of(&self, row: usize, col: usize, config: &ReramConfig) -> u64 {
        debug_assert!(row < self.rows && col <= self.cols);
        let value_index = if col == self.cols {
            // Checksum column lives after the data block.
            (self.rows * self.cols + row) as u64
        } else {
            (row * self.cols + col) as u64
        };
        self.cell_base + value_index * config.cells_per_weight() as u64
    }

    /// Row-sum checksum codes for a row-major `rows × cols` weight block.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != rows * cols` or a row sum leaves the
    /// 16-bit code domain (blocks monitored by the runtime are sized so
    /// the checksum column stays representable).
    pub fn checksums(&self, weights: &[i32]) -> Vec<i32> {
        assert_eq!(weights.len(), self.rows * self.cols, "block shape");
        (0..self.rows)
            .map(|r| {
                let sum: i64 = weights[r * self.cols..(r + 1) * self.cols]
                    .iter()
                    .map(|&w| w as i64)
                    .sum();
                i32::try_from(sum).expect("checksum code representable")
            })
            .collect()
    }

    /// Programs the data block *and* its derived checksum column through
    /// the write-and-verify loop (each write advances wear on its cells):
    /// one [`FaultMap::program_run`] over the row-major data block, then
    /// one over the checksum column after it. The report's failed cells
    /// are in ascending cell order.
    ///
    /// # Panics
    ///
    /// As [`AbftBlock::checksums`].
    pub fn program(
        &self,
        map: &mut FaultMap,
        weights: &[i32],
        config: &ReramConfig,
        policy: &WritePolicy,
    ) -> WriteReport {
        let checksums = self.checksums(weights);
        let mut report = map.program_run(weights, self.cell_base, config, policy);
        report.absorb(map.program_run(
            &checksums,
            self.cell_of(0, self.cols, config),
            config,
            policy,
        ));
        report
    }

    /// One checked MMV: perceived data outputs, perceived checksum output
    /// and the residual that flags silent corruption.
    ///
    /// With a pristine map and no variation the residual is exactly zero
    /// (integer sums well inside the f64-exact range).
    ///
    /// The block's stuck cells are read once, in one ascending walk beside
    /// the data weights and one beside the checksum column. Without a
    /// variation model a weight none of whose cells is stuck reads back as
    /// exactly `code as f64` — the same value
    /// [`FaultMap::perceived_weight`] sums from its slices, since every
    /// partial sum is an integer far below 2^53 — so only weights with a
    /// stuck cell, or every weight under variation, take the slice walk.
    ///
    /// # Panics
    ///
    /// Panics if the operand shapes do not match the block.
    pub fn checked_mmv(
        &self,
        map: &FaultMap,
        variation: Option<&VariationModel>,
        weights: &[i32],
        inputs: &[i32],
        config: &ReramConfig,
    ) -> AbftObservation {
        assert_eq!(weights.len(), self.rows * self.cols, "block shape");
        assert_eq!(inputs.len(), self.rows, "input length");
        let checksums = self.checksums(weights);
        let span = config.cells_per_weight() as u64;
        let checksum_base = self.cell_of(0, self.cols, config);
        let block_end = self.cell_base + self.cells(config);
        let mut data_stuck = map.stuck_cells_in(self.cell_base..checksum_base).peekable();
        let mut checksum_stuck = map.stuck_cells_in(checksum_base..block_end).peekable();
        let codes = config.codes();
        // The value a weight at `base` reads back as; `stuck` walks the
        // stuck cells at and after `base`, ascending. A code outside the
        // data width takes the slice walk, which rejects it.
        let read = |stuck: &mut std::iter::Peekable<_>, code: i32, base: u64| {
            while stuck.next_if(|&c| c < base).is_some() {}
            let healthy = stuck.peek().is_none_or(|&c| c >= base + span);
            if healthy && variation.is_none() && codes.contains(&i64::from(code)) {
                f64::from(code)
            } else {
                map.perceived_weight(variation, code, base, config)
            }
        };
        let mut outputs_exact = vec![0i64; self.cols];
        let mut outputs_perceived = vec![0.0f64; self.cols];
        let mut checksum_perceived = 0.0f64;
        for (r, &x) in inputs.iter().enumerate() {
            for c in 0..self.cols {
                let w = weights[r * self.cols + c];
                outputs_exact[c] += w as i64 * x as i64;
                outputs_perceived[c] +=
                    read(&mut data_stuck, w, self.cell_of(r, c, config)) * x as f64;
            }
            checksum_perceived += read(
                &mut checksum_stuck,
                checksums[r],
                self.cell_of(r, self.cols, config),
            ) * x as f64;
        }
        let residual = (checksum_perceived - outputs_perceived.iter().sum::<f64>()).abs();
        AbftObservation {
            outputs_exact,
            outputs_perceived,
            checksum_perceived,
            residual,
        }
    }

    /// The residual of [`AbftBlock::checked_mmv`] without a variation
    /// model, bit for bit, read from the block's stuck cells alone.
    ///
    /// Without variation a weight reads back as its code plus, for each of
    /// its stuck cells, `(pinned level − target level) · 2^(slice · cell
    /// bits)`; the checksum codes are the data rows' sums. So the residual
    /// is `|Σ x_r · Δ|` over the stuck cells, with `Δ` a stuck cell's
    /// shift of its weight, counted positive in the checksum column and
    /// negative in the data block. Every perceived weight, product and
    /// partial sum of the full MMV is an integer below 2⁵³, so its f64 sums
    /// are exact in any order and equal this integer sum. The block's
    /// stuck cells are read as words: a block with no stuck cell costs one
    /// page lookup per 4,096 cells. Operands whose sums could leave that
    /// range, and codes outside the data width (which the full MMV
    /// rejects), take [`AbftBlock::checked_mmv`].
    ///
    /// # Panics
    ///
    /// As [`AbftBlock::checked_mmv`].
    pub fn residual(
        &self,
        map: &FaultMap,
        weights: &[i32],
        inputs: &[i32],
        config: &ReramConfig,
    ) -> f64 {
        assert_eq!(weights.len(), self.rows * self.cols, "block shape");
        assert_eq!(inputs.len(), self.rows, "input length");
        let span = config.cells_per_weight() as u64;
        // A bound on every |perceived weight| times the largest |input|,
        // times the number of products.
        let largest = inputs.iter().map(|x| x.unsigned_abs()).max().unwrap_or(0);
        let weight_bits = span as u32 * config.cell_bits + 1;
        let bound =
            f64::from(largest) * 2f64.powi(weight_bits as i32) * self.stored_values() as f64;
        // One pass over the weights: whether each fits the data width's
        // codes `-half..half`, and the OR of their magnitudes, which bounds
        // every row sum by `cols` times it. Past the width, the full MMV
        // panics or reads sums this one does not; it takes the call.
        let half = 1u64.checked_shl(config.data_bits - 1).unwrap_or(u64::MAX);
        let shift = config.data_bits.min(31);
        let (outside, magnitude) = weights.iter().fold((0, 0), |(outside, magnitude), &w| {
            let outside = outside | (w as u32).wrapping_add(half as u32) >> shift;
            (outside, magnitude | w.unsigned_abs())
        });
        // Every i32 fits 32 bits or more.
        let fits = config.data_bits >= 32 || outside == 0;
        let most = (half - 1).min(i32::MAX as u64);
        let sums_fit = u64::from(magnitude).saturating_mul(self.cols as u64) <= most;
        if bound >= 2f64.powi(53) || !fits || !sums_fit {
            return self
                .checked_mmv(map, None, weights, inputs, config)
                .residual;
        }
        let data_values = (self.rows * self.cols) as u64;
        let width = (1i64 << config.data_bits) - 1;
        let level_mask = (1i64 << config.cell_bits) - 1;
        let cells = self.cell_base..self.cell_base + self.cells(config);
        let mut sum = 0i64;
        for (key, stuck, ones) in map.stuck_words(cells) {
            for b in bits(stuck) {
                let at = key * 64 + b - self.cell_base;
                let (value, slice) = (at / span, (at % span) as u32 * config.cell_bits);
                let (row, code, sign) = if value < data_values {
                    let value = value as usize;
                    (value / self.cols, i64::from(weights[value]), -1)
                } else {
                    let row = (value - data_values) as usize;
                    let sum: i32 = weights[row * self.cols..(row + 1) * self.cols].iter().sum();
                    (row, i64::from(sum), 1)
                };
                let target = (code & width) >> slice & level_mask;
                let pinned = if (ones >> b) & 1 == 0 { 0 } else { level_mask };
                sum += sign * i64::from(inputs[row]) * ((pinned - target) << slice);
            }
        }
        (sum as f64).abs()
    }

    /// Diagnostic read-back: the stuck cells inside this block's cell
    /// range (what a controller's verify scan pins down after a residual
    /// trips). These are the cells the runtime quarantines. The scan sets
    /// down the chunks of a seeded map's rule it reads (see
    /// [`FaultMap::first_stuck_in`]); the logical map is unchanged.
    pub fn suspect_cells(&self, map: &mut FaultMap, config: &ReramConfig) -> Vec<u64> {
        let cells = self.cell_base..self.cell_base + self.cells(config);
        map.materialise(cells.clone());
        map.stuck_cells_in(cells).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::StuckAt;

    fn block_weights(b: &AbftBlock) -> Vec<i32> {
        (0..b.rows * b.cols)
            .map(|i| ((i as i32 * 37) % 201) - 100)
            .collect()
    }

    fn inputs(rows: usize) -> Vec<i32> {
        (0..rows).map(|i| ((i as i32 * 13) % 15) - 7).collect()
    }

    #[test]
    fn clean_hardware_has_exactly_zero_residual() {
        let cfg = ReramConfig::default();
        let b = AbftBlock::new(8, 6, 0);
        let w = block_weights(&b);
        let obs = b.checked_mmv(&FaultMap::pristine(), None, &w, &inputs(8), &cfg);
        assert_eq!(obs.residual, 0.0);
        assert!(!obs.flagged(0.0));
        for (e, p) in obs.outputs_exact.iter().zip(&obs.outputs_perceived) {
            assert_eq!(*e as f64, *p);
        }
    }

    #[test]
    fn stuck_data_cell_trips_the_residual() {
        let cfg = ReramConfig::default();
        let b = AbftBlock::new(8, 6, 0);
        let w = block_weights(&b);
        let mut map = FaultMap::pristine();
        // Weight (0,0) is negative, so its most significant slice is 0xF;
        // pinning it at zero shifts the perceived weight while the
        // checksum column stays put — residual fires.
        map.set_stuck(3, StuckAt::Zero);
        let obs = b.checked_mmv(&map, None, &w, &inputs(8), &cfg);
        assert!(obs.residual > 0.0, "silent corruption must be visible");
        assert_eq!(b.suspect_cells(&mut map, &cfg), vec![3]);
    }

    #[test]
    fn stuck_checksum_cell_also_trips_the_residual() {
        let cfg = ReramConfig::default();
        let b = AbftBlock::new(4, 4, 0);
        let w = block_weights(&b);
        let mut map = FaultMap::pristine();
        // First checksum cell sits right after the 16 data weights. Row 0
        // sums negative, so its top slice is 0xF — pin it at zero.
        let checksum_cell = 16 * cfg.cells_per_weight() as u64;
        map.set_stuck(checksum_cell + 3, StuckAt::Zero);
        let obs = b.checked_mmv(&map, None, &w, &inputs(4), &cfg);
        assert!(obs.residual > 0.0);
    }

    #[test]
    fn stuck_cell_agreeing_with_its_target_is_benign() {
        let cfg = ReramConfig::default();
        let b = AbftBlock::new(4, 4, 0);
        // All-zero weights: a stuck-at-zero cell stores exactly the right
        // level, so the residual must stay clean (no false positive).
        let w = vec![0i32; 16];
        let mut map = FaultMap::pristine();
        map.set_stuck(0, StuckAt::Zero);
        let obs = b.checked_mmv(&map, None, &w, &inputs(4), &cfg);
        assert_eq!(obs.residual, 0.0);
    }

    #[test]
    fn programming_covers_data_and_checksum_cells() {
        let cfg = ReramConfig::default();
        let b = AbftBlock::new(3, 5, 0);
        let w = block_weights(&b);
        let mut map = FaultMap::pristine();
        let report = b.program(&mut map, &w, &cfg, &WritePolicy::default());
        assert!(report.succeeded());
        // One pulse per cell: data + checksum column.
        assert_eq!(report.attempts, b.cells(&cfg));
        assert_eq!(b.stored_values(), 3 * 6);
        assert!((b.overhead() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn checked_mmv_is_deterministic() {
        let cfg = ReramConfig::default();
        let b = AbftBlock::new(6, 6, 128);
        let w = block_weights(&b);
        let map = FaultMap::seeded(9, 0.05, b.cell_base + b.cells(&cfg));
        let a = b.checked_mmv(&map, None, &w, &inputs(6), &cfg);
        let c = b.checked_mmv(&map, None, &w, &inputs(6), &cfg);
        assert_eq!(a, c);
    }
}

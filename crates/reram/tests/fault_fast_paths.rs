//! The fault-state fast paths against per-cell reference copies.
//!
//! `FaultMap::advance_wear` walks its range once beside the stuck cells and
//! evaluates a cell's limit only once its counter passes the model's floor,
//! `FaultMap::program_run` programs consecutive weights in one range walk
//! with their slices on the stack, `AbftBlock::checked_mmv` reads a healthy
//! weight back as its code, and `FaultMap::seeded` picks its stuck cells by
//! an integer threshold. The references below are the straightforward
//! per-cell versions: one map lookup per cell and pulse, one
//! `WearModel::limit_of` per cell per pass, one weight at a time, one slice
//! walk per weight, one float deviate per seeded cell. Every fast path must
//! agree with them bit for bit: the broken-cell lists, the write reports,
//! every wear counter, the stuck set with its polarities, and every field
//! of the ABFT observation.
//!
//! `FaultMap` keeps its wear counters by 64-cell chunk, so the scenarios
//! also put wear ranges, weights and stuck cells on chunk edges, and check
//! that two maps compare equal exactly when their per-cell states do,
//! whichever order of programming and wearing created their chunks.
//!
//! A seeded map records its rule and hashes a chunk's cells only when a
//! read or a mutation reaches it. The eager loop it replaced, which hashes
//! every cell up front, is the reference here: the lazy map must read and
//! evolve exactly like the map that loop built, under any interleaving of
//! mutations, at any cell count and rate. Scans that set down the chunks
//! they hash must find what a read of an untouched copy finds and leave
//! the logical map as it was.
//!
//! `AbftBlock::residual` reads the residual of a checked MMV without
//! variation off the block's stuck cells; it must match the reference's
//! residual bit for bit, on random blocks and on every single fault of the
//! self-healing runtime's block, whose detector coverage is pinned here.

use lergan_reram::{
    AbftBlock, AbftObservation, FaultMap, ReramConfig, StuckAt, VariationModel, WearModel,
    WritePolicy, WriteReport,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// Cells every scenario lives in.
const SPACE: u64 = 1024;

/// Cells per wear-counter chunk of `FaultMap`.
const CHUNK: u64 = 64;

fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(seed: u64, index: u64) -> f64 {
    (mix(seed, index) >> 11) as f64 / (1u64 << 53) as f64
}

fn slices(code: i32, config: &ReramConfig) -> Vec<u8> {
    let bits = config.data_bits;
    let unsigned = (code as i64 & ((1i64 << bits) - 1)) as u64;
    let mask = (1u64 << config.cell_bits) - 1;
    (0..config.cells_per_weight())
        .map(|i| ((unsigned >> (i as u32 * config.cell_bits)) & mask) as u8)
        .collect()
}

/// The fault state as plain per-cell maps, driven by the reference paths.
#[derive(Debug, Clone, Default, PartialEq)]
struct Reference {
    stuck: BTreeMap<u64, StuckAt>,
    wear: BTreeMap<u64, u64>,
    dead: BTreeSet<usize>,
}

impl Reference {
    /// The stuck cells of `map` (a fresh map: no wear yet).
    fn of(map: &FaultMap) -> Self {
        Reference {
            stuck: map
                .stuck_cells_in(0..u64::MAX)
                .map(|c| (c, map.stuck_at(c).unwrap()))
                .collect(),
            ..Reference::default()
        }
    }

    /// The state `FaultMap::seeded(seed, rate, cells)` stands for, over the
    /// cells of `within`, hashed cell by cell.
    fn seeded(seed: u64, rate: f64, cells: u64, within: Range<u64>) -> Self {
        let mut stuck = BTreeMap::new();
        if rate > 0.0 {
            let threshold = (rate * (1u64 << 53) as f64).ceil() as u64;
            for cell in within.start..within.end.min(cells) {
                if mix(seed, cell) >> 11 < threshold {
                    let polarity = if mix(seed ^ 0xA5A5_A5A5_5A5A_5A5A, cell) & 1 == 0 {
                        StuckAt::Zero
                    } else {
                        StuckAt::One
                    };
                    stuck.insert(cell, polarity);
                }
            }
        }
        Reference {
            stuck,
            ..Reference::default()
        }
    }

    fn freeze(&mut self, cell: u64, seed: u64) {
        let polarity = if mix(seed ^ 0xF0F0_F0F0_0F0F_0F0F, cell) & 1 == 0 {
            StuckAt::Zero
        } else {
            StuckAt::One
        };
        self.stuck.insert(cell, polarity);
    }

    fn advance_wear(&mut self, cells: Range<u64>, pulses: u64, model: &WearModel) -> Vec<u64> {
        let mut newly = Vec::new();
        if pulses == 0 {
            return newly;
        }
        for cell in cells {
            if self.stuck.contains_key(&cell) {
                continue;
            }
            let worn = {
                let w = self.wear.entry(cell).or_insert(0);
                *w += pulses;
                *w
            };
            if worn > model.limit_of(cell) {
                self.freeze(cell, model.seed);
                newly.push(cell);
            }
        }
        newly
    }

    fn program_weight(
        &mut self,
        code: i32,
        base: u64,
        config: &ReramConfig,
        policy: &WritePolicy,
    ) -> WriteReport {
        let mut report = WriteReport::default();
        for (i, &target) in slices(code, config).iter().enumerate() {
            let cell = base + i as u64;
            if let Some(polarity) = self.stuck.get(&cell) {
                if polarity.level(config.cell_bits) != target {
                    report.failed_cells.push(cell);
                }
                continue;
            }
            let mut verified = false;
            let mut missed = false;
            for _attempt in 0..=policy.max_retries {
                let pulse = {
                    let w = self.wear.entry(cell).or_insert(0);
                    *w += 1;
                    *w
                };
                report.attempts += 1;
                if policy.endurance_limit > 0 && pulse > policy.endurance_limit {
                    self.freeze(cell, policy.seed);
                    report.newly_stuck += 1;
                    break;
                }
                let fail_rate = if missed {
                    policy.transient_fail_rate.sqrt()
                } else {
                    policy.transient_fail_rate
                };
                let outcome = unit(policy.seed ^ 0x57A7_1C5E_ED5E_ED00, mix(cell, pulse));
                if outcome >= fail_rate {
                    verified = true;
                    break;
                }
                missed = true;
            }
            if !verified {
                if !self.stuck.contains_key(&cell) {
                    self.freeze(cell, policy.seed);
                    report.newly_stuck += 1;
                }
                report.failed_cells.push(cell);
            }
        }
        report
    }

    fn perceived_weight(
        &self,
        variation: Option<&VariationModel>,
        code: i32,
        base: u64,
        config: &ReramConfig,
    ) -> f64 {
        let mut v = 0.0f64;
        for (i, &s) in slices(code, config).iter().enumerate() {
            let cell = base + i as u64;
            let level = match self.stuck.get(&cell) {
                Some(polarity) => f64::from(polarity.level(config.cell_bits)),
                None => s as f64 + variation.map_or(0.0, |m| m.deviation_at(cell)),
            };
            v += level * f64::from(1u32 << (i as u32 * config.cell_bits));
        }
        if code < 0 {
            v -= f64::from(1u32 << config.data_bits);
        }
        v
    }

    fn checked_mmv(
        &self,
        block: &AbftBlock,
        variation: Option<&VariationModel>,
        weights: &[i32],
        inputs: &[i32],
        config: &ReramConfig,
    ) -> AbftObservation {
        let (rows, cols) = (block.rows, block.cols);
        let span = config.cells_per_weight() as u64;
        let cell_of = |r: usize, c: usize| {
            let value = if c == cols {
                rows * cols + r
            } else {
                r * cols + c
            };
            block.cell_base + value as u64 * span
        };
        let checksums = block.checksums(weights);
        let mut outputs_exact = vec![0i64; cols];
        let mut outputs_perceived = vec![0.0f64; cols];
        let mut checksum_perceived = 0.0f64;
        for (r, &x) in inputs.iter().enumerate() {
            for c in 0..cols {
                let w = weights[r * cols + c];
                outputs_exact[c] += w as i64 * x as i64;
                outputs_perceived[c] +=
                    self.perceived_weight(variation, w, cell_of(r, c), config) * x as f64;
            }
            checksum_perceived +=
                self.perceived_weight(variation, checksums[r], cell_of(r, cols), config) * x as f64;
        }
        let residual = (checksum_perceived - outputs_perceived.iter().sum::<f64>()).abs();
        AbftObservation {
            outputs_exact,
            outputs_perceived,
            checksum_perceived,
            residual,
        }
    }

    /// The first difference between `map` and this state over the
    /// scenario's cell space, if any.
    fn diff(&self, map: &FaultMap) -> Option<String> {
        let stuck: Vec<u64> = map.stuck_cells_in(0..SPACE).collect();
        let expect: Vec<u64> = self.stuck.range(0..SPACE).map(|(&c, _)| c).collect();
        if stuck != expect {
            return Some(format!("stuck cells {stuck:?} != {expect:?}"));
        }
        for cell in 0..SPACE {
            if map.stuck_at(cell) != self.stuck.get(&cell).copied() {
                return Some(format!("cell {cell} polarity differs"));
            }
            let expect = self.wear.get(&cell).copied().unwrap_or(0);
            if map.wear_of(cell) != expect {
                return Some(format!(
                    "cell {cell} wear {} != {expect}",
                    map.wear_of(cell)
                ));
            }
        }
        if *map != self.rebuild() {
            return Some("the map differs from its cell-by-cell rebuild".into());
        }
        None
    }

    /// A map holding exactly this state, built one cell at a time: each
    /// counter by a wear pass over its cell alone, then the stuck cells.
    /// `FaultMap`'s equality must not see how a state was reached.
    fn rebuild(&self) -> FaultMap {
        let mut map = FaultMap::pristine();
        let model = WearModel::disabled();
        for (&cell, &worn) in &self.wear {
            map.advance_wear(&mut model.limits(cell..cell + 1), worn);
        }
        for (&cell, &polarity) in &self.stuck {
            map.set_stuck(cell, polarity);
        }
        for &tile in &self.dead {
            map.kill_tile(tile);
        }
        map
    }
}

/// Programs `codes` at consecutive weight slots from `base` through the
/// reference, one weight at a time.
fn reference_run(
    reference: &mut Reference,
    codes: &[i32],
    base: u64,
    config: &ReramConfig,
    policy: &WritePolicy,
) -> WriteReport {
    let span = config.cells_per_weight() as u64;
    let mut report = WriteReport::default();
    for (i, &code) in codes.iter().enumerate() {
        report.absorb(reference.program_weight(code, base + i as u64 * span, config, policy));
    }
    report
}

fn stuck_rate(pick: usize) -> f64 {
    [0.0, 0.01, 0.05, 0.3][pick]
}

fn wear_model(pick: usize, seed: u64) -> WearModel {
    match pick {
        0 => WearModel::disabled(),
        1 => WearModel::new(4, 1.0, seed),
        2 => WearModel::new(6, 1.5, seed),
        _ => WearModel::new(12, 3.0, seed),
    }
}

/// A 16-bit code from a raw draw.
fn code(raw: u64) -> i32 {
    (raw % 65_536) as i32 - 32_768
}

/// `ReramConfig::default()` (4 cells per weight, so weights tile the
/// chunks) or 3-bit cells (6 cells per weight, so some weights straddle a
/// chunk edge).
fn config(pick: usize) -> ReramConfig {
    let cell_bits = [4, 3][pick];
    ReramConfig {
        cell_bits,
        ..ReramConfig::default()
    }
}

/// Freezes the first and the last cell of chunk `chunk`.
fn stick_chunk_ends(map: &mut FaultMap, chunk: u64) {
    map.set_stuck(chunk * CHUNK, StuckAt::Zero)
        .set_stuck(chunk * CHUNK + CHUNK - 1, StuckAt::One);
}

/// One programming scenario on a copy of `start`, checked against its
/// per-cell reference: the wear pass over `cells` before the weights are
/// programmed (`wear_first`) or after.
#[allow(clippy::too_many_arguments)]
fn program_and_wear(
    start: &FaultMap,
    cfg: &ReramConfig,
    policy: &WritePolicy,
    model: &WearModel,
    cells: Range<u64>,
    pulses: u64,
    weights: &[(u64, u64)],
    wear_first: bool,
) -> Result<(FaultMap, Reference), TestCaseError> {
    let mut map = start.clone();
    let mut reference = Reference::of(&map);
    let span = cfg.cells_per_weight() as u64;
    for wear_now in [wear_first, !wear_first] {
        if wear_now {
            let fast = map.advance_wear(&mut model.limits(cells.clone()), pulses);
            let slow = reference.advance_wear(cells.clone(), pulses, model);
            prop_assert_eq!(&fast, &slow, "newly broken over {:?}", cells);
            continue;
        }
        for &(raw, slot) in weights {
            let base = slot * span;
            let fast = map.program_weight(code(raw), base, cfg, policy);
            let slow = reference.program_weight(code(raw), base, cfg, policy);
            prop_assert_eq!(&fast, &slow, "weight {} at cell {}", code(raw), base);
        }
    }
    if let Some(d) = reference.diff(&map) {
        return Err(TestCaseError::fail(d));
    }
    Ok((map, reference))
}

/// Every read of `map` against `reference`: the per-cell state and the
/// rebuild (`Reference::diff`), the stuck cells over each of `reads` (which
/// run past the seeded cells and the scenario's space) and over every cell,
/// the stuck count, pristineness, the dead tiles, and a clone.
fn reads_agree(
    map: &FaultMap,
    reference: &Reference,
    reads: &[(u64, u64)],
) -> Result<(), TestCaseError> {
    if let Some(d) = reference.diff(map) {
        return Err(TestCaseError::fail(d));
    }
    let ranges = reads.iter().map(|&(start, len)| start..start + len);
    for cells in ranges.chain([0..u64::MAX, SPACE..u64::MAX]) {
        let lazy: Vec<u64> = map.stuck_cells_in(cells.clone()).collect();
        let eager: Vec<u64> = reference
            .stuck
            .range(cells.clone())
            .map(|(&c, _)| c)
            .collect();
        prop_assert_eq!(lazy, eager, "stuck cells in {:?}", cells);
    }
    prop_assert_eq!(map.stuck_cells(), reference.stuck.len());
    prop_assert_eq!(
        map.is_pristine(),
        reference.stuck.is_empty() && reference.dead.is_empty()
    );
    prop_assert_eq!(
        map.dead_tiles().collect::<BTreeSet<_>>(),
        reference.dead.clone()
    );
    let copy = map.clone();
    prop_assert!(copy == *map, "a clone compares equal");
    prop_assert_eq!(copy.stuck_cells(), reference.stuck.len());
    Ok(())
}

fn observations_agree(fast: &AbftObservation, slow: &AbftObservation) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    fast.outputs_exact == slow.outputs_exact
        && bits(&fast.outputs_perceived) == bits(&slow.outputs_perceived)
        && fast.checksum_perceived.to_bits() == slow.checksum_perceived.to_bits()
        && fast.residual.to_bits() == slow.residual.to_bits()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Two wear passes over overlapping ranges: the second straddles the
    /// counters the first left, the stuck cells it froze and untouched
    /// cells. A third pass sits on a chunk edge: it straddles one, covers a
    /// whole chunk and its neighbours' edge cells, or starts on a chunk's
    /// stuck last cell. That chunk's first and last cells are stuck.
    #[test]
    fn wear_pass_matches_the_per_cell_reference(
        seed in 0u64..u64::MAX,
        rate in 0usize..4,
        model in 0usize..4,
        first in (0u64..512, 0u64..256),
        second in (0u64..512, 0u64..256),
        pulses in (0u64..6, 0u64..6),
        rounds in 1usize..4,
        edge in (1u64..15, 0usize..3, 1u64..8),
    ) {
        let model = wear_model(model, seed ^ 0x3EA2);
        let mut map = FaultMap::seeded(seed, stuck_rate(rate), SPACE);
        let (chunk, shape, reach) = edge;
        stick_chunk_ends(&mut map, chunk);
        let mut reference = Reference::of(&map);
        let low = chunk * CHUNK;
        let on_edge = [
            low - reach..low + reach,
            low - reach..low + CHUNK + reach,
            low + CHUNK - 1..low + CHUNK + reach,
        ][shape].clone();
        let passes = [
            (first.0..first.0 + first.1, pulses.0),
            (second.0..second.0 + second.1, pulses.1),
            (on_edge, pulses.0.max(1)),
        ];
        for _ in 0..rounds {
            for (cells, pulses) in passes.clone() {
                let fast = map.advance_wear(&mut model.limits(cells.clone()), pulses);
                let slow = reference.advance_wear(cells.clone(), pulses, &model);
                prop_assert_eq!(&fast, &slow, "newly broken over {:?}", cells);
                if let Some(d) = reference.diff(&map) {
                    return Err(TestCaseError::fail(d));
                }
            }
        }
    }

    /// Write-and-verify over seeded stuck cells and earlier wear, under
    /// transient failures, endurance cut-offs and retry budgets, with 4-
    /// or 6-cell weights (the latter straddle chunk edges) and a chunk
    /// whose first and last cells are stuck. The wear pass runs before the
    /// programming or after it; the two resulting maps must compare equal
    /// exactly when their per-cell references do. With no failures and no
    /// wear-out nothing breaks, so the two orders must reach equal maps.
    #[test]
    fn programming_matches_the_per_cell_reference(
        seed in 0u64..u64::MAX,
        rate in 0usize..4,
        fail in 0usize..4,
        endurance in 0u64..6,
        retries in 0u32..4,
        wear in (0u64..64, 0u64..4),
        weights in collection::vec((0u64..u64::MAX, 0u64..64), 1..24),
        layout in (0usize..2, 0u64..4),
    ) {
        let (cells, edge) = layout;
        let cfg = config(cells);
        let policy = WritePolicy {
            max_retries: retries,
            transient_fail_rate: [0.0, 0.1, 0.5, 1.0][fail],
            endurance_limit: endurance,
            seed: seed ^ 0x51,
        };
        let mut start = FaultMap::seeded(seed, stuck_rate(rate), SPACE);
        stick_chunk_ends(&mut start, edge);
        let model = WearModel::new(3, 1.0, seed);
        let range = wear.0 * 4..wear.0 * 4 + 128;
        let run = |policy: &WritePolicy, model: &WearModel, wear_first: bool| {
            program_and_wear(&start, &cfg, policy, model, range.clone(), wear.1, &weights, wear_first)
        };
        let (worn_first, worn_first_ref) = run(&policy, &model, true)?;
        let (worn_last, worn_last_ref) = run(&policy, &model, false)?;
        prop_assert_eq!(
            worn_first == worn_last,
            worn_first_ref == worn_last_ref,
            "map equality disagrees with per-cell equality"
        );
        let calm = WritePolicy {
            transient_fail_rate: 0.0,
            endurance_limit: 0,
            ..policy
        };
        let (worn_first, _) = run(&calm, &WearModel::disabled(), true)?;
        let (worn_last, _) = run(&calm, &WearModel::disabled(), false)?;
        prop_assert_eq!(worn_first, worn_last);
    }

    /// The checked MMV over seeded stuck cells, with and without variation
    /// (variation keeps every weight on the slice walk).
    #[test]
    fn checked_mmv_matches_the_slice_by_slice_reference(
        seed in 0u64..u64::MAX,
        rate in 0usize..4,
        shape in (1usize..9, 1usize..9),
        base in 0u64..64,
        varied in 0usize..2,
    ) {
        let cfg = ReramConfig::default();
        let (rows, cols) = shape;
        let block = AbftBlock::new(rows, cols, base);
        // Row sums stay inside the 16-bit checksum code.
        let bound = 32_767 / cols as u64;
        let weights: Vec<i32> = (0..(rows * cols) as u64)
            .map(|i| (mix(seed, i) % (2 * bound + 1)) as i32 - bound as i32)
            .collect();
        let inputs: Vec<i32> = (0..rows as u64)
            .map(|i| (mix(seed ^ 0x1A, i) % 255) as i32 - 127)
            .collect();
        let variation = VariationModel::new(0.3, seed ^ 0x7);
        let variation = (varied == 1).then_some(&variation);
        let map = FaultMap::seeded(seed, stuck_rate(rate), SPACE);
        let reference = Reference::of(&map);
        let fast = block.checked_mmv(&map, variation, &weights, &inputs, &cfg);
        let slow = reference.checked_mmv(&block, variation, &weights, &inputs, &cfg);
        prop_assert!(observations_agree(&fast, &slow), "{:?} != {:?}", fast, slow);
        if variation.is_none() {
            let residual = block.residual(&map, &weights, &inputs, &cfg);
            prop_assert_eq!(residual.to_bits(), slow.residual.to_bits());
            // Inputs large enough that the MMV's sums may round take the
            // full MMV, whose residual the reference's must match.
            let wide: Vec<i32> = inputs.iter().map(|&x| x << 23).collect();
            let slow = reference.checked_mmv(&block, None, &weights, &wide, &cfg);
            let residual = block.residual(&map, &weights, &wide, &cfg);
            prop_assert_eq!(residual.to_bits(), slow.residual.to_bits());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Runs of consecutive weights over seeded stuck cells, each run landing
    /// on counters earlier runs left (the runs overlap), under transient
    /// fail rates of 0, 0.5 and NaN, endurance cut-offs and retry budgets,
    /// with 4- or 6-cell weights (the latter straddle chunk edges) and a
    /// chunk whose first and last cells are stuck. Each run must report and
    /// leave exactly what programming its weights one at a time does.
    #[test]
    fn program_run_matches_the_per_weight_reference(
        seed in 0u64..u64::MAX,
        rate in 0usize..4,
        fail in 0usize..3,
        endurance in 0u64..6,
        retries in 0u32..4,
        runs in collection::vec((0u64..64, 1usize..40, 0u64..u64::MAX), 1..5),
        layout in (0usize..2, 0u64..8),
    ) {
        let (cells, edge) = layout;
        let cfg = config(cells);
        let policy = WritePolicy {
            max_retries: retries,
            transient_fail_rate: [0.0, 0.5, f64::NAN][fail],
            endurance_limit: endurance,
            seed: seed ^ 0x52,
        };
        let mut map = FaultMap::seeded(seed, stuck_rate(rate), SPACE);
        stick_chunk_ends(&mut map, edge);
        let mut reference = Reference::of(&map);
        let span = cfg.cells_per_weight() as u64;
        for (slot, len, raw) in runs {
            let codes: Vec<i32> = (0..len as u64).map(|i| code(mix(raw, i))).collect();
            let base = slot * span;
            let fast = map.program_run(&codes, base, &cfg, &policy);
            let slow = reference_run(&mut reference, &codes, base, &cfg, &policy);
            prop_assert_eq!(&fast, &slow, "{} weights at cell {}", len, base);
            if let Some(d) = reference.diff(&map) {
                return Err(TestCaseError::fail(d));
            }
        }
    }

    /// An ABFT block placed twice (the second placement overlaps the
    /// first's counters) must leave the state, attempts and quarantine
    /// count of the row-by-row programming it replaced, with the same
    /// failed cells, listed in ascending order.
    #[test]
    fn abft_programming_matches_the_row_by_row_reference(
        seed in 0u64..u64::MAX,
        rate in 0usize..4,
        fail in 0usize..3,
        endurance in 0u64..6,
        shape in (1usize..9, 1usize..9),
        bases in (0u64..300, 0u64..300),
    ) {
        let cfg = ReramConfig::default();
        let (rows, cols) = shape;
        let policy = WritePolicy {
            max_retries: 2,
            transient_fail_rate: [0.0, 0.5, f64::NAN][fail],
            endurance_limit: endurance,
            seed: seed ^ 0x53,
        };
        let bound = 32_767 / cols as u64;
        let weights: Vec<i32> = (0..(rows * cols) as u64)
            .map(|i| (mix(seed, i) % (2 * bound + 1)) as i32 - bound as i32)
            .collect();
        let mut map = FaultMap::seeded(seed, stuck_rate(rate), SPACE);
        let mut reference = Reference::of(&map);
        let span = cfg.cells_per_weight() as u64;
        for base in [bases.0, bases.1] {
            let block = AbftBlock::new(rows, cols, base);
            let fast = block.program(&mut map, &weights, &cfg, &policy);
            let checksums = block.checksums(&weights);
            let mut slow = WriteReport::default();
            for r in 0..rows {
                for c in 0..cols {
                    let cell = base + (r * cols + c) as u64 * span;
                    slow.absorb(reference.program_weight(weights[r * cols + c], cell, &cfg, &policy));
                }
                let cell = base + (rows * cols + r) as u64 * span;
                slow.absorb(reference.program_weight(checksums[r], cell, &cfg, &policy));
            }
            prop_assert_eq!(fast.attempts, slow.attempts);
            prop_assert_eq!(fast.newly_stuck, slow.newly_stuck);
            prop_assert!(fast.failed_cells.windows(2).all(|w| w[0] < w[1]), "not ascending");
            slow.failed_cells.sort_unstable();
            prop_assert_eq!(&fast.failed_cells, &slow.failed_cells);
            if let Some(d) = reference.diff(&map) {
                return Err(TestCaseError::fail(d));
            }
        }
    }

    /// One set of limits kept across every step of a placement, as the
    /// runtime keeps it, against limits evaluated afresh for every cell at
    /// every step. Some counters start far above the model's floor (wear
    /// from before the placement), the models include a disabled one and
    /// a spread of 1, and the block is reprogrammed between steps.
    #[test]
    fn lazy_limits_match_eager_limits_at_every_step(
        seed in 0u64..u64::MAX,
        rate in 0usize..4,
        model in 0usize..4,
        earlier in (0u64..800, 0u64..200, 0u64..40),
        block in (0u64..800, 1u64..200),
        steps in collection::vec((0u64..4, 0usize..6), 1..16),
    ) {
        let model = wear_model(model, seed ^ 0x3EA3);
        let mut map = FaultMap::seeded(seed, stuck_rate(rate), SPACE);
        let mut reference = Reference::of(&map);
        // Wear from before the placement, under a model that breaks nothing.
        let (start, len, pulses) = earlier;
        let old = start..(start + len).min(SPACE);
        map.advance_wear(&mut WearModel::disabled().limits(old.clone()), pulses);
        reference.advance_wear(old, pulses, &WearModel::disabled());
        let cells = block.0..(block.0 + block.1).min(SPACE);
        let mut limits = model.limits(cells.clone());
        let cfg = ReramConfig::default();
        let policy = WritePolicy::default();
        let weights = (cells.end - cells.start) / 4;
        let codes: Vec<i32> = (0..weights).map(|i| code(mix(seed, i))).collect();
        for (step, (pulses, reprogram)) in steps.into_iter().enumerate() {
            if reprogram == 0 {
                let fast = map.program_run(&codes, cells.start, &cfg, &policy);
                let slow = reference_run(&mut reference, &codes, cells.start, &cfg, &policy);
                prop_assert_eq!(fast, slow);
            }
            let fast = map.advance_wear(&mut limits, pulses);
            let slow = reference.advance_wear(cells.clone(), pulses, &model);
            prop_assert_eq!(&fast, &slow, "step {}", step);
            if let Some(d) = reference.diff(&map) {
                return Err(TestCaseError::fail(d));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// A seeded map against the eager loop's map under a random
    /// interleaving of `set_stuck`, `program_run` (transient failures and
    /// an endurance limit), `advance_wear` and `kill_tile`, at rates of 0,
    /// NaN, 5·10⁻⁴, 0.3 and 3,000 (saturated: every cell stuck) and cell
    /// counts on and off chunk edges. After every operation each read must
    /// agree ([`reads_agree`]); every write report and broken list must too.
    #[test]
    fn lazy_seeding_matches_the_eager_loop(
        seed in 0u64..u64::MAX,
        rate in 0usize..5,
        cells in 0usize..8,
        ops in collection::vec((0usize..4, 0u64..SPACE, 1u64..160, 0u64..u64::MAX), 0..10),
        reads in collection::vec((0u64..SPACE + 64, 0u64..400), 1..5),
    ) {
        let rate = [0.0, f64::NAN, 5e-4, 0.3, 3_000.0][rate];
        let cells = [0u64, 1, 63, 64, 65, 100, 700, 1000][cells];
        let mut map = FaultMap::seeded(seed, rate, cells);
        let mut reference = Reference::seeded(seed, rate, cells, 0..SPACE);
        reads_agree(&map, &reference, &reads)?;
        let cfg = ReramConfig::default();
        for (op, at, len, raw) in ops {
            let end = (at + len).min(SPACE);
            match op {
                0 => {
                    let polarity = if raw & 1 == 0 { StuckAt::Zero } else { StuckAt::One };
                    map.set_stuck(at, polarity);
                    reference.stuck.insert(at, polarity);
                }
                1 => {
                    let policy = WritePolicy {
                        max_retries: (raw % 3) as u32,
                        transient_fail_rate: [0.0, 0.5, f64::NAN][(raw >> 8) as usize % 3],
                        endurance_limit: (raw >> 16) % 4,
                        seed: raw,
                    };
                    let codes: Vec<i32> =
                        (0..(end - at).div_ceil(4)).map(|i| code(mix(raw, i))).collect();
                    let fast = map.program_run(&codes, at, &cfg, &policy);
                    let slow = reference_run(&mut reference, &codes, at, &cfg, &policy);
                    prop_assert_eq!(fast, slow, "{} weights at cell {}", codes.len(), at);
                }
                2 => {
                    let model = wear_model(raw as usize % 4, raw);
                    let pulses = 1 + (raw >> 8) % 5;
                    let fast = map.advance_wear(&mut model.limits(at..end), pulses);
                    let slow = reference.advance_wear(at..end, pulses, &model);
                    prop_assert_eq!(fast, slow, "newly broken over {:?}", at..end);
                }
                _ => {
                    let tile = (raw % 16) as usize;
                    map.kill_tile(tile);
                    reference.dead.insert(tile);
                }
            }
            reads_agree(&map, &reference, &reads)?;
        }
    }
}

/// Where a scan starts: near a 64-cell or a 4,096-cell boundary, or near
/// the end of the seeded cells, `shift − 70` cells from it.
fn scan_start(cells: u64, near: usize, at: u64, shift: u64) -> u64 {
    let anchor = match near {
        0 => at % 40 * 64,
        1 => at % 6 * 4_096,
        2 => cells,
        _ => (cells / 2) / 4_096 * 4_096,
    };
    (anchor + shift).saturating_sub(70)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Materialising scans (`first_stuck_in`, `count_stuck_in` and the ABFT
    /// verify scan) over random seeded maps find what a `&self` read of an
    /// untouched clone finds, and leave the map equal to that clone, to its
    /// cell-by-cell rebuild, and to the clone again after the same
    /// mutations land on both. The ranges start and end around 64-cell and
    /// 4,096-cell boundaries and the end of the seeded cells, and run past
    /// it; the maps cover up to 2⁴⁰ cells (no rebuild there) at rates of 0,
    /// NaN, 5·10⁻⁴, 0.05 and 3,000.
    #[test]
    fn materialising_scans_leave_the_logical_map(
        seed in 0u64..u64::MAX,
        rate in 0usize..5,
        cells in 0usize..6,
        scans in collection::vec(
            (0usize..3, 0usize..4, 0u64..1_000, 0u64..140, 0usize..6, 0usize..40),
            1..8,
        ),
        write in (0usize..4, 0u64..1_000, 0u64..140, 0u64..u64::MAX),
    ) {
        let rate = [0.0, f64::NAN, 5e-4, 0.05, 3_000.0][rate];
        let cells = [0u64, 63, 4_095, 4_097, 9_000, 1 << 40][cells];
        let mut map = FaultMap::seeded(seed, rate, cells);
        let rebuild = (cells < 1 << 20)
            .then(|| Reference::seeded(seed, rate, cells, 0..cells).rebuild());
        let cfg = ReramConfig::default();
        for (kind, near, at, shift, len, bound) in scans {
            let start = scan_start(cells, near, at, shift);
            let len = [1u64, 63, 64, 65, 4_096, 5_000][len];
            let range = start..start + len;
            let untouched = map.clone();
            match kind {
                0 => prop_assert_eq!(
                    map.first_stuck_in(range.clone()),
                    untouched.stuck_cells_in(range.clone()).next(),
                    "first stuck cell in {:?}", range
                ),
                1 => prop_assert_eq!(
                    map.count_stuck_in(range.clone(), bound),
                    untouched.stuck_cells_in(range.clone()).take(bound).count(),
                    "stuck cells in {:?} up to {}", range, bound
                ),
                _ => {
                    let block = AbftBlock::new(1 + bound % 5, 1 + bound % 7, start);
                    let cells = start..start + block.cells(&cfg);
                    prop_assert_eq!(
                        block.suspect_cells(&mut map, &cfg),
                        untouched.stuck_cells_in(cells).collect::<Vec<_>>()
                    );
                }
            }
            prop_assert!(map == untouched, "scan of {:?}", range);
            prop_assert!(untouched == map, "scan of {:?}, compared the other way", range);
            if let Some(rebuild) = &rebuild {
                prop_assert!(map == *rebuild, "the rebuild differs after {:?}", range);
            }
        }
        // The same writes on the scanned map and a fresh one.
        let (near, at, shift, raw) = write;
        let start = scan_start(cells, near, at, shift);
        let mut fresh = FaultMap::seeded(seed, rate, cells);
        let codes: Vec<i32> = (0..40).map(|i| code(mix(raw, i))).collect();
        let policy = WritePolicy::with_fail_rate(0.3, raw);
        let model = wear_model(raw as usize % 4, raw);
        let limits = model.limits(start..start + 300);
        for map in [&mut map, &mut fresh] {
            map.set_stuck(start + raw % 200, StuckAt::One);
        }
        prop_assert_eq!(
            map.program_run(&codes, start, &cfg, &policy),
            fresh.program_run(&codes, start, &cfg, &policy)
        );
        prop_assert_eq!(
            map.advance_wear(&mut limits.clone(), 3),
            fresh.advance_wear(&mut limits.clone(), 3)
        );
        prop_assert!(map == fresh, "writes after the scans");
    }
}

#[test]
fn a_map_over_two_to_the_forty_cells_seeds_in_constant_time() {
    // The eager loop hashed every cell: 2⁴⁰ of them is over half an hour.
    let cells = 1u64 << 40;
    let cfg = ReramConfig::default();
    let (rows, cols) = (32, 32);
    let weights: Vec<i32> = (0..(rows * cols) as u64)
        .map(|i| (mix(7, i) % 2_001) as i32 - 1_000)
        .collect();
    let inputs: Vec<i32> = (0..rows as u64)
        .map(|i| (mix(8, i) % 255) as i32 - 127)
        .collect();
    let policy = WritePolicy::with_fail_rate(0.05, 0xF00D);
    let mut faulted = 0;
    for (seed, base) in [(1u64, 0u64), (2, 1 << 39), (3, cells - 5_000)] {
        let mut map = FaultMap::seeded(seed, 5e-4, cells);
        let block = AbftBlock::new(rows, cols, base);
        let span = base..base + block.cells(&cfg);
        let mut reference = Reference::seeded(seed, 5e-4, cells, span.clone());
        let before: Vec<u64> = map.stuck_cells_in(span.clone()).collect();
        assert_eq!(before, reference.stuck.keys().copied().collect::<Vec<_>>());
        faulted += before.len();

        let fast = block.program(&mut map, &weights, &cfg, &policy);
        let checksums = block.checksums(&weights);
        let mut slow = WriteReport::default();
        let slots = weights.iter().chain(&checksums).enumerate();
        for (i, &code) in slots {
            slow.absorb(reference.program_weight(code, base + i as u64 * 4, &cfg, &policy));
        }
        assert_eq!(fast, slow, "seed {seed}");

        let observed = block.checked_mmv(&map, None, &weights, &inputs, &cfg);
        let expected = reference.checked_mmv(&block, None, &weights, &inputs, &cfg);
        assert!(observations_agree(&observed, &expected), "seed {seed}");
        let after: Vec<u64> = map.stuck_cells_in(span.clone()).collect();
        assert_eq!(after, reference.stuck.keys().copied().collect::<Vec<_>>());
        for cell in span {
            assert_eq!(
                map.wear_of(cell),
                reference.wear.get(&cell).copied().unwrap_or(0)
            );
        }
    }
    assert!(faulted > 0, "no block holds a seeded stuck cell");
}

#[test]
fn no_limit_lies_below_the_floor() {
    let means = [1u64, 2, 3, 7, 15, 20, 100, 1_000, 10_000, 1 << 40];
    let spreads = [1.0, 1.000_001, 1.01, 1.3, 1.5, 2.0, 3.0, 4.0, 10.0, 1e6];
    for mean in means {
        for spread in spreads {
            let model = WearModel::new(mean, spread, mean ^ spread.to_bits());
            let floor = model.floor();
            assert!(floor >= 1);
            for cell in 0..100_000 {
                let limit = model.limit_of(cell);
                assert!(
                    floor <= limit,
                    "mean {mean} spread {spread} cell {cell}: floor {floor} > limit {limit}"
                );
            }
        }
    }
    // Spreads `WearModel::new` rejects, set through the public fields.
    for spread in [0.5, 0.0, -2.0, f64::NAN, f64::INFINITY] {
        let model = WearModel {
            endurance_mean: 1_000,
            spread,
            seed: 3,
        };
        let floor = model.floor();
        assert!(
            (0..100_000).all(|cell| floor <= model.limit_of(cell)),
            "spread {spread}"
        );
    }
    assert_eq!(WearModel::disabled().floor(), u64::MAX);
}

#[test]
fn integer_seeding_picks_the_cells_the_float_test_picks() {
    let float_pick = |seed: u64, rate: f64| -> Vec<u64> {
        (0..SPACE).filter(|&c| unit(seed, c) < rate).collect()
    };
    let picked = |seed: u64, rate: f64| -> Vec<u64> {
        FaultMap::seeded(seed, rate, SPACE)
            .stuck_cells_in(0..SPACE)
            .collect()
    };
    let step = 1.0 / (1u64 << 53) as f64;
    for seed in 0..32u64 {
        // Rates of 2⁻⁵³·k: small, random, and exactly at, one step off or
        // half a step past the deviate of a cell, where the two tests could
        // part ways.
        let mut rates = vec![
            step,
            2.0 * step,
            3.0 * step,
            1.0,
            1.0 + f64::EPSILON,
            2.5,
            1e300,
        ];
        rates.push(f64::INFINITY);
        for i in 0..8u64 {
            rates.push((mix(seed ^ 0xF1, i) >> 11) as f64 * step);
            let at = (mix(seed, i * 97 % SPACE) >> 11) as f64 * step;
            rates.extend([at, at + step, at - step, at + 0.5 * step]);
        }
        rates.extend([0.0005, 0.01, 0.3]);
        for rate in rates {
            assert_eq!(
                picked(seed, rate),
                float_pick(seed, rate),
                "seed {seed} rate {rate:e}"
            );
        }
        for rate in [f64::NAN, -0.0, 0.0, -step, -1.0, f64::NEG_INFINITY] {
            assert!(
                FaultMap::seeded(seed, rate, SPACE).is_pristine(),
                "rate {rate}"
            );
        }
    }
    // Every cell at or above rate 1.
    assert_eq!(picked(5, 1.0).len() as u64, SPACE);
}

#[test]
fn wear_ranges_that_start_or_end_on_a_stuck_cell() {
    let model = WearModel::new(5, 2.0, 0xC0DE);
    for seed in 0..16u64 {
        let mut map = FaultMap::seeded(seed, 0.05, SPACE);
        let mut reference = Reference::of(&map);
        let stuck: Vec<u64> = map.stuck_cells_in(0..SPACE).collect();
        assert!(stuck.len() >= 4, "seed {seed} seeds too few stuck cells");
        let ranges = [
            stuck[0]..stuck[2] + 1,
            stuck[1]..stuck[3],
            stuck[1]..stuck[1] + 1,
            stuck[0]..SPACE,
        ];
        for _ in 0..4 {
            for cells in ranges.clone() {
                let fast = map.advance_wear(&mut model.limits(cells.clone()), 3);
                let slow = reference.advance_wear(cells, 3, &model);
                assert_eq!(fast, slow, "seed {seed}");
                assert_eq!(reference.diff(&map), None, "seed {seed}");
            }
        }
    }
}

#[test]
fn zero_pulses_touch_nothing() {
    let model = WearModel::new(1, 1.0, 3);
    let mut map = FaultMap::seeded(9, 0.05, SPACE);
    let before = map.clone();
    assert!(map.advance_wear(&mut model.limits(0..SPACE), 0).is_empty());
    assert_eq!(map, before);
    let cfg = ReramConfig::default();
    let policy = WritePolicy {
        max_retries: 0,
        ..WritePolicy::default()
    };
    let mut reference = Reference::of(&map);
    let fast = map.program_weight(-1, 0, &cfg, &policy);
    let slow = reference.program_weight(-1, 0, &cfg, &policy);
    assert_eq!(fast, slow);
    assert_eq!(reference.diff(&map), None);
}

#[test]
fn a_disabled_model_only_counts() {
    let model = WearModel::disabled();
    let mut map = FaultMap::seeded(4, 0.01, SPACE);
    let mut reference = Reference::of(&map);
    for cells in [0..300, 200..700, 650..SPACE] {
        let fast = map.advance_wear(&mut model.limits(cells.clone()), 1 << 40);
        let slow = reference.advance_wear(cells, 1 << 40, &model);
        assert!(fast.is_empty());
        assert_eq!(fast, slow);
    }
    assert_eq!(reference.diff(&map), None);
}

#[test]
fn a_code_outside_the_data_width_still_panics_in_the_checked_mmv() {
    let cfg = ReramConfig::default();
    let block = AbftBlock::new(1, 1, 0);
    let result = std::panic::catch_unwind(|| {
        block.checked_mmv(&FaultMap::pristine(), None, &[40_000], &[1], &cfg)
    });
    assert!(result.is_err(), "a 17-bit code must be rejected");
    let result =
        std::panic::catch_unwind(|| block.residual(&FaultMap::pristine(), &[40_000], &[1], &cfg));
    assert!(result.is_err(), "and by the residual");
}

#[test]
fn a_code_outside_the_data_width_panics_before_programming() {
    let cfg = ReramConfig::default();
    let mut map = FaultMap::seeded(2, 0.05, SPACE);
    let before = map.clone();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        map.program_run(&[1, 2, 32_768, 3], 0, &cfg, &WritePolicy::default())
    }));
    assert!(result.is_err(), "a 17-bit code must be rejected");
    assert_eq!(map, before, "nothing is programmed before the check");
}

/// The self-healing runtime's monitored block: 32 × 32 weights at cell 0,
/// its weights and its probe vector.
fn runtime_block() -> (AbftBlock, Vec<i32>, Vec<i32>) {
    let weights = (0..32 * 32).map(|i| ((i * 37) % 201) - 100).collect();
    let inputs = (0..32).map(|i| ((i * 13) % 15) - 7).collect();
    (AbftBlock::new(32, 32, 0), weights, inputs)
}

/// `RecoveryPolicy::residual_threshold`'s default: a residual at or below
/// it passes.
const RESIDUAL_THRESHOLD: f64 = 0.5;

/// Single stuck-at faults on the runtime block's data cells that change
/// their weight: 5,849 of the 8,192 (cell × polarity).
const DATA_FAULTS_THAT_CORRUPT: usize = 5_849;

/// Finding (blind rows): the probe vector is 0 at rows 4 and 19, so the 366
/// of those faults that sit there leave the residual at 0.
const BLIND_ROW_ESCAPES: usize = 366;

/// Single faults on the checksum column's cells that change its weight,
/// and how many of them sit in a blind row.
const CHECKSUM_FAULTS_THAT_CORRUPT: (usize, usize) = (187, 11);

/// Same-row pairs of a data fault that changes its weight, in a row with a
/// non-zero input, and a fault in the same slice of that row's checksum
/// weight (every polarity of each).
const SAME_SLICE_PAIRS: usize = 10_966;

/// Finding (cancellation): the pairs whose two shifts cancel, leaving the
/// residual at 0.
const CANCELLING_PAIRS: usize = 1_209;

/// Every single stuck-at fault on the runtime's block (cell × polarity),
/// and every same-slice data-plus-checksum pair, through
/// `AbftBlock::residual` and, for the singles, the slice-by-slice
/// reference: the two residuals agree bit for bit, and the faults that
/// corrupt a weight yet pass the threshold are the pinned findings above.
#[test]
fn the_runtime_blocks_detector_coverage_is_pinned() {
    let cfg = ReramConfig::default();
    let (block, weights, inputs) = runtime_block();
    let checksums = block.checksums(&weights);
    let span = cfg.cells_per_weight() as u64;
    let data_cells = weights.len() as u64 * span;
    let value = |cell: u64| (cell / span) as usize;
    let row = |cell: u64| {
        let v = value(cell);
        if v < weights.len() {
            v / block.cols
        } else {
            v - weights.len()
        }
    };
    let corrupts = |cell: u64, polarity: StuckAt| {
        let v = value(cell);
        let code = weights
            .get(v)
            .copied()
            .unwrap_or_else(|| checksums[row(cell)]);
        polarity.level(cfg.cell_bits) != slices(code, &cfg)[(cell % span) as usize]
    };
    let polarities = [StuckAt::Zero, StuckAt::One];
    let mut corrupting = [0usize; 2];
    let mut escapes = [0usize; 2];
    let mut blind = BTreeSet::new();
    for cell in 0..block.cells(&cfg) {
        for polarity in polarities {
            let mut map = FaultMap::pristine();
            map.set_stuck(cell, polarity);
            let fast = block.residual(&map, &weights, &inputs, &cfg);
            let reference = Reference::of(&map);
            let slow = reference.checked_mmv(&block, None, &weights, &inputs, &cfg);
            assert_eq!(
                fast.to_bits(),
                slow.residual.to_bits(),
                "cell {cell} {polarity:?}"
            );
            if corrupts(cell, polarity) {
                let column = usize::from(cell >= data_cells);
                corrupting[column] += 1;
                if fast <= RESIDUAL_THRESHOLD {
                    escapes[column] += 1;
                    blind.insert(row(cell));
                }
            } else {
                assert_eq!(fast, 0.0, "a benign fault moves nothing");
            }
        }
    }
    assert_eq!(corrupting[0], DATA_FAULTS_THAT_CORRUPT);
    assert_eq!(escapes[0], BLIND_ROW_ESCAPES);
    assert_eq!((corrupting[1], escapes[1]), CHECKSUM_FAULTS_THAT_CORRUPT);
    assert_eq!(blind, BTreeSet::from([4, 19]));
    assert!(blind.iter().all(|&r| inputs[r] == 0));

    let (mut pairs, mut cancelling) = (0, 0);
    for (r, _) in inputs.iter().enumerate().filter(|&(_, &x)| x != 0) {
        for data in (r * block.cols) as u64 * span..((r + 1) * block.cols) as u64 * span {
            let check = data_cells + r as u64 * span + data % span;
            for (p, q) in polarities
                .into_iter()
                .flat_map(|p| polarities.map(|q| (p, q)))
            {
                if !corrupts(data, p) {
                    continue;
                }
                let mut map = FaultMap::pristine();
                map.set_stuck(data, p).set_stuck(check, q);
                pairs += 1;
                let fast = block.residual(&map, &weights, &inputs, &cfg);
                if pairs % 64 == 0 {
                    let slow =
                        Reference::of(&map).checked_mmv(&block, None, &weights, &inputs, &cfg);
                    assert_eq!(
                        fast.to_bits(),
                        slow.residual.to_bits(),
                        "cells {data} {check}"
                    );
                }
                cancelling += usize::from(fast <= RESIDUAL_THRESHOLD);
            }
        }
    }
    assert_eq!((pairs, cancelling), (SAME_SLICE_PAIRS, CANCELLING_PAIRS));
}

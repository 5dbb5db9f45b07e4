//! Hard-fault model: stuck-at cells, dead tiles, endurance wear-out and a
//! write-and-verify programming loop.
//!
//! [`crate::variation`] models the *analog* non-ideality the paper's
//! Sec. VI-D what-if covers — every cell still works, it is merely
//! imprecise. Real TaOx/TiO₂ arrays additionally suffer *hard* failures:
//! cells stuck at the lowest or highest conductance level, whole tiles lost
//! to peripheral defects, and bounded write endurance that turns healthy
//! cells into stuck ones as training rewrites weights. [`FaultMap`] is the
//! deterministic, seeded record of those failures, composable with
//! [`VariationModel`] (a stuck cell's level is exact — hard faults dominate
//! analog deviation), and [`FaultMap::program_run`] is the
//! write-and-verify loop real controllers run: program, read back, retry
//! with bounded backoff, and report the cells that could not be programmed
//! (their retries exhausted, they enter the fault map).
//!
//! Determinism contract: every random decision (which cells start stuck,
//! whether a write attempt takes, which polarity a worn-out cell freezes
//! at) is a pure function of a user-supplied seed and the cell index —
//! SplitMix64-hashed, never stateful — so any fault scenario replays
//! bit-identically.

use crate::bitslice::slice_weight;
use crate::config::ReramConfig;
use crate::variation::VariationModel;
use crate::wear::WearLimits;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// Stateless SplitMix64 hash used for every seeded fault decision.
pub(crate) fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform `[0, 1)` deviate from a seeded hash.
pub(crate) fn unit(seed: u64, index: u64) -> f64 {
    (mix(seed, index) >> 11) as f64 / (1u64 << 53) as f64
}

/// The polarity a hard-failed cell is frozen at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StuckAt {
    /// Stuck at the lowest conductance (level 0).
    Zero,
    /// Stuck at the highest conductance (level `2^cell_bits - 1`).
    One,
}

impl StuckAt {
    /// The cell level the fault pins, for `cell_bits`-bit cells.
    pub fn level(self, cell_bits: u32) -> u8 {
        match self {
            StuckAt::Zero => 0,
            StuckAt::One => ((1u32 << cell_bits) - 1) as u8,
        }
    }
}

/// Policy of the write-and-verify programming loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WritePolicy {
    /// Verify-and-retry attempts after the initial write (bounded backoff:
    /// each retry costs one extra write pulse).
    pub max_retries: u32,
    /// First-pulse transient failure probability (deterministic in the
    /// seed; a failed attempt leaves the cell unverified and retries).
    ///
    /// Failures are *sticky*: once a pulse misses, the cell is in a
    /// partially-switched state and every follow-up pulse fails with the
    /// elevated probability `sqrt(transient_fail_rate)`. Independent
    /// per-pulse coins would make retry exhaustion — and therefore
    /// quarantine — essentially unobservable (`rate^(1+max_retries)` ≈ 0
    /// at realistic rates), which is exactly the accounting hole the
    /// fault sweep used to report as `cells_quarantined: 0`.
    pub transient_fail_rate: f64,
    /// Write pulses after which a cell wears out and freezes (0 disables
    /// endurance wear-out).
    pub endurance_limit: u64,
    /// Seed of the per-(cell, pulse) attempt outcomes.
    pub seed: u64,
}

impl Default for WritePolicy {
    fn default() -> Self {
        WritePolicy {
            max_retries: 3,
            transient_fail_rate: 0.0,
            endurance_limit: 0,
            seed: 0,
        }
    }
}

impl WritePolicy {
    /// A policy with a transient failure rate and the default bounds.
    pub fn with_fail_rate(rate: f64, seed: u64) -> Self {
        WritePolicy {
            transient_fail_rate: rate,
            seed,
            ..Self::default()
        }
    }
}

/// Outcome of programming one weight (all of its cell slices).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WriteReport {
    /// Write pulses issued across all slices, including retries.
    pub attempts: u64,
    /// Cells (absolute indices) whose target level could not be
    /// established: stuck at a different level, or retries exhausted.
    pub failed_cells: Vec<u64>,
    /// Cells that wore out (or exhausted retries) during this call and
    /// were added to the fault map.
    pub newly_stuck: u64,
}

impl WriteReport {
    /// Whether every cell verified at its target level.
    pub fn succeeded(&self) -> bool {
        self.failed_cells.is_empty()
    }

    /// Merges another report into this one (for matrix-level programming).
    pub fn absorb(&mut self, other: WriteReport) {
        self.attempts += other.attempts;
        self.failed_cells.extend(other.failed_cells);
        self.newly_stuck += other.newly_stuck;
    }
}

/// Cells per wear-counter chunk.
const CHUNK: u64 = 64;

/// The wear counters of one 64-cell chunk, by cell offset within it. A zero
/// slot is a cell with no counter: every stored counter is at least 1.
type Counters = [u64; CHUNK as usize];

/// Deterministic record of hard faults in one bank's crossbar array:
/// stuck-at cells (by absolute cell index), dead tiles (by tile index
/// within the bank), and per-cell endurance counters.
///
/// The counters are kept by 64-cell chunk, keyed by `cell / 64`: one map
/// entry per chunk any write has pulsed, so programming a block touches a
/// few dozen entries instead of one per cell, and the map stays sparse over
/// a bank's whole cell space. A chunk is stored only once one of its cells
/// holds a counter.
///
/// The stuck cells of a [`FaultMap::seeded`] map are a pure function of
/// `(seed, cell)`, so the map records that rule instead of its cells, and
/// sets a chunk's cells down only when something changes it. The
/// invariant, per 64-cell chunk below the rule's cell count: a
/// *materialised* chunk's stuck cells are exactly its entries in `stuck`;
/// any other chunk has no entry there, and its stuck cells are the rule's.
/// Chunks past the rule's cells are always materialised. Every mutation
/// (`set_stuck`, `program_run`, `advance_wear`) materialises the chunks it
/// touches first; every read goes run by run of chunks to `stuck` or to
/// the rule.
/// Equality compares the logical fault state, so equal states compare
/// equal however they were reached.
///
/// An empty (pristine) map is a strict no-op: every composition hook
/// reproduces the fault-free computation bit-for-bit.
#[derive(Debug, Clone, Default)]
pub struct FaultMap {
    stuck: BTreeMap<u64, StuckAt>,
    dead_tiles: BTreeSet<usize>,
    wear: BTreeMap<u64, Counters>,
    seeding: Seeding,
    /// The materialised chunks below `seeding.chunks()`: bit `key % 64` of
    /// the word at `key / 64` is set once chunk `key`'s stuck cells live in
    /// `stuck`. Sparse, so a map over any number of cells costs nothing to
    /// seed.
    materialised: BTreeMap<u64, u64>,
}

/// The stuck-at rule of a seeded map: a cell below `cells` is stuck when
/// its hash `mix(seed, cell) >> 11` is below `threshold`, at the polarity
/// the low bit of a second hash picks. The default rule sticks no cell.
#[derive(Debug, Clone, Copy, Default)]
struct Seeding {
    seed: u64,
    threshold: u64,
    cells: u64,
}

impl Seeding {
    /// The polarity the rule sticks `cell` at, if it sticks it.
    fn stuck_at(&self, cell: u64) -> Option<StuckAt> {
        (cell < self.cells && mix(self.seed, cell) >> 11 < self.threshold).then(|| {
            if mix(self.seed ^ 0xA5A5_A5A5_5A5A_5A5A, cell) & 1 == 0 {
                StuckAt::Zero
            } else {
                StuckAt::One
            }
        })
    }

    /// Chunks holding a cell the rule covers.
    fn chunks(&self) -> u64 {
        self.cells.div_ceil(CHUNK)
    }
}

impl PartialEq for FaultMap {
    fn eq(&self, other: &Self) -> bool {
        let all = 0..u64::MAX;
        self.dead_tiles == other.dead_tiles
            && self.wear == other.wear
            && self.stuck_entries(all.clone()).eq(other.stuck_entries(all))
    }
}

impl Eq for FaultMap {}

/// The chunk parts of `cells`, ascending: `(chunk key, cells of the range
/// inside that chunk)`.
fn chunk_parts(cells: Range<u64>) -> impl Iterator<Item = (u64, Range<u64>)> {
    let mut start = cells.start;
    std::iter::from_fn(move || {
        (start < cells.end).then(|| {
            let key = start / CHUNK;
            let part = start..cells.end.min((key + 1) * CHUNK);
            start = part.end;
            (key, part)
        })
    })
}

/// A cell's slot in its chunk's counters.
fn offset(cell: u64) -> usize {
    (cell % CHUNK) as usize
}

/// The write-and-verify loop of one healthy cell: pulses it, advancing its
/// wear counter `worn`, until a pulse verifies, the retries run out or the
/// cell crosses `policy.endurance_limit`. Counts the pulses in `report` and
/// returns whether the cell verified.
///
/// A pulse outcome lies in `[0, 1)`, so a first pulse always verifies when
/// `transient_fail_rate <= 0`: that case returns without hashing. A NaN
/// rate is not `<= 0`: it takes the hashed path, where every pulse misses.
fn write_verify(worn: &mut u64, cell: u64, policy: &WritePolicy, report: &mut WriteReport) -> bool {
    let mut missed = false;
    for _attempt in 0..=policy.max_retries {
        *worn += 1;
        let pulse = *worn;
        report.attempts += 1;
        if policy.endurance_limit > 0 && pulse > policy.endurance_limit {
            return false;
        }
        // Sticky failure: a cell that missed a pulse is partially
        // switched and misses follow-ups at sqrt(rate) >= rate.
        let fail_rate = if missed {
            policy.transient_fail_rate.sqrt()
        } else {
            policy.transient_fail_rate
        };
        if fail_rate <= 0.0 {
            return true;
        }
        let outcome = unit(policy.seed ^ 0x57A7_1C5E_ED5E_ED00, mix(cell, pulse));
        if outcome >= fail_rate {
            return true;
        }
        missed = true;
    }
    false
}

impl FaultMap {
    /// A map with no faults at all.
    pub fn pristine() -> Self {
        Self::default()
    }

    /// Whether the map holds no faults (stuck cells or dead tiles). On a
    /// seeded map this reads the rule's chunks up to their first stuck
    /// cell.
    pub fn is_pristine(&self) -> bool {
        self.dead_tiles.is_empty() && self.stuck_cells_in(0..u64::MAX).next().is_none()
    }

    /// Seeds stuck-at faults over `cells` cell indices at `rate`
    /// (probability per cell). Polarity is an independent coin per faulty
    /// cell. Deterministic: the same `(seed, rate, cells)` always yields
    /// the same map; a rate that is not positive (NaN included) yields a
    /// pristine one.
    ///
    /// A cell is faulty when its deviate `unit(seed, cell) = k / 2⁵³` is
    /// below `rate`. The test runs on the integer `k` itself, against
    /// `⌈rate · 2⁵³⌉`: scaling by a power of two is exact, so `k / 2⁵³ <
    /// rate` exactly when `k < rate · 2⁵³`, and for an integer `k` exactly
    /// when `k` is below the ceiling (which saturates for rates past 2¹¹).
    ///
    /// The map records the rule, not the cells, in constant time: a chunk's
    /// cells are hashed when a read or a mutation reaches it (see
    /// [`FaultMap`]).
    pub fn seeded(seed: u64, rate: f64, cells: u64) -> Self {
        if rate.is_nan() || rate <= 0.0 {
            return FaultMap::pristine();
        }
        FaultMap {
            seeding: Seeding {
                seed,
                threshold: (rate * (1u64 << 53) as f64).ceil() as u64,
                cells,
            },
            ..FaultMap::pristine()
        }
    }

    /// Whether chunk `key`'s stuck cells are the rule's rather than its
    /// entries in `stuck`. `word` caches one word of `materialised` as
    /// `(index, bits)`, refetched when `key` lies in another word.
    fn ruled(&self, key: u64, word: &mut (u64, u64)) -> bool {
        if word.0 != key / 64 {
            *word = (
                key / 64,
                self.materialised.get(&(key / 64)).copied().unwrap_or(0),
            );
        }
        key < self.seeding.chunks() && (word.1 >> (key % 64)) & 1 == 0
    }

    /// The cells of `cells`, in maximal runs of chunk parts that are all
    /// ruled or all materialised: `(run, ruled)`. One materialised word is
    /// fetched per 64 chunks.
    fn runs(&self, cells: Range<u64>) -> impl Iterator<Item = (Range<u64>, bool)> + '_ {
        let mut start = cells.start;
        let mut word = (u64::MAX, 0);
        std::iter::from_fn(move || {
            if start >= cells.end {
                return None;
            }
            let ruled = self.ruled(start / CHUNK, &mut word);
            let mut end = start;
            while end < cells.end && self.ruled(end / CHUNK, &mut word) == ruled {
                end = (end / CHUNK + 1).saturating_mul(CHUNK).min(cells.end);
            }
            let run = start..end;
            start = end;
            Some((run, ruled))
        })
    }

    /// Sets down the rule's stuck cells of every chunk `cells` reaches that
    /// is not materialised yet, so `stuck` holds all of their stuck cells.
    fn materialise(&mut self, cells: Range<u64>) {
        if cells.is_empty() {
            return;
        }
        let end = ((cells.end - 1) / CHUNK + 1).min(self.seeding.chunks());
        let mut key = cells.start / CHUNK;
        while key < end {
            let upto = end.min((key / 64 + 1) * 64);
            let word = self.materialised.entry(key / 64).or_insert(0);
            let wanted = (u64::MAX >> (63 - (upto - 1) % 64)) & (u64::MAX << (key % 64));
            let mut missing = wanted & !*word;
            *word |= wanted;
            while missing != 0 {
                let chunk = key / 64 * 64 + u64::from(missing.trailing_zeros());
                missing &= missing - 1;
                let cells =
                    chunk * CHUNK..(chunk + 1).saturating_mul(CHUNK).min(self.seeding.cells);
                for cell in cells {
                    if let Some(polarity) = self.seeding.stuck_at(cell) {
                        self.stuck.insert(cell, polarity);
                    }
                }
            }
            key = upto;
        }
    }

    /// Marks one cell stuck.
    pub fn set_stuck(&mut self, cell: u64, polarity: StuckAt) -> &mut Self {
        self.materialise(cell..cell + 1);
        self.stuck.insert(cell, polarity);
        self
    }

    /// The stuck polarity of a cell, if any.
    pub fn stuck_at(&self, cell: u64) -> Option<StuckAt> {
        if self.ruled(cell / CHUNK, &mut (u64::MAX, 0)) {
            self.seeding.stuck_at(cell)
        } else {
            self.stuck.get(&cell).copied()
        }
    }

    /// Number of stuck cells. On a seeded map this hashes every cell of
    /// the chunks no mutation has reached.
    pub fn stuck_cells(&self) -> usize {
        self.stuck_cells_in(0..u64::MAX).count()
    }

    /// Stuck cells within a cell-index range, ascending (the diagnostic
    /// read-back scan ABFT localization runs after a residual trips).
    pub fn stuck_cells_in(&self, range: Range<u64>) -> impl Iterator<Item = u64> + '_ {
        self.stuck_entries(range).map(|(cell, _)| cell)
    }

    /// The stuck cells within `range` with their polarities, ascending:
    /// run by run from `stuck` or the rule up to the rule's last chunk,
    /// then from `stuck` alone.
    fn stuck_entries(&self, range: Range<u64>) -> impl Iterator<Item = (u64, StuckAt)> + '_ {
        let ruled_end = self.seeding.chunks().saturating_mul(CHUNK);
        let split = range.end.min(ruled_end).max(range.start);
        let stored = move |cells: Range<u64>| self.stuck.range(cells).map(|(&c, &p)| (c, p));
        self.runs(range.start..split)
            .flat_map(move |(run, ruled)| {
                let (kept, hashed) = if ruled {
                    (run.start..run.start, run)
                } else {
                    (run, 0..0)
                };
                stored(kept).chain(
                    hashed.filter_map(move |cell| Some((cell, self.seeding.stuck_at(cell)?))),
                )
            })
            .chain(stored(split..range.end))
    }

    /// Marks a tile dead (peripheral failure: its whole CArray is lost).
    pub fn kill_tile(&mut self, tile: usize) -> &mut Self {
        self.dead_tiles.insert(tile);
        self
    }

    /// Whether a tile is dead.
    pub fn tile_is_dead(&self, tile: usize) -> bool {
        self.dead_tiles.contains(&tile)
    }

    /// The dead tiles, ascending.
    pub fn dead_tiles(&self) -> impl Iterator<Item = usize> + '_ {
        self.dead_tiles.iter().copied()
    }

    /// Number of dead tiles.
    pub fn dead_tile_count(&self) -> usize {
        self.dead_tiles.len()
    }

    /// Write pulses a cell has absorbed so far.
    pub fn wear_of(&self, cell: u64) -> u64 {
        self.wear
            .get(&(cell / CHUNK))
            .map_or(0, |counters| counters[offset(cell)])
    }

    // ---- composition with the analog variation model -------------------

    /// The *analog* value of a weight as the crossbar would read it, under
    /// both hard faults and (optional) analog variation: healthy cells
    /// deviate per `variation`, stuck cells sit exactly at their pinned
    /// level — hard faults dominate deviation.
    ///
    /// With a pristine map this reproduces
    /// [`VariationModel::perceived_weight`] bit-for-bit (and the exact
    /// sliced value when `variation` is `None`).
    pub fn perceived_weight(
        &self,
        variation: Option<&VariationModel>,
        code: i32,
        cell_base_index: u64,
        config: &ReramConfig,
    ) -> f64 {
        let slices = slice_weight(code, config);
        let mut v = 0.0f64;
        for (i, &s) in slices.iter().enumerate() {
            let cell = cell_base_index + i as u64;
            let level = match self.stuck_at(cell) {
                Some(polarity) => f64::from(polarity.level(config.cell_bits)),
                None => {
                    let dev = variation.map_or(0.0, |m| m.deviation_at(cell));
                    s as f64 + dev
                }
            };
            v += level * f64::from(1u32 << (i as u32 * config.cell_bits));
        }
        if code < 0 {
            v -= f64::from(1u32 << config.data_bits);
        }
        v
    }

    /// Dot-product under hard faults + variation: returns
    /// `(exact, perceived)`, mirroring [`VariationModel::disturbed_dot`].
    ///
    /// # Panics
    ///
    /// Panics if the operand lengths differ.
    pub fn disturbed_dot(
        &self,
        variation: Option<&VariationModel>,
        weights: &[i32],
        inputs: &[i32],
        config: &ReramConfig,
    ) -> (i64, f64) {
        assert_eq!(weights.len(), inputs.len(), "operand length mismatch");
        let exact: i64 = weights
            .iter()
            .zip(inputs.iter())
            .map(|(&w, &x)| w as i64 * x as i64)
            .sum();
        let cells = config.cells_per_weight() as u64;
        let perceived: f64 = weights
            .iter()
            .zip(inputs.iter())
            .enumerate()
            .map(|(i, (&w, &x))| {
                self.perceived_weight(variation, w, i as u64 * cells, config) * x as f64
            })
            .sum();
        (exact, perceived)
    }

    // ---- write-and-verify programming ----------------------------------

    /// Programs one weight's cell slices with write-and-verify: the run of
    /// [`FaultMap::program_run`] over this one weight.
    pub fn program_weight(
        &mut self,
        code: i32,
        cell_base_index: u64,
        config: &ReramConfig,
        policy: &WritePolicy,
    ) -> WriteReport {
        self.program_run(&[code], cell_base_index, config, policy)
    }

    /// Programs `weights` as a contiguous matrix (weight `i` at cell base
    /// `i × cells_per_weight`): the run of [`FaultMap::program_run`] from
    /// cell 0.
    pub fn program_matrix(
        &mut self,
        weights: &[i32],
        config: &ReramConfig,
        policy: &WritePolicy,
    ) -> WriteReport {
        self.program_run(weights, 0, config, policy)
    }

    /// Programs the weights `codes` into consecutive cells from `base`
    /// (weight `i` at `base + i × cells_per_weight`) with write-and-verify:
    /// each slice is pulsed, read back, and re-pulsed up to
    /// `policy.max_retries` times. A cell already stuck at a level other
    /// than its target is unprogrammable immediately; a cell whose retries
    /// run out — or whose cumulative wear crosses `policy.endurance_limit`
    /// — freezes at a seeded polarity and *enters this fault map*, so later
    /// programming passes see it as hard-failed. The report lists the
    /// failed cells in ascending order.
    ///
    /// Deterministic: outcomes depend only on `policy.seed`, the absolute
    /// cell index and that cell's wear count, so the run equals programming
    /// its weights one at a time in order. It walks the run's stuck cells
    /// once beside its cells, fetches each 64-cell chunk of counters with
    /// one lookup, and freezes the cells it gave up on after the walk. A
    /// chunk part whose cells are all stuck takes no pulse and fetches no
    /// chunk. Only a stuck cell's target level matters (it decides whether
    /// the cell fails), so only the weight of a stuck cell is sliced, onto
    /// the stack.
    ///
    /// # Panics
    ///
    /// Panics, before programming anything, if a code does not fit the
    /// configured data width.
    pub fn program_run(
        &mut self,
        codes: &[i32],
        base: u64,
        config: &ReramConfig,
        policy: &WritePolicy,
    ) -> WriteReport {
        let fits = config.codes();
        if let Some(code) = codes.iter().find(|&&c| !fits.contains(&i64::from(c))) {
            panic!("code {code} does not fit {} bits", config.data_bits);
        }
        let span = config.cells_per_weight();
        let cells = base..base + (codes.len() * span) as u64;
        self.materialise(cells.clone());
        let mut stuck = self.stuck.range(cells.clone()).peekable();
        let mut report = WriteReport::default();
        for (key, part) in chunk_parts(cells) {
            let (mut frozen, mut ones) = (0u64, 0u64);
            while let Some((&cell, &polarity)) = stuck.next_if(|&(&c, _)| c < part.end) {
                frozen |= 1 << offset(cell);
                ones |= u64::from(polarity == StuckAt::One) << offset(cell);
            }
            // Every healthy cell takes at least one pulse, so a part with a
            // healthy cell fetches its chunk (created if new) and leaves a
            // counter there.
            let healthy = (frozen.count_ones() as u64) < part.end - part.start;
            let mut counters =
                healthy.then(|| self.wear.entry(key).or_insert_with(|| [0; CHUNK as usize]));
            for cell in part {
                let bit = 1 << offset(cell);
                if frozen & bit != 0 {
                    let polarity = if ones & bit != 0 {
                        StuckAt::One
                    } else {
                        StuckAt::Zero
                    };
                    let i = (cell - base) as usize;
                    let target = slice_weight(codes[i / span], config)[i % span];
                    if polarity.level(config.cell_bits) != target {
                        report.failed_cells.push(cell);
                    }
                } else if let Some(counters) = counters.as_deref_mut() {
                    if !write_verify(&mut counters[offset(cell)], cell, policy, &mut report) {
                        // Worn out, or retries exhausted on a
                        // transiently-failing cell: the controller gives up
                        // and quarantines it.
                        report.newly_stuck += 1;
                        report.failed_cells.push(cell);
                    }
                }
            }
        }
        // The failed cells not stuck before this call are the ones it
        // quarantines; the stuck ones keep their polarity.
        for &cell in &report.failed_cells {
            self.stuck
                .entry(cell)
                .or_insert_with(|| frozen_polarity(policy.seed, cell));
        }
        report
    }

    /// Advances the wear counter of every healthy cell in
    /// [`WearLimits::cells`] by `pulses` write pulses and freezes the cells
    /// whose cumulative wear crosses their personal endurance limit,
    /// returning the newly broken cell indices (ascending). This is the
    /// mid-run wear-out channel: each training-phase weight update pulses
    /// the cells it rewrites, and a cell that was healthy at step *k* can
    /// be stuck at step *k + 1* — the self-healing runtime's ABFT residuals
    /// are what notice.
    ///
    /// The limits come from [`WearModel::limits`](crate::wear::WearModel::limits),
    /// taken when the caller placed its block on these cells. A cell whose
    /// counter stays at or below the model's
    /// [`floor`](crate::wear::WearModel::floor) cannot exceed its limit, so
    /// the pass evaluates a cell's limit only once its counter passes the
    /// floor, and keeps it in `limits` for later passes; a broken cell
    /// freezes at a polarity seeded by the model's seed. The
    /// pass walks the range chunk by chunk beside its stuck cells, with one
    /// counter lookup per chunk. A chunk part with no stuck cell is counted
    /// in one pass over its counters and checked in a second against its
    /// limit slots, and is walked cell by cell only if a counter may have
    /// crossed its limit.
    ///
    /// Already-stuck cells no longer switch and accumulate no further
    /// wear. With a disabled model (`endurance_mean == 0`) this only
    /// advances counters and never breaks anything.
    pub fn advance_wear(&mut self, limits: &mut WearLimits, pulses: u64) -> Vec<u64> {
        let mut newly = Vec::new();
        if pulses == 0 {
            return newly;
        }
        let cells = limits.cells();
        self.materialise(cells.clone());
        let floor = limits.floor();
        let mut stuck = self.stuck.range(cells.clone()).map(|(&c, _)| c).peekable();
        for (key, part) in chunk_parts(cells) {
            let mut frozen = 0u64;
            while let Some(cell) = stuck.next_if(|&c| c < part.end) {
                frozen |= 1 << offset(cell);
            }
            if frozen.count_ones() as u64 == part.end - part.start {
                continue; // no healthy cell: nothing to count
            }
            let counters = self.wear.entry(key).or_insert_with(|| [0; CHUNK as usize]);
            let counters = &mut counters[offset(part.start)..=offset(part.end - 1)];
            let healthy = |cell: u64| (frozen >> offset(cell)) & 1 == 0;
            if frozen == 0 {
                counters.iter_mut().for_each(|worn| *worn += pulses);
                // An unevaluated slot reads 0 and every limit is at least
                // the floor, so a cell can have crossed its limit only if
                // its counter is above the larger of its slot and the floor.
                let crossed = counters
                    .iter()
                    .zip(limits.slots(part.clone()))
                    .fold(false, |any, (&worn, &slot)| any | (worn > slot.max(floor)));
                if !crossed {
                    continue;
                }
            } else {
                for (cell, worn) in part.clone().zip(counters.iter_mut()) {
                    if healthy(cell) {
                        *worn += pulses;
                    }
                }
            }
            for (cell, &worn) in part.zip(counters.iter()) {
                if healthy(cell) && limits.exceeded(cell, worn) {
                    newly.push(cell);
                }
            }
        }
        for &cell in &newly {
            self.stuck
                .insert(cell, frozen_polarity(limits.seed(), cell));
        }
        newly
    }
}

/// The polarity a cell that wears out or exhausts its retries freezes at.
fn frozen_polarity(seed: u64, cell: u64) -> StuckAt {
    if mix(seed ^ 0xF0F0_F0F0_0F0F_0F0F, cell) & 1 == 0 {
        StuckAt::Zero
    } else {
        StuckAt::One
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pristine_map_has_no_faults() {
        let m = FaultMap::pristine();
        assert!(m.is_pristine());
        assert_eq!(m.stuck_cells(), 0);
        assert_eq!(m.dead_tile_count(), 0);
        assert_eq!(m.stuck_at(42), None);
        assert!(!m.tile_is_dead(3));
    }

    #[test]
    fn seeded_maps_are_deterministic_and_rate_scaled() {
        let a = FaultMap::seeded(7, 0.01, 100_000);
        let b = FaultMap::seeded(7, 0.01, 100_000);
        assert_eq!(a, b);
        let c = FaultMap::seeded(8, 0.01, 100_000);
        assert_ne!(a, c);
        // ~1% of 100k cells, generously bounded.
        assert!(a.stuck_cells() > 500 && a.stuck_cells() < 2000);
        let denser = FaultMap::seeded(7, 0.1, 100_000);
        assert!(denser.stuck_cells() > 5 * a.stuck_cells());
        assert!(FaultMap::seeded(7, 0.0, 100_000).is_pristine());
    }

    #[test]
    fn stuck_levels_pin_the_extremes() {
        assert_eq!(StuckAt::Zero.level(4), 0);
        assert_eq!(StuckAt::One.level(4), 15);
    }

    #[test]
    fn dead_tiles_round_trip() {
        let mut m = FaultMap::pristine();
        m.kill_tile(5).kill_tile(2).kill_tile(5);
        assert_eq!(m.dead_tile_count(), 2);
        assert!(m.tile_is_dead(2) && m.tile_is_dead(5));
        assert_eq!(m.dead_tiles().collect::<Vec<_>>(), vec![2, 5]);
        assert!(!m.is_pristine());
    }

    #[test]
    fn pristine_perceived_weight_is_exact_without_variation() {
        let cfg = ReramConfig::default();
        let m = FaultMap::pristine();
        for code in [-30000, -1, 0, 123, 30000] {
            assert_eq!(m.perceived_weight(None, code, 0, &cfg), code as f64);
        }
    }

    #[test]
    fn stuck_at_one_inflates_low_slices() {
        let cfg = ReramConfig::default();
        let mut m = FaultMap::pristine();
        // Weight 0 at cell base 0: pin the least-significant slice high.
        m.set_stuck(0, StuckAt::One);
        let p = m.perceived_weight(None, 0, 0, &cfg);
        assert_eq!(p, 15.0);
        // The most significant slice weighs 4096 per level.
        let mut m2 = FaultMap::pristine();
        m2.set_stuck(3, StuckAt::One);
        assert_eq!(m2.perceived_weight(None, 0, 0, &cfg), 15.0 * 4096.0);
    }

    #[test]
    fn write_verify_programs_healthy_cells_in_one_pulse_each() {
        let cfg = ReramConfig::default();
        let mut m = FaultMap::pristine();
        let report = m.program_weight(1234, 0, &cfg, &WritePolicy::default());
        assert!(report.succeeded());
        assert_eq!(report.attempts, cfg.cells_per_weight() as u64);
        assert_eq!(report.newly_stuck, 0);
        assert_eq!(m.wear_of(0), 1);
    }

    #[test]
    fn transient_failures_cost_retries_deterministically() {
        let cfg = ReramConfig::default();
        let policy = WritePolicy::with_fail_rate(0.5, 11);
        let mut a = FaultMap::pristine();
        let ra = a.program_matrix(&[1, -2, 3, 40, 500, -600], &cfg, &policy);
        let mut b = FaultMap::pristine();
        let rb = b.program_matrix(&[1, -2, 3, 40, 500, -600], &cfg, &policy);
        assert_eq!(ra, rb);
        assert_eq!(a, b);
        // Half the pulses fail: more attempts than cells.
        assert!(ra.attempts > 6 * cfg.cells_per_weight() as u64);
    }

    #[test]
    fn exhausted_retries_enter_the_fault_map() {
        let cfg = ReramConfig::default();
        // Every attempt fails: all cells quarantine after 1 + max_retries.
        let policy = WritePolicy {
            max_retries: 2,
            transient_fail_rate: 1.0,
            endurance_limit: 0,
            seed: 3,
        };
        let mut m = FaultMap::pristine();
        let report = m.program_weight(77, 0, &cfg, &policy);
        assert!(!report.succeeded());
        assert_eq!(report.failed_cells.len(), cfg.cells_per_weight());
        assert_eq!(report.newly_stuck, cfg.cells_per_weight() as u64);
        assert_eq!(report.attempts, 3 * cfg.cells_per_weight() as u64);
        assert_eq!(m.stuck_cells(), cfg.cells_per_weight());
    }

    #[test]
    fn endurance_wearout_freezes_cells() {
        let cfg = ReramConfig::default();
        let policy = WritePolicy {
            max_retries: 0,
            transient_fail_rate: 0.0,
            endurance_limit: 4,
            seed: 5,
        };
        let mut m = FaultMap::pristine();
        // Four updates fit the endurance budget…
        for _ in 0..4 {
            assert!(m.program_weight(9, 0, &cfg, &policy).succeeded());
        }
        // …the fifth wears the cells out.
        let report = m.program_weight(9, 0, &cfg, &policy);
        assert!(!report.succeeded());
        assert_eq!(m.stuck_cells(), cfg.cells_per_weight());
    }

    #[test]
    fn realistic_fail_rates_produce_nonzero_quarantine() {
        // Regression for the fault-sweep accounting hole: at a 2% write
        // fail rate over ~100k weights, sticky failures must drive a
        // visible number of cells to retry exhaustion (independent coins
        // gave 0.02^4 per cell — nothing ever quarantined).
        let cfg = ReramConfig::default();
        let policy = WritePolicy::with_fail_rate(0.02, 0xBEEF);
        let weights: Vec<i32> = (0..100_000).map(|i| (i % 251) - 125).collect();
        let mut m = FaultMap::pristine();
        let stuck_pre = m.stuck_cells();
        let report = m.program_matrix(&weights, &cfg, &policy);
        assert!(
            report.newly_stuck > 0,
            "sticky transient failures must exhaust some retries"
        );
        // Accounting invariant: every newly-stuck cell is in the map.
        assert_eq!(
            m.stuck_cells() - stuck_pre,
            report.newly_stuck as usize,
            "quarantine count must match the fault-map delta"
        );
        // Quarantined cells are a subset of the reported failures.
        assert!(report.failed_cells.len() >= report.newly_stuck as usize);
    }

    #[test]
    fn stuck_cell_matching_target_is_not_a_failure() {
        let cfg = ReramConfig::default();
        let mut m = FaultMap::pristine();
        // Weight 0 slices to all-zero levels; a stuck-at-zero cell agrees.
        m.set_stuck(0, StuckAt::Zero);
        let report = m.program_weight(0, 0, &cfg, &WritePolicy::default());
        assert!(report.succeeded());
        // Stuck cells absorb no pulses.
        assert_eq!(report.attempts, (cfg.cells_per_weight() - 1) as u64);
    }
}

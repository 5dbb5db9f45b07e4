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

/// SplitMix64's increment: [`mix`] hashes `seed + index · GAMMA`.
pub(crate) const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Stateless SplitMix64 hash used for every seeded fault decision.
pub(crate) fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_mul(GAMMA));
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

/// Cells per chunk: one word of stuck bits, one block of wear counters.
const CHUNK: u64 = 64;

/// Chunks per page.
const PAGE_CHUNKS: u64 = 64;

/// Cells per page (4,096).
const PAGE: u64 = CHUNK * PAGE_CHUNKS;

/// The wear counters of one 64-cell chunk, by cell offset within it.
type Counters = [u64; CHUNK as usize];

/// The stored fault state of 4,096 consecutive cells, as one 64-cell word
/// per chunk.
#[derive(Debug, Clone)]
struct Page {
    /// Bit `k` is set once chunk `k`'s stuck cells live in `stuck` and
    /// `ones` rather than in the map's rule (see [`FaultMap`]).
    materialised: u64,
    /// Per chunk, its stuck cells: bit `b` stands for the chunk's cell `b`.
    stuck: [u64; PAGE_CHUNKS as usize],
    /// Per chunk, the cells of `stuck` that are stuck at one.
    ones: [u64; PAGE_CHUNKS as usize],
    /// Per chunk, its wear counters, allocated when a write first pulses
    /// one of its cells; every counter of a chunk without them reads 0.
    counters: [Option<Box<Counters>>; PAGE_CHUNKS as usize],
}

impl Page {
    fn new() -> Box<Page> {
        Box::new(Page {
            materialised: 0,
            stuck: [0; PAGE_CHUNKS as usize],
            ones: [0; PAGE_CHUNKS as usize],
            counters: [const { None }; PAGE_CHUNKS as usize],
        })
    }

    /// Sets down `rule`'s stuck cells of chunk `key` of this page, unless
    /// it is materialised already.
    fn materialise(&mut self, key: u64, rule: &Seeding) {
        let k = slot(key);
        if (self.materialised >> k) & 1 == 0 {
            (self.stuck[k], self.ones[k]) = rule.words(key);
            self.materialised |= 1 << k;
        }
    }

    /// Chunk `k`'s counters, allocated on first use.
    fn counters_mut(&mut self, k: usize) -> &mut Counters {
        self.counters[k].get_or_insert_with(|| Box::new([0; CHUNK as usize]))
    }

    /// Freezes the cells of `cells`, a mask over chunk `key` of this page,
    /// that are not stuck yet, each at the polarity `polarity` picks for
    /// it.
    fn freeze(&mut self, key: u64, cells: u64, polarity: impl Fn(u64) -> StuckAt) {
        let k = slot(key);
        let fresh = cells & !self.stuck[k];
        self.stuck[k] |= fresh;
        for b in bits(fresh) {
            if polarity(key * CHUNK + b) == StuckAt::One {
                self.ones[k] |= 1 << b;
            }
        }
    }
}

/// Deterministic record of hard faults in one bank's crossbar array:
/// stuck-at cells (by absolute cell index), dead tiles (by tile index
/// within the bank), and per-cell endurance counters.
///
/// The cells live in a sparse table of 4,096-cell pages, keyed by
/// `cell / 4096`. A page holds, per 64-cell chunk, a word of stuck bits, a
/// word of stuck-at-one bits, and the chunk's wear counters once a write
/// has pulsed one of its cells. A pass over a range therefore fetches one
/// page per 4,096 cells and works a chunk at a time on its words.
///
/// The stuck cells of a [`FaultMap::seeded`] map are a pure function of
/// `(seed, cell)`, so the map records that rule instead of its cells, and
/// sets a chunk's cells down only when something changes it or a
/// materialising scan ([`FaultMap::first_stuck_in`],
/// [`FaultMap::count_stuck_in`]) reads it. The invariant, per 64-cell
/// chunk below the rule's cell count: a *materialised* chunk's stuck cells
/// are exactly its words; any other chunk has zero words, and its stuck
/// cells are the rule's. Chunks past the rule's cells are always
/// materialised. Every mutation (`set_stuck`, `program_run`,
/// `advance_wear`) materialises the chunks it touches first; a `&self`
/// read takes each chunk's words from its page or hashes them from the
/// rule. Equality compares the logical fault state, so equal states
/// compare equal however they were reached.
///
/// An empty (pristine) map is a strict no-op: every composition hook
/// reproduces the fault-free computation bit-for-bit.
#[derive(Debug, Clone, Default)]
pub struct FaultMap {
    pages: BTreeMap<u64, Box<Page>>,
    dead_tiles: BTreeSet<usize>,
    seeding: Seeding,
}

/// The stuck-at rule of a seeded map: a cell below `cells` is stuck when
/// its hash `mix(seed, cell) >> 11` is below `threshold`, at the polarity
/// the low bit of a second hash picks. The default rule sticks no cell.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Seeding {
    seed: u64,
    threshold: u64,
    cells: u64,
}

impl Seeding {
    /// The polarity the rule sticks `cell` at, if it sticks it.
    fn stuck_at(&self, cell: u64) -> Option<StuckAt> {
        (cell < self.cells && mix(self.seed, cell) >> 11 < self.threshold)
            .then(|| self.polarity(cell))
    }

    /// The polarity the rule gives `cell` if it sticks it.
    fn polarity(&self, cell: u64) -> StuckAt {
        if mix(self.seed ^ 0xA5A5_A5A5_5A5A_5A5A, cell) & 1 == 0 {
            StuckAt::Zero
        } else {
            StuckAt::One
        }
    }

    /// Chunks holding a cell the rule covers.
    fn chunks(&self) -> u64 {
        self.cells.div_ceil(CHUNK)
    }

    /// The rule's words of chunk `key`: `(stuck, stuck at one)`. The
    /// stuck cells are hashed a word at a time ([`picked`]), the polarity
    /// of each stuck one after.
    fn words(&self, key: u64) -> (u64, u64) {
        let first = key * CHUNK;
        let n = self.cells.min(first.saturating_add(CHUNK)) - first;
        let stuck = picked(self.seed, self.threshold, first, n);
        let ones = bits(stuck)
            .filter(|&b| self.polarity(first + b) == StuckAt::One)
            .fold(0, |ones, b| ones | 1 << b);
        (stuck, ones)
    }
}

impl PartialEq for FaultMap {
    fn eq(&self, other: &Self) -> bool {
        let indices: BTreeSet<u64> = self
            .pages
            .keys()
            .chain(other.pages.keys())
            .copied()
            .collect();
        const NONE: &Counters = &[0; CHUNK as usize];
        fn counters(map: &FaultMap, index: u64, k: usize) -> &Counters {
            map.page(index)
                .and_then(|p| p.counters[k].as_deref())
                .unwrap_or(NONE)
        }
        let chunks = || {
            indices.iter().flat_map(|&index| {
                (0..PAGE_CHUNKS).map(move |k| (index, index * PAGE_CHUNKS + k, k as usize))
            })
        };
        let stuck = || {
            if self.seeding == other.seeding {
                // One rule: only chunks materialised on either side can
                // differ.
                chunks().all(|(index, key, _)| {
                    let (a, b) = (self.page(index), other.page(index));
                    (self.ruled(key, a) && other.ruled(key, b))
                        || self.chunk_words(key, a) == other.chunk_words(key, b)
                })
            } else {
                let all = 0..u64::MAX;
                self.stuck_entries(all.clone()).eq(other.stuck_entries(all))
            }
        };
        self.dead_tiles == other.dead_tiles
            && chunks().all(|(index, _, k)| counters(self, index, k) == counters(other, index, k))
            && stuck()
    }
}

impl Eq for FaultMap {}

/// The parts of `cells` in consecutive `width`-cell blocks, ascending:
/// `(block index, cells of the range inside that block)`.
fn parts(cells: Range<u64>, width: u64) -> impl Iterator<Item = (u64, Range<u64>)> {
    let mut start = cells.start;
    std::iter::from_fn(move || {
        (start < cells.end).then(|| {
            let index = start / width;
            let part = start..cells.end.min((index + 1).saturating_mul(width));
            start = part.end;
            (index, part)
        })
    })
}

/// A cell's offset in its chunk: its bit in the chunk's words and its slot
/// in the chunk's counters.
fn offset(cell: u64) -> usize {
    (cell % CHUNK) as usize
}

/// Chunk `key`'s slot in its page.
fn slot(key: u64) -> usize {
    (key % PAGE_CHUNKS) as usize
}

/// The mask of a non-empty part of one chunk.
fn part_mask(part: &Range<u64>) -> u64 {
    (u64::MAX >> (CHUNK - (part.end - part.start))) << offset(part.start)
}

/// The mask of the cells of `cells` in chunk `key`.
fn chunk_mask(key: u64, cells: &Range<u64>) -> u64 {
    let first = key * CHUNK;
    let part = cells.start.max(first)..cells.end.min(first.saturating_add(CHUNK));
    if part.is_empty() {
        0
    } else {
        part_mask(&part)
    }
}

/// The set bits of `word`, ascending.
pub(crate) fn bits(mut word: u64) -> impl Iterator<Item = u64> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let b = word.trailing_zeros();
            word &= word - 1;
            u64::from(b)
        })
    })
}

/// The polarity bit `b` of a stuck-at-one word stands for.
fn polarity(ones: u64, b: u64) -> StuckAt {
    if (ones >> b) & 1 == 0 {
        StuckAt::Zero
    } else {
        StuckAt::One
    }
}

/// Adds `pulses` to the counters of the cells `cells` holds.
fn add_pulses(counters: &mut Counters, cells: u64, pulses: u64) {
    if cells == u64::MAX {
        counters.iter_mut().for_each(|worn| *worn += pulses);
    } else {
        for b in bits(cells) {
            counters[b as usize] += pulses;
        }
    }
}

/// Adds `pulses` to every counter of `worn` and returns the cells that may
/// have crossed their limits: bit `i` is set when `worn[i] > max(slots[i],
/// floor)` after the add. An unevaluated slot reads 0 and every limit is
/// at least the floor, so a cell whose bit is clear has not crossed. At
/// most 64 counters.
fn wear_and_cross(worn: &mut [u64], slots: &[u64], pulses: u64, floor: u64) -> u64 {
    debug_assert!(worn.len() == slots.len() && worn.len() <= CHUNK as usize);
    #[cfg(target_arch = "x86_64")]
    if x86::avx2_available() {
        // SAFETY: AVX2 was detected at runtime.
        return unsafe { x86::wear_and_cross(worn, slots, pulses, floor) };
    }
    wear_and_cross_scalar(worn, slots, pulses, floor)
}

fn wear_and_cross_scalar(worn: &mut [u64], slots: &[u64], pulses: u64, floor: u64) -> u64 {
    worn.iter_mut().for_each(|worn| *worn += pulses);
    worn.iter()
        .zip(slots)
        .enumerate()
        .fold(0, |over, (i, (&worn, &slot))| {
            over | u64::from(worn > slot.max(floor)) << i
        })
}

/// The cells `first..first + n` (`n` at most 64) a rule with `seed` and
/// `threshold` sticks, as a word: bit `i` is set when `mix(seed, first +
/// i) >> 11 < threshold`.
fn picked(seed: u64, threshold: u64, first: u64, n: u64) -> u64 {
    debug_assert!((1..=CHUNK).contains(&n));
    #[cfg(target_arch = "x86_64")]
    if x86::avx2_available() {
        // SAFETY: AVX2 was detected at runtime.
        return unsafe { x86::picked(seed, threshold, first, n) };
    }
    picked_scalar(seed, threshold, first, n)
}

fn picked_scalar(seed: u64, threshold: u64, first: u64, n: u64) -> u64 {
    (0..n).fold(0, |word, i| {
        word | u64::from(mix(seed, first.wrapping_add(i)) >> 11 < threshold) << i
    })
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use super::GAMMA;
    use std::arch::x86_64::*;
    use std::sync::OnceLock;

    /// Whether this host has AVX2, detected once.
    pub(crate) fn avx2_available() -> bool {
        static AVX2: OnceLock<bool> = OnceLock::new();
        *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
    }

    /// [`super::wear_and_cross`], four counters to an add and a compare.
    /// AVX2 compares 64-bit lanes as signed, so every operand has its sign
    /// bit flipped first, which orders them as unsigned: a disabled
    /// model's `u64::MAX` floor stays above every counter.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn wear_and_cross(
        worn: &mut [u64],
        slots: &[u64],
        pulses: u64,
        floor: u64,
    ) -> u64 {
        let flip = _mm256_set1_epi64x(i64::MIN);
        let least = _mm256_xor_si256(_mm256_set1_epi64x(floor as i64), flip);
        let add = _mm256_set1_epi64x(pulses as i64);
        let blocks = worn.len() - worn.len() % 4;
        let mut over = 0u64;
        for i in (0..blocks).step_by(4) {
            // SAFETY: `worn` and `slots` hold four counters from `i`.
            let (w, s) = unsafe {
                let at = worn.as_mut_ptr().add(i).cast();
                let w = _mm256_add_epi64(_mm256_loadu_si256(at), add);
                _mm256_storeu_si256(at, w);
                (w, _mm256_loadu_si256(slots.as_ptr().add(i).cast()))
            };
            let w = _mm256_xor_si256(w, flip);
            let s = _mm256_xor_si256(s, flip);
            let both = _mm256_and_si256(_mm256_cmpgt_epi64(w, s), _mm256_cmpgt_epi64(w, least));
            over |= (_mm256_movemask_pd(_mm256_castsi256_pd(both)) as u64) << i;
        }
        // The tail is empty, and the shift out of range, at 64 counters.
        let tail =
            super::wear_and_cross_scalar(&mut worn[blocks..], &slots[blocks..], pulses, floor);
        over | tail.checked_shl(blocks as u32).unwrap_or(0)
    }

    /// The low 64 bits of `a · c` in each lane, from 32-bit products.
    #[target_feature(enable = "avx2")]
    pub(crate) fn mul(a: __m256i, c: u64) -> __m256i {
        let lo = _mm256_set1_epi64x((c & 0xFFFF_FFFF) as i64);
        let hi = _mm256_set1_epi64x((c >> 32) as i64);
        let cross = _mm256_add_epi64(
            _mm256_mul_epu32(_mm256_srli_epi64::<32>(a), lo),
            _mm256_mul_epu32(a, hi),
        );
        _mm256_add_epi64(_mm256_mul_epu32(a, lo), _mm256_slli_epi64::<32>(cross))
    }

    /// [`super::mix`] of four lanes, given each lane's `seed + index ·
    /// GAMMA`: the SplitMix64 finaliser.
    #[target_feature(enable = "avx2")]
    pub(crate) fn finish(z: __m256i) -> __m256i {
        let x = mul(
            _mm256_xor_si256(z, _mm256_srli_epi64::<30>(z)),
            0xBF58_476D_1CE4_E5B9,
        );
        let x = mul(
            _mm256_xor_si256(x, _mm256_srli_epi64::<27>(x)),
            0x94D0_49BB_1331_11EB,
        );
        _mm256_xor_si256(x, _mm256_srli_epi64::<31>(x))
    }

    /// [`super::picked`], four cells to a hash: [`super::mix`] lane by
    /// lane. A hash shifted right by 11 is below 2⁵³, so a threshold
    /// clamped to 2⁵³ picks the same cells and compares as signed.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn picked(seed: u64, threshold: u64, first: u64, n: u64) -> u64 {
        let lane = |i: u64| seed.wrapping_add(first.wrapping_add(i).wrapping_mul(GAMMA)) as i64;
        let mut z = _mm256_set_epi64x(lane(3), lane(2), lane(1), lane(0));
        let step = _mm256_set1_epi64x(GAMMA.wrapping_mul(4) as i64);
        let below = _mm256_set1_epi64x(threshold.min(1 << 53) as i64);
        let mut word = 0u64;
        for i in (0..n).step_by(4) {
            let hit = _mm256_cmpgt_epi64(below, _mm256_srli_epi64::<11>(finish(z)));
            word |= (_mm256_movemask_pd(_mm256_castsi256_pd(hit)) as u64) << i;
            z = _mm256_add_epi64(z, step);
        }
        word & (u64::MAX >> (super::CHUNK - n))
    }
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
        self.dead_tiles.is_empty() && self.stuck_words(0..u64::MAX).next().is_none()
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
        if rate.is_nan() || rate <= 0.0 || cells == 0 {
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

    fn page(&self, index: u64) -> Option<&Page> {
        self.pages.get(&index).map(|page| &**page)
    }

    /// Whether chunk `key`'s stuck cells are the rule's rather than its
    /// words; `page` is the chunk's page, if one is stored.
    fn ruled(&self, key: u64, page: Option<&Page>) -> bool {
        key < self.seeding.chunks() && page.is_none_or(|p| (p.materialised >> slot(key)) & 1 == 0)
    }

    /// Chunk `key`'s stuck cells as words, `(stuck, stuck at one)`, from
    /// the rule or from `page`, its page.
    fn chunk_words(&self, key: u64, page: Option<&Page>) -> (u64, u64) {
        if self.ruled(key, page) {
            self.seeding.words(key)
        } else {
            page.map_or((0, 0), |p| (p.stuck[slot(key)], p.ones[slot(key)]))
        }
    }

    /// The stuck cells of `cells` as words, ascending by chunk, each
    /// masked to `cells`: `(chunk key, stuck, stuck at one)`, chunks with
    /// no stuck cell left out. One page is fetched per 4,096 cells, and a
    /// stretch with no stored page past the rule's cells is skipped whole.
    pub(crate) fn stuck_words(
        &self,
        cells: Range<u64>,
    ) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        let end = if cells.is_empty() {
            0
        } else {
            (cells.end - 1) / CHUNK + 1
        };
        let mut key = cells.start / CHUNK;
        let mut page = (u64::MAX, None);
        std::iter::from_fn(move || {
            while key < end {
                let index = key / PAGE_CHUNKS;
                if page.0 != index {
                    page = (index, self.page(index));
                }
                if page.1.is_none() && key >= self.seeding.chunks() {
                    key = self
                        .pages
                        .range(index + 1..)
                        .next()
                        .map_or(end, |(&next, _)| (next * PAGE_CHUNKS).min(end));
                    continue;
                }
                let (stuck, ones) = self.chunk_words(key, page.1);
                let mask = chunk_mask(key, &cells);
                key += 1;
                if stuck & mask != 0 {
                    return Some((key - 1, stuck & mask, ones & mask));
                }
            }
            None
        })
    }

    /// Sets down the rule's stuck cells of every chunk `cells` reaches that
    /// is not materialised yet, so their words hold all of their stuck
    /// cells.
    pub(crate) fn materialise(&mut self, cells: Range<u64>) {
        if cells.is_empty() {
            return;
        }
        let rule = self.seeding;
        let end = ((cells.end - 1) / CHUNK + 1).min(rule.chunks());
        let mut key = cells.start / CHUNK;
        while key < end {
            let index = key / PAGE_CHUNKS;
            let upto = end.min((index + 1) * PAGE_CHUNKS);
            let page = self.pages.entry(index).or_insert_with(Page::new);
            for key in key..upto {
                page.materialise(key, &rule);
            }
            key = upto;
        }
    }

    /// Walks the stuck words of `cells` like [`FaultMap::stuck_words`],
    /// materialising each chunk of the rule it reaches, and hands each
    /// `(chunk key, stuck)` with a stuck cell to `visit` until it returns
    /// false. A chunk is hashed at most once in the map's life, however
    /// many scans pass it.
    fn scan(&mut self, cells: Range<u64>, mut visit: impl FnMut(u64, u64) -> bool) {
        let rule = self.seeding;
        let split = rule
            .chunks()
            .saturating_mul(CHUNK)
            .min(cells.end)
            .max(cells.start);
        let ruled = cells.start..split;
        let end = if ruled.is_empty() {
            0
        } else {
            (split - 1) / CHUNK + 1
        };
        let mut key = cells.start / CHUNK;
        while key < end {
            let index = key / PAGE_CHUNKS;
            let upto = end.min((index + 1) * PAGE_CHUNKS);
            let page = self.pages.entry(index).or_insert_with(Page::new);
            for key in key..upto {
                page.materialise(key, &rule);
                let stuck = page.stuck[slot(key)] & chunk_mask(key, &ruled);
                if stuck != 0 && !visit(key, stuck) {
                    return;
                }
            }
            key = upto;
        }
        for (key, stuck, _) in self.stuck_words(split..cells.end) {
            if !visit(key, stuck) {
                return;
            }
        }
    }

    /// The first stuck cell of `cells`, if any: a read that sets down the
    /// rule's chunks it hashes, so the next scan over them reads words
    /// (see [`FaultMap`]). The logical map is unchanged.
    pub fn first_stuck_in(&mut self, cells: Range<u64>) -> Option<u64> {
        let mut first = None;
        self.scan(cells, |key, stuck| {
            first = Some(key * CHUNK + u64::from(stuck.trailing_zeros()));
            false
        });
        first
    }

    /// The number of stuck cells in `cells`, counted up to `bound`: a read
    /// that sets down the rule's chunks it hashes, and hashes none past the
    /// chunk where the count reaches the bound. The logical map is
    /// unchanged.
    pub fn count_stuck_in(&mut self, cells: Range<u64>, bound: usize) -> usize {
        let mut count = 0;
        if bound > 0 {
            self.scan(cells, |_, stuck| {
                count += stuck.count_ones() as usize;
                count < bound
            });
        }
        count.min(bound)
    }

    /// Marks one cell stuck.
    pub fn set_stuck(&mut self, cell: u64, polarity: StuckAt) -> &mut Self {
        self.materialise(cell..cell + 1);
        let page = self.pages.entry(cell / PAGE).or_insert_with(Page::new);
        let (k, bit) = (slot(cell / CHUNK), 1 << offset(cell));
        page.stuck[k] |= bit;
        if polarity == StuckAt::One {
            page.ones[k] |= bit;
        } else {
            page.ones[k] &= !bit;
        }
        self
    }

    /// The stuck polarity of a cell, if any.
    pub fn stuck_at(&self, cell: u64) -> Option<StuckAt> {
        let (key, page) = (cell / CHUNK, self.page(cell / PAGE));
        if self.ruled(key, page) {
            self.seeding.stuck_at(cell)
        } else {
            let (stuck, ones) = page.map_or((0, 0), |p| (p.stuck[slot(key)], p.ones[slot(key)]));
            let b = offset(cell) as u64;
            ((stuck >> b) & 1 == 1).then(|| polarity(ones, b))
        }
    }

    /// Number of stuck cells. On a seeded map this hashes every cell of
    /// the chunks nothing has materialised.
    pub fn stuck_cells(&self) -> usize {
        self.stuck_words(0..u64::MAX)
            .map(|(_, stuck, _)| stuck.count_ones() as usize)
            .sum()
    }

    /// Stuck cells within a cell-index range, ascending (the diagnostic
    /// read-back scan ABFT localization runs after a residual trips).
    pub fn stuck_cells_in(&self, range: Range<u64>) -> impl Iterator<Item = u64> + '_ {
        self.stuck_entries(range).map(|(cell, _)| cell)
    }

    /// The stuck cells within `range` with their polarities, ascending:
    /// the set bits of its words.
    fn stuck_entries(&self, range: Range<u64>) -> impl Iterator<Item = (u64, StuckAt)> + '_ {
        self.stuck_words(range).flat_map(|(key, stuck, ones)| {
            bits(stuck).map(move |b| (key * CHUNK + b, polarity(ones, b)))
        })
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
        self.page(cell / PAGE)
            .and_then(|p| p.counters[slot(cell / CHUNK)].as_deref())
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
    /// its weights one at a time in order. The run works a chunk part at a
    /// time on its page's words: the stuck word picks the healthy cells,
    /// and only a stuck cell's weight is sliced, onto the stack, since only
    /// its target level matters (it decides whether the cell fails). When
    /// a healthy cell's first pulse always verifies (a fail rate of at most
    /// 0 and no endurance limit), a part is one add over its counters; a
    /// part whose cells are all stuck takes no pulse and allocates no
    /// counters.
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
        let first_pulse_verifies = policy.transient_fail_rate <= 0.0 && policy.endurance_limit == 0;
        let target = |cell: u64| {
            let i = (cell - base) as usize;
            slice_weight(codes[i / span], config)[i % span]
        };
        let mut report = WriteReport::default();
        for (index, in_page) in parts(cells, PAGE) {
            let page = self.pages.entry(index).or_insert_with(Page::new);
            for (key, part) in parts(in_page, CHUNK) {
                let k = slot(key);
                let (frozen, ones) = (page.stuck[k] & part_mask(&part), page.ones[k]);
                let healthy = part_mask(&part) & !frozen;
                // Healthy cells given up on: worn out or out of retries.
                let mut quit = 0u64;
                if healthy != 0 {
                    let counters = page.counters_mut(k);
                    if first_pulse_verifies {
                        add_pulses(counters, healthy, 1);
                        report.attempts += u64::from(healthy.count_ones());
                    } else {
                        for b in bits(healthy) {
                            let cell = key * CHUNK + b;
                            if !write_verify(&mut counters[b as usize], cell, policy, &mut report) {
                                quit |= 1 << b;
                            }
                        }
                    }
                }
                let mismatched = bits(frozen)
                    .filter(|&b| {
                        polarity(ones, b).level(config.cell_bits) != target(key * CHUNK + b)
                    })
                    .fold(0u64, |m, b| m | 1 << b);
                report.newly_stuck += u64::from(quit.count_ones());
                report
                    .failed_cells
                    .extend(bits(mismatched | quit).map(|b| key * CHUNK + b));
                // The controller quarantines what it gave up on.
                page.freeze(key, quit, |cell| frozen_polarity(policy.seed, cell));
            }
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
    /// freezes at a polarity seeded by the model's seed.
    ///
    /// The pass works a chunk part at a time on its page's words: the
    /// stuck word picks the healthy cells, whose counters take the pulses
    /// (one add over the part when none is stuck), and one compare of each
    /// counter with the larger of its limit slot and the floor (four at a
    /// time with AVX2) picks the cells that may have crossed. Those with
    /// no slot yet take their bucket's floor, a part at a time
    /// ([`WearLimits`]), a second compare drops the ones still below it,
    /// and only the rest are checked against their limits.
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
        let (floor, seed) = (limits.floor(), limits.seed());
        for (index, in_page) in parts(cells, PAGE) {
            let page = self.pages.entry(index).or_insert_with(Page::new);
            for (key, part) in parts(in_page, CHUNK) {
                let k = slot(key);
                let healthy = part_mask(&part) & !page.stuck[k];
                if healthy == 0 {
                    continue; // no healthy cell: nothing to count
                }
                let counters = page.counters_mut(k);
                // A part with a stuck cell takes its pulses cell by cell.
                let fused = if healthy == part_mask(&part) {
                    pulses
                } else {
                    add_pulses(counters, healthy, pulses);
                    0
                };
                let (lo, hi) = (offset(part.start), offset(part.end - 1));
                let slots = limits.slots(part.clone());
                let over = wear_and_cross(&mut counters[lo..=hi], slots, fused, floor) << lo;
                if over & healthy == 0 {
                    continue;
                }
                // Counters past the floor whose slots learn their bucket's
                // floor now are compared with it.
                limits.learn_floors(part.clone(), (over & healthy) >> lo);
                let slots = limits.slots(part.clone());
                let over = wear_and_cross(&mut counters[lo..=hi], slots, 0, floor) << lo;
                let broken = bits(over & healthy)
                    .filter(|&b| limits.exceeded(key * CHUNK + b, counters[b as usize]))
                    .fold(0u64, |m, b| m | 1 << b);
                if broken != 0 {
                    newly.extend(bits(broken).map(|b| key * CHUNK + b));
                    page.freeze(key, broken, |cell| frozen_polarity(seed, cell));
                }
            }
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
    fn the_wear_compare_agrees_with_its_definition_across_the_sign_bit() {
        let edges = [
            0,
            1,
            2,
            7,
            i64::MAX as u64 - 3,
            i64::MAX as u64,
            1 << 63,
            (1 << 63) + 1,
            u64::MAX - 9,
            u64::MAX - 3,
            u64::MAX,
        ];
        let pick = |seed: u64, i: u64| edges[(mix(seed, i) % edges.len() as u64) as usize];
        for len in 0..=CHUNK {
            for round in 0..40u64 {
                let pulses = round % 4;
                let worn: Vec<u64> = (0..len).map(|i| pick(round, i).min(u64::MAX - 3)).collect();
                let slots: Vec<u64> = (0..len).map(|i| pick(!round, i)).collect();
                let floor = pick(round ^ len, 99);
                let after: Vec<u64> = worn.iter().map(|w| w + pulses).collect();
                let expect = (0..len as usize).fold(0u64, |m, i| {
                    m | u64::from(after[i] > slots[i] && after[i] > floor) << i
                });
                let (mut fast, mut slow) = (worn.clone(), worn.clone());
                assert_eq!(wear_and_cross(&mut fast, &slots, pulses, floor), expect);
                assert_eq!(
                    wear_and_cross_scalar(&mut slow, &slots, pulses, floor),
                    expect
                );
                assert_eq!((&fast, &slow), (&after, &after), "{len} {round}");
            }
        }
        // A disabled model's floor: no counter crosses it.
        let mut worn = [u64::MAX - 1; CHUNK as usize];
        assert_eq!(
            wear_and_cross(&mut worn, &[0; CHUNK as usize], 1, u64::MAX),
            0
        );
    }

    #[test]
    fn word_hashing_picks_the_cells_the_rule_picks() {
        let thresholds = [
            0,
            1,
            1 << 20,
            1 << 40,
            (1 << 53) - 1,
            1 << 53,
            1 << 60,
            u64::MAX,
        ];
        for round in 0..400u64 {
            let seed = mix(round, 1);
            let first = [mix(round, 2), mix(round, 3) % 100_000, u64::MAX - 64][round as usize % 3];
            let n = 1 + round % CHUNK;
            let threshold = thresholds[round as usize % thresholds.len()];
            let expect = (0..n).fold(0u64, |word, i| {
                word | u64::from(mix(seed, first.wrapping_add(i)) >> 11 < threshold) << i
            });
            assert_eq!(picked(seed, threshold, first, n), expect, "{round}");
            assert_eq!(picked_scalar(seed, threshold, first, n), expect);
        }
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

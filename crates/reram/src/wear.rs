//! Endurance wear-out distribution: per-cell write-pulse limits.
//!
//! [`crate::fault::WritePolicy::endurance_limit`] models a single hard
//! cutoff shared by every cell — good enough for the write-verify loop's
//! give-up accounting, but real TaOx/HfOx endurance is log-normal-ish:
//! cells in the same array die orders of magnitude apart. [`WearModel`]
//! gives every cell its own deterministic limit, log-uniform around a mean
//! (`limit = mean · spreadᵘ`, `u ∈ [-1, 1)` hashed from the seed and cell
//! index), so a training run wears cells out *staggered* over time instead
//! of all at once — exactly the mid-run surprise the self-healing runtime
//! has to detect and route around. [`crate::fault::FaultMap::advance_wear`]
//! is the hook that charges pulses against these limits.
//!
//! Determinism contract: a cell's limit is a pure function of
//! `(seed, cell)`; the same model replays the same break schedule
//! bit-identically. That is what lets a caller keep the limits of a placed
//! block's cell range ([`WearModel::limits`]) and evaluate each one lazily:
//! no limit can lie below the model's [`WearModel::floor`], and none of a
//! cell whose deviate falls in one of 64 buckets below that bucket's own
//! floor, so a wear pass reads a cell's bucket (one hash) only once that
//! cell's counter passes the model's floor, evaluates its limit (one
//! `powf`) only once the counter passes the bucket's, stores what it
//! learnt in the [`WearLimits`], and reads it back on every later pass.

use crate::fault::{mix, unit};
use std::ops::Range;

/// Buckets of the deviate `u ∈ [-1, 1)` behind a cell's limit, each with
/// its own floor ([`WearModel::bucket_floors`]).
const BUCKETS: usize = 64;

/// Mixed into the model seed for the hash behind a cell's limit.
const LIMIT_SALT: u64 = 0x3C3C_C3C3_3C3C_C3C3;

/// Seeded per-cell endurance distribution.
///
/// [`WearModel::limit_of`] derives one cell's limit from the seed and the
/// cell index; [`WearModel::limits`] holds the limits of a placed block's
/// cell range, which [`crate::fault::FaultMap::advance_wear`] evaluates as
/// their cells' counters pass [`WearModel::floor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WearModel {
    /// Mean endurance in write pulses. Zero disables wear-out entirely
    /// (every cell's limit becomes `u64::MAX`).
    pub endurance_mean: u64,
    /// Log-uniform spread factor (finite, ≥ 1): per-cell limits range over
    /// `[mean / spread, mean · spread)`. A spread of 1 pins every cell at
    /// the mean. An infinite spread is no distribution: every cell's limit
    /// would be 1 or never, so it is rejected like one below 1.
    pub spread: f64,
    /// Seed of the per-cell limits and of the polarity each worn-out cell
    /// freezes at.
    pub seed: u64,
}

impl WearModel {
    /// A model whose cells never wear out.
    pub fn disabled() -> Self {
        WearModel {
            endurance_mean: 0,
            spread: 1.0,
            seed: 0,
        }
    }

    /// A model with the given mean, spread and seed.
    ///
    /// # Panics
    ///
    /// Panics unless [`WearModel::valid_spread`] accepts `spread`.
    pub fn new(endurance_mean: u64, spread: f64, seed: u64) -> Self {
        assert!(
            Self::valid_spread(spread),
            "spread is a finite multiplicative factor >= 1"
        );
        WearModel {
            endurance_mean,
            spread,
            seed,
        }
    }

    /// Whether `spread` is a usable spread factor: finite and at least 1
    /// (NaN is not).
    pub fn valid_spread(spread: f64) -> bool {
        spread.is_finite() && spread >= 1.0
    }

    /// Whether wear-out is active.
    pub fn is_enabled(&self) -> bool {
        self.endurance_mean > 0
    }

    /// This cell's personal endurance limit in write pulses (at least 1;
    /// `u64::MAX` when the model is disabled).
    pub fn limit_of(&self, cell: u64) -> u64 {
        if self.endurance_mean == 0 {
            return u64::MAX;
        }
        let u = 2.0 * unit(self.seed ^ LIMIT_SALT, mix(cell, 0x11)) - 1.0;
        let limit = self.endurance_mean as f64 * self.spread.powf(u);
        limit.round().max(1.0) as u64
    }

    /// The bucket of `cell`'s deviate: bucket `b` holds the cells whose `u`
    /// lies in `[2b / 64 - 1, 2(b + 1) / 64 - 1)`, the top six bits of the
    /// hash [`WearModel::limit_of`] scales.
    fn bucket(&self, cell: u64) -> usize {
        (mix(self.seed ^ LIMIT_SALT, mix(cell, 0x11)) >> (64 - BUCKETS.ilog2())) as usize
    }

    /// For each bucket `b`, a bound no limit of a cell in it goes below:
    /// `mean · spread^(2b / 64 - 1)` as a product of steps
    /// `spread^(2 / 64)`, then as [`WearModel::floor`] is for bucket 0,
    /// since `spreadᵘ` grows with `u` for a valid spread. The `10⁻⁶` margin
    /// covers the product's rounding (64 steps at most) as well as that of
    /// `powf`. An invalid spread (one that bypassed [`WearModel::new`])
    /// gives the model's floor in every bucket.
    fn bucket_floors(&self) -> [u64; BUCKETS] {
        if !Self::valid_spread(self.spread) {
            return [self.floor(); BUCKETS];
        }
        let step = self.spread.powf(2.0 / BUCKETS as f64);
        let mut scaled = self.endurance_mean as f64 / self.spread;
        std::array::from_fn(|_| {
            let bound = (scaled * (1.0 - 1e-6)).floor() as u64;
            scaled *= step;
            bound.max(1)
        })
    }

    /// A bound no limit of this model goes below: `u64::MAX` when the
    /// model is disabled, else `max(1, ⌊mean / spread · (1 − 10⁻⁶)⌋)`. A
    /// limit is `round(mean · spreadᵘ)` with `u ∈ [-1, 1)`, so it is at
    /// least `mean / spread` up to the rounding of `powf`, which the `10⁻⁶`
    /// margin covers many times over; a cell whose counter is at most the
    /// floor cannot exceed its limit. A spread below 1 that bypassed
    /// [`WearModel::new`] bounds the limits by `mean · spread` instead, and
    /// a NaN spread gives a floor of 1.
    pub fn floor(&self) -> u64 {
        if self.endurance_mean == 0 {
            return u64::MAX;
        }
        let smallest = self.spread.min(self.spread.recip());
        let bound = self.endurance_mean as f64 * smallest * (1.0 - 1e-6);
        (bound.floor() as u64).max(1)
    }

    /// The limits of the cells in `cells`, none evaluated yet. A runtime
    /// takes them when it places a block on `cells` and hands them to each
    /// [`crate::fault::FaultMap::advance_wear`] pass until it moves the
    /// block; each pass learns and keeps the bounds and limits of the cells
    /// whose counters it takes past [`WearModel::floor`].
    pub fn limits(&self, cells: Range<u64>) -> WearLimits {
        let len = (cells.end - cells.start) as usize;
        WearLimits {
            start: cells.start,
            limits: vec![0; len],
            exact: vec![0; len.div_ceil(64)],
            floor: self.floor(),
            bucket_floors: self.bucket_floors(),
            model: *self,
        }
    }
}

/// The endurance limits of one contiguous cell range under a
/// [`WearModel`], learnt on first use. Each slot holds a lower bound of its
/// cell's limit: 0 before its counter first passes the model's floor, its
/// bucket's floor after, and [`WearModel::limit_of`] once its counter
/// passes that too (then its bit in `exact` is set). There is no equality:
/// two values describing the same limits may differ in how far evaluation
/// has got.
#[derive(Debug, Clone)]
pub struct WearLimits {
    start: u64,
    limits: Vec<u64>,
    /// One bit per slot: set once the slot holds the cell's limit.
    exact: Vec<u64>,
    floor: u64,
    /// [`WearModel::bucket_floors`].
    bucket_floors: [u64; BUCKETS],
    model: WearModel,
}

impl WearLimits {
    /// The cell range the limits cover.
    pub fn cells(&self) -> Range<u64> {
        self.start..self.start + self.limits.len() as u64
    }

    /// Forgets every limit learnt so far and covers `cells` instead, in
    /// the buffers already held: the [`WearModel::limits`] of `cells` under
    /// the same model, without allocating once the buffers are large
    /// enough.
    pub fn rebase(&mut self, cells: Range<u64>) {
        let len = (cells.end - cells.start) as usize;
        self.start = cells.start;
        self.limits.clear();
        self.limits.resize(len, 0);
        self.exact.clear();
        self.exact.resize(len.div_ceil(64), 0);
    }

    /// The model's [`WearModel::floor`]: no limit here lies below it.
    pub(crate) fn floor(&self) -> u64 {
        self.floor
    }

    /// The slots of `cells`: each a lower bound of its cell's limit (0 if
    /// nothing is known yet), exact once evaluated.
    ///
    /// # Panics
    ///
    /// Panics if `cells` does not lie inside [`WearLimits::cells`].
    pub(crate) fn slots(&self, cells: Range<u64>) -> &[u64] {
        &self.limits[(cells.start - self.start) as usize..(cells.end - self.start) as usize]
    }

    /// Gives every cell of `part` that `marked` marks (bit `i` for cell
    /// `part.start + i`) and whose slot is still 0 its bucket's floor: what
    /// [`WearLimits::exceeded`] learns first for a counter past the model's
    /// floor, taken for a part of a chunk at once (four cells to a hash
    /// with AVX2), so that only the cells past their bucket's floor go on
    /// to `exceeded`.
    ///
    /// # Panics
    ///
    /// Panics if `part` does not lie inside [`WearLimits::cells`] or is
    /// longer than 64 cells.
    pub(crate) fn learn_floors(&mut self, part: Range<u64>, marked: u64) {
        let at = (part.start - self.start) as usize;
        let slots = &mut self.limits[at..at + (part.end - part.start) as usize];
        assert!(slots.len() <= 64, "a part of one chunk");
        let mut done = 0;
        #[cfg(target_arch = "x86_64")]
        if crate::fault::x86::avx2_available() {
            let salted = self.model.seed ^ LIMIT_SALT;
            // SAFETY: AVX2 was detected at runtime.
            done = unsafe {
                x86::learn_floors(salted, part.start, slots, marked, &self.bucket_floors)
            };
        }
        let rest = marked & u64::MAX.checked_shl(done as u32).unwrap_or(0);
        for i in crate::fault::bits(rest) {
            let slot = &mut slots[i as usize];
            if *slot == 0 {
                *slot = self.bucket_floors[self.model.bucket(part.start + i)];
            }
        }
    }

    /// Whether a counter of `worn` pulses exceeds `cell`'s limit. A counter
    /// at or below the model's floor exceeds nothing. Past it, the cell's
    /// slot takes its bucket's floor (one hash), and its limit (one `powf`)
    /// only once the counter passes that floor too; the slot keeps what was
    /// learnt.
    ///
    /// # Panics
    ///
    /// Panics if `cell` lies outside [`WearLimits::cells`].
    pub(crate) fn exceeded(&mut self, cell: u64, worn: u64) -> bool {
        if worn <= self.floor {
            return false;
        }
        let i = (cell - self.start) as usize;
        if (self.exact[i / 64] >> (i % 64)) & 1 == 0 {
            if self.limits[i] == 0 {
                self.limits[i] = self.bucket_floors[self.model.bucket(cell)];
            }
            if worn <= self.limits[i] {
                return false;
            }
            self.limits[i] = self.model.limit_of(cell);
            self.exact[i / 64] |= 1 << (i % 64);
        }
        worn > self.limits[i]
    }

    /// The model seed: it also picks the polarity a worn-out cell freezes
    /// at.
    pub(crate) fn seed(&self) -> u64 {
        self.model.seed
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use crate::fault::x86::{finish, mul};
    use crate::fault::GAMMA;
    use std::arch::x86_64::*;

    /// [`super::WearLimits::learn_floors`] for the first `slots.len() / 4
    /// · 4` cells, four cells to a hash: the top six bits of
    /// `mix(salted, mix(cell, 0x11))` pick each cell's bucket, whose floor
    /// a gather fetches, and a marked slot that is still 0 takes it.
    /// Returns how many cells it covered.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn learn_floors(
        salted: u64,
        first: u64,
        slots: &mut [u64],
        marked: u64,
        floors: &[u64; 64],
    ) -> usize {
        let inner = _mm256_set1_epi64x(0x11u64.wrapping_mul(GAMMA) as i64);
        let seed = _mm256_set1_epi64x(salted as i64);
        let lane_bits = _mm256_set_epi64x(8, 4, 2, 1);
        let mut cell = _mm256_add_epi64(
            _mm256_set1_epi64x(first as i64),
            _mm256_set_epi64x(3, 2, 1, 0),
        );
        let blocks = slots.len() - slots.len() % 4;
        for i in (0..blocks).step_by(4) {
            let want = (marked >> i) & 0xF;
            if want != 0 {
                let hash = finish(_mm256_add_epi64(
                    seed,
                    mul(finish(_mm256_add_epi64(cell, inner)), GAMMA),
                ));
                let bucket = _mm256_srli_epi64::<58>(hash);
                // SAFETY: every bucket is below 64; `slots` holds four
                // counters from `i`.
                unsafe {
                    let floor = _mm256_i64gather_epi64::<8>(floors.as_ptr().cast(), bucket);
                    let at: *mut __m256i = slots.as_mut_ptr().add(i).cast();
                    let old = _mm256_loadu_si256(at);
                    let wanted = _mm256_set1_epi64x(want as i64);
                    let lanes = _mm256_and_si256(
                        _mm256_cmpeq_epi64(_mm256_and_si256(wanted, lane_bits), lane_bits),
                        _mm256_cmpeq_epi64(old, _mm256_setzero_si256()),
                    );
                    _mm256_storeu_si256(at, _mm256_blendv_epi8(old, floor, lanes));
                }
            }
            cell = _mm256_add_epi64(cell, _mm256_set1_epi64x(4));
        }
        blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultMap;

    #[test]
    fn disabled_model_never_breaks_cells() {
        let model = WearModel::disabled();
        assert!(!model.is_enabled());
        assert_eq!(model.limit_of(0), u64::MAX);
        let mut m = FaultMap::pristine();
        let newly = m.advance_wear(&mut model.limits(0..1000), 1_000_000);
        assert!(newly.is_empty());
        assert_eq!(m.stuck_cells(), 0);
        // Counters still advance (observable bookkeeping).
        assert_eq!(m.wear_of(500), 1_000_000);
    }

    #[test]
    fn limits_are_deterministic_and_centred_on_the_mean() {
        let model = WearModel::new(10_000, 4.0, 42);
        assert_eq!(model.limit_of(7), model.limit_of(7));
        let limits: Vec<u64> = (0..2000).map(|c| model.limit_of(c)).collect();
        // Log-uniform over [mean/4, mean*4).
        assert!(limits.iter().all(|&l| (2500..40_000).contains(&l)));
        // Spread actually spreads: both halves of the range are populated.
        assert!(limits.iter().any(|&l| l < 10_000));
        assert!(limits.iter().any(|&l| l > 10_000));
        // Unit spread pins the mean exactly.
        let flat = WearModel::new(10_000, 1.0, 42);
        assert!((0..100).all(|c| flat.limit_of(c) == 10_000));
    }

    #[test]
    fn spreads_below_one_nan_and_infinity_are_invalid() {
        assert!(WearModel::valid_spread(1.0) && WearModel::valid_spread(1e6));
        for spread in [0.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(!WearModel::valid_spread(spread), "{spread}");
        }
        assert!(std::panic::catch_unwind(|| WearModel::new(10, f64::INFINITY, 0)).is_err());
    }

    #[test]
    fn stored_limits_are_the_models_limits() {
        let model = WearModel::new(500, 3.0, 77);
        let mut limits = model.limits(1000..1300);
        assert_eq!(limits.cells(), 1000..1300);
        assert_eq!(limits.seed(), 77);
        assert_eq!(limits.floor(), 166);
        // Counters rising through every limit: each read learns a bound or
        // evaluates, later reads return what was kept, and every slot stays
        // at or below its limit.
        for worn in (0..1_600).step_by(7).chain([1_600, 0, 900]) {
            for c in 1000..1300 {
                assert_eq!(
                    limits.exceeded(c, worn),
                    worn > model.limit_of(c),
                    "{c} {worn}"
                );
            }
            let slots = limits.slots(1000..1300);
            assert!((1000..1300).all(|c| slots[(c - 1000) as usize] <= model.limit_of(c)));
        }
        assert_eq!(WearModel::disabled().limits(0..1).floor(), u64::MAX);
    }

    #[test]
    fn word_floor_reads_match_the_cell_by_cell_ones() {
        for round in 0..300u64 {
            let model = WearModel::new(20 + round, 1.3, mix(round, 5));
            let start = mix(round, 6) >> (round % 64);
            let len = 1 + round % 64;
            let cells = start..start + len;
            let (mut fast, mut slow) = (model.limits(cells.clone()), model.limits(cells.clone()));
            // Some slots already hold a bound; they must keep it.
            for i in (0..len).filter(|i| mix(round, *i).is_multiple_of(3)) {
                fast.limits[i as usize] = 7;
                slow.limits[i as usize] = 7;
            }
            let marked = mix(round, 7) & (u64::MAX >> (64 - len));
            fast.learn_floors(cells.clone(), marked);
            for i in crate::fault::bits(marked) {
                if slow.limits[i as usize] == 0 {
                    slow.limits[i as usize] = slow.bucket_floors[model.bucket(start + i)];
                }
            }
            assert_eq!(fast.limits, slow.limits, "{round}");
        }
    }

    #[test]
    fn rebased_limits_are_fresh_limits() {
        let model = WearModel::new(40, 2.0, 5);
        let mut limits = model.limits(0..300);
        for c in 0..300 {
            limits.exceeded(c, 70);
        }
        for cells in [100..164, 1_000..1_300, 7..8] {
            limits.rebase(cells.clone());
            assert_eq!(limits.cells(), cells);
            assert!(limits.slots(cells.clone()).iter().all(|&slot| slot == 0));
            for worn in [0, 25, 60, 90, 200] {
                for c in cells.clone() {
                    assert_eq!(limits.exceeded(c, worn), worn > model.limit_of(c), "{c}");
                }
            }
        }
    }

    #[test]
    fn no_limit_lies_below_its_buckets_floor() {
        let means = [1u64, 2, 3, 7, 15, 20, 100, 1_000, 10_000, 1 << 40];
        let spreads = [1.0, 1.000_001, 1.01, 1.3, 1.5, 2.0, 3.0, 4.0, 10.0, 1e6];
        for mean in means {
            for spread in spreads {
                let model = WearModel::new(mean, spread, mean ^ spread.to_bits());
                let floors = model.bucket_floors();
                assert!(floors.windows(2).all(|w| w[0] <= w[1]), "{mean} {spread}");
                assert!(floors[0] >= 1);
                for cell in 0..20_000 {
                    let (floor, limit) = (floors[model.bucket(cell)], model.limit_of(cell));
                    assert!(
                        floor <= limit,
                        "mean {mean} spread {spread} cell {cell}: floor {floor} > limit {limit}"
                    );
                }
            }
        }
        // Spreads `WearModel::new` rejects fall back to the model's floor.
        for spread in [0.5, 0.0, -2.0, f64::NAN, f64::INFINITY] {
            let model = WearModel {
                endurance_mean: 1_000,
                spread,
                seed: 3,
            };
            assert_eq!(model.bucket_floors(), [model.floor(); BUCKETS]);
        }
    }

    #[test]
    fn wear_breaks_cells_staggered_as_pulses_accumulate() {
        let model = WearModel::new(100, 4.0, 9);
        let mut limits = model.limits(0..256);
        let mut m = FaultMap::pristine();
        let mut broken = 0usize;
        let mut rounds_with_breaks = 0usize;
        for _round in 0..40 {
            let newly = m.advance_wear(&mut limits, 10);
            if !newly.is_empty() {
                rounds_with_breaks += 1;
            }
            broken += newly.len();
        }
        // 400 pulses vs limits in [25, 400): everything eventually dies…
        assert_eq!(broken, 256);
        assert_eq!(m.stuck_cells(), 256);
        // …but not all in the same round.
        assert!(rounds_with_breaks > 1, "wear-out must be staggered");
    }

    #[test]
    fn stuck_cells_accumulate_no_further_wear() {
        let model = WearModel::new(10, 1.0, 1);
        let mut limits = model.limits(0..4);
        let mut m = FaultMap::pristine();
        let newly = m.advance_wear(&mut limits, 11);
        assert_eq!(newly, vec![0, 1, 2, 3]);
        assert_eq!(m.wear_of(2), 11);
        // A second pass touches nothing: already stuck.
        assert!(m.advance_wear(&mut limits, 11).is_empty());
        assert_eq!(m.wear_of(2), 11);
    }

    #[test]
    fn wear_replays_bit_identically() {
        let model = WearModel::new(50, 2.0, 0xABCD);
        let run = || {
            let mut limits = model.limits(0..128);
            let mut m = FaultMap::pristine();
            let mut log = Vec::new();
            for _ in 0..20 {
                log.push(m.advance_wear(&mut limits, 7));
            }
            (m, log)
        };
        assert_eq!(run(), run());
    }
}

//! Shape-adaptive GEMM: SIMD microkernels, a no-pack direct path, and the
//! packed, cache-blocked BLIS-style driver.
//!
//! This module is the dense-compute core of the workspace. Every product
//! enters through [`gemm_buf`], [`gemm_nt_buf`] or [`mmv_buf`] (the
//! `_into` variants and the allocating wrappers in [`crate::tensor`] are
//! thin shells over them) and is routed by [`crate::dispatch`] to one of
//! three strategies:
//!
//! * **Direct** — no packing: register tiles accumulate straight out of
//!   the operands, read in place through row and column offsets. A
//!   row-major matrix is one case; a convolution's zero-padded input
//!   frame, read through a plan's tap and position tables
//!   (`gemm_offsets`), is another, so no im2col matrix is built. This
//!   wins on the small `m = 16–64` products the benchmark GANs issue,
//!   where packing the right operand costs more than it saves. `mmv`
//!   (`n = 1`) always takes this path.
//! * **Packed** — the classic `jc → pc → ic → ir → jr` blocked driver:
//!   columns in panels of `NC`, the reduction in panels of `KC` packed
//!   into contiguous [`NR`]-wide strips, rows in blocks of `MC` and
//!   register tiles of [`MR`], with the scalar microkernel.
//! * **Packed + SIMD** — the same driver with the explicit AVX
//!   microkernel ([`NR`] = 8 = one 256-bit register of f32 lanes),
//!   runtime-detected. The direct path uses the AVX kernel too when the
//!   host has it.
//!
//! # Bit-exactness
//!
//! Every output element of every strategy is accumulated as the scalar
//! chain `((0 + a_0·b_0) + a_1·b_1) + …` with the reduction index strictly
//! ascending — the same chain the pre-packing kernels produced. The SIMD
//! kernel preserves it because its vectors run across *output columns*:
//! lane `j` performs exactly the scalar column-`j` chain (separate IEEE-754
//! multiply and add per step, never FMA-contracted), and lanes never mix.
//! Blocking only ever stores the running value to and reloads it from
//! `f32` between panels, which is exact, and parallelism only splits
//! output *rows* across workers, so the chain per element is independent
//! of strategy, blocking, SIMD width, and thread count alike. Golden tests
//! in the workspace root pin all three strategies bit-for-bit against
//! verbatim copies of the pre-packing kernels across all benchmark GAN
//! shapes.

use crate::dispatch::{self, OpKind, Strategy};
use crate::parallel;
use crate::tensor::{Tensor, MIN_PARALLEL_FLOPS};
use crate::workspace;

/// Register-tile height: output rows accumulated at once.
pub const MR: usize = 4;
/// Register-tile width: output columns per packed strip, and the f32 lane
/// count of one AVX register.
pub const NR: usize = 8;
/// Most full column tiles the direct driver's AVX kernel runs side by side.
const WIDE: usize = 4;
/// Row-block size: output rows that stream over one packed panel.
const MC: usize = 64;
/// Reduction-panel depth: one packed `[KC × NR]` strip stays in L1.
const KC: usize = 256;
/// Column-panel width: one packed `[KC × NC]` panel stays in L2.
const NC: usize = 1024;

/// Element offsets of an operand's rows or columns: `at(i)` is where row
/// (or column) `i` starts in the operand's data. Crate-private, and
/// implemented by [`Pitch`] and [`Table`] only: the AVX kernel's unchecked
/// reads trust their `max`.
pub(crate) trait Offsets: Copy + Sync {
    /// The offset of index `i`.
    fn at(self, i: usize) -> usize;

    /// The largest offset of indices `0..len`, `len > 0`.
    fn max(self, len: usize) -> usize;
}

/// Evenly spaced offsets `i · pitch`: the rows (pitch = row length) or the
/// columns (pitch 1) of a row-major matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Pitch(pub(crate) usize);

impl Offsets for Pitch {
    #[inline(always)]
    fn at(self, i: usize) -> usize {
        i * self.0
    }

    fn max(self, len: usize) -> usize {
        (len - 1)
            .checked_mul(self.0)
            .expect("pitched offsets overflow")
    }
}

/// A table of offsets, one per index, whose largest entry is found once,
/// when it is built: an operand read through the whole table checks its
/// bounds in constant time. Offsets are stored as `u32`, half the cache
/// footprint of `usize`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Table {
    offsets: Vec<u32>,
    max: usize,
}

impl Table {
    /// The table of `offsets`.
    ///
    /// # Panics
    ///
    /// Panics if an offset exceeds `u32::MAX`.
    pub(crate) fn new(offsets: impl IntoIterator<Item = usize>) -> Self {
        let offsets: Vec<u32> = offsets
            .into_iter()
            .map(|o| u32::try_from(o).expect("table offset exceeds u32"))
            .collect();
        let max = offsets.iter().copied().max().unwrap_or(0) as usize;
        Table { offsets, max }
    }

    /// The offsets, by index.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.offsets.iter().map(|&o| o as usize)
    }

    /// Number of offsets.
    pub(crate) fn len(&self) -> usize {
        self.offsets.len()
    }
}

impl Offsets for &Table {
    #[inline(always)]
    fn at(self, i: usize) -> usize {
        self.offsets[i] as usize
    }

    fn max(self, len: usize) -> usize {
        if len == self.offsets.len() {
            self.max
        } else {
            self.offsets[..len].iter().copied().max().unwrap_or(0) as usize
        }
    }
}

/// A matrix read in place: element `(r, c)` is `data[rows.at(r) +
/// cols.at(c)]`. A row-major `[m, n]` matrix is `Pitch(n)` rows and
/// `Pitch(1)` columns ([`Operand::dense`]); a convolution reads its
/// zero-padded input frame through a table of tap offsets and a table of
/// window positions, so no im2col matrix is built.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Operand<'a, R, C> {
    /// The values the offsets index.
    pub(crate) data: &'a [f32],
    /// Offset of each row.
    pub(crate) rows: R,
    /// Offset of each column, added to the row's.
    pub(crate) cols: C,
}

impl<'a> Operand<'a, Pitch, Pitch> {
    /// The row-major matrix of `cols`-long rows held in `data`.
    pub(crate) fn dense(data: &'a [f32], cols: usize) -> Self {
        Operand {
            data,
            rows: Pitch(cols),
            cols: Pitch(1),
        }
    }
}

impl<R: Offsets, C: Offsets> Operand<'_, R, C> {
    /// Asserts that every element of the `rows × cols` matrix lies inside
    /// `data`, the bound the AVX kernel's unchecked reads rely on.
    fn check(&self, rows: usize, cols: usize, what: &str) {
        if rows == 0 || cols == 0 {
            return;
        }
        let (r, c) = (self.rows.max(rows), self.cols.max(cols));
        assert!(
            r.checked_add(c).is_some_and(|end| end < self.data.len()),
            "{what} operand reads past its data"
        );
    }
}

/// Where the `jw ≤ NR` live lanes of one column tile sit, relative to a
/// row's offset: lane `j` reads `data[row + cols.at(j0 + j)]`.
#[derive(Debug, Clone, Copy)]
enum Lanes {
    /// One contiguous run of `jw` lanes from `off` on: columns of a
    /// row-major matrix, or positions along one window row.
    Run { off: usize, jw: usize },
    /// Any other layout, lane by lane: lane `j` at `cols.at(j0 + j)`.
    Gather { j0: usize, jw: usize },
}

impl Lanes {
    #[inline]
    fn of(cols: impl Offsets, j0: usize, jw: usize) -> Lanes {
        let off = cols.at(j0);
        if (1..jw).all(|j| cols.at(j0 + j) == off + j) {
            Lanes::Run { off, jw }
        } else {
            Lanes::Gather { j0, jw }
        }
    }

    /// Every lane's offset, lane by lane.
    fn table(self, cols: impl Offsets) -> ([usize; NR], usize) {
        let mut t = [0; NR];
        let jw = match self {
            Lanes::Run { off, jw } => {
                for (j, o) in t.iter_mut().enumerate().take(jw) {
                    *o = off + j;
                }
                jw
            }
            Lanes::Gather { j0, jw } => {
                for (j, o) in t.iter_mut().enumerate().take(jw) {
                    *o = cols.at(j0 + j);
                }
                jw
            }
        };
        (t, jw)
    }

    /// One contiguous run over all [`NR`] lanes, if that is the layout.
    fn full_run(self) -> Option<usize> {
        match self {
            Lanes::Run { off, jw: NR } => Some(off),
            _ => None,
        }
    }
}

/// The accumulation-order-defining loop of the crate: one register tile.
///
/// Accumulates `acc[i][j] += A(i0 + i, al0 + l) · B(bl0 + l, lane j)` for
/// `l` ascending over `kc` reduction steps, `arows[i]` being A's row
/// offset of row `i0 + i` and `lanes` the layout of B's column tile. Both
/// operands are read in place, whatever their offsets: a packed strip, a
/// row-major matrix or a convolution's input frame.
///
/// The scalar loops are iterator-free with fixed trip counts over the
/// register tile, which LLVM unrolls and autovectorizes at the build's
/// baseline SIMD width; there is no FMA contraction (separate multiply and
/// add), so the result is the exact IEEE-754 chain the naive kernels
/// compute. The AVX twin (`x86::microkernel_avx`) computes the same chain
/// eight lanes at a time; `use_simd` (paired with runtime detection by
/// the caller) picks it.
#[allow(clippy::needless_range_loop)] // fixed-width indexed loops vectorize as written
#[allow(clippy::too_many_arguments)] // mirrors the BLIS microkernel signature
#[inline(always)]
fn microkernel<AR: Offsets, AC: Offsets, BR: Offsets, BC: Offsets>(
    acc: &mut [[f32; NR]; MR],
    mr: usize,
    a: &Operand<'_, AR, AC>,
    arows: &[usize; MR],
    al0: usize,
    b: &Operand<'_, BR, BC>,
    bl0: usize,
    lanes: Lanes,
    kc: usize,
    use_simd: bool,
) {
    #[cfg(target_arch = "x86_64")]
    if use_simd {
        // SAFETY: callers set `use_simd` only when `dispatch::simd_available`
        // confirmed AVX, and checked both operands' offsets against their
        // data (`Operand::check`, or lengths of dense operands).
        // A fixed row count keeps the accumulators in registers.
        unsafe {
            match mr {
                4 => x86::microkernel_avx::<4, _, _, _, _>(acc, a, arows, al0, b, bl0, lanes, kc),
                3 => x86::microkernel_avx::<3, _, _, _, _>(acc, a, arows, al0, b, bl0, lanes, kc),
                2 => x86::microkernel_avx::<2, _, _, _, _>(acc, a, arows, al0, b, bl0, lanes, kc),
                _ => x86::microkernel_avx::<1, _, _, _, _>(acc, a, arows, al0, b, bl0, lanes, kc),
            }
        }
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = use_simd;
    if let Some(off) = lanes.full_run() {
        for l in 0..kc {
            let r = b.rows.at(bl0 + l) + off;
            let bv = &b.data[r..r + NR];
            let ac = a.cols.at(al0 + l);
            for i in 0..mr {
                let av = a.data[arows[i] + ac];
                let row = &mut acc[i];
                for j in 0..NR {
                    row[j] += av * bv[j];
                }
            }
        }
        return;
    }
    let (off, jw) = lanes.table(b.cols);
    let mut bv = [0.0f32; NR];
    for l in 0..kc {
        let r = b.rows.at(bl0 + l);
        for j in 0..jw {
            bv[j] = b.data[r + off[j]];
        }
        let ac = a.cols.at(al0 + l);
        for i in 0..mr {
            let av = a.data[arows[i] + ac];
            let row = &mut acc[i];
            for j in 0..NR {
                row[j] += av * bv[j];
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Lanes, Offsets, Operand, MR, NR, WIDE};
    #[allow(clippy::wildcard_imports)] // the intrinsics module is designed for this
    use std::arch::x86_64::*;

    /// `MASK[8 - j..][..8]` enables lanes `0..j`.
    const MASK: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

    /// AVX twin of the scalar microkernel: one 256-bit register of eight
    /// f32 lanes per accumulator row, separate `_mm256_mul_ps` and
    /// `_mm256_add_ps` per step (never FMA), `l` strictly ascending — so
    /// lane `j`'s value is exactly the scalar kernel's column-`j` chain.
    /// A full contiguous tile is one unaligned load per step, a partial
    /// one a masked load (masked-off lanes read `+0.0`); any other layout
    /// is loaded lane by lane. Dead lanes of a partial tile are never
    /// stored.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX support at runtime, `M` must be
    /// at most [`MR`], and every element the tile reads — rows
    /// `arows[..M]` of `a` and columns `lanes` of `b`, over reduction
    /// steps `al0..al0 + kc` and `bl0..bl0 + kc` — must lie inside the
    /// operands' data.
    #[target_feature(enable = "avx")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn microkernel_avx<
        const M: usize,
        AR: Offsets,
        AC: Offsets,
        BR: Offsets,
        BC: Offsets,
    >(
        acc: &mut [[f32; NR]; MR],
        a: &Operand<'_, AR, AC>,
        arows: &[usize; MR],
        al0: usize,
        b: &Operand<'_, BR, BC>,
        bl0: usize,
        lanes: Lanes,
        kc: usize,
    ) {
        debug_assert!(M <= MR);
        let mut va = [_mm256_setzero_ps(); M];
        for (v, row) in va.iter_mut().zip(acc.iter()) {
            *v = _mm256_loadu_ps(row.as_ptr());
        }
        let ap = a.data.as_ptr();
        let bp = b.data.as_ptr();
        // One reduction step on the loaded B vector.
        macro_rules! step {
            ($l:expr, $bv:expr) => {{
                let bv = $bv;
                let ac = a.cols.at(al0 + $l);
                for (v, &r) in va.iter_mut().zip(arows.iter()) {
                    let av = _mm256_set1_ps(*ap.add(r + ac));
                    *v = _mm256_add_ps(*v, _mm256_mul_ps(av, bv));
                }
            }};
        }
        match lanes {
            Lanes::Run { off, jw: NR } => {
                for l in 0..kc {
                    step!(l, _mm256_loadu_ps(bp.add(b.rows.at(bl0 + l) + off)));
                }
            }
            Lanes::Run { off, jw } => {
                let mask = _mm256_castps_si256(_mm256_loadu_ps(MASK.as_ptr().add(NR - jw).cast()));
                let p = bp.add(off);
                for l in 0..kc {
                    step!(l, _mm256_maskload_ps(p.add(b.rows.at(bl0 + l)), mask));
                }
            }
            Lanes::Gather { .. } => {
                let (off, jw) = lanes.table(b.cols);
                if jw == NR {
                    // Lane by lane into a register: a vector load of eight
                    // scalar stores would stall on store forwarding.
                    for l in 0..kc {
                        let p = bp.add(b.rows.at(bl0 + l));
                        let v = |j: usize| *p.add(off[j]);
                        step!(
                            l,
                            _mm256_setr_ps(v(0), v(1), v(2), v(3), v(4), v(5), v(6), v(7))
                        );
                    }
                } else {
                    let mut bv = [0.0f32; NR];
                    for l in 0..kc {
                        let r = b.rows.at(bl0 + l);
                        for j in 0..jw {
                            bv[j] = *bp.add(r + off[j]);
                        }
                        step!(l, _mm256_loadu_ps(bv.as_ptr()));
                    }
                }
            }
        }
        for (row, v) in acc.iter_mut().zip(va) {
            _mm256_storeu_ps(row.as_mut_ptr(), v);
        }
    }

    /// `J` full tiles side by side, each one contiguous run starting
    /// `offs[t]` after B's row offset, accumulated from zero over the
    /// whole reduction and stored straight into `out`: row `i`, tile `t`
    /// at `out[i·ldo + t·NR..][..NR]`. One row offset and one broadcast
    /// per row serve all `J` tiles. Each lane's chain is the one
    /// `microkernel_avx` computes.
    ///
    /// # Safety
    ///
    /// As for `microkernel_avx`, with every tile's eight lanes inside
    /// `b`'s data at every reduction step, and `out` holding
    /// `(M − 1)·ldo + J·NR` values.
    #[target_feature(enable = "avx")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn microkernel_avx_wide<
        const M: usize,
        const J: usize,
        AR: Offsets,
        AC: Offsets,
        BR: Offsets,
        BC: Offsets,
    >(
        out: &mut [f32],
        ldo: usize,
        a: &Operand<'_, AR, AC>,
        arows: &[usize; MR],
        b: &Operand<'_, BR, BC>,
        offs: &[usize; WIDE],
        kc: usize,
    ) {
        debug_assert!(M <= MR && J <= WIDE);
        debug_assert!((M - 1) * ldo + J * NR <= out.len());
        let mut va = [[_mm256_setzero_ps(); M]; J];
        let (ap, bp) = (a.data.as_ptr(), b.data.as_ptr());
        for l in 0..kc {
            let r = bp.add(b.rows.at(l));
            let mut bv = [_mm256_setzero_ps(); J];
            for (v, &o) in bv.iter_mut().zip(offs) {
                *v = _mm256_loadu_ps(r.add(o));
            }
            let ac = a.cols.at(l);
            for i in 0..M {
                let av = _mm256_set1_ps(*ap.add(arows[i] + ac));
                for (vt, &bt) in va.iter_mut().zip(&bv) {
                    vt[i] = _mm256_add_ps(vt[i], _mm256_mul_ps(av, bt));
                }
            }
        }
        let op = out.as_mut_ptr();
        for (t, vt) in va.iter().enumerate() {
            for (i, &v) in vt.iter().enumerate() {
                _mm256_storeu_ps(op.add(i * ldo + t * NR), v);
            }
        }
    }
}

/// Where packed strips gather their values from.
enum PackSrc<'a> {
    /// Row-major `[k, n]` right operand (`b` of [`gemm_into`]).
    Rows(&'a [f32], usize),
    /// Row-major `[n, k]` pre-transposed right operand (`bt` of
    /// [`gemm_nt_into`]): column `j` of the product is row `j` here.
    Cols(&'a [f32], usize),
}

/// Packs the `kc × nc` panel rooted at `(pc, jc)` into `NR`-wide strips:
/// strip `s` covers product columns `jc + s·NR ..`, laid out as `kc` rows
/// of `NR` contiguous values, zero-padded past the matrix edge so the
/// microkernel never branches on the column tail. Padding lanes multiply
/// finite left-operand values by `+0.0` and are never stored, so they
/// cannot perturb any real output element.
fn pack_panel(src: &PackSrc<'_>, pc: usize, kc: usize, jc: usize, nc: usize, buf: &mut [f32]) {
    let nstrips = nc.div_ceil(NR);
    for s in 0..nstrips {
        let j0 = jc + s * NR;
        let jw = NR.min(jc + nc - j0);
        let strip = &mut buf[s * kc * NR..(s + 1) * kc * NR];
        match *src {
            PackSrc::Rows(b, n) => {
                for l in 0..kc {
                    let brow = &b[(pc + l) * n + j0..(pc + l) * n + j0 + jw];
                    let dst = &mut strip[l * NR..l * NR + NR];
                    dst[..jw].copy_from_slice(brow);
                    dst[jw..].fill(0.0);
                }
            }
            PackSrc::Cols(bt, k) => {
                for jj in 0..jw {
                    let brow = &bt[(j0 + jj) * k + pc..(j0 + jj) * k + pc + kc];
                    for (l, &v) in brow.iter().enumerate() {
                        strip[l * NR + jj] = v;
                    }
                }
                for jj in jw..NR {
                    for l in 0..kc {
                        strip[l * NR + jj] = 0.0;
                    }
                }
            }
        }
    }
}

/// Serial blocked driver over one worker's contiguous row range.
///
/// `orows` is the worker's slab of the output (`mw` full rows of width
/// `n`), `row0` its first absolute row. Each worker packs into its own
/// thread-local buffer, so no packing state is shared across threads.
#[allow(clippy::too_many_arguments)]
fn gemm_rows_packed(
    orows: &mut [f32],
    row0: usize,
    a: &[f32],
    k: usize,
    n: usize,
    src: &PackSrc<'_>,
    pack: &mut [f32],
    use_simd: bool,
) {
    let mw = orows.len() / n;
    let a = Operand::dense(a, k);
    // A packed strip row is NR contiguous lanes, zero-padded at the edge.
    let lanes = Lanes::of(Pitch(1), 0, NR);
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        let nstrips = nc.div_ceil(NR);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            let panel = &mut pack[..nstrips * kc * NR];
            pack_panel(src, pc, kc, jc, nc, panel);
            for ic in (0..mw).step_by(MC) {
                let mc = MC.min(mw - ic);
                for ir in (0..mc).step_by(MR) {
                    let i0 = ic + ir;
                    let mr = MR.min(mc - ir);
                    let arows = row_offsets(&a, row0 + i0, mr);
                    for s in 0..nstrips {
                        let j0 = jc + s * NR;
                        let jw = NR.min(jc + nc - j0);
                        let mut acc = [[0.0f32; NR]; MR];
                        for (i, row) in acc.iter_mut().enumerate().take(mr) {
                            let base = (i0 + i) * n + j0;
                            row[..jw].copy_from_slice(&orows[base..base + jw]);
                        }
                        let strip = Operand::dense(&panel[s * kc * NR..][..kc * NR], NR);
                        microkernel(&mut acc, mr, &a, &arows, pc, &strip, 0, lanes, kc, use_simd);
                        for (i, row) in acc.iter().enumerate().take(mr) {
                            let base = (i0 + i) * n + j0;
                            orows[base..base + jw].copy_from_slice(&row[..jw]);
                        }
                    }
                }
            }
        }
    }
}

/// A's row offsets of the `mr ≤ MR` rows from `i0` on.
fn row_offsets<R: Offsets, C: Offsets>(a: &Operand<'_, R, C>, i0: usize, mr: usize) -> [usize; MR] {
    let mut rows = [0; MR];
    for (i, r) in rows.iter_mut().enumerate().take(mr) {
        *r = a.rows.at(i0 + i);
    }
    rows
}

/// Serial direct (no-pack) driver over one worker's contiguous row range:
/// register tiles accumulate straight out of both operands, read in place,
/// the whole reduction held in registers. For the small shapes dispatch
/// routes here, `b` is cache-resident anyway and the packed driver's copy
/// of it is pure overhead; a convolution's operand is its input frame read
/// through offset tables, so no column matrix is built at all.
///
/// Groups of up to [`WIDE`] column tiles are the outer loop, so each
/// tile's lane layout is worked out once and the group's slice of `b`
/// stays in cache across the row blocks. With AVX, neighbouring tiles that
/// are each one contiguous run share a kernel call — two beside a block
/// of three or four rows, four beside one or two — so each reduction step
/// loads its row offset and broadcasts its left values once for all of
/// them.
fn gemm_rows_direct<AR: Offsets, AC: Offsets, BR: Offsets, BC: Offsets>(
    orows: &mut [f32],
    row0: usize,
    a: &Operand<'_, AR, AC>,
    k: usize,
    n: usize,
    b: &Operand<'_, BR, BC>,
) {
    let mw = orows.len() / n;
    let use_simd = dispatch::simd_available();
    for g0 in (0..n).step_by(WIDE * NR) {
        let tiles = (n - g0).div_ceil(NR).min(WIDE);
        let mut lanes = [Lanes::Gather { j0: g0, jw: 0 }; WIDE];
        for (t, l) in lanes.iter_mut().enumerate().take(tiles) {
            let j0 = g0 + t * NR;
            *l = Lanes::of(b.cols, j0, NR.min(n - j0));
        }
        let runs = lanes.map(Lanes::full_run);
        for i0 in (0..mw).step_by(MR) {
            let mr = MR.min(mw - i0);
            let arows = row_offsets(a, row0 + i0, mr);
            let mut t = 0;
            while t < tiles {
                let j0 = g0 + t * NR;
                let width = if mr <= 2 { WIDE } else { 2 };
                let side = runs[t..tiles]
                    .iter()
                    .take(width)
                    .take_while(|r| r.is_some())
                    .count();
                if use_simd && side >= 2 {
                    let side = if side == WIDE { WIDE } else { 2 };
                    let mut offs = [0; WIDE];
                    for (o, r) in offs.iter_mut().zip(&runs[t..t + side]) {
                        *o = r.unwrap_or(0);
                    }
                    let out = &mut orows[i0 * n + j0..(i0 + mr - 1) * n + j0 + side * NR];
                    microkernel_wide(out, n, mr, side, a, &arows, b, &offs, k);
                    t += side;
                    continue;
                }
                let jw = NR.min(n - j0);
                let mut acc = [[0.0f32; NR]; MR];
                microkernel(&mut acc, mr, a, &arows, 0, b, 0, lanes[t], k, use_simd);
                for (i, row) in acc.iter().enumerate().take(mr) {
                    let base = (i0 + i) * n + j0;
                    // A fixed-width copy is a register move, not a call.
                    if jw == NR {
                        orows[base..base + NR].copy_from_slice(row);
                    } else {
                        orows[base..base + jw].copy_from_slice(&row[..jw]);
                    }
                }
                t += 1;
            }
        }
    }
}

/// The AVX kernel over `side` (2 or [`WIDE`]) full tiles of contiguous
/// runs at `offs`, for a block of `mr` rows, written into `out` (row
/// pitch `ldo`).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn microkernel_wide<AR: Offsets, AC: Offsets, BR: Offsets, BC: Offsets>(
    out: &mut [f32],
    ldo: usize,
    mr: usize,
    side: usize,
    a: &Operand<'_, AR, AC>,
    arows: &[usize; MR],
    b: &Operand<'_, BR, BC>,
    offs: &[usize; WIDE],
    k: usize,
) {
    assert!((mr - 1) * ldo + side * NR <= out.len());
    #[cfg(target_arch = "x86_64")]
    // SAFETY: the driver calls this only when `dispatch::simd_available`
    // confirmed AVX, with full tiles of operands whose offsets
    // `gemm_offsets` checked against their data; `out` is asserted above.
    unsafe {
        use x86::microkernel_avx_wide as w;
        match (mr, side) {
            (1, WIDE) => w::<1, WIDE, _, _, _, _>(out, ldo, a, arows, b, offs, k),
            (2, WIDE) => w::<2, WIDE, _, _, _, _>(out, ldo, a, arows, b, offs, k),
            (1, _) => w::<1, 2, _, _, _, _>(out, ldo, a, arows, b, offs, k),
            (2, _) => w::<2, 2, _, _, _, _>(out, ldo, a, arows, b, offs, k),
            (3, _) => w::<3, 2, _, _, _, _>(out, ldo, a, arows, b, offs, k),
            _ => w::<4, 2, _, _, _, _>(out, ldo, a, arows, b, offs, k),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (out, ldo, mr, side, a, arows, b, offs, k);
        unreachable!("wide tiles need AVX");
    }
}

/// Direct GEMM over operands read in place: `out[m, n] = A[m, k] ×
/// B[k, n]` with `A(i, l) = a.data[a.rows.at(i) + a.cols.at(l)]` and
/// `B(l, j) = b.data[b.rows.at(l) + b.cols.at(j)]`, on the direct driver
/// whatever the forced strategy (a strategy never changes a value, and
/// only the direct driver reads an operand through offsets). Output rows
/// are split across workers. `out` is fully overwritten; every element is
/// the ascending chain of [`gemm_buf`].
///
/// # Panics
///
/// Panics if `out` is not `m · n` long or an operand reads past its data.
pub(crate) fn gemm_offsets<AR: Offsets, AC: Offsets, BR: Offsets, BC: Offsets>(
    m: usize,
    k: usize,
    n: usize,
    a: Operand<'_, AR, AC>,
    b: Operand<'_, BR, BC>,
    out: &mut [f32],
) {
    assert_eq!(out.len(), m * n, "gemm output length mismatch");
    a.check(m, k, "gemm left");
    b.check(k, n, "gemm right");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    let min_rows = (MIN_PARALLEL_FLOPS / (k * n)).max(1);
    parallel::for_each_unit_chunk_mut(out, n, min_rows, |row0, orows| {
        gemm_rows_direct(orows, row0, &a, k, n, &b);
    });
}

/// Serial direct driver for the pre-transposed right operand: each output
/// element is one contiguous ascending dot product over `a` row `i` and
/// `bt` row `j` — the exact chain, with no pack and no padding lanes.
fn gemm_nt_rows_direct(orows: &mut [f32], row0: usize, a: &[f32], k: usize, n: usize, bt: &[f32]) {
    let mw = orows.len() / n;
    for i in 0..mw {
        let arow = &a[(row0 + i) * k..(row0 + i) * k + k];
        let orow = &mut orows[i * n..(i + 1) * n];
        for (j, slot) in orow.iter_mut().enumerate() {
            let brow = &bt[j * k..j * k + k];
            *slot = arow.iter().zip(brow).map(|(&x, &y)| x * y).sum();
        }
    }
}

/// Shared parallel dispatch of the packed strategies: splits output rows
/// across workers (disjoint rows, full reduction per element —
/// bit-identical for every thread count) and runs the blocked driver on
/// each range.
fn run_packed(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    src: PackSrc<'_>,
    out: &mut [f32],
    strategy: Strategy,
) {
    debug_assert!(m > 0 && k > 0 && n > 0);
    let use_simd = strategy == Strategy::PackedSimd && dispatch::simd_available();
    let min_rows = (MIN_PARALLEL_FLOPS / (k * n)).max(1);
    let pack_len = n.min(NC).div_ceil(NR) * NR * k.min(KC);
    parallel::for_each_unit_chunk_mut(out, n, min_rows, |row0, orows| {
        workspace::with_pack_buffer(pack_len, |pack| {
            gemm_rows_packed(orows, row0, a, k, n, &src, pack, use_simd);
        });
    });
}

/// Slice-level shape-dispatched GEMM: `out[m, n] = a[m, k] × b[k, n]`,
/// all row-major.
///
/// `out` is fully overwritten (zeroed first), so stale contents of a pooled
/// buffer are fine. Degenerate shapes are well-defined: any zero dimension
/// yields an all-zero (possibly empty) output. The strategy is chosen by
/// [`dispatch::select`] from the shape alone and never affects the result.
///
/// # Panics
///
/// Panics if any slice length disagrees with its `m`/`k`/`n` dimensions.
pub fn gemm_buf(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm left operand length mismatch");
    assert_eq!(b.len(), k * n, "gemm right operand length mismatch");
    assert_eq!(out.len(), m * n, "gemm output length mismatch");
    out.fill(0.0);
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    match dispatch::select(OpKind::Gemm, m, k, n) {
        Strategy::Direct => {
            gemm_offsets(m, k, n, Operand::dense(a, k), Operand::dense(b, n), out);
        }
        s => run_packed(m, k, n, a, PackSrc::Rows(b, n), out, s),
    }
}

/// Slice-level shape-dispatched GEMM with a pre-transposed right operand:
/// `out[m, n] = a[m, k] × (bt[n, k])ᵀ`. Same conventions as [`gemm_buf`].
///
/// # Panics
///
/// Panics if any slice length disagrees with its `m`/`k`/`n` dimensions.
pub fn gemm_nt_buf(m: usize, k: usize, n: usize, a: &[f32], bt: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm_nt left operand length mismatch");
    assert_eq!(bt.len(), n * k, "gemm_nt right operand length mismatch");
    assert_eq!(out.len(), m * n, "gemm_nt output length mismatch");
    out.fill(0.0);
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    match dispatch::select(OpKind::GemmNt, m, k, n) {
        Strategy::Direct => {
            let min_rows = (MIN_PARALLEL_FLOPS / (k * n)).max(1);
            parallel::for_each_unit_chunk_mut(out, n, min_rows, |row0, orows| {
                gemm_nt_rows_direct(orows, row0, a, k, n, bt);
            });
        }
        s => run_packed(m, k, n, a, PackSrc::Cols(bt, k), out, s),
    }
}

/// Slice-level matrix-vector product: `out[rows] = mdata[rows, cols] · v`.
///
/// With one output column, packing can never amortise, so shape-based
/// selection always takes the direct path: one contiguous ascending dot
/// product per row. (A pinned packed strategy still runs the blocked
/// driver, with a one-lane register tile of up to [`MR`] rows — the
/// bit-identity suite and the `mmv` bench entry use that to prove the two
/// agree and the direct path wins.) Same conventions as [`gemm_buf`].
///
/// # Panics
///
/// Panics if any slice length disagrees with `rows`/`cols`.
pub fn mmv_buf(rows: usize, cols: usize, mdata: &[f32], v: &[f32], out: &mut [f32]) {
    assert_eq!(mdata.len(), rows * cols, "mmv matrix length mismatch");
    assert_eq!(v.len(), cols, "mmv vector length mismatch");
    assert_eq!(out.len(), rows, "mmv output length mismatch");
    out.fill(0.0);
    if rows == 0 || cols == 0 {
        return;
    }
    let min_rows = (MIN_PARALLEL_FLOPS / cols).max(1);
    match dispatch::select(OpKind::Mmv, rows, cols, 1) {
        Strategy::Direct => {
            parallel::for_each_chunk_mut(out, min_rows, |row0, chunk| {
                for (i, slot) in chunk.iter_mut().enumerate() {
                    let row = &mdata[(row0 + i) * cols..(row0 + i + 1) * cols];
                    *slot = row.iter().zip(v).map(|(&a, &b)| a * b).sum();
                }
            });
        }
        _ => {
            parallel::for_each_unit_chunk_mut(out, 1, min_rows, |row0, orows| {
                let mw = orows.len();
                for pc in (0..cols).step_by(KC) {
                    let kc = KC.min(cols - pc);
                    for i0 in (0..mw).step_by(MR) {
                        let mr = MR.min(mw - i0);
                        let abase = (row0 + i0) * cols + pc;
                        // The one-lane register tile: `mr` rows, one column.
                        let mut acc = [0.0f32; MR];
                        acc[..mr].copy_from_slice(&orows[i0..i0 + mr]);
                        for (l, &bv) in v[pc..pc + kc].iter().enumerate() {
                            for (i, slot) in acc.iter_mut().enumerate().take(mr) {
                                *slot += mdata[abase + i * cols + l] * bv;
                            }
                        }
                        orows[i0..i0 + mr].copy_from_slice(&acc[..mr]);
                    }
                }
            });
        }
    }
}

/// Shape-dispatched GEMM into a caller-owned buffer: `a` is `[m, k]`, `b`
/// is `[k, n]`, `out` receives the row-major `[m, n]` product.
///
/// # Panics
///
/// Panics if either operand is not rank-2, the inner dimensions differ, or
/// `out` is not exactly `m · n` long.
pub fn gemm_into(a: &Tensor, b: &Tensor, out: &mut [f32]) {
    assert_eq!(a.shape().len(), 2, "gemm expects rank-2 operands");
    assert_eq!(b.shape().len(), 2, "gemm expects rank-2 operands");
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (kb, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, kb, "gemm inner dimensions disagree");
    gemm_buf(m, k, n, a.data(), b.data(), out);
}

/// Shape-dispatched GEMM with pre-transposed right operand into a
/// caller-owned buffer: `a` is `[m, k]`, `bt` is `[n, k]`, `out` receives
/// `[m, n]`.
///
/// # Panics
///
/// Panics if either operand is not rank-2, the inner dimensions (the
/// *second* extent of both operands) differ, or `out` is not `m · n` long.
pub fn gemm_nt_into(a: &Tensor, bt: &Tensor, out: &mut [f32]) {
    assert_eq!(a.shape().len(), 2, "gemm_nt expects rank-2 operands");
    assert_eq!(bt.shape().len(), 2, "gemm_nt expects rank-2 operands");
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (n, kb) = (bt.shape()[0], bt.shape()[1]);
    assert_eq!(k, kb, "gemm_nt inner dimensions disagree");
    gemm_nt_buf(m, k, n, a.data(), bt.data(), out);
}

/// Matrix-vector product into a caller-owned buffer: `m` is `[rows,
/// cols]`, `out` receives the `rows` results.
///
/// # Panics
///
/// Panics if `m` is not rank-2 or either slice length mismatches.
pub fn mmv_into(m: &Tensor, v: &[f32], out: &mut [f32]) {
    assert_eq!(m.shape().len(), 2, "mmv expects a rank-2 matrix");
    let (rows, cols) = (m.shape()[0], m.shape()[1]);
    mmv_buf(rows, cols, m.data(), v, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{with_strategy, ForcedStrategy};
    use crate::parallel::with_threads;
    use crate::tensor::{gemm, gemm_nt, mmv};

    const ALL_FORCED: [ForcedStrategy; 4] = [
        ForcedStrategy::Auto,
        ForcedStrategy::Direct,
        ForcedStrategy::Packed,
        ForcedStrategy::Simd,
    ];

    fn det(shape: &[usize]) -> Tensor {
        let mut state = 0x9e3779b97f4a7c15u64;
        Tensor::from_fn(shape, |_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 40) as f64 / (1u64 << 24) as f64) as f32 - 0.5
        })
    }

    /// Reference chain: one ascending dot product per element, exactly the
    /// pre-packing kernels' order.
    fn gemm_ref(a: &Tensor, b: &Tensor) -> Vec<f32> {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for l in 0..k {
                let av = a.data()[i * k + l];
                for j in 0..n {
                    out[i * n + j] += av * b.data()[l * n + j];
                }
            }
        }
        out
    }

    #[test]
    fn every_strategy_matches_reference_chain_bitwise() {
        // Shapes straddling every blocking boundary: MR/NR tails, multiple
        // KC panels, single-element edges.
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 7, 5),
            (4, 8, 8),
            (5, 300, 17),
            (13, 520, 33),
            (64, 64, 64),
        ] {
            let a = det(&[m, k]);
            let b = det(&[k, n]);
            let r = gemm_ref(&a, &b);
            for forced in ALL_FORCED {
                for threads in [1, 2, 8] {
                    let got = with_strategy(forced, || with_threads(threads, || gemm(&a, &b)));
                    assert_eq!(
                        got.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        r.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        "gemm {m}x{k}x{n} {forced:?} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn gemm_nt_column_matches_mmv_bitwise_per_strategy() {
        // The documented contract: gemm_nt(a, bt) column j == mmv(a, bt
        // row j), bit for bit, whatever strategies the two dispatch to.
        let a = det(&[6, 37]);
        let bt = det(&[9, 37]);
        for forced in ALL_FORCED {
            let full = with_strategy(forced, || gemm_nt(&a, &bt));
            for j in 0..9 {
                let row = &bt.data()[j * 37..(j + 1) * 37];
                let col = mmv(&a, row);
                for (i, &v) in col.iter().enumerate() {
                    assert_eq!(full.data()[i * 9 + j].to_bits(), v.to_bits(), "{forced:?}");
                }
            }
        }
    }

    #[test]
    fn into_variants_overwrite_stale_contents() {
        let a = det(&[3, 5]);
        let b = det(&[5, 4]);
        let mut out = vec![f32::NAN; 12];
        gemm_into(&a, &b, &mut out);
        assert_eq!(out, gemm(&a, &b).data());
        let bt = det(&[4, 5]);
        let mut out = vec![f32::NAN; 12];
        gemm_nt_into(&a, &bt, &mut out);
        assert_eq!(out, gemm_nt(&a, &bt).data());
        let mut out = vec![f32::NAN; 3];
        mmv_into(&a, &b.data()[..5], &mut out);
        assert_eq!(out, mmv(&a, &b.data()[..5]));
    }

    #[test]
    fn degenerate_shapes_are_well_defined_per_strategy() {
        for forced in ALL_FORCED {
            with_strategy(forced, || {
                for &(m, k, n) in &[(0, 3, 4), (3, 0, 4), (3, 4, 0), (0, 0, 0), (1, 1, 1)] {
                    let a = det(&[m, k]);
                    let b = det(&[k, n]);
                    let out = gemm(&a, &b);
                    assert_eq!(out.shape(), &[m, n]);
                    if k == 0 {
                        assert!(out.data().iter().all(|&x| x == 0.0));
                    }
                    let bt = det(&[n, k]);
                    assert_eq!(gemm_nt(&a, &bt).shape(), &[m, n]);
                    let v = vec![1.0; k];
                    assert_eq!(mmv(&a, &v).len(), m);
                }
            });
        }
    }

    #[test]
    fn mmv_blocked_and_direct_agree_bitwise() {
        // The satellite contract behind `mmv` always dispatching direct:
        // the retired blocked path and the direct dot agree exactly, so
        // the change is pure speed.
        let m = det(&[37, 520]);
        let v: Vec<f32> = (0..520).map(|i| (i as f32 * 0.37).sin()).collect();
        let direct = with_strategy(ForcedStrategy::Direct, || mmv(&m, &v));
        let blocked = with_strategy(ForcedStrategy::Packed, || mmv(&m, &v));
        let auto = mmv(&m, &v);
        for ((d, b), x) in direct.iter().zip(&blocked).zip(&auto) {
            assert_eq!(d.to_bits(), b.to_bits());
            assert_eq!(d.to_bits(), x.to_bits());
        }
    }
}

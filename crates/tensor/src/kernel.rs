//! The GEMM driver: one register-tiled direct kernel that reads both
//! operands in place, with an explicit AVX microkernel.
//!
//! This module is the dense-compute core of the workspace. Every product
//! runs on one driver, `gemm_offsets`, which accumulates register tiles of
//! [`MR`] rows by [`NR`] columns straight out of its operands, read
//! through row and column offsets, the whole reduction held in registers.
//! A row-major matrix is one layout; a pre-transposed one (the right
//! operand of [`gemm_nt_buf`]) is another; a convolution's zero-padded
//! input frame, read through a plan's tap and position tables, is a third,
//! so no im2col matrix is built. [`gemm_buf`], [`gemm_nt_buf`] and
//! [`mmv_buf`] (and the `_into` variants and the allocating wrappers in
//! [`crate::tensor`], thin shells over them) are the driver on dense
//! operands. Nothing is packed: the products the benchmark GANs issue are
//! small enough (`m` of 16–64) that the right operand stays in cache.
//!
//! The tile kernel is the AVX one ([`NR`] = 8 = one 256-bit register of
//! f32 lanes) when the host has AVX, found by runtime detection, and
//! otherwise the scalar one; the unit tests run both and compare them.
//!
//! # Bit-exactness
//!
//! Every output element is accumulated as the scalar chain
//! `((0 + a_0·b_0) + a_1·b_1) + …` from `+0.0` with the reduction index
//! strictly ascending — the same chain the pre-packing kernels produced.
//! The SIMD kernel preserves it because its vectors run across *output
//! columns*: lane `j` performs exactly the scalar column-`j` chain
//! (separate IEEE-754 multiply and add per step, never FMA-contracted),
//! and lanes never mix. Parallelism only splits output *rows* across
//! workers, so the chain per element is independent of operand layout,
//! SIMD width and thread count alike. Golden tests in the workspace root
//! pin every entry point bit for bit against verbatim copies of the
//! pre-packing kernels across all benchmark GAN shapes.

use crate::parallel;
use crate::tensor::{Tensor, MIN_PARALLEL_FLOPS};
#[cfg(target_arch = "x86_64")]
use std::sync::OnceLock;

/// Register-tile height: output rows accumulated at once.
pub const MR: usize = 4;
/// Register-tile width: output columns per tile, and the f32 lane count of
/// one AVX register.
pub const NR: usize = 8;
/// Most full column tiles the AVX kernel runs side by side.
const WIDE: usize = 4;

/// Whether this host has AVX, detected once. Detection changes speed
/// only: the AVX kernel computes the scalar kernel's chain lane by lane.
pub(crate) fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVX: OnceLock<bool> = OnceLock::new();
        *AVX.get_or_init(|| std::arch::is_x86_feature_detected!("avx"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

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
/// Accumulates `acc[i][j] += A(i0 + i, l) · B(l, lane j)` for `l`
/// ascending over `kc` reduction steps, `arows[i]` being A's row offset of
/// row `i0 + i` and `lanes` the layout of B's column tile. Both operands
/// are read in place, whatever their offsets: a row-major or transposed
/// matrix, or a convolution's input frame.
///
/// The scalar loops are iterator-free with fixed trip counts over the
/// register tile, which LLVM unrolls and autovectorizes at the build's
/// baseline SIMD width; there is no FMA contraction (separate multiply and
/// add), so the result is the exact IEEE-754 chain the naive kernels
/// compute. The AVX twin (`x86::microkernel_avx`) computes the same chain
/// eight lanes at a time; `use_simd` (set only where [`simd_available`])
/// picks it.
#[allow(clippy::needless_range_loop)] // fixed-width indexed loops vectorize as written
#[allow(clippy::too_many_arguments)] // one tile's operands, rows and lane layout
#[inline(always)]
fn microkernel<AR: Offsets, AC: Offsets, BR: Offsets, BC: Offsets>(
    acc: &mut [[f32; NR]; MR],
    mr: usize,
    a: &Operand<'_, AR, AC>,
    arows: &[usize; MR],
    b: &Operand<'_, BR, BC>,
    lanes: Lanes,
    kc: usize,
    use_simd: bool,
) {
    #[cfg(target_arch = "x86_64")]
    if use_simd {
        // SAFETY: callers set `use_simd` only when `simd_available`
        // confirmed AVX, and checked both operands' offsets against their
        // data (`Operand::check`, or lengths of dense operands).
        // A fixed row count keeps the accumulators in registers.
        unsafe {
            match mr {
                4 => x86::microkernel_avx::<4, _, _, _, _>(acc, a, arows, b, lanes, kc),
                3 => x86::microkernel_avx::<3, _, _, _, _>(acc, a, arows, b, lanes, kc),
                2 => x86::microkernel_avx::<2, _, _, _, _>(acc, a, arows, b, lanes, kc),
                _ => x86::microkernel_avx::<1, _, _, _, _>(acc, a, arows, b, lanes, kc),
            }
        }
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = use_simd;
    if let Some(off) = lanes.full_run() {
        for l in 0..kc {
            let r = b.rows.at(l) + off;
            let bv = &b.data[r..r + NR];
            let ac = a.cols.at(l);
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
        let r = b.rows.at(l);
        for j in 0..jw {
            bv[j] = b.data[r + off[j]];
        }
        let ac = a.cols.at(l);
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
    /// steps `0..kc` — must lie inside the operands' data.
    #[target_feature(enable = "avx")]
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
        b: &Operand<'_, BR, BC>,
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
                let ac = a.cols.at($l);
                for (v, &r) in va.iter_mut().zip(arows.iter()) {
                    let av = _mm256_set1_ps(*ap.add(r + ac));
                    *v = _mm256_add_ps(*v, _mm256_mul_ps(av, bv));
                }
            }};
        }
        match lanes {
            Lanes::Run { off, jw: NR } => {
                for l in 0..kc {
                    step!(l, _mm256_loadu_ps(bp.add(b.rows.at(l) + off)));
                }
            }
            Lanes::Run { off, jw } => {
                let mask = _mm256_castps_si256(_mm256_loadu_ps(MASK.as_ptr().add(NR - jw).cast()));
                let p = bp.add(off);
                for l in 0..kc {
                    step!(l, _mm256_maskload_ps(p.add(b.rows.at(l)), mask));
                }
            }
            Lanes::Gather { .. } => {
                let (off, jw) = lanes.table(b.cols);
                if jw == NR {
                    // Lane by lane into a register: a vector load of eight
                    // scalar stores would stall on store forwarding.
                    for l in 0..kc {
                        let p = bp.add(b.rows.at(l));
                        let v = |j: usize| *p.add(off[j]);
                        step!(
                            l,
                            _mm256_setr_ps(v(0), v(1), v(2), v(3), v(4), v(5), v(6), v(7))
                        );
                    }
                } else {
                    let mut bv = [0.0f32; NR];
                    for l in 0..kc {
                        let r = b.rows.at(l);
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

/// A's row offsets of the `mr ≤ MR` rows from `i0` on.
fn row_offsets<R: Offsets, C: Offsets>(a: &Operand<'_, R, C>, i0: usize, mr: usize) -> [usize; MR] {
    let mut rows = [0; MR];
    for (i, r) in rows.iter_mut().enumerate().take(mr) {
        *r = a.rows.at(i0 + i);
    }
    rows
}

/// Serial driver over one worker's contiguous row range: register tiles
/// accumulate straight out of both operands, read in place, the whole
/// reduction held in registers. `use_simd` picks the AVX kernels and is
/// set only where [`simd_available`].
///
/// Groups of up to [`WIDE`] column tiles are the outer loop, so each
/// tile's lane layout is worked out once and the group's slice of `b`
/// stays in cache across the row blocks. With AVX, neighbouring tiles that
/// are each one contiguous run share a kernel call — two beside a block
/// of three or four rows, four beside one or two — so each reduction step
/// loads its row offset and broadcasts its left values once for all of
/// them.
fn gemm_rows<AR: Offsets, AC: Offsets, BR: Offsets, BC: Offsets>(
    orows: &mut [f32],
    row0: usize,
    a: &Operand<'_, AR, AC>,
    k: usize,
    n: usize,
    b: &Operand<'_, BR, BC>,
    use_simd: bool,
) {
    let mw = orows.len() / n;
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
                microkernel(&mut acc, mr, a, &arows, b, lanes[t], k, use_simd);
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
    // SAFETY: the driver calls this only when `simd_available` confirmed
    // AVX, with full tiles of operands whose offsets `gemm_with` checked
    // against their data; `out` is asserted above.
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

/// GEMM over operands read in place: `out[m, n] = A[m, k] × B[k, n]`
/// with `A(i, l) = a.data[a.rows.at(i) + a.cols.at(l)]` and `B(l, j) =
/// b.data[b.rows.at(l) + b.cols.at(j)]`. Output rows are split across
/// workers. `out` is fully overwritten; every element is the ascending
/// chain of [`gemm_buf`].
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
    gemm_with(m, k, n, a, b, out, simd_available());
}

/// [`gemm_offsets`] on the AVX kernels when `use_simd` is set and the host
/// has AVX, else on the scalar kernel: the same bits either way, which the
/// unit tests check by running both.
fn gemm_with<AR: Offsets, AC: Offsets, BR: Offsets, BC: Offsets>(
    m: usize,
    k: usize,
    n: usize,
    a: Operand<'_, AR, AC>,
    b: Operand<'_, BR, BC>,
    out: &mut [f32],
    use_simd: bool,
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
    let use_simd = use_simd && simd_available();
    let min_rows = (MIN_PARALLEL_FLOPS / (k * n)).max(1);
    parallel::for_each_unit_chunk_mut(out, n, min_rows, |row0, orows| {
        gemm_rows(orows, row0, &a, k, n, &b, use_simd);
    });
}

/// Slice-level GEMM: `out[m, n] = a[m, k] × b[k, n]`, all row-major.
///
/// `out` is fully overwritten, so stale contents of a pooled buffer are
/// fine. Degenerate shapes are well-defined: any zero dimension yields an
/// all-zero (possibly empty) output.
///
/// # Panics
///
/// Panics if any slice length disagrees with its `m`/`k`/`n` dimensions.
pub fn gemm_buf(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm left operand length mismatch");
    assert_eq!(b.len(), k * n, "gemm right operand length mismatch");
    gemm_offsets(m, k, n, Operand::dense(a, k), Operand::dense(b, n), out);
}

/// Slice-level GEMM with a pre-transposed right operand: `out[m, n] =
/// a[m, k] × (bt[n, k])ᵀ`, `bt` read in place with its rows as the
/// product's columns. Same conventions as [`gemm_buf`].
///
/// # Panics
///
/// Panics if any slice length disagrees with its `m`/`k`/`n` dimensions.
pub fn gemm_nt_buf(m: usize, k: usize, n: usize, a: &[f32], bt: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm_nt left operand length mismatch");
    assert_eq!(bt.len(), n * k, "gemm_nt right operand length mismatch");
    let bt = Operand {
        data: bt,
        rows: Pitch(1),
        cols: Pitch(k),
    };
    gemm_offsets(m, k, n, Operand::dense(a, k), bt, out);
}

/// Slice-level matrix-vector product: `out[rows] = mdata[rows, cols] · v`,
/// the `m = 1` case of [`gemm_nt_buf`] (`vᵀ` times the matrix read as its
/// transpose), so the matrix's rows fill a tile's lanes eight at a time.
/// The one output row runs on one worker. Same conventions as
/// [`gemm_buf`].
///
/// # Panics
///
/// Panics if any slice length disagrees with `rows`/`cols`.
pub fn mmv_buf(rows: usize, cols: usize, mdata: &[f32], v: &[f32], out: &mut [f32]) {
    assert_eq!(mdata.len(), rows * cols, "mmv matrix length mismatch");
    assert_eq!(v.len(), cols, "mmv vector length mismatch");
    assert_eq!(out.len(), rows, "mmv output length mismatch");
    gemm_nt_buf(1, cols, rows, v, mdata, out);
}

/// GEMM into a caller-owned buffer: `a` is `[m, k]`, `b`
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

/// GEMM with pre-transposed right operand into a
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
    use crate::parallel::with_threads;
    use crate::tensor::{gemm, gemm_nt, mmv};

    fn det(shape: &[usize]) -> Tensor {
        let mut state = 0x9e3779b97f4a7c15u64;
        Tensor::from_fn(shape, |_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 40) as f64 / (1u64 << 24) as f64) as f32 - 0.5
        })
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
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
    fn gemm_matches_reference_chain_bitwise() {
        // Shapes straddling every tile boundary: MR/NR tails, WIDE groups,
        // long reductions, single-element edges.
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
            for threads in [1, 2, 8] {
                let got = with_threads(threads, || gemm(&a, &b));
                assert_eq!(
                    bits(got.data()),
                    bits(&r),
                    "gemm {m}x{k}x{n} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn gemm_nt_column_matches_mmv_bitwise() {
        // The documented contract: gemm_nt(a, bt) column j == mmv(a, bt
        // row j), bit for bit.
        let a = det(&[6, 37]);
        let bt = det(&[9, 37]);
        let full = gemm_nt(&a, &bt);
        for j in 0..9 {
            let row = &bt.data()[j * 37..(j + 1) * 37];
            let col = mmv(&a, row);
            for (i, &v) in col.iter().enumerate() {
                assert_eq!(full.data()[i * 9 + j].to_bits(), v.to_bits());
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
    fn degenerate_shapes_are_well_defined() {
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
    }

    /// Runs `f(use_simd)` for the scalar and the AVX kernel and asserts
    /// that both write the same bits, at 1 and 2 threads.
    fn assert_kernels_agree(what: &str, f: impl Fn(bool, &mut [f32]), len: usize) {
        let run = |use_simd: bool, threads: usize| {
            let mut out = vec![f32::NAN; len];
            with_threads(threads, || f(use_simd, &mut out));
            bits(&out)
        };
        let scalar = run(false, 1);
        for threads in [1, 2] {
            assert_eq!(run(false, threads), scalar, "{what}: scalar, {threads}t");
            assert_eq!(
                run(true, threads),
                scalar,
                "{what}: avx vs scalar, {threads}t"
            );
        }
    }

    #[test]
    fn scalar_and_avx_kernels_agree_bitwise() {
        if !simd_available() {
            println!("skipped: this host has no AVX, so only the scalar kernel runs");
            return;
        }
        // The dominant GEMM of each Table V benchmark GAN as perf_snapshot
        // clamps it, the suite GANs' dense layers (forward and ∇input of
        // the generator's first and the discriminator's last layer) at
        // B = 1 and 8, and shapes around the tile edges (MR, NR, WIDE·NR).
        let mut shapes = vec![
            (25, 64, 192),
            (16, 192, 192),
            (64, 192, 192),
            (16, 64, 192),
            (49, 192, 192),
            (1, 8, 128),
            (8, 8, 128),
            (8, 16, 256),
            (8, 128, 8),
            (1, 128, 1),
            (8, 128, 1),
            (8, 1, 128),
        ];
        for m in [1, 3, 4, 5, 9] {
            for n in [1, 7, 8, 9, 31, 32, 33] {
                for k in [1, 2, 257] {
                    shapes.push((m, k, n));
                }
            }
        }
        for (m, k, n) in shapes {
            let a = det(&[m, k]);
            let b = det(&[k, n]);
            let bt = det(&[n, k]);
            let (a, b, bt) = (a.data(), b.data(), bt.data());
            assert_kernels_agree(
                &format!("gemm {m}x{k}x{n}"),
                |simd, out| {
                    gemm_with(
                        m,
                        k,
                        n,
                        Operand::dense(a, k),
                        Operand::dense(b, n),
                        out,
                        simd,
                    )
                },
                m * n,
            );
            let bt_op = Operand {
                data: bt,
                rows: Pitch(1),
                cols: Pitch(k),
            };
            assert_kernels_agree(
                &format!("gemm_nt {m}x{k}x{n}"),
                |simd, out| gemm_with(m, k, n, Operand::dense(a, k), bt_op, out, simd),
                m * n,
            );
        }
        // A convolution's frame read through offset tables: a 3×3, stride
        // 1 and stride 2 window over a zero-padded [C, 10, 10] frame, as
        // the forward (taps × positions on the right), the by-channel ∇W
        // (the frame on the left) and the by-tap ∇W (positions × taps on
        // the right, the transposed gather).
        for (c, stride, oc) in [(3, 1, 8), (2, 2, 5), (4, 1, 33)] {
            let (hp, kw) = (10, 3);
            let o = (hp - kw) / stride + 1;
            let frame = det(&[c * hp * hp]);
            let taps = Table::new(
                (0..c)
                    .flat_map(|ci| (0..kw * kw).map(move |t| ci * hp * hp + t / kw * hp + t % kw)),
            );
            let positions = Table::new((0..o * o).map(|p| p / o * stride * hp + p % o * stride));
            let (red, n) = (taps.len(), positions.len());
            let frame = frame.data();
            let w = det(&[oc, red]);
            let w = w.data();
            assert_kernels_agree(
                &format!("conv forward c={c} s={stride} oc={oc}"),
                |simd, out| {
                    let x = Operand {
                        data: frame,
                        rows: &taps,
                        cols: &positions,
                    };
                    gemm_with(oc, red, n, Operand::dense(w, red), x, out, simd);
                },
                oc * n,
            );
            let dt = det(&[n, oc]);
            let dt = dt.data();
            assert_kernels_agree(
                &format!("conv ∇W by channel c={c} s={stride} oc={oc}"),
                |simd, out| {
                    let x = Operand {
                        data: frame,
                        rows: &taps,
                        cols: &positions,
                    };
                    gemm_with(red, n, oc, x, Operand::dense(dt, oc), out, simd);
                },
                red * oc,
            );
            let dout = det(&[oc, n]);
            let dout = dout.data();
            assert_kernels_agree(
                &format!("conv ∇W by tap c={c} s={stride} oc={oc}"),
                |simd, out| {
                    let x = Operand {
                        data: frame,
                        rows: &positions,
                        cols: &taps,
                    };
                    gemm_with(oc, n, red, Operand::dense(dout, n), x, out, simd);
                },
                oc * red,
            );
        }
    }
}

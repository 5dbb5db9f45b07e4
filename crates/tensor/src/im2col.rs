//! im2col + GEMM convolution — the matrix formulation PIM mappings (and
//! GPUs) actually execute.
//!
//! `im2col` unrolls every convolution window into a matrix column; the
//! convolution then becomes one matrix-matrix product with the reshaped
//! kernels. This is the dense formulation whose zero columns ZFDR prunes,
//! so having it as a first-class reference both cross-checks the loop-nest
//! kernels and quantifies the im2col traffic the baselines pay.
//! [`TconvPhasePlan`] does that pruning for T-CONV on dense GEMMs: the
//! trainer's T-CONV path.

use crate::geometry::{SconvGeometry, TconvGeometry};
use crate::kernel::{gemm_buf, gemm_nt_buf};
use crate::tensor::Tensor;
use crate::workspace::Workspace;

/// Unrolls a padded `[C, H, W]` input into the im2col matrix
/// `[C·K·K, O·O]` for the given geometry: column `(oy·O + ox)` holds the
/// window at output position `(oy, ox)` in channel-major, then
/// row-major-kernel order. Allocating wrapper over [`im2col_into`].
///
/// # Panics
///
/// Panics if the input shape disagrees with the geometry.
pub fn im2col(input: &Tensor, geom: &SconvGeometry) -> Tensor {
    let c = input.shape()[0];
    let k = geom.kernel;
    let o = geom.output;
    let mut out = vec![0.0; c * k * k * o * o];
    im2col_into(input, geom, &mut out);
    Tensor::from_vec(&[c * k * k, o * o], out)
}

/// [`im2col`] into a caller-owned buffer of length `C·K·K · O·O`, fully
/// overwritten. Padding is resolved inline against the unpadded input (no
/// padded intermediate plane is materialised): out-of-bounds window taps
/// are written as `0.0`, producing exactly the values of the padded
/// formulation.
///
/// # Panics
///
/// Panics if the input shape disagrees with the geometry or the buffer
/// length is wrong.
pub fn im2col_into(input: &Tensor, geom: &SconvGeometry, out: &mut [f32]) {
    assert_eq!(input.shape().len(), 3, "im2col expects [C, H, W]");
    assert_eq!(input.shape()[1], geom.input, "input extent mismatch");
    assert_eq!(input.shape()[2], geom.input, "input extent mismatch");
    let c = input.shape()[0];
    let k = geom.kernel;
    let o = geom.output;
    let h = geom.input;
    let (stride, pad) = (geom.stride, geom.pad);
    assert_eq!(
        out.len(),
        c * k * k * o * o,
        "im2col buffer length mismatch"
    );
    let data = input.data();
    for ci in 0..c {
        for ky in 0..k {
            for kx in 0..k {
                let row = ci * k * k + ky * k + kx;
                let orow = &mut out[row * o * o..(row + 1) * o * o];
                for oy in 0..o {
                    let y = oy * stride + ky;
                    let dst = &mut orow[oy * o..(oy + 1) * o];
                    if y < pad || y >= pad + h {
                        dst.fill(0.0);
                        continue;
                    }
                    let irow = &data[ci * h * h + (y - pad) * h..ci * h * h + (y - pad + 1) * h];
                    for (ox, slot) in dst.iter_mut().enumerate() {
                        let x = ox * stride + kx;
                        *slot = if x < pad || x >= pad + h {
                            0.0
                        } else {
                            irow[x - pad]
                        };
                    }
                }
            }
        }
    }
}

/// Batched [`im2col_into`] over `B` concatenated `[C, H, W]` sample
/// planes: writes the `[C·K·K, B·O·O]` matrix whose column `b·O·O + p` is
/// exactly [`im2col_into`]'s column `p` for sample `b` — the per-sample
/// matrices stacked along the *column* axis.
///
/// One `[OC, C·K·K] × [C·K·K, B·O·O]` product over the stacked matrix
/// covers the whole batch with `n` multiplied by `B`. The trainer calls
/// it with `B = 1`, once per sample, to fill each sample's block of its
/// sample-major im2col cache. Work is sharded across workers by matrix
/// row; every element is a pure copy or a structural zero, so the
/// sharding cannot change any value.
///
/// Unlike the per-sample reference builders, this one takes the fast
/// paths the trainer's hot loop earns, shared with the tap-list im2col
/// behind [`TconvPhasePlan`] and the D-CONV compact im2col: stride-1
/// window rows are straight `memcpy`s, and strided rows precompute the
/// in-bounds column range so the inner loop carries no per-element
/// padding branch. Both are pure data movement — the emitted
/// values are bit-identical to [`im2col_into`]'s (pinned by the stacking
/// test).
///
/// # Panics
///
/// Panics if the slice lengths disagree with the geometry.
pub fn im2col_batch_into(
    inputs: &[f32],
    batch: usize,
    channels: usize,
    geom: &SconvGeometry,
    out: &mut [f32],
) {
    let k = geom.kernel;
    let o = geom.output;
    let h = geom.input;
    let (stride, pad) = (geom.stride, geom.pad);
    let slen = channels * h * h;
    assert_eq!(inputs.len(), batch * slen, "batch input length mismatch");
    let red = channels * k * k;
    let (oo, bo) = (o * o, batch * o * o);
    assert_eq!(out.len(), red * bo, "im2col buffer length mismatch");
    let min_rows = (crate::tensor::MIN_PARALLEL_FLOPS / bo.max(1)).max(1);
    crate::parallel::for_each_unit_chunk_mut(out, bo, min_rows, |row0, rows| {
        for (d, orow) in rows.chunks_mut(bo).enumerate() {
            let row = row0 + d;
            let ci = row / (k * k);
            let ky = (row / k) % k;
            let kx = row % k;
            let x = in_bounds(o, h, stride, kx, pad);
            for b in 0..batch {
                let plane = &inputs[b * slen + ci * h * h..b * slen + (ci + 1) * h * h];
                let brow = &mut orow[b * oo..(b + 1) * oo];
                for oy in 0..o {
                    let y = oy * stride + ky;
                    let dst = &mut brow[oy * o..(oy + 1) * o];
                    if y < pad || y >= pad + h {
                        dst.fill(0.0);
                    } else {
                        let irow = &plane[(y - pad) * h..(y - pad + 1) * h];
                        window_row(dst, irow, stride, kx, pad, x);
                    }
                }
            }
        }
    });
}

/// The windows `lo..hi` of an im2col row whose coordinate `q·stride +
/// offset` lands inside `pad..pad + h`, clamped to `0..n`; every other
/// window reads a structural zero.
fn in_bounds(n: usize, h: usize, stride: usize, offset: usize, pad: usize) -> (usize, usize) {
    let lo = pad.saturating_sub(offset).div_ceil(stride).min(n);
    let hi = if pad + h > offset {
        (pad + h - offset).div_ceil(stride).min(n)
    } else {
        0
    }
    .max(lo);
    (lo, hi)
}

/// One window row of an im2col matrix: `dst[q] = src[q·stride + offset −
/// pad]` for `q` in `lo..hi` (from [`in_bounds`], computed once per
/// matrix row), `0.0` elsewhere. The copy loop carries no per-element
/// padding branch, and a stride-1 row is one `memcpy`.
fn window_row(
    dst: &mut [f32],
    src: &[f32],
    stride: usize,
    offset: usize,
    pad: usize,
    (lo, hi): (usize, usize),
) {
    dst[..lo].fill(0.0);
    dst[hi..].fill(0.0);
    if lo == hi {
        return;
    }
    let base = lo * stride + offset - pad;
    if stride == 1 {
        dst[lo..hi].copy_from_slice(&src[base..base + hi - lo]);
    } else {
        for (i, slot) in dst[lo..hi].iter_mut().enumerate() {
            *slot = src[base + i * stride];
        }
    }
}

/// One spatial axis of [`im2col_taps_into`]: window `q` of tap `t` reads
/// the padded coordinate `q·stride + first + t·step`, where the input
/// occupies `pad..pad + input` and everything else reads `0.0`.
///
/// A plain convolution axis has taps `0..K` at step 1; a dilated one step
/// `D`; a T-CONV output phase the taps that land on real inputs, which
/// sit at consecutive input rows (step 1, stride 1).
#[derive(Debug, Clone, Copy)]
pub(crate) struct TapAxis {
    /// Input extent along this axis.
    pub input: usize,
    /// Number of windows (matrix columns along this axis).
    pub output: usize,
    /// Window stride.
    pub stride: usize,
    /// Leading zero padding of the coordinate frame.
    pub pad: usize,
    /// Number of taps (matrix rows along this axis).
    pub taps: usize,
    /// Padded coordinate of tap 0 in window 0.
    pub first: usize,
    /// Coordinate distance between consecutive taps.
    pub step: usize,
}

/// im2col over explicit tap axes: unrolls a `[C, rows.input,
/// cols.input]` slice into the `[C·rows.taps·cols.taps, rows.output ·
/// cols.output]` matrix whose row `(c, ty, tx)` and column `(qy, qx)` hold
/// the input at the coordinates [`TapAxis`] assigns, zero outside it.
/// Fully overwrites `out`; sharded across workers by matrix row (pure
/// data movement, so sharding cannot change any value).
///
/// # Panics
///
/// Panics if the slice lengths disagree with the axes.
pub(crate) fn im2col_taps_into(
    input: &[f32],
    channels: usize,
    rows: &TapAxis,
    cols: &TapAxis,
    out: &mut [f32],
) {
    let (h, w) = (rows.input, cols.input);
    assert_eq!(
        input.len(),
        channels * h * w,
        "im2col input length mismatch"
    );
    let oo = rows.output * cols.output;
    let taps = rows.taps * cols.taps;
    assert_eq!(
        out.len(),
        channels * taps * oo,
        "im2col buffer length mismatch"
    );
    let min_rows = (crate::tensor::MIN_PARALLEL_FLOPS / oo.max(1)).max(1);
    crate::parallel::for_each_unit_chunk_mut(out, oo, min_rows, |row0, chunk| {
        for (d, orow) in chunk.chunks_mut(oo).enumerate() {
            let row = row0 + d;
            let plane = &input[(row / taps) * h * w..][..h * w];
            let (ty, tx) = ((row % taps) / cols.taps, row % cols.taps);
            let x0 = cols.first + tx * cols.step;
            let x = in_bounds(cols.output, w, cols.stride, x0, cols.pad);
            for (qy, dst) in orow.chunks_mut(cols.output).enumerate() {
                let y = qy * rows.stride + rows.first + ty * rows.step;
                if y < rows.pad || y >= rows.pad + h {
                    dst.fill(0.0);
                } else {
                    let y = y - rows.pad;
                    let irow = &plane[y * w..(y + 1) * w];
                    window_row(dst, irow, cols.stride, x0, cols.pad, x);
                }
            }
        }
    });
}

/// One residue class of a T-CONV output axis: the positions `r, r + S′,
/// r + 2S′, …` and the kernel taps `k ≡ P − r (mod S′)` that land on real
/// inputs there.
#[derive(Debug)]
struct PhaseAxis {
    /// The residue `r`.
    residue: usize,
    /// The first live kernel tap; later ones follow at steps of `S′`.
    first_tap: usize,
    /// The class's im2col over the raw input: `taps` live taps, `output`
    /// positions, reading consecutive input rows.
    window: TapAxis,
}

/// Zero-free execution plan of a T-CONV: the ZFDR decomposition run as
/// dense GEMMs over the raw input.
///
/// The zero-inserted formulation convolves a plane in which only every
/// `S′`-th row and column is real. Output positions fall into `S′²`
/// *phases* by their residues `(oy mod S′, ox mod S′)`; within one phase
/// the same kernel taps land on real inputs everywhere, and those taps
/// read consecutive input rows and columns. So each phase is an ordinary
/// stride-1 im2col over the raw input and one `[OC, IC·|taps|] ×
/// [IC·|taps|, positions]` GEMM, and no inserted zero is ever stored or
/// multiplied.
///
/// Results are bit-identical to the zero-insertion oracle: every GEMM
/// accumulates `((0 + a₀b₀) + a₁b₁) + …` in ascending reduction order, a
/// phase keeps the oracle's reduction order minus the terms whose factor is
/// an inserted zero, and adding `±0` never changes an accumulator that
/// starts from `+0`. Kept in the same sense:
///
/// * [`weight_grad_into`](Self::weight_grad_into) reduces each tap over its
///   one live phase's positions, in ascending order;
/// * [`input_grad_into`](Self::input_grad_into) is the stride-`S′` S-CONV
///   of `∇out` with the flipped, transposed kernel, whose `(oc, ky′, kx′)`
///   reduction order is the oracle scatter's `(oc, oy, ox)` order.
#[derive(Debug)]
pub struct TconvPhasePlan {
    geom: TconvGeometry,
    in_channels: usize,
    out_channels: usize,
    /// The `S′` residue classes of one axis; phases pair them row × column.
    axes: Vec<PhaseAxis>,
}

impl TconvPhasePlan {
    /// Plans `geom` for `[in_channels] → [out_channels]` planes.
    pub fn new(geom: TconvGeometry, in_channels: usize, out_channels: usize) -> Self {
        let (s, k, o, p) = (
            geom.converse_stride,
            geom.kernel,
            geom.output,
            geom.insertion_pad,
        );
        let axes = (0..s)
            .map(|residue| {
                // Live taps: `residue + k − P` is a multiple of `S′`, so
                // position `residue + S′q` reads input row
                // `q + (residue + k − P)/S′`, or `q + first − P` in a frame
                // padded by `P`.
                let first_tap = (p % s + s - residue) % s;
                PhaseAxis {
                    residue,
                    first_tap,
                    window: TapAxis {
                        input: geom.input,
                        output: if residue < o {
                            (o - 1 - residue) / s + 1
                        } else {
                            0
                        },
                        stride: 1,
                        pad: p,
                        taps: if first_tap < k {
                            (k - 1 - first_tap) / s + 1
                        } else {
                            0
                        },
                        first: (residue + first_tap + p * (s - 1)) / s,
                        step: 1,
                    },
                }
            })
            .collect();
        TconvPhasePlan {
            geom,
            in_channels,
            out_channels,
            axes,
        }
    }

    /// The phases in order: row class × column class.
    fn phases(&self) -> impl Iterator<Item = (&PhaseAxis, &PhaseAxis)> {
        self.axes
            .iter()
            .flat_map(move |ry| self.axes.iter().map(move |rx| (ry, rx)))
    }

    /// Length of one sample's phase columns, every phase's `[IC·|taps|,
    /// positions]` block back to back — `IC·K²·O²/S′²` when `S′` divides
    /// `K` and `O`, a quarter of the zero-inserted matrix at `S′ = 2`.
    pub fn cols_len(&self) -> usize {
        let per_axis: usize = self
            .axes
            .iter()
            .map(|a| a.window.taps * a.window.output)
            .sum();
        self.in_channels * per_axis * per_axis
    }

    /// Gathers each phase's `[OC, IC·|taps|]` weight matrix from `[OC,
    /// IC, K, K]` `weights`, phase after phase, into `out` (`OC·IC·K²`
    /// long: every tap is live in exactly one phase).
    ///
    /// # Panics
    ///
    /// Panics on length mismatches.
    pub fn gather_weights(&self, weights: &[f32], out: &mut [f32]) {
        let k = self.geom.kernel;
        let wlen = self.out_channels * self.in_channels * k * k;
        assert_eq!(weights.len(), wlen, "weight length mismatch");
        assert_eq!(out.len(), wlen, "phase weight buffer length mismatch");
        let mut dst = out.iter_mut();
        for (ry, rx) in self.phases() {
            for pair in weights.chunks_exact(k * k) {
                for ky in self.taps(ry) {
                    for kx in self.taps(rx) {
                        *dst.next().expect("sized above") = pair[ky * k + kx];
                    }
                }
            }
        }
    }

    /// The kernel taps live in a residue class, ascending.
    fn taps(&self, axis: &PhaseAxis) -> impl Iterator<Item = usize> {
        let (first, s) = (axis.first_tap, self.geom.converse_stride);
        (0..axis.window.taps).map(move |j| first + j * s)
    }

    /// The `[IC, OC·K·K]` weight matrix of [`input_grad_into`]: the kernel
    /// transposed over channels and flipped in both spatial axes.
    ///
    /// [`input_grad_into`]: Self::input_grad_into
    ///
    /// # Panics
    ///
    /// Panics on length mismatches.
    pub fn flip_weights(&self, weights: &[f32], out: &mut [f32]) {
        let (oc, ic, kk) = (self.out_channels, self.in_channels, self.geom.kernel.pow(2));
        assert_eq!(weights.len(), oc * ic * kk, "weight length mismatch");
        assert_eq!(
            out.len(),
            weights.len(),
            "flipped weight buffer length mismatch"
        );
        for co in 0..oc {
            for ci in 0..ic {
                let src = &weights[(co * ic + ci) * kk..][..kk];
                let dst = &mut out[(ci * oc + co) * kk..][..kk];
                for (d, &v) in dst.iter_mut().zip(src.iter().rev()) {
                    *d = v;
                }
            }
        }
    }

    /// Zero-free forward of one sample: per phase, the im2col of the raw
    /// `[IC, I, I]` `input` into that phase's block of `cols` (kept for
    /// [`weight_grad_into`](Self::weight_grad_into)), one GEMM against
    /// the phase's rows of `phase_weights` (from
    /// [`gather_weights`](Self::gather_weights)), and a scatter into the
    /// `[OC, O, O]` `out`, which is fully overwritten. Scratch comes from
    /// `ws`.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches.
    pub fn forward_into(
        &self,
        input: &[f32],
        phase_weights: &[f32],
        cols: &mut [f32],
        out: &mut [f32],
        ws: &mut Workspace,
    ) {
        let (oc, ic, o) = (self.out_channels, self.in_channels, self.geom.output);
        assert_eq!(
            cols.len(),
            self.cols_len(),
            "phase column buffer length mismatch"
        );
        assert_eq!(out.len(), oc * o * o, "output length mismatch");
        let mut stage = ws.take(oc * o * o);
        let (mut c0, mut w0) = (0, 0);
        for (ry, rx) in self.phases() {
            let (red, n) = self.phase_dims(ry, rx);
            let block = &mut cols[c0..c0 + red * n];
            im2col_taps_into(input, ic, &ry.window, &rx.window, block);
            let res = &mut stage[..oc * n];
            gemm_buf(oc, red, n, &phase_weights[w0..w0 + oc * red], block, res);
            for c in 0..oc {
                let (plane, r) = (&mut out[c * o * o..][..o * o], &res[c * n..][..n]);
                self.phase_positions(ry, rx, |pos, q| plane[pos] = r[q]);
            }
            (c0, w0) = (c0 + red * n, w0 + oc * red);
        }
        ws.give(stage);
    }

    /// Reduction length and position count of one phase's GEMM.
    fn phase_dims(&self, ry: &PhaseAxis, rx: &PhaseAxis) -> (usize, usize) {
        (
            self.in_channels * ry.window.taps * rx.window.taps,
            ry.window.output * rx.window.output,
        )
    }

    /// Calls `f(pos, q)` for every output position of a phase: `pos`
    /// indexes the `O × O` plane, `q` the phase's own positions.
    fn phase_positions(&self, ry: &PhaseAxis, rx: &PhaseAxis, mut f: impl FnMut(usize, usize)) {
        let (s, o) = (self.geom.converse_stride, self.geom.output);
        let nx = rx.window.output;
        for qy in 0..ry.window.output {
            let row = (ry.residue + qy * s) * o + rx.residue;
            for qx in 0..nx {
                f(row + qx * s, qy * nx + qx);
            }
        }
    }

    /// Weight gradient of one sample, `[OC, IC, K, K]` into `grad` (fully
    /// overwritten): per phase, `gemm_nt` of the phase's gathered `[OC,
    /// positions]` slice of `∇out` against its block of the forward's
    /// `cols`, scattered to the phase's taps. Scratch comes from `ws`.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches.
    pub fn weight_grad_into(
        &self,
        dout: &[f32],
        cols: &[f32],
        grad: &mut [f32],
        ws: &mut Workspace,
    ) {
        let (oc, ic, o, k) = (
            self.out_channels,
            self.in_channels,
            self.geom.output,
            self.geom.kernel,
        );
        assert_eq!(dout.len(), oc * o * o, "∇output length mismatch");
        assert_eq!(
            cols.len(),
            self.cols_len(),
            "phase column buffer length mismatch"
        );
        assert_eq!(grad.len(), oc * ic * k * k, "gradient length mismatch");
        let mut gathered = ws.take(oc * o * o);
        let mut part = ws.take(oc * ic * k * k);
        let mut c0 = 0;
        for (ry, rx) in self.phases() {
            let (red, n) = self.phase_dims(ry, rx);
            let g = &mut gathered[..oc * n];
            for c in 0..oc {
                let (r, plane) = (&mut g[c * n..][..n], &dout[c * o * o..][..o * o]);
                self.phase_positions(ry, rx, |pos, q| r[q] = plane[pos]);
            }
            let pw = &mut part[..oc * red];
            gemm_nt_buf(oc, n, red, g, &cols[c0..c0 + red * n], pw);
            let mut src = pw.iter();
            for pair in grad.chunks_exact_mut(k * k) {
                for ky in self.taps(ry) {
                    for kx in self.taps(rx) {
                        pair[ky * k + kx] = *src.next().expect("one value per live tap");
                    }
                }
            }
            c0 += red * n;
        }
        ws.give(part);
        ws.give(gathered);
    }

    /// Input gradient of one sample, `[IC, I, I]` into `din` (fully
    /// overwritten): the stride-`S′` S-CONV of the `[OC, O, O]` `dout` with
    /// `flipped` (from [`flip_weights`](Self::flip_weights)), padded by
    /// `P′` in front. Only the first `I` windows per axis are formed, so
    /// an extra end pad (which would make the symmetric S-CONV one row
    /// longer) needs no special case. Scratch comes from `ws`.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches.
    pub fn input_grad_into(
        &self,
        dout: &[f32],
        flipped: &[f32],
        din: &mut [f32],
        ws: &mut Workspace,
    ) {
        let g = &self.geom;
        let (oc, ic, i) = (self.out_channels, self.in_channels, g.input);
        let axis = TapAxis {
            input: g.output,
            output: i,
            stride: g.converse_stride,
            pad: g.converse_pad,
            taps: g.kernel,
            first: 0,
            step: 1,
        };
        let red = oc * g.kernel * g.kernel;
        let mut cols = ws.take(red * i * i);
        im2col_taps_into(dout, oc, &axis, &axis, &mut cols);
        gemm_buf(ic, red, i * i, flipped, &cols, din);
        ws.give(cols);
    }
}

/// Reshapes `[OC, IC, K, K]` kernels into the GEMM weight matrix
/// `[OC, IC·K·K]` matching [`im2col`]'s row order.
///
/// # Panics
///
/// Panics if the weights are not rank-4.
pub fn kernels_to_matrix(weights: &Tensor) -> Tensor {
    assert_eq!(weights.shape().len(), 4, "expected [OC, IC, K, K] kernels");
    let (oc, ic, k) = (weights.shape()[0], weights.shape()[1], weights.shape()[2]);
    Tensor::from_fn(&[oc, ic * k * k], |idx| {
        let (row, col) = (idx[0], idx[1]);
        let ci = col / (k * k);
        let ky = (col / k) % k;
        let kx = col % k;
        weights[&[row, ci, ky, kx]]
    })
}

/// Matrix multiply `[m, k] × [k, n] → [m, n]` through the blocked,
/// thread-parallel [`crate::tensor::gemm`] kernel.
///
/// # Panics
///
/// Panics on inner-dimension mismatch.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(
        a.shape()[1],
        b.shape()[0],
        "inner dimensions disagree: {:?} x {:?}",
        a.shape(),
        b.shape()
    );
    crate::tensor::gemm(a, b)
}

/// Convolution through im2col + GEMM; identical to
/// [`crate::conv::Conv2d::forward`].
///
/// # Panics
///
/// Panics on operand shape mismatches.
pub fn conv2d_gemm(input: &Tensor, weights: &Tensor, geom: &SconvGeometry) -> Tensor {
    let oc = weights.shape()[0];
    let cols = im2col(input, geom);
    let w = kernels_to_matrix(weights);
    let flat = matmul(&w, &cols);
    flat.reshaped(&[oc, geom.output, geom.output])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_tensors_close;
    use crate::conv::Conv2d;

    fn det(shape: &[usize], seed: u32) -> Tensor {
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(7);
        Tensor::from_fn(shape, |_| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            ((state >> 16) as f32 / 65536.0) - 0.5
        })
    }

    #[test]
    fn batched_im2col_stacks_per_sample_columns_bitwise() {
        // Column b·O·O + p of the batched matrix must be bit-identical to
        // column p of sample b's own im2col matrix, at every worker count
        // (row sharding is pure data movement).
        let batch = 3;
        for (i, k, s, p, c) in [(8, 3, 1, 1, 2), (8, 5, 2, 2, 3), (6, 3, 3, 0, 1)] {
            let geom = SconvGeometry::new(i, k, s, p).unwrap();
            let (red, oo) = (c * k * k, geom.output * geom.output);
            let samples: Vec<Tensor> = (0..batch)
                .map(|b| det(&[c, i, i], (i + b) as u32))
                .collect();
            let mut inputs = Vec::new();
            for t in &samples {
                inputs.extend_from_slice(t.data());
            }
            for threads in [1usize, 2, 8] {
                let mut batched = vec![f32::NAN; red * batch * oo];
                crate::parallel::with_threads(threads, || {
                    im2col_batch_into(&inputs, batch, c, &geom, &mut batched);
                });
                for (b, t) in samples.iter().enumerate() {
                    let mut cols = vec![0.0; red * oo];
                    im2col_into(t, &geom, &mut cols);
                    for r in 0..red {
                        for q in 0..oo {
                            assert_eq!(
                                batched[r * batch * oo + b * oo + q].to_bits(),
                                cols[r * oo + q].to_bits(),
                                "(i={i},k={k},s={s},p={p}) sample {b} element ({r},{q}) threads={threads}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tap_im2col_with_dense_taps_is_the_reference_im2col() {
        // Taps 0..K at step 1 are the plain S-CONV window, at any worker
        // count.
        for (i, k, s, p, c) in [
            (8, 3, 1, 1, 2),
            (8, 5, 2, 2, 3),
            (6, 3, 3, 0, 1),
            (5, 4, 1, 3, 2),
        ] {
            let geom = SconvGeometry::new(i, k, s, p).unwrap();
            let input = det(&[c, i, i], 3);
            let mut want = vec![0.0; c * k * k * geom.output * geom.output];
            im2col_into(&input, &geom, &mut want);
            let axis = TapAxis {
                input: i,
                output: geom.output,
                stride: s,
                pad: p,
                taps: k,
                first: 0,
                step: 1,
            };
            for threads in [1usize, 8] {
                let mut got = vec![f32::NAN; want.len()];
                crate::parallel::with_threads(threads, || {
                    im2col_taps_into(input.data(), c, &axis, &axis, &mut got);
                });
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "(i={i},k={k},s={s},p={p}) threads={threads}"
                );
            }
        }
    }

    #[test]
    fn tconv_phase_plan_is_the_zero_insertion_tconv_bitwise() {
        // Forward, weight gradient and input gradient of one sample against
        // the zero-inserted plane's stride-1 convolution.
        use crate::conv::tconv_forward_zero_insert;
        use crate::zero_insert::expand_tconv_input;
        for (i, k, s, o) in [
            (4, 3, 2, 8),
            (4, 4, 2, 8),
            (4, 5, 2, 8),
            (3, 3, 3, 9),
            (4, 4, 1, 4),
            (3, 1, 3, 9),
        ] {
            let geom = TconvGeometry::for_target(i, k, s, o).unwrap();
            assert_eq!(geom.output, o);
            let (ic, oc) = (3, 2);
            let input = det(&[ic, i, i], 5);
            let weights = det(&[oc, ic, k, k], 6);
            let dout = det(&[oc, o, o], 7);
            let plan = TconvPhasePlan::new(geom, ic, oc);
            let mut ws = Workspace::new();
            let mut pw = vec![0.0; weights.len()];
            plan.gather_weights(weights.data(), &mut pw);
            let mut cols = vec![0.0; plan.cols_len()];
            let mut out = vec![f32::NAN; oc * o * o];
            plan.forward_into(input.data(), &pw, &mut cols, &mut out, &mut ws);
            let mut grad = vec![f32::NAN; weights.len()];
            plan.weight_grad_into(dout.data(), &cols, &mut grad, &mut ws);
            let mut flipped = vec![0.0; weights.len()];
            plan.flip_weights(weights.data(), &mut flipped);
            let mut din = vec![f32::NAN; ic * i * i];
            plan.input_grad_into(dout.data(), &flipped, &mut din, &mut ws);

            let inner = Conv2d::new(ic, oc, k, 1, 0).unwrap();
            let dex = inner.input_grad(&dout, &weights, geom.expanded());
            let (p, e) = (geom.insertion_pad, geom.expanded());
            let want_din: Vec<f32> = (0..ic * i * i)
                .map(|n| {
                    let (c, y, x) = (n / (i * i), (n / i) % i, n % i);
                    dex.data()[(c * e + p + y * s) * e + p + x * s]
                })
                .collect();
            let want_grad = inner.weight_grad(&expand_tconv_input(&input, &geom), &dout);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let name = format!("{k}k{s}s {i}->{o}");
            assert_eq!(
                bits(&out),
                bits(tconv_forward_zero_insert(&input, &weights, &geom).data()),
                "{name} forward"
            );
            assert_eq!(bits(&grad), bits(want_grad.data()), "{name} ∇W");
            assert_eq!(bits(&din), bits(&want_din), "{name} ∇input");
        }
    }

    #[test]
    fn tconv_phase_columns_drop_the_inserted_zeros() {
        // At S′ = 2 with S′ dividing K and O, the phase columns are a
        // quarter of the zero-inserted im2col matrix.
        let geom = TconvGeometry::for_upsampling(8, 4, 2).unwrap();
        let plan = TconvPhasePlan::new(geom, 3, 2);
        assert_eq!(plan.cols_len() * 4, 3 * 4 * 4 * geom.output * geom.output);
    }

    #[test]
    fn gemm_conv_equals_loop_nest() {
        for (i, k, s, p, ic, oc) in [
            (8, 3, 1, 1, 2, 3),
            (8, 5, 2, 2, 3, 4),
            (16, 4, 2, 1, 2, 2),
            (6, 3, 3, 0, 1, 1),
        ] {
            let geom = SconvGeometry::new(i, k, s, p).unwrap();
            let conv = Conv2d::new(ic, oc, k, s, p).unwrap();
            let input = det(&[ic, i, i], i as u32);
            let weights = det(&[oc, ic, k, k], k as u32);
            let a = conv.forward(&input, &weights);
            let b = conv2d_gemm(&input, &weights, &geom);
            assert_tensors_close(&a, &b, 1e-4);
        }
    }

    #[test]
    fn im2col_shape_and_content() {
        let geom = SconvGeometry::new(4, 3, 1, 0).unwrap();
        let input = Tensor::from_fn(&[1, 4, 4], |i| (i[1] * 4 + i[2]) as f32);
        let cols = im2col(&input, &geom);
        assert_eq!(cols.shape(), &[9, 4]);
        // First column = top-left window, row-major.
        let first: Vec<f32> = (0..9).map(|r| cols[&[r, 0]]).collect();
        assert_eq!(first, vec![0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 8.0, 9.0, 10.0]);
    }

    #[test]
    fn inline_padding_matches_padded_formulation() {
        // im2col_into resolves padding inline; it must reproduce the
        // materialised pad_planes formulation value-for-value.
        use crate::zero_insert::pad_planes;
        for (i, k, s, p, c) in [
            (8, 3, 1, 1, 2),
            (8, 5, 2, 2, 3),
            (16, 4, 2, 1, 2),
            (6, 3, 3, 0, 1),
        ] {
            let geom = SconvGeometry::new(i, k, s, p).unwrap();
            let input = det(&[c, i, i], 5);
            let cols = im2col(&input, &geom);
            let padded = pad_planes(&input, p);
            let o = geom.output;
            for ci in 0..c {
                for ky in 0..k {
                    for kx in 0..k {
                        let row = ci * k * k + ky * k + kx;
                        for oy in 0..o {
                            for ox in 0..o {
                                let want = padded[&[ci, oy * s + ky, ox * s + kx]];
                                let got = cols[&[row, oy * o + ox]];
                                assert_eq!(got.to_bits(), want.to_bits());
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn matmul_identity() {
        let a = det(&[3, 3], 9);
        let id = Tensor::from_fn(&[3, 3], |i| if i[0] == i[1] { 1.0 } else { 0.0 });
        assert_tensors_close(&matmul(&a, &id), &a, 1e-6);
        assert_tensors_close(&matmul(&id, &a), &a, 1e-6);
    }

    #[test]
    #[should_panic(expected = "inner dimensions disagree")]
    fn matmul_rejects_mismatch() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        let _ = matmul(&a, &b);
    }
}

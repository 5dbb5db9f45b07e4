//! im2col + GEMM convolution — the matrix formulation PIM mappings (and
//! GPUs) actually execute.
//!
//! `im2col` unrolls every convolution window into a matrix column; the
//! convolution then becomes one matrix-matrix product with the reshaped
//! kernels. This is the dense formulation whose zero columns ZFDR prunes,
//! so having it as a first-class reference both cross-checks the loop-nest
//! kernels and quantifies the im2col traffic the baselines pay.
//! [`ConvPlan`] does that pruning on dense GEMMs for every conv-family
//! layer the trainer runs — S-CONV, T-CONV and D-CONV, forward, weight
//! gradient and input gradient.

use crate::geometry::{DconvGeometry, SconvGeometry, TconvGeometry};
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
/// A plain convolution axis has taps `0..K` at step 1 and a dilated one
/// step `D`; a [`ConvPlan`] phase lists the taps that meet real inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TapAxis {
    /// Input extent along this axis.
    input: usize,
    /// Number of windows (matrix columns along this axis).
    output: usize,
    /// Window stride.
    stride: usize,
    /// Leading zero padding of the coordinate frame.
    pad: usize,
    /// Number of taps (matrix rows along this axis).
    taps: usize,
    /// Padded coordinate of tap 0 in window 0.
    first: usize,
    /// Coordinate distance between consecutive taps.
    step: usize,
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
fn im2col_taps_into(
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

/// One spatial axis of a conv-family operation: output `o`, kernel tap `j`
/// and input `x` meet where `stride·o + dilation·j = upsample·x + offset`.
///
/// An S-CONV axis is `(S, 1, 1, P)` and a D-CONV axis `(S, D, 1, P)`; a
/// T-CONV axis is the stride-1 convolution of the zero-inserted input,
/// `(1, 1, S′, P)` with `P` the insertion pad.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Relation {
    input: usize,
    output: usize,
    kernel: usize,
    stride: usize,
    dilation: usize,
    upsample: usize,
    offset: isize,
}

impl Relation {
    /// The relation of the input gradient: `∇out` is the input, `∇input`
    /// the output, and tap `j` becomes the flipped tap `K − 1 − j`.
    fn dual(self) -> Relation {
        Relation {
            input: self.output,
            output: self.input,
            stride: self.upsample,
            upsample: self.stride,
            offset: (self.dilation * (self.kernel - 1)) as isize - self.offset,
            ..self
        }
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// One output phase of an axis: the positions `residue + q·period` and
/// the kernel taps `first_tap + t·tap_step` that meet a real input there.
#[derive(Debug, PartialEq, Eq)]
struct Phase {
    residue: usize,
    first_tap: usize,
    /// The phase's im2col over the raw input: `taps` live taps, `output`
    /// positions.
    window: TapAxis,
}

/// The phases of one axis of a [`ConvPlan`].
#[derive(Debug, PartialEq, Eq)]
struct Axis {
    relation: Relation,
    /// Number of phases, and the distance between one phase's positions.
    period: usize,
    /// Kernel-index distance between one phase's live taps.
    tap_step: usize,
    phases: Vec<Phase>,
}

impl Axis {
    fn new(relation: Relation) -> Axis {
        let Relation {
            stride: s,
            dilation: d,
            upsample: u,
            offset,
            kernel: k,
            output: extent,
            ..
        } = relation;
        // Tap `j` meets a real input at position `o` iff `u` divides
        // `s·o + d·j − offset`: a condition on `o` modulo `period` that,
        // for a fixed `o`, holds for every `tap_step`-th `j`.
        let period = u / gcd(s, u);
        let tap_step = u / gcd(d, u);
        let coord = |r: usize, j: usize| (s * r + d * j) as isize - offset;
        let pad = offset.max(0) as usize;
        let phases: Vec<Phase> = (0..period)
            .map(|residue| {
                let live = (0..tap_step)
                    .find(|&j| coord(residue, j).rem_euclid(u as isize) == 0)
                    .filter(|&j| j < k);
                let first_tap = live.unwrap_or(0);
                Phase {
                    residue,
                    first_tap,
                    window: TapAxis {
                        input: relation.input,
                        output: if residue < extent {
                            (extent - 1 - residue) / period + 1
                        } else {
                            0
                        },
                        stride: s * period / u,
                        pad,
                        taps: live.map_or(0, |j| (k - 1 - j) / tap_step + 1),
                        // Window 0's tap 0 reads input row `coord / u`,
                        // at least `−pad`.
                        first: (coord(residue, first_tap) / u as isize + pad as isize) as usize,
                        step: d / gcd(d, u),
                    },
                }
            })
            .collect();
        assert_eq!(
            phases.iter().map(|p| p.window.taps).sum::<usize>(),
            k,
            "every kernel tap is live in exactly one phase"
        );
        Axis {
            relation,
            period,
            tap_step,
            phases,
        }
    }

    /// The kernel taps live in `phase`, ascending.
    fn taps(&self, phase: &Phase) -> impl Iterator<Item = usize> {
        let (first, step) = (phase.first_tap, self.tap_step);
        (0..phase.window.taps).map(move |t| first + t * step)
    }
}

/// A convolution geometry [`ConvPlan`] runs: S-CONV, T-CONV or D-CONV.
pub trait ConvGeometry {
    /// Plans `self` for `[in_channels] → [out_channels]` planes.
    fn plan(&self, in_channels: usize, out_channels: usize) -> ConvPlan;
}

impl ConvGeometry for SconvGeometry {
    fn plan(&self, in_channels: usize, out_channels: usize) -> ConvPlan {
        let axis = Relation {
            input: self.input,
            output: self.output,
            kernel: self.kernel,
            stride: self.stride,
            dilation: 1,
            upsample: 1,
            offset: self.pad as isize,
        };
        ConvPlan::new(in_channels, out_channels, axis, axis)
    }
}

impl ConvGeometry for TconvGeometry {
    fn plan(&self, in_channels: usize, out_channels: usize) -> ConvPlan {
        let axis = Relation {
            input: self.input,
            output: self.output,
            kernel: self.kernel,
            stride: 1,
            dilation: 1,
            upsample: self.converse_stride,
            offset: self.insertion_pad as isize,
        };
        ConvPlan::new(in_channels, out_channels, axis, axis)
    }
}

impl ConvGeometry for DconvGeometry {
    fn plan(&self, in_channels: usize, out_channels: usize) -> ConvPlan {
        let axis = |a: &crate::geometry::DconvAxis| Relation {
            input: a.input,
            output: a.output,
            kernel: a.kernel,
            stride: a.stride,
            dilation: a.dilation,
            upsample: 1,
            offset: a.pad as isize,
        };
        ConvPlan::new(
            in_channels,
            out_channels,
            axis(&self.rows),
            axis(&self.cols),
        )
    }
}

/// Zero-free execution plan of one conv-family operation — S-CONV, T-CONV
/// or D-CONV — as dense GEMMs over the raw input.
///
/// Each axis splits its output positions into *phases* by residue: within
/// one phase the same kernel taps meet a real input everywhere, and they
/// read evenly spaced input rows. A phase is one im2col over the raw input
/// (the crate's tap-list builder) and one `[OC, IC·|taps|] × [IC·|taps|,
/// positions]` GEMM, so no inserted zero is stored or multiplied:
///
/// * S-CONV and D-CONV have one phase per axis holding every tap (stride
///   `S`, taps `D` apart);
/// * T-CONV has `S′` phases per axis, the ZFDR decomposition of its
///   zero-inserted input.
///
/// [`dual`](Self::dual) plans the input gradient, which is the dual's
/// [`forward_into`](Self::forward_into) of `∇out` on the flipped,
/// channel-transposed kernel. An S-CONV's dual is the `S`-phase T-CONV of
/// `TconvGeometry::new(O, I, K, S, P)` (Eq. 5 is the S-CONV relation run
/// backwards); a T-CONV's dual is the one-phase stride-`S′` S-CONV; a
/// D-CONV's dual has `S` phases per axis whose live taps are `S/g` apart
/// and read `∇out` rows `D/g` apart (`g = gcd(S, D)`), so at stride 1 it
/// is its own dual.
///
/// A one-phase plan writes its GEMM straight into the output plane, and
/// when it holds every tap of an unflipped kernel its weight matrix is the
/// `[OC, IC, Kh, Kw]` tensor's own row-major layout, so nothing is
/// gathered or scattered.
///
/// Results are bit-identical to the reference kernels: every GEMM
/// accumulates `((0 + a₀b₀) + a₁b₁) + …` in ascending reduction order, a
/// phase keeps the reference's order minus terms whose factor is an
/// inserted or padding zero, and adding `±0` never changes an accumulator
/// that starts from `+0`. The forward reduces `(ic, ky↑, kx↑)` like the
/// zero-insertion GEMM. For one `∇input` element the reference scatters
/// add terms in ascending `(oc, oy, ox)` order; the dual's flipped taps
/// visit `(oc, ty↑, tx↑)`, which is the same order, and the scatters'
/// skipped `∇out == 0` terms add `±0`.
/// [`weight_grad_into`](Self::weight_grad_into) reduces each tap over its
/// one live phase's positions, in ascending order.
#[derive(Debug)]
pub struct ConvPlan {
    in_channels: usize,
    out_channels: usize,
    rows: Axis,
    cols: Axis,
    /// A dual plan reads the primal's `[in, out, Kh, Kw]` weights, flipped.
    flipped: bool,
}

impl ConvPlan {
    fn new(in_channels: usize, out_channels: usize, rows: Relation, cols: Relation) -> Self {
        ConvPlan {
            in_channels,
            out_channels,
            rows: Axis::new(rows),
            cols: Axis::new(cols),
            flipped: false,
        }
    }

    /// The plan of the input gradient: `∇out → ∇input`, reading this
    /// plan's weights flipped in both spatial axes and transposed over
    /// channels.
    pub fn dual(&self) -> ConvPlan {
        ConvPlan {
            in_channels: self.out_channels,
            out_channels: self.in_channels,
            rows: Axis::new(self.rows.relation.dual()),
            cols: Axis::new(self.cols.relation.dual()),
            flipped: !self.flipped,
        }
    }

    /// `[C, H, W]` of one input sample.
    pub fn input_shape(&self) -> [usize; 3] {
        let (r, c) = (&self.rows.relation, &self.cols.relation);
        [self.in_channels, r.input, c.input]
    }

    /// `[C, H, W]` of one output sample.
    pub fn output_shape(&self) -> [usize; 3] {
        let (r, c) = (&self.rows.relation, &self.cols.relation);
        [self.out_channels, r.output, c.output]
    }

    /// `[OC, IC, Kh, Kw]` of the weights the plan reads (a dual plan reads
    /// its primal's).
    pub fn weight_shape(&self) -> [usize; 4] {
        let (a, b) = if self.flipped {
            (self.in_channels, self.out_channels)
        } else {
            (self.out_channels, self.in_channels)
        };
        [a, b, self.rows.relation.kernel, self.cols.relation.kernel]
    }

    /// The zero-insertion GEMM the analytics count as `macs_dense`: output
    /// positions × `IC·Kh_eff·Kw_eff` reduction × output channels, with
    /// `K_eff = (K − 1)·D + 1`.
    pub fn dense_gemm(&self) -> (usize, usize, usize) {
        let [oc, oh, ow] = self.output_shape();
        let eff = |r: &Relation| (r.kernel - 1) * r.dilation + 1;
        let taps = eff(&self.rows.relation) * eff(&self.cols.relation);
        (oh * ow, self.in_channels * taps, oc)
    }

    /// Whether the plan is one phase holding every tap of an unflipped
    /// kernel: its weight matrix is the weight tensor itself.
    fn is_dense(&self) -> bool {
        !self.flipped && self.single_phase()
    }

    /// One phase per axis: its positions are the whole output plane.
    fn single_phase(&self) -> bool {
        self.rows.period == 1 && self.cols.period == 1
    }

    /// The phases in order: row phase × column phase.
    fn phases(&self) -> impl Iterator<Item = (&Phase, &Phase)> {
        self.rows
            .phases
            .iter()
            .flat_map(move |ry| self.cols.phases.iter().map(move |rx| (ry, rx)))
    }

    /// Length of one sample's phase columns, every phase's `[IC·|taps|,
    /// positions]` block back to back — `IC·K²·O²/S′²` for a T-CONV whose
    /// `S′` divides `K` and `O`, a quarter of the zero-inserted matrix at
    /// `S′ = 2`.
    pub fn cols_len(&self) -> usize {
        let per_axis = |a: &Axis| -> usize {
            a.phases
                .iter()
                .map(|p| p.window.taps * p.window.output)
                .sum()
        };
        self.in_channels * per_axis(&self.rows) * per_axis(&self.cols)
    }

    /// Calls `f(i)` with the weight index of every entry of a phase's
    /// `[out, in·|taps|]` matrix, in row-major order.
    fn phase_taps(&self, ry: &Phase, rx: &Phase, mut f: impl FnMut(usize)) {
        let (kh, kw) = (self.rows.relation.kernel, self.cols.relation.kernel);
        for a in 0..self.out_channels {
            for b in 0..self.in_channels {
                for ky in self.rows.taps(ry) {
                    for kx in self.cols.taps(rx) {
                        f(if self.flipped {
                            ((b * self.out_channels + a) * kh + kh - 1 - ky) * kw + kw - 1 - kx
                        } else {
                            ((a * self.in_channels + b) * kh + ky) * kw + kx
                        });
                    }
                }
            }
        }
    }

    /// Runs `f` on the phase weight matrices of the
    /// [`weight_shape`](Self::weight_shape) `weights`, the operand of
    /// [`forward_into`](Self::forward_into): the weights themselves when
    /// the plan is one phase holding every tap of an unflipped kernel,
    /// else each phase's `[out, in·|taps|]` matrix, phase after phase,
    /// gathered into a buffer drawn from `ws` (as long as `weights`: every
    /// tap is live in exactly one phase).
    ///
    /// # Panics
    ///
    /// Panics on length mismatches.
    pub fn with_phase_weights<R>(
        &self,
        weights: &[f32],
        ws: &mut Workspace,
        f: impl FnOnce(&[f32], &mut Workspace) -> R,
    ) -> R {
        if self.is_dense() {
            return f(weights, ws);
        }
        let mut pw = ws.take(weights.len());
        self.gather_weights(weights, &mut pw);
        let r = f(&pw, ws);
        ws.give(pw);
        r
    }

    /// Gathers each phase's `[out, in·|taps|]` weight matrix from
    /// `weights` into `out`, phase after phase.
    fn gather_weights(&self, weights: &[f32], out: &mut [f32]) {
        let wlen = self.weight_shape().iter().product();
        assert_eq!(weights.len(), wlen, "weight length mismatch");
        assert_eq!(out.len(), wlen, "phase weight buffer length mismatch");
        let mut dst = out.iter_mut();
        for (ry, rx) in self.phases() {
            self.phase_taps(ry, rx, |i| {
                *dst.next().expect("one slot per live tap") = weights[i];
            });
        }
    }

    /// Forward of one sample: per phase, the im2col of the raw `input`
    /// into that phase's block of `cols` (kept for
    /// [`weight_grad_into`](Self::weight_grad_into)) and one GEMM against
    /// the phase's rows of `phase_weights` (from
    /// [`with_phase_weights`](Self::with_phase_weights)), scattered into
    /// `out`, which is fully overwritten. A one-phase plan's GEMM writes `out` directly.
    /// Scratch comes from `ws`.
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
        let [oc, oh, ow] = self.output_shape();
        assert_eq!(
            cols.len(),
            self.cols_len(),
            "phase column buffer length mismatch"
        );
        assert_eq!(out.len(), oc * oh * ow, "output length mismatch");
        let ic = self.in_channels;
        if self.single_phase() {
            let (ry, rx) = (&self.rows.phases[0], &self.cols.phases[0]);
            let (red, n) = self.phase_dims(ry, rx);
            im2col_taps_into(input, ic, &ry.window, &rx.window, cols);
            gemm_buf(oc, red, n, phase_weights, cols, out);
            return;
        }
        let mut stage = ws.take(out.len());
        let (mut c0, mut w0) = (0, 0);
        for (ry, rx) in self.phases() {
            let (red, n) = self.phase_dims(ry, rx);
            let block = &mut cols[c0..c0 + red * n];
            im2col_taps_into(input, ic, &ry.window, &rx.window, block);
            let res = &mut stage[..oc * n];
            gemm_buf(oc, red, n, &phase_weights[w0..w0 + oc * red], block, res);
            for c in 0..oc {
                let (plane, r) = (&mut out[c * oh * ow..][..oh * ow], &res[c * n..][..n]);
                self.phase_positions(ry, rx, |pos, q| plane[pos] = r[q]);
            }
            (c0, w0) = (c0 + red * n, w0 + oc * red);
        }
        ws.give(stage);
    }

    /// Reduction length and position count of one phase's GEMM.
    fn phase_dims(&self, ry: &Phase, rx: &Phase) -> (usize, usize) {
        (
            self.in_channels * ry.window.taps * rx.window.taps,
            ry.window.output * rx.window.output,
        )
    }

    /// Calls `f(pos, q)` for every output position of a phase: `pos`
    /// indexes the output plane, `q` the phase's own positions.
    fn phase_positions(&self, ry: &Phase, rx: &Phase, mut f: impl FnMut(usize, usize)) {
        let ow = self.cols.relation.output;
        let nx = rx.window.output;
        for qy in 0..ry.window.output {
            let row = (ry.residue + qy * self.rows.period) * ow + rx.residue;
            for qx in 0..nx {
                f(row + qx * self.cols.period, qy * nx + qx);
            }
        }
    }

    /// Weight gradient of one sample into `grad` (fully overwritten, in
    /// [`weight_shape`](Self::weight_shape) layout): per phase, `gemm_nt`
    /// of the phase's `[OC, positions]` slice of `∇out` against its block
    /// of the forward's `cols`, scattered to the phase's taps. A dense plan
    /// writes `grad` with one `gemm_nt` over `∇out` as it is. Scratch
    /// comes from `ws`.
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
        let [oc, oh, ow] = self.output_shape();
        assert_eq!(dout.len(), oc * oh * ow, "∇output length mismatch");
        assert_eq!(
            cols.len(),
            self.cols_len(),
            "phase column buffer length mismatch"
        );
        assert_eq!(
            grad.len(),
            self.weight_shape().iter().product::<usize>(),
            "gradient length mismatch"
        );
        if self.is_dense() {
            let (red, n) = self.phase_dims(&self.rows.phases[0], &self.cols.phases[0]);
            gemm_nt_buf(oc, n, red, dout, cols, grad);
            return;
        }
        let mut gathered = ws.take(dout.len());
        let mut part = ws.take(grad.len());
        let mut c0 = 0;
        for (ry, rx) in self.phases() {
            let (red, n) = self.phase_dims(ry, rx);
            let g = &mut gathered[..oc * n];
            for c in 0..oc {
                let (r, plane) = (&mut g[c * n..][..n], &dout[c * oh * ow..][..oh * ow]);
                self.phase_positions(ry, rx, |pos, q| r[q] = plane[pos]);
            }
            let pw = &mut part[..oc * red];
            gemm_nt_buf(oc, n, red, g, &cols[c0..c0 + red * n], pw);
            let mut src = pw.iter();
            self.phase_taps(ry, rx, |i| {
                grad[i] = *src.next().expect("one value per live tap");
            });
            c0 += red * n;
        }
        ws.give(part);
        ws.give(gathered);
    }

    /// Forward of one [`input_shape`](Self::input_shape) sample with
    /// [`weight_shape`](Self::weight_shape) weights: the allocating form
    /// of [`forward_into`](Self::forward_into), bit for bit, for callers
    /// outside a training loop.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn forward(&self, input: &Tensor, weights: &Tensor) -> Tensor {
        assert_eq!(input.shape(), self.input_shape(), "input shape mismatch");
        assert_eq!(
            weights.shape(),
            self.weight_shape(),
            "weight shape mismatch"
        );
        let shape = self.output_shape();
        let mut out = vec![0.0; shape.iter().product()];
        let mut cols = vec![0.0; self.cols_len()];
        self.with_phase_weights(weights.data(), &mut Workspace::new(), |pw, ws| {
            self.forward_into(input.data(), pw, &mut cols, &mut out, ws);
        });
        Tensor::from_vec(&shape, out)
    }

    /// Weight gradient of one sample from its `input` and `∇out`: the
    /// allocating form of [`weight_grad_into`](Self::weight_grad_into),
    /// bit for bit. It builds the phase columns of `input` and runs no
    /// forward GEMM.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn weight_grad(&self, input: &Tensor, dout: &Tensor) -> Tensor {
        assert_eq!(input.shape(), self.input_shape(), "input shape mismatch");
        assert_eq!(dout.shape(), self.output_shape(), "∇output shape mismatch");
        let mut cols = vec![0.0; self.cols_len()];
        self.phase_columns_into(input.data(), &mut cols);
        let shape = self.weight_shape();
        let mut grad = vec![0.0; shape.iter().product()];
        self.weight_grad_into(dout.data(), &cols, &mut grad, &mut Workspace::new());
        Tensor::from_vec(&shape, grad)
    }

    /// The phase columns [`forward_into`](Self::forward_into) leaves in
    /// `cols`, without its GEMMs.
    fn phase_columns_into(&self, input: &[f32], cols: &mut [f32]) {
        let mut c0 = 0;
        for (ry, rx) in self.phases() {
            let (red, n) = self.phase_dims(ry, rx);
            let block = &mut cols[c0..c0 + red * n];
            im2col_taps_into(input, self.in_channels, &ry.window, &rx.window, block);
            c0 += red * n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::Conv2d;

    fn det(shape: &[usize], seed: u32) -> Tensor {
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(7);
        Tensor::from_fn(shape, |_| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            ((state >> 16) as f32 / 65536.0) - 0.5
        })
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

    /// Forward, weight gradient and input gradient (the dual's forward)
    /// of one sample through `plan`.
    fn run_plan(
        plan: &ConvPlan,
        input: &Tensor,
        weights: &Tensor,
        dout: &Tensor,
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let mut ws = Workspace::new();
        let step = |plan: &ConvPlan, x: &[f32], cols: &mut [f32], ws: &mut Workspace| {
            let mut out = vec![f32::NAN; plan.output_shape().iter().product()];
            plan.with_phase_weights(weights.data(), ws, |pw, ws| {
                plan.forward_into(x, pw, cols, &mut out, ws);
            });
            out
        };
        let mut cols = vec![f32::NAN; plan.cols_len()];
        let out = step(plan, input.data(), &mut cols, &mut ws);
        let mut grad = vec![f32::NAN; weights.len()];
        plan.weight_grad_into(dout.data(), &cols, &mut grad, &mut ws);
        let dual = plan.dual();
        let mut dcols = vec![f32::NAN; dual.cols_len()];
        let din = step(&dual, dout.data(), &mut dcols, &mut ws);
        // The allocating forms are the same computation.
        assert_eq!(bits(plan.forward(input, weights).data()), bits(&out));
        assert_eq!(bits(plan.weight_grad(input, dout).data()), bits(&grad));
        (out, grad, din)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn tconv_plan_is_the_zero_insertion_tconv_bitwise() {
        // Against the zero-inserted plane's stride-1 convolution.
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
            let (out, grad, din) = run_plan(&geom.plan(ic, oc), &input, &weights, &dout);

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
    fn sconv_plan_is_the_loop_nest_conv_bitwise() {
        // R > 0 (8 + 2 − 3 = 7 at stride 2) leaves the last input row
        // reached by no window.
        for (i, k, s, p) in [
            (16, 3, 2, 1),
            (8, 5, 2, 2),
            (8, 3, 2, 0),
            (6, 3, 3, 1),
            (5, 1, 1, 0),
        ] {
            let geom = SconvGeometry::new(i, k, s, p).unwrap();
            let (ic, oc) = (3, 2);
            let conv = Conv2d::new(ic, oc, k, s, p).unwrap();
            let input = det(&[ic, i, i], 5);
            let weights = det(&[oc, ic, k, k], 6);
            let dout = det(&[oc, geom.output, geom.output], 7);
            let (out, grad, din) = run_plan(&geom.plan(ic, oc), &input, &weights, &dout);
            let name = format!("{k}k{s}s{p}p {i}");
            assert_eq!(
                bits(&out),
                bits(conv.forward(&input, &weights).data()),
                "{name} forward"
            );
            assert_eq!(
                bits(&grad),
                bits(conv.weight_grad(&input, &dout).data()),
                "{name} ∇W"
            );
            assert_eq!(
                bits(&din),
                bits(conv.input_grad(&dout, &weights, i).data()),
                "{name} ∇input"
            );
        }
    }

    #[test]
    fn duals_are_the_converse_conv_family_plans() {
        // An S-CONV's dual is the T-CONV plan of Eq. 5, and a T-CONV's dual
        // is its converse S-CONV, both on the flipped kernel.
        for (i, k, s, p) in [(16, 3, 2, 1), (8, 5, 2, 2), (9, 3, 3, 0), (8, 4, 2, 1)] {
            let sconv = SconvGeometry::new(i, k, s, p).unwrap();
            let tconv = TconvGeometry::new(sconv.output, i, k, s, p).unwrap();
            let (fwd, back) = (sconv.plan(3, 2), tconv.plan(2, 3));
            let (fwd_dual, back_dual) = (fwd.dual(), back.dual());
            assert!(fwd_dual.flipped && back_dual.flipped);
            assert_eq!((&fwd_dual.rows, &fwd_dual.cols), (&back.rows, &back.cols));
            assert_eq!((&back_dual.rows, &back_dual.cols), (&fwd.rows, &fwd.cols));
            assert_eq!(fwd_dual.weight_shape(), fwd.weight_shape());
        }
        // A stride-1 same-size D-CONV is its own dual.
        let dconv = DconvGeometry::square(8, 3, 1, 2, 2).unwrap().plan(2, 2);
        let dual = dconv.dual();
        assert_eq!((&dual.rows, &dual.cols), (&dconv.rows, &dconv.cols));
    }

    #[test]
    fn tconv_phase_columns_drop_the_inserted_zeros() {
        // At S′ = 2 with S′ dividing K and O, the phase columns are a
        // quarter of the zero-inserted im2col matrix.
        let geom = TconvGeometry::for_upsampling(8, 4, 2).unwrap();
        let plan = geom.plan(3, 2);
        assert_eq!(plan.cols_len() * 4, 3 * 4 * 4 * geom.output * geom.output);
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
}

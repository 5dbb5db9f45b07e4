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
use crate::kernel::{gemm_offsets, Operand, Pitch, Table, NR};
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

/// One spatial axis of a phase's windows: window `q` of tap `t` reads the
/// frame coordinate `q·stride + first + t·step`.
///
/// A plain convolution axis has taps `0..K` at step 1 and a dilated one
/// step `D`; a [`ConvPlan`] phase lists the taps that meet real inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TapAxis {
    /// Number of windows (matrix columns along this axis).
    output: usize,
    /// Window stride.
    stride: usize,
    /// Number of taps (matrix rows along this axis).
    taps: usize,
    /// Frame coordinate of tap 0 in window 0.
    first: usize,
    /// Coordinate distance between consecutive taps.
    step: usize,
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
    /// The phase's im2col over the axis's frame: `taps` live taps,
    /// `output` positions.
    window: TapAxis,
}

/// The phases of one axis of a [`ConvPlan`], and the zero-padded frame
/// their windows read.
#[derive(Debug, PartialEq, Eq)]
struct Axis {
    relation: Relation,
    /// Number of phases, and the distance between one phase's positions.
    period: usize,
    /// Kernel-index distance between one phase's live taps.
    tap_step: usize,
    phases: Vec<Phase>,
    /// Leading zero padding of the frame: input row `y` is frame row
    /// `y + lead`.
    lead: usize,
    /// Frame extent: the whole input and every coordinate a window of any
    /// phase reads, so it can hold zeros past `lead + input` too.
    frame: usize,
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
        let live = |r: usize| {
            (0..tap_step)
                .find(|&j| coord(r, j).rem_euclid(u as isize) == 0)
                .filter(|&j| j < k)
        };
        let output = |r: usize| {
            if r < extent {
                (extent - 1 - r) / period + 1
            } else {
                0
            }
        };
        // The input row window 0's tap 0 reads, for a phase that reads any.
        let start = |r: usize| {
            live(r)
                .filter(|_| output(r) > 0)
                .map(|j| coord(r, j) / u as isize)
        };
        let lead = (0..period)
            .filter_map(start)
            .map(|y| -y)
            .max()
            .unwrap_or(0)
            .max(0);
        let phases: Vec<Phase> = (0..period)
            .map(|residue| {
                let live = live(residue);
                Phase {
                    residue,
                    first_tap: live.unwrap_or(0),
                    window: TapAxis {
                        output: output(residue),
                        stride: s * period / u,
                        taps: live.map_or(0, |j| (k - 1 - j) / tap_step + 1),
                        first: start(residue).map_or(0, |y| (y + lead) as usize),
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
        let lead = lead as usize;
        let frame = phases
            .iter()
            .map(|p| p.window)
            .filter(|w| w.taps > 0 && w.output > 0)
            .map(|w| w.first + (w.output - 1) * w.stride + (w.taps - 1) * w.step + 1)
            .fold(lead + relation.input, usize::max);
        Axis {
            relation,
            period,
            tap_step,
            phases,
            lead,
            frame,
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
/// or D-CONV — as dense GEMMs over the raw input, read in place.
///
/// Each axis splits its output positions into *phases* by residue: within
/// one phase the same kernel taps meet a real input everywhere, and they
/// read evenly spaced input rows. A phase is one `[OC, IC·|taps|] ×
/// [IC·|taps|, positions]` GEMM, so no inserted zero is stored or
/// multiplied:
///
/// * S-CONV and D-CONV have one phase per axis holding every tap (stride
///   `S`, taps `D` apart);
/// * T-CONV has `S′` phases per axis, the ZFDR decomposition of its
///   zero-inserted input.
///
/// No phase builds an im2col matrix. Each call copies its input sample
/// once into a zero-padded frame ([`frame_into`](Self::frame_into)) whose
/// rows are split by column residue modulo the window stride, so the
/// columns one window row reads are contiguous. At plan time every phase
/// stores two offset tables into that frame: the offset of each reduction
/// row `(c, ty, tx)` (its *taps*) and the offset of each window position
/// (its *positions*). Element `(l, q)` of the phase's column matrix is
/// `frame[tap[l] + position[q]]`, and the direct GEMM driver of
/// [`crate::kernel`] reads it there: a window row is one vector load (a
/// masked one for a partial tile), and an eight-lane tile that spans two
/// window rows is loaded lane by lane.
/// [`columns_into`](Self::columns_into) materialises the same matrix,
/// for tests and tools.
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
/// one live phase's positions, in ascending order, into the phase GEMMs'
/// own layout; the trainer folds the per-sample partials there and
/// [`add_weight_grad`](Self::add_weight_grad) scatters the fold once.
#[derive(Debug)]
pub struct ConvPlan {
    in_channels: usize,
    out_channels: usize,
    rows: Axis,
    cols: Axis,
    /// A dual plan reads the primal's `[in, out, Kh, Kw]` weights, flipped.
    flipped: bool,
    /// Column residues of the frame: the window stride along a row.
    split: usize,
    /// Length of one split frame row: `split` residue groups of
    /// `⌈Wp / split⌉` columns.
    pitch: usize,
    /// Each phase's offset tables, in [`phases`](Self::phases) order.
    tables: Vec<PhaseTables>,
}

/// The offset tables of one phase (row phase × column phase).
#[derive(Debug)]
struct PhaseTables {
    /// Frame offset of reduction row `(c, ty, tx)`, ascending.
    taps: Table,
    /// Frame offset of window position `(qy, qx)` relative to a tap's.
    positions: Table,
    /// Output-plane index of window position `(qy, qx)`.
    outputs: Table,
    /// Weight-tensor index of reduction row `(c, ty, tx)` for output
    /// channel 0; output channel `a` adds `a ·`
    /// [`channel_stride`](ConvPlan::channel_stride). Every index of every
    /// output channel is below the weight length, checked when the plan is
    /// built.
    weights: Vec<u32>,
}

impl ConvPlan {
    fn new(in_channels: usize, out_channels: usize, rows: Relation, cols: Relation) -> Self {
        Self::from_axes(
            in_channels,
            out_channels,
            Axis::new(rows),
            Axis::new(cols),
            false,
        )
    }

    fn from_axes(
        in_channels: usize,
        out_channels: usize,
        rows: Axis,
        cols: Axis,
        flipped: bool,
    ) -> Self {
        let split = cols.phases[0].window.stride;
        let pitch = split * cols.frame.div_ceil(split);
        let mut plan = ConvPlan {
            in_channels,
            out_channels,
            rows,
            cols,
            flipped,
            split,
            pitch,
            tables: Vec::new(),
        };
        plan.tables = plan
            .phases()
            .map(|(ry, rx)| plan.phase_tables(ry, rx))
            .collect();
        plan.check_weight_tables();
        plan
    }

    /// Checks the phases' weight tables against the weight length: one
    /// phase-weight slot per weight, and every index of every output
    /// channel below the length, the bound
    /// [`phase_weights_into`](Self::phase_weights_into)'s unchecked reads
    /// rely on.
    ///
    /// # Panics
    ///
    /// Panics if either fails.
    fn check_weight_tables(&self) {
        let wlen: usize = self.weight_shape().iter().product();
        let last = self.out_channels.saturating_sub(1) * self.channel_stride();
        let slots: usize = self.tables.iter().map(|t| t.weights.len()).sum();
        assert_eq!(slots * self.out_channels, wlen, "one slot per live tap");
        for t in &self.tables {
            let max = t.weights.iter().map(|&w| w as usize).max();
            assert!(
                max.is_none_or(|m| m + last < wlen),
                "weight index out of range"
            );
        }
    }

    /// Where frame column `x` sits in a split frame row.
    fn column(&self, x: usize) -> usize {
        (x % self.split) * (self.pitch / self.split) + x / self.split
    }

    fn phase_tables(&self, ry: &Phase, rx: &Phase) -> PhaseTables {
        let (wy, wx) = (&ry.window, &rx.window);
        let plane = self.rows.frame * self.pitch;
        let (kh, kw) = (self.rows.relation.kernel, self.cols.relation.kernel);
        let (mut taps, mut weights) = (Vec::new(), Vec::new());
        for c in 0..self.in_channels {
            for (ty, ky) in self.rows.taps(ry).enumerate() {
                for (tx, kx) in self.cols.taps(rx).enumerate() {
                    let (y, x) = (wy.first + ty * wy.step, wx.first + tx * wx.step);
                    taps.push(c * plane + y * self.pitch + self.column(x));
                    weights.push(if self.flipped {
                        ((c * self.out_channels) * kh + kh - 1 - ky) * kw + kw - 1 - kx
                    } else {
                        (c * kh + ky) * kw + kx
                    });
                }
            }
        }
        // Along a split row, window `qx` of every tap is `qx` columns on.
        let ow = self.cols.relation.output;
        let (mut positions, mut outputs) = (Vec::new(), Vec::new());
        for qy in 0..wy.output {
            let row = (ry.residue + qy * self.rows.period) * ow + rx.residue;
            for qx in 0..wx.output {
                positions.push(qy * wy.stride * self.pitch + qx);
                outputs.push(row + qx * self.cols.period);
            }
        }
        PhaseTables {
            taps: Table::new(taps),
            positions: Table::new(positions),
            outputs: Table::new(outputs),
            weights: weights
                .into_iter()
                .map(|w| u32::try_from(w).expect("weight index exceeds u32"))
                .collect(),
        }
    }

    /// The plan of the input gradient: `∇out → ∇input`, reading this
    /// plan's weights flipped in both spatial axes and transposed over
    /// channels.
    pub fn dual(&self) -> ConvPlan {
        Self::from_axes(
            self.out_channels,
            self.in_channels,
            Axis::new(self.rows.relation.dual()),
            Axis::new(self.cols.relation.dual()),
            !self.flipped,
        )
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
    /// `S′ = 2`. The GEMMs read these matrices from the frame in place;
    /// times `OC` it is the MACs they execute, and it is the length
    /// [`columns_into`](Self::columns_into) writes.
    pub fn cols_len(&self) -> usize {
        let per_axis = |a: &Axis| -> usize {
            a.phases
                .iter()
                .map(|p| p.window.taps * p.window.output)
                .sum()
        };
        self.in_channels * per_axis(&self.rows) * per_axis(&self.cols)
    }

    /// Weight-index distance between consecutive output channels of the
    /// plan: `IC·Kh·Kw`, or `Kh·Kw` for a dual plan, whose output channels
    /// are the primal's input channels.
    fn channel_stride(&self) -> usize {
        let [_, _, kh, kw] = self.weight_shape();
        if self.flipped {
            kh * kw
        } else {
            self.in_channels * kh * kw
        }
    }

    /// Gathers the phase weight matrices of the
    /// [`weight_shape`](Self::weight_shape) `weights` into `out`, the
    /// operand of [`forward_into`](Self::forward_into): each phase's `[out,
    /// in·|taps|]` matrix, phase after phase. It is as long as `weights`,
    /// since every tap is live in exactly one phase, and for a one-phase
    /// plan holding every tap of an unflipped kernel it is `weights`
    /// itself. A caller that runs many forwards on the same weights
    /// gathers once.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches.
    pub fn phase_weights_into(&self, weights: &[f32], out: &mut [f32]) {
        let wlen = self.weight_shape().iter().product();
        assert_eq!(weights.len(), wlen, "weight length mismatch");
        assert_eq!(out.len(), wlen, "phase weight buffer length mismatch");
        if self.is_dense() {
            out.copy_from_slice(weights);
            return;
        }
        let cs = self.channel_stride();
        let mut rest = out;
        for t in &self.tables {
            for a in 0..self.out_channels {
                let (row, tail) = std::mem::take(&mut rest).split_at_mut(t.weights.len());
                rest = tail;
                for (o, &w) in row.iter_mut().zip(&t.weights) {
                    // SAFETY: `check_weight_tables` bounded `a·cs + w` by
                    // the weight length, which `weights` has.
                    *o = unsafe { *weights.get_unchecked(a * cs + w as usize) };
                }
            }
        }
    }

    /// Length of one sample's zero-padded, column-split `[IC, Hp, ·]`
    /// frame ([`frame_into`](Self::frame_into)).
    pub fn frame_len(&self) -> usize {
        self.in_channels * self.rows.frame * self.pitch
    }

    /// Copies one [`input_shape`](Self::input_shape) sample into `frame`
    /// (fully overwritten), the operand every phase's GEMM reads: input
    /// `(c, y, x)` lands at frame row `y + lead_h`, frame column `x +
    /// lead_w`, and every other frame element is `0.0`. Each frame row
    /// holds its columns grouped by residue modulo the window stride, so a
    /// strided window row is contiguous too.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches.
    pub fn frame_into(&self, input: &[f32], frame: &mut [f32]) {
        let [c, h, w] = self.input_shape();
        assert_eq!(input.len(), c * h * w, "input length mismatch");
        assert_eq!(frame.len(), self.frame_len(), "frame length mismatch");
        let (s, lead) = (self.split, self.cols.lead);
        let plane = self.rows.frame * self.pitch;
        frame.fill(0.0);
        for (src, dst) in input.chunks_exact(h * w).zip(frame.chunks_exact_mut(plane)) {
            let dst = dst[self.rows.lead * self.pitch..].chunks_exact_mut(self.pitch);
            for (irow, frow) in src.chunks_exact(w).zip(dst) {
                if s == 1 {
                    frow[lead..][..w].copy_from_slice(irow);
                    continue;
                }
                if s == 2 {
                    // One pass over column pairs, which LLVM vectorizes:
                    // even input columns are one run of the split row, odd
                    // ones another, in the other residue group.
                    let (e, o) = (self.column(lead), self.column(lead + 1));
                    let (lo, hi) = frow.split_at_mut(e.max(o));
                    let (even, odd) = if e < o {
                        (&mut lo[e..], hi)
                    } else {
                        (hi, &mut lo[o..])
                    };
                    let pairs = irow.chunks_exact(2);
                    if let [last] = pairs.remainder() {
                        even[w / 2] = *last;
                    }
                    for ((p, a), b) in pairs.zip(&mut even[..w / 2]).zip(&mut odd[..w / 2]) {
                        (*a, *b) = (p[0], p[1]);
                    }
                    continue;
                }
                // Residue by residue: input columns `x0, x0 + S, …` are
                // one contiguous run of the split row.
                for x0 in 0..s.min(w) {
                    let (mut d, mut x) = (self.column(x0 + lead), x0);
                    while x < w {
                        frow[d] = irow[x];
                        (d, x) = (d + 1, x + s);
                    }
                }
            }
        }
    }

    /// Forward of one sample: the raw `input` copied into `frame` (kept
    /// for [`weight_grad_into`](Self::weight_grad_into)), then per phase
    /// one GEMM of the phase's rows of `phase_weights` (from
    /// [`phase_weights_into`](Self::phase_weights_into)) against the frame
    /// read through the phase's offset tables, scattered into `out`, which
    /// is fully overwritten. A one-phase plan's GEMM writes `out`
    /// directly. Scratch comes from `ws`.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches.
    pub fn forward_into(
        &self,
        input: &[f32],
        phase_weights: &[f32],
        frame: &mut [f32],
        out: &mut [f32],
        ws: &mut Workspace,
    ) {
        let [oc, oh, ow] = self.output_shape();
        assert_eq!(out.len(), oc * oh * ow, "output length mismatch");
        assert_eq!(
            phase_weights.len(),
            self.weight_shape().iter().product::<usize>(),
            "phase weight length mismatch"
        );
        self.frame_into(input, frame);
        let frame = &*frame;
        if self.single_phase() {
            let t = &self.tables[0];
            let (red, n) = (t.taps.len(), t.positions.len());
            gemm_offsets(
                oc,
                red,
                n,
                Operand::dense(phase_weights, red),
                t.operand(frame),
                out,
            );
            return;
        }
        let mut stage = ws.take(out.len());
        let mut w0 = 0;
        for t in &self.tables {
            let (red, n) = (t.taps.len(), t.positions.len());
            let pw = Operand::dense(&phase_weights[w0..w0 + oc * red], red);
            w0 += oc * red;
            if n == 0 {
                continue;
            }
            let res = &mut stage[..oc * n];
            gemm_offsets(oc, red, n, pw, t.operand(frame), res);
            for (plane, r) in out.chunks_exact_mut(oh * ow).zip(res.chunks_exact(n)) {
                for (pos, &v) in t.outputs.iter().zip(r) {
                    plane[pos] = v;
                }
            }
        }
        ws.give(stage);
    }

    /// Weight gradient of one sample into `part` (fully overwritten) from
    /// its `∇out` and the `frame` its forward built, in the phase GEMMs'
    /// own layout: per phase, each tap's dot product of the phase's `∇out`
    /// positions with the frame read through the phase's offset tables,
    /// positions ascending. With at least [`NR`] output channels the
    /// vector lanes run across channels (the frame is the left operand,
    /// the phase's `∇out` is transposed once, and its block is `[taps,
    /// OC]`); otherwise they run across taps (its block is `[OC, taps]`).
    /// The blocks follow each other phase by phase, as long as the weights
    /// in all. Partials of several samples fold element by element in this
    /// layout; [`add_weight_grad`](Self::add_weight_grad) then adds the
    /// result into a [`weight_shape`](Self::weight_shape) gradient. Scratch
    /// comes from `ws`.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches.
    pub fn weight_grad_into(
        &self,
        dout: &[f32],
        frame: &[f32],
        part: &mut [f32],
        ws: &mut Workspace,
    ) {
        let [oc, oh, ow] = self.output_shape();
        let ohw = oh * ow;
        assert_eq!(dout.len(), oc * ohw, "∇output length mismatch");
        assert_eq!(frame.len(), self.frame_len(), "frame length mismatch");
        assert_eq!(
            part.len(),
            self.weight_shape().iter().product::<usize>(),
            "gradient length mismatch"
        );
        let by_channel = self.grad_by_channel();
        let n_max = self
            .tables
            .iter()
            .map(|t| t.positions.len())
            .max()
            .unwrap_or(0);
        let mut douts = ws.take(if by_channel { oc * n_max } else { 0 });
        let mut blocks = &mut part[..];
        for t in &self.tables {
            let (red, n) = (t.taps.len(), t.positions.len());
            let (res, rest) = std::mem::take(&mut blocks).split_at_mut(red * oc);
            blocks = rest;
            if red == 0 {
                continue;
            }
            if by_channel {
                // Lanes across channels: ∇out transposed to
                // `[positions, OC]`, eight channels at a time so each
                // position stores one run of eight; the result `[taps, OC]`.
                let dt = &mut douts[..n * oc];
                let eights = dout.chunks_exact(NR * ohw);
                let (c0, tail) = (eights.len() * NR, eights.remainder());
                for (b, planes) in eights.enumerate() {
                    for (q, pos) in t.outputs.iter().enumerate() {
                        let v: [f32; NR] = std::array::from_fn(|j| planes[j * ohw + pos]);
                        dt[q * oc + b * NR..][..NR].copy_from_slice(&v);
                    }
                }
                for (c, plane) in tail.chunks_exact(ohw).enumerate() {
                    for (q, pos) in t.outputs.iter().enumerate() {
                        dt[q * oc + c0 + c] = plane[pos];
                    }
                }
                let x = Operand {
                    data: frame,
                    rows: &t.taps,
                    cols: &t.positions,
                };
                gemm_offsets(red, n, oc, x, Operand::dense(dt, oc), res);
            } else {
                let g = Operand {
                    data: dout,
                    rows: Pitch(ohw),
                    cols: &t.outputs,
                };
                let x = Operand {
                    data: frame,
                    rows: &t.positions,
                    cols: &t.taps,
                };
                gemm_offsets(oc, n, red, g, x, res);
            }
        }
        ws.give(douts);
    }

    /// Adds `part`, a weight gradient in the phase layout
    /// [`weight_grad_into`](Self::weight_grad_into) writes — one sample's,
    /// or several folded element by element — into `grad`, in
    /// [`weight_shape`](Self::weight_shape) layout: `grad[i] += part[j]`
    /// for the one `j` that holds weight `i`.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches.
    pub fn add_weight_grad(&self, part: &[f32], grad: &mut [f32]) {
        let wlen = self.weight_shape().iter().product::<usize>();
        assert_eq!(part.len(), wlen, "partial gradient length mismatch");
        assert_eq!(grad.len(), wlen, "gradient length mismatch");
        let (oc, by_channel) = (self.out_channels, self.grad_by_channel());
        let cs = self.channel_stride();
        let mut blocks = part;
        for t in &self.tables {
            let red = t.taps.len();
            let (block, rest) = blocks.split_at(red * oc);
            blocks = rest;
            if red == 0 {
                continue;
            }
            if by_channel {
                for (row, &w) in block.chunks_exact(oc).zip(&t.weights) {
                    for (c, &v) in row.iter().enumerate() {
                        grad[c * cs + w as usize] += v;
                    }
                }
            } else {
                for (c, row) in block.chunks_exact(red).enumerate() {
                    for (&w, &v) in t.weights.iter().zip(row) {
                        grad[c * cs + w as usize] += v;
                    }
                }
            }
        }
    }

    /// Whether [`weight_grad_into`](Self::weight_grad_into) runs its
    /// vector lanes across output channels rather than taps.
    fn grad_by_channel(&self) -> bool {
        self.out_channels >= NR
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
        let mut frame = vec![0.0; self.frame_len()];
        let mut gathered = Vec::new();
        let pw = if self.is_dense() {
            weights.data()
        } else {
            gathered.resize(weights.len(), 0.0);
            self.phase_weights_into(weights.data(), &mut gathered);
            &gathered
        };
        self.forward_into(
            input.data(),
            pw,
            &mut frame,
            &mut out,
            &mut Workspace::new(),
        );
        Tensor::from_vec(&shape, out)
    }

    /// Weight gradient of one sample from its `input` and `∇out`: the
    /// allocating form of [`weight_grad_into`](Self::weight_grad_into),
    /// bit for bit. It builds the frame of `input` and runs no forward
    /// GEMM.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn weight_grad(&self, input: &Tensor, dout: &Tensor) -> Tensor {
        assert_eq!(input.shape(), self.input_shape(), "input shape mismatch");
        assert_eq!(dout.shape(), self.output_shape(), "∇output shape mismatch");
        let mut frame = vec![0.0; self.frame_len()];
        self.frame_into(input.data(), &mut frame);
        let shape = self.weight_shape();
        let mut part = vec![0.0; shape.iter().product()];
        self.weight_grad_into(dout.data(), &frame, &mut part, &mut Workspace::new());
        // A chain from `+0.0` never ends at `-0.0`, so adding it to zeros
        // keeps every bit.
        let mut grad = vec![0.0; part.len()];
        self.add_weight_grad(&part, &mut grad);
        Tensor::from_vec(&shape, grad)
    }

    /// The phase column matrices the GEMMs read in place, materialised
    /// into `cols` ([`cols_len`](Self::cols_len) long, fully overwritten):
    /// each phase's `[IC·|taps|, positions]` block, phase after phase,
    /// read from the same frame through the same offset tables. No
    /// training path calls it; it shows what the kernels multiply.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches.
    pub fn columns_into(&self, input: &[f32], cols: &mut [f32]) {
        assert_eq!(cols.len(), self.cols_len(), "column buffer length mismatch");
        let mut frame = vec![0.0; self.frame_len()];
        self.frame_into(input, &mut frame);
        let mut dst = cols.iter_mut();
        for t in &self.tables {
            for tap in t.taps.iter() {
                for pos in t.positions.iter() {
                    *dst.next().expect("one slot per column entry") = frame[tap + pos];
                }
            }
        }
    }
}

impl PhaseTables {
    /// The phase's `[IC·|taps|, positions]` column matrix, read in place
    /// from `frame`.
    fn operand<'a>(&'a self, frame: &'a [f32]) -> Operand<'a, &'a Table, &'a Table> {
        Operand {
            data: frame,
            rows: &self.taps,
            cols: &self.positions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::Conv2d;
    use crate::geometry::DconvAxis;
    use crate::kernel::Lanes;

    fn det(shape: &[usize], seed: u32) -> Tensor {
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(7);
        Tensor::from_fn(shape, |_| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            ((state >> 16) as f32 / 65536.0) - 0.5
        })
    }

    #[test]
    fn sconv_columns_are_the_reference_im2col() {
        // One phase holding every tap, read through the offset tables of
        // the column-split frame, is the plain S-CONV window matrix.
        for (i, k, s, p, c) in [
            (8, 3, 1, 1, 2),
            (8, 5, 2, 2, 3),
            (6, 3, 3, 0, 1),
            (5, 4, 1, 3, 2),
            (9, 3, 2, 1, 2),
        ] {
            let geom = SconvGeometry::new(i, k, s, p).unwrap();
            let input = det(&[c, i, i], 3);
            let mut want = vec![0.0; c * k * k * geom.output * geom.output];
            im2col_into(&input, &geom, &mut want);
            let plan = geom.plan(c, 1);
            assert_eq!(plan.split, s, "the frame is split by the window stride");
            let mut got = vec![f32::NAN; plan.cols_len()];
            plan.columns_into(input.data(), &mut got);
            assert_eq!(bits(&got), bits(&want), "(i={i},k={k},s={s},p={p})");
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
        let step = |plan: &ConvPlan, x: &[f32], frame: &mut [f32], ws: &mut Workspace| {
            let mut out = vec![f32::NAN; plan.output_shape().iter().product()];
            let mut pw = vec![f32::NAN; weights.len()];
            plan.phase_weights_into(weights.data(), &mut pw);
            plan.forward_into(x, &pw, frame, &mut out, ws);
            out
        };
        let mut frame = vec![f32::NAN; plan.frame_len()];
        let out = step(plan, input.data(), &mut frame, &mut ws);
        let mut part = vec![f32::NAN; weights.len()];
        plan.weight_grad_into(dout.data(), &frame, &mut part, &mut ws);
        let mut grad = vec![0.0; weights.len()];
        plan.add_weight_grad(&part, &mut grad);
        let dual = plan.dual();
        let mut dframe = vec![f32::NAN; dual.frame_len()];
        let din = step(&dual, dout.data(), &mut dframe, &mut ws);
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
    fn table_gather_matches_the_nested_loop() {
        // The gather as a loop nest over phases, output channels and live
        // taps, reading the weights through the per-phase tap tables.
        fn nested(plan: &ConvPlan, weights: &[f32]) -> Vec<f32> {
            let cs = plan.channel_stride();
            let mut out = Vec::new();
            for t in &plan.tables {
                for a in 0..plan.out_channels {
                    for &w in &t.weights {
                        out.push(weights[a * cs + w as usize]);
                    }
                }
            }
            out
        }
        let sconv = SconvGeometry::new(8, 3, 2, 1).unwrap();
        let tconv = TconvGeometry::for_upsampling(4, 3, 2).unwrap();
        let tconv3 = TconvGeometry::for_upsampling(5, 5, 3).unwrap();
        let dconv = DconvGeometry::square(8, 3, 2, 2, 2).unwrap();
        let geoms: [&dyn ConvGeometry; 4] = [&sconv, &tconv, &tconv3, &dconv];
        for geom in geoms {
            for (ic, oc) in [(1, 1), (3, 2), (16, 16)] {
                for plan in [geom.plan(ic, oc), geom.plan(oc, ic).dual()] {
                    let weights = det(&plan.weight_shape(), 7);
                    let mut out = vec![f32::NAN; weights.len()];
                    plan.phase_weights_into(weights.data(), &mut out);
                    assert_eq!(bits(&out), bits(&nested(&plan, weights.data())));
                }
            }
        }
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
    fn frame_into_matches_an_element_by_element_frame() {
        // Window strides 1, 2 and 3 split the frame rows; odd and even
        // widths leave the pair pass of stride 2 a tail or none; the pad is
        // the frame's lead in both axes.
        for s in 1..=3 {
            for w in [5, 6, 7, 8] {
                for p in 0..=2 {
                    let geom = SconvGeometry::new(w, 3, s, p).unwrap();
                    let c = 2;
                    let plan = geom.plan(c, 1);
                    assert_eq!((plan.split, plan.rows.lead, plan.cols.lead), (s, p, p));
                    let input = det(&[c, w, w], 9);
                    let mut got = vec![f32::NAN; plan.frame_len()];
                    plan.frame_into(input.data(), &mut got);
                    // Frame column `x` sits at `(x % S)·(pitch / S) + x / S`.
                    let (pitch, plane) = (plan.pitch, plan.rows.frame * plan.pitch);
                    let mut want = vec![0.0f32; plan.frame_len()];
                    for ci in 0..c {
                        for y in 0..w {
                            for x in 0..w {
                                let fx = x + p;
                                let col = (fx % s) * (pitch / s) + fx / s;
                                want[ci * plane + (y + p) * pitch + col] = input[&[ci, y, x]];
                            }
                        }
                    }
                    assert_eq!(bits(&got), bits(&want), "s={s} w={w} p={p}");
                }
            }
        }
    }

    /// Asserts that every table of `plan` and its dual planned its tiles
    /// as the layouts a fresh scan of the offsets finds; returns the
    /// plan's phases of 4 × 4 window positions.
    fn check_planned_tiles(plan: &ConvPlan) -> Vec<&PhaseTables> {
        for p in [plan, &plan.dual()] {
            for t in &p.tables {
                for table in [&t.positions, &t.taps, &t.outputs] {
                    let n = table.len();
                    let scan: Vec<_> = (0..n)
                        .step_by(NR)
                        .map(|j0| Lanes::of(table, j0, NR.min(n - j0)))
                        .collect();
                    assert_eq!(table.tiles(), scan, "{p:?}");
                }
            }
        }
        plan.phases()
            .zip(&plan.tables)
            .filter(|((ry, rx), _)| (ry.window.output, rx.window.output) == (4, 4))
            .map(|(_, t)| t)
            .collect()
    }

    #[test]
    fn planned_tiles_are_the_scanned_layouts_on_grammar_geometries() {
        // The geometries the topology grammar produces: S-CONVs of kernel
        // 1–7, stride 1–3 and every accepted pad; T-CONVs that upsample
        // exactly by 1–3; D-CONVs with per-axis kernel, stride and
        // dilation, square and with a fixed other axis.
        for input in 1..12 {
            for kernel in 1..8 {
                for stride in 1..4 {
                    for pad in 0..kernel {
                        if let Some(g) = SconvGeometry::new(input, kernel, stride, pad) {
                            check_planned_tiles(&g.plan(2, 3));
                        }
                    }
                    if input < 6 {
                        for grow in 0..2 {
                            let out = input * stride + grow;
                            if let Some(g) = TconvGeometry::for_target(input, kernel, stride, out)
                                .filter(|g| g.output == out)
                            {
                                check_planned_tiles(&g.plan(2, 3));
                            }
                        }
                    }
                }
            }
        }
        let fixed = DconvAxis::for_target(5, 3, 1, 2, 5).unwrap();
        for extent in 3usize..10 {
            for kernel in 1..4 {
                for stride in 1..3 {
                    for dilation in 1..4 {
                        let target = extent.div_ceil(stride);
                        if let Some(a) =
                            DconvAxis::for_target(extent, kernel, stride, dilation, target)
                        {
                            for g in [
                                DconvGeometry::new(a, a),
                                DconvGeometry::new(fixed, a),
                                DconvGeometry::new(a, fixed),
                            ] {
                                check_planned_tiles(&g.plan(2, 3));
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn four_by_four_phases_plan_two_half_runs_per_tile() {
        // The suite's 4 × 4-position phases: 3k2s, 4k2s and 5k2s T-CONVs
        // at 4 → 8 px (every phase), their duals, and 4 px S-CONV
        // outputs. Each of their two tiles spans two window rows, four
        // positions each, and must load as two half runs.
        let mut plans = Vec::new();
        for kernel in 3..=5 {
            let t = TconvGeometry::for_target(4, kernel, 2, 8).unwrap();
            plans.push(t.plan(16, 8));
            plans.push(t.plan(16, 8).dual());
            let s = SconvGeometry::new(8, kernel, 2, (kernel - 1) / 2).unwrap();
            assert_eq!(s.output, 4, "{kernel}k2s halves 8 px");
            plans.push(s.plan(16, 16));
        }
        for plan in &plans {
            let grids = check_planned_tiles(plan);
            assert!(!grids.is_empty(), "{plan:?} has a 4 × 4 phase");
            for t in grids {
                assert_eq!(t.positions.len(), 2 * NR);
                for tile in t.positions.tiles() {
                    assert!(matches!(tile, Lanes::Halves { .. }), "{plan:?}: {tile:?}");
                }
            }
        }
    }

    /// Folds `count` partials of `len` packed in `parts` into `parts[..len]`
    /// by the trainer's fixed tree: adjacent pairs first, then pairs at
    /// stride 2, 4, …
    fn tree_fold(parts: &mut [f32], count: usize, len: usize) {
        let mut stride = 1;
        while stride < count {
            for i in (0..count).step_by(2 * stride) {
                if i + stride < count {
                    for e in 0..len {
                        parts[i * len + e] += parts[(i + stride) * len + e];
                    }
                }
            }
            stride *= 2;
        }
    }

    /// Overwrites `grad` (weight layout) with the phase-layout `part`: the
    /// scatter done per sample, ahead of the fold, where the trainer folds
    /// first and scatters once.
    fn scatter_sample(plan: &ConvPlan, part: &[f32], grad: &mut [f32]) {
        let (oc, cs) = (plan.out_channels, plan.channel_stride());
        let mut off = 0;
        for t in &plan.tables {
            let red = t.taps.len();
            let block = &part[off..off + red * oc];
            off += red * oc;
            for c in 0..oc {
                for (r, &w) in t.weights.iter().enumerate() {
                    grad[c * cs + w as usize] = if plan.grad_by_channel() {
                        block[r * oc + c]
                    } else {
                        block[c * red + r]
                    };
                }
            }
        }
        assert_eq!(off, part.len(), "the phase blocks cover the weights");
    }

    #[test]
    fn folding_phase_partials_then_scattering_matches_scattering_then_folding() {
        let sconv = SconvGeometry::new(8, 3, 2, 1).unwrap();
        let tconv = TconvGeometry::for_upsampling(4, 3, 2).unwrap();
        let dconv = DconvGeometry::square(8, 3, 2, 2, 2).unwrap();
        let geoms: [(&str, &dyn ConvGeometry); 3] =
            [("S-CONV", &sconv), ("T-CONV", &tconv), ("D-CONV", &dconv)];
        let ic = 3;
        for (name, geom) in &geoms {
            // 12 leaves four channels past the eight-wide ∇out transpose.
            for oc in [1, 4, 8, 12, 16] {
                // The plan and a dual, each with `oc` output channels.
                for (dual, plan) in [(false, geom.plan(ic, oc)), (true, geom.plan(oc, ic).dual())] {
                    let wlen = plan.weight_shape().iter().product::<usize>();
                    let olen = plan.output_shape().iter().product::<usize>();
                    for batch in [1, 2, 3, 8] {
                        let mut ws = Workspace::new();
                        let (mut phase, mut weight) =
                            (vec![f32::NAN; batch * wlen], vec![f32::NAN; batch * wlen]);
                        for b in 0..batch {
                            let input = det(&plan.input_shape(), 20 + b as u32);
                            let mut dout = det(&[olen], 40 + b as u32);
                            if b == batch / 2 {
                                dout.data_mut().fill(-0.0);
                            }
                            let mut frame = vec![f32::NAN; plan.frame_len()];
                            plan.frame_into(input.data(), &mut frame);
                            let part = &mut phase[b * wlen..(b + 1) * wlen];
                            plan.weight_grad_into(dout.data(), &frame, part, &mut ws);
                            scatter_sample(&plan, part, &mut weight[b * wlen..(b + 1) * wlen]);
                        }
                        assert!(weight.iter().all(|v| !v.is_nan()), "every weight scattered");
                        // Accumulate onto a gradient that already holds values.
                        let held = det(&[wlen], 60);
                        tree_fold(&mut weight, batch, wlen);
                        let mut want = held.data().to_vec();
                        for (g, &v) in want.iter_mut().zip(&weight[..wlen]) {
                            *g += 1.0 * v;
                        }
                        tree_fold(&mut phase, batch, wlen);
                        let mut got = held.data().to_vec();
                        plan.add_weight_grad(&phase[..wlen], &mut got);
                        assert_eq!(
                            bits(&got),
                            bits(&want),
                            "{name} dual={dual} oc={oc} batch={batch}"
                        );
                    }
                }
            }
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
}

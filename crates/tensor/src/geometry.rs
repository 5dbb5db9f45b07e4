//! Convolution geometry: the shape relationships of Equations 5–10.
//!
//! The paper characterises three convolution flavours used while training a
//! GAN (Table II notation):
//!
//! * **S-CONV** — ordinary strided convolution (discriminator forward),
//!   governed by Eq. 8: `I + 2P − W = S·(O−1) + R`.
//! * **T-CONV** — transposed convolution (generator forward, and error
//!   back-propagation through an S-CONV), realised by inserting `S′−1` zeros
//!   between adjacent inputs, `R` trailing zeros, and `P = W − P′ − 1`
//!   padding (Fig. 4), governed by Eq. 5.
//! * **W-CONV** — the weight-gradient convolution, where the zero-inserted
//!   `∇output` acts as a kernel slid over the padded input (Fig. 6),
//!   governed by Eq. 9.
//!
//! All spatial quantities are square (`I_w = I_l` etc.), as the paper
//! assumes, so a single `usize` describes each extent.

/// Geometry of an ordinary strided convolution (S-CONV), Eq. 8.
///
/// # Example
///
/// ```
/// use lergan_tensor::SconvGeometry;
/// // Discriminator CONV8 of DCGAN: 8x8 input, 5x5 kernel, stride 2, pad 2.
/// let g = SconvGeometry::new(8, 5, 2, 2).unwrap();
/// assert_eq!(g.output, 4);
/// assert_eq!(g.remainder, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SconvGeometry {
    /// Spatial input extent `I`.
    pub input: usize,
    /// Kernel extent `W`.
    pub kernel: usize,
    /// Stride `S`.
    pub stride: usize,
    /// Padding `P` applied on every side.
    pub pad: usize,
    /// Spatial output extent `O`, derived.
    pub output: usize,
    /// Remainder `R` of Eq. 8, derived (`0 ≤ R < S`).
    pub remainder: usize,
}

impl SconvGeometry {
    /// Builds the geometry from the free parameters, deriving `O` and `R`.
    ///
    /// Returns `None` when the configuration admits no output (kernel larger
    /// than the padded input) or `stride == 0`.
    pub fn new(input: usize, kernel: usize, stride: usize, pad: usize) -> Option<Self> {
        if stride == 0 || kernel == 0 || input == 0 {
            return None;
        }
        let span = input + 2 * pad;
        if span < kernel {
            return None;
        }
        let output = (span - kernel) / stride + 1;
        let remainder = (span - kernel) % stride;
        Some(SconvGeometry {
            input,
            kernel,
            stride,
            pad,
            output,
            remainder,
        })
    }

    /// Total number of scalar multiplications per input channel per kernel
    /// (every window position uses the full `W × W` kernel).
    pub fn multiplications_per_channel(&self) -> usize {
        self.output * self.output * self.kernel * self.kernel
    }
}

/// Geometry of a transposed convolution (T-CONV), Eq. 5–7.
///
/// The "converse convolution" is the S-CONV that this T-CONV inverts
/// spatially: its stride is `S′` and padding `P′`. The zero-inserted
/// realisation convolves the expanded input with the kernel at stride 1.
///
/// # Example
///
/// ```
/// use lergan_tensor::TconvGeometry;
/// // CONV1 of the DCGAN generator: 4x4 -> 8x8, 5x5 kernel, converse stride 2.
/// let g = TconvGeometry::for_upsampling(4, 5, 2).unwrap();
/// assert_eq!(g.output, 8);
/// assert_eq!(g.remainder, 1);
/// assert_eq!(g.insertion_pad, 2);
/// assert_eq!(g.expanded(), 12);
/// // 147456 stored values for 1024 channels, only 16384 useful (Sec. III-A).
/// assert_eq!(g.expanded() * g.expanded() * 1024, 147_456);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TconvGeometry {
    /// Spatial input extent `I` (the small side).
    pub input: usize,
    /// Spatial output extent `O` (the upsampled side).
    pub output: usize,
    /// Kernel extent `W`.
    pub kernel: usize,
    /// Converse-convolution stride `S′` (a T-CONV "stride of 1/S′").
    pub converse_stride: usize,
    /// Converse-convolution padding `P′`.
    pub converse_pad: usize,
    /// Remainder `R` of Eq. 5, derived.
    pub remainder: usize,
    /// Zero padding `P = W − P′ − 1` applied to the expanded input, derived.
    pub insertion_pad: usize,
    /// Extra zero padding applied only at the *end* of each axis (0 or 1).
    ///
    /// The paper's formulation is symmetric; this generalisation (the
    /// `output_padding` of deep-learning frameworks) is needed when the
    /// compact Table V notation describes a stride-1 T-CONV with an even
    /// kernel, where no symmetric padding yields a same-size output.
    pub extra_end_pad: usize,
}

impl TconvGeometry {
    /// Builds the geometry from `(I, O, W, S′, P′)`, deriving `R` and `P`.
    ///
    /// Returns `None` if Eq. 5 cannot be satisfied with `0 ≤ R < S′`, or if
    /// `P′ ≥ W` (which would make the insertion pad negative).
    pub fn new(
        input: usize,
        output: usize,
        kernel: usize,
        converse_stride: usize,
        converse_pad: usize,
    ) -> Option<Self> {
        if input == 0 || converse_stride == 0 || kernel == 0 || converse_pad >= kernel {
            return None;
        }
        // Eq. 5: O + 2P' - W = S'(I - 1) + R with 0 <= R < S'.
        let lhs = (output + 2 * converse_pad).checked_sub(kernel)?;
        let base = converse_stride * (input - 1);
        if lhs < base || lhs - base >= converse_stride {
            return None;
        }
        let remainder = lhs - base;
        Some(TconvGeometry {
            input,
            output,
            kernel,
            converse_stride,
            converse_pad,
            remainder,
            insertion_pad: kernel - converse_pad - 1,
            extra_end_pad: 0,
        })
    }

    /// Standard upsampling T-CONV producing `O = I · S′`, choosing the
    /// smallest converse padding `P′` that satisfies Eq. 5.
    ///
    /// Returns `None` when no valid `P′` exists (e.g. `W < S′`).
    pub fn for_upsampling(input: usize, kernel: usize, converse_stride: usize) -> Option<Self> {
        let output = input * converse_stride;
        (0..kernel)
            .find_map(|p| Self::new(input, output, kernel, converse_stride, p))
            .or_else(|| Self::for_target(input, kernel, converse_stride, output))
    }

    /// Builds the geometry whose output is as close as possible to
    /// `target_output`, allowing one extra end-pad zero when symmetric
    /// padding cannot reach the target (e.g. stride-1 even-kernel layers).
    ///
    /// Exact matches are preferred, then smaller `|O − target|`, then
    /// symmetric padding, then smaller converse padding. Returns `None` for
    /// degenerate parameters.
    pub fn for_target(
        input: usize,
        kernel: usize,
        converse_stride: usize,
        target_output: usize,
    ) -> Option<Self> {
        if input == 0 || kernel == 0 || converse_stride == 0 {
            return None;
        }
        let mut best: Option<(usize, usize, Self)> = None; // (|O-target|, extra, geom)
        for converse_pad in 0..kernel {
            for extra in 0..=1usize {
                for remainder in 0..converse_stride {
                    // O = S'(I-1) + R + W - 2P' + extra
                    let o = (converse_stride * (input - 1) + remainder + kernel + extra)
                        .checked_sub(2 * converse_pad);
                    let Some(output) = o.filter(|&o| o > 0) else {
                        continue;
                    };
                    let dist = output.abs_diff(target_output);
                    let geom = TconvGeometry {
                        input,
                        output,
                        kernel,
                        converse_stride,
                        converse_pad,
                        remainder,
                        insertion_pad: kernel - converse_pad - 1,
                        extra_end_pad: extra,
                    };
                    let better = match &best {
                        None => true,
                        Some((bd, be, bg)) => {
                            (dist, extra, geom.converse_pad) < (*bd, *be, bg.converse_pad)
                        }
                    };
                    if better {
                        best = Some((dist, extra, geom));
                    }
                }
            }
        }
        best.map(|(_, _, g)| g)
    }

    /// Number of zeros inserted along one axis, Eq. 6:
    /// `N_iz = (S′ − 1)(I − 1) + R`.
    pub fn inserted_zeros_per_axis(&self) -> usize {
        (self.converse_stride - 1) * (self.input - 1) + self.remainder
    }

    /// Extent of the expanded (zero-inserted and padded) input along one
    /// axis: `N_iz + I + 2P` (plus any extra end padding).
    pub fn expanded(&self) -> usize {
        self.inserted_zeros_per_axis() + self.input + 2 * self.insertion_pad + self.extra_end_pad
    }

    /// Sum over all (output-window, kernel-offset) pairs per axis that land
    /// on a true input value: `Σ_{oy} |{ky : expanded(oy+ky) is original}|`.
    ///
    /// Squaring (or cubing, for volumetric GANs) this quantity gives the
    /// useful multiplications per channel pair; the same sum also counts the
    /// useful work of the generator weight-gradient convolution, which slides
    /// the `O × O` `∇z` over the same expanded input.
    ///
    /// Counted per true input `x` in O(I): it sits at expanded coordinate
    /// `e = P + S′x`, which the pairs `(oy, e − oy)` with
    /// `max(0, e − W + 1) ≤ oy < min(O, e + 1)` reach.
    pub fn useful_row_weight_sum(&self) -> usize {
        (0..self.input)
            .map(|x| {
                let e = self.insertion_pad + self.converse_stride * x;
                self.output
                    .min(e + 1)
                    .saturating_sub((e + 1).saturating_sub(self.kernel))
            })
            .sum()
    }

    /// Kernel offsets within the window at output position `o` that align
    /// with true (non-inserted) input values, i.e. the ZFDR "pattern" along
    /// one axis.
    ///
    /// # Panics
    ///
    /// Panics if `o` is not a valid output position.
    pub fn axis_pattern(&self, o: usize) -> Vec<usize> {
        self.axis_taps(o).collect()
    }

    /// [`axis_pattern`](Self::axis_pattern) without collecting it.
    ///
    /// # Panics
    ///
    /// Panics if `o` is not a valid output position.
    pub fn axis_taps(&self, o: usize) -> impl Iterator<Item = usize> + '_ {
        assert!(o < self.output, "output position out of range");
        // Offset k reads expanded coordinate e = o + k, a true input when
        // e = P + S′x for some x < I: the grid points of [max(o, P),
        // min(o + W, P + S′(I − 1) + 1)), every S′-th coordinate.
        let (p, s) = (self.insertion_pad, self.converse_stride);
        let first = p + o.saturating_sub(p).div_ceil(s) * s;
        let end = (o + self.kernel).min(p + s * (self.input - 1) + 1);
        (first..end).step_by(s).map(move |e| e - o)
    }

    /// Total zeros in the expanded input plane, Eq. 7 (extended to count
    /// padding on both sides, which the worked example of Sec. III-A does).
    pub fn zeros_per_plane(&self) -> usize {
        self.expanded() * self.expanded() - self.input * self.input
    }

    /// Maps an expanded-grid coordinate back to the original input
    /// coordinate, or `None` if the position holds an inserted zero or
    /// padding.
    ///
    /// # Panics
    ///
    /// Panics if `e` is outside the expanded extent.
    pub fn original_of_expanded(&self, e: usize) -> Option<usize> {
        assert!(e < self.expanded(), "expanded coordinate out of range");
        let p = self.insertion_pad;
        if e < p {
            return None;
        }
        let rel = e - p;
        if rel.is_multiple_of(self.converse_stride) && rel / self.converse_stride < self.input {
            Some(rel / self.converse_stride)
        } else {
            None
        }
    }

    /// Scalar multiplications per input channel per kernel when executing
    /// the zero-inserted form (all window positions, full kernel).
    pub fn total_multiplications_per_channel(&self) -> usize {
        self.output * self.output * self.kernel * self.kernel
    }

    /// Scalar multiplications per input channel per kernel that touch a
    /// *useful* (non-inserted) input value.
    pub fn useful_multiplications_per_channel(&self) -> usize {
        // Rows and columns factorise, so the 2-D count is the square of the
        // 1-D count summed over output positions.
        let row_sum = self.useful_row_weight_sum();
        row_sum * row_sum
    }
}

/// Geometry of the discriminator weight-gradient convolution (W-CONV of a
/// strided convolution), Eq. 8–10 and Fig. 6.
///
/// `∇W = conv(pad(input, P), zero_insert(∇output))` where the zero-inserted
/// `∇output` acts as the kernel, slid at stride 1.
///
/// # Example
///
/// ```
/// use lergan_tensor::WconvGeometry;
/// // Layer11 -> Layer10 example of Fig. 6: 8x8 input, 5x5 kernel, stride 2, pad 2.
/// let g = WconvGeometry::new(8, 5, 2, 2).unwrap();
/// assert_eq!(g.forward.output, 4);
/// assert_eq!(g.inserted_kernel_extent(), 8);
/// assert_eq!(g.padded_input_extent(), 12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WconvGeometry {
    /// The forward S-CONV this gradient belongs to.
    pub forward: SconvGeometry,
}

impl WconvGeometry {
    /// Builds from the forward convolution's free parameters.
    ///
    /// Returns `None` under the same conditions as [`SconvGeometry::new`].
    pub fn new(input: usize, kernel: usize, stride: usize, pad: usize) -> Option<Self> {
        SconvGeometry::new(input, kernel, stride, pad).map(|forward| WconvGeometry { forward })
    }

    /// Zeros inserted into `∇output` along one axis, Eq. 9:
    /// `N_iz = (S − 1)(O − 1) + R`.
    pub fn inserted_zeros_per_axis(&self) -> usize {
        let f = &self.forward;
        (f.stride - 1) * (f.output - 1) + f.remainder
    }

    /// Extent of the zero-inserted `∇output` kernel: `N_iz + O`.
    pub fn inserted_kernel_extent(&self) -> usize {
        self.inserted_zeros_per_axis() + self.forward.output
    }

    /// Extent of the padded input the inserted kernel slides over.
    pub fn padded_input_extent(&self) -> usize {
        self.forward.input + 2 * self.forward.pad
    }

    /// Total zeros handled by the naive W-CONV, Eq. 10 (inserted kernel
    /// zeros plus input padding zeros).
    pub fn total_zeros(&self) -> usize {
        let f = &self.forward;
        let k = self.inserted_kernel_extent();
        let p = self.padded_input_extent();
        (k * k - f.output * f.output) + (p * p - f.input * f.input)
    }

    /// Maps a coordinate inside the inserted kernel back to the original
    /// `∇output` coordinate, or `None` for an inserted zero.
    ///
    /// # Panics
    ///
    /// Panics if `k` is outside the inserted kernel extent.
    pub fn original_of_inserted(&self, k: usize) -> Option<usize> {
        assert!(
            k < self.inserted_kernel_extent(),
            "inserted-kernel coordinate out of range"
        );
        let s = self.forward.stride;
        if k.is_multiple_of(s) && k / s < self.forward.output {
            Some(k / s)
        } else {
            None
        }
    }

    /// Whether a padded-input coordinate holds a true input value (rather
    /// than padding).
    pub fn is_true_input(&self, pos: usize) -> bool {
        let f = &self.forward;
        pos >= f.pad && pos < f.pad + f.input
    }

    /// Sliding the inserted kernel over the padded input at stride 1 must
    /// yield exactly `W` positions per axis; this returns that extent.
    pub fn gradient_extent(&self) -> usize {
        self.padded_input_extent() - self.inserted_kernel_extent() + 1
    }

    /// `∇output` coordinates along one axis that multiply a *true* input
    /// value when the inserted kernel sits at gradient position `i`, i.e.
    /// the W-CONV-S ZFDR "pattern" along one axis.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a valid gradient position.
    pub fn axis_pattern(&self, i: usize) -> Vec<usize> {
        self.axis_taps(i).collect()
    }

    /// [`axis_pattern`](Self::axis_pattern) without collecting it.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a valid gradient position.
    pub fn axis_taps(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        assert!(i < self.gradient_extent(), "gradient position out of range");
        let f = &self.forward;
        (0..f.output).filter(move |&oh| self.is_true_input(i + oh * f.stride))
    }

    /// Sum over (gradient position, `∇output` index) pairs per axis that
    /// touch a true input value; squaring gives the useful multiplications
    /// per channel pair of the zero-free W-CONV.
    ///
    /// Counted per `∇output` index `oh` in O(O): the positions `i` with
    /// `P ≤ i + S·oh < P + I`, clipped to `0 ≤ i < W`.
    pub fn useful_row_weight_sum(&self) -> usize {
        let f = &self.forward;
        let extent = self.gradient_extent();
        (0..f.output)
            .map(|oh| {
                let at = oh * f.stride;
                let hi = extent.min((f.pad + f.input).saturating_sub(at));
                hi.saturating_sub(f.pad.saturating_sub(at))
            })
            .sum()
    }

    /// Total multiplications per (out-channel, in-channel) pair of the
    /// naive (zero-inserted) W-CONV: every gradient position scans the full
    /// inserted kernel.
    pub fn total_multiplications_per_pair(&self) -> usize {
        let g = self.gradient_extent();
        let k = self.inserted_kernel_extent();
        g * g * k * k
    }

    /// Useful multiplications per channel pair of the zero-free W-CONV.
    pub fn useful_multiplications_per_pair(&self) -> usize {
        let s = self.useful_row_weight_sum();
        s * s
    }
}

/// One axis of a (possibly dilated, possibly asymmetric) strided
/// convolution — D-CONV in the op algebra.
///
/// Dilation realises the EcoFlow observation that a dilated convolution
/// is the *dual* of a transposed one: where T-CONV zero-inserts the
/// input, D-CONV zero-inserts the **kernel** — a dilation-`D` kernel of
/// `K` true taps behaves like a dense kernel of effective extent
/// `K_eff = (K − 1)·D + 1` whose non-tap positions are all zero (exactly
/// the structure of W-CONV-S, where the zero-inserted `∇output` acts as
/// the kernel). The ZFDR pattern-class machinery therefore applies
/// verbatim: group output positions by which effective-kernel offsets
/// land on true taps *and* true (unpadded) input.
///
/// # Example
///
/// ```
/// use lergan_tensor::DconvAxis;
/// // 8-wide input, 3 taps dilated by 2 (effective extent 5), stride 1, pad 2.
/// let a = DconvAxis::new(8, 3, 1, 2, 2).unwrap();
/// assert_eq!(a.effective_kernel(), 5);
/// assert_eq!(a.output, 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DconvAxis {
    /// Spatial input extent `I` along this axis.
    pub input: usize,
    /// True kernel tap count `K` along this axis.
    pub kernel: usize,
    /// Stride `S` along this axis.
    pub stride: usize,
    /// Dilation `D` (`1` = dense).
    pub dilation: usize,
    /// Padding `P` applied on both ends of this axis.
    pub pad: usize,
    /// Output extent `O`, derived.
    pub output: usize,
}

impl DconvAxis {
    /// Builds one axis, deriving `O = (I + 2P − K_eff)/S + 1`.
    ///
    /// Returns `None` for degenerate parameters or when the padded input
    /// cannot fit one effective kernel window.
    pub fn new(
        input: usize,
        kernel: usize,
        stride: usize,
        dilation: usize,
        pad: usize,
    ) -> Option<Self> {
        if input == 0 || kernel == 0 || stride == 0 || dilation == 0 {
            return None;
        }
        let eff = (kernel - 1) * dilation + 1;
        let span = input + 2 * pad;
        if span < eff {
            return None;
        }
        Some(DconvAxis {
            input,
            kernel,
            stride,
            dilation,
            pad,
            output: (span - eff) / stride + 1,
        })
    }

    /// The axis whose output extent equals `target`, searching padding
    /// `0..K_eff`; exact matches only.
    pub fn for_target(
        input: usize,
        kernel: usize,
        stride: usize,
        dilation: usize,
        target: usize,
    ) -> Option<Self> {
        let eff = (kernel.checked_sub(1)?) * dilation + 1;
        (0..eff)
            .filter_map(|p| Self::new(input, kernel, stride, dilation, p))
            .find(|a| a.output == target)
    }

    /// Effective (zero-inserted) kernel extent `K_eff = (K − 1)·D + 1`.
    pub fn effective_kernel(&self) -> usize {
        (self.kernel - 1) * self.dilation + 1
    }

    /// Effective-kernel offsets at output position `o` that are true taps
    /// (multiples of `D`) *and* read a true (unpadded) input value — the
    /// ZFDR pattern of this axis.
    ///
    /// # Panics
    ///
    /// Panics if `o` is not a valid output position.
    pub fn axis_pattern(&self, o: usize) -> Vec<usize> {
        self.axis_taps(o).collect()
    }

    /// [`axis_pattern`](Self::axis_pattern) without collecting it.
    ///
    /// # Panics
    ///
    /// Panics if `o` is not a valid output position.
    pub fn axis_taps(&self, o: usize) -> impl Iterator<Item = usize> + '_ {
        assert!(o < self.output, "output position out of range");
        (0..self.kernel)
            .map(|j| j * self.dilation)
            .filter(move |&e| {
                let pos = o * self.stride + e;
                pos >= self.pad && pos < self.pad + self.input
            })
    }

    /// Sum over output positions of true-tap counts; the per-axis factor
    /// of the useful MAC count (axes factorise exactly as for T-CONV).
    ///
    /// Counted per true tap `j` in O(K): the output positions `o` with
    /// `P ≤ S·o + D·j < P + I`, clipped to `0 ≤ o < O`.
    pub fn useful_row_weight_sum(&self) -> usize {
        (0..self.kernel)
            .map(|j| {
                let e = j * self.dilation;
                let lo = self.pad.saturating_sub(e).div_ceil(self.stride);
                let hi = self.output.min(
                    (self.pad + self.input)
                        .saturating_sub(e)
                        .div_ceil(self.stride),
                );
                hi.saturating_sub(lo)
            })
            .sum()
    }

    /// Per-axis factor of the dense (zero-inserted-kernel) MAC count:
    /// every output position scans the full effective kernel.
    pub fn dense_row_weight_count(&self) -> usize {
        self.output * self.effective_kernel()
    }
}

/// Full 2-D geometry of a dilated / asymmetric strided convolution.
///
/// Rows and columns carry independent [`DconvAxis`] parameters, so
/// `Kh×Kw` kernels and `Sh×Sw` strides are first-class. When the two
/// axes are identical ([`DconvGeometry::is_symmetric`]) the ZFDR plan
/// machinery composes one axis-class set across both dimensions exactly
/// as it does for T-CONV; asymmetric geometry maps dense.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DconvGeometry {
    /// Vertical (row) axis.
    pub rows: DconvAxis,
    /// Horizontal (column) axis.
    pub cols: DconvAxis,
}

impl DconvGeometry {
    /// Builds a geometry from two axes.
    pub fn new(rows: DconvAxis, cols: DconvAxis) -> Self {
        DconvGeometry { rows, cols }
    }

    /// Square geometry: both axes share every parameter.
    pub fn square(
        input: usize,
        kernel: usize,
        stride: usize,
        dilation: usize,
        pad: usize,
    ) -> Option<Self> {
        let axis = DconvAxis::new(input, kernel, stride, dilation, pad)?;
        Some(DconvGeometry {
            rows: axis,
            cols: axis,
        })
    }

    /// Whether the two axes are identical — the precondition for the
    /// pattern-class (pow-composed) ZFDR plan.
    pub fn is_symmetric(&self) -> bool {
        self.rows == self.cols
    }

    /// Whether any axis dilates (`D > 1`).
    pub fn is_dilated(&self) -> bool {
        self.rows.dilation > 1 || self.cols.dilation > 1
    }

    /// True kernel taps per channel pair (`Kh·Kw`).
    pub fn kernel_taps(&self) -> usize {
        self.rows.kernel * self.cols.kernel
    }

    /// Dense multiplications per channel pair of the zero-inserted-kernel
    /// formulation: `(O_h·K_eff_h)·(O_w·K_eff_w)`.
    pub fn total_multiplications_per_pair(&self) -> usize {
        self.rows.dense_row_weight_count() * self.cols.dense_row_weight_count()
    }

    /// Multiplications per channel pair that touch a true kernel tap and
    /// a true input value (axes factorise).
    pub fn useful_multiplications_per_pair(&self) -> usize {
        self.rows.useful_row_weight_sum() * self.cols.useful_row_weight_sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sconv_dcgan_conv8() {
        // 8x8 -> 4x4, kernel 5, stride 2, pad 2 (discriminator CONV8).
        let g = SconvGeometry::new(8, 5, 2, 2).unwrap();
        assert_eq!(g.output, 4);
        assert_eq!(g.remainder, 1);
    }

    #[test]
    fn sconv_rejects_degenerate() {
        assert!(SconvGeometry::new(4, 5, 1, 0).is_none());
        assert!(SconvGeometry::new(4, 3, 0, 0).is_none());
        assert!(SconvGeometry::new(0, 3, 1, 0).is_none());
    }

    #[test]
    fn tconv_conv1_matches_paper_example() {
        // Section III-A worked example: CONV1 of the DCGAN generator.
        let g = TconvGeometry::for_upsampling(4, 5, 2).unwrap();
        assert_eq!(g.output, 8);
        assert_eq!(g.converse_pad, 2);
        assert_eq!(g.remainder, 1);
        assert_eq!(g.insertion_pad, 2);
        assert_eq!(g.inserted_zeros_per_axis(), 4); // (2-1)*(4-1) + 1
        assert_eq!(g.expanded(), 12);
        // "we store and transfer 147456 input values while only 16384 are useful"
        assert_eq!(g.expanded().pow(2) * 1024, 147_456);
        assert_eq!(g.input.pow(2) * 1024, 16_384);
    }

    #[test]
    fn tconv_conv1_efficiency_is_18_percent() {
        let g = TconvGeometry::for_upsampling(4, 5, 2).unwrap();
        // "we conduct 1638400 multiplications while 295936 of them are useful,
        //  whose efficiency is only 18.06%" (counted over the 1024 channels).
        let total = g.total_multiplications_per_channel() * 1024;
        let useful = g.useful_multiplications_per_channel() * 1024;
        assert_eq!(total, 1_638_400);
        assert_eq!(useful, 295_936);
        let eff = useful as f64 / total as f64;
        assert!((eff - 0.1806).abs() < 1e-3, "efficiency {eff}");
    }

    #[test]
    fn tconv_expanded_window_count_equals_output() {
        for (i, w, s) in [(4, 5, 2), (8, 5, 2), (16, 4, 2), (7, 4, 2), (5, 5, 3)] {
            let g = TconvGeometry::for_upsampling(i, w, s).unwrap();
            assert_eq!(
                g.expanded() - g.kernel + 1,
                g.output,
                "window count mismatch for ({i},{w},{s})"
            );
        }
    }

    #[test]
    fn tconv_original_mapping_round_trips() {
        let g = TconvGeometry::for_upsampling(4, 5, 2).unwrap();
        let recovered: Vec<usize> = (0..g.expanded())
            .filter_map(|e| g.original_of_expanded(e))
            .collect();
        assert_eq!(recovered, vec![0, 1, 2, 3]);
    }

    #[test]
    fn tconv_rejects_invalid_converse_pad() {
        assert!(TconvGeometry::new(4, 8, 5, 2, 5).is_none());
        // R would be out of range:
        assert!(TconvGeometry::new(4, 9, 5, 2, 0).is_none());
    }

    #[test]
    fn tconv_stride3_supported() {
        // "capable of handling ... future GANs with larger stride (e.g. 3)".
        let g = TconvGeometry::for_upsampling(5, 5, 3).unwrap();
        assert_eq!(g.output, 15);
        assert!(g.remainder < 3);
        assert_eq!(g.expanded() - g.kernel + 1, 15);
    }

    #[test]
    fn wconv_fig6_example() {
        let g = WconvGeometry::new(8, 5, 2, 2).unwrap();
        assert_eq!(g.forward.output, 4);
        assert_eq!(g.inserted_zeros_per_axis(), 4); // (2-1)*(4-1)+1
        assert_eq!(g.inserted_kernel_extent(), 8);
        assert_eq!(g.padded_input_extent(), 12);
        assert_eq!(g.gradient_extent(), 5); // exactly W
    }

    #[test]
    fn wconv_zero_count_eq10() {
        let g = WconvGeometry::new(8, 5, 2, 2).unwrap();
        // (8*8 - 4*4) + (12*12 - 8*8) = 48 + 80 = 128.
        assert_eq!(g.total_zeros(), 128);
    }

    #[test]
    fn wconv_inserted_mapping() {
        let g = WconvGeometry::new(8, 5, 2, 2).unwrap();
        let orig: Vec<Option<usize>> = (0..g.inserted_kernel_extent())
            .map(|k| g.original_of_inserted(k))
            .collect();
        assert_eq!(
            orig,
            vec![Some(0), None, Some(1), None, Some(2), None, Some(3), None]
        );
    }

    #[test]
    fn wconv_gradient_extent_is_kernel_for_common_configs() {
        for (i, w, s, p) in [(8, 5, 2, 2), (16, 4, 2, 1), (32, 4, 2, 1), (28, 7, 1, 3)] {
            let g = WconvGeometry::new(i, w, s, p).unwrap();
            assert_eq!(g.gradient_extent(), w, "config ({i},{w},{s},{p})");
        }
    }

    #[test]
    fn for_target_same_size_stride1_even_kernel() {
        // ArtGAN's 1024t4k1s layer: same-size stride-1 T-CONV with a 4x4
        // kernel requires one extra end-pad zero.
        let g = TconvGeometry::for_target(4, 4, 1, 4).unwrap();
        assert_eq!(g.output, 4);
        assert_eq!(g.extra_end_pad, 1);
        assert_eq!(g.expanded() - g.kernel + 1, g.output);
        // Odd kernels stay symmetric.
        let g = TconvGeometry::for_target(16, 7, 1, 16).unwrap();
        assert_eq!(g.output, 16);
        assert_eq!(g.extra_end_pad, 0);
        assert_eq!(g.converse_pad, 3);
    }

    #[test]
    fn for_target_prefers_exact_then_symmetric() {
        // Exact doubling prefers a symmetric solution when one exists.
        let g = TconvGeometry::for_target(4, 5, 2, 8).unwrap();
        assert_eq!(g.output, 8);
        assert_eq!(g.extra_end_pad, 0);
        assert_eq!(g.converse_pad, 2);
    }

    #[test]
    fn tconv_axis_pattern_is_periodic_inside() {
        let g = TconvGeometry::for_upsampling(8, 5, 2).unwrap();
        // Interior patterns repeat with period S'.
        let mid = g.output / 2;
        assert_eq!(g.axis_pattern(mid), g.axis_pattern(mid + 2));
        assert_ne!(g.axis_pattern(mid), g.axis_pattern(mid + 1));
    }

    #[test]
    fn wconv_axis_pattern_interior_is_full() {
        let g = WconvGeometry::new(8, 5, 2, 2).unwrap();
        // Interior gradient positions see every ∇output element.
        let full: Vec<usize> = (0..g.forward.output).collect();
        assert_eq!(g.axis_pattern(2), full);
        // Boundary positions see fewer.
        assert!(g.axis_pattern(0).len() < full.len());
    }

    #[test]
    fn wconv_useful_counts_bounded() {
        let g = WconvGeometry::new(8, 5, 2, 2).unwrap();
        assert!(g.useful_multiplications_per_pair() <= g.total_multiplications_per_pair());
        assert!(g.useful_multiplications_per_pair() > 0);
    }

    #[test]
    fn dconv_dense_axis_matches_sconv() {
        // Dilation 1 degenerates to plain S-CONV geometry.
        let d = DconvAxis::new(8, 5, 2, 1, 2).unwrap();
        let s = SconvGeometry::new(8, 5, 2, 2).unwrap();
        assert_eq!(d.output, s.output);
        assert_eq!(d.effective_kernel(), 5);
        // Dense == useful when nothing is inserted and padding is absent.
        let nopad = DconvAxis::new(8, 3, 1, 1, 0).unwrap();
        assert_eq!(
            nopad.useful_row_weight_sum(),
            nopad.dense_row_weight_count()
        );
    }

    #[test]
    fn dconv_dilated_pattern_structure() {
        // 3 taps dilated by 2: effective extent 5, true taps at {0, 2, 4}.
        let a = DconvAxis::new(8, 3, 1, 2, 2).unwrap();
        assert_eq!(a.output, 8);
        // Interior positions see all three taps.
        assert_eq!(a.axis_pattern(2), vec![0, 2, 4]);
        // The first window starts at pad offset: tap 0 reads padding.
        assert_eq!(a.axis_pattern(0), vec![2, 4]);
        // Useful < dense: the inserted kernel zeros are 2/5 of the scan,
        // and the pad positions shave the borders further.
        assert!(a.useful_row_weight_sum() < a.dense_row_weight_count());
        assert_eq!(a.dense_row_weight_count(), 8 * 5);
    }

    #[test]
    fn dconv_useful_count_by_enumeration() {
        let mut checked = 0;
        for i in 1..=12 {
            for k in 1..=5 {
                for s in 1..=4 {
                    for d in 1..=4 {
                        for p in 0..=6 {
                            let Some(a) = DconvAxis::new(i, k, s, d, p) else {
                                continue;
                            };
                            let mut count = 0usize;
                            for o in 0..a.output {
                                for j in 0..k {
                                    let pos = o * s + j * d;
                                    if pos >= p && pos < p + i {
                                        count += 1;
                                    }
                                }
                            }
                            assert_eq!(
                                a.useful_row_weight_sum(),
                                count,
                                "axis ({i},{k},{s},{d},{p})"
                            );
                            checked += 1;
                        }
                    }
                }
            }
        }
        assert!(checked > 1000, "only {checked} geometries");
    }

    #[test]
    fn dconv_asymmetric_axes() {
        let rows = DconvAxis::new(12, 3, 1, 1, 1).unwrap();
        let cols = DconvAxis::new(12, 5, 2, 1, 2).unwrap();
        let g = DconvGeometry::new(rows, cols);
        assert!(!g.is_symmetric());
        assert!(!g.is_dilated());
        assert_eq!(g.rows.output, 12);
        assert_eq!(g.cols.output, 6);
        assert_eq!(g.kernel_taps(), 15);
        assert_eq!(
            g.useful_multiplications_per_pair(),
            rows.useful_row_weight_sum() * cols.useful_row_weight_sum()
        );
    }

    #[test]
    fn dconv_for_target_finds_same_size_padding() {
        let a = DconvAxis::for_target(8, 3, 1, 2, 8).unwrap();
        assert_eq!(a.pad, 2);
        assert_eq!(a.output, 8);
        assert!(DconvAxis::for_target(8, 3, 1, 2, 100).is_none());
    }

    #[test]
    fn dconv_rejects_degenerate() {
        assert!(DconvAxis::new(0, 3, 1, 1, 0).is_none());
        assert!(DconvAxis::new(8, 0, 1, 1, 0).is_none());
        assert!(DconvAxis::new(8, 3, 0, 1, 0).is_none());
        assert!(DconvAxis::new(8, 3, 1, 0, 0).is_none());
        // Effective kernel larger than the padded input.
        assert!(DconvAxis::new(4, 3, 1, 4, 0).is_none());
    }

    /// The per-window tap loop `useful_row_weight_sum` used to run: every
    /// (window, kernel offset) pair checked against the expanded input.
    fn tconv_useful_by_windows(g: &TconvGeometry) -> usize {
        (0..g.output)
            .map(|oy| {
                (0..g.kernel)
                    .filter(|&k| g.original_of_expanded(oy + k).is_some())
                    .count()
            })
            .sum()
    }

    #[test]
    fn tconv_closed_forms_match_the_loops() {
        let mut checked = 0;
        for input in 1..=9 {
            for kernel in 1..=7 {
                for stride in 1..=4 {
                    let mut geoms: Vec<TconvGeometry> = (0..kernel)
                        .flat_map(|p| (1..=48).map(move |o| (p, o)))
                        .filter_map(|(p, o)| TconvGeometry::new(input, o, kernel, stride, p))
                        .collect();
                    geoms.extend(
                        (1..=40)
                            .filter_map(|t| TconvGeometry::for_target(input, kernel, stride, t)),
                    );
                    for g in geoms {
                        assert_eq!(
                            g.useful_row_weight_sum(),
                            tconv_useful_by_windows(&g),
                            "{g:?}"
                        );
                        for o in 0..g.output {
                            let by_offsets: Vec<usize> = (0..g.kernel)
                                .filter(|&k| g.original_of_expanded(o + k).is_some())
                                .collect();
                            assert_eq!(g.axis_pattern(o), by_offsets, "{g:?} at {o}");
                        }
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 1000, "only {checked} geometries");
    }

    #[test]
    fn wconv_closed_form_matches_the_window_loop() {
        let mut checked = 0;
        for input in 1..=12 {
            for kernel in 1..=7 {
                for stride in 1..=4 {
                    for pad in 0..=5 {
                        let Some(g) = WconvGeometry::new(input, kernel, stride, pad) else {
                            continue;
                        };
                        let by_windows: usize = (0..g.gradient_extent())
                            .map(|i| g.axis_taps(i).count())
                            .sum();
                        assert_eq!(g.useful_row_weight_sum(), by_windows, "{g:?}");
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 1000, "only {checked} geometries");
    }

    #[test]
    fn zero_counts_grow_with_stride_and_pad() {
        // Eq. 6/7 observation: more stride or padding => more zeros.
        let base = TconvGeometry::for_upsampling(8, 5, 2).unwrap();
        let wider = TconvGeometry::for_upsampling(8, 5, 3).unwrap();
        assert!(wider.zeros_per_plane() > base.zeros_per_plane());
    }
}

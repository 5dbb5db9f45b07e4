//! Reference convolution kernels: S-CONV, T-CONV and W-CONV.
//!
//! Every kernel here is a direct loop-nest transcription of the defining
//! sums — slow, but unambiguous. The zero-insertion forms are built from
//! [`crate::zero_insert`] plus a stride-1 convolution, exactly as Fig. 4–6
//! describe, and the direct (scatter) T-CONV form cross-checks them.
//!
//! Weight layout is `[out_channels, in_channels, k, k]` throughout, matching
//! the paper's "512 kernels whose width and length are 5 and height is 1024"
//! description of DCGAN CONV1.

use crate::geometry::{SconvGeometry, TconvGeometry, WconvGeometry};
use crate::tensor::Tensor;
use crate::zero_insert::{expand_tconv_input, insert_wconv_kernel, pad_planes};

/// A strided 2-D convolution operator (S-CONV).
///
/// # Example
///
/// ```
/// use lergan_tensor::{Tensor, Conv2d};
/// let conv = Conv2d::new(1, 2, 3, 1, 1).unwrap();
/// let input = Tensor::ones(&[1, 4, 4]);
/// let weights = Tensor::ones(&[2, 1, 3, 3]);
/// let out = conv.forward(&input, &weights);
/// assert_eq!(out.shape(), &[2, 4, 4]);
/// assert_eq!(out[&[0, 1, 1]], 9.0); // interior window sums 9 ones
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    geometry_kernel: usize,
    stride: usize,
    pad: usize,
}

impl Conv2d {
    /// Creates the operator. Returns `None` for zero-sized channels, kernel,
    /// or stride.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> Option<Self> {
        if in_channels == 0 || out_channels == 0 || kernel == 0 || stride == 0 {
            return None;
        }
        Some(Conv2d {
            in_channels,
            out_channels,
            geometry_kernel: kernel,
            stride,
            pad,
        })
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Kernel spatial extent.
    pub fn kernel(&self) -> usize {
        self.geometry_kernel
    }

    /// Stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Padding.
    pub fn pad(&self) -> usize {
        self.pad
    }

    /// The spatial geometry induced by an input of extent `input`.
    ///
    /// # Panics
    ///
    /// Panics if the padded input is smaller than the kernel.
    pub fn geometry(&self, input: usize) -> SconvGeometry {
        SconvGeometry::new(input, self.geometry_kernel, self.stride, self.pad)
            .expect("invalid conv geometry for this input extent")
    }

    fn check_operands(&self, input: &Tensor, weights: &Tensor) -> (usize, SconvGeometry) {
        assert_eq!(input.shape().len(), 3, "input must be [C, H, W]");
        assert_eq!(input.shape()[0], self.in_channels, "input channel mismatch");
        assert_eq!(input.shape()[1], input.shape()[2], "input must be square");
        assert_eq!(
            weights.shape(),
            &[
                self.out_channels,
                self.in_channels,
                self.geometry_kernel,
                self.geometry_kernel
            ],
            "weight shape mismatch"
        );
        let extent = input.shape()[1];
        (extent, self.geometry(extent))
    }

    /// Forward S-CONV: `out[oc, oy, ox] = Σ input_pad[ic, oy·S+ky, ox·S+kx] · w[oc, ic, ky, kx]`.
    ///
    /// # Panics
    ///
    /// Panics on operand shape mismatches.
    pub fn forward(&self, input: &Tensor, weights: &Tensor) -> Tensor {
        let (_, geom) = self.check_operands(input, weights);
        let padded = pad_planes(input, self.pad);
        conv_stride(&padded, weights, self.stride, geom.output)
    }

    /// Gradient of the loss w.r.t. the convolution input, given `∇output`.
    ///
    /// This is the "error transferring" direction: for a strided forward
    /// conv it is mathematically a T-CONV (the paper's `D-backward` uses
    /// T-CONV dataflow).
    ///
    /// The loop nest is the flat-indexed form of the defining scatter sum:
    /// for a fixed `∇input` element the additions arrive in ascending
    /// `(oc, oy, ox, ky, kx)` order, independent of the thread count
    /// (workers own disjoint input-channel planes). This is the reference
    /// the trainer's S-CONV input gradient — the forward of
    /// [`ConvPlan::dual`](crate::im2col::ConvPlan::dual) — is pinned to.
    ///
    /// # Panics
    ///
    /// Panics on operand shape mismatches.
    pub fn input_grad(&self, dout: &Tensor, weights: &Tensor, input_extent: usize) -> Tensor {
        let geom = self.geometry(input_extent);
        assert_eq!(
            dout.shape(),
            &[self.out_channels, geom.output, geom.output],
            "∇output shape mismatch"
        );
        assert_eq!(
            weights.shape(),
            &[
                self.out_channels,
                self.in_channels,
                self.geometry_kernel,
                self.geometry_kernel
            ],
            "weight shape mismatch"
        );
        let pe = input_extent + 2 * self.pad;
        let k = self.geometry_kernel;
        let o = geom.output;
        let s = self.stride;
        let plane = pe * pe;
        let mut dpad = vec![0.0; self.in_channels * plane];
        let wdata = weights.data();
        let ddata = dout.data();
        let flops_per_plane = self.out_channels * o * o * k * k;
        let min_planes = (crate::tensor::MIN_PARALLEL_FLOPS / flops_per_plane.max(1)).max(1);
        // Workers own disjoint blocks of ∇pad planes; see the doc comment
        // for why this cannot change any accumulation order.
        crate::parallel::for_each_unit_chunk_mut(&mut dpad, plane, min_planes, |ic0, planes| {
            for (d, pbuf) in planes.chunks_mut(plane).enumerate() {
                let ic = ic0 + d;
                for oc in 0..self.out_channels {
                    let wbase = (oc * self.in_channels + ic) * k * k;
                    for oy in 0..o {
                        let dbase = (oc * o + oy) * o;
                        for ox in 0..o {
                            let g = ddata[dbase + ox];
                            if g == 0.0 {
                                continue;
                            }
                            for ky in 0..k {
                                let wrow = &wdata[wbase + ky * k..wbase + (ky + 1) * k];
                                let pbase = (oy * s + ky) * pe + ox * s;
                                let prow = &mut pbuf[pbase..pbase + k];
                                for (p, &wv) in prow.iter_mut().zip(wrow.iter()) {
                                    *p += g * wv;
                                }
                            }
                        }
                    }
                }
            }
        });
        // Crop the padding back off, row by row.
        let ie = input_extent;
        let mut din = vec![0.0; self.in_channels * ie * ie];
        for ic in 0..self.in_channels {
            for y in 0..ie {
                let src = ic * plane + (y + self.pad) * pe + self.pad;
                let dst = (ic * ie + y) * ie;
                din[dst..dst + ie].copy_from_slice(&dpad[src..src + ie]);
            }
        }
        Tensor::from_vec(&[self.in_channels, ie, ie], din)
    }

    /// Gradient of the loss w.r.t. the weights (Eq. 4), computed by the
    /// defining sum. [`wconv_weight_grad_zero_insert`] computes the same
    /// thing through the paper's zero-inserted-kernel formulation.
    ///
    /// # Panics
    ///
    /// Panics on operand shape mismatches.
    pub fn weight_grad(&self, input: &Tensor, dout: &Tensor) -> Tensor {
        assert_eq!(input.shape().len(), 3, "input must be [C, H, W]");
        let extent = input.shape()[1];
        let geom = self.geometry(extent);
        assert_eq!(
            dout.shape(),
            &[self.out_channels, geom.output, geom.output],
            "∇output shape mismatch"
        );
        let padded = pad_planes(input, self.pad);
        let mut dw = Tensor::zeros(&[
            self.out_channels,
            self.in_channels,
            self.geometry_kernel,
            self.geometry_kernel,
        ]);
        // Each worker owns a block of out-channel gradient slabs; the inner
        // accumulation per ∇W element is untouched, so the split cannot
        // change any floating-point result.
        let k = self.geometry_kernel;
        let slab = self.in_channels * k * k;
        let flops_per_slab = slab * geom.output * geom.output;
        let min_slabs = (crate::tensor::MIN_PARALLEL_FLOPS / flops_per_slab.max(1)).max(1);
        let mut slabs: Vec<&mut [f32]> = dw.data_mut().chunks_mut(slab).collect();
        crate::parallel::for_each_chunk_mut(&mut slabs, min_slabs, |oc0, slabs| {
            for (d, slab) in slabs.iter_mut().enumerate() {
                let oc = oc0 + d;
                for ic in 0..self.in_channels {
                    for ky in 0..k {
                        for kx in 0..k {
                            let mut acc = 0.0;
                            for oy in 0..geom.output {
                                for ox in 0..geom.output {
                                    acc += dout[&[oc, oy, ox]]
                                        * padded
                                            [&[ic, oy * self.stride + ky, ox * self.stride + kx]];
                                }
                            }
                            slab[ic * k * k + ky * k + kx] = acc;
                        }
                    }
                }
            }
        });
        dw
    }
}

/// Stride-`s` valid convolution of a pre-padded `[C, H, W]` input with
/// `[OC, C, K, K]` weights, producing `[OC, out, out]`.
fn conv_stride(padded: &Tensor, weights: &Tensor, stride: usize, out: usize) -> Tensor {
    let (c, k) = (weights.shape()[1], weights.shape()[2]);
    let oc = weights.shape()[0];
    assert_eq!(padded.shape()[0], c, "channel mismatch in conv_stride");
    let mut result = Tensor::zeros(&[oc, out, out]);
    // Out-channel planes are independent, so workers own disjoint planes
    // and the per-element accumulation order is exactly the serial one.
    let plane = out * out;
    let flops_per_plane = plane * c * k * k;
    let min_planes = (crate::tensor::MIN_PARALLEL_FLOPS / flops_per_plane.max(1)).max(1);
    let mut planes: Vec<&mut [f32]> = result.data_mut().chunks_mut(plane).collect();
    crate::parallel::for_each_chunk_mut(&mut planes, min_planes, |o0, planes| {
        for (d, plane) in planes.iter_mut().enumerate() {
            let o = o0 + d;
            for oy in 0..out {
                for ox in 0..out {
                    let mut acc = 0.0;
                    for ci in 0..c {
                        for ky in 0..k {
                            for kx in 0..k {
                                acc += padded[&[ci, oy * stride + ky, ox * stride + kx]]
                                    * weights[&[o, ci, ky, kx]];
                            }
                        }
                    }
                    plane[oy * out + ox] = acc;
                }
            }
        }
    });
    result
}

/// T-CONV forward through the zero-insertion path of Fig. 4: expand the
/// input, then convolve at stride 1 with no extra padding.
///
/// This is the *naive* realisation whose wasted work ZFDR eliminates.
///
/// # Panics
///
/// Panics on operand shape mismatches.
pub fn tconv_forward_zero_insert(input: &Tensor, weights: &Tensor, geom: &TconvGeometry) -> Tensor {
    assert_eq!(
        weights.shape()[2],
        geom.kernel,
        "kernel extent mismatch with geometry"
    );
    assert_eq!(
        weights.shape()[1],
        input.shape()[0],
        "in-channel mismatch between input and weights"
    );
    let expanded = expand_tconv_input(input, geom);
    conv_stride(&expanded, weights, 1, geom.output)
}

/// W-CONV of a strided convolution through the zero-inserted-kernel path of
/// Fig. 6: `∇W[oc, ic] = conv(pad(input[ic], P), zero_insert(∇out[oc]))` at
/// stride 1, keeping the first `W × W` window positions.
///
/// # Panics
///
/// Panics on operand shape mismatches.
pub fn wconv_weight_grad_zero_insert(
    input: &Tensor,
    dout: &Tensor,
    geom: &WconvGeometry,
) -> Tensor {
    let f = &geom.forward;
    assert_eq!(input.shape()[1], f.input, "input extent mismatch");
    assert_eq!(dout.shape()[1], f.output, "∇output extent mismatch");
    let (ic, oc) = (input.shape()[0], dout.shape()[0]);
    let padded = pad_planes(input, f.pad);
    let kernel = insert_wconv_kernel(dout, geom);
    let ke = geom.inserted_kernel_extent();
    let w = f.kernel;
    let mut dw = Tensor::zeros(&[oc, ic, w, w]);
    for o in 0..oc {
        for i in 0..ic {
            for wy in 0..w {
                for wx in 0..w {
                    let mut acc = 0.0;
                    for ky in 0..ke {
                        for kx in 0..ke {
                            acc += padded[&[i, wy + ky, wx + kx]] * kernel[&[o, ky, kx]];
                        }
                    }
                    dw[&[o, i, wy, wx][..]] = acc;
                }
            }
        }
    }
    dw
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_tensors_close;
    use crate::geometry::TconvGeometry;

    fn det_tensor(shape: &[usize], seed: u32) -> Tensor {
        // Small deterministic pseudo-random values without pulling in rand.
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(12345);
        Tensor::from_fn(shape, |_| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            ((state >> 16) as f32 / 65536.0) - 0.5
        })
    }

    #[test]
    fn forward_identity_kernel() {
        let conv = Conv2d::new(1, 1, 1, 1, 0).unwrap();
        let input = det_tensor(&[1, 5, 5], 1);
        let w = Tensor::ones(&[1, 1, 1, 1]);
        let out = conv.forward(&input, &w);
        assert_tensors_close(&out, &input, 1e-6);
    }

    #[test]
    fn forward_stride2_shapes() {
        let conv = Conv2d::new(3, 8, 5, 2, 2).unwrap();
        let input = det_tensor(&[3, 8, 8], 2);
        let w = det_tensor(&[8, 3, 5, 5], 3);
        let out = conv.forward(&input, &w);
        assert_eq!(out.shape(), &[8, 4, 4]);
    }

    #[test]
    fn forward_known_values() {
        // 2x2 input [[1,2],[3,4]], 2x2 kernel of ones, stride 1, no pad.
        let conv = Conv2d::new(1, 1, 2, 1, 0).unwrap();
        let input = Tensor::from_vec(&[1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let w = Tensor::ones(&[1, 1, 2, 2]);
        let out = conv.forward(&input, &w);
        assert_eq!(out.shape(), &[1, 1, 1]);
        assert_eq!(out.data(), &[10.0]);
    }

    #[test]
    fn weight_grad_matches_finite_difference() {
        let conv = Conv2d::new(2, 3, 3, 2, 1).unwrap();
        let input = det_tensor(&[2, 6, 6], 4);
        let w = det_tensor(&[3, 2, 3, 3], 5);
        let dout = det_tensor(&[3, 3, 3], 6);
        let dw = conv.weight_grad(&input, &dout);

        // loss = sum(dout * forward), so dloss/dw ~ finite difference.
        let eps = 1e-2;
        let probe = [1usize, 0, 2, 1];
        let mut w_plus = w.clone();
        w_plus[&probe[..]] += eps;
        let mut w_minus = w.clone();
        w_minus[&probe[..]] -= eps;
        let loss = |weights: &Tensor| -> f32 {
            conv.forward(&input, weights)
                .zip_with(&dout, |a, b| a * b)
                .sum()
        };
        let fd = (loss(&w_plus) - loss(&w_minus)) / (2.0 * eps);
        assert!(
            (dw[&probe] - fd).abs() < 1e-2,
            "analytic {} vs fd {}",
            dw[&probe],
            fd
        );
    }

    #[test]
    fn input_grad_matches_finite_difference() {
        let conv = Conv2d::new(2, 3, 3, 2, 1).unwrap();
        let input = det_tensor(&[2, 6, 6], 7);
        let w = det_tensor(&[3, 2, 3, 3], 8);
        let dout = det_tensor(&[3, 3, 3], 9);
        let din = conv.input_grad(&dout, &w, 6);
        assert_eq!(din.shape(), input.shape());

        let eps = 1e-2;
        let probe = [1usize, 3, 4];
        let mut in_plus = input.clone();
        in_plus[&probe[..]] += eps;
        let mut in_minus = input.clone();
        in_minus[&probe[..]] -= eps;
        let loss =
            |inp: &Tensor| -> f32 { conv.forward(inp, &w).zip_with(&dout, |a, b| a * b).sum() };
        let fd = (loss(&in_plus) - loss(&in_minus)) / (2.0 * eps);
        assert!(
            (din[&probe] - fd).abs() < 1e-2,
            "analytic {} vs fd {}",
            din[&probe],
            fd
        );
    }

    #[test]
    fn input_grad_flat_indexing_matches_multi_index_reference() {
        // The flat-indexed scatter must be bit-identical to the original
        // multi-index transcription of the defining sum, at every thread
        // count.
        for (ic_n, oc_n, k, s, p, ie) in
            [(2, 3, 3, 2, 1, 6), (3, 2, 5, 2, 2, 8), (1, 4, 4, 2, 1, 16)]
        {
            let conv = Conv2d::new(ic_n, oc_n, k, s, p).unwrap();
            let geom = conv.geometry(ie);
            let w = det_tensor(&[oc_n, ic_n, k, k], 40);
            let dout = det_tensor(&[oc_n, geom.output, geom.output], 41);
            let pe = ie + 2 * p;
            let mut dpad = Tensor::zeros(&[ic_n, pe, pe]);
            for ic in 0..ic_n {
                for oc in 0..oc_n {
                    for oy in 0..geom.output {
                        for ox in 0..geom.output {
                            let g = dout[&[oc, oy, ox]];
                            if g == 0.0 {
                                continue;
                            }
                            for ky in 0..k {
                                for kx in 0..k {
                                    dpad[&[ic, oy * s + ky, ox * s + kx][..]] +=
                                        g * w[&[oc, ic, ky, kx]];
                                }
                            }
                        }
                    }
                }
            }
            let reference = Tensor::from_fn(&[ic_n, ie, ie], |i| dpad[&[i[0], i[1] + p, i[2] + p]]);
            for threads in [1, 2, 8] {
                let got = crate::parallel::with_threads(threads, || conv.input_grad(&dout, &w, ie));
                assert_eq!(got.shape(), reference.shape());
                for (a, b) in got.data().iter().zip(reference.data().iter()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn wconv_zero_insert_equals_defining_sum() {
        let conv = Conv2d::new(2, 3, 5, 2, 2).unwrap();
        let geom = WconvGeometry::new(8, 5, 2, 2).unwrap();
        let input = det_tensor(&[2, 8, 8], 30);
        let dout = det_tensor(&[3, 4, 4], 31);
        let a = conv.weight_grad(&input, &dout);
        let b = wconv_weight_grad_zero_insert(&input, &dout, &geom);
        assert_tensors_close(&a, &b, 1e-4);
    }

    #[test]
    fn tconv_inverts_shapes_of_converse_conv() {
        // The generator layer and its converse discriminator layer mirror
        // each other: T-CONV 4->8 corresponds to S-CONV 8->4.
        let geom = TconvGeometry::for_upsampling(4, 5, 2).unwrap();
        let conv = Conv2d::new(1, 1, 5, geom.converse_stride, geom.converse_pad).unwrap();
        assert_eq!(conv.geometry(geom.output).output, geom.input);
    }

    #[test]
    #[should_panic(expected = "weight shape mismatch")]
    fn forward_rejects_bad_weights() {
        let conv = Conv2d::new(1, 1, 3, 1, 1).unwrap();
        let input = Tensor::ones(&[1, 4, 4]);
        let w = Tensor::ones(&[1, 1, 2, 2]);
        let _ = conv.forward(&input, &w);
    }
}

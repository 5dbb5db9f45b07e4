//! Zero-free execution of T-CONV and W-CONV-S through reshaped matrices.
//!
//! This is the functional proof that ZFDR computes *exactly* what the
//! naive zero-insertion convolutions compute, while materialising one
//! reshaped matrix per pattern class and feeding only gathered true values.
//!
//! Two execution paths share the same plan, the same pre-materialised
//! reshaped matrices, and the same [`ZfdrStats`] accounting:
//!
//! * **Batched (default)** — [`execute_tconv`] / [`execute_wconv`] group
//!   all output positions sharing a `(row-class, col-class)` pattern pair,
//!   gather their input columns into one matrix, and run **one GEMM per
//!   pattern class** (the paper's "one reshaped matrix per pattern", Fig. 7,
//!   realised as a matrix-matrix product over the class's whole reuse set).
//!   Class batches run in parallel on the `lergan_tensor::parallel`
//!   substrate.
//! * **Per-position reference** — [`execute_tconv_reference`] /
//!   [`execute_wconv_reference`] issue one `mmv` per output position, the
//!   way a single ReRAM CArray read cycle would. This is the oracle the
//!   batched path is property-tested against.
//!
//! Both paths accumulate every output element in the same ascending
//! gather order from an f32 zero, so they agree **bit-for-bit**, and both
//! report identical logical statistics (MMVs are counted per output
//! position even when the batched path fuses them into one GEMM).
//!
//! Iterating callers (training loops, benchmark harnesses) should hold a
//! [`TconvEngine`] / [`WconvEngine`] instead of calling the free
//! functions: the engines cache the plan enumeration — and, for T-CONV,
//! the reshaped weight matrices — across calls, invalidating the matrices
//! only on [`TconvEngine::set_weights`]. Every call executes one sample;
//! a batch is one call per sample.

use crate::zfdr::plan::{AxisClass, ZfdrPlan};
use lergan_tensor::tensor::{gemm, mmv};
use lergan_tensor::{parallel, TconvGeometry, Tensor, WconvGeometry};

/// Statistics from one zero-free execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ZfdrStats {
    /// Distinct reshaped matrices materialised.
    pub reshaped_matrices: usize,
    /// Logical MMVs issued (one per output position).
    pub mmvs: usize,
    /// Scalar multiplications actually performed.
    pub multiplications: u128,
    /// Input values gathered and fed (no zeros among them).
    pub gathered_values: u128,
}

/// Output positions per axis class, ascending within each class.
fn positions_by_class(plan: &ZfdrPlan, positions: usize) -> Vec<Vec<usize>> {
    let mut groups = vec![Vec::new(); plan.axis_classes().len()];
    for pos in 0..positions {
        groups[plan.class_at(pos)].push(pos);
    }
    groups
}

/// All `(row-class, col-class)` pairs whose patterns are both non-empty —
/// the pairs that materialise a reshaped matrix. Pairs where either axis
/// pattern is empty cover only inserted zeros/padding: their outputs are
/// exactly zero and no matrix or MMV exists for them.
fn class_pairs(classes: &[AxisClass]) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    for (rc, row) in classes.iter().enumerate() {
        if row.pattern.is_empty() {
            continue;
        }
        for (cc, col) in classes.iter().enumerate() {
            if !col.pattern.is_empty() {
                pairs.push((rc, cc));
            }
        }
    }
    pairs
}

/// The analytic statistics both T-CONV paths report: per class pair, one
/// reshaped matrix and one logical MMV of `|pr|·|pc|·ic` gathered values
/// per covered output position.
fn tconv_stats(
    classes: &[AxisClass],
    groups: &[Vec<usize>],
    pairs: &[(usize, usize)],
    ic: usize,
    oc: usize,
) -> ZfdrStats {
    let mut stats = ZfdrStats {
        reshaped_matrices: pairs.len(),
        ..ZfdrStats::default()
    };
    for &(rc, cc) in pairs {
        let npos = groups[rc].len() * groups[cc].len();
        let veclen = classes[rc].pattern.len() * classes[cc].pattern.len() * ic;
        stats.mmvs += npos;
        stats.multiplications += (npos * oc * veclen) as u128;
        stats.gathered_values += (npos * veclen) as u128;
    }
    stats
}

/// The analytic statistics both W-CONV-S paths report: one logical MMV of
/// `|pr|·|pc|` gathered values per `(position, in-channel)`.
fn wconv_stats(
    classes: &[AxisClass],
    groups: &[Vec<usize>],
    pairs: &[(usize, usize)],
    ic: usize,
    oc: usize,
) -> ZfdrStats {
    let mut stats = ZfdrStats {
        reshaped_matrices: pairs.len(),
        ..ZfdrStats::default()
    };
    for &(rc, cc) in pairs {
        let npos = groups[rc].len() * groups[cc].len() * ic;
        let veclen = classes[rc].pattern.len() * classes[cc].pattern.len();
        stats.mmvs += npos;
        stats.multiplications += (npos * oc * veclen) as u128;
        stats.gathered_values += (npos * veclen) as u128;
    }
    stats
}

/// Pre-materialises the T-CONV reshaped weight matrix of every class pair:
/// `[OC, |pr|·|pc|·IC]` with column order `(ky in pr) × (kx in pc) × ic`.
///
/// The weights are first transposed once into one `[OC, IC]` slab per
/// kernel tap, so every pair matrix row is a concatenation of contiguous
/// `IC`-length slab runs instead of `|pr|·|pc|·IC` strided scalar reads.
fn tconv_class_matrices(
    weights: &Tensor,
    classes: &[AxisClass],
    pairs: &[(usize, usize)],
) -> Vec<Option<Tensor>> {
    let (oc, ic, w) = (weights.shape()[0], weights.shape()[1], weights.shape()[2]);
    let wdata = weights.data();
    let mut slabs = vec![0.0f32; w * w * oc * ic];
    for row in 0..oc {
        for ci in 0..ic {
            let kbase = (row * ic + ci) * w * w;
            let sbase = row * ic + ci;
            for tap in 0..w * w {
                slabs[tap * oc * ic + sbase] = wdata[kbase + tap];
            }
        }
    }
    let n = classes.len();
    let mut matrices = vec![None; n * n];
    for &(rc, cc) in pairs {
        let (pr, pc) = (&classes[rc].pattern, &classes[cc].pattern);
        let cols = pr.len() * pc.len() * ic;
        let mut data = Vec::with_capacity(oc * cols);
        for row in 0..oc {
            for &ky in pr {
                for &kx in pc {
                    let sbase = (ky * w + kx) * oc * ic + row * ic;
                    data.extend_from_slice(&slabs[sbase..sbase + ic]);
                }
            }
        }
        matrices[rc * n + cc] = Some(Tensor::from_vec(&[oc, cols], data));
    }
    matrices
}

/// Pre-materialises the *transposed* T-CONV reshaped weight matrix of
/// every class pair: `[|pr|·|pc|·IC, OC]` with row order
/// `(ky in pr) × (kx in pc) × ic`.
///
/// The batched path computes `gemm(gathered_t, matrix_t)`, which makes OC
/// the contiguous output dimension the dispatched kernels vectorise over,
/// while each output element still accumulates over the reshaped columns
/// in the exact ascending order the reference `mmv` uses. The weights are
/// first transposed once into one `[IC, OC]` slab per kernel tap, so every
/// pair matrix is a concatenation of contiguous `IC·OC` slab blocks.
fn tconv_class_matrices_t(
    weights: &Tensor,
    classes: &[AxisClass],
    pairs: &[(usize, usize)],
) -> Vec<Option<Tensor>> {
    let (oc, ic, w) = (weights.shape()[0], weights.shape()[1], weights.shape()[2]);
    let wdata = weights.data();
    let mut slabs = vec![0.0f32; w * w * ic * oc];
    for co in 0..oc {
        for ci in 0..ic {
            let kbase = (co * ic + ci) * w * w;
            for tap in 0..w * w {
                slabs[(tap * ic + ci) * oc + co] = wdata[kbase + tap];
            }
        }
    }
    let n = classes.len();
    let mut matrices = vec![None; n * n];
    for &(rc, cc) in pairs {
        let (pr, pc) = (&classes[rc].pattern, &classes[cc].pattern);
        let rows = pr.len() * pc.len() * ic;
        let mut data = Vec::with_capacity(rows * oc);
        for &ky in pr {
            for &kx in pc {
                let tbase = (ky * w + kx) * ic * oc;
                data.extend_from_slice(&slabs[tbase..tbase + ic * oc]);
            }
        }
        matrices[rc * n + cc] = Some(Tensor::from_vec(&[rows, oc], data));
    }
    matrices
}

/// Pre-materialises the W-CONV-S reshaped `∇output` matrix of every class
/// pair: `[OC, |pr|·|pc|]` with column order `(oy in pr) × (ox in pc)`.
fn wconv_class_matrices(
    dout: &Tensor,
    classes: &[AxisClass],
    pairs: &[(usize, usize)],
) -> Vec<Option<Tensor>> {
    let (oc, o) = (dout.shape()[0], dout.shape()[1]);
    let ddata = dout.data();
    let n = classes.len();
    let mut matrices = vec![None; n * n];
    for &(rc, cc) in pairs {
        let (pr, pc) = (&classes[rc].pattern, &classes[cc].pattern);
        let cols = pr.len() * pc.len();
        let mut data = Vec::with_capacity(oc * cols);
        for row in 0..oc {
            let rbase = row * o * o;
            for &oy in pr {
                for &ox in pc {
                    data.push(ddata[rbase + oy * o + ox]);
                }
            }
        }
        matrices[rc * n + cc] = Some(Tensor::from_vec(&[oc, cols], data));
    }
    matrices
}

/// Transposed analogue of [`wconv_class_matrices`]: `[|pr|·|pc|, OC]` with
/// row order `(oy in pr) × (ox in pc)`, for the batched
/// `gemm(gathered_t, matrix_t)` formulation.
fn wconv_class_matrices_t(
    dout: &Tensor,
    classes: &[AxisClass],
    pairs: &[(usize, usize)],
) -> Vec<Option<Tensor>> {
    let (oc, o) = (dout.shape()[0], dout.shape()[1]);
    let ddata = dout.data();
    let n = classes.len();
    let mut matrices = vec![None; n * n];
    for &(rc, cc) in pairs {
        let (pr, pc) = (&classes[rc].pattern, &classes[cc].pattern);
        let rows = pr.len() * pc.len();
        let mut data = Vec::with_capacity(rows * oc);
        for &oy in pr {
            for &ox in pc {
                let pbase = oy * o + ox;
                for co in 0..oc {
                    data.push(ddata[co * o * o + pbase]);
                }
            }
        }
        matrices[rc * n + cc] = Some(Tensor::from_vec(&[rows, oc], data));
    }
    matrices
}

fn check_tconv_operands(input: &Tensor, weights: &Tensor, geom: &TconvGeometry) -> (usize, usize) {
    let (oc, ic, w) = (weights.shape()[0], weights.shape()[1], weights.shape()[2]);
    assert_eq!(w, geom.kernel, "kernel extent mismatch");
    assert_eq!(input.shape(), &[ic, geom.input, geom.input], "input shape");
    (oc, ic)
}

/// A T-CONV ZFDR engine caching everything that survives across
/// iterations: the plan (axis classes, position groups, class pairs —
/// geometry-only) and the reshaped weight matrices (geometry + weights).
///
/// A training loop re-executes the same layer every iteration but changes
/// its weights only at optimiser steps, so the reshape cost is paid once
/// per weight *update* instead of once per *call*: build the engine once,
/// call [`TconvEngine::execute`] per iteration, and call
/// [`TconvEngine::set_weights`] after each update to invalidate and
/// rebuild the cached matrices.
///
/// Execution is bit-identical to [`execute_tconv`] — which is a thin
/// construct-and-execute wrapper over this engine — and therefore to
/// [`execute_tconv_reference`].
#[derive(Debug, Clone)]
pub struct TconvEngine {
    geom: TconvGeometry,
    plan: ZfdrPlan,
    groups: Vec<Vec<usize>>,
    pairs: Vec<(usize, usize)>,
    /// Transposed reshaped matrices (`[cols, OC]`, see
    /// [`tconv_class_matrices_t`]), indexed `rc * n_classes + cc`.
    matrices_t: Vec<Option<Tensor>>,
    oc: usize,
    ic: usize,
}

impl TconvEngine {
    /// Enumerates the plan for `geom` and materialises the reshaped
    /// matrices of `weights` (`[OC, IC, W, W]`).
    ///
    /// # Panics
    ///
    /// Panics if the kernel extent disagrees with the geometry.
    pub fn new(weights: &Tensor, geom: &TconvGeometry) -> Self {
        let (oc, ic, w) = (weights.shape()[0], weights.shape()[1], weights.shape()[2]);
        assert_eq!(w, geom.kernel, "kernel extent mismatch");
        let plan = ZfdrPlan::for_tconv(geom);
        let groups = positions_by_class(&plan, geom.output);
        let pairs = class_pairs(plan.axis_classes());
        let matrices_t = tconv_class_matrices_t(weights, plan.axis_classes(), &pairs);
        TconvEngine {
            geom: *geom,
            plan,
            groups,
            pairs,
            matrices_t,
            oc,
            ic,
        }
    }

    /// The geometry this engine was planned for.
    pub fn geometry(&self) -> &TconvGeometry {
        &self.geom
    }

    /// Invalidates the cached reshaped matrices and rebuilds them from
    /// updated weights; the geometry-derived plan is reused untouched.
    /// Call after every optimiser step that touches this layer's weights.
    ///
    /// # Panics
    ///
    /// Panics if the weight shape differs from construction.
    pub fn set_weights(&mut self, weights: &Tensor) {
        assert_eq!(
            weights.shape(),
            &[self.oc, self.ic, self.geom.kernel, self.geom.kernel],
            "weight shape changed under cached engine"
        );
        self.matrices_t = tconv_class_matrices_t(weights, self.plan.axis_classes(), &self.pairs);
    }

    /// Executes one T-CONV against the cached matrices: `input` is
    /// `[IC, I, I]`, returns the `[OC, O, O]` output and the statistics.
    /// Bit-identical to [`execute_tconv`] on the same weights.
    ///
    /// # Panics
    ///
    /// Panics on input shape mismatch.
    pub fn execute(&self, input: &Tensor) -> (Tensor, ZfdrStats) {
        let (oc, ic) = (self.oc, self.ic);
        let geom = &self.geom;
        let classes = self.plan.axis_classes();
        let o = geom.output;
        let p = geom.insertion_pad;
        let s = geom.converse_stride;
        let i_ext = geom.input;
        assert_eq!(input.shape(), &[ic, i_ext, i_ext], "input shape");
        let (groups, pairs, matrices_t) = (&self.groups, &self.pairs, &self.matrices_t);
        let n = classes.len();
        let idata = input.data();
        let iplane = i_ext * i_ext;

        // One gather + one GEMM per pattern class, classes in parallel.
        // The gather is one contiguous row per output position, in the
        // transposed matrix's row order, so `gemm(gathered_t, matrix_t)`
        // accumulates each output element over the gathered values in the
        // reference `mmv`'s ascending order — bit-identical results — while
        // OC is the contiguous dimension the shape-adaptive dispatch
        // (`lergan_tensor::dispatch`) hands to the SIMD lanes.
        let results: Vec<Tensor> = parallel::map_indexed(pairs.len(), |pi| {
            let (rc, cc) = pairs[pi];
            let (pr, pc) = (&classes[rc].pattern, &classes[cc].pattern);
            let (rows, cols) = (&groups[rc], &groups[cc]);
            let npos = rows.len() * cols.len();
            let dim = pr.len() * pc.len() * ic;
            let matrix_t = matrices_t[rc * n + cc].as_ref().expect("pair materialised");
            let mut gathered = Vec::with_capacity(npos * dim);
            for &oy in rows {
                for &ox in cols {
                    for &ky in pr {
                        let rbase = (oy + ky - p) / s * i_ext;
                        for &kx in pc {
                            let off = rbase + (ox + kx - p) / s;
                            for ci in 0..ic {
                                gathered.push(idata[ci * iplane + off]);
                            }
                        }
                    }
                }
            }
            gemm(&Tensor::from_vec(&[npos, dim], gathered), matrix_t)
        });

        let mut out = Tensor::zeros(&[oc, o, o]);
        let odata = out.data_mut();
        for (pi, &(rc, cc)) in pairs.iter().enumerate() {
            let (rows, cols) = (&groups[rc], &groups[cc]);
            let rdata = results[pi].data();
            let mut pos = 0;
            for &oy in rows {
                for &ox in cols {
                    let rbase = pos * oc;
                    let obase = oy * o + ox;
                    for co in 0..oc {
                        odata[co * o * o + obase] = rdata[rbase + co];
                    }
                    pos += 1;
                }
            }
        }
        (out, tconv_stats(classes, groups, pairs, ic, oc))
    }
}

/// Executes a T-CONV through T-CONV ZFDR, batching every pattern class
/// into one GEMM over its whole reuse set.
///
/// `input` is `[IC, I, I]`, `weights` are `[OC, IC, W, W]`; returns the
/// `[OC, O, O]` output and the execution statistics. Bit-identical to
/// [`execute_tconv_reference`] with identical statistics.
///
/// One-shot wrapper over [`TconvEngine`]; iterating callers should hold
/// an engine instead so the reshaped matrices are cached across calls.
///
/// # Panics
///
/// Panics on operand shape mismatches.
pub fn execute_tconv(
    input: &Tensor,
    weights: &Tensor,
    geom: &TconvGeometry,
) -> (Tensor, ZfdrStats) {
    check_tconv_operands(input, weights, geom);
    TconvEngine::new(weights, geom).execute(input)
}

/// Executes a T-CONV through T-CONV ZFDR, one MMV per output position —
/// the reference oracle mirroring a single CArray read cycle per position.
///
/// Same operands, output, and statistics as [`execute_tconv`].
///
/// # Panics
///
/// Panics on operand shape mismatches.
pub fn execute_tconv_reference(
    input: &Tensor,
    weights: &Tensor,
    geom: &TconvGeometry,
) -> (Tensor, ZfdrStats) {
    let (oc, ic) = check_tconv_operands(input, weights, geom);
    let plan = ZfdrPlan::for_tconv(geom);
    let classes = plan.axis_classes();
    let o = geom.output;
    let p = geom.insertion_pad;
    let s = geom.converse_stride;
    let i_ext = geom.input;
    let groups = positions_by_class(&plan, o);
    let pairs = class_pairs(classes);
    let matrices = tconv_class_matrices(weights, classes, &pairs);
    let n = classes.len();
    let idata = input.data();
    let iplane = i_ext * i_ext;
    let mut out = Tensor::zeros(&[oc, o, o]);
    let mut vec = Vec::new();

    for oy in 0..o {
        let rc = plan.class_at(oy);
        let pr = &classes[rc].pattern;
        if pr.is_empty() {
            continue;
        }
        for ox in 0..o {
            let cc = plan.class_at(ox);
            let pc = &classes[cc].pattern;
            if pc.is_empty() {
                // The window covers only inserted zeros/padding: the
                // output is exactly zero and no MMV is issued at all.
                continue;
            }
            let matrix = matrices[rc * n + cc].as_ref().expect("pair materialised");
            vec.clear();
            vec.reserve(pr.len() * pc.len() * ic);
            for &ky in pr {
                let rbase = (oy + ky - p) / s * i_ext;
                for &kx in pc {
                    let off = rbase + (ox + kx - p) / s;
                    for ci in 0..ic {
                        vec.push(idata[ci * iplane + off]);
                    }
                }
            }
            let result = mmv(matrix, &vec);
            for (co, &v) in result.iter().enumerate() {
                out[&[co, oy, ox][..]] = v;
            }
        }
    }
    (out, tconv_stats(classes, &groups, &pairs, ic, oc))
}

fn check_wconv_operands(input: &Tensor, dout: &Tensor, geom: &WconvGeometry) -> (usize, usize) {
    let f = geom.forward;
    let (ic, oc) = (input.shape()[0], dout.shape()[0]);
    assert_eq!(input.shape()[1], f.input, "input extent mismatch");
    assert_eq!(dout.shape()[1], f.output, "∇output extent mismatch");
    (ic, oc)
}

/// A W-CONV-S ZFDR engine caching the geometry-derived plan (axis
/// classes, position groups, class pairs) across iterations.
///
/// Unlike [`TconvEngine`], the reshaped matrices here are built from the
/// per-call `∇output` — fresh data every training step — so only the plan
/// enumeration is cacheable; there is no `set_weights` analogue.
/// Execution is bit-identical to [`execute_wconv`], which wraps this
/// engine one-shot.
#[derive(Debug, Clone)]
pub struct WconvEngine {
    geom: WconvGeometry,
    plan: ZfdrPlan,
    groups: Vec<Vec<usize>>,
    pairs: Vec<(usize, usize)>,
}

impl WconvEngine {
    /// Enumerates and caches the plan for `geom`.
    pub fn new(geom: &WconvGeometry) -> Self {
        let plan = ZfdrPlan::for_wconv(geom);
        let groups = positions_by_class(&plan, geom.gradient_extent());
        let pairs = class_pairs(plan.axis_classes());
        WconvEngine {
            geom: *geom,
            plan,
            groups,
            pairs,
        }
    }

    /// The geometry this engine was planned for.
    pub fn geometry(&self) -> &WconvGeometry {
        &self.geom
    }

    /// Executes one weight-gradient convolution against the cached plan:
    /// `input` is `[IC, I, I]`, `dout` is `[OC, O, O]`; returns
    /// `[OC, IC, W, W]` and the statistics. Bit-identical to
    /// [`execute_wconv`].
    ///
    /// # Panics
    ///
    /// Panics on operand shape mismatches.
    pub fn execute(&self, input: &Tensor, dout: &Tensor) -> (Tensor, ZfdrStats) {
        let (ic, oc) = check_wconv_operands(input, dout, &self.geom);
        let f = self.geom.forward;
        let classes = self.plan.axis_classes();
        let w = self.geom.gradient_extent();
        let i_ext = f.input;
        let (groups, pairs) = (&self.groups, &self.pairs);
        let matrices_t = wconv_class_matrices_t(dout, classes, pairs);
        let n = classes.len();
        let idata = input.data();
        let iplane = i_ext * i_ext;

        // Transposed gather: one contiguous row per (position, in-channel),
        // in `(oy in pr) × (ox in pc)` order — the transposed matrix's row
        // order — so `gemm(gathered_t, matrix_t)` gives each ∇W element the
        // reference `mmv` dot product, bit for bit, with OC as the
        // contiguous dimension the dispatched kernels vectorise over.
        let results: Vec<Tensor> = parallel::map_indexed(pairs.len(), |pi| {
            let (rc, cc) = pairs[pi];
            let (pr, pc) = (&classes[rc].pattern, &classes[cc].pattern);
            let (rows, cols) = (&groups[rc], &groups[cc]);
            let ncols = rows.len() * cols.len() * ic;
            let dim = pr.len() * pc.len();
            let matrix_t = matrices_t[rc * n + cc].as_ref().expect("pair materialised");
            let mut gathered = Vec::with_capacity(ncols * dim);
            for &wy in rows {
                for &wx in cols {
                    for ci in 0..ic {
                        let cbase = ci * iplane;
                        for &oh in pr {
                            let rbase = cbase + (wy + oh * f.stride - f.pad) * i_ext;
                            for &ow in pc {
                                gathered.push(idata[rbase + wx + ow * f.stride - f.pad]);
                            }
                        }
                    }
                }
            }
            gemm(&Tensor::from_vec(&[ncols, dim], gathered), matrix_t)
        });

        let mut dw = Tensor::zeros(&[oc, ic, w, w]);
        let ddata = dw.data_mut();
        for (pi, &(rc, cc)) in pairs.iter().enumerate() {
            let (rows, cols) = (&groups[rc], &groups[cc]);
            let rdata = results[pi].data();
            let mut col = 0;
            for &wy in rows {
                for &wx in cols {
                    for ci in 0..ic {
                        let obase = ci * w * w + wy * w + wx;
                        let rbase = col * oc;
                        for co in 0..oc {
                            ddata[co * ic * w * w + obase] = rdata[rbase + co];
                        }
                        col += 1;
                    }
                }
            }
        }
        (dw, wconv_stats(classes, groups, pairs, ic, oc))
    }
}

/// Executes the discriminator weight-gradient convolution through
/// W-CONV-S ZFDR, batching every pattern class into one GEMM over all of
/// its `(position, in-channel)` columns.
///
/// `input` is `[IC, I, I]`, `dout` is `[OC, O, O]`; returns
/// `[OC, IC, W, W]` and the statistics. Bit-identical to
/// [`execute_wconv_reference`] with identical statistics.
///
/// One-shot wrapper over [`WconvEngine`]; iterating callers should hold
/// an engine so the plan enumeration is cached across calls.
///
/// # Panics
///
/// Panics on operand shape mismatches.
pub fn execute_wconv(input: &Tensor, dout: &Tensor, geom: &WconvGeometry) -> (Tensor, ZfdrStats) {
    WconvEngine::new(geom).execute(input, dout)
}

/// Executes the W-CONV-S weight gradient one MMV per
/// `(position, in-channel)` — the reference oracle.
///
/// Same operands, output, and statistics as [`execute_wconv`].
///
/// # Panics
///
/// Panics on operand shape mismatches.
pub fn execute_wconv_reference(
    input: &Tensor,
    dout: &Tensor,
    geom: &WconvGeometry,
) -> (Tensor, ZfdrStats) {
    let (ic, oc) = check_wconv_operands(input, dout, geom);
    let f = geom.forward;
    let plan = ZfdrPlan::for_wconv(geom);
    let classes = plan.axis_classes();
    let w = geom.gradient_extent();
    let i_ext = f.input;
    let groups = positions_by_class(&plan, w);
    let pairs = class_pairs(classes);
    let matrices = wconv_class_matrices(dout, classes, &pairs);
    let n = classes.len();
    let idata = input.data();
    let iplane = i_ext * i_ext;
    let mut dw = Tensor::zeros(&[oc, ic, w, w]);
    let mut vec = Vec::new();

    for wy in 0..w {
        let rc = plan.class_at(wy);
        let pr = &classes[rc].pattern;
        if pr.is_empty() {
            continue;
        }
        for wx in 0..w {
            let cc = plan.class_at(wx);
            let pc = &classes[cc].pattern;
            if pc.is_empty() {
                // This ∇W entry multiplies only padding: it is exactly
                // zero, so no reshaped matrix or MMV is needed.
                continue;
            }
            let matrix = matrices[rc * n + cc].as_ref().expect("pair materialised");
            for ci in 0..ic {
                let cbase = ci * iplane;
                vec.clear();
                vec.reserve(pr.len() * pc.len());
                for &oh in pr {
                    let rbase = cbase + (wy + oh * f.stride - f.pad) * i_ext;
                    for &ow in pc {
                        vec.push(idata[rbase + wx + ow * f.stride - f.pad]);
                    }
                }
                let result = mmv(matrix, &vec);
                for (co, &v) in result.iter().enumerate() {
                    dw[&[co, ci, wy, wx][..]] = v;
                }
            }
        }
    }
    (dw, wconv_stats(classes, &groups, &pairs, ic, oc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lergan_tensor::conv::{tconv_forward_zero_insert, wconv_weight_grad_zero_insert};
    use lergan_tensor::{assert_tensors_close, Conv2d};

    fn det(shape: &[usize], seed: u32) -> Tensor {
        let mut state = seed.wrapping_mul(747796405).wrapping_add(1);
        Tensor::from_fn(shape, |_| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            ((state >> 16) as f32 / 65536.0) - 0.5
        })
    }

    #[test]
    fn tconv_zfdr_equals_zero_insertion_conv1() {
        // A scaled-down CONV1: same geometry, fewer channels.
        let geom = TconvGeometry::for_upsampling(4, 5, 2).unwrap();
        let input = det(&[8, 4, 4], 1);
        let weights = det(&[4, 8, 5, 5], 2);
        let (zf, stats) = execute_tconv(&input, &weights, &geom);
        let naive = tconv_forward_zero_insert(&input, &weights, &geom);
        assert_tensors_close(&zf, &naive, 1e-4);
        // Exactly 25 reshaped matrices, one MMV per output position.
        assert_eq!(stats.reshaped_matrices, 25);
        assert_eq!(stats.mmvs, 64);
        // Zero-free: multiplications match the analytic useful count.
        assert_eq!(
            stats.multiplications,
            geom.useful_multiplications_per_channel() as u128 * 8 * 4
        );
    }

    #[test]
    fn tconv_batched_is_bit_identical_to_reference() {
        for (i, w, s, ic, oc, seed) in [(4, 5, 2, 8, 4, 1), (5, 5, 3, 2, 3, 3), (8, 4, 2, 3, 2, 5)]
        {
            let geom = TconvGeometry::for_upsampling(i, w, s).unwrap();
            let input = det(&[ic, i, i], seed);
            let weights = det(&[oc, ic, w, w], seed + 1);
            let (batched, bstats) = execute_tconv(&input, &weights, &geom);
            let (reference, rstats) = execute_tconv_reference(&input, &weights, &geom);
            assert_eq!(batched.data(), reference.data(), "({i},{w},{s})");
            assert_eq!(bstats, rstats, "({i},{w},{s})");
        }
    }

    #[test]
    fn tconv_zfdr_handles_stride3() {
        let geom = TconvGeometry::for_upsampling(5, 5, 3).unwrap();
        let input = det(&[2, 5, 5], 3);
        let weights = det(&[3, 2, 5, 5], 4);
        let (zf, _) = execute_tconv(&input, &weights, &geom);
        let naive = tconv_forward_zero_insert(&input, &weights, &geom);
        assert_tensors_close(&zf, &naive, 1e-4);
    }

    #[test]
    fn tconv_zfdr_handles_asymmetric_end_pad() {
        // ArtGAN-style same-size stride-1 even-kernel layer.
        let geom = TconvGeometry::for_target(6, 4, 1, 6).unwrap();
        assert_eq!(geom.extra_end_pad, 1);
        let input = det(&[2, 6, 6], 5);
        let weights = det(&[2, 2, 4, 4], 6);
        let (zf, _) = execute_tconv(&input, &weights, &geom);
        let naive = tconv_forward_zero_insert(&input, &weights, &geom);
        assert_tensors_close(&zf, &naive, 1e-4);
    }

    #[test]
    fn wconv_zfdr_equals_zero_insertion() {
        let geom = WconvGeometry::new(8, 5, 2, 2).unwrap();
        let input = det(&[3, 8, 8], 7);
        let dout = det(&[2, 4, 4], 8);
        let (zf, stats) = execute_wconv(&input, &dout, &geom);
        let naive = wconv_weight_grad_zero_insert(&input, &dout, &geom);
        assert_tensors_close(&zf, &naive, 1e-4);
        // (boundary 2 + interior 1)^2 = 9 reshaped ∇outputs.
        assert_eq!(stats.reshaped_matrices, 9);
        assert_eq!(stats.mmvs, 5 * 5 * 3);
    }

    #[test]
    fn wconv_batched_is_bit_identical_to_reference() {
        for (i, w, s, p, ic, oc, seed) in [
            (8, 5, 2, 2, 3, 2, 7),
            (16, 4, 2, 1, 2, 2, 9),
            (9, 3, 1, 1, 2, 3, 11),
        ] {
            let geom = WconvGeometry::new(i, w, s, p).unwrap();
            let o = geom.forward.output;
            let input = det(&[ic, i, i], seed);
            let dout = det(&[oc, o, o], seed + 1);
            let (batched, bstats) = execute_wconv(&input, &dout, &geom);
            let (reference, rstats) = execute_wconv_reference(&input, &dout, &geom);
            assert_eq!(batched.data(), reference.data(), "({i},{w},{s},{p})");
            assert_eq!(bstats, rstats, "({i},{w},{s},{p})");
        }
    }

    #[test]
    fn wconv_zfdr_matches_defining_weight_grad() {
        let conv = Conv2d::new(2, 2, 4, 2, 1).unwrap();
        let geom = WconvGeometry::new(16, 4, 2, 1).unwrap();
        let input = det(&[2, 16, 16], 9);
        let dout = det(&[2, 8, 8], 10);
        let (zf, _) = execute_wconv(&input, &dout, &geom);
        let reference = conv.weight_grad(&input, &dout);
        assert_tensors_close(&zf, &reference, 1e-3);
    }

    #[test]
    fn tconv_engine_reuses_matrices_and_invalidates_on_set_weights() {
        let geom = TconvGeometry::for_upsampling(4, 5, 2).unwrap();
        let w1 = det(&[4, 8, 5, 5], 2);
        let mut engine = TconvEngine::new(&w1, &geom);
        // Several executions against the same cached matrices, each
        // bit-identical to the per-call reference path.
        for seed in [1, 21, 31] {
            let input = det(&[8, 4, 4], seed);
            let (cached, cstats) = engine.execute(&input);
            let (reference, rstats) = execute_tconv_reference(&input, &w1, &geom);
            assert_eq!(cached.data(), reference.data(), "seed {seed}");
            assert_eq!(cstats, rstats, "seed {seed}");
        }
        // A weight update must invalidate the cache: after set_weights the
        // engine computes the new weights' result, not the stale one.
        let w2 = det(&[4, 8, 5, 5], 40);
        let input = det(&[8, 4, 4], 50);
        let (stale, _) = engine.execute(&input);
        engine.set_weights(&w2);
        let (fresh, _) = engine.execute(&input);
        let (reference, _) = execute_tconv_reference(&input, &w2, &geom);
        assert_eq!(fresh.data(), reference.data());
        assert_ne!(stale.data(), fresh.data());
    }

    #[test]
    #[should_panic(expected = "weight shape changed")]
    fn tconv_engine_rejects_weight_shape_change() {
        let geom = TconvGeometry::for_upsampling(4, 5, 2).unwrap();
        let mut engine = TconvEngine::new(&det(&[4, 8, 5, 5], 2), &geom);
        engine.set_weights(&det(&[2, 8, 5, 5], 2));
    }

    #[test]
    fn wconv_engine_matches_reference_across_calls() {
        let geom = WconvGeometry::new(8, 5, 2, 2).unwrap();
        let o = geom.forward.output;
        let engine = WconvEngine::new(&geom);
        for seed in [7, 17, 27] {
            let input = det(&[3, 8, 8], seed);
            let dout = det(&[2, o, o], seed + 1);
            let (cached, cstats) = engine.execute(&input, &dout);
            let (reference, rstats) = execute_wconv_reference(&input, &dout, &geom);
            assert_eq!(cached.data(), reference.data(), "seed {seed}");
            assert_eq!(cstats, rstats, "seed {seed}");
        }
    }

    #[test]
    fn zfdr_never_feeds_zero_padding() {
        // gathered_values counts only true inputs: for the T-CONV case it
        // must equal the useful multiplications divided by out-channels.
        let geom = TconvGeometry::for_upsampling(8, 4, 2).unwrap();
        let input = det(&[2, 8, 8], 11);
        let weights = det(&[4, 2, 4, 4], 12);
        let (_, stats) = execute_tconv(&input, &weights, &geom);
        assert_eq!(stats.multiplications, stats.gathered_values * 4);
    }
}

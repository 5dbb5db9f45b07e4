//! The per-sample training oracle the trainer is pinned against.
//!
//! Every trainer layer is re-implemented here one sample at a time on the
//! `lergan-tensor` reference kernels: the loop-nest `Conv2d::forward`,
//! `Conv2d::weight_grad` and `Conv2d::input_grad`, the zero-insertion
//! T-CONV (`tconv_forward_zero_insert` over `expand_tconv_input`), the
//! zero-insertion D-CONV (`dconv_zero_insertion`, with its weight gradient
//! as the defining dot products over `im2col_dconv`) and `mmv` for the
//! dense layers. [`OracleGan::train_step`] runs a batch through them
//! sample by sample and folds the per-sample gradients with the library's
//! fixed reduction tree, in the order the library step accumulates them.
//! The library trainer must reproduce it bit for bit at any batch size
//! and worker count.
//!
//! Stacks are built from a [`NetworkSpec`] exactly as
//! `build_trainable_bound` lays them out, with their parameters taken from
//! a library checkpoint, so the oracle and the trainer start from the same
//! bits.

#![allow(dead_code)]

use lergan_gan::layer::{Layer, Norm};
use lergan_gan::train::{tree_reduce_in_place, GanCheckpoint, LayerState, UpdateRule};
use lergan_gan::NetworkSpec;
use lergan_tensor::conv::{tconv_forward_zero_insert, Conv2d};
use lergan_tensor::dconv::{dconv_zero_insertion, im2col_dconv};
use lergan_tensor::tensor::mmv;
use lergan_tensor::zero_insert::expand_tconv_input;
use lergan_tensor::{DconvGeometry, TconvGeometry, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Zero-free D-CONV input gradient: scatters `∇output` back through the
/// `Kh·Kw` true taps only, accumulating into a caller-owned `∇input` slice
/// of length `IC·H·W` that **must arrive zeroed**. For a fixed `∇input`
/// element the additions arrive in ascending `(co, oy, jy, ox, jx)` order
/// regardless of the caller, so the single-sample and batched trainers
/// produce bit-identical gradients through this one loop nest.
///
/// # Panics
///
/// Panics on operand shape mismatches.
pub fn dconv_input_grad_scatter(
    dout: &[f32],
    weights: &Tensor,
    geom: &DconvGeometry,
    din: &mut [f32],
) {
    let (oc, ic) = (weights.shape()[0], weights.shape()[1]);
    let (kh, kw) = (geom.rows.kernel, geom.cols.kernel);
    assert_eq!(weights.shape()[2], kh, "kernel row count mismatch");
    assert_eq!(weights.shape()[3], kw, "kernel col count mismatch");
    let (dil_h, dil_w) = (geom.rows.dilation, geom.cols.dilation);
    let (h, w) = (geom.rows.input, geom.cols.input);
    let (oh, ow) = (geom.rows.output, geom.cols.output);
    let (sh, sw) = (geom.rows.stride, geom.cols.stride);
    let (ph, pw) = (geom.rows.pad, geom.cols.pad);
    assert_eq!(dout.len(), oc * oh * ow, "∇output length mismatch");
    assert_eq!(din.len(), ic * h * w, "∇input length mismatch");
    let wdata = weights.data();
    for co in 0..oc {
        let gplane = &dout[co * oh * ow..(co + 1) * oh * ow];
        for ci in 0..ic {
            let taps = &wdata[(co * ic + ci) * kh * kw..(co * ic + ci + 1) * kh * kw];
            let dplane = &mut din[ci * h * w..(ci + 1) * h * w];
            for oy in 0..oh {
                for jy in 0..kh {
                    let y = oy * sh + jy * dil_h;
                    if y < ph || y >= ph + h {
                        continue;
                    }
                    let drow = &mut dplane[(y - ph) * w..(y - ph + 1) * w];
                    let grow = &gplane[oy * ow..(oy + 1) * ow];
                    for (ox, &gv) in grow.iter().enumerate() {
                        for jx in 0..kw {
                            let x = ox * sw + jx * dil_w;
                            if x < pw || x >= pw + w {
                                continue;
                            }
                            drow[x - pw] += taps[jy * kw + jx] * gv;
                        }
                    }
                }
            }
        }
    }
}

/// Lazily created optimiser moments of one parameter tensor.
#[derive(Default)]
struct Moments {
    m: Option<Tensor>,
    v: Option<Tensor>,
}

impl Moments {
    fn load(state: &LayerState, prefix: &str) -> Self {
        Moments {
            m: state.get(&format!("{prefix}.m")).cloned(),
            v: state.get(&format!("{prefix}.v")).cloned(),
        }
    }

    fn save(&self, prefix: &str, state: &mut LayerState) {
        if let Some(m) = &self.m {
            state.push(&format!("{prefix}.m"), m.clone());
        }
        if let Some(v) = &self.v {
            state.push(&format!("{prefix}.v"), v.clone());
        }
    }

    /// One optimiser update of `param` from the accumulated `grad`.
    fn apply(&mut self, rule: &UpdateRule, step: u64, param: &mut Tensor, grad: &Tensor) {
        match *rule {
            UpdateRule::Sgd { lr } => param.axpy_in_place(-lr, grad),
            UpdateRule::Momentum { lr, beta } => {
                let m = self.m.get_or_insert_with(|| Tensor::zeros(grad.shape()));
                m.scale_in_place(beta);
                m.axpy_in_place(1.0, grad);
                param.axpy_in_place(-lr, m);
            }
            UpdateRule::Adam {
                lr,
                beta1,
                beta2,
                eps,
            } => {
                let m = self.m.get_or_insert_with(|| Tensor::zeros(grad.shape()));
                m.scale_in_place(beta1);
                m.axpy_in_place(1.0 - beta1, grad);
                let v = self.v.get_or_insert_with(|| Tensor::zeros(grad.shape()));
                let squares: Vec<f32> = grad.data().iter().map(|&g| g * g).collect();
                v.scale_in_place(beta2);
                v.axpy_slice_in_place(1.0 - beta2, &squares);
                let t = i32::try_from(step.max(1)).unwrap_or(i32::MAX);
                let mc = 1.0 - beta1.powi(t);
                let vc = 1.0 - beta2.powi(t);
                let update: Vec<f32> = m
                    .data()
                    .iter()
                    .zip(v.data())
                    .map(|(&mi, &vi)| (mi / mc) / ((vi / vc).sqrt() + eps))
                    .collect();
                param.axpy_slice_in_place(-lr, &update);
            }
        }
    }
}

/// One trainable parameter: its value, its accumulated gradient, the last
/// sample's gradient and its optimiser moments.
struct Param {
    value: Tensor,
    grad: Tensor,
    sample_grad: Tensor,
    moments: Moments,
}

impl Param {
    fn load(state: &LayerState, key: &str, moments: &str) -> Self {
        let value = state
            .get(key)
            .unwrap_or_else(|| panic!("checkpoint lacks {key}"))
            .clone();
        Param {
            grad: Tensor::zeros(value.shape()),
            sample_grad: Tensor::zeros(value.shape()),
            moments: Moments::load(state, moments),
            value,
        }
    }
}

/// One layer of the oracle stack with its single-sample caches.
enum Kind {
    Dense {
        input: Tensor,
    },
    Conv {
        op: Conv2d,
        input: Tensor,
    },
    Tconv {
        geom: TconvGeometry,
        expanded: Tensor,
    },
    Dconv {
        geom: DconvGeometry,
        cols: Tensor,
    },
    BatchNorm(BatchNormState),
    PixelNorm {
        normalized: Tensor,
        inv_norm: Vec<f32>,
    },
    LeakyRelu {
        input: Tensor,
    },
    Tanh {
        output: Tensor,
    },
    Reshape {
        from: Vec<usize>,
        to: Vec<usize>,
    },
}

struct BatchNormState {
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    normalized: Tensor,
    inv_std: Vec<f32>,
}

const BN_EPS: f32 = 1e-5;
const BN_MOMENTUM: f32 = 0.1;
const PN_EPS: f32 = 1e-8;
const LEAKY_SLOPE: f32 = 0.2;

struct OracleLayer {
    kind: Kind,
    /// `[weights]`, or `[gamma, beta]` for batch norm; empty when
    /// stateless.
    params: Vec<Param>,
}

fn empty() -> Tensor {
    Tensor::zeros(&[1])
}

impl OracleLayer {
    fn stateless(kind: Kind) -> Self {
        OracleLayer {
            kind,
            params: Vec::new(),
        }
    }

    fn weighted(kind: Kind, state: &LayerState) -> Self {
        OracleLayer {
            kind,
            params: vec![Param::load(state, "weights", "opt")],
        }
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        match &mut self.kind {
            Kind::Dense { input } => {
                *input = x.clone();
                let w = &self.params[0].value;
                Tensor::from_vec(&[w.shape()[0]], mmv(w, x.data()))
            }
            Kind::Conv { op, input } => {
                *input = x.clone();
                op.forward(x, &self.params[0].value)
            }
            Kind::Tconv { geom, expanded } => {
                *expanded = expand_tconv_input(x, geom);
                tconv_forward_zero_insert(x, &self.params[0].value, geom)
            }
            Kind::Dconv { geom, cols } => {
                *cols = im2col_dconv(x, geom);
                dconv_zero_insertion(x, &self.params[0].value, geom)
            }
            Kind::BatchNorm(bn) => {
                let (c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2]);
                let plane = h * w;
                let n = plane as f32;
                let (gamma, beta) = (self.params[0].value.data(), self.params[1].value.data());
                let mut out = vec![0.0; c * plane];
                let mut normalized = vec![0.0; c * plane];
                bn.inv_std = vec![0.0; c];
                for ci in 0..c {
                    let ip = &x.data()[ci * plane..(ci + 1) * plane];
                    let mut mean = 0.0;
                    for &v in ip {
                        mean += v;
                    }
                    mean /= n;
                    let mut var = 0.0;
                    for &v in ip {
                        let d = v - mean;
                        var += d * d;
                    }
                    var /= n;
                    let inv_std = 1.0 / (var + BN_EPS).sqrt();
                    bn.inv_std[ci] = inv_std;
                    bn.running_mean[ci] =
                        (1.0 - BN_MOMENTUM) * bn.running_mean[ci] + BN_MOMENTUM * mean;
                    bn.running_var[ci] =
                        (1.0 - BN_MOMENTUM) * bn.running_var[ci] + BN_MOMENTUM * var;
                    for p in 0..plane {
                        let norm = (ip[p] - mean) * inv_std;
                        normalized[ci * plane + p] = norm;
                        out[ci * plane + p] = gamma[ci] * norm + beta[ci];
                    }
                }
                bn.normalized = Tensor::from_vec(x.shape(), normalized);
                Tensor::from_vec(x.shape(), out)
            }
            Kind::PixelNorm {
                normalized,
                inv_norm,
            } => {
                let c = x.shape()[0];
                let plane = x.shape()[1] * x.shape()[2];
                let cn = c as f32;
                let data = x.data();
                let mut out = vec![0.0; c * plane];
                *inv_norm = vec![0.0; plane];
                for p in 0..plane {
                    let mut ss = 0.0;
                    for ci in 0..c {
                        let v = data[ci * plane + p];
                        ss += v * v;
                    }
                    let inv = 1.0 / (ss / cn + PN_EPS).sqrt();
                    inv_norm[p] = inv;
                    for ci in 0..c {
                        out[ci * plane + p] = data[ci * plane + p] * inv;
                    }
                }
                *normalized = Tensor::from_vec(x.shape(), out.clone());
                Tensor::from_vec(x.shape(), out)
            }
            Kind::LeakyRelu { input } => {
                *input = x.clone();
                x.map(|v| if v > 0.0 { v } else { LEAKY_SLOPE * v })
            }
            Kind::Tanh { output } => {
                *output = x.map(lergan_tensor::tanh);
                output.clone()
            }
            Kind::Reshape { to, .. } => x.reshaped(to),
        }
    }

    /// Backward of the last forward: sets each parameter's `sample_grad`
    /// and returns `∇input`.
    fn backward(&mut self, g: &Tensor) -> Tensor {
        let (din, grads) = self.gradients(g);
        for (p, grad) in self.params.iter_mut().zip(grads) {
            p.sample_grad = grad;
        }
        din
    }

    /// `∇input` and the per-parameter gradients of the last forward.
    fn gradients(&self, g: &Tensor) -> (Tensor, Vec<Tensor>) {
        match &self.kind {
            Kind::Dense { input } => {
                let w = &self.params[0].value;
                let (o, i) = (w.shape()[0], w.shape()[1]);
                let x = input.data();
                let dw = Tensor::from_fn(&[o, i], |idx| g.data()[idx[0]] * x[idx[1]]);
                let din: Vec<f32> = (0..i)
                    .map(|ii| {
                        let mut acc = 0.0;
                        for oi in 0..o {
                            acc += g.data()[oi] * w.data()[oi * i + ii];
                        }
                        acc
                    })
                    .collect();
                (Tensor::from_vec(input.shape(), din), vec![dw])
            }
            Kind::Conv { op, input } => {
                let din = op.input_grad(g, &self.params[0].value, input.shape()[1]);
                (din, vec![op.weight_grad(input, g)])
            }
            Kind::Tconv { geom, expanded } => {
                let w = &self.params[0].value;
                let (oc, ic) = (w.shape()[0], w.shape()[1]);
                let inner = Conv2d::new(ic, oc, geom.kernel, 1, 0).expect("valid geometry");
                let dex = inner.input_grad(g, w, geom.expanded());
                let (p, s) = (geom.insertion_pad, geom.converse_stride);
                let din = Tensor::from_fn(&[ic, geom.input, geom.input], |idx| {
                    dex[&[idx[0], p + idx[1] * s, p + idx[2] * s]]
                });
                (din, vec![inner.weight_grad(expanded, g)])
            }
            Kind::Dconv { geom, cols } => {
                let w = &self.params[0].value;
                let (oc, ic) = (w.shape()[0], w.shape()[1]);
                let (kh, kw) = (geom.rows.kernel, geom.cols.kernel);
                let (eh, ew) = (geom.rows.effective_kernel(), geom.cols.effective_kernel());
                let (dh, dw) = (geom.rows.dilation, geom.cols.dilation);
                let oo = geom.rows.output * geom.cols.output;
                // ∇W over the zero-inserted kernel by its defining dot
                // products, then the true taps at the dilation multiples.
                let dw_taps = Tensor::from_fn(&[oc, ic, kh, kw], |idx| {
                    let row = (idx[1] * eh + idx[2] * dh) * ew + idx[3] * dw;
                    let mut acc = 0.0;
                    for pos in 0..oo {
                        acc += g.data()[idx[0] * oo + pos] * cols.data()[row * oo + pos];
                    }
                    acc
                });
                let (h, wd) = (geom.rows.input, geom.cols.input);
                let mut din = vec![0.0; ic * h * wd];
                dconv_input_grad_scatter(g.data(), w, geom, &mut din);
                (Tensor::from_vec(&[ic, h, wd], din), vec![dw_taps])
            }
            Kind::BatchNorm(bn) => {
                let normalized = &bn.normalized;
                let c = normalized.shape()[0];
                let plane = normalized.shape()[1] * normalized.shape()[2];
                let n = plane as f32;
                let gamma = self.params[0].value.data().to_vec();
                let mut dgamma = vec![0.0; c];
                let mut dbeta = vec![0.0; c];
                let mut din = vec![0.0; c * plane];
                for ci in 0..c {
                    let gp = &g.data()[ci * plane..(ci + 1) * plane];
                    let np = &normalized.data()[ci * plane..(ci + 1) * plane];
                    let mut sum_dy = 0.0;
                    let mut sum_dy_norm = 0.0;
                    for (&dy, &norm) in gp.iter().zip(np) {
                        sum_dy += dy;
                        sum_dy_norm += dy * norm;
                    }
                    dbeta[ci] = sum_dy;
                    dgamma[ci] = sum_dy_norm;
                    let inv_std = bn.inv_std[ci];
                    for p in 0..plane {
                        din[ci * plane + p] =
                            gamma[ci] * inv_std / n * (n * gp[p] - sum_dy - np[p] * sum_dy_norm);
                    }
                }
                (
                    Tensor::from_vec(normalized.shape(), din),
                    vec![
                        Tensor::from_vec(&[c], dgamma),
                        Tensor::from_vec(&[c], dbeta),
                    ],
                )
            }
            Kind::PixelNorm {
                normalized,
                inv_norm,
            } => {
                let c = normalized.shape()[0];
                let plane = normalized.shape()[1] * normalized.shape()[2];
                let cn = c as f32;
                let (nd, gd) = (normalized.data(), g.data());
                let mut din = vec![0.0; c * plane];
                for p in 0..plane {
                    let mut dot = 0.0;
                    for ci in 0..c {
                        dot += gd[ci * plane + p] * nd[ci * plane + p];
                    }
                    for ci in 0..c {
                        din[ci * plane + p] =
                            inv_norm[p] * (gd[ci * plane + p] - nd[ci * plane + p] * dot / cn);
                    }
                }
                (Tensor::from_vec(normalized.shape(), din), Vec::new())
            }
            Kind::LeakyRelu { input } => (
                input.zip_with(g, |x, d| if x > 0.0 { d } else { LEAKY_SLOPE * d }),
                Vec::new(),
            ),
            Kind::Tanh { output } => (output.zip_with(g, |y, d| d * (1.0 - y * y)), Vec::new()),
            Kind::Reshape { from, .. } => (g.reshaped(from), Vec::new()),
        }
    }

    fn state(&self) -> LayerState {
        let mut s = LayerState::empty();
        match &self.kind {
            Kind::BatchNorm(bn) => {
                let c = bn.running_mean.len();
                s.push("gamma", self.params[0].value.clone());
                s.push("beta", self.params[1].value.clone());
                s.push(
                    "running_mean",
                    Tensor::from_vec(&[c], bn.running_mean.clone()),
                );
                s.push(
                    "running_var",
                    Tensor::from_vec(&[c], bn.running_var.clone()),
                );
                self.params[0].moments.save("opt_gamma", &mut s);
                self.params[1].moments.save("opt_beta", &mut s);
            }
            _ => {
                if let Some(p) = self.params.first() {
                    s.push("weights", p.value.clone());
                    p.moments.save("opt", &mut s);
                }
            }
        }
        s
    }
}

/// A sequential stack of oracle layers with the library's skip routing.
pub struct OracleStack {
    layers: Vec<OracleLayer>,
    /// `(from, to)` stack positions of each residual connection.
    skips: Vec<(usize, usize)>,
    stash: Vec<Tensor>,
    grad_stash: Vec<Tensor>,
}

impl OracleStack {
    /// The stack `build_trainable_with(spec, is_generator, batch_norm)`
    /// builds, with every parameter, running statistic and optimiser
    /// moment taken from `states` (a library stack's `capture_state`).
    pub fn build(
        spec: &NetworkSpec,
        is_generator: bool,
        batch_norm: bool,
        states: &[LayerState],
    ) -> Self {
        let mut layers = Vec::new();
        let mut first_of = Vec::new();
        let n = spec.layers.len();
        for (i, layer) in spec.layers.iter().enumerate() {
            first_of.push(layers.len());
            let state = &states[layers.len()];
            match layer {
                Layer::Fc(_) => {
                    layers.push(OracleLayer::weighted(Kind::Dense { input: empty() }, state));
                    if let Some(next) = spec.layers.get(i + 1) {
                        if !matches!(next, Layer::Fc(_)) {
                            let (c, s) = (next.fan_in_channels(), next.in_spatial());
                            let from = vec![c * s * s];
                            layers.push(OracleLayer::stateless(Kind::Reshape {
                                from,
                                to: vec![c, s, s],
                            }));
                        }
                    }
                }
                Layer::Conv(c) => {
                    let g = c.geometry;
                    let op = Conv2d::new(c.in_channels, c.out_channels, g.kernel, g.stride, g.pad)
                        .expect("valid geometry");
                    layers.push(OracleLayer::weighted(
                        Kind::Conv { op, input: empty() },
                        state,
                    ));
                }
                Layer::Tconv(t) => layers.push(OracleLayer::weighted(
                    Kind::Tconv {
                        geom: t.geometry,
                        expanded: empty(),
                    },
                    state,
                )),
                Layer::Dconv(d) => layers.push(OracleLayer::weighted(
                    Kind::Dconv {
                        geom: d.geometry,
                        cols: empty(),
                    },
                    state,
                )),
            }
            let last = i + 1 == n;
            let conv_like = !matches!(layer, Layer::Fc(_));
            let norm = match spec.norm_of(i) {
                Norm::Legacy if batch_norm && !last && conv_like => Some(true),
                Norm::Batch if conv_like => Some(true),
                Norm::Pixel if conv_like => Some(false),
                _ => None,
            };
            match norm {
                Some(true) => {
                    let state = &states[layers.len()];
                    let stat = |key: &str| state.get(key).expect("running stats").data().to_vec();
                    layers.push(OracleLayer {
                        kind: Kind::BatchNorm(BatchNormState {
                            running_mean: stat("running_mean"),
                            running_var: stat("running_var"),
                            normalized: empty(),
                            inv_std: Vec::new(),
                        }),
                        params: vec![
                            Param::load(state, "gamma", "opt_gamma"),
                            Param::load(state, "beta", "opt_beta"),
                        ],
                    });
                }
                Some(false) => layers.push(OracleLayer::stateless(Kind::PixelNorm {
                    normalized: empty(),
                    inv_norm: Vec::new(),
                })),
                None => {}
            }
            if last && is_generator {
                layers.push(OracleLayer::stateless(Kind::Tanh { output: empty() }));
            } else if !last {
                layers.push(OracleLayer::stateless(Kind::LeakyRelu { input: empty() }));
            }
        }
        assert_eq!(
            layers.len(),
            states.len(),
            "oracle and library stacks differ"
        );
        let skips: Vec<(usize, usize)> = spec
            .skips
            .iter()
            .map(|sk| (first_of[sk.from + 1] - 1, first_of[sk.to]))
            .collect();
        OracleStack {
            stash: vec![empty(); skips.len()],
            grad_stash: vec![empty(); skips.len()],
            layers,
            skips,
        }
    }

    /// Forward of one unbatched sample.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        let mut x = input.clone();
        for li in 0..self.layers.len() {
            for (k, &(_, to)) in self.skips.iter().enumerate() {
                if to == li {
                    x.axpy_in_place(1.0, &self.stash[k]);
                }
            }
            x = self.layers[li].forward(&x);
            for (k, &(from, _)) in self.skips.iter().enumerate() {
                if from == li {
                    self.stash[k] = x.clone();
                }
            }
        }
        x
    }

    /// Backward of the last forward: sets every parameter's per-sample
    /// gradient and returns `∇input`.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = grad_out.clone();
        for li in (0..self.layers.len()).rev() {
            for (k, &(from, _)) in self.skips.iter().enumerate() {
                if from == li {
                    g.axpy_in_place(1.0, &self.grad_stash[k]);
                }
            }
            g = self.layers[li].backward(&g);
            for (k, &(_, to)) in self.skips.iter().enumerate() {
                if to == li {
                    self.grad_stash[k] = g.clone();
                }
            }
        }
        g
    }

    /// The last backward's per-sample gradients, per layer and parameter.
    pub fn sample_grads(&self) -> Vec<Vec<Tensor>> {
        self.layers
            .iter()
            .map(|l| l.params.iter().map(|p| p.sample_grad.clone()).collect())
            .collect()
    }

    /// Folds per-sample gradients (one [`sample_grads`] snapshot per
    /// sample, in batch order) with the fixed reduction tree and adds the
    /// result to the accumulated gradients.
    ///
    /// [`sample_grads`]: OracleStack::sample_grads
    pub fn accumulate(&mut self, samples: &[Vec<Vec<Tensor>>]) {
        let batch = samples.len();
        for (li, layer) in self.layers.iter_mut().enumerate() {
            for (pi, param) in layer.params.iter_mut().enumerate() {
                let len = param.grad.len();
                let mut parts = Vec::with_capacity(batch * len);
                for sample in samples {
                    parts.extend_from_slice(sample[li][pi].data());
                }
                tree_reduce_in_place(&mut parts, batch, len);
                param.grad.axpy_slice_in_place(1.0, &parts[..len]);
            }
        }
    }

    /// The accumulated gradients in the library's `capture_grads` layout.
    pub fn grads(&self) -> Vec<LayerState> {
        self.layers
            .iter()
            .map(|l| {
                let mut s = LayerState::empty();
                match l.params.as_slice() {
                    [w] => s.push("grad", w.grad.clone()),
                    [gamma, beta] => {
                        s.push("grad_gamma", gamma.grad.clone());
                        s.push("grad_beta", beta.grad.clone());
                    }
                    _ => {}
                }
                s
            })
            .collect()
    }

    pub fn apply_update(&mut self, rule: &UpdateRule, step: u64) {
        for p in self.layers.iter_mut().flat_map(|l| l.params.iter_mut()) {
            p.moments.apply(rule, step, &mut p.value, &p.grad);
            p.grad.fill(0.0);
        }
    }

    pub fn zero_grads(&mut self) {
        for p in self.layers.iter_mut().flat_map(|l| l.params.iter_mut()) {
            p.grad.fill(0.0);
        }
    }

    /// The persistent state in the library's `capture_state` layout.
    pub fn states(&self) -> Vec<LayerState> {
        self.layers.iter().map(OracleLayer::state).collect()
    }
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

fn bce_with_logit(logit: f32, target: f32) -> f32 {
    logit.max(0.0) - logit * target + (1.0 + (-logit.abs()).exp()).ln()
}

/// A GAN trained sample by sample: the reference for `Gan::train_step`
/// and `Gan::train_step_batched`.
pub struct OracleGan {
    pub generator: OracleStack,
    pub discriminator: OracleStack,
    noise_dim: usize,
    rule: UpdateRule,
    step: u64,
    rng: StdRng,
}

impl OracleGan {
    /// The oracle twin of a library GAN whose stacks were built from
    /// `g_spec`/`d_spec` (with `batch_norm`) and snapshotted as `ckpt`.
    pub fn from_checkpoint(
        g_spec: &NetworkSpec,
        d_spec: &NetworkSpec,
        batch_norm: bool,
        ckpt: &GanCheckpoint,
        noise_dim: usize,
        rule: UpdateRule,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(0);
        rng.set_state(ckpt.rng_state);
        OracleGan {
            generator: OracleStack::build(g_spec, true, batch_norm, &ckpt.generator),
            discriminator: OracleStack::build(d_spec, false, batch_norm, &ckpt.discriminator),
            noise_dim,
            rule,
            step: ckpt.step,
            rng,
        }
    }

    fn noise(&mut self) -> Tensor {
        let values = (0..self.noise_dim)
            .map(|_| self.rng.gen::<f32>() * 2.0 - 1.0)
            .collect();
        Tensor::from_vec(&[self.noise_dim], values)
    }

    /// One training step over `reals`, returning `(d_loss, g_loss)`: D on
    /// the reals (target 1) and on fresh fakes (target 0), then G through
    /// the frozen D. Each phase draws its `B` noise vectors up front,
    /// runs the samples one by one and folds their gradients with the
    /// fixed tree.
    pub fn train_step(&mut self, reals: &[Tensor]) -> (f32, f32) {
        let m = reals.len() as f32;
        let d = &mut self.discriminator;
        let mut d_loss = 0.0;
        let mut samples = Vec::new();
        for real in reals {
            let l = d.forward(real).data()[0];
            d_loss += bce_with_logit(l, 1.0);
            d.backward(&Tensor::from_vec(&[1], vec![(sigmoid(l) - 1.0) / m]));
            samples.push(d.sample_grads());
        }
        self.discriminator.accumulate(&samples);
        let noise: Vec<Tensor> = reals.iter().map(|_| self.noise()).collect();
        samples.clear();
        for z in &noise {
            let fake = self.generator.forward(z);
            let d = &mut self.discriminator;
            let l = d.forward(&fake).data()[0];
            d_loss += bce_with_logit(l, 0.0);
            d.backward(&Tensor::from_vec(&[1], vec![(sigmoid(l) - 0.0) / m]));
            samples.push(d.sample_grads());
        }
        self.discriminator.accumulate(&samples);
        self.step += 1;
        self.discriminator.apply_update(&self.rule, self.step);
        self.generator.zero_grads();

        let mut g_loss = 0.0;
        let noise: Vec<Tensor> = reals.iter().map(|_| self.noise()).collect();
        samples.clear();
        for z in &noise {
            let fake = self.generator.forward(z);
            let l = self.discriminator.forward(&fake).data()[0];
            g_loss += bce_with_logit(l, 1.0);
            let seed = Tensor::from_vec(&[1], vec![(sigmoid(l) - 1.0) / m]);
            let d_input_grad = self.discriminator.backward(&seed);
            self.generator.backward(&d_input_grad);
            samples.push(self.generator.sample_grads());
        }
        self.generator.accumulate(&samples);
        self.generator.apply_update(&self.rule, self.step);
        self.discriminator.zero_grads();
        (d_loss / (2.0 * m), g_loss / m)
    }

    /// The oracle's state as a library checkpoint (checksummed, so
    /// checkpoint equality is bit equality of every tensor).
    pub fn checkpoint(&self) -> GanCheckpoint {
        let mut ckpt = GanCheckpoint {
            generator: self.generator.states(),
            discriminator: self.discriminator.states(),
            step: self.step,
            rng_state: self.rng.state(),
            checksum: 0,
        };
        ckpt.checksum = ckpt.payload_digest();
        ckpt
    }
}

/// Bit-compares two `[C, ...]`-keyed layer state lists (checkpoints or
/// gradient snapshots), naming the first mismatch.
pub fn assert_states_bitwise(lib: &[LayerState], oracle: &[LayerState], what: &str) {
    assert_eq!(lib.len(), oracle.len(), "{what}: layer count");
    for (li, (l, o)) in lib.iter().zip(oracle).enumerate() {
        let lk: Vec<&str> = l.entries().map(|(k, _)| k).collect();
        let ok: Vec<&str> = o.entries().map(|(k, _)| k).collect();
        assert_eq!(lk, ok, "{what}: layer {li} keys");
        for ((key, lt), (_, ot)) in l.entries().zip(o.entries()) {
            assert_eq!(lt.shape(), ot.shape(), "{what}: layer {li} {key} shape");
            for (i, (a, b)) in lt.data().iter().zip(ot.data()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{what}: layer {li} {key}[{i}] ({a} vs {b})"
                );
            }
        }
    }
}

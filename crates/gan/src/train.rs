//! A functional GAN trainer: real forward/backward/SGD over `f32` tensors.
//!
//! The accelerator model in the rest of the workspace reasons about
//! *shapes*; this module proves the substrate end-to-end by actually
//! training the minimax objective of Eq. 1–2 with minibatch SGD, exactly
//! the dataflow of Fig. 3: `G→`, `D→`, error computation at the output
//! layer, `D←`/`D-w`, and — when training the generator — `G←`/`G-w`.
//!
//! The discriminator ends in a raw logit; both losses use the numerically
//! stable sigmoid-BCE formulation, whose output-layer error is
//! `σ(logit) − target`.

use crate::ir::{GemmShape, OpId};
use crate::layer::{Layer, Norm};
use crate::phase::Phase;
use crate::topology::NetworkSpec;
use lergan_tensor::im2col::{ConvGeometry, ConvPlan};
use lergan_tensor::kernel::{gemm_buf, gemm_nt_buf};
use lergan_tensor::parallel;
use lergan_tensor::workspace::with_thread_workspace;
use lergan_tensor::{Tensor, Workspace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which gradients a backward pass produces.
///
/// Fixed by the training step's dataflow, not a tuning knob: the
/// discriminator half of a step reads D's parameter gradients but never
/// ∇image, and the generator half reads D's ∇input but never D's
/// parameter gradients, and G's parameter gradients but never ∇noise.
/// Whatever is asked for is computed exactly as by [`Grads::All`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grads {
    /// Parameter gradients and the input gradient.
    All,
    /// Parameter gradients only; no input gradient is computed.
    Params,
    /// The input gradient only; accumulated parameter gradients are left
    /// untouched.
    Input,
}

impl Grads {
    /// Whether parameter gradients are accumulated.
    pub fn params(self) -> bool {
        self != Grads::Input
    }

    /// Whether the input gradient is computed and returned.
    pub fn input(self) -> bool {
        self != Grads::Params
    }

    /// The request for a layer whose input gradient feeds another layer:
    /// this one's parameter part, plus the input gradient.
    fn with_input(self) -> Grads {
        if self == Grads::Params {
            Grads::All
        } else {
            self
        }
    }
}

/// A layer that can run forward, backward and SGD updates.
///
/// Every pass covers a sample-major `[batch, ...]` activation; a single
/// sample is a batch of one. [`forward_batch`](Self::forward_batch)
/// caches whatever [`backward_batch`](Self::backward_batch) needs;
/// `backward_batch` accumulates parameter gradients and computes the
/// gradient w.r.t. the layer input, each only when its [`Grads`] request
/// asks for it.
///
/// Every method draws its scratch and result buffers from the caller's
/// [`Workspace`]: returned tensors are built on pooled buffers, and the
/// caller recycles them into the same workspace once consumed (see
/// [`Sequential::recycle`]). With that discipline, a steady-state training
/// step performs no heap allocation.
pub trait TrainableLayer {
    /// Forward over a sample-major `[batch, ...]` input, caching
    /// activations. Dense layers fuse the batch into one product and
    /// conv-family layers run one GEMM per sample; either way each
    /// sample's slice of the output depends on that sample alone. The
    /// returned tensor's buffer is drawn from `ws`.
    ///
    /// # Errors
    ///
    /// Returns a [`TrainError`] when `batch` is zero or the input shape
    /// does not fit the layer.
    fn forward_batch(
        &mut self,
        input: &Tensor,
        batch: usize,
        ws: &mut Workspace,
    ) -> Result<Tensor, TrainError>;

    /// Backward over the `[batch, ...]` gradient of the last forward.
    /// When `grads` asks for parameter gradients, accumulates them as the
    /// fixed-tree reduction ([`tree_reduce_in_place`]) of exact per-sample
    /// partials — an order that depends only on `batch`, never on the
    /// worker count. When it asks for the input gradient, returns the
    /// `[batch, ...]` input gradient (buffer drawn from `ws`); otherwise
    /// returns `None`. Parameter-free layers have only the input gradient
    /// to give and return it whatever is asked.
    ///
    /// # Errors
    ///
    /// Returns a [`TrainError`] when the gradient shape does not fit or no
    /// forward of the same batch size preceded the call.
    fn backward_batch(
        &mut self,
        grad_out: &Tensor,
        batch: usize,
        grads: Grads,
        ws: &mut Workspace,
    ) -> Result<Option<Tensor>, TrainError>;

    /// Applies accumulated gradients through `rule` (with `step` counting
    /// optimiser steps, for Adam's bias correction) and clears them.
    fn apply_update(&mut self, rule: &UpdateRule, step: u64);
    /// Clears accumulated gradients without applying them.
    fn zero_grads(&mut self);

    /// Snapshots every persistent parameter of the layer: weights, affine
    /// parameters, running statistics and lazily created optimiser moments.
    /// Activation caches and accumulated gradients are *not* captured —
    /// checkpoints are taken at step boundaries, where both are dead.
    /// Stateless layers return an empty state.
    fn capture_state(&self) -> LayerState {
        LayerState::empty()
    }

    /// Restores a state captured by [`capture_state`]. `layer` is the
    /// layer's position in its stack, used only for error reporting.
    /// Stateless layers accept only an empty state.
    ///
    /// [`capture_state`]: TrainableLayer::capture_state
    fn restore_state(&mut self, state: &LayerState, layer: usize) -> Result<(), CheckpointError> {
        if state.is_empty() {
            Ok(())
        } else {
            Err(CheckpointError::UnexpectedEntries {
                layer,
                count: state.len(),
            })
        }
    }

    /// The dense im2col GEMM of this layer's forward pass as the op-graph
    /// IR models it: `m` output positions × `k` reduction length × `n`
    /// output channels. For T-CONV and D-CONV this is the zero-insertion
    /// GEMM (`macs_dense`, inserted zeros included), not the per-phase or
    /// true-tap GEMMs the layer executes. `None` for layers that run no
    /// GEMM (activations, reshapes, normalisation).
    fn gemm_shape(&self) -> Option<GemmShape> {
        None
    }

    /// Snapshots the accumulated parameter gradients ("grad", or
    /// "grad_gamma"/"grad_beta" for affine norms). Stateless layers return
    /// an empty state. This is the probe bit-identity oracles use to
    /// compare batched gradient accumulation against per-sample runs.
    fn capture_grads(&self) -> LayerState {
        LayerState::empty()
    }
}

/// The persistent state of one layer as named tensors.
///
/// Keys are layer-defined ("weights", "opt.m", "running_mean", …);
/// optional state — Adam moments that have not been created yet — is
/// encoded by absence.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerState {
    entries: Vec<(String, Tensor)>,
}

impl LayerState {
    /// A state with no entries (stateless layers).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Whether the state holds no tensors.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of named tensors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Records `tensor` under `key`.
    pub fn push(&mut self, key: &str, tensor: Tensor) {
        self.entries.push((key.to_string(), tensor));
    }

    /// The tensor stored under `key`, if any.
    pub fn get(&self, key: &str) -> Option<&Tensor> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, t)| t)
    }

    /// Mutable access to the tensor stored under `key`, if any. Mutating a
    /// captured state invalidates the owning [`GanCheckpoint`]'s checksum,
    /// which is exactly what corruption-detection tests rely on.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Tensor> {
        self.entries
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, t)| t)
    }

    /// Iterates the `(key, tensor)` entries in capture order.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &Tensor)> {
        self.entries.iter().map(|(k, t)| (k.as_str(), t))
    }

    /// Clones the tensor under `key`, requiring it to exist with `shape`.
    fn require(&self, layer: usize, key: &str, shape: &[usize]) -> Result<Tensor, CheckpointError> {
        match self.optional(layer, key, shape)? {
            Some(t) => Ok(t),
            None => Err(CheckpointError::MissingEntry {
                layer,
                key: key.to_string(),
            }),
        }
    }

    /// Clones the tensor under `key` if present, checking its shape.
    fn optional(
        &self,
        layer: usize,
        key: &str,
        shape: &[usize],
    ) -> Result<Option<Tensor>, CheckpointError> {
        match self.get(key) {
            None => Ok(None),
            Some(t) if t.shape() == shape => Ok(Some(t.clone())),
            Some(t) => Err(CheckpointError::ShapeMismatch {
                layer,
                key: key.to_string(),
                expected: shape.to_vec(),
                actual: t.shape().to_vec(),
            }),
        }
    }
}

/// Typed error for checkpoints that do not fit the network they are
/// restored into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The checkpoint holds state for a different number of layers.
    LayerCountMismatch {
        /// Layers in the receiving stack.
        expected: usize,
        /// Layer states in the checkpoint.
        actual: usize,
    },
    /// A layer's state lacks a tensor the layer needs.
    MissingEntry {
        /// Layer index in the stack.
        layer: usize,
        /// The missing key.
        key: String,
    },
    /// A stored tensor's shape disagrees with the receiving parameter.
    ShapeMismatch {
        /// Layer index in the stack.
        layer: usize,
        /// The offending key.
        key: String,
        /// Shape of the receiving parameter.
        expected: Vec<usize>,
        /// Shape stored in the checkpoint.
        actual: Vec<usize>,
    },
    /// A stateless layer received a non-empty state.
    UnexpectedEntries {
        /// Layer index in the stack.
        layer: usize,
        /// Entries the state carried.
        count: usize,
    },
    /// The checkpoint's payload no longer matches its stored checksum —
    /// the snapshot was corrupted in flight or at rest. Restoring it would
    /// silently resume from garbage, so the restore is refused outright.
    Corrupted {
        /// Checksum recorded when the checkpoint was taken.
        expected: u64,
        /// Checksum recomputed over the payload at restore time.
        actual: u64,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::LayerCountMismatch { expected, actual } => write!(
                f,
                "checkpoint mismatch: stack has {expected} layer(s), checkpoint has {actual}"
            ),
            CheckpointError::MissingEntry { layer, key } => {
                write!(f, "checkpoint mismatch: layer {layer} lacks \"{key}\"")
            }
            CheckpointError::ShapeMismatch {
                layer,
                key,
                expected,
                actual,
            } => write!(
                f,
                "checkpoint mismatch: layer {layer} \"{key}\" has shape {actual:?}, \
                 expected {expected:?}"
            ),
            CheckpointError::UnexpectedEntries { layer, count } => write!(
                f,
                "checkpoint mismatch: stateless layer {layer} received {count} tensor(s)"
            ),
            CheckpointError::Corrupted { expected, actual } => write!(
                f,
                "checkpoint corrupted: stored checksum {expected:#018x}, \
                 payload hashes to {actual:#018x}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Typed error for malformed trainer inputs.
///
/// The training path ([`TrainableLayer::forward_batch`],
/// [`Sequential::forward_batch`], [`Gan::train_step_batched`]) surfaces
/// every shape violation as one of these variants instead of panicking;
/// the single-sample wrappers ([`Sequential::forward`],
/// [`Gan::train_step`]) keep their panicking contracts and panic with the
/// same message ([`Sequential::forward`]/[`Sequential::backward`] state it
/// for the unbatched sample).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainError {
    /// An input tensor's rank differs from what the layer expects.
    RankMismatch {
        /// Layer type that rejected the input.
        layer: &'static str,
        /// Expected rank.
        expected: usize,
        /// Rank received.
        actual: usize,
    },
    /// An operand's shape disagrees with the layer's parameters.
    ShapeMismatch {
        /// Layer type that rejected the operand.
        layer: &'static str,
        /// Shape (or shape prefix) the layer requires.
        expected: Vec<usize>,
        /// Shape received.
        actual: Vec<usize>,
    },
    /// [`Gan::train_step_batched`] was handed an empty batch.
    EmptyBatch,
    /// A backward pass ran without a preceding forward of the same batch.
    BackwardBeforeForward {
        /// Layer type missing its forward caches.
        layer: &'static str,
    },
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::RankMismatch {
                layer,
                expected,
                actual,
            } => write!(
                f,
                "{layer}: expected rank-{expected} input, got rank {actual}"
            ),
            TrainError::ShapeMismatch {
                layer,
                expected,
                actual,
            } => write!(
                f,
                "{layer}: operand shape {actual:?} incompatible with {expected:?}"
            ),
            TrainError::EmptyBatch => write!(f, "train step requires at least one sample"),
            TrainError::BackwardBeforeForward { layer } => {
                write!(f, "{layer}: backward before forward")
            }
        }
    }
}

impl std::error::Error for TrainError {}

impl TrainError {
    /// Restates an error raised on a batch of one in terms of the unbatched
    /// sample it was packed from: ranks lose the batch axis, and shapes
    /// that carry it lose their leading `1`.
    fn unbatched(self) -> Self {
        match self {
            TrainError::RankMismatch {
                layer,
                expected,
                actual,
            } => TrainError::RankMismatch {
                layer,
                expected: expected.saturating_sub(1),
                actual: actual.saturating_sub(1),
            },
            TrainError::ShapeMismatch {
                layer,
                expected,
                actual,
            } if expected.len() > 1 && actual.len() > 1 => TrainError::ShapeMismatch {
                layer,
                expected: expected[1..].to_vec(),
                actual: actual[1..].to_vec(),
            },
            other => other,
        }
    }
}

/// `shape` must have exactly `expected` axes.
fn expect_rank(layer: &'static str, expected: usize, shape: &[usize]) -> Result<(), TrainError> {
    if shape.len() == expected {
        Ok(())
    } else {
        Err(TrainError::RankMismatch {
            layer,
            expected,
            actual: shape.len(),
        })
    }
}

/// A single dimension (channel count, gradient width, …) must match.
fn expect_dim(layer: &'static str, expected: usize, actual: usize) -> Result<(), TrainError> {
    if expected == actual {
        Ok(())
    } else {
        Err(TrainError::ShapeMismatch {
            layer,
            expected: vec![expected],
            actual: vec![actual],
        })
    }
}

/// Reduces `count` per-sample partial buffers of length `len`, packed
/// contiguously in `parts`, into `parts[..len]` with a fixed balanced
/// binary tree: adjacent pairs `(0,1), (2,3), …` first, then pairs at
/// stride 2, 4, … until one buffer remains.
///
/// The tree's shape — and therefore every intermediate f32 rounding — is a
/// function of `count` alone, never of the worker count, so batched
/// gradients are bit-identical for every `LERGAN_THREADS` setting. This is
/// the reduction order the batched layers apply to per-sample weight
/// gradients and the oracle that bit-identity tests reproduce.
pub fn tree_reduce_in_place(parts: &mut [f32], count: usize, len: usize) {
    assert_eq!(parts.len(), count * len, "partial buffer length mismatch");
    let mut stride = 1;
    while stride < count {
        let mut i = 0;
        while i + stride < count {
            let (head, tail) = parts.split_at_mut((i + stride) * len);
            let dst = &mut head[i * len..i * len + len];
            let src = &tail[..len];
            for (a, &b) in dst.iter_mut().zip(src) {
                *a += b;
            }
            i += stride * 2;
        }
        stride *= 2;
    }
}

/// Shared mutable base pointer for batched per-sample stages.
///
/// The batched layers shard work by sample: worker `b` writes only the
/// `b`-th sample's slice of each output buffer. Those slices are disjoint
/// by construction, but a `Fn` closure dispatched over the parallel
/// substrate cannot hold `&mut` to them all — this wrapper erases the
/// borrow and hands each worker its slice back by offset.
///
/// Safety contract (enforced by every call site, not the type): concurrent
/// [`slice`](SlicePtr::slice) calls must use disjoint `[offset,
/// offset + len)` ranges, and the backing buffer must outlive the parallel
/// region — which it does, because the region helpers only return once
/// every worker has finished.
struct SlicePtr(*mut f32);

// SAFETY: the pointer is only dereferenced through `slice` under the
// disjointness contract above.
unsafe impl Send for SlicePtr {}
unsafe impl Sync for SlicePtr {}

impl SlicePtr {
    fn new(data: &mut [f32]) -> Self {
        SlicePtr(data.as_mut_ptr())
    }

    /// The `[offset, offset + len)` window of the backing buffer.
    ///
    /// # Safety
    ///
    /// Concurrent calls must cover disjoint ranges, and the backing buffer
    /// must remain live and otherwise untouched for the slice's lifetime.
    #[allow(clippy::mut_from_ref)]
    unsafe fn slice(&self, offset: usize, len: usize) -> &mut [f32] {
        unsafe { std::slice::from_raw_parts_mut(self.0.add(offset), len) }
    }
}

/// Builds the `[batch, per_sample...]` shape in a stack array (tensor
/// construction must stay heap-free in the steady state).
fn batched_shape(batch: usize, per_sample: &[usize]) -> ([usize; 4], usize) {
    debug_assert!(per_sample.len() < 4, "batched rank would exceed MAX_RANK");
    let mut s = [1usize; 4];
    s[0] = batch;
    s[1..=per_sample.len()].copy_from_slice(per_sample);
    (s, per_sample.len() + 1)
}

/// The forward of a conv-family layer, sample by sample: `f(b, frame,
/// plane, tws)` fills sample `b`'s `flen`-long block of the sample-major
/// input-frame cache `bframes` (kept for the backward) and its
/// `olen`-long plane of the returned activation buffer (pooled in `ws`),
/// drawing scratch from the worker's thread workspace `tws`. Every output
/// element reduces its own sample's frame, so no value depends on the
/// batch; building and consuming a frame back to back keeps it in cache,
/// and the output is already in activation layout. Each sample costs
/// `macs` multiply-adds; a worker takes at least the parallel work floor's
/// worth of samples ([`parallel::min_items`]), the rest of the passes
/// below likewise.
fn conv_forward(
    batch: usize,
    (flen, olen, macs): (usize, usize, usize),
    bframes: &mut [f32],
    ws: &mut Workspace,
    f: impl Fn(usize, &mut [f32], &mut [f32], &mut Workspace) + Sync,
) -> Vec<f32> {
    let mut out = ws.take(batch * olen);
    let (fp, op) = (SlicePtr::new(bframes), SlicePtr::new(&mut out));
    parallel::for_each_range(batch, parallel::min_items(macs), |range| {
        for b in range {
            // SAFETY: sample-disjoint frames of `bframes` and planes of `out`.
            let frame = unsafe { fp.slice(b * flen, flen) };
            let plane = unsafe { op.slice(b * olen, olen) };
            with_thread_workspace(|tws| f(b, frame, plane, tws));
        }
    });
    out
}

/// The weight gradient of a conv-family layer — the W-CONV of Fig. 6 —
/// sample by sample: `f(g, frame, part, tws)` writes the exact gradient of
/// one sample into its `wlen`-long `part` from its `olen`-long `∇out` `g`
/// and its `flen`-long frame from the forward's cache `bframes`; the
/// partials are folded by the fixed tree. The fold is element-wise, so it
/// runs in whatever layout `f` writes (the plan's phase layout), and the
/// caller scatters the folded gradient once per batch. Returns a buffer
/// pooled in `ws` whose first `wlen` entries hold the folded gradient.
fn conv_weight_grad(
    grad_out: &[f32],
    bframes: &[f32],
    batch: usize,
    (olen, flen, wlen, macs): (usize, usize, usize, usize),
    ws: &mut Workspace,
    f: impl Fn(&[f32], &[f32], &mut [f32], &mut Workspace) + Sync,
) -> Vec<f32> {
    let mut parts = ws.take(batch * wlen);
    let pp = SlicePtr::new(&mut parts);
    parallel::for_each_range(batch, parallel::min_items(macs), |range| {
        for b in range {
            // SAFETY: sample-disjoint windows of `parts`.
            let part = unsafe { pp.slice(b * wlen, wlen) };
            let g = &grad_out[b * olen..(b + 1) * olen];
            let frame = &bframes[b * flen..(b + 1) * flen];
            with_thread_workspace(|tws| f(g, frame, part, tws));
        }
    });
    tree_reduce_in_place(&mut parts, batch, wlen);
    parts
}

/// The input gradient of a conv-family layer, sample by sample: `f(g,
/// din, tws)` fully overwrites one sample's `slen`-long `∇input` from its
/// `olen`-long `∇out` `g`. Returns the `[batch, slen]` buffer, pooled in
/// `ws`.
fn conv_input_grad(
    grad_out: &[f32],
    batch: usize,
    (olen, slen, macs): (usize, usize, usize),
    ws: &mut Workspace,
    f: impl Fn(&[f32], &mut [f32], &mut Workspace) + Sync,
) -> Vec<f32> {
    let mut din = ws.take(batch * slen);
    let dp = SlicePtr::new(&mut din);
    parallel::for_each_range(batch, parallel::min_items(macs), |range| {
        for b in range {
            // SAFETY: sample-disjoint planes of `din`.
            let d = unsafe { dp.slice(b * slen, slen) };
            let g = &grad_out[b * olen..(b + 1) * olen];
            with_thread_workspace(|tws| f(g, d, tws));
        }
    });
    din
}

/// Copies `samples` — same-shaped, `batch` of them — into one pooled
/// `[batch, ...]` tensor drawn from `ws` (the caller recycles it there).
///
/// # Panics
///
/// Panics if the shapes disagree or a sample already has the maximum
/// tensor rank (no room for the batch dimension).
fn pack_into(samples: &[Tensor], ws: &mut Workspace) -> Tensor {
    let shape = samples[0].shape();
    assert!(
        shape.len() < 4,
        "a sample of rank {} leaves no room for the batch",
        shape.len()
    );
    let slen = samples[0].len();
    let mut buf = ws.take(samples.len() * slen);
    for (b, s) in samples.iter().enumerate() {
        assert_eq!(s.shape(), shape, "samples of one batch must share a shape");
        buf[b * slen..(b + 1) * slen].copy_from_slice(s.data());
    }
    let (bshape, rank) = batched_shape(samples.len(), shape);
    Tensor::from_vec(&bshape[..rank], buf)
}

/// Drops the leading batch dimension of a batch-of-one result, reusing its
/// buffer (a rank-1 result is returned as it is).
fn unbatch(t: Tensor) -> Tensor {
    let rank = t.shape().len();
    if rank < 2 {
        return t;
    }
    let mut shape = [1usize; 4];
    shape[..rank - 1].copy_from_slice(&t.shape()[1..]);
    Tensor::from_vec(&shape[..rank - 1], t.into_vec())
}

fn he_init(rng: &mut StdRng, shape: &[usize], fan_in: usize) -> Tensor {
    let scale = (2.0 / fan_in as f32).sqrt();
    Tensor::from_fn(shape, |_| (rng.gen::<f32>() * 2.0 - 1.0) * scale)
}

/// Reuses `slot` as a `shape`-shaped activation cache, allocating only when
/// the shape changes — in steady state (fixed network geometry) never.
/// Contents are unspecified; the caller fully overwrites them.
fn cache_buf<'a>(slot: &'a mut Option<Tensor>, shape: &[usize]) -> &'a mut Tensor {
    if slot.as_ref().is_none_or(|t| t.shape() != shape) {
        *slot = Some(Tensor::zeros(shape));
    }
    slot.as_mut().expect("slot populated above")
}

/// The update rule applied to accumulated gradients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UpdateRule {
    /// Plain stochastic gradient descent.
    Sgd {
        /// Learning rate.
        lr: f32,
    },
    /// SGD with heavy-ball momentum.
    Momentum {
        /// Learning rate.
        lr: f32,
        /// Momentum coefficient (e.g. 0.9).
        beta: f32,
    },
    /// Adam (the optimiser DCGAN training typically uses).
    Adam {
        /// Learning rate.
        lr: f32,
        /// First-moment decay (e.g. 0.9; DCGAN uses 0.5).
        beta1: f32,
        /// Second-moment decay (e.g. 0.999).
        beta2: f32,
        /// Numerical floor.
        eps: f32,
    },
}

impl UpdateRule {
    /// Plain SGD.
    pub fn sgd(lr: f32) -> Self {
        UpdateRule::Sgd { lr }
    }

    /// DCGAN-style Adam (β₁ = 0.5, β₂ = 0.999).
    pub fn dcgan_adam(lr: f32) -> Self {
        UpdateRule::Adam {
            lr,
            beta1: 0.5,
            beta2: 0.999,
            eps: 1e-8,
        }
    }
}

/// The moment in `slot`, created zeroed on first use.
fn moment<'a>(slot: &'a mut Option<Tensor>, shape: &[usize]) -> &'a mut [f32] {
    let m = slot.get_or_insert_with(|| Tensor::zeros(shape));
    assert_eq!(m.shape(), shape, "moment shape mismatch");
    m.data_mut()
}

/// Per-parameter optimiser state (moments), created lazily.
#[derive(Debug, Default)]
struct OptState {
    m: Option<Tensor>,
    v: Option<Tensor>,
}

impl OptState {
    /// Records the moments that exist under `prefix.m` / `prefix.v`.
    fn capture_into(&self, prefix: &str, state: &mut LayerState) {
        if let Some(m) = &self.m {
            state.push(&format!("{prefix}.m"), m.clone());
        }
        if let Some(v) = &self.v {
            state.push(&format!("{prefix}.v"), v.clone());
        }
    }

    /// Restores moments from `prefix.m` / `prefix.v`; absence means the
    /// moment had not been created yet at capture time.
    fn restore_from(
        &mut self,
        prefix: &str,
        state: &LayerState,
        layer: usize,
        shape: &[usize],
    ) -> Result<(), CheckpointError> {
        self.m = state.optional(layer, &format!("{prefix}.m"), shape)?;
        self.v = state.optional(layer, &format!("{prefix}.v"), shape)?;
        Ok(())
    }

    /// Applies `rule` to `weights` given the accumulated `grad` in one
    /// pass over the elements, creating the moments (persistent state) on
    /// the first update. Each element takes the same operations, in the
    /// same order, as the textbook sequence of whole-tensor passes (scale
    /// the moment, add the scaled gradient, …), so the result is
    /// bit-identical to it.
    fn apply(&mut self, rule: &UpdateRule, step: u64, weights: &mut Tensor, grad: &Tensor) {
        assert_eq!(weights.shape(), grad.shape(), "update shape mismatch");
        let (w, g) = (weights.data_mut(), grad.data());
        match *rule {
            UpdateRule::Sgd { lr } => {
                for (w, &g) in w.iter_mut().zip(g) {
                    *w += -lr * g;
                }
            }
            UpdateRule::Momentum { lr, beta } => {
                let m = moment(&mut self.m, grad.shape());
                for ((w, m), &g) in w.iter_mut().zip(m).zip(g) {
                    *m = *m * beta + 1.0 * g;
                    *w += -lr * *m;
                }
            }
            UpdateRule::Adam {
                lr,
                beta1,
                beta2,
                eps,
            } => {
                // The exponent saturates: a restored checkpoint may carry
                // any step, and past 2^31 the bias corrections are 1 anyway.
                let t = i32::try_from(step.max(1)).unwrap_or(i32::MAX);
                let mc = 1.0 - beta1.powi(t);
                let vc = 1.0 - beta2.powi(t);
                let (c1, c2) = (1.0 - beta1, 1.0 - beta2);
                let m = moment(&mut self.m, grad.shape());
                let v = moment(&mut self.v, grad.shape());
                for (((w, m), v), &g) in w.iter_mut().zip(m).zip(v).zip(g) {
                    *m = *m * beta1 + c1 * g;
                    *v = *v * beta2 + c2 * (g * g);
                    *w += -lr * ((*m / mc) / ((*v / vc).sqrt() + eps));
                }
            }
        }
    }
}

/// Fully-connected trainable layer (flattens its input).
#[derive(Debug)]
pub struct DenseLayer {
    weights: Tensor, // [out, in]
    grad: Tensor,
    /// Input cache `[batch, in]` of the last forward.
    cached_input: Option<Tensor>,
    /// Per-sample input shape from the last forward.
    cached_shape: Vec<usize>,
    opt: OptState,
}

impl DenseLayer {
    /// Creates a dense layer with He-initialised weights.
    pub fn new(in_units: usize, out_units: usize, rng: &mut StdRng) -> Self {
        DenseLayer {
            weights: he_init(rng, &[out_units, in_units], in_units),
            grad: Tensor::zeros(&[out_units, in_units]),
            cached_input: None,
            cached_shape: Vec::new(),
            opt: OptState::default(),
        }
    }

    /// Output width.
    pub fn out_units(&self) -> usize {
        self.weights.shape()[0]
    }
}

impl TrainableLayer for DenseLayer {
    fn apply_update(&mut self, rule: &UpdateRule, step: u64) {
        self.opt.apply(rule, step, &mut self.weights, &self.grad);
        self.zero_grads();
    }

    fn zero_grads(&mut self) {
        self.grad.fill(0.0);
    }

    fn capture_state(&self) -> LayerState {
        let mut s = LayerState::empty();
        s.push("weights", self.weights.clone());
        self.opt.capture_into("opt", &mut s);
        s
    }

    fn restore_state(&mut self, state: &LayerState, layer: usize) -> Result<(), CheckpointError> {
        self.weights = state.require(layer, "weights", self.weights.shape())?;
        self.opt
            .restore_from("opt", state, layer, self.weights.shape())?;
        self.grad.fill(0.0);
        self.cached_input = None;
        self.cached_shape.clear();
        Ok(())
    }

    fn gemm_shape(&self) -> Option<GemmShape> {
        Some(GemmShape {
            m: 1,
            k: self.weights.shape()[1] as u128,
            n: self.weights.shape()[0] as u128,
        })
    }

    fn forward_batch(
        &mut self,
        input: &Tensor,
        batch: usize,
        ws: &mut Workspace,
    ) -> Result<Tensor, TrainError> {
        if batch == 0 {
            return Err(TrainError::EmptyBatch);
        }
        let (o, i) = (self.weights.shape()[0], self.weights.shape()[1]);
        if input.shape()[0] != batch || input.len() != batch * i {
            return Err(TrainError::ShapeMismatch {
                layer: "DenseLayer",
                expected: vec![batch, i],
                actual: input.shape().to_vec(),
            });
        }
        self.cached_shape.clear();
        self.cached_shape.extend_from_slice(&input.shape()[1..]);
        let cache = cache_buf(&mut self.cached_input, &[batch, i]);
        cache.data_mut().copy_from_slice(input.data());
        // One packed GEMM with m = batch: row b reduces k ascending from
        // 0.0, the matrix-vector chain of sample b alone.
        let mut out = ws.take(batch * o);
        gemm_nt_buf(batch, i, o, input.data(), self.weights.data(), &mut out);
        Ok(Tensor::from_vec(&[batch, o], out))
    }

    fn backward_batch(
        &mut self,
        grad_out: &Tensor,
        batch: usize,
        grads: Grads,
        ws: &mut Workspace,
    ) -> Result<Option<Tensor>, TrainError> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or(TrainError::BackwardBeforeForward {
                layer: "DenseLayer",
            })?;
        let (o, i) = (self.weights.shape()[0], self.weights.shape()[1]);
        if input.shape()[0] != batch {
            return Err(TrainError::BackwardBeforeForward {
                layer: "DenseLayer",
            });
        }
        if grad_out.len() != batch * o {
            return Err(TrainError::ShapeMismatch {
                layer: "DenseLayer",
                expected: vec![batch, o],
                actual: grad_out.shape().to_vec(),
            });
        }
        // ∇W: exact per-sample outer products, folded by the fixed tree.
        if grads.params() {
            let wlen = o * i;
            let mut parts = ws.take(batch * wlen);
            {
                let pp = SlicePtr::new(&mut parts);
                let gd = grad_out.data();
                let xd = input.data();
                parallel::for_each_range(batch, parallel::min_items(wlen), |range| {
                    for b in range {
                        // SAFETY: sample-disjoint windows of `parts`.
                        let part = unsafe { pp.slice(b * wlen, wlen) };
                        let g = &gd[b * o..(b + 1) * o];
                        let x = &xd[b * i..(b + 1) * i];
                        for (oi, &gv) in g.iter().enumerate() {
                            for (slot, &xv) in part[oi * i..(oi + 1) * i].iter_mut().zip(x) {
                                *slot = gv * xv;
                            }
                        }
                    }
                });
            }
            tree_reduce_in_place(&mut parts, batch, wlen);
            self.grad.axpy_slice_in_place(1.0, &parts[..wlen]);
            ws.give(parts);
        }
        if !grads.input() {
            return Ok(None);
        }
        // ∇input: one packed GEMM, k (= output unit) ascending from 0.0 —
        // each row the accumulation chain of its sample alone.
        let mut din = ws.take(batch * i);
        gemm_buf(batch, o, i, grad_out.data(), self.weights.data(), &mut din);
        let (shape, rank) = batched_shape(batch, &self.cached_shape);
        Ok(Some(Tensor::from_vec(&shape[..rank], din)))
    }

    fn capture_grads(&self) -> LayerState {
        let mut s = LayerState::empty();
        s.push("grad", self.grad.clone());
        s
    }
}

/// Conv-family trainable layer — S-CONV, T-CONV or D-CONV, fixed by the
/// geometry it is built from — run zero-free on one [`ConvPlan`].
///
/// The forward runs the plan per sample: the input copied once into a
/// zero-padded frame, then one GEMM per output phase reading that frame
/// in place (for S-CONV and D-CONV a single GEMM straight into the
/// output), caching the frame. The weight gradient, the W-CONV of Fig. 6,
/// is one GEMM per phase over the cached frame. The input
/// gradient — `D←` through an S-CONV (Eq. 3), `G←` through a T-CONV — is
/// the forward of the [dual plan](ConvPlan::dual) on the flipped,
/// channel-transposed kernel: T-CONV-shaped for an S-CONV, a strided
/// S-CONV for a T-CONV. All three are bit-identical to the per-sample
/// reference kernels (`Conv2d` for S-CONV, the zero-insertion formulation
/// the analytics count as `macs_dense` for T-CONV and D-CONV); the
/// ordering argument is on [`ConvPlan`].
#[derive(Debug)]
pub struct ConvTrainLayer {
    plan: ConvPlan,
    /// The input gradient's plan, `plan.dual()`.
    dual: ConvPlan,
    weights: Tensor, // [oc, ic, Kh, Kw]
    /// `weights` gathered into the phase weight matrices of `plan` and of
    /// `dual`, refreshed wherever `weights` changes.
    phase_weights: Vec<f32>,
    dual_weights: Vec<f32>,
    grad: Tensor,
    /// Sample-major input frames `[batch, plan.frame_len()]` from the last
    /// forward, reused by the backward weight-gradient GEMMs.
    cached_frames: Option<Tensor>,
    /// Batch size of the last forward.
    cached_batch: usize,
    opt: OptState,
}

impl ConvTrainLayer {
    /// Creates the layer for an S-CONV, T-CONV or D-CONV `geometry`, with
    /// He-initialised `[out, in, Kh, Kw]` weights.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        geometry: impl ConvGeometry,
        rng: &mut StdRng,
    ) -> Self {
        let plan = geometry.plan(in_channels, out_channels);
        let shape = plan.weight_shape();
        let weights = he_init(rng, &shape, in_channels * shape[2] * shape[3]);
        let mut layer = ConvTrainLayer {
            dual: plan.dual(),
            phase_weights: vec![0.0; weights.len()],
            dual_weights: vec![0.0; weights.len()],
            weights,
            grad: Tensor::zeros(&shape),
            plan,
            cached_frames: None,
            cached_batch: 0,
            opt: OptState::default(),
        };
        layer.gather_phase_weights();
        layer
    }

    /// Re-gathers both phase weight matrices from `weights`.
    fn gather_phase_weights(&mut self) {
        let w = self.weights.data();
        self.plan.phase_weights_into(w, &mut self.phase_weights);
        self.dual.phase_weights_into(w, &mut self.dual_weights);
    }
}

impl TrainableLayer for ConvTrainLayer {
    fn apply_update(&mut self, rule: &UpdateRule, step: u64) {
        self.opt.apply(rule, step, &mut self.weights, &self.grad);
        self.gather_phase_weights();
        self.zero_grads();
    }

    fn zero_grads(&mut self) {
        self.grad.fill(0.0);
    }

    fn capture_state(&self) -> LayerState {
        let mut s = LayerState::empty();
        s.push("weights", self.weights.clone());
        self.opt.capture_into("opt", &mut s);
        s
    }

    fn restore_state(&mut self, state: &LayerState, layer: usize) -> Result<(), CheckpointError> {
        self.weights = state.require(layer, "weights", self.weights.shape())?;
        // Gather before the optimiser restore can fail, so the phase
        // matrices never disagree with `weights`.
        self.gather_phase_weights();
        self.opt
            .restore_from("opt", state, layer, self.weights.shape())?;
        self.grad.fill(0.0);
        self.cached_frames = None;
        self.cached_batch = 0;
        Ok(())
    }

    fn gemm_shape(&self) -> Option<GemmShape> {
        let (m, k, n) = self.plan.dense_gemm();
        Some(GemmShape {
            m: m as u128,
            k: k as u128,
            n: n as u128,
        })
    }

    fn forward_batch(
        &mut self,
        input: &Tensor,
        batch: usize,
        ws: &mut Workspace,
    ) -> Result<Tensor, TrainError> {
        if batch == 0 {
            return Err(TrainError::EmptyBatch);
        }
        expect_rank("ConvTrainLayer", 4, input.shape())?;
        let [ic, h, w] = self.plan.input_shape();
        if input.shape() != [batch, ic, h, w] {
            return Err(TrainError::ShapeMismatch {
                layer: "ConvTrainLayer",
                expected: vec![batch, ic, h, w],
                actual: input.shape().to_vec(),
            });
        }
        self.cached_batch = batch;
        let [oc, oh, ow] = self.plan.output_shape();
        let (slen, flen, olen) = (ic * h * w, self.plan.frame_len(), oc * oh * ow);
        let bframes = cache_buf(&mut self.cached_frames, &[batch, flen]);
        let (idata, plan, pw) = (input.data(), &self.plan, &self.phase_weights);
        let macs = plan.cols_len() * oc;
        let out = conv_forward(
            batch,
            (flen, olen, macs),
            bframes.data_mut(),
            ws,
            |b, frame, plane, tws| {
                plan.forward_into(&idata[b * slen..(b + 1) * slen], pw, frame, plane, tws);
            },
        );
        Ok(Tensor::from_vec(&[batch, oc, oh, ow], out))
    }

    fn backward_batch(
        &mut self,
        grad_out: &Tensor,
        batch: usize,
        grads: Grads,
        ws: &mut Workspace,
    ) -> Result<Option<Tensor>, TrainError> {
        let bframes = self
            .cached_frames
            .as_ref()
            .ok_or(TrainError::BackwardBeforeForward {
                layer: "ConvTrainLayer",
            })?;
        if self.cached_batch != batch {
            return Err(TrainError::BackwardBeforeForward {
                layer: "ConvTrainLayer",
            });
        }
        let olen = self.plan.output_shape().iter().product::<usize>();
        if grad_out.len() != batch * olen {
            return Err(TrainError::ShapeMismatch {
                layer: "ConvTrainLayer",
                expected: vec![batch, olen],
                actual: grad_out.shape().to_vec(),
            });
        }
        let (plan, dual) = (&self.plan, &self.dual);
        if grads.params() {
            let wlen = self.weights.len();
            let parts = conv_weight_grad(
                grad_out.data(),
                bframes.data(),
                batch,
                (
                    olen,
                    plan.frame_len(),
                    wlen,
                    plan.cols_len() * plan.output_shape()[0],
                ),
                ws,
                |g, frame, part, tws| plan.weight_grad_into(g, frame, part, tws),
            );
            plan.add_weight_grad(&parts[..wlen], self.grad.data_mut());
            ws.give(parts);
        }
        if !grads.input() {
            return Ok(None);
        }
        let [ic, h, w] = plan.input_shape();
        let pw = &self.dual_weights;
        let din = conv_input_grad(
            grad_out.data(),
            batch,
            (olen, ic * h * w, dual.cols_len() * ic),
            ws,
            |g, d, tws| {
                let mut frame = tws.take(dual.frame_len());
                dual.forward_into(g, pw, &mut frame, d, tws);
                tws.give(frame);
            },
        );
        Ok(Some(Tensor::from_vec(&[batch, ic, h, w], din)))
    }

    fn capture_grads(&self) -> LayerState {
        let mut s = LayerState::empty();
        s.push("grad", self.grad.clone());
        s
    }
}

/// Per-channel batch normalisation (DCGAN applies it after every
/// conv/T-CONV except the output layers).
///
/// This per-sample variant normalises each sample over each channel's
/// spatial plane — so a sample's output never depends on the rest of its
/// batch — keeps running statistics for inference, and learns an affine
/// (γ, β) per channel.
#[derive(Debug)]
pub struct BatchNorm {
    gamma: Tensor, // [C]
    beta: Tensor,  // [C]
    grad_gamma: Tensor,
    grad_beta: Tensor,
    opt_gamma: OptState,
    opt_beta: OptState,
    eps: f32,
    momentum: f32,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    /// Normalized cache `[batch, C, H, W]` of the last forward.
    normalized: Option<Tensor>,
    /// Per-sample per-channel `[mean, var, inv_std]` triples from the last
    /// forward, laid out `(b·C + c)·3`.
    stats: Vec<f32>,
}

impl BatchNorm {
    /// Creates the layer for `channels` feature maps.
    pub fn new(channels: usize) -> Self {
        BatchNorm {
            gamma: Tensor::ones(&[channels]),
            beta: Tensor::zeros(&[channels]),
            grad_gamma: Tensor::zeros(&[channels]),
            grad_beta: Tensor::zeros(&[channels]),
            opt_gamma: OptState::default(),
            opt_beta: OptState::default(),
            eps: 1e-5,
            momentum: 0.1,
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            normalized: None,
            stats: Vec::new(),
        }
    }

    /// Running mean per channel (for inspection/inference).
    pub fn running_mean(&self) -> &[f32] {
        &self.running_mean
    }
}

impl TrainableLayer for BatchNorm {
    fn apply_update(&mut self, rule: &UpdateRule, step: u64) {
        self.opt_gamma
            .apply(rule, step, &mut self.gamma, &self.grad_gamma);
        self.opt_beta
            .apply(rule, step, &mut self.beta, &self.grad_beta);
        self.zero_grads();
    }

    fn zero_grads(&mut self) {
        self.grad_gamma.fill(0.0);
        self.grad_beta.fill(0.0);
    }

    fn capture_state(&self) -> LayerState {
        let c = self.gamma.len();
        let mut s = LayerState::empty();
        s.push("gamma", self.gamma.clone());
        s.push("beta", self.beta.clone());
        s.push(
            "running_mean",
            Tensor::from_vec(&[c], self.running_mean.clone()),
        );
        s.push(
            "running_var",
            Tensor::from_vec(&[c], self.running_var.clone()),
        );
        self.opt_gamma.capture_into("opt_gamma", &mut s);
        self.opt_beta.capture_into("opt_beta", &mut s);
        s
    }

    fn restore_state(&mut self, state: &LayerState, layer: usize) -> Result<(), CheckpointError> {
        let shape = self.gamma.shape().to_vec();
        self.gamma = state.require(layer, "gamma", &shape)?;
        self.beta = state.require(layer, "beta", &shape)?;
        self.running_mean = state
            .require(layer, "running_mean", &shape)?
            .data()
            .to_vec();
        self.running_var = state.require(layer, "running_var", &shape)?.data().to_vec();
        self.opt_gamma
            .restore_from("opt_gamma", state, layer, &shape)?;
        self.opt_beta
            .restore_from("opt_beta", state, layer, &shape)?;
        self.zero_grads();
        self.normalized = None;
        Ok(())
    }

    fn forward_batch(
        &mut self,
        input: &Tensor,
        batch: usize,
        ws: &mut Workspace,
    ) -> Result<Tensor, TrainError> {
        if batch == 0 {
            return Err(TrainError::EmptyBatch);
        }
        expect_rank("BatchNorm", 4, input.shape())?;
        let (c, h, w) = (input.shape()[1], input.shape()[2], input.shape()[3]);
        expect_dim("BatchNorm", self.gamma.len(), c)?;
        if input.shape()[0] != batch {
            return Err(TrainError::ShapeMismatch {
                layer: "BatchNorm",
                expected: vec![batch, c, h, w],
                actual: input.shape().to_vec(),
            });
        }
        let plane = h * w;
        let n = plane as f32;
        let slen = c * plane;
        if self.stats.len() != batch * c * 3 {
            self.stats.resize(batch * c * 3, 0.0);
        }
        let mut out = ws.take(batch * slen);
        // Per-sample statistics: each sample's normalisation is
        // independent of the rest of the batch.
        let np = SlicePtr::new(cache_buf(&mut self.normalized, &[batch, c, h, w]).data_mut());
        {
            let outp = SlicePtr::new(&mut out);
            let sp = SlicePtr::new(&mut self.stats);
            let idata = input.data();
            let eps = self.eps;
            let gamma = self.gamma.data();
            let beta = self.beta.data();
            parallel::for_each_range(batch, parallel::min_items(slen), |range| {
                for b in range {
                    // SAFETY: sample-disjoint slices of all three buffers.
                    let outs = unsafe { outp.slice(b * slen, slen) };
                    let norms = unsafe { np.slice(b * slen, slen) };
                    let stats = unsafe { sp.slice(b * c * 3, c * 3) };
                    let sample = &idata[b * slen..(b + 1) * slen];
                    for ci in 0..c {
                        let ip = &sample[ci * plane..(ci + 1) * plane];
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
                        let inv_std = 1.0 / (var + eps).sqrt();
                        stats[ci * 3] = mean;
                        stats[ci * 3 + 1] = var;
                        stats[ci * 3 + 2] = inv_std;
                        let (g, bta) = (gamma[ci], beta[ci]);
                        let npl = &mut norms[ci * plane..(ci + 1) * plane];
                        let opl = &mut outs[ci * plane..(ci + 1) * plane];
                        for ((nslot, oslot), &v) in npl.iter_mut().zip(opl.iter_mut()).zip(ip) {
                            let norm = (v - mean) * inv_std;
                            *nslot = norm;
                            *oslot = g * norm + bta;
                        }
                    }
                }
            });
        }
        // Serial batch-ascending EMA fold: the same running statistics as
        // feeding the samples one at a time, independent of the worker
        // count.
        for b in 0..batch {
            for ci in 0..c {
                let mean = self.stats[(b * c + ci) * 3];
                let var = self.stats[(b * c + ci) * 3 + 1];
                self.running_mean[ci] =
                    (1.0 - self.momentum) * self.running_mean[ci] + self.momentum * mean;
                self.running_var[ci] =
                    (1.0 - self.momentum) * self.running_var[ci] + self.momentum * var;
            }
        }
        Ok(Tensor::from_vec(&[batch, c, h, w], out))
    }

    fn backward_batch(
        &mut self,
        grad_out: &Tensor,
        batch: usize,
        grads: Grads,
        ws: &mut Workspace,
    ) -> Result<Option<Tensor>, TrainError> {
        let normalized = self
            .normalized
            .as_ref()
            .ok_or(TrainError::BackwardBeforeForward { layer: "BatchNorm" })?;
        if normalized.shape()[0] != batch || grad_out.shape() != normalized.shape() {
            return Err(TrainError::ShapeMismatch {
                layer: "BatchNorm",
                expected: normalized.shape().to_vec(),
                actual: grad_out.shape().to_vec(),
            });
        }
        let (c, h, w) = (
            normalized.shape()[1],
            normalized.shape()[2],
            normalized.shape()[3],
        );
        let plane = h * w;
        let n = plane as f32;
        let slen = c * plane;
        // The per-channel sums feed both ∇input and (β, γ): only the
        // ∇input writes and the (β, γ) fold depend on the request.
        let mut din = if grads.input() {
            ws.take(batch * slen)
        } else {
            Vec::new()
        };
        // Per-sample `[Σdy | Σdy·norm]` pairs, folded by the fixed tree
        // into the (β, γ) gradients.
        let mut parts = ws.take(batch * 2 * c);
        {
            let dp = SlicePtr::new(&mut din);
            let pp = SlicePtr::new(&mut parts);
            let nd = normalized.data();
            let gd = grad_out.data();
            let gamma = self.gamma.data();
            let stats = &self.stats;
            parallel::for_each_range(batch, parallel::min_items(slen), |range| {
                for b in range {
                    // SAFETY: sample-disjoint slices of both buffers; `din`
                    // is sliced only when it was taken.
                    let mut d = grads.input().then(|| unsafe { dp.slice(b * slen, slen) });
                    let part = unsafe { pp.slice(b * 2 * c, 2 * c) };
                    for ci in 0..c {
                        let gp = &gd[b * slen + ci * plane..][..plane];
                        let npl = &nd[b * slen + ci * plane..][..plane];
                        let mut sum_dy = 0.0;
                        let mut sum_dy_norm = 0.0;
                        for (&dy, &norm) in gp.iter().zip(npl) {
                            sum_dy += dy;
                            sum_dy_norm += dy * norm;
                        }
                        part[ci] = sum_dy;
                        part[c + ci] = sum_dy_norm;
                        let Some(d) = d.as_deref_mut() else {
                            continue;
                        };
                        let g = gamma[ci];
                        let inv_std = stats[(b * c + ci) * 3 + 2];
                        let dpl = &mut d[ci * plane..(ci + 1) * plane];
                        for ((slot, &dy), &norm) in dpl.iter_mut().zip(gp).zip(npl) {
                            *slot = g * inv_std / n * (n * dy - sum_dy - norm * sum_dy_norm);
                        }
                    }
                }
            });
        }
        if grads.params() {
            tree_reduce_in_place(&mut parts, batch, 2 * c);
            for ci in 0..c {
                self.grad_beta.data_mut()[ci] += parts[ci];
                self.grad_gamma.data_mut()[ci] += parts[c + ci];
            }
        }
        ws.give(parts);
        Ok(grads
            .input()
            .then(|| Tensor::from_vec(&[batch, c, h, w], din)))
    }

    fn capture_grads(&self) -> LayerState {
        let mut s = LayerState::empty();
        s.push("grad_gamma", self.grad_gamma.clone());
        s.push("grad_beta", self.grad_beta.clone());
        s
    }
}

/// Per-position pixelwise feature normalisation (ProGAN-style, the `pn`
/// topology tag): each spatial position's channel vector is scaled to unit
/// RMS, `y_c = x_c / sqrt(mean_c x_c² + ε)`. Parameter-free — unlike
/// [`BatchNorm`] it carries no optimiser state and checkpoints empty.
#[derive(Debug)]
pub struct PixelNorm {
    eps: f32,
    /// Normalized cache `[batch, C, H, W]` of the last forward.
    normalized: Option<Tensor>,
    /// Per-sample per-position inverse norms, `batch · plane` long.
    inv_norm: Vec<f32>,
}

impl PixelNorm {
    /// Creates the layer.
    pub fn new() -> Self {
        PixelNorm {
            eps: 1e-8,
            normalized: None,
            inv_norm: Vec::new(),
        }
    }
}

impl Default for PixelNorm {
    fn default() -> Self {
        Self::new()
    }
}

impl TrainableLayer for PixelNorm {
    fn apply_update(&mut self, _rule: &UpdateRule, _step: u64) {}
    fn zero_grads(&mut self) {}

    fn forward_batch(
        &mut self,
        input: &Tensor,
        batch: usize,
        ws: &mut Workspace,
    ) -> Result<Tensor, TrainError> {
        if batch == 0 {
            return Err(TrainError::EmptyBatch);
        }
        expect_rank("PixelNorm", 4, input.shape())?;
        if input.shape()[0] != batch {
            return Err(TrainError::ShapeMismatch {
                layer: "PixelNorm",
                expected: vec![batch],
                actual: input.shape().to_vec(),
            });
        }
        let (c, h, w) = (input.shape()[1], input.shape()[2], input.shape()[3]);
        let plane = h * w;
        let cn = c as f32;
        let slen = c * plane;
        if self.inv_norm.len() != batch * plane {
            self.inv_norm.resize(batch * plane, 0.0);
        }
        let mut out = ws.take(batch * slen);
        let np = SlicePtr::new(cache_buf(&mut self.normalized, &[batch, c, h, w]).data_mut());
        {
            let outp = SlicePtr::new(&mut out);
            let ip = SlicePtr::new(&mut self.inv_norm);
            let data = input.data();
            let eps = self.eps;
            parallel::for_each_range(batch, parallel::min_items(slen), |range| {
                for b in range {
                    // SAFETY: sample-disjoint slices of all three buffers.
                    let outs = unsafe { outp.slice(b * slen, slen) };
                    let norms = unsafe { np.slice(b * slen, slen) };
                    let invs = unsafe { ip.slice(b * plane, plane) };
                    let sample = &data[b * slen..(b + 1) * slen];
                    for p in 0..plane {
                        let mut ss = 0.0;
                        for ci in 0..c {
                            let v = sample[ci * plane + p];
                            ss += v * v;
                        }
                        let inv = 1.0 / (ss / cn + eps).sqrt();
                        invs[p] = inv;
                        for ci in 0..c {
                            let y = sample[ci * plane + p] * inv;
                            norms[ci * plane + p] = y;
                            outs[ci * plane + p] = y;
                        }
                    }
                }
            });
        }
        Ok(Tensor::from_vec(&[batch, c, h, w], out))
    }

    fn backward_batch(
        &mut self,
        grad_out: &Tensor,
        batch: usize,
        _grads: Grads,
        ws: &mut Workspace,
    ) -> Result<Option<Tensor>, TrainError> {
        let normalized = self
            .normalized
            .as_ref()
            .ok_or(TrainError::BackwardBeforeForward { layer: "PixelNorm" })?;
        if normalized.shape()[0] != batch || grad_out.shape() != normalized.shape() {
            return Err(TrainError::ShapeMismatch {
                layer: "PixelNorm",
                expected: normalized.shape().to_vec(),
                actual: grad_out.shape().to_vec(),
            });
        }
        let (c, h, w) = (
            normalized.shape()[1],
            normalized.shape()[2],
            normalized.shape()[3],
        );
        let plane = h * w;
        let cn = c as f32;
        let slen = c * plane;
        let mut din = ws.take(batch * slen);
        {
            let dp = SlicePtr::new(&mut din);
            let nd = normalized.data();
            let gd = grad_out.data();
            let invs = &self.inv_norm;
            parallel::for_each_range(batch, parallel::min_items(slen), |range| {
                for b in range {
                    // SAFETY: sample-disjoint slices of `din`.
                    let d = unsafe { dp.slice(b * slen, slen) };
                    for p in 0..plane {
                        let mut dot = 0.0;
                        for ci in 0..c {
                            dot += gd[b * slen + ci * plane + p] * nd[b * slen + ci * plane + p];
                        }
                        let inv = invs[b * plane + p];
                        for ci in 0..c {
                            d[ci * plane + p] = inv
                                * (gd[b * slen + ci * plane + p]
                                    - nd[b * slen + ci * plane + p] * dot / cn);
                        }
                    }
                }
            });
        }
        Ok(Some(Tensor::from_vec(&[batch, c, h, w], din)))
    }
}

/// Leaky-ReLU activation (the paper's DCGAN uses slope 0.2 in D).
#[derive(Debug)]
pub struct LeakyRelu {
    alpha: f32,
    /// Input cache of the last forward.
    cached_input: Option<Tensor>,
}

impl LeakyRelu {
    /// Creates the activation with the given negative slope.
    pub fn new(alpha: f32) -> Self {
        LeakyRelu {
            alpha,
            cached_input: None,
        }
    }
}

impl TrainableLayer for LeakyRelu {
    fn apply_update(&mut self, _rule: &UpdateRule, _step: u64) {}
    fn zero_grads(&mut self) {}

    fn forward_batch(
        &mut self,
        input: &Tensor,
        batch: usize,
        ws: &mut Workspace,
    ) -> Result<Tensor, TrainError> {
        if batch == 0 {
            return Err(TrainError::EmptyBatch);
        }
        if input.shape()[0] != batch {
            return Err(TrainError::ShapeMismatch {
                layer: "LeakyRelu",
                expected: vec![batch],
                actual: input.shape().to_vec(),
            });
        }
        let cache = cache_buf(&mut self.cached_input, input.shape());
        let slen = input.len() / batch;
        let a = self.alpha;
        let mut out = ws.take(input.len());
        let data = input.data();
        let samples = parallel::min_items(slen);
        parallel::for_each_unit_chunk_pair_mut(
            &mut out,
            cache.data_mut(),
            slen,
            samples,
            |first, out, cache| {
                let (off, n) = (first * slen, out.len());
                for ((o, c), &x) in out.iter_mut().zip(cache).zip(&data[off..off + n]) {
                    *c = x;
                    *o = if x > 0.0 { x } else { a * x };
                }
            },
        );
        Ok(Tensor::from_vec(input.shape(), out))
    }

    fn backward_batch(
        &mut self,
        grad_out: &Tensor,
        batch: usize,
        _grads: Grads,
        ws: &mut Workspace,
    ) -> Result<Option<Tensor>, TrainError> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or(TrainError::BackwardBeforeForward { layer: "LeakyRelu" })?;
        if input.shape()[0] != batch || grad_out.shape() != input.shape() {
            return Err(TrainError::ShapeMismatch {
                layer: "LeakyRelu",
                expected: input.shape().to_vec(),
                actual: grad_out.shape().to_vec(),
            });
        }
        let slen = input.len() / batch;
        let a = self.alpha;
        let mut din = ws.take(grad_out.len());
        {
            let xd = input.data();
            let gd = grad_out.data();
            let samples = parallel::min_items(slen);
            parallel::for_each_unit_chunk_mut(&mut din, slen, samples, |first, chunk| {
                let (off, n) = (first * slen, chunk.len());
                for ((d, &x), &g) in chunk
                    .iter_mut()
                    .zip(&xd[off..off + n])
                    .zip(&gd[off..off + n])
                {
                    *d = if x > 0.0 { g } else { a * g };
                }
            });
        }
        Ok(Some(Tensor::from_vec(input.shape(), din)))
    }
}

/// Elements per [`Tanh`] forward block: a multiple of the eight lanes
/// [`lergan_tensor::tanh_into`] runs at once.
const TANH_BLOCK: usize = 256;

/// Hyperbolic-tangent activation (generator output), computed by
/// [`lergan_tensor::tanh`]: the same bits on every host.
#[derive(Debug, Default)]
pub struct Tanh {
    /// Output cache of the last forward.
    cached_output: Option<Tensor>,
}

impl Tanh {
    /// Creates the activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl TrainableLayer for Tanh {
    fn apply_update(&mut self, _rule: &UpdateRule, _step: u64) {}
    fn zero_grads(&mut self) {}

    fn forward_batch(
        &mut self,
        input: &Tensor,
        batch: usize,
        ws: &mut Workspace,
    ) -> Result<Tensor, TrainError> {
        if batch == 0 {
            return Err(TrainError::EmptyBatch);
        }
        if input.shape()[0] != batch {
            return Err(TrainError::ShapeMismatch {
                layer: "Tanh",
                expected: vec![batch],
                actual: input.shape().to_vec(),
            });
        }
        let cache = cache_buf(&mut self.cached_output, input.shape());
        let slen = input.len() / batch;
        let mut out = ws.take(input.len());
        let data = input.data();
        let samples = parallel::min_items(slen);
        parallel::for_each_unit_chunk_pair_mut(
            &mut out,
            cache.data_mut(),
            slen,
            samples,
            |first, out, cache| {
                let (off, n) = (first * slen, out.len());
                // Blocks small enough that the copy into the cache reads
                // them back from L1.
                for ((o, c), x) in out
                    .chunks_mut(TANH_BLOCK)
                    .zip(cache.chunks_mut(TANH_BLOCK))
                    .zip(data[off..off + n].chunks(TANH_BLOCK))
                {
                    lergan_tensor::tanh_into(x, o);
                    c.copy_from_slice(o);
                }
            },
        );
        Ok(Tensor::from_vec(input.shape(), out))
    }

    fn backward_batch(
        &mut self,
        grad_out: &Tensor,
        batch: usize,
        _grads: Grads,
        ws: &mut Workspace,
    ) -> Result<Option<Tensor>, TrainError> {
        let out = self
            .cached_output
            .as_ref()
            .ok_or(TrainError::BackwardBeforeForward { layer: "Tanh" })?;
        if out.shape()[0] != batch || grad_out.shape() != out.shape() {
            return Err(TrainError::ShapeMismatch {
                layer: "Tanh",
                expected: out.shape().to_vec(),
                actual: grad_out.shape().to_vec(),
            });
        }
        let slen = out.len() / batch;
        let mut din = ws.take(grad_out.len());
        {
            let yd = out.data();
            let gd = grad_out.data();
            let samples = parallel::min_items(slen);
            parallel::for_each_unit_chunk_mut(&mut din, slen, samples, |first, chunk| {
                let (off, n) = (first * slen, chunk.len());
                for ((d, &y), &g) in chunk
                    .iter_mut()
                    .zip(&yd[off..off + n])
                    .zip(&gd[off..off + n])
                {
                    *d = g * (1.0 - y * y);
                }
            });
        }
        Ok(Some(Tensor::from_vec(out.shape(), din)))
    }
}

/// Reshapes between flat FC outputs and `[C, H, W]` feature maps.
#[derive(Debug)]
pub struct Reshape {
    from: Vec<usize>,
    to: Vec<usize>,
}

impl Reshape {
    /// Creates the reshape; `from` and `to` must have equal element counts.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn new(from: &[usize], to: &[usize]) -> Self {
        assert_eq!(
            from.iter().product::<usize>(),
            to.iter().product::<usize>(),
            "reshape must preserve element count"
        );
        Reshape {
            from: from.to_vec(),
            to: to.to_vec(),
        }
    }
}

impl TrainableLayer for Reshape {
    fn apply_update(&mut self, _rule: &UpdateRule, _step: u64) {}
    fn zero_grads(&mut self) {}

    fn forward_batch(
        &mut self,
        input: &Tensor,
        batch: usize,
        ws: &mut Workspace,
    ) -> Result<Tensor, TrainError> {
        if batch == 0 {
            return Err(TrainError::EmptyBatch);
        }
        let per: usize = self.from.iter().product();
        if input.shape()[0] != batch || input.len() != batch * per {
            return Err(TrainError::ShapeMismatch {
                layer: "Reshape",
                expected: vec![batch, per],
                actual: input.shape().to_vec(),
            });
        }
        let mut out = ws.take(input.len());
        out.copy_from_slice(input.data());
        let (shape, rank) = batched_shape(batch, &self.to);
        Ok(Tensor::from_vec(&shape[..rank], out))
    }

    fn backward_batch(
        &mut self,
        grad_out: &Tensor,
        batch: usize,
        _grads: Grads,
        ws: &mut Workspace,
    ) -> Result<Option<Tensor>, TrainError> {
        if batch == 0 {
            return Err(TrainError::EmptyBatch);
        }
        let per: usize = self.to.iter().product();
        if grad_out.shape()[0] != batch || grad_out.len() != batch * per {
            return Err(TrainError::ShapeMismatch {
                layer: "Reshape",
                expected: vec![batch, per],
                actual: grad_out.shape().to_vec(),
            });
        }
        let mut din = ws.take(grad_out.len());
        din.copy_from_slice(grad_out.data());
        let (shape, rank) = batched_shape(batch, &self.from);
        Ok(Some(Tensor::from_vec(&shape[..rank], din)))
    }
}

/// A sequential stack of trainable layers, owning the [`Workspace`] its
/// layers draw scratch and result buffers from.
///
/// Intermediate activations and gradients are recycled into that pool as
/// soon as the next layer has consumed them; callers recycle the final
/// output via [`recycle`](Sequential::recycle). A training loop honouring
/// that contract allocates nothing after its first (warmup) step.
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn TrainableLayer>>,
    skips: Vec<SkipTap>,
    ws: Workspace,
}

/// One residual connection inside a [`Sequential`], in stack-position
/// space: the output of stack layer `from` is added element-wise to the
/// input of stack layer `to`. The stash buffers persist across steps
/// (zero-alloc steady state) and are dead outside a forward/backward pair,
/// so checkpoints ignore them.
#[derive(Debug, Default)]
struct SkipTap {
    from: usize,
    to: usize,
    stash: Option<Tensor>,
    grad_stash: Option<Tensor>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sequential")
            .field("layers", &self.layers.len())
            .field("skips", &self.skips.len())
            .field("ws", &self.ws)
            .finish()
    }
}

impl Sequential {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: Box<dyn TrainableLayer>) -> &mut Self {
        self.layers.push(layer);
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the stack is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The layer at stack position `index` (see [`OpBinding::train_index`]).
    pub fn layer(&self, index: usize) -> &dyn TrainableLayer {
        &*self.layers[index]
    }

    /// Returns a tensor this stack produced (a [`forward`]/[`backward`]
    /// result) to its buffer pool. Dropping outputs instead is correct but
    /// forgoes reuse — recycling is what keeps the steady-state training
    /// loop allocation-free.
    ///
    /// [`forward`]: Sequential::forward
    /// [`backward`]: Sequential::backward
    pub fn recycle(&mut self, t: Tensor) {
        self.ws.give_tensor(t);
    }

    /// Registers a residual connection: the output of stack layer `from`
    /// is added element-wise to the input of stack layer `to` on every
    /// forward pass, with the matching gradient routing on backward. The
    /// two activation shapes must agree (validated by the topology
    /// parser's skip resolution when built from a spec).
    ///
    /// # Panics
    ///
    /// Panics unless `from < to < len`.
    pub fn add_skip(&mut self, from: usize, to: usize) {
        assert!(from < to, "skip must flow forward ({from} -> {to})");
        assert!(to < self.layers.len(), "skip target {to} out of range");
        self.skips.push(SkipTap {
            from,
            to,
            ..SkipTap::default()
        });
    }

    /// Forward of one unbatched sample (`[C, H, W]` or `[dim]`) through
    /// all layers: a thin wrapper that runs it as a batch of one through
    /// [`forward_batch`](Sequential::forward_batch) and returns the
    /// unbatched output.
    ///
    /// # Panics
    ///
    /// Panics with the [`TrainError`] message, stated for the unbatched
    /// sample, when a layer rejects the sample's shape; panics if the
    /// input already has the maximum tensor rank (it is then a batch, for
    /// [`forward_batch`](Sequential::forward_batch)).
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        let packed = self.pack_sample(input, "forward");
        let out = self.forward_batch(&packed, 1);
        self.ws.give_tensor(packed);
        unbatch(out.unwrap_or_else(|e| panic!("{}", e.unbatched())))
    }

    /// Backward of one unbatched gradient through all layers, after a
    /// [`forward`](Sequential::forward); returns the unbatched `∇input`.
    ///
    /// # Panics
    ///
    /// Panics with the [`TrainError`] message, stated for the unbatched
    /// gradient, when a layer rejects the gradient or no forward preceded
    /// the call; panics if the gradient already has the maximum tensor
    /// rank.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let packed = self.pack_sample(grad_out, "backward");
        let din = self.backward_batch(&packed, 1);
        self.ws.give_tensor(packed);
        unbatch(din.unwrap_or_else(|e| panic!("{}", e.unbatched())))
    }

    /// Packs one unbatched tensor as a pooled batch of one for the
    /// `pass` wrapper.
    fn pack_sample(&mut self, sample: &Tensor, pass: &str) -> Tensor {
        let rank = sample.shape().len();
        assert!(
            rank < 4,
            "Sequential::{pass} takes one unbatched sample ([C, H, W], [dim] or [1]), \
             got rank {rank}; run batches through {pass}_batch"
        );
        pack_into(std::slice::from_ref(sample), &mut self.ws)
    }

    /// Forward through all layers with a leading batch dimension: every
    /// layer sees the whole `[B, …]` activation and runs its GEMMs (one
    /// fused product for a dense layer, one per sample for a conv-family
    /// layer) or one parallel elementwise sweep. Intermediate activations
    /// are recycled into the stack's pool, so the loop is allocation-free
    /// after warmup.
    ///
    /// # Errors
    ///
    /// Returns a [`TrainError`] when a layer rejects the batch shape.
    pub fn forward_batch(&mut self, input: &Tensor, batch: usize) -> Result<Tensor, TrainError> {
        let Sequential { layers, skips, ws } = self;
        if layers.is_empty() {
            return Ok(input.clone());
        }
        let mut x = layers[0].forward_batch(input, batch, ws)?;
        for tap in skips.iter_mut().filter(|t| t.from == 0) {
            let s = cache_buf(&mut tap.stash, x.shape());
            s.data_mut().copy_from_slice(x.data());
        }
        for (li, l) in layers.iter_mut().enumerate().skip(1) {
            for tap in skips.iter_mut().filter(|t| t.to == li) {
                let stash = tap.stash.as_ref().expect("skip source precedes target");
                x.axpy_in_place(1.0, stash);
            }
            let y = l.forward_batch(&x, batch, ws)?;
            ws.give_tensor(x);
            x = y;
            for tap in skips.iter_mut().filter(|t| t.from == li) {
                let s = cache_buf(&mut tap.stash, x.shape());
                s.data_mut().copy_from_slice(x.data());
            }
        }
        Ok(x)
    }

    /// Descends the stack once with the whole `[B, …]` gradient,
    /// accumulating each layer's `∇W` through per-sample partials folded by
    /// the fixed reduction tree (see [`tree_reduce_in_place`]); returns
    /// `∇input`. The full backward: [`backward_batch_with`] with
    /// [`Grads::All`].
    ///
    /// # Errors
    ///
    /// Returns a [`TrainError`] when a layer rejects the gradient shape or
    /// was not forwarded at the same batch size first.
    ///
    /// [`backward_batch_with`]: Sequential::backward_batch_with
    pub fn backward_batch(
        &mut self,
        grad_out: &Tensor,
        batch: usize,
    ) -> Result<Tensor, TrainError> {
        self.backward_batch_with(grad_out, batch, Grads::All)
            .map(|din| din.expect("a full backward returns the input gradient"))
    }

    /// [`backward_batch`](Sequential::backward_batch) producing only what
    /// `grads` asks for: with [`Grads::Params`] no `∇input` is computed and
    /// `None` is returned; with [`Grads::Input`] no layer accumulates
    /// parameter gradients. Every layer above the first still computes its
    /// `∇input`, which the layer below reads; only the first layer's
    /// request is the caller's. Whatever is produced is bit-identical to
    /// the full backward's.
    ///
    /// # Errors
    ///
    /// As [`backward_batch`](Sequential::backward_batch).
    pub fn backward_batch_with(
        &mut self,
        grad_out: &Tensor,
        batch: usize,
        grads: Grads,
    ) -> Result<Option<Tensor>, TrainError> {
        let Sequential { layers, skips, ws } = self;
        let n = layers.len();
        if n == 0 {
            return Ok(grads.input().then(|| grad_out.clone()));
        }
        let request = |li: usize| if li == 0 { grads } else { grads.with_input() };
        let Some(mut g) = layers[n - 1].backward_batch(grad_out, batch, request(n - 1), ws)? else {
            return Ok(None);
        };
        for tap in skips.iter_mut().filter(|t| t.to == n - 1) {
            let s = cache_buf(&mut tap.grad_stash, g.shape());
            s.data_mut().copy_from_slice(g.data());
        }
        for li in (0..n - 1).rev() {
            // The output of layer `li` also fed every skip tapped here:
            // fold the branch gradients stashed at their targets back in
            // before descending through the layer.
            for tap in skips.iter_mut().filter(|t| t.from == li) {
                let gs = tap.grad_stash.as_ref().expect("skip target follows source");
                g.axpy_in_place(1.0, gs);
            }
            let h = layers[li].backward_batch(&g, batch, request(li), ws)?;
            ws.give_tensor(g);
            // Only layer 0 can be asked for no ∇input.
            let Some(h) = h else {
                return Ok(None);
            };
            g = h;
            for tap in skips.iter_mut().filter(|t| t.to == li) {
                let s = cache_buf(&mut tap.grad_stash, g.shape());
                s.data_mut().copy_from_slice(g.data());
            }
        }
        if !grads.input() {
            // A parameter-free first layer returns its ∇input unasked.
            ws.give_tensor(g);
            return Ok(None);
        }
        Ok(Some(g))
    }

    /// Snapshots every layer's accumulated gradients, in stack order — the
    /// hook the trainer's bit-identity oracle tests compare through.
    pub fn capture_grads(&self) -> Vec<LayerState> {
        self.layers.iter().map(|l| l.capture_grads()).collect()
    }

    /// Applies and clears all accumulated gradients through `rule`.
    pub fn apply_update(&mut self, rule: &UpdateRule, step: u64) {
        for l in &mut self.layers {
            l.apply_update(rule, step);
        }
    }

    /// Clears all accumulated gradients.
    pub fn zero_grads(&mut self) {
        for l in &mut self.layers {
            l.zero_grads();
        }
    }

    /// Snapshots the persistent state of every layer, in stack order.
    pub fn capture_state(&self) -> Vec<LayerState> {
        self.layers.iter().map(|l| l.capture_state()).collect()
    }

    /// Restores a snapshot taken by [`capture_state`] into this stack.
    /// Fails with a typed [`CheckpointError`] — leaving already-restored
    /// layers restored — when the snapshot does not fit the architecture.
    ///
    /// [`capture_state`]: Sequential::capture_state
    pub fn restore_state(&mut self, states: &[LayerState]) -> Result<(), CheckpointError> {
        if states.len() != self.layers.len() {
            return Err(CheckpointError::LayerCountMismatch {
                expected: self.layers.len(),
                actual: states.len(),
            });
        }
        for (i, (layer, state)) in self.layers.iter_mut().zip(states).enumerate() {
            layer.restore_state(state, i)?;
        }
        Ok(())
    }
}

/// A full trainer snapshot: both stacks' parameters and optimiser moments,
/// the optimiser step counter and the noise RNG position. Restoring one
/// into an architecturally identical [`Gan`] resumes training bit-exactly —
/// the property that lets a fault-triggered remap checkpoint mid-epoch,
/// rebuild the hardware mapping around the fault, and continue instead of
/// restarting (see `lergan_core::SystemFaults`).
#[derive(Debug, Clone, PartialEq)]
pub struct GanCheckpoint {
    /// Per-layer state of the generator stack.
    pub generator: Vec<LayerState>,
    /// Per-layer state of the discriminator stack.
    pub discriminator: Vec<LayerState>,
    /// Optimiser steps taken (drives Adam's bias correction).
    pub step: u64,
    /// Noise-generator position (SplitMix64 state).
    pub rng_state: u64,
    /// FNV-1a digest over the full payload, taken over 64-bit words rather
    /// than bytes (see [`payload_digest`](Self::payload_digest)) and
    /// recorded at capture time. [`Gan::restore`]
    /// recomputes it and refuses a mismatching snapshot with
    /// [`CheckpointError::Corrupted`] — a bit flip in a stored moment
    /// would otherwise resume training from silently wrong state.
    pub checksum: u64,
}

impl GanCheckpoint {
    /// Recomputes the payload digest (everything except the stored
    /// [`checksum`](Self::checksum) field itself). Equal payloads hash
    /// equal, so bit-identical checkpoints keep bit-identical digests.
    ///
    /// The digest is FNV-1a over 64-bit words: each word is XORed into the
    /// state, which is then multiplied by the FNV prime. A word is one of
    /// the stack and layer lengths, a key's length, up to 8 bytes of the key
    /// (little-endian, zero-padded), a tensor's rank, one shape dimension,
    /// two consecutive `f32` bit patterns of a tensor (the first in the low
    /// half; an odd tensor's last value stands alone), the step or the RNG
    /// state. Every length precedes what it counts, so the word sequence
    /// determines the payload. Both operations of a step are bijections of
    /// the state (the prime is odd), so a checkpoint that differs from
    /// another in exactly one word — any single flipped bit of a tensor
    /// value, the step or the RNG state — always digests differently.
    pub fn payload_digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |word: u64| {
            h ^= word;
            h = h.wrapping_mul(PRIME);
        };
        for stack in [&self.generator, &self.discriminator] {
            eat(stack.len() as u64);
            for layer in stack.iter() {
                eat(layer.len() as u64);
                for (key, tensor) in layer.entries() {
                    eat(key.len() as u64);
                    for bytes in key.as_bytes().chunks(8) {
                        let mut word = [0u8; 8];
                        word[..bytes.len()].copy_from_slice(bytes);
                        eat(u64::from_le_bytes(word));
                    }
                    eat(tensor.shape().len() as u64);
                    for &d in tensor.shape() {
                        eat(d as u64);
                    }
                    let mut pairs = tensor.data().chunks_exact(2);
                    for pair in &mut pairs {
                        eat(u64::from(pair[0].to_bits()) | u64::from(pair[1].to_bits()) << 32);
                    }
                    if let [last] = pairs.remainder() {
                        eat(u64::from(last.to_bits()));
                    }
                }
            }
        }
        eat(self.step);
        eat(self.rng_state);
        h
    }

    /// Checks the stored checksum against the payload, returning
    /// [`CheckpointError::Corrupted`] on mismatch.
    pub fn verify(&self) -> Result<(), CheckpointError> {
        let actual = self.payload_digest();
        if actual == self.checksum {
            Ok(())
        } else {
            Err(CheckpointError::Corrupted {
                expected: self.checksum,
                actual,
            })
        }
    }
}

/// Periodic checkpoint cadence: retains the most recent [`GanCheckpoint`],
/// refreshed every `every` optimiser steps.
///
/// This is the policy half of checkpoint-rollback recovery: a runtime
/// calls [`maybe_take`](Self::maybe_take) at every step boundary, and on
/// an uncorrectable hardware fault restores [`last`](Self::last) and
/// replays the steps since — the cadence bounds how much work a rollback
/// can lose.
#[derive(Debug, Clone)]
pub struct AutoCheckpoint {
    every: u64,
    taken: u64,
    last: Option<GanCheckpoint>,
}

impl AutoCheckpoint {
    /// A cadence of one checkpoint every `every` steps (the first call to
    /// [`maybe_take`](Self::maybe_take) always snapshots).
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn every(every: u64) -> Self {
        assert!(every > 0, "checkpoint cadence must be at least 1 step");
        AutoCheckpoint {
            every,
            taken: 0,
            last: None,
        }
    }

    /// Snapshots `gan` if the cadence is due: no checkpoint exists yet, or
    /// `every` steps have passed since the last one. Call at a step
    /// boundary (between [`Gan::train_step`]s). Returns whether a
    /// checkpoint was taken.
    pub fn maybe_take(&mut self, gan: &Gan) -> bool {
        let due = match &self.last {
            None => true,
            Some(prev) => gan.step() >= prev.step + self.every,
        };
        if due {
            self.last = Some(gan.checkpoint());
            self.taken += 1;
        }
        due
    }

    /// The most recent checkpoint, if any was taken.
    pub fn last(&self) -> Option<&GanCheckpoint> {
        self.last.as_ref()
    }

    /// Checkpoints taken so far.
    pub fn taken(&self) -> u64 {
        self.taken
    }
}

/// Builds a trainable network from a parsed [`NetworkSpec`] (2-D networks
/// only), inserting leaky-ReLU activations between layers and `tanh` after
/// the final layer of a generator.
///
/// # Panics
///
/// Panics if the spec is volumetric (`dims != 2`).
pub fn build_trainable(spec: &NetworkSpec, is_generator: bool, rng: &mut StdRng) -> Sequential {
    build_trainable_with(spec, is_generator, false, rng)
}

/// [`build_trainable`] with optional DCGAN-style batch normalisation after
/// every conv-like hidden layer.
///
/// # Panics
///
/// Panics if the spec is volumetric (`dims != 2`).
pub fn build_trainable_with(
    spec: &NetworkSpec,
    is_generator: bool,
    batch_norm: bool,
    rng: &mut StdRng,
) -> Sequential {
    build_trainable_bound(spec, is_generator, batch_norm, rng).0
}

/// Binding from one forward-phase [`PhaseOp`](crate::ir::PhaseOp) to the
/// trainer layer realising it inside a [`Sequential`] stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpBinding {
    /// Id of the op inside its per-phase op list
    /// ([`crate::ir::network_ops`] of the network's forward phase).
    pub op: OpId,
    /// Index of the layer inside the parsed [`NetworkSpec`].
    pub layer_index: usize,
    /// Stack position of the realising parameterised layer inside the
    /// returned [`Sequential`] (reshapes/activations/norms occupy the
    /// positions in between).
    pub train_index: usize,
}

/// [`build_trainable_with`], additionally returning the stable
/// op-id ↔ train-layer correspondence: the `Sequential` is constructed by
/// walking the forward ops of the op-graph IR, and each op's realising
/// layer is recorded in an [`OpBinding`]. This is what lets per-op
/// schedule statistics be joined against the functional trainer.
///
/// # Panics
///
/// Panics if the spec is volumetric (`dims != 2`).
pub fn build_trainable_bound(
    spec: &NetworkSpec,
    is_generator: bool,
    batch_norm: bool,
    rng: &mut StdRng,
) -> (Sequential, Vec<OpBinding>) {
    assert_eq!(spec.dims, 2, "functional training supports 2-D networks");
    let phase = if is_generator {
        Phase::GForward
    } else {
        Phase::DForward
    };
    let ops = crate::ir::network_ops(spec, phase);
    let mut net = Sequential::new();
    let mut bindings = Vec::with_capacity(ops.len());
    let n = spec.layers.len();
    for op in &ops {
        let i = op.layer_index;
        let layer = &spec.layers[i];
        bindings.push(OpBinding {
            op: op.id,
            layer_index: i,
            train_index: net.len(),
        });
        match layer {
            Layer::Fc(f) => {
                net.push(Box::new(DenseLayer::new(f.in_units, f.out_units, rng)));
                // If the next layer is conv-like, reshape to its input map.
                if let Some(next) = spec.layers.get(i + 1) {
                    if !matches!(next, Layer::Fc(_)) {
                        let c = next.fan_in_channels();
                        let s = next.in_spatial();
                        net.push(Box::new(Reshape::new(&[f.out_units], &[c, s, s])));
                    }
                }
            }
            Layer::Conv(c) => {
                net.push(Box::new(ConvTrainLayer::new(
                    c.in_channels,
                    c.out_channels,
                    c.geometry,
                    rng,
                )));
            }
            Layer::Tconv(t) => {
                net.push(Box::new(ConvTrainLayer::new(
                    t.in_channels,
                    t.out_channels,
                    t.geometry,
                    rng,
                )));
            }
            Layer::Dconv(d) => {
                net.push(Box::new(ConvTrainLayer::new(
                    d.in_channels,
                    d.out_channels,
                    d.geometry,
                    rng,
                )));
            }
        }
        let last = i + 1 == n;
        let conv_like = !matches!(layer, Layer::Fc(_));
        match spec.norm_of(i) {
            // Untagged layers keep the historical contract: normalise
            // every hidden conv-like layer iff the caller asked for it.
            Norm::Legacy => {
                if batch_norm && !last && conv_like {
                    net.push(Box::new(BatchNorm::new(layer.fan_out_channels())));
                }
            }
            Norm::Batch => {
                if conv_like {
                    net.push(Box::new(BatchNorm::new(layer.fan_out_channels())));
                }
            }
            Norm::Pixel => {
                if conv_like {
                    net.push(Box::new(PixelNorm::new()));
                }
            }
            Norm::None => {}
        }
        if last && is_generator {
            net.push(Box::new(Tanh::new()));
        } else if !last {
            net.push(Box::new(LeakyRelu::new(0.2)));
        }
    }
    for sk in &spec.skips {
        // Tap the full output of the block realising `from` — conv plus
        // its norm and activation, i.e. the stack slot just before the
        // block realising `from + 1` — and land it on the parameterised
        // layer realising `to`, matching the IR's skip dataflow edge.
        let tap = bindings[sk.from + 1].train_index - 1;
        net.add_skip(tap, bindings[sk.to].train_index);
    }
    (net, bindings)
}

/// Statistics from one training step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepStats {
    /// Discriminator BCE loss averaged over the batch.
    pub d_loss: f32,
    /// Generator non-saturating loss averaged over the batch.
    pub g_loss: f32,
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

fn bce_with_logit(logit: f32, target: f32) -> f32 {
    // Numerically stable: max(x,0) - x*t + ln(1 + e^{-|x|}).
    logit.max(0.0) - logit * target + (1.0 + (-logit.abs()).exp()).ln()
}

/// A trainable GAN: generator + discriminator + optimisation state.
#[derive(Debug)]
pub struct Gan {
    /// The generator stack.
    pub generator: Sequential,
    /// The discriminator stack (ends in a single raw logit).
    pub discriminator: Sequential,
    noise_dim: usize,
    rule: UpdateRule,
    step: u64,
    rng: StdRng,
    /// Pool for the trainer's own buffers (noise vectors, loss-gradient
    /// seeds) — per-stack buffers live in each stack's own workspace.
    scratch: Workspace,
}

/// Samples a uniform noise vector in `[-1, 1]` into a pooled buffer.
fn sample_noise_into(rng: &mut StdRng, dim: usize, ws: &mut Workspace) -> Tensor {
    let mut buf = ws.take(dim);
    for slot in buf.iter_mut() {
        *slot = rng.gen::<f32>() * 2.0 - 1.0;
    }
    Tensor::from_vec(&[dim], buf)
}

/// Samples `batch` noise vectors into one `[batch, dim]` tensor, filling
/// samples in ascending order — the RNG consumes exactly the stream that
/// `batch` successive [`sample_noise_into`] calls would.
fn sample_noise_batch_into(
    rng: &mut StdRng,
    dim: usize,
    batch: usize,
    ws: &mut Workspace,
) -> Tensor {
    let mut buf = ws.take(batch * dim);
    for slot in buf.iter_mut() {
        *slot = rng.gen::<f32>() * 2.0 - 1.0;
    }
    Tensor::from_vec(&[batch, dim], buf)
}

/// Stacks same-shaped samples into one `[B, …]` batch tensor for
/// [`Gan::train_step_batched`]. A setup helper, not a steady-state path —
/// it allocates the batch buffer ([`Gan::train_step`] packs into a pooled
/// one instead).
///
/// # Panics
///
/// Panics if `samples` is empty, the shapes disagree, or a sample already
/// has the maximum tensor rank (no room for the batch dimension).
pub fn pack_batch(samples: &[Tensor]) -> Tensor {
    assert!(!samples.is_empty(), "pack_batch needs at least one sample");
    pack_into(samples, &mut Workspace::new())
}

impl Gan {
    /// Creates a GAN from two stacks.
    pub fn new(
        generator: Sequential,
        discriminator: Sequential,
        noise_dim: usize,
        lr: f32,
        seed: u64,
    ) -> Self {
        Gan {
            generator,
            discriminator,
            noise_dim,
            rule: UpdateRule::sgd(lr),
            step: 0,
            rng: StdRng::seed_from_u64(seed),
            scratch: Workspace::new(),
        }
    }

    /// Replaces the update rule (momentum, Adam, …).
    pub fn with_optimizer(mut self, rule: UpdateRule) -> Self {
        self.rule = rule;
        self
    }

    /// Optimiser steps taken so far.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Snapshots the full trainer state. Call between [`train_step`]s:
    /// gradients and activation caches are dead there, so parameters,
    /// optimiser moments, the step counter and the RNG position are the
    /// complete state of the computation.
    ///
    /// [`train_step`]: Gan::train_step
    pub fn checkpoint(&self) -> GanCheckpoint {
        let mut ckpt = GanCheckpoint {
            generator: self.generator.capture_state(),
            discriminator: self.discriminator.capture_state(),
            step: self.step,
            rng_state: self.rng.state(),
            checksum: 0,
        };
        ckpt.checksum = ckpt.payload_digest();
        ckpt
    }

    /// Restores a [`checkpoint`] into this trainer. The receiving GAN must
    /// have the same architecture (it may have different weights — they are
    /// overwritten). After a successful restore the next [`train_step`]
    /// produces bit-identical results to the one that would have followed
    /// the checkpoint.
    ///
    /// [`checkpoint`]: Gan::checkpoint
    /// [`train_step`]: Gan::train_step
    pub fn restore(&mut self, ckpt: &GanCheckpoint) -> Result<(), CheckpointError> {
        ckpt.verify()?;
        self.generator.restore_state(&ckpt.generator)?;
        self.discriminator.restore_state(&ckpt.discriminator)?;
        self.step = ckpt.step;
        self.rng.set_state(ckpt.rng_state);
        Ok(())
    }

    /// Samples a uniform noise vector in `[-1, 1]`.
    pub fn sample_noise(&mut self) -> Tensor {
        sample_noise_into(&mut self.rng, self.noise_dim, &mut self.scratch)
    }

    /// Generates one sample from fresh noise (no gradients retained).
    pub fn generate(&mut self) -> Tensor {
        let noise = sample_noise_into(&mut self.rng, self.noise_dim, &mut self.scratch);
        let out = self.generator.forward(&noise);
        self.scratch.give_tensor(noise);
        out
    }

    /// Runs one minibatch training step (Fig. 3's full dataflow: train D on
    /// real+fake, then train G through the frozen D) over unbatched
    /// samples: [`try_train_step`](Gan::try_train_step), panicking on its
    /// error.
    ///
    /// # Panics
    ///
    /// Panics, with the [`TrainError`] message, if the samples' shapes
    /// disagree with each other or with the discriminator.
    pub fn train_step(&mut self, reals: &[Tensor]) -> StepStats {
        self.try_train_step(reals).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs one minibatch training step over unbatched samples: a thin
    /// wrapper that packs them into a pooled `[B, …]` buffer and runs
    /// [`train_step_batched`](Gan::train_step_batched).
    ///
    /// An empty slice is a no-op: it returns zeroed [`StepStats`] and
    /// leaves the step counter, the parameters and the RNG untouched.
    ///
    /// # Errors
    ///
    /// A [`TrainError::ShapeMismatch`] (layer `"batch"`) when the samples'
    /// shapes disagree, a [`TrainError::RankMismatch`] (layer `"batch"`)
    /// when a sample leaves no room for the batch axis, and the error of
    /// [`train_step_batched`](Gan::train_step_batched) when the batch does
    /// not fit the discriminator. A rejected batch leaves the parameters,
    /// the optimiser state, the step counter and the RNG untouched (a
    /// BatchNorm layer ahead of the discriminator layer that rejects it
    /// has folded it into its running statistics).
    pub fn try_train_step(&mut self, reals: &[Tensor]) -> Result<StepStats, TrainError> {
        let Some(first) = reals.first() else {
            return Ok(StepStats {
                d_loss: 0.0,
                g_loss: 0.0,
            });
        };
        let shape = first.shape();
        if let Some(other) = reals.iter().find(|s| s.shape() != shape) {
            return Err(TrainError::ShapeMismatch {
                layer: "batch",
                expected: shape.to_vec(),
                actual: other.shape().to_vec(),
            });
        }
        if shape.len() >= 4 {
            return Err(TrainError::RankMismatch {
                layer: "batch",
                expected: 3,
                actual: shape.len(),
            });
        }
        let packed = pack_into(reals, &mut self.scratch);
        let stats = self.train_step_batched(&packed);
        self.scratch.give_tensor(packed);
        stats
    }

    /// Turns a `[batch, 1]` logit tensor into the matching `[batch, 1]`
    /// loss-gradient seed batch, accumulating the BCE loss (b-ascending,
    /// one fixed order regardless of thread count) into `loss`.
    fn seed_grads_batch(&mut self, logits: &Tensor, target: f32, loss: &mut f32) -> Tensor {
        let batch = logits.len();
        let m = batch as f32;
        let mut buf = self.scratch.take(batch);
        for (slot, &l) in buf.iter_mut().zip(logits.data()) {
            *loss += bce_with_logit(l, target);
            *slot = (sigmoid(l) - target) / m;
        }
        Tensor::from_vec(&[batch, 1], buf)
    }

    /// Runs one minibatch training step over a packed `[B, …]` real batch
    /// (see [`pack_batch`]): train D on the real batch and a fake batch,
    /// then train G through the frozen D, each network pass covering the
    /// whole batch.
    ///
    /// Each backward computes only the gradients the step reads (see
    /// [`Grads`]), the passes of Fig. 3 that `lergan_core`'s schedule
    /// models:
    /// - D half, once on the reals and once on a fake batch: `D→`, then
    ///   `D←` with `D-w` but without the image gradient; then D's update.
    /// - G half: `G→`, `D→`, an input-only `D←` (no `D-w`), then `G←` with
    ///   `G-w` but without the noise gradient; then G's update.
    ///
    /// Neither stack holds gradients at a step boundary: G accumulates
    /// none in the D half and D none in the G half.
    ///
    /// The RNG draws `B` noise vectors in the D phase, then `B` in the G
    /// phase, samples ascending. Gradients are exact per-sample partials
    /// folded by a fixed reduction tree ([`tree_reduce_in_place`]), so the
    /// step is bit-deterministic across runs and thread counts.
    ///
    /// # Errors
    ///
    /// Returns a [`TrainError`] when the batch is empty or a shape
    /// disagrees with the stacks. The
    /// trainer state is unspecified-but-valid after an error (a partial
    /// phase may have accumulated gradients); restore a checkpoint to
    /// resume bit-exactly.
    pub fn train_step_batched(&mut self, reals: &Tensor) -> Result<StepStats, TrainError> {
        if reals.shape().is_empty() || reals.shape()[0] == 0 {
            return Err(TrainError::EmptyBatch);
        }
        let batch = reals.shape()[0];
        let m = batch as f32;

        // ---- Train the discriminator (Eq. 1). ----
        let mut d_loss = 0.0;
        // Real batch, target 1.
        let logits = self.discriminator.forward_batch(reals, batch)?;
        let seeds = self.seed_grads_batch(&logits, 1.0, &mut d_loss);
        self.discriminator.recycle(logits);
        self.discriminator
            .backward_batch_with(&seeds, batch, Grads::Params)?;
        self.scratch.give_tensor(seeds);
        // Fake batch, target 0.
        let noise =
            sample_noise_batch_into(&mut self.rng, self.noise_dim, batch, &mut self.scratch);
        let fakes = self.generator.forward_batch(&noise, batch)?;
        self.scratch.give_tensor(noise);
        let logits = self.discriminator.forward_batch(&fakes, batch)?;
        self.generator.recycle(fakes);
        let seeds = self.seed_grads_batch(&logits, 0.0, &mut d_loss);
        self.discriminator.recycle(logits);
        self.discriminator
            .backward_batch_with(&seeds, batch, Grads::Params)?;
        self.scratch.give_tensor(seeds);
        self.step += 1;
        self.discriminator.apply_update(&self.rule, self.step);

        // ---- Train the generator (non-saturating form of Eq. 2). ----
        let mut g_loss = 0.0;
        let noise =
            sample_noise_batch_into(&mut self.rng, self.noise_dim, batch, &mut self.scratch);
        let fakes = self.generator.forward_batch(&noise, batch)?;
        self.scratch.give_tensor(noise);
        let logits = self.discriminator.forward_batch(&fakes, batch)?;
        self.generator.recycle(fakes);
        let seeds = self.seed_grads_batch(&logits, 1.0, &mut g_loss);
        self.discriminator.recycle(logits);
        let d_input_grad = self
            .discriminator
            .backward_batch_with(&seeds, batch, Grads::Input)?
            .expect("an input-gradient request returns the input gradient");
        self.scratch.give_tensor(seeds);
        self.generator
            .backward_batch_with(&d_input_grad, batch, Grads::Params)?;
        self.discriminator.recycle(d_input_grad);
        self.generator.apply_update(&self.rule, self.step);

        Ok(StepStats {
            d_loss: d_loss / (2.0 * m),
            g_loss: g_loss / m,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::parse_network;
    use lergan_tensor::{SconvGeometry, TconvGeometry};

    fn tiny_generator(rng: &mut StdRng) -> Sequential {
        let mut g = Sequential::new();
        let geom = TconvGeometry::for_upsampling(4, 3, 2).unwrap();
        g.push(Box::new(DenseLayer::new(4, 8 * 16, rng)));
        g.push(Box::new(Reshape::new(&[8 * 16], &[8, 4, 4])));
        g.push(Box::new(LeakyRelu::new(0.2)));
        g.push(Box::new(ConvTrainLayer::new(8, 1, geom, rng)));
        g.push(Box::new(Tanh::new()));
        g
    }

    fn tiny_discriminator(rng: &mut StdRng) -> Sequential {
        let mut d = Sequential::new();
        let geom = SconvGeometry::new(8, 3, 2, 1).unwrap();
        d.push(Box::new(ConvTrainLayer::new(1, 4, geom, rng)));
        d.push(Box::new(LeakyRelu::new(0.2)));
        d.push(Box::new(DenseLayer::new(4 * 16, 1, rng)));
        d
    }

    fn blob_sample(rng: &mut StdRng) -> Tensor {
        // "Real data": 8x8 images whose pixels are all ~0.6.
        let v = 0.6 + (rng.gen::<f32>() - 0.5) * 0.1;
        Tensor::filled(&[1, 8, 8], v)
    }

    #[test]
    fn gan_learns_constant_distribution() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = tiny_generator(&mut rng);
        let d = tiny_discriminator(&mut rng);
        let mut gan = Gan::new(g, d, 4, 0.05, 42);

        let initial_mean = {
            let s = gan.generate();
            s.sum() / s.len() as f32
        };
        for _ in 0..300 {
            let reals: Vec<Tensor> = (0..4).map(|_| blob_sample(&mut rng)).collect();
            gan.train_step(&reals);
        }
        let trained_mean = {
            let mut acc = 0.0;
            for _ in 0..8 {
                let s = gan.generate();
                acc += s.sum() / s.len() as f32;
            }
            acc / 8.0
        };
        // The generator's mean pixel should move toward 0.6.
        assert!(
            (trained_mean - 0.6).abs() < (initial_mean - 0.6).abs(),
            "generator mean moved {initial_mean:.3} -> {trained_mean:.3}, away from 0.6"
        );
        assert!(
            (trained_mean - 0.6).abs() < 0.3,
            "generator mean {trained_mean:.3} should approach 0.6"
        );
    }

    #[test]
    fn discriminator_separates_obvious_inputs() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut d = tiny_discriminator(&mut rng);
        // Train D alone: positives are +0.8 images, negatives are -0.8.
        for _ in 0..80 {
            let pos = Tensor::filled(&[1, 8, 8], 0.8);
            let logit = d.forward(&pos).data()[0];
            d.backward(&Tensor::from_vec(&[1], vec![sigmoid(logit) - 1.0]));
            let neg = Tensor::filled(&[1, 8, 8], -0.8);
            let logit = d.forward(&neg).data()[0];
            d.backward(&Tensor::from_vec(&[1], vec![sigmoid(logit)]));
            d.apply_update(&UpdateRule::sgd(0.05), 1);
        }
        let pos_logit = d.forward(&Tensor::filled(&[1, 8, 8], 0.8)).data()[0];
        let neg_logit = d.forward(&Tensor::filled(&[1, 8, 8], -0.8)).data()[0];
        assert!(
            pos_logit > neg_logit + 1.0,
            "D failed to separate: {pos_logit} vs {neg_logit}"
        );
    }

    #[test]
    fn auto_checkpoint_cadence_and_rollback_replay() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = tiny_generator(&mut rng);
        let d = tiny_discriminator(&mut rng);
        let mut gan = Gan::new(g, d, 4, 0.05, 17);
        let mut cadence = AutoCheckpoint::every(3);

        // Reference: 7 uninterrupted steps, checkpoints at steps 0, 3, 6.
        let mut data_rng = StdRng::seed_from_u64(100);
        let mut batches = Vec::new();
        for _ in 0..7 {
            assert_eq!(cadence.maybe_take(&gan), gan.step().is_multiple_of(3));
            let reals: Vec<Tensor> = (0..2).map(|_| blob_sample(&mut data_rng)).collect();
            batches.push(reals.clone());
            gan.train_step(&reals);
        }
        assert_eq!(cadence.taken(), 3);
        let last = cadence.last().expect("cadence took checkpoints");
        assert_eq!(last.step, 6);
        let reference = gan.checkpoint();

        // Rollback: restore the last checkpoint and replay the step since.
        gan.restore(last).unwrap();
        assert_eq!(gan.step(), 6);
        gan.train_step(&batches[6]);
        assert_eq!(
            gan.checkpoint(),
            reference,
            "replay from the cadence checkpoint must be bit-exact"
        );
    }

    #[test]
    fn dense_layer_gradient_check() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ws = Workspace::new();
        let mut l = DenseLayer::new(3, 2, &mut rng);
        let x = Tensor::from_vec(&[1, 3], vec![0.5, -0.3, 0.8]);
        let dout = Tensor::from_vec(&[1, 2], vec![1.0, -0.5]);
        let _ = l.forward_batch(&x, 1, &mut ws).unwrap();
        let din = l
            .backward_batch(&dout, 1, Grads::All, &mut ws)
            .unwrap()
            .unwrap();
        // din = W^T dout.
        let w = l.weights.clone();
        for i in 0..3 {
            let expect = w[&[0, i]] * 1.0 + w[&[1, i]] * (-0.5);
            assert!((din.data()[i] - expect).abs() < 1e-5);
        }
    }

    #[test]
    fn tconv_layer_round_trip_shapes() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut ws = Workspace::new();
        let geom = TconvGeometry::for_upsampling(4, 3, 2).unwrap();
        let mut l = ConvTrainLayer::new(2, 3, geom, &mut rng);
        let x = Tensor::ones(&[2, 2, 4, 4]);
        let y = l.forward_batch(&x, 2, &mut ws).unwrap();
        assert_eq!(y.shape(), &[2, 3, 8, 8]);
        let din = l
            .backward_batch(&Tensor::ones(&[2, 3, 8, 8]), 2, Grads::All, &mut ws)
            .unwrap()
            .unwrap();
        assert_eq!(din.shape(), &[2, 2, 4, 4]);
    }

    #[test]
    fn build_trainable_with_batchnorm_runs() {
        let spec = parse_network("tiny", "16f-(8t-4t)(3k2s)-t1", 2, 16).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let mut net = build_trainable_with(&spec, true, true, &mut rng);
        let out = net.forward(&Tensor::ones(&[16]));
        assert_eq!(out.shape(), &[1, 16, 16]);
        let din = net.backward(&Tensor::ones(&[1, 16, 16]));
        assert_eq!(din.len(), 16);
        net.apply_update(&UpdateRule::sgd(0.01), 1);
    }

    #[test]
    fn build_trainable_from_tiny_spec() {
        // A miniature DCGAN-shaped generator spec.
        let spec = parse_network("tiny", "16f-(8t-4t)(3k2s)-t1", 2, 16).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut net = build_trainable(&spec, true, &mut rng);
        let noise = Tensor::ones(&[16]);
        let out = net.forward(&noise);
        assert_eq!(out.shape(), &[1, 16, 16]);
        // tanh bounds the output.
        assert!(out.data().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn batchnorm_normalizes_and_round_trips_gradients() {
        let mut ws = Workspace::new();
        let mut bn = BatchNorm::new(2);
        let input = Tensor::from_fn(&[1, 2, 4, 4], |i| {
            (i[1] as f32 + 1.0) * (i[2] * 4 + i[3]) as f32 * 0.25 + 3.0
        });
        let out = bn.forward_batch(&input, 1, &mut ws).unwrap();
        // Each channel of the output is ~zero-mean, ~unit-variance
        // (gamma=1, beta=0 initially).
        for ci in 0..2 {
            let mut mean = 0.0;
            let mut var = 0.0;
            for y in 0..4 {
                for x in 0..4 {
                    mean += out[&[0, ci, y, x]];
                }
            }
            mean /= 16.0;
            for y in 0..4 {
                for x in 0..4 {
                    let d = out[&[0, ci, y, x]] - mean;
                    var += d * d;
                }
            }
            var /= 16.0;
            assert!(mean.abs() < 1e-4, "channel {ci} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "channel {ci} var {var}");
        }
        // Gradient of a constant loss w.r.t. input sums to ~zero per
        // channel (normalisation removes the mean direction).
        let din = bn
            .backward_batch(&Tensor::ones(&[1, 2, 4, 4]), 1, Grads::All, &mut ws)
            .unwrap()
            .unwrap();
        for ci in 0..2 {
            let mut s = 0.0;
            for y in 0..4 {
                for x in 0..4 {
                    s += din[&[0, ci, y, x]];
                }
            }
            assert!(s.abs() < 1e-3, "channel {ci} grad sum {s}");
        }
    }

    #[test]
    fn batchnorm_gradient_check() {
        let mut ws = Workspace::new();
        let mut bn = BatchNorm::new(1);
        let input = Tensor::from_fn(&[1, 1, 3, 3], |i| ((i[2] * 3 + i[3]) as f32).sin());
        let dout = Tensor::from_fn(&[1, 1, 3, 3], |i| ((i[2] + i[3]) as f32).cos() * 0.5);
        let _ = bn.forward_batch(&input, 1, &mut ws).unwrap();
        let din = bn
            .backward_batch(&dout, 1, Grads::All, &mut ws)
            .unwrap()
            .unwrap();
        // Finite differences through the full normalise-and-scale path.
        let loss = |inp: &Tensor| -> f32 {
            let mut probe_ws = Workspace::new();
            let mut probe = BatchNorm::new(1);
            probe
                .forward_batch(inp, 1, &mut probe_ws)
                .unwrap()
                .zip_with(&dout, |a, b| a * b)
                .sum()
        };
        let eps = 1e-3;
        for probe_idx in [[0usize, 0, 0, 0], [0, 0, 1, 2], [0, 0, 2, 1]] {
            let mut plus = input.clone();
            plus[&probe_idx[..]] += eps;
            let mut minus = input.clone();
            minus[&probe_idx[..]] -= eps;
            let fd = (loss(&plus) - loss(&minus)) / (2.0 * eps);
            assert!(
                (din[&probe_idx] - fd).abs() < 1e-2,
                "analytic {} vs fd {fd} at {probe_idx:?}",
                din[&probe_idx]
            );
        }
    }

    #[test]
    fn batchnorm_learns_affine_parameters() {
        let mut ws = Workspace::new();
        let mut bn = BatchNorm::new(1);
        let input = Tensor::from_fn(&[1, 1, 4, 4], |i| (i[2] * 4 + i[3]) as f32 * 0.1);
        // Push outputs toward a constant 2.0: beta must rise.
        for step in 1..=50u64 {
            let out = bn.forward_batch(&input, 1, &mut ws).unwrap();
            let grad = out.map(|y| 2.0 * (y - 2.0) / 16.0);
            let _ = bn.backward_batch(&grad, 1, Grads::All, &mut ws).unwrap();
            bn.apply_update(&UpdateRule::sgd(0.2), step);
        }
        let beta = bn.beta.data()[0];
        assert!(beta > 1.0, "beta should approach 2.0, got {beta}");
        assert!(bn.running_mean()[0] != 0.0);
    }

    #[test]
    fn optimizers_all_reduce_a_simple_loss() {
        // Fit y = W x to a fixed target with each rule; all must reduce
        // the squared error, and the adaptive rules at least as fast as
        // plain SGD on this conditioning.
        for rule in [
            UpdateRule::sgd(0.05),
            UpdateRule::Momentum {
                lr: 0.05,
                beta: 0.9,
            },
            UpdateRule::dcgan_adam(0.05),
        ] {
            let mut rng = StdRng::seed_from_u64(11);
            let mut ws = Workspace::new();
            let mut layer = DenseLayer::new(4, 1, &mut rng);
            let x = Tensor::from_vec(&[1, 4], vec![0.5, -0.2, 0.8, 0.1]);
            let target = 1.5f32;
            let mut first_loss = None;
            let mut last_loss = 0.0;
            for step in 1..=60u64 {
                let y = layer.forward_batch(&x, 1, &mut ws).unwrap().data()[0];
                let err = y - target;
                last_loss = err * err;
                first_loss.get_or_insert(last_loss);
                let g = Tensor::from_vec(&[1, 1], vec![2.0 * err]);
                layer.backward_batch(&g, 1, Grads::All, &mut ws).unwrap();
                layer.apply_update(&rule, step);
            }
            assert!(
                last_loss < first_loss.unwrap() * 0.05,
                "{rule:?}: loss {} -> {last_loss}",
                first_loss.unwrap()
            );
        }
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut ws = Workspace::new();
        let mut layer = DenseLayer::new(2, 1, &mut rng);
        let rule = UpdateRule::Momentum { lr: 0.1, beta: 0.9 };
        let x = Tensor::from_vec(&[1, 2], vec![1.0, 1.0]);
        let g = Tensor::from_vec(&[1, 1], vec![1.0]);
        // Constant gradient direction: updates should grow while velocity
        // accumulates (second step moves farther than the first).
        let w0 = layer.weights.clone();
        let _ = layer.forward_batch(&x, 1, &mut ws).unwrap();
        layer.backward_batch(&g, 1, Grads::All, &mut ws).unwrap();
        layer.apply_update(&rule, 1);
        let w1 = layer.weights.clone();
        let _ = layer.forward_batch(&x, 1, &mut ws).unwrap();
        layer.backward_batch(&g, 1, Grads::All, &mut ws).unwrap();
        layer.apply_update(&rule, 2);
        let w2 = layer.weights.clone();
        let d1 = (w1.data()[0] - w0.data()[0]).abs();
        let d2 = (w2.data()[0] - w1.data()[0]).abs();
        assert!(d2 > d1 * 1.5, "momentum should accelerate: {d1} vs {d2}");
    }

    /// The update as whole-tensor passes: the oracle the one-pass
    /// [`OptState::apply`] must equal bit for bit.
    fn multi_pass_update(
        rule: &UpdateRule,
        step: u64,
        m: &mut Option<Tensor>,
        v: &mut Option<Tensor>,
        weights: &mut Tensor,
        grad: &Tensor,
    ) {
        match *rule {
            UpdateRule::Sgd { lr } => weights.axpy_in_place(-lr, grad),
            UpdateRule::Momentum { lr, beta } => {
                let m = m.get_or_insert_with(|| Tensor::zeros(grad.shape()));
                m.scale_in_place(beta);
                m.axpy_in_place(1.0, grad);
                weights.axpy_in_place(-lr, m);
            }
            UpdateRule::Adam {
                lr,
                beta1,
                beta2,
                eps,
            } => {
                let m = m.get_or_insert_with(|| Tensor::zeros(grad.shape()));
                m.scale_in_place(beta1);
                m.axpy_in_place(1.0 - beta1, grad);
                let v = v.get_or_insert_with(|| Tensor::zeros(grad.shape()));
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
                weights.axpy_slice_in_place(-lr, &update);
            }
        }
    }

    #[test]
    fn one_pass_update_matches_the_multi_pass_reference() {
        let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let subnormal = f32::from_bits(0x0000_0421);
        let specials = [0.0, -0.0, subnormal, -subnormal, f32::NAN, 1e-20, -3.5];
        let rules = [
            UpdateRule::sgd(0.05),
            UpdateRule::Momentum {
                lr: 0.05,
                beta: 0.9,
            },
            UpdateRule::dcgan_adam(0.01),
            UpdateRule::Adam {
                lr: 1e-3,
                beta1: 0.9,
                beta2: 0.999,
                eps: 1e-8,
            },
        ];
        let mut rng = StdRng::seed_from_u64(5);
        for rule in &rules {
            for step in [1, 2, 1_000, (1 << 31) - 1] {
                // 37 elements: a vector body and a tail; the specials sit
                // in the weights and in every update's gradient.
                let mut w = Tensor::from_fn(&[37], |_| rng.gen::<f32>() - 0.5);
                w.data_mut()[..specials.len()].copy_from_slice(&specials);
                let mut w_ref = w.clone();
                let (mut m_ref, mut v_ref) = (None, None);
                let mut opt = OptState::default();
                for update in 0..3 {
                    let mut g = Tensor::from_fn(&[37], |_| rng.gen::<f32>() * 2.0 - 1.0);
                    let at = specials.len() + update;
                    g.data_mut()[at..at + specials.len()].copy_from_slice(&specials);
                    let step = step + update as u64;
                    opt.apply(rule, step, &mut w, &g);
                    multi_pass_update(rule, step, &mut m_ref, &mut v_ref, &mut w_ref, &g);
                    let what = format!("{rule:?} at step {step}");
                    assert_eq!(bits(&w), bits(&w_ref), "weights, {what}");
                    for (got, want) in [(&opt.m, &m_ref), (&opt.v, &v_ref)] {
                        assert_eq!(got.as_ref().map(bits), want.as_ref().map(bits), "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn activations_write_output_and_cache_in_one_pass_at_any_worker_count() {
        // 220 samples of 300: at two or more workers a chunk ends off a
        // `TANH_BLOCK` boundary.
        let (batch, len) = (220, 300);
        let input = Tensor::from_fn(&[batch, len], |i| {
            ((i[0] * 37 + i[1] * 11) % 97) as f32 / 12.0 - 4.0
        });
        let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for threads in [1, 2, 8] {
            parallel::with_threads(threads, || {
                let mut ws = Workspace::new();
                let mut tanh = Tanh::new();
                let y = tanh.forward_batch(&input, batch, &mut ws).unwrap();
                assert_eq!(bits(&y), bits(&input.map(lergan_tensor::tanh)));
                assert_eq!(tanh.cached_output.as_ref().map(bits), Some(bits(&y)));
                let mut leaky = LeakyRelu::new(0.2);
                let y = leaky.forward_batch(&input, batch, &mut ws).unwrap();
                let want = input.map(|x| if x > 0.0 { x } else { 0.2 * x });
                assert_eq!(bits(&y), bits(&want));
                assert_eq!(leaky.cached_input.as_ref().map(bits), Some(bits(&input)));
            });
        }
    }

    #[test]
    fn adam_keeps_training_after_a_checkpoint_at_the_last_u32_step() {
        let mut rng = StdRng::seed_from_u64(17);
        let g = tiny_generator(&mut rng);
        let d = tiny_discriminator(&mut rng);
        let mut gan = Gan::new(g, d, 4, 0.0, 3).with_optimizer(UpdateRule::dcgan_adam(0.01));
        let mut data_rng = StdRng::seed_from_u64(170);
        let mut reals = || -> Vec<Tensor> { (0..2).map(|_| blob_sample(&mut data_rng)).collect() };
        for _ in 0..2 {
            gan.train_step(&reals());
        }
        // The next step is 2^32, whose Adam exponent once wrapped to 0.
        let mut ckpt = gan.checkpoint();
        ckpt.step = u64::from(u32::MAX);
        ckpt.checksum = ckpt.payload_digest();
        gan.restore(&ckpt).expect("same architecture");
        gan.train_step(&reals());
        assert_eq!(gan.step(), 1 << 32);
        let after = gan.checkpoint();
        let stacks = |c: &GanCheckpoint| [c.generator.clone(), c.discriminator.clone()].concat();
        for (before, now) in stacks(&ckpt).iter().zip(&stacks(&after)) {
            let Some(w0) = before.get("weights") else {
                continue;
            };
            let w1 = now.get("weights").expect("weights stay");
            for (&a, &b) in w0.data().iter().zip(w1.data()) {
                assert!(b.is_finite(), "weight {a} became {b}");
                assert_ne!(a.to_bits(), b.to_bits(), "weight {a} did not move");
            }
        }
    }

    #[test]
    fn gan_trains_with_adam() {
        let mut rng = StdRng::seed_from_u64(21);
        let g = tiny_generator(&mut rng);
        let d = tiny_discriminator(&mut rng);
        let mut gan = Gan::new(g, d, 4, 0.0, 43).with_optimizer(UpdateRule::dcgan_adam(0.01));
        let mut last = 0.0;
        for _ in 0..30 {
            let reals: Vec<Tensor> = (0..2).map(|_| blob_sample(&mut rng)).collect();
            last = gan.train_step(&reals).d_loss;
        }
        assert!(last.is_finite() && last > 0.0);
    }

    fn loss_bits(stats: &StepStats) -> (u32, u32) {
        (stats.d_loss.to_bits(), stats.g_loss.to_bits())
    }

    #[test]
    fn checkpoint_restore_resumes_bit_exactly() {
        // Reference run: 5 Adam steps straight through.
        let mut rng = StdRng::seed_from_u64(31);
        let g = tiny_generator(&mut rng);
        let d = tiny_discriminator(&mut rng);
        let mut reference = Gan::new(g, d, 4, 0.0, 77).with_optimizer(UpdateRule::dcgan_adam(0.01));
        let mut data_rng = StdRng::seed_from_u64(500);
        let mut reference_tail = Vec::new();
        for step in 0..5 {
            let reals: Vec<Tensor> = (0..2).map(|_| blob_sample(&mut data_rng)).collect();
            let stats = reference.train_step(&reals);
            if step >= 2 {
                reference_tail.push(loss_bits(&stats));
            }
        }

        // Checkpointed run: 2 steps, snapshot, restore into a GAN built
        // with *different* init and noise seeds (everything must come from
        // the checkpoint), then 3 more steps on the same data stream.
        let mut rng = StdRng::seed_from_u64(31);
        let g = tiny_generator(&mut rng);
        let d = tiny_discriminator(&mut rng);
        let mut gan = Gan::new(g, d, 4, 0.0, 77).with_optimizer(UpdateRule::dcgan_adam(0.01));
        let mut data_rng = StdRng::seed_from_u64(500);
        let mut consumed = Vec::new();
        for _ in 0..2 {
            let reals: Vec<Tensor> = (0..2).map(|_| blob_sample(&mut data_rng)).collect();
            gan.train_step(&reals);
            consumed.push(reals);
        }
        let ckpt = gan.checkpoint();
        assert_eq!(ckpt.step, 2);
        drop(gan);

        let mut other_rng = StdRng::seed_from_u64(999);
        let g = tiny_generator(&mut other_rng);
        let d = tiny_discriminator(&mut other_rng);
        let mut resumed =
            Gan::new(g, d, 4, 0.0, 12345).with_optimizer(UpdateRule::dcgan_adam(0.01));
        resumed.restore(&ckpt).expect("architectures match");
        assert_eq!(resumed.step(), 2);
        let mut resumed_tail = Vec::new();
        for _ in 0..3 {
            let reals: Vec<Tensor> = (0..2).map(|_| blob_sample(&mut data_rng)).collect();
            resumed_tail.push(loss_bits(&resumed.train_step(&reals)));
        }
        assert_eq!(
            reference_tail, resumed_tail,
            "resume after restore must be bit-exact"
        );
    }

    #[test]
    fn corrupted_checkpoint_is_refused_not_restored() {
        let mut rng = StdRng::seed_from_u64(61);
        let g = tiny_generator(&mut rng);
        let d = tiny_discriminator(&mut rng);
        let mut gan = Gan::new(g, d, 4, 0.0, 88).with_optimizer(UpdateRule::dcgan_adam(0.01));
        let mut data_rng = StdRng::seed_from_u64(600);
        for _ in 0..2 {
            let reals: Vec<Tensor> = (0..2).map(|_| blob_sample(&mut data_rng)).collect();
            gan.train_step(&reals);
        }
        let clean = gan.checkpoint();
        clean.verify().expect("fresh checkpoints verify");

        // Flip a single mantissa bit in the first stored tensor we find —
        // the smallest corruption a storage or transfer fault can inflict.
        let mut bad = clean.clone();
        let layer = bad
            .generator
            .iter_mut()
            .find(|s| !s.is_empty())
            .expect("the generator has parameters");
        let key = layer.entries().next().map(|(k, _)| k.to_string()).unwrap();
        let tensor = layer.get_mut(&key).unwrap();
        tensor.data_mut()[0] = f32::from_bits(tensor.data()[0].to_bits() ^ 1);

        match bad.verify() {
            Err(CheckpointError::Corrupted { expected, actual }) => {
                assert_eq!(expected, clean.checksum);
                assert_ne!(expected, actual);
            }
            other => panic!("expected Corrupted, got {other:?}"),
        }
        // restore() refuses the snapshot and leaves the trainer resumable.
        let before = gan.checkpoint();
        assert!(matches!(
            gan.restore(&bad),
            Err(CheckpointError::Corrupted { .. })
        ));
        assert_eq!(gan.checkpoint(), before, "refused restore mutates nothing");
        gan.restore(&clean).expect("the clean twin still restores");

        // Metadata corruption (step / RNG position) is caught too.
        let mut skewed = clean.clone();
        skewed.step += 1;
        assert!(matches!(
            skewed.verify(),
            Err(CheckpointError::Corrupted { .. })
        ));
        let mut reseeded = clean;
        reseeded.rng_state ^= 0x8000_0000_0000_0000;
        assert!(matches!(
            reseeded.verify(),
            Err(CheckpointError::Corrupted { .. })
        ));
    }

    #[test]
    fn every_single_bit_flip_fails_verification() {
        // The digest takes two f32 values per word: a flip in either half
        // of any word, in any tensor of either stack (parameters and Adam
        // moments), in the step or in the RNG state must be caught.
        let mut rng = StdRng::seed_from_u64(62);
        let g = tiny_generator(&mut rng);
        let d = tiny_discriminator(&mut rng);
        let mut gan = Gan::new(g, d, 4, 0.0, 89).with_optimizer(UpdateRule::dcgan_adam(0.01));
        let mut data_rng = StdRng::seed_from_u64(601);
        let reals: Vec<Tensor> = (0..2).map(|_| blob_sample(&mut data_rng)).collect();
        gan.train_step(&reals);
        let mut ckpt = gan.checkpoint();
        let mut flipped = 0usize;
        for generator in [true, false] {
            fn stack(c: &mut GanCheckpoint, generator: bool) -> &mut Vec<LayerState> {
                if generator {
                    &mut c.generator
                } else {
                    &mut c.discriminator
                }
            }
            for li in 0..stack(&mut ckpt, generator).len() {
                let keys: Vec<String> = stack(&mut ckpt, generator)[li]
                    .entries()
                    .map(|(k, _)| k.to_string())
                    .collect();
                for key in keys {
                    for i in 0..stack(&mut ckpt, generator)[li].get(&key).unwrap().len() {
                        for bit in 0..32 {
                            let flip = |c: &mut GanCheckpoint| {
                                let t = stack(c, generator)[li].get_mut(&key).unwrap();
                                t.data_mut()[i] = f32::from_bits(t.data()[i].to_bits() ^ 1 << bit);
                            };
                            flip(&mut ckpt);
                            assert!(
                                ckpt.verify().is_err(),
                                "bit {bit} of {key}[{i}] in layer {li} went unnoticed"
                            );
                            flip(&mut ckpt);
                            flipped += 1;
                        }
                    }
                }
            }
        }
        assert!(flipped > 32 * 1_000, "only {flipped} tensor bits flipped");
        for bit in 0..64 {
            ckpt.step ^= 1 << bit;
            assert!(ckpt.verify().is_err(), "step bit {bit} went unnoticed");
            ckpt.step ^= 1 << bit;
            ckpt.rng_state ^= 1 << bit;
            assert!(ckpt.verify().is_err(), "RNG bit {bit} went unnoticed");
            ckpt.rng_state ^= 1 << bit;
        }
        ckpt.verify().expect("every flip was undone");
    }

    #[test]
    fn checkpoint_round_trips_batchnorm_running_stats() {
        let spec = parse_network("tiny", "16f-(8t-4t)(3k2s)-t1", 2, 16).unwrap();
        let mut rng = StdRng::seed_from_u64(41);
        let mut net = build_trainable_with(&spec, true, true, &mut rng);
        // A few updates so running stats, moments and affines all move.
        for step in 1..=3u64 {
            let out = net.forward(&Tensor::ones(&[16]));
            net.backward(&out.map(|y| y * 0.1));
            net.apply_update(&UpdateRule::dcgan_adam(0.05), step);
        }
        let probe = net.forward(&Tensor::filled(&[16], 0.5));
        let snapshot = net.capture_state();

        let mut other_rng = StdRng::seed_from_u64(4242);
        let mut twin = build_trainable_with(&spec, true, true, &mut other_rng);
        twin.restore_state(&snapshot).expect("same architecture");
        let twin_probe = twin.forward(&Tensor::filled(&[16], 0.5));
        // BatchNorm's forward updates running stats, so equality of this
        // output proves gamma/beta/moments *and* the running statistics all
        // round-tripped bit-exactly.
        let lhs: Vec<u32> = probe.data().iter().map(|v| v.to_bits()).collect();
        let rhs: Vec<u32> = twin_probe.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn mismatched_checkpoints_are_rejected() {
        let mut rng = StdRng::seed_from_u64(51);
        let mut small = Sequential::new();
        small.push(Box::new(DenseLayer::new(4, 2, &mut rng)));
        let snapshot = small.capture_state();

        // Wrong layer count.
        let mut deeper = Sequential::new();
        deeper.push(Box::new(DenseLayer::new(4, 2, &mut rng)));
        deeper.push(Box::new(LeakyRelu::new(0.2)));
        assert_eq!(
            deeper.restore_state(&snapshot),
            Err(CheckpointError::LayerCountMismatch {
                expected: 2,
                actual: 1
            })
        );

        // Wrong parameter shape.
        let mut wider = Sequential::new();
        wider.push(Box::new(DenseLayer::new(8, 2, &mut rng)));
        match wider.restore_state(&snapshot) {
            Err(CheckpointError::ShapeMismatch { layer: 0, key, .. }) => {
                assert_eq!(key, "weights");
            }
            other => panic!("expected a shape mismatch, got {other:?}"),
        }

        // State offered to a stateless layer.
        let mut stateless = Sequential::new();
        stateless.push(Box::new(LeakyRelu::new(0.2)));
        assert_eq!(
            stateless.restore_state(&snapshot),
            Err(CheckpointError::UnexpectedEntries { layer: 0, count: 1 })
        );

        // Errors render as readable messages.
        let err = CheckpointError::MissingEntry {
            layer: 3,
            key: "weights".into(),
        };
        assert!(err.to_string().contains("layer 3"));
    }

    #[test]
    fn failed_conv_restore_runs_the_weights_it_reports() {
        let mut rng = StdRng::seed_from_u64(61);
        let mut trained = tiny_discriminator(&mut rng);
        let x = Tensor::filled(&[1, 8, 8], 0.4);
        for step in 1..=2u64 {
            let out = trained.forward(&x);
            trained.backward(&out);
            trained.apply_update(&UpdateRule::dcgan_adam(0.05), step);
        }
        let mut snapshot = trained.capture_state();
        // Valid weights, then an optimiser moment of the wrong shape.
        *snapshot[0].get_mut("opt.m").expect("Adam moment") = Tensor::zeros(&[1]);

        let mut net = tiny_discriminator(&mut rng);
        match net.restore_state(&snapshot) {
            Err(CheckpointError::ShapeMismatch { layer: 0, key, .. }) => {
                assert_eq!(key, "opt.m");
            }
            other => panic!("expected a shape mismatch, got {other:?}"),
        }
        // The conv layer is partly restored: the forward must run on the
        // weights it now reports, not on the ones it held before.
        let reported = net.capture_state()[0]
            .get("weights")
            .expect("conv weights")
            .clone();
        assert_eq!(&reported, snapshot[0].get("weights").unwrap());
        // A twin with the snapshot's conv layer and `net`'s other layers.
        let mut twin_state = trained.capture_state();
        twin_state.truncate(1);
        twin_state.extend(net.capture_state().into_iter().skip(1));
        let mut twin = trained;
        twin.restore_state(&twin_state).expect("valid state");
        let bits = |y: &mut Sequential| -> Vec<u32> {
            y.forward(&x).data().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&mut net), bits(&mut twin));
    }

    #[test]
    fn sequential_backward_matches_layer_order() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut net = Sequential::new();
        net.push(Box::new(DenseLayer::new(4, 4, &mut rng)));
        net.push(Box::new(LeakyRelu::new(0.2)));
        net.push(Box::new(DenseLayer::new(4, 1, &mut rng)));
        assert_eq!(net.len(), 3);
        let x = Tensor::from_vec(&[4], vec![0.1, 0.2, 0.3, 0.4]);
        let y = net.forward(&x);
        assert_eq!(y.len(), 1);
        let din = net.backward(&Tensor::from_vec(&[1], vec![1.0]));
        assert_eq!(din.len(), 4);
    }

    #[test]
    fn batched_step_is_thread_invariant() {
        let mut runs = Vec::new();
        for threads in [1usize, 2, 8] {
            let run = parallel::with_threads(threads, || {
                let mut rng = StdRng::seed_from_u64(21);
                let g = tiny_generator(&mut rng);
                let d = tiny_discriminator(&mut rng);
                let mut gan =
                    Gan::new(g, d, 4, 0.0, 91).with_optimizer(UpdateRule::dcgan_adam(0.01));
                let mut data_rng = StdRng::seed_from_u64(700);
                let mut tail = Vec::new();
                for _ in 0..3 {
                    let reals: Vec<Tensor> = (0..4).map(|_| blob_sample(&mut data_rng)).collect();
                    let stats = gan.train_step_batched(&pack_batch(&reals)).unwrap();
                    tail.push(loss_bits(&stats));
                }
                (tail, gan.checkpoint())
            });
            runs.push(run);
        }
        for (tail, ckpt) in &runs[1..] {
            assert_eq!(tail, &runs[0].0, "losses must not depend on threads");
            assert_eq!(ckpt, &runs[0].1, "checkpoints must not depend on threads");
        }
    }

    #[test]
    fn train_step_is_the_batched_step_on_a_pooled_pack() {
        fn mk() -> Gan {
            let mut rng = StdRng::seed_from_u64(33);
            let g = tiny_generator(&mut rng);
            let d = tiny_discriminator(&mut rng);
            Gan::new(g, d, 4, 0.0, 55).with_optimizer(UpdateRule::dcgan_adam(0.01))
        }
        let mut wrapped = mk();
        let mut batched = mk();
        let mut data_rng = StdRng::seed_from_u64(800);
        for _ in 0..3 {
            let reals: Vec<Tensor> = (0..3).map(|_| blob_sample(&mut data_rng)).collect();
            let a = wrapped.train_step(&reals);
            let b = batched.train_step_batched(&pack_batch(&reals)).unwrap();
            assert_eq!(loss_bits(&a), loss_bits(&b));
        }
        assert_eq!(wrapped.checkpoint(), batched.checkpoint());
    }

    #[test]
    fn batched_run_checkpoint_restore_is_bit_exact() {
        let mut rng = StdRng::seed_from_u64(31);
        let g = tiny_generator(&mut rng);
        let d = tiny_discriminator(&mut rng);
        let mut reference = Gan::new(g, d, 4, 0.0, 77).with_optimizer(UpdateRule::dcgan_adam(0.01));
        let mut data_rng = StdRng::seed_from_u64(500);
        let mut batches = Vec::new();
        for _ in 0..4 {
            let reals: Vec<Tensor> = (0..4).map(|_| blob_sample(&mut data_rng)).collect();
            batches.push(pack_batch(&reals));
        }
        let mut reference_tail = Vec::new();
        for (i, b) in batches.iter().enumerate() {
            let stats = reference.train_step_batched(b).unwrap();
            if i >= 2 {
                reference_tail.push(loss_bits(&stats));
            }
        }
        // Replay: 2 steps, checkpoint, restore into a differently seeded
        // twin, finish on the same batches.
        let mut rng = StdRng::seed_from_u64(31);
        let g = tiny_generator(&mut rng);
        let d = tiny_discriminator(&mut rng);
        let mut gan = Gan::new(g, d, 4, 0.0, 77).with_optimizer(UpdateRule::dcgan_adam(0.01));
        gan.train_step_batched(&batches[0]).unwrap();
        gan.train_step_batched(&batches[1]).unwrap();
        let ckpt = gan.checkpoint();

        let mut other_rng = StdRng::seed_from_u64(999);
        let g = tiny_generator(&mut other_rng);
        let d = tiny_discriminator(&mut other_rng);
        let mut resumed =
            Gan::new(g, d, 4, 0.0, 12345).with_optimizer(UpdateRule::dcgan_adam(0.01));
        resumed.restore(&ckpt).expect("architectures match");
        let mut resumed_tail = Vec::new();
        for b in &batches[2..] {
            resumed_tail.push(loss_bits(&resumed.train_step_batched(b).unwrap()));
        }
        assert_eq!(reference_tail, resumed_tail, "batched resume is bit-exact");
        assert_eq!(resumed.checkpoint(), reference.checkpoint());
    }

    #[test]
    fn batched_shape_errors_are_typed() {
        let mut ws = Workspace::new();
        let mut bn = BatchNorm::new(2);
        match bn.forward_batch(&Tensor::ones(&[2, 2, 2]), 2, &mut ws) {
            Err(TrainError::RankMismatch {
                layer,
                expected,
                actual,
            }) => {
                assert_eq!(layer, "BatchNorm");
                assert_eq!((expected, actual), (4, 3));
            }
            other => panic!("expected a rank mismatch, got {other:?}"),
        }
        let mut rng = StdRng::seed_from_u64(1);
        let mut dense = DenseLayer::new(3, 2, &mut rng);
        assert!(matches!(
            dense.forward_batch(&Tensor::ones(&[2, 4]), 2, &mut ws),
            Err(TrainError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            dense.forward_batch(&Tensor::ones(&[1, 3]), 0, &mut ws),
            Err(TrainError::EmptyBatch)
        ));
        assert!(matches!(
            dense.backward_batch(&Tensor::ones(&[2, 2]), 2, Grads::All, &mut ws),
            Err(TrainError::BackwardBeforeForward { .. })
        ));
        // Errors render as readable messages.
        let err = TrainError::RankMismatch {
            layer: "BatchNorm",
            expected: 3,
            actual: 2,
        };
        assert!(err.to_string().contains("expected rank-3"));
    }

    #[test]
    #[should_panic(expected = "BatchNorm: expected rank-3 input, got rank 2")]
    fn poisoned_shape_panics_with_typed_message() {
        // The single-sample wrapper keeps its panicking contract and
        // panics with the typed error's message, in the sample's own
        // ranks (not those of the batch of one it runs as).
        let mut net = Sequential::new();
        net.push(Box::new(BatchNorm::new(2)));
        let _ = net.forward(&Tensor::ones(&[2, 2]));
    }

    #[test]
    fn unbatched_errors_drop_the_batch_axis() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = Sequential::new();
        net.push(Box::new(DenseLayer::new(3, 2, &mut rng)));
        let err = net.forward_batch(&Tensor::ones(&[1, 4]), 1).unwrap_err();
        assert_eq!(
            err.unbatched(),
            TrainError::ShapeMismatch {
                layer: "DenseLayer",
                expected: vec![3],
                actual: vec![4],
            }
        );
        // Single-dimension mismatches carry no batch axis and stay as
        // they are.
        let dim = TrainError::ShapeMismatch {
            layer: "BatchNorm",
            expected: vec![2],
            actual: vec![3],
        };
        assert_eq!(dim.clone().unbatched(), dim);
    }

    #[test]
    #[should_panic(expected = "run batches through forward_batch")]
    fn unbatched_forward_rejects_a_batch() {
        let mut net = Sequential::new();
        net.push(Box::new(BatchNorm::new(2)));
        let _ = net.forward(&Tensor::ones(&[1, 2, 2, 2]));
    }

    #[test]
    fn tree_reduce_matches_manual_fold() {
        // count=5 (ragged), len=3: tree order is ((0+1)+(2+3))+4.
        let mut parts = vec![
            1.0, 10.0, 100.0, // s0
            2.0, 20.0, 200.0, // s1
            3.0, 30.0, 300.0, // s2
            4.0, 40.0, 400.0, // s3
            5.0, 50.0, 500.0, // s4
        ];
        tree_reduce_in_place(&mut parts, 5, 3);
        assert_eq!(&parts[..3], &[15.0, 150.0, 1500.0]);
    }

    #[test]
    fn pack_batch_stacks_and_validates() {
        let a = Tensor::from_fn(&[2, 3], |i| (i[0] * 3 + i[1]) as f32);
        let b = a.map(|v| -v);
        let packed = pack_batch(&[a.clone(), b.clone()]);
        assert_eq!(packed.shape(), &[2, 2, 3]);
        assert_eq!(&packed.data()[..6], a.data());
        assert_eq!(&packed.data()[6..], b.data());
        assert_eq!(unbatch(pack_batch(std::slice::from_ref(&a))), a);
    }
}

//! GAN topologies, training dataflows and a functional training substrate
//! for the LerGAN reproduction.
//!
//! The crate provides five things:
//!
//! * [`topology`] — a parser for the paper's compact Table V notation
//!   (`100f-(1024t-512t-256t-128t)(5k2s)-t3`) producing layer-exact
//!   [`NetworkSpec`]s, and [`benchmarks`] with the eight evaluated GANs.
//! * [`ir`] — the shared op-graph IR: one [`ir::OpGraph`] per GAN, built
//!   once from the [`GanSpec`], whose [`ir::PhaseOp`] nodes carry the phase,
//!   layer, zero structure, GEMM shape, B1–B6 bank and dataflow edges. The
//!   analytic workloads, the functional trainer and `lergan-core`'s
//!   compiler/schedule are all lowered from it.
//! * [`phase`] / [`workload`] — the six training phases of Fig. 3
//!   (G→, D→, D←, D-weight-grad, G←, G-weight-grad) and, for every
//!   (phase, layer) pair, a [`workload::ConvWorkload`] characterising the
//!   convolution it performs: dense, zero-inserted-input (T-CONV-like) or
//!   zero-inserted-kernel (W-CONV-S) — the classification that decides which
//!   ZFDR interface applies (Sec. V "Interface").
//! * [`train`] — a small functional GAN trainer (forward/backward/SGD over
//!   real `f32` tensors) proving the substrate end-to-end on synthetic data.
//! * [`analysis`] — zero-fraction analytics per network and phase
//!   (Sec. III-A).
//!
//! # Example
//!
//! ```
//! use lergan_gan::benchmarks;
//! use lergan_gan::phase::Phase;
//!
//! let dcgan = benchmarks::dcgan();
//! assert_eq!(dcgan.generator.layers.len(), 5); // 1 FC + 4 T-CONV
//! let fwd = dcgan.workloads(Phase::GForward);
//! // Every generator T-CONV inserts zeros in its forward pass.
//! assert!(fwd.iter().filter(|w| w.kind.is_zero_inserted_input()).count() >= 4);
//! ```

pub mod analysis;
pub mod benchmarks;
pub mod data;
pub mod ir;
pub mod layer;
pub mod phase;
pub mod topology;
pub mod train;
pub mod workload;

pub use ir::{BankSlot, GemmShape, OpGraph, OpId, PhaseOp};
pub use layer::{ConvLayer, FcLayer, Layer, TconvLayer};
pub use phase::Phase;
pub use topology::{GanSpec, NetworkSpec, ParseTopologyError};
pub use train::{
    pack_batch, tree_reduce_in_place, CheckpointError, Gan, GanCheckpoint, Grads, LayerState,
    OpBinding, Sequential, TrainError, UpdateRule,
};
pub use workload::{ConvWorkload, WorkloadKind};

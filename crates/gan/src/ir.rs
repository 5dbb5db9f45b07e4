//! The shared op-graph IR: one typed description of a GAN's training
//! iteration, consumed by every backend.
//!
//! A GAN used to be described three times — the analytic workload tables
//! (`workload.rs`), the functional trainer (`train.rs`) and the
//! event-driven schedule in `lergan-core` each re-derived the per-phase
//! operation list from the parsed topology. [`OpGraph`] replaces that with
//! a single build: every (phase, layer) pair becomes one [`PhaseOp`] node
//! carrying the phase, the layer it touches, the zero structure
//! ([`WorkloadKind`] geometry inside [`ConvWorkload`]), the im2col GEMM
//! shape and the B1–B6 bank the op executes in; the graph adds the
//! producer/consumer edges between ops.
//! The three consumers then *lower* the same graph:
//!
//! * `workload::phase_workloads` projects the per-phase [`ConvWorkload`]s
//!   out of the ops (the analytic view);
//! * `train::build_trainable_bound` constructs the functional
//!   [`Sequential`](crate::train::Sequential) from the forward ops, with a
//!   stable op-id ↔ train-layer correspondence;
//! * `lergan_core`'s compiler maps each op to CArray storage and MMV
//!   cycles, and its schedule module lowers the graph into labelled
//!   `lergan-sim` tasks.
//!
//! # Example
//!
//! ```
//! use lergan_gan::benchmarks;
//! use lergan_gan::ir::OpGraph;
//! use lergan_gan::phase::Phase;
//!
//! let graph = OpGraph::build(&benchmarks::dcgan());
//! // Six phases over a 5-layer generator and a 6-layer discriminator.
//! assert_eq!(graph.len(), 3 * 5 + 3 * 6);
//! let gf = graph.phase_ops(Phase::GForward);
//! assert_eq!(gf.len(), 5);
//! // Every op's naive GEMM accounts for exactly its dense MACs.
//! assert!(graph.ops().iter().all(|op| op.gemm.macs() == op.workload.macs_dense));
//! ```

use crate::layer::{Layer, Norm};
use crate::phase::Phase;
use crate::topology::{GanSpec, NetworkSpec};
use crate::workload::{ConvWorkload, WorkloadKind};
use lergan_tensor::{TconvGeometry, WconvGeometry};

/// Identifier of a [`PhaseOp`] inside one [`OpGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub usize);

/// The algebraic kind of an op — the small op algebra every backend lowers.
///
/// The kind is determined by the op's zero structure together with the layer
/// it touches: a dense op on an FC layer is [`OpKind::Fc`], a dense op on any
/// conv-like layer is S-CONV-shaped, input-zero ops are T-CONV-shaped,
/// kernel-zero ops are W-CONV-S (stride-induced) or D-CONV (dilation-induced,
/// the EcoFlow dual of T-CONV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Fully-connected matrix–vector product.
    Fc,
    /// Dense strided convolution.
    Sconv,
    /// Transposed convolution: zeros inserted in the input plane.
    Tconv,
    /// W-CONV-S weight gradient: zeros inserted in the moving `∇output`.
    Wconv,
    /// Dilated convolution: zeros inserted in the kernel by dilation.
    Dconv,
}

impl OpKind {
    /// Derives the kind from the layer and the analytic workload.
    pub fn of(layer: &Layer, workload: &ConvWorkload) -> OpKind {
        match workload.kind {
            WorkloadKind::Dense => {
                if matches!(layer, Layer::Fc(_)) {
                    OpKind::Fc
                } else {
                    OpKind::Sconv
                }
            }
            WorkloadKind::TconvInput(_) => OpKind::Tconv,
            WorkloadKind::WconvKernel(_) => OpKind::Wconv,
            WorkloadKind::DconvKernel(_) => OpKind::Dconv,
        }
    }
}

/// The bank of the 3DCU pair an op executes in — the paper's B1–B6 map:
/// forward phases on the top banks, ∇weight in the middle, error transfer
/// at the bottom; generator phases on side 0, discriminator on side 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BankSlot {
    /// Which 3DCU of the pair (0 = generator, 1 = discriminator).
    pub side: usize,
    /// Which stacked bank (0 = top/forward, 1 = ∇weight, 2 = error).
    pub bank: usize,
}

impl BankSlot {
    /// The bank a phase executes in.
    pub fn for_phase(phase: Phase) -> BankSlot {
        let side = usize::from(!phase.is_generator_phase());
        let bank = match phase {
            Phase::GForward | Phase::DForward => 0,
            Phase::GWeightGrad | Phase::DWeightGrad => 1,
            Phase::GBackward | Phase::DBackward => 2,
        };
        BankSlot { side, bank }
    }

    /// Paper numbering B1–B6.
    pub fn label(&self) -> String {
        format!("B{}", self.side * 3 + self.bank + 1)
    }
}

/// The naive (zero-inserted) GEMM an op executes: `m` result positions,
/// reduction length `k`, `n` independent result channels.
///
/// For the forward and error-transfer ops this is exactly the im2col GEMM
/// the functional trainer runs (`m` output positions × `k = channels ×
/// kernel volume` × `n` output channels). For the per-pair ∇weight
/// convolutions (`W-CONV-S` and the T-CONV weight gradient) `n` counts the
/// independent (in, out) channel pairs, each reducing over its own sliding
/// window. In every case `m · k · n` equals the op's dense MAC count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GemmShape {
    /// Result positions per sample.
    pub m: u128,
    /// Reduction (MMV input) length.
    pub k: u128,
    /// Independent result channels (or channel pairs for ∇weight ops).
    pub n: u128,
}

impl GemmShape {
    /// Total multiply-accumulates of the GEMM: `m · k · n`.
    pub fn macs(&self) -> u128 {
        self.m * self.k * self.n
    }
}

/// One node of the op graph: a convolution-shaped operation some phase
/// performs on some layer.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseOp {
    /// Identity inside the graph (or the standalone per-phase view).
    pub id: OpId,
    /// The phase executing this op.
    pub phase: Phase,
    /// Index of the layer inside its network.
    pub layer_index: usize,
    /// Position of this op in its phase's dataflow order (backward phases
    /// run layers in reverse, so `seq` differs from `layer_index` there).
    pub seq: usize,
    /// Algebraic kind of the op (FC / S-CONV / T-CONV / W-CONV-S / D-CONV).
    pub kind: OpKind,
    /// Normalization applied after the layer this op belongs to.
    pub norm: Norm,
    /// The analytic workload: zero structure, MAC/traffic/storage counts.
    pub workload: ConvWorkload,
    /// The naive im2col GEMM shape (`m · k · n == workload.macs_dense`).
    pub gemm: GemmShape,
    /// The B1–B6 bank the op executes in.
    pub bank: BankSlot,
}

/// The op graph of one GAN's training iteration: all six phases' ops in
/// [`Phase::ALL`] order, each phase's ops in dataflow order.
#[derive(Debug, Clone, PartialEq)]
pub struct OpGraph {
    ops: Vec<PhaseOp>,
    /// `ops` range of each phase, indexed like [`Phase::ALL`].
    spans: [(usize, usize); 6],
    /// Ops whose results each op consumes.
    producers: Adjacency,
    /// Ops consuming each op's results.
    consumers: Adjacency,
}

/// Per-op edge lists in compressed sparse-row form: op `i`'s neighbours
/// are `ids[start[i]..start[i + 1]]`.
#[derive(Debug, Clone, PartialEq)]
struct Adjacency {
    start: Vec<u32>,
    ids: Vec<OpId>,
}

impl Adjacency {
    /// Groups the `(from, to)` edges by `from`, keeping each op's
    /// neighbours in edge order (a stable counting sort).
    fn new(ops: usize, edges: impl Iterator<Item = (OpId, OpId)> + Clone) -> Adjacency {
        let mut start = vec![0u32; ops + 1];
        for (from, _) in edges.clone() {
            start[from.0 + 1] += 1;
        }
        for i in 0..ops {
            start[i + 1] += start[i];
        }
        let mut ids = vec![OpId(0); start[ops] as usize];
        // `start[i]` serves as op i's fill cursor, which leaves it at the
        // old `start[i + 1]`; shifting back one slot restores it.
        for (from, to) in edges {
            ids[start[from.0] as usize] = to;
            start[from.0] += 1;
        }
        start.copy_within(0..ops, 1);
        start[0] = 0;
        Adjacency { start, ids }
    }

    fn of(&self, id: OpId) -> &[OpId] {
        &self.ids[self.start[id.0] as usize..self.start[id.0 + 1] as usize]
    }
}

impl OpGraph {
    /// Builds the graph for a GAN: six phases over the generator and
    /// discriminator networks, chained intra-phase, plus the Fig. 3
    /// cross-phase dataflow edges (G→ feeds D→ and G-w; D→ feeds D← and
    /// D-w; D← feeds D-w and G←; G← feeds G-w).
    pub fn build(spec: &GanSpec) -> OpGraph {
        let total: usize = Phase::ALL
            .iter()
            .map(|&p| spec.network_for(p).layers.len())
            .sum();
        let mut ops: Vec<PhaseOp> = Vec::with_capacity(total);
        let mut spans = [(0usize, 0usize); 6];
        // (producer, consumer) pairs: each phase's chain and skip edges,
        // then the cross-phase links.
        let mut edges: Vec<(OpId, OpId)> = Vec::with_capacity(total + 8);
        for (pi, phase) in Phase::ALL.into_iter().enumerate() {
            let base = ops.len();
            let net = spec.network_for(phase);
            push_ops(&mut ops, net, phase, base);
            spans[pi] = (base, ops.len());
            phase_edges(&mut edges, net, phase, base);
        }
        // Cross-phase dataflow: the last op of the producing phase feeds
        // the first op of the consuming phase (∇weight phases additionally
        // consume the error stream as it starts, matching the Fig. 13
        // barrier structure).
        for (from, to) in [
            (Phase::GForward, Phase::DForward),
            (Phase::DForward, Phase::DBackward),
            (Phase::DForward, Phase::DWeightGrad),
            (Phase::DBackward, Phase::DWeightGrad),
            (Phase::DBackward, Phase::GBackward),
            (Phase::GForward, Phase::GWeightGrad),
            (Phase::GBackward, Phase::GWeightGrad),
        ] {
            let (_, producer_end) = spans[from.index()];
            let (consumer, _) = spans[to.index()];
            edges.push((OpId(producer_end - 1), OpId(consumer)));
        }
        let n = ops.len();
        OpGraph {
            producers: Adjacency::new(n, edges.iter().map(|&(p, c)| (c, p))),
            consumers: Adjacency::new(n, edges.iter().copied()),
            ops,
            spans,
        }
    }

    fn phase_span(&self, phase: Phase) -> (usize, usize) {
        self.spans[phase.index()]
    }

    /// Ops whose results `id` consumes: its predecessor in the phase's
    /// chain, then skip-connection producers, then cross-phase producers.
    pub fn producers(&self, id: OpId) -> &[OpId] {
        self.producers.of(id)
    }

    /// Ops consuming `id`'s results, in the same order as
    /// [`producers`](Self::producers).
    pub fn consumers(&self, id: OpId) -> &[OpId] {
        self.consumers.of(id)
    }

    /// All ops, grouped by phase in [`Phase::ALL`] order.
    pub fn ops(&self) -> &[PhaseOp] {
        &self.ops
    }

    /// One phase's ops, in dataflow order.
    pub fn phase_ops(&self, phase: Phase) -> &[PhaseOp] {
        let (a, b) = self.phase_span(phase);
        &self.ops[a..b]
    }

    /// The op with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this graph.
    pub fn op(&self, id: OpId) -> &PhaseOp {
        &self.ops[id.0]
    }

    /// Total op count.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// The ops one phase performs over one network, in dataflow order, with
/// ids numbered from zero — the standalone per-phase view backing
/// [`phase_workloads`](crate::workload::phase_workloads) and the trainer
/// builder. [`OpGraph::build`] stitches six of these together.
pub fn network_ops(net: &NetworkSpec, phase: Phase) -> Vec<PhaseOp> {
    let mut ops = Vec::with_capacity(net.layers.len());
    push_ops(&mut ops, net, phase, 0);
    ops
}

/// Appends the ops `phase` performs over `net`, in dataflow order, with
/// ids numbered from `base`.
fn push_ops(out: &mut Vec<PhaseOp>, net: &NetworkSpec, phase: Phase, base: usize) {
    let n = net.layers.len();
    let bank = BankSlot::for_phase(phase);
    for seq in 0..n {
        let idx = if phase.is_forward() { seq } else { n - 1 - seq };
        let (workload, gemm) = layer_op(net, phase, idx);
        debug_assert_eq!(gemm.macs(), workload.macs_dense, "GEMM accounts all MACs");
        out.push(PhaseOp {
            id: OpId(base + seq),
            phase,
            layer_index: idx,
            seq,
            kind: OpKind::of(&net.layers[idx], &workload),
            norm: net.norm_of(idx),
            workload,
            gemm,
            bank,
        });
    }
}

/// Appends the `(producer, consumer)` edges inside one phase's ops (ids
/// from `base`): the dataflow chain, then each skip connection not already
/// an edge.
fn phase_edges(edges: &mut Vec<(OpId, OpId)>, net: &NetworkSpec, phase: Phase, base: usize) {
    let n = net.layers.len();
    let first = edges.len();
    edges.extend((1..n).map(|seq| (OpId(base + seq - 1), OpId(base + seq))));
    // Skip connections are first-class dataflow edges: in forward phases
    // the skipped-from op feeds the skipped-to op; in error transfer the
    // edge reverses (the error at `to`'s input flows straight back to
    // `from`'s output). ∇weight ops are per-layer independent, so skips
    // add no edges there.
    if !phase.is_weight_grad() {
        for sk in &net.skips {
            let (p, c) = if phase.is_forward() {
                (sk.from, sk.to)
            } else {
                (n - 1 - sk.to, n - 1 - sk.from)
            };
            let edge = (OpId(base + p), OpId(base + c));
            if !edges[first..].contains(&edge) {
                edges.push(edge);
            }
        }
    }
}

fn powd(v: usize, dims: u32) -> u128 {
    (v as u128).pow(dims)
}

/// Characterises the op `phase` performs on layer `idx` of `net`: the
/// analytic workload (where the zeros are, how much work/traffic/storage)
/// and the naive GEMM shape. This is the single source of the
/// phase-kind × layer-kind table the whole stack derives from
/// (see the module docs of [`workload`](crate::workload)).
fn layer_op(net: &NetworkSpec, phase: Phase, idx: usize) -> (ConvWorkload, GemmShape) {
    let d = net.dims;
    let layer = &net.layers[idx];
    match (phase.is_forward(), phase.is_weight_grad(), layer) {
        // ---- forward ----
        (true, _, Layer::Fc(f)) => (
            dense(
                phase,
                idx,
                d,
                f.in_units,
                f.out_units,
                f.in_units as u128 * f.out_units as u128,
                f.in_units as u128,
                f.in_units as u128 * f.out_units as u128,
                f.out_units as u128,
            ),
            GemmShape {
                m: 1,
                k: f.in_units as u128,
                n: f.out_units as u128,
            },
        ),
        (true, _, Layer::Conv(c)) => {
            let g = &c.geometry;
            (
                dense(
                    phase,
                    idx,
                    d,
                    c.in_channels,
                    c.out_channels,
                    c.in_channels as u128
                        * c.out_channels as u128
                        * powd(g.output, d)
                        * powd(g.kernel, d),
                    c.in_channels as u128 * powd(g.input, d),
                    c.in_channels as u128 * c.out_channels as u128 * powd(g.kernel, d),
                    c.out_channels as u128 * powd(g.output, d),
                ),
                GemmShape {
                    m: powd(g.output, d),
                    k: c.in_channels as u128 * powd(g.kernel, d),
                    n: c.out_channels as u128,
                },
            )
        }
        (true, _, Layer::Tconv(t)) => {
            let g = t.geometry;
            let pair = t.in_channels as u128 * t.out_channels as u128;
            (
                ConvWorkload {
                    phase,
                    layer_index: idx,
                    kind: WorkloadKind::TconvInput(g),
                    in_channels: t.in_channels,
                    out_channels: t.out_channels,
                    macs_dense: pair * powd(g.output, d) * powd(g.kernel, d),
                    macs_useful: pair * (g.useful_row_weight_sum() as u128).pow(d),
                    moved_values_dense: t.in_channels as u128 * powd(g.expanded(), d),
                    moved_values_useful: t.in_channels as u128 * powd(g.input, d),
                    weight_values: pair * powd(g.kernel, d),
                    output_values: t.out_channels as u128 * powd(g.output, d),
                    dims: d,
                },
                GemmShape {
                    m: powd(g.output, d),
                    k: t.in_channels as u128 * powd(g.kernel, d),
                    n: t.out_channels as u128,
                },
            )
        }
        (true, _, Layer::Dconv(dc)) => {
            // D-CONV forward: the kernel is zero-inserted by dilation (the
            // EcoFlow dual of T-CONV's input insertion). The input plane
            // itself is dense, so the savings are MACs and kernel storage,
            // not input traffic.
            let g = dc.geometry;
            let pair = dc.in_channels as u128 * dc.out_channels as u128;
            let positions = g.rows.output as u128 * g.cols.output as u128;
            (
                ConvWorkload {
                    phase,
                    layer_index: idx,
                    kind: WorkloadKind::DconvKernel(g),
                    in_channels: dc.in_channels,
                    out_channels: dc.out_channels,
                    macs_dense: pair * g.total_multiplications_per_pair() as u128,
                    macs_useful: pair * g.useful_multiplications_per_pair() as u128,
                    moved_values_dense: dc.in_channels as u128
                        * g.rows.input as u128
                        * g.cols.input as u128,
                    moved_values_useful: dc.in_channels as u128
                        * g.rows.input as u128
                        * g.cols.input as u128,
                    weight_values: pair * g.kernel_taps() as u128,
                    output_values: dc.out_channels as u128 * positions,
                    dims: d,
                },
                GemmShape {
                    m: positions,
                    k: dc.in_channels as u128
                        * g.rows.effective_kernel() as u128
                        * g.cols.effective_kernel() as u128,
                    n: dc.out_channels as u128,
                },
            )
        }
        // ---- weight gradient ----
        (false, true, Layer::Fc(f)) => (
            dense(
                phase,
                idx,
                d,
                f.out_units,
                f.in_units,
                f.in_units as u128 * f.out_units as u128,
                f.in_units as u128 + f.out_units as u128,
                0,
                f.in_units as u128 * f.out_units as u128,
            ),
            // ∇W = a · δᵀ: a rank-1 outer product per sample.
            GemmShape {
                m: f.out_units as u128,
                k: 1,
                n: f.in_units as u128,
            },
        ),
        (false, true, Layer::Conv(c)) => {
            // W-CONV-S: zero-inserted ∇output slides over the padded
            // input (Fig. 6).
            let g = WconvGeometry {
                forward: c.geometry,
            };
            let pair = c.in_channels as u128 * c.out_channels as u128;
            let f = &g.forward;
            (
                ConvWorkload {
                    phase,
                    layer_index: idx,
                    kind: WorkloadKind::WconvKernel(g),
                    in_channels: c.out_channels, // the moving ∇output
                    out_channels: c.in_channels,
                    macs_dense: pair * g.total_multiplications_per_pair() as u128,
                    macs_useful: pair * g.useful_multiplications_per_pair() as u128,
                    moved_values_dense: c.in_channels as u128 * powd(g.padded_input_extent(), d)
                        + c.out_channels as u128 * powd(g.inserted_kernel_extent(), d),
                    moved_values_useful: c.in_channels as u128 * powd(f.input, d)
                        + c.out_channels as u128 * powd(f.output, d),
                    weight_values: 0,
                    output_values: pair * powd(f.kernel, d),
                    dims: d,
                },
                // Per channel pair: every gradient position reduces over
                // the full inserted kernel plane.
                GemmShape {
                    m: (g.gradient_extent() as u128).pow(2),
                    k: (g.inserted_kernel_extent() as u128).pow(2),
                    n: pair,
                },
            )
        }
        (false, true, Layer::Tconv(t)) => {
            // ∇W of a T-CONV: ∇z (dense) scans the zero-inserted input
            // a^{l-1}; same zero structure as the forward T-CONV.
            let g = t.geometry;
            let pair = t.in_channels as u128 * t.out_channels as u128;
            (
                ConvWorkload {
                    phase,
                    layer_index: idx,
                    kind: WorkloadKind::TconvInput(g),
                    in_channels: t.in_channels,
                    out_channels: t.out_channels,
                    macs_dense: pair * powd(g.kernel, d) * powd(g.output, d),
                    macs_useful: pair * (g.useful_row_weight_sum() as u128).pow(d),
                    moved_values_dense: t.in_channels as u128 * powd(g.expanded(), d)
                        + t.out_channels as u128 * powd(g.output, d),
                    moved_values_useful: t.in_channels as u128 * powd(g.input, d)
                        + t.out_channels as u128 * powd(g.output, d),
                    weight_values: t.out_channels as u128 * powd(g.output, d),
                    output_values: pair * powd(g.kernel, d),
                    dims: d,
                },
                // Per channel pair: each of the kernel^d gradient positions
                // reduces ∇z over the expanded input window.
                GemmShape {
                    m: powd(g.kernel, d),
                    k: powd(g.output, d),
                    n: pair,
                },
            )
        }
        (false, true, Layer::Dconv(dc)) => {
            // ∇W of a D-CONV: ∇output scans the dense input, but gradients
            // land only on the dilated true taps — the same kernel-zero
            // structure as the forward pass, transposed (each true tap
            // reduces over the valid output positions, so the useful count
            // is the same double sum read tap-major).
            let g = dc.geometry;
            let pair = dc.in_channels as u128 * dc.out_channels as u128;
            let positions = g.rows.output as u128 * g.cols.output as u128;
            (
                ConvWorkload {
                    phase,
                    layer_index: idx,
                    kind: WorkloadKind::DconvKernel(g),
                    in_channels: dc.out_channels, // the moving ∇output
                    out_channels: dc.in_channels,
                    macs_dense: pair * g.total_multiplications_per_pair() as u128,
                    macs_useful: pair * g.useful_multiplications_per_pair() as u128,
                    moved_values_dense: dc.in_channels as u128
                        * g.rows.input as u128
                        * g.cols.input as u128
                        + dc.out_channels as u128 * positions,
                    moved_values_useful: dc.in_channels as u128
                        * g.rows.input as u128
                        * g.cols.input as u128
                        + dc.out_channels as u128 * positions,
                    weight_values: 0,
                    output_values: pair * g.kernel_taps() as u128,
                    dims: d,
                },
                // Per channel pair: each expanded-kernel position reduces
                // ∇output over every output position.
                GemmShape {
                    m: g.rows.effective_kernel() as u128 * g.cols.effective_kernel() as u128,
                    k: positions,
                    n: pair,
                },
            )
        }
        // ---- error transfer ----
        (false, false, Layer::Fc(f)) => (
            dense(
                phase,
                idx,
                d,
                f.out_units,
                f.in_units,
                f.in_units as u128 * f.out_units as u128,
                f.out_units as u128,
                f.in_units as u128 * f.out_units as u128,
                f.in_units as u128,
            ),
            GemmShape {
                m: 1,
                k: f.out_units as u128,
                n: f.in_units as u128,
            },
        ),
        (false, false, Layer::Conv(c)) => {
            // Error through an S-CONV is T-CONV-shaped (Eq. 3): the
            // converse geometry always exists because Eq. 5 and Eq. 8
            // are the same relation read in opposite directions.
            let g = c.geometry;
            let tg = TconvGeometry::new(g.output, g.input, g.kernel, g.stride, g.pad)
                .expect("converse T-CONV geometry must exist (Eq. 5 <=> Eq. 8)");
            let pair = c.in_channels as u128 * c.out_channels as u128;
            (
                ConvWorkload {
                    phase,
                    layer_index: idx,
                    kind: WorkloadKind::TconvInput(tg),
                    in_channels: c.out_channels,
                    out_channels: c.in_channels,
                    macs_dense: pair * powd(tg.output, d) * powd(tg.kernel, d),
                    macs_useful: pair * (tg.useful_row_weight_sum() as u128).pow(d),
                    moved_values_dense: c.out_channels as u128 * powd(tg.expanded(), d),
                    moved_values_useful: c.out_channels as u128 * powd(tg.input, d),
                    weight_values: pair * powd(g.kernel, d),
                    output_values: c.in_channels as u128 * powd(g.input, d),
                    dims: d,
                },
                GemmShape {
                    m: powd(tg.output, d),
                    k: c.out_channels as u128 * powd(tg.kernel, d),
                    n: c.in_channels as u128,
                },
            )
        }
        (false, false, Layer::Tconv(t)) => {
            // Error through a T-CONV is a plain dense S-CONV.
            let g = t.geometry;
            let pair = t.in_channels as u128 * t.out_channels as u128;
            (
                dense(
                    phase,
                    idx,
                    d,
                    t.out_channels,
                    t.in_channels,
                    pair * powd(g.input, d) * powd(g.kernel, d),
                    t.out_channels as u128 * powd(g.output, d),
                    pair * powd(g.kernel, d),
                    t.in_channels as u128 * powd(g.input, d),
                ),
                GemmShape {
                    m: powd(g.input, d),
                    k: t.out_channels as u128 * powd(g.kernel, d),
                    n: t.in_channels as u128,
                },
            )
        }
        (false, false, Layer::Dconv(dc)) => {
            // Error through a D-CONV: each output-position error scatters
            // through the expanded kernel taps that produced it. The gather
            // formulation touches every (output position, expanded tap)
            // pair once, so the dense count equals the forward dense count.
            let g = dc.geometry;
            let pair = dc.in_channels as u128 * dc.out_channels as u128;
            let positions = g.rows.output as u128 * g.cols.output as u128;
            (
                dense(
                    phase,
                    idx,
                    d,
                    dc.out_channels,
                    dc.in_channels,
                    pair * g.total_multiplications_per_pair() as u128,
                    dc.out_channels as u128 * positions,
                    pair * g.kernel_taps() as u128,
                    dc.in_channels as u128 * g.rows.input as u128 * g.cols.input as u128,
                ),
                GemmShape {
                    m: positions,
                    k: dc.out_channels as u128
                        * g.rows.effective_kernel() as u128
                        * g.cols.effective_kernel() as u128,
                    n: dc.in_channels as u128,
                },
            )
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn dense(
    phase: Phase,
    layer_index: usize,
    dims: u32,
    in_channels: usize,
    out_channels: usize,
    macs: u128,
    moved: u128,
    weights: u128,
    outputs: u128,
) -> ConvWorkload {
    ConvWorkload {
        phase,
        layer_index,
        kind: WorkloadKind::Dense,
        in_channels,
        out_channels,
        macs_dense: macs,
        macs_useful: macs,
        moved_values_dense: moved,
        moved_values_useful: moved,
        weight_values: weights,
        output_values: outputs,
        dims,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks;

    #[test]
    fn graph_covers_all_phases_in_order() {
        let gan = benchmarks::dcgan();
        let graph = OpGraph::build(&gan);
        for phase in Phase::ALL {
            let ops = graph.phase_ops(phase);
            assert_eq!(ops.len(), gan.network_for(phase).layers.len());
            for (seq, op) in ops.iter().enumerate() {
                assert_eq!(op.phase, phase);
                assert_eq!(op.seq, seq);
                assert_eq!(op.bank, BankSlot::for_phase(phase));
                assert_eq!(graph.op(op.id), op);
            }
        }
        assert_eq!(graph.len(), 3 * 5 + 3 * 6);
        assert!(!graph.is_empty());
    }

    #[test]
    fn gemm_accounts_every_dense_mac() {
        for gan in benchmarks::all() {
            let graph = OpGraph::build(&gan);
            for op in graph.ops() {
                assert_eq!(
                    op.gemm.macs(),
                    op.workload.macs_dense,
                    "{} {} L{}",
                    gan.name,
                    op.phase,
                    op.layer_index
                );
            }
        }
    }

    #[test]
    fn backward_phases_run_layers_in_reverse() {
        let graph = OpGraph::build(&benchmarks::dcgan());
        let idx: Vec<usize> = graph
            .phase_ops(Phase::GBackward)
            .iter()
            .map(|op| op.layer_index)
            .collect();
        assert_eq!(idx, vec![4, 3, 2, 1, 0]);
        // seq still counts dataflow position.
        let seq: Vec<usize> = graph
            .phase_ops(Phase::GBackward)
            .iter()
            .map(|op| op.seq)
            .collect();
        assert_eq!(seq, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn intra_phase_edges_chain_the_dataflow() {
        let graph = OpGraph::build(&benchmarks::cgan());
        for phase in Phase::ALL {
            let ops = graph.phase_ops(phase);
            for pair in ops.windows(2) {
                assert!(graph.consumers(pair[0].id).contains(&pair[1].id));
                assert!(graph.producers(pair[1].id).contains(&pair[0].id));
            }
        }
    }

    #[test]
    fn cross_phase_edges_follow_fig3() {
        let graph = OpGraph::build(&benchmarks::dcgan());
        let last = |p: Phase| graph.phase_ops(p).last().unwrap().id;
        let first = |p: Phase| graph.phase_ops(p)[0].id;
        // G→ feeds D→ (the generated samples).
        assert!(graph
            .consumers(last(Phase::GForward))
            .contains(&first(Phase::DForward)));
        // D← feeds G← (the error crossing back to the generator).
        assert!(graph
            .consumers(last(Phase::DBackward))
            .contains(&first(Phase::GBackward)));
        // ∇weight phases consume both their forward activations and the
        // error stream.
        assert!(graph
            .producers(first(Phase::DWeightGrad))
            .contains(&last(Phase::DForward)));
        assert!(graph
            .producers(first(Phase::GWeightGrad))
            .contains(&last(Phase::GForward)));
    }

    /// The original edge build: one producer and one consumer `Vec` per
    /// op, the chain pushed with each op, skips appended (deduplicated per
    /// list) after each phase, cross-phase links last.
    fn edge_lists_reference(spec: &GanSpec) -> (Vec<Vec<OpId>>, Vec<Vec<OpId>>) {
        let mut producers: Vec<Vec<OpId>> = Vec::new();
        let mut consumers: Vec<Vec<OpId>> = Vec::new();
        let mut spans = [(0usize, 0usize); 6];
        for phase in Phase::ALL {
            let net = spec.network_for(phase);
            let base = producers.len();
            let n = net.layers.len();
            for seq in 0..n {
                producers.push(if seq == 0 {
                    Vec::new()
                } else {
                    vec![OpId(base + seq - 1)]
                });
                consumers.push(if seq + 1 == n {
                    Vec::new()
                } else {
                    vec![OpId(base + seq + 1)]
                });
            }
            if !phase.is_weight_grad() {
                for sk in &net.skips {
                    let (p, c) = if phase.is_forward() {
                        (sk.from, sk.to)
                    } else {
                        (n - 1 - sk.to, n - 1 - sk.from)
                    };
                    let (pid, cid) = (OpId(base + p), OpId(base + c));
                    if !consumers[base + p].contains(&cid) {
                        consumers[base + p].push(cid);
                    }
                    if !producers[base + c].contains(&pid) {
                        producers[base + c].push(pid);
                    }
                }
            }
            spans[phase.index()] = (base, producers.len());
        }
        for (from, to) in [
            (Phase::GForward, Phase::DForward),
            (Phase::DForward, Phase::DBackward),
            (Phase::DForward, Phase::DWeightGrad),
            (Phase::DBackward, Phase::DWeightGrad),
            (Phase::DBackward, Phase::GBackward),
            (Phase::GForward, Phase::GWeightGrad),
            (Phase::GBackward, Phase::GWeightGrad),
        ] {
            let producer = spans[from.index()].1 - 1;
            let consumer = spans[to.index()].0;
            consumers[producer].push(OpId(consumer));
            producers[consumer].push(OpId(producer));
        }
        (producers, consumers)
    }

    #[test]
    fn edges_match_the_per_op_lists_in_order() {
        let mut gans = benchmarks::all();
        gans.extend(benchmarks::extended());
        let mut with_skips = 0;
        for gan in &gans {
            with_skips +=
                usize::from(!gan.generator.skips.is_empty() || !gan.discriminator.skips.is_empty());
            let graph = OpGraph::build(gan);
            let (producers, consumers) = edge_lists_reference(gan);
            assert_eq!(producers.len(), graph.len());
            for op in graph.ops() {
                assert_eq!(
                    graph.producers(op.id),
                    &producers[op.id.0][..],
                    "{}",
                    gan.name
                );
                assert_eq!(
                    graph.consumers(op.id),
                    &consumers[op.id.0][..],
                    "{}",
                    gan.name
                );
            }
        }
        assert!(with_skips > 0, "some benchmark GAN has skip connections");
    }

    #[test]
    fn bank_slots_match_the_b1_b6_map() {
        assert_eq!(BankSlot::for_phase(Phase::GForward).label(), "B1");
        assert_eq!(BankSlot::for_phase(Phase::GWeightGrad).label(), "B2");
        assert_eq!(BankSlot::for_phase(Phase::GBackward).label(), "B3");
        assert_eq!(BankSlot::for_phase(Phase::DForward).label(), "B4");
        assert_eq!(BankSlot::for_phase(Phase::DWeightGrad).label(), "B5");
        assert_eq!(BankSlot::for_phase(Phase::DBackward).label(), "B6");
    }

    #[test]
    fn standalone_view_matches_the_graph() {
        let gan = benchmarks::gpgan();
        let graph = OpGraph::build(&gan);
        for phase in Phase::ALL {
            let standalone = network_ops(gan.network_for(phase), phase);
            let in_graph = graph.phase_ops(phase);
            assert_eq!(standalone.len(), in_graph.len());
            for (a, b) in standalone.iter().zip(in_graph) {
                assert_eq!(a.workload, b.workload);
                assert_eq!(a.gemm, b.gemm);
                assert_eq!(a.layer_index, b.layer_index);
                assert_eq!(a.seq, b.seq);
            }
        }
    }
}

//! The ZFDM / DataMapping compiler (Sec. V "Compiler").
//!
//! The compiler turns a parsed [`GanSpec`] into per-(phase, layer)
//! mappings: how much CArray space each workload occupies (after reshaping
//! and duplication), how many MMV cycles one sample costs, how many
//! physical crossbar operations fire, and how much data moves. Three
//! reshape schemes are supported so the same compiler serves LerGAN and
//! the comparison points of Fig. 16–19:
//!
//! * [`ReshapeScheme::Zfdr`] — LerGAN's zero-free reshaping with Table III
//!   duplication (ZFDM) and Eq. 14 DataMapping for dense workloads;
//! * [`ReshapeScheme::Normal`] — normal reshape (NR): zero-inserted
//!   operands, one stored copy;
//! * [`ReshapeScheme::NormalSpaceEqualized`] — NR given the *same* CArray
//!   space LerGAN uses (the paper's "NS" configurations), spent on plain
//!   weight duplication.

use crate::replica::{self, ReplicaDegree, ReplicaPlan};
use crate::zfdr::plan::ZfdrPlan;
use lergan_gan::ir::{OpGraph, OpId, PhaseOp};
use lergan_gan::workload::{ConvWorkload, WorkloadKind};
use lergan_gan::{GanSpec, Phase};
use lergan_reram::{CrossbarLayout, ReramConfig};
use lergan_tensor::{DconvAxis, TconvGeometry, WconvGeometry};

/// Interconnect family the compiled plan targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Connection {
    /// The proposed 3D-connected PIM (3DCU pairs).
    #[default]
    ThreeD,
    /// Plain H-tree banks over a shared bus (PRIME/PipeLayer style).
    HTree,
}

/// Reshape scheme used for zero-inserted workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReshapeScheme {
    /// Zero-Free Data Reshaping (the contribution).
    #[default]
    Zfdr,
    /// Normal reshape: operate on zero-inserted operands.
    Normal,
    /// Normal reshape, granted the same CArray space as the ZFDR plan and
    /// spending it on weight duplication.
    NormalSpaceEqualized,
}

/// Compiler options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompilerOptions {
    /// Reshape scheme.
    pub scheme: ReshapeScheme,
    /// Default duplication degree (Table III / Eq. 14).
    pub degree: ReplicaDegree,
    /// Target interconnect.
    pub connection: Connection,
    /// Per-phase degree overrides — the paper's "heterogeneous levels of
    /// acceleration according to demands" (Sec. V): e.g. spend space on
    /// the forward phases while keeping the ∇weight banks lean.
    pub phase_degrees: PhaseDegrees,
}

impl CompilerOptions {
    /// The effective degree for a phase.
    pub fn degree_for(&self, phase: Phase) -> ReplicaDegree {
        self.phase_degrees.get(phase).unwrap_or(self.degree)
    }
}

/// Optional per-phase duplication-degree overrides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseDegrees {
    overrides: [Option<ReplicaDegree>; 6],
}

impl PhaseDegrees {
    /// No overrides.
    pub fn none() -> Self {
        Self::default()
    }

    /// Sets the degree for one phase, returning the updated map.
    pub fn with(mut self, phase: Phase, degree: ReplicaDegree) -> Self {
        self.overrides[phase.index()] = Some(degree);
        self
    }

    /// The override for a phase, if any.
    pub fn get(&self, phase: Phase) -> Option<ReplicaDegree> {
        self.overrides[phase.index()]
    }

    /// Whether any phase is overridden.
    pub fn is_heterogeneous(&self) -> bool {
        self.overrides.iter().any(|o| o.is_some())
    }
}

/// ZFDR-specific mapping details of one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct ZfdrMapping {
    /// Distinct reshaped matrices (2-D/3-D classes).
    pub distinct_classes: u128,
    /// The replica plan applied.
    pub replicas: ReplicaPlan,
}

/// One compiled (phase, layer) mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct MappedLayer {
    /// The op-graph node this mapping realises (an id into
    /// [`CompiledGan::graph`]).
    pub op: OpId,
    /// The underlying workload.
    pub workload: ConvWorkload,
    /// ZFDR details when the scheme reshapes this workload.
    pub zfdr: Option<ZfdrMapping>,
    /// MMV cycles for one sample through this operation.
    pub cycles_per_sample: u128,
    /// CArray storage (16-bit values) including duplication.
    pub stored_values: u128,
    /// Physical crossbar read operations per sample.
    pub crossbar_ops_per_sample: u128,
    /// Values moved over the interconnect per sample.
    pub moved_values_per_sample: u128,
    /// Tiles this layer's storage spans.
    pub tiles: usize,
}

/// A compiled phase: the mapped layers in dataflow order.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledPhase {
    /// The phase.
    pub phase: Phase,
    /// Mapped layers (backward phases are already reversed).
    pub layers: Vec<MappedLayer>,
}

impl CompiledPhase {
    /// Total MMV cycles per sample across the phase.
    pub fn cycles_per_sample(&self) -> u128 {
        self.layers.iter().map(|l| l.cycles_per_sample).sum()
    }

    /// Total CArray storage of the phase.
    pub fn stored_values(&self) -> u128 {
        self.layers.iter().map(|l| l.stored_values).sum()
    }

    /// Total crossbar operations per sample.
    pub fn crossbar_ops_per_sample(&self) -> u128 {
        self.layers.iter().map(|l| l.crossbar_ops_per_sample).sum()
    }

    /// Total values moved per sample.
    pub fn moved_values_per_sample(&self) -> u128 {
        self.layers.iter().map(|l| l.moved_values_per_sample).sum()
    }

    /// Tiles the phase spans.
    pub fn tiles(&self) -> usize {
        self.layers.iter().map(|l| l.tiles).sum::<usize>().max(1)
    }
}

/// A fully compiled GAN.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledGan {
    /// Options the plan was compiled with.
    pub options: CompilerOptions,
    /// The op graph the plan was lowered from: every [`MappedLayer`]
    /// carries the [`OpId`] of its node here.
    pub graph: OpGraph,
    /// All six phases in [`Phase::ALL`] order.
    pub phases: Vec<CompiledPhase>,
    /// Batch size carried over from the spec.
    pub batch_size: usize,
}

impl CompiledGan {
    /// The compiled phase for `phase`.
    pub fn phase(&self, phase: Phase) -> &CompiledPhase {
        self.phases
            .iter()
            .find(|p| p.phase == phase)
            .expect("all phases compiled")
    }

    /// Total CArray storage across all phases (the space "NS"
    /// configurations equalise against).
    pub fn total_stored_values(&self) -> u128 {
        self.phases.iter().map(|p| p.stored_values()).sum()
    }

    /// Total persistent weight values (one copy of every layer's kernel,
    /// counted once over the forward phases) — the update-write volume.
    pub fn weight_values(&self) -> u128 {
        self.phases
            .iter()
            .filter(|p| p.phase.is_forward())
            .flat_map(|p| &p.layers)
            .map(|l| l.workload.weight_values)
            .sum()
    }
}

/// Compiles a GAN under the given options.
///
/// # Domain
///
/// `config.tile_read_latency_ns` and `config.htree_latency_ns` feed the
/// replica search ([`replica::replica_e_max`]) and must be `≥ 0` (either
/// sign of zero) or `+∞`; with a negative or NaN latency the duplication
/// degrees are unspecified. [`LerGanBuilder::build`] accepts only finite
/// latencies `≥ 0` and returns [`BuildError::Latency`] for any other.
///
/// [`LerGanBuilder::build`]: crate::LerGanBuilder::build
/// [`BuildError::Latency`]: crate::BuildError::Latency
pub fn compile(gan: &GanSpec, options: CompilerOptions, config: &ReramConfig) -> CompiledGan {
    compile_with_bank_tiles(gan, options, config, &|_| config.tiles_per_bank)
}

/// Compiles a GAN onto banks whose usable tile count varies per phase —
/// the fault-aware entry point. `bank_tiles_for` reports how many healthy
/// tiles each phase's bank retains; the space-aware replica clamp then
/// sheds duplication degrees against the *surviving* capacity, so a bank
/// that lost tiles rebalances its copies instead of overcommitting. With
/// every phase at full capacity this is exactly [`compile`].
pub fn compile_with_bank_tiles(
    gan: &GanSpec,
    options: CompilerOptions,
    config: &ReramConfig,
    bank_tiles_for: &dyn Fn(Phase) -> usize,
) -> CompiledGan {
    // Neighbour-tile transfer time used by the replica_e_max constraint:
    // one hop up and one down.
    let tile_transfer_ns = 2.0 * config.htree_hop_latency_ns();
    let graph = OpGraph::build(gan);
    let mut plans = Plans::default();
    let mut phases = Vec::with_capacity(6);
    for phase in Phase::ALL {
        let bank_tiles = bank_tiles_for(phase).max(1);
        let layers = graph
            .phase_ops(phase)
            .iter()
            .map(|op| {
                map_layer(
                    op,
                    options,
                    config,
                    tile_transfer_ns,
                    bank_tiles,
                    &mut plans,
                )
            })
            .collect();
        phases.push(CompiledPhase { phase, layers });
    }
    // The NS scheme re-scales dense duplication against the ZFDR plan's
    // space; that is resolved by the caller comparing totals, so nothing
    // else to do here.
    CompiledGan {
        options,
        graph,
        phases,
        batch_size: gan.batch_size,
    }
}

/// Space-equalisation factor for an NS configuration: how many weight
/// copies the same CArray space buys PRIME-style mapping.
pub fn space_equalization_factor(lergan: &CompiledGan, prime: &CompiledGan) -> usize {
    let z = lergan.total_stored_values();
    let n = prime.total_stored_values().max(1);
    ((z / n) as usize).max(1)
}

/// The geometry a ZFDR plan is enumerated from.
#[derive(Debug, Clone, Copy, PartialEq)]
enum PlanKey {
    Tconv(TconvGeometry),
    Wconv(WconvGeometry),
    /// One axis of a symmetric D-CONV geometry.
    Dconv(DconvAxis),
}

/// The ZFDR plans one compile has enumerated, each once: a plan is a pure
/// function of its geometry, and the layers of a GAN (with the converse
/// T-CONVs Eq. 14 and the NS scheme size against) repeat a handful of
/// geometries. A compile asks for a few distinct ones, so a linear search
/// beats hashing them.
#[derive(Debug, Default)]
struct Plans(Vec<(PlanKey, ZfdrPlan)>);

impl Plans {
    /// The plan of `key`, enumerated on first use.
    fn get(&mut self, key: PlanKey) -> &ZfdrPlan {
        let i = match self.0.iter().position(|(k, _)| *k == key) {
            Some(i) => i,
            None => {
                let plan = match &key {
                    PlanKey::Tconv(g) => ZfdrPlan::for_tconv(g),
                    PlanKey::Wconv(g) => ZfdrPlan::for_wconv(g),
                    PlanKey::Dconv(axis) => ZfdrPlan::for_dconv(axis),
                };
                self.0.push((key, plan));
                self.0.len() - 1
            }
        };
        &self.0[i].1
    }
}

fn map_layer(
    op: &PhaseOp,
    options: CompilerOptions,
    config: &ReramConfig,
    tile_transfer_ns: f64,
    bank_tiles: usize,
    plans: &mut Plans,
) -> MappedLayer {
    let workload = op.workload.clone();
    let degree = options.degree_for(op.phase);
    let dims = workload.dims;
    let pairs = workload.in_channels as u128 * workload.out_channels as u128;
    // Only the ZFDR scheme maps reshape classes; NR and NS map
    // zero-inserted operands dense, so they need no plan here.
    let plan = if options.scheme == ReshapeScheme::Zfdr {
        zfdr_plan_key(&workload).map(|key| plans.get(key))
    } else {
        None
    };
    if let Some(plan) = plan {
        let summaries = plan.kind_summaries(dims);
        // T-CONV ZFDR stores reshaped *weights* (ic × oc kernels); W-CONV-S
        // stores reshaped *∇output* (its channel dimension only).
        let is_wconv = matches!(workload.kind, WorkloadKind::WconvKernel(_));
        let channel_factor = if is_wconv {
            workload.in_channels as u128
        } else {
            pairs
        };
        let mut replicas = replica::plan_for_degree(
            degree,
            plan,
            &summaries,
            channel_factor,
            config,
            tile_transfer_ns,
        );
        // Space-aware clamp (Sec. V factor 1, "programmers' demand /
        // space demands"): a single layer's reshaped matrices must fit
        // one bank's *healthy* tiles, so shed inside then edge replicas
        // until they do.
        let bank_values = config.weights_per_tile() as u128 * bank_tiles as u128;
        while replicas.storage_values(&summaries, channel_factor) > bank_values
            && (replicas.inside > 1 || replicas.edge > 1)
        {
            if replicas.inside > 1 {
                replicas.inside -= 1;
            } else {
                replicas.edge -= 1;
            }
        }
        let stored = replicas.storage_values(&summaries, channel_factor);
        let cycles = summaries.cycles(&replicas);
        // Physical crossbar ops: each class tuple fires `reuse` MMVs over
        // its own reshaped matrix layout (per receiving channel for the
        // W-CONV direction, where each in-channel streams its own window).
        let mut ops: u128 = 0;
        plan.for_each_tuple(dims, |reuse, volume, _| {
            if volume == 0 {
                return;
            }
            let (rows, cols, mmv_factor) = if is_wconv {
                (
                    volume,
                    workload.in_channels as u128,
                    workload.out_channels as u128,
                )
            } else {
                (
                    volume * workload.in_channels as u128,
                    workload.out_channels as u128,
                    1,
                )
            };
            let layout = CrossbarLayout::for_matrix(
                (rows.min(usize::MAX as u128) as usize).max(1),
                (cols.min(usize::MAX as u128) as usize).max(1),
                config,
            );
            ops += reuse * mmv_factor * layout.crossbars() as u128;
        });
        let tiles = stored.div_ceil(config.weights_per_tile() as u128) as usize;
        MappedLayer {
            op: op.id,
            zfdr: Some(ZfdrMapping {
                distinct_classes: plan.distinct_classes(dims),
                replicas,
            }),
            cycles_per_sample: cycles,
            stored_values: stored,
            crossbar_ops_per_sample: ops,
            moved_values_per_sample: workload.moved_values_useful,
            tiles: tiles.max(1),
            workload,
        }
    } else {
        // Dense mapping (always used for Dense workloads; used for
        // zero-inserted ones under Normal/NS schemes).
        let mut replicas =
            dense_scheme_replicas(&workload, degree, options, config, tile_transfer_ns, plans);
        // Space-aware clamp: one layer's copies must fit a bank's healthy
        // tiles.
        let base = workload.weight_values.max(dense_operand_values(&workload));
        let bank_values = config.weights_per_tile() as u128 * bank_tiles as u128;
        if let Some(fit) = bank_values.checked_div(base) {
            replicas = replicas.min(fit.max(1) as usize);
        }
        let stored = base * replicas as u128;
        let positions_dense = dense_positions(&workload);
        let cycles = positions_dense.div_ceil(replicas as u128).max(1);
        let rows = dense_matrix_rows(&workload);
        let layout = CrossbarLayout::for_matrix(rows.max(1), workload.out_channels.max(1), config);
        let ops = positions_dense * layout.crossbars() as u128;
        let moved = if options.scheme == ReshapeScheme::Zfdr {
            // ZFDR runs never move inserted zeros, even on dense phases
            // (there are none to move).
            workload.moved_values_useful
        } else {
            workload.moved_values_dense
        };
        let tiles = stored.div_ceil(config.weights_per_tile() as u128) as usize;
        MappedLayer {
            op: op.id,
            zfdr: None,
            cycles_per_sample: cycles,
            stored_values: stored.max(1),
            crossbar_ops_per_sample: ops,
            moved_values_per_sample: moved,
            tiles: tiles.max(1),
            workload,
        }
    }
}

/// The geometry of a zero-inserted workload's ZFDR plan; `None` for dense
/// workloads and for D-CONV geometries that map dense.
fn zfdr_plan_key(w: &ConvWorkload) -> Option<PlanKey> {
    match &w.kind {
        WorkloadKind::Dense => None,
        WorkloadKind::TconvInput(g) => Some(PlanKey::Tconv(*g)),
        WorkloadKind::WconvKernel(g) => Some(PlanKey::Wconv(*g)),
        // Symmetric geometry composes one axis-class set across both
        // dimensions, exactly as T-CONV; asymmetric geometry has no
        // pow-composable plan and maps dense.
        WorkloadKind::DconvKernel(g) => g.is_symmetric().then_some(PlanKey::Dconv(g.rows)),
    }
}

/// MMV positions of a dense workload: one per output position for convs,
/// one for FC layers.
fn dense_positions(w: &ConvWorkload) -> u128 {
    match &w.kind {
        WorkloadKind::Dense => {
            // FC layers (spatial extent 1) and dense conv-shaped ops.
            if w.weight_values == 0 {
                1
            } else {
                // output positions = output_values / out_channels
                (w.output_values / w.out_channels.max(1) as u128).max(1)
            }
        }
        WorkloadKind::TconvInput(g) => (g.output as u128).pow(w.dims),
        WorkloadKind::WconvKernel(g) => (g.gradient_extent() as u128).pow(w.dims),
        WorkloadKind::DconvKernel(g) => g.rows.output as u128 * g.cols.output as u128,
    }
}

/// Rows of the stored matrix under dense mapping: the MMV input length,
/// i.e. kernel volume × input channels (which `weights / out_channels`
/// recovers uniformly for FC and conv layers).
fn dense_matrix_rows(w: &ConvWorkload) -> usize {
    match &w.kind {
        WorkloadKind::Dense => {
            if w.weight_values == 0 {
                w.in_channels
            } else {
                (w.weight_values / w.out_channels.max(1) as u128).max(1) as usize
            }
        }
        WorkloadKind::TconvInput(g) => (g.kernel as u128).pow(w.dims) as usize * w.in_channels,
        WorkloadKind::WconvKernel(g) => (g.inserted_kernel_extent() as u128).pow(w.dims) as usize,
        WorkloadKind::DconvKernel(g) => {
            // Reduction length of the zero-inserted-kernel GEMM.
            g.rows.effective_kernel() * g.cols.effective_kernel() * w.in_channels
        }
    }
}

/// Values the dense mapping must hold stationary (weights, or the
/// zero-inserted kernel for W-CONV).
fn dense_operand_values(w: &ConvWorkload) -> u128 {
    match &w.kind {
        WorkloadKind::WconvKernel(g) => {
            (g.inserted_kernel_extent() as u128).pow(w.dims) * w.in_channels as u128
        }
        WorkloadKind::DconvKernel(g) => {
            // Dense mapping materialises the effective (zero-inserted)
            // kernel per channel pair.
            w.in_channels as u128
                * w.out_channels as u128
                * (g.rows.effective_kernel() * g.cols.effective_kernel()) as u128
        }
        _ => w.weight_values,
    }
}

/// Duplication for dense-mapped workloads under each scheme.
fn dense_scheme_replicas(
    w: &ConvWorkload,
    degree: ReplicaDegree,
    options: CompilerOptions,
    config: &ReramConfig,
    tile_transfer_ns: f64,
    plans: &mut Plans,
) -> usize {
    match options.scheme {
        ReshapeScheme::Normal => 1,
        ReshapeScheme::NormalSpaceEqualized => {
            // Resolved per-layer: the space a ZFDR plan of this layer would
            // take, spent on plain copies instead.
            match &w.kind {
                WorkloadKind::Dense => 1,
                WorkloadKind::TconvInput(g) => {
                    let plan = plans.get(PlanKey::Tconv(*g));
                    let summaries = plan.kind_summaries(w.dims);
                    let pairs = w.in_channels as u128 * w.out_channels as u128;
                    let rp = replica::plan_for_degree(
                        ReplicaDegree::Low,
                        plan,
                        &summaries,
                        pairs,
                        config,
                        tile_transfer_ns,
                    );
                    let z = rp.storage_values(&summaries, pairs);
                    ((z / w.weight_values.max(1)) as usize).max(1)
                }
                WorkloadKind::WconvKernel(_) | WorkloadKind::DconvKernel(_) => 1,
            }
        }
        ReshapeScheme::Zfdr => {
            // Eq. 14 DataMapping: dense phases sized against the space the
            // reshaped sibling phases take.
            match &w.kind {
                WorkloadKind::Dense if w.weight_values > 0 => {
                    if let Some(g) = converse_tconv(w) {
                        let plan = plans.get(PlanKey::Tconv(g));
                        let summaries = plan.kind_summaries(w.dims);
                        let pairs = w.in_channels as u128 * w.out_channels as u128;
                        let rp = replica::plan_for_degree(
                            degree,
                            plan,
                            &summaries,
                            pairs,
                            config,
                            tile_transfer_ns,
                        );
                        let z = rp.storage_values(&summaries, pairs);
                        replica::dense_replicas(degree, z, w.weight_values)
                    } else {
                        1
                    }
                }
                _ => 1,
            }
        }
    }
}

/// For a dense conv-shaped workload, the T-CONV geometry of its converse
/// direction (used by Eq. 14 to size DataMapping replicas). `None` for FC
/// layers.
fn converse_tconv(w: &ConvWorkload) -> Option<TconvGeometry> {
    // Dense conv workloads carry no geometry in their kind, so recover the
    // spatial extent from the counts: output positions per channel.
    let positions = (w.output_values / w.out_channels.max(1) as u128).max(1);
    if positions <= 1 {
        return None; // FC layer
    }
    let extent = integer_root(positions, w.dims)?;
    let in_extent = integer_root(
        (w.moved_values_dense / w.in_channels.max(1) as u128).max(1),
        w.dims,
    )?;
    // Kernel extent from the weight count.
    let pair = w.in_channels as u128 * w.out_channels.max(1) as u128;
    let kernel = integer_root((w.weight_values / pair.max(1)).max(1), w.dims)?;
    // Dense forward conv: in -> out with some stride; its converse error
    // path is a T-CONV from out back to in. Dense backward (G-left)
    // workloads map in the opposite direction; either way the T-CONV goes
    // from the smaller extent to the larger.
    let (small, large) = if extent <= in_extent {
        (extent, in_extent)
    } else {
        (in_extent, extent)
    };
    let stride = (large / small.max(1)).max(1);
    TconvGeometry::for_target(small, kernel, stride, large)
}

fn integer_root(v: u128, dims: u32) -> Option<usize> {
    let mut r = (v as f64).powf(1.0 / dims as f64).round() as u128;
    // Fix rounding drift.
    while r.pow(dims) > v {
        r -= 1;
    }
    while (r + 1).pow(dims) <= v {
        r += 1;
    }
    (r.pow(dims) == v).then_some(r as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lergan_gan::benchmarks;

    fn dcgan_compiled(scheme: ReshapeScheme, degree: ReplicaDegree) -> CompiledGan {
        compile(
            &benchmarks::dcgan(),
            CompilerOptions {
                scheme,
                degree,
                connection: Connection::ThreeD,
                phase_degrees: Default::default(),
            },
            &ReramConfig::default(),
        )
    }

    #[test]
    fn zfdr_beats_normal_on_cycles() {
        let z = dcgan_compiled(ReshapeScheme::Zfdr, ReplicaDegree::Low);
        let n = dcgan_compiled(ReshapeScheme::Normal, ReplicaDegree::Low);
        let zc = z.phase(Phase::GForward).cycles_per_sample();
        let nc = n.phase(Phase::GForward).cycles_per_sample();
        assert!(
            zc * 2 < nc,
            "ZFDR G-forward cycles {zc} should be well under normal reshape {nc}"
        );
    }

    #[test]
    fn zfdr_uses_more_space_than_normal() {
        let z = dcgan_compiled(ReshapeScheme::Zfdr, ReplicaDegree::Low);
        let n = dcgan_compiled(ReshapeScheme::Normal, ReplicaDegree::Low);
        assert!(z.total_stored_values() > n.total_stored_values());
    }

    #[test]
    fn degrees_scale_space_and_speed() {
        let low = dcgan_compiled(ReshapeScheme::Zfdr, ReplicaDegree::Low);
        let high = dcgan_compiled(ReshapeScheme::Zfdr, ReplicaDegree::High);
        assert!(high.total_stored_values() >= low.total_stored_values());
        let lc: u128 = low.phases.iter().map(|p| p.cycles_per_sample()).sum();
        let hc: u128 = high.phases.iter().map(|p| p.cycles_per_sample()).sum();
        assert!(hc <= lc);
    }

    #[test]
    fn conv1_mapping_matches_paper_cycle_claim() {
        // Without duplication the first generator T-CONV runs in 9 cycles,
        // against 64 for normal reshape (Sec. IV-A).
        let gan = benchmarks::dcgan();
        let cfg = ReramConfig::default();
        let z = compile(
            &gan,
            CompilerOptions {
                scheme: ReshapeScheme::Zfdr,
                degree: ReplicaDegree::Low,
                connection: Connection::ThreeD,
                phase_degrees: Default::default(),
            },
            &cfg,
        );
        let n = compile(
            &gan,
            CompilerOptions {
                scheme: ReshapeScheme::Normal,
                degree: ReplicaDegree::Low,
                connection: Connection::ThreeD,
                phase_degrees: Default::default(),
            },
            &cfg,
        );
        // Layer index 1 = CONV1.
        let conv1_n = &n.phase(Phase::GForward).layers[1];
        assert_eq!(conv1_n.cycles_per_sample, 64);
        let conv1_z = &z.phase(Phase::GForward).layers[1];
        assert!(conv1_z.cycles_per_sample <= 9);
        assert_eq!(conv1_z.zfdr.as_ref().unwrap().distinct_classes, 25);
    }

    #[test]
    fn ns_factor_is_at_least_one() {
        let z = dcgan_compiled(ReshapeScheme::Zfdr, ReplicaDegree::Low);
        let n = dcgan_compiled(ReshapeScheme::Normal, ReplicaDegree::Low);
        assert!(space_equalization_factor(&z, &n) >= 1);
    }

    #[test]
    fn moved_values_shrink_under_zfdr() {
        let z = dcgan_compiled(ReshapeScheme::Zfdr, ReplicaDegree::Low);
        let n = dcgan_compiled(ReshapeScheme::Normal, ReplicaDegree::Low);
        let zm = z.phase(Phase::GForward).moved_values_per_sample();
        let nm = n.phase(Phase::GForward).moved_values_per_sample();
        assert!(
            (nm as f64 / zm as f64) > 4.0,
            "saving {}x",
            nm as f64 / zm as f64
        );
    }

    #[test]
    fn all_benchmarks_compile_under_all_schemes() {
        for gan in benchmarks::all() {
            for scheme in [
                ReshapeScheme::Zfdr,
                ReshapeScheme::Normal,
                ReshapeScheme::NormalSpaceEqualized,
            ] {
                let c = compile(
                    &gan,
                    CompilerOptions {
                        scheme,
                        degree: ReplicaDegree::Middle,
                        connection: Connection::ThreeD,
                        phase_degrees: Default::default(),
                    },
                    &ReramConfig::default(),
                );
                assert_eq!(c.phases.len(), 6, "{} {scheme:?}", gan.name);
                assert!(c.total_stored_values() > 0);
                assert!(c.weight_values() > 0);
            }
        }
    }

    #[test]
    fn heterogeneous_phase_degrees_apply_per_phase() {
        // Sec. V: "we enable programmers to use heterogeneous levels of
        // acceleration according to demands."
        let gan = benchmarks::dcgan();
        let cfg = ReramConfig::default();
        let uniform = compile(
            &gan,
            CompilerOptions {
                scheme: ReshapeScheme::Zfdr,
                degree: ReplicaDegree::Low,
                connection: Connection::ThreeD,
                phase_degrees: Default::default(),
            },
            &cfg,
        );
        let hetero = compile(
            &gan,
            CompilerOptions {
                scheme: ReshapeScheme::Zfdr,
                degree: ReplicaDegree::Low,
                connection: Connection::ThreeD,
                phase_degrees: PhaseDegrees::none().with(Phase::GForward, ReplicaDegree::High),
            },
            &cfg,
        );
        // Only the boosted phase spends more space / fewer cycles.
        assert!(
            hetero.phase(Phase::GForward).stored_values()
                >= uniform.phase(Phase::GForward).stored_values()
        );
        assert!(
            hetero.phase(Phase::GForward).cycles_per_sample()
                <= uniform.phase(Phase::GForward).cycles_per_sample()
        );
        assert_eq!(
            hetero.phase(Phase::DForward).stored_values(),
            uniform.phase(Phase::DForward).stored_values()
        );
        assert!(hetero.options.phase_degrees.is_heterogeneous());
        assert!(!uniform.options.phase_degrees.is_heterogeneous());
        assert_eq!(
            hetero.options.degree_for(Phase::GForward),
            ReplicaDegree::High
        );
        assert_eq!(
            hetero.options.degree_for(Phase::DForward),
            ReplicaDegree::Low
        );
    }

    #[test]
    fn full_capacity_degraded_compile_is_identical() {
        let gan = benchmarks::dcgan();
        let cfg = ReramConfig::default();
        let options = CompilerOptions {
            scheme: ReshapeScheme::Zfdr,
            degree: ReplicaDegree::High,
            connection: Connection::ThreeD,
            phase_degrees: Default::default(),
        };
        let clean = compile(&gan, options, &cfg);
        let degraded = compile_with_bank_tiles(&gan, options, &cfg, &|_| cfg.tiles_per_bank);
        assert_eq!(clean.phases, degraded.phases);
    }

    #[test]
    fn lost_tiles_shed_replicas() {
        let gan = benchmarks::dcgan();
        let cfg = ReramConfig::default();
        let options = CompilerOptions {
            scheme: ReshapeScheme::Zfdr,
            degree: ReplicaDegree::High,
            connection: Connection::ThreeD,
            phase_degrees: Default::default(),
        };
        let clean = compile(&gan, options, &cfg);
        // Starve the generator-forward bank down to two tiles: its layers
        // must rebalance duplication to fit the surviving capacity.
        let degraded = compile_with_bank_tiles(&gan, options, &cfg, &|p| {
            if p == Phase::GForward {
                2
            } else {
                cfg.tiles_per_bank
            }
        });
        let clean_gf = clean.phase(Phase::GForward).stored_values();
        let degraded_gf = degraded.phase(Phase::GForward).stored_values();
        assert!(
            degraded_gf < clean_gf,
            "shed replicas: {degraded_gf} should undercut {clean_gf}"
        );
        // Fewer copies cost cycles — the graceful-degradation trade.
        assert!(
            degraded.phase(Phase::GForward).cycles_per_sample()
                >= clean.phase(Phase::GForward).cycles_per_sample()
        );
        // Untouched phases compile identically.
        assert_eq!(
            clean.phase(Phase::DForward).layers,
            degraded.phase(Phase::DForward).layers
        );
    }
}

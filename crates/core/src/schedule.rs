//! Lowering of an op graph onto the discrete-event engine.
//!
//! This module turns the op-graph IR ([`lergan_gan::ir::OpGraph`], carried
//! inside a [`CompiledGan`]) plus a tile allocation and the (fault-aware)
//! interconnect into the labelled `lergan-sim` task graph of one training
//! iteration in Fig. 13's order: per-op transfer/compute chains on each
//! phase's bank, mapping writes overlapped with sibling phases, inter-model
//! transfers on the bypass/bus, and the two weight updates. It is the
//! simulator's only description of that order.
//!
//! It is the third consumer of the IR (after the analytic workload view and
//! the functional trainer): every compute/transfer task is labelled with
//! its op, so callers can join schedule times back to individual
//! [`PhaseOp`](lergan_gan::ir::PhaseOp)s — per-op latency/energy instead of
//! per-phase aggregates. [`LerGan`](crate::LerGan) drives this lowering and
//! rolls the result into a [`TrainingReport`](crate::TrainingReport).

use crate::compiler::{CompiledGan, Connection, ReshapeScheme};
use crate::lergan::CostModel;
use crate::mapping::TileAllocation;
use lergan_gan::ir::{BankSlot, OpId};
use lergan_gan::{GanSpec, Phase};
use lergan_noc::{DcuPair, Endpoint, Mode, NocConfig, RouteError};
use lergan_reram::{EnergyCounts, ReramConfig};
use lergan_sim::engine::{Engine, Label, ResourceId, TaskId, TaskSpec};
use lergan_sim::Breakdown;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::OnceLock;

/// Everything a lowering needs, borrowed from the assembled accelerator.
#[derive(Debug)]
pub struct ScheduleContext<'a> {
    /// The GAN being trained (for boundary transfer volumes).
    pub gan: &'a GanSpec,
    /// The compiled mapping, including the op graph it was lowered from.
    pub compiled: &'a CompiledGan,
    /// The (fault-aware) tile allocation of each phase.
    pub allocs: &'a HashMap<Phase, TileAllocation>,
    /// The (fault-aware) interconnect. Transfers are costed under its own
    /// configuration, and the lowering reads every interconnect parameter
    /// (tiles per bank, Cmode channels) from that same
    /// [`config`](DcuPair::config).
    pub pair: &'a DcuPair,
    /// ReRAM timing/size parameters.
    pub reram: &'a ReramConfig,
    /// Interconnect parameters. Unread by the lowering, which takes them
    /// from [`pair`](Self::pair) so the two cannot disagree.
    pub noc: &'a NocConfig,
    /// Auxiliary cost constants.
    pub cost: &'a CostModel,
}

/// The engine tasks realising one [`PhaseOp`](lergan_gan::ir::PhaseOp)
/// occurrence in the schedule (a phase that runs twice per iteration
/// yields two `OpTask`s per op).
///
/// The op's join label, `"{phase} L{layer}"` (stable across runs), is
/// also its compute task's label: [`Engine::label`]`(compute)`.
#[derive(Debug, Clone)]
pub struct OpTask {
    /// The op (an id into [`CompiledGan::graph`]).
    pub op: OpId,
    /// The op's join label, borrowed from a table rendered once per
    /// process for layers below 64 and owned beyond.
    pub label: Label,
    /// The operand-transfer task.
    pub xfer: TaskId,
    /// The MMV compute task, labelled with the op's join label.
    pub compute: TaskId,
    /// Interconnect energy this op's transfer spent (pJ).
    pub comm_energy_pj: f64,
    /// Physical crossbar reads this op's compute fired.
    pub crossbar_ops: u128,
}

/// A lowered iteration: the populated engine plus the accumulators the
/// lowering filled while emitting tasks.
#[derive(Debug)]
pub struct LoweredIteration {
    /// The task graph, ready to [`run`](Engine::run).
    pub engine: Engine,
    /// Raw operation counts (for the energy model).
    pub counts: EnergyCounts,
    /// Energy accumulated while lowering (`communication`, `other`).
    pub energy: Breakdown,
    /// Busy time attributed to each phase (ns).
    pub phase_cost: Breakdown,
    /// Every per-op task emitted, in emission order.
    pub op_tasks: Vec<OpTask>,
}

/// Lowers one training iteration of `ctx`'s op graph into an engine task
/// graph in Fig. 13's order.
///
/// # Panics
///
/// Panics if a transfer's endpoints are partitioned off the fabric, which
/// only severed tree links can do. [`LerGan`](crate::LerGan) lowers one
/// iteration fallibly when it is built under such faults and returns a
/// typed error, so its simulations never reach the panic.
pub fn lower_iteration(ctx: &ScheduleContext<'_>) -> LoweredIteration {
    try_lower_iteration(ctx).expect("every transfer has a route")
}

/// [`lower_iteration`], returning the first unroutable transfer as an
/// error instead of panicking.
pub(crate) fn try_lower_iteration(
    ctx: &ScheduleContext<'_>,
) -> Result<LoweredIteration, RouteError> {
    Lowering::new(ctx).build()
}

/// A transfer's endpoints and routing mode.
type Leg = (Endpoint, Endpoint, Mode);

/// Fixed labels of one phase: its compute resource, its mapping task and
/// its operand-transfer tasks.
struct PhaseLabels {
    compute: &'static str,
    map: &'static str,
    xfer: &'static str,
}

/// [`PhaseLabels`] of each phase, indexed like [`Phase::ALL`].
const PHASE_LABELS: [PhaseLabels; 6] = [
    PhaseLabels {
        compute: "compute G→",
        map: "map G→",
        xfer: "G→ xfer",
    },
    PhaseLabels {
        compute: "compute D→",
        map: "map D→",
        xfer: "D→ xfer",
    },
    PhaseLabels {
        compute: "compute D←",
        map: "map D←",
        xfer: "D← xfer",
    },
    PhaseLabels {
        compute: "compute D-w",
        map: "map D-w",
        xfer: "D-w xfer",
    },
    PhaseLabels {
        compute: "compute G←",
        map: "map G←",
        xfer: "G← xfer",
    },
    PhaseLabels {
        compute: "compute G-w",
        map: "map G-w",
        xfer: "G-w xfer",
    },
];

/// Wire-resource labels of the 3D fabric, per (side, bank).
const WIRES_3D: [[&str; 3]; 2] = [
    ["wires s0b0", "wires s0b1", "wires s0b2"],
    ["wires s1b0", "wires s1b1", "wires s1b2"],
];

/// Wire-resource labels of the H-tree baseline, per side.
const WIRES_HTREE: [&str; 2] = ["wires side0", "wires side1"];

/// Energy buckets of a report (Fig. 23).
pub(crate) const COMPUTE: Label = Cow::Borrowed("compute");
pub(crate) const COMMUNICATION: Label = Cow::Borrowed("communication");
pub(crate) const OTHER: Label = Cow::Borrowed("other");

/// Layers per phase whose join labels [`op_label`] renders once per
/// process; deeper layers render theirs per call.
const RENDERED_LAYERS: usize = 64;

/// The join label `"{phase} L{layer}"` of an op: borrowed from a table
/// rendered on first use for layers below [`RENDERED_LAYERS`], owned
/// beyond. The table depends on no design point.
fn op_label(phase: Phase, layer: usize) -> Label {
    static TABLE: OnceLock<Vec<String>> = OnceLock::new();
    if layer >= RENDERED_LAYERS {
        return Cow::Owned(format!("{phase} L{layer}"));
    }
    let table = TABLE.get_or_init(|| {
        Phase::ALL
            .iter()
            .flat_map(|p| (0..RENDERED_LAYERS).map(move |l| format!("{p} L{l}")))
            .collect()
    });
    Cow::Borrowed(&table[phase.index() * RENDERED_LAYERS + layer])
}

/// Adds `v` to `sum` as [`Breakdown::add`] adds to a bucket: the first
/// value starts at `0.0 + v`.
fn add_to(sum: &mut Option<f64>, v: f64) {
    *sum.get_or_insert(0.0) += v;
}

/// (first, last) task ids of one phase run's chain.
struct PhaseRun {
    first: TaskId,
    last: TaskId,
}

struct Lowering<'a> {
    ctx: &'a ScheduleContext<'a>,
    engine: Engine,
    counts: EnergyCounts,
    energy: Breakdown,
    /// The `communication` energy bucket, summed as a [`Breakdown`] bucket
    /// would be and inserted once at the end.
    communication_pj: Option<f64>,
    /// Each phase's `phase_cost` bucket, indexed like [`Phase::ALL`].
    phase_cost: [Option<f64>; 6],
    op_tasks: Vec<OpTask>,
    /// Compute group of each phase, indexed like [`Phase::ALL`].
    compute_res: [ResourceId; 6],
    /// Wire resource of each (side, bank).
    wire_res: [[ResourceId; 3]; 2],
    cross_res: ResourceId,
    batch: u64,
    t_m: f64,
}

impl<'a> Lowering<'a> {
    fn new(ctx: &'a ScheduleContext<'a>) -> Self {
        let threed = ctx.compiled.options.connection == Connection::ThreeD;
        let mut engine = Engine::new();
        // Resources: per-phase compute groups, per-bank wires, bus, bypass.
        let compute_res = PHASE_LABELS.map(|l| engine.add_resource(l.compute, 1));
        let wire_res = if threed {
            WIRES_3D.map(|side| side.map(|label| engine.add_resource(label, 1)))
        } else {
            // H-tree baseline: one wire resource per side — mapping,
            // compute streams and updates all contend for it.
            WIRES_HTREE.map(|label| [engine.add_resource(label, 1); 3])
        };
        let cross_res = engine.add_resource("bus/bypass", if threed { 2 } else { 1 });
        Lowering {
            engine,
            counts: EnergyCounts::default(),
            energy: Breakdown::new(),
            communication_pj: None,
            phase_cost: [None; 6],
            op_tasks: Vec::new(),
            compute_res,
            wire_res,
            cross_res,
            batch: ctx.compiled.batch_size as u64,
            t_m: ctx.reram.mmv_latency_ns(),
            ctx,
        }
    }

    fn threed(&self) -> bool {
        self.ctx.compiled.options.connection == Connection::ThreeD
    }

    // ---- routes ---------------------------------------------------------

    /// Latency and energy of moving `values` along `leg`, over the pair's
    /// memoised route: each distinct leg is searched once per fabric.
    fn transfer(&self, (from, to, mode): Leg, values: u64) -> Result<(f64, f64), RouteError> {
        self.ctx.pair.transfer(from, to, mode, values)
    }

    /// Leg of an intra-phase hop between two physical tiles of the
    /// phase's bank. Fault-free hand-offs are always between adjacent
    /// tiles; a fault-aware remap can relocate either endpoint, and the
    /// route then pays the real (longer) detour.
    fn tile_leg(&self, bank: BankSlot, from: usize, to: usize) -> Leg {
        let mode = if self.threed() {
            Mode::Cmode
        } else {
            Mode::Smode
        };
        let b = if self.threed() { bank.bank } else { 0 };
        let tiles_per_bank = self.ctx.pair.config().tiles_per_bank;
        let t0 = from % tiles_per_bank;
        let t1 = to % tiles_per_bank;
        (
            Endpoint::pair_tile(bank.side, b, t0),
            Endpoint::pair_tile(bank.side, b, t1),
            mode,
        )
    }

    /// Leg through the shared bus out of (and back into) a bank — what a
    /// phase pays when its allocation spills past the bank (Fig. 9's
    /// inter-bank movement).
    fn bus_leg(&self, bank: BankSlot) -> Leg {
        let b = if self.threed() { bank.bank } else { 0 };
        (
            Endpoint::pair_tile(bank.side, b, 0),
            Endpoint::pair_tile(1 - bank.side, b, 0),
            Mode::Smode,
        )
    }

    /// Leg that carries cached data from a forward bank to a backward
    /// bank of the same side (vertical hop in 3D, H-tree + bus otherwise).
    fn cross_bank_leg(&self, side: usize, from_bank: usize, to_bank: usize) -> Leg {
        if self.threed() {
            (
                Endpoint::pair_tile(side, from_bank, 0),
                Endpoint::pair_tile(side, to_bank, 0),
                Mode::Cmode,
            )
        } else {
            // H-tree baseline: the phases live in tile groups of a flat
            // bank; data crosses the whole tree (and the shared bus when
            // the model spills over a bank).
            (
                Endpoint::pair_tile(side, 0, 0),
                Endpoint::pair_tile(side, 0, self.ctx.pair.config().tiles_per_bank - 1),
                Mode::Smode,
            )
        }
    }

    /// Leg between the generator side and the discriminator side.
    fn cross_side_leg(&self, from_bank: usize, to_bank: usize) -> Leg {
        let mode = if self.threed() {
            Mode::Cmode
        } else {
            Mode::Smode
        };
        (
            Endpoint::pair_tile(0, if self.threed() { from_bank } else { 0 }, 0),
            Endpoint::pair_tile(1, if self.threed() { to_bank } else { 0 }, 0),
            mode,
        )
    }

    /// Write time for `values` into a bank spanning `tiles` tiles.
    fn write_time_ns(&self, values: u128, tiles: usize) -> f64 {
        let per_tile_values_per_write = (self.ctx.cost.write_rows_parallel_per_tile as u128) * 32;
        let writes = values.div_ceil(per_tile_values_per_write.max(1));
        let parallel = tiles.max(1) as u128;
        writes.div_ceil(parallel) as f64 * self.ctx.reram.tile_write_latency_ns
    }

    // ---- task emitters --------------------------------------------------

    /// Emits the chained per-op transfer/compute tasks of one phase run.
    fn run_phase(&mut self, phase: Phase, dep: Option<TaskId>) -> Result<PhaseRun, RouteError> {
        let cp = self.ctx.compiled.phase(phase);
        let ops = self.ctx.compiled.graph.phase_ops(phase);
        debug_assert_eq!(ops.len(), cp.layers.len(), "graph and mapping agree");
        let labels = &PHASE_LABELS[phase.index()];
        let comp_r = self.compute_res[phase.index()];
        let alloc = &self.ctx.allocs[&phase];
        let base = ops.first().map(|o| o.id.0).unwrap_or(0);
        let noc = self.ctx.pair.config();
        let mut prev: Option<TaskId> = dep;
        let mut first: Option<TaskId> = None;
        // Compute task of each already-emitted op in this run, for
        // skip-edge dependencies.
        let mut computes: Vec<TaskId> = Vec::with_capacity(ops.len());
        for (li, (op, layer)) in ops.iter().zip(&cp.layers).enumerate() {
            debug_assert_eq!(op.id, layer.op, "mapping binds the same op");
            let wire_r = self.wire_res[op.bank.side][op.bank.bank];
            // Transfer of this layer's operand stream to its tiles.
            // The plain H-tree cannot multicast: every tile holding
            // distinct reshaped matrices receives its own copy of the
            // stream through the shared tree — which is why duplication
            // "achieves little speedup with H-tree connection"
            // (Fig. 17). The 3DCU's reconfigured horizontal/vertical
            // wires distribute in parallel.
            let zfdm = self.ctx.compiled.options.scheme == ReshapeScheme::Zfdr;
            let per_sample = if self.threed() && zfdm {
                // ZFDM splits kernel weights so each part handles its
                // vertically-aligned partial results (Fig. 14); the
                // slices ride parallel short Cmode paths. Normal
                // mapping keeps one monolithic stream and gains none
                // of this.
                layer
                    .moved_values_per_sample
                    .div_ceil(noc.cmode_parallel_channels as u128)
            } else if layer.zfdr.is_some() {
                // The H-tree unicasts each reshaped matrix its gathered
                // slice of the input; the total stream approaches the
                // im2col volume, bounded by the dense (zero-inserted)
                // stream it replaces.
                let gathered =
                    layer.workload.macs_useful / layer.workload.out_channels.max(1) as u128;
                gathered.min(layer.workload.moved_values_dense)
            } else {
                layer.moved_values_per_sample * (layer.tiles.min(noc.tiles_per_bank) as u128)
            };
            let moved = per_sample as u64 * self.batch;
            // Fig. 14 hand-off: from the previous layer's last tile to
            // this layer's first — the *physical* pair, so a fault-aware
            // relocation pays its real detour instead of a nominal
            // adjacent hop. A bank-boundary crossing (the phase spilled
            // onto another 3DCU pair) pays the bus.
            let (from_tile, to_tile) = if li == 0 {
                let entry = alloc.tile_for(0, 0).expect("phase has a first layer");
                (entry, (entry + 1) % noc.tiles_per_bank)
            } else {
                alloc.handoff(li - 1).expect("layers are consecutive")
            };
            let crosses = li > 0
                && alloc
                    .handoff_crosses_bank(li - 1)
                    .expect("layers are consecutive");
            let leg = if crosses {
                self.bus_leg(op.bank)
            } else {
                self.tile_leg(op.bank, from_tile, to_tile)
            };
            let (lat, en) = self.transfer(leg, moved)?;
            let mut xfer = TaskSpec::new(labels.xfer, lat).on(wire_r);
            if let Some(p) = prev {
                xfer = xfer.after(p);
            }
            let xfer_id = self.engine.add_task(xfer);
            add_to(&mut self.communication_pj, en);
            self.counts.buffer_values += moved as u128;
            add_to(&mut self.phase_cost[phase.index()], lat);

            // Skip-edge dataflow: a non-adjacent same-phase producer (a
            // residual edge in the op graph) also feeds this op. Its
            // stashed output rides the bank's wires from the producer's
            // tiles, and compute waits on that stream too. Cross-phase
            // producers are ordered by `build` instead.
            let mut skip_deps: Vec<TaskId> = Vec::new();
            for p in self.ctx.compiled.graph.producers(op.id) {
                let Some(pi) = p.0.checked_sub(base).filter(|&pi| pi < ops.len()) else {
                    continue;
                };
                if pi + 1 >= li {
                    continue; // the linear chain already orders neighbours
                }
                let volume = ops[pi].workload.output_values as u64 * self.batch;
                let from_tile = alloc.handoff(pi).expect("producer precedes a layer").0;
                let to_tile = alloc.tile_for(li, 0).expect("layer is allocated");
                let (lat, en) =
                    self.transfer(self.tile_leg(op.bank, from_tile, to_tile), volume)?;
                let t = self.engine.add_task(
                    TaskSpec::new(
                        format!("{phase} skip L{}->L{}", ops[pi].layer_index, op.layer_index),
                        lat,
                    )
                    .on(wire_r)
                    .after(computes[pi]),
                );
                add_to(&mut self.communication_pj, en);
                self.counts.buffer_values += volume as u128;
                add_to(&mut self.phase_cost[phase.index()], lat);
                skip_deps.push(t);
            }

            // Compute, labelled with the op's join label.
            let dur = layer.cycles_per_sample as f64 * self.t_m * self.batch as f64;
            let label = op_label(phase, op.layer_index);
            let comp = TaskSpec::new(label.clone(), dur)
                .on(comp_r)
                .after(xfer_id)
                .after_all(&skip_deps);
            let comp_id = self.engine.add_task(comp);
            computes.push(comp_id);
            let crossbar_ops = layer.crossbar_ops_per_sample * self.batch as u128;
            self.counts.crossbar_mmv_ops += crossbar_ops;
            add_to(&mut self.phase_cost[phase.index()], dur);

            self.op_tasks.push(OpTask {
                op: op.id,
                label,
                xfer: xfer_id,
                compute: comp_id,
                comm_energy_pj: en,
                crossbar_ops,
            });

            first.get_or_insert(xfer_id);
            prev = Some(comp_id);
        }
        Ok(PhaseRun {
            first: first.expect("phases have at least one layer"),
            last: prev.expect("phases have at least one layer"),
        })
    }

    /// Mapping task: write a phase's operands into its bank.
    fn map_phase(&mut self, phase: Phase, dep: Option<TaskId>) -> TaskId {
        let bank = BankSlot::for_phase(phase);
        let cp = self.ctx.compiled.phase(phase);
        let wire_r = self.wire_res[bank.side][bank.bank];
        // ∇weight banks also stage one minibatch of cached
        // activations alongside the reshaped operands.
        let mut values =
            (cp.stored_values() as f64 * self.ctx.cost.update_write_cell_fraction).ceil() as u128;
        if phase.is_weight_grad() {
            values += cp.moved_values_per_sample() * self.batch as u128;
        }
        let dur = self.write_time_ns(values, cp.tiles());
        // Cell-switching energy lands via the tile breakdown.
        self.counts.weight_writes += values;
        let mut t = TaskSpec::new(PHASE_LABELS[phase.index()].map, dur).on(wire_r);
        if let Some(d) = dep {
            t = t.after(d);
        }
        self.engine.add_task(t)
    }

    /// Cross transfer on the bus/bypass resource.
    fn cross_task(
        &mut self,
        label: &'static str,
        leg: Leg,
        values: u64,
        dep: TaskId,
    ) -> Result<TaskId, RouteError> {
        let (lat, en) = self.transfer(leg, values)?;
        add_to(&mut self.communication_pj, en);
        Ok(self
            .engine
            .add_task(TaskSpec::new(label, lat).on(self.cross_res).after(dep)))
    }

    /// Weight update of one model (rewrite every stored copy, stream the
    /// gradients out through the CPU).
    fn update_task(&mut self, generator: bool, dep: TaskId) -> TaskId {
        let phases: [Phase; 3] = if generator {
            [Phase::GForward, Phase::GBackward, Phase::GWeightGrad]
        } else {
            [Phase::DForward, Phase::DBackward, Phase::DWeightGrad]
        };
        // Every stored copy is rewritten with the new weights; gradients
        // are read out of the ∇weight bank.
        let stored: u128 = phases
            .iter()
            .map(|p| self.ctx.compiled.phase(*p).stored_values())
            .sum();
        let grads: u128 = self
            .ctx
            .compiled
            .phase(if generator {
                Phase::GWeightGrad
            } else {
                Phase::DWeightGrad
            })
            .layers
            .iter()
            .map(|l| l.workload.output_values)
            .sum();
        let flipped = (stored as f64 * self.ctx.cost.update_write_cell_fraction).ceil() as u128;
        self.counts.weight_writes += flipped;
        self.counts.sarray_read_values += grads;
        self.counts.sarray_write_values += grads;
        self.energy
            .add_label(&OTHER, grads as f64 * self.ctx.cost.cpu_pj_per_value);
        let tiles: usize = phases
            .iter()
            .map(|p| self.ctx.compiled.phase(*p).tiles())
            .sum();
        let dur = self.write_time_ns(flipped, tiles)
            + self.ctx.cost.cpu_fixed_ns
            + grads as f64 * self.ctx.cost.cpu_update_ns_per_value
            + self.ctx.reram.bank_read_latency_ns
            + self.ctx.reram.bank_write_latency_ns;
        let label = if generator {
            "update generator"
        } else {
            "update discriminator"
        };
        self.engine
            .add_task(TaskSpec::new(label, dur).on(self.cross_res).after(dep))
    }

    // ---- the Fig. 13 iteration ------------------------------------------

    /// Emits one iteration in Fig. 13's order, with real durations and the
    /// figure's overlaps. One `configure switches` task at the start
    /// charges the iteration's mode switches.
    ///
    /// Half (a) trains the discriminator. B2 and B3 (G-w, G←) stay in
    /// Smode as plain memory; B1 and B4–B6 compute in Cmode. D-w and D←
    /// are mapped while D→ runs: D← from the start of the half, D-w once
    /// the generated samples reach the discriminator.
    ///
    /// Half (b) trains the generator with every bank in Cmode. G→, D→ and
    /// D← run again while G-w, G← and D← are mapped, and D←'s input error
    /// crosses B6 → B3 to start G←.
    ///
    /// Each update runs after its model's ∇weight phase, with that model's
    /// banks back in Smode: gradients stream out to the CPU and the new
    /// weights are written back over the bus/bypass resource.
    fn build(mut self) -> Result<LoweredIteration, RouteError> {
        let mode_switch = self.engine.add_task(TaskSpec::new(
            "configure switches",
            self.ctx.cost.switch_config_ns,
        ));

        // ===== half 1: train the discriminator =====
        let gf = self.run_phase(Phase::GForward, Some(mode_switch))?;
        let g_out_values = self.batch
            * self
                .ctx
                .gan
                .generator
                .layers
                .last()
                .map(|l| l.output_count(self.ctx.gan.generator.dims))
                .unwrap_or(1) as u64;
        let to_d = self.cross_side_leg(0, 0);
        let xfer_gd = self.cross_task("samples G->D", to_d, g_out_values, gf.last)?;
        let df = self.run_phase(Phase::DForward, Some(xfer_gd))?;
        // Map D-w / D← while D→ runs (Fig. 13a).
        let map_dw = self.map_phase(Phase::DWeightGrad, Some(xfer_gd));
        let map_db = self.map_phase(Phase::DBackward, Some(mode_switch));
        // Error at the output layer (CPU-local, small).
        let err = self
            .engine
            .add_task(TaskSpec::new("loss gradient", self.ctx.cost.cpu_fixed_ns).after(df.last));
        // Activations hop from the forward bank down to D-w's bank.
        let act_values = self
            .ctx
            .compiled
            .phase(Phase::DWeightGrad)
            .moved_values_per_sample() as u64
            * self.batch;
        let (act_lat, act_en) = self.transfer(self.cross_bank_leg(1, 0, 1), act_values)?;
        add_to(&mut self.communication_pj, act_en);
        let act_move = self
            .engine
            .add_task(TaskSpec::new("activations D->D-w", act_lat).after(df.last));
        let db_barrier = self
            .engine
            .add_task(TaskSpec::new("D← ready", 0.0).after_all(&[err, map_db]));
        let db = self.run_phase(Phase::DBackward, Some(db_barrier))?;
        let dw_barrier = self
            .engine
            .add_task(TaskSpec::new("D-w ready", 0.0).after_all(&[map_dw, act_move, db.first]));
        let dw = self.run_phase(Phase::DWeightGrad, Some(dw_barrier))?;
        let update_d = self.update_task(false, dw.last);

        // ===== half 2: train the generator =====
        let gf2 = self.run_phase(Phase::GForward, Some(update_d))?;
        let map_gw = self.map_phase(Phase::GWeightGrad, Some(update_d));
        let map_gb = self.map_phase(Phase::GBackward, Some(update_d));
        let xfer_gd2 = self.cross_task("samples G->D (2)", to_d, g_out_values, gf2.last)?;
        let df2 = self.run_phase(Phase::DForward, Some(xfer_gd2))?;
        let map_db2 = self.map_phase(Phase::DBackward, Some(update_d));
        let err2 = self.engine.add_task(
            TaskSpec::new("loss gradient (2)", self.ctx.cost.cpu_fixed_ns).after(df2.last),
        );
        let err_barrier = self
            .engine
            .add_task(TaskSpec::new("D← ready", 0.0).after_all(&[err2, map_db2]));
        let db2 = self.run_phase(Phase::DBackward, Some(err_barrier))?;
        // Error crosses B6 -> B3.
        let back_leg = self.cross_side_leg(2, 2);
        let gen_in_err_values = self.batch
            * (self
                .ctx
                .gan
                .generator
                .layers
                .last()
                .map(|l| l.output_count(self.ctx.gan.generator.dims))
                .unwrap_or(1) as u64);
        let xfer_err = self.cross_task("error D->G", back_leg, gen_in_err_values, db2.last)?;
        let gb_barrier = self
            .engine
            .add_task(TaskSpec::new("G← ready", 0.0).after_all(&[xfer_err, map_gb]));
        let gb = self.run_phase(Phase::GBackward, Some(gb_barrier))?;
        let gw_barrier = self
            .engine
            .add_task(TaskSpec::new("G-w ready", 0.0).after_all(&[gb.first, map_gw]));
        let gw = self.run_phase(Phase::GWeightGrad, Some(gw_barrier))?;
        let _update_g = self.update_task(true, gw.last);

        if let Some(pj) = self.communication_pj {
            self.energy.add_label(&COMMUNICATION, pj);
        }
        let mut phase_cost = Breakdown::new();
        for (phase, ns) in Phase::ALL.into_iter().zip(self.phase_cost) {
            if let Some(ns) = ns {
                phase_cost.add_label(&Cow::Borrowed(phase.arrow()), ns);
            }
        }
        Ok(LoweredIteration {
            engine: self.engine,
            counts: self.counts,
            energy: self.energy,
            phase_cost,
            op_tasks: self.op_tasks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_labels_are_the_rendered_ones() {
        for phase in Phase::ALL {
            let labels = &PHASE_LABELS[phase.index()];
            assert_eq!(labels.compute, format!("compute {phase}"));
            assert_eq!(labels.map, format!("map {phase}"));
            assert_eq!(labels.xfer, format!("{phase} xfer"));
        }
        for (side, banks) in WIRES_3D.iter().enumerate() {
            for (bank, label) in banks.iter().enumerate() {
                assert_eq!(*label, format!("wires s{side}b{bank}"));
            }
            assert_eq!(WIRES_HTREE[side], format!("wires side{side}"));
        }
        for phase in Phase::ALL {
            for layer in 0..RENDERED_LAYERS + 8 {
                let label = op_label(phase, layer);
                assert_eq!(label, format!("{phase} L{layer}"));
                assert_eq!(matches!(label, Cow::Borrowed(_)), layer < RENDERED_LAYERS);
            }
        }
    }
}

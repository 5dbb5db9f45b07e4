//! The assembled LerGAN accelerator model.
//!
//! [`LerGan`] binds a compiled GAN (ZFDM mappings) to the 3D-connected PIM
//! (or, for the comparison configurations, to plain H-tree banks), lowers
//! one training iteration to a task graph on the discrete-event engine
//! ([`crate::schedule`]), and reports latency plus a full energy
//! breakdown.
//!
//! ## Structure of one iteration (Fig. 13)
//!
//! Each phase becomes a chain of per-layer *compute* tasks (on the phase's
//! crossbar group) interleaved with *transfer* tasks (on the wire resource
//! of the phase's bank). Mapping tasks write the backward phases' operands
//! while the forward runs — on *different* banks under the 3D connection
//! (free overlap), on the *same* wire resources under the H-tree baseline
//! (contention). Inter-model transfers ride the bypass links (3D) or the
//! shared bus (H-tree).

use crate::compiler::{
    self, CompiledGan, CompilerOptions, Connection, PhaseDegrees, ReshapeScheme,
};
use crate::fault::{DegradationReport, FaultError, SystemFaults};
use crate::mapping::{MappingError, TileAllocation};
use crate::replica::ReplicaDegree;
use crate::schedule::{self, ScheduleContext};
use lergan_gan::{GanSpec, Phase};
use lergan_noc::{DcuPair, Endpoint, NocConfig};
use lergan_reram::{EnergyCounts, EnergyModel, ReramConfig, TileEnergyBreakdown};
use lergan_sim::engine::Label;
use lergan_sim::Breakdown;
use std::collections::{BTreeSet, HashMap};
use std::error::Error;
use std::fmt;

/// Additional cost constants not covered by Table IV.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Time to reconfigure a bank's switches (ns).
    pub switch_config_ns: f64,
    /// CPU time per weight value during an update (ns) — vectorised SGD.
    pub cpu_update_ns_per_value: f64,
    /// Fixed CPU/controller overhead per update (ns).
    pub cpu_fixed_ns: f64,
    /// Crossbar rows writable in parallel per tile (power-limited).
    pub write_rows_parallel_per_tile: usize,
    /// CPU energy per weight value updated (pJ).
    pub cpu_pj_per_value: f64,
    /// Off-chip I/O energy per byte moved during updates (pJ).
    pub io_pj_per_byte: f64,
    /// Fraction of a weight's cells that actually switch when its value
    /// is *updated* in place (SGD deltas are small, so differential writes
    /// flip roughly one cell in four).
    pub update_write_cell_fraction: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            switch_config_ns: 50.0,
            cpu_update_ns_per_value: 0.05,
            cpu_fixed_ns: 1_000.0,
            write_rows_parallel_per_tile: 2048,
            cpu_pj_per_value: 2.0,
            io_pj_per_byte: 20.0,
            update_write_cell_fraction: 0.09,
        }
    }
}

/// Error returned when a GAN cannot be mapped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A single layer's mapping exceeds one (fault-free) bank's CArray
    /// capacity — the compiler cannot split one reshaped matrix across
    /// banks.
    LayerExceedsBank {
        /// The phase holding the layer.
        phase: Phase,
        /// Layer index within the model.
        layer: usize,
        /// Tiles the mapping needs.
        tiles: usize,
        /// Tiles one bank offers.
        bank_tiles: usize,
    },
    /// The fault scenario leaves too little capacity (dead bank, or a
    /// layer that no longer fits the surviving tiles).
    Fault(FaultError),
    /// Tile allocation failed.
    Mapping(MappingError),
    /// The interconnect's tile count is one the lowering cannot address:
    /// its transfers name tile leaves by [`Endpoint::pair_tile`], which
    /// knows only [`Endpoint::TILES_PER_BANK`] leaves per bank.
    TilesPerBank {
        /// The configured [`NocConfig::tiles_per_bank`].
        tiles_per_bank: usize,
    },
    /// A [`ReramConfig`] latency is negative, NaN or infinite. The replica
    /// search and the cost model take only finite latencies `≥ 0`.
    Latency {
        /// The `ReramConfig` field.
        field: &'static str,
        /// The rejected value's bits ([`f64::to_bits`]), which keep the
        /// error comparable.
        bits: u64,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot build LerGAN mapping: ")?;
        match self {
            BuildError::LayerExceedsBank {
                phase,
                layer,
                tiles,
                bank_tiles,
            } => write!(
                f,
                "{phase} layer {layer} needs {tiles} tiles, more than one bank ({bank_tiles})"
            ),
            BuildError::Fault(e) => write!(f, "{e}"),
            BuildError::Mapping(e) => write!(f, "{e}"),
            BuildError::TilesPerBank { tiles_per_bank } => write!(
                f,
                "the interconnect addresses {} tiles per bank, not {tiles_per_bank}",
                Endpoint::TILES_PER_BANK
            ),
            BuildError::Latency { field, bits } => write!(
                f,
                "the ReRAM {field} is {}, not a finite latency >= 0",
                f64::from_bits(*bits)
            ),
        }
    }
}

impl Error for BuildError {}

impl From<FaultError> for BuildError {
    fn from(e: FaultError) -> Self {
        BuildError::Fault(e)
    }
}

impl From<MappingError> for BuildError {
    fn from(e: MappingError) -> Self {
        BuildError::Mapping(e)
    }
}

/// Builder for [`LerGan`].
#[derive(Debug, Clone)]
pub struct LerGanBuilder {
    gan: GanSpec,
    degree: ReplicaDegree,
    phase_degrees: PhaseDegrees,
    scheme: ReshapeScheme,
    connection: Connection,
    reram: ReramConfig,
    noc: NocConfig,
    cost: CostModel,
    energy: EnergyModel,
    faults: SystemFaults,
}

impl LerGanBuilder {
    /// Sets the default duplication degree (default `Low`).
    pub fn replica_degree(mut self, degree: ReplicaDegree) -> Self {
        self.degree = degree;
        self
    }

    /// Overrides the duplication degree for one phase — the paper's
    /// heterogeneous acceleration levels (Sec. V).
    pub fn phase_degree(mut self, phase: Phase, degree: ReplicaDegree) -> Self {
        self.phase_degrees = self.phase_degrees.with(phase, degree);
        self
    }

    /// Sets the reshape scheme (default ZFDR).
    pub fn reshape_scheme(mut self, scheme: ReshapeScheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Sets the interconnect family (default 3D).
    pub fn connection(mut self, connection: Connection) -> Self {
        self.connection = connection;
        self
    }

    /// Overrides the ReRAM configuration.
    pub fn reram_config(mut self, config: ReramConfig) -> Self {
        self.reram = config;
        self
    }

    /// Overrides the interconnect configuration.
    pub fn noc_config(mut self, config: NocConfig) -> Self {
        self.noc = config;
        self
    }

    /// Overrides the auxiliary cost model.
    pub fn cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Overrides the tile energy model.
    pub fn energy_model(mut self, energy: EnergyModel) -> Self {
        self.energy = energy;
        self
    }

    /// Injects a fault scenario (default: none). The build degrades
    /// gracefully — dead tiles shrink the capacity replicas are sized
    /// against and the allocator maps around them; broken wires re-route
    /// over the H-tree — or returns a typed error when the surviving
    /// capacity is genuinely insufficient.
    pub fn faults(mut self, faults: SystemFaults) -> Self {
        self.faults = faults;
        self
    }

    /// Compiles and assembles the accelerator.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if any single layer's mapping exceeds one
    /// bank's CArray capacity (the compiler cannot split a single reshaped
    /// matrix across banks), [`BuildError::Fault`] when the fault
    /// scenario leaves too few tiles or (through severed tree links) a
    /// transfer with no route, [`BuildError::TilesPerBank`] for an
    /// interconnect tile count other than [`Endpoint::TILES_PER_BANK`], or
    /// [`BuildError::Latency`] for a ReRAM latency that is negative or not
    /// finite.
    pub fn build(self) -> Result<LerGan, BuildError> {
        if self.noc.tiles_per_bank != Endpoint::TILES_PER_BANK {
            return Err(BuildError::TilesPerBank {
                tiles_per_bank: self.noc.tiles_per_bank,
            });
        }
        let r = &self.reram;
        let latencies = [
            ("tile_read_latency_ns", r.tile_read_latency_ns),
            ("tile_write_latency_ns", r.tile_write_latency_ns),
            ("htree_latency_ns", r.htree_latency_ns),
            ("bank_read_latency_ns", r.bank_read_latency_ns),
            ("bank_write_latency_ns", r.bank_write_latency_ns),
        ];
        if let Some((field, v)) = latencies
            .into_iter()
            .find(|(_, v)| !(v.is_finite() && *v >= 0.0))
        {
            return Err(BuildError::Latency {
                field,
                bits: v.to_bits(),
            });
        }
        let options = CompilerOptions {
            scheme: self.scheme,
            degree: self.degree,
            connection: self.connection,
            phase_degrees: self.phase_degrees,
        };
        let bank_tiles = self.reram.tiles_per_bank;
        // Surviving capacity per phase bank (B1–B6 are phase-owned).
        let mut healthy: HashMap<Phase, usize> = HashMap::new();
        for phase in Phase::ALL {
            let dead = self.faults.dead_tiles_in(phase);
            if dead >= bank_tiles {
                return Err(FaultError::BankDead { phase }.into());
            }
            healthy.insert(phase, bank_tiles - dead);
        }
        // Replicas are sized against what actually survives.
        let compiled =
            compiler::compile_with_bank_tiles(&self.gan, options, &self.reram, &|p| healthy[&p]);
        for phase in &compiled.phases {
            let alive = healthy[&phase.phase];
            for layer in &phase.layers {
                if layer.tiles > alive {
                    // Distinguish a genuinely oversized layer from one a
                    // fault scenario starved of spare tiles.
                    return Err(if layer.tiles > bank_tiles {
                        BuildError::LayerExceedsBank {
                            phase: phase.phase,
                            layer: layer.workload.layer_index,
                            tiles: layer.tiles,
                            bank_tiles,
                        }
                    } else {
                        FaultError::InsufficientTiles {
                            phase: phase.phase,
                            layer: layer.workload.layer_index,
                            needed: layer.tiles,
                            healthy: alive,
                        }
                        .into()
                    });
                }
            }
        }
        // Fault-aware tile allocation, fixed at build time: layers map
        // around the dead tiles of their phase's bank.
        let mut allocs: HashMap<Phase, TileAllocation> = HashMap::new();
        for phase in Phase::ALL {
            let dead: BTreeSet<usize> = self
                .faults
                .bank(phase)
                .map(|m| m.dead_tiles().collect())
                .unwrap_or_default();
            let alloc = TileAllocation::for_phase_avoiding(
                compiled.phase(phase),
                self.noc.tiles_per_bank,
                &dead,
            )?;
            allocs.insert(phase, alloc);
        }
        let pair = DcuPair::with_faults(&self.noc, self.faults.links());
        let accel = LerGan {
            gan: self.gan,
            compiled,
            pair,
            reram: self.reram,
            noc: self.noc,
            cost: self.cost,
            energy: self.energy,
            faults: self.faults,
            allocs,
        };
        // Only severed tree links can partition the fabric; lowering one
        // iteration routes every transfer the simulation will ask for.
        if accel.faults.links().severed_tree_links() > 0 {
            schedule::try_lower_iteration(&accel.schedule_context())
                .map_err(FaultError::Unroutable)?;
        }
        Ok(accel)
    }
}

/// The assembled accelerator.
#[derive(Debug)]
pub struct LerGan {
    gan: GanSpec,
    compiled: CompiledGan,
    pair: DcuPair,
    reram: ReramConfig,
    noc: NocConfig,
    cost: CostModel,
    energy: EnergyModel,
    faults: SystemFaults,
    allocs: HashMap<Phase, TileAllocation>,
}

/// Latency/energy report of a training run.
#[derive(Debug, Clone)]
pub struct TrainingReport {
    /// Iterations simulated.
    pub iterations: usize,
    /// Latency of one iteration (ns).
    pub iteration_latency_ns: f64,
    /// Latency of the whole run (ns).
    pub total_latency_ns: f64,
    /// Energy of the whole run (pJ).
    pub total_energy_pj: f64,
    /// Fig. 23 buckets: `compute`, `communication`, `other`.
    pub energy_breakdown: Breakdown,
    /// Fig. 24 per-tile component breakdown.
    pub tile_breakdown: TileEnergyBreakdown,
    /// Raw operation counts.
    pub counts: EnergyCounts,
    /// Busy time attributed to each phase (ns, per iteration).
    pub phase_latency: Breakdown,
    /// Busy time of each simulated resource (compute groups, bank wires,
    /// bus/bypass) per iteration (ns).
    pub resource_busy: Breakdown,
    /// Busy time of each op (ns, per iteration), keyed by the schedule's
    /// per-op labels (`"G→ L0"`, …). A phase that runs twice per
    /// iteration contributes both runs to its ops' buckets.
    pub op_latency: Breakdown,
    /// Energy attributed to each op (pJ, per iteration): its transfers'
    /// interconnect energy plus a crossbar-op-weighted share of the tile
    /// compute energy. Same keys as [`op_latency`](Self::op_latency).
    pub op_energy: Breakdown,
}

impl LerGan {
    /// Starts a builder for a GAN with default (paper) configurations.
    pub fn builder(gan: &GanSpec) -> LerGanBuilder {
        LerGanBuilder {
            gan: gan.clone(),
            degree: ReplicaDegree::Low,
            phase_degrees: PhaseDegrees::none(),
            scheme: ReshapeScheme::Zfdr,
            connection: Connection::ThreeD,
            reram: ReramConfig::default(),
            noc: NocConfig::default(),
            cost: CostModel::default(),
            energy: EnergyModel::default(),
            faults: SystemFaults::none(),
        }
    }

    /// The compiled mapping.
    pub fn compiled(&self) -> &CompiledGan {
        &self.compiled
    }

    /// The GAN being trained.
    pub fn gan(&self) -> &GanSpec {
        &self.gan
    }

    /// The fault scenario this accelerator was built under.
    pub fn faults(&self) -> &SystemFaults {
        &self.faults
    }

    /// The (fault-aware) tile allocation of a phase.
    pub fn allocation(&self, phase: Phase) -> &TileAllocation {
        &self.allocs[&phase]
    }

    /// Quantifies what the fault scenario costs: rebuilds the same model
    /// fault-free, simulates one iteration of each, and compares. `None`
    /// when no faults were injected. Deterministic — both simulations are.
    pub fn degradation_report(&self) -> Option<DegradationReport> {
        if self.faults.is_empty() {
            return None;
        }
        let clean = LerGanBuilder {
            gan: self.gan.clone(),
            degree: self.compiled.options.degree,
            phase_degrees: self.compiled.options.phase_degrees,
            scheme: self.compiled.options.scheme,
            connection: self.compiled.options.connection,
            reram: self.reram.clone(),
            noc: self.noc.clone(),
            cost: self.cost.clone(),
            energy: self.energy,
            faults: SystemFaults::none(),
        }
        .build()
        .expect("the faulty build succeeded, so the fault-free twin must");
        let base = clean.train_iterations(1);
        let mine = self.train_iterations(1);
        Some(DegradationReport {
            fault_free_latency_ns: base.iteration_latency_ns,
            degraded_latency_ns: mine.iteration_latency_ns,
            fault_free_energy_pj: base.total_energy_pj,
            degraded_energy_pj: mine.total_energy_pj,
            fault_free_stored_values: clean.compiled.total_stored_values(),
            degraded_stored_values: self.compiled.total_stored_values(),
            dead_tiles: self.faults.dead_tiles(),
            broken_wires: self.faults.links().broken_wires(),
            stuck_switches: self.faults.links().stuck_switches(),
            stuck_cells: self.faults.stuck_cells(),
        })
    }

    /// Simulates `n` training iterations (the paper uses ten and averages).
    pub fn train_iterations(&self, n: usize) -> TrainingReport {
        let mut report = self.simulate_iteration();
        report.iterations = n.max(1);
        report.total_latency_ns = report.iteration_latency_ns * report.iterations as f64;
        let scale = report.iterations as f64;
        report.total_energy_pj *= scale;
        report.energy_breakdown = report.energy_breakdown.scaled(scale);
        report
    }

    // ---- internal simulation ----

    fn schedule_context(&self) -> ScheduleContext<'_> {
        ScheduleContext {
            gan: &self.gan,
            compiled: &self.compiled,
            allocs: &self.allocs,
            pair: &self.pair,
            reram: &self.reram,
            noc: &self.noc,
            cost: &self.cost,
        }
    }

    fn simulate_iteration(&self) -> TrainingReport {
        let lowered = schedule::lower_iteration(&self.schedule_context());
        // The lowering emits dependencies strictly from earlier to later
        // tasks, so the DAG is acyclic by construction.
        let schedule = lowered
            .engine
            .run()
            .expect("iteration DAG is acyclic by construction");
        let iteration_latency_ns = schedule.makespan_ns();
        let mut resource_busy = Breakdown::new();
        for (label, (_, busy)) in schedule.resource_labels().iter().zip(schedule.resources()) {
            resource_busy.add_label(label, busy);
        }

        let mut energy = lowered.energy;
        let counts = lowered.counts;

        // ---- energy roll-up -------------------------------------------
        let tile_breakdown = self.energy.breakdown(&counts);
        energy.add_label(&schedule::COMPUTE, tile_breakdown.total_pj());
        // CPU + off-chip I/O for the two updates.
        let weight_values = self.compiled.weight_values();
        let io_bytes = weight_values as f64 * 2.0;
        energy.add_label(
            &schedule::OTHER,
            weight_values as f64 * self.cost.cpu_pj_per_value + io_bytes * self.cost.io_pj_per_byte,
        );
        let total = energy.total();

        // ---- per-op attribution ---------------------------------------
        // Separate accumulators: the totals above are computed exactly as
        // before the op-graph refactor and stay bit-identical. Each op's
        // runs sum in emission order under its id — an op's label names
        // it alone — and land in the breakdowns once per op.
        let total_crossbar_ops: u128 = lowered.op_tasks.iter().map(|t| t.crossbar_ops).sum();
        let compute_pj = tile_breakdown.total_pj();
        // (label, busy ns, energy pJ) of each op that ran, by op id.
        let mut per_op: Vec<Option<(&Label, f64, f64)>> = vec![None; self.compiled.graph.len()];
        for t in &lowered.op_tasks {
            let busy = (schedule.finish_ns(t.xfer) - schedule.start_ns(t.xfer))
                + (schedule.finish_ns(t.compute) - schedule.start_ns(t.compute));
            let share = if total_crossbar_ops == 0 {
                0.0
            } else {
                t.crossbar_ops as f64 / total_crossbar_ops as f64
            };
            let pj = t.comm_energy_pj + compute_pj * share;
            let (_, sum_busy, sum_pj) = per_op[t.op.0].get_or_insert((&t.label, 0.0, 0.0));
            *sum_busy += busy;
            *sum_pj += pj;
        }
        let mut op_latency = Breakdown::new();
        let mut op_energy = Breakdown::new();
        for (label, busy, pj) in per_op.into_iter().flatten() {
            op_latency.add_label(label, busy);
            op_energy.add_label(label, pj);
        }

        TrainingReport {
            iterations: 1,
            iteration_latency_ns,
            total_latency_ns: iteration_latency_ns,
            total_energy_pj: total,
            energy_breakdown: energy,
            tile_breakdown,
            counts,
            phase_latency: lowered.phase_cost,
            resource_busy,
            op_latency,
            op_energy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lergan_gan::benchmarks;

    fn report(
        gan: &GanSpec,
        scheme: ReshapeScheme,
        connection: Connection,
        degree: ReplicaDegree,
    ) -> TrainingReport {
        LerGan::builder(gan)
            .reshape_scheme(scheme)
            .connection(connection)
            .replica_degree(degree)
            .build()
            .expect("mapping fits")
            .train_iterations(1)
    }

    #[test]
    fn the_lowering_sizes_its_task_arrays_for_what_it_emits() {
        for gan in benchmarks::all() {
            let lergan = LerGan::builder(&gan).build().expect("mapping fits");
            let lowered = schedule::lower_iteration(&lergan.schedule_context());
            let ops: usize = schedule::ITERATION_RUNS
                .iter()
                .map(|&p| lergan.compiled.phase(p).layers.len())
                .sum();
            assert_eq!(lowered.op_tasks.len(), ops, "{}", gan.name);
            let engine = &lowered.engine;
            let skips = engine
                .task_ids()
                .filter(|&t| engine.label(t).contains(" skip "))
                .count();
            let tasks = engine.task_ids().count();
            assert_eq!(tasks, 2 * ops + 19 + skips, "{}", gan.name);
        }
    }

    #[test]
    fn dcgan_trains_and_reports() {
        let r = report(
            &benchmarks::dcgan(),
            ReshapeScheme::Zfdr,
            Connection::ThreeD,
            ReplicaDegree::Low,
        );
        assert!(r.iteration_latency_ns > 0.0);
        assert!(r.total_energy_pj > 0.0);
        assert!(r.counts.crossbar_mmv_ops > 0);
        assert!(r.energy_breakdown.get("compute") > 0.0);
        assert!(r.energy_breakdown.get("communication") > 0.0);
        // Resource occupancy is reported for every fabric component.
        assert!(!r.resource_busy.is_empty());
        assert!(r.resource_busy.total() > 0.0);
        let busiest: f64 = r.resource_busy.iter().map(|(_, v)| v).fold(0.0, f64::max);
        assert!(busiest <= r.iteration_latency_ns * 2.0 + 1.0);
    }

    #[test]
    fn zfdr_3d_beats_nr_3d() {
        // Fig. 18: ZFDR with 3D connection vs normal reshape with 3D.
        let gan = benchmarks::dcgan();
        let z = report(
            &gan,
            ReshapeScheme::Zfdr,
            Connection::ThreeD,
            ReplicaDegree::Low,
        );
        let n = report(
            &gan,
            ReshapeScheme::Normal,
            Connection::ThreeD,
            ReplicaDegree::Low,
        );
        assert!(
            n.iteration_latency_ns > 1.5 * z.iteration_latency_ns,
            "NR {} vs ZFDR {}",
            n.iteration_latency_ns,
            z.iteration_latency_ns
        );
    }

    #[test]
    fn threed_beats_htree_with_zfdr() {
        // Fig. 17: the ZFDR speedup "almost disappears" on the H-tree.
        let gan = benchmarks::dcgan();
        let d3 = report(
            &gan,
            ReshapeScheme::Zfdr,
            Connection::ThreeD,
            ReplicaDegree::Low,
        );
        let d2 = report(
            &gan,
            ReshapeScheme::Zfdr,
            Connection::HTree,
            ReplicaDegree::Low,
        );
        assert!(
            d2.iteration_latency_ns > d3.iteration_latency_ns,
            "H-tree {} should be slower than 3D {}",
            d2.iteration_latency_ns,
            d3.iteration_latency_ns
        );
    }

    #[test]
    fn more_duplication_trades_energy_for_speed() {
        // Fig. 19/20: higher degrees gain (modest) speed and spend energy;
        // at the top end the extra mapping writes can eat the compute win,
        // so assert near-monotone latency and strictly growing writes.
        let gan = benchmarks::dcgan();
        let low = report(
            &gan,
            ReshapeScheme::Zfdr,
            Connection::ThreeD,
            ReplicaDegree::Low,
        );
        let mid = report(
            &gan,
            ReshapeScheme::Zfdr,
            Connection::ThreeD,
            ReplicaDegree::Middle,
        );
        let high = report(
            &gan,
            ReshapeScheme::Zfdr,
            Connection::ThreeD,
            ReplicaDegree::High,
        );
        assert!(mid.iteration_latency_ns <= low.iteration_latency_ns * 1.02);
        assert!(high.iteration_latency_ns <= low.iteration_latency_ns * 1.05);
        assert!(high.counts.weight_writes > low.counts.weight_writes);
        assert!(high.total_energy_pj > low.total_energy_pj);
    }

    #[test]
    fn ten_iterations_scale_linearly() {
        let gan = benchmarks::cgan();
        let one = report(
            &gan,
            ReshapeScheme::Zfdr,
            Connection::ThreeD,
            ReplicaDegree::Low,
        );
        let accel = LerGan::builder(&gan).build().unwrap();
        let ten = accel.train_iterations(10);
        assert!((ten.total_latency_ns / one.iteration_latency_ns - 10.0).abs() < 1e-6);
        assert!((ten.total_energy_pj / one.total_energy_pj - 10.0).abs() < 1e-6);
    }

    #[test]
    fn all_benchmarks_build_and_train() {
        for gan in benchmarks::all() {
            let r = report(
                &gan,
                ReshapeScheme::Zfdr,
                Connection::ThreeD,
                ReplicaDegree::Low,
            );
            assert!(
                r.iteration_latency_ns.is_finite() && r.iteration_latency_ns > 0.0,
                "{}",
                gan.name
            );
        }
    }

    #[test]
    fn empty_fault_scenario_is_bit_identical() {
        let gan = benchmarks::dcgan();
        let clean = LerGan::builder(&gan).build().unwrap();
        let faulted = LerGan::builder(&gan)
            .faults(SystemFaults::none())
            .build()
            .unwrap();
        assert_eq!(clean.compiled().phases, faulted.compiled().phases);
        for phase in Phase::ALL {
            assert_eq!(clean.allocation(phase), faulted.allocation(phase));
        }
        let a = clean.train_iterations(1);
        let b = faulted.train_iterations(1);
        assert_eq!(
            a.iteration_latency_ns.to_bits(),
            b.iteration_latency_ns.to_bits()
        );
        assert_eq!(a.total_energy_pj.to_bits(), b.total_energy_pj.to_bits());
        assert!(faulted.degradation_report().is_none());
    }

    #[test]
    fn dead_tile_remaps_and_reports_degradation() {
        let gan = benchmarks::dcgan();
        let mut faults = SystemFaults::none();
        faults.bank_mut(Phase::GForward).kill_tile(0).kill_tile(3);
        let accel = LerGan::builder(&gan).faults(faults).build().unwrap();
        // The allocation avoids the dead tiles.
        let alloc = accel.allocation(Phase::GForward);
        assert_eq!(alloc.healthy_tiles(), 14);
        for layer in 0..alloc.len() {
            let t = alloc.tile_for(layer, 0).unwrap();
            assert!(t != 0 && t != 3);
        }
        let report = accel.degradation_report().expect("faults were injected");
        assert_eq!(report.dead_tiles, 2);
        assert!(report.slowdown() >= 1.0 - 1e-12);
        assert!(report.degraded_latency_ns.is_finite());
    }

    #[test]
    fn broken_wires_slow_the_iteration() {
        let gan = benchmarks::dcgan();
        let clean = LerGan::builder(&gan).build().unwrap().train_iterations(1);
        let mut faults = SystemFaults::none();
        // Sever every horizontal and vertical wire on both sides: all the
        // Cmode shortcuts disappear, so transfers pay tree/bus detours.
        for side in 0..2 {
            for bank in 0..3 {
                for node in 2..16 {
                    faults.links_mut().break_horizontal(side, bank, node);
                }
            }
            for bank in 0..2 {
                for node in 1..16 {
                    faults.links_mut().break_vertical(side, bank, node);
                }
            }
        }
        let accel = LerGan::builder(&gan).faults(faults).build().unwrap();
        let degraded = accel.train_iterations(1);
        assert!(
            degraded.iteration_latency_ns > clean.iteration_latency_ns,
            "wire loss must cost latency: {} vs {}",
            degraded.iteration_latency_ns,
            clean.iteration_latency_ns
        );
        let report = accel.degradation_report().unwrap();
        assert!(report.slowdown() > 1.0);
        assert!(report.broken_wires > 0);
    }

    #[test]
    fn dead_bank_is_a_typed_error() {
        let gan = benchmarks::dcgan();
        let mut faults = SystemFaults::none();
        for tile in 0..16 {
            faults.bank_mut(Phase::DForward).kill_tile(tile);
        }
        let err = LerGan::builder(&gan).faults(faults).build().unwrap_err();
        assert_eq!(
            err,
            BuildError::Fault(crate::fault::FaultError::BankDead {
                phase: Phase::DForward
            })
        );
    }

    #[test]
    fn severed_tree_link_on_a_transfer_path_is_a_typed_error() {
        // Leaf 16 (tile 0 of G→'s bank) is the first layer's entry tile:
        // severing its parent link partitions it from its neighbour.
        let gan = benchmarks::dcgan();
        let mut faults = SystemFaults::none();
        faults.links_mut().sever_tree(0, 0, 16);
        let err = LerGan::builder(&gan).faults(faults).build().unwrap_err();
        let BuildError::Fault(FaultError::Unroutable(route)) = &err else {
            panic!("expected an unroutable-transfer error, got {err:?}");
        };
        assert_eq!(
            *route,
            lergan_noc::RouteError::Unreachable {
                from: lergan_noc::Endpoint::pair_tile(0, 0, 0),
                to: lergan_noc::Endpoint::pair_tile(0, 0, 1),
                mode: lergan_noc::Mode::Cmode,
            }
        );
        let text = err.to_string();
        assert!(text.contains("unroutable"), "{text}");
        assert!(text.contains("(s0,b0,n16) to (s0,b0,n17)"), "{text}");
        assert!(Error::source(&FaultError::Unroutable(*route)).is_some());
    }

    #[test]
    fn severed_tree_link_off_every_path_builds_and_simulates() {
        // Leaf 31 (tile 15 of G→'s bank) carries no transfer, so severing
        // it changes no route and no simulated bit.
        let gan = benchmarks::dcgan();
        let clean = LerGan::builder(&gan).build().unwrap().train_iterations(1);
        let mut faults = SystemFaults::none();
        faults.links_mut().sever_tree(0, 0, 31);
        let accel = LerGan::builder(&gan).faults(faults).build().unwrap();
        let r = accel.train_iterations(1);
        assert_eq!(
            r.iteration_latency_ns.to_bits(),
            clean.iteration_latency_ns.to_bits()
        );
        assert_eq!(r.total_energy_pj.to_bits(), clean.total_energy_pj.to_bits());
        assert_eq!(r.op_latency, clean.op_latency);
        let report = accel.degradation_report().expect("faults were injected");
        assert_eq!(report.slowdown(), 1.0);
    }

    #[test]
    fn degradation_report_is_deterministic() {
        let gan = benchmarks::cgan();
        let scenario = || {
            let mut f = SystemFaults::none();
            f.bank_mut(Phase::GForward).kill_tile(5);
            f.links_mut().break_horizontal(0, 0, 4);
            f
        };
        let a = LerGan::builder(&gan)
            .faults(scenario())
            .build()
            .unwrap()
            .degradation_report()
            .unwrap();
        let b = LerGan::builder(&gan)
            .faults(scenario())
            .build()
            .unwrap()
            .degradation_report()
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn magan_gets_little_from_zfdr() {
        // "MAGAN-MNIST shows nearly no speedup since its discriminator is
        // fully-connected and its generator is small."
        let gan = benchmarks::magan_mnist();
        let z = report(
            &gan,
            ReshapeScheme::Zfdr,
            Connection::ThreeD,
            ReplicaDegree::Low,
        );
        let n = report(
            &gan,
            ReshapeScheme::Normal,
            Connection::HTree,
            ReplicaDegree::Low,
        );
        let speedup = n.iteration_latency_ns / z.iteration_latency_ns;
        let dcgan = benchmarks::dcgan();
        let zd = report(
            &dcgan,
            ReshapeScheme::Zfdr,
            Connection::ThreeD,
            ReplicaDegree::Low,
        );
        let nd = report(
            &dcgan,
            ReshapeScheme::Normal,
            Connection::HTree,
            ReplicaDegree::Low,
        );
        let dcgan_speedup = nd.iteration_latency_ns / zd.iteration_latency_ns;
        assert!(
            speedup < dcgan_speedup,
            "MAGAN speedup {speedup:.2} should trail DCGAN's {dcgan_speedup:.2}"
        );
    }
}

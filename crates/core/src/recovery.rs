//! The self-healing training runtime: online ABFT detection, mid-run
//! remap, and checkpoint-rollback recovery.
//!
//! Everything the fault stack could do before this module was *static*:
//! a [`SystemFaults`] scenario was fixed before the build, and
//! [`crate::LerGan::degradation_report`] quantified its cost. Real
//! hardware does not hold still — training *writes* weights every step,
//! write endurance is finite, and a cell that verified at step *k* can be
//! stuck at step *k + 1*, silently corrupting MMV outputs until something
//! notices. [`SelfHealingRuntime`] closes that loop online:
//!
//! 1. **Detect** — the runtime keeps a monitored weight block with an
//!    ABFT checksum column ([`lergan_reram::AbftBlock`]) on the `G→`
//!    bank. Every step the training update pulses the block's cells
//!    ([`lergan_reram::FaultMap::advance_wear`] against a seeded
//!    [`WearModel`]), and the following checked MMV yields a residual.
//!    A residual above [`RecoveryPolicy::residual_threshold`] raises a
//!    [`FaultEvent`].
//! 2. **Quarantine + retry** — the suspect cells pinned by the diagnostic
//!    read-back are already frozen in the live [`lergan_reram::FaultMap`]; the
//!    controller relocates the block to the next spare region and
//!    replays, up to [`RecoveryPolicy::max_retries`] attempts with
//!    exponential backoff, charging every reprogram's latency and energy.
//!    A clean replay resolves the event as [`RecoveryAction::Corrected`].
//! 3. **Remap** — a *burst* of quarantined cells
//!    (≥ [`RecoveryPolicy::tile_kill_cells`]) condemns the hosting tile:
//!    the runtime kills it in the live fault map and rebuilds the
//!    accelerator, which re-runs `TileAllocation::for_phase_avoiding`
//!    for the affected bank (the other banks' dead sets are unchanged,
//!    so their allocations come out identical). The iteration latency is
//!    re-simulated on the degraded mapping —
//!    [`RecoveryAction::Remapped`].
//! 4. **Roll back** — when the retry budget exhausts without a clean
//!    replay, or the remap is impossible (a typed [`BuildError`]), the
//!    trainer restores the last periodic checkpoint
//!    ([`lergan_gan::train::AutoCheckpoint`]) and replays the buffered
//!    batches — [`RecoveryAction::RolledBack`]. Because the functional
//!    trainer is pure `f32` math and the replayed batches are the same,
//!    the resumed trajectory is **bit-exact** against a never-faulted
//!    run; hardware faults cost throughput, never correctness.
//!
//! Every decision is deterministic (seeded wear limits, seeded freeze
//! polarities, explicit fault state), so a recovery run replays
//! bit-identically — including the [`RecoveryReport`]'s latency and
//! energy accounting.

use crate::fault::SystemFaults;
use crate::lergan::{BuildError, LerGan, LerGanBuilder};
use crate::link::{LinkError, ReliableFabric};
use lergan_gan::train::{AutoCheckpoint, CheckpointError, Gan, StepStats, TrainError};
use lergan_gan::{GanSpec, Phase};
use lergan_noc::{Endpoint, Mode, NocConfig, TransientFaults};
use lergan_reram::{AbftBlock, ReramConfig, WearLimits, WearModel, WritePolicy};
use lergan_sim::{FaultEvent, FaultEventKind, RecoveryAction};
use lergan_tensor::Tensor;
use std::error::Error;
use std::fmt;

/// Knobs of the online detection-and-recovery loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Steps between periodic trainer checkpoints (rollback granularity).
    pub checkpoint_interval: u64,
    /// Relocate-and-replay attempts before a fault is uncorrectable.
    pub max_retries: u32,
    /// First retry's backoff (ns); attempt `a` waits
    /// `min(base · 2^(a-1), cap)` — see [`RecoveryPolicy::backoff_ns`].
    pub backoff_base_ns: f64,
    /// Ceiling of the exponential backoff (ns). Without a cap a long retry
    /// ladder (the serving layer re-admits jobs with the same semantics)
    /// would wait geometrically forever; with one, late attempts degrade
    /// to constant-interval retries.
    pub backoff_cap_ns: f64,
    /// ABFT residual magnitude above which an MMV is flagged.
    pub residual_threshold: f64,
    /// Stuck cells accumulated across the hosting tile's monitored cell
    /// space that condemn the tile: past this density the tile is a lost
    /// cause and relocation within it just burns spare regions.
    pub tile_kill_cells: usize,
    /// Write pulses each training step charges against the monitored
    /// block's cells (differential updates rewrite the block once).
    pub pulses_per_step: u64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            checkpoint_interval: 4,
            max_retries: 3,
            backoff_base_ns: 200.0,
            backoff_cap_ns: 1_600.0,
            residual_threshold: 0.5,
            tile_kill_cells: 512,
            pulses_per_step: 1,
        }
    }
}

impl RecoveryPolicy {
    /// Backoff before retry `attempt` (1-based): capped exponential,
    /// `min(base · 2^(attempt-1), cap)`. Pure, seedless arithmetic, so the
    /// delay ladder is bit-deterministic regardless of thread count; the
    /// exponent saturates at 2^62 so huge attempt numbers cannot overflow
    /// before the cap applies.
    pub fn backoff_ns(&self, attempt: u32) -> f64 {
        let exp = attempt.saturating_sub(1).min(62);
        let factor = (1u64 << exp) as f64; // powers of two are exact in f64
        (self.backoff_base_ns * factor).min(self.backoff_cap_ns)
    }
}

/// Typed error of the recovery loop itself.
#[derive(Debug)]
pub enum RecoveryError {
    /// The initial accelerator build failed (pre-existing faults exceed
    /// capacity).
    Build(BuildError),
    /// No spare region of the monitored bank verifies clean: the bank's
    /// cell population is too damaged to host the block anywhere.
    NoCleanRegion {
        /// Candidate regions examined before giving up.
        scanned: usize,
    },
    /// Restoring the rollback checkpoint failed.
    Checkpoint(CheckpointError),
    /// The link layer exhausted its retransmit and reroute budgets (or
    /// hard faults partitioned the monitored transfer's endpoints).
    Link(LinkError),
    /// The trainer rejected a batch (a sample shape the discriminator does
    /// not take, or samples of different shapes). The step did not run and
    /// the batch was not buffered for replay.
    Train(TrainError),
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Build(e) => write!(f, "recovery build failed: {e}"),
            RecoveryError::NoCleanRegion { scanned } => {
                write!(f, "no clean spare region among {scanned} candidates")
            }
            RecoveryError::Checkpoint(e) => write!(f, "rollback restore failed: {e}"),
            RecoveryError::Link(e) => write!(f, "link recovery failed: {e}"),
            RecoveryError::Train(e) => write!(f, "training step rejected: {e}"),
        }
    }
}

impl Error for RecoveryError {}

/// A runtime that could not start, with the fault state it was handed,
/// unchanged: a caller that moved its live hardware state in gets it back.
#[derive(Debug)]
pub struct StartFailure {
    /// Why the runtime could not start.
    pub error: RecoveryError,
    /// The starting fault state, as it was passed in.
    pub faults: SystemFaults,
}

impl fmt::Display for StartFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.error.fmt(f)
    }
}

impl Error for StartFailure {}

impl From<BuildError> for RecoveryError {
    fn from(e: BuildError) -> Self {
        RecoveryError::Build(e)
    }
}

impl From<CheckpointError> for RecoveryError {
    fn from(e: CheckpointError) -> Self {
        RecoveryError::Checkpoint(e)
    }
}

impl From<TrainError> for RecoveryError {
    fn from(e: TrainError) -> Self {
        RecoveryError::Train(e)
    }
}

impl From<LinkError> for RecoveryError {
    fn from(e: LinkError) -> Self {
        RecoveryError::Link(e)
    }
}

/// What one [`SelfHealingRuntime::step`] did.
#[derive(Debug, Clone, PartialEq)]
pub struct StepReport {
    /// Trainer losses of the step.
    pub stats: StepStats,
    /// ABFT residual the post-step check observed.
    pub residual: f64,
    /// Cells wear broke during this step's write.
    pub wear_broken: usize,
    /// Recovery action, when the residual flagged.
    pub action: Option<RecoveryAction>,
    /// Retransmit attempts the step's monitored NoC transfer needed
    /// (0 with no link model or a clean first attempt).
    pub retransmits: u32,
}

/// Cumulative accounting of a self-healing run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Training steps completed.
    pub steps: u64,
    /// Residual detections (fault events that triggered the ladder).
    pub detected: u64,
    /// Events resolved by quarantine + relocate + replay.
    pub corrected: u64,
    /// Tile-kill remaps committed (a rollback may also remap first).
    pub remapped: u64,
    /// Events resolved by checkpoint rollback (remap impossible or retry
    /// budget exhausted).
    pub rolled_back: u64,
    /// Relocate-and-replay attempts across all events.
    pub retries: u64,
    /// Periodic checkpoints taken.
    pub checkpoints_taken: u64,
    /// Trainer steps replayed after rollbacks.
    pub replayed_steps: u64,
    /// Cells newly broken by wear during the run.
    pub wear_broken_cells: u64,
    /// Suspect cells quarantined across all events.
    pub quarantined_cells: u64,
    /// Spare regions scanned while relocating.
    pub regions_scanned: u64,
    /// Transfers delivered only after link-level retransmission (the
    /// [`RecoveryAction::Retransmitted`] arm's fire count).
    pub retransmitted: u64,
    /// Retransmit attempts across all monitored transfers.
    pub link_retries: u64,
    /// Transfer attempts the CRC rejected (in-flight corruption caught).
    pub link_corrupted: u64,
    /// Transfer attempts lost outright (receiver timeout).
    pub link_dropped: u64,
    /// Flaky wires soft-quarantined and routed around.
    pub link_quarantined: u64,
    /// Fault-free per-iteration latency of the same workload (ns).
    pub clean_iteration_ns: f64,
    /// Productive compute time: Σ per-step iteration latency (ns).
    pub compute_latency_ns: f64,
    /// ABFT checksum-column overhead charged on every step (ns).
    pub detection_overhead_ns: f64,
    /// Time spent in the recovery ladder: backoffs, scans, reprograms,
    /// remaps and rollback replays (ns).
    pub recovery_latency_ns: f64,
    /// Energy of recovery reprogramming (pJ).
    pub recovery_energy_pj: f64,
    /// Every fault event, in detection order.
    pub events: Vec<FaultEvent>,
}

impl RecoveryReport {
    /// Wall-clock of the run: compute + detection + recovery (ns).
    pub fn total_latency_ns(&self) -> f64 {
        self.compute_latency_ns + self.detection_overhead_ns + self.recovery_latency_ns
    }

    /// Detection overhead as a fraction of productive compute.
    pub fn detection_overhead_frac(&self) -> f64 {
        if self.compute_latency_ns > 0.0 {
            self.detection_overhead_ns / self.compute_latency_ns
        } else {
            0.0
        }
    }

    /// Mean time to repair: recovery time per detected fault (ns; 0 when
    /// nothing was detected).
    pub fn mttr_ns(&self) -> f64 {
        if self.detected > 0 {
            self.recovery_latency_ns / self.detected as f64
        } else {
            0.0
        }
    }

    /// Rollbacks per step (rollback frequency).
    pub fn rollback_rate(&self) -> f64 {
        if self.steps > 0 {
            self.rolled_back as f64 / self.steps as f64
        } else {
            0.0
        }
    }

    /// Wall-clock versus an ideal fault-free run of the same length.
    /// ≥ 1.0 by construction: per-step latency never beats the clean
    /// mapping (position-preserving remap) and every overhead adds.
    pub fn slowdown(&self) -> f64 {
        let clean = self.clean_iteration_ns * self.steps as f64;
        if clean > 0.0 {
            self.total_latency_ns() / clean
        } else {
            1.0
        }
    }
}

/// The two figures of one simulated training iteration the runtime
/// charges per step: the iteration latency, and the busy time of the `G→`
/// phase, which the monitored block's checksum column slows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationFigures {
    /// Latency of one training iteration (ns).
    pub iteration_ns: f64,
    /// Busy time of the `G→` phase in that iteration (ns).
    pub g_forward_ns: f64,
}

impl IterationFigures {
    /// Simulates one iteration of `accel` and reads its figures.
    pub fn of(accel: &LerGan) -> Self {
        let r = accel.train_iterations(1);
        IterationFigures {
            iteration_ns: r.iteration_latency_ns,
            g_forward_ns: r.phase_latency.get(&Phase::GForward.to_string()),
        }
    }

    /// The figures of `spec` built under `faults`, given `clean`, those of
    /// its fault-free build: `clean` itself when the faults kill no tile
    /// and break no link (the build reads nothing else), otherwise those of
    /// a build under [`SystemFaults::build_key`].
    pub fn under(
        spec: &GanSpec,
        faults: &SystemFaults,
        clean: IterationFigures,
    ) -> Result<Self, BuildError> {
        if faults.builds_fault_free() {
            return Ok(clean);
        }
        Ok(Self::of(
            &LerGan::builder(spec).faults(faults.build_key()).build()?,
        ))
    }
}

/// Geometry of the monitored ABFT block: 32 × 32 weights + the checksum
/// column, and the spare-region layout carved out of the `G→` bank.
const BLOCK_ROWS: usize = 32;
const BLOCK_COLS: usize = 32;
/// Spare regions per tile of the monitored bank (region size = block
/// cells; the region index ↦ tile mapping is what lets quarantine density
/// condemn a specific tile).
const REGIONS_PER_TILE: usize = 4;

/// What [`SelfHealingRuntime::drain`] hands back when a supervising layer
/// (e.g. the `lergan-serve` fleet) retires a pair mid-service.
#[derive(Debug)]
pub struct DrainedRuntime {
    /// The wrapped trainer, resumable bit-exactly elsewhere.
    pub trainer: Gan,
    /// The pair's live fault state, wear damage included.
    pub faults: SystemFaults,
    /// The cumulative recovery accounting up to the drain.
    pub report: RecoveryReport,
}

/// A training loop wrapped in the online detect → quarantine → remap →
/// rollback ladder. See the module docs for the state machine.
#[derive(Debug)]
pub struct SelfHealingRuntime {
    spec: GanSpec,
    trainer: Gan,
    cadence: AutoCheckpoint,
    buffered: Vec<Vec<Tensor>>,
    faults: SystemFaults,
    policy: RecoveryPolicy,
    /// The wear limits of the block's current cells under the run's wear
    /// model, rebased when the block is placed there and evaluated by the
    /// wear passes as they need them.
    limits: WearLimits,
    reram: ReramConfig,
    weights: Vec<i32>,
    inputs: Vec<i32>,
    region: usize,
    tiles: usize,
    iteration_ns: f64,
    detect_ns: f64,
    link: Option<ReliableFabric>,
    link_values: u64,
    report: RecoveryReport,
}

/// Words of the monitored per-step activation transfer: one 16×16
/// feature map of 16-bit values handed from the `G` banks to the `D`
/// banks each iteration.
const LINK_TRANSFER_VALUES: u64 = 256;

impl SelfHealingRuntime {
    /// Assembles the runtime: builds `spec`'s fault-free accelerator for
    /// its [`IterationFigures`], and the accelerator under `faults` when
    /// they kill tiles or break links ([`IterationFigures::under`]), then
    /// runs [`SelfHealingRuntime::from_figures`].
    pub fn new(
        spec: &GanSpec,
        trainer: Gan,
        faults: SystemFaults,
        policy: RecoveryPolicy,
        wear: WearModel,
    ) -> Result<Self, RecoveryError> {
        let clean = IterationFigures::of(&LerGan::builder(spec).build()?);
        let start = IterationFigures::under(spec, &faults, clean)?;
        Self::from_figures(spec, trainer, faults, policy, wear, clean, start).map_err(|f| f.error)
    }

    /// Assembles the runtime from the figures of `spec`'s fault-free build,
    /// `clean`, and of its build under the starting `faults`, `start` (a
    /// serving layer keeps both beside its shared plan; see
    /// [`IterationFigures::under`]): places the monitored block in the
    /// first clean spare region of the `G→` bank, and programs it.
    pub fn from_figures(
        spec: &GanSpec,
        trainer: Gan,
        faults: SystemFaults,
        policy: RecoveryPolicy,
        wear: WearModel,
        clean: IterationFigures,
        start: IterationFigures,
    ) -> Result<Self, Box<StartFailure>> {
        let reram = ReramConfig::default();
        let weights: Vec<i32> = (0..BLOCK_ROWS * BLOCK_COLS)
            .map(|i| ((i as i32 * 37) % 201) - 100)
            .collect();
        let inputs: Vec<i32> = (0..BLOCK_ROWS)
            .map(|i| ((i as i32 * 13) % 15) - 7)
            .collect();
        let mut rt = SelfHealingRuntime {
            spec: spec.clone(),
            cadence: AutoCheckpoint::every(policy.checkpoint_interval),
            trainer,
            buffered: Vec::new(),
            faults,
            policy,
            limits: wear.limits(0..0),
            tiles: reram.tiles_per_bank.max(1),
            reram,
            weights,
            inputs,
            region: 0,
            iteration_ns: 0.0,
            detect_ns: 0.0,
            link: None,
            link_values: LINK_TRANSFER_VALUES,
            report: RecoveryReport::default(),
        };
        rt.charge(start);
        rt.report.clean_iteration_ns = clean.iteration_ns;
        // Scanning for a region only reads the fault state, so a failed
        // start hands it back as it came.
        let region = match rt.find_clean_region(0) {
            Ok(region) => region,
            Err(e) => return Err(rt.unstarted(e)),
        };
        rt.place(region);
        // Placing the block is setup, not recovery: reset the ledger so
        // the report accounts the run only.
        rt.report.recovery_latency_ns = 0.0;
        rt.report.recovery_energy_pj = 0.0;
        rt.report.regions_scanned = 0;
        Ok(rt)
    }

    /// Opts the runtime into transient-link modelling: every step's
    /// monitored `G→D` activation transfer goes through a
    /// [`ReliableFabric`] under `transients`, layered on the scenario's
    /// *hard* [`lergan_noc::LinkFaults`]. With no link model (the
    /// default) nothing in the run — accounting included — changes.
    pub fn with_link(mut self, transients: TransientFaults) -> Self {
        self.link = Some(ReliableFabric::new(
            NocConfig::default(),
            self.faults.links().clone(),
            transients,
            self.policy,
        ));
        self
    }

    /// The link fabric's cumulative accounting, when a link model is
    /// attached.
    pub fn link_report(&self) -> Option<&crate::link::LinkReport> {
        self.link.as_ref().map(|l| l.report())
    }

    /// The live fault state (grows as wear breaks cells and tiles die).
    pub fn faults(&self) -> &SystemFaults {
        &self.faults
    }

    /// The cumulative recovery accounting.
    pub fn report(&self) -> &RecoveryReport {
        &self.report
    }

    /// The wrapped trainer.
    pub fn trainer(&self) -> &Gan {
        &self.trainer
    }

    /// Consumes the runtime, returning the trainer (for bit-exactness
    /// comparison against a reference run).
    pub fn into_trainer(self) -> Gan {
        self.trainer
    }

    /// Drains the runtime: hands back everything a supervising layer needs
    /// to move the work elsewhere — the trainer (resumable bit-exactly),
    /// the live fault state (wear damage and tile kills accumulated during
    /// the run, so the *hardware's* history survives even though the job
    /// leaves), and the recovery ledger. This is the hook the serving
    /// layer uses to quarantine a pair: drain it, re-admit its work to a
    /// healthy pair, and retire the damaged fault map with the hardware.
    pub fn drain(self) -> DrainedRuntime {
        DrainedRuntime {
            trainer: self.trainer,
            faults: self.faults,
            report: self.report,
        }
    }

    /// One self-healed training step: checkpoint if due, train, charge
    /// compute + detection overhead, advance wear, run the checked MMV,
    /// and walk the recovery ladder if the residual flags.
    ///
    /// A batch the trainer rejects is a [`RecoveryError::Train`]: nothing
    /// is charged, the hardware state does not move, and the batch is not
    /// buffered for replay, so the runtime can go on with the next batch.
    pub fn step(&mut self, reals: &[Tensor]) -> Result<StepReport, RecoveryError> {
        if self.cadence.maybe_take(&self.trainer) {
            self.report.checkpoints_taken += 1;
            self.buffered.clear();
        }
        let stats = self.trainer.try_train_step(reals)?;
        self.buffered.push(reals.to_vec());
        self.report.compute_latency_ns += self.iteration_ns;
        self.report.detection_overhead_ns += self.detect_ns;

        // The step's G→D activation handoff rides the (possibly flaky)
        // fabric: CRC detection + the retransmit ladder. The clean
        // transfer is already inside `iteration_ns`; only the recovery
        // surcharge (timeouts, backoffs, retransmissions) is added here.
        let step = self.report.steps;
        let mut retransmits = 0u32;
        if let Some(link) = self.link.as_mut() {
            let now = self.report.total_latency_ns();
            let out = link.send(
                Endpoint::tile(0, 0),
                Endpoint::pair_tile(0, 2, 0),
                Mode::Cmode,
                self.link_values,
                step,
                now,
            )?;
            retransmits = out.attempts - 1;
            self.report.recovery_latency_ns += out.extra_latency_ns;
            self.report.recovery_energy_pj += out.extra_energy_pj;
            let lr = link.report();
            self.report.retransmitted = lr.retransmitted;
            self.report.link_retries = lr.retransmits;
            self.report.link_corrupted = lr.corrupted;
            self.report.link_dropped = lr.dropped;
            self.report.link_quarantined = lr.quarantined_wires;
            let events = link.drain_events();
            self.report.events.extend(events);
        }
        let newly = self
            .faults
            .bank_mut(Phase::GForward)
            .advance_wear(&mut self.limits, self.policy.pulses_per_step);
        let wear_broken = newly.len();
        if wear_broken > 0 {
            self.report.wear_broken_cells += wear_broken as u64;
            self.push_event(
                step,
                "G→ abft",
                FaultEventKind::WearBreak { cells: wear_broken },
            );
        }

        // Checked MMV: the residual is the detector.
        let obs = self.check();
        let mut action = None;
        if obs > self.policy.residual_threshold {
            self.report.detected += 1;
            self.push_event(
                step,
                "G→ abft",
                FaultEventKind::ResidualFlagged { residual: obs },
            );
            action = Some(self.recover()?);
        }
        self.report.steps += 1;
        Ok(StepReport {
            stats,
            residual: obs,
            wear_broken,
            action,
            retransmits,
        })
    }

    /// Runs `steps` steps over batches supplied per step index.
    pub fn run(
        &mut self,
        steps: u64,
        mut batch_for: impl FnMut(u64) -> Vec<Tensor>,
    ) -> Result<(), RecoveryError> {
        for s in 0..steps {
            self.step(&batch_for(s))?;
        }
        Ok(())
    }

    // ---- recovery ladder ------------------------------------------------

    /// Resolves one flagged residual. See the module docs' state machine.
    fn recover(&mut self) -> Result<RecoveryAction, RecoveryError> {
        let block = self.block();
        let region_cells = block.cells(&self.reram);
        let tile = self.region / REGIONS_PER_TILE;
        let tile_base = (tile * REGIONS_PER_TILE) as u64 * region_cells;
        let tile_cells = REGIONS_PER_TILE as u64 * region_cells;
        let map = self.faults.bank_mut(Phase::GForward);
        let suspects = block.suspect_cells(map, &self.reram).len();
        // Counting stops at the verdict's bound, so a seeded map hashes no
        // more of the tile than the verdict needs, and sets down what it
        // hashes for the next verdict.
        let tile_stuck = map.count_stuck_in(
            tile_base..tile_base + tile_cells,
            self.policy.tile_kill_cells,
        );
        self.report.quarantined_cells += suspects as u64;

        // A tile this dirty is a lost cause: condemn it outright.
        if tile_stuck >= self.policy.tile_kill_cells {
            if self.try_remap()? {
                return Ok(RecoveryAction::Remapped);
            }
            self.rollback()?;
            return Ok(RecoveryAction::RolledBack);
        }

        // Bounded relocate-and-replay with exponential backoff.
        for attempt in 1..=self.policy.max_retries {
            self.report.retries += 1;
            self.report.recovery_latency_ns += self.policy.backoff_ns(attempt);
            let Some(region) = self.next_region() else {
                break; // spare space exhausted: escalate
            };
            self.place(region);
            if self.check() <= self.policy.residual_threshold {
                self.report.corrected += 1;
                return Ok(RecoveryAction::Corrected);
            }
        }

        // Uncorrectable: the corrupt window is untrusted. Remap if the
        // capacity allows, then roll the trainer back and replay.
        let _ = self.try_remap()?;
        self.rollback()?;
        Ok(RecoveryAction::RolledBack)
    }

    /// Tentatively kills the tile hosting the block and rebuilds; commits
    /// only on success (an uncommitted kill would strand capacity).
    fn try_remap(&mut self) -> Result<bool, RecoveryError> {
        let tile = self.region / REGIONS_PER_TILE;
        let mut tentative = self.faults.build_key();
        tentative.bank_mut(Phase::GForward).kill_tile(tile);
        match self.builder_for(tentative).build() {
            Ok(accel) => {
                self.faults.bank_mut(Phase::GForward).kill_tile(tile);
                self.charge(IterationFigures::of(&accel));
                // Remap + reconfiguration cost: one switch epoch per bank.
                self.report.recovery_latency_ns += 6.0 * 50.0;
                let region = self.find_clean_region((tile + 1) * REGIONS_PER_TILE)?;
                self.place(region);
                self.report.remapped += 1;
                Ok(true)
            }
            Err(_) => Ok(false),
        }
    }

    /// Restores the last periodic checkpoint, relocates the block to a
    /// clean region, and replays the buffered batches bit-exactly.
    fn rollback(&mut self) -> Result<(), RecoveryError> {
        // Make sure the block sits somewhere clean before resuming.
        if self.check() > self.policy.residual_threshold {
            let region = self.find_clean_region(self.region + 1)?;
            self.place(region);
        }
        let ckpt = self
            .cadence
            .last()
            .expect("the first step checkpoints before training");
        self.trainer.restore(ckpt)?;
        let replay = std::mem::take(&mut self.buffered);
        self.report.replayed_steps += replay.len() as u64;
        self.report.recovery_latency_ns += self.iteration_ns * replay.len() as f64;
        for batch in &replay {
            self.trainer.try_train_step(batch)?;
        }
        self.buffered = replay;
        self.report.rolled_back += 1;
        Ok(())
    }

    // ---- placement and checking -----------------------------------------

    fn block(&self) -> AbftBlock {
        let cells = AbftBlock::new(BLOCK_ROWS, BLOCK_COLS, 0).cells(&self.reram);
        AbftBlock::new(BLOCK_ROWS, BLOCK_COLS, self.region as u64 * cells)
    }

    /// Residual of the checked MMV at the current placement, read from
    /// the block's stuck cells ([`AbftBlock::residual`]).
    fn check(&mut self) -> f64 {
        let block = self.block();
        let map = self.faults.bank_mut(Phase::GForward);
        block.residual(map, &self.weights, &self.inputs, &self.reram)
    }

    /// The next region past the current one that no dead tile hosts;
    /// `None` when the bank's spare space is exhausted.
    fn next_region(&mut self) -> Option<usize> {
        let total = self.tiles * REGIONS_PER_TILE;
        let map = self.faults.bank_mut(Phase::GForward);
        (self.region + 1..total).find(|&r| !map.tile_is_dead(r / REGIONS_PER_TILE))
    }

    /// Gives up on starting: the error and the untouched fault state.
    fn unstarted(self, error: RecoveryError) -> Box<StartFailure> {
        Box::new(StartFailure {
            error,
            faults: self.faults,
        })
    }

    /// First region at or after `from` (skipping dead tiles) whose
    /// read-back scan finds no stuck cells. Charges one row-parallel scan
    /// per candidate. The scans set down the chunks of a seeded map they
    /// hash, so later scans of the same regions read words.
    fn find_clean_region(&mut self, from: usize) -> Result<usize, RecoveryError> {
        let total = self.tiles * REGIONS_PER_TILE;
        let cells = AbftBlock::new(BLOCK_ROWS, BLOCK_COLS, 0).cells(&self.reram);
        let scan_ns = BLOCK_ROWS as f64 * self.reram.tile_read_latency_ns;
        let mut scanned = 0usize;
        // A bank with no recorded map is pristine (and stays unrecorded).
        let mut map = self
            .faults
            .bank(Phase::GForward)
            .is_some()
            .then(|| self.faults.bank_mut(Phase::GForward));
        for r in from..total {
            if map
                .as_ref()
                .is_some_and(|m| m.tile_is_dead(r / REGIONS_PER_TILE))
            {
                continue;
            }
            scanned += 1;
            self.report.regions_scanned += 1;
            self.report.recovery_latency_ns += scan_ns;
            let base = r as u64 * cells;
            if map
                .as_mut()
                .is_none_or(|m| m.first_stuck_in(base..base + cells).is_none())
            {
                return Ok(r);
            }
        }
        Err(RecoveryError::NoCleanRegion { scanned })
    }

    /// Moves the monitored block to `region`: takes the wear limits of its
    /// new cells, for every step until the next move, and programs it
    /// there, charging the reprogram's latency (row-parallel writes) and
    /// energy.
    fn place(&mut self, region: usize) {
        self.region = region;
        let block = self.block();
        self.limits
            .rebase(block.cell_base..block.cell_base + block.cells(&self.reram));
        let map = self.faults.bank_mut(Phase::GForward);
        let _ = block.program(map, &self.weights, &self.reram, &WritePolicy::default());
        self.report.recovery_latency_ns += BLOCK_ROWS as f64 * self.reram.tile_write_latency_ns;
        self.report.recovery_energy_pj +=
            block.stored_values() as f64 * self.reram.tile_write_energy_pj;
    }

    // ---- accelerator plumbing -------------------------------------------

    fn builder_for(&self, faults: SystemFaults) -> LerGanBuilder {
        LerGan::builder(&self.spec).faults(faults)
    }

    /// Charges every later step `figures`' iteration latency, plus the ABFT
    /// detection overhead: the checksum column adds `1/cols` extra read
    /// work to the monitored phase's compute.
    fn charge(&mut self, figures: IterationFigures) {
        self.iteration_ns = figures.iteration_ns;
        self.detect_ns =
            figures.g_forward_ns * AbftBlock::new(BLOCK_ROWS, BLOCK_COLS, 0).overhead();
    }

    fn push_event(&mut self, step: u64, label: &str, kind: FaultEventKind) {
        self.report.events.push(FaultEvent {
            step,
            time_ns: self.report.total_latency_ns(),
            label: label.to_string(),
            kind,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lergan_gan::benchmarks;
    use lergan_gan::topology::parse_network;
    use lergan_gan::train::{build_trainable_with, UpdateRule};
    use lergan_reram::FaultMap;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    fn small_trainer(init_seed: u64, noise_seed: u64) -> Gan {
        let g_spec = parse_network("g", "8f-(8t-4t)(3k2s)-t1", 2, 16).unwrap();
        let d_spec = parse_network("d", "(1c-8c)(3k2s)-f1", 2, 16).unwrap();
        let mut rng = StdRng::seed_from_u64(init_seed);
        let g = build_trainable_with(&g_spec, true, false, &mut rng);
        let d = build_trainable_with(&d_spec, false, false, &mut rng);
        Gan::new(g, d, 8, 0.0, noise_seed).with_optimizer(UpdateRule::dcgan_adam(0.01))
    }

    fn batch(rng: &mut StdRng) -> Vec<Tensor> {
        (0..2)
            .map(|_| {
                let v = 0.5 + (rng.gen::<f32>() - 0.5) * 0.2;
                Tensor::filled(&[1, 16, 16], v)
            })
            .collect()
    }

    fn runtime(wear: WearModel, faults: SystemFaults) -> SelfHealingRuntime {
        runtime_with(RecoveryPolicy::default(), wear, faults)
    }

    fn runtime_with(
        policy: RecoveryPolicy,
        wear: WearModel,
        faults: SystemFaults,
    ) -> SelfHealingRuntime {
        SelfHealingRuntime::new(
            &benchmarks::dcgan(),
            small_trainer(31, 77),
            faults,
            policy,
            wear,
        )
        .expect("runtime assembles")
    }

    #[test]
    fn fault_free_run_detects_nothing_and_has_unit_slowdown_floor() {
        let mut rt = runtime(WearModel::disabled(), SystemFaults::none());
        let mut rng = StdRng::seed_from_u64(1);
        rt.run(6, |_| batch(&mut rng)).unwrap();
        let r = rt.report();
        assert_eq!(r.detected, 0);
        assert_eq!(r.wear_broken_cells, 0);
        assert_eq!(r.rolled_back, 0);
        assert_eq!(r.steps, 6);
        // Checkpoints at steps 0 and 4 under the default cadence.
        assert_eq!(r.checkpoints_taken, 2);
        // Detection rides along even when nothing fails…
        assert!(r.detection_overhead_ns > 0.0);
        assert!(r.detection_overhead_frac() > 0.0 && r.detection_overhead_frac() < 0.1);
        // …and the slowdown floor is exactly the detection overhead.
        assert!(r.slowdown() >= 1.0);
        assert_eq!(r.recovery_latency_ns, 0.0);
    }

    #[test]
    fn wear_break_is_detected_and_corrected_online() {
        // Aggressive wear: cells die after ~20 pulses, far inside the run.
        let wear = WearModel::new(20, 1.5, 0xD1E);
        let mut rt = runtime(wear, SystemFaults::none());
        let mut rng = StdRng::seed_from_u64(2);
        rt.run(40, |_| batch(&mut rng)).unwrap();
        let r = rt.report();
        assert!(r.wear_broken_cells > 0, "wear must break cells mid-run");
        assert!(r.detected > 0, "ABFT must notice the broken cells");
        assert!(
            r.corrected + r.remapped + r.rolled_back >= r.detected,
            "every detection resolves"
        );
        assert!(r.corrected > 0, "relocation heals pristine-bank breaks");
        assert!(r.quarantined_cells > 0);
        assert!(r.mttr_ns() > 0.0);
        assert!(r.slowdown() > 1.0);
        // The event stream interleaves wear breaks and detections.
        assert!(r
            .events
            .iter()
            .any(|e| matches!(e.kind, FaultEventKind::WearBreak { .. })));
        assert!(r
            .events
            .iter()
            .any(|e| matches!(e.kind, FaultEventKind::ResidualFlagged { .. })));
    }

    #[test]
    fn healed_run_matches_clean_trainer_bit_exactly() {
        // Reference: same trainer seeds, no hardware at all.
        let mut reference = small_trainer(31, 77);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..30 {
            reference.train_step(&batch(&mut rng));
        }

        // Healed run: wear breaks cells mid-run, the ladder heals them.
        let wear = WearModel::new(15, 1.3, 0xFEED);
        let mut rt = runtime(wear, SystemFaults::none());
        let mut rng = StdRng::seed_from_u64(3);
        rt.run(30, |_| batch(&mut rng)).unwrap();
        assert!(rt.report().detected > 0, "the run must actually fault");

        let healed = rt.into_trainer();
        assert_eq!(
            healed.checkpoint(),
            reference.checkpoint(),
            "self-healing must not perturb the training trajectory"
        );
    }

    #[test]
    fn dirty_bank_escalates_to_remap_or_rollback() {
        // A pre-damaged bank plus a strict condemnation threshold: the
        // first wear burst (hundreds of cells) exceeds `tile_kill_cells`,
        // so the ladder skips relocation and condemns the tile.
        let mut faults = SystemFaults::none();
        *faults.bank_mut(Phase::GForward) = FaultMap::seeded(0x5EED, 0.0005, 300_000);
        let wear = WearModel::new(10, 1.2, 0xACE);
        let policy = RecoveryPolicy {
            tile_kill_cells: 64,
            ..RecoveryPolicy::default()
        };
        let mut rt = runtime_with(policy, wear, faults);
        let mut rng = StdRng::seed_from_u64(4);
        rt.run(25, |_| batch(&mut rng)).unwrap();
        let r = rt.report();
        assert!(r.detected > 0);
        assert!(
            r.remapped + r.rolled_back > 0,
            "a dirty bank must force escalation: {r:?}"
        );
        assert!(r.slowdown() >= 1.0);
    }

    #[test]
    fn wear_limits_follow_the_block_across_relocations() {
        // The dirty-bank setup relocates the block within a few steps. Every
        // step after the first move must break exactly the cells of the
        // block's current region whose wear exceeds their own limit.
        let mut faults = SystemFaults::none();
        *faults.bank_mut(Phase::GForward) = FaultMap::seeded(0x5EED, 0.0005, 300_000);
        let wear = WearModel::new(10, 1.2, 0xACE);
        let policy = RecoveryPolicy {
            tile_kill_cells: 64,
            ..RecoveryPolicy::default()
        };
        let mut rt = runtime_with(policy, wear, faults);
        let first = rt.region;
        let stuck = |rt: &SelfHealingRuntime| -> BTreeSet<u64> {
            let map = rt.faults().bank(Phase::GForward).expect("monitored bank");
            map.stuck_cells_in(0..u64::MAX).collect()
        };
        let mut rng = StdRng::seed_from_u64(4);
        let mut checked = 0;
        for step in 0..40 {
            let region = rt.region;
            let block = rt.block();
            let cells = block.cell_base..block.cell_base + block.cells(&rt.reram);
            let before = stuck(&rt);
            let report = rt.step(&batch(&mut rng)).unwrap();
            if region == first {
                continue;
            }
            let broken: Vec<u64> = stuck(&rt).difference(&before).copied().collect();
            assert_eq!(broken.len(), report.wear_broken, "step {step}");
            let map = rt.faults().bank(Phase::GForward).expect("monitored bank");
            let over: Vec<u64> = cells
                .filter(|c| !before.contains(c) && map.wear_of(*c) > wear.limit_of(*c))
                .collect();
            assert_eq!(broken, over, "step {step}: wear broke cells off its limits");
            checked += usize::from(!broken.is_empty());
        }
        assert!(checked > 0, "no wear break after the block moved");
    }

    #[test]
    fn remap_impossible_forces_checkpoint_rollback() {
        // Only two healthy tiles remain, so condemning the hosting tile
        // would leave too few to map the GAN: `try_remap` must fail and
        // the ladder must fall through to checkpoint rollback.
        let mut faults = SystemFaults::none();
        for t in 1..15 {
            faults.bank_mut(Phase::GForward).kill_tile(t);
        }
        let wear = WearModel::new(10, 1.2, 0xACE);
        let policy = RecoveryPolicy {
            tile_kill_cells: 64,
            ..RecoveryPolicy::default()
        };
        let mut rt = runtime_with(policy, wear, faults);
        let mut rng = StdRng::seed_from_u64(5);
        rt.run(15, |_| batch(&mut rng)).unwrap();
        let r = rt.report();
        assert!(r.detected > 0);
        assert_eq!(r.remapped, 0, "no tile to spare: remap must be refused");
        assert!(
            r.rolled_back > 0,
            "uncorrectable fault must roll back: {r:?}"
        );
        assert!(r.replayed_steps > 0, "rollback replays the buffered steps");
        assert!(r.slowdown() > 1.0);
    }

    #[test]
    fn transient_link_chaos_retransmits_without_perturbing_training() {
        use lergan_noc::TransientFaults;

        // Reference: identical trainer seeds, no hardware model at all.
        let mut reference = small_trainer(31, 77);
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..30 {
            reference.train_step(&batch(&mut rng));
        }

        let mut rt = runtime(WearModel::disabled(), SystemFaults::none())
            .with_link(TransientFaults::seeded(0xF1A5, 0.3, 0.1));
        let mut rng = StdRng::seed_from_u64(8);
        rt.run(30, |_| batch(&mut rng)).unwrap();
        let r = rt.report().clone();
        assert!(
            r.retransmitted > 0,
            "30% flip + 10% drop must force retransmissions: {r:?}"
        );
        assert!(r.link_retries >= r.retransmitted);
        assert!(r.link_corrupted + r.link_dropped > 0);
        assert!(r.recovery_latency_ns > 0.0, "retries must cost time");
        assert!(r.slowdown() > 1.0);
        // The Retransmitted arm surfaces as fault events.
        assert!(r
            .events
            .iter()
            .any(|e| matches!(e.kind, FaultEventKind::LinkCorrupted { .. })
                || matches!(e.kind, FaultEventKind::LinkDropped)));
        assert!(r.events.iter().any(|e| matches!(
            e.kind,
            FaultEventKind::LinkRecovered {
                action: RecoveryAction::Retransmitted,
                ..
            }
        )));
        // Link recovery is pure accounting: the trajectory is untouched.
        assert_eq!(
            rt.into_trainer().checkpoint(),
            reference.checkpoint(),
            "link-level recovery must never perturb training"
        );
    }

    #[test]
    fn quiet_link_model_changes_no_accounting() {
        use lergan_noc::TransientFaults;
        let mut rng = StdRng::seed_from_u64(9);
        let mut plain = runtime(WearModel::disabled(), SystemFaults::none());
        plain.run(6, |_| batch(&mut rng)).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let mut linked = runtime(WearModel::disabled(), SystemFaults::none())
            .with_link(TransientFaults::quiet());
        linked.run(6, |_| batch(&mut rng)).unwrap();
        assert_eq!(plain.report(), linked.report());
        assert_eq!(linked.link_report().unwrap().retransmits, 0);
    }

    #[test]
    fn extended_topologies_heal_wear_breaks_bit_exactly() {
        // PR 8's extended op algebra (dilated convs, skip edges) must ride
        // the same ladder: inject mid-run wear breaks while the runtime is
        // built over each extended accelerator topology and prove the
        // healed trajectory matches the never-faulted twin bit for bit.
        for name in ["ResDilatedGAN", "AtrousPixelGAN"] {
            let spec = benchmarks::extended()
                .into_iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("missing extended benchmark {name}"));

            let mut reference = small_trainer(47, 90);
            let mut rng = StdRng::seed_from_u64(12);
            for _ in 0..25 {
                reference.train_step(&batch(&mut rng));
            }

            let wear = WearModel::new(14, 1.3, 0x0DD + name.len() as u64);
            let mut rt = SelfHealingRuntime::new(
                &spec,
                small_trainer(47, 90),
                SystemFaults::none(),
                RecoveryPolicy::default(),
                wear,
            )
            .expect("extended runtime assembles");
            let mut rng = StdRng::seed_from_u64(12);
            rt.run(25, |_| batch(&mut rng)).unwrap();
            let r = rt.report();
            assert!(r.detected > 0, "{name}: the run must actually fault");
            assert!(
                r.corrected + r.remapped + r.rolled_back >= r.detected,
                "{name}: every detection resolves"
            );
            assert!(r.slowdown() >= 1.0, "{name}");
            assert_eq!(
                rt.into_trainer().checkpoint(),
                reference.checkpoint(),
                "{name}: healing must preserve the trajectory bit-exactly"
            );
        }
    }

    #[test]
    fn recovery_runs_replay_bit_identically() {
        let run = || {
            let wear = WearModel::new(18, 1.4, 0xB0B);
            let mut faults = SystemFaults::none();
            *faults.bank_mut(Phase::GForward) = FaultMap::seeded(0x7777, 0.0005, 300_000);
            let mut rt = runtime(wear, faults);
            let mut rng = StdRng::seed_from_u64(5);
            rt.run(20, |_| batch(&mut rng)).unwrap();
            let trainer_state = rt.trainer().checkpoint();
            (rt.report().clone(), trainer_state)
        };
        let (ra, ta) = run();
        let (rb, tb) = run();
        assert_eq!(ra, rb, "recovery accounting must be deterministic");
        assert_eq!(ta, tb, "trainer trajectory must be deterministic");
    }
}

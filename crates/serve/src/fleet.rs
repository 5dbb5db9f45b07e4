//! The fleet: simulated 3DCU pairs with per-pair fault state.
//!
//! Fault isolation in this runtime is *structural*: every pair owns its
//! own [`SystemFaults`] and [`WearModel`], so one tenant's dying hardware
//! is invisible to jobs on other pairs. A pristine pair (no seeded
//! faults, wear disabled) runs jobs on the fast path — the raw functional
//! trainer, whose trajectory is bit-identical to
//! [`crate::job::run_standalone`] by construction — while a faulted pair
//! wraps every job in a [`SelfHealingRuntime`] that detects, quarantines,
//! remaps and rolls back in place. When the job leaves (finished or
//! killed), [`SelfHealingRuntime::drain`] hands the pair its fault map
//! back, wear damage and tile kills included: hardware history outlives
//! any single job, which is exactly what makes later jobs on a worn pair
//! slower and eventually forces the serving layer to quarantine it.

use crate::job::{batch, batch_seed, job_trainer, JobSpec};
use crate::plan::PlanCache;
use lergan_core::{LinkChaos, RecoveryError, RecoveryPolicy, SelfHealingRuntime, SystemFaults};
use lergan_gan::train::GanCheckpoint;
use lergan_reram::WearModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// Healing-ladder activity aggregated over jobs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealingTotals {
    /// ABFT residual detections.
    pub detected: u64,
    /// Faults resolved by relocate-and-replay.
    pub corrected: u64,
    /// Tile-kill remaps committed.
    pub remapped: u64,
    /// Checkpoint rollbacks.
    pub rolled_back: u64,
    /// Relocation attempts across the ladder.
    pub retries: u64,
    /// NoC transfers delivered only after link-level retransmission.
    pub retransmitted: u64,
    /// Flaky wires soft-quarantined and routed around.
    pub link_quarantined: u64,
}

impl HealingTotals {
    /// Accumulates another tally.
    pub fn add(&mut self, other: &HealingTotals) {
        self.detected += other.detected;
        self.corrected += other.corrected;
        self.remapped += other.remapped;
        self.rolled_back += other.rolled_back;
        self.retries += other.retries;
        self.retransmitted += other.retransmitted;
        self.link_quarantined += other.link_quarantined;
    }
}

/// How a dispatched job ended on the pair.
#[derive(Debug, Clone, PartialEq)]
pub enum JobRunResult {
    /// All steps ran; the final trainer state is attached for the
    /// bit-identity audit.
    Finished {
        /// Final trainer checkpoint.
        checkpoint: GanCheckpoint,
    },
    /// The pair's hardware killed the job mid-run (recovery ladder
    /// exhausted or the degraded build no longer maps). The job restarts
    /// from its seed on re-admission, so a death loses time, never
    /// correctness.
    Died {
        /// Steps completed before the death.
        at_step: u64,
        /// Human-readable cause (the underlying `RecoveryError`).
        cause: String,
    },
}

/// A job in service on a pair.
#[derive(Debug, Clone, PartialEq)]
pub struct RunningJob {
    /// The dispatched request.
    pub job: JobSpec,
    /// Dispatch time (ns).
    pub started_ns: f64,
    /// Completion-event time (ns).
    pub finish_ns: f64,
    /// Outcome, decided when the completion event fires.
    pub result: JobRunResult,
    /// Healing activity this job's run charged on the pair.
    pub healing: HealingTotals,
}

/// One simulated 3DCU pair of the fleet.
#[derive(Debug)]
pub struct Pair {
    /// Fleet-unique id (the deterministic dispatch tie-breaker).
    pub id: usize,
    /// The pair's live fault state; persists across jobs.
    pub faults: SystemFaults,
    /// The pair's write-endurance model.
    pub wear: WearModel,
    /// True when the pair can never fault (no seeded faults, wear
    /// disabled): such jobs run the raw-trainer fast path.
    pub pristine: bool,
    /// Transient hazard on the pair's NoC, reseeded per pair; `None`
    /// skips the link model.
    pub link: Option<LinkChaos>,
    /// Quarantined pairs accept no further work.
    pub quarantined: bool,
    /// The job in service, if any.
    pub running: Option<RunningJob>,
    /// Jobs pre-assigned to this pair, waiting behind the running one.
    pub assigned: VecDeque<JobSpec>,
    /// Checkpoint rollbacks accumulated over the pair's lifetime — the
    /// quarantine trigger.
    pub rollbacks_total: u64,
    /// Busy time accumulated (ns), for utilisation.
    pub busy_ns: f64,
    /// Jobs finished on this pair.
    pub jobs_completed: u64,
}

impl Pair {
    /// A pair with explicit hardware state. `pristine` must only be set
    /// when `faults` is empty and `wear` is disabled.
    pub fn new(id: usize, faults: SystemFaults, wear: WearModel, pristine: bool) -> Self {
        Pair {
            id,
            faults,
            wear,
            pristine,
            link: None,
            quarantined: false,
            running: None,
            assigned: VecDeque::new(),
            rollbacks_total: 0,
            busy_ns: 0.0,
            jobs_completed: 0,
        }
    }

    /// Idle and accepting work.
    pub fn is_available(&self) -> bool {
        !self.quarantined && self.running.is_none()
    }

    /// Starts `job` at `now`, computing its whole trajectory eagerly (the
    /// simulation is deterministic, so the outcome is known at dispatch;
    /// the completion event merely publishes it at `finish_ns`).
    ///
    /// Returns the recovery-policy error only through [`JobRunResult`]:
    /// hardware trouble is a scheduling event, not a caller error.
    pub fn start(
        &mut self,
        job: JobSpec,
        now: f64,
        plans: &mut PlanCache,
        policy: &RecoveryPolicy,
    ) -> Result<(), lergan_core::BuildError> {
        let (duration, result, healing) = if self.pristine {
            self.run_pristine(&job, plans)?
        } else {
            self.run_healing(&job, plans, policy)?
        };
        self.rollbacks_total += healing.rolled_back;
        self.running = Some(RunningJob {
            job,
            started_ns: now,
            finish_ns: now + duration,
            result,
            healing,
        });
        Ok(())
    }

    /// Fast path: no hardware faults are possible, so the job is the raw
    /// functional trainer and the service time is the plan's fault-free
    /// iteration latency. Bit-identical to the standalone run.
    fn run_pristine(
        &mut self,
        job: &JobSpec,
        plans: &mut PlanCache,
    ) -> Result<(f64, JobRunResult, HealingTotals), lergan_core::BuildError> {
        let iter_ns = plans.iteration_ns(job.topology)?;
        let mut trainer = job_trainer(job.seed);
        let mut rng = StdRng::seed_from_u64(batch_seed(job.seed));
        for _ in 0..job.steps {
            trainer.train_step(&batch(&mut rng));
        }
        Ok((
            job.steps as f64 * iter_ns,
            JobRunResult::Finished {
                checkpoint: trainer.checkpoint(),
            },
            HealingTotals::default(),
        ))
    }

    /// Healing path: the job runs under a [`SelfHealingRuntime`] that takes
    /// over the pair's live fault state (moved, not copied) and starts from
    /// the plan's iteration figures under that state
    /// ([`PlanCache::figures_under`]); on exit the drained fault map — wear
    /// damage and tile kills included — becomes the pair's state for the
    /// next job.
    fn run_healing(
        &mut self,
        job: &JobSpec,
        plans: &mut PlanCache,
        policy: &RecoveryPolicy,
    ) -> Result<(f64, JobRunResult, HealingTotals), lergan_core::BuildError> {
        let clean = plans.figures(job.topology)?;
        // The pair is too damaged to even place the job: an instant death,
        // hardware state unchanged.
        let died = |error: RecoveryError| {
            let death = JobRunResult::Died {
                at_step: 0,
                cause: error.to_string(),
            };
            Ok((0.0, death, HealingTotals::default()))
        };
        let start = match plans.figures_under(job.topology, &self.faults) {
            Ok(start) => start,
            Err(e) => return died(e.into()),
        };
        // The runtime owns the pair's fault state for the job and hands it
        // back when it drains, or when it cannot start.
        let rt = match SelfHealingRuntime::from_figures(
            plans.spec(job.topology),
            job_trainer(job.seed),
            std::mem::take(&mut self.faults),
            *policy,
            self.wear,
            clean,
            start,
        ) {
            Ok(rt) => rt,
            Err(failure) => {
                let failure = *failure;
                self.faults = failure.faults;
                return died(failure.error);
            }
        };
        // Layer the transient-link hazard on, reseeded per pair so each
        // pair's flakiness develops independently from one fleet spec.
        let mut rt = match self.link {
            Some(chaos) if !chaos.is_quiet() => {
                rt.with_link(chaos.transients((self.id as u64).wrapping_mul(0xA5A5_5A5A_D00D_F00D)))
            }
            _ => rt,
        };
        let mut rng = StdRng::seed_from_u64(batch_seed(job.seed));
        let mut death: Option<(u64, String)> = None;
        for s in 0..job.steps {
            let reals = batch(&mut rng);
            if let Err(e) = rt.step(&reals) {
                death = Some((s, e.to_string()));
                break;
            }
        }
        let drained = rt.drain();
        // Hardware history survives the job, dead or alive.
        self.faults = drained.faults;
        let healing = HealingTotals {
            detected: drained.report.detected,
            corrected: drained.report.corrected,
            remapped: drained.report.remapped,
            rolled_back: drained.report.rolled_back,
            retries: drained.report.retries,
            retransmitted: drained.report.retransmitted,
            link_quarantined: drained.report.link_quarantined,
        };
        let duration = drained.report.total_latency_ns();
        let result = match death {
            None => JobRunResult::Finished {
                checkpoint: drained.trainer.checkpoint(),
            },
            Some((at_step, cause)) => JobRunResult::Died { at_step, cause },
        };
        Ok((duration, result, healing))
    }

    /// Quarantines the pair and evacuates its local queue: the caller
    /// must re-admit every returned job. The pair keeps its damaged
    /// fault map — quarantine retires hardware, it does not erase its
    /// history.
    pub fn quarantine(&mut self) -> Vec<JobSpec> {
        self.quarantined = true;
        self.assigned.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::run_standalone;
    use lergan_gan::Phase;

    fn job(id: u64, steps: u64) -> JobSpec {
        JobSpec {
            id,
            tenant: 0,
            topology: 0,
            steps,
            seed: 40 + id,
            arrival_ns: 0.0,
            deadline_slack: None,
        }
    }

    #[test]
    fn pristine_pairs_reproduce_the_standalone_trajectory() {
        let mut plans = PlanCache::table_v();
        let mut pair = Pair::new(0, SystemFaults::none(), WearModel::disabled(), true);
        for id in 0..2 {
            let j = job(id, 3);
            pair.start(j.clone(), 0.0, &mut plans, &RecoveryPolicy::default())
                .unwrap();
            let run = pair.running.take().unwrap();
            assert!(run.finish_ns > 0.0);
            match run.result {
                JobRunResult::Finished { checkpoint } => {
                    assert_eq!(checkpoint, run_standalone(&j));
                }
                other => panic!("pristine job must finish: {other:?}"),
            }
        }
        // Both jobs ran on the single compiled plan of topology 0.
        assert_eq!(plans.misses(), 1, "jobs must reuse the same plan");
        assert!(plans.hits() > 0);
    }

    #[test]
    fn healing_pairs_keep_their_wear_damage_between_jobs() {
        let mut plans = PlanCache::table_v();
        // Aggressive wear: cells die within a job's steps.
        let wear = WearModel::new(6, 1.2, 0xD00D);
        let mut pair = Pair::new(0, SystemFaults::none(), wear, false);
        pair.start(job(0, 10), 0.0, &mut plans, &RecoveryPolicy::default())
            .unwrap();
        let first = pair.running.take().unwrap();
        assert!(first.healing.detected > 0, "wear must fault the first job");
        let broken_after_first = pair
            .faults
            .bank_mut(Phase::GForward)
            .stuck_cells_in(0..1_000_000)
            .count();
        assert!(broken_after_first > 0, "drained faults persist on the pair");

        pair.start(
            job(1, 10),
            first.finish_ns,
            &mut plans,
            &RecoveryPolicy::default(),
        )
        .unwrap();
        let second = pair.running.take().unwrap();
        let broken_after_second = pair
            .faults
            .bank_mut(Phase::GForward)
            .stuck_cells_in(0..1_000_000)
            .count();
        assert!(
            broken_after_second >= broken_after_first,
            "hardware history is monotone"
        );
        // Both jobs still trained correctly despite the faults.
        for (run, j) in [(&first, job(0, 10)), (&second, job(1, 10))] {
            match &run.result {
                JobRunResult::Finished { checkpoint } => {
                    assert_eq!(checkpoint, &run_standalone(&j), "healing preserves bits");
                }
                JobRunResult::Died { .. } => {} // acceptable on worn hardware
            }
        }
    }

    #[test]
    fn a_hopeless_pair_reports_death_not_panic() {
        let mut plans = PlanCache::table_v();
        let mut faults = SystemFaults::none();
        // Kill every tile of the monitored bank: no placement exists.
        for t in 0..16 {
            faults.bank_mut(Phase::GForward).kill_tile(t);
        }
        let original = faults.clone();
        let mut pair = Pair::new(0, faults, WearModel::disabled(), false);
        pair.start(job(0, 2), 0.0, &mut plans, &RecoveryPolicy::default())
            .unwrap();
        let run = pair.running.take().unwrap();
        assert!(
            matches!(run.result, JobRunResult::Died { at_step: 0, .. }),
            "{:?}",
            run.result
        );
        assert_eq!(
            run.finish_ns, 0.0,
            "an instant death charges no service time"
        );
        assert_eq!(
            pair.faults, original,
            "a job that cannot start leaves the hardware as it was"
        );
    }

    #[test]
    fn quarantine_evacuates_the_local_queue() {
        let mut pair = Pair::new(3, SystemFaults::none(), WearModel::disabled(), true);
        pair.assigned.push_back(job(5, 2));
        pair.assigned.push_back(job(6, 2));
        let evacuated = pair.quarantine();
        assert_eq!(evacuated.len(), 2);
        assert!(pair.quarantined);
        assert!(!pair.is_available());
        assert!(pair.assigned.is_empty());
    }
}

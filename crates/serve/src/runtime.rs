//! The deterministic serving event loop.
//!
//! The runtime is a discrete-event simulation over three event sources —
//! job arrivals, pair completions, retry-ready timers — processed in
//! strict time order with deterministic tie-breaking (completions before
//! retries before arrivals at equal clocks; within a category, ascending
//! pair/job id). Every random quantity is seeded, every collection
//! iterates in a fixed order, and job trajectories are pure `f32` math,
//! so a run replays byte-identically at any worker thread count.
//!
//! The job lifecycle the loop enforces:
//!
//! ```text
//! submit ── admission ──▶ central queue ──▶ pair (local queue → run)
//!    │          │                                │
//!    │          ▼                                ├─ finished ─▶ done
//!    │   shed (typed error)                      └─ died ─▶ backoff ─▶ readmit
//!    │                                                pair quarantined:
//!    └── never silently dropped ◀── evacuated jobs readmitted at the front
//! ```
//!
//! Robustness invariants the tests pin down: admitted jobs always reach a
//! terminal state (conservation law); a quarantined pair's queued jobs
//! are re-admitted, never dropped; shed rate and p99 latency degrade
//! monotonically with offered load; and a zero-fault serve reproduces
//! every job's standalone trajectory bit-for-bit.

use crate::fleet::{JobRunResult, Pair};
use crate::job::JobSpec;
use crate::metrics::ServeReport;
use crate::plan::PlanCache;
use crate::queue::{AdmissionError, JobQueue};
use lergan_core::{BuildError, LinkChaos, RecoveryPolicy, SystemFaults};
use lergan_gan::Phase;
use lergan_reram::{FaultMap, WearModel};
use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;

/// Typed failure of a serving run. Everything traffic can cause lands in
/// the report's counters; these are the *caller* errors — a malformed
/// workload or fleet — reported instead of aborting the process.
#[derive(Debug)]
pub enum ServeError {
    /// A workload topology failed to compile fault-free.
    Build(BuildError),
    /// A job references a topology index outside the plan cache's table.
    UnknownTopology {
        /// The offending job.
        job: u64,
        /// The out-of-table index it carried.
        topology: usize,
        /// Topologies the cache actually knows.
        known: usize,
    },
    /// A job carries a non-finite arrival time and cannot be ordered in
    /// simulated time.
    InvalidArrival {
        /// The offending job.
        job: u64,
    },
    /// The fleet has zero pairs: nothing could ever run.
    EmptyFleet,
    /// The wear model's spread is not a finite factor of at least 1 (see
    /// [`WearModel::valid_spread`]). NaN, values below 1 and +∞ are all
    /// rejected: +∞ would give every cell a limit of 1 or never.
    InvalidWear {
        /// The rejected spread.
        spread: f64,
    },
    /// The stuck-at rate is not a probability: NaN, negative or above 1.
    InvalidFaultRate {
        /// The rejected rate.
        rate: f64,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Build(e) => write!(f, "plan build failed: {e}"),
            ServeError::UnknownTopology {
                job,
                topology,
                known,
            } => write!(
                f,
                "job {job} references topology {topology}, but only {known} are registered"
            ),
            ServeError::InvalidArrival { job } => {
                write!(f, "job {job} has a non-finite arrival time")
            }
            ServeError::EmptyFleet => write!(f, "the fleet has no pairs"),
            ServeError::InvalidWear { spread } => write!(
                f,
                "wear spread {spread} is not a finite factor of at least 1"
            ),
            ServeError::InvalidFaultRate { rate } => {
                write!(f, "stuck-at rate {rate} is not a probability in [0, 1]")
            }
        }
    }
}

impl Error for ServeError {}

impl From<BuildError> for ServeError {
    fn from(e: BuildError) -> Self {
        ServeError::Build(e)
    }
}

/// Knobs of a serving run. Fault knobs apply uniformly to every pair
/// (each pair still gets its *own* seeded instance, so damage develops
/// independently); `dead_tiles` cripples selected pairs from the start.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// 3DCU pairs in the fleet.
    pub pairs: usize,
    /// Admission bounds (queue depth, tenant quota).
    pub admission: crate::queue::AdmissionPolicy,
    /// Recovery policy: shared by the per-pair healing runtimes *and* the
    /// job retry ladder (capped exponential backoff).
    pub recovery: RecoveryPolicy,
    /// Hardware deaths after which a job permanently fails.
    pub max_job_retries: u32,
    /// Lifetime rollbacks that quarantine a pair.
    pub quarantine_after_rollbacks: u64,
    /// Jobs a pair may hold behind the running one.
    pub local_queue_depth: usize,
    /// Multiplier converting the on-chip backoff ladder (hundreds of ns)
    /// to job-retry timescales. The ladder's shape — monotone, capped,
    /// deterministic — is exactly [`RecoveryPolicy::backoff_ns`]'s.
    pub retry_backoff_scale: f64,
    /// Stuck-at rate seeded on every pair's monitored bank (0 = clean).
    /// [`ServeRuntime::run`] rejects one outside `[0, 1]`, NaN included,
    /// with [`ServeError::InvalidFaultRate`].
    pub fault_rate: f64,
    /// Cell span the seeded fault map covers.
    pub fault_cells: u64,
    /// Write-endurance model `(mean, spread)`; `None` disables wear.
    pub wear: Option<(u64, f64)>,
    /// `(pair, tiles)` pre-killed on that pair's monitored bank.
    pub dead_tiles: Vec<(usize, usize)>,
    /// Transient-link hazard applied to every pair's NoC (each pair draws
    /// an independently seeded hazard stream); `None` disables the link
    /// model entirely.
    pub link: Option<LinkChaos>,
    /// Seed of all per-pair fault/wear streams.
    pub seed: u64,
}

impl ServeConfig {
    /// A fleet that can never fault: no seeded faults, wear disabled.
    pub fn pristine(pairs: usize) -> Self {
        ServeConfig {
            pairs,
            admission: crate::queue::AdmissionPolicy::default(),
            recovery: RecoveryPolicy::default(),
            max_job_retries: 5,
            quarantine_after_rollbacks: 8,
            local_queue_depth: 2,
            retry_backoff_scale: 1_000.0,
            fault_rate: 0.0,
            fault_cells: 300_000,
            wear: None,
            dead_tiles: Vec::new(),
            link: None,
            seed: 0x5EED,
        }
    }

    /// Enables wear with the given endurance distribution. The spread is
    /// checked at [`ServeRuntime::run`], which rejects an invalid one with
    /// [`ServeError::InvalidWear`].
    pub fn with_wear(mut self, endurance_mean: u64, spread: f64) -> Self {
        self.wear = Some((endurance_mean, spread));
        self
    }

    /// Seeds a stuck-at population on every pair.
    pub fn with_fault_rate(mut self, rate: f64) -> Self {
        self.fault_rate = rate;
        self
    }

    /// Applies a transient-link hazard to every pair's NoC.
    pub fn with_link_chaos(mut self, chaos: LinkChaos) -> Self {
        self.link = Some(chaos);
        self
    }

    /// True when no pair can ever observe a hardware fault.
    pub fn is_pristine(&self) -> bool {
        self.fault_rate == 0.0
            && self.wear.is_none()
            && self.dead_tiles.is_empty()
            && self.link.as_ref().is_none_or(|l| l.is_quiet())
    }
}

/// A job waiting out its retry backoff.
#[derive(Debug, Clone)]
struct PendingRetry {
    ready_ns: f64,
    job: JobSpec,
}

/// The serving runtime: owns a config, runs workloads.
#[derive(Debug, Clone)]
pub struct ServeRuntime {
    cfg: ServeConfig,
}

impl ServeRuntime {
    /// A runtime under `cfg`. A zero-pair fleet is accepted here and
    /// rejected with [`ServeError::EmptyFleet`] at [`ServeRuntime::run`]
    /// time — construction never aborts.
    pub fn new(cfg: ServeConfig) -> Self {
        ServeRuntime { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Serves `jobs` to completion. Returns `Err` only for caller bugs —
    /// a malformed workload (non-finite arrival, out-of-table topology),
    /// an empty fleet, an invalid wear spread or stuck-at rate, or a
    /// topology that fails to compile fault-free;
    /// everything traffic-induced lands in the report's counters, and
    /// poisoned inputs surface as typed [`ServeError`]s, never aborts.
    pub fn run(
        &self,
        mut jobs: Vec<JobSpec>,
        plans: &mut PlanCache,
    ) -> Result<ServeReport, ServeError> {
        if self.cfg.pairs == 0 {
            return Err(ServeError::EmptyFleet);
        }
        if let Some((_, spread)) = self.cfg.wear {
            if !WearModel::valid_spread(spread) {
                return Err(ServeError::InvalidWear { spread });
            }
        }
        if !(0.0..=1.0).contains(&self.cfg.fault_rate) {
            return Err(ServeError::InvalidFaultRate {
                rate: self.cfg.fault_rate,
            });
        }
        // Reject poisoned jobs up front: a NaN arrival cannot be ordered
        // in simulated time, and an out-of-table topology would otherwise
        // become an index panic deep inside dispatch.
        for j in &jobs {
            if !j.arrival_ns.is_finite() {
                return Err(ServeError::InvalidArrival { job: j.id });
            }
            if j.topology >= plans.specs().len() {
                return Err(ServeError::UnknownTopology {
                    job: j.id,
                    topology: j.topology,
                    known: plans.specs().len(),
                });
            }
        }
        // Pre-validate every topology once so admission-time latency
        // queries cannot fail mid-run.
        let topologies: BTreeSet<usize> = jobs.iter().map(|j| j.topology).collect();
        let hits0 = plans.hits();
        let misses0 = plans.misses();
        for &t in &topologies {
            plans.plan(t)?;
        }

        // total_cmp: arrivals are verified finite above, and a total
        // order can never panic even if that invariant rots.
        jobs.sort_by(|a, b| a.arrival_ns.total_cmp(&b.arrival_ns).then(a.id.cmp(&b.id)));

        let mut pairs = self.build_pairs();
        let mut queue = JobQueue::new(self.cfg.admission);
        let mut retries: Vec<PendingRetry> = Vec::new();
        let mut attempts: BTreeMap<u64, u32> = BTreeMap::new();
        let mut deadlines: BTreeMap<u64, f64> = BTreeMap::new();
        let mut report = ServeReport {
            pairs: self.cfg.pairs as u64,
            ..ServeReport::default()
        };
        let mut next_arrival = 0usize;

        loop {
            // Next event time across the three sources.
            let mut t_next: Option<f64> = None;
            let mut consider = |t: f64| {
                t_next = Some(match t_next {
                    Some(cur) if cur <= t => cur,
                    _ => t,
                });
            };
            for p in &pairs {
                if let Some(run) = &p.running {
                    consider(run.finish_ns);
                }
            }
            for r in &retries {
                consider(r.ready_ns);
            }
            if let Some(j) = jobs.get(next_arrival) {
                consider(j.arrival_ns);
            }
            let Some(now) = t_next else { break };
            report.wall_ns = report.wall_ns.max(now);

            // 1. Completions at `now`, ascending pair id.
            for i in 0..pairs.len() {
                let due = matches!(&pairs[i].running, Some(r) if r.finish_ns <= now);
                if due {
                    self.complete(
                        i,
                        &mut pairs,
                        &mut queue,
                        &mut retries,
                        &mut attempts,
                        &deadlines,
                        &mut report,
                    );
                }
            }

            // 2. Retry timers that matured: back into the queue's front.
            // (total_cmp: ready times are arrival + finite backoff, and a
            // total order cannot abort regardless.)
            retries.sort_by(|a, b| {
                a.ready_ns
                    .total_cmp(&b.ready_ns)
                    .then(a.job.id.cmp(&b.job.id))
            });
            while retries.first().is_some_and(|r| r.ready_ns <= now) {
                let r = retries.remove(0);
                queue.readmit(r.job);
            }

            // 3. Arrivals at `now`: admission control.
            while jobs.get(next_arrival).is_some_and(|j| j.arrival_ns <= now) {
                let job = jobs[next_arrival].clone();
                next_arrival += 1;
                report.submitted += 1;
                let best_case = job.steps as f64 * plans.iteration_ns(job.topology)?;
                match queue.admit(job.clone(), best_case) {
                    Ok(()) => {
                        report.admitted += 1;
                        if let Some(slack) = job.deadline_slack {
                            deadlines.insert(job.id, job.arrival_ns + slack * best_case);
                        }
                    }
                    Err(AdmissionError::QueueFull { .. }) => report.shed_queue_full += 1,
                    Err(AdmissionError::QuotaExceeded { .. }) => report.shed_quota += 1,
                    Err(AdmissionError::DeadlineInfeasible { .. }) => report.shed_deadline += 1,
                }
            }

            // 4. Dispatch until quiescent.
            self.dispatch(now, &mut pairs, &mut queue, plans)?;

            // Stranded detection: future events exist? then keep going.
            let live = pairs.iter().any(|p| p.running.is_some())
                || !retries.is_empty()
                || next_arrival < jobs.len();
            if !live {
                let leftover =
                    queue.len() as u64 + pairs.iter().map(|p| p.assigned.len() as u64).sum::<u64>();
                if leftover > 0 {
                    // Only possible when every pair is quarantined: the
                    // work is stranded, loudly.
                    report.stranded += leftover;
                }
                break;
            }
        }

        for p in &pairs {
            report.busy_ns += p.busy_ns;
        }
        report.latencies_ns.sort_by(f64::total_cmp);
        report.plan_hits = plans.hits() - hits0;
        report.plan_misses = plans.misses() - misses0;
        debug_assert!(report.check_conservation().is_ok());
        Ok(report)
    }

    /// The fleet under this config's fault knobs.
    fn build_pairs(&self) -> Vec<Pair> {
        (0..self.cfg.pairs)
            .map(|id| {
                let mut faults = SystemFaults::none();
                if self.cfg.fault_rate > 0.0 {
                    *faults.bank_mut(Phase::GForward) = FaultMap::seeded(
                        self.cfg.seed ^ (id as u64).wrapping_mul(0x9E37_79B9),
                        self.cfg.fault_rate,
                        self.cfg.fault_cells,
                    );
                }
                let mut crippled = false;
                for &(pair, tiles) in &self.cfg.dead_tiles {
                    if pair == id {
                        crippled = true;
                        for t in 1..=tiles {
                            faults.bank_mut(Phase::GForward).kill_tile(t);
                        }
                    }
                }
                let wear = match self.cfg.wear {
                    Some((mean, spread)) => {
                        WearModel::new(mean, spread, self.cfg.seed.wrapping_add(id as u64))
                    }
                    None => WearModel::disabled(),
                };
                let noisy_link = self.cfg.link.as_ref().is_some_and(|l| !l.is_quiet());
                let pristine = self.cfg.fault_rate == 0.0
                    && self.cfg.wear.is_none()
                    && !crippled
                    && !noisy_link;
                let mut pair = Pair::new(id, faults, wear, pristine);
                if noisy_link {
                    pair.link = self.cfg.link;
                }
                pair
            })
            .collect()
    }

    /// Publishes pair `i`'s completion: terminal accounting, the retry
    /// ladder for deaths, and the quarantine decision.
    #[allow(clippy::too_many_arguments)]
    fn complete(
        &self,
        i: usize,
        pairs: &mut [Pair],
        queue: &mut JobQueue,
        retries: &mut Vec<PendingRetry>,
        attempts: &mut BTreeMap<u64, u32>,
        deadlines: &BTreeMap<u64, f64>,
        report: &mut ServeReport,
    ) {
        // The caller only invokes `complete` for pairs whose `running` is
        // due; a bare return keeps even a violated invariant abort-free.
        let Some(run) = pairs[i].running.take() else {
            return;
        };
        pairs[i].busy_ns += run.finish_ns - run.started_ns;
        report.healing.add(&run.healing);
        let mut died = false;
        match run.result {
            JobRunResult::Finished { checkpoint } => {
                report.completed += 1;
                pairs[i].jobs_completed += 1;
                report.latencies_ns.push(run.finish_ns - run.job.arrival_ns);
                if deadlines
                    .get(&run.job.id)
                    .is_some_and(|d| run.finish_ns > *d)
                {
                    report.deadline_misses += 1;
                }
                report.outcomes.insert(run.job.id, checkpoint);
                queue.release(run.job.tenant);
            }
            JobRunResult::Died { .. } => {
                died = true;
                let a = attempts.entry(run.job.id).or_insert(0);
                *a += 1;
                if *a > self.cfg.max_job_retries {
                    report.failed += 1;
                    queue.release(run.job.tenant);
                } else {
                    report.job_retries += 1;
                    let backoff = self.cfg.recovery.backoff_ns(*a) * self.cfg.retry_backoff_scale;
                    retries.push(PendingRetry {
                        ready_ns: run.finish_ns + backoff,
                        job: run.job,
                    });
                }
            }
        }
        // Quarantine: a death means the pair's recovery ladder is
        // exhausted; chronic rollbacks mean it is about to be. Pristine
        // pairs cannot fault and are never quarantined.
        let chronic = pairs[i].rollbacks_total >= self.cfg.quarantine_after_rollbacks;
        if !pairs[i].pristine && !pairs[i].quarantined && (died || chronic) {
            let evacuated = pairs[i].quarantine();
            report.quarantined_pairs += 1;
            report.requeued += evacuated.len() as u64;
            // Reverse so readmit-at-front preserves the original order.
            for job in evacuated.into_iter().rev() {
                queue.readmit(job);
            }
        }
    }

    /// Moves queued work onto pairs until nothing more can move:
    /// available pairs pull their local queue, then the central queue;
    /// leftover central work pre-assigns to the least-loaded local
    /// queues. All tie-breaks are by ascending pair id.
    fn dispatch(
        &self,
        now: f64,
        pairs: &mut [Pair],
        queue: &mut JobQueue,
        plans: &mut PlanCache,
    ) -> Result<(), BuildError> {
        loop {
            let mut moved = false;
            for pair in pairs.iter_mut() {
                if !pair.is_available() {
                    continue;
                }
                let job = pair.assigned.pop_front().or_else(|| queue.pop());
                if let Some(job) = job {
                    pair.start(job, now, plans, &self.cfg.recovery)?;
                    moved = true;
                }
            }
            if !moved {
                break;
            }
        }
        // Pre-assign the backlog for locality and to expose queued-at-a-
        // pair state (what quarantine evacuation protects).
        while !queue.is_empty() {
            let target = (0..pairs.len())
                .filter(|&i| !pairs[i].quarantined)
                .filter(|&i| pairs[i].assigned.len() < self.cfg.local_queue_depth)
                .min_by_key(|&i| (pairs[i].assigned.len(), i));
            // The loop condition guarantees the queue is non-empty, but a
            // defensive break beats an abort if that ever changes.
            match target {
                Some(i) => match queue.pop() {
                    Some(job) => pairs[i].assigned.push_back(job),
                    None => break,
                },
                None => break,
            }
        }
        Ok(())
    }
}

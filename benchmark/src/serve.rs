//! `serve_faulty`: one round is an episode — a fresh `ServeRuntime` with
//! four 3DCU pairs serving 12 seeded Poisson jobs (DCGAN + cGAN, ten
//! steps each, offered at 1.5× fleet capacity, queue 8, tenant quota 4)
//! under stuck-at faults, wear and transient link chaos. An item is one
//! completed job. The compiled plans are shared across episodes and built
//! during set-up.
//!
//! The fleet is sized so that no seed retires every pair: with three pairs
//! and 18 jobs, about one episode in a few hundred quarantined the whole
//! fleet and stranded its queue, which the checks count as failures.
//!
//! Checks: the report's conservation law, no failed or stranded job, and
//! every completed job bit-identical to `job::run_standalone`.

use crate::{stats, timed, Bench, Layers, Round};
use lergan_core::{LinkChaos, RecoveryPolicy, SelfHealingRuntime, SystemFaults};
use lergan_gan::Phase;
use lergan_reram::{FaultMap, WearModel};
use lergan_serve::job::{
    batch, batch_seed, job_seed, job_trainer, poisson_workload, run_standalone, WorkloadSpec,
};
use lergan_serve::{AdmissionPolicy, JobSpec, PlanCache, ServeConfig, ServeReport, ServeRuntime};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::Instant;

const PAIRS: usize = 4;
const JOBS: u64 = 12;
const TENANTS: u32 = 3;
const STEPS: u64 = 10;
/// DCGAN and cGAN, by Table V order.
const TOPOLOGIES: [usize; 2] = [0, 1];
/// Offered load as a share of the fleet's fault-free capacity.
const RHO: f64 = 1.5;
const STUCK_RATE: f64 = 0.0005;
const WEAR_MEAN: u64 = 20;
const WEAR_SPREAD: f64 = 1.3;
const LINK_FLIP: f64 = 0.05;
const LINK_DROP: f64 = 0.01;
const DEADLINE_SLACK: f64 = 25.0;

/// The fleet configuration of one episode; `seed` drives its fault maps,
/// wear and link hazards.
fn config(seed: u64) -> ServeConfig {
    ServeConfig {
        admission: AdmissionPolicy {
            max_queue_depth: 8,
            per_tenant_quota: 4,
        },
        seed,
        ..ServeConfig::pristine(PAIRS)
    }
    .with_fault_rate(STUCK_RATE)
    .with_wear(WEAR_MEAN, WEAR_SPREAD)
    .with_link_chaos(LinkChaos {
        seed,
        flip_rate: LINK_FLIP,
        drop_rate: LINK_DROP,
        burst: None,
    })
}

/// An episode's jobs and what serving them produced.
struct Episode {
    jobs: Vec<JobSpec>,
    report: ServeReport,
}

/// Plans compiled once, the episode awaiting its check, and what the
/// checked episodes reported.
pub struct Fleet {
    plans: PlanCache,
    rate: f64,
    seed: u64,
    next: u64,
    last: Option<Episode>,
    /// Report counters summed over checked episodes.
    tally: BTreeMap<&'static str, f64>,
    checked: u64,
    /// Modelled sojourn (simulated ms) of every completed job.
    sojourn_ms: Vec<f64>,
}

impl Fleet {
    pub fn setup(seed: u64) -> Result<Fleet, String> {
        let mut plans = PlanCache::table_v();
        let mut iter_ns = 0.0;
        for t in TOPOLOGIES {
            iter_ns += plans.iteration_ns(t).map_err(|e| e.to_string())?;
        }
        let service_s = STEPS as f64 * iter_ns / TOPOLOGIES.len() as f64 / 1e9;
        Ok(Fleet {
            plans,
            rate: RHO * PAIRS as f64 / service_s,
            seed,
            next: 0,
            last: None,
            tally: BTreeMap::new(),
            checked: 0,
            sojourn_ms: Vec::new(),
        })
    }

    /// The seed of episode `e`: its arrivals, job seeds and hardware.
    fn episode_seed(&self, e: u64) -> u64 {
        job_seed(self.seed, e)
    }

    /// Serves the next episode.
    fn serve(&mut self) -> Result<Episode, String> {
        let seed = self.episode_seed(self.next);
        self.next += 1;
        let jobs = poisson_workload(&WorkloadSpec {
            jobs: JOBS,
            tenants: TENANTS,
            topologies: TOPOLOGIES.to_vec(),
            steps: STEPS,
            seed,
            rate_jobs_per_s: self.rate,
            deadline_slack: Some(DEADLINE_SLACK),
        });
        let report = ServeRuntime::new(config(seed))
            .run(jobs.clone(), &mut self.plans)
            .map_err(|e| e.to_string())?;
        Ok(Episode { jobs, report })
    }
}

/// Jobs (and the report itself) of `ep` that failed a check.
fn failures(ep: &Episode) -> u64 {
    let mut failed = 0;
    if let Err(e) = ep.report.check_conservation() {
        eprintln!("serve_faulty: {e}");
        failed += 1;
    }
    for job in &ep.jobs {
        if let Some(served) = ep.report.outcomes.get(&job.id) {
            if *served != run_standalone(job) {
                eprintln!(
                    "serve_faulty: job {} diverged from its standalone run",
                    job.id
                );
                failed += 1;
            }
        }
    }
    failed
}

impl Bench for Fleet {
    fn round(&mut self) -> Round {
        match self.serve() {
            Ok(ep) => {
                let r = &ep.report;
                if r.failed + r.stranded > 0 {
                    eprintln!(
                        "serve_faulty: episode {}: {} jobs failed, {} stranded",
                        self.next - 1,
                        r.failed,
                        r.stranded
                    );
                }
                let round = Round {
                    items: r.completed,
                    ops: r.submitted,
                    failed: r.failed + r.stranded,
                };
                self.last = Some(ep);
                round
            }
            Err(e) => {
                eprintln!("serve_faulty: episode failed: {e}");
                Round {
                    items: 0,
                    ops: JOBS,
                    failed: JOBS,
                }
            }
        }
    }

    /// Checks the episode just served, folds its report into the tallies
    /// and drops its checkpoints, so memory stays flat however many
    /// episodes a run serves.
    fn check_round(&mut self) -> u64 {
        let Some(ep) = self.last.take() else { return 0 };
        let r = &ep.report;
        for (name, v) in [
            ("serve.completed", r.completed),
            ("serve.shed", r.shed_total()),
            ("serve.job_retries", r.job_retries),
            ("serve.requeued", r.requeued),
            ("serve.quarantined_pairs", r.quarantined_pairs),
            ("serve.plan_hits", r.plan_hits),
            ("serve.plan_misses", r.plan_misses),
            ("core.recovery.detected", r.healing.detected),
            ("core.recovery.corrected", r.healing.corrected),
            ("core.recovery.rolled_back", r.healing.rolled_back),
            ("core.link.retransmitted", r.healing.retransmitted),
        ] {
            *self.tally.entry(name).or_default() += v as f64;
        }
        self.checked += 1;
        self.sojourn_ms
            .extend(r.latencies_ns.iter().map(|ns| ns / 1e6));
        failures(&ep)
    }

    /// Per episode: the episode itself, the standalone trainer on each
    /// completed job, and each completed job replayed through a fresh
    /// `SelfHealingRuntime` on pair 0's starting hardware beside a bare
    /// trainer on the same batches. Counts come from the measured
    /// episodes' reports.
    fn trace(&mut self, seconds: f64) -> Layers {
        let mut layers = Layers::default();
        // [overhead share, recovery-new share, step / bare, coverage]
        let mut rows: Vec<[f64; 4]> = Vec::new();
        let until = Instant::now();
        let mut episodes = 0;
        while episodes == 0 || until.elapsed().as_secs_f64() < seconds {
            episodes += 1;
            let seed = self.episode_seed(self.next);
            let mut episode_s = 0.0;
            let ep = match timed(&mut episode_s, || self.serve()) {
                Ok(ep) => ep,
                Err(e) => {
                    eprintln!("serve_faulty: traced episode failed: {e}");
                    layers.failed += 1;
                    continue;
                }
            };
            let cfg = config(seed);
            let (mut trainer, mut new, mut steps, mut bare) = (0.0, 0.0, 0.0, 0.0);
            for job in ep
                .jobs
                .iter()
                .filter(|j| ep.report.outcomes.contains_key(&j.id))
            {
                timed(&mut trainer, || run_standalone(job));
                let mut faults = SystemFaults::none();
                *faults.bank_mut(Phase::GForward) =
                    FaultMap::seeded(cfg.seed, STUCK_RATE, cfg.fault_cells);
                let wear = WearModel::new(WEAR_MEAN, WEAR_SPREAD, cfg.seed);
                let spec = self.plans.spec(job.topology);
                let rt = timed(&mut new, || {
                    SelfHealingRuntime::new(
                        spec,
                        job_trainer(job.seed),
                        faults,
                        RecoveryPolicy::default(),
                        wear,
                    )
                });
                let mut rt = match rt {
                    Ok(rt) => {
                        rt.with_link(cfg.link.expect("episodes carry link chaos").transients(0))
                    }
                    Err(_) => continue, // pair 0 cannot place the job: nothing to replay
                };
                let mut plain = job_trainer(job.seed);
                let mut rng = StdRng::seed_from_u64(batch_seed(job.seed));
                for _ in 0..job.steps {
                    let reals = batch(&mut rng);
                    if timed(&mut steps, || rt.step(&reals)).is_err() {
                        break;
                    }
                    timed(&mut bare, || plain.train_step(&reals));
                }
            }
            if bare > 0.0 {
                rows.push([
                    1.0 - trainer / episode_s,
                    new / episode_s,
                    steps / bare,
                    (new + steps) / episode_s,
                ]);
            }
        }
        if !rows.is_empty() {
            let m = stats::column_medians(&rows);
            layers.values.extend([
                ("serve.overhead_share", m[0]),
                ("core.recovery.new_share", m[1]),
                ("core.recovery.step_over_bare", m[2]),
                ("trace.coverage", m[3]),
            ]);
        }

        // Counts per measured episode.
        let n = self.checked.max(1) as f64;
        layers
            .values
            .extend(self.tally.iter().map(|(name, v)| (*name, v / n)));
        if !self.sojourn_ms.is_empty() {
            let p98 = stats::percentile(&self.sojourn_ms, 0.98);
            layers.values.push(("serve.sim_p98_ms", p98));
        }
        layers
    }
}

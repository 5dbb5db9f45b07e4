//! Job requests and the standalone reference run.
//!
//! A job is a seeded fine-tuning request: train the shared functional
//! trainer for `steps` optimiser steps on batches derived from the job's
//! seed, on an accelerator compiled for the job's Table V topology. The
//! functional trainer is the same cheap 16-pixel DCGAN-class model the
//! recovery sweep uses — small enough that a serving sweep over dozens of
//! jobs finishes in seconds — while the *topology* still selects the
//! compiled plan and therefore the simulated per-iteration latency, so
//! mixed-topology traffic exercises real heterogeneity in service times.
//!
//! [`run_standalone`] is the robustness yardstick: the exact trajectory a
//! job produces with the whole serving layer removed. A zero-fault serve
//! must reproduce it bit-for-bit for every job ([`crate::ServeReport`]
//! keeps the final checkpoints so tests and the sweep can check).

use lergan_gan::topology::parse_network;
use lergan_gan::train::{build_trainable_with, Gan, GanCheckpoint, UpdateRule};
use lergan_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One training job request.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Unique, monotone id (also the deterministic tie-breaker).
    pub id: u64,
    /// Owning tenant (quota accounting unit).
    pub tenant: u32,
    /// Index into the serving plan table ([`crate::PlanCache`]).
    pub topology: usize,
    /// Optimiser steps the job trains for.
    pub steps: u64,
    /// Seed of the job's weight init, noise stream and batches.
    pub seed: u64,
    /// Arrival time on the simulated clock (ns).
    pub arrival_ns: f64,
    /// Deadline as a multiple of the best-case service time: the deadline
    /// is `arrival + slack · steps · iteration_ns`. `None` = no deadline.
    pub deadline_slack: Option<f64>,
}

/// The functional trainer of a job, fully determined by the job seed.
pub fn job_trainer(seed: u64) -> Gan {
    let g_spec = parse_network("g", "8f-(8t-4t)(3k2s)-t1", 2, 16).unwrap();
    let d_spec = parse_network("d", "(1c-8c)(3k2s)-f1", 2, 16).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let g = build_trainable_with(&g_spec, true, false, &mut rng);
    let d = build_trainable_with(&d_spec, false, false, &mut rng);
    Gan::new(g, d, 8, 0.0, seed.wrapping_add(1)).with_optimizer(UpdateRule::dcgan_adam(0.01))
}

/// Seed of the job's real-batch stream (distinct from the init stream so
/// the two never alias draws).
pub fn batch_seed(seed: u64) -> u64 {
    seed ^ 0xB47C_85EE_D5EE_D000
}

/// One real batch drawn from the stream. Retried jobs restart from step 0
/// with a fresh stream, so replays see identical data.
pub fn batch(rng: &mut StdRng) -> Vec<Tensor> {
    (0..2)
        .map(|_| {
            let v = 0.5 + (rng.gen::<f32>() - 0.5) * 0.2;
            Tensor::filled(&[1, 16, 16], v)
        })
        .collect()
}

/// The job's trajectory with no serving layer and no hardware at all:
/// the bit-exactness reference for fault isolation.
pub fn run_standalone(job: &JobSpec) -> GanCheckpoint {
    let mut trainer = job_trainer(job.seed);
    let mut rng = StdRng::seed_from_u64(batch_seed(job.seed));
    for _ in 0..job.steps {
        trainer.train_step(&batch(&mut rng));
    }
    trainer.checkpoint()
}

/// Parameters of a Poisson arrival workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Jobs submitted.
    pub jobs: u64,
    /// Tenants the jobs round-robin across.
    pub tenants: u32,
    /// Topology indices the jobs round-robin across.
    pub topologies: Vec<usize>,
    /// Steps per job.
    pub steps: u64,
    /// Seed of the arrival process and of every per-job seed.
    pub seed: u64,
    /// Mean arrival rate (jobs per second of simulated time).
    pub rate_jobs_per_s: f64,
    /// Deadline slack applied to every job (`None` = no deadlines).
    pub deadline_slack: Option<f64>,
}

/// Draws a seeded Poisson arrival stream.
///
/// The exponential inter-arrival draws depend only on `seed`, not on the
/// rate: changing `rate_jobs_per_s` rescales the *same* draw sequence.
/// Two workloads differing only in rate therefore see the same jobs in
/// the same order, just compressed in time — exactly the controlled
/// experiment the graceful-degradation sweep needs (shed rate and p99
/// move because of *load*, not because of resampled randomness).
pub fn poisson_workload(w: &WorkloadSpec) -> Vec<JobSpec> {
    assert!(w.rate_jobs_per_s > 0.0, "arrival rate must be positive");
    assert!(
        !w.topologies.is_empty(),
        "workload needs at least one topology"
    );
    assert!(w.tenants > 0, "workload needs at least one tenant");
    let rate_per_ns = w.rate_jobs_per_s / 1e9;
    let mut rng = StdRng::seed_from_u64(w.seed);
    let mut t = 0.0f64;
    (0..w.jobs)
        .map(|id| {
            let u: f64 = rng.gen();
            // u ∈ [0, 1) ⇒ 1 - u ∈ (0, 1] ⇒ the draw is finite and ≥ 0.
            t += -(1.0 - u).ln() / rate_per_ns;
            JobSpec {
                id,
                tenant: (id % u64::from(w.tenants)) as u32,
                topology: w.topologies[(id as usize) % w.topologies.len()],
                steps: w.steps,
                seed: job_seed(w.seed, id),
                arrival_ns: t,
                deadline_slack: w.deadline_slack,
            }
        })
        .collect()
}

/// Per-job seed: a SplitMix64-style mix of the workload seed and the job
/// id, so neighbouring jobs get decorrelated init/noise/batch streams.
pub fn job_seed(workload_seed: u64, id: u64) -> u64 {
    let mut z = workload_seed
        .wrapping_add(id.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(rate: f64, seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            jobs: 16,
            tenants: 3,
            topologies: vec![0, 1],
            steps: 4,
            seed,
            rate_jobs_per_s: rate,
            deadline_slack: None,
        }
    }

    #[test]
    fn workload_is_deterministic_and_time_ordered() {
        let a = poisson_workload(&spec(100.0, 9));
        let b = poisson_workload(&spec(100.0, 9));
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].arrival_ns <= w[1].arrival_ns));
        assert!(a.windows(2).all(|w| w[0].id < w[1].id));
    }

    #[test]
    fn raising_the_rate_only_compresses_the_same_arrival_pattern() {
        let slow = poisson_workload(&spec(50.0, 9));
        let fast = poisson_workload(&spec(200.0, 9));
        for (s, f) in slow.iter().zip(&fast) {
            // Same job identity, seeds and order — only the clock differs.
            assert_eq!(s.seed, f.seed);
            assert_eq!(s.tenant, f.tenant);
            assert_eq!(s.topology, f.topology);
            // Exactly 4x compression: the draws are rate-independent.
            let ratio = s.arrival_ns / f.arrival_ns;
            assert!((ratio - 4.0).abs() < 1e-9, "ratio {ratio}");
        }
    }

    #[test]
    fn standalone_runs_are_reproducible_and_seed_sensitive() {
        let job = |seed| JobSpec {
            id: 0,
            tenant: 0,
            topology: 0,
            steps: 3,
            seed,
            arrival_ns: 0.0,
            deadline_slack: None,
        };
        assert_eq!(run_standalone(&job(5)), run_standalone(&job(5)));
        assert_ne!(run_standalone(&job(5)), run_standalone(&job(6)));
    }
}

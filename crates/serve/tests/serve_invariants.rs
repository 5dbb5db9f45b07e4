//! End-to-end robustness invariants of the serving runtime.
//!
//! These are the acceptance properties of the serving layer, each pinned
//! as a test:
//!
//! * **bit-identity** — a zero-fault serve reproduces every job's
//!   standalone trajectory exactly (the serving layer adds scheduling,
//!   never arithmetic);
//! * **graceful degradation** — shed rate and p99 sojourn latency are
//!   monotone non-decreasing in offered load;
//! * **zero drop** — pair quarantine re-admits queued work; every
//!   admitted job terminates, and with a healthy pair left, terminates
//!   *successfully*;
//! * **determinism** — the full report (counters, latencies, checkpoints)
//!   is identical across runs and across 1/8 worker threads.

use lergan_core::RecoveryPolicy;
use lergan_serve::job::{poisson_workload, run_standalone, WorkloadSpec};
use lergan_serve::{PlanCache, ServeConfig, ServeReport, ServeRuntime};
use lergan_tensor::parallel::with_threads;

/// Offered-load helper: the arrival rate that keeps `rho` of the fleet
/// busy on average, derived from the fault-free iteration latency so the
/// tests stay correct if the latency model changes.
fn rate_for(rho: f64, pairs: usize, steps: u64, plans: &mut PlanCache, topology: usize) -> f64 {
    let iter_ns = plans.iteration_ns(topology).unwrap();
    let service_s = steps as f64 * iter_ns / 1e9;
    rho * pairs as f64 / service_s
}

fn workload(jobs: u64, steps: u64, rate: f64, slack: Option<f64>) -> Vec<lergan_serve::JobSpec> {
    poisson_workload(&WorkloadSpec {
        jobs,
        tenants: 3,
        topologies: vec![0],
        steps,
        seed: 0xA11CE,
        rate_jobs_per_s: rate,
        deadline_slack: slack,
    })
}

#[test]
fn zero_fault_serve_is_bit_identical_to_standalone() {
    let mut warm = PlanCache::table_v();
    let rate = rate_for(0.5, 2, 4, &mut warm, 0);
    let jobs = workload(8, 4, rate, None);
    // A fresh cache isolates this run's compile/hit accounting.
    let mut plans = PlanCache::table_v();
    let report = ServeRuntime::new(ServeConfig::pristine(2))
        .run(jobs.clone(), &mut plans)
        .unwrap();
    assert_eq!(
        report.completed, 8,
        "low-load pristine fleet finishes everything"
    );
    assert_eq!(report.shed_total(), 0);
    assert_eq!(report.failed + report.stranded, 0);
    report.check_conservation().unwrap();
    for job in &jobs {
        let served = &report.outcomes[&job.id];
        assert_eq!(
            served,
            &run_standalone(job),
            "job {} diverged from its standalone trajectory",
            job.id
        );
    }
    // Same-topology jobs compiled once and shared the plan after that.
    assert_eq!(report.plan_misses, 1);
    assert!(report.plan_hits > 0, "plan reuse must be visible");
    // And the pristine serve replays bit-identically across thread counts.
    let rerun = |threads| {
        with_threads(threads, || {
            let mut plans = PlanCache::table_v();
            ServeRuntime::new(ServeConfig::pristine(2))
                .run(jobs.clone(), &mut plans)
                .unwrap()
        })
    };
    assert_eq!(report, rerun(1));
    assert_eq!(report, rerun(8));
}

#[test]
fn p99_latency_degrades_monotonically_with_load() {
    // Deep queue: nothing sheds, so rising load shows up entirely as
    // queueing delay — p99 must climb with every load step.
    let mut plans = PlanCache::table_v();
    let cfg = ServeConfig {
        admission: lergan_serve::AdmissionPolicy {
            max_queue_depth: 64,
            per_tenant_quota: 16,
        },
        ..ServeConfig::pristine(2)
    };
    let mut p99s = Vec::new();
    for rho in [0.4, 2.0, 8.0] {
        let rate = rate_for(rho, 2, 4, &mut plans, 0);
        let report = ServeRuntime::new(cfg.clone())
            .run(workload(16, 4, rate, None), &mut plans)
            .unwrap();
        report.check_conservation().unwrap();
        assert_eq!(report.shed_total(), 0, "a deep queue absorbs this burst");
        assert_eq!(report.completed, 16);
        p99s.push(report.p99_ns());
    }
    assert!(
        p99s.windows(2).all(|w| w[0] <= w[1]),
        "p99 must be monotone in load: {p99s:?}"
    );
    assert!(p99s[2] > p99s[0], "overload must actually hurt: {p99s:?}");
}

#[test]
fn shed_rate_degrades_monotonically_with_load() {
    // Bounded queue: overload converts into typed sheds. Once the queue
    // saturates, survivors' sojourn is *capped* — that is the point of
    // load shedding — so this test asserts the shed-rate half of
    // graceful degradation.
    let mut plans = PlanCache::table_v();
    let cfg = ServeConfig {
        admission: lergan_serve::AdmissionPolicy {
            max_queue_depth: 3,
            per_tenant_quota: 6,
        },
        local_queue_depth: 1,
        ..ServeConfig::pristine(2)
    };
    let mut sheds = Vec::new();
    for rho in [0.4, 2.0, 8.0] {
        let rate = rate_for(rho, 2, 4, &mut plans, 0);
        let report = ServeRuntime::new(cfg.clone())
            .run(workload(16, 4, rate, None), &mut plans)
            .unwrap();
        report.check_conservation().unwrap();
        assert_eq!(report.failed + report.stranded, 0);
        sheds.push(report.shed_rate());
    }
    assert_eq!(sheds[0], 0.0, "an underloaded fleet sheds nothing");
    assert!(
        sheds.windows(2).all(|w| w[0] <= w[1]),
        "shed rate must be monotone in load: {sheds:?}"
    );
    assert!(
        sheds[2] > 0.0,
        "an 8x-overloaded bounded queue must shed: {sheds:?}"
    );
}

#[test]
fn quarantine_readmits_queued_jobs_and_drops_nothing() {
    let mut plans = PlanCache::table_v();
    // Pair 0 keeps only 2 of 16 tiles: remap is impossible, so harsh wear
    // forces checkpoint rollbacks, and one rollback quarantines the pair.
    let cfg = ServeConfig {
        recovery: RecoveryPolicy {
            tile_kill_cells: 64,
            ..RecoveryPolicy::default()
        },
        quarantine_after_rollbacks: 1,
        dead_tiles: vec![(0, 14)],
        ..ServeConfig::pristine(3)
    }
    .with_wear(8, 1.2);
    let rate = rate_for(3.0, 3, 12, &mut plans, 0);
    let report = ServeRuntime::new(cfg)
        .run(workload(10, 12, rate, None), &mut plans)
        .unwrap();
    report.check_conservation().unwrap();
    assert!(
        report.quarantined_pairs >= 1,
        "the crippled pair must retire: {report:?}"
    );
    assert!(
        report.requeued >= 1,
        "its queued jobs must be evacuated, not dropped: {report:?}"
    );
    assert_eq!(report.failed, 0, "healthy pairs absorb the evacuated work");
    assert_eq!(report.stranded, 0);
    assert_eq!(
        report.completed + report.shed_total(),
        report.submitted,
        "every admitted job finished: {report:?}"
    );
    assert!(
        report.healing.rolled_back >= 1,
        "quarantine was earned: {report:?}"
    );
}

#[test]
fn dead_pair_triggers_the_retry_ladder_and_jobs_still_finish() {
    let mut plans = PlanCache::table_v();
    // Pair 0 is born with every tile dead: any job dispatched to it dies
    // instantly, retries after a capped backoff, and must complete on
    // pair 1 once pair 0 is quarantined.
    let cfg = ServeConfig {
        dead_tiles: vec![(0, 16)],
        ..ServeConfig::pristine(2)
    };
    let rate = rate_for(1.0, 2, 4, &mut plans, 0);
    let report = ServeRuntime::new(cfg)
        .run(workload(6, 4, rate, None), &mut plans)
        .unwrap();
    report.check_conservation().unwrap();
    assert!(
        report.job_retries >= 1,
        "the dead pair must kill at least one job: {report:?}"
    );
    assert_eq!(report.quarantined_pairs, 1);
    assert_eq!(report.failed, 0, "retried jobs finish on the healthy pair");
    assert_eq!(report.stranded, 0);
    assert_eq!(report.completed, report.admitted);
    // The retried jobs' results are still bit-exact: a death restarts
    // from the seed, it never resumes corrupted state.
    for (id, ckpt) in &report.outcomes {
        let job = workload(6, 4, rate, None)
            .into_iter()
            .find(|j| j.id == *id)
            .unwrap();
        assert_eq!(ckpt, &run_standalone(&job), "job {id} corrupted by retry");
    }
}

#[test]
fn deadline_misses_are_counted_without_dropping_jobs() {
    let mut plans = PlanCache::table_v();
    // Feasible deadlines (slack > 1), but 6x overload: queue waits push
    // completions past them. Misses are counted, work still finishes.
    let rate = rate_for(6.0, 2, 4, &mut plans, 0);
    let report = ServeRuntime::new(ServeConfig::pristine(2))
        .run(workload(12, 4, rate, Some(1.5)), &mut plans)
        .unwrap();
    report.check_conservation().unwrap();
    assert!(
        report.deadline_misses > 0,
        "overload must miss deadlines: {report:?}"
    );
    assert_eq!(report.completed + report.shed_total(), report.submitted);
}

#[test]
fn mixed_table_v_and_extended_workload_conserves_jobs() {
    // Jobs round-robin across DCGAN and both extended-grammar topologies
    // (dilated convs, skip edges): admission must treat the new rows as
    // first-class, the cache must key each topology separately, and the
    // conservation law must hold over the mixed stream.
    let mut warm = PlanCache::extended();
    let rate = rate_for(0.5, 2, 4, &mut warm, 8);
    let jobs = poisson_workload(&WorkloadSpec {
        jobs: 9,
        tenants: 3,
        topologies: vec![0, 8, 9],
        steps: 4,
        seed: 0xD11A7ED,
        rate_jobs_per_s: rate,
        deadline_slack: None,
    });
    let mut plans = PlanCache::extended();
    let report = ServeRuntime::new(ServeConfig::pristine(2))
        .run(jobs.clone(), &mut plans)
        .unwrap();
    report.check_conservation().unwrap();
    assert_eq!(
        report.completed, 9,
        "low-load pristine fleet finishes the mix"
    );
    assert_eq!(report.shed_total(), 0);
    assert_eq!(report.failed + report.stranded, 0);
    assert_eq!(
        report.plan_misses, 3,
        "DCGAN and the two extended topologies each compile exactly once"
    );
    assert_eq!(plans.resident(), 3);
    // The serving layer still adds scheduling, never arithmetic.
    for job in &jobs {
        assert_eq!(
            &report.outcomes[&job.id],
            &run_standalone(job),
            "job {} (topology {}) diverged from standalone",
            job.id,
            job.topology
        );
    }
}

#[test]
fn serve_reports_are_bit_deterministic_across_runs_and_thread_counts() {
    let run = |threads: usize| -> ServeReport {
        with_threads(threads, || {
            let mut plans = PlanCache::table_v();
            let cfg = ServeConfig {
                dead_tiles: vec![(0, 14)],
                quarantine_after_rollbacks: 1,
                recovery: RecoveryPolicy {
                    tile_kill_cells: 64,
                    ..RecoveryPolicy::default()
                },
                ..ServeConfig::pristine(3)
            }
            .with_wear(8, 1.2)
            .with_fault_rate(0.0002);
            let rate = rate_for(2.0, 3, 10, &mut plans, 0);
            ServeRuntime::new(cfg)
                .run(workload(8, 10, rate, Some(30.0)), &mut plans)
                .unwrap()
        })
    };
    let a = run(1);
    let b = run(1);
    assert_eq!(a, b, "same-thread replay must be identical");
    let c = run(8);
    assert_eq!(a, c, "worker-thread count must not leak into the report");
    a.check_conservation().unwrap();
}

//! The serving sweep's scenarios: the offered-load × fault-level grid and
//! the pair-quarantine scenario that the `serve_sweep` binary writes to
//! `BENCH_serve.json`, here so that tests can replay them.

use lergan_core::RecoveryPolicy;
use lergan_serve::job::{poisson_workload, run_standalone, WorkloadSpec};
use lergan_serve::{AdmissionPolicy, PlanCache, ServeConfig, ServeReport, ServeRuntime};

/// 3DCU pairs in the fleet.
pub const PAIRS: usize = 3;
/// Jobs per grid scenario.
pub const JOBS: u64 = 18;
/// Tenants submitting them.
pub const TENANTS: u32 = 3;
/// Training steps per job.
pub const STEPS: u64 = 10;
/// DCGAN and cGAN, by Table V order.
pub const TOPOLOGIES: [usize; 2] = [0, 1];

/// One cell of the sweep's grid.
pub struct Scenario {
    /// Row label in `BENCH_serve.json`.
    pub label: &'static str,
    /// Offered load as a fraction of fleet service capacity.
    pub rho: f64,
    /// Stuck-at rate seeded on every pair (0 = pristine).
    pub fault_rate: f64,
    /// Wear endurance mean (0 = wear disabled).
    pub endurance_mean: u64,
}

/// The grid, one row per fault level (zero-fault, then faulty), each at
/// three offered loads (≥ 3 load levels × ≥ 2 fault levels).
pub fn grid() -> [[Scenario; 3]; 2] {
    let level = |labels: [&'static str; 3], fault_rate: f64, endurance_mean: u64| {
        let loads = [0.4, 1.5, 3.5];
        std::array::from_fn(|i| Scenario {
            label: labels[i],
            rho: loads[i],
            fault_rate,
            endurance_mean,
        })
    };
    [
        level(
            ["zero_fault_low", "zero_fault_mid", "zero_fault_high"],
            0.0,
            0,
        ),
        level(["faulty_low", "faulty_mid", "faulty_high"], 0.0005, 20),
    ]
}

fn config(sc: &Scenario) -> ServeConfig {
    let mut cfg = ServeConfig {
        admission: AdmissionPolicy {
            max_queue_depth: 8,
            per_tenant_quota: 4,
        },
        ..ServeConfig::pristine(PAIRS)
    };
    if sc.fault_rate > 0.0 {
        cfg = cfg.with_fault_rate(sc.fault_rate);
    }
    if sc.endurance_mean > 0 {
        cfg = cfg.with_wear(sc.endurance_mean, 1.3);
    }
    cfg
}

/// Arrival rate that offers `rho` of the fleet's fault-free capacity,
/// from the mean service time across the traffic mix.
fn rate_for(rho: f64, plans: &mut PlanCache) -> f64 {
    let mean_iter_ns = TOPOLOGIES
        .iter()
        .map(|&t| plans.iteration_ns(t).expect("fault-free plans compile"))
        .sum::<f64>()
        / TOPOLOGIES.len() as f64;
    let service_s = STEPS as f64 * mean_iter_ns / 1e9;
    rho * PAIRS as f64 / service_s
}

/// Serves one grid scenario and checks its invariants: conservation, no
/// stranded or failed job, and zero-fault jobs bit-identical to their
/// standalone runs.
pub fn run_scenario(sc: &Scenario, plans: &mut PlanCache) -> ServeReport {
    let jobs = poisson_workload(&WorkloadSpec {
        jobs: JOBS,
        tenants: TENANTS,
        topologies: TOPOLOGIES.to_vec(),
        steps: STEPS,
        seed: 0xA11CE,
        rate_jobs_per_s: rate_for(sc.rho, plans),
        deadline_slack: Some(25.0),
    });
    let report = ServeRuntime::new(config(sc))
        .run(jobs.clone(), plans)
        .expect("workload topologies compile fault-free");
    report
        .check_conservation()
        .expect("no job may vanish from the lifecycle");
    assert_eq!(report.stranded, 0, "{}: jobs stranded", sc.label);
    assert_eq!(report.failed, 0, "{}: jobs failed terminally", sc.label);
    if sc.fault_rate == 0.0 && sc.endurance_mean == 0 {
        // Zero-fault serving must not perturb a single bit of any job.
        for job in &jobs {
            if let Some(served) = report.outcomes.get(&job.id) {
                assert_eq!(
                    served,
                    &run_standalone(job),
                    "{}: job {} diverged from standalone",
                    sc.label,
                    job.id
                );
            }
        }
    }
    report
}

/// The crippled-fleet scenario: pair 0 keeps 2 of 16 tiles, harsh wear
/// forces its recovery ladder into rollbacks, one rollback quarantines
/// it, and its queued jobs must finish on the healthy pairs.
pub fn run_quarantine(plans: &mut PlanCache) -> ServeReport {
    let cfg = ServeConfig {
        recovery: RecoveryPolicy {
            tile_kill_cells: 64,
            ..RecoveryPolicy::default()
        },
        quarantine_after_rollbacks: 1,
        dead_tiles: vec![(0, 14)],
        ..ServeConfig::pristine(PAIRS)
    }
    .with_wear(8, 1.2);
    let jobs = poisson_workload(&WorkloadSpec {
        jobs: 12,
        tenants: TENANTS,
        topologies: vec![0],
        steps: 12,
        seed: 0xA11CE,
        rate_jobs_per_s: rate_for(2.0, plans),
        deadline_slack: None,
    });
    let report = ServeRuntime::new(cfg)
        .run(jobs, plans)
        .expect("workload topologies compile fault-free");
    report
        .check_conservation()
        .expect("quarantine must not leak jobs");
    assert!(
        report.quarantined_pairs >= 1,
        "the crippled pair must retire"
    );
    assert!(report.requeued >= 1, "its queued jobs must be evacuated");
    assert_eq!(report.failed, 0, "evacuated work finishes elsewhere");
    assert_eq!(report.stranded, 0);
    assert_eq!(
        report.completed + report.shed_total(),
        report.submitted,
        "every admitted job must finish"
    );
    report
}

//! Satellite regression: poisoned serving inputs must surface as typed
//! [`ServeError`]s from [`ServeRuntime::run`], never as a panic/abort.
//!
//! Before the panic audit the runtime `assert!`ed on an empty fleet and
//! indexed the plan table with whatever topology index a job carried, so
//! a malformed job could abort the whole serving process. These tests pin
//! the typed-error contract for each poisoned-input class.

use lergan_serve::job::JobSpec;
use lergan_serve::{PlanCache, ServeConfig, ServeError, ServeRuntime};

fn job(id: u64, topology: usize, arrival_ns: f64) -> JobSpec {
    JobSpec {
        id,
        tenant: 0,
        topology,
        steps: 1,
        seed: 7,
        arrival_ns,
        deadline_slack: None,
    }
}

#[test]
fn empty_fleet_is_a_typed_error_not_an_abort() {
    let mut plans = PlanCache::table_v();
    let err = ServeRuntime::new(ServeConfig::pristine(0))
        .run(vec![job(0, 0, 0.0)], &mut plans)
        .unwrap_err();
    assert!(matches!(err, ServeError::EmptyFleet), "got {err}");
}

#[test]
fn nan_arrival_is_rejected_with_the_job_id() {
    let mut plans = PlanCache::table_v();
    let err = ServeRuntime::new(ServeConfig::pristine(2))
        .run(vec![job(0, 0, 0.0), job(1, 0, f64::NAN)], &mut plans)
        .unwrap_err();
    assert!(
        matches!(err, ServeError::InvalidArrival { job: 1 }),
        "got {err}"
    );
}

#[test]
fn infinite_arrival_is_rejected_like_nan() {
    let mut plans = PlanCache::table_v();
    let err = ServeRuntime::new(ServeConfig::pristine(2))
        .run(vec![job(3, 0, f64::INFINITY)], &mut plans)
        .unwrap_err();
    assert!(
        matches!(err, ServeError::InvalidArrival { job: 3 }),
        "got {err}"
    );
}

#[test]
fn out_of_table_topology_is_rejected_with_context() {
    let mut plans = PlanCache::table_v();
    let known = plans.specs().len();
    let err = ServeRuntime::new(ServeConfig::pristine(2))
        .run(vec![job(0, known + 5, 0.0)], &mut plans)
        .unwrap_err();
    match err {
        ServeError::UnknownTopology {
            job: 0,
            topology,
            known: k,
        } => {
            assert_eq!(topology, known + 5);
            assert_eq!(k, known);
        }
        other => panic!("expected UnknownTopology, got {other}"),
    }
}

#[test]
fn validation_rejects_before_any_work_is_done() {
    // A poisoned job anywhere in the batch fails the whole run up front:
    // no partial state, no admitted-then-lost work.
    let mut plans = PlanCache::table_v();
    let err = ServeRuntime::new(ServeConfig::pristine(2))
        .run(
            vec![job(0, 0, 0.0), job(1, usize::MAX, 10.0), job(2, 0, 20.0)],
            &mut plans,
        )
        .unwrap_err();
    assert!(matches!(err, ServeError::UnknownTopology { job: 1, .. }));
    assert_eq!(plans.hits() + plans.misses(), 0, "no plan was compiled");
}

#[test]
fn invalid_wear_spreads_are_rejected_before_any_work_is_done() {
    // `WearModel::new` asserts its spread; the runtime must refuse a bad
    // one up front instead of aborting when it builds the pairs. +∞ is
    // rejected too: it would give every cell a limit of 1 or never.
    for spread in [0.5, f64::NAN, f64::INFINITY] {
        let mut plans = PlanCache::table_v();
        let err = ServeRuntime::new(ServeConfig::pristine(2).with_wear(20, spread))
            .run(vec![job(0, 0, 0.0)], &mut plans)
            .unwrap_err();
        match err {
            ServeError::InvalidWear { spread: s } => {
                assert_eq!(s.to_bits(), spread.to_bits());
                assert!(err.to_string().contains("wear spread"), "{err}");
            }
            other => panic!("spread {spread}: expected InvalidWear, got {other}"),
        }
        assert_eq!(plans.hits() + plans.misses(), 0, "no plan was compiled");
    }
}

#[test]
fn a_valid_wear_spread_still_serves() {
    let mut plans = PlanCache::table_v();
    let report = ServeRuntime::new(ServeConfig::pristine(2).with_wear(20, 1.0))
        .run(vec![job(0, 0, 0.0)], &mut plans)
        .expect("a spread of 1 pins every cell at the mean");
    assert_eq!(report.completed, 1);
}

#[test]
fn invalid_fault_rates_are_rejected_before_any_work_is_done() {
    // A NaN rate used to route every pair down the healing path with no
    // faults: `fault_rate == 0.0` is false, `fault_rate > 0.0` too.
    for rate in [f64::NAN, -0.0005, 1.5, f64::INFINITY] {
        let mut plans = PlanCache::table_v();
        let err = ServeRuntime::new(ServeConfig::pristine(2).with_fault_rate(rate))
            .run(vec![job(0, 0, 0.0)], &mut plans)
            .unwrap_err();
        match err {
            ServeError::InvalidFaultRate { rate: r } => {
                assert_eq!(r.to_bits(), rate.to_bits());
                assert!(err.to_string().contains("stuck-at rate"), "{err}");
            }
            other => panic!("rate {rate}: expected InvalidFaultRate, got {other}"),
        }
        assert_eq!(plans.hits() + plans.misses(), 0, "no plan was compiled");
    }
    for rate in [0.0, 0.0005, 1.0] {
        let mut plans = PlanCache::table_v();
        let report = ServeRuntime::new(ServeConfig::pristine(2).with_fault_rate(rate))
            .run(vec![job(0, 0, 0.0)], &mut plans)
            .expect("a probability is a valid rate");
        assert_eq!(report.submitted, 1, "rate {rate}");
    }
}

#[test]
fn a_batch_of_the_wrong_shape_is_a_typed_error_and_is_never_replayed() {
    use lergan_core::{RecoveryError, RecoveryPolicy, SelfHealingRuntime, SystemFaults};
    use lergan_gan::train::TrainError;
    use lergan_gan::{benchmarks, Phase};
    use lergan_reram::WearModel;
    use lergan_serve::job::{batch, batch_seed, job_trainer};
    use lergan_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    // Two healthy tiles and fast wear: remaps are refused, so flagged
    // faults roll the trainer back and replay the buffered batches.
    let mut faults = SystemFaults::none();
    for tile in 1..15 {
        faults.bank_mut(Phase::GForward).kill_tile(tile);
    }
    let policy = RecoveryPolicy {
        tile_kill_cells: 64,
        ..RecoveryPolicy::default()
    };
    let wear = WearModel::new(10, 1.2, 0xACE);
    let mut rt =
        SelfHealingRuntime::new(&benchmarks::dcgan(), job_trainer(5), faults, policy, wear)
            .expect("runtime assembles");
    let mut reference = job_trainer(5);
    let mut rng = StdRng::seed_from_u64(batch_seed(5));
    // [1, 8, 8] samples into a discriminator that takes [1, 16, 16].
    let wrong = vec![Tensor::filled(&[1, 8, 8], 0.5); 2];
    let mut rejected = 0;
    for step in 0..15 {
        if step % 3 == 1 {
            let before = rt.report().clone();
            match rt.step(&wrong) {
                Err(RecoveryError::Train(TrainError::ShapeMismatch { .. })) => rejected += 1,
                other => panic!("step {step}: expected a shape mismatch, got {other:?}"),
            }
            assert_eq!(
                rt.report().steps,
                before.steps,
                "a rejected batch is no step"
            );
            assert_eq!(rt.report().total_latency_ns(), before.total_latency_ns());
        }
        let reals = batch(&mut rng);
        reference.train_step(&reals);
        rt.step(&reals).expect("a well-shaped batch trains");
    }
    assert_eq!(rejected, 5);
    assert!(
        rt.report().rolled_back > 0 && rt.report().replayed_steps > 0,
        "the run must replay buffered batches: {:?}",
        rt.report()
    );
    // A replayed rejected batch would have failed the rollback, or moved
    // the trajectory off the reference's.
    assert_eq!(rt.into_trainer().checkpoint(), reference.checkpoint());
}

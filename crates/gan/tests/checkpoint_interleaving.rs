//! Two training jobs time-sharing one trainer via checkpoint/restore.
//!
//! This is the functional contract the serving runtime leans on: a fleet
//! pair that alternates between tenants by snapshotting one job and
//! restoring another must produce, for *each* job, the bit-exact
//! trajectory that job would have produced on a dedicated trainer. The
//! dedicated trajectories come from the per-sample oracle
//! (`oracle/mod.rs`), so the tests pin both the interleaving and every
//! two-sample step against it — round-robin and irregular interleaving
//! orders, checkpoint snapshot isolation (no buffer aliasing between a
//! stored snapshot and the live trainer), and typed failure on
//! architecture mismatch.

mod oracle;

use lergan_gan::topology::parse_network;
use lergan_gan::train::{build_trainable_with, CheckpointError, Gan, GanCheckpoint, UpdateRule};
use lergan_gan::NetworkSpec;
use lergan_tensor::Tensor;
use oracle::OracleGan;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn specs() -> (NetworkSpec, NetworkSpec) {
    (
        parse_network("g", "8f-(8t-4t)(3k2s)-t1", 2, 16).unwrap(),
        parse_network("d", "(1c-8c)(3k2s)-f1", 2, 16).unwrap(),
    )
}

/// The cheap 16-pixel DCGAN-class trainer the recovery and serving sweeps
/// use, seeded so weight init, noise and batches are fully reproducible.
fn trainer(seed: u64) -> Gan {
    let (g_spec, d_spec) = specs();
    let mut rng = StdRng::seed_from_u64(seed);
    let g = build_trainable_with(&g_spec, true, false, &mut rng);
    let d = build_trainable_with(&d_spec, false, false, &mut rng);
    Gan::new(g, d, 8, 0.0, seed.wrapping_add(1)).with_optimizer(UpdateRule::dcgan_adam(0.01))
}

/// One real batch from a job's private data stream.
fn batch(rng: &mut StdRng) -> Vec<Tensor> {
    (0..2)
        .map(|_| {
            let v = 0.5 + (rng.gen::<f32>() - 0.5) * 0.2;
            Tensor::filled(&[1, 16, 16], v)
        })
        .collect()
}

/// A job's full dedicated trajectory, trained by the per-sample oracle:
/// the checkpoint after every step, which is the reference an
/// interleaved run must reproduce bit for bit.
fn dedicated_trajectory(seed: u64, steps: usize) -> Vec<GanCheckpoint> {
    let (g_spec, d_spec) = specs();
    let start = trainer(seed).checkpoint();
    let rule = UpdateRule::dcgan_adam(0.01);
    let mut oracle = OracleGan::from_checkpoint(&g_spec, &d_spec, false, &start, 8, rule);
    let mut data = StdRng::seed_from_u64(seed ^ 0xDA7A);
    (0..steps)
        .map(|_| {
            oracle.train_step(&batch(&mut data));
            oracle.checkpoint()
        })
        .collect()
}

/// One suspended job: its last checkpoint plus its private data stream.
struct Suspended {
    ckpt: GanCheckpoint,
    data: StdRng,
    steps_done: usize,
}

impl Suspended {
    fn new(seed: u64) -> Self {
        Suspended {
            ckpt: trainer(seed).checkpoint(),
            data: StdRng::seed_from_u64(seed ^ 0xDA7A),
            steps_done: 0,
        }
    }

    /// Resumes this job on `shared` for one step, then suspends it again.
    fn step_on(&mut self, shared: &mut Gan) {
        shared.restore(&self.ckpt).unwrap();
        shared.train_step(&batch(&mut self.data));
        self.ckpt = shared.checkpoint();
        self.steps_done += 1;
    }
}

#[test]
fn alternating_jobs_on_one_trainer_match_dedicated_runs_bit_exactly() {
    const STEPS: usize = 5;
    let ref_a = dedicated_trajectory(11, STEPS);
    let ref_b = dedicated_trajectory(22, STEPS);

    // The shared trainer starts as a third, unrelated job's weights: the
    // restore must overwrite every bit of state that matters.
    let mut shared = trainer(99);
    let mut a = Suspended::new(11);
    let mut b = Suspended::new(22);
    for step in 0..STEPS {
        a.step_on(&mut shared);
        b.step_on(&mut shared);
        assert_eq!(a.ckpt, ref_a[step], "job A diverged at step {step}");
        assert_eq!(b.ckpt, ref_b[step], "job B diverged at step {step}");
    }
    assert_eq!(a.ckpt, *ref_a.last().unwrap());
    assert_eq!(b.ckpt, *ref_b.last().unwrap());
    assert_ne!(
        a.ckpt, b.ckpt,
        "distinct seeds must yield distinct trajectories"
    );
}

#[test]
fn irregular_interleaving_orders_do_not_change_either_trajectory() {
    // A bursty schedule (A A B A B B A B) must land on the same final
    // checkpoints as strict alternation: each job's trajectory depends
    // only on its own checkpoint chain, never on who ran in between.
    const SCHEDULE: [u8; 8] = [0, 0, 1, 0, 1, 1, 0, 1];
    let steps_a = SCHEDULE.iter().filter(|&&s| s == 0).count();
    let steps_b = SCHEDULE.len() - steps_a;
    let ref_a = dedicated_trajectory(11, steps_a);
    let ref_b = dedicated_trajectory(22, steps_b);

    let mut shared = trainer(99);
    let mut a = Suspended::new(11);
    let mut b = Suspended::new(22);
    for &slot in &SCHEDULE {
        let job = if slot == 0 { &mut a } else { &mut b };
        job.step_on(&mut shared);
    }
    assert_eq!(a.steps_done, steps_a);
    assert_eq!(b.steps_done, steps_b);
    assert_eq!(
        a.ckpt,
        *ref_a.last().unwrap(),
        "job A sensitive to schedule"
    );
    assert_eq!(
        b.ckpt,
        *ref_b.last().unwrap(),
        "job B sensitive to schedule"
    );
}

#[test]
fn stored_checkpoints_do_not_alias_the_live_trainer() {
    // A snapshot must be a deep copy: training the shared trainer after
    // taking it must not mutate the stored bytes, or a suspended tenant's
    // state would be corrupted by whoever runs next.
    let mut shared = trainer(11);
    let mut data = StdRng::seed_from_u64(0xFEED);
    shared.train_step(&batch(&mut data));
    let snapshot = shared.checkpoint();
    let frozen = snapshot.clone();

    // Drive the live trainer far away from the snapshot.
    for _ in 0..3 {
        shared.train_step(&batch(&mut data));
    }
    assert_eq!(snapshot, frozen, "snapshot mutated by later training");
    assert_ne!(
        shared.checkpoint(),
        snapshot,
        "training must move the live state"
    );

    // Restoring rewinds the live trainer onto the stored bytes exactly.
    shared.restore(&snapshot).unwrap();
    assert_eq!(shared.checkpoint(), frozen, "restore must be bit-exact");
}

#[test]
fn restoring_into_a_mismatched_architecture_fails_typed() {
    let donor = trainer(11).checkpoint();
    // A different discriminator depth: restore must refuse, not clobber.
    let g_spec = parse_network("g", "8f-(8t-4t)(3k2s)-t1", 2, 16).unwrap();
    let d_spec = parse_network("d", "(1c-4c-8c)(3k2s)-f1", 2, 16).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let g = build_trainable_with(&g_spec, true, false, &mut rng);
    let d = build_trainable_with(&d_spec, false, false, &mut rng);
    let mut other = Gan::new(g, d, 8, 0.0, 8);
    let err = other.restore(&donor).unwrap_err();
    assert!(
        matches!(err, CheckpointError::LayerCountMismatch { .. }),
        "expected a typed layer-count mismatch, got {err:?}"
    );
}

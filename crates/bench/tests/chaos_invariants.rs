//! Integration gates over the chaos-campaign engine: the committed
//! campaign set passes every standing invariant with full
//! recovery-ladder arm coverage, campaigns replay bit-identically, and
//! a deliberately broken invariant shrinks to a minimal seeded
//! reproducer. The figures the plan cache memoises for faulted builds,
//! over the campaigns and the serving sweep's scenarios, are those of a
//! fresh build.

use lergan_bench::chaos::{
    campaigns, run_campaign, shrink, ArmCoverage, ChaosSpec, CAMPAIGNS, MASTER_SEED,
};
use lergan_bench::serve::{grid, run_quarantine, run_scenario};
use lergan_core::{IterationFigures, LerGan};
use lergan_serve::PlanCache;

/// Checks every faulted build `plans` memoised against a fresh build of
/// its topology under its key, bit for bit; returns how many there were.
fn check_faulted_memo(plans: &PlanCache) -> usize {
    let mut memoised = 0;
    for (topology, key, figures) in plans.faulted_figures() {
        let built = LerGan::builder(plans.spec(topology))
            .faults(key.clone())
            .build()
            .expect("a memoised build succeeded once");
        let built = IterationFigures::of(&built);
        assert_eq!(
            (
                figures.iteration_ns.to_bits(),
                figures.g_forward_ns.to_bits()
            ),
            (built.iteration_ns.to_bits(), built.g_forward_ns.to_bits()),
            "topology {topology} under {key:?}"
        );
        memoised += 1;
    }
    memoised
}

#[test]
fn committed_campaign_set_passes_with_full_arm_coverage() {
    let mut plans = PlanCache::extended();
    let mut total = ArmCoverage::default();
    for spec in &campaigns(MASTER_SEED, CAMPAIGNS) {
        let o = run_campaign(spec, &mut plans);
        assert!(
            o.violations.is_empty(),
            "{}: standing invariants violated:\n  {}",
            spec.label,
            o.violations.join("\n  ")
        );
        let slowdown = o.runtime.slowdown();
        assert!(slowdown >= 1.0, "{}: slowdown {slowdown}", spec.label);
        o.serve.check_conservation().expect("conservation");
        total.merge(&o.arms);
    }
    assert_eq!(
        total.missing(),
        Vec::<&str>::new(),
        "every recovery-ladder arm must fire across the campaign set"
    );
    assert!(check_faulted_memo(&plans) > 0, "no pair started faulted");
}

#[test]
fn serve_sweep_memoises_the_faulted_builds_it_starts_from() {
    let mut plans = PlanCache::table_v();
    for level in grid() {
        for sc in &level {
            run_scenario(sc, &mut plans);
        }
    }
    run_quarantine(&mut plans);
    assert!(check_faulted_memo(&plans) > 0, "no pair started faulted");
}

#[test]
fn campaigns_replay_bit_identically() {
    // Same schedule, fresh plan cache: the outcome — serve report,
    // checkpoints, arm counts, latency floats — must compare equal.
    let spec = &campaigns(MASTER_SEED, 4)[3]; // link_flaky: every layer live
    let first = run_campaign(spec, &mut PlanCache::extended());
    let replay = run_campaign(spec, &mut PlanCache::extended());
    assert_eq!(first, replay);
    assert!(first.arms.retransmitted > 0, "the link arm actually fired");
}

#[test]
fn broken_invariant_shrinks_to_a_minimal_seeded_reproducer() {
    // Deliberately break an invariant: pretend "no job may ever
    // complete" is a law of the system. Every healthy campaign violates
    // it, so the shrinker must strip the schedule down to the smallest
    // campaign that still completes a job — and that is the whole point:
    // the reproducer isolates *what makes the invariant fail* (here,
    // any serving at all) from the chaos that happened to surround it.
    let big = ChaosSpec {
        label: "broken_invariant_demo".into(),
        seed: 0xDE0_5EED,
        topology: 0,
        rt_steps: 2,
        stuck_rate: 0.0005,
        endurance_mean: 20,
        dead_tiles: 0,
        tile_kill_cells: 0,
        link_flip: 0.2,
        link_drop: 0.05,
        link_burst: false,
        pairs: 2,
        jobs: 3,
        tenants: 2,
        job_steps: 2,
        rate_scale: 1.5,
        cripple_pair: false,
    };
    let mut plans = PlanCache::extended();
    let fails = |s: &ChaosSpec| run_campaign(s, &mut plans).serve.completed > 0;
    let min = shrink(&big, fails);

    // Still a reproducer...
    let mut plans = PlanCache::extended();
    let o = run_campaign(&min, &mut plans);
    assert!(
        o.serve.completed > 0,
        "the shrunk schedule still reproduces"
    );
    // ...and minimal: one job, one step, one pair, every fault source
    // shed — the broken invariant needs none of the chaos.
    assert_eq!(min.jobs, 1);
    assert_eq!(min.job_steps, 1);
    assert_eq!(min.pairs, 1);
    assert_eq!(min.rt_steps, 1);
    assert_eq!(min.stuck_rate, 0.0);
    assert_eq!(min.endurance_mean, 0);
    assert_eq!(min.link_flip, 0.0);
    // Seeded: the reproducer replays exactly.
    assert_eq!(min.seed, big.seed);
    let again = run_campaign(&min, &mut PlanCache::extended());
    assert_eq!(o, again);
}

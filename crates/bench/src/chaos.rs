//! Deterministic chaos campaigns: seeded cross-layer fault schedules with
//! standing invariants and a shrinking reproducer.
//!
//! A campaign is one [`ChaosSpec`]: a seeded schedule that composes fault
//! sources across every layer of the stack at once —
//!
//! * stuck-at cell populations and mid-run wear breaks (ReRAM layer),
//! * transient link bit-flips, drops and flaky-link burst episodes
//!   (NoC layer, via [`lergan_core::LinkChaos`]),
//! * pre-killed tiles and a crippled pair that the serving layer must
//!   quarantine (fleet layer),
//! * Poisson job bursts through the multi-tenant serving runtime.
//!
//! [`run_campaign`] drives the schedule through two legs — a direct
//! [`SelfHealingRuntime`] run and a full [`ServeRuntime`] fleet run — and
//! checks the standing invariants after each:
//!
//! 1. **bit-identity** — a healed run's final checkpoint equals the
//!    never-faulted twin's, and every completed served job equals its
//!    standalone trajectory;
//! 2. **conservation** — `submitted = completed + failed + stranded +
//!    shed` ([`ServeReport::check_conservation`]);
//! 3. **slowdown ≥ 1** — healing can never beat the clean baseline;
//! 4. **no stranding** — admitted work is stranded only when every pair
//!    in the fleet is dead (quarantined);
//! 5. **every detection resolves** — a runtime leg that finished its
//!    steps corrected, remapped or rolled back each fault it detected;
//! 6. **detection is paid** — the ABFT checksum column costs a non-zero
//!    share of compute on every runtime leg.
//!
//! Violations come back as strings, not panics, so the campaign engine
//! can [`shrink`] a failing schedule to a minimal seeded reproducer.
//! [`ArmCoverage`] tallies which arms of the recovery ladder actually
//! fired (Corrected / Remapped / RolledBack / Retransmitted, plus wire
//! and pair quarantine); the `chaos_sweep` bin and CI gate require every
//! arm to fire at least once across the campaign set — a chaos suite
//! that never exercises an arm is not testing it.
//!
//! Everything is seeded: the same master seed yields byte-identical
//! campaigns, outcomes and JSON at any `LERGAN_THREADS`.

use lergan_core::{LinkChaos, RecoveryPolicy, RecoveryReport, SelfHealingRuntime, SystemFaults};
use lergan_gan::Phase;
use lergan_reram::{FaultMap, WearModel};
use lergan_serve::job::{
    batch, batch_seed, job_trainer, poisson_workload, run_standalone, WorkloadSpec,
};
use lergan_serve::{PlanCache, ServeConfig, ServeReport, ServeRuntime};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Master seed of the committed campaign set (`BENCH_chaos.json`).
/// Fixed: CI diffs the JSON.
pub const MASTER_SEED: u64 = 0xC4A05;

/// Campaigns in the committed set: one per fault theme.
pub const CAMPAIGNS: usize = 6;

/// SplitMix64 finalizer: the campaign generator's only source of
/// randomness, pure in its input.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The fault themes a campaign set cycles through. Each theme pins the
/// knobs that make one arm of the recovery ladder fire; the seed still
/// varies every stream underneath.
const THEMES: [&str; 6] = [
    "stuck_cells",
    "wear_remap",
    "wear_rollback",
    "link_flaky",
    "link_burst",
    "pair_death",
];

/// One seeded cross-layer fault schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSpec {
    /// Theme label (one of the generator's themes, or "custom").
    pub label: String,
    /// Seed of every stream the campaign draws (fault maps, wear order,
    /// link hazards, workload arrivals).
    pub seed: u64,
    /// Topology index the runtime leg compiles (extended table:
    /// Table V plus the PR 8 op-algebra topologies).
    pub topology: usize,
    /// Optimiser steps of the runtime leg.
    pub rt_steps: u64,
    /// Stuck-at rate seeded on the monitored bank (0 = none).
    pub stuck_rate: f64,
    /// Wear endurance mean; 0 disables wear.
    pub endurance_mean: u64,
    /// Tiles pre-killed on the runtime leg's monitored bank.
    pub dead_tiles: usize,
    /// `tile_kill_cells` policy override; 0 keeps the default.
    pub tile_kill_cells: usize,
    /// Transient link bit-flip rate (0 = link model off).
    pub link_flip: f64,
    /// Transient link drop rate.
    pub link_drop: f64,
    /// Whether a fabric-wide flaky-link burst episode is scheduled.
    pub link_burst: bool,
    /// Pairs in the serve leg's fleet.
    pub pairs: usize,
    /// Jobs offered to the serve leg.
    pub jobs: u64,
    /// Tenants across those jobs.
    pub tenants: u32,
    /// Steps per served job.
    pub job_steps: u64,
    /// Offered load as a multiple of one pair's service rate.
    pub rate_scale: f64,
    /// Cripple pair 0 (dead tiles + instant quarantine threshold): the
    /// pair-death arm. Its evacuated jobs must finish elsewhere.
    pub cripple_pair: bool,
}

impl ChaosSpec {
    /// The transient-link hazard this campaign schedules, if any.
    pub fn link_chaos(&self) -> Option<LinkChaos> {
        if self.link_flip == 0.0 && self.link_drop == 0.0 && !self.link_burst {
            return None;
        }
        Some(LinkChaos {
            seed: splitmix(self.seed ^ 0x11CC),
            flip_rate: self.link_flip,
            drop_rate: self.link_drop,
            burst: self.link_burst.then_some((0, 64, 0.97)),
        })
    }

    /// The recovery policy the campaign runs under.
    pub fn policy(&self) -> RecoveryPolicy {
        let mut p = RecoveryPolicy::default();
        if self.tile_kill_cells > 0 {
            p.tile_kill_cells = self.tile_kill_cells;
        }
        p
    }

    /// The serve leg's fleet configuration.
    pub fn serve_config(&self) -> ServeConfig {
        let mut cfg = ServeConfig {
            recovery: self.policy(),
            seed: splitmix(self.seed ^ 0x5E57E),
            ..ServeConfig::pristine(self.pairs)
        };
        if self.stuck_rate > 0.0 {
            cfg = cfg.with_fault_rate(self.stuck_rate);
        }
        if self.endurance_mean > 0 {
            cfg = cfg.with_wear(self.endurance_mean, 1.3);
        }
        if let Some(chaos) = self.link_chaos() {
            cfg = cfg.with_link_chaos(chaos);
        }
        if self.cripple_pair {
            cfg.dead_tiles = vec![(0, 14)];
            cfg.quarantine_after_rollbacks = 1;
        }
        cfg
    }
}

/// Which arms of the recovery ladder fired across a campaign (set).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArmCoverage {
    /// Relocate-and-replay corrections.
    pub corrected: u64,
    /// Tile-kill remaps committed.
    pub remapped: u64,
    /// Checkpoint rollbacks.
    pub rolled_back: u64,
    /// Transfers delivered only after link retransmission.
    pub retransmitted: u64,
    /// Flaky wires soft-quarantined and routed around.
    pub link_quarantined: u64,
    /// Fleet pairs quarantined.
    pub pair_quarantined: u64,
}

impl ArmCoverage {
    /// Accumulates another tally.
    pub fn merge(&mut self, other: &ArmCoverage) {
        self.corrected += other.corrected;
        self.remapped += other.remapped;
        self.rolled_back += other.rolled_back;
        self.retransmitted += other.retransmitted;
        self.link_quarantined += other.link_quarantined;
        self.pair_quarantined += other.pair_quarantined;
    }

    /// Names of the ladder arms that never fired — the coverage gate's
    /// failure list (empty = full coverage).
    pub fn missing(&self) -> Vec<&'static str> {
        let mut m = Vec::new();
        if self.corrected == 0 {
            m.push("corrected");
        }
        if self.remapped == 0 {
            m.push("remapped");
        }
        if self.rolled_back == 0 {
            m.push("rolled_back");
        }
        if self.retransmitted == 0 {
            m.push("retransmitted");
        }
        if self.link_quarantined == 0 {
            m.push("link_quarantined");
        }
        if self.pair_quarantined == 0 {
            m.push("pair_quarantined");
        }
        m
    }
}

/// What one campaign did: the runtime and serve legs' reports, the
/// ladder arms that fired, and the invariant violations (empty on a
/// healthy stack).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignOutcome {
    /// The schedule that ran.
    pub spec: ChaosSpec,
    /// The serve leg's full report.
    pub serve: ServeReport,
    /// Ladder arms fired across both legs.
    pub arms: ArmCoverage,
    /// Standing-invariant violations (empty = campaign passed).
    pub violations: Vec<String>,
    /// The runtime leg's recovery accounting (default when the leg was
    /// unplaceable).
    pub runtime: RecoveryReport,
    /// Runtime leg's link retransmissions per transfer.
    pub retransmit_rate: f64,
}

/// Generates `n` seeded campaigns from `master_seed`, cycling the fault
/// themes so every arm of the recovery ladder has a campaign aimed at
/// it. Deterministic: same inputs, same schedules, byte for byte.
pub fn campaigns(master_seed: u64, n: usize) -> Vec<ChaosSpec> {
    (0..n)
        .map(|i| {
            let theme = THEMES[i % THEMES.len()];
            let seed = splitmix(master_seed.wrapping_add(i as u64));
            // Topology rotates over DCGAN, cGAN and the PR 8 extended
            // op-algebra entries (indices 8, 9 in the extended table).
            let topology = [0usize, 1, 8, 9][i % 4];
            let mut spec = ChaosSpec {
                label: format!("{theme}_{i}"),
                seed,
                topology,
                rt_steps: 30,
                stuck_rate: 0.0,
                endurance_mean: 0,
                dead_tiles: 0,
                tile_kill_cells: 0,
                link_flip: 0.0,
                link_drop: 0.0,
                link_burst: false,
                pairs: 3,
                jobs: 8,
                tenants: 2,
                job_steps: 8,
                rate_scale: 1.5,
                cripple_pair: false,
            };
            match theme {
                // Pre-damaged bank + mild wear: breaks land in small
                // bursts relocation can absorb — the Corrected arm fires.
                "stuck_cells" => {
                    spec.stuck_rate = 0.0005;
                    spec.endurance_mean = 20;
                }
                // Concentrated wear condemns tiles: the Remapped arm.
                "wear_remap" => {
                    spec.endurance_mean = 15;
                }
                // Wear with no spare tiles: remap impossible, the
                // RolledBack arm fires.
                "wear_rollback" => {
                    spec.endurance_mean = 10;
                    spec.dead_tiles = 14;
                    spec.tile_kill_cells = 64;
                }
                // Steady link flakiness: CRC catches, the Retransmitted
                // arm fires.
                "link_flaky" => {
                    spec.link_flip = 0.3;
                    spec.link_drop = 0.1;
                }
                // A fabric-wide burst episode: streaks soft-quarantine
                // wires and Dijkstra reroutes.
                "link_burst" => {
                    spec.link_flip = 0.05;
                    spec.link_burst = true;
                }
                // A crippled pair under wear: the serving layer must
                // quarantine it and finish its jobs elsewhere.
                _ => {
                    spec.endurance_mean = 8;
                    spec.tile_kill_cells = 64;
                    spec.cripple_pair = true;
                    spec.jobs = 10;
                    spec.job_steps = 10;
                    spec.rate_scale = 2.0;
                }
            }
            spec
        })
        .collect()
}

/// Runs one campaign: the runtime leg, the serve leg, and the standing
/// invariants over both. Never panics on a violated invariant — it is
/// reported in `violations` so the caller can [`shrink`] the schedule.
pub fn run_campaign(spec: &ChaosSpec, plans: &mut PlanCache) -> CampaignOutcome {
    let mut violations = Vec::new();
    let mut arms = ArmCoverage::default();
    let mut runtime = RecoveryReport::default();
    let mut retransmit_rate = 0.0;

    // ---- Runtime leg: one SelfHealingRuntime under the full schedule.
    let gan_spec = plans.spec(spec.topology).clone();
    let mut faults = SystemFaults::none();
    if spec.stuck_rate > 0.0 {
        *faults.bank_mut(Phase::GForward) =
            FaultMap::seeded(splitmix(spec.seed ^ 0xFA17), spec.stuck_rate, 300_000);
    }
    for t in 1..=spec.dead_tiles {
        faults.bank_mut(Phase::GForward).kill_tile(t);
    }
    let wear = if spec.endurance_mean > 0 {
        WearModel::new(spec.endurance_mean, 1.3, splitmix(spec.seed ^ 0x3EA2))
    } else {
        WearModel::disabled()
    };
    match SelfHealingRuntime::new(
        &gan_spec,
        job_trainer(spec.seed),
        faults,
        spec.policy(),
        wear,
    ) {
        Err(e) => violations.push(format!("runtime leg unplaceable: {e}")),
        Ok(rt) => {
            let mut rt = match spec.link_chaos() {
                Some(chaos) => rt.with_link(chaos.transients(0)),
                None => rt,
            };
            let mut rng = StdRng::seed_from_u64(batch_seed(spec.seed));
            let mut completed = 0;
            let mut died = None;
            for _ in 0..spec.rt_steps {
                match rt.step(&batch(&mut rng)) {
                    Ok(_) => completed += 1,
                    Err(e) => {
                        died = Some(e.to_string());
                        break;
                    }
                }
            }
            retransmit_rate = rt.link_report().map_or(0.0, |l| l.retransmit_rate());
            let drained = rt.drain();
            let r = &drained.report;
            arms.merge(&ArmCoverage {
                corrected: r.corrected,
                remapped: r.remapped,
                rolled_back: r.rolled_back,
                retransmitted: r.retransmitted,
                link_quarantined: r.link_quarantined,
                pair_quarantined: 0,
            });
            let slowdown = r.slowdown();
            if slowdown < 1.0 {
                violations.push(format!(
                    "{}: healed run beat the clean baseline (slowdown {slowdown})",
                    spec.label
                ));
            }
            let resolved = r.corrected + r.remapped + r.rolled_back;
            if died.is_none() && resolved < r.detected {
                violations.push(format!(
                    "{}: {resolved} of {} detections resolved",
                    spec.label, r.detected
                ));
            }
            if r.detection_overhead_frac() <= 0.0 {
                violations.push(format!(
                    "{}: runtime leg paid no detection overhead",
                    spec.label
                ));
            }
            // Bit-identity against the never-faulted twin: same trainer,
            // same batch stream, no hardware at all. A run the ladder
            // could not finish restarts elsewhere — time lost, never bits
            // — so the twin replays exactly the completed steps.
            let mut twin = job_trainer(spec.seed);
            let mut twin_rng = StdRng::seed_from_u64(batch_seed(spec.seed));
            for _ in 0..completed {
                twin.train_step(&batch(&mut twin_rng));
            }
            if died.is_none() && drained.trainer.checkpoint() != twin.checkpoint() {
                violations.push(format!(
                    "{}: healed run diverged from the never-faulted twin",
                    spec.label
                ));
            }
            runtime = drained.report;
        }
    }

    // ---- Serve leg: the same fault composition through the fleet.
    let jobs = poisson_workload(&WorkloadSpec {
        jobs: spec.jobs,
        tenants: spec.tenants,
        topologies: vec![0, 1],
        steps: spec.job_steps,
        seed: splitmix(spec.seed ^ 0x0B5),
        rate_jobs_per_s: spec.rate_scale * 40.0,
        deadline_slack: None,
    });
    let serve = match ServeRuntime::new(spec.serve_config()).run(jobs.clone(), plans) {
        Ok(report) => report,
        Err(e) => {
            violations.push(format!(
                "{}: serve leg refused the workload: {e}",
                spec.label
            ));
            ServeReport::default()
        }
    };
    if let Err(e) = serve.check_conservation() {
        violations.push(format!("{}: {e}", spec.label));
    }
    if serve.stranded > 0 && serve.quarantined_pairs < serve.pairs {
        violations.push(format!(
            "{}: {} jobs stranded with {} of {} pairs still alive",
            spec.label,
            serve.stranded,
            serve.pairs - serve.quarantined_pairs,
            serve.pairs
        ));
    }
    for job in &jobs {
        if let Some(outcome) = serve.outcomes.get(&job.id) {
            if outcome != &run_standalone(job) {
                violations.push(format!(
                    "{}: served job {} diverged from its standalone trajectory",
                    spec.label, job.id
                ));
            }
        }
    }
    arms.merge(&ArmCoverage {
        corrected: serve.healing.corrected,
        remapped: serve.healing.remapped,
        rolled_back: serve.healing.rolled_back,
        retransmitted: serve.healing.retransmitted,
        link_quarantined: serve.healing.link_quarantined,
        pair_quarantined: serve.quarantined_pairs,
    });

    CampaignOutcome {
        spec: spec.clone(),
        serve,
        arms,
        violations,
        runtime,
        retransmit_rate,
    }
}

/// Greedily shrinks a failing campaign to a minimal seeded reproducer:
/// the smallest schedule (fewest jobs/steps/pairs, fewest fault sources)
/// for which `fails` still returns true. Deterministic: reductions are
/// tried in a fixed order and the first that preserves the failure is
/// kept, restarting until a fixed point.
///
/// `fails` is typically `|s| !run_campaign(s, plans).violations.is_empty()`
/// for a real invariant breach; the returned spec carries its seed, so
/// re-running it reproduces the violation exactly.
pub fn shrink(spec: &ChaosSpec, mut fails: impl FnMut(&ChaosSpec) -> bool) -> ChaosSpec {
    let mut best = spec.clone();
    if !fails(&best) {
        return best;
    }
    // Each reduction proposes a strictly smaller schedule, or None when
    // the field is already minimal.
    type Reduction = fn(&ChaosSpec) -> Option<ChaosSpec>;
    let reductions: [Reduction; 12] = [
        |s| {
            (s.stuck_rate > 0.0).then(|| ChaosSpec {
                stuck_rate: 0.0,
                ..s.clone()
            })
        },
        |s| {
            (s.endurance_mean > 0).then(|| ChaosSpec {
                endurance_mean: 0,
                ..s.clone()
            })
        },
        |s| {
            (s.dead_tiles > 0).then(|| ChaosSpec {
                dead_tiles: 0,
                ..s.clone()
            })
        },
        |s| {
            (s.link_flip > 0.0 || s.link_drop > 0.0 || s.link_burst).then(|| ChaosSpec {
                link_flip: 0.0,
                link_drop: 0.0,
                link_burst: false,
                ..s.clone()
            })
        },
        |s| {
            s.cripple_pair.then(|| ChaosSpec {
                cripple_pair: false,
                ..s.clone()
            })
        },
        |s| {
            (s.tile_kill_cells > 0).then(|| ChaosSpec {
                tile_kill_cells: 0,
                ..s.clone()
            })
        },
        |s| {
            (s.rt_steps > 1).then(|| ChaosSpec {
                rt_steps: s.rt_steps / 2,
                ..s.clone()
            })
        },
        |s| {
            (s.rt_steps > 1).then(|| ChaosSpec {
                rt_steps: s.rt_steps - 1,
                ..s.clone()
            })
        },
        |s| {
            (s.jobs > 1).then(|| ChaosSpec {
                jobs: s.jobs / 2,
                ..s.clone()
            })
        },
        |s| {
            (s.jobs > 1).then(|| ChaosSpec {
                jobs: s.jobs - 1,
                ..s.clone()
            })
        },
        |s| {
            (s.job_steps > 1).then(|| ChaosSpec {
                job_steps: s.job_steps / 2,
                ..s.clone()
            })
        },
        |s| {
            (s.pairs > 1).then(|| ChaosSpec {
                pairs: s.pairs - 1,
                ..s.clone()
            })
        },
    ];
    'outer: loop {
        for reduce in &reductions {
            if let Some(candidate) = reduce(&best) {
                if fails(&candidate) {
                    best = candidate;
                    continue 'outer;
                }
            }
        }
        break;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_generation_is_deterministic_and_themed() {
        let a = campaigns(MASTER_SEED, CAMPAIGNS);
        let b = campaigns(MASTER_SEED, CAMPAIGNS);
        assert_eq!(a, b);
        assert_eq!(a.len(), CAMPAIGNS);
        // One campaign per theme in the first cycle.
        for (spec, theme) in a.iter().zip(THEMES) {
            assert!(spec.label.starts_with(theme), "{} !~ {theme}", spec.label);
        }
        // A different master seed reseeds every schedule.
        let c = campaigns(MASTER_SEED + 1, CAMPAIGNS);
        assert!(a.iter().zip(&c).all(|(x, y)| x.seed != y.seed));
    }

    #[test]
    fn arm_coverage_reports_what_never_fired() {
        let mut arms = ArmCoverage::default();
        assert_eq!(arms.missing().len(), 6);
        arms.merge(&ArmCoverage {
            corrected: 1,
            retransmitted: 3,
            ..ArmCoverage::default()
        });
        let missing = arms.missing();
        assert!(!missing.contains(&"corrected"));
        assert!(!missing.contains(&"retransmitted"));
        assert!(missing.contains(&"remapped"));
        assert!(missing.contains(&"pair_quarantined"));
    }

    #[test]
    fn shrink_finds_a_minimal_reproducer() {
        // Stand-in failing predicate: "fails whenever wear is on AND the
        // runtime leg runs ≥ 4 steps". The minimal reproducer must keep
        // both conditions and shed everything else.
        let big = &campaigns(7, 6)[5]; // pair_death theme: everything on
        assert!(big.cripple_pair && big.endurance_mean > 0);
        let min = shrink(big, |s| s.endurance_mean > 0 && s.rt_steps >= 4);
        assert!(min.endurance_mean > 0 && min.rt_steps >= 4, "still fails");
        assert_eq!(min.rt_steps, 4, "steps shrunk to the boundary");
        assert_eq!(min.jobs, 1);
        assert_eq!(min.pairs, 1);
        assert_eq!(min.stuck_rate, 0.0);
        assert!(!min.cripple_pair);
        assert_eq!(min.seed, big.seed, "the reproducer keeps its seed");
    }

    #[test]
    fn shrink_returns_passing_specs_untouched() {
        let spec = &campaigns(7, 1)[0];
        assert_eq!(&shrink(spec, |_| false), spec);
    }
}

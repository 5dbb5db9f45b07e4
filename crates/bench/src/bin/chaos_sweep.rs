//! Chaos-campaign sweep, written to `BENCH_chaos.json`.
//!
//! Generates the seeded campaign set (one campaign per fault theme:
//! stuck cells, wear-driven remaps, wear-driven rollbacks, steady link
//! flakiness, a fabric-wide link burst, and a crippled pair the fleet
//! must quarantine), runs each through both legs — a direct
//! [`SelfHealingRuntime`](lergan_core::SelfHealingRuntime) and the
//! multi-tenant [`ServeRuntime`](lergan_serve::ServeRuntime) fleet —
//! and asserts before writing:
//!
//! * **no violations** — every standing invariant (bit-identity to the
//!   never-faulted twin, `ServeReport` conservation, slowdown ≥ 1,
//!   nothing stranded while a pair lives, every runtime-leg detection
//!   resolved, a non-zero detection overhead) holds on every campaign;
//! * **full ladder coverage** — Corrected, Remapped, RolledBack,
//!   Retransmitted, wire quarantine and pair quarantine each fired at
//!   least once across the set. A chaos suite that never exercises an
//!   arm is not testing it.
//!
//! The JSON carries the per-campaign rows (the runtime leg's recovery
//! accounting — detections, ladder outcomes, retries, wear damage,
//! checkpoints, replays, detection overhead, MTTR, rollback rate,
//! slowdown — plus the serve leg's lifecycle counts), the arm-coverage
//! map, and MTTR / retransmit-rate percentiles across campaigns.
//! Everything is seeded; running the sweep twice, at any
//! `LERGAN_THREADS`, produces byte-identical output. Usage: `chaos_sweep [output.json]` (default
//! `BENCH_chaos.json`).

use lergan_bench::chaos::{
    campaigns, run_campaign, ArmCoverage, CampaignOutcome, CAMPAIGNS, MASTER_SEED,
};
use lergan_serve::PlanCache;

/// Nearest-rank percentile over an ascending-sorted slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn row_json(o: &CampaignOutcome) -> String {
    let s = &o.spec;
    let rt = &o.runtime;
    let r = &o.serve;
    format!(
        "    {{ \"campaign\": \"{}\", \"seed\": {}, \"topology\": {}, \"rt_steps\": {}, \
         \"stuck_rate\": {}, \"endurance_mean\": {}, \"dead_tiles\": {}, \
         \"link_flip\": {}, \"link_drop\": {}, \"link_burst\": {}, \"cripple_pair\": {}, \
         \"violations\": {}, \"detected\": {}, \"corrected\": {}, \"remapped\": {}, \
         \"rolled_back\": {}, \"retries\": {}, \"wear_broken_cells\": {}, \
         \"quarantined_cells\": {}, \"checkpoints_taken\": {}, \"replayed_steps\": {}, \
         \"detection_overhead_pct\": {:.4}, \"mttr_ns\": {:.0}, \"rollback_rate\": {:.6}, \
         \"slowdown\": {:.6}, \"retransmit_rate\": {:.6}, \
         \"arms\": {{ \"corrected\": {}, \"remapped\": {}, \"rolled_back\": {}, \
         \"retransmitted\": {}, \"link_quarantined\": {}, \"pair_quarantined\": {} }}, \
         \"serve\": {{ \"submitted\": {}, \"completed\": {}, \"failed\": {}, \
         \"stranded\": {}, \"requeued\": {}, \"job_retries\": {}, \
         \"quarantined_pairs\": {} }} }}",
        s.label,
        s.seed,
        s.topology,
        s.rt_steps,
        s.stuck_rate,
        s.endurance_mean,
        s.dead_tiles,
        s.link_flip,
        s.link_drop,
        s.link_burst,
        s.cripple_pair,
        o.violations.len(),
        rt.detected,
        rt.corrected,
        rt.remapped,
        rt.rolled_back,
        rt.retries,
        rt.wear_broken_cells,
        rt.quarantined_cells,
        rt.checkpoints_taken,
        rt.replayed_steps,
        rt.detection_overhead_frac() * 100.0,
        rt.mttr_ns(),
        rt.rollback_rate(),
        rt.slowdown(),
        o.retransmit_rate,
        o.arms.corrected,
        o.arms.remapped,
        o.arms.rolled_back,
        o.arms.retransmitted,
        o.arms.link_quarantined,
        o.arms.pair_quarantined,
        r.submitted,
        r.completed,
        r.failed,
        r.stranded,
        r.requeued,
        r.job_retries,
        r.quarantined_pairs,
    )
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_chaos.json".to_string());

    // Extended table: the campaigns rotate over Table V *and* the PR 8
    // op-algebra topologies.
    let mut plans = PlanCache::extended();
    let specs = campaigns(MASTER_SEED, CAMPAIGNS);
    let mut outcomes = Vec::new();
    let mut total = ArmCoverage::default();

    for spec in &specs {
        let o = run_campaign(spec, &mut plans);
        println!(
            "{:<16} detected {:>2}  arms c/m/rb/rt/lq/pq {}/{}/{}/{}/{}/{}  \
             slowdown {:.4}x  serve {}/{} done  violations {}",
            spec.label,
            o.runtime.detected,
            o.arms.corrected,
            o.arms.remapped,
            o.arms.rolled_back,
            o.arms.retransmitted,
            o.arms.link_quarantined,
            o.arms.pair_quarantined,
            o.runtime.slowdown(),
            o.serve.completed,
            o.serve.submitted,
            o.violations.len(),
        );
        assert!(
            o.violations.is_empty(),
            "{}: standing invariants violated:\n  {}",
            spec.label,
            o.violations.join("\n  ")
        );
        total.merge(&o.arms);
        outcomes.push(o);
    }

    // The coverage gate: every arm of the recovery ladder must have
    // fired somewhere in the set.
    let missing = total.missing();
    assert!(
        missing.is_empty(),
        "recovery-ladder arms never exercised by the campaign set: {missing:?}"
    );

    let mut mttrs: Vec<f64> = outcomes.iter().map(|o| o.runtime.mttr_ns()).collect();
    mttrs.sort_by(f64::total_cmp);
    let mut rates: Vec<f64> = outcomes.iter().map(|o| o.retransmit_rate).collect();
    rates.sort_by(f64::total_cmp);

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"master_seed\": {MASTER_SEED}, \"campaigns\": {CAMPAIGNS},\n"
    ));
    json.push_str(&format!(
        "  \"arm_coverage\": {{ \"corrected\": {}, \"remapped\": {}, \"rolled_back\": {}, \
         \"retransmitted\": {}, \"link_quarantined\": {}, \"pair_quarantined\": {} }},\n",
        total.corrected,
        total.remapped,
        total.rolled_back,
        total.retransmitted,
        total.link_quarantined,
        total.pair_quarantined,
    ));
    json.push_str(&format!(
        "  \"mttr_ns\": {{ \"p50\": {:.0}, \"p90\": {:.0}, \"max\": {:.0} }},\n",
        percentile(&mttrs, 0.50),
        percentile(&mttrs, 0.90),
        percentile(&mttrs, 1.0),
    ));
    json.push_str(&format!(
        "  \"retransmit_rate\": {{ \"p50\": {:.6}, \"p90\": {:.6}, \"max\": {:.6} }},\n",
        percentile(&rates, 0.50),
        percentile(&rates, 0.90),
        percentile(&rates, 1.0),
    ));
    json.push_str("  \"sweep\": [\n");
    for (i, o) in outcomes.iter().enumerate() {
        json.push_str(&row_json(o));
        json.push_str(if i + 1 < outcomes.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write sweep");
    println!("wrote {out_path}");
}

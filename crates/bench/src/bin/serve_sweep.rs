//! Poisson arrival sweep over the serving runtime, written to
//! `BENCH_serve.json`.
//!
//! The grid is offered load × hardware fault level over a fleet of 3DCU
//! pairs serving mixed Table V topologies (DCGAN + cGAN traffic), plus a
//! pair-quarantine scenario with a crippled pair. Each row reports the
//! serving layer's graceful-degradation story: throughput, p50/p99
//! sojourn latency, utilisation, typed shed counts, hardware retries,
//! quarantine evacuations and the healing ladder's totals.
//!
//! The sweep *asserts* its robustness invariants before writing:
//!
//! * conservation — every submitted job ends in exactly one terminal
//!   counter (nothing is silently dropped);
//! * zero-fault runs are **bit-identical** to running the same jobs
//!   standalone (the serving layer adds scheduling, never arithmetic);
//! * shed rate is monotone non-decreasing in offered load at each fault
//!   level, and the lowest-load zero-fault row sheds nothing;
//! * p99 latency is monotone non-decreasing in offered load while the
//!   queue absorbs the load (the no-shed prefix). Once the bounded queue
//!   starts shedding, sojourn is *capped by design* — survivors change
//!   and the metric that keeps degrading is the shed rate — so shedding
//!   rows only assert that p99 never drops below the low-load baseline
//!   (the deep-queue p99 monotonicity is pinned separately in
//!   `serve_invariants.rs`);
//! * the quarantine scenario finishes every admitted job on the healthy
//!   pairs — zero failed, zero stranded.
//!
//! Everything is seeded; running the sweep twice, at any
//! `LERGAN_THREADS`, produces byte-identical JSON. Usage:
//! `serve_sweep [output.json]` (default `BENCH_serve.json`).

use lergan_bench::serve::{grid, run_quarantine, run_scenario, JOBS, PAIRS, STEPS, TENANTS};
use lergan_serve::{PlanCache, ServeReport};

fn row_json(label: &str, rho: f64, fault_rate: f64, endurance: u64, r: &ServeReport) -> String {
    format!(
        "    {{ \"scenario\": \"{label}\", \"rho\": {rho:.2}, \"fault_rate\": {fault_rate}, \
         \"endurance_mean\": {endurance}, \"submitted\": {}, \"admitted\": {}, \
         \"completed\": {}, \"failed\": {}, \"shed_queue_full\": {}, \"shed_quota\": {}, \
         \"shed_deadline\": {}, \"shed_rate\": {:.6}, \"job_retries\": {}, \"requeued\": {}, \
         \"quarantined_pairs\": {}, \"deadline_misses\": {}, \"throughput_jobs_per_s\": {:.4}, \
         \"p50_ms\": {:.4}, \"p99_ms\": {:.4}, \"utilisation\": {:.4}, \
         \"healing_detected\": {}, \"healing_corrected\": {}, \"healing_rolled_back\": {}, \
         \"plan_misses\": {}, \"plan_hits\": {} }}",
        r.submitted,
        r.admitted,
        r.completed,
        r.failed,
        r.shed_queue_full,
        r.shed_quota,
        r.shed_deadline,
        r.shed_rate(),
        r.job_retries,
        r.requeued,
        r.quarantined_pairs,
        r.deadline_misses,
        r.throughput_jobs_per_s(),
        r.p50_ns() / 1e6,
        r.p99_ns() / 1e6,
        r.utilisation(),
        r.healing.detected,
        r.healing.corrected,
        r.healing.rolled_back,
        r.plan_misses,
        r.plan_hits,
    )
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_serve.json".to_string());

    // One cache for the whole sweep: same-topology jobs across scenarios
    // share the same compiled plans.
    let mut plans = PlanCache::table_v();
    let mut rows: Vec<(String, String)> = Vec::new();

    for level in grid() {
        let fault_label = if level[0].fault_rate == 0.0 {
            "zero_fault"
        } else {
            "faulty"
        };
        let mut sheds = Vec::new();
        let mut p99s = Vec::new();
        for sc in &level {
            let r = run_scenario(sc, &mut plans);
            println!(
                "{:<16} rho {:>4.1}  completed {:>2}/{:<2}  shed {:.3}  p50 {:>9.3} ms  \
                 p99 {:>9.3} ms  util {:.3}  healing d/c/rb {}/{}/{}",
                sc.label,
                sc.rho,
                r.completed,
                r.submitted,
                r.shed_rate(),
                r.p50_ns() / 1e6,
                r.p99_ns() / 1e6,
                r.utilisation(),
                r.healing.detected,
                r.healing.corrected,
                r.healing.rolled_back,
            );
            sheds.push(r.shed_rate());
            p99s.push(r.p99_ns());
            rows.push((
                sc.label.to_string(),
                row_json(sc.label, sc.rho, sc.fault_rate, sc.endurance_mean, &r),
            ));
        }
        // Graceful degradation, asserted per fault level.
        assert!(
            sheds.windows(2).all(|w| w[0] <= w[1]),
            "{fault_label}: shed rate must be monotone in load: {sheds:?}"
        );
        let absorbed = sheds.iter().take_while(|&&s| s == 0.0).count();
        assert!(
            p99s[..absorbed].windows(2).all(|w| w[0] <= w[1]),
            "{fault_label}: p99 must be monotone while nothing sheds: {p99s:?}"
        );
        assert!(
            p99s[absorbed..].iter().all(|&p| p >= p99s[0]),
            "{fault_label}: shedding must never beat the low-load tail: {p99s:?}"
        );
        if level[0].fault_rate == 0.0 {
            assert_eq!(sheds[0], 0.0, "low-load zero-fault must shed nothing");
        }
    }

    let q = run_quarantine(&mut plans);
    println!(
        "{:<16} quarantined {}  requeued {}  retries {}  completed {}/{}  rolled back {}",
        "quarantine",
        q.quarantined_pairs,
        q.requeued,
        q.job_retries,
        q.completed,
        q.submitted,
        q.healing.rolled_back,
    );
    rows.push((
        "quarantine".to_string(),
        row_json("quarantine", 2.0, 0.0, 8, &q),
    ));

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"fleet\": {{ \"pairs\": {PAIRS}, \"jobs\": {JOBS}, \"tenants\": {TENANTS}, \
         \"steps_per_job\": {STEPS}, \"topologies\": \"dcgan+cgan\", \
         \"queue_depth\": 8, \"tenant_quota\": 4 }},\n"
    ));
    json.push_str("  \"sweep\": [\n");
    for (i, (_, row)) in rows.iter().enumerate() {
        json.push_str(row);
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write sweep");
    println!("wrote {out_path}");
}

//! Every workload end to end at a tiny scale: a few hundredths of a second
//! of rounds, untraced and traced, through the same library entry point the
//! command line uses.

use lergan_benchmark::{run, RunConfig, Workload, END_TO_END, PER_LAYER};

fn tiny(workload: Workload, trace: bool) -> lergan_benchmark::Outcome {
    let cfg = RunConfig {
        workload,
        seed: 3,
        seconds: 0.04,
        trace,
    };
    let outcome = run(&cfg).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    assert!(
        outcome.correct(),
        "{}: {} failed",
        workload.name(),
        outcome.failed
    );
    assert!(outcome.attempted >= 1);
    outcome
}

fn value(outcome: &lergan_benchmark::Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|m| m.2)
        .unwrap()
}

#[test]
fn every_workload_reports_every_end_to_end_metric_above_zero() {
    for w in Workload::ALL {
        let outcome = tiny(w, false);
        let names: Vec<(&str, &str)> = outcome.metrics.iter().map(|&(n, u, _)| (n, u)).collect();
        assert_eq!(names, END_TO_END, "{}", w.name());
        for &(name, _, v) in &outcome.metrics {
            assert!(v.is_finite() && v > 0.0, "{}: {name} = {v}", w.name());
        }
        let line = outcome.result_json().to_string();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
    }
}

#[test]
fn every_workload_traces_the_layers_it_calls() {
    let own: [(Workload, &[&str]); 4] = [
        (
            Workload::TrainB1,
            &[
                "gan.d_backward_share",
                "tensor.gemm_gflops",
                "gan.batched_b1_over_per_sample",
            ],
        ),
        (
            Workload::TrainB8,
            &[
                "gan.d_backward_share",
                "tensor.gemm_gflops",
                "gan.step_share.extgan8",
            ],
        ),
        (
            Workload::SimSweep,
            &["core.simulate_share", "sim.run_share", "sim.tasks"],
        ),
        (
            Workload::ServeFaulty,
            &[
                "serve.overhead_share",
                "core.recovery.step_over_bare",
                "serve.completed",
            ],
        ),
    ];
    for (w, layers) in own {
        let outcome = tiny(w, true);
        let names: Vec<(&str, &str)> = outcome.metrics.iter().map(|&(n, u, _)| (n, u)).collect();
        assert_eq!(names, PER_LAYER, "{}", w.name());
        for name in
            layers
                .iter()
                .chain(&["trace.coverage", "round_ms_p80", "rounds", "host.slowdown"])
        {
            let v = value(&outcome, name);
            assert!(v.is_finite() && v > 0.0, "{}: {name} = {v}", w.name());
        }
    }
}

#[test]
fn a_bypassed_layer_reads_zero() {
    let sim = tiny(Workload::SimSweep, true);
    for name in [
        "gan.d_forward_share",
        "tensor.gemm_share",
        "serve.overhead_share",
    ] {
        assert_eq!(value(&sim, name), 0.0, "{name}");
    }
}

//! Fig. 23: the breakdown of energy consumption in LerGAN
//! (paper: computing 70.4%, communication 16%, other 13.6%).

use lergan_bench::figures;
use lergan_bench::harness::{self, Report, Section};

fn main() {
    let (compute, comm, other) = figures::fig23();
    let report =
        Report::new("Fig. 23: LerGAN overall energy distribution (average across benchmarks)")
            .section(
                Section::new()
                    .fact(
                        "computing",
                        format!("{:.2}% (paper: 70.4%)", compute * 100.0),
                    )
                    .fact(
                        "communication",
                        format!("{:.2}% (paper: 16.0%)", comm * 100.0),
                    )
                    .fact("other", format!("{:.2}% (paper: 13.6%)", other * 100.0)),
            );
    harness::run(&report);
}

//! Sec. VI-E overheads: compile time (+32.52% in the paper), area
//! (+13.3%), and the same-space speedup over PRIME (2.1x).
//!
//! The compile overhead is wall time: the median ratio over alternating
//! timing windows of the ZFDR and the normal compiler, with the ratios'
//! interquartile range beside it. The other two facts are model outputs.

use lergan_bench::figures;
use lergan_bench::harness::{self, Report, Section};

fn main() {
    let o = figures::overhead();
    let report = Report::new("Sec. VI-E: LerGAN overheads").section(
        Section::new()
            .fact(
                "software: ZFDR/ZFDM compile-time overhead",
                format!(
                    "{:+.2}% (IQR {:.2} pp; paper: +32.52%)",
                    o.compile_overhead * 100.0,
                    o.compile_overhead_iqr * 100.0
                ),
            )
            .fact(
                "hardware: 3D switch/wire area overhead",
                format!("{:+.2}% (paper: +13.3%)", o.area_overhead * 100.0),
            )
            .fact(
                "same-CArray-space speedup over PRIME",
                format!("{:.2}x (paper: 2.1x)", o.same_space_speedup),
            ),
    );
    harness::run(&report);
}

//! Fig. 18: ZFDR vs normal reshape under the 3D connection
//! (paper averages: 5.11x with duplication, 2.77x without, NR 1.31x).

use lergan_bench::harness::{self, Report, Section};
use lergan_bench::{figures, TextTable};

fn main() {
    let mut t = TextTable::new(&["benchmark", "ZFDR+dup", "ZFDR no-dup", "NR 3D"]);
    for r in figures::fig17_18() {
        t.row(&[
            r.gan,
            format!("{:.2}x", r.zfdr_3d_low),
            format!("{:.2}x", r.zfdr_3d_nodup),
            format!("{:.2}x", r.nr_3d),
        ]);
    }
    let (dup, nodup, nr) = figures::fig18_averages();
    let report =
        Report::new("Fig. 18: ZFDR vs normal reshape with 3D connection (speedup over NR+H-tree)")
            .section(
                Section::new()
                    .table(t)
                    .fact("Average ZFDR+dup", format!("{dup:.2}x (paper 5.11x)"))
                    .fact("Average ZFDR no-dup", format!("{nodup:.2}x (paper 2.77x)"))
                    .fact("Average NR 3D", format!("{nr:.2}x (paper 1.31x)")),
            );
    harness::run(&report);
}

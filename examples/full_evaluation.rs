//! Full evaluation: regenerates the headline numbers of every figure in
//! Sec. VI in one run. For the detailed per-figure tables use the
//! dedicated binaries (`cargo run -p lergan-bench --bin fig19` etc.).
//!
//! ```text
//! cargo run --release --example full_evaluation
//! ```

use lergan_bench::figures;

fn main() {
    println!("LerGAN evaluation — headline reproduction (paper value in parentheses)\n");

    let (dcgan, avg) = figures::fig16_space_savings();
    println!("Fig. 16  DCGAN G→ SArray saving        {dcgan:6.2}x  (5.2x)");
    println!("Fig. 16  average SArray saving          {avg:6.2}x  (3.86x)");

    let (dup, nodup, nr) = figures::fig18_averages();
    println!("Fig. 18  ZFDR+dup speedup over NR+2D    {dup:6.2}x  (5.11x)");
    println!("Fig. 18  ZFDR speedup over NR+2D        {nodup:6.2}x  (2.77x)");
    println!("Fig. 18  NR+3D speedup over NR+2D       {nr:6.2}x  (1.31x)");

    let rows = figures::fig19_20();
    let n = rows.len() as f64;
    let prime_speedup: f64 = rows
        .iter()
        .flat_map(|r| r.speedup.iter().chain(r.speedup_ns.iter()))
        .sum::<f64>()
        / (6.0 * n);
    let prime_energy: f64 = rows
        .iter()
        .flat_map(|r| r.energy_saving.iter().chain(r.energy_saving_ns.iter()))
        .sum::<f64>()
        / (6.0 * n);
    println!("Fig. 19  average speedup over PRIME     {prime_speedup:6.2}x  (7.46x)");
    println!("Fig. 20  average energy saving, PRIME   {prime_energy:6.2}x  (7.68x)");

    let (sf, sg, eg, ef) = figures::headline_averages();
    println!("Fig. 21  average speedup over FPGA      {sf:6.1}x  (47.2x)");
    println!("Fig. 21  average speedup over GPU       {sg:6.1}x  (21.42x)");
    println!("Fig. 22  average energy saving, GPU     {eg:6.2}x  (9.75x)");
    println!("Fig. 22  LerGAN/FPGA energy ratio       {ef:6.2}x  (1.04x)");

    let (compute, comm, other) = figures::fig23();
    println!(
        "Fig. 23  energy: compute/comm/other     {:.1}%/{:.1}%/{:.1}%  (70.4/16.0/13.6)",
        compute * 100.0,
        comm * 100.0,
        other * 100.0
    );

    let (adc, switch, _, reduction) = figures::fig24();
    println!(
        "Fig. 24  tile: ADC / cell switching     {:.1}%/{:.1}%  (45.14/40.16)",
        adc * 100.0,
        switch * 100.0
    );
    println!("Fig. 24  what-if power reduction        {reduction:6.2}x  (~3x)");

    let o = figures::overhead();
    println!(
        "VI-E     area overhead                  {:+5.1}%  (+13.3%)",
        o.area_overhead * 100.0
    );
    println!(
        "VI-E     compile overhead               {:+5.1}%  (+32.52%; IQR {:.1} pp)",
        o.compile_overhead * 100.0,
        o.compile_overhead_iqr * 100.0
    );
    println!(
        "VI-E     same-space speedup over PRIME  {:6.2}x  (2.1x)",
        o.same_space_speedup
    );
}

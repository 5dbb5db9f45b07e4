//! Ablations over the design choices the paper motivates: Cmode parallel
//! distribution channels, vertical-wire speed, write parallelism, and the
//! duplication degrees — each swept on DCGAN with everything else fixed.
//!
//! ```text
//! cargo run --release -p lergan-bench --bin ablations
//! ```

use lergan_bench::TextTable;
use lergan_core::lergan::CostModel;
use lergan_core::{LerGan, ReplicaDegree};
use lergan_gan::benchmarks;
use lergan_noc::NocConfig;

fn main() {
    let gan = benchmarks::dcgan();

    println!("Ablation 1: Cmode parallel distribution channels (Fig. 14's slicing)\n");
    let mut t = TextTable::new(&["channels", "iteration (ms)", "vs 1 channel"]);
    let base = {
        let noc = NocConfig {
            cmode_parallel_channels: 1,
            ..NocConfig::default()
        };
        LerGan::builder(&gan)
            .noc_config(noc)
            .build()
            .unwrap()
            .train_iterations(1)
            .iteration_latency_ns
    };
    for channels in [1u32, 2, 4, 8, 16] {
        let noc = NocConfig {
            cmode_parallel_channels: channels,
            ..NocConfig::default()
        };
        let r = LerGan::builder(&gan)
            .noc_config(noc)
            .build()
            .unwrap()
            .train_iterations(1);
        t.row(&[
            channels.to_string(),
            format!("{:.3}", r.iteration_latency_ns / 1e6),
            format!("{:.2}x", base / r.iteration_latency_ns),
        ]);
    }
    t.print();

    println!("\nAblation 2: vertical (inter-die) wire latency factor\n");
    // The factors move the iteration by well under a microsecond, so this
    // table prints nanoseconds to 0.1 ns where the others print ms.
    let mut t = TextTable::new(&["factor", "iteration (ns)"]);
    for factor in [0.1, 0.4, 1.0, 2.0] {
        let noc = NocConfig {
            vertical_latency_factor: factor,
            ..NocConfig::default()
        };
        let r = LerGan::builder(&gan)
            .noc_config(noc)
            .build()
            .unwrap()
            .train_iterations(1);
        t.row(&[
            format!("{factor:.1}"),
            format!("{:.1}", r.iteration_latency_ns),
        ]);
    }
    t.print();

    println!("\nAblation 3: parallel write rows per tile (mapping/update bandwidth)\n");
    let mut t = TextTable::new(&["rows", "iteration (ms)"]);
    for rows in [128usize, 512, 2048, 8192] {
        let cost = CostModel {
            write_rows_parallel_per_tile: rows,
            ..CostModel::default()
        };
        let r = LerGan::builder(&gan)
            .cost_model(cost)
            .build()
            .unwrap()
            .train_iterations(1);
        t.row(&[
            rows.to_string(),
            format!("{:.3}", r.iteration_latency_ns / 1e6),
        ]);
    }
    t.print();

    println!("\nAblation 4: duplication degree (Table III) — latency vs energy\n");
    let mut t = TextTable::new(&["degree", "iteration (ms)", "energy (mJ)", "CArray values"]);
    for degree in [
        ReplicaDegree::NoDuplication,
        ReplicaDegree::Low,
        ReplicaDegree::Middle,
        ReplicaDegree::High,
    ] {
        let accel = LerGan::builder(&gan)
            .replica_degree(degree)
            .build()
            .unwrap();
        let r = accel.train_iterations(1);
        t.row(&[
            degree.label().to_string(),
            format!("{:.3}", r.iteration_latency_ns / 1e6),
            format!("{:.2}", r.total_energy_pj / 1e9),
            accel.compiled().total_stored_values().to_string(),
        ]);
    }
    t.print();
}

//! Benchmark harness regenerating every table and figure of the LerGAN
//! evaluation (Sec. VI).
//!
//! Each `figures::figNN` function computes the *data* of the corresponding
//! paper figure; the `fig16`…`fig24`, `table5`, `scaling` and `overhead`
//! binaries build a [`harness::Report`] from it and emit text, markdown or
//! JSON (`--format text|md|json [--out PATH]`). The wall-clock binaries
//! (`perf_snapshot`, `scaling_sweep`) time the underlying
//! machinery through the one window timer, [`harness::time`], which
//! records every number's minimum, median and interquartile range.
//! Absolute numbers come from the simulator; the paper's reported values
//! are quoted alongside so the shape comparison is immediate (see
//! `EXPERIMENTS.md` for the full paper-vs-measured record).

pub mod chaos;
pub mod figures;
pub mod harness;
pub mod naive;
pub mod table;

pub use chaos::{campaigns, run_campaign, shrink, ArmCoverage, CampaignOutcome, ChaosSpec};
pub use harness::{Format, Report, Section};
pub use table::TextTable;

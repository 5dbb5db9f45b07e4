//! Shared harness for the benchmark binaries: report rendering and the
//! one wall-clock timer.
//!
//! Every `figNN`/`table5`/`scaling`/`overhead` binary builds a [`Report`]
//! — a title plus [`Section`]s of tables, named facts and free-text notes
//! — and hands it to [`run`], which parses the common command-line flags
//! and emits the report:
//!
//! ```text
//! --format text|md|json   output format (default: text)
//! --out PATH              write to PATH instead of stdout
//! ```
//!
//! This replaces ten hand-rolled `println!` main functions with one
//! renderer, and gives every figure a machine-readable JSON form for the
//! CI smoke run.
//!
//! The wall-clock snapshots (`perf_snapshot`, `scaling_sweep`, `autotune`)
//! time through [`time`] and [`time_pair`], which summarise a fixed number
//! of measurement windows as a [`Timing`] — minimum, median and
//! interquartile range — and record rows through [`Results`], so every
//! committed number carries its host, its thread count and its spread.

use crate::table::TextTable;
use lergan_tensor::Tensor;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// A named headline value, e.g. an average with the paper's number quoted.
#[derive(Debug, Clone)]
pub struct Fact {
    /// What the value is.
    pub label: String,
    /// The formatted value (units and paper comparison included).
    pub value: String,
}

/// One block of a report: an optional heading, any number of tables,
/// headline facts and free-text notes, rendered in that order.
#[derive(Debug, Clone, Default)]
pub struct Section {
    /// Optional sub-heading.
    pub heading: Option<String>,
    /// Data tables.
    pub tables: Vec<TextTable>,
    /// Headline values.
    pub facts: Vec<Fact>,
    /// Commentary lines.
    pub notes: Vec<String>,
}

impl Section {
    /// Creates an empty section.
    pub fn new() -> Self {
        Section::default()
    }

    /// Sets the sub-heading.
    pub fn heading(mut self, h: impl Into<String>) -> Self {
        self.heading = Some(h.into());
        self
    }

    /// Appends a table.
    pub fn table(mut self, t: TextTable) -> Self {
        self.tables.push(t);
        self
    }

    /// Appends a headline fact.
    pub fn fact(mut self, label: impl Into<String>, value: impl Into<String>) -> Self {
        self.facts.push(Fact {
            label: label.into(),
            value: value.into(),
        });
        self
    }

    /// Appends a commentary line.
    pub fn note(mut self, n: impl Into<String>) -> Self {
        self.notes.push(n.into());
        self
    }
}

/// A complete figure/table report.
#[derive(Debug, Clone)]
pub struct Report {
    /// Report title (the paper's figure caption).
    pub title: String,
    /// Content blocks.
    pub sections: Vec<Section>,
}

impl Report {
    /// Creates a report with no sections yet.
    pub fn new(title: impl Into<String>) -> Self {
        Report {
            title: title.into(),
            sections: Vec::new(),
        }
    }

    /// Appends a section.
    pub fn section(mut self, s: Section) -> Self {
        self.sections.push(s);
        self
    }

    /// Renders the report as plain text (the classic binary output).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        for s in &self.sections {
            out.push('\n');
            if let Some(h) = &s.heading {
                let _ = writeln!(out, "{h}");
            }
            for t in &s.tables {
                out.push_str(&t.render());
            }
            for f in &s.facts {
                let _ = writeln!(out, "{}: {}", f.label, f.value);
            }
            for n in &s.notes {
                let _ = writeln!(out, "{n}");
            }
        }
        out
    }

    /// Renders the report as GitHub-flavoured markdown.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        for s in &self.sections {
            out.push('\n');
            if let Some(h) = &s.heading {
                let _ = writeln!(out, "## {h}\n");
            }
            for t in &s.tables {
                let _ = writeln!(out, "| {} |", t.header().join(" | "));
                let rule: Vec<&str> = t.header().iter().map(|_| "---").collect();
                let _ = writeln!(out, "| {} |", rule.join(" | "));
                for row in t.rows() {
                    let _ = writeln!(out, "| {} |", row.join(" | "));
                }
                out.push('\n');
            }
            for f in &s.facts {
                let _ = writeln!(out, "- **{}**: {}", f.label, f.value);
            }
            for n in &s.notes {
                let _ = writeln!(out, "{n}");
            }
        }
        out
    }

    /// Renders the report as JSON (hand-rolled; the workspace is
    /// dependency-free).
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"title\": {},", json_str(&self.title));
        out.push_str("  \"sections\": [");
        for (si, s) in self.sections.iter().enumerate() {
            if si > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n");
            if let Some(h) = &s.heading {
                let _ = writeln!(out, "      \"heading\": {},", json_str(h));
            }
            out.push_str("      \"tables\": [");
            for (ti, t) in s.tables.iter().enumerate() {
                if ti > 0 {
                    out.push(',');
                }
                out.push_str("\n        {\"header\": ");
                out.push_str(&json_str_array(t.header()));
                out.push_str(", \"rows\": [");
                for (ri, row) in t.rows().iter().enumerate() {
                    if ri > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&json_str_array(row));
                }
                out.push_str("]}");
            }
            if !s.tables.is_empty() {
                out.push_str("\n      ");
            }
            out.push_str("],\n      \"facts\": {");
            for (fi, f) in s.facts.iter().enumerate() {
                if fi > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "\n        {}: {}",
                    json_str(&f.label),
                    json_str(&f.value)
                );
            }
            if !s.facts.is_empty() {
                out.push_str("\n      ");
            }
            out.push_str("},\n      \"notes\": ");
            out.push_str(&json_str_array(&s.notes));
            out.push_str("\n    }");
        }
        if !self.sections.is_empty() {
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_str_array(items: &[String]) -> String {
    let cells: Vec<String> = items.iter().map(|s| json_str(s)).collect();
    format!("[{}]", cells.join(", "))
}

/// Output format selected on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Plain text (default).
    Text,
    /// GitHub-flavoured markdown.
    Markdown,
    /// JSON.
    Json,
}

/// Parsed command-line options shared by every figure binary.
#[derive(Debug, Clone)]
pub struct Options {
    /// Selected output format.
    pub format: Format,
    /// Output path; `None` writes to stdout.
    pub out: Option<String>,
}

impl Options {
    /// Parses `--format` / `--out` from an argument iterator (without the
    /// program name). Returns an error message on unknown flags or values.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut format = Format::Text;
        let mut out = None;
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--format" => {
                    let v = args.next().ok_or("--format needs a value")?;
                    format = match v.as_str() {
                        "text" => Format::Text,
                        "md" | "markdown" => Format::Markdown,
                        "json" => Format::Json,
                        other => return Err(format!("unknown format {other:?}")),
                    };
                }
                "--out" => out = Some(args.next().ok_or("--out needs a value")?),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(Options { format, out })
    }
}

/// Renders `report` according to the process's command-line flags and
/// writes it to stdout or `--out PATH`. Exits with status 2 on a bad
/// command line, 1 on an I/O failure.
pub fn run(report: &Report) {
    let options = match Options::parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: [--format text|md|json] [--out PATH]");
            std::process::exit(2);
        }
    };
    let rendered = match options.format {
        Format::Text => report.render_text(),
        Format::Markdown => report.render_markdown(),
        Format::Json => report.render_json(),
    };
    match &options.out {
        None => print!("{rendered}"),
        Some(path) => {
            if let Err(e) = std::fs::write(path, &rendered) {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// Measured windows per [`time`] call.
const WINDOWS: usize = 5;

/// Alternating window pairs per [`time_pair`] call (odd, so the median
/// ratio is one pair's ratio).
const PAIRS: usize = 15;

/// Iteration cap per window, so a near-empty closure cannot spin forever.
const MAX_ITERS: u64 = 1_000_000;

/// Per-iteration wall-clock time of one measurement, summarised over its
/// windows' means.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Fastest window mean. Preemption and interrupts only ever inflate a
    /// window, so the minimum is the stable estimator on a shared host.
    pub min_ns: f64,
    /// Median window mean.
    pub median_ns: f64,
    /// Interquartile range of the window means: the measurement's spread.
    pub iqr_ns: f64,
}

/// Two closures timed in alternating windows by [`time_pair`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairTiming {
    /// Timing of the first closure over its windows.
    pub a: Timing,
    /// Timing of the second closure over its windows.
    pub b: Timing,
    /// Median over the pairs of the per-pair ratio `a / b`.
    pub ratio: f64,
    /// Interquartile range of the per-pair ratios.
    pub ratio_iqr: f64,
}

/// Minimum, median and interquartile range of non-empty `values`; the
/// quartiles interpolate linearly between order statistics.
fn summarize(values: &[f64]) -> Timing {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quantile = |q: f64| {
        let h = q * (v.len() - 1) as f64;
        let lo = h.floor() as usize;
        let hi = (lo + 1).min(v.len() - 1);
        v[lo] + (h - lo as f64) * (v[hi] - v[lo])
    };
    Timing {
        min_ns: v[0],
        median_ns: quantile(0.5),
        iqr_ns: quantile(0.75) - quantile(0.25),
    }
}

/// Mean nanoseconds per call over one window of `iters` calls.
fn window_ns(f: &mut impl FnMut(), iters: u64) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    (start.elapsed().as_nanos() as f64 / iters as f64).max(1.0)
}

/// One warm-up call, then a calibration loop growing the iteration count
/// until one window spans `window`. Returns that count.
fn calibrate(window: Duration, f: &mut impl FnMut()) -> u64 {
    f();
    let target = window.as_nanos() as f64;
    let mut iters = 1;
    loop {
        let per = window_ns(f, iters);
        if per * iters as f64 >= target || iters >= MAX_ITERS {
            return iters;
        }
        iters = ((target / per).ceil() as u64).clamp(iters * 2, MAX_ITERS);
    }
}

/// Times `f`: warm-up and calibration to windows of at least `window`,
/// then a fixed number of measured windows, summarised by [`Timing`].
pub fn time(window: Duration, mut f: impl FnMut()) -> Timing {
    let iters = calibrate(window, &mut f);
    let means: Vec<f64> = (0..WINDOWS).map(|_| window_ns(&mut f, iters)).collect();
    summarize(&means)
}

/// Times `a` and `b` in a fixed number of alternating window pairs, each
/// window at least `window` long after the same warm-up and calibration
/// as [`time`]. The order flips every pair, so a drifting host speed
/// favours neither side, and a slow period stretches both windows of a
/// pair alike, where timing each side on its own would fold it into one
/// side only.
pub fn time_pair(window: Duration, mut a: impl FnMut(), mut b: impl FnMut()) -> PairTiming {
    let (ia, ib) = (calibrate(window, &mut a), calibrate(window, &mut b));
    let (mut ta, mut tb) = (Vec::with_capacity(PAIRS), Vec::with_capacity(PAIRS));
    for pair in 0..PAIRS {
        if pair % 2 == 0 {
            ta.push(window_ns(&mut a, ia));
            tb.push(window_ns(&mut b, ib));
        } else {
            tb.push(window_ns(&mut b, ib));
            ta.push(window_ns(&mut a, ia));
        }
    }
    let ratios: Vec<f64> = ta.iter().zip(&tb).map(|(x, y)| x / y).collect();
    let ratio = summarize(&ratios);
    PairTiming {
        a: summarize(&ta),
        b: summarize(&tb),
        ratio: ratio.median_ns,
        ratio_iqr: ratio.iqr_ns,
    }
}

/// Timed rows of a snapshot, printed as they are recorded and written as
/// its JSON `results` array.
#[derive(Debug, Default)]
pub struct Results {
    rows: Vec<(String, usize, Timing)>,
}

impl Results {
    /// Records `timing` of `name` at `threads` worker threads and prints it.
    pub fn record(&mut self, name: &str, threads: usize, timing: Timing) {
        println!(
            "{name:44} threads={threads}  {:>12.0} ns/iter  (median {:.0}, iqr {:.0})",
            timing.min_ns, timing.median_ns, timing.iqr_ns
        );
        self.rows.push((name.to_string(), threads, timing));
    }

    /// The timing recorded for `name` at `threads` worker threads.
    ///
    /// # Panics
    ///
    /// Panics if no such row was recorded.
    pub fn get(&self, name: &str, threads: usize) -> Timing {
        self.rows
            .iter()
            .find(|(n, t, _)| n == name && *t == threads)
            .map(|&(_, _, timing)| timing)
            .unwrap_or_else(|| panic!("no result {name} at {threads} threads"))
    }

    /// The `"results"` member, one row per line: `ns_per_iter` is the
    /// minimum, next to the median and the interquartile range.
    pub fn json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|(name, threads, t)| {
                format!(
                    "    {{ \"name\": \"{name}\", \"threads\": {threads}, \"ns_per_iter\": {:.0}, \"median_ns\": {:.0}, \"iqr_ns\": {:.0} }}",
                    t.min_ns, t.median_ns, t.iqr_ns
                )
            })
            .collect();
        format!("  \"results\": [\n{}\n  ],\n", rows.join(",\n"))
    }
}

/// Hardware threads the host offers.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The thread-scaling speedup `one_ns / multi_ns` as a JSON value. When
/// the `threads`-worker run could use only one core (a 1-core host or a
/// 1-worker configuration) it becomes the `skipped_single_core` marker
/// carrying the 1-thread time, so the entry stays in the trajectory
/// instead of reading as a meaningless ratio.
pub fn thread_speedup_json(one_ns: f64, multi_ns: f64, threads: usize) -> String {
    if host_cores().min(threads) == 1 {
        format!("{{ \"marker\": \"skipped_single_core\", \"one_thread_ns\": {one_ns:.0} }}")
    } else {
        format!("{:.2}", one_ns / multi_ns)
    }
}

/// A deterministic pseudo-random tensor in `[-0.5, 0.5)`, the operand
/// generator of every timed workload.
pub fn det(shape: &[usize], seed: u32) -> Tensor {
    let mut state = seed.wrapping_mul(747796405).wrapping_add(1);
    Tensor::from_fn(shape, |_| {
        state = state.wrapping_mul(1664525).wrapping_add(1013904223);
        ((state >> 16) as f32 / 65536.0) - 0.5
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut t = TextTable::new(&["benchmark", "speedup"]);
        t.row(&["DCGAN".into(), "8.92x".into()]);
        Report::new("Fig. N: sample")
            .section(
                Section::new()
                    .table(t)
                    .fact("Average", "8.92x (paper 7.46x)")
                    .note("one-line commentary"),
            )
            .section(
                Section::new()
                    .heading("second block")
                    .note("tail \"quote\""),
            )
    }

    #[test]
    fn text_contains_all_pieces() {
        let s = sample().render_text();
        assert!(s.starts_with("Fig. N: sample\n"));
        assert!(s.contains("DCGAN"));
        assert!(s.contains("Average: 8.92x (paper 7.46x)"));
        assert!(s.contains("second block"));
    }

    #[test]
    fn markdown_tables_are_piped() {
        let s = sample().render_markdown();
        assert!(s.contains("# Fig. N: sample"));
        assert!(s.contains("| benchmark | speedup |"));
        assert!(s.contains("| --- | --- |"));
        assert!(s.contains("| DCGAN | 8.92x |"));
        assert!(s.contains("- **Average**: 8.92x (paper 7.46x)"));
        assert!(s.contains("## second block"));
    }

    #[test]
    fn json_escapes_and_round_trips_structure() {
        let s = sample().render_json();
        assert!(s.contains("\"title\": \"Fig. N: sample\""));
        assert!(s.contains("\"header\": [\"benchmark\", \"speedup\"]"));
        assert!(s.contains("\"rows\": [[\"DCGAN\", \"8.92x\"]]"));
        assert!(s.contains("\"Average\": \"8.92x (paper 7.46x)\""));
        assert!(s.contains("tail \\\"quote\\\""));
        // Balanced braces/brackets — cheap well-formedness check.
        for (open, close) in [('{', '}'), ('[', ']')] {
            let in_strings_removed: String = {
                // Strip string literals so braces inside them don't count.
                let mut out = String::new();
                let mut in_str = false;
                let mut escape = false;
                for c in s.chars() {
                    if in_str {
                        if escape {
                            escape = false;
                        } else if c == '\\' {
                            escape = true;
                        } else if c == '"' {
                            in_str = false;
                        }
                    } else if c == '"' {
                        in_str = true;
                    } else {
                        out.push(c);
                    }
                }
                out
            };
            let opens = in_strings_removed.matches(open).count();
            let closes = in_strings_removed.matches(close).count();
            assert_eq!(opens, closes, "unbalanced {open}{close}");
        }
    }

    #[test]
    fn options_parse_flags() {
        let o = Options::parse(
            ["--format", "json", "--out", "/tmp/x.json"]
                .into_iter()
                .map(String::from),
        )
        .unwrap();
        assert_eq!(o.format, Format::Json);
        assert_eq!(o.out.as_deref(), Some("/tmp/x.json"));
        assert!(Options::parse(["--format", "yaml"].into_iter().map(String::from)).is_err());
        assert!(Options::parse(["--nope"].into_iter().map(String::from)).is_err());
        let d = Options::parse(std::iter::empty()).unwrap();
        assert_eq!(d.format, Format::Text);
        assert!(d.out.is_none());
    }

    #[test]
    fn summary_of_odd_count_unsorted_means() {
        let t = summarize(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(t.min_ns, 1.0);
        assert_eq!(t.median_ns, 3.0);
        assert_eq!(t.iqr_ns, 2.0);
        assert!(t.min_ns <= t.median_ns && t.iqr_ns >= 0.0);
    }

    #[test]
    fn summary_of_even_count_interpolates() {
        let t = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(t.min_ns, 1.0);
        assert_eq!(t.median_ns, 2.5);
        // Quartiles at ranks 0.75 and 2.25: 1.75 and 3.25.
        assert_eq!(t.iqr_ns, 1.5);
        assert!(t.min_ns <= t.median_ns && t.iqr_ns >= 0.0);
    }

    #[test]
    fn summary_of_equal_means_has_no_spread() {
        let t = summarize(&[7.0; 5]);
        assert_eq!(
            t,
            Timing {
                min_ns: 7.0,
                median_ns: 7.0,
                iqr_ns: 0.0
            }
        );
        let one = summarize(&[9.0]);
        assert_eq!((one.min_ns, one.median_ns, one.iqr_ns), (9.0, 9.0, 0.0));
    }

    // A call that sleeps longer than the window fills a window on its
    // own (a sleep never returns early), so calibration settles at one
    // iteration and the call counts are exact without timing anything.
    fn slow_call(calls: &std::cell::Cell<usize>) {
        calls.set(calls.get() + 1);
        std::thread::sleep(Duration::from_millis(2));
    }

    #[test]
    fn time_calls_warm_up_calibration_and_each_window_once() {
        let calls = std::cell::Cell::new(0);
        time(Duration::from_millis(1), || slow_call(&calls));
        assert_eq!(calls.get(), 1 + 1 + WINDOWS);
    }

    #[test]
    fn time_pair_calls_each_side_once_per_pair() {
        let (a, b) = (std::cell::Cell::new(0), std::cell::Cell::new(0));
        let pt = time_pair(Duration::from_millis(1), || slow_call(&a), || slow_call(&b));
        assert_eq!(a.get(), 1 + 1 + PAIRS);
        assert_eq!(b.get(), 1 + 1 + PAIRS);
        assert!(pt.a.min_ns <= pt.a.median_ns && pt.ratio_iqr >= 0.0);
    }

    #[test]
    fn results_rows_carry_min_median_and_iqr() {
        let mut r = Results::default();
        let t = Timing {
            min_ns: 10.0,
            median_ns: 12.0,
            iqr_ns: 1.0,
        };
        r.record("k/x", 2, t);
        assert_eq!(r.get("k/x", 2), t);
        assert!(r.json().contains(
            "{ \"name\": \"k/x\", \"threads\": 2, \"ns_per_iter\": 10, \"median_ns\": 12, \"iqr_ns\": 1 }"
        ));
    }
}

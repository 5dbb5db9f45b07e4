//! `compare`: judges a change against its parent from two directories of
//! `--out` records, run in alternating pairs with identical settings.
//!
//! Records pair up by file name: a name found on one side only is listed
//! and left out. Per workload and metric it reports each side's median and
//! quartiles over the paired runs and the change's wins over the pairs,
//! then one verdict:
//!
//! * **gain** — at least ten pairs, the change wins at least 9 of every 10
//!   (ties count for neither side), and its median beats the parent's by
//!   more than the parent's interquartile range;
//! * **regression** — the change's median is worse than the parent's by
//!   more than the metric's bound, and the spread is within the bound (or
//!   every change run is worse than every parent run);
//! * **unresolved** — the spread (IQR over median, either side) exceeds
//!   the bound, unless every change run beats every parent run;
//! * **within bound** — otherwise. Per-layer metrics have no bound and
//!   read **no gain** when the gain rule fails.
//!
//! A workload whose share of failed operations rose is flagged too.
//! Directions and bounds come from the repository's `BENCHMARK.json`,
//! built into the binary.

use crate::json::Json;
use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// The benchmark definition this package implements.
const DEFINITION: &str = include_str!("../../BENCHMARK.json");

/// Fewer pairs than this never make a gain.
pub const MIN_PAIRS: usize = 10;

/// How a metric is judged, from `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSpec {
    pub lower_is_better: bool,
    /// Share of the parent's median a metric may worsen by; per-layer
    /// metrics have none.
    pub bound: Option<f64>,
}

/// Every metric of the built-in `BENCHMARK.json`.
pub fn specs() -> Result<BTreeMap<String, MetricSpec>, String> {
    parse_spec(DEFINITION)
}

/// Reads every end-to-end and per-layer metric of a benchmark definition.
pub fn parse_spec(text: &str) -> Result<BTreeMap<String, MetricSpec>, String> {
    let doc = Json::parse(text)?;
    let mut specs = BTreeMap::new();
    for section in ["end_to_end", "per_layer"] {
        let metrics = doc
            .get(section)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("benchmark definition lacks a {section} list"))?;
        for m in metrics {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let lower_is_better = match m.get("better").and_then(Json::as_str) {
                Some("lower") => true,
                Some("higher") => false,
                _ => return Err(format!("metric {name}: better must be lower or higher")),
            };
            let bound = m.get("bound").and_then(Json::as_f64);
            specs.insert(
                name.to_string(),
                MetricSpec {
                    lower_is_better,
                    bound,
                },
            );
        }
    }
    Ok(specs)
}

/// One `--out` record, reduced to what comparison needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// The record's file name, which pairs it with the other side's.
    pub name: String,
    pub workload: String,
    pub trace: bool,
    pub attempted: f64,
    pub failed: f64,
    /// Metric values in the order the record lists them.
    pub metrics: Vec<(String, f64)>,
}

pub fn parse_record(name: &str, text: &str) -> Result<Record, String> {
    let doc = Json::parse(text)?;
    let result = doc.get("result").ok_or("record has no result")?;
    let num = |v: &Json, key: &str| {
        v.get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("record has no {key}"))
    };
    let mut metrics = Vec::new();
    for (name, m) in result.get("metrics").map(Json::members).unwrap_or_default() {
        metrics.push((name.clone(), num(m, "value")?));
    }
    Ok(Record {
        name: name.to_string(),
        workload: doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("record has no workload")?
            .to_string(),
        trace: doc.get("trace").and_then(Json::as_bool).unwrap_or(false),
        attempted: num(result, "attempted")?,
        failed: num(result, "failed")?,
        metrics,
    })
}

/// Every `*.json` record of `dir`, in file-name order.
pub fn load_dir(dir: &Path) -> Result<Vec<Record>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p)
                .map_err(|e| format!("cannot read {}: {e}", p.display()))?;
            let name = p
                .file_name()
                .map_or(String::new(), |n| n.to_string_lossy().into());
            parse_record(&name, &text).map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Gain,
    Regression,
    Unresolved,
    WithinBound,
    NoGain,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::WithinBound => "within bound",
            Verdict::NoGain => "no gain",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Judgement {
    pub parent: [f64; 3],
    pub change: [f64; 3],
    pub wins: usize,
    pub pairs: usize,
    pub verdict: Verdict,
}

/// Applies the rule to one metric's paired runs: run `i` of each side
/// form pair `i`.
pub fn judge(parent: &[f64], change: &[f64], spec: MetricSpec) -> Judgement {
    let better = |a: f64, b: f64| if spec.lower_is_better { a < b } else { a > b };
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs).filter(|&i| better(change[i], parent[i])).count();
    let (p, c) = (stats::quartiles(parent), stats::quartiles(change));
    let improvement = if spec.lower_is_better {
        p[1] - c[1]
    } else {
        c[1] - p[1]
    };
    let verdict = if pairs >= MIN_PAIRS && wins * 10 >= pairs * 9 && improvement > p[2] - p[0] {
        Verdict::Gain
    } else if let Some(bound) = spec.bound {
        let spread = |q: [f64; 3]| (q[2] - q[0]) / q[1].abs();
        let spread = spread(p).max(spread(c));
        let dominates =
            |xs: &[f64], ys: &[f64]| xs.iter().all(|&x| ys.iter().all(|&y| better(x, y)));
        if -improvement > bound * p[1].abs() && (spread <= bound || dominates(parent, change)) {
            Verdict::Regression
        } else if spread > bound && !dominates(change, parent) {
            Verdict::Unresolved
        } else {
            Verdict::WithinBound
        }
    } else {
        Verdict::NoGain
    };
    Judgement {
        parent: p,
        change: c,
        wins,
        pairs,
        verdict,
    }
}

/// The comparison of two record sets, as text, and whether it found a
/// regression or a higher failure share.
pub fn compare<'a>(
    parent: &'a [Record],
    change: &'a [Record],
    specs: &BTreeMap<String, MetricSpec>,
) -> Result<(String, bool), String> {
    // (workload, trace) -> file name -> record
    let group = |records: &'a [Record]| {
        let mut g: BTreeMap<(&str, bool), BTreeMap<&str, &Record>> = BTreeMap::new();
        for r in records {
            g.entry((r.workload.as_str(), r.trace))
                .or_default()
                .insert(r.name.as_str(), r);
        }
        g
    };
    let (parent, change) = (group(parent), group(change));
    let mut out = String::new();
    let mut bad = false;
    let _ = writeln!(
        out,
        "{:<13} {:<38} {:>32} {:>32} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    for (&(workload, trace), p_runs) in &parent {
        let Some(c_runs) = change.get(&(workload, trace)) else {
            let _ = writeln!(out, "{workload:<13} (no change records)");
            continue;
        };
        let share = |runs: &BTreeMap<&str, &Record>| {
            runs.values().map(|r| r.failed).sum::<f64>()
                / runs.values().map(|r| r.attempted).sum::<f64>().max(1.0)
        };
        let unpaired: Vec<&str> = p_runs
            .keys()
            .filter(|n| !c_runs.contains_key(*n))
            .chain(c_runs.keys().filter(|n| !p_runs.contains_key(*n)))
            .copied()
            .collect();
        if !unpaired.is_empty() {
            let _ = writeln!(
                out,
                "{workload:<13} unpaired, left out: {}",
                unpaired.join(", ")
            );
        }
        let (fp, fc) = (share(p_runs), share(c_runs));
        if fc > fp {
            bad = true;
            let _ = writeln!(
                out,
                "{workload:<13} FAILURES: failed share rose from {fp:.6} to {fc:.6}"
            );
        }
        let first = p_runs.values().next().expect("a group holds a record");
        for (name, _) in &first.metrics {
            let spec = specs
                .get(name)
                .ok_or_else(|| format!("metric {name} is not in the benchmark definition"))?;
            let value = |r: &Record| r.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
            let (pv, cv): (Vec<f64>, Vec<f64>) = p_runs
                .iter()
                .filter_map(|(file, p)| Some((value(p)?, value(c_runs.get(file)?)?)))
                .unzip();
            if pv.is_empty() || cv.is_empty() {
                continue;
            }
            let j = judge(&pv, &cv, *spec);
            bad |= j.verdict == Verdict::Regression;
            let q = |q: [f64; 3]| format!("{:.4} [{:.4}, {:.4}]", q[1], q[0], q[2]);
            let _ = writeln!(
                out,
                "{workload:<13} {name:<38} {:>32} {:>32} {:>3}/{:<2}  {}",
                q(j.parent),
                q(j.change),
                j.wins,
                j.pairs,
                j.verdict.label()
            );
        }
    }
    Ok((out, bad))
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: MetricSpec = MetricSpec {
        lower_is_better: true,
        bound: Some(0.1),
    };

    fn runs(base: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| base + step * i as f64).collect()
    }

    #[test]
    fn a_clear_win_in_every_pair_is_a_gain() {
        let j = judge(&runs(100.0, 0.2), &runs(80.0, 0.2), LOWER);
        assert_eq!((j.wins, j.pairs, j.verdict), (10, 10, Verdict::Gain));
    }

    #[test]
    fn fewer_than_ten_pairs_are_never_a_gain() {
        let (parent, change) = (runs(100.0, 0.2), runs(80.0, 0.2));
        let j = judge(&parent[..9], &change[..9], LOWER);
        assert_eq!((j.wins, j.pairs, j.verdict), (9, 9, Verdict::WithinBound));
        let j = judge(&parent[..1], &change[..1], LOWER);
        assert_eq!((j.wins, j.pairs, j.verdict), (1, 1, Verdict::WithinBound));
    }

    #[test]
    fn ties_count_for_neither_side() {
        let parent = runs(100.0, 0.2);
        // Nine wins and one tie: 9/10 wins, still a gain.
        let mut change = runs(80.0, 0.2);
        change[3] = parent[3];
        assert_eq!(judge(&parent, &change, LOWER).verdict, Verdict::Gain);
        // Eight wins and two ties: 8/10 is short of nine tenths.
        change[4] = parent[4];
        let j = judge(&parent, &change, LOWER);
        assert_eq!((j.wins, j.verdict), (8, Verdict::WithinBound));
    }

    #[test]
    fn a_gap_inside_the_parents_spread_is_no_gain() {
        // Every pair won, but by less than the parent's IQR.
        let parent = runs(100.0, 1.0);
        let change: Vec<f64> = parent.iter().map(|x| x - 0.5).collect();
        let j = judge(&parent, &change, LOWER);
        assert_eq!((j.wins, j.verdict), (10, Verdict::WithinBound));
    }

    #[test]
    fn worse_by_more_than_the_bound_is_a_regression() {
        let j = judge(&runs(100.0, 0.2), &runs(115.0, 0.2), LOWER);
        assert_eq!(j.verdict, Verdict::Regression);
        // Higher-is-better metrics read the other way round.
        let higher = MetricSpec {
            lower_is_better: false,
            ..LOWER
        };
        assert_eq!(
            judge(&runs(115.0, 0.2), &runs(100.0, 0.2), higher).verdict,
            Verdict::Regression
        );
        assert_eq!(
            judge(&runs(100.0, 0.2), &runs(95.0, 0.2), higher).verdict,
            Verdict::WithinBound
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy = |base: f64| -> Vec<f64> {
            (0..10)
                .map(|i| base * if i % 2 == 0 { 0.8 } else { 1.2 })
                .collect()
        };
        assert_eq!(
            judge(&noisy(100.0), &noisy(101.0), LOWER).verdict,
            Verdict::Unresolved
        );
        // Unless every change run beats every parent run.
        let j = judge(&noisy(100.0), &noisy(50.0), LOWER);
        assert_eq!(j.verdict, Verdict::Gain);
    }

    #[test]
    fn per_layer_metrics_without_a_bound_only_claim_gains() {
        let spec = MetricSpec {
            lower_is_better: true,
            bound: None,
        };
        assert_eq!(
            judge(&runs(100.0, 0.2), &runs(150.0, 0.2), spec).verdict,
            Verdict::NoGain
        );
        assert_eq!(
            judge(&runs(100.0, 0.2), &runs(50.0, 0.2), spec).verdict,
            Verdict::Gain
        );
    }

    /// Record `i` (file `<i>.json`) of train_b1 with one metric.
    fn record(i: usize, ms: f64, failed: f64) -> Record {
        Record {
            name: format!("{i:02}.json"),
            workload: "train_b1".into(),
            trace: false,
            attempted: 100.0,
            failed,
            metrics: vec![("round_ms_p50".into(), ms)],
        }
    }

    fn records(base: f64, failed: f64) -> Vec<Record> {
        (0..10)
            .map(|i| record(i, base + 0.01 * i as f64, failed))
            .collect()
    }

    #[test]
    fn compare_flags_regressions_and_rising_failures() {
        let specs = BTreeMap::from([("round_ms_p50".to_string(), LOWER)]);
        let parent = records(10.0, 0.0);
        let (text, bad) = compare(&parent, &records(10.0, 0.0), &specs).unwrap();
        assert!(!bad && text.contains("within bound"), "{text}");
        assert!(compare(&parent, &records(12.0, 0.0), &specs).unwrap().1);
        let (text, bad) = compare(&parent, &records(10.0, 1.0), &specs).unwrap();
        assert!(bad && text.contains("FAILURES"), "{text}");
    }

    #[test]
    fn compare_pairs_records_by_file_name() {
        let specs = BTreeMap::from([("round_ms_p50".to_string(), LOWER)]);
        // Each run is slower than the last, so only same-name pairs show
        // that the change wins every one.
        let run = |i: usize, offset: f64| record(i, 10.0 * (i + 1) as f64 + offset, 0.0);
        let parent: Vec<Record> = (0..11).map(|i| run(i, 0.0)).collect();
        // The change lacks run 04, has an extra run 11, and lists its runs
        // in another order.
        let change: Vec<Record> = (0..12)
            .rev()
            .filter(|&i| i != 4)
            .map(|i| run(i, -0.5))
            .collect();
        let (text, _) = compare(&parent, &change, &specs).unwrap();
        assert!(
            text.contains("unpaired, left out: 04.json, 11.json"),
            "{text}"
        );
        assert!(text.contains(" 10/10"), "{text}");
    }

    #[test]
    fn the_benchmark_definition_lists_exactly_the_metrics_the_runner_prints() {
        let doc = Json::parse(DEFINITION).unwrap();
        for (section, want) in [
            ("end_to_end", crate::END_TO_END),
            ("per_layer", crate::PER_LAYER),
        ] {
            let listed: Vec<(&str, &str)> = doc
                .get(section)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap(),
                        m.get("unit").and_then(Json::as_str).unwrap(),
                    )
                })
                .collect();
            assert_eq!(listed, want, "{section}");
        }
        let specs = specs().unwrap();
        assert!(crate::END_TO_END
            .iter()
            .all(|(n, _)| specs[*n].bound.is_some()));
    }
}

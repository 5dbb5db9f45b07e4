//! Command-line parsing. Every malformed input becomes a message and exit
//! code 2, never a panic.

use crate::Workload;
use std::path::PathBuf;

pub const USAGE: &str = "usage:
  lergan-benchmark --workload <train_b1|train_b8|sim_sweep|serve_faulty> --seed <u64>
                   [--seconds <s>] [--trace <0|1>] [--out <file>]
  lergan-benchmark compare <parent-dir> <change-dir>";

/// One run of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    /// Seconds of rounds to measure (default 10).
    pub seconds: f64,
    pub trace: bool,
    /// Where to write the full record (result, host, quartiles).
    pub out: Option<PathBuf>,
}

/// Two directories of `--out` records to compare.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareArgs {
    pub parent: PathBuf,
    pub change: PathBuf,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    Run(RunArgs),
    Compare(CompareArgs),
    Help,
}

/// Parses the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Command, String> {
    match args.first().map(String::as_str) {
        Some("-h" | "--help") => Ok(Command::Help),
        Some("compare") => parse_compare(&args[1..]),
        _ => parse_run(args),
    }
}

/// Splits `--flag value` pairs, rejecting a flag with no value.
fn flag_pairs(args: &[String]) -> Result<Vec<(&str, &str)>, String> {
    let mut pairs = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !flag.starts_with("--") {
            return Err(format!("unexpected argument '{flag}'"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        pairs.push((flag.as_str(), value.as_str()));
    }
    Ok(pairs)
}

fn parse_run(args: &[String]) -> Result<Command, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, 10.0, false, None);
    for (flag, value) in flag_pairs(args)? {
        match flag {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| {
                    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!(
                        "unknown workload '{value}' (expected one of {})",
                        known.join(", ")
                    )
                })?)
            }
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|_| {
                    format!("malformed seed '{value}': expected an unsigned 64-bit integer")
                })?)
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| {
                        format!("malformed --seconds '{value}': expected a number in (0, 3600]")
                    })?
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("malformed --trace '{value}': expected 0 or 1")),
                }
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Command::Run(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        out,
    }))
}

fn parse_compare(args: &[String]) -> Result<Command, String> {
    match args {
        [parent, change] if !parent.starts_with("--") && !change.starts_with("--") => {
            Ok(Command::Compare(CompareArgs {
                parent: PathBuf::from(parent),
                change: PathBuf::from(change),
            }))
        }
        _ => Err("compare needs a parent and a change directory, and nothing else".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_run_flags() {
        assert_eq!(
            parse(&args(
                "--workload sim_sweep --seed 7 --seconds 10 --trace 1"
            ))
            .unwrap(),
            Command::Run(RunArgs {
                workload: Workload::SimSweep,
                seed: 7,
                seconds: 10.0,
                trace: true,
                out: None,
            })
        );
    }

    #[test]
    fn rejects_malformed_input_with_a_message() {
        for (line, needle) in [
            ("--workload nope --seed 1", "unknown workload 'nope'"),
            ("--workload train_b1 --seed -3", "malformed seed '-3'"),
            ("--workload train_b1 --seed 1x", "malformed seed '1x'"),
            ("--workload train_b1", "--seed is required"),
            ("--seed 1", "--workload is required"),
            (
                "--workload train_b1 --seed 1 --seconds 0",
                "malformed --seconds",
            ),
            (
                "--workload train_b1 --seed 1 --trace 2",
                "malformed --trace",
            ),
            ("--workload train_b1 --seed", "--seed needs a value"),
            (
                "--workload train_b1 --seed 1 --bogus 1",
                "unknown flag '--bogus'",
            ),
            ("compare only-one", "parent and a change"),
            ("compare a b --spec s.json", "parent and a change"),
            (
                "run --workload train_b1 --seed 1",
                "unexpected argument 'run'",
            ),
        ] {
            let err = parse(&args(line)).unwrap_err();
            assert!(err.contains(needle), "{line:?}: {err}");
        }
    }

    #[test]
    fn parses_compare() {
        assert_eq!(
            parse(&args("compare a b")).unwrap(),
            Command::Compare(CompareArgs {
                parent: "a".into(),
                change: "b".into(),
            })
        );
    }
}

//! Command-line entry point. Exit codes: 0 when every check passed, 1 when
//! a check failed or the run broke, 2 for malformed input.

use lergan_benchmark::cli::{self, Command, CompareArgs, RunArgs};
use lergan_benchmark::{compare, RunConfig};
use std::fs::File;
use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli::parse(&args) {
        Ok(Command::Help) => {
            println!("{}", cli::USAGE);
            ExitCode::SUCCESS
        }
        Ok(Command::Run(run)) => run_workload(run),
        Ok(Command::Compare(c)) => run_compare(c),
        Err(e) => usage_error(&e),
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n{}", cli::USAGE);
    ExitCode::from(2)
}

fn run_workload(args: RunArgs) -> ExitCode {
    // Open the record file first, so an unwritable path fails before any
    // work is done.
    let mut out = match args.out.as_ref().map(File::create).transpose() {
        Ok(f) => f,
        Err(e) => {
            let path = args
                .out
                .as_ref()
                .map_or(String::new(), |p| p.display().to_string());
            return usage_error(&format!("cannot write --out {path}: {e}"));
        }
    };
    let cfg = RunConfig {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let outcome = match lergan_benchmark::run(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {} failed: {e}", cfg.workload.name());
            return ExitCode::from(1);
        }
    };
    if let Some(f) = out.as_mut() {
        if let Err(e) = writeln!(f, "{}", outcome.record_json(&cfg)).and_then(|()| f.flush()) {
            eprintln!("error: cannot write the record: {e}");
            return ExitCode::from(1);
        }
    }
    println!("{}", outcome.result_json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "error: {} of {} operations failed their checks",
            outcome.failed, outcome.attempted
        );
        ExitCode::from(1)
    }
}

fn run_compare(args: CompareArgs) -> ExitCode {
    let loaded = compare::specs().and_then(|specs| {
        Ok((
            specs,
            compare::load_dir(&args.parent)?,
            compare::load_dir(&args.change)?,
        ))
    });
    let (specs, parent, change) = match loaded {
        Ok(l) => l,
        Err(e) => return usage_error(&e),
    };
    if parent.is_empty() || change.is_empty() {
        return usage_error("compare needs at least one record in each directory");
    }
    match compare::compare(&parent, &change, &specs) {
        Ok((text, bad)) => {
            print!("{text}");
            if bad {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => usage_error(&e),
    }
}

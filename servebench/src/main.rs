//! `servebench` — the end-to-end and per-layer benchmark of the UOTS query
//! service. See `README.md` in this directory for the workloads and
//! metrics.
//!
//! ```text
//! servebench --workload read-mix|read-light|write-mix --seed N --seconds S --trace 0|1
//!            [--scale brn|tiny] [--data-dir DIR] [--repeat R]
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}`.
//! `--repeat R` runs the workload R times with seeds N, N+1, … in child
//! processes and prints each metric's median, quartiles and
//! (max − min) / median instead.

mod drive;
mod gate;
mod http;
mod input;
mod stats;
mod traced;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use serde::Content;

use crate::input::Scale;
use crate::workloads::{Report, Run, Workload};

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: Scale,
    data_dir: PathBuf,
    repeat: Option<usize>,
    generate: bool,
    ingests: usize,
    corrupt_expected: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 20,
        trace: false,
        scale: Scale::Brn,
        data_dir: PathBuf::from(".servebench"),
        repeat: None,
        generate: false,
        ingests: 0,
        corrupt_expected: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number, got `{v}`"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload = Some(Workload::parse(&v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => a.seed = number(value()?)?,
            "--seconds" => a.seconds = number(value()?)?.max(1),
            "--trace" => a.trace = number(value()?)? != 0,
            "--scale" => {
                let v = value()?;
                a.scale = Scale::parse(&v).ok_or(format!("unknown scale `{v}`"))?;
            }
            "--data-dir" => a.data_dir = PathBuf::from(value()?),
            "--repeat" => a.repeat = Some(number(value()?)? as usize),
            "--ingests" => a.ingests = number(value()?)? as usize,
            "--generate" => a.generate = true,
            "--corrupt-expected" => a.corrupt_expected = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(a)
}

/// Formats a float with every digit it has (JSON has no NaN: a metric
/// that could not be measured reads `null`).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The line recorded with each result: what ran, where and with what.
fn record_line(run: &Run) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let trips = run.scale.dataset_config().trips.num_trips;
    format!(
        r#"{{"record":{{"workload":"{}","seed":{},"seconds":{},"scale":"{}","trips":{},"nproc":{},"commit":"{}","rustc":"{}"}}}}"#,
        run.workload.name(),
        run.seed,
        run.seconds,
        run.scale.name(),
        trips,
        nproc,
        command_output("git", &["rev-parse", "HEAD"]),
        command_output("rustc", &["--version"]),
    )
}

fn result_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                r#""{}": {{"value": {}, "unit": "{}"}}"#,
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        report.tally.failed == 0,
        report.tally.attempted,
        report.tally.failed,
        metrics.join(", ")
    )
}

/// `--repeat`: runs the workload `times` times in child processes and
/// prints each metric's spread.
fn steadiness(argv: &[String], args: &Args, times: usize) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut passthrough: Vec<String> = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        if a == "--repeat" || a == "--seed" {
            it.next();
        } else {
            passthrough.push(a.clone());
        }
    }
    let mut values: Vec<(String, String, Vec<f64>)> = Vec::new();
    for i in 0..times as u64 {
        let seed = args.seed + i;
        let out = Command::new(&exe)
            .args(&passthrough)
            .args(["--seed", &seed.to_string()])
            .output()
            .map_err(|e| format!("starting run {i}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        let parsed: Content = serde_json::from_str(last).map_err(|e| {
            format!(
                "run with seed {seed} printed no result ({e}): {}",
                String::from_utf8_lossy(&out.stderr)
            )
        })?;
        let correct = matches!(parsed.get("correct"), Some(Content::Bool(true)));
        eprintln!("seed {seed}: correct={correct} {last}");
        let Some(Content::Map(metrics)) = parsed.get("metrics") else {
            return Err(format!("seed {seed}: no metrics"));
        };
        for (name, m) in metrics {
            let v = match m.get("value") {
                Some(Content::F64(v)) => *v,
                Some(Content::I64(v)) => *v as f64,
                Some(Content::U64(v)) => *v as f64,
                _ => f64::NAN,
            };
            let unit = match m.get("unit") {
                Some(Content::Str(u)) => u.clone(),
                _ => String::new(),
            };
            match values.iter_mut().find(|(n, _, _)| n == name) {
                Some(entry) => entry.2.push(v),
                None => values.push((name.clone(), unit, vec![v])),
            }
        }
    }
    println!(
        "{:<36} {:>6} {:>12} {:>12} {:>12} {:>9} {:>9}",
        "metric", "unit", "q1", "median", "q3", "iqr/med", "range/med"
    );
    for (name, unit, v) in &values {
        let [q1, med, q3] = if v.len() >= 2 {
            stats::quartiles(v)
        } else {
            [v[0]; 3]
        };
        let s = stats::sorted(v);
        let range = s[s.len() - 1] - s[0];
        println!(
            "{name:<36} {unit:>6} {q1:>12.4} {med:>12.4} {q3:>12.4} {:>9.4} {:>9.4}",
            (q3 - q1) / med,
            range / med
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.generate {
        return match input::generate(&args.data_dir, args.scale, args.seed, args.ingests) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(workload) = args.workload else {
        eprintln!("error: --workload read-mix|read-light|write-mix is required");
        return ExitCode::from(2);
    };
    if let Some(times) = args.repeat {
        return match steadiness(&argv, &args, times) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if let Err(e) = std::fs::create_dir_all(&args.data_dir) {
        eprintln!("error: creating {}: {e}", args.data_dir.display());
        return ExitCode::FAILURE;
    }
    let run = Run {
        workload,
        scale: args.scale,
        plan: args.scale.plan(),
        seed: args.seed,
        seconds: args.seconds,
        data_dir: args.data_dir,
        corrupt_expected: args.corrupt_expected,
    };
    let report = if args.trace {
        traced::run(&run)
    } else {
        workloads::run(&run)
    };
    match report {
        Ok(report) => {
            println!("{}", record_line(&run));
            for line in &report.notes {
                println!("# {line}");
            }
            for reason in &report.tally.reasons {
                eprintln!("failure: {reason}");
            }
            println!("{}", result_line(&report));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

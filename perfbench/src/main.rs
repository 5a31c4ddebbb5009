//! Command line of the benchmark.
//!
//! ```text
//! icn-perfbench --workload NAME --seed N --seconds S --trace 0|1 [--record PATH]
//! icn-perfbench --compare A.json B.json
//! ```
//!
//! A run prints its report (stamp, verdicts, every metric with unit and
//! sample count) as `#` lines, then the result object as the last line of
//! standard output. Errors go to standard error with exit code 1 (2 for
//! usage), and no result is printed.

use std::process::ExitCode;

use icn_perfbench::{record, run, Scale, WORKLOADS};

const USAGE: &str = "usage: icn-perfbench --workload NAME --seed N --seconds S --trace 0|1 [--record PATH]\n       icn-perfbench --compare A.json B.json";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: Option<String>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut record = None;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            "--record" => record = Some(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or(format!("--workload is required ({})", WORKLOADS.join(", ")))?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        record,
    })
}

fn compare(a: &str, b: &str) -> Result<(), String> {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| record::parse_stored(&text).map_err(|e| format!("{path}: {e}")))
    };
    for line in record::compare(&load(a)?, &load(b)?)? {
        println!("{line}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        return match argv.as_slice() {
            [_, a, b] => match compare(a, b) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            },
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse(argv.into_iter()) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(
        &Scale::FULL,
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
    ) {
        Ok((rec, notes)) => {
            for line in rec
                .report_lines()
                .into_iter()
                .chain(notes.into_iter().map(|n| format!("# {n}")))
            {
                println!("{line}");
            }
            if let Some(path) = &args.record {
                if let Err(e) = std::fs::write(path, rec.to_json()) {
                    eprintln!("error: writing {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            println!("{}", rec.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

//! Command line of the benchmark:
//!
//! ```text
//! tpdb-perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints context lines (host record, tail percentiles, digests) and, as
//! the last line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`.

use std::process::ExitCode;
use tpdb_perfbench::workload::Workload;
use tpdb_perfbench::{run, Config};

const USAGE: &str =
    "usage: tpdb-perfbench --workload <meteo-negation|webkit-selective|server-mix> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} expected, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("workload name"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("unsigned integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or_else(|| bad("positive integer"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Config::new(
        workload,
        seed.unwrap_or(1),
        seconds.unwrap_or(10),
        trace.unwrap_or(false),
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&config);
    for note in &report.notes {
        println!("{note}");
    }
    for m in &report.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}

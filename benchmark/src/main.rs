//! Command line: `zr-benchmark --workload NAME --seed N --seconds S --trace 0|1`.
//!
//! Prints every metric by name and unit, then, as the last line of
//! standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. Exits non-zero when an output
//! failed an oracle or an operation failed.

use std::path::PathBuf;
use std::process::ExitCode;

use zr_benchmark::{RunConfig, Workload};

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: zr-benchmark --workload {{{}}} --seed N --seconds S --trace 0|1",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<(Workload, RunConfig), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let trace = trace.unwrap_or(false);
    // Work and span files live under the current directory (the
    // repository root), one work dir per process.
    let work_dir = PathBuf::from(".bench_work").join(format!(
        "{}-{}-{}",
        workload.name(),
        seed,
        std::process::id()
    ));
    let span_file = trace.then(|| {
        PathBuf::from(".bench_trace").join(format!("{}-seed{seed}.jsonl", workload.name()))
    });
    Ok((
        workload,
        RunConfig {
            seed,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
            work_dir,
            span_file,
        },
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("zr-benchmark: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let report = zr_benchmark::run(workload, &cfg);
    for line in report.human(workload.name()) {
        println!("{line}");
    }
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

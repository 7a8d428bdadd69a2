//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints one line per metric, then the result line
//! as the last line of standard output. Exits 0 when every output check
//! passed, 1 when any failed, 2 on a usage error.

use std::process::ExitCode;

use forumcast_perfbench::harness::Opts;
use forumcast_perfbench::workloads;

const USAGE: &str =
    "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--size tiny]";

fn parse(args: &[String]) -> Result<(String, Opts), String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut tiny) =
        (None, None, None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for `{flag}`"))?;
        let bad = |what: &str| format!("invalid {what} `{value}` for `{flag}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("number"))?;
                if !s.is_finite() || s <= 0.0 {
                    return Err(bad("positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--size" if value == "tiny" => tiny = true,
            "--size" => return Err(bad("size (only `tiny`)")),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let opts = Opts {
        seed: seed.ok_or("missing `--seed`")?,
        seconds: seconds.ok_or("missing `--seconds`")?,
        trace: trace.ok_or("missing `--trace`")?,
        tiny,
    };
    Ok((workload.ok_or("missing `--workload`")?, opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = match workloads::run(&workload, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if report.attempted > 0 && !opts.trace {
        report.set(
            "failed_frac",
            report.failed as f64 / report.attempted as f64,
        );
    }
    for problem in &report.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    println!(
        "workload {workload} seed {} seconds {} trace {}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    print!("{}", report.describe(opts.trace));
    println!("{}", report.json_line(opts.trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

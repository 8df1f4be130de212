//! txview benchmark: four workloads, each in a process of its own.
//!
//! ```text
//! txbench --workload <escrow_oltp|bulk_churn|htap_snapshot|served_oltp|all>
//!         --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A readable table of
//! both goes to standard error. `--workload all` runs every workload in a
//! child process and prints one result line per workload.

mod bulk;
mod escrow;
mod htap;
mod ledger;
mod run;
mod served;
mod stats;

use run::{Outcome, END_TO_END, PER_LAYER};
use std::process::{Command, ExitCode, Stdio};

const WORKLOADS: [&str; 4] = ["escrow_oltp", "bulk_churn", "htap_snapshot", "served_oltp"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or all"));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("txbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let cfg = run::Config {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let outcome = match args.workload.as_str() {
        "escrow_oltp" => escrow::run(&cfg),
        "bulk_churn" => bulk::run(&cfg),
        "htap_snapshot" => htap::run(&cfg),
        "served_oltp" => served::run(&cfg),
        _ => unreachable!("workload name checked in parse_args"),
    };
    report(&args.workload, &outcome, args.trace)
}

/// Print the readable table and the JSON result line; non-zero exit on a
/// ledger violation or a metric the samples cannot support.
fn report(workload: &str, o: &Outcome, trace: bool) -> ExitCode {
    eprintln!("{workload}: attempted {} failed {}", o.attempted, o.failed);
    for (name, unit, value) in o.e2e.iter().chain(o.layers.iter()) {
        eprintln!("  {name:<32} {value:>14.3} {unit}");
    }
    for v in &o.violations {
        eprintln!("VIOLATION: {v}");
    }
    let wanted: Vec<&str> = if trace {
        PER_LAYER.iter().map(|(n, _)| *n).collect()
    } else {
        END_TO_END.iter().map(|(n, _)| *n).collect()
    };
    let source = if trace { &o.layers } else { &o.e2e };
    let metrics: Vec<String> = wanted
        .iter()
        .map(|name| {
            let (_, unit, value) = source
                .iter()
                .find(|(n, _, _)| n == name)
                .expect("every metric is computed");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = o.violations.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted,
        o.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run every workload in a child process of its own (so each reports its
/// own peak memory) and print one `<workload> <json>` line per workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("txbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output();
        match out {
            Ok(out) => {
                let stdout = String::from_utf8_lossy(&out.stdout);
                println!("{w} {}", stdout.lines().last().unwrap_or("(no result)"));
                ok &= out.status.success();
            }
            Err(e) => {
                eprintln!("txbench: cannot start {w}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

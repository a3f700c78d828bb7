//! `perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (why each exists: `perfbench/NOTES.md`): `decide-hot`,
//! `decide-coalition`, `adapt-overrides`, `adapt-pep-log`, or `all` to run
//! each in turn. `--trace 0` measures the end-to-end metrics untraced;
//! `--trace 1` adds the traced run and reports the per-layer metrics.
//! Every output is checked against an independent oracle. The last line
//! of standard output is one JSON object: `correct`, `attempted`,
//! `failed`, and the metrics of the mode with their units. The exit code
//! is 0 only when every check passed.

mod adapt;
mod adoption;
mod client;
mod decide;
mod gen;
mod inproc;
mod report;
mod stats;
mod sys;
mod trace;

use report::{RunResult, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: &[&str] = &[
    "decide-hot",
    "decide-coalition",
    "adapt-overrides",
    "adapt-pep-log",
];

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut traced = false;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; choose one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        traced,
    })
}

/// Where a run's span and result files go (created on demand).
pub fn out_path(file: &str) -> PathBuf {
    PathBuf::from("perfbench").join("out").join(file)
}

fn run_one(args: &Args) -> Result<RunResult, String> {
    let mut result = match args.workload.as_str() {
        "decide-hot" => decide::run(decide::Kind::Hot, args.seed, args.seconds, args.traced),
        "decide-coalition" => decide::run(
            decide::Kind::Coalition,
            args.seed,
            args.seconds,
            args.traced,
        ),
        "adapt-overrides" => adapt::run(false, args.seed, args.seconds, args.traced),
        "adapt-pep-log" => adapt::run(true, args.seed, args.seconds, args.traced),
        other => unreachable!("workload {other} was validated"),
    }?;
    if args.traced {
        // A layer this workload's path does not enter spends nothing there.
        for (name, _) in PER_LAYER {
            if !result.metrics.contains_key(name) {
                result.set(name, 0.0, 0);
            }
        }
    }
    Ok(result)
}

/// Runs every workload in its own process, one after another.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut ok = true;
    let mut lines = Vec::new();
    for w in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {w}: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        ok &= out.status.success();
        lines.push(format!(
            "\"{w}\": {}",
            text.lines()
                .last()
                .filter(|l| l.starts_with('{'))
                .unwrap_or("null")
        ));
    }
    println!(
        "{{\"correct\": {ok}, \"workloads\": {{{}}}}}",
        lines.join(", ")
    );
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return match run_all(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let fingerprint = sys::Fingerprint::probe();
    match run_one(&args) {
        Ok(result) => {
            print!(
                "{}",
                result.render(&args.workload, &fingerprint, args.traced)
            );
            println!("{}", result.result_line(args.traced));
            if result.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

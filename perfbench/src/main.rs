//! Workload benchmark for the ribbon workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload plan_hotpath --seed 2 --seconds 20 --trace 0
//! ```
//!
//! Runs one workload through the library's public API for about `--seconds` seconds,
//! checks the program's output, and prints one JSON object as the last line of stdout:
//! end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`. Human
//! readable progress goes to stderr. See `perfbench/README.md` for the workloads, the
//! metrics and the layer predictions.

mod fleet;
mod layers;
mod plan;
mod report;
mod serve;
mod specs;

use report::RunResult;
use std::process::ExitCode;
use std::time::Duration;

/// Every workload this benchmark knows, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["plan_hotpath", "serve_tiered_flash", "fleet_shared_tiered"];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds {value}: must be positive"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (known: {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn run(args: &Args) -> Result<RunResult, String> {
    match args.workload.as_str() {
        "plan_hotpath" => plan::run(args),
        "serve_tiered_flash" => serve::run(args),
        "fleet_shared_tiered" => fleet::run(args),
        _ => unreachable!("validated in parse_args"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(result) => {
            result.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            // Set-up errors (a missing spec file, an unbuildable scenario) print no
            // result line: there is nothing measured to report.
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

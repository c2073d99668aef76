//! End-to-end and per-layer benchmark of the SCUE secure-NVM simulator.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload pmem-replay --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every workload is a closed loop on one thread. Inputs come from
//! `--seed` only; the simulator receives nothing but the generated
//! traces, cases or persist streams. With `--trace 0` the last stdout
//! line is a JSON object with the end-to-end metrics; with `--trace 1` it
//! carries the per-layer metrics of a separate traced pass. See
//! `perfbench/METRICS.md` for what each metric means and which layer it
//! should move.

mod campaign;
mod durable;
mod layers;
mod replay;
mod report;

use report::Report;
use std::process::ExitCode;
use std::time::Duration;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (see [`WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget of the timed loop.
    pub budget: Duration,
    /// Whether to run the traced per-layer pass instead of the
    /// end-to-end measurement.
    pub trace: bool,
}

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = [
    "pmem-replay",
    "spec-replay",
    "crash-campaign",
    "durable-epochs",
];

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut trace = false;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                seed = v.parse().map_err(|_| format!("invalid --seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v.parse().map_err(|_| format!("invalid --seconds `{v}`"))?;
            }
            "--trace" => {
                let v = value()?;
                trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("invalid --trace `{v}` (expected 0 or 1)")),
                };
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        budget: Duration::from_secs(seconds.max(1)),
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report: Report = match args.workload.as_str() {
        "pmem-replay" => replay::run(replay::Mix::Pmem, &args),
        "spec-replay" => replay::run(replay::Mix::Spec, &args),
        "crash-campaign" => campaign::run(&args),
        "durable-epochs" => match durable::run(&args) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("perfbench: durable-epochs: {e}");
                return ExitCode::FAILURE;
            }
        },
        _ => unreachable!("parse_args validated the workload"),
    };
    let mut expected: Vec<&str> = if args.trace {
        layers::fill_absent(&mut report, &args.workload);
        layers::PER_LAYER.iter().map(|&(name, _)| name).collect()
    } else {
        report::END_TO_END.to_vec()
    };
    expected.sort_unstable();
    if report.names() != expected {
        eprintln!(
            "perfbench: reported metrics {:?} differ from the declared set",
            report.names()
        );
        return ExitCode::FAILURE;
    }
    println!("{}", report.to_json().render());
    ExitCode::SUCCESS
}

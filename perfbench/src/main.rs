//! Measured ADA-GP in software.
//!
//! One command, two workloads:
//!
//! * `train_cnn` — a scaled zoo ResNet-50 trained twice on the same
//!   batches: ADA-GP through `AdaGp::train_batch`, and `BaselineTrainer`.
//! * `train_transformer` — the Table-2 encoder–decoder driven through the
//!   public ADA-GP hooks, against a plain-backprop arm.
//!
//! Both interleave their training rounds with cold cycle-model evaluation
//! of the fig17/18/19 and `bandwidth` grids through
//! `adagp_sweep::runner::run_grid`, so every workload reports every
//! metric.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Human-readable detail goes to stdout first; the last stdout line is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones from a separate traced run. See `README.md`.

mod kernels;
mod report;
mod sweep;
mod train;
mod train_cnn;
mod train_transformer;

use report::Report;
use std::time::{Duration, Instant};

/// Command-line arguments, checked where they enter.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const WORKLOADS: [&str; 2] = ["train_cnn", "train_transformer"];

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <u64> --seconds <1..=600> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be in 1..=600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // A sweep round re-executes this binary so every round starts with a
    // cold process-global knee memo; see `sweep.rs`.
    if argv.first().map(String::as_str) == Some(sweep::CHILD_FLAG) {
        std::process::exit(sweep::child_main(&argv[1..]));
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let report: Report = match args.workload.as_str() {
        "train_cnn" => {
            train::run::<train_cnn::CnnWorkload>(process_start, args.seed, budget, args.trace)
        }
        _ => train::run::<train_transformer::TransformerWorkload>(
            process_start,
            args.seed,
            budget,
            args.trace,
        ),
    };
    println!("{}", report.to_json());
}

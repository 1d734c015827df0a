//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-f32|serve-int8|dse-point|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints progress and a metric table, then one JSON result line. Exits
//! 1 when an output check fails and 2 on bad arguments. See
//! `perfbench/README.md` for the workloads and metrics.

use perfbench::workload::{self, RunArgs, Workload};

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload serve-f32|serve-int8|dse-point|all [--seed N] [--seconds S] [--trace 0|1]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workloads = None;
    let mut run = RunArgs {
        seed: 1,
        seconds: 16.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workloads = Some(match value.as_str() {
                    "all" => Workload::ALL.to_vec(),
                    name => vec![Workload::parse(name)
                        .unwrap_or_else(|| usage(&format!("unknown workload `{name}`")))],
                })
            }
            "--seed" => {
                run.seed = value
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes a whole number"))
            }
            "--seconds" => {
                run.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| usage("--seconds takes a positive number"))
            }
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    let workloads = workloads.unwrap_or_else(|| usage("--workload is required"));
    let mut all_correct = true;
    for w in workloads {
        let mut report = workload::run(w, run);
        let line = report.finish();
        all_correct &= report.correct();
        println!("{line}");
    }
    if !all_correct {
        std::process::exit(1);
    }
}

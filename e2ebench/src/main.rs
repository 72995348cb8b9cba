//! Command line of the SODA end-to-end benchmark.
//!
//! ```text
//! soda-e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root, e.g. with
//! `cargo run --release --manifest-path e2ebench/Cargo.toml -- --workload
//! warm_repeat --seed 1 --seconds 10 --trace 0`.  The last line of standard
//! output is the JSON result; the exit code is 0 only when every answer was
//! correct.

use std::process::ExitCode;

use soda_e2ebench::workload::Workload;
use soda_e2ebench::{config, run, Options};

fn usage(problem: &str) -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("error: {problem}");
    eprintln!(
        "usage: soda-e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage("every flag takes a value");
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
            }
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            other => return usage(&format!("unknown flag `{other}`")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are all required");
    };
    let forbidden = config::forbidden_env();
    if !forbidden.is_empty() {
        eprintln!(
            "error: {} would change the system under test; unset before benchmarking",
            forbidden.join(" and ")
        );
        return ExitCode::from(2);
    }
    match run(&Options {
        workload,
        seed,
        seconds,
        trace,
    }) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

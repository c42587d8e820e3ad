//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Run from the repository root:
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --workload login_burst --seed 1 --seconds 10 --trace 0`.
//! Human-readable lines (host facts, every end-to-end metric with its
//! unit, the traced breakdown) come first; the last line of standard
//! output is the JSON result.

use perfbench::{run, Options, Workload, ITERATIONS};
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <login_burst|login_trickle|enroll_durable|cluster_sync> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
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
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
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
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        iterations: ITERATIONS,
        sabotage: false,
        scratch_root: ".perfbench_scratch".into(),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", opts.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let run = if opts.trace { "traced-run" } else { "run" };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} iterations={}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        opts.iterations
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    for m in &outcome.end_to_end {
        println!("{run} end_to_end {} = {} {}", m.name, m.value, m.unit);
    }
    for m in &outcome.per_layer {
        println!("{run} per_layer {} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", perfbench::result_json(&outcome, opts.trace));
    if !outcome.correct || outcome.failed > 0 {
        eprintln!(
            "perfbench: {} wrong decisions or failed requests; see the notes above",
            opts.workload.name()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

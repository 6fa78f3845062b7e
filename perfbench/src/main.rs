//! The repository benchmark: three workloads over the Meta-SGCL training
//! and serving stack, each printing its end-to-end metrics (or, traced,
//! its per-layer metrics) and a one-line JSON result.
//!
//! ```sh
//! bash perfbench/run.sh --workload train-meta --seed 1 --seconds 10 --trace 0
//! bash perfbench/run.sh diff OLD.jsonl NEW.jsonl
//! ```
//!
//! See `perfbench/README.md` for the workloads and metrics.

mod diff;
mod report;
mod session;
mod stats;
mod tcp;
mod trace;
mod train;

use std::collections::BTreeMap;
use std::io::Write;

use report::{Outcome, END_TO_END, PER_LAYER};

const USAGE: &str = "usage: perfbench --workload train-meta|serve-tcp|serve-session --seed N \
                     --seconds S --trace 0|1 [--msgc PATH] [--results FILE]\n       \
                     perfbench diff OLD NEW";

fn parse_flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let name = a
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {a}"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

fn get<T: std::str::FromStr>(flags: &BTreeMap<String, String>, name: &str) -> Result<T, String> {
    flags
        .get(name)
        .ok_or_else(|| format!("--{name} is required"))?
        .parse()
        .map_err(|_| format!("invalid --{name}"))
}

fn run(args: &[String]) -> Result<bool, String> {
    if args.first().map(String::as_str) == Some("diff") {
        return match (args.get(1), args.get(2)) {
            (Some(old), Some(new)) => diff::run("BENCHMARK.json", old, new),
            _ => Err("diff needs OLD and NEW result files".into()),
        };
    }
    let flags = parse_flags(args)?;
    let workload: String = get(&flags, "workload")?;
    let seed: u64 = get(&flags, "seed")?;
    let seconds: f64 = get(&flags, "seconds")?;
    let traced = match get::<u8>(&flags, "trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let outcome: Outcome = match workload.as_str() {
        "train-meta" => train::run(seed, seconds, traced)?,
        "serve-tcp" => {
            let msgc = flags
                .get("msgc")
                .ok_or("serve-tcp needs --msgc PATH (the msgc binary)")?;
            tcp::run(msgc, seed, seconds, traced)?
        }
        "serve-session" => session::run(seed, seconds, traced)?,
        other => return Err(format!("unknown workload {other}")),
    };
    let catalogue = if traced { PER_LAYER } else { END_TO_END };
    for note in &outcome.notes {
        println!("{note}");
    }
    println!(
        "{workload} seed {seed}: attempted {}, failed {}",
        outcome.attempted, outcome.failed
    );
    for &(name, unit) in catalogue {
        let v = outcome.metrics.get(name).copied().unwrap_or(0.0);
        println!("  {name:<32} {v:>16.6} {unit}");
    }
    let line = outcome.to_json(catalogue);
    if let Some(path) = flags.get("results") {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        writeln!(
            f,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {}, \"result\": {line}}}",
            traced as u8
        )
        .map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{line}");
    Ok(outcome.correct && outcome.failed == 0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    }
}

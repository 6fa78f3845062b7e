//! `telemetry_check` — JSONL schema validator for telemetry streams.
//!
//! ```text
//! telemetry_check metrics.jsonl trace.jsonl
//! telemetry_check --admin-snapshot snapshot.jsonl
//! ```
//!
//! The default mode validates every line of each file against the
//! documented event schema (DESIGN.md §10/§15) via
//! [`telemetry::schema::validate_stream`], prints per-kind event counts,
//! and exits non-zero on the first malformed line — the CI
//! `telemetry-smoke` job runs it over freshly produced streams.
//!
//! `--admin-snapshot FILE` validates a serve admin snapshot line
//! (name-sorted metrics + SLO states). Modes may be mixed freely on one
//! command line; each mode flag applies to the files after it.

use std::process::ExitCode;

use meta_sgcl_repro::telemetry::schema::{validate_admin_snapshot, validate_stream};

fn check_stream(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let counts = validate_stream(&text).map_err(|e| format!("{path}: {e}"))?;
    let total: usize = counts.iter().map(|(_, n)| n).sum();
    println!("{path}: {total} event(s) OK");
    for (kind, n) in &counts {
        println!("  {kind:<12} {n}");
    }
    Ok(())
}

fn check_admin_snapshot(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let line = text
        .lines()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("{path}: empty"))?;
    let (metrics, slos) = validate_admin_snapshot(line).map_err(|e| format!("{path}: {e}"))?;
    println!("{path}: admin snapshot OK ({metrics} metrics, {slos} SLO states)");
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        eprintln!("usage: telemetry_check [--admin-snapshot | --stream] FILE [FILE ...]");
        return ExitCode::from(2);
    }
    let mut mode = "--stream";
    let mut checked = 0usize;
    let mut failed = false;
    for arg in &argv {
        if let "--stream" | "--admin-snapshot" = arg.as_str() {
            mode = arg;
            continue;
        }
        checked += 1;
        let result = match mode {
            "--admin-snapshot" => check_admin_snapshot(arg),
            _ => check_stream(arg),
        };
        if let Err(e) = result {
            eprintln!("error: {e}");
            failed = true;
        }
    }
    if checked == 0 {
        eprintln!("error: no files given");
        failed = true;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

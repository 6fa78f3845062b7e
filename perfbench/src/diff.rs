//! `perfbench diff OLD NEW`: compares two result sets and labels each
//! (workload, end-to-end metric) as improved, regressed or unresolved,
//! using the bounds in `BENCHMARK.json`.
//!
//! A result set is a JSONL file of runs, one line per run, as
//! `--results FILE` appends them. Only untraced runs count. The rules:
//!
//! * **regressed** — the new median is worse than the old by more than
//!   the metric's bound. When the old runs spread wider than the bound,
//!   only if every new run is worse than every old run.
//! * **improved** — the new side wins at least nine tenths of the pairs
//!   (runs of the same seed; ties count for neither) and the medians
//!   differ by more than the old runs' interquartile distance. When the
//!   old runs spread wider than the bound, only if every new run is
//!   better than every old run.
//! * **unresolved** — neither was shown.

use std::collections::BTreeMap;

use meta_sgcl_repro::telemetry::json::{parse, Json};

use crate::stats::{median, quartiles, rel_spread};

/// An end-to-end metric's contract from `BENCHMARK.json`.
struct Contract {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

/// Runs by (workload, metric): (seed, value) pairs.
type Runs = BTreeMap<(String, String), Vec<(u64, f64)>>;

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn contracts(bench: &str) -> Result<Vec<Contract>, String> {
    let doc = read_json(bench)?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{bench}: no end_to_end list"))?
        .iter()
        .map(|m| {
            Some(Contract {
                name: m.get("name")?.as_str()?.to_string(),
                higher_is_better: m.get("better")?.as_str()? == "higher",
                bound: m.get("bound")?.as_num()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| format!("{bench}: malformed end_to_end entry"))
}

fn runs(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out = Runs::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let run = parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        if run.get("trace").and_then(Json::as_num) == Some(1.0) {
            continue;
        }
        let field = |k: &str| {
            run.get(k)
                .ok_or_else(|| format!("{path}:{}: no {k}", i + 1))
        };
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        let seed = field("seed")?.as_num().unwrap_or(0.0) as u64;
        let metrics = field("result")?
            .get("metrics")
            .and_then(|m| match m {
                Json::Obj(map) => Some(map),
                _ => None,
            })
            .ok_or_else(|| format!("{path}:{}: no result metrics", i + 1))?;
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_num) {
                out.entry((workload.clone(), name.clone()))
                    .or_default()
                    .push((seed, v));
            }
        }
    }
    Ok(out)
}

/// The verdict on one (workload, metric).
#[derive(Debug, PartialEq)]
pub enum Label {
    Improved,
    Regressed,
    Unresolved,
}

/// Labels one metric from its old and new `(seed, value)` runs. Returns
/// the label and the reason.
fn label(
    old: &[(u64, f64)],
    new: &[(u64, f64)],
    higher_is_better: bool,
    bound: f64,
) -> (Label, String) {
    let sign = if higher_is_better { 1.0 } else { -1.0 };
    let o: Vec<f64> = old.iter().map(|r| r.1).collect();
    let n: Vec<f64> = new.iter().map(|r| r.1).collect();
    let (mo, mn) = (median(&o), median(&n));
    let change = sign * (mn - mo) / mo.abs().max(f64::MIN_POSITIVE);
    let spread = rel_spread(&o);
    let better = |a: f64, b: f64| sign * (a - b) > 0.0;
    let all_better = n.iter().all(|&x| o.iter().all(|&y| better(x, y)));
    let all_worse = n.iter().all(|&x| o.iter().all(|&y| better(y, x)));
    if spread > bound {
        return match (all_better, all_worse) {
            (true, _) => (Label::Improved, "every new run beats every old run".into()),
            (_, true) => (
                Label::Regressed,
                "every new run trails every old run".into(),
            ),
            _ => (
                Label::Unresolved,
                format!("old spread {spread:.3} exceeds bound {bound}"),
            ),
        };
    }
    if change < -bound {
        return (
            Label::Regressed,
            format!("median worse by {:.3} > bound {bound}", -change),
        );
    }
    // Pairs are runs of the same seed; without common seeds, every old
    // run is paired with every new run.
    let mut pairs: Vec<(f64, f64)> = new
        .iter()
        .filter_map(|&(s, v)| old.iter().find(|r| r.0 == s).map(|r| (v, r.1)))
        .collect();
    if pairs.is_empty() {
        pairs = n
            .iter()
            .flat_map(|&x| o.iter().map(move |&y| (x, y)))
            .collect();
    }
    let wins = pairs.iter().filter(|&&(x, y)| better(x, y)).count();
    let (q1, q3) = quartiles(&o);
    if wins * 10 >= pairs.len() * 9 && (mn - mo).abs() > q3 - q1 {
        return (
            Label::Improved,
            format!("won {wins} of {} pairs", pairs.len()),
        );
    }
    (
        Label::Unresolved,
        format!("within bound {bound}; won {wins} of {} pairs", pairs.len()),
    )
}

/// Prints the comparison; `Ok(false)` when anything regressed.
pub fn run(bench: &str, old: &str, new: &str) -> Result<bool, String> {
    let contracts = contracts(bench)?;
    let (old, new) = (runs(old)?, runs(new)?);
    let workloads: Vec<&String> = {
        let mut w: Vec<&String> = old.keys().map(|k| &k.0).collect();
        w.dedup();
        w
    };
    let mut regressed = false;
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>8}  label (reason)",
        "workload", "metric", "old median", "new median", "change"
    );
    for w in workloads {
        for c in &contracts {
            let key = (w.clone(), c.name.clone());
            let (Some(o), Some(n)) = (old.get(&key), new.get(&key)) else {
                continue;
            };
            let (l, why) = label(o, n, c.higher_is_better, c.bound);
            regressed |= l == Label::Regressed;
            let (mo, mn) = (
                median(&o.iter().map(|r| r.1).collect::<Vec<_>>()),
                median(&n.iter().map(|r| r.1).collect::<Vec<_>>()),
            );
            println!(
                "{w:<14} {:<18} {mo:>14.6} {mn:>14.6} {:>+7.1}%  {} ({why})",
                c.name,
                100.0 * (mn - mo) / mo.abs().max(f64::MIN_POSITIVE),
                format!("{l:?}").to_lowercase()
            );
        }
    }
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(vals: &[f64]) -> Vec<(u64, f64)> {
        vals.iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, v))
            .collect()
    }

    #[test]
    fn a_clear_latency_drop_is_an_improvement() {
        let old = runs(&[10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.1, 9.9]);
        let new = runs(&[8.0, 8.1, 7.9, 8.05, 7.95, 8.0, 8.02, 7.98, 8.1, 7.9]);
        assert_eq!(label(&old, &new, false, 0.1).0, Label::Improved);
        // The same numbers read as throughput are a regression.
        assert_eq!(label(&old, &new, true, 0.1).0, Label::Regressed);
    }

    #[test]
    fn a_change_within_the_bound_is_unresolved() {
        let old = runs(&[10.0, 10.5, 9.5, 10.2, 9.8]);
        let new = runs(&[10.3, 9.7, 10.4, 9.9, 10.1]);
        assert_eq!(label(&old, &new, false, 0.1).0, Label::Unresolved);
    }

    #[test]
    fn a_wide_spread_needs_complete_separation() {
        let old = runs(&[5.0, 10.0, 15.0, 20.0]);
        let new = runs(&[21.0, 22.0, 23.0, 24.0]);
        assert_eq!(label(&old, &new, false, 0.1).0, Label::Regressed);
        let new = runs(&[4.0, 12.0, 30.0, 30.0]);
        assert_eq!(label(&old, &new, false, 0.1).0, Label::Unresolved);
    }
}

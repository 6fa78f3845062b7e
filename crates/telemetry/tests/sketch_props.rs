//! Property test gating the quantile sketch's documented accuracy bound.
//!
//! For arbitrary observation sets, the sketch's p50/p99 (and the other
//! reported quantiles) must land within relative error α of the exact
//! sorted-rank quantile computed with the same rank rule
//! (`⌊q·(n-1)⌋`). This is the serving latency sketch's accuracy gate,
//! swept over the input space rather than measured on one workload.

use proptest::prelude::*;
use telemetry::sketch::{DdSketch, REPORTED_QUANTILES};

fn exact(sorted: &[u64], q: f64) -> u64 {
    let target = (q * (sorted.len() - 1) as f64).floor() as usize;
    sorted[target]
}

/// Relative error of `est` against `want`, treating exact zero specially
/// (bucket 0 is exact, so the estimate must be exactly 0 there).
fn rel_err(est: f64, want: u64) -> f64 {
    if want == 0 {
        est.abs()
    } else {
        (est - want as f64).abs() / want as f64
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn reported_quantiles_within_alpha_of_exact(
        // Latency-shaped values across many orders of magnitude, plus
        // exact zeros (selector picks the scale per element).
        mut vals in prop::collection::vec(
            (0u8..8, 1u64..u64::MAX / 2).prop_map(|(sel, x)| match sel {
                0 => 0,
                1..=3 => x % 1_000,
                4..=6 => x % 1_000_000,
                _ => x,
            }),
            1..2_000,
        ),
        alpha_i in 0usize..3,
    ) {
        let alpha = [0.005f64, 0.01, 0.02][alpha_i];
        let s = DdSketch::new(alpha);
        for &v in &vals {
            s.record(v);
        }
        vals.sort_unstable();
        for (name, q) in REPORTED_QUANTILES {
            let est = s.quantile(q).unwrap();
            let want = exact(&vals, q);
            let err = rel_err(est, want);
            prop_assert!(
                err <= alpha + 1e-9,
                "{name} (α={alpha}): estimate {est} vs exact {want}, rel err {err}"
            );
        }
    }

    #[test]
    fn merged_sketch_keeps_the_bound(
        a in prop::collection::vec(1u64..100_000, 1..500),
        b in prop::collection::vec(1u64..100_000, 1..500),
    ) {
        let sa = DdSketch::new(0.01);
        let sb = DdSketch::new(0.01);
        for &v in &a { sa.record(v); }
        for &v in &b { sb.record(v); }
        sa.merge_from(&sb);
        let mut all: Vec<u64> = a.iter().chain(&b).copied().collect();
        all.sort_unstable();
        for (_, q) in [("p50", 0.5), ("p99", 0.99)] {
            let est = sa.quantile(q).unwrap();
            let want = exact(&all, q);
            prop_assert!(rel_err(est, want) <= 0.01 + 1e-9);
        }
    }
}

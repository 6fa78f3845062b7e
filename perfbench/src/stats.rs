//! The benchmark's own statistics: order statistics over samples and
//! self-time over trace spans.

/// Arithmetic mean; `0.0` for no samples.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); `0.0` for no
/// samples.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the "exclusive" method, which is what
/// Python's `statistics.quantiles(values, n=4)` computes.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => (0.0, 0.0),
        1 => (v[0], v[0]),
        _ => {
            let m = n + 1;
            let at = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (at(1), at(3))
        }
    }
}

/// Interquartile distance as a share of the median (`0.0` when the median
/// is zero).
pub fn rel_spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    let med = median(xs);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// The tail of a latency sample: the highest percentile that still has at
/// least ten samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at that percentile.
    pub value: f64,
    /// The percentile, in percent.
    pub percentile: f64,
    /// Samples the tail was taken from.
    pub n: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The value with exactly [`TAIL_BEYOND`] samples above it in sorted
/// order, labelled with its percentile `100·(n − 10)/n`. With fewer than
/// eleven samples no percentile has ten beyond it; the maximum is
/// returned, labelled 100.
pub fn tail(xs: &[f64]) -> Tail {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 100.0,
            n,
        };
    }
    if n <= TAIL_BEYOND {
        return Tail {
            value: v[n - 1],
            percentile: 100.0,
            n,
        };
    }
    Tail {
        value: v[n - 1 - TAIL_BEYOND],
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        n,
    }
}

/// Samples per block of [`block_tail`]: ten beyond in a hundred makes each
/// block's tail its p90.
pub const TAIL_BLOCK: usize = 100;

/// The tail of a long run: the samples, in the order they were taken, are
/// cut into blocks of about [`TAIL_BLOCK`]; each block's [`tail`] is
/// taken, and the median block is reported, labelled with the block's
/// percentile and `n` = samples per block. A run shorter than two blocks
/// is one block, so this is [`tail`] over all samples. On a shared host a
/// run's p99 is set by how often other tenants preempt it, which changes
/// from run to run; a block's p90 is set mostly by the program's own slow
/// requests, and the median block keeps a burst of preemptions in one part
/// of the run from setting the tail alone.
pub fn block_tail(xs: &[f64]) -> Tail {
    let blocks = (xs.len() / TAIL_BLOCK).max(1);
    let size = xs.len() / blocks;
    let tails: Vec<Tail> = (0..blocks)
        .map(|b| {
            let end = if b + 1 == blocks {
                xs.len()
            } else {
                (b + 1) * size
            };
            tail(&xs[b * size..end])
        })
        .collect();
    let value = median(&tails.iter().map(|t| t.value).collect::<Vec<_>>());
    Tail {
        value,
        percentile: tails[0].percentile,
        n: tails[0].n,
    }
}

/// Throughput as the median over one-second windows of the completion
/// rate. `done` holds completion times in seconds since the start of the
/// run, in any order; a window's rate is `(k − 1) / (last − first)` over
/// its `k ≥ 2` completions. Only whole windows count; a run shorter than
/// two windows falls back to `len / span`.
pub fn windowed_rate(done: &[f64]) -> f64 {
    let mut t = sorted(done);
    t.retain(|x| x.is_finite());
    let whole = t.last().map_or(0, |&x| x.floor() as usize);
    let rates: Vec<f64> = (0..whole)
        .filter_map(|w| {
            let lo = t.partition_point(|&x| x < w as f64);
            let hi = t.partition_point(|&x| x < (w + 1) as f64);
            (hi - lo >= 2).then(|| (hi - lo - 1) as f64 / (t[hi - 1] - t[lo]))
        })
        .filter(|r| r.is_finite())
        .collect();
    if rates.len() >= 2 {
        median(&rates)
    } else {
        match (t.first(), t.last()) {
            (Some(a), Some(b)) if b > a => (t.len() - 1) as f64 / (b - a),
            _ => 0.0,
        }
    }
}

/// A span's self time: its duration minus the part of its interval that
/// the union of its children's intervals covers. Children may overlap each
/// other (parallel shards) and may stick out of the parent; only the
/// covered part of the parent counts once.
pub fn self_time(start: u64, dur: u64, children: &[(u64, u64)]) -> u64 {
    let end = start.saturating_add(dur);
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, d)| (s.max(start), s.saturating_add(d).min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    dur - covered.min(dur)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn rel_spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((rel_spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(rel_spread(&[2.0; 10]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.n, 100);
        assert!((t.percentile - 90.0).abs() < 1e-12);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);

        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 990.0);
        assert!((t.percentile - 99.0).abs() < 1e-12);
    }

    #[test]
    fn tail_of_a_small_sample_is_its_maximum() {
        assert_eq!(tail(&[3.0, 1.0, 2.0]).value, 3.0);
        assert_eq!(tail(&[3.0, 1.0, 2.0]).percentile, 100.0);
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&eleven).value, 1.0);
        assert_eq!(tail(&[]).n, 0);
    }

    #[test]
    fn block_tail_is_the_median_block_tail() {
        // Short runs are one block: the plain tail.
        let short: Vec<f64> = (1..=150).map(f64::from).collect();
        assert_eq!(block_tail(&short), tail(&short));
        // Three blocks of 100; one holds a burst of 40 huge stalls that
        // would set the plain tail alone.
        let mut xs: Vec<f64> = (0..300).map(|i| f64::from(i % 100)).collect();
        for x in xs.iter_mut().take(40) {
            *x = 1e6;
        }
        assert_eq!(tail(&xs).value, 1e6);
        let t = block_tail(&xs);
        assert_eq!(t.value, 89.0);
        assert_eq!(t.n, 100);
        assert!((t.percentile - 90.0).abs() < 1e-12);
    }

    #[test]
    fn windowed_rate_is_the_median_window_rate() {
        // 100/s for 3 s, then 10/s for 1 s: the median window reads 100.
        let mut done: Vec<f64> = (0..300).map(|i| f64::from(i) / 100.0).collect();
        done.extend((0..10).map(|i| 3.0 + f64::from(i) / 10.0));
        done.push(4.0);
        assert!((windowed_rate(&done) - 100.0).abs() < 1e-9);
        // Under two whole windows: completions over their span.
        assert!((windowed_rate(&[0.0, 0.25, 0.5]) - 4.0).abs() < 1e-12);
        assert_eq!(windowed_rate(&[]), 0.0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // No children: all self.
        assert_eq!(self_time(100, 50, &[]), 50);
        // Two sequential children.
        assert_eq!(self_time(0, 100, &[(10, 20), (40, 30)]), 50);
        // Overlapping (parallel) children count once.
        assert_eq!(self_time(0, 100, &[(10, 40), (20, 40)]), 50);
        // A child sticking out of the parent is clipped to it.
        assert_eq!(self_time(100, 100, &[(50, 100), (190, 50)]), 40);
        // A child outside the parent's interval covers nothing.
        assert_eq!(self_time(0, 10, &[(20, 5)]), 10);
        // Fully covered.
        assert_eq!(self_time(0, 10, &[(0, 10), (2, 3)]), 0);
    }
}

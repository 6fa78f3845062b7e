//! Sampled softmax: the negative-sampling training objective that breaks
//! the `O(|items|)` full-catalog logits wall.
//!
//! Every tied-softmax model in this repo trains by scoring the hidden
//! state against the *entire* item table (`h · Mᵀ`, Eq. 22) and taking a
//! cross-entropy over all `|V|` columns. That GEMM dominates the step cost
//! as soon as the catalog outgrows the hidden dimension, and caps training
//! at a few hundred items. Sampled softmax replaces the full table with a
//! small shared candidate list per training shard:
//!
//! 1. collect the real (non-padding) targets of the shard,
//! 2. draw `negatives` candidate items from a proposal distribution
//!    ([`NegativeSampler`]), and
//! 3. take the cross-entropy over the union, with each target remapped to
//!    its position in the candidate list.
//!
//! The candidate logits are built from existing registered ops only
//! (`index_select_rows` → `matmul_transb` → `reshape` →
//! `cross_entropy_with_logits`), so the static auditor's shape and
//! gradient-flow passes cover the sampled graph with no new kernels.
//!
//! # Determinism contract
//!
//! Negative draws come from the *same* RNG stream the caller already uses
//! for dropout (the per-shard stream derived by `Executor::shard_seed` in
//! data-parallel training), and are taken after the forward pass consumed
//! its dropout draws. Shard arithmetic therefore stays a pure function of
//! `(seed, shard index)` and the threads=1-vs-N byte-identity contract
//! survives unchanged.
//!
//! # Exactness at the degenerate point
//!
//! With `negatives >= num_items` the candidate list degenerates to the
//! identity `[0, vocab)`: the gather copies the whole table in order, the
//! remap is the identity, and the loss is **bitwise equal** to the full
//! softmax (property-tested in `tests/sampled_props.rs`). This is the
//! correctness anchor for the sampled path.
//!
//! # No logQ correction
//!
//! Classic sampled softmax subtracts `log Q(item)` from each candidate
//! logit to stay an unbiased estimator of the full softmax. We deliberately
//! skip the correction: candidates are deduplicated and shared across the
//! shard (the "shared negatives" scheme of CL4SRec-style recommenders),
//! where the correction's bias trade-off is known to be benign and the
//! uncorrected loss is what the comparison implementations train with. The
//! convergence test in `tests/sampled_props.rs` checks the uncorrected
//! objective still reaches full-softmax quality.
//!
//! Padding id 0 is never drawn as a negative and real targets are never 0,
//! so the padding row only enters the candidate list in the degenerate
//! full-catalog case (where full softmax includes it too).

use autograd::{Var, IGNORE_INDEX};
use rand::rngs::StdRng;
use rand::Rng;
use recdata::Batch;
use tensor::bug::OrBug;

/// How the next-item softmax denominator is built during training.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SoftmaxMode {
    /// Full-catalog cross-entropy (the paper's objective, `O(|V|)` per
    /// position).
    #[default]
    Full,
    /// Sampled softmax over the shard's targets plus `negatives` drawn
    /// candidates (`O(targets + negatives)` per position).
    Sampled {
        /// Number of negative draws per shard (with replacement, before
        /// deduplication). Values `>= num_items` degenerate to [`SoftmaxMode::Full`]
        /// arithmetic.
        negatives: usize,
        /// Proposal distribution for the draws.
        sampler: NegativeSampler,
    },
}

/// Proposal distribution for negative candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NegativeSampler {
    /// Uniform over real items `1..=num_items`.
    #[default]
    Uniform,
    /// Log-uniform (Zipf-like) over `1..=num_items`:
    /// `P(k) ∝ log(1 + 1/k)`, favouring small ids. The standard choice
    /// when item ids are roughly frequency-ranked, and the distribution
    /// TF's `log_uniform_candidate_sampler` implements.
    LogUniform,
}

impl NegativeSampler {
    /// Parses a CLI name (`uniform` | `log-uniform`).
    pub fn parse(s: &str) -> Option<NegativeSampler> {
        match s {
            "uniform" => Some(NegativeSampler::Uniform),
            "log-uniform" | "log_uniform" | "loguniform" => Some(NegativeSampler::LogUniform),
            _ => None,
        }
    }

    /// Draws one candidate item id in `1..=num_items` (never padding 0).
    pub fn draw(self, rng: &mut StdRng, num_items: usize) -> usize {
        match self {
            NegativeSampler::Uniform => rng.gen_range(1..=num_items),
            NegativeSampler::LogUniform => {
                // Inverse-CDF sample of P(k) ∝ log(1 + 1/k) over 1..=n:
                // k = floor(exp(u · ln(n + 1))) ∈ [1, n] for u ∈ [0, 1).
                let u: f64 = rng.gen();
                let k = (u * ((num_items as f64) + 1.0).ln()).exp() as usize;
                k.clamp(1, num_items)
            }
        }
    }
}

/// Flattens a batch's per-position targets row-major, as every
/// cross-entropy caller needs them (`IGNORE_INDEX` at padding).
pub fn flat_targets(batch: &Batch) -> Vec<usize> {
    batch
        .targets
        .iter()
        .flat_map(|row| row.iter().copied())
        .collect()
}

/// Builds the shared candidate list for one training shard, or `None` when
/// `mode` is [`SoftmaxMode::Full`].
///
/// The list is the sorted union of the real targets and `negatives` draws
/// from the sampler (deduplicated), ascending by item id so candidate
/// order — and therefore the loss arithmetic — is independent of draw
/// order. With `negatives >= num_items` it is exactly `[0, num_items]` in
/// order, which makes [`sampled_ce`] bitwise-equal to the full softmax.
pub fn draw_candidates(
    targets: &[usize],
    num_items: usize,
    mode: &SoftmaxMode,
    rng: &mut StdRng,
) -> Option<Vec<usize>> {
    let &SoftmaxMode::Sampled { negatives, sampler } = mode else {
        return None;
    };
    if negatives >= num_items {
        // Degenerate full-catalog list, including the padding row 0 —
        // identical arithmetic to the full softmax denominator.
        return Some((0..=num_items).collect());
    }
    let mut seen = vec![false; num_items + 1];
    for &t in targets {
        if t != IGNORE_INDEX {
            seen[t] = true;
        }
    }
    for _ in 0..negatives {
        seen[sampler.draw(rng, num_items)] = true;
    }
    Some(
        seen.iter()
            .enumerate()
            .filter_map(|(id, &s)| s.then_some(id))
            .collect(),
    )
}

/// Remaps catalog-id targets to candidate-list positions.
/// `IGNORE_INDEX` (padding) passes through; every real target must appear
/// in `candidates`.
pub fn remap_targets(targets: &[usize], candidates: &[usize], vocab: usize) -> Vec<usize> {
    let mut pos = vec![IGNORE_INDEX; vocab];
    for (i, &c) in candidates.iter().enumerate() {
        pos[c] = i;
    }
    targets
        .iter()
        .map(|&t| {
            if t == IGNORE_INDEX {
                IGNORE_INDEX
            } else {
                let p = pos[t];
                if p == IGNORE_INDEX {
                    // Candidate construction unions the targets in; a miss
                    // here is a bug, not a data condition.
                    None.or_bug("sampled softmax: target missing from candidate list")
                } else {
                    p
                }
            }
        })
        .collect()
}

/// The sampled cross-entropy: gathers the candidate rows of the tied item
/// table, scores the hidden states against them with the fused NT GEMM,
/// and takes the cross-entropy with targets remapped to candidate
/// positions.
///
/// `hidden` is `[.., d]` (rank 2 or 3 — trailing dim must match the
/// table); `table` is the `[vocab, d]` item-embedding var. Mirrors the op
/// order of the full path (`matmul_transb → reshape → cross_entropy`) with
/// one gather inserted, so the identity candidate list reproduces the full
/// loss bit for bit.
pub fn sampled_ce(hidden: &Var, table: &Var, targets: &[usize], candidates: &[usize]) -> Var {
    let vocab = table.dims()[0];
    let sub = table.index_select_rows(candidates); // [C, d]
    let logits = hidden.matmul_transb(&sub); // [.., C]
    let dims = logits.dims();
    let rows: usize = dims[..dims.len() - 1].iter().product();
    let flat = logits.reshape(vec![rows, candidates.len()]);
    flat.cross_entropy_with_logits(&remap_targets(targets, candidates, vocab))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn samplers_never_draw_padding_and_stay_in_range() {
        let mut rng = StdRng::seed_from_u64(9);
        for sampler in [NegativeSampler::Uniform, NegativeSampler::LogUniform] {
            for n in [1usize, 2, 7, 1000] {
                for _ in 0..500 {
                    let id = sampler.draw(&mut rng, n);
                    assert!((1..=n).contains(&id), "{sampler:?} drew {id} for n={n}");
                }
            }
        }
    }

    #[test]
    fn log_uniform_favours_small_ids() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 1000usize;
        let mut low = 0usize;
        for _ in 0..10_000 {
            if NegativeSampler::LogUniform.draw(&mut rng, n) <= 31 {
                low += 1;
            }
        }
        // P(id <= 31) = ln(32)/ln(1001) ≈ 0.50 under log-uniform vs ~0.03
        // under uniform.
        assert!(
            (4_000..6_000).contains(&low),
            "P(id<=31) draws: {low}/10000"
        );
    }

    #[test]
    fn candidates_cover_targets_sorted_without_padding() {
        let mut rng = StdRng::seed_from_u64(1);
        let targets = vec![5, IGNORE_INDEX, 2, 9, IGNORE_INDEX];
        let mode = SoftmaxMode::Sampled {
            negatives: 4,
            sampler: NegativeSampler::Uniform,
        };
        let c = draw_candidates(&targets, 50, &mode, &mut rng).expect("sampled");
        assert!(c.windows(2).all(|w| w[0] < w[1]), "sorted unique: {c:?}");
        assert!(!c.contains(&0), "padding never a candidate: {c:?}");
        for t in [5, 2, 9] {
            assert!(c.contains(&t), "target {t} missing from {c:?}");
        }
        assert!(c.len() <= 3 + 4);
    }

    #[test]
    fn full_catalog_sample_count_degenerates_to_identity() {
        let mut rng = StdRng::seed_from_u64(2);
        let mode = SoftmaxMode::Sampled {
            negatives: 10,
            sampler: NegativeSampler::LogUniform,
        };
        let c = draw_candidates(&[1, 2], 10, &mode, &mut rng).expect("sampled");
        assert_eq!(c, (0..=10).collect::<Vec<_>>());
    }

    #[test]
    fn full_mode_draws_nothing() {
        let mut rng = StdRng::seed_from_u64(4);
        let before = rng.clone().gen::<u64>();
        assert!(draw_candidates(&[1], 10, &SoftmaxMode::Full, &mut rng).is_none());
        assert_eq!(rng.gen::<u64>(), before, "full mode must not consume RNG");
    }

    #[test]
    fn remap_is_positional_and_keeps_ignores() {
        let r = remap_targets(&[7, IGNORE_INDEX, 3], &[3, 5, 7], 8);
        assert_eq!(r, vec![2, IGNORE_INDEX, 0]);
    }
}

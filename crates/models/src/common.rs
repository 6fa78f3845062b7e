//! The model trait, training configuration, and the shared evaluation
//! protocol.

use std::cmp::Ordering;

use metrics::{EvalReport, MetricAccumulator};
use recdata::{ItemId, LeaveOneOut};

use crate::sampled::SoftmaxMode;

/// Shared training hyper-parameters.
///
/// Defaults follow the paper's implementation details (Adam, lr 1e-3,
/// dropout 0.2, 2 heads) at reproduction scale.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of passes over the training sequences.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Maximum (padded) sequence length `T`.
    pub max_len: usize,
    /// RNG seed for shuffling, dropout, and sampling.
    pub seed: u64,
    /// Global-norm gradient clip (0 disables).
    pub grad_clip: f32,
    /// Print a line per epoch when true.
    pub verbose: bool,
    /// Worker threads for data-parallel training (1 = serial). Thread count
    /// affects only which worker computes each shard, never the arithmetic,
    /// so results are identical for any value given the same seed and
    /// `shard_size`.
    pub threads: usize,
    /// Rows per gradient shard. Each mini-batch is split into contiguous
    /// shards of at most this many sequences; shards run forward/backward
    /// independently (in parallel when `threads > 1`) and their gradients
    /// are mean-reduced in fixed shard order. Contrastive terms draw
    /// in-batch negatives per shard, so smaller shards mean fewer negatives.
    pub shard_size: usize,
    /// Opt-in numeric sanitizer (debug mode). When true, every training
    /// shard's activations and collected gradients are scanned for
    /// NaN/Inf/exploding norms at stage boundaries, and training aborts
    /// with per-op blame (op name, tape node, parameter) on the first
    /// violation. Costs one extra pass over the tape per shard; off by
    /// default.
    pub sanitize: bool,
    /// Write a full training checkpoint (parameters, optimizer moments,
    /// RNG and schedule cursors) every this many optimizer steps. `0`
    /// disables periodic checkpointing. Requires [`TrainConfig::ckpt_dir`].
    pub save_every: u64,
    /// Retention: keep only the newest this many periodic checkpoints,
    /// pruning older ones after each save. `0` keeps everything.
    pub keep_last: usize,
    /// Directory for periodic checkpoints (`ckpt-<step>.msgc2` files).
    pub ckpt_dir: Option<String>,
    /// Resume training from a checkpoint: either a specific `.msgc2` file
    /// or a checkpoint directory (the newest valid checkpoint is used).
    /// Training continues from the exact epoch/batch/RNG position and is
    /// bitwise identical to a run that was never interrupted.
    pub resume: Option<String>,
    /// Halt after this many global optimizer steps (`0` = no limit). A
    /// partial epoch cut short by this limit is not recorded in the
    /// training history. Used to make "interrupted" runs reproducible in
    /// tests and the resume-smoke CI job.
    pub max_steps: u64,
    /// Write deterministic telemetry (per-batch/epoch loss decomposition,
    /// health events, deterministic metric snapshot) as JSONL to this path.
    /// The file is bitwise identical across `threads` values. `None`
    /// disables the stream (and, together with `trace_out`, leaves the
    /// telemetry registry disabled entirely — zero hot-loop overhead).
    pub metrics_out: Option<String>,
    /// Write tracing spans (epoch > batch > stage/forward/backward),
    /// wall-clock timings, and the full metric snapshot (including
    /// nondeterministic counters) as JSONL to this path.
    pub trace_out: Option<String>,
    /// Treat any fired health detector (KL collapse, dead σ', non-finite or
    /// exploding loss) as a training error after the run completes.
    pub strict_health: bool,
    /// How the next-item softmax denominator is built during training:
    /// full-catalog cross-entropy (default) or sampled softmax over a
    /// shared per-shard candidate list (see [`crate::sampled`]). Models
    /// without a tied-softmax objective ignore this. Evaluation and serving
    /// always score the full catalog regardless of the training mode.
    pub softmax: SoftmaxMode,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 30,
            batch_size: 64,
            lr: 1e-3,
            max_len: 20,
            seed: 42,
            grad_clip: 5.0,
            verbose: false,
            threads: 1,
            shard_size: 16,
            sanitize: false,
            save_every: 0,
            keep_last: 0,
            ckpt_dir: None,
            resume: None,
            max_steps: 0,
            metrics_out: None,
            trace_out: None,
            strict_health: false,
            softmax: SoftmaxMode::Full,
        }
    }
}

/// A next-item recommender that can be trained on user sequences and can
/// score the full item catalog for a user.
///
/// `Send` is required so trained models can move across threads (e.g. the
/// bench harness evaluating several models concurrently); all implementors
/// hold thread-safe [`autograd::ParamRef`] parameters and owned RNG state.
pub trait SequentialRecommender: Send {
    /// Model name as it appears in the paper's tables.
    fn name(&self) -> String;

    /// Number of real items (catalog size).
    fn num_items(&self) -> usize;

    /// Trains on per-user chronological sequences (`train[user]`).
    fn fit(&mut self, train: &[Vec<ItemId>], cfg: &TrainConfig);

    /// Scores every item for the given user and interaction history.
    /// Returns `num_items + 1` scores; index 0 (padding) is ignored by the
    /// evaluator. `user` indexes into the training sequence list; models
    /// without user embeddings ignore it.
    fn score(&mut self, user: usize, seq: &[ItemId]) -> Vec<f32>;
}

/// Evaluates on the test targets: input is `train ++ [valid_target]`,
/// ground truth is the last item (the paper's protocol).
pub fn evaluate_test(
    model: &mut dyn SequentialRecommender,
    split: &LeaveOneOut,
    ks: &[usize],
) -> EvalReport {
    let mut acc = MetricAccumulator::new(ks);
    for (user, u) in split.users.iter().enumerate() {
        let input = u.test_input();
        let scores = model.score(user, &input);
        debug_assert_eq!(scores.len(), model.num_items() + 1);
        acc.add_scores(&scores, u.test_target);
    }
    acc.finish()
}

/// Evaluates on the validation targets: input is the training prefix,
/// ground truth is the penultimate item.
pub fn evaluate_valid(
    model: &mut dyn SequentialRecommender,
    split: &LeaveOneOut,
    ks: &[usize],
) -> EvalReport {
    let mut acc = MetricAccumulator::new(ks);
    for (user, u) in split.users.iter().enumerate() {
        let scores = model.score(user, &u.train);
        acc.add_scores(&scores, u.valid_target);
    }
    acc.finish()
}

/// Produces the top-`k` recommended items for a user, optionally excluding
/// items already in the interaction history (the usual serving behaviour).
/// Returns `(item, score)` pairs in descending score order, ranked by
/// [`top_k_scores`].
pub fn recommend_top_k(
    model: &mut dyn SequentialRecommender,
    user: usize,
    seq: &[ItemId],
    k: usize,
    exclude_seen: bool,
) -> Vec<(ItemId, f32)> {
    let scores = model.score(user, seq);
    let seen: std::collections::HashSet<ItemId> = if exclude_seen {
        seq.iter().copied().collect()
    } else {
        Default::default()
    };
    top_k_scores(&scores, k, |item| !seen.contains(&item))
}

/// The `k` best `(item, score)` pairs of a catalog's scores (index 0, the
/// padding, never included) among the items `keep` accepts: descending
/// score, ties (`-0.0 == +0.0` among them) towards the lower item id, NaN
/// below every number. Without NaN this is what a stable descending sort
/// of every kept pair truncated to `k` gives, found by [`top_k_by`] in one
/// pass. (That sort's `partial_cmp` comparator is no total order once a
/// NaN is present, and the standard sort may then panic.)
pub fn top_k_scores(scores: &[f32], k: usize, keep: impl Fn(ItemId) -> bool) -> Vec<(ItemId, f32)> {
    let ranked = scores
        .iter()
        .enumerate()
        .skip(1)
        .filter(|&(item, _)| keep(item))
        .map(|(item, &s)| (item, s));
    top_k_by(ranked, k, |a, b| {
        a.1.partial_cmp(&b.1)
            .unwrap_or_else(|| b.1.is_nan().cmp(&a.1.is_nan()))
    })
}

/// The `k` greatest of `items` under `cmp`, greatest first, equal items in
/// their input order: a stable descending sort truncated to `k`, in
/// `O(n + k log k)`. Candidates collect in a buffer that is cut back to its
/// best `k` each time it holds `2k`; after the first cut an item no greater
/// than the `k`-th best so far costs one comparison. `cmp` must be a total
/// order.
pub fn top_k_by<T>(
    items: impl IntoIterator<Item = T>,
    k: usize,
    cmp: impl Fn(&T, &T) -> Ordering,
) -> Vec<T> {
    if k == 0 {
        return Vec::new();
    }
    // Best first; among equals, the earlier arrival.
    let order = |a: &(usize, T), b: &(usize, T)| cmp(&b.1, &a.1).then(a.0.cmp(&b.0));
    let cap = k.saturating_mul(2);
    let mut buf: Vec<(usize, T)> = Vec::new();
    let mut cut = false;
    for item in items.into_iter().enumerate() {
        // A later arrival equal to the k-th best ranks below it.
        if cut && cmp(&item.1, &buf[k - 1].1) != Ordering::Greater {
            continue;
        }
        buf.push(item);
        if buf.len() == cap {
            buf.select_nth_unstable_by(k - 1, order);
            buf.truncate(k);
            cut = true;
        }
    }
    buf.sort_unstable_by(order);
    buf.truncate(k);
    buf.into_iter().map(|(_, item)| item).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use recdata::Dataset;

    /// An oracle that always ranks a fixed item first.
    struct FixedTop(usize, usize);
    impl SequentialRecommender for FixedTop {
        fn name(&self) -> String {
            "fixed".into()
        }
        fn num_items(&self) -> usize {
            self.1
        }
        fn fit(&mut self, _t: &[Vec<ItemId>], _c: &TrainConfig) {}
        fn score(&mut self, _u: usize, _s: &[ItemId]) -> Vec<f32> {
            let mut v = vec![0.0; self.1 + 1];
            v[self.0] = 1.0;
            v
        }
    }

    #[test]
    fn recommend_top_k_orders_and_excludes() {
        let mut m = FixedTop(2, 5);
        let recs = recommend_top_k(&mut m, 0, &[], 3, false);
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].0, 2);
        assert!(recs[0].1 >= recs[1].1);
        // Excluding the seen top item promotes the next one.
        let recs = recommend_top_k(&mut m, 0, &[2], 3, true);
        assert!(recs.iter().all(|(i, _)| *i != 2));
        // Padding item 0 is never recommended.
        assert!(recs.iter().all(|(i, _)| *i >= 1));
    }

    #[test]
    fn evaluate_scores_against_correct_targets() {
        let d = Dataset {
            name: "t".into(),
            num_items: 5,
            sequences: vec![vec![1, 2, 3, 4], vec![1, 2, 3, 5]],
        };
        let split = LeaveOneOut::split(&d);
        // Oracle predicting item 4: hits user 0's test target only.
        let mut m = FixedTop(4, 5);
        let r = evaluate_test(&mut m, &split, &[1]);
        assert!((r.hr(1) - 0.5).abs() < 1e-12);
        // Valid targets are item 3 for both users.
        let mut m3 = FixedTop(3, 5);
        let rv = evaluate_valid(&mut m3, &split, &[1]);
        assert_eq!(rv.hr(1), 1.0);
    }
}

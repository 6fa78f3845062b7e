//! The data-parallel training executor.
//!
//! [`Executor`] fans a mini-batch's shards out over a thread pool, runs
//! forward + backward per shard on a private tape, and hands the per-shard
//! [`GradientSet`]s back to the coordinator in input order.
//!
//! # Determinism contract
//!
//! Training with `threads = 1` and `threads = N` produces **bitwise
//! identical** parameters for the same seed and configuration, because every
//! source of arithmetic ordering is independent of the thread count:
//!
//! 1. the shard partition is a pure function of the batch length and
//!    `shard_size` ([`recdata::Batch::shard`]);
//! 2. each shard's RNG is derived from the batch seed and the shard *index*
//!    ([`Executor::shard_seed`]), not from which worker runs it;
//! 3. shard gradients are merged on the coordinating thread in fixed shard
//!    order ([`GradientSet::merge_scaled`]).
//!
//! Threads only change *when* each shard is computed, never *what* is
//! computed or the order results are combined.

use autograd::GradientSet;
use recdata::Batch;
use tensor::bug::OrBug;

use crate::train::EpochStats;

/// Runs shard closures serially or on a dedicated thread pool.
pub struct Executor {
    pool: Option<rayon::ThreadPool>,
    threads: usize,
    shard_size: usize,
}

impl Executor {
    /// Creates an executor with `threads` workers (1 = run in place) that
    /// splits batches into shards of at most `shard_size` rows.
    pub fn new(threads: usize, shard_size: usize) -> Executor {
        let threads = threads.max(1);
        let pool = (threads > 1).then(|| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .or_bug("failed to build training thread pool")
        });
        Executor {
            pool,
            threads,
            shard_size: shard_size.max(1),
        }
    }

    /// Builds an executor from a training configuration.
    pub fn from_config(cfg: &models::TrainConfig) -> Executor {
        Executor::new(cfg.threads, cfg.shard_size)
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maximum rows per shard.
    pub fn shard_size(&self) -> usize {
        self.shard_size
    }

    /// Derives the RNG seed for one shard of one training stage.
    ///
    /// A SplitMix64-style hash of `(batch_seed, stage, shard index)`: every
    /// shard gets an independent, reproducible stream regardless of which
    /// worker thread executes it.
    pub fn shard_seed(batch_seed: u64, stage: u64, shard: u64) -> u64 {
        let mut z = batch_seed
            .wrapping_add(stage.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(shard.wrapping_mul(0xD1B5_4A32_D192_ED03));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Runs `f(shard_index, shard)` for every shard and returns the results
    /// in shard order — serially with one thread, fanned out over the pool
    /// otherwise.
    ///
    /// On the pool, shards are handed out largest first (most real cells,
    /// ties by index), each to whichever worker is free: the packed encoder's
    /// work follows a shard's real cells, not its row count, so a fixed
    /// assignment leaves one worker idle while the other finishes a heavy
    /// shard. Only *when* a shard runs depends on this; each result goes
    /// back to its shard's slot.
    pub fn map_shards<T, F>(&self, shards: &[Batch], f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &Batch) -> T + Sync,
    {
        match &self.pool {
            None => shards.iter().enumerate().map(|(i, s)| f(i, s)).collect(),
            Some(pool) => {
                use rayon::prelude::*;
                let order = largest_first(shards);
                let mut done: Vec<(usize, T)> =
                    pool.install(|| order.par_iter().map(|&i| (i, f(i, &shards[i]))).collect());
                done.sort_unstable_by_key(|&(i, _)| i);
                done.into_iter().map(|(_, t)| t).collect()
            }
        }
    }
}

/// Shard indices by descending real (non-padding) cells, ties by index:
/// the order [`Executor::map_shards`] hands shards out in. A shard's packed
/// forward and backward scale with its real cells.
fn largest_first(shards: &[Batch]) -> Vec<usize> {
    let real = |s: &Batch| s.pad.iter().flatten().filter(|&&p| !p).count();
    let mut order: Vec<usize> = (0..shards.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(real(&shards[i])), i));
    order
}

/// What one shard's forward + backward produced.
pub(crate) struct ShardOutcome {
    /// Locally collected gradients (not yet in the shared buffers).
    pub grads: GradientSet,
    /// Unweighted reconstruction loss of the shard.
    pub rec: f64,
    /// Unweighted KL of the first latent view (`Enc_σ`).
    pub kl_a: f64,
    /// Unweighted KL of the second latent view (`Enc_σ'` / dropout / data
    /// augmentation), zero when the ablation removes the second view.
    pub kl_b: f64,
    /// Unweighted contrastive loss of the shard.
    pub cl: f64,
    /// Weighted total loss of the shard.
    pub total: f64,
    /// Rows in the shard.
    pub len: usize,
}

/// One mini-batch's decomposed losses and step diagnostics.
///
/// Loss terms are averaged over the batch's shards (weighted by shard size,
/// reduced in fixed shard order — see the determinism contract above);
/// position and step fields are filled in by the training loop afterwards.
#[derive(Debug, Default, Clone, Copy)]
pub struct BatchStats {
    /// Epoch index.
    pub epoch: u64,
    /// Batch index within the epoch.
    pub batch: u64,
    /// Global optimizer step *after* this batch was applied.
    pub step: u64,
    /// KL-annealing β in effect for this batch.
    pub beta: f64,
    /// Unweighted reconstruction cross-entropy.
    pub recon: f64,
    /// Unweighted KL of the first latent view.
    pub kl_a: f64,
    /// Unweighted KL of the second latent view (zero if absent).
    pub kl_b: f64,
    /// Unweighted InfoNCE contrastive term.
    pub info_nce: f64,
    /// Weighted total objective.
    pub total: f64,
    /// Global gradient norm before clipping, when measured (clipping on or
    /// telemetry enabled).
    pub grad_norm: Option<f64>,
    /// Norm of the stage-2 (meta `Enc_σ'`) parameter update, when the
    /// meta-two-step strategy ran a stage-2 step for this batch.
    pub meta_update_norm: Option<f64>,
}

/// Merges shard outcomes in fixed shard order: gradients are mean-reduced
/// with weights `shard_len / batch_len` (summing to one) and loss components
/// are averaged with the same weights.
pub(crate) fn reduce_outcomes(outcomes: &[ShardOutcome]) -> (GradientSet, BatchStats) {
    let batch_len: usize = outcomes.iter().map(|o| o.len).sum();
    let mut merged = GradientSet::new();
    let mut stats = BatchStats::default();
    for o in outcomes {
        let w = o.len as f64 / batch_len.max(1) as f64;
        merged.merge_scaled(&o.grads, w as f32);
        stats.recon += w * o.rec;
        stats.kl_a += w * o.kl_a;
        stats.kl_b += w * o.kl_b;
        stats.info_nce += w * o.cl;
        stats.total += w * o.total;
    }
    (merged, stats)
}

/// Observer of training progress, called by the executor-driven training
/// loop. All hooks have no-op defaults; implement only what you need.
pub trait TrainObserver {
    /// Called after every batch with its decomposed losses and step
    /// diagnostics.
    fn on_batch_end(&mut self, _stats: &BatchStats) {}

    /// Called when a training-health detector fires (posterior collapse,
    /// dead meta-σ', non-finite or exploding loss).
    fn on_health(&mut self, _warning: &telemetry::HealthWarning) {}

    /// Called after every epoch with the epoch's statistics (loss
    /// components, wall-clock time, throughput).
    fn on_epoch_end(&mut self, _stats: &EpochStats) {}

    /// Called after a periodic training checkpoint has been durably
    /// committed (temp + fsync + atomic rename) at global step `step`.
    fn on_checkpoint(&mut self, _path: &std::path::Path, _step: u64) {}

    /// Called once when training resumes from a checkpoint, before any
    /// batch is processed.
    fn on_resume(&mut self, _path: &std::path::Path, _epoch: usize, _batch: usize, _step: u64) {}
}

/// The do-nothing observer.
pub struct NullObserver;

impl TrainObserver for NullObserver {}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_batch(rows: usize) -> Batch {
        Batch {
            inputs: (0..rows).map(|r| vec![0, r + 1]).collect(),
            targets: (0..rows).map(|r| vec![usize::MAX, r + 2]).collect(),
            last_target: (0..rows).map(|r| r + 2).collect(),
            pad: (0..rows).map(|_| vec![true, false]).collect(),
        }
    }

    #[test]
    fn map_shards_preserves_order_serial_and_parallel() {
        let shards = toy_batch(10).shard(3);
        assert_eq!(
            shards.iter().map(Batch::len).collect::<Vec<_>>(),
            vec![3, 3, 3, 1]
        );
        let serial = Executor::new(1, 3).map_shards(&shards, |i, s| (i, s.len()));
        let parallel = Executor::new(4, 3).map_shards(&shards, |i, s| (i, s.len()));
        assert_eq!(serial, parallel);
        assert_eq!(serial, vec![(0, 3), (1, 3), (2, 3), (3, 1)]);
    }

    /// `rows` sequences whose real lengths cycle through 1..=4 (window 4),
    /// so consecutive shards hold unequal real cells.
    fn ragged_batch(rows: usize) -> Batch {
        let n = 4;
        let len = |r: usize| 1 + (r * 7 + r / 3) % n;
        Batch {
            inputs: (0..rows)
                .map(|r| {
                    (0..n)
                        .map(|j| if j >= n - len(r) { r + j } else { 0 })
                        .collect()
                })
                .collect(),
            targets: (0..rows).map(|r| vec![r + 1; n]).collect(),
            last_target: (0..rows).map(|r| r + 1).collect(),
            pad: (0..rows)
                .map(|r| (0..n).map(|j| j < n - len(r)).collect())
                .collect(),
        }
    }

    #[test]
    fn uneven_shards_come_back_in_shard_order_at_any_thread_count() {
        let shards = ragged_batch(22).shard(3);
        let reals: Vec<usize> = shards
            .iter()
            .map(|s| s.pad.iter().flatten().filter(|&&p| !p).count())
            .collect();
        assert!(
            reals.windows(2).any(|w| w[0] < w[1]),
            "the test needs a later shard larger than an earlier one: {reals:?}"
        );
        let work = |i: usize, s: &Batch| {
            let cells: usize = s.inputs.iter().flatten().sum();
            let mut x = Executor::shard_seed(cells as u64, 1, i as u64);
            // Uneven busy work, so workers finish out of order.
            for _ in 0..cells * 200 {
                x = Executor::shard_seed(x, 2, 3);
            }
            (i, s.len(), x)
        };
        let serial = Executor::new(1, 3).map_shards(&shards, work);
        assert_eq!(
            serial.iter().map(|r| r.0).collect::<Vec<_>>(),
            (0..shards.len()).collect::<Vec<_>>()
        );
        for threads in [2, 4] {
            let parallel = Executor::new(threads, 3).map_shards(&shards, work);
            assert_eq!(serial, parallel, "threads {threads}");
        }
    }

    #[test]
    fn shards_are_handed_out_largest_first_ties_by_index() {
        let shards = ragged_batch(22).shard(3);
        let order = largest_first(&shards);
        let real = |i: usize| shards[i].pad.iter().flatten().filter(|&&p| !p).count();
        for w in order.windows(2) {
            let (a, b) = (w[0], w[1]);
            assert!(
                real(a) > real(b) || (real(a) == real(b) && a < b),
                "{order:?}"
            );
        }
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..shards.len()).collect::<Vec<_>>());
        assert_ne!(order, sorted, "the ragged shards are reordered");
    }

    #[test]
    fn shard_seed_depends_on_all_inputs() {
        let base = Executor::shard_seed(7, 1, 0);
        assert_ne!(base, Executor::shard_seed(8, 1, 0), "batch seed ignored");
        assert_ne!(base, Executor::shard_seed(7, 2, 0), "stage ignored");
        assert_ne!(base, Executor::shard_seed(7, 1, 1), "shard index ignored");
        assert_eq!(base, Executor::shard_seed(7, 1, 0), "not deterministic");
    }

    #[test]
    fn executor_clamps_degenerate_config() {
        let e = Executor::new(0, 0);
        assert_eq!(e.threads(), 1);
        assert_eq!(e.shard_size(), 1);
    }
}

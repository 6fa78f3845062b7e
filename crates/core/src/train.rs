//! Training: the double-ELBO objective (Eqs. 16, 23–28) and the two
//! schedules — joint learning and the meta-optimized two-step strategy.

use autograd::{Eager, GradientSet, Graph, Value, Var, IGNORE_INDEX};
use models::cl::info_nce_masked;
use models::sampled::{self, SoftmaxMode};
use models::vae::gaussian_kl;
use models::{SequentialRecommender, TrainConfig};
use optim::{apply_step, Adam, KlAnnealing};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use recdata::{Batch, Batcher, ItemId};
use tensor::bug::OrBug;

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use telemetry::{Field, SpanId, Tracer};

use crate::checkpoint::{self, strategy_tag, OptimizerSlot, TrainCheckpoint, TrainProgress};
use crate::config::{SecondView, TrainStrategy};
use crate::exec::{
    reduce_outcomes, BatchStats, Executor, NullObserver, ShardOutcome, TrainObserver,
};
use crate::model::{MetaPrefix, MetaSgcl, View};
use crate::obs::RunTelemetry;

/// Loss components of one epoch (averaged over batches).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Epoch index.
    pub epoch: usize,
    /// Reconstruction loss `L_rs = L_rs1 + L_rs2` (Eq. 23).
    pub rec: f64,
    /// KL of the first latent view (`Enc_σ`, Eq. 24), unweighted.
    pub kl_a: f64,
    /// KL of the second latent view (`Enc_σ'`, Eq. 25), unweighted.
    pub kl_b: f64,
    /// Combined KL loss `L_kl = L_kl1 + L_kl2` (Eqs. 24–25), unweighted.
    pub kl: f64,
    /// Contrastive loss `L_cl` (Eq. 26), unweighted.
    pub cl: f64,
    /// Weighted total (Eq. 28).
    pub total: f64,
    /// Wall-clock time of the epoch in milliseconds.
    pub wall_ms: f64,
    /// Training throughput: sequences processed per second.
    pub seqs_per_sec: f64,
}

/// The one formatting of epoch statistics, shared by `msgc train`'s verbose
/// log and `msgc report`. Timing is appended only when wall-clock was
/// actually measured (finite and positive), so stats re-aggregated from a
/// metrics file — which carries no timing by the determinism contract —
/// print without it.
impl fmt::Display for EpochStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "epoch {} rec {:.4} kl_a {:.4} kl_b {:.4} cl {:.4} total {:.4}",
            self.epoch, self.rec, self.kl_a, self.kl_b, self.cl, self.total
        )?;
        if self.wall_ms.is_finite() && self.wall_ms > 0.0 {
            write!(
                f,
                " ({:.0} ms, {:.0} seqs/s)",
                self.wall_ms, self.seqs_per_sec
            )?;
        }
        Ok(())
    }
}

/// Per-epoch loss history.
#[derive(Debug, Clone, Default)]
pub struct TrainingHistory {
    /// One entry per epoch.
    pub epochs: Vec<EpochStats>,
}

impl TrainingHistory {
    /// The last epoch's stats, if any.
    pub fn last(&self) -> Option<&EpochStats> {
        self.epochs.last()
    }
}

/// Scalar loss pieces of one batch forward.
pub(crate) struct BatchLosses {
    pub(crate) total: Var,
    pub(crate) rec: f64,
    kl_a: f64,
    kl_b: f64,
    cl: f64,
}

/// Norm limit used by the opt-in sanitizer (`TrainConfig.sanitize`):
/// generous enough for healthy training at reproduction scale, small
/// enough to catch divergence long before overflow.
const SANITIZE_NORM_LIMIT: f32 = 1e6;

/// Scans the shard's tape and collected gradients, aborting with per-op
/// blame on the first violation (the `TrainConfig.sanitize` contract).
fn sanitize_or_panic(stage: &str, g: &Graph, grads: &GradientSet) {
    let mut issues = autograd::numeric::scan_graph(g, SANITIZE_NORM_LIMIT);
    issues.extend(autograd::numeric::scan_gradients(
        grads,
        SANITIZE_NORM_LIMIT,
    ));
    if !issues.is_empty() {
        let lines: Vec<String> = issues.iter().take(8).map(|i| i.to_string()).collect();
        panic!(
            "numeric sanitizer: {} issue(s) in `{stage}` stage: {}",
            issues.len(),
            lines.join("; ")
        );
    }
}

impl MetaSgcl {
    /// Builds the full double-ELBO objective (Eq. 28) for a batch.
    ///
    /// Both views share the encoder features and the posterior mean; view 1
    /// samples with `Enc_σ`, view 2 (the generated augmentation) with
    /// `Enc_σ'`.
    pub(crate) fn batch_losses(
        &self,
        g: &Graph,
        batch: &Batch,
        beta: f32,
        softmax: &SoftmaxMode,
        rng: &mut StdRng,
    ) -> BatchLosses {
        let (b, n, d) = (batch.len(), batch.seq_len(), self.cfg.net.dim);
        let vocab = self.backbone.vocab();
        let (v1, v2) = self.views(g, batch, rng);

        // L_rs1 + L_rs2 (Eq. 23) over the positions that have a real next
        // item, in ascending order. The other rows' probabilities are never
        // read and their gradient is exactly zero, and every op up to the
        // loss is row-independent, so scoring only these rows keeps the
        // loss and every gradient bit for bit.
        let flat = sampled::flat_targets(batch);
        let rows: Vec<usize> = (0..flat.len())
            .filter(|&r| flat[r] != IGNORE_INDEX)
            .collect();
        let targets: Vec<usize> = rows.iter().map(|&r| flat[r]).collect();
        let scored = |v: &View| v.h.reshape(vec![b * n, d]).index_select_rows(&rows);
        // Candidates (sampled mode) are drawn once per shard, after both
        // views consumed their dropout/noise draws, and shared by the two
        // reconstruction terms.
        let rec = match sampled::draw_candidates(&targets, vocab - 1, softmax, rng) {
            Some(cands) => {
                let table = self.backbone.item_table_var(g);
                let rec1 = sampled::sampled_ce(&scored(&v1), &table, &targets, &cands);
                let rec2 = sampled::sampled_ce(&scored(&v2), &table, &targets, &cands);
                rec1.add(&rec2)
            }
            None => {
                let rec1 = self
                    .backbone
                    .scores(g, &scored(&v1))
                    .cross_entropy_with_logits(&targets);
                let rec2 = self
                    .backbone
                    .scores(g, &scored(&v2))
                    .cross_entropy_with_logits(&targets);
                rec1.add(&rec2)
            }
        };

        // L_kl1 + L_kl2 (Eqs. 24–25) — same μ, different variances.
        let kl1 = gaussian_kl(&v1.mu, &v1.logvar);
        let kl2 = gaussian_kl(&v2.mu, &v2.logvar);
        let kl = kl1.add(&kl2);

        // L_cl (Eq. 26) between the two sequence summaries.
        let alpha = self.cfg.effective_alpha();
        // False negatives (same next item) are masked out of the InfoNCE
        // denominator so the CL term does not fight the recommendation task
        // on small catalogs.
        let cl = if b >= 2 {
            info_nce_masked(
                &v1.z_last,
                &v2.z_last,
                self.cfg.tau,
                self.cfg.similarity,
                &batch.last_target,
            )
        } else {
            g.constant(tensor::Tensor::scalar(0.0))
        };

        // Eq. 28 with the corrected KL sign (see crate docs). The two views
        // share μ, so we average their KLs — this keeps the effective β
        // directly comparable to single-view VAE baselines (VSAN).
        let mut total = rec.clone();
        if beta > 0.0 {
            total = total.add(&kl.scale(beta * 0.5));
        }
        if alpha > 0.0 && b >= 2 {
            total = total.add(&cl.scale(alpha));
        }
        BatchLosses {
            rec: rec.item() as f64,
            kl_a: kl1.item() as f64,
            kl_b: kl2.item() as f64,
            cl: cl.item() as f64,
            total,
        }
    }

    /// Stage-2 objective: the contrastive loss alone (Eq. 26), from view 1
    /// and the second view's inputs in `prefix`. Only the second view's
    /// variance head, its sample and the loss are recorded; with the main
    /// modules frozen, `Enc_σ'` is the only parameter the tape reaches.
    pub(crate) fn meta_stage_loss<V: Value>(
        &self,
        g: &Graph,
        prefix: MetaPrefix<V>,
        batch: &Batch,
    ) -> Var {
        let head = match self.cfg.second_view {
            SecondView::MetaSigma => &self.enc_logvar_prime,
            SecondView::Dropout | SecondView::DataAugmentation => &self.enc_logvar,
        };
        let features = prefix.features.into_var(g);
        let mu = prefix.mu.into_var(g);
        let (_, z2) = Self::reparameterize(g, head, &features, &mu, &prefix.eps);
        info_nce_masked(
            &prefix.z1.into_var(g),
            &z2,
            self.cfg.tau,
            self.cfg.similarity,
            &batch.last_target,
        )
    }

    /// Stage-1 / joint shard work: full double-ELBO forward + backward on a
    /// private tape, gradients collected locally. With `trace`, emits
    /// `forward` and `backward` spans under the given parent, tagged with
    /// the shard index (span ids are allocated in completion order, which
    /// is thread-dependent — timing data lives in the trace stream only).
    #[allow(clippy::too_many_arguments)]
    fn full_loss_shard(
        &self,
        shard: &Batch,
        beta: f32,
        softmax: &SoftmaxMode,
        seed: u64,
        sanitize: bool,
        shard_idx: usize,
        trace: Option<(&Tracer, SpanId)>,
    ) -> ShardOutcome {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = Graph::new();
        let fwd = trace.map(|(t, parent)| t.begin("forward", parent));
        let losses = self.batch_losses(&g, shard, beta, softmax, &mut rng);
        if let (Some((t, _)), Some(span)) = (trace, fwd) {
            t.end(span, &[("shard", Field::U64(shard_idx as u64))]);
        }
        let bwd = trace.map(|(t, parent)| t.begin("backward", parent));
        let grads = losses.total.backward_collect();
        if let (Some((t, _)), Some(span)) = (trace, bwd) {
            t.end(span, &[("shard", Field::U64(shard_idx as u64))]);
        }
        if sanitize {
            sanitize_or_panic("full", &g, &grads);
        }
        ShardOutcome {
            grads,
            rec: losses.rec,
            kl_a: losses.kl_a,
            kl_b: losses.kl_b,
            cl: losses.cl,
            total: losses.total.item() as f64,
            len: shard.len(),
        }
    }

    /// Stage-2 shard work: the contrastive loss only. The frozen prefix
    /// runs eagerly over the weights this batch's stage-1 update left;
    /// only `Enc_σ'` onward is recorded. Returns `None` for shards with
    /// fewer than two rows (no in-shard negatives exist).
    fn contrastive_shard(
        &self,
        shard: &Batch,
        seed: u64,
        sanitize: bool,
        shard_idx: usize,
        trace: Option<(&Tracer, SpanId)>,
    ) -> Option<(GradientSet, usize)> {
        if shard.len() < 2 {
            return None;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let g = Graph::new();
        let fwd = trace.map(|(t, parent)| t.begin("forward", parent));
        let prefix = self.meta_prefix(&Eager, shard, &mut rng);
        let loss = self.meta_stage_loss(&g, prefix, shard);
        if let (Some((t, _)), Some(span)) = (trace, fwd) {
            t.end(span, &[("shard", Field::U64(shard_idx as u64))]);
        }
        let bwd = trace.map(|(t, parent)| t.begin("backward", parent));
        let grads = loss.backward_collect();
        if let (Some((t, _)), Some(span)) = (trace, bwd) {
            t.end(span, &[("shard", Field::U64(shard_idx as u64))]);
        }
        if sanitize {
            sanitize_or_panic("meta", &g, &grads);
        }
        Some((grads, shard.len()))
    }

    /// Fans the full-loss stage over the shards and reduces to one merged
    /// gradient set plus shard-weighted loss statistics.
    #[allow(clippy::too_many_arguments)]
    fn full_loss_step(
        &self,
        exec: &Executor,
        shards: &[Batch],
        beta: f32,
        softmax: &SoftmaxMode,
        batch_seed: u64,
        sanitize: bool,
        trace: Option<(&Tracer, SpanId)>,
    ) -> (GradientSet, BatchStats) {
        let outcomes = exec.map_shards(shards, |i, shard| {
            self.full_loss_shard(
                shard,
                beta,
                softmax,
                Executor::shard_seed(batch_seed, 1, i as u64),
                sanitize,
                i,
                trace,
            )
        });
        reduce_outcomes(&outcomes)
    }

    /// Fans the contrastive stage over the shards; gradients of eligible
    /// shards (≥ 2 rows) are mean-reduced with weights renormalized over the
    /// eligible rows. `None` when no shard has two rows. No parameter is
    /// written until the caller merges the result, so every shard reads
    /// the same weights.
    fn contrastive_step(
        &self,
        exec: &Executor,
        shards: &[Batch],
        batch_seed: u64,
        sanitize: bool,
        trace: Option<(&Tracer, SpanId)>,
    ) -> Option<GradientSet> {
        let collected = exec.map_shards(shards, |i, shard| {
            self.contrastive_shard(
                shard,
                Executor::shard_seed(batch_seed, 2, i as u64),
                sanitize,
                i,
                trace,
            )
        });
        let eligible: usize = collected.iter().flatten().map(|(_, len)| len).sum();
        if eligible == 0 {
            return None;
        }
        let mut merged = GradientSet::new();
        for (grads, len) in collected.iter().flatten() {
            merged.merge_scaled(grads, *len as f32 / eligible as f32);
        }
        Some(merged)
    }

    /// Trains with the configured strategy, recording per-epoch losses in
    /// [`MetaSgcl::history`].
    ///
    /// Fails only on checkpoint I/O (a bad `resume` file, an unwritable
    /// `ckpt_dir`); training itself is infallible.
    pub fn train_model(&mut self, train: &[Vec<ItemId>], cfg: &TrainConfig) -> io::Result<()> {
        self.train_model_observed(train, cfg, &mut NullObserver)
    }

    /// Builds the full training state for a periodic checkpoint: parameters,
    /// the optimizer slots of the active strategy, the epoch-start RNG
    /// words, and the position cursor.
    fn build_checkpoint(
        &self,
        progress: TrainProgress,
        rng_words: [u64; 4],
        slots: Vec<OptimizerSlot>,
        beta_max: f32,
        telemetry: Vec<(String, u64)>,
    ) -> TrainCheckpoint {
        let params = self
            .all_parameters()
            .iter()
            .map(|p| {
                let pb = p.borrow();
                (pb.name.clone(), pb.value.clone())
            })
            .collect();
        TrainCheckpoint {
            params,
            optimizers: slots,
            rng_words,
            strategy: strategy_tag(self.cfg.strategy).to_string(),
            progress,
            beta_max,
            kl_warmup_steps: self.cfg.kl_warmup_steps,
            telemetry,
        }
    }

    /// [`MetaSgcl::train_model`] with an observer receiving per-epoch
    /// statistics (loss components, wall-clock, throughput), checkpoint
    /// commits, and resume events as they are produced.
    ///
    /// # Durability and resume
    ///
    /// With `cfg.save_every > 0`, a full [`TrainCheckpoint`] is committed
    /// atomically to `cfg.ckpt_dir` every `save_every` optimizer steps and
    /// old checkpoints beyond `cfg.keep_last` are pruned. With
    /// `cfg.resume`, training restarts from the exact epoch/batch/RNG
    /// position of the checkpoint; a resumed run takes the same parameter
    /// trajectory — and writes byte-identical checkpoints — as a run that
    /// was never interrupted. The loss history of the partially re-run
    /// epoch covers only its post-resume batches.
    pub fn train_model_observed(
        &mut self,
        train: &[Vec<ItemId>],
        cfg: &TrainConfig,
        observer: &mut dyn TrainObserver,
    ) -> io::Result<()> {
        let exec = Executor::from_config(cfg);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let batcher = Batcher::new(train.to_vec(), self.cfg.net.max_len, cfg.batch_size);
        let main_params = self.main_parameters();
        let meta_params = self.meta_parameters();
        let mut opt_main = Adam::new(main_params.clone(), cfg.lr);
        let mut opt_meta = Adam::new(meta_params.clone(), self.cfg.meta_lr.unwrap_or(cfg.lr));
        // Joint training updates σ' from the full loss with one optimizer.
        let all_params = self.all_parameters();
        let mut opt_all = Adam::new(all_params.clone(), cfg.lr);

        let anneal = if self.cfg.kl_warmup_steps > 0 {
            KlAnnealing::new(self.cfg.effective_beta(), self.cfg.kl_warmup_steps)
        } else {
            KlAnnealing::constant(self.cfg.effective_beta())
        };
        let mut step = 0u64;
        self.history.epochs.clear();
        let mut telem = RunTelemetry::from_config(cfg, strategy_tag(self.cfg.strategy))?;

        let ckpt_dir: Option<PathBuf> = if cfg.save_every > 0 {
            let dir = cfg.ckpt_dir.as_deref().ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "save_every > 0 requires ckpt_dir",
                )
            })?;
            let dir = PathBuf::from(dir);
            std::fs::create_dir_all(&dir)?;
            Some(dir)
        } else {
            None
        };

        let mut start_epoch = 0usize;
        let mut resume_skip = 0usize;
        if let Some(spec) = &cfg.resume {
            let path = checkpoint::resolve_resume(Path::new(spec))?;
            let ck = TrainCheckpoint::load(&path)?;
            let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
            if ck.strategy != strategy_tag(self.cfg.strategy) {
                return Err(invalid(format!(
                    "checkpoint was written by strategy `{}`, current strategy is `{}`",
                    ck.strategy,
                    strategy_tag(self.cfg.strategy)
                )));
            }
            // The β cursor is the step counter; a different annealing config
            // would silently break the resume-determinism guarantee.
            if ck.beta_max.to_bits() != anneal.beta_max().to_bits()
                || ck.kl_warmup_steps != self.cfg.kl_warmup_steps
            {
                return Err(invalid(format!(
                    "KL-annealing mismatch: checkpoint β_max={}, warmup={} vs config β_max={}, warmup={}",
                    ck.beta_max,
                    ck.kl_warmup_steps,
                    anneal.beta_max(),
                    self.cfg.kl_warmup_steps
                )));
            }
            checkpoint::apply_named_tensors(&ck.params, &self.all_parameters())?;
            match self.cfg.strategy {
                TrainStrategy::MetaTwoStep => {
                    checkpoint::import_slot(ck.slot("main")?, &mut opt_main)?;
                    checkpoint::import_slot(ck.slot("meta")?, &mut opt_meta)?;
                }
                TrainStrategy::Joint => {
                    checkpoint::import_slot(ck.slot("all")?, &mut opt_all)?;
                }
            }
            rng = StdRng::from_state_words(ck.rng_words)
                .ok_or_else(|| invalid("all-zero RNG state in checkpoint".into()))?;
            start_epoch = usize::try_from(ck.progress.epoch)
                .map_err(|_| invalid("epoch cursor overflows usize".into()))?;
            resume_skip = usize::try_from(ck.progress.batch)
                .map_err(|_| invalid("batch cursor overflows usize".into()))?;
            step = ck.progress.step;
            telem.on_resume(&path, start_epoch, resume_skip, step, &ck.telemetry);
            observer.on_resume(&path, start_epoch, resume_skip, step);
        }

        let mut halted = false;
        for epoch in start_epoch..cfg.epochs {
            let epoch_start = std::time::Instant::now();
            let epoch_span = telem.span("epoch", SpanId::ROOT);
            let epoch_sid = RunTelemetry::span_id(&epoch_span);
            // Snapshot the stream at the epoch boundary: a checkpoint inside
            // this epoch stores these words, and resume replays the shuffle
            // and the per-batch seed draws from them.
            let epoch_words = rng.state_words();
            let mut sums = BatchStats::default();
            let mut batches = 0usize;
            let mut seqs = 0usize;
            let skip = if epoch == start_epoch { resume_skip } else { 0 };
            let epoch_batches = batcher.epoch(&mut rng);
            for (bi, batch) in epoch_batches.iter().enumerate() {
                let beta = anneal.beta(step);
                // One seed per batch; each shard derives its own stream from
                // it, so the arithmetic is independent of the thread count.
                // Skipped (already-applied) batches still consume their seed
                // so the resumed stream stays aligned.
                let batch_seed: u64 = rng.gen();
                if bi < skip {
                    continue;
                }
                let batch_span = telem.span("batch", epoch_sid);
                let batch_sid = RunTelemetry::span_id(&batch_span);
                let shards = batch.shard(exec.shard_size());
                let mut stats = match self.cfg.strategy {
                    TrainStrategy::Joint => {
                        let (grads, mut stats) = self.full_loss_step(
                            &exec,
                            &shards,
                            beta,
                            &cfg.softmax,
                            batch_seed,
                            cfg.sanitize,
                            telem.trace_ctx(batch_sid),
                        );
                        let opt_span = telem.span("opt_step", batch_sid);
                        let applied = apply_step(&mut opt_all, &all_params, &grads, cfg.grad_clip);
                        telem.end_span(opt_span, &[]);
                        stats.grad_norm = applied.grad_norm.map(f64::from);
                        stats
                    }
                    TrainStrategy::MetaTwoStep => {
                        // Stage 1: full loss, σ' frozen.
                        self.set_meta_trainable(false);
                        let stage1 = telem.span("stage1", batch_sid);
                        let stage1_sid = RunTelemetry::span_id(&stage1);
                        let (grads, mut stats) = self.full_loss_step(
                            &exec,
                            &shards,
                            beta,
                            &cfg.softmax,
                            batch_seed,
                            cfg.sanitize,
                            telem.trace_ctx(stage1_sid),
                        );
                        let opt_span = telem.span("opt_step", stage1_sid);
                        let applied =
                            apply_step(&mut opt_main, &main_params, &grads, cfg.grad_clip);
                        telem.end_span(opt_span, &[]);
                        telem.end_span(stage1, &[]);
                        stats.grad_norm = applied.grad_norm.map(f64::from);
                        self.set_meta_trainable(true);
                        // Stage 2: re-encode with the just-updated encoder,
                        // frozen, and adapt Enc_σ' to the contrastive
                        // objective (Eq. 26).
                        self.set_main_trainable(false);
                        let stage2 = telem.span("stage2", batch_sid);
                        let stage2_sid = RunTelemetry::span_id(&stage2);
                        if let Some(grads) = self.contrastive_step(
                            &exec,
                            &shards,
                            batch_seed,
                            cfg.sanitize,
                            telem.trace_ctx(stage2_sid),
                        ) {
                            let opt_span = telem.span("opt_step", stage2_sid);
                            let applied =
                                apply_step(&mut opt_meta, &meta_params, &grads, cfg.grad_clip);
                            telem.end_span(opt_span, &[]);
                            stats.meta_update_norm = applied.update_norm;
                        }
                        telem.end_span(stage2, &[]);
                        self.set_main_trainable(true);
                        stats
                    }
                };
                step += 1;
                batches += 1;
                seqs += batch.len();
                stats.epoch = epoch as u64;
                stats.batch = bi as u64;
                stats.step = step;
                stats.beta = f64::from(beta);
                sums.recon += stats.recon;
                sums.kl_a += stats.kl_a;
                sums.kl_b += stats.kl_b;
                sums.info_nce += stats.info_nce;
                sums.total += stats.total;
                for warning in telem.on_batch(&stats) {
                    observer.on_health(&warning);
                }
                observer.on_batch_end(&stats);
                telem.end_span(
                    batch_span,
                    &[
                        ("epoch", Field::U64(epoch as u64)),
                        ("batch", Field::U64(bi as u64)),
                    ],
                );
                if let Some(dir) = ckpt_dir.as_deref() {
                    if step.is_multiple_of(cfg.save_every) {
                        let slots = match self.cfg.strategy {
                            TrainStrategy::MetaTwoStep => vec![
                                checkpoint::export_slot("main", &opt_main),
                                checkpoint::export_slot("meta", &opt_meta),
                            ],
                            TrainStrategy::Joint => {
                                vec![checkpoint::export_slot("all", &opt_all)]
                            }
                        };
                        let progress = TrainProgress {
                            epoch: epoch as u64,
                            batch: (bi + 1) as u64,
                            step,
                        };
                        let ck = self.build_checkpoint(
                            progress,
                            epoch_words,
                            slots,
                            anneal.beta_max(),
                            telem.checkpoint_counters(),
                        );
                        let path = dir.join(checkpoint::checkpoint_file_name(step));
                        ck.save(&path)?;
                        checkpoint::prune_checkpoints(dir, cfg.keep_last)?;
                        telem.on_checkpoint(&path, step);
                        observer.on_checkpoint(&path, step);
                    }
                }
                if cfg.max_steps > 0 && step >= cfg.max_steps {
                    halted = true;
                    break;
                }
            }
            if halted {
                // A partial epoch cut short by `max_steps` is not recorded.
                telem.end_span(epoch_span, &[("epoch", Field::U64(epoch as u64))]);
                break;
            }
            let denom = batches.max(1) as f64;
            let wall_ms = epoch_start.elapsed().as_secs_f64() * 1e3;
            let stats = EpochStats {
                epoch,
                rec: sums.recon / denom,
                kl_a: sums.kl_a / denom,
                kl_b: sums.kl_b / denom,
                kl: (sums.kl_a + sums.kl_b) / denom,
                cl: sums.info_nce / denom,
                total: sums.total / denom,
                wall_ms,
                seqs_per_sec: seqs as f64 / (wall_ms / 1e3).max(1e-9),
            };
            if cfg.verbose {
                println!("[Meta-SGCL/{:?}] {stats}", self.cfg.strategy);
            }
            telem.on_epoch(&stats, batches);
            telem.end_span(epoch_span, &[("epoch", Field::U64(epoch as u64))]);
            self.history.epochs.push(stats);
            observer.on_epoch_end(&stats);
        }
        telem.finish()
    }
}

impl SequentialRecommender for MetaSgcl {
    fn name(&self) -> String {
        match self.cfg.strategy {
            TrainStrategy::MetaTwoStep => "Meta-SGCL".into(),
            TrainStrategy::Joint => "SGCL-Joint".into(),
        }
    }

    fn num_items(&self) -> usize {
        self.cfg.net.num_items
    }

    fn fit(&mut self, train: &[Vec<ItemId>], cfg: &TrainConfig) {
        self.train_model(train, cfg)
            .or_bug("training checkpoint I/O failed");
    }

    fn score(&mut self, _user: usize, seq: &[ItemId]) -> Vec<f32> {
        self.score_sequence(seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Ablation, MetaSgclConfig};
    use models::NetConfig;
    use optim::Optimizer;
    use tensor::Tensor;

    fn ring(users: usize, items: usize, len: usize) -> Vec<Vec<ItemId>> {
        (0..users)
            .map(|u| (0..len).map(|t| 1 + (u + t) % items).collect())
            .collect()
    }

    fn cfg_small(items: usize) -> MetaSgclConfig {
        MetaSgclConfig {
            net: NetConfig {
                max_len: 8,
                dim: 16,
                layers: 1,
                dropout: 0.0,
                ..NetConfig::for_items(items)
            },
            alpha: 0.02,
            beta: 0.05,
            kl_warmup_steps: 20,
            ..MetaSgclConfig::for_items(items)
        }
    }

    #[test]
    fn meta_two_step_learns_transitions() {
        let train = ring(20, 6, 8);
        let mut m = MetaSgcl::new(cfg_small(6));
        let tc = TrainConfig {
            epochs: 60,
            batch_size: 10,
            ..Default::default()
        };
        m.fit(&train, &tc);
        let s = m.score(0, &[2, 3, 4]);
        let best = s
            .iter()
            .enumerate()
            .skip(1)
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(best, 5, "scores {s:?}");
        assert_eq!(m.history().epochs.len(), 60);
    }

    #[test]
    fn joint_strategy_also_learns() {
        let train = ring(20, 6, 8);
        let mut cfg = cfg_small(6);
        cfg.strategy = TrainStrategy::Joint;
        let mut m = MetaSgcl::new(cfg);
        let tc = TrainConfig {
            epochs: 60,
            batch_size: 10,
            ..Default::default()
        };
        m.fit(&train, &tc);
        let s = m.score(0, &[2, 3, 4]);
        let best = s
            .iter()
            .enumerate()
            .skip(1)
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(best, 5, "scores {s:?}");
    }

    #[test]
    fn loss_decreases_over_training() {
        let train = ring(16, 5, 8);
        let mut m = MetaSgcl::new(cfg_small(5));
        m.fit(
            &train,
            &TrainConfig {
                epochs: 20,
                batch_size: 8,
                ..Default::default()
            },
        );
        let h = &m.history().epochs;
        let first = h[..3].iter().map(|e| e.rec).sum::<f64>() / 3.0;
        let last = h[h.len() - 3..].iter().map(|e| e.rec).sum::<f64>() / 3.0;
        assert!(
            last < first,
            "rec loss should fall: {first:.3} -> {last:.3}"
        );
    }

    #[test]
    fn meta_stage_only_updates_sigma_prime() {
        let train = ring(8, 5, 6);
        let m = MetaSgcl::new(cfg_small(5));
        // Snapshot all parameters, run *only* the meta stage manually.
        let main_before: Vec<Tensor> = m
            .main_parameters()
            .iter()
            .map(|p| p.borrow().value.clone())
            .collect();
        let meta_before: Vec<Tensor> = m
            .meta_parameters()
            .iter()
            .map(|p| p.borrow().value.clone())
            .collect();

        let mut rng = StdRng::seed_from_u64(0);
        let batcher = Batcher::new(train, 8, 8);
        let batch = batcher.epoch(&mut rng).remove(0);
        let meta_params = m.meta_parameters();
        let mut opt = Adam::new(meta_params.clone(), 1e-2);
        m.set_main_trainable(false);
        let g = Graph::new();
        let prefix = m.meta_prefix(&g, &batch, &mut rng);
        let loss = m.meta_stage_loss(&g, prefix, &batch);
        loss.backward();
        opt.step();
        m.set_main_trainable(true);

        for (p, before) in m.main_parameters().iter().zip(main_before.iter()) {
            assert_eq!(
                &p.borrow().value,
                before,
                "main param {} moved",
                p.borrow().name
            );
        }
        let mut any_moved = false;
        for (p, before) in m.meta_parameters().iter().zip(meta_before.iter()) {
            if &p.borrow().value != before {
                any_moved = true;
            }
        }
        assert!(any_moved, "Enc_σ' should move in the meta stage");
    }

    #[test]
    fn ablations_run_and_record_expected_loss_terms() {
        let train = ring(8, 5, 6);
        for (ablation, expect_cl, expect_kl) in [
            (Ablation::Full, true, true),
            (Ablation::NoCl, false, true),
            (Ablation::NoKl, true, false),
            (Ablation::NoClKl, false, false),
        ] {
            let mut cfg = cfg_small(5);
            cfg.ablation = ablation;
            cfg.kl_warmup_steps = 0;
            let mut m = MetaSgcl::new(cfg);
            m.fit(
                &train,
                &TrainConfig {
                    epochs: 2,
                    batch_size: 8,
                    ..Default::default()
                },
            );
            let last = *m.history().last().expect("history");
            // rec is always present.
            assert!(last.rec > 0.0);
            // The weighted total reflects the switches.
            let with_cl = last.total > last.rec + 1e-9;
            match (expect_cl, expect_kl) {
                (false, false) => assert!(
                    (last.total - last.rec).abs() < 1e-6,
                    "-clkl total must equal rec"
                ),
                _ => assert!(with_cl || expect_kl, "total should include extra terms"),
            }
        }
    }
}

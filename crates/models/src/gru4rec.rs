//! GRU4Rec (Hidasi et al., ICLR 2016): GRU over item embeddings with a
//! tied-softmax next-item objective.
//!
//! Simplification vs. the original: we train with full-catalog
//! cross-entropy per position instead of session-parallel mini-batches with
//! ranking losses — the standard modern formulation (also used by the
//! paper's comparison framework).

use autograd::{Ctx, Graph};
use nn::{Embedding, Gru, Module};
use optim::{clip_grad_norm, Adam, Optimizer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use recdata::{encode_input_only, Batch, Batcher, ItemId};

use crate::audit::{audit_batch, Auditable, StageContract, StageTrace};
use crate::sampled::{self, SoftmaxMode};
use crate::{SequentialRecommender, TrainConfig};

/// The GRU4Rec model.
pub struct Gru4Rec {
    pub(crate) item_emb: Embedding,
    pub(crate) gru: Gru,
    pub(crate) num_items: usize,
    pub(crate) max_len: usize,
}

impl Gru4Rec {
    /// Builds an untrained GRU4Rec with embedding/hidden size `dim`.
    pub fn new(num_items: usize, max_len: usize, dim: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Gru4Rec {
            item_emb: Embedding::new(&mut rng, "gru4rec.item", num_items + 1, dim),
            gru: Gru::new(&mut rng, "gru4rec.gru", dim),
            num_items,
            max_len,
        }
    }

    fn parameters(&self) -> Vec<autograd::ParamRef> {
        let mut ps = self.item_emb.parameters();
        ps.extend(self.gru.parameters());
        ps
    }

    /// [`score_unpadded`](Self::score_unpadded) on the recording context:
    /// the reference the eager scores are tested against bitwise.
    pub fn score_unpadded_recorded(&self, seq: &[ItemId]) -> Vec<f32> {
        if seq.is_empty() {
            return vec![0.0; self.num_items + 1];
        }
        let logits = self.score_rows(&Graph::new(), seq.to_vec()).value();
        logits.row(0).to_vec()
    }

    /// Tied-softmax next-item loss for one batch — full-catalog or
    /// sampled-softmax according to `softmax`. Shared by
    /// [`SequentialRecommender::fit`] and the static auditor.
    fn batch_loss(
        &self,
        g: &Graph,
        batch: &Batch,
        softmax: &SoftmaxMode,
        rng: &mut StdRng,
    ) -> autograd::Var {
        let x = self.item_emb.forward_batch(g, &batch.inputs);
        let h = self.gru.forward_sequence(g, &x); // [b, n, d]
        let targets = sampled::flat_targets(batch);
        match sampled::draw_candidates(&targets, self.num_items, softmax, rng) {
            Some(cands) => sampled::sampled_ce(&h, &self.item_emb.full(g), &targets, &cands),
            None => {
                let logits = h.matmul_transb(&self.item_emb.full(g));
                let (b, n) = (batch.len(), batch.seq_len());
                let flat = logits.reshape(vec![b * n, self.num_items + 1]);
                flat.cross_entropy_with_logits(&targets)
            }
        }
    }

    /// The GRU's last hidden state `[1, d]` after reading `input` from a
    /// zero state.
    pub(crate) fn last_hidden<C: Ctx>(&self, c: &C, input: Vec<ItemId>) -> C::V {
        let x = self.item_emb.forward_batch(c, &[input]);
        self.gru.forward_sequence_last(c, &x)
    }

    /// Catalog scores `[1, V]` after reading `input`: the one score body
    /// offline scoring and serving share. Only the last hidden state is
    /// projected against the tied table.
    pub(crate) fn score_rows<C: Ctx>(&self, c: &C, input: Vec<ItemId>) -> C::V {
        self.item_emb.project(c, &self.last_hidden(c, input))
    }
}

impl Auditable for Gru4Rec {
    fn audit_name(&self) -> String {
        self.name()
    }

    fn audit_contracts(&self) -> Vec<StageContract> {
        vec![StageContract::full(self.parameters())]
    }

    fn trace_stage(&mut self, stage: &str, seqs: &[Vec<ItemId>], seed: u64) -> StageTrace {
        assert_eq!(stage, "full", "GRU4Rec has a single `full` stage");
        let batch = audit_batch(seqs, self.max_len, seed);
        let g = Graph::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let loss = self.batch_loss(&g, &batch, &SoftmaxMode::Full, &mut rng);
        StageTrace {
            stage: stage.into(),
            graph: g,
            loss,
        }
    }
}

impl SequentialRecommender for Gru4Rec {
    fn name(&self) -> String {
        "GRU4Rec".into()
    }

    fn num_items(&self) -> usize {
        self.num_items
    }

    fn fit(&mut self, train: &[Vec<ItemId>], cfg: &TrainConfig) {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let batcher = Batcher::new(train.to_vec(), self.max_len, cfg.batch_size);
        let params = self.parameters();
        let mut opt = Adam::new(params.clone(), cfg.lr);
        for epoch in 0..cfg.epochs {
            let mut total = 0.0f64;
            let mut batches = 0usize;
            for batch in batcher.epoch(&mut rng) {
                let g = Graph::new();
                let loss = self.batch_loss(&g, &batch, &cfg.softmax, &mut rng);
                loss.backward();
                if cfg.grad_clip > 0.0 {
                    clip_grad_norm(&params, cfg.grad_clip);
                }
                opt.step();
                opt.zero_grad();
                total += loss.item() as f64;
                batches += 1;
            }
            if cfg.verbose {
                println!(
                    "[GRU4Rec] epoch {epoch} loss {:.4}",
                    total / batches.max(1) as f64
                );
            }
        }
    }

    fn score(&mut self, _user: usize, seq: &[ItemId]) -> Vec<f32> {
        if seq.is_empty() {
            return vec![0.0; self.num_items + 1];
        }
        let (input, _pad) = encode_input_only(seq, self.max_len);
        let logits = self.score_rows(&Graph::new(), input).value();
        logits.row(0).to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_simple_transition() {
        // Two alternating patterns: 1→2→1→2… and 3→4→3→4…
        let mut train = Vec::new();
        for _ in 0..12 {
            train.push(vec![1, 2, 1, 2, 1, 2]);
            train.push(vec![3, 4, 3, 4, 3, 4]);
        }
        let mut m = Gru4Rec::new(4, 6, 16, 7);
        let cfg = TrainConfig {
            epochs: 30,
            batch_size: 8,
            ..Default::default()
        };
        m.fit(&train, &cfg);
        let s = m.score(0, &[1, 2, 1]);
        let best = s
            .iter()
            .enumerate()
            .skip(1)
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(best, 2, "after 1 expect 2; scores {s:?}");
        let s = m.score(0, &[3, 4, 3]);
        let best = s
            .iter()
            .enumerate()
            .skip(1)
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(best, 4);
    }

    #[test]
    fn score_shape() {
        let mut m = Gru4Rec::new(9, 5, 8, 0);
        assert_eq!(m.score(0, &[1]).len(), 10);
    }
}

//! Static-audit hooks: every tape-based model exposes its training graph
//! and freeze contracts so `crates/analysis` can verify shapes and
//! gradient flow *without* running real training.
//!
//! A model participates in the audit by implementing [`Auditable`]:
//!
//! * [`Auditable::audit_contracts`] declares, per training stage, which
//!   parameters the loss must reach (receive gradient) and which must stay
//!   frozen. Single-stage models reach everything; Meta-SGCL's `meta`
//!   stage must reach exactly `Enc_σ'`.
//! * [`Auditable::trace_stage`] builds one *real* training-step graph (the
//!   same code path `fit` uses, via each model's `batch_loss` method) on a
//!   tiny synthetic batch, and hands back the tape plus the loss head.
//!
//! The auditor then walks the returned tape: shape inference re-derives
//! every node's dims from op signatures, and reverse reachability from the
//! loss classifies each contracted parameter as reached/frozen/dead.

use autograd::{Graph, ParamRef, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;
use recdata::{Batch, Batcher, ItemId};

/// Declares which parameters a training stage must and must not update.
#[derive(Clone)]
pub struct StageContract {
    /// Stage name (`"full"` for single-stage models; Meta-SGCL adds
    /// `"meta"`).
    pub stage: String,
    /// Parameters the stage's loss must reach with gradient.
    pub reached: Vec<ParamRef>,
    /// Parameters that must stay frozen (no gradient) in this stage.
    pub frozen: Vec<ParamRef>,
}

impl StageContract {
    /// The common single-stage contract: one `"full"` stage that reaches
    /// every parameter and freezes none.
    pub fn full(reached: Vec<ParamRef>) -> Self {
        StageContract {
            stage: "full".into(),
            reached,
            frozen: Vec::new(),
        }
    }
}

/// One traced training step: the tape and its loss head.
pub struct StageTrace {
    /// Stage this trace corresponds to.
    pub stage: String,
    /// The define-by-run tape recorded while building the loss.
    pub graph: Graph,
    /// The scalar loss head (root of the backward walk).
    pub loss: Var,
}

/// A model whose training graph can be audited statically.
pub trait Auditable {
    /// Name used in audit reports (matches [`crate::SequentialRecommender::name`]).
    fn audit_name(&self) -> String;

    /// The freeze contracts, one per training stage, in training order.
    fn audit_contracts(&self) -> Vec<StageContract>;

    /// Records one training-step graph for `stage` on the given sequences.
    ///
    /// Implementations must route through the same loss-construction code
    /// `fit` uses, so the audited tape is the real training graph.
    /// `seed` drives dropout/augmentation sampling deterministically.
    ///
    /// Panics if `stage` is not one of the stages named by
    /// [`Auditable::audit_contracts`].
    fn trace_stage(&mut self, stage: &str, seqs: &[Vec<ItemId>], seed: u64) -> StageTrace;
}

/// Deterministic ring sequences for audits: item `i` is always followed by
/// `i + 1` (mod `num_items`). Mirrors the models' own smoke-test data.
pub fn audit_sequences(num_items: usize, users: usize, len: usize) -> Vec<Vec<ItemId>> {
    (0..users)
        .map(|u| (0..len).map(|t| 1 + (u + t) % num_items).collect())
        .collect()
}

/// Packs all `seqs` into a single left-padded training batch, exactly as
/// the models' `fit` loops would see it.
pub fn audit_batch(seqs: &[Vec<ItemId>], max_len: usize, seed: u64) -> Batch {
    let mut rng = StdRng::seed_from_u64(seed);
    let batcher = Batcher::new(seqs.to_vec(), max_len, seqs.len().max(1));
    let mut batches = batcher.epoch(&mut rng);
    assert!(
        !batches.is_empty(),
        "audit_batch needs at least one sequence"
    );
    batches.remove(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_sequences_are_deterministic() {
        let a = audit_sequences(5, 3, 4);
        let b = audit_sequences(5, 3, 4);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        assert!(a.iter().all(|s| s.len() == 4));
        assert!(a.iter().flatten().all(|&i| (1..=5).contains(&i)));
    }

    #[test]
    fn audit_batch_packs_every_sequence() {
        let seqs = audit_sequences(6, 4, 5);
        let batch = audit_batch(&seqs, 8, 7);
        assert_eq!(batch.len(), 4);
        assert_eq!(batch.seq_len(), 8);
    }
}

//! Static-audit hooks for Meta-SGCL: the two-stage freeze contracts and
//! the traced training graphs the graph auditor (`crates/analysis`)
//! verifies against them.
//!
//! Meta-SGCL is the only model in the zoo with more than one stage:
//!
//! | stage  | loss                         | must reach        | must freeze |
//! |--------|------------------------------|-------------------|-------------|
//! | `full` | double ELBO (Eq. 28)         | every parameter   | —           |
//! | `meta` | contrastive `L_cl` (Eq. 26)  | `Enc_σ'` only     | all others  |
//!
//! The `meta` trace runs the *same* code as training stage 2 (the
//! `meta_prefix` and `meta_stage_loss` of [`MetaSgcl`], with the main
//! modules frozen). Training runs the prefix eagerly over a frozen
//! snapshot; the trace records it, so the frozen main parameters are on
//! the tape and the auditor's gradient-flow pass reproduces the
//! `meta_stage_only_updates_sigma_prime` invariant statically.

use autograd::Graph;
use models::audit::{audit_batch, Auditable, StageContract, StageTrace};
use models::cl::info_nce_masked;
use models::SequentialRecommender;
use rand::rngs::StdRng;
use rand::SeedableRng;
use recdata::ItemId;

use crate::model::MetaSgcl;

impl Auditable for MetaSgcl {
    fn audit_name(&self) -> String {
        self.name()
    }

    fn audit_contracts(&self) -> Vec<StageContract> {
        vec![
            StageContract::full(self.all_parameters()),
            StageContract {
                stage: "meta".into(),
                reached: self.meta_parameters(),
                frozen: self.main_parameters(),
            },
        ]
    }

    fn trace_stage(&mut self, stage: &str, seqs: &[Vec<ItemId>], seed: u64) -> StageTrace {
        let mut rng = StdRng::seed_from_u64(seed);
        let batch = audit_batch(seqs, self.cfg.net.max_len, seed);
        let g = Graph::new();
        let loss = match stage {
            "full" => {
                let beta = self.cfg.effective_beta().max(0.05);
                self.batch_losses(&g, &batch, beta, &models::SoftmaxMode::Full, &mut rng)
                    .total
            }
            "meta" => {
                // Exactly training stage 2: freeze everything but Enc_σ',
                // record the contrastive graph, then restore. The tape
                // captures requires-grad at entry time, so restoring the
                // flags afterwards does not alter the recorded graph.
                self.set_main_trainable(false);
                let prefix = self.meta_prefix(&g, &batch, &mut rng);
                let loss = self.meta_stage_loss(&g, prefix, &batch);
                self.set_main_trainable(true);
                loss
            }
            other => panic!("Meta-SGCL has stages `full` and `meta`, not `{other}`"),
        };
        StageTrace {
            stage: stage.into(),
            graph: g,
            loss,
        }
    }
}

impl MetaSgcl {
    /// Fault-injection hook: the meta-stage trace *without* freezing the
    /// main modules — a deliberate freeze-contract violation (the auditor
    /// must flag every main parameter as wrongly reached).
    #[doc(hidden)]
    pub fn audit_trace_meta_unfrozen(&self, seqs: &[Vec<ItemId>], seed: u64) -> StageTrace {
        let mut rng = StdRng::seed_from_u64(seed);
        let batch = audit_batch(seqs, self.cfg.net.max_len, seed);
        let g = Graph::new();
        let prefix = self.meta_prefix(&g, &batch, &mut rng);
        let loss = self.meta_stage_loss(&g, prefix, &batch);
        StageTrace {
            stage: "meta".into(),
            graph: g,
            loss,
        }
    }

    /// Fault-injection hook: the meta-stage trace with the `Enc_σ'` output
    /// *detached* from the tape, so gradient can never reach it (the
    /// auditor must classify `Enc_σ'` as dead).
    #[doc(hidden)]
    pub fn audit_trace_meta_detached(&self, seqs: &[Vec<ItemId>], seed: u64) -> StageTrace {
        self.set_main_trainable(false);
        let mut rng = StdRng::seed_from_u64(seed);
        let batch = audit_batch(seqs, self.cfg.net.max_len, seed);
        let g = Graph::new();
        let prefix = self.meta_prefix(&g, &batch, &mut rng);
        // Deliberately broken second view (Eq. 15): σ' is computed but
        // detached, mirroring a forgotten stop-gradient bug.
        let logvar = self
            .enc_logvar_prime
            .forward(&g, &prefix.features)
            .clamp(-8.0, 8.0)
            .detach();
        let z2 = prefix
            .mu
            .add(&logvar.scale(0.5).exp().mul_const(&prefix.eps));
        let loss = info_nce_masked(
            &prefix.z1,
            &z2,
            self.cfg.tau,
            self.cfg.similarity,
            &batch.last_target,
        );
        self.set_main_trainable(true);
        StageTrace {
            stage: "meta".into(),
            graph: g,
            loss,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MetaSgclConfig;
    use models::audit::audit_sequences;
    use models::NetConfig;

    fn small() -> MetaSgcl {
        MetaSgcl::new(MetaSgclConfig {
            net: NetConfig {
                max_len: 6,
                dim: 8,
                layers: 1,
                ..NetConfig::for_items(8)
            },
            ..MetaSgclConfig::for_items(8)
        })
    }

    #[test]
    fn contracts_declare_both_stages() {
        let m = small();
        let contracts = m.audit_contracts();
        assert_eq!(contracts.len(), 2);
        assert_eq!(contracts[0].stage, "full");
        assert!(contracts[0].frozen.is_empty());
        assert_eq!(contracts[1].stage, "meta");
        assert_eq!(contracts[1].reached.len(), 2); // Enc_σ' weight + bias
        assert_eq!(contracts[1].frozen.len(), m.main_parameters().len());
    }

    #[test]
    fn meta_trace_restores_trainable_flags() {
        let mut m = small();
        let seqs = audit_sequences(8, 4, 6);
        let trace = m.trace_stage("meta", &seqs, 7);
        assert_eq!(trace.stage, "meta");
        assert!(trace.loss.dims().is_empty() || trace.loss.value().numel() == 1);
        assert!(m.main_parameters().iter().all(|p| p.borrow().trainable));
    }

    #[test]
    fn fault_traces_build() {
        let m = small();
        let seqs = audit_sequences(8, 4, 6);
        let t1 = m.audit_trace_meta_unfrozen(&seqs, 3);
        assert_eq!(t1.stage, "meta");
        let t2 = m.audit_trace_meta_detached(&seqs, 3);
        assert_eq!(t2.stage, "meta");
        assert!(m.main_parameters().iter().all(|p| p.borrow().trainable));
    }
}

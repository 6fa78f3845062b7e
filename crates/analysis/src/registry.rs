//! The model zoo registry and the audit driver: builds each model family
//! at a small audit-sized configuration, traces every declared training
//! stage, and runs the static passes (shape, gradient-flow, numeric,
//! cost/liveness, determinism) over the captured tapes.

use autograd::numeric::{scan_gradients, scan_graph, NumericIssue};
use autograd::ShapeSig;
use meta_sgcl::{MetaSgcl, MetaSgclConfig};
use models::audit::{audit_sequences, Auditable};
use models::{
    Acvae, Bert4Rec, Caser, Cl4SRec, ContrastVae, DuoRec, Gru4Rec, NetConfig, SasRec, Vsan,
};
use tensor::bug::OrBug;
use tensor::ReassocClass;

use crate::cost::{self, CostReport};
use crate::determinism::{self, DeterminismFinding, DeterminismSummary};
use crate::flow::{check_contract, FlowSummary, FlowViolation};
use crate::shape::{check_snapshot_in, ShapeDiagnostic};

/// Norm ceiling for the numeric pass — matches the training sanitizer.
pub const NORM_LIMIT: f32 = 1e6;

/// Every registered model family, by canonical name.
pub const MODELS: &[&str] = &[
    "SASRec",
    "BERT4Rec",
    "GRU4Rec",
    "Caser",
    "CL4SRec",
    "DuoRec",
    "VSAN",
    "ACVAE",
    "ContrastVAE",
    "Meta-SGCL",
];

const AUDIT_ITEMS: usize = 10;
const AUDIT_USERS: usize = 6;
const AUDIT_LEN: usize = 8;
const AUDIT_SEED: u64 = 7;

fn audit_net() -> NetConfig {
    NetConfig {
        max_len: AUDIT_LEN,
        dim: 8,
        layers: 1,
        seed: AUDIT_SEED,
        ..NetConfig::for_items(AUDIT_ITEMS)
    }
}

/// Builds a registered model at its audit configuration. `None` when the
/// name matches no registered family (matching is case-insensitive).
pub fn build(name: &str) -> Option<Box<dyn Auditable>> {
    let canonical = MODELS
        .iter()
        .find(|m| m.eq_ignore_ascii_case(name))
        .copied()?;
    let net = audit_net();
    Some(match canonical {
        "SASRec" => Box::new(SasRec::new(net)),
        "BERT4Rec" => Box::new(Bert4Rec::new(net)),
        "GRU4Rec" => Box::new(Gru4Rec::new(AUDIT_ITEMS, AUDIT_LEN, 8, AUDIT_SEED)),
        "Caser" => Box::new(Caser::new(AUDIT_ITEMS, 4, 8, AUDIT_SEED)),
        "CL4SRec" => Box::new(Cl4SRec::new(net)),
        "DuoRec" => Box::new(DuoRec::new(net)),
        "VSAN" => Box::new(Vsan::new(net, 0.2)),
        "ACVAE" => Box::new(Acvae::new(net)),
        "ContrastVAE" => Box::new(ContrastVae::new(net, 0.1, 0.2)),
        "Meta-SGCL" => Box::new(MetaSgcl::new(MetaSgclConfig {
            net,
            ..MetaSgclConfig::for_items(AUDIT_ITEMS)
        })),
        _ => unreachable!("name came from MODELS"),
    })
}

/// A fault to inject before auditing, for exercising the detectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Corrupt a recorded output shape in the traced tape.
    Shape,
    /// Skip the stage-2 freeze (Meta-SGCL only): the meta stage then
    /// wrongly reaches the main parameters.
    Freeze,
    /// Flip the first reduction op's reassociation class to
    /// reassoc-safe — the determinism pass must refuse it.
    Reassoc,
    /// Corrupt a recorded output shape so the cost pass refuses to price
    /// the tape.
    Cost,
}

/// The static passes' findings for one traced stage.
#[derive(Debug)]
pub struct StageReport {
    /// Stage name (`full`, `meta`, ...).
    pub stage: String,
    /// Number of tape nodes audited.
    pub nodes: usize,
    /// Shape-inference disagreements.
    pub shape: Vec<ShapeDiagnostic>,
    /// Freeze-contract violations.
    pub flow: Vec<FlowViolation>,
    /// Contract-satisfaction counts for the flow pass.
    pub flow_summary: FlowSummary,
    /// NaN / Inf / exploding-norm findings in activations and gradients.
    pub numeric: Vec<NumericIssue>,
    /// FLOP / byte pricing and the peak-liveness prediction.
    pub cost: CostReport,
    /// Determinism findings (unclassified ops, reassociable reductions).
    pub determinism: Vec<DeterminismFinding>,
    /// Reassociation-class tallies for the determinism pass.
    pub determinism_summary: DeterminismSummary,
}

impl StageReport {
    /// True when every pass came back empty.
    pub fn is_clean(&self) -> bool {
        self.shape.is_empty()
            && self.flow.is_empty()
            && self.numeric.is_empty()
            && self.cost.is_clean()
            && self.determinism.is_empty()
    }
}

/// The full audit result for one model family.
#[derive(Debug)]
pub struct AuditReport {
    /// Canonical model name.
    pub model: String,
    /// One report per declared training stage.
    pub stages: Vec<StageReport>,
}

impl AuditReport {
    /// True when every stage is clean.
    pub fn is_clean(&self) -> bool {
        self.stages.iter().all(StageReport::is_clean)
    }
}

impl std::fmt::Display for AuditReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let verdict = if self.is_clean() { "ok" } else { "FAIL" };
        writeln!(f, "{} ... {verdict}", self.model)?;
        for s in &self.stages {
            writeln!(
                f,
                "  stage `{}`: {} nodes, {} reached / {} frozen per contract",
                s.stage, s.nodes, s.flow_summary.reached, s.flow_summary.frozen
            )?;
            writeln!(
                f,
                "    cost: {} flops, tape {} B (+{} B in closures), predicted peak {} B",
                s.cost.flops, s.cost.tape_bytes, s.cost.closure_bytes, s.cost.predicted_peak_bytes
            )?;
            writeln!(
                f,
                "    determinism: {} fixed-order / {} reassoc-safe nodes",
                s.determinism_summary.fixed_order, s.determinism_summary.reassoc_safe
            )?;
            for d in &s.shape {
                writeln!(f, "    shape: {d}")?;
            }
            for v in &s.flow {
                writeln!(f, "    flow: {v}")?;
            }
            for n in &s.numeric {
                writeln!(f, "    numeric: {n}")?;
            }
            for d in &s.cost.diagnostics {
                writeln!(f, "    cost: {d}")?;
            }
            for d in &s.determinism {
                writeln!(f, "    determinism: {d}")?;
            }
        }
        Ok(())
    }
}

fn run_passes(model: &mut dyn Auditable, fault: Option<Fault>) -> AuditReport {
    let seqs = audit_sequences(AUDIT_ITEMS, AUDIT_USERS, AUDIT_LEN);
    let name = model.audit_name();
    let contracts = model.audit_contracts();
    let mut stages = Vec::new();
    for contract in &contracts {
        let trace = model.trace_stage(&contract.stage, &seqs, AUDIT_SEED);
        let mut snap = trace.graph.snapshot();
        if matches!(fault, Some(Fault::Shape | Fault::Cost)) {
            inject_shape_fault(&mut snap);
        }
        let origin = format!("{name}/{}", contract.stage);
        let shape = check_snapshot_in(&snap, &origin);
        let (flow, flow_summary) = check_contract(&snap, trace.loss.node_id(), contract);
        let mut numeric = scan_graph(&trace.graph, NORM_LIMIT);
        if trace.loss.requires_grad() {
            numeric.extend(scan_gradients(&trace.loss.backward_collect(), NORM_LIMIT));
        }
        let cost = cost::analyze(&snap, trace.loss.node_id());
        let overrides = reassoc_overrides(&snap, fault);
        let (determinism, determinism_summary) =
            determinism::check_snapshot_with(&snap, &overrides);
        stages.push(StageReport {
            stage: contract.stage.clone(),
            nodes: snap.len(),
            shape,
            flow,
            flow_summary,
            numeric,
            cost,
            determinism,
            determinism_summary,
        });
    }
    AuditReport {
        model: name,
        stages,
    }
}

/// The determinism pass's class overrides for a fault run: flip the first
/// reduction op found on the tape to reassoc-safe.
fn reassoc_overrides(
    snap: &[autograd::NodeInfo],
    fault: Option<Fault>,
) -> Vec<(&'static str, ReassocClass)> {
    if fault != Some(Fault::Reassoc) {
        return Vec::new();
    }
    determinism::first_reduction_op(snap)
        .map(|op| vec![(op, ReassocClass::ReassocSafe)])
        .unwrap_or_default()
}

/// Corrupts the recorded output shape of the last non-leaf tape node,
/// simulating a kernel that produced the wrong shape.
fn inject_shape_fault(snap: &mut [autograd::NodeInfo]) {
    if let Some(n) = snap
        .iter_mut()
        .rev()
        .find(|n| !matches!(n.sig, ShapeSig::Leaf))
    {
        n.dims.push(31);
    }
}

/// Audits one model family. `None` when the name is unknown.
pub fn audit_model(name: &str) -> Option<AuditReport> {
    let mut model = build(name)?;
    Some(run_passes(model.as_mut(), None))
}

/// Audits one model family with a fault injected first. `None` when the
/// name is unknown.
///
/// [`Fault::Freeze`] only applies to Meta-SGCL (the one multi-stage
/// family); other models fall back to a normal audit.
pub fn audit_model_with_fault(name: &str, fault: Fault) -> Option<AuditReport> {
    if fault == Fault::Freeze {
        if !name.eq_ignore_ascii_case("Meta-SGCL") {
            return audit_model(name);
        }
        let model = MetaSgcl::new(MetaSgclConfig {
            net: audit_net(),
            ..MetaSgclConfig::for_items(AUDIT_ITEMS)
        });
        let seqs = audit_sequences(AUDIT_ITEMS, AUDIT_USERS, AUDIT_LEN);
        let contract = model
            .audit_contracts()
            .into_iter()
            .find(|c| c.stage == "meta")
            .or_bug("Meta-SGCL declares a meta stage");
        let trace = model.audit_trace_meta_unfrozen(&seqs, AUDIT_SEED);
        let snap = trace.graph.snapshot();
        let shape = check_snapshot_in(&snap, "Meta-SGCL/meta");
        let (flow, flow_summary) = check_contract(&snap, trace.loss.node_id(), &contract);
        let numeric = scan_graph(&trace.graph, NORM_LIMIT);
        let cost = cost::analyze(&snap, trace.loss.node_id());
        let (determinism, determinism_summary) = determinism::check_snapshot(&snap);
        return Some(AuditReport {
            model: "Meta-SGCL".into(),
            stages: vec![StageReport {
                stage: contract.stage.clone(),
                nodes: snap.len(),
                shape,
                flow,
                flow_summary,
                numeric,
                cost,
                determinism,
                determinism_summary,
            }],
        });
    }
    let mut model = build(name)?;
    Some(run_passes(model.as_mut(), Some(fault)))
}

/// Audits every registered model family.
pub fn audit_all() -> Vec<AuditReport> {
    MODELS.iter().filter_map(|name| audit_model(name)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::determinism::reassoc_class;

    #[test]
    fn every_registered_model_builds() {
        for name in MODELS {
            assert!(build(name).is_some(), "{name} missing from build()");
        }
        assert!(build("NoSuchModel").is_none());
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert!(build("sasrec").is_some());
        assert!(build("meta-sgcl").is_some());
    }

    #[test]
    fn fused_matmul_ops_are_traced_and_audit_clean() {
        // The tied-softmax logits rewrite routes every full-vocab scoring
        // matmul through the fused NT kernel; the auditor must know its
        // shape rule (no UnknownOp) and the tapes must stay clean.
        let seqs = audit_sequences(AUDIT_ITEMS, AUDIT_USERS, AUDIT_LEN);
        for name in ["SASRec", "GRU4Rec", "Caser"] {
            let mut model = build(name).expect("registered");
            let contract = &model.audit_contracts()[0];
            let trace = model.trace_stage(&contract.stage, &seqs, AUDIT_SEED);
            let snap = trace.graph.snapshot();
            assert!(
                snap.iter().any(|n| matches!(n.sig, ShapeSig::MatmulTransB)),
                "{name} tape should contain a fused NT matmul"
            );
            let report = audit_model(name).expect("registered");
            assert!(report.is_clean(), "{report}");
        }
    }

    #[test]
    fn attention_runs_as_one_segmented_op_per_layer() {
        // Every Transformer family's tape, in every stage, attends through
        // the registered segmented op; no attention softmax is recorded
        // apart from it.
        let seqs = audit_sequences(AUDIT_ITEMS, AUDIT_USERS, AUDIT_LEN);
        for name in MODELS
            .iter()
            .filter(|m| !matches!(**m, "GRU4Rec" | "Caser"))
        {
            let mut model = build(name).expect("registered");
            for contract in model.audit_contracts() {
                let trace = model.trace_stage(&contract.stage, &seqs, AUDIT_SEED);
                let snap = trace.graph.snapshot();
                let seg = snap
                    .iter()
                    .filter(|n| matches!(n.sig, ShapeSig::SegAttention { .. }))
                    .count();
                let what = format!("{name}/{}", contract.stage);
                assert!(seg > 0, "{what}: no segmented attention on the tape");
                assert!(
                    !snap.iter().any(|n| n.op == "softmax_last"),
                    "{what}: an attention softmax outside the segmented op"
                );
            }
        }
    }

    /// Registry completeness, derived from the tapes themselves: every op
    /// any audited stage records must carry a reassociation class and a
    /// shape signature that reproduces the recorded output shape. No
    /// hardcoded op list — adding a new `Var` op and forgetting either
    /// piece of metadata fails here.
    #[test]
    fn every_audited_op_is_fully_registered() {
        let seqs = audit_sequences(AUDIT_ITEMS, AUDIT_USERS, AUDIT_LEN);
        for name in MODELS {
            let mut model = build(name).expect("registered");
            for contract in model.audit_contracts() {
                let trace = model.trace_stage(&contract.stage, &seqs, AUDIT_SEED);
                let snap = trace.graph.snapshot();
                for n in &snap {
                    assert!(
                        reassoc_class(n.op).is_some(),
                        "{name}/{}: op `{}` (node {}) has no reassociation class",
                        contract.stage,
                        n.op,
                        n.id
                    );
                    let in_dims: Vec<&[usize]> =
                        n.inputs.iter().map(|&i| snap[i].dims.as_slice()).collect();
                    let inferred = n.sig.infer(&in_dims).unwrap_or_else(|e| {
                        panic!(
                            "{name}/{}: op `{}` (node {}) shape rule rejected \
                             its own recorded inputs: {e}",
                            contract.stage, n.op, n.id
                        )
                    });
                    if let Some(inferred) = inferred {
                        assert_eq!(
                            inferred, n.dims,
                            "{name}/{}: op `{}` (node {}) signature does not \
                             reproduce the recorded output shape",
                            contract.stage, n.op, n.id
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cost_reports_are_populated() {
        let report = audit_model("SASRec").expect("registered");
        let s = &report.stages[0];
        assert!(s.cost.is_clean());
        assert!(s.cost.flops > 0);
        assert!(s.cost.tape_bytes > 0);
        assert!(s.cost.predicted_peak_bytes > s.cost.tape_bytes);
        assert!(s.determinism_summary.fixed_order > 0);
    }

    #[test]
    fn shape_fault_is_detected() {
        let report = audit_model_with_fault("SASRec", Fault::Shape).expect("registered");
        assert!(!report.is_clean());
        assert!(report.stages.iter().any(|s| !s.shape.is_empty()));
        // The blame carries the model/stage origin label.
        let d = report
            .stages
            .iter()
            .flat_map(|s| &s.shape)
            .next()
            .expect("a diagnostic");
        assert_eq!(d.origin, "SASRec/full");
    }

    #[test]
    fn freeze_fault_is_detected_on_meta_sgcl() {
        let report = audit_model_with_fault("Meta-SGCL", Fault::Freeze).expect("registered");
        assert!(!report.is_clean());
        let meta = &report.stages[0];
        assert_eq!(meta.stage, "meta");
        assert!(
            !meta.flow.is_empty(),
            "unfrozen meta stage must violate the freeze contract"
        );
    }

    #[test]
    fn reassoc_fault_is_detected() {
        let report = audit_model_with_fault("SASRec", Fault::Reassoc).expect("registered");
        assert!(!report.is_clean());
        assert!(
            report.stages.iter().any(|s| !s.determinism.is_empty()),
            "flipped reduction class must trip the determinism pass"
        );
    }

    #[test]
    fn cost_fault_is_detected() {
        let report = audit_model_with_fault("GRU4Rec", Fault::Cost).expect("registered");
        assert!(!report.is_clean());
        assert!(
            report.stages.iter().any(|s| !s.cost.diagnostics.is_empty()),
            "corrupted shapes must make the cost pass refuse to price"
        );
    }
}

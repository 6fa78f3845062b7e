//! **Static graph auditor** for the Meta-SGCL workspace.
//!
//! Training in this repo runs on a define-by-run tape ([`autograd::Graph`]).
//! Because every op records a declarative [`autograd::ShapeSig`] and its
//! parameter provenance, a captured tape can be *audited* without re-running
//! any kernels. This crate implements five passes over such tapes:
//!
//! 1. **Shape inference** ([`shape`]) — re-derives every node's output
//!    shape from its inputs via the op's shape signature and reports any
//!    disagreement with what the kernel actually produced, blamed on the
//!    precise op.
//! 2. **Gradient flow** ([`flow`]) — walks the tape from the loss head the
//!    way backward does and classifies every parameter as *reached*,
//!    *frozen*, or *dead*, then checks the model's declared per-stage
//!    freeze contracts (e.g. Meta-SGCL's meta stage must reach `Enc_σ'`
//!    and nothing else).
//! 3. **Numeric sanitation** ([`autograd::numeric`], surfaced through
//!    [`registry`]) — scans activations and gradients for NaN / Inf /
//!    exploding norms with per-op blame.
//! 4. **Cost / liveness** ([`cost`]) — prices every node in FLOPs and
//!    bytes from its shape signature, replays the backward pass's
//!    allocation schedule, and predicts the peak live bytes of one
//!    forward+backward step plus the `tensor::pool` size classes it
//!    exercises. A counting-allocator integration test pins the
//!    prediction against reality.
//! 5. **Determinism** ([`determinism`]) — checks that every op carries a
//!    reassociation class ([`tensor::determinism`]) and that every
//!    parallel-reduced path is composed only of fixed-order ops, and
//!    audits the SIMD kernel registry: an op that gains a SIMD kernel
//!    without a declared class — or a fixed-order op whose kernel
//!    reassociates — fails the audit.
//!
//! The [`registry`] builds each model family in the zoo at a small audit
//! configuration and runs every pass over every declared training stage;
//! `msgc check [--model <name> | --all]` is the CLI front end and
//! [`report::to_json`] renders the machine-readable `audit.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod determinism;
pub mod flow;
pub mod registry;
pub mod report;
pub mod shape;

pub use cost::{CostDiagnostic, CostReport, PoolClass};
pub use determinism::{
    check_simd_registry, check_simd_registry_with, DeterminismFinding, DeterminismSummary,
    SimdRegistryFinding, SimdRegistrySummary,
};
pub use flow::{check_contract, classify, reachable_from, FlowClass, FlowSummary, FlowViolation};
pub use registry::{
    audit_all, audit_model, audit_model_with_fault, build, AuditReport, Fault, StageReport, MODELS,
};
pub use shape::{check_graph, check_snapshot, check_snapshot_in, ShapeDiagnostic};

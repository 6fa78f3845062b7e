//! Reassociation-safety metadata for every tape op.
//!
//! The whole codebase's bitwise-reproducibility story (threads=1 equals
//! threads=N, frozen forwards equal autograd forwards, checkpoint resume
//! is bit-identical) rests on one rule: every floating-point reduction is
//! a *single strict accumulation chain* in a fixed order. Upcoming SIMD
//! micro-kernels (ROADMAP item 3) are only allowed to vectorise in ways
//! that preserve each op's documented class here:
//!
//! * [`ReassocClass::FixedOrder`] — the op accumulates across elements
//!   (GEMM k-loops, axis/global sums, softmax/logsumexp denominators,
//!   cross-entropy row sums). Its result depends on summation order, so
//!   kernels must keep the strict documented order; lane-splitting the
//!   accumulator would change bits.
//! * [`ReassocClass::ReassocSafe`] — the op is elementwise or pure data
//!   movement: no cross-element accumulation exists, so any evaluation
//!   order produces identical bits and vectorisation is unconstrained.
//!
//! The static determinism pass in `crates/analysis` walks every audited
//! tape and verifies (a) every op is classified and (b) every
//! reduction-bearing op is `FixedOrder`. An op missing from
//! [`CLASSIFIED_OPS`] fails the audit — adding a new `Var` op requires
//! deciding its class here first.

/// How an op's output bits respond to reordering its internal
/// floating-point arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReassocClass {
    /// The op reduces across elements; its bits depend on accumulation
    /// order, which kernels must keep fixed.
    FixedOrder,
    /// No cross-element accumulation; reordering cannot change bits.
    ReassocSafe,
}

impl std::fmt::Display for ReassocClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReassocClass::FixedOrder => write!(f, "fixed-order"),
            ReassocClass::ReassocSafe => write!(f, "reassoc-safe"),
        }
    }
}

/// Every tape op name with its reassociation class. This is the canonical
/// op registry for determinism analysis: ops absent from this table are
/// reported as unclassified by the audit.
pub const CLASSIFIED_OPS: &[(&str, ReassocClass)] = &[
    // Leaves and gradient-flow markers: no arithmetic at all.
    ("constant", ReassocClass::ReassocSafe),
    ("param", ReassocClass::ReassocSafe),
    ("detach", ReassocClass::ReassocSafe),
    // Elementwise / broadcast arithmetic: one output element reads a
    // fixed set of input elements, no accumulation.
    ("add", ReassocClass::ReassocSafe),
    ("sub", ReassocClass::ReassocSafe),
    ("mul", ReassocClass::ReassocSafe),
    ("div", ReassocClass::ReassocSafe),
    ("scale", ReassocClass::ReassocSafe),
    ("add_scalar", ReassocClass::ReassocSafe),
    ("add_const", ReassocClass::ReassocSafe),
    ("mul_const", ReassocClass::ReassocSafe),
    ("exp", ReassocClass::ReassocSafe),
    ("log", ReassocClass::ReassocSafe),
    ("sqrt", ReassocClass::ReassocSafe),
    ("square", ReassocClass::ReassocSafe),
    ("relu", ReassocClass::ReassocSafe),
    ("gelu", ReassocClass::ReassocSafe),
    ("tanh", ReassocClass::ReassocSafe),
    ("sigmoid", ReassocClass::ReassocSafe),
    ("clamp", ReassocClass::ReassocSafe),
    // Data movement: copies only.
    ("reshape", ReassocClass::ReassocSafe),
    ("transpose_last2", ReassocClass::ReassocSafe),
    ("permute", ReassocClass::ReassocSafe),
    ("concat", ReassocClass::ReassocSafe),
    ("slice_axis", ReassocClass::ReassocSafe),
    ("index_select_rows", ReassocClass::ReassocSafe),
    // Reductions: strict single-chain accumulation, order is contractual.
    ("matmul", ReassocClass::FixedOrder),
    ("matmul_transb", ReassocClass::FixedOrder),
    ("matmul_transa", ReassocClass::FixedOrder),
    ("sum_all", ReassocClass::FixedOrder),
    ("mean_all", ReassocClass::FixedOrder),
    ("sum_axis", ReassocClass::FixedOrder),
    ("softmax_last", ReassocClass::FixedOrder),
    ("log_softmax_last", ReassocClass::FixedOrder),
    ("cross_entropy", ReassocClass::FixedOrder),
    // Per-segment score dot products, softmax folds and context chains.
    ("seg_attention", ReassocClass::FixedOrder),
];

/// Looks up an op's declared class; `None` means the op is unregistered
/// (which the determinism audit treats as a failure).
pub fn reassoc_class(op: &str) -> Option<ReassocClass> {
    CLASSIFIED_OPS
        .iter()
        .find(|(name, _)| *name == op)
        .map(|(_, c)| *c)
}

/// How a SIMD kernel vectorises an op, relative to the scalar reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdPath {
    /// One vector lane carries one output element's full strict-order
    /// accumulation chain (vectorised *across* outputs, never across the
    /// reduction axis; separate mul/add, no FMA). Bitwise-identical to
    /// scalar — legal for any class, and the only path legal for
    /// [`ReassocClass::FixedOrder`] ops.
    OrderPreserving,
    /// Wide accumulators that reassociate the reduction. Only legal for
    /// [`ReassocClass::ReassocSafe`] ops.
    Reassociating,
}

impl std::fmt::Display for SimdPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimdPath::OrderPreserving => write!(f, "order-preserving"),
            SimdPath::Reassociating => write!(f, "reassociating"),
        }
    }
}

/// Every tape op that has a SIMD kernel (`crate::simd`), with the path
/// shape that kernel uses. The determinism audit enforces two invariants
/// over this table: every listed op must also appear in
/// [`CLASSIFIED_OPS`], and a `FixedOrder` op may only use an
/// [`SimdPath::OrderPreserving`] path. An op that gains a SIMD kernel
/// without being declared here (and classified there) fails `msgc check`.
pub const SIMD_OPS: &[(&str, SimdPath)] = &[
    // GEMM family: the 4×8 stripe kernel and the dense axpy row vectorise
    // across output columns; each lane is one scalar accumulation chain.
    ("matmul", SimdPath::OrderPreserving),
    ("matmul_transb", SimdPath::OrderPreserving),
    ("matmul_transa", SimdPath::OrderPreserving),
    // Same-shape elementwise fast path: lane-pure, no reduction at all.
    ("add", SimdPath::OrderPreserving),
    ("sub", SimdPath::OrderPreserving),
    ("mul", SimdPath::OrderPreserving),
    ("div", SimdPath::OrderPreserving),
];

/// Looks up an op's declared SIMD path; `None` means the op has no SIMD
/// kernel (scalar-only, which is always legal).
pub fn simd_path(op: &str) -> Option<SimdPath> {
    SIMD_OPS
        .iter()
        .find(|(name, _)| *name == op)
        .map(|(_, p)| *p)
}

/// True when the op's kernel accumulates across elements (max/sum style
/// folds or dot-product chains). Every such op must be
/// [`ReassocClass::FixedOrder`]; the audit cross-checks this against
/// [`reassoc_class`] so a misclassified reduction cannot slip through.
pub fn is_reduction(op: &str) -> bool {
    matches!(
        op,
        "matmul"
            | "matmul_transb"
            | "matmul_transa"
            | "sum_all"
            | "mean_all"
            | "sum_axis"
            | "softmax_last"
            | "log_softmax_last"
            | "cross_entropy"
            | "seg_attention"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_reduction_is_fixed_order() {
        for (op, class) in CLASSIFIED_OPS {
            if is_reduction(op) {
                assert_eq!(*class, ReassocClass::FixedOrder, "reduction op {op}");
            }
        }
    }

    #[test]
    fn every_reduction_is_classified() {
        for op in [
            "matmul",
            "matmul_transb",
            "matmul_transa",
            "sum_all",
            "mean_all",
            "sum_axis",
            "softmax_last",
            "log_softmax_last",
            "cross_entropy",
            "seg_attention",
        ] {
            assert!(is_reduction(op));
            assert_eq!(reassoc_class(op), Some(ReassocClass::FixedOrder));
        }
    }

    #[test]
    fn unknown_op_is_unclassified() {
        assert_eq!(reassoc_class("warp_reduce"), None);
    }

    #[test]
    fn table_has_no_duplicates() {
        for (i, (a, _)) in CLASSIFIED_OPS.iter().enumerate() {
            assert!(
                !CLASSIFIED_OPS[i + 1..].iter().any(|(b, _)| a == b),
                "duplicate op {a}"
            );
        }
    }

    #[test]
    fn every_simd_op_is_classified() {
        for (op, path) in SIMD_OPS {
            let class = reassoc_class(op);
            assert!(class.is_some(), "SIMD op {op} missing from CLASSIFIED_OPS");
            if class == Some(ReassocClass::FixedOrder) {
                assert_eq!(
                    *path,
                    SimdPath::OrderPreserving,
                    "FixedOrder op {op} must keep a lane-order-preserving SIMD path"
                );
            }
        }
    }

    #[test]
    fn simd_table_has_no_duplicates() {
        for (i, (a, _)) in SIMD_OPS.iter().enumerate() {
            assert!(
                !SIMD_OPS[i + 1..].iter().any(|(b, _)| a == b),
                "duplicate SIMD op {a}"
            );
        }
    }
}

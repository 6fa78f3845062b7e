//! Finite-difference gradient checking (a numerical oracle for every
//! autograd op) and the runtime numeric sanitizer behind
//! `TrainConfig.sanitize`.

use crate::{GradientSet, Graph, ParamRef};

/// Compares analytic gradients against central finite differences.
///
/// `f` rebuilds the scalar loss from scratch on the supplied graph (it is
/// called many times with perturbed parameter values). Returns the maximum
/// relative error observed across all parameter elements.
///
/// The relative error for element `i` is
/// `|analytic − numeric| / max(1, |analytic|, |numeric|)`.
pub fn max_grad_rel_error(params: &[ParamRef], eps: f32, f: impl Fn(&Graph) -> crate::Var) -> f32 {
    // Analytic pass.
    for p in params {
        p.borrow_mut().zero_grad();
    }
    let g = Graph::new();
    let loss = f(&g);
    loss.backward();
    let analytic: Vec<Vec<f32>> = params
        .iter()
        .map(|p| p.borrow().grad.data().to_vec())
        .collect();

    let mut max_err = 0.0f32;
    for (pi, p) in params.iter().enumerate() {
        let n = p.borrow().value.numel();
        // An index loop is the natural shape here: each step perturbs the
        // parameter buffer at `i` and re-runs the closure.
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            let orig = p.borrow().value.data()[i];
            p.borrow_mut().value.data_mut()[i] = orig + eps;
            let plus = f(&Graph::new()).item();
            p.borrow_mut().value.data_mut()[i] = orig - eps;
            let minus = f(&Graph::new()).item();
            p.borrow_mut().value.data_mut()[i] = orig;
            let numeric = (plus - minus) / (2.0 * eps);
            let a = analytic[pi][i];
            let denom = 1.0f32.max(a.abs()).max(numeric.abs());
            let err = (a - numeric).abs() / denom;
            if err > max_err {
                max_err = err;
            }
        }
    }
    max_err
}

/// Asserts that gradients of `f` match finite differences to within `tol`.
///
/// Panics with a diagnostic message otherwise. A good default is
/// `eps = 1e-2, tol = 1e-2` for f32.
pub fn assert_grads_close(
    params: &[ParamRef],
    eps: f32,
    tol: f32,
    f: impl Fn(&Graph) -> crate::Var,
) {
    let err = max_grad_rel_error(params, eps, f);
    assert!(
        err <= tol,
        "max gradient relative error {err} exceeds tolerance {tol}"
    );
}

// ---------------------------------------------------------------------------
// Numeric sanitizer
// ---------------------------------------------------------------------------

/// What the sanitizer found wrong with one tensor.
#[derive(Debug, Clone, PartialEq)]
pub enum NumericIssueKind {
    /// At least one element is NaN.
    NaN,
    /// At least one element is ±∞ (and none is NaN).
    Inf,
    /// All elements finite, but the Frobenius norm exceeds the limit.
    ExplodingNorm {
        /// The observed norm.
        norm: f32,
        /// The configured limit.
        limit: f32,
    },
}

impl std::fmt::Display for NumericIssueKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NumericIssueKind::NaN => write!(f, "NaN"),
            NumericIssueKind::Inf => write!(f, "Inf"),
            NumericIssueKind::ExplodingNorm { norm, limit } => {
                write!(f, "exploding norm {norm:.3e} > {limit:.3e}")
            }
        }
    }
}

/// One sanitizer finding, with per-op blame.
#[derive(Debug, Clone)]
pub struct NumericIssue {
    /// Tape id of the offending node (`usize::MAX` for gradient findings
    /// that have no tape node).
    pub node: usize,
    /// Op name of the offending node, or `"grad"` for gradient findings.
    pub op: &'static str,
    /// Shape of the offending tensor.
    pub dims: Vec<usize>,
    /// Parameter name, when the tensor belongs to a parameter leaf or a
    /// collected parameter gradient.
    pub param: Option<String>,
    /// What was wrong.
    pub kind: NumericIssueKind,
}

impl std::fmt::Display for NumericIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.kind)?;
        if self.node == usize::MAX {
            write!(f, " in gradient")?;
        } else {
            write!(f, " in op `{}` (node {})", self.op, self.node)?;
        }
        if let Some(p) = &self.param {
            write!(f, " for parameter `{p}`")?;
        }
        write!(f, ", shape {:?}", self.dims)
    }
}

fn classify(t: &tensor::Tensor, norm_limit: f32) -> Option<NumericIssueKind> {
    if t.has_non_finite() {
        let has_nan = t.data().iter().any(|x| x.is_nan());
        return Some(if has_nan {
            NumericIssueKind::NaN
        } else {
            NumericIssueKind::Inf
        });
    }
    let norm = t.norm();
    if norm > norm_limit {
        return Some(NumericIssueKind::ExplodingNorm {
            norm,
            limit: norm_limit,
        });
    }
    None
}

/// Ops that inject constants into the tape. Additive attention masks and
/// false-negative masks use them to write −1e9 into padded/self slots, so
/// huge finite magnitudes at (and downstream of) these ops are by
/// construction, not divergence.
const MASK_INJECTING_OPS: &[&str] = &["add_const", "mul_const"];

/// Ops with intrinsically bounded outputs: they wash out inherited mask
/// magnitudes, so the exploding-norm ceiling applies again downstream.
const BOUNDED_OPS: &[&str] = &["softmax_last", "sigmoid", "tanh", "cross_entropy"];

/// Scans every activation on the tape for NaN/Inf/exploding norms.
///
/// Returns one issue per offending node, in tape order, each blaming the op
/// that produced the value. An empty result means the forward pass is
/// numerically healthy.
///
/// NaN/Inf are flagged unconditionally. The exploding-norm ceiling skips
/// values tainted by mask constants: a node is tainted if it is a
/// mask-injecting op (`add_const`, `mul_const`) or any input is tainted,
/// until a bounded op (`softmax_last`, `sigmoid`, `tanh`, `cross_entropy`)
/// clears the taint. Masked attention logits therefore never
/// false-positive, while genuine pre-Inf divergence elsewhere on the tape
/// is still caught.
pub fn scan_graph(g: &Graph, norm_limit: f32) -> Vec<NumericIssue> {
    let inner = g.inner.borrow();
    let mut tainted = vec![false; inner.nodes.len()];
    inner
        .nodes
        .iter()
        .enumerate()
        .filter_map(|(id, n)| {
            tainted[id] = if BOUNDED_OPS.contains(&n.op) {
                false
            } else {
                MASK_INJECTING_OPS.contains(&n.op) || n.inputs.iter().any(|&i| tainted[i])
            };
            let limit = if tainted[id] {
                f32::INFINITY
            } else {
                norm_limit
            };
            classify(&n.value, limit).map(|kind| NumericIssue {
                node: id,
                op: n.op,
                dims: n.value.dims().to_vec(),
                param: n.param.as_ref().map(|p| p.borrow().name.clone()),
                kind,
            })
        })
        .collect()
}

/// Scans collected parameter gradients for NaN/Inf/exploding norms,
/// blaming each finding on its parameter by name.
pub fn scan_gradients(set: &GradientSet, norm_limit: f32) -> Vec<NumericIssue> {
    set.iter()
        .filter_map(|(p, grad)| {
            classify(grad, norm_limit).map(|kind| NumericIssue {
                node: usize::MAX,
                op: "grad",
                dims: grad.dims().to_vec(),
                param: Some(p.borrow().name.clone()),
                kind,
            })
        })
        .collect()
}

#[cfg(test)]
mod sanitizer_tests {
    use super::*;
    use crate::Parameter;
    use tensor::Tensor;

    #[test]
    fn clean_graph_has_no_issues() {
        let p = Parameter::shared("w", Tensor::ones(vec![2]));
        let g = Graph::new();
        let loss = g.param(&p).square().sum_all();
        let set = g.backward_collect(&loss);
        assert!(scan_graph(&g, 1e4).is_empty());
        assert!(scan_gradients(&set, 1e4).is_empty());
    }

    #[test]
    fn nan_blamed_on_producing_op() {
        let g = Graph::new();
        let x = g.constant(Tensor::from_vec(vec![-1.0, 4.0], vec![2]));
        let bad = x.log(); // log(-1) = NaN
        let issues = scan_graph(&g, 1e4);
        assert_eq!(issues.len(), 1);
        assert_eq!(issues[0].node, bad.node_id());
        assert_eq!(issues[0].op, "log");
        assert_eq!(issues[0].kind, NumericIssueKind::NaN);
        assert!(issues[0].to_string().contains("op `log`"));
    }

    #[test]
    fn inf_and_norm_limits_detected() {
        let g = Graph::new();
        let x = g.constant(Tensor::from_vec(vec![1000.0], vec![1]));
        let _ = x.exp(); // overflows to +inf
        let issues = scan_graph(&g, 1e4);
        assert!(issues
            .iter()
            .any(|i| i.op == "exp" && i.kind == NumericIssueKind::Inf));

        let g2 = Graph::new();
        let _ = g2.constant(Tensor::full(vec![4], 100.0));
        let issues = scan_graph(&g2, 10.0);
        assert!(matches!(
            issues[0].kind,
            NumericIssueKind::ExplodingNorm { .. }
        ));
    }

    #[test]
    fn gradient_issues_name_the_parameter() {
        let p = Parameter::shared("theta", Tensor::from_vec(vec![0.0], vec![1]));
        let g = Graph::new();
        // d/dx log(x) at 0 = inf.
        let loss = g.param(&p).log().sum_all();
        let set = g.backward_collect(&loss);
        let issues = scan_gradients(&set, 1e4);
        assert_eq!(issues.len(), 1);
        assert_eq!(issues[0].param.as_deref(), Some("theta"));
    }
}

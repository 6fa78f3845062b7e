//! The cost/liveness pass: prices a captured tape in FLOPs and bytes and
//! predicts the peak live memory of one forward+backward step, entirely
//! from the recorded [`autograd::NodeInfo`] metadata — no kernel runs.
//!
//! The model mirrors the runtime's actual retention behaviour:
//!
//! * **Tape residency** — `GraphInner` keeps every node's output tensor
//!   alive until the graph drops, and `Graph::param` *clones* parameter
//!   values onto the tape, so the forward's floor is the sum of all node
//!   output bytes ([`CostReport::tape_bytes`]).
//! * **Closure captures** — every differentiable op also moves tensor
//!   clones into its backward closure (a matmul retains both operands, an
//!   `exp` its output, ...); [`autograd::capture_bytes`] declares each
//!   op's retention and the pass sums it over nodes that require grad
//!   ([`CostReport::closure_bytes`]).
//! * **Backward liveness** — `backward_with` walks ids in reverse,
//!   allocates a node's adjoint at its first deposit, and frees it
//!   (`recycle`) right after the node is processed. The pass replays that
//!   schedule over the reachable subgraph and records the high-water mark
//!   ([`CostReport::backward_peak_bytes`]).
//! * **Closure transients** — a backward closure may hold short-lived
//!   temporaries (and accumulate-case gradients) on top of the deposit
//!   schedule; the pass budgets a per-node allowance of twice the node's
//!   input+output bytes and keeps the maximum
//!   ([`CostReport::transient_bytes`]).
//!
//! The headline [`CostReport::predicted_peak_bytes`] is the sum of those
//! terms plus the persistent parameter-gradient buffers; the
//! `peak_alloc` integration test pins it against a counting global
//! allocator (`measured <= predicted <= slack * measured`).
//!
//! A tape whose recorded shapes disagree with its own shape signatures
//! cannot be priced honestly; such nodes are reported as
//! [`CostDiagnostic`]s and fail the audit.

use autograd::{NodeInfo, ShapeSig};
use tensor::pool;

use crate::flow::reachable_from;

/// Per-node transient allowance multiplier (see module docs).
const TRANSIENT_FACTOR: u64 = 2;

/// One size class of tensors the [`tensor::pool`] would cache, with how
/// many tape allocations fall into it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolClass {
    /// Capacity of the class in elements: every member's length rounds up
    /// to it ([`pool::class_len`]).
    pub numel: usize,
    /// Tape nodes in this class — each is one pooled allocation per step.
    pub allocations: usize,
}

impl PoolClass {
    /// Steady-state allocations the pool cannot absorb for this class:
    /// anything beyond [`pool::PER_CLASS_CAP`] recycled buffers falls
    /// through to the system allocator every step.
    pub fn overflow(&self) -> usize {
        self.allocations.saturating_sub(pool::PER_CLASS_CAP)
    }

    /// Bytes the class's free list holds at its steady state, before the
    /// pool-wide [`pool::RETAINED_BYTES`] budget.
    pub fn retained_bytes(&self) -> u64 {
        (self.allocations.min(pool::PER_CLASS_CAP) * self.numel * 4) as u64
    }
}

/// One reason the tape could not be priced.
#[derive(Debug, Clone)]
pub struct CostDiagnostic {
    /// Tape id of the offending node.
    pub node: usize,
    /// Op name of the offending node.
    pub op: &'static str,
    /// What disagreed.
    pub message: String,
}

impl std::fmt::Display for CostDiagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "op `{}` (node {}): {}", self.op, self.node, self.message)
    }
}

/// The cost pass's findings for one traced stage.
#[derive(Debug, Clone)]
pub struct CostReport {
    /// Total floating-point operations of the forward pass (FMA = 2).
    pub flops: u64,
    /// Bytes resident on the tape itself (every node's output, leaves
    /// included — parameters are cloned onto the tape).
    pub tape_bytes: u64,
    /// Tensor bytes retained inside backward closures (operand/output
    /// clones of differentiable nodes; see [`autograd::capture_bytes`]).
    pub closure_bytes: u64,
    /// High-water mark of backward adjoints under the real deposit/free
    /// schedule.
    pub backward_peak_bytes: u64,
    /// Persistent gradient buffers of reachable trainable parameters.
    pub param_grad_bytes: u64,
    /// Largest per-node closure-transient allowance (see module docs).
    pub transient_bytes: u64,
    /// Predicted peak live bytes of one forward+backward step.
    pub predicted_peak_bytes: u64,
    /// Pool size classes this tape exercises (numel >=
    /// [`pool::MIN_POOLED_LEN`]), descending by capacity.
    pub pool_classes: Vec<PoolClass>,
    /// Bytes the pool holds once the step's buffers are recycled: the
    /// classes' retained bytes, capped by [`pool::RETAINED_BYTES`].
    pub pool_retained_bytes: u64,
    /// Nodes that could not be priced (recorded/inferred disagreement).
    pub diagnostics: Vec<CostDiagnostic>,
}

impl CostReport {
    /// True when every node priced cleanly.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

fn numel(dims: &[usize]) -> u64 {
    dims.iter().product::<usize>() as u64
}

/// Prices a tape snapshot and predicts the peak live bytes of one
/// forward+backward step rooted at `loss`.
pub fn analyze(nodes: &[NodeInfo], loss: usize) -> CostReport {
    let mut flops = 0u64;
    let mut tape_bytes = 0u64;
    let mut closure_bytes = 0u64;
    let mut transient_bytes = 0u64;
    let mut diagnostics = Vec::new();
    let mut class_counts: Vec<(usize, usize)> = Vec::new(); // (numel, count)

    for n in nodes {
        let in_dims: Vec<&[usize]> = n.inputs.iter().map(|&i| nodes[i].dims.as_slice()).collect();
        // A tape whose recorded shapes disagree with its own signatures
        // would be priced off fiction; refuse and report instead.
        match n.sig.infer(&in_dims) {
            Ok(Some(inferred)) if inferred != n.dims => diagnostics.push(CostDiagnostic {
                node: n.id,
                op: n.op,
                message: format!(
                    "refusing to price: signature infers {inferred:?} but the \
                     recorded output shape is {:?}",
                    n.dims
                ),
            }),
            Err(e) => diagnostics.push(CostDiagnostic {
                node: n.id,
                op: n.op,
                message: format!("refusing to price: shape rule rejected the inputs: {e}"),
            }),
            Ok(_) => {}
        }
        let bytes = ShapeSig::out_bytes(&n.dims);
        flops += n.sig.flops(&in_dims, &n.dims);
        tape_bytes += bytes;
        // Closures (and their captures) only survive recording when the
        // node requires grad.
        if n.requires_grad && !matches!(n.sig, ShapeSig::Leaf) {
            match autograd::capture_bytes(n.op, &n.sig, &in_dims, &n.dims) {
                Some(b) => closure_bytes += b,
                None => diagnostics.push(CostDiagnostic {
                    node: n.id,
                    op: n.op,
                    message: "refusing to price: op has no declared closure-capture \
                              model (autograd::capture_bytes)"
                        .into(),
                }),
            }
        }
        if !matches!(n.sig, ShapeSig::Leaf) {
            let in_bytes: u64 = in_dims.iter().map(|d| numel(d) * 4).sum();
            transient_bytes = transient_bytes.max(TRANSIENT_FACTOR * (bytes + in_bytes));
        }
        let ne = numel(&n.dims) as usize;
        if ne >= pool::MIN_POOLED_LEN {
            let ne = pool::class_len(ne);
            match class_counts.iter_mut().find(|(c, _)| *c == ne) {
                Some((_, count)) => *count += 1,
                None => class_counts.push((ne, 1)),
            }
        }
    }

    let (backward_peak_bytes, param_grad_bytes) = simulate_backward(nodes, loss);
    let predicted_peak_bytes =
        tape_bytes + closure_bytes + backward_peak_bytes + param_grad_bytes + transient_bytes;

    class_counts.sort_by_key(|c| std::cmp::Reverse(c.0));
    let pool_classes: Vec<PoolClass> = class_counts
        .into_iter()
        .map(|(numel, allocations)| PoolClass { numel, allocations })
        .collect();
    let pool_retained_bytes = pool_classes
        .iter()
        .map(PoolClass::retained_bytes)
        .sum::<u64>()
        .min(pool::RETAINED_BYTES as u64);
    CostReport {
        flops,
        tape_bytes,
        closure_bytes,
        backward_peak_bytes,
        param_grad_bytes,
        transient_bytes,
        predicted_peak_bytes,
        pool_classes,
        pool_retained_bytes,
        diagnostics,
    }
}

/// Replays the backward pass's allocation schedule: adjoints allocate at
/// first deposit and free right after their node is processed; gradients
/// of trainable parameter leaves land in persistent buffers instead.
///
/// Returns `(adjoint high-water bytes, persistent param-grad bytes)`.
fn simulate_backward(nodes: &[NodeInfo], loss: usize) -> (u64, u64) {
    let visited = reachable_from(nodes, loss);
    if !visited.get(loss).copied().unwrap_or(false) {
        return (0, 0);
    }
    let bytes = |id: usize| ShapeSig::out_bytes(&nodes[id].dims);
    let mut allocated = vec![false; nodes.len()];
    let mut param_grad = 0u64;
    // Seed: d loss / d loss.
    allocated[loss] = true;
    let mut live = bytes(loss);
    let mut peak = live;
    for id in (0..=loss).rev() {
        if !visited[id] || !allocated[id] {
            continue;
        }
        if matches!(nodes[id].sig, ShapeSig::Leaf) {
            if nodes[id].param.as_ref().is_some_and(|p| p.trainable) {
                param_grad += bytes(id);
            }
        } else {
            // The closure deposits one gradient per differentiable input;
            // first deposits allocate, later ones accumulate in place.
            for &j in &nodes[id].inputs {
                if visited[j] && !allocated[j] {
                    allocated[j] = true;
                    live += bytes(j);
                }
            }
            peak = peak.max(live);
        }
        // `grad.recycle()` (or the deposit hand-off) frees this adjoint.
        live -= bytes(id);
    }
    (peak, param_grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use autograd::{Graph, Parameter};
    use tensor::Tensor;

    #[test]
    fn linear_chain_is_priced_exactly() {
        let g = Graph::new();
        let a = g.constant(Tensor::ones(vec![4, 8]));
        let b = g.constant(Tensor::ones(vec![8, 16]));
        let loss = a.matmul(&b).relu().sum_all();
        let snap = g.snapshot();
        let r = analyze(&snap, loss.node_id());
        assert!(r.is_clean());
        // matmul 2*4*16*8 + relu 4*16 + sum 4*16
        assert_eq!(r.flops, 2 * 4 * 16 * 8 + 64 + 64);
        // two leaves + matmul + relu + scalar sum, 4 bytes each element
        assert_eq!(r.tape_bytes, (32 + 128 + 64 + 64 + 1) * 4);
        // constants require no grad, so no closure survives recording
        assert_eq!(r.closure_bytes, 0);
        assert!(r.predicted_peak_bytes > r.tape_bytes);
    }

    #[test]
    fn backward_peak_tracks_the_deposit_schedule() {
        let w = Parameter::shared("w", Tensor::ones(vec![8, 8]));
        let g = Graph::new();
        let x = g.constant(Tensor::ones(vec![8, 8]));
        let loss = g.param(&w).matmul(&x).sum_all();
        let snap = g.snapshot();
        let r = analyze(&snap, loss.node_id());
        // Trainable w: its gradient is a persistent 8x8 buffer.
        assert_eq!(r.param_grad_bytes, 8 * 8 * 4);
        // Adjoints: scalar seed + matmul adjoint live together at peak.
        assert!(r.backward_peak_bytes >= 8 * 8 * 4);
        // The matmul closure retains clones of both operands.
        assert_eq!(r.closure_bytes, 2 * 8 * 8 * 4);
    }

    #[test]
    fn segmented_attention_is_priced_on_its_kept_weights() {
        // Segments of 3 and 2 rows, 2 heads of width 2, causal: each head
        // keeps 3·4/2 + 2·3/2 = 9 weights, 18 in all.
        let segs = tensor::Segments::new(vec![0, 3, 5], true);
        let w = Parameter::shared("w", Tensor::ones(vec![5, 4]));
        let g = Graph::new();
        let x = g.param(&w);
        let keep = Tensor::ones(vec![18]);
        let att = x.seg_attention(&x, &x, &segs, 2, Some(&keep));
        let loss = att.sum_all();
        let snap = g.snapshot();
        let r = analyze(&snap, loss.node_id());
        assert!(r.is_clean());
        // 18 weights × (2·2 + 2·2 + 1), plus the sum over 20 outputs.
        assert_eq!(r.flops, 18 * 9 + 20);
        // Q, K, V (20 floats each), the 18 weights and the 18-entry mask.
        assert_eq!(r.closure_bytes, (3 * 20 + 18 + 18) * 4);
    }

    #[test]
    fn unreachable_loss_prices_no_backward() {
        let g = Graph::new();
        let x = g.constant(Tensor::ones(vec![4]));
        let loss = x.sum_all(); // no grad path: constants are frozen
        let r = analyze(&g.snapshot(), loss.node_id());
        assert_eq!(r.backward_peak_bytes, 0);
        assert_eq!(r.param_grad_bytes, 0);
    }

    #[test]
    fn inconsistent_shapes_refuse_to_price() {
        let g = Graph::new();
        let a = g.constant(Tensor::ones(vec![2, 3]));
        let b = g.constant(Tensor::ones(vec![3, 4]));
        let m = a.matmul(&b);
        let loss = m.sum_all();
        let mut snap = g.snapshot();
        snap[m.node_id()].dims = vec![2, 9];
        let r = analyze(&snap, loss.node_id());
        assert!(!r.is_clean());
        assert_eq!(r.diagnostics[0].op, "matmul");
    }

    #[test]
    fn pool_classes_count_only_poolable_sizes() {
        let g = Graph::new();
        let big = pool::MIN_POOLED_LEN;
        let a = g.constant(Tensor::ones(vec![big]));
        let b = g.constant(Tensor::ones(vec![big]));
        let small = g.constant(Tensor::ones(vec![4]));
        let _ = a.add(&b);
        let _ = small.square();
        let r = analyze(&g.snapshot(), 0);
        assert_eq!(r.pool_classes.len(), 1);
        assert_eq!(r.pool_classes[0].numel, big);
        assert_eq!(r.pool_classes[0].allocations, 3);
        assert_eq!(r.pool_classes[0].overflow(), 0);
        assert_eq!(r.pool_retained_bytes, 3 * big as u64 * 4);
    }

    #[test]
    fn nearby_lengths_share_a_pool_class() {
        let g = Graph::new();
        // 1100 and 1200 both round up to the 1280-element class; 1300
        // rounds to 1536.
        for len in [1100, 1200, 1300] {
            let _ = g.constant(Tensor::ones(vec![len]));
        }
        let r = analyze(&g.snapshot(), 0);
        let classes: Vec<(usize, usize)> = r
            .pool_classes
            .iter()
            .map(|c| (c.numel, c.allocations))
            .collect();
        assert_eq!(classes, vec![(1536, 1), (1280, 2)]);
    }
}

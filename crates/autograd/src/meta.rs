//! Op metadata for static analysis of recorded tapes.
//!
//! Every op pushed onto a [`Graph`] records, next to its value and adjoint,
//! a declarative [`ShapeSig`] plus the tape ids of its inputs. A recorded
//! tape can then be exported with [`Graph::snapshot`] as a list of
//! [`NodeInfo`]s — a pure-data view with no closures — and analysed without
//! re-executing the forward pass:
//!
//! * the *shape-inference pass* re-derives every node's output shape from
//!   its inputs' shapes via [`ShapeSig::infer`] (backed by the shared
//!   [`tensor::rules`] module) and compares against what the kernel actually
//!   produced;
//! * the *gradient-flow pass* walks the `inputs` edges in reverse from a
//!   loss head, mirroring the traversal of the backward pass, to classify
//!   parameters as reached / frozen / dead.

use tensor::{Result, TensorError};

use crate::graph::{Graph, Var};

/// Declarative shape signature of a tape op: how its output shape is
/// derived from its input shapes.
///
/// Signatures carry only *static* op attributes (axes, target dims,
/// constant shapes) — never data — so shape inference needs no tensors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShapeSig {
    /// A leaf (constant or parameter): its shape is given, not derived.
    Leaf,
    /// Output shape equals the (sole) input's shape.
    Elementwise,
    /// NumPy-style broadcast of the two inputs.
    Broadcast,
    /// Broadcast of the sole input with a constant of the recorded dims
    /// (`add_const` / `mul_const` — the constant is not a tape node).
    BroadcastWith(Vec<usize>),
    /// Matrix product; see [`tensor::rules::matmul`] for supported ranks.
    Matmul,
    /// Fused `A·Bᵀ`; see [`tensor::rules::matmul_transb`] for supported
    /// ranks.
    MatmulTransB,
    /// Fused `Aᵀ·B`; see [`tensor::rules::matmul_transa`] for supported
    /// ranks.
    MatmulTransA,
    /// Scalar (rank-0) output regardless of input shape.
    Scalar,
    /// Reduction along one axis.
    Reduce {
        /// The reduced axis.
        axis: usize,
        /// Whether the reduced axis is kept with size 1.
        keepdim: bool,
    },
    /// Reshape to the recorded dims (element count must match).
    Reshape(Vec<usize>),
    /// Swap of the last two axes.
    TransposeLast2,
    /// Axis reordering by the recorded permutation.
    Permute(Vec<usize>),
    /// Concatenation of all inputs along an axis.
    Concat {
        /// The concatenation axis.
        axis: usize,
    },
    /// Slice `[start, end)` along an axis.
    SliceAxis {
        /// The sliced axis.
        axis: usize,
        /// Start of the slice (inclusive).
        start: usize,
        /// End of the slice (exclusive).
        end: usize,
    },
    /// Row gather from a rank-2 table, selecting `count` rows.
    GatherRows {
        /// Number of selected rows.
        count: usize,
    },
    /// Segmented attention over packed `[R, d]` query, key and value rows
    /// (see [`tensor::segment`]); the output has the query's shape.
    SegAttention {
        /// Attention heads (column groups of the rows).
        heads: usize,
        /// Attention weights over every segment and head.
        cells: usize,
        /// Whether a dropout keep-mask (one entry per weight) rides along.
        masked: bool,
    },
}

impl ShapeSig {
    /// Infers the output shape from the input shapes.
    ///
    /// Returns `Ok(None)` for [`ShapeSig::Leaf`] (a leaf's shape is an
    /// input to inference, not a result of it). Errors are the same
    /// structured [`TensorError`]s the runtime kernels produce for the
    /// corresponding invalid shapes.
    pub fn infer(&self, inputs: &[&[usize]]) -> Result<Option<Vec<usize>>> {
        use tensor::rules;
        let sole = |op: &'static str| -> Result<&[usize]> {
            inputs.first().copied().ok_or(TensorError::ShapeMismatch {
                op,
                lhs: Vec::new(),
                rhs: Vec::new(),
            })
        };
        let pair = |op: &'static str| -> Result<(&[usize], &[usize])> {
            match inputs {
                [a, b] => Ok((a, b)),
                _ => Err(TensorError::ShapeMismatch {
                    op,
                    lhs: inputs.first().map(|d| d.to_vec()).unwrap_or_default(),
                    rhs: Vec::new(),
                }),
            }
        };
        match self {
            ShapeSig::Leaf => Ok(None),
            ShapeSig::Elementwise => Ok(Some(sole("elementwise")?.to_vec())),
            ShapeSig::Broadcast => {
                let (a, b) = pair("broadcast")?;
                rules::broadcast("broadcast", a, b).map(Some)
            }
            ShapeSig::BroadcastWith(c) => {
                rules::broadcast("broadcast_const", sole("broadcast_const")?, c).map(Some)
            }
            ShapeSig::Matmul => {
                let (a, b) = pair("matmul")?;
                rules::matmul(a, b).map(Some)
            }
            ShapeSig::MatmulTransB => {
                let (a, b) = pair("matmul_transb")?;
                rules::matmul_transb(a, b).map(Some)
            }
            ShapeSig::MatmulTransA => {
                let (a, b) = pair("matmul_transa")?;
                rules::matmul_transa(a, b).map(Some)
            }
            ShapeSig::Scalar => Ok(Some(Vec::new())),
            ShapeSig::Reduce { axis, keepdim } => {
                rules::reduce_axis(sole("reduce")?, *axis, *keepdim).map(Some)
            }
            ShapeSig::Reshape(dims) => rules::reshape(sole("reshape")?, dims).map(Some),
            ShapeSig::TransposeLast2 => rules::transpose_last2(sole("transpose_last2")?).map(Some),
            ShapeSig::Permute(perm) => rules::permute(sole("permute")?, perm).map(Some),
            ShapeSig::Concat { axis } => rules::concat(inputs, *axis).map(Some),
            ShapeSig::SliceAxis { axis, start, end } => {
                rules::slice_axis(sole("slice_axis")?, *axis, *start, *end).map(Some)
            }
            ShapeSig::GatherRows { count } => {
                rules::gather_rows(sole("gather_rows")?, *count).map(Some)
            }
            ShapeSig::SegAttention { heads, .. } => rules::seg_attention(inputs, *heads).map(Some),
        }
    }
}

impl ShapeSig {
    /// Estimated floating-point operations to produce `out` from `inputs`
    /// (a fused multiply-add counts as 2 FLOPs, the HPC convention).
    ///
    /// The estimate is *signature-driven*: matmul families charge
    /// `2·(output elements)·k`, reductions and scalar heads charge one op
    /// per reduced input element, elementwise/broadcast ops charge one op
    /// per output element, and pure data movement (reshape, permute,
    /// slice, concat, gather) charges zero — copies move bytes, covered by
    /// [`ShapeSig::out_bytes`], not arithmetic.
    pub fn flops(&self, inputs: &[&[usize]], out: &[usize]) -> u64 {
        let numel = |d: &[usize]| d.iter().product::<usize>() as u64;
        let in_numel = |i: usize| inputs.get(i).map_or(0, |d| numel(d));
        match self {
            ShapeSig::Leaf => 0,
            ShapeSig::Elementwise | ShapeSig::Broadcast | ShapeSig::BroadcastWith(_) => numel(out),
            // k is the contracted dimension: the last axis of A for NN/NT
            // layouts, the first axis of A for the TN layout.
            ShapeSig::Matmul | ShapeSig::MatmulTransB => {
                let k = inputs.first().and_then(|a| a.last()).copied().unwrap_or(0) as u64;
                2 * numel(out) * k
            }
            ShapeSig::MatmulTransA => {
                let k = inputs.first().and_then(|a| a.first()).copied().unwrap_or(0) as u64;
                2 * numel(out) * k
            }
            // Per weight: a `d_h` dot product for the score and a `d_h`
            // multiply-add into the context (2 FLOPs each), plus one op
            // for the softmax, as an elementwise op charges.
            ShapeSig::SegAttention { heads, cells, .. } => {
                let dh = out.get(1).map_or(0, |d| d / heads.max(&1)) as u64;
                *cells as u64 * (4 * dh + 1)
            }
            // Global/axis reductions and the fused loss heads touch every
            // input element once.
            ShapeSig::Scalar | ShapeSig::Reduce { .. } => in_numel(0),
            ShapeSig::Reshape(_)
            | ShapeSig::TransposeLast2
            | ShapeSig::Permute(_)
            | ShapeSig::Concat { .. }
            | ShapeSig::SliceAxis { .. }
            | ShapeSig::GatherRows { .. } => 0,
        }
    }

    /// Bytes of the output buffer a kernel with this signature allocates
    /// for the recorded output shape (`f32` storage).
    pub fn out_bytes(out: &[usize]) -> u64 {
        out.iter().product::<usize>() as u64 * std::mem::size_of::<f32>() as u64
    }
}

/// Bytes a node's backward closure *retains* for the lifetime of the tape
/// (beyond the output buffer itself): the tensor clones each `Var` op
/// moves into its adjoint closure. `None` means the op has no declared
/// capture model — the cost pass refuses to price such a tape.
///
/// This table is contractual with the closures in the `ops_*` modules:
/// change what an op captures and this entry must change with it (the
/// `peak_alloc` counting-allocator test pins the sum against reality).
/// Captures only exist when the node requires grad — recording drops the
/// closure (and its captures) otherwise.
pub fn capture_bytes(op: &str, sig: &ShapeSig, inputs: &[&[usize]], out: &[usize]) -> Option<u64> {
    let bytes = |d: &[usize]| ShapeSig::out_bytes(d);
    let in0 = inputs.first().map_or(0, |d| bytes(d));
    let in1 = inputs.get(1).map_or(0, |d| bytes(d));
    Some(match op {
        // Leaves, gradient markers, pass-through adjoints, data movement,
        // and plain sums capture shapes only (usize vectors, not priced).
        "constant" | "param" | "detach" | "add" | "sub" | "scale" | "add_scalar" | "add_const"
        | "reshape" | "transpose_last2" | "permute" | "concat" | "slice_axis"
        | "index_select_rows" | "sum_all" | "mean_all" | "sum_axis" => 0,
        // Product rules keep both operand values.
        "mul" | "matmul" | "matmul_transb" | "matmul_transa" => in0 + in1,
        // The quotient rule keeps both operands plus the output.
        "div" => in0 + in1 + bytes(out),
        // Output-form derivatives keep a clone of the output.
        "exp" | "sqrt" | "tanh" | "sigmoid" | "softmax_last" | "log_softmax_last" => bytes(out),
        // Input-form derivatives keep a clone of the input; the fused
        // cross-entropy keeps the softmax probabilities (input-shaped).
        "log" | "square" | "relu" | "gelu" | "clamp" | "cross_entropy" => in0,
        // The masked product keeps its constant operand (shape in the sig).
        "mul_const" => match sig {
            ShapeSig::BroadcastWith(c) => bytes(c),
            _ => return None,
        },
        // Segmented attention keeps its three operands, its weights and,
        // with dropout, the keep-mask over them.
        "seg_attention" => match sig {
            ShapeSig::SegAttention { cells, masked, .. } => {
                3 * in0 + bytes(&[*cells]) * (1 + u64::from(*masked))
            }
            _ => return None,
        },
        _ => return None,
    })
}

/// Identity of a parameter leaf in a [`NodeInfo`].
#[derive(Debug, Clone)]
pub struct ParamInfo {
    /// The parameter's human-readable name.
    pub name: String,
    /// Stable identity key ([`crate::ParamRef::key`]) for cross-referencing
    /// with a model's parameter list.
    pub key: usize,
    /// Whether the parameter was entered as trainable (`requires_grad`)
    /// when this tape was recorded.
    pub trainable: bool,
}

/// A closure-free view of one tape node, exported by [`Graph::snapshot`].
#[derive(Debug, Clone)]
pub struct NodeInfo {
    /// Tape id (position on the tape; inputs always have smaller ids).
    pub id: usize,
    /// Op name, e.g. `"matmul"` — the provenance label in diagnostics.
    pub op: &'static str,
    /// Declarative shape signature.
    pub sig: ShapeSig,
    /// Tape ids of the op's inputs (empty for leaves).
    pub inputs: Vec<usize>,
    /// The shape the kernel actually produced at record time.
    pub dims: Vec<usize>,
    /// Whether gradients flow through this node.
    pub requires_grad: bool,
    /// Set when this node is a parameter leaf (trainable *or* frozen).
    pub param: Option<ParamInfo>,
}

impl Graph {
    /// Exports the tape as pure data for static analysis.
    ///
    /// The returned list is topologically ordered (a node's inputs precede
    /// it) and contains no closures or tensor payloads beyond the recorded
    /// output shapes, so it can be moved across threads and inspected long
    /// after the graph itself is dropped.
    pub fn snapshot(&self) -> Vec<NodeInfo> {
        let inner = self.inner.borrow();
        inner
            .nodes
            .iter()
            .enumerate()
            .map(|(id, n)| NodeInfo {
                id,
                op: n.op,
                sig: n.sig.clone(),
                inputs: n.inputs.clone(),
                dims: n.value.dims().to_vec(),
                requires_grad: n.requires_grad,
                param: n.param.as_ref().map(|p| {
                    let pb = p.borrow();
                    ParamInfo {
                        name: pb.name.clone(),
                        key: p.key(),
                        trainable: pb.trainable,
                    }
                }),
            })
            .collect()
    }
}

impl Var {
    /// The tape id of this var's node, for cross-referencing with
    /// [`Graph::snapshot`] output (e.g. naming a loss head).
    pub fn node_id(&self) -> usize {
        self.id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Parameter;
    use tensor::Tensor;

    #[test]
    fn snapshot_records_ops_inputs_and_shapes() {
        let p = Parameter::shared("w", Tensor::ones(vec![3, 2]));
        let g = Graph::new();
        let x = g.constant(Tensor::ones(vec![4, 3]));
        let w = g.param(&p);
        let y = x.matmul(&w);
        let loss = y.sum_all();

        let snap = g.snapshot();
        assert_eq!(snap.len(), 4);
        assert_eq!(snap[0].op, "constant");
        assert_eq!(snap[1].op, "param");
        assert_eq!(snap[1].param.as_ref().map(|p| p.name.as_str()), Some("w"));
        assert_eq!(snap[2].op, "matmul");
        assert_eq!(snap[2].inputs, vec![x.node_id(), w.node_id()]);
        assert_eq!(snap[2].dims, vec![4, 2]);
        assert_eq!(snap[3].op, "sum_all");
        assert_eq!(snap[3].inputs, vec![y.node_id()]);
        assert_eq!(loss.node_id(), 3);
    }

    #[test]
    fn frozen_param_still_carries_provenance() {
        let p = Parameter::shared("frozen", Tensor::ones(vec![2]));
        p.borrow_mut().trainable = false;
        let g = Graph::new();
        let v = g.param(&p);
        assert!(!v.requires_grad());
        let snap = g.snapshot();
        let info = snap[0].param.as_ref().expect("param provenance recorded");
        assert_eq!(info.name, "frozen");
        assert!(!info.trainable);
        assert_eq!(info.key, p.key());
    }

    #[test]
    fn inference_matches_recorded_shapes() {
        let g = Graph::new();
        let a = g.constant(Tensor::ones(vec![2, 3, 4]));
        let b = g.constant(Tensor::ones(vec![4, 5]));
        let c = a.matmul(&b).relu().sum_axis(1, false);
        let _ = c.reshape(vec![10]).mean_all();

        for info in g.snapshot() {
            let snap = g.snapshot();
            let in_dims: Vec<&[usize]> = info
                .inputs
                .iter()
                .map(|&i| snap[i].dims.as_slice())
                .collect();
            if let Some(inferred) = info.sig.infer(&in_dims).expect("rule applies") {
                assert_eq!(inferred, info.dims, "op {}", info.op);
            }
        }
    }

    #[test]
    fn detach_records_edge_but_blocks_grad() {
        let p = Parameter::shared("p", Tensor::scalar(1.0));
        let g = Graph::new();
        let v = g.param(&p).detach();
        let snap = g.snapshot();
        assert_eq!(snap[v.node_id()].op, "detach");
        assert_eq!(snap[v.node_id()].inputs, vec![0]);
        assert!(!snap[v.node_id()].requires_grad);
    }
}

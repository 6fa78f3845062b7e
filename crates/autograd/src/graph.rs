//! The tape: [`Graph`], [`Var`], [`Parameter`], and the backward pass.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use tensor::bug::OrBug;
use tensor::Tensor;

use crate::accum::GradientSet;
use crate::meta::ShapeSig;

/// A trainable tensor with an accumulated gradient.
///
/// Parameters outlive graphs: a model owns `ParamRef`s, every training step
/// enters them into a fresh [`Graph`] via [`Graph::param`], and after
/// `backward` the gradient sits in [`Parameter::grad`] ready for an
/// optimizer.
#[derive(Debug)]
pub struct Parameter {
    /// Human-readable name (used in optimizer state and debugging).
    pub name: String,
    /// Current value.
    pub value: Tensor,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Tensor,
    /// When false, [`Graph::param`] enters this parameter as a constant and
    /// no gradient is accumulated. Used by the meta-optimized second stage
    /// to freeze `Enc_μ`, `Enc_σ` and the decoder.
    pub trainable: bool,
}

/// Shared, thread-safe handle to a [`Parameter`].
///
/// Internally `Arc<RwLock<Parameter>>`, so models holding `ParamRef`s are
/// `Send + Sync` and the data-parallel executor can run forward/backward on
/// shards from worker threads. The accessors keep the `borrow`/`borrow_mut`
/// names from the earlier `Rc<RefCell<_>>` representation so call sites read
/// the same; they panic if the lock is poisoned (a worker panicked mid-write),
/// which is already a fatal state for training.
#[derive(Debug, Clone)]
pub struct ParamRef(Arc<RwLock<Parameter>>);

impl ParamRef {
    /// Wraps a parameter in a shared handle.
    pub fn new(p: Parameter) -> ParamRef {
        ParamRef(Arc::new(RwLock::new(p)))
    }

    /// Read access. Multiple simultaneous reads are fine; blocks on a writer.
    pub fn borrow(&self) -> RwLockReadGuard<'_, Parameter> {
        self.0.read().or_bug("parameter lock poisoned")
    }

    /// Exclusive write access.
    pub fn borrow_mut(&self) -> RwLockWriteGuard<'_, Parameter> {
        self.0.write().or_bug("parameter lock poisoned")
    }

    /// True if both handles refer to the same parameter allocation.
    pub fn ptr_eq(a: &ParamRef, b: &ParamRef) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// Stable identity key for this allocation, usable in hash maps.
    pub fn key(&self) -> usize {
        Arc::as_ptr(&self.0) as usize
    }
}

impl Parameter {
    /// Creates a parameter with a zeroed gradient.
    pub fn new(name: impl Into<String>, value: Tensor) -> Parameter {
        let grad = Tensor::zeros(value.dims().to_vec());
        Parameter {
            name: name.into(),
            value,
            grad,
            trainable: true,
        }
    }

    /// Creates a shared [`ParamRef`] parameter.
    pub fn shared(name: impl Into<String>, value: Tensor) -> ParamRef {
        ParamRef::new(Parameter::new(name, value))
    }

    /// Zeroes the accumulated gradient in place.
    pub fn zero_grad(&mut self) {
        self.grad.zero_();
    }
}

/// Gradient sink passed to backward closures: `sink(parent_id, grad)`.
pub(crate) type GradSink<'a> = dyn FnMut(usize, Tensor) + 'a;

/// Adjoint function of one tape node.
pub(crate) type BackFn = Box<dyn Fn(&Tensor, &mut GradSink)>;

pub(crate) struct Node {
    pub value: Tensor,
    pub requires_grad: bool,
    /// None for leaves (constants and parameters).
    pub backward: Option<BackFn>,
    /// Set for parameter leaves — trainable *or* frozen — so static
    /// analysis can attribute the leaf to its parameter. The backward pass
    /// only deposits into it when `requires_grad` is true.
    pub param: Option<ParamRef>,
    /// Op name for diagnostics (e.g. `"matmul"`).
    pub op: &'static str,
    /// Declarative shape signature (see [`crate::meta::ShapeSig`]).
    pub sig: ShapeSig,
    /// Tape ids of this op's inputs (empty for leaves).
    pub inputs: Vec<usize>,
}

#[derive(Default)]
pub(crate) struct GraphInner {
    pub nodes: Vec<Node>,
}

impl Drop for GraphInner {
    fn drop(&mut self) {
        // A graph is dropped at the end of every training step; its node
        // values are exactly the activation buffers the next step will
        // allocate again, so hand them to the tensor pool instead of the
        // system allocator.
        for node in self.nodes.drain(..) {
            tensor::pool::recycle(node.value.into_vec());
        }
    }
}

/// A dynamic computation graph (tape).
///
/// Cheap to clone (shared `Rc`); create one per training step.
#[derive(Clone, Default)]
pub struct Graph {
    pub(crate) inner: Rc<RefCell<GraphInner>>,
}

/// A handle to a node in a [`Graph`].
///
/// `Var` is `Clone` and cheap to copy around; all tensor ops are methods on
/// `Var` (see the `ops_*` modules) and panic on shape errors, which are
/// programming bugs in model code.
#[derive(Clone)]
pub struct Var {
    pub(crate) graph: Graph,
    pub(crate) id: usize,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Graph {
        Graph::default()
    }

    /// Number of nodes currently on the tape.
    pub fn len(&self) -> usize {
        self.inner.borrow().nodes.len()
    }

    /// True if the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn push(&self, node: Node) -> Var {
        let mut inner = self.inner.borrow_mut();
        let id = inner.nodes.len();
        inner.nodes.push(node);
        Var {
            graph: self.clone(),
            id,
        }
    }

    /// Enters a tensor as a non-differentiable leaf.
    pub fn constant(&self, value: Tensor) -> Var {
        self.push(Node {
            value,
            requires_grad: false,
            backward: None,
            param: None,
            op: "constant",
            sig: ShapeSig::Leaf,
            inputs: Vec::new(),
        })
    }

    /// Enters a parameter as a leaf. If the parameter is trainable its
    /// gradient is accumulated by [`Var::backward`]; otherwise it behaves as
    /// a constant (the freezing mechanism for the meta stage). Either way
    /// the node keeps a handle to the parameter so static analysis can
    /// distinguish *frozen* parameters from plain constants.
    pub fn param(&self, p: &ParamRef) -> Var {
        let (value, trainable) = {
            let pb = p.borrow();
            (pb.value.clone(), pb.trainable)
        };
        self.push(Node {
            value,
            requires_grad: trainable,
            backward: None,
            param: Some(p.clone()),
            op: "param",
            sig: ShapeSig::Leaf,
            inputs: Vec::new(),
        })
    }

    /// Runs the backward pass from `root` (which must be a scalar), seeding
    /// `d root / d root = 1`, and deposits gradients into trainable
    /// parameter leaves.
    pub fn backward_from(&self, root: &Var) {
        self.backward_with(root, &mut |p, grad| {
            p.borrow_mut().grad.add_assign(&grad);
            grad.recycle();
        });
    }

    /// Like [`Graph::backward_from`], but instead of writing into the shared
    /// [`Parameter::grad`] buffers, collects the gradients into a local
    /// [`GradientSet`]. This is the primitive behind data-parallel training:
    /// each shard runs `backward_collect` on its own tape without touching
    /// shared state, and the coordinator merges the per-shard sets in a fixed
    /// order (see [`GradientSet::merge_scaled`]).
    pub fn backward_collect(&self, root: &Var) -> GradientSet {
        let mut set = GradientSet::new();
        self.backward_with(root, &mut |p, grad| {
            set.accumulate(p, &grad, 1.0);
            grad.recycle();
        });
        set
    }

    /// Backward-pass core: walks the tape in reverse and hands each trainable
    /// parameter leaf's gradient to `deposit`.
    ///
    /// Telemetry: counts backward invocations and traversed tape nodes
    /// (deterministic — the tape a shard builds is a pure function of its
    /// slice of the batch), and records wall time into a nondeterministic
    /// histogram. The clock is only read when telemetry is enabled.
    fn backward_with(&self, root: &Var, deposit: &mut dyn FnMut(&ParamRef, Tensor)) {
        use std::sync::OnceLock;
        static CALLS: OnceLock<&'static telemetry::Counter> = OnceLock::new();
        static NODES: OnceLock<&'static telemetry::Counter> = OnceLock::new();
        static WALL: OnceLock<&'static telemetry::Histogram> = OnceLock::new();
        let timer = if telemetry::enabled() {
            Some(std::time::Instant::now())
        } else {
            None
        };

        let inner = self.inner.borrow();
        let n = inner.nodes.len();
        CALLS
            .get_or_init(|| telemetry::metrics::counter("autograd.backward.calls", true))
            .inc();
        NODES
            .get_or_init(|| telemetry::metrics::counter("autograd.tape.nodes", true))
            .add((root.id + 1) as u64);
        assert!(root.id < n);
        assert_eq!(
            inner.nodes[root.id].value.numel(),
            1,
            "backward() root must be a scalar, got shape {:?}",
            inner.nodes[root.id].value.dims()
        );
        let mut grads: Vec<Option<Tensor>> = (0..n).map(|_| None).collect();
        let seed_dims = inner.nodes[root.id].value.dims().to_vec();
        grads[root.id] = Some(Tensor::ones(seed_dims));

        for id in (0..=root.id).rev() {
            let node = &inner.nodes[id];
            if !node.requires_grad {
                grads[id] = None;
                continue;
            }
            let Some(grad) = grads[id].take() else {
                continue;
            };
            if let Some(back) = &node.backward {
                // Split borrow: the sink writes only to ids < id because
                // parents always precede children on the tape.
                let (lo, _hi) = grads.split_at_mut(id);
                let mut sink = |pid: usize, g: Tensor| {
                    debug_assert!(pid < id, "parent id {pid} >= node id {id}");
                    if !inner.nodes[pid].requires_grad {
                        return;
                    }
                    match &mut lo[pid] {
                        Some(acc) => acc.add_assign(&g),
                        slot @ None => *slot = Some(g),
                    }
                };
                back(&grad, &mut sink);
                // This node's upstream gradient is fully consumed; recycle
                // its storage for the sink's downstream allocations.
                grad.recycle();
            } else if let Some(p) = &node.param {
                deposit(p, grad);
            }
        }
        if let Some(t) = timer {
            WALL.get_or_init(|| telemetry::metrics::histogram("autograd.backward.wall_ns", false))
                .record(t.elapsed().as_nanos() as u64);
        }
    }
}

impl Var {
    /// The node's current value (cloned).
    pub fn value(&self) -> Tensor {
        self.graph.inner.borrow().nodes[self.id].value.clone()
    }

    /// Runs `f` on the node's value without cloning.
    pub fn with_value<R>(&self, f: impl FnOnce(&Tensor) -> R) -> R {
        f(&self.graph.inner.borrow().nodes[self.id].value)
    }

    /// Shape of the node's value.
    pub fn dims(&self) -> Vec<usize> {
        self.with_value(|t| t.dims().to_vec())
    }

    /// Whether gradients flow through this node.
    pub fn requires_grad(&self) -> bool {
        self.graph.inner.borrow().nodes[self.id].requires_grad
    }

    /// Scalar value of a one-element node.
    pub fn item(&self) -> f32 {
        self.with_value(|t| t.item())
    }

    /// Backpropagates from this (scalar) node; see [`Graph::backward_from`].
    pub fn backward(&self) {
        self.graph.backward_from(self);
    }

    /// Backpropagates from this (scalar) node into a local [`GradientSet`]
    /// instead of the shared parameter gradients; see
    /// [`Graph::backward_collect`].
    pub fn backward_collect(&self) -> GradientSet {
        self.graph.backward_collect(self)
    }

    /// Detaches the value from the tape: returns a leaf-like node with the
    /// same value on the same graph. Gradients do not flow past it, but the
    /// edge to the source node is recorded so static analysis can see
    /// *where* the flow was cut.
    pub fn detach(&self) -> Var {
        let v = self.value();
        self.graph.push(Node {
            value: v,
            requires_grad: false,
            backward: None,
            param: None,
            op: "detach",
            sig: ShapeSig::Elementwise,
            inputs: vec![self.id],
        })
    }

    pub(crate) fn unary(
        &self,
        op: &'static str,
        sig: ShapeSig,
        value: Tensor,
        back: impl Fn(&Tensor, &mut GradSink) + 'static,
    ) -> Var {
        let requires = self.requires_grad();
        self.graph.push(Node {
            value,
            requires_grad: requires,
            backward: if requires { Some(Box::new(back)) } else { None },
            param: None,
            op,
            sig,
            inputs: vec![self.id],
        })
    }

    pub(crate) fn binary(
        &self,
        other: &Var,
        op: &'static str,
        sig: ShapeSig,
        value: Tensor,
        back: impl Fn(&Tensor, &mut GradSink) + 'static,
    ) -> Var {
        assert!(
            Rc::ptr_eq(&self.graph.inner, &other.graph.inner),
            "vars belong to different graphs"
        );
        let requires = self.requires_grad() || other.requires_grad();
        self.graph.push(Node {
            value,
            requires_grad: requires,
            backward: if requires { Some(Box::new(back)) } else { None },
            param: None,
            op,
            sig,
            inputs: vec![self.id, other.id],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_has_no_grad() {
        let g = Graph::new();
        let c = g.constant(Tensor::ones(vec![2]));
        assert!(!c.requires_grad());
        assert_eq!(c.dims(), vec![2]);
    }

    #[test]
    fn param_leaf_accumulates_identity_grad() {
        let p = Parameter::shared("p", Tensor::scalar(3.0));
        let g = Graph::new();
        let v = g.param(&p);
        v.backward();
        assert_eq!(p.borrow().grad.item(), 1.0);
        // Backward again on a fresh graph accumulates.
        let g2 = Graph::new();
        g2.param(&p).backward();
        assert_eq!(p.borrow().grad.item(), 2.0);
    }

    #[test]
    fn frozen_param_is_constant() {
        let p = Parameter::shared("p", Tensor::scalar(3.0));
        p.borrow_mut().trainable = false;
        let g = Graph::new();
        let v = g.param(&p);
        assert!(!v.requires_grad());
        v.backward();
        assert_eq!(p.borrow().grad.item(), 0.0);
    }

    #[test]
    #[should_panic(expected = "must be a scalar")]
    fn backward_requires_scalar_root() {
        let p = Parameter::shared("p", Tensor::ones(vec![2]));
        let g = Graph::new();
        g.param(&p).backward();
    }

    #[test]
    fn detach_blocks_gradient() {
        let p = Parameter::shared("p", Tensor::scalar(3.0));
        let g = Graph::new();
        let v = g.param(&p).detach();
        assert!(!v.requires_grad());
    }
}

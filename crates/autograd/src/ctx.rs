//! One op set, two execution contexts.
//!
//! Model code is written once against [`Ctx`]. The *recording* context is
//! the [`Graph`]: every op pushes the same tape node the matching [`Var`]
//! method pushes, in the same order. The *eager* context [`Eager`] runs the
//! same ops on plain [`Tensor`]s: no tape, no per-call weight clones.
//! Training records; serving and stage 2's frozen prefix run eagerly.
//!
//! Both contexts read the same weights: the shared [`ParamRef`]s a module
//! owns. The recording context enters a weight as a tape leaf; the eager
//! context holds its read lock for the one kernel call that reads it
//! (an uncontended read plus release costs about 16 ns).
//!
//! # Bitwise parity
//!
//! Each eager op computes its value with the same `tensor::ops` function
//! or `Tensor::map` closure as the matching `Var` op (weight reads
//! included), and composites ([`Ctx::mean_axis`]) compose identically on
//! both sides. So a forward gives the same bits under either context on
//! the same weights. `tests/ctx_props.rs` checks every op.

use tensor::bug::OrBug;
use tensor::segment::{self, Segments};
use tensor::{ops, Tensor};

use crate::graph::{Graph, ParamRef, Var};
use crate::ops_basic::{gelu, sigmoid};

/// An execution context: the op set every module forward is written in.
///
/// Shape errors are programming errors and panic in both contexts.
pub trait Ctx {
    /// The value type ops consume and produce.
    type V: Value<Ctx = Self>;

    /// Enters a tensor as a non-differentiable value.
    fn constant(&self, t: Tensor) -> Self::V;
    /// Rows `indices` of a weight matrix (embedding lookup).
    fn gather(&self, table: &ParamRef, indices: &[usize]) -> Self::V;
    /// `x · W`.
    fn matmul_w(&self, x: &Self::V, w: &ParamRef) -> Self::V;
    /// `x · Wᵀ` (tied-table scoring).
    fn matmul_transb_w(&self, x: &Self::V, w: &ParamRef) -> Self::V;
    /// `x + b`, broadcasting a weight vector.
    fn add_w(&self, x: &Self::V, b: &ParamRef) -> Self::V;
    /// `x ⊙ g`, broadcasting a weight vector.
    fn mul_w(&self, x: &Self::V, g: &ParamRef) -> Self::V;

    /// Shape of a value.
    fn dims(&self, x: &Self::V) -> Vec<usize>;
    /// Broadcasting `a + b`.
    fn add(&self, a: &Self::V, b: &Self::V) -> Self::V;
    /// Broadcasting `a − b`.
    fn sub(&self, a: &Self::V, b: &Self::V) -> Self::V;
    /// Broadcasting `a ⊙ b`.
    fn mul(&self, a: &Self::V, b: &Self::V) -> Self::V;
    /// Broadcasting `a / b`.
    fn div(&self, a: &Self::V, b: &Self::V) -> Self::V;
    /// Broadcasting `a + c` for a constant tensor (additive masks).
    fn add_const(&self, a: &Self::V, c: &Tensor) -> Self::V;
    /// Broadcasting `a ⊙ c` for a constant tensor (multiplicative masks).
    fn mul_const(&self, a: &Self::V, c: &Tensor) -> Self::V;
    /// `a · c`.
    fn scale(&self, a: &Self::V, c: f32) -> Self::V;
    /// `a + c`.
    fn add_scalar(&self, a: &Self::V, c: f32) -> Self::V;
    /// Elementwise square.
    fn square(&self, a: &Self::V) -> Self::V;
    /// Elementwise square root.
    fn sqrt(&self, a: &Self::V) -> Self::V;
    /// Elementwise ReLU.
    fn relu(&self, a: &Self::V) -> Self::V;
    /// Elementwise GELU (tanh approximation).
    fn gelu(&self, a: &Self::V) -> Self::V;
    /// Elementwise logistic sigmoid.
    fn sigmoid(&self, a: &Self::V) -> Self::V;
    /// Elementwise hyperbolic tangent.
    fn tanh(&self, a: &Self::V) -> Self::V;
    /// Elementwise natural exponential.
    fn exp(&self, a: &Self::V) -> Self::V;
    /// Elementwise clamp to `[lo, hi]`.
    fn clamp(&self, a: &Self::V, lo: f32, hi: f32) -> Self::V;
    /// Sum along `axis`.
    fn sum_axis(&self, a: &Self::V, axis: usize, keepdim: bool) -> Self::V;
    /// Mean along `axis`: `sum_axis` then `scale`, as on the tape.
    fn mean_axis(&self, a: &Self::V, axis: usize, keepdim: bool) -> Self::V {
        let n = self.dims(a)[axis] as f32;
        self.scale(&self.sum_axis(a, axis, keepdim), 1.0 / n)
    }
    /// Softmax along the last axis.
    fn softmax_last(&self, a: &Self::V) -> Self::V;
    /// Matrix product of two values.
    fn matmul(&self, a: &Self::V, b: &Self::V) -> Self::V;
    /// `a · bᵀ` of two values.
    fn matmul_transb(&self, a: &Self::V, b: &Self::V) -> Self::V;
    /// Reshape to `dims` (same element count).
    fn reshape(&self, a: &Self::V, dims: Vec<usize>) -> Self::V;
    /// Reorders axes by `perm`.
    fn permute(&self, a: &Self::V, perm: &[usize]) -> Self::V;
    /// `[start, end)` along `axis`.
    fn slice_axis(&self, a: &Self::V, axis: usize, start: usize, end: usize) -> Self::V;
    /// Concatenation along `axis`.
    fn concat(&self, parts: &[&Self::V], axis: usize) -> Self::V;
    /// Rows `indices` of a rank-2 value.
    fn select_rows(&self, a: &Self::V, indices: &[usize]) -> Self::V;
    /// Multi-head attention inside each segment of packed `[R, d]` rows
    /// (see [`tensor::segment`]), with an optional dropout keep-mask over
    /// the attention weights.
    fn seg_attention(
        &self,
        q: &Self::V,
        k: &Self::V,
        v: &Self::V,
        segs: &Segments,
        heads: usize,
        keep: Option<&Tensor>,
    ) -> Self::V;
    /// The last rows of [`seg_attention`](Ctx::seg_attention) without
    /// dropout: `q: [b, d]` holds each segment's last query row (no segment
    /// is empty), `k, v: [R, d]` every row's keys and values; returns
    /// `[b, d]`. By default the other rows' queries are zero and their
    /// outputs dropped; the eager context attends the last rows only.
    fn seg_attention_last(
        &self,
        q: &Self::V,
        k: &Self::V,
        v: &Self::V,
        segs: &Segments,
        heads: usize,
    ) -> Self::V {
        let last = segs.last_rows();
        let mut from = vec![last.len(); segs.rows()];
        for (i, &r) in last.iter().enumerate() {
            from[r] = i;
        }
        let zero = self.constant(Tensor::zeros(vec![1, self.dims(q)[1]]));
        let q = self.select_rows(&self.concat(&[q, &zero], 0), &from);
        self.select_rows(&self.seg_attention(&q, k, v, segs, heads, None), &last)
    }
}

/// A value that knows its context, for helpers that take only values.
pub trait Value: Clone {
    /// The context this value belongs to.
    type Ctx: Ctx<V = Self>;
    /// A handle to that context.
    fn ctx(&self) -> Self::Ctx;
    /// This value on `g`'s tape: a recorded value is already there, an
    /// eager one enters as a constant.
    fn into_var(self, g: &Graph) -> Var;
}

impl Ctx for Graph {
    type V = Var;

    fn constant(&self, t: Tensor) -> Var {
        Graph::constant(self, t)
    }
    fn gather(&self, table: &ParamRef, indices: &[usize]) -> Var {
        self.param(table).index_select_rows(indices)
    }
    fn matmul_w(&self, x: &Var, w: &ParamRef) -> Var {
        x.matmul(&self.param(w))
    }
    fn matmul_transb_w(&self, x: &Var, w: &ParamRef) -> Var {
        x.matmul_transb(&self.param(w))
    }
    fn add_w(&self, x: &Var, b: &ParamRef) -> Var {
        x.add(&self.param(b))
    }
    fn mul_w(&self, x: &Var, g: &ParamRef) -> Var {
        x.mul(&self.param(g))
    }
    fn dims(&self, x: &Var) -> Vec<usize> {
        x.dims()
    }
    fn add(&self, a: &Var, b: &Var) -> Var {
        a.add(b)
    }
    fn sub(&self, a: &Var, b: &Var) -> Var {
        a.sub(b)
    }
    fn mul(&self, a: &Var, b: &Var) -> Var {
        a.mul(b)
    }
    fn div(&self, a: &Var, b: &Var) -> Var {
        a.div(b)
    }
    fn add_const(&self, a: &Var, c: &Tensor) -> Var {
        a.add_const(c)
    }
    fn mul_const(&self, a: &Var, c: &Tensor) -> Var {
        a.mul_const(c)
    }
    fn scale(&self, a: &Var, c: f32) -> Var {
        a.scale(c)
    }
    fn add_scalar(&self, a: &Var, c: f32) -> Var {
        a.add_scalar(c)
    }
    fn square(&self, a: &Var) -> Var {
        a.square()
    }
    fn sqrt(&self, a: &Var) -> Var {
        a.sqrt()
    }
    fn relu(&self, a: &Var) -> Var {
        a.relu()
    }
    fn gelu(&self, a: &Var) -> Var {
        a.gelu()
    }
    fn sigmoid(&self, a: &Var) -> Var {
        a.sigmoid()
    }
    fn tanh(&self, a: &Var) -> Var {
        a.tanh()
    }
    fn exp(&self, a: &Var) -> Var {
        a.exp()
    }
    fn clamp(&self, a: &Var, lo: f32, hi: f32) -> Var {
        a.clamp(lo, hi)
    }
    fn sum_axis(&self, a: &Var, axis: usize, keepdim: bool) -> Var {
        a.sum_axis(axis, keepdim)
    }
    fn softmax_last(&self, a: &Var) -> Var {
        a.softmax_last()
    }
    fn matmul(&self, a: &Var, b: &Var) -> Var {
        a.matmul(b)
    }
    fn matmul_transb(&self, a: &Var, b: &Var) -> Var {
        a.matmul_transb(b)
    }
    fn reshape(&self, a: &Var, dims: Vec<usize>) -> Var {
        a.reshape(dims)
    }
    fn permute(&self, a: &Var, perm: &[usize]) -> Var {
        a.permute(perm)
    }
    fn slice_axis(&self, a: &Var, axis: usize, start: usize, end: usize) -> Var {
        a.slice_axis(axis, start, end)
    }
    fn concat(&self, parts: &[&Var], axis: usize) -> Var {
        Var::concat(parts, axis)
    }
    fn select_rows(&self, a: &Var, indices: &[usize]) -> Var {
        a.index_select_rows(indices)
    }
    fn seg_attention(
        &self,
        q: &Var,
        k: &Var,
        v: &Var,
        segs: &Segments,
        heads: usize,
        keep: Option<&Tensor>,
    ) -> Var {
        q.seg_attention(k, v, segs, heads, keep)
    }
}

impl Value for Var {
    type Ctx = Graph;
    fn ctx(&self) -> Graph {
        self.graph.clone()
    }
    fn into_var(self, _g: &Graph) -> Var {
        self
    }
}

/// The eager context: ops run straight on [`Tensor`]s, each weight read
/// in place under its read lock.
#[derive(Debug, Clone, Copy, Default)]
pub struct Eager;

impl Ctx for Eager {
    type V = Tensor;

    fn constant(&self, t: Tensor) -> Tensor {
        t
    }
    fn gather(&self, table: &ParamRef, indices: &[usize]) -> Tensor {
        ops::index_select_rows(&table.borrow().value, indices).or_bug("gather")
    }
    fn matmul_w(&self, x: &Tensor, w: &ParamRef) -> Tensor {
        ops::matmul(x, &w.borrow().value).or_bug("matmul_w")
    }
    fn matmul_transb_w(&self, x: &Tensor, w: &ParamRef) -> Tensor {
        ops::matmul_transb(x, &w.borrow().value).or_bug("matmul_transb_w")
    }
    fn add_w(&self, x: &Tensor, b: &ParamRef) -> Tensor {
        ops::add(x, &b.borrow().value).or_bug("add_w")
    }
    fn mul_w(&self, x: &Tensor, g: &ParamRef) -> Tensor {
        ops::mul(x, &g.borrow().value).or_bug("mul_w")
    }
    fn dims(&self, x: &Tensor) -> Vec<usize> {
        x.dims().to_vec()
    }
    fn add(&self, a: &Tensor, b: &Tensor) -> Tensor {
        ops::add(a, b).or_bug("add")
    }
    fn sub(&self, a: &Tensor, b: &Tensor) -> Tensor {
        ops::sub(a, b).or_bug("sub")
    }
    fn mul(&self, a: &Tensor, b: &Tensor) -> Tensor {
        ops::mul(a, b).or_bug("mul")
    }
    fn div(&self, a: &Tensor, b: &Tensor) -> Tensor {
        ops::div(a, b).or_bug("div")
    }
    fn add_const(&self, a: &Tensor, c: &Tensor) -> Tensor {
        ops::add(a, c).or_bug("add_const")
    }
    fn mul_const(&self, a: &Tensor, c: &Tensor) -> Tensor {
        ops::mul(a, c).or_bug("mul_const")
    }
    fn scale(&self, a: &Tensor, c: f32) -> Tensor {
        a.map(|x| x * c)
    }
    fn add_scalar(&self, a: &Tensor, c: f32) -> Tensor {
        a.map(|x| x + c)
    }
    fn square(&self, a: &Tensor) -> Tensor {
        a.map(|x| x * x)
    }
    fn sqrt(&self, a: &Tensor) -> Tensor {
        a.map(f32::sqrt)
    }
    fn relu(&self, a: &Tensor) -> Tensor {
        a.map(|x| x.max(0.0))
    }
    fn gelu(&self, a: &Tensor) -> Tensor {
        a.map(gelu)
    }
    fn sigmoid(&self, a: &Tensor) -> Tensor {
        a.map(sigmoid)
    }
    fn tanh(&self, a: &Tensor) -> Tensor {
        a.map(f32::tanh)
    }
    fn exp(&self, a: &Tensor) -> Tensor {
        a.map(f32::exp)
    }
    fn clamp(&self, a: &Tensor, lo: f32, hi: f32) -> Tensor {
        a.map(|x| x.clamp(lo, hi))
    }
    fn sum_axis(&self, a: &Tensor, axis: usize, keepdim: bool) -> Tensor {
        ops::sum_axis(a, axis, keepdim).or_bug("sum_axis")
    }
    fn softmax_last(&self, a: &Tensor) -> Tensor {
        ops::softmax_last(a)
    }
    fn matmul(&self, a: &Tensor, b: &Tensor) -> Tensor {
        ops::matmul(a, b).or_bug("matmul")
    }
    fn matmul_transb(&self, a: &Tensor, b: &Tensor) -> Tensor {
        ops::matmul_transb(a, b).or_bug("matmul_transb")
    }
    fn reshape(&self, a: &Tensor, dims: Vec<usize>) -> Tensor {
        a.reshape(dims).or_bug("reshape")
    }
    fn permute(&self, a: &Tensor, perm: &[usize]) -> Tensor {
        ops::permute(a, perm).or_bug("permute")
    }
    fn slice_axis(&self, a: &Tensor, axis: usize, start: usize, end: usize) -> Tensor {
        ops::slice_axis(a, axis, start, end).or_bug("slice_axis")
    }
    fn concat(&self, parts: &[&Tensor], axis: usize) -> Tensor {
        ops::concat(parts, axis).or_bug("concat")
    }
    fn select_rows(&self, a: &Tensor, indices: &[usize]) -> Tensor {
        ops::index_select_rows(a, indices).or_bug("select_rows")
    }
    fn seg_attention(
        &self,
        q: &Tensor,
        k: &Tensor,
        v: &Tensor,
        segs: &Segments,
        heads: usize,
        keep: Option<&Tensor>,
    ) -> Tensor {
        let (out, probs) =
            segment::seg_attention(q, k, v, segs, heads, keep).or_bug("seg_attention");
        probs.recycle();
        out
    }
    fn seg_attention_last(
        &self,
        q: &Tensor,
        k: &Tensor,
        v: &Tensor,
        segs: &Segments,
        heads: usize,
    ) -> Tensor {
        let d = k.dim(1);
        let (kd, vd) = (k.data(), v.data());
        let kv: Vec<(&[f32], &[f32])> = segs
            .spans()
            .map(|(start, len)| {
                let rows = start * d..(start + len) * d;
                (&kd[rows.clone()], &vd[rows])
            })
            .collect();
        segment::append_attention(q, &kv, heads).or_bug("seg_attention_last")
    }
}

impl Value for Tensor {
    type Ctx = Eager;
    fn ctx(&self) -> Eager {
        Eager
    }
    fn into_var(self, g: &Graph) -> Var {
        g.constant(self)
    }
}

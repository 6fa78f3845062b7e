//! Serving storage and the incremental attention/GRU path.
//!
//! Every module runs its one forward under either execution context (see
//! [`autograd::ctx`]). [`Freeze`] snapshots a trained module's
//! [`Train`](autograd::Train) weights into [`Frozen`] storage, detached
//! from later training updates; the eager context then runs the same
//! forward over those weights with no tape and no locks. [`Quantize`]
//! re-encodes the frozen weight matrices for serving, and [`InferModule`]
//! reports their resident footprint.
//!
//! # Incremental attention state
//!
//! [`AttnKv`] caches per-head key/value rows so that extending a sequence
//! by one position costs one row of projections plus one attention row,
//! instead of a full re-encode. This is exact (not approximate) because
//! every GEMM output element in `tensor::ops` is a single strict k-order
//! accumulation chain starting at `+0.0`, independent of how many rows are
//! computed alongside it, and softmax/LayerNorm/elementwise ops are
//! row-independent. A causally-masked position therefore has a hidden
//! state that never changes as later positions are appended — provided
//! position indices are stable under append (left-aligned positions
//! `0..len`, no left padding). The incremental entry points below assume
//! exactly that convention; callers that need the training-time
//! left-padded convention must use the full forwards.

use autograd::{Eager, Frozen, ParamRef};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::bug::OrBug;
use tensor::{ops, QuantMatrix, QuantMode, Tensor};

use crate::{
    Embedding, FeedForward, Gru, LayerNorm, Linear, MultiHeadSelfAttention, TransformerEncoder,
    TransformerLayer,
};

/// Resident footprint of a frozen module.
pub trait InferModule {
    /// Resident bytes of this module's weight storage.
    fn weight_bytes(&self) -> usize;
}

/// In-place weight quantisation of a frozen module for serving.
///
/// Freezing always produces f32 storage (the bitwise-parity default);
/// `quantize` re-encodes each weight **matrix** to the requested mode.
/// Vectors that are cheap and precision-critical — biases, LayerNorm
/// gamma/beta — always stay f32. Quantising to [`QuantMode::F32`] is an
/// exact no-op, so the mode can be threaded unconditionally from config.
pub trait Quantize {
    /// Re-encodes this module's weight matrices to `mode`.
    fn quantize(&mut self, mode: QuantMode);
}

/// Conversion from the trained `ParamRef` storage into [`Frozen`] storage.
///
/// Freezing clones the current parameter values out of their locks; the
/// frozen module is fully detached from subsequent training updates.
pub trait Freeze {
    /// The frozen module type.
    type Frozen: InferModule;
    /// Snapshots current weights.
    fn freeze(&self) -> Self::Frozen;
}

/// Snapshot of a weight vector.
fn freeze_vec(p: &ParamRef) -> Tensor {
    p.borrow().value.clone()
}

/// Snapshot of a weight matrix, in f32 storage.
fn freeze_mat(p: &ParamRef) -> QuantMatrix {
    QuantMatrix::from_tensor(freeze_vec(p), QuantMode::F32).or_bug("weight matrix is rank 2")
}

/// The RNG the eager forwards take: dropout never draws from it at eval.
pub fn eval_rng() -> StdRng {
    StdRng::seed_from_u64(0)
}

impl Freeze for Linear {
    type Frozen = Linear<Frozen>;
    fn freeze(&self) -> Linear<Frozen> {
        Linear {
            weight: freeze_mat(&self.weight),
            bias: self.bias.as_ref().map(freeze_vec),
        }
    }
}

impl InferModule for Linear<Frozen> {
    fn weight_bytes(&self) -> usize {
        self.weight.resident_bytes() + self.bias.as_ref().map_or(0, |b| b.numel() * 4)
    }
}

impl Quantize for Linear<Frozen> {
    fn quantize(&mut self, mode: QuantMode) {
        self.weight.requantize(mode);
    }
}

impl Freeze for Embedding {
    type Frozen = Embedding<Frozen>;
    fn freeze(&self) -> Embedding<Frozen> {
        Embedding {
            table: freeze_mat(&self.table),
            vocab: self.vocab,
            dim: self.dim,
        }
    }
}

impl InferModule for Embedding<Frozen> {
    fn weight_bytes(&self) -> usize {
        self.table.resident_bytes()
    }
}

impl Quantize for Embedding<Frozen> {
    fn quantize(&mut self, mode: QuantMode) {
        self.table.requantize(mode);
    }
}

impl Embedding<Frozen> {
    /// The table in its stored encoding.
    pub fn table_q(&self) -> &QuantMatrix {
        &self.table
    }
}

impl Freeze for LayerNorm {
    type Frozen = LayerNorm<Frozen>;
    fn freeze(&self) -> LayerNorm<Frozen> {
        LayerNorm {
            gamma: freeze_vec(&self.gamma),
            beta: freeze_vec(&self.beta),
            eps: self.eps,
        }
    }
}

impl InferModule for LayerNorm<Frozen> {
    fn weight_bytes(&self) -> usize {
        (self.gamma.numel() + self.beta.numel()) * 4
    }
}

impl Freeze for FeedForward {
    type Frozen = FeedForward<Frozen>;
    fn freeze(&self) -> FeedForward<Frozen> {
        FeedForward {
            l1: self.l1.freeze(),
            l2: self.l2.freeze(),
            activation: self.activation,
            dropout: self.dropout,
        }
    }
}

impl InferModule for FeedForward<Frozen> {
    fn weight_bytes(&self) -> usize {
        self.l1.weight_bytes() + self.l2.weight_bytes()
    }
}

impl Quantize for FeedForward<Frozen> {
    fn quantize(&mut self, mode: QuantMode) {
        self.l1.quantize(mode);
        self.l2.quantize(mode);
    }
}

impl Freeze for MultiHeadSelfAttention {
    type Frozen = MultiHeadSelfAttention<Frozen>;
    fn freeze(&self) -> MultiHeadSelfAttention<Frozen> {
        MultiHeadSelfAttention {
            wq: self.wq.freeze(),
            wk: self.wk.freeze(),
            wv: self.wv.freeze(),
            wo: self.wo.freeze(),
            heads: self.heads,
            dim: self.dim,
            dropout: self.dropout,
        }
    }
}

impl InferModule for MultiHeadSelfAttention<Frozen> {
    fn weight_bytes(&self) -> usize {
        [&self.wq, &self.wk, &self.wv, &self.wo]
            .iter()
            .map(|l| l.weight_bytes())
            .sum()
    }
}

impl Quantize for MultiHeadSelfAttention<Frozen> {
    fn quantize(&mut self, mode: QuantMode) {
        for l in [&mut self.wq, &mut self.wk, &mut self.wv, &mut self.wo] {
            l.quantize(mode);
        }
    }
}

impl Freeze for TransformerLayer {
    type Frozen = TransformerLayer<Frozen>;
    fn freeze(&self) -> TransformerLayer<Frozen> {
        TransformerLayer {
            mha: self.mha.freeze(),
            ffn: self.ffn.freeze(),
            ln1: self.ln1.freeze(),
            ln2: self.ln2.freeze(),
            dropout: self.dropout,
        }
    }
}

impl InferModule for TransformerLayer<Frozen> {
    fn weight_bytes(&self) -> usize {
        self.mha.weight_bytes()
            + self.ffn.weight_bytes()
            + self.ln1.weight_bytes()
            + self.ln2.weight_bytes()
    }
}

impl Quantize for TransformerLayer<Frozen> {
    fn quantize(&mut self, mode: QuantMode) {
        // LayerNorm vectors stay f32 in every mode.
        self.mha.quantize(mode);
        self.ffn.quantize(mode);
    }
}

impl Freeze for TransformerEncoder {
    type Frozen = TransformerEncoder<Frozen>;
    fn freeze(&self) -> TransformerEncoder<Frozen> {
        TransformerEncoder {
            layers: self.layers.iter().map(Freeze::freeze).collect(),
        }
    }
}

impl InferModule for TransformerEncoder<Frozen> {
    fn weight_bytes(&self) -> usize {
        self.layers.iter().map(InferModule::weight_bytes).sum()
    }
}

impl Quantize for TransformerEncoder<Frozen> {
    fn quantize(&mut self, mode: QuantMode) {
        for layer in &mut self.layers {
            layer.quantize(mode);
        }
    }
}

impl Freeze for Gru {
    type Frozen = Gru<Frozen>;
    fn freeze(&self) -> Gru<Frozen> {
        Gru {
            wz: self.wz.freeze(),
            uz: self.uz.freeze(),
            wr: self.wr.freeze(),
            ur: self.ur.freeze(),
            wh: self.wh.freeze(),
            uh: self.uh.freeze(),
            dim: self.dim,
        }
    }
}

impl InferModule for Gru<Frozen> {
    fn weight_bytes(&self) -> usize {
        [&self.wz, &self.uz, &self.wr, &self.ur, &self.wh, &self.uh]
            .iter()
            .map(|l| l.weight_bytes())
            .sum()
    }
}

impl Quantize for Gru<Frozen> {
    fn quantize(&mut self, mode: QuantMode) {
        for l in [
            &mut self.wz,
            &mut self.uz,
            &mut self.wr,
            &mut self.ur,
            &mut self.wh,
            &mut self.uh,
        ] {
            l.quantize(mode);
        }
    }
}

// ---------------------------------------------------------------------------
// Incremental attention
// ---------------------------------------------------------------------------

/// Cached key/value rows for one attention block of one sequence.
///
/// Layout: per head, a flat row-major `[len, head_dim]` buffer. Rows are
/// append-only; cached rows are never recomputed (see the module-level
/// exactness argument).
pub struct AttnKv {
    k: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
    len: usize,
    /// The most positions the cache will hold. The first append grows
    /// each buffer to exactly this many rows, not to twice the rows it
    /// began with; `begin` does not reserve it, because a session that is
    /// never appended to would carry the unused rows.
    window: usize,
}

impl AttnKv {
    /// Empty cache for `heads` attention heads that will hold at most
    /// `window` positions.
    pub fn new(heads: usize, window: usize) -> Self {
        AttnKv {
            k: vec![Vec::new(); heads],
            v: vec![Vec::new(); heads],
            len: 0,
            window,
        }
    }

    /// Number of cached positions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no positions are cached.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Replaces the cache with one sequence's split-head keys and values
    /// (`[heads, n, head_dim]`).
    fn fill(&mut self, k: &Tensor, v: &Tensor) {
        let (heads, n) = (k.dim(0), k.dim(1));
        assert_eq!(heads, self.k.len(), "K/V collection is per-sequence");
        let span = k.numel() / heads;
        for h in 0..heads {
            self.k[h] = k.data()[h * span..(h + 1) * span].to_vec();
            self.v[h] = v.data()[h * span..(h + 1) * span].to_vec();
        }
        self.len = n;
    }
}

impl MultiHeadSelfAttention<Frozen> {
    /// Appends one position per sequence: `x: [b, dim]` holds the new
    /// position's input row for `b` independent sequences whose caches are
    /// `kvs`. Returns the new positions' outputs `[b, dim]`.
    ///
    /// Bitwise-identical to the last row of the full forward over the
    /// (causally masked, unpadded) sequence: the projections are
    /// row-independent GEMMs, the causal mask contributes exactly `+0.0` to
    /// the final row (mirrored below so `-0.0` scores normalize
    /// identically), and softmax/context are per-row chains.
    pub fn step_append(&self, x: &Tensor, kvs: &mut [&mut AttnKv]) -> Tensor {
        let b = x.dims()[0];
        debug_assert_eq!(kvs.len(), b);
        let dh = self.dim / self.heads;
        let q = self.wq.forward(&Eager, x);
        let k = self.wk.forward(&Eager, x);
        let v = self.wv.forward(&Eager, x);
        let scale = 1.0 / (dh as f32).sqrt();
        let mut ctx = Tensor::zeros(vec![b, self.dim]);
        for (bi, kv) in kvs.iter_mut().enumerate() {
            // A no-op once the buffers hold the window.
            let room = (kv.window.max(kv.len + 1) - kv.len) * dh;
            for h in 0..self.heads {
                let span = h * dh..(h + 1) * dh;
                kv.k[h].reserve_exact(room);
                kv.v[h].reserve_exact(room);
                kv.k[h].extend_from_slice(&k.row(bi)[span.clone()]);
                kv.v[h].extend_from_slice(&v.row(bi)[span.clone()]);
                let len = kv.k[h].len() / dh;
                let qt = Tensor::from_vec(q.row(bi)[span.clone()].to_vec(), vec![1, dh]);
                let kt = Tensor::from_vec(std::mem::take(&mut kv.k[h]), vec![len, dh]);
                let scores = ops::matmul_transb(&qt, &kt)
                    .or_bug("attn step scores")
                    .map(|s| s * scale)
                    // The causal-mask row for the newest position is all
                    // zeros; `s + 0.0` reproduces the full path's additive
                    // mask bit-for-bit (it maps -0.0 to +0.0).
                    .map(|s| s + 0.0);
                kv.k[h] = kt.into_vec();
                let attn = ops::softmax_last(&scores);
                let vt = Tensor::from_vec(std::mem::take(&mut kv.v[h]), vec![len, dh]);
                let c = ops::matmul(&attn, &vt).or_bug("attn step ctx");
                kv.v[h] = vt.into_vec();
                ctx.row_mut(bi)[span].copy_from_slice(c.row(0));
            }
            kv.len += 1;
        }
        self.wo.forward(&Eager, &ctx)
    }
}

/// Per-layer K/V caches for one sequence through a frozen encoder stack.
pub struct EncoderKv {
    layers: Vec<AttnKv>,
}

impl EncoderKv {
    /// Empty caches for an `n_layers`-deep stack with `heads` heads that
    /// will hold at most `window` positions.
    pub fn new(n_layers: usize, heads: usize, window: usize) -> Self {
        EncoderKv {
            layers: (0..n_layers).map(|_| AttnKv::new(heads, window)).collect(),
        }
    }

    /// Number of cached positions (0 when empty).
    pub fn len(&self) -> usize {
        self.layers.first().map_or(0, AttnKv::len)
    }

    /// True when no positions are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TransformerEncoder<Frozen> {
    /// Attention heads per layer (stacks are homogeneous).
    pub fn heads(&self) -> usize {
        self.layers.first().map_or(1, |l| l.mha.heads)
    }

    /// Encodes one unpadded sequence `x: [1, n, dim]` under `mask`,
    /// filling `state` with every layer's K/V cache. No timeline mask:
    /// incremental sequences contain no padding.
    pub fn encode_collect(
        &self,
        x: &Tensor,
        mask: Option<&Tensor>,
        state: &mut EncoderKv,
    ) -> Tensor {
        debug_assert_eq!(state.layers.len(), self.layers.len());
        let mut rng = eval_rng();
        let mut h = x.clone();
        for (layer, kv) in self.layers.iter().zip(state.layers.iter_mut()) {
            let (out, k, v) = layer.forward_kv(&Eager, &h, mask, &mut rng, false);
            kv.fill(&k, &v);
            h = out;
        }
        h
    }

    /// Appends one position to each of `b` independent sequences.
    /// `x: [b, dim]` holds the new embedded input rows; `states[i]` is the
    /// i-th sequence's cache. Returns the new top-layer rows `[b, dim]`.
    ///
    /// The per-layer projections and FFN/LayerNorm run as one `[b, ..]`
    /// GEMM-friendly batch; only the attention mixing is per-sequence.
    pub fn append_batch(&self, x: &Tensor, states: &mut [&mut EncoderKv]) -> Tensor {
        let mut rng = eval_rng();
        let mut h = x.clone();
        for (li, layer) in self.layers.iter().enumerate() {
            let mut kvs: Vec<&mut AttnKv> = states.iter_mut().map(|s| &mut s.layers[li]).collect();
            let attn = layer.mha.step_append(&h, &mut kvs);
            h = layer.residual_ffn(&Eager, &h, &attn, None, &mut rng, false);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{causal_mask, Freeze, TransformerEncoder};
    use rand::SeedableRng;
    use tensor::init;

    /// A session's K/V buffers hold exactly what `begin` encoded, and the
    /// first append grows them to the window and never past it, whatever
    /// length the session began with.
    #[test]
    fn kv_capacity_never_exceeds_the_window() {
        let (window, dim, heads) = (6, 8, 2);
        let dh = dim / heads;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let f = TransformerEncoder::new(&mut rng, "enc", 2, dim, heads, 0.0).freeze();
        for begin in 1..=window {
            let x = init::randn(&mut rng, vec![1, begin, dim], 0.0, 1.0);
            let mut kv = EncoderKv::new(f.n_layers(), heads, window);
            f.encode_collect(&x, Some(&causal_mask(begin)), &mut kv);
            for len in begin..=window {
                if len > begin {
                    let row = init::randn(&mut rng, vec![1, dim], 0.0, 1.0);
                    f.append_batch(&row, &mut [&mut kv]);
                }
                assert_eq!(kv.len(), len);
                let rows = if len == begin { begin } else { window };
                for layer in &kv.layers {
                    for buf in layer.k.iter().chain(&layer.v) {
                        assert_eq!(buf.len(), len * dh);
                        assert_eq!(
                            buf.capacity(),
                            rows * dh,
                            "began with {begin} rows, now {len}"
                        );
                    }
                }
            }
        }
    }
}

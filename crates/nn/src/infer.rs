//! Serving storage and the incremental attention path.
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
//! [`TransformerEncoder::begin`] is the packed encoder forward over one
//! causal segment that also keeps each layer's key and value rows
//! ([`EncoderKv`]); [`TransformerEncoder::begin_top`] with
//! [`TopRows::Last`] runs the top layer on the last row only, since every
//! later step reads only that row and the keys and values.
//! [`TransformerEncoder::append`] is the same layer body
//! over one new row per sequence: a segment whose earlier keys start in
//! the cache, attended by [`tensor::segment::append_attention`], which
//! runs the row body of the segmented attention op itself. One append
//! costs one row of projections and one attention row per layer instead of
//! a full re-encode, and it is exact (not approximate): every GEMM output
//! element in `tensor::ops` is a single strict k-order accumulation chain
//! starting at `+0.0`, independent of how many rows are computed alongside
//! it, and softmax/LayerNorm/elementwise ops are row-independent. A
//! causally-masked position therefore has a hidden state that never
//! changes as later positions are appended — provided position indices are
//! stable under append (left-aligned positions `0..len`, no left padding).
//! The incremental entry points assume exactly that convention; callers
//! that need the training-time right-anchored positions must use the full
//! forwards.

use autograd::{Eager, Frozen, ParamRef};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::bug::OrBug;
use tensor::{segment, QuantMatrix, QuantMode, Tensor};

use crate::{
    Embedding, FeedForward, Gru, LayerNorm, Linear, MultiHeadSelfAttention, Packing, TopRows,
    TransformerEncoder, TransformerLayer,
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

/// One sequence's keys and values at every layer of a frozen encoder
/// stack, so that an append attends over them instead of re-encoding.
///
/// Each layer keeps its key rows and its value rows `[len, dim]` in the
/// packed layout the encoder computed them in. Rows are append-only;
/// cached rows are never recomputed (see the module-level exactness
/// argument).
pub struct EncoderKv {
    /// `(keys, values)` per layer, bottom first.
    layers: Vec<(Vec<f32>, Vec<f32>)>,
    len: usize,
    /// The most positions the cache will hold. The first append grows
    /// each buffer to exactly this many rows, not to twice the rows it
    /// began with; `begin` does not reserve it, because a session that is
    /// never appended to would carry the unused rows.
    window: usize,
}

impl EncoderKv {
    /// Number of cached positions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no positions are cached.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl TransformerEncoder<Frozen> {
    /// Encodes the rows `x: [len, dim]` of one sequence, packed as the
    /// one causal segment `pack` (see [`Packing::left_aligned`]), through
    /// the packed [`forward`](TransformerEncoder::forward), and keeps every
    /// layer's keys and values for appends of up to `window` positions in
    /// all. Returns the cache and the top-layer rows `[len, dim]`.
    pub fn begin(&self, x: &Tensor, pack: &Packing, window: usize) -> (EncoderKv, Tensor) {
        self.begin_top(x, pack, window, TopRows::All)
    }

    /// [`begin`](Self::begin), returning the top-layer rows `top` selects:
    /// all of them, or only the last `[1, dim]`. Every layer's keys and
    /// values are kept either way.
    pub fn begin_top(
        &self,
        x: &Tensor,
        pack: &Packing,
        window: usize,
        top: TopRows,
    ) -> (EncoderKv, Tensor) {
        assert_eq!(pack.batch(), 1, "a cache holds one sequence");
        let mut layers = Vec::with_capacity(self.layers.len());
        let h = self.forward_keeping(&Eager, x, pack, top, &mut eval_rng(), false, |k, v| {
            layers.push((k.data().to_vec(), v.data().to_vec()));
        });
        let len = pack.rows();
        (
            EncoderKv {
                layers,
                len,
                window,
            },
            h,
        )
    }

    /// Appends one position to each of `b` independent sequences: `x:
    /// [b, dim]` holds the new embedded rows, `states[i]` the i-th
    /// sequence's cache. Each layer is the packed forward's layer body
    /// over the `b` rows, whose attention reads each sequence's keys from
    /// its cache ([`segment::append_attention`]). Returns the new top-layer
    /// rows `[b, dim]`, each bitwise the last row of a re-encode.
    pub fn append(&self, x: &Tensor, states: &mut [&mut EncoderKv]) -> Tensor {
        let (mut h, mut rng) = (x.clone(), eval_rng());
        for (li, layer) in self.layers.iter().enumerate() {
            h = layer.forward_rows(&Eager, &h, None, None, &mut rng, false, |(q, k, v), _| {
                let kv: Vec<(&[f32], &[f32])> = states
                    .iter_mut()
                    .enumerate()
                    .map(|(i, s)| {
                        // A no-op once the buffers hold the window.
                        let room = (s.window.max(s.len + 1) - s.len) * k.dim(1);
                        let (ks, vs) = &mut s.layers[li];
                        for (buf, row) in [(&mut *ks, k.row(i)), (&mut *vs, v.row(i))] {
                            buf.reserve_exact(room);
                            buf.extend_from_slice(row);
                        }
                        (&ks[..], &vs[..])
                    })
                    .collect();
                segment::append_attention(q, &kv, layer.mha.heads).or_bug("append attention")
            });
        }
        for s in states.iter_mut() {
            s.len += 1;
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Freeze, TransformerEncoder};
    use rand::SeedableRng;
    use tensor::init;

    /// A session's K/V buffers hold exactly what `begin` encoded, and the
    /// first append grows them to the window and never past it, whatever
    /// length the session began with.
    #[test]
    fn kv_capacity_never_exceeds_the_window() {
        let (window, dim, heads) = (6, 8, 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let f = TransformerEncoder::new(&mut rng, "enc", 2, dim, heads, 0.0).freeze();
        for begin in 1..=window {
            let x = init::randn(&mut rng, vec![begin, dim], 0.0, 1.0);
            let (mut kv, _) = f.begin(&x, &Packing::left_aligned(begin), window);
            for len in begin..=window {
                if len > begin {
                    let row = init::randn(&mut rng, vec![1, dim], 0.0, 1.0);
                    f.append(&row, &mut [&mut kv]);
                }
                assert_eq!(kv.len(), len);
                let rows = if len == begin { begin } else { window };
                for (k, v) in &kv.layers {
                    for buf in [k, v] {
                        assert_eq!(buf.len(), len * dim);
                        assert_eq!(
                            buf.capacity(),
                            rows * dim,
                            "began with {begin} rows, now {len}"
                        );
                    }
                }
            }
        }
    }
}

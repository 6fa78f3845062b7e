//! Serving helpers and the incremental attention path.
//!
//! Every module runs its one forward under either execution context (see
//! [`autograd::ctx`]) over the same trained [`ParamRef`](autograd::ParamRef)
//! weights: serving runs the eager context on the model it loaded, with
//! no tape and no second copy of the weights. [`Freeze`] is the one way to
//! get a copy detached from later training updates.
//!
//! # Incremental attention state
//!
//! [`TransformerEncoder::begin_top`] is the packed encoder forward over
//! one causal segment that also keeps each layer's key and value rows
//! ([`EncoderKv`]); with [`TopRows::Last`] it runs the top layer on the
//! last row only, since every later step reads only that row and the keys
//! and values. [`TransformerEncoder::append`] is the same layer body
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

use autograd::Eager;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::bug::OrBug;
use tensor::{segment, Tensor};

use crate::{Packing, TopRows, TransformerEncoder};

/// A copy of a trained model whose weights are detached from later
/// training updates.
pub trait Freeze {
    /// The detached model type.
    type Frozen;
    /// Copies the current weights.
    fn freeze(&self) -> Self::Frozen;
}

/// The RNG the eager forwards take: dropout never draws from it at eval.
pub fn eval_rng() -> StdRng {
    StdRng::seed_from_u64(0)
}

// ---------------------------------------------------------------------------
// Incremental attention
// ---------------------------------------------------------------------------

/// One sequence's keys and values at every layer of an encoder
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

impl TransformerEncoder {
    /// Encodes the rows `x: [len, dim]` of one sequence, packed as the
    /// one causal segment `pack` (see [`Packing::left_aligned`]), through
    /// the packed [`forward`](TransformerEncoder::forward), and keeps every
    /// layer's keys and values for appends of up to `window` positions in
    /// all. Returns the cache and the top-layer rows `top` selects: all
    /// `[len, dim]`, or only the last `[1, dim]`.
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
    use crate::TransformerEncoder;
    use rand::SeedableRng;
    use tensor::init;

    /// A session's K/V buffers hold exactly what `begin` encoded, and the
    /// first append grows them to the window and never past it, whatever
    /// length the session began with.
    #[test]
    fn kv_capacity_never_exceeds_the_window() {
        let (window, dim, heads) = (6, 8, 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let f = TransformerEncoder::new(&mut rng, "enc", 2, dim, heads, 0.0);
        for begin in 1..=window {
            let x = init::randn(&mut rng, vec![begin, dim], 0.0, 1.0);
            let (mut kv, _) = f.begin_top(&x, &Packing::left_aligned(begin), window, TopRows::All);
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

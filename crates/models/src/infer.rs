//! Serving the model layer: the shared Transformer backbone and GRU4Rec
//! under the eager context, over the trained weights, in both padded
//! (training-equivalent) and left-aligned incremental semantics.
//!
//! * **Padded** ([`TransformerBackbone::forward`] under [`Eager`],
//!   [`Gru4Rec::score_padded`]) runs the training forward itself: the last
//!   `max_len` items, left-padded, positions anchored at the right edge.
//!   This is what offline evaluation computes, so served scores equal
//!   `score_sequence`/`score` bitwise. Padded windows are *not* cacheable
//!   across appends — every append shifts all previous items' position
//!   embeddings (and changes the GRU pad prefix).
//! * **Left-aligned incremental** ([`TransformerBackbone::begin_top`] /
//!   [`append_incremental`](TransformerBackbone::append_incremental),
//!   [`Gru4Rec`]'s [`GruState`]) anchors positions at the *start*
//!   (`0..len`). `begin_top` is the packed forward of
//!   [`TransformerBackbone::forward_left_aligned`] that keeps each layer's
//!   keys and values ([`EncoderKv`]), and can run the top layer on the
//!   last row only; an append is the same packed forward over one new row
//!   per user, a segment whose earlier keys start in the cache. Under
//!   causal attention an append leaves every cached key/value row
//!   bitwise-unchanged. The references are
//!   [`TransformerBackbone::forward_left_aligned`] and
//!   [`Gru4Rec::score_unpadded_recorded`].

use autograd::{Eager, ParamRef};
use nn::infer::eval_rng;
use nn::{EncoderKv, Packing, TopRows};
use recdata::{encode_input_only, ItemId};
use tensor::Tensor;

use crate::{Gru4Rec, TransformerBackbone};

impl TransformerBackbone {
    /// Encodes a full sequence under left-aligned semantics while filling a
    /// fresh incremental cache: the packed forward of
    /// [`TransformerBackbone::forward_left_aligned`], keeping each layer's
    /// keys and values. Returns the cache and the packed top-layer rows
    /// `top` selects: all `[len, d]`, or the last `[1, d]`.
    pub fn begin_top(&self, seq: &[ItemId], top: TopRows) -> (EncoderKv, Tensor) {
        assert!(
            seq.len() <= self.max_len(),
            "sequence length {} exceeds position table ({})",
            seq.len(),
            self.max_len()
        );
        let pack = Packing::left_aligned(seq.len());
        let x = self.embed_packed(&Eager, &[seq.to_vec()], &pack, &mut eval_rng(), false);
        self.encoder.begin_top(&x, &pack, self.max_len(), top)
    }

    /// Appends one item per user in a single GEMM-friendly batch. Row `i`
    /// of the result `[users.len(), d]` is the new hidden state for
    /// `states[i]`, bitwise-identical to the last row of a full
    /// left-aligned re-encode of that user's extended sequence.
    ///
    /// Panics if any state is already at `max_len` (the caller slides the
    /// window by re-beginning from the last `max_len` items).
    pub fn append_incremental(&self, items: &[ItemId], states: &mut [&mut EncoderKv]) -> Tensor {
        assert_eq!(items.len(), states.len(), "one item per state");
        let positions: Vec<usize> = states
            .iter()
            .map(|s| {
                assert!(
                    s.len() < self.max_len(),
                    "state at max_len {}; slide the window first",
                    self.max_len()
                );
                s.len()
            })
            .collect();
        let e = self.item_emb.forward_flat(&Eager, items);
        let x = self.add_positions(&Eager, &e, &positions, &mut eval_rng(), false);
        self.encoder.append(&x, states)
    }
}

// ---------------------------------------------------------------------------
// GRU4Rec
// ---------------------------------------------------------------------------

/// Incremental per-user GRU cache: the running hidden state. Unlike the
/// attention cache this is O(d) and never slides — the unpadded recurrence
/// is position-free, so appends stay exact at any history length.
pub struct GruState {
    h: Tensor,
    len: usize,
}

impl GruState {
    /// Number of items absorbed into the recurrence.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing has been absorbed yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Gru4Rec {
    /// Training window length (used only by the padded path).
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// Padded scores, bitwise-identical to
    /// [`crate::SequentialRecommender::score`] on [`Gru4Rec`]: the last
    /// `max_len` items left-padded, the recurrence including the pad
    /// prefix steps.
    pub fn score_padded(&self, seq: &[ItemId]) -> Vec<f32> {
        if seq.is_empty() {
            return vec![0.0; self.num_items + 1];
        }
        let (input, _pad) = encode_input_only(seq, self.max_len);
        self.score_rows(&Eager, input).row(0).to_vec()
    }

    /// Begins an incremental recurrence over `seq` (unpadded; mirrors
    /// [`score_unpadded`](Self::score_unpadded) semantics).
    pub fn begin_incremental(&self, seq: &[ItemId]) -> GruState {
        let mut state = GruState {
            h: Tensor::zeros(vec![1, self.gru.dim()]),
            len: 0,
        };
        for &item in seq {
            self.append_incremental(&[item], &mut [&mut state]);
        }
        state
    }

    /// Appends one item per user in a single batched GRU step. Row `i` of
    /// the result `[users.len(), d]` is the new hidden state for
    /// `states[i]`; GRU gates are row-independent, so the batched step is
    /// bitwise-identical to stepping each user alone.
    pub fn append_incremental(&self, items: &[ItemId], states: &mut [&mut GruState]) -> Tensor {
        assert_eq!(items.len(), states.len(), "one item per state");
        let d = self.gru.dim();
        let x = self.item_emb.forward_flat(&Eager, items);
        let mut hdata: Vec<f32> = Vec::with_capacity(states.len() * d);
        for s in states.iter() {
            hdata.extend_from_slice(s.h.row(0));
        }
        let h = Tensor::from_vec(hdata, vec![states.len(), d]);
        let h_new = self.gru.step(&Eager, &x, &h);
        for (i, s) in states.iter_mut().enumerate() {
            s.h = Tensor::from_vec(h_new.row(i).to_vec(), vec![1, d]);
            s.len += 1;
        }
        h_new
    }

    /// Current hidden state `[1, d]` of an incremental recurrence.
    pub fn hidden(&self, state: &GruState) -> Tensor {
        state.h.clone()
    }

    /// Catalog scores from hidden states `[b, d]` via the tied table.
    pub fn scores(&self, h: &Tensor) -> Tensor {
        self.item_emb.project(&Eager, h)
    }

    /// Query vector for maximum-inner-product retrieval: the final GRU
    /// hidden state under the same padded semantics as
    /// [`score_padded`](Self::score_padded). `None` on an empty history.
    pub fn query_embedding(&self, seq: &[ItemId]) -> Option<Vec<f32>> {
        if seq.is_empty() {
            return None;
        }
        let (input, _pad) = encode_input_only(seq, self.max_len);
        Some(self.last_hidden(&Eager, input).row(0).to_vec())
    }

    /// The tied item table parameter (`[num_items + 1, d]`).
    pub fn item_table(&self) -> &ParamRef {
        self.item_emb.table()
    }

    /// Catalog scores over the *unpadded* sequence: the recurrence starts
    /// from `h = 0` at the first real item, with no left-pad prefix steps.
    /// These are the semantics the incremental serving path caches under —
    /// appending an item is exactly one more GRU step — and unlike the
    /// padded [`SequentialRecommender::score`](crate::SequentialRecommender::score)
    /// they work through `&self` and have no length cap.
    pub fn score_unpadded(&self, seq: &[ItemId]) -> Vec<f32> {
        if seq.is_empty() {
            return vec![0.0; self.num_items + 1];
        }
        self.score_rows(&Eager, seq.to_vec()).row(0).to_vec()
    }
}

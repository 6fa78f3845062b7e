//! Serving the model layer: the shared Transformer backbone and GRU4Rec
//! under the eager context, in both padded (training-equivalent) and
//! left-aligned incremental semantics.
//!
//! * **Padded** ([`FrozenTransformerBackbone::forward_padded`],
//!   [`FrozenGru4Rec::score_padded`]) runs the training forward itself
//!   over frozen weights: the last `max_len` items, left-padded, positions
//!   anchored at the right edge. This is what offline evaluation computes,
//!   so served scores equal `score_sequence`/`score` bitwise. Padded
//!   windows are *not* cacheable across appends — every append shifts all
//!   previous items' position embeddings (and changes the GRU pad prefix).
//! * **Left-aligned incremental** ([`FrozenTransformerBackbone::begin_incremental`]
//!   / [`append_incremental`](FrozenTransformerBackbone::append_incremental),
//!   [`FrozenGru4Rec`]'s [`GruState`]) anchors positions at the *start*
//!   (`0..len`). `begin` is the packed forward of
//!   [`TransformerBackbone::forward_left_aligned`] that keeps each layer's
//!   keys and values ([`EncoderKv`]); an append is the same packed
//!   forward over one new row per user, a segment whose earlier keys
//!   start in the cache ([`FrozenTransformerBackbone::begin_top`] can run
//!   the top layer on the last row only). Under causal attention an
//!   append leaves every cached key/value row bitwise-unchanged. The references are
//!   [`TransformerBackbone::forward_left_aligned`] and
//!   [`Gru4Rec::score_unpadded`].

use autograd::{Eager, Frozen};
use nn::infer::eval_rng;
use nn::{EncoderKv, Freeze, Packing, TopRows};
use recdata::{encode_input_only, ItemId};
use tensor::Tensor;

use crate::{Gru4Rec, TransformerBackbone};

/// A [`TransformerBackbone`] over frozen weights.
pub type FrozenTransformerBackbone = TransformerBackbone<Frozen>;

impl TransformerBackbone<Frozen> {
    /// The padded forward at eval: hidden states `[b, n, d]`.
    pub fn forward_padded(&self, inputs: &[Vec<ItemId>], pad: &[Vec<bool>]) -> Tensor {
        self.forward(&Eager, inputs, pad, &mut eval_rng(), false)
    }

    /// Encodes a full sequence under left-aligned semantics while filling a
    /// fresh incremental cache: the packed forward of
    /// [`TransformerBackbone::forward_left_aligned`], keeping each layer's
    /// keys and values. Returns the cache and its hidden states
    /// `[1, len, d]`.
    pub fn begin_incremental(&self, seq: &[ItemId]) -> (EncoderKv, Tensor) {
        let (state, h) = self.begin_top(seq, TopRows::All);
        (state, Packing::left_aligned(seq.len()).unpack(&Eager, &h))
    }

    /// [`begin_incremental`](Self::begin_incremental) returning the packed
    /// top-layer rows `top` selects: all `[len, d]`, or the last `[1, d]`.
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

    /// Catalog scores via the tied item table (`ŷ = h · Mᵀ`). Accepts
    /// `[b, d]` or `[b, n, d]`; rows are independent accumulation chains,
    /// so batch scoring equals single-row scoring bitwise.
    pub fn scores(&self, h: &Tensor) -> Tensor {
        self.item_emb.project(&Eager, h)
    }

    /// The tied item table (`[vocab, d]`): the corpus side of the
    /// maximum-inner-product retrieval an ANN index answers.
    pub fn item_table(&self) -> &Tensor {
        self.item_emb.table()
    }
}

impl Freeze for TransformerBackbone {
    type Frozen = TransformerBackbone<Frozen>;

    fn freeze(&self) -> TransformerBackbone<Frozen> {
        TransformerBackbone {
            item_emb: self.item_emb.freeze(),
            pos_emb: self.pos_emb.freeze(),
            emb_ln: self.emb_ln.freeze(),
            emb_dropout: self.emb_dropout,
            encoder: self.encoder.freeze(),
            dim: self.dim,
            heads: self.heads,
            causal: self.causal,
        }
    }
}

// ---------------------------------------------------------------------------
// GRU4Rec
// ---------------------------------------------------------------------------

/// A [`Gru4Rec`] over frozen weights.
pub type FrozenGru4Rec = Gru4Rec<Frozen>;

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

impl Gru4Rec<Frozen> {
    /// Catalog size (excluding padding index 0).
    pub fn num_items(&self) -> usize {
        self.num_items
    }

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
    /// [`Gru4Rec::score_unpadded`] semantics).
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

    /// The tied item table (`[num_items + 1, d]`).
    pub fn item_table(&self) -> &Tensor {
        self.item_emb.table()
    }

    /// Unpadded scores via a fresh full recurrence, bitwise-identical to
    /// [`Gru4Rec::score_unpadded`].
    pub fn score_unpadded(&self, seq: &[ItemId]) -> Vec<f32> {
        if seq.is_empty() {
            return vec![0.0; self.num_items + 1];
        }
        self.score_rows(&Eager, seq.to_vec()).row(0).to_vec()
    }
}

impl Freeze for Gru4Rec {
    type Frozen = Gru4Rec<Frozen>;

    fn freeze(&self) -> Gru4Rec<Frozen> {
        Gru4Rec {
            item_emb: self.item_emb.freeze(),
            gru: self.gru.freeze(),
            num_items: self.num_items,
            max_len: self.max_len,
        }
    }
}

//! Serving Meta-SGCL: the model over frozen weights, run eagerly.
//!
//! [`FrozenMetaSgcl`] is `MetaSgcl<Frozen>`: a weight snapshot of a
//! trained [`MetaSgcl`] with no autograd graph and no parameter locks in
//! the hot loop. Deterministic eval uses `z = μ`, so the variance heads
//! never influence served scores.
//!
//! Two scoring paths:
//!
//! * [`FrozenMetaSgcl::score_padded`] runs the same score body as
//!   [`MetaSgcl::score_sequence`] (right-anchored padded window) under the
//!   eager context, so the two agree `==` — the offline-parity contract
//!   served by default.
//! * [`FrozenMetaSgcl::begin_incremental`] /
//!   [`append_incremental`](FrozenMetaSgcl::append_incremental) keep a
//!   per-user K/V cache under left-aligned semantics (reference:
//!   [`MetaSgcl::score_left_aligned`]). `begin` is the packed forward of
//!   the backbone and the decoder over one causal segment, keeping each
//!   layer's keys and values; appending one interaction is the same packed
//!   forward over one new row, whose keys start in the cache, instead of a
//!   full re-encode. When a cache reaches `max_len` the caller re-begins
//!   from the last `max_len` items (a slide, counted as one re-encode).
//!
//! Both paths read only the last position, so the last Transformer layer
//! (the decoder's when there is one, else the backbone's) outputs only
//! that row ([`nn::TopRows::Last`]); it has the full forward's bits.
//!
//! The two windowings are not equally good. The model is trained only on
//! right-anchored positions (the last item at position `max_len − 1`),
//! while the incremental cache puts it at `len − 1`; on the same
//! checkpoints incremental scoring measured 2.6–4.6% lower validation
//! NDCG@10 than full mode (ROADMAP item 3).

use autograd::{Eager, Frozen};
use nn::{EncoderKv, Freeze, Packing, TopRows};
use recdata::ItemId;
use tensor::bug::OrBug;
use tensor::Tensor;

use crate::model::MetaSgcl;
use crate::train::TrainingHistory;

/// Meta-SGCL over frozen weights.
pub type FrozenMetaSgcl = MetaSgcl<Frozen>;

/// Incremental per-user state: the backbone's K/V cache plus (when the
/// model has an explicit decoder) the decoder's own K/V cache over the
/// latent sequence.
pub struct State {
    bb: EncoderKv,
    dec: Option<EncoderKv>,
}

impl State {
    /// Number of interactions absorbed into the cache.
    pub fn len(&self) -> usize {
        self.bb.len()
    }

    /// True when nothing has been cached.
    pub fn is_empty(&self) -> bool {
        self.bb.is_empty()
    }
}

impl MetaSgcl<Frozen> {
    /// Catalog size (excluding padding index 0).
    pub fn num_items(&self) -> usize {
        self.cfg.net.num_items
    }

    /// Maximum window length; incremental caches slide past this.
    pub fn max_len(&self) -> usize {
        self.cfg.net.max_len
    }

    fn last_scores(&self, h_last: &Tensor) -> Vec<f32> {
        let logits = self.backbone.scores(h_last);
        logits.row(0)[..self.num_items() + 1].to_vec()
    }

    /// Catalog scores equal to [`MetaSgcl::score_sequence`] bitwise:
    /// right-anchored padded window, deterministic `z = μ`.
    pub fn score_padded(&self, seq: &[ItemId]) -> Vec<f32> {
        if seq.is_empty() {
            return vec![0.0; self.num_items() + 1];
        }
        self.last_scores(&self.padded_last_hidden(&Eager, seq))
    }

    /// Query vector for maximum-inner-product retrieval: the same
    /// last-position hidden state [`score_padded`](Self::score_padded)
    /// projects against the tied item table, as a plain `d`-vector.
    /// `None` on an empty history (cold start has no hidden state).
    pub fn query_embedding(&self, seq: &[ItemId]) -> Option<Vec<f32>> {
        if seq.is_empty() {
            return None;
        }
        Some(self.padded_last_hidden(&Eager, seq).row(0).to_vec())
    }

    /// The tied item-embedding table (`[num_items + 1, d]`, row 0 =
    /// padding) — the corpus side of the inner product, e.g. for building
    /// an ANN index.
    pub fn item_embeddings(&self) -> &Tensor {
        self.backbone.item_table()
    }

    /// Encodes a window (at most `max_len` items, left-aligned) into a
    /// fresh incremental state and returns the catalog scores. Bitwise
    /// equal to [`MetaSgcl::score_left_aligned`] on the same window.
    pub fn begin_incremental(&self, window: &[ItemId]) -> (State, Vec<f32>) {
        assert!(
            !window.is_empty() && window.len() <= self.max_len(),
            "window must hold 1..=max_len items"
        );
        // Only the last row leaves the top layer: the decoder's when there
        // is one (its input is every row's `μ`), else the backbone's.
        let (state, last) = match &self.decoder {
            Some(dec) => {
                let (bb, h) = self.backbone.begin_top(window, TopRows::All);
                let mu = self.enc_mu.forward(&Eager, &h);
                let pack = Packing::left_aligned(window.len());
                let (kv, last) = dec.begin_top(&mu, &pack, self.max_len(), TopRows::Last);
                (State { bb, dec: Some(kv) }, last)
            }
            None => {
                let (bb, h) = self.backbone.begin_top(window, TopRows::Last);
                (State { bb, dec: None }, self.enc_mu.forward(&Eager, &h))
            }
        };
        (state, self.last_scores(&last))
    }

    /// Appends one interaction per user in a single batch and returns each
    /// user's catalog scores. Every per-row op is an independent
    /// accumulation chain, so batching users is bitwise-identical to
    /// appending them one at a time.
    ///
    /// Panics if any state is full (`len() == max_len`) — the caller
    /// slides by re-beginning from the last `max_len` items of the
    /// history.
    pub fn append_incremental(&self, items: &[ItemId], states: &mut [&mut State]) -> Vec<Vec<f32>> {
        assert_eq!(items.len(), states.len(), "one item per state");
        let h = {
            let mut bb: Vec<&mut EncoderKv> = states.iter_mut().map(|s| &mut s.bb).collect();
            self.backbone.append_incremental(items, &mut bb)
        };
        let mu = self.enc_mu.forward(&Eager, &h);
        let hfinal = match &self.decoder {
            Some(dec) => {
                let mut kvs: Vec<&mut EncoderKv> = states
                    .iter_mut()
                    .map(|s| s.dec.as_mut().or_bug("decoder state present"))
                    .collect();
                dec.append(&mu, &mut kvs)
            }
            None => mu,
        };
        let logits = self.backbone.scores(&hfinal);
        (0..states.len())
            .map(|i| logits.row(i)[..self.num_items() + 1].to_vec())
            .collect()
    }
}

impl Freeze for MetaSgcl {
    type Frozen = MetaSgcl<Frozen>;

    fn freeze(&self) -> MetaSgcl<Frozen> {
        MetaSgcl {
            backbone: self.backbone.freeze(),
            enc_mu: self.enc_mu.freeze(),
            enc_logvar: self.enc_logvar.freeze(),
            enc_logvar_prime: self.enc_logvar_prime.freeze(),
            decoder: self.decoder.as_ref().map(Freeze::freeze),
            cfg: self.cfg.clone(),
            history: TrainingHistory::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use autograd::{Ctx, Graph};
    use models::{NetConfig, TransformerBackbone};
    use nn::infer::eval_rng;
    use recdata::encode_input_only;

    use super::*;
    use crate::config::MetaSgclConfig;

    fn model(decoder_layers: usize) -> MetaSgcl {
        MetaSgcl::new(MetaSgclConfig {
            net: NetConfig {
                max_len: 7,
                dim: 8,
                layers: 2,
                ..NetConfig::for_items(15)
            },
            decoder_layers,
            ..MetaSgclConfig::for_items(15)
        })
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The last-position hidden state from every row of every top layer:
    /// the full packed forward, then its last row.
    fn full_last_hidden<S: autograd::Store, C: Ctx<S = S>>(
        m: &MetaSgcl<S>,
        c: &C,
        seq: &[ItemId],
    ) -> C::V {
        let (input, pad) = encode_input_only(seq, m.cfg.net.max_len);
        let pack = m.backbone.packing(&[pad]);
        let mut rng = eval_rng();
        let features = m
            .backbone
            .forward_packed(c, &[input], &pack, &mut rng, false);
        let mu = m.enc_mu.forward(c, &features);
        let h = match &m.decoder {
            Some(dec) => dec.forward(c, &mu, &pack, &mut rng, false),
            None => mu,
        };
        pack.last_rows(c, &h)
    }

    /// Full mode, `begin` and an append after it read the top layer's
    /// last row only (the decoder's when there is one), and give the full
    /// forward's bits, SIMD on and off.
    #[test]
    fn last_row_serving_matches_the_full_forward_bit_for_bit() {
        let was = tensor::tuning::simd_enabled();
        for simd in [true, false] {
            tensor::tuning::set_simd_enabled(simd);
            for dec in 0..=2 {
                let m = model(dec);
                let f = m.freeze();
                for seq in [vec![3usize], vec![4, 9, 2], (1..=11).collect()] {
                    let case = format!("simd {simd}, decoder {dec}, {} items", seq.len());
                    let g = Graph::new();
                    let h = full_last_hidden(&m, &g, &seq);
                    let want = m.backbone.scores(&g, &h).value();
                    let want = bits(&want.row(0)[..=f.num_items()]);
                    assert_eq!(bits(&m.score_sequence(&seq)), want, "recorded, {case}");
                    assert_eq!(bits(&f.score_padded(&seq)), want, "eager, {case}");
                    let q = f.query_embedding(&seq).expect("a history has a query");
                    let want_q = full_last_hidden(&f, &Eager, &seq);
                    assert_eq!(bits(&q), bits(want_q.row(0)), "query, {case}");

                    // `begin` over a left-aligned window, then one append.
                    let window = &seq[seq.len().saturating_sub(f.max_len() - 1)..];
                    let (mut state, scores) = f.begin_incremental(window);
                    let (bb, rows) = f.backbone.begin_incremental(window);
                    let mu = f.enc_mu.forward(&Eager, &rows);
                    let last = match &f.decoder {
                        Some(d) => {
                            let pack = Packing::left_aligned(window.len());
                            let (_, top) = d.begin(&pack.pack(&Eager, &mu), &pack, f.max_len());
                            pack.last_rows(&Eager, &top)
                        }
                        None => TransformerBackbone::last_hidden(&mu),
                    };
                    assert_eq!(bits(&scores), bits(&f.last_scores(&last)), "begin, {case}");
                    assert_eq!(state.len(), bb.len());
                    let appended = f.append_incremental(&[5], &mut [&mut state]);
                    let longer: Vec<ItemId> = window.iter().copied().chain([5]).collect();
                    let want = m.score_left_aligned(&longer);
                    assert_eq!(bits(&appended[0]), bits(&want), "append, {case}");
                }
            }
        }
        tensor::tuning::set_simd_enabled(was);
    }
}

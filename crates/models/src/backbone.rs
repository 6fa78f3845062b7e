//! The shared SASRec-style Transformer backbone: item + position
//! embeddings, embedding LayerNorm/dropout, and a stacked self-attention
//! encoder, causal or bidirectional.
//!
//! A left-padded batch runs padding-free: the backbone packs its real
//! cells ([`Packing`]), every row-wise op runs on those rows, and attention
//! is one segmented op per layer. [`TransformerBackbone::forward`] returns
//! the padded `[b, n, d]` layout with zero rows at the padding; readers of
//! only each sequence's last row take it from the packed rows
//! ([`TransformerBackbone::forward_packed`], [`Packing::last_rows`]), or at
//! eval let the top layer compute only those rows
//! ([`TransformerBackbone::forward_last`]).
//!
//! Every attention-based model in this reproduction (SASRec, BERT4Rec,
//! VSAN, DuoRec, ContrastVAE, ACVAE, and Meta-SGCL itself) is this backbone
//! plus a different head/objective, which keeps the Table II comparison
//! about objectives rather than implementation details.

use autograd::{Ctx, Graph, ParamRef, Value, Var};
use nn::{Dropout, Embedding, LayerNorm, Module, Packing, TransformerEncoder};
use rand::rngs::StdRng;
use recdata::ItemId;
use tensor::Tensor;

/// Item+position embedding and Transformer encoder stack.
pub struct TransformerBackbone {
    pub(crate) item_emb: Embedding,
    pub(crate) pos_emb: Embedding,
    pub(crate) emb_ln: LayerNorm,
    pub(crate) emb_dropout: Dropout,
    pub(crate) encoder: TransformerEncoder,
    pub(crate) dim: usize,
    /// Read only by the padded test reference (`packed_reference`).
    #[cfg(test)]
    pub(crate) heads: usize,
    pub(crate) causal: bool,
}

impl TransformerBackbone {
    /// Creates a backbone.
    ///
    /// `vocab` must include padding (`num_items + 1`) plus any special
    /// tokens (e.g. BERT4Rec's `[mask]`). `causal = false` gives
    /// bidirectional attention.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        rng: &mut StdRng,
        name: &str,
        vocab: usize,
        max_len: usize,
        dim: usize,
        heads: usize,
        layers: usize,
        dropout: f32,
        causal: bool,
    ) -> Self {
        TransformerBackbone {
            item_emb: Embedding::new(rng, &format!("{name}.item"), vocab, dim),
            pos_emb: Embedding::new(rng, &format!("{name}.pos"), max_len, dim),
            emb_ln: LayerNorm::new(&format!("{name}.emb_ln"), dim),
            emb_dropout: Dropout::new(dropout),
            encoder: TransformerEncoder::new(
                rng,
                &format!("{name}.enc"),
                layers,
                dim,
                heads,
                dropout,
            ),
            dim,
            #[cfg(test)]
            heads,
            causal,
        }
    }

    /// The item-embedding table parameter (tied output projection, ANN
    /// corpus, Fig. 6 analytics).
    pub fn item_table(&self) -> &ParamRef {
        self.item_emb.table()
    }

    /// Multiplicative timeline mask `[b, n, 1]` (0 at padding).
    pub fn timeline_mask(pad: &[Vec<bool>]) -> Tensor {
        let b = pad.len();
        let n = pad.first().map_or(0, Vec::len);
        let mut t = Tensor::ones(vec![b, n, 1]);
        for (bi, row) in pad.iter().enumerate() {
            for (j, &p) in row.iter().enumerate() {
                if p {
                    t.data_mut()[bi * n + j] = 0.0;
                }
            }
        }
        t
    }

    /// Scores the catalog from hidden states via the tied item table
    /// (Eq. 22: `ŷ = z · Mᵀ`). Accepts `[b, d]` or `[b, n, d]`; rows are
    /// independent accumulation chains, so batch scoring equals single-row
    /// scoring bitwise.
    pub fn scores<C: Ctx>(&self, c: &C, h: &C::V) -> C::V {
        // Fused NT against the [V, d] table — no [d, V] transpose copy.
        self.item_emb.project(c, h)
    }

    /// The tied item-embedding table as a graph var (`[vocab, d]`), for
    /// candidate-subset scoring (sampled softmax).
    pub fn item_table_var(&self, g: &Graph) -> Var {
        self.item_emb.full(g)
    }

    /// All trainable parameters.
    pub fn parameters(&self) -> Vec<ParamRef> {
        let mut ps = self.item_emb.parameters();
        ps.extend(self.pos_emb.parameters());
        ps.extend(self.emb_ln.parameters());
        ps.extend(self.encoder.parameters());
        ps
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Vocabulary size (including padding/special tokens).
    pub fn vocab(&self) -> usize {
        self.item_emb.vocab()
    }

    /// Maximum sequence length (rows in the position table).
    pub fn max_len(&self) -> usize {
        self.pos_emb.vocab()
    }

    /// The packing of a batch with padding `pad`, attending as this
    /// backbone does.
    pub fn packing(&self, pad: &[Vec<bool>]) -> Packing {
        Packing::new(pad, self.causal)
    }

    /// Adds position embeddings to item embeddings `e` (`[b, n, d]` with
    /// `positions` `0..n`, or `[b, d]` with one position per row),
    /// normalizes, applies dropout.
    pub(crate) fn add_positions<C: Ctx>(
        &self,
        c: &C,
        e: &C::V,
        positions: &[usize],
        rng: &mut StdRng,
        training: bool,
    ) -> C::V {
        let p = self.pos_emb.forward_flat(c, positions);
        let x = self.emb_ln.forward(c, &c.add(e, &p));
        self.emb_dropout.apply(c, x, rng, training)
    }

    /// Embeds a batch (Eq. 4: `Ê = E + P`), normalizes, applies dropout.
    pub fn embed<C: Ctx>(
        &self,
        c: &C,
        inputs: &[Vec<ItemId>],
        rng: &mut StdRng,
        training: bool,
    ) -> C::V {
        let n = inputs.first().map_or(0, Vec::len);
        let e = self.item_emb.forward_batch(c, inputs);
        let pos: Vec<usize> = (0..n).collect(); // [n, d] broadcast over batch
        self.add_positions(c, &e, &pos, rng, training)
    }

    /// Embeds the real cells of a batch (Eq. 4: `Ê = E + P`), packed:
    /// item and position rows per cell, each cell's position its padded
    /// column, then LayerNorm and dropout (drawn at the padded shape).
    pub(crate) fn embed_packed<C: Ctx>(
        &self,
        c: &C,
        inputs: &[Vec<ItemId>],
        pack: &Packing,
        rng: &mut StdRng,
        training: bool,
    ) -> C::V {
        let n = pack.window();
        let items: Vec<ItemId> = pack.cells().iter().map(|&c| inputs[c / n][c % n]).collect();
        let e = self.item_emb.forward_flat(c, &items);
        let p = self.pos_emb.forward_flat(c, &pack.positions());
        let x = self.emb_ln.forward(c, &c.add(&e, &p));
        self.emb_dropout.apply_rows(c, x, Some(pack), rng, training)
    }

    /// Packed forward: hidden rows `[R, dim]` of `pack`'s real cells
    /// (Eq. 10's `F^(l)` without the padding).
    pub fn forward_packed<C: Ctx>(
        &self,
        c: &C,
        inputs: &[Vec<ItemId>],
        pack: &Packing,
        rng: &mut StdRng,
        training: bool,
    ) -> C::V {
        let x = self.embed_packed(c, inputs, pack, rng, training);
        self.encoder.forward(c, &x, pack, rng, training)
    }

    /// The eval [`forward_packed`](Self::forward_packed) whose top layer
    /// outputs only each sequence's last row (see
    /// [`TransformerEncoder::forward_last`]): `[b, dim]`, the rows a
    /// next-item query reads. No sequence may be empty.
    pub fn forward_last<C: Ctx>(
        &self,
        c: &C,
        inputs: &[Vec<ItemId>],
        pack: &Packing,
        rng: &mut StdRng,
    ) -> C::V {
        let x = self.embed_packed(c, inputs, pack, rng, false);
        self.encoder.forward_last(c, &x, pack, rng)
    }

    /// Full forward: returns hidden states `[b, n, dim]` (Eq. 10's
    /// `F^(l)`), zero at padded cells.
    pub fn forward<C: Ctx>(
        &self,
        c: &C,
        inputs: &[Vec<ItemId>],
        pad: &[Vec<bool>],
        rng: &mut StdRng,
        training: bool,
    ) -> C::V {
        #[cfg(test)]
        if crate::packed_reference::padded() {
            return crate::packed_reference::padded_forward(self, c, inputs, pad, rng, training);
        }
        let pack = self.packing(pad);
        let h = self.forward_packed(c, inputs, &pack, rng, training);
        pack.unpack(c, &h)
    }

    /// Left-aligned, unpadded forward for one sequence: positions are
    /// `0..seq.len()` (anchored at the *start*, not the right edge), the
    /// attention is causal, and nothing is padding. These are the
    /// semantics the incremental serving path caches under — appending an
    /// item leaves every earlier position's embedding (and, by causality,
    /// hidden state) unchanged. Returns `[1, len, dim]`.
    ///
    /// Requires `seq.len() <= max_len` (the position table has `max_len`
    /// rows).
    pub fn forward_left_aligned<C: Ctx>(
        &self,
        c: &C,
        seq: &[ItemId],
        rng: &mut StdRng,
        training: bool,
    ) -> C::V {
        let pack = Packing::left_aligned(seq.len());
        let h = self.forward_packed(c, &[seq.to_vec()], &pack, rng, training);
        pack.unpack(c, &h)
    }

    /// Runs the encoder on a pre-built `[b, n, dim]` embedding (for models
    /// that modify the embedding first): packs its real rows, encodes
    /// them, and returns `[b, n, dim]`, zero at padded cells.
    pub fn encode_embedded<C: Ctx>(
        &self,
        c: &C,
        x: &C::V,
        pad: &[Vec<bool>],
        rng: &mut StdRng,
        training: bool,
    ) -> C::V {
        let pack = self.packing(pad);
        let h = self
            .encoder
            .forward(c, &pack.pack(c, x), &pack, rng, training);
        pack.unpack(c, &h)
    }

    /// Extracts the representation at the last position: `[b, n, d] → [b, d]`.
    /// With left padding the final position always holds the most recent
    /// real item.
    pub fn last_hidden<V: Value>(h: &V) -> V {
        let c = h.ctx();
        let dims = c.dims(h);
        let (b, n, d) = (dims[0], dims[1], dims[2]);
        c.reshape(&c.slice_axis(h, 1, n - 1, n), vec![b, d])
    }
}

impl Module for TransformerBackbone {
    fn parameters(&self) -> Vec<ParamRef> {
        TransformerBackbone::parameters(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn backbone(causal: bool) -> (TransformerBackbone, StdRng) {
        let mut rng = StdRng::seed_from_u64(0);
        let b = TransformerBackbone::new(&mut rng, "bb", 11, 6, 8, 2, 1, 0.0, causal);
        (b, rng)
    }

    #[test]
    fn forward_shapes() {
        let (bb, mut rng) = backbone(true);
        let g = Graph::new();
        let inputs = vec![vec![0, 0, 1, 2, 3, 4], vec![0, 5, 6, 7, 8, 9]];
        let pad = vec![
            vec![true, true, false, false, false, false],
            vec![true, false, false, false, false, false],
        ];
        let h = bb.forward(&g, &inputs, &pad, &mut rng, false);
        assert_eq!(h.dims(), vec![2, 6, 8]);
        let last = TransformerBackbone::last_hidden(&h);
        assert_eq!(last.dims(), vec![2, 8]);
        let s = bb.scores(&g, &last);
        assert_eq!(s.dims(), vec![2, 11]);
        let s3 = bb.scores(&g, &h);
        assert_eq!(s3.dims(), vec![2, 6, 11]);
    }

    #[test]
    fn padded_positions_output_zero() {
        let (bb, mut rng) = backbone(true);
        let g = Graph::new();
        let inputs = vec![vec![0, 0, 1, 2, 3, 4]];
        let pad = vec![vec![true, true, false, false, false, false]];
        let h = bb.forward(&g, &inputs, &pad, &mut rng, false).value();
        for j in 0..8 {
            assert_eq!(h.at(&[0, 0, j]), 0.0);
            assert_eq!(h.at(&[0, 1, j]), 0.0);
        }
        assert!(h.at(&[0, 2, 0]).abs() > 0.0);
    }

    #[test]
    fn causal_backbone_ignores_future() {
        let (bb, mut rng) = backbone(true);
        let g = Graph::new();
        let pad = vec![vec![false; 6]];
        let a = bb
            .forward(&g, &[vec![1, 2, 3, 4, 5, 6]], &pad, &mut rng, false)
            .value();
        let b = bb
            .forward(&g, &[vec![1, 2, 3, 9, 5, 6]], &pad, &mut rng, false)
            .value();
        // Positions before the change are identical.
        for t in 0..3 {
            for j in 0..8 {
                assert!((a.at(&[0, t, j]) - b.at(&[0, t, j])).abs() < 1e-5);
            }
        }
        assert!((a.at(&[0, 3, 0]) - b.at(&[0, 3, 0])).abs() > 1e-5);
    }

    #[test]
    fn bidirectional_backbone_sees_future() {
        let (bb, mut rng) = backbone(false);
        let g = Graph::new();
        let pad = vec![vec![false; 6]];
        let a = bb
            .forward(&g, &[vec![1, 2, 3, 4, 5, 6]], &pad, &mut rng, false)
            .value();
        let b = bb
            .forward(&g, &[vec![1, 2, 3, 9, 5, 6]], &pad, &mut rng, false)
            .value();
        // Position 0 changes because attention is bidirectional.
        let mut any_change = false;
        for j in 0..8 {
            if (a.at(&[0, 0, j]) - b.at(&[0, 0, j])).abs() > 1e-6 {
                any_change = true;
            }
        }
        assert!(any_change);
    }
}

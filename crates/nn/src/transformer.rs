//! Stacked self-attention blocks (Eqs. 9–10): the paper's `SAN(·)`.

use autograd::{Ctx, ParamRef};
use rand::rngs::StdRng;
use tensor::Tensor;

use crate::{Activation, Dropout, FeedForward, LayerNorm, Module, MultiHeadSelfAttention, Packing};

/// One SAN block: attention + residual + LayerNorm, FFN + residual +
/// LayerNorm (post-norm, SASRec style).
pub struct TransformerLayer {
    pub(crate) mha: MultiHeadSelfAttention,
    pub(crate) ffn: FeedForward,
    pub(crate) ln1: LayerNorm,
    pub(crate) ln2: LayerNorm,
    pub(crate) dropout: Dropout,
}

impl TransformerLayer {
    /// Creates one encoder layer with FFN hidden size `4·dim`… scaled down:
    /// the paper uses hidden = dim (SASRec convention), which we follow.
    pub fn new(rng: &mut StdRng, name: &str, dim: usize, heads: usize, dropout: f32) -> Self {
        TransformerLayer {
            mha: MultiHeadSelfAttention::new(rng, &format!("{name}.mha"), dim, heads, dropout),
            ffn: FeedForward::new(
                rng,
                &format!("{name}.ffn"),
                dim,
                dim,
                Activation::Relu,
                dropout,
            ),
            ln1: LayerNorm::new(&format!("{name}.ln1"), dim),
            ln2: LayerNorm::new(&format!("{name}.ln2"), dim),
            dropout: Dropout::new(dropout),
        }
    }
}

/// The rows the top layer of a packed encoder forward outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopRows {
    /// Every packed row.
    All,
    /// Each segment's last row, `[b, dim]`: all a next-item query reads.
    /// The other rows' keys and values are still computed (the last rows
    /// attend over them), but not their queries, attention, `W^O`,
    /// LayerNorms or FFN. Eval only.
    Last,
}

impl TransformerLayer {
    /// The block over rows `x` whose attention mixes their projections as
    /// `mix((q, k, v), rng)` does; every other op is row-wise. `rows` is
    /// the packing the rows are, if any: dropout masks are drawn at its
    /// padded shape (see [`Dropout::apply_rows`]). `out` selects the rows
    /// the block outputs (all when `None`): only they get queries, and the
    /// keys and values stay those of every row. GEMM rows are independent,
    /// so a selected row's output has the bits it has among all rows.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn forward_rows<C: Ctx>(
        &self,
        c: &C,
        x: &C::V,
        rows: Option<&Packing>,
        out: Option<&[usize]>,
        rng: &mut StdRng,
        training: bool,
        mix: impl FnOnce((&C::V, &C::V, &C::V), &mut StdRng) -> C::V,
    ) -> C::V {
        assert!(
            out.is_none() || !training,
            "dropout masks cover every row, so a selection is eval only"
        );
        let selected = out.map(|r| c.select_rows(x, r));
        let xo = selected.as_ref().unwrap_or(x);
        let (q, k, v) = self.mha.qkv(c, xo, x);
        let attn = self.mha.wo.forward(c, &mix((&q, &k, &v), rng));
        let attn = self.dropout.apply_rows(c, attn, rows, rng, training);
        let h = self.ln1.forward(c, &c.add(xo, &attn));
        let ff = self.ffn.forward_rows(c, &h, rows, rng, training);
        self.ln2.forward(c, &c.add(&h, &ff))
    }

    /// Applies the block to `x: [b, n, dim]` with an optional additive
    /// attention mask: the dense reference of the packed forward.
    pub fn forward<C: Ctx>(
        &self,
        c: &C,
        x: &C::V,
        mask: Option<&Tensor>,
        rng: &mut StdRng,
        training: bool,
    ) -> C::V {
        self.forward_rows(c, x, None, None, rng, training, |qkv, rng| {
            self.mha.mix_dense(c, qkv, mask, rng, training)
        })
    }
}

impl Module for TransformerLayer {
    fn parameters(&self) -> Vec<ParamRef> {
        let mut ps = self.mha.parameters();
        ps.extend(self.ffn.parameters());
        ps.extend(self.ln1.parameters());
        ps.extend(self.ln2.parameters());
        ps
    }
}

/// A stack of [`TransformerLayer`]s: `F^(l) = SAN(F^(l−1))` (Eq. 10).
pub struct TransformerEncoder {
    pub(crate) layers: Vec<TransformerLayer>,
}

impl TransformerEncoder {
    /// Creates `n_layers` stacked blocks.
    pub fn new(
        rng: &mut StdRng,
        name: &str,
        n_layers: usize,
        dim: usize,
        heads: usize,
        dropout: f32,
    ) -> Self {
        let layers = (0..n_layers)
            .map(|i| TransformerLayer::new(rng, &format!("{name}.layer{i}"), dim, heads, dropout))
            .collect();
        TransformerEncoder { layers }
    }

    /// Number of layers.
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// The layers, bottom first.
    pub fn layers(&self) -> &[TransformerLayer] {
        &self.layers
    }

    /// Runs the stack over the packed rows `x: [R, dim]` of `pack` (see
    /// [`Packing`]); no row is padding.
    pub fn forward<C: Ctx>(
        &self,
        c: &C,
        x: &C::V,
        pack: &Packing,
        rng: &mut StdRng,
        training: bool,
    ) -> C::V {
        self.forward_keeping(c, x, pack, TopRows::All, rng, training, |_, _| {})
    }

    /// The eval [`forward`](Self::forward) whose top layer outputs only
    /// each sequence's last row: `[b, dim]`, bitwise those rows of the
    /// full output. No sequence may be empty.
    pub fn forward_last<C: Ctx>(&self, c: &C, x: &C::V, pack: &Packing, rng: &mut StdRng) -> C::V {
        self.forward_keeping(c, x, pack, TopRows::Last, rng, false, |_, _| {})
    }

    /// [`forward`](Self::forward) with the top layer's output rows `top`,
    /// handing each layer's key and value rows `[R, dim]` to `keep`, bottom
    /// layer first.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn forward_keeping<C: Ctx>(
        &self,
        c: &C,
        x: &C::V,
        pack: &Packing,
        top: TopRows,
        rng: &mut StdRng,
        training: bool,
        mut keep: impl FnMut(&C::V, &C::V),
    ) -> C::V {
        let last = (top == TopRows::Last).then(|| pack.segments().last_rows());
        let Some(top_layer) = self.layers.len().checked_sub(1) else {
            return last.map_or_else(|| x.clone(), |r| c.select_rows(x, &r));
        };
        let mut h = x.clone();
        for (i, layer) in self.layers.iter().enumerate() {
            let mha = &layer.mha;
            let out = last.as_deref().filter(|_| i == top_layer);
            h = layer.forward_rows(c, &h, Some(pack), out, rng, training, |(q, k, v), rng| {
                keep(k, v);
                let segs = pack.segments();
                if out.is_some() {
                    return c.seg_attention_last(q, k, v, segs, mha.heads);
                }
                // Each sequence attends within its own rows: one segmented
                // attention op for the whole batch.
                let drop = mha.dropout.attention_keep(pack, mha.heads, rng, training);
                c.seg_attention(q, k, v, segs, mha.heads, drop.as_ref())
            });
        }
        h
    }
}

impl Module for TransformerEncoder {
    fn parameters(&self) -> Vec<ParamRef> {
        self.layers.iter().flat_map(|l| l.parameters()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causal_mask;
    use autograd::{GradientSet, Graph, Parameter, Var};
    use rand::SeedableRng;
    use tensor::{init, ops};

    fn dense(b: usize, n: usize, causal: bool) -> Packing {
        Packing::new(&vec![vec![false; n]; b], causal)
    }

    #[test]
    fn encoder_shape_and_param_count() {
        let mut rng = StdRng::seed_from_u64(0);
        let enc = TransformerEncoder::new(&mut rng, "enc", 2, 8, 2, 0.1);
        assert_eq!(enc.n_layers(), 2);
        let g = Graph::new();
        let x = g.constant(init::randn(&mut rng, vec![10, 8], 0.0, 1.0));
        let y = enc.forward(&g, &x, &dense(2, 5, true), &mut rng, false);
        assert_eq!(y.dims(), vec![10, 8]);
        // per layer: 4 attn mats + 4 ffn tensors + 2×2 layernorm = 12
        assert_eq!(enc.parameters().len(), 24);
    }

    #[test]
    fn training_with_dropout_differs_from_eval() {
        let mut rng = StdRng::seed_from_u64(0);
        let enc = TransformerEncoder::new(&mut rng, "enc", 1, 4, 2, 0.5);
        let g = Graph::new();
        let x = g.constant(init::randn(&mut rng, vec![3, 4], 0.0, 1.0));
        let pack = dense(1, 3, false);
        let mut r1 = StdRng::seed_from_u64(1);
        let mut r2 = StdRng::seed_from_u64(1);
        let ytrain = enc.forward(&g, &x, &pack, &mut r1, true).value();
        let yeval = enc.forward(&g, &x, &pack, &mut r2, false).value();
        assert_ne!(ytrain.data(), yeval.data());
    }

    #[test]
    fn deterministic_per_seed() {
        let mut rng1 = StdRng::seed_from_u64(9);
        let mut rng2 = StdRng::seed_from_u64(9);
        let e1 = TransformerEncoder::new(&mut rng1, "e", 1, 4, 2, 0.0);
        let e2 = TransformerEncoder::new(&mut rng2, "e", 1, 4, 2, 0.0);
        let g = Graph::new();
        let x = Tensor::ones(vec![2, 4]);
        let pack = dense(1, 2, true);
        let y1 = e1
            .forward(&g, &g.constant(x.clone()), &pack, &mut rng1, false)
            .value();
        let y2 = e2
            .forward(&g, &g.constant(x), &pack, &mut rng2, false)
            .value();
        assert_eq!(y1.data(), y2.data());
    }

    /// The padded encoder the packed one replaced: additive key-padding
    /// (plus causal) mask, and a timeline mask zeroing padded rows before
    /// and after every layer.
    fn padded_forward(
        enc: &TransformerEncoder,
        g: &Graph,
        x: &Var,
        pad: &[Vec<bool>],
        heads: usize,
        causal: bool,
        rng: &mut StdRng,
    ) -> Var {
        let (b, n) = (pad.len(), pad[0].len());
        let mut keys = Tensor::zeros(vec![b * heads, 1, n]);
        let mut timeline = Tensor::ones(vec![b, n, 1]);
        for (bi, row) in pad.iter().enumerate() {
            for (j, _) in row.iter().enumerate().filter(|(_, &p)| p) {
                for h in 0..heads {
                    keys.data_mut()[(bi * heads + h) * n + j] = -1e9;
                }
                timeline.data_mut()[bi * n + j] = 0.0;
            }
        }
        let mask = if causal {
            ops::add(&keys, &causal_mask(n)).unwrap()
        } else {
            keys
        };
        let mut h = x.mul_const(&timeline);
        for layer in &enc.layers {
            h = layer.forward(g, &h, Some(&mask), rng, true);
            h = h.mul_const(&timeline);
        }
        h
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Runs one training step (dropout on, a random upstream gradient on
    /// every output row, padding included) both ways and returns
    /// `(outputs, parameter and input gradients)`.
    fn step(
        pad: &[Vec<bool>],
        causal: bool,
        packed: bool,
    ) -> (Tensor, GradientSet, Vec<autograd::ParamRef>) {
        let (b, n, dim, heads) = (pad.len(), pad[0].len(), 8, 2);
        let mut rng = StdRng::seed_from_u64(11);
        let enc = TransformerEncoder::new(&mut rng, "enc", 2, dim, heads, 0.3);
        let x = Parameter::shared("x", init::randn(&mut rng, vec![b, n, dim], 0.0, 1.0));
        let seed = init::randn(&mut rng, vec![b, n, dim], 0.0, 1.0);
        let g = Graph::new();
        let xv = g.param(&x);
        let mut drop_rng = StdRng::seed_from_u64(5);
        let out = if packed {
            let pack = Packing::new(pad, causal);
            let h = enc.forward(&g, &pack.pack(&g, &xv), &pack, &mut drop_rng, true);
            pack.unpack(&g, &h)
        } else {
            padded_forward(&enc, &g, &xv, pad, heads, causal, &mut drop_rng)
        };
        let grads = out.mul_const(&seed).sum_all().backward_collect();
        let mut params = enc.parameters();
        params.push(x);
        (out.value(), grads, params)
    }

    fn assert_packed_matches_padded(pad: &[Vec<bool>], causal: bool) {
        let (want, want_g, params) = step(pad, causal, false);
        let (got, got_g, got_params) = step(pad, causal, true);
        let d = want.dims()[2];
        let flat_pad: Vec<bool> = pad.iter().flatten().copied().collect();
        for (cell, &is_pad) in flat_pad.iter().enumerate() {
            let (w, g) = (&want.data()[cell * d..][..d], &got.data()[cell * d..][..d]);
            if is_pad {
                assert!(w.iter().chain(g).all(|&v| v == 0.0), "padding row {cell}");
            } else {
                assert!(
                    w.iter().zip(g).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "real row {cell}"
                );
            }
        }
        for (p, q) in params.iter().zip(&got_params) {
            let name = p.borrow().name.clone();
            let (a, b) = (want_g.get(p), got_g.get(q));
            match (a, b) {
                (Some(a), Some(b)) if name == "x" => {
                    // Padded input rows get ±0 one way and +0 the other.
                    assert!(a.data().iter().zip(b.data()).all(|(u, v)| u == v), "{name}");
                }
                (Some(a), Some(b)) => assert!(bits(a) == bits(b), "gradient of {name}"),
                (a, b) => panic!("{name}: {} vs {}", a.is_some(), b.is_some()),
            }
        }
    }

    /// The top layer on each segment's last row only gives those rows of
    /// the full forward bit for bit: recorded and eager, causal or not,
    /// 0 to 2 layers, SIMD on and off. A cache begun that way holds the
    /// same keys and values, so an append after it matches too.
    #[test]
    fn last_rows_match_the_full_forward_bit_for_bit() {
        use crate::infer::eval_rng;
        use autograd::Eager;
        let (f, t) = (false, true);
        let pad = vec![
            vec![t, t, f, f, f, f],
            vec![f, f, f, f, f, f],
            vec![t, t, t, t, t, f],
        ];
        let was = tensor::tuning::simd_enabled();
        for simd in [true, false] {
            tensor::tuning::set_simd_enabled(simd);
            for layers in 0..=2 {
                for causal in [true, false] {
                    let case = format!("simd {simd}, {layers} layers, causal {causal}");
                    let mut rng = StdRng::seed_from_u64(layers as u64);
                    let enc = TransformerEncoder::new(&mut rng, "enc", layers, 8, 2, 0.3);
                    let pack = Packing::new(&pad, causal);
                    let x = init::randn(&mut rng, vec![pack.rows(), 8], 0.0, 1.0);
                    let g = Graph::new();
                    let xv = g.constant(x.clone());
                    let full = enc.forward(&g, &xv, &pack, &mut eval_rng(), false);
                    let want = bits(&pack.last_rows(&g, &full).value());
                    let recorded = enc.forward_last(&g, &xv, &pack, &mut eval_rng());
                    assert_eq!(bits(&recorded.value()), want, "recorded, {case}");
                    let eager = enc.forward_last(&Eager, &x, &pack, &mut eval_rng());
                    assert_eq!(bits(&eager), want, "eager, {case}");
                    if layers == 0 || !causal {
                        continue;
                    }
                    let seq = Packing::left_aligned(5);
                    let xs = init::randn(&mut rng, vec![5, 8], 0.0, 1.0);
                    let (mut kv_all, rows) = enc.begin_top(&xs, &seq, 6, TopRows::All);
                    let (mut kv_last, last) = enc.begin_top(&xs, &seq, 6, TopRows::Last);
                    assert_eq!(bits(&last), bits(&seq.last_rows(&Eager, &rows)), "{case}");
                    let next = init::randn(&mut rng, vec![1, 8], 0.0, 1.0);
                    let a = enc.append(&next, &mut [&mut kv_all]);
                    let b = enc.append(&next, &mut [&mut kv_last]);
                    assert_eq!(bits(&a), bits(&b), "append after begin, {case}");
                }
            }
        }
        tensor::tuning::set_simd_enabled(was);
    }

    #[test]
    fn packed_step_matches_the_padded_encoder_bit_for_bit() {
        let f = false;
        let t = true;
        let pads: Vec<Vec<Vec<bool>>> = vec![
            // Left padding at several depths, one full window, one L = 1.
            vec![
                vec![t, t, t, f, f, f],
                vec![f, f, f, f, f, f],
                vec![t, t, t, t, t, f],
                vec![t, f, f, f, f, f],
            ],
            // Pad cells in the middle and at the end, and an all-padding
            // sequence last, so the masks' trailing draws are padding.
            vec![
                vec![f, t, f, f, t, f],
                vec![t, f, t, f, f, t],
                vec![t, t, t, t, t, t],
            ],
        ];
        for pad in &pads {
            for causal in [true, false] {
                assert_packed_matches_padded(pad, causal);
            }
        }
    }
}

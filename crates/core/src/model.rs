//! The Meta-SGCL model: backbone encoder, VAE heads (`Enc_μ`, `Enc_σ`,
//! `Enc_σ'`), Seq2Seq decoder, and catalog scoring.

use autograd::{Ctx, Graph, ParamRef, Var, IGNORE_INDEX};
use models::backbone::TransformerBackbone;
use models::vae::standard_normal_rows;
use nn::infer::eval_rng;
use nn::{Linear, Module, Packing, TransformerEncoder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recdata::{encode_input_only, item_crop, item_mask, item_reorder, Batch, ItemId};
use tensor::Tensor;

use crate::config::{MetaSgclConfig, SecondView};
use crate::train::TrainingHistory;

/// One latent view and its decoder output.
pub(crate) struct View {
    /// Sequence summary: the latent at the last position (`[b, d]`).
    pub z_last: Var,
    /// Decoder output (`[b, n, d]`): the hidden states the reconstruction
    /// loss scores against the item table (Eq. 22).
    pub h: Var,
    /// Posterior mean (shared across views).
    pub mu: Var,
    /// Posterior log-variance of this view.
    pub logvar: Var,
}

/// What stage 2's contrastive loss (Eq. 26) reads of the frozen model, at
/// the last position only (`[b, d]` each): view 1's sample, and the
/// features, mean and noise the second view samples from.
pub(crate) struct MetaPrefix<V> {
    /// View 1's last-position latent (`Enc_σ`).
    pub z1: V,
    /// Encoder features the second view's variance head reads.
    pub features: V,
    /// Posterior mean of the second view.
    pub mu: V,
    /// The second view's noise at the last position (`[b, d]`): the last
    /// rows of a `[b, n, d]` draw that samples only them.
    pub eps: Tensor,
}

/// The Meta-SGCL sequential recommender. Training records its forward;
/// serving runs the same forward eagerly (see [`crate::infer`]).
pub struct MetaSgcl {
    pub(crate) backbone: TransformerBackbone,
    pub(crate) enc_mu: Linear,
    pub(crate) enc_logvar: Linear,
    /// The meta variance encoder `Enc_σ'`.
    pub(crate) enc_logvar_prime: Linear,
    /// Optional explicit Seq2Seq decoder (see
    /// [`MetaSgclConfig::decoder_layers`]); `None` means the Eq. 22 path
    /// `ŷ = z·Mᵀ`.
    pub(crate) decoder: Option<TransformerEncoder>,
    pub(crate) cfg: MetaSgclConfig,
    pub(crate) history: TrainingHistory,
}

impl MetaSgcl {
    /// Builds an untrained Meta-SGCL from a configuration.
    pub fn new(cfg: MetaSgclConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.net.seed);
        let backbone = TransformerBackbone::new(
            &mut rng,
            "metasgcl",
            cfg.net.num_items + 1,
            cfg.net.max_len,
            cfg.net.dim,
            cfg.net.heads,
            cfg.net.layers,
            cfg.net.dropout,
            true,
        );
        let enc_mu = Linear::new(&mut rng, "metasgcl.enc_mu", cfg.net.dim, cfg.net.dim, true);
        let enc_logvar = Linear::new(
            &mut rng,
            "metasgcl.enc_logvar",
            cfg.net.dim,
            cfg.net.dim,
            true,
        );
        let enc_logvar_prime = Linear::new(
            &mut rng,
            "metasgcl.enc_logvar_prime",
            cfg.net.dim,
            cfg.net.dim,
            true,
        );
        // Start both variance heads small (σ ≈ e^{-2} ≈ 0.14) so early
        // reconstruction is not drowned by reparameterization noise.
        for head in [&enc_logvar, &enc_logvar_prime] {
            head.parameters()[1].borrow_mut().value = tensor::Tensor::full(vec![cfg.net.dim], -4.0);
        }
        let decoder = (cfg.decoder_layers > 0).then(|| {
            TransformerEncoder::new(
                &mut rng,
                "metasgcl.dec",
                cfg.decoder_layers,
                cfg.net.dim,
                cfg.net.heads,
                cfg.net.dropout,
            )
        });
        let _ = rng; // backbone construction consumed the seeded stream
        MetaSgcl {
            backbone,
            enc_mu,
            enc_logvar,
            enc_logvar_prime,
            decoder,
            cfg,
            history: TrainingHistory::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MetaSgclConfig {
        &self.cfg
    }

    /// Per-epoch loss history (populated by `fit`).
    pub fn history(&self) -> &TrainingHistory {
        &self.history
    }

    /// The item embedding table (Fig. 6 analytics).
    pub fn item_table(&self) -> &ParamRef {
        self.backbone.item_table()
    }

    /// Stage-1 parameters: backbone + `Enc_μ` + `Enc_σ` + decoder.
    pub fn main_parameters(&self) -> Vec<ParamRef> {
        let mut ps = self.backbone.parameters();
        ps.extend(self.enc_mu.parameters());
        ps.extend(self.enc_logvar.parameters());
        if let Some(dec) = &self.decoder {
            ps.extend(dec.parameters());
        }
        ps
    }

    /// Stage-2 (meta) parameters: `Enc_σ'` only.
    pub fn meta_parameters(&self) -> Vec<ParamRef> {
        self.enc_logvar_prime.parameters()
    }

    /// All parameters.
    pub fn all_parameters(&self) -> Vec<ParamRef> {
        let mut ps = self.main_parameters();
        ps.extend(self.meta_parameters());
        ps
    }

    fn set_trainable(params: &[ParamRef], trainable: bool) {
        for p in params {
            p.borrow_mut().trainable = trainable;
        }
    }

    /// Freezes/unfreezes the stage-1 modules (meta stage 2 freezing).
    pub(crate) fn set_main_trainable(&self, trainable: bool) {
        Self::set_trainable(&self.main_parameters(), trainable);
    }

    /// Freezes/unfreezes `Enc_σ'` (frozen during stage 1).
    pub(crate) fn set_meta_trainable(&self, trainable: bool) {
        Self::set_trainable(&self.meta_parameters(), trainable);
    }

    /// Builds one training view from encoder features (Eqs. 11–15) and
    /// runs the Seq2Seq decoder (Eq. 13). `meta_sigma` selects `Enc_σ'`
    /// instead of `Enc_σ`. The noise is sampled only at the `read` cells
    /// (see [`noise_cells`]). Deterministic scoring (`z = μ`) does not build
    /// a view: see `padded_last_hidden`.
    pub(crate) fn view(
        &self,
        g: &Graph,
        features: &Var,
        pack: &Packing,
        read: &[bool],
        meta_sigma: bool,
        rng: &mut StdRng,
    ) -> View {
        let mu = self.enc_mu.forward(g, features);
        let head = if meta_sigma {
            &self.enc_logvar_prime
        } else {
            &self.enc_logvar
        };
        let eps = standard_normal_rows(&mu.dims(), |cell| read[cell], rng);
        let (logvar, z) = Self::reparameterize(g, head, features, &mu, &eps);
        // Decode: either the explicit Transformer decoder over the latent
        // sequence's real rows (the encoder's packing), or the Eq. 22 path
        // scoring the latent directly against the tied item table.
        let h = match &self.decoder {
            Some(dec) => {
                let rows = dec.forward(g, &pack.pack(g, &z), pack, rng, true);
                pack.unpack(g, &rows)
            }
            None => z.clone(),
        };
        View {
            z_last: TransformerBackbone::last_hidden(&z),
            h,
            mu,
            logvar,
        }
    }

    /// Both latent views of a batch from one encoder pass (Eqs. 11–15):
    /// view 1 samples with `Enc_σ`, view 2 with the configured generator.
    pub(crate) fn views(&self, g: &Graph, batch: &Batch, rng: &mut StdRng) -> (View, View) {
        let pack = self.backbone.packing(&batch.pad);
        let features = pack.unpack(g, &self.encode(g, &batch.inputs, &pack, rng));
        let read = noise_cells(&pack, &batch.targets);
        let v1 = self.view(g, &features, &pack, &read, false, rng);
        let v2 = match self.second_features(g, batch, rng) {
            None => self.view(g, &features, &pack, &read, true, rng),
            Some((f2, pack2)) => {
                let f2 = pack2.unpack(g, &f2);
                let read2 = noise_cells(&pack2, &batch.targets);
                self.view(g, &f2, &pack2, &read2, false, rng)
            }
        };
        (v1, v2)
    }

    /// Saves all parameters to a checkpoint file.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        nn::io::save_parameters(path, &self.all_parameters())
    }

    /// Restores all parameters from a checkpoint produced by
    /// [`MetaSgcl::save`] on an identically-configured model.
    pub fn load(&mut self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        nn::io::load_parameters(path, &self.all_parameters())
    }

    /// Deterministic catalog scores for one interaction history.
    ///
    /// Takes `&self`: parameters are only read (through their `RwLock`
    /// read guards), so any number of threads may score concurrently.
    pub fn score_sequence(&self, seq: &[ItemId]) -> Vec<f32> {
        if seq.is_empty() {
            return vec![0.0; self.cfg.net.num_items + 1];
        }
        let g = Graph::new();
        let logits = self.backbone.scores(&g, &self.padded_last_hidden(&g, seq));
        logits.value().row(0)[..self.cfg.net.num_items + 1].to_vec()
    }

    /// Deterministic catalog scores under *left-aligned* (incremental
    /// serving) semantics: the window is the last `max_len` items with
    /// positions `0..len` and no padding, encoded via
    /// [`TransformerBackbone::forward_left_aligned`]. This is the recorded
    /// reference the eager incremental path is gated against bitwise.
    ///
    /// This is a *different* windowing than [`MetaSgcl::score_sequence`]'s
    /// right-anchored positions, and not an equally good one: the model is
    /// trained only on right-anchored positions, and scoring this way
    /// measured 2.6–4.6% lower validation NDCG@10 than `score_sequence` on
    /// the same checkpoints (ROADMAP item 3). The two agree only when
    /// `seq.len() == max_len` exactly fills the window.
    pub fn score_left_aligned(&self, seq: &[ItemId]) -> Vec<f32> {
        if seq.is_empty() {
            return vec![0.0; self.cfg.net.num_items + 1];
        }
        let window = &seq[seq.len().saturating_sub(self.cfg.net.max_len)..];
        let g = Graph::new();
        let mut rng = eval_rng();
        let features = self
            .backbone
            .forward_left_aligned(&g, window, &mut rng, false);
        let mu = self.enc_mu.forward(&g, &features);
        let h = match &self.decoder {
            Some(dec) => {
                let pack = Packing::left_aligned(window.len());
                let rows = dec.forward(&g, &pack.pack(&g, &mu), &pack, &mut rng, false);
                pack.unpack(&g, &rows)
            }
            None => mu,
        };
        let logits = self
            .backbone
            .scores(&g, &TransformerBackbone::last_hidden(&h));
        logits.value().row(0)[..self.cfg.net.num_items + 1].to_vec()
    }
}

/// The cells of a `[b, n]` batch at which a training view's sample `z` is
/// read, as a flat `b·n` mask: the cells `pack` holds (the decoder's
/// input), the cells with a real target (the reconstruction's rows without
/// a decoder; an augmented view can hold some of them as padding), and
/// every row's last column, which `z_last` reads even when it is padding.
/// The noise is sampled only there; see DESIGN §6 for why the other cells'
/// `+0.0` changes no loss or gradient bit.
pub(crate) fn noise_cells(pack: &Packing, targets: &[Vec<usize>]) -> Vec<bool> {
    let n = pack.window();
    let mut read: Vec<bool> = targets
        .iter()
        .flatten()
        .map(|&t| t != IGNORE_INDEX)
        .collect();
    for &cell in pack.cells() {
        read[cell] = true;
    }
    for row in read.chunks_mut(n.max(1)) {
        if let Some(last) = row.last_mut() {
            *last = true;
        }
    }
    read
}

impl MetaSgcl {
    /// Training encoder pass (dropout on): `F^{(L)}` features of a
    /// batch's real cells, packed as `pack` lists them (Eqs. 4–10).
    pub(crate) fn encode<C: Ctx>(
        &self,
        c: &C,
        inputs: &[Vec<ItemId>],
        pack: &Packing,
        rng: &mut StdRng,
    ) -> C::V {
        self.backbone.forward_packed(c, inputs, pack, rng, true)
    }

    /// The reparameterised sample of Eqs. 14–15: `head` gives the clamped
    /// log-variance, and `z = μ + exp(½·logvar) ⊙ eps`. Returns
    /// `(logvar, z)`.
    pub(crate) fn reparameterize<C: Ctx>(
        c: &C,
        head: &Linear,
        features: &C::V,
        mu: &C::V,
        eps: &Tensor,
    ) -> (C::V, C::V) {
        let logvar = c.clamp(&head.forward(c, features), -8.0, 8.0);
        let sigma = c.exp(&c.scale(&logvar, 0.5));
        let z = c.add(mu, &c.mul_const(&sigma, eps));
        (logvar, z)
    }

    /// Packed encoder features of the second view when it does not sample
    /// from view 1's (`None` for `Enc_σ'`), with the packing they were
    /// encoded under: a second dropout pass, or a pass over a
    /// hand-augmented copy of the batch.
    pub(crate) fn second_features<C: Ctx>(
        &self,
        c: &C,
        batch: &Batch,
        rng: &mut StdRng,
    ) -> Option<(C::V, Packing)> {
        match self.cfg.second_view {
            SecondView::MetaSigma => None,
            SecondView::Dropout => {
                // Model augmentation: a fresh dropout-perturbed encoder
                // pass feeding the primary (Enc_σ) posterior.
                let pack = self.backbone.packing(&batch.pad);
                Some((self.encode(c, &batch.inputs, &pack, rng), pack))
            }
            SecondView::DataAugmentation => {
                let (inputs, pads) = self.augment(batch, rng);
                let pack = self.backbone.packing(&pads);
                Some((self.encode(c, &inputs, &pack, rng), pack))
            }
        }
    }

    /// Hand-crafted augmentation of the raw inputs (crop, mask or
    /// reorder, one drawn per sequence). The mask token is out of
    /// vocabulary here, so masked items fall back to the padding id.
    fn augment(&self, batch: &Batch, rng: &mut StdRng) -> (Vec<Vec<ItemId>>, Vec<Vec<bool>>) {
        let max_len = self.cfg.net.max_len;
        let n_items = self.cfg.net.num_items;
        let mut inputs = Vec::with_capacity(batch.len());
        let mut pads = Vec::with_capacity(batch.len());
        for input in &batch.inputs {
            let raw: Vec<ItemId> = input.iter().copied().filter(|&x| x != 0).collect();
            let aug: Vec<ItemId> = match rng.gen_range(0..3) {
                0 => item_crop(&raw, 0.8, rng),
                1 => item_mask(&raw, 0.2, n_items, rng)
                    .into_iter()
                    .map(|x| if x > n_items { 0 } else { x })
                    .collect(),
                _ => item_reorder(&raw, 0.3, rng),
            };
            let (inp, pd) = encode_input_only(&aug, max_len);
            inputs.push(inp);
            pads.push(pd);
        }
        (inputs, pads)
    }

    /// The part of stage 2 that no trainable weight feeds (Eq. 26's
    /// inputs up to the second view's variance head), on the last
    /// position only: the heads and the reparameterisation are
    /// row-independent, and the contrastive loss reads only `z_last`.
    ///
    /// Training runs it eagerly over the model's own weights, which stage 2
    /// does not write until its shards merge; the auditor runs it on the
    /// tape. Each view's noise is sampled only at the last column of
    /// its `[b, n, d]` draw; the other cells only advance the generator
    /// ([`standard_normal_rows`]). So the last rows hold the bits the
    /// full-row views draw there, and the RNG stream is that of the full
    /// views minus the decoder, whose output stage 2 never reads.
    pub(crate) fn meta_prefix<C: Ctx>(
        &self,
        c: &C,
        batch: &Batch,
        rng: &mut StdRng,
    ) -> MetaPrefix<C::V> {
        let n = batch.seq_len();
        let noise_dims = [batch.len(), n, self.cfg.net.dim];
        let last_noise = |rng: &mut StdRng| {
            let eps = standard_normal_rows(&noise_dims, |cell| cell % n == n - 1, rng);
            TransformerBackbone::last_hidden(&eps)
        };
        let pack = self.backbone.packing(&batch.pad);
        let features = pack.last_rows(c, &self.encode(c, &batch.inputs, &pack, rng));
        let mu = self.enc_mu.forward(c, &features);
        let eps1 = last_noise(rng);
        let (_, z1) = Self::reparameterize(c, &self.enc_logvar, &features, &mu, &eps1);
        let (features, mu) = match self.second_features(c, batch, rng) {
            None => (features, mu),
            Some((f2, pack2)) => {
                let f2 = pack2.last_rows(c, &f2);
                let mu2 = self.enc_mu.forward(c, &f2);
                (f2, mu2)
            }
        };
        MetaPrefix {
            z1,
            features,
            mu,
            eps: last_noise(rng),
        }
    }

    /// Deterministic (`z = μ`) hidden state `[1, d]` at the last position
    /// of the right-anchored padded window: the query side of Eq. 22 that
    /// offline scoring and serving share. `seq` must be non-empty.
    ///
    /// The window is one segment of its `L ≤ max_len` real rows, each at
    /// its right-anchored position, so a history of `L` items encodes `L`
    /// rows. Only the last row leaves the top layer: the backbone's
    /// without a decoder, which then goes alone through `Enc_μ`; the
    /// decoder's with one, whose input is every row's `μ`.
    pub(crate) fn padded_last_hidden<C: Ctx>(&self, c: &C, seq: &[ItemId]) -> C::V {
        let (input, pad) = encode_input_only(seq, self.cfg.net.max_len);
        let pack = self.backbone.packing(&[pad]);
        let mut rng = eval_rng();
        match &self.decoder {
            Some(dec) => {
                let features = self
                    .backbone
                    .forward_packed(c, &[input], &pack, &mut rng, false);
                let mu = self.enc_mu.forward(c, &features);
                dec.forward_last(c, &mu, &pack, &mut rng)
            }
            None => {
                let last = self.backbone.forward_last(c, &[input], &pack, &mut rng);
                self.enc_mu.forward(c, &last)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MetaSgclConfig;
    use models::NetConfig;

    fn small() -> MetaSgcl {
        MetaSgcl::new(MetaSgclConfig {
            net: NetConfig {
                max_len: 6,
                dim: 8,
                layers: 1,
                ..NetConfig::for_items(10)
            },
            ..MetaSgclConfig::for_items(10)
        })
    }

    #[test]
    fn parameter_partition_is_disjoint_and_complete() {
        let m = small();
        let main = m.main_parameters();
        let meta = m.meta_parameters();
        let all = m.all_parameters();
        assert_eq!(main.len() + meta.len(), all.len());
        assert_eq!(meta.len(), 2); // Enc_σ' weight + bias
        for mp in &meta {
            assert!(
                !main.iter().any(|p| autograd::ParamRef::ptr_eq(p, mp)),
                "meta param leaked into main set"
            );
        }
    }

    #[test]
    fn freezing_toggles_trainable_flags() {
        let m = small();
        m.set_main_trainable(false);
        assert!(m.main_parameters().iter().all(|p| !p.borrow().trainable));
        assert!(m.meta_parameters().iter().all(|p| p.borrow().trainable));
        m.set_main_trainable(true);
        m.set_meta_trainable(false);
        assert!(m.main_parameters().iter().all(|p| p.borrow().trainable));
        assert!(m.meta_parameters().iter().all(|p| !p.borrow().trainable));
        m.set_meta_trainable(true);
    }

    #[test]
    fn views_share_mu_but_differ_in_variance_head() {
        let mut m = small();
        let g = Graph::new();
        let mut rng = StdRng::seed_from_u64(1);
        let inputs = vec![vec![0, 0, 1, 2, 3, 4]];
        let pack = m
            .backbone
            .packing(&[vec![true, true, false, false, false, false]]);
        let f = pack.unpack(&g, &m.encode(&g, &inputs, &pack, &mut rng));
        let read = vec![true; 6];
        let v1 = m.view(&g, &f, &pack, &read, false, &mut rng);
        let v2 = m.view(&g, &f, &pack, &read, true, &mut rng);
        assert_eq!(v1.mu.value().data(), v2.mu.value().data(), "μ is shared");
        assert_ne!(
            v1.logvar.value().data(),
            v2.logvar.value().data(),
            "σ and σ' heads differ"
        );
        let _ = &mut m;
    }

    #[test]
    fn deterministic_scoring_is_stable() {
        let m = small();
        let a = m.score_sequence(&[1, 2, 3]);
        let b = m.score_sequence(&[1, 2, 3]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 11);
        assert_eq!(m.score_sequence(&[]).len(), 11);
    }

    #[test]
    fn stochastic_views_differ_between_draws() {
        let mut m = small();
        let g = Graph::new();
        let mut rng = StdRng::seed_from_u64(2);
        let inputs = vec![vec![1, 2, 3, 4, 5, 6]];
        let pack = m.backbone.packing(&[vec![false; 6]]);
        let f = pack.unpack(&g, &m.encode(&g, &inputs, &pack, &mut rng));
        let read = vec![true; 6];
        let v1 = m.view(&g, &f, &pack, &read, false, &mut rng);
        let v2 = m.view(&g, &f, &pack, &read, false, &mut rng);
        assert_ne!(v1.h.value().data(), v2.h.value().data());
        let _ = &mut m;
    }
}

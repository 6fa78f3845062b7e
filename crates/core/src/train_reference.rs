//! Bitwise references for the row-pruned training forwards.
//!
//! Stage 1 scores only the rows with a real next item and samples the
//! reparameterisation noise only at the cells its losses read; stage 2
//! runs its frozen prefix eagerly on the last position only. Both claim to
//! keep every output bit. These tests rebuild each objective the full-row
//! way on one tape (every position scored; every cell's noise drawn; the
//! whole frozen encoder and every head row recorded) and compare the loss
//! and every gradient by bits, with and without an explicit decoder, for
//! every second view, and on a batch with an all-padding row.

use autograd::{Eager, GradientSet, Graph, Var, IGNORE_INDEX};
use models::backbone::TransformerBackbone;
use models::cl::info_nce_masked;
use models::sampled::{self, NegativeSampler, SoftmaxMode};
use models::vae::{gaussian_kl, standard_normal_like};
use models::NetConfig;
use nn::{Linear, Packing};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recdata::{Batch, Batcher, ItemId};

use crate::config::{MetaSgclConfig, SecondView};
use crate::model::{MetaSgcl, View};

const ITEMS: usize = 23;
const MAX_LEN: usize = 7;

fn model(seed: u64, second_view: SecondView, decoder_layers: usize) -> MetaSgcl {
    MetaSgcl::new(MetaSgclConfig {
        net: NetConfig {
            max_len: MAX_LEN,
            dim: 12,
            heads: 2,
            layers: 2,
            dropout: 0.2,
            seed,
            ..NetConfig::for_items(ITEMS)
        },
        alpha: 0.3,
        beta: 0.2,
        second_view,
        decoder_layers,
        ..MetaSgclConfig::for_items(ITEMS)
    })
}

/// One batch of 16 sequences of 2..=10 items, so rows are padded to
/// different depths and some windows are full.
fn batch(seed: u64) -> Batch {
    let mut rng = StdRng::seed_from_u64(seed);
    let seqs: Vec<Vec<ItemId>> = (0..16)
        .map(|_| {
            let len = rng.gen_range(2..=10);
            (0..len).map(|_| rng.gen_range(1..=ITEMS)).collect()
        })
        .collect();
    Batcher::new(seqs, MAX_LEN, 16).epoch(&mut rng).remove(0)
}

/// `batch` with row `row` replaced by an all-padding sequence: `z_last`
/// still reads its last column, and a data-augmented view of it is empty.
fn with_empty_row(batch: &Batch, row: usize) -> Batch {
    let mut b = batch.clone();
    let n = b.seq_len();
    b.inputs[row] = vec![0; n];
    b.targets[row] = vec![IGNORE_INDEX; n];
    b.pad[row] = vec![true; n];
    b
}

/// The shards a test runs: the first shard at each of `sizes`, and the
/// whole batch with an all-padding row in the middle.
fn shards(whole: &Batch, sizes: impl IntoIterator<Item = usize>) -> Vec<(String, Batch)> {
    let mut out: Vec<(String, Batch)> = sizes
        .into_iter()
        .map(|size| (format!("shard {size}"), whole.shard(size).remove(0)))
        .collect();
    out.push(("all-padding row".into(), with_empty_row(whole, 5)));
    out
}

/// Both latent views the full-row way, independent of [`MetaSgcl::views`]:
/// every cell's noise is drawn (`standard_normal_like`), in the order the
/// views consume the generator (encoder, view 1's noise and decoder, the
/// second view's encoder pass, its noise and decoder).
fn reference_views(m: &MetaSgcl, g: &Graph, batch: &Batch, rng: &mut StdRng) -> (View, View) {
    let view = |features: &Var, pack: &Packing, head: &Linear, rng: &mut StdRng| {
        let mu = m.enc_mu.forward(g, features);
        let logvar = head.forward(g, features).clamp(-8.0, 8.0);
        let eps = standard_normal_like(&mu.dims(), rng);
        let z = mu.add(&logvar.scale(0.5).exp().mul_const(&eps));
        let h = match &m.decoder {
            Some(dec) => pack.unpack(g, &dec.forward(g, &pack.pack(g, &z), pack, rng, true)),
            None => z.clone(),
        };
        View {
            z_last: TransformerBackbone::last_hidden(&z),
            h,
            mu,
            logvar,
        }
    };
    let pack = m.backbone.packing(&batch.pad);
    let features = pack.unpack(g, &m.encode(g, &batch.inputs, &pack, rng));
    let v1 = view(&features, &pack, &m.enc_logvar, rng);
    let v2 = match m.second_features(g, batch, rng) {
        None => view(&features, &pack, &m.enc_logvar_prime, rng),
        Some((f2, pack2)) => view(&pack2.unpack(g, &f2), &pack2, &m.enc_logvar, rng),
    };
    (v1, v2)
}

fn bits(t: &tensor::Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

/// Every parameter's gradient is present in both sets or in neither, with
/// the same bits.
fn assert_same_grads(m: &MetaSgcl, want: &GradientSet, got: &GradientSet, what: &str) {
    assert_eq!(want.len(), got.len(), "{what}: gradient count");
    for p in m.all_parameters() {
        let name = p.borrow().name.clone();
        match (want.get(&p), got.get(&p)) {
            (None, None) => {}
            (Some(a), Some(b)) => assert!(bits(a) == bits(b), "{what}: gradient of {name}"),
            (a, b) => panic!(
                "{what}: {name} has a gradient on one side only ({} vs {})",
                a.is_some(),
                b.is_some()
            ),
        }
    }
}

/// Stage 2 the full-tape way: the whole encoder, both views over every
/// position, all on one tape.
fn full_tape_meta_loss(m: &MetaSgcl, g: &Graph, batch: &Batch, rng: &mut StdRng) -> Var {
    let (v1, v2) = reference_views(m, g, batch, rng);
    info_nce_masked(
        &v1.z_last,
        &v2.z_last,
        m.cfg.tau,
        m.cfg.similarity,
        &batch.last_target,
    )
}

/// Stage 1 the full-row way: every position scored against the catalog
/// (or the candidates), padding rows masked out of the loss by
/// `IGNORE_INDEX`. Returns `(total, rec)`.
fn full_row_losses(
    m: &MetaSgcl,
    g: &Graph,
    batch: &Batch,
    beta: f32,
    softmax: &SoftmaxMode,
    rng: &mut StdRng,
) -> (Var, Var) {
    let (b, n) = (batch.len(), batch.seq_len());
    let vocab = m.backbone.vocab();
    let targets = sampled::flat_targets(batch);
    let (v1, v2) = reference_views(m, g, batch, rng);
    let rec = match sampled::draw_candidates(&targets, vocab - 1, softmax, rng) {
        Some(cands) => {
            let table = m.backbone.item_table_var(g);
            let rec1 = sampled::sampled_ce(&v1.h, &table, &targets, &cands);
            let rec2 = sampled::sampled_ce(&v2.h, &table, &targets, &cands);
            rec1.add(&rec2)
        }
        None => {
            let ce = |h: &Var| {
                m.backbone
                    .scores(g, h)
                    .reshape(vec![b * n, vocab])
                    .cross_entropy_with_logits(&targets)
            };
            ce(&v1.h).add(&ce(&v2.h))
        }
    };
    let kl = gaussian_kl(&v1.mu, &v1.logvar).add(&gaussian_kl(&v2.mu, &v2.logvar));
    let cl = info_nce_masked(
        &v1.z_last,
        &v2.z_last,
        m.cfg.tau,
        m.cfg.similarity,
        &batch.last_target,
    );
    let total = rec
        .add(&kl.scale(beta * 0.5))
        .add(&cl.scale(m.cfg.effective_alpha()));
    (total, rec)
}

#[test]
fn stage2_sigma_prime_gradient_matches_the_full_tape() {
    for second_view in [
        SecondView::MetaSigma,
        SecondView::Dropout,
        SecondView::DataAugmentation,
    ] {
        for (seed, decoder_layers) in [(0u64, 0), (1, 0), (2, 0), (3, 1)] {
            let mut m = model(seed, second_view, decoder_layers);
            m.set_main_trainable(false);
            // Stage 2 never reads the decoder and its prefix skips it, its
            // dropout draws included, so the full tape is recorded without
            // it (the other parameters are the same `ParamRef`s).
            let decoder = m.decoder.take();
            for (case, shard) in &shards(&batch(100 + seed), 2..=16) {
                let what =
                    format!("{second_view:?}, seed {seed}, decoder {decoder_layers}, {case}");

                let g = Graph::new();
                let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
                let want_loss = full_tape_meta_loss(&m, &g, shard, &mut rng);
                let want = want_loss.backward_collect();

                let g = Graph::new();
                let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
                let prefix = m.meta_prefix(&Eager, shard, &mut rng);
                let got_loss = m.meta_stage_loss(&g, prefix, shard);
                let got = got_loss.backward_collect();

                assert_eq!(
                    want_loss.item().to_bits(),
                    got_loss.item().to_bits(),
                    "{what}: loss"
                );
                if second_view == SecondView::MetaSigma {
                    assert_eq!(got.len(), 2, "{what}: Enc_σ' weight and bias");
                }
                assert_same_grads(&m, &want, &got, &what);
            }
            m.decoder = decoder;
            m.set_main_trainable(true);
        }
    }
}

#[test]
fn stage1_loss_and_gradients_match_full_rows() {
    let modes = [
        SoftmaxMode::Full,
        SoftmaxMode::Sampled {
            negatives: ITEMS,
            sampler: NegativeSampler::Uniform,
        },
        SoftmaxMode::Sampled {
            negatives: 6,
            sampler: NegativeSampler::LogUniform,
        },
    ];
    let second_views = [
        SecondView::MetaSigma,
        SecondView::Dropout,
        SecondView::DataAugmentation,
    ];
    for softmax in modes {
        for second_view in second_views {
            for (seed, decoder_layers) in [(0u64, 0), (1, 0), (2, 0), (3, 1), (4, 2)] {
                let m = model(seed, second_view, decoder_layers);
                for (case, shard) in &shards(&batch(200 + seed), [3, 8, 16]) {
                    let what = format!(
                        "{softmax:?}, {second_view:?}, seed {seed}, decoder {decoder_layers}, {case}"
                    );

                    let g = Graph::new();
                    let mut rng = StdRng::seed_from_u64(seed ^ 0xbeef);
                    let (want_total, want_rec) =
                        full_row_losses(&m, &g, shard, 0.2, &softmax, &mut rng);
                    let want = want_total.backward_collect();

                    let g = Graph::new();
                    let mut rng = StdRng::seed_from_u64(seed ^ 0xbeef);
                    let got = m.batch_losses(&g, shard, 0.2, &softmax, &mut rng);
                    let got_grads = got.total.backward_collect();

                    assert_eq!(
                        want_rec.item().to_bits(),
                        (got.rec as f32).to_bits(),
                        "{what}: reconstruction loss"
                    );
                    assert_eq!(
                        want_total.item().to_bits(),
                        got.total.item().to_bits(),
                        "{what}: total loss"
                    );
                    // Enc_σ' takes no part in stage 1 when the second view
                    // samples from Enc_σ.
                    let unreached = usize::from(second_view != SecondView::MetaSigma) * 2;
                    assert_eq!(
                        want.len() + unreached,
                        m.all_parameters().len(),
                        "{what}: every parameter is reached"
                    );
                    assert_same_grads(&m, &want, &got_grads, &what);
                }
            }
        }
    }
}

//! Bitwise references for the padding-free backbone.
//!
//! [`TransformerBackbone::forward`] packs a batch's real cells and runs
//! attention per segment. These tests record one training step of every
//! attention-based family twice, through the model's own loss (its
//! [`Auditable::trace_stage`] tape): once packed, and once with the
//! backbone routed to the padded forward it replaced, kept here — an
//! additive key-padding (plus causal) mask over `[b·h, n, n]` scores and a
//! timeline mask zeroing padded rows around every layer. The loss and
//! every parameter gradient must agree bit for bit.

use std::cell::Cell;

use autograd::{Ctx, GradientSet};
use nn::causal_mask;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recdata::ItemId;
use tensor::{ops, Tensor};

use crate::audit::Auditable;
use crate::TransformerBackbone;
use crate::{Acvae, Bert4Rec, Cl4SRec, ContrastVae, DuoRec, NetConfig, SasRec, Vsan};

thread_local! {
    static PADDED: Cell<bool> = const { Cell::new(false) };
}

/// Whether [`TransformerBackbone::forward`] runs [`padded_forward`] on this
/// thread.
pub(crate) fn padded() -> bool {
    PADDED.with(Cell::get)
}

/// The padded backbone forward: `[b, n, d]`, zero (±0) at padded cells.
pub(crate) fn padded_forward<C: Ctx>(
    bb: &TransformerBackbone,
    c: &C,
    inputs: &[Vec<ItemId>],
    pad: &[Vec<bool>],
    rng: &mut StdRng,
    training: bool,
) -> C::V {
    let (b, n, heads) = (pad.len(), pad[0].len(), bb.heads);
    let mut keys = Tensor::zeros(vec![b * heads, 1, n]);
    let mut timeline = Tensor::ones(vec![b, n, 1]);
    for (bi, row) in pad.iter().enumerate() {
        for j in (0..n).filter(|&j| row[j]) {
            for h in 0..heads {
                keys.data_mut()[(bi * heads + h) * n + j] = -1e9;
            }
            timeline.data_mut()[bi * n + j] = 0.0;
        }
    }
    let mask = if bb.causal {
        ops::add(&keys, &causal_mask(n)).unwrap()
    } else {
        keys
    };
    let x = bb.embed(c, inputs, rng, training);
    let mut h = c.mul_const(&x, &timeline);
    for layer in bb.encoder.layers() {
        h = c.mul_const(&layer.forward(c, &h, Some(&mask), rng, training), &timeline);
    }
    h
}

fn net(seed: u64) -> NetConfig {
    NetConfig {
        max_len: 7,
        dim: 12,
        heads: 2,
        layers: 2,
        dropout: 0.2,
        seed,
        ..NetConfig::for_items(23)
    }
}

/// Histories of 2..=10 items, so windows are padded to every depth, some
/// are full and some hold one input item.
fn sequences(seed: u64) -> Vec<Vec<ItemId>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..12)
        .map(|_| {
            let len = rng.gen_range(2..=10);
            (0..len).map(|_| rng.gen_range(1..=23)).collect()
        })
        .collect()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

/// Loss bits and gradients of every stage, recorded packed or padded.
fn steps(
    m: &mut dyn Auditable,
    seqs: &[Vec<ItemId>],
    seed: u64,
    padded: bool,
) -> Vec<(u32, GradientSet)> {
    PADDED.with(|p| p.set(padded));
    let out = m
        .audit_contracts()
        .iter()
        .map(|contract| {
            let trace = m.trace_stage(&contract.stage, seqs, seed);
            (trace.loss.item().to_bits(), trace.loss.backward_collect())
        })
        .collect();
    PADDED.with(|p| p.set(false));
    out
}

fn assert_packed_matches_padded(name: &str, build: impl Fn(NetConfig) -> Box<dyn Auditable>) {
    for seed in 0..3u64 {
        let mut m = build(net(seed));
        let seqs = sequences(40 + seed);
        let want = steps(m.as_mut(), &seqs, seed, true);
        let got = steps(m.as_mut(), &seqs, seed, false);
        for ((contract, (want_loss, want)), (got_loss, got)) in
            m.audit_contracts().iter().zip(&want).zip(&got)
        {
            let what = format!("{name} stage {} seed {seed}", contract.stage);
            assert_eq!(*want_loss, *got_loss, "{what}: loss");
            assert_eq!(want.len(), got.len(), "{what}: gradient count");
            for p in &contract.reached {
                let pname = p.borrow().name.clone();
                match (want.get(p), got.get(p)) {
                    (Some(a), Some(b)) => {
                        assert!(bits(a) == bits(b), "{what}: gradient of {pname}")
                    }
                    (a, b) => panic!("{what}: {pname} {} vs {}", a.is_some(), b.is_some()),
                }
            }
        }
    }
}

#[test]
fn sasrec_matches_the_padded_forward() {
    assert_packed_matches_padded("SASRec", |n| Box::new(SasRec::new(n)));
}

#[test]
fn bert4rec_matches_the_padded_forward() {
    assert_packed_matches_padded("BERT4Rec", |n| Box::new(Bert4Rec::new(n)));
}

#[test]
fn vsan_matches_the_padded_forward() {
    assert_packed_matches_padded("VSAN", |n| Box::new(Vsan::new(n, 0.2)));
}

#[test]
fn duorec_matches_the_padded_forward() {
    assert_packed_matches_padded("DuoRec", |n| Box::new(DuoRec::new(n)));
}

#[test]
fn cl4srec_matches_the_padded_forward() {
    assert_packed_matches_padded("CL4SRec", |n| Box::new(Cl4SRec::new(n)));
}

#[test]
fn contrastvae_matches_the_padded_forward() {
    assert_packed_matches_padded("ContrastVAE", |n| Box::new(ContrastVae::new(n, 0.1, 0.2)));
}

#[test]
fn acvae_matches_the_padded_forward() {
    assert_packed_matches_padded("ACVAE", |n| Box::new(Acvae::new(n)));
}

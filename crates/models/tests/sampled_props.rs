//! Property tests for the sampled-softmax objective: at the degenerate
//! point (sample count = full catalog) the sampled loss must be
//! **bitwise** equal to the full-softmax loss, on exactly the op
//! compositions the models use (`matmul_transb → reshape →
//! cross_entropy_with_logits`, with the candidate gather inserted). Trained
//! end to end, the sampled objective must converge to an HR@10 close to
//! the full objective's.

use autograd::{Graph, Parameter, IGNORE_INDEX};
use models::sampled::{self, NegativeSampler, SoftmaxMode};
use models::{evaluate_valid, NetConfig, SasRec, SequentialRecommender, TrainConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recdata::{synth, LeaveOneOut};
use tensor::init;

/// Random per-position targets with some padding rows, never id 0.
fn random_targets(rng: &mut StdRng, rows: usize, num_items: usize) -> Vec<usize> {
    (0..rows)
        .map(|_| {
            if rng.gen_bool(0.25) {
                IGNORE_INDEX
            } else {
                rng.gen_range(1..=num_items)
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Full-catalog candidate list ⇒ loss bits identical to full softmax,
    /// with rank-3 hidden states (the training layout `[b, n, d]`).
    #[test]
    fn degenerate_sampled_loss_is_bitwise_full_loss(
        b in 1usize..4, n in 1usize..5, d in 1usize..6,
        num_items in 1usize..24, seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let vocab = num_items + 1;
        let table = Parameter::shared("table", init::uniform(&mut rng, vec![vocab, d], -1.0, 1.0));
        let hidden = Parameter::shared("h", init::uniform(&mut rng, vec![b, n, d], -1.0, 1.0));
        let targets = random_targets(&mut rng, b * n, num_items);

        let g = Graph::new();
        let h = g.param(&hidden);
        let t = g.param(&table);
        let full = h
            .matmul_transb(&t)
            .reshape(vec![b * n, vocab])
            .cross_entropy_with_logits(&targets);

        let mode = SoftmaxMode::Sampled { negatives: num_items, sampler: NegativeSampler::Uniform };
        let cands = sampled::draw_candidates(&targets, num_items, &mode, &mut rng)
            .expect("sampled mode");
        prop_assert_eq!(&cands, &(0..vocab).collect::<Vec<_>>());
        let g2 = Graph::new();
        let s = sampled::sampled_ce(&g2.param(&hidden), &g2.param(&table), &targets, &cands);

        prop_assert_eq!(
            full.item().to_bits(), s.item().to_bits(),
            "full {} vs sampled {}", full.item(), s.item()
        );
    }

    /// The sampled loss equals a dense cross-entropy computed over only the
    /// candidate columns (independent reference: gather done by hand on the
    /// value side), for *proper* subsets too.
    #[test]
    fn sampled_loss_matches_manual_candidate_ce(
        rows in 1usize..5, d in 1usize..6, num_items in 4usize..24,
        negatives in 1usize..3, seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let vocab = num_items + 1;
        let table = Parameter::shared("table", init::uniform(&mut rng, vec![vocab, d], -1.0, 1.0));
        let hidden = Parameter::shared("h", init::uniform(&mut rng, vec![rows, d], -1.0, 1.0));
        let targets = random_targets(&mut rng, rows, num_items);

        let mode = SoftmaxMode::Sampled { negatives, sampler: NegativeSampler::LogUniform };
        let cands = sampled::draw_candidates(&targets, num_items, &mode, &mut rng)
            .expect("sampled mode");
        prop_assert!(!cands.contains(&0), "padding leaked into candidates {:?}", cands);

        let g = Graph::new();
        let s = sampled::sampled_ce(&g.param(&hidden), &g.param(&table), &targets, &cands);

        // Manual reference: softmax over candidate dot products, f64 log-sum.
        let tv = table.borrow().value.clone();
        let hv = hidden.borrow().value.clone();
        let mut total = 0.0f64;
        let mut valid = 0usize;
        for (r, &t) in targets.iter().enumerate() {
            if t == IGNORE_INDEX {
                continue;
            }
            let logits: Vec<f32> = cands
                .iter()
                .map(|&c| {
                    (0..d).map(|j| hv.row(r)[j] * tv.row(c)[j]).sum::<f32>()
                })
                .collect();
            let m = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let lse: f32 = m + logits.iter().map(|&x| (x - m).exp()).sum::<f32>().ln();
            let ti = cands.iter().position(|&c| c == t).expect("target in candidates");
            total += f64::from(lse - logits[ti]);
            valid += 1;
        }
        let reference = (total / valid.max(1) as f64) as f32;
        prop_assert!(
            (s.item() - reference).abs() <= 1e-4 * reference.abs().max(1.0),
            "sampled {} vs reference {}", s.item(), reference
        );
    }
}

/// SASRec on the toys catalog (280 items): 128 uniform sampled negatives
/// must reach `HR@10 >= full - max(0.05, 0.25·full)`, so the sampled
/// objective's speed is not bought with ranking quality. Ten epochs, since
/// after three the full objective's HR@10 (~0.04) puts the bound below 0.
#[test]
fn sampled_softmax_hr_converges_near_full_softmax() {
    let toys = synth::generate(&synth::SynthConfig::toys_like(42));
    let split = LeaveOneOut::split(&toys);
    let train = split.train_sequences();
    let hr_of = |softmax: SoftmaxMode| {
        let mut model = SasRec::new(NetConfig {
            dim: 32,
            layers: 2,
            ..NetConfig::for_items(toys.num_items)
        });
        let cfg = TrainConfig {
            epochs: 10,
            softmax,
            ..TrainConfig::default()
        };
        model.fit(&train, &cfg);
        evaluate_valid(&mut model, &split, &[10]).hr(10)
    };
    let full = hr_of(SoftmaxMode::Full);
    let sampled = hr_of(SoftmaxMode::Sampled {
        negatives: 128,
        sampler: NegativeSampler::Uniform,
    });
    let tolerance = (0.25 * full).max(0.05);
    assert!(
        sampled >= full - tolerance,
        "HR@10 sampled {sampled:.4} < full {full:.4} - {tolerance:.4}"
    );
}

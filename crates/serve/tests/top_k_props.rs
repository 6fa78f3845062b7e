//! The bounded top-k selection against the full stable sort it replaced:
//! the same items with the same score bits, in the same order, for every
//! `k`, with ties, `±0.0`, infinities and excluded items; with NaN, against
//! a stable sort that ranks NaN last.

use std::cmp::Ordering;

use models::{recommend_top_k, top_k_by, top_k_scores, SequentialRecommender, TrainConfig};
use proptest::prelude::*;
use recdata::ItemId;
use serve::top_k;

/// The ranking every top-k path used before: skip padding 0, drop
/// excluded items, stable descending `partial_cmp` sort, truncate. With a
/// NaN that comparator is no total order (the sort may panic), so NaN
/// inputs sort with NaN ranked below every number instead.
fn sorted(scores: &[f32], k: usize, keep: impl Fn(ItemId) -> bool) -> Vec<(ItemId, f32)> {
    let mut ranked: Vec<(ItemId, f32)> = scores
        .iter()
        .enumerate()
        .skip(1)
        .filter(|&(i, _)| keep(i))
        .map(|(i, &s)| (i, s))
        .collect();
    if scores.iter().any(|s| s.is_nan()) {
        ranked.sort_by(|a, b| match (a.1.is_nan(), b.1.is_nan()) {
            (false, false) => b.1.partial_cmp(&a.1).unwrap_or(Ordering::Equal),
            (a_nan, b_nan) => a_nan.cmp(&b_nan),
        });
    } else {
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(Ordering::Equal));
    }
    ranked.truncate(k);
    ranked
}

fn bits(ranked: &[(ItemId, f32)]) -> Vec<(ItemId, u32)> {
    ranked.iter().map(|&(i, s)| (i, s.to_bits())).collect()
}

/// Scores from a small pool, so that ties are common: signed zeros,
/// infinities and (when `nan`) NaN among them.
fn scores(nan: bool, codes: Vec<u32>) -> Vec<f32> {
    let value = |c: u32| match c % 10 {
        0 => 0.0,
        1 => -0.0,
        2 => 1.5,
        3 => -2.25,
        4 => f32::INFINITY,
        5 => f32::NEG_INFINITY,
        6 | 7 => (c / 10 % 8) as f32 * 0.5 - 2.0,
        8 if nan => f32::NAN,
        _ => c as f32 * 1.37 - 700.0,
    };
    codes.into_iter().map(value).collect()
}

/// A model whose scores are fixed, for `recommend_top_k`.
struct Fixed(Vec<f32>);

impl SequentialRecommender for Fixed {
    fn name(&self) -> String {
        "fixed".into()
    }
    fn num_items(&self) -> usize {
        self.0.len().saturating_sub(1)
    }
    fn fit(&mut self, _: &[Vec<ItemId>], _: &TrainConfig) {}
    fn score(&mut self, _: usize, _: &[ItemId]) -> Vec<f32> {
        self.0.clone()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn selection_equals_the_stable_sort(
        s in (0u8..4, prop::collection::vec(0u32..1000, 0..120))
            .prop_map(|(nan, codes)| scores(nan == 0, codes)),
        k in 0usize..140,
        seen in prop::collection::vec(0usize..130, 0..20),
    ) {
        let keep = |i: ItemId| !seen.contains(&i);
        let want = sorted(&s, k, keep);
        prop_assert_eq!(bits(&top_k_scores(&s, k, keep)), bits(&want));
        let mut model = Fixed(s.clone());
        prop_assert_eq!(bits(&recommend_top_k(&mut model, 0, &seen, k, true)), bits(&want));

        let all = sorted(&s, k, |_| true);
        let (items, got) = top_k(&s, k);
        let got: Vec<(ItemId, f32)> = items.into_iter().zip(got).collect();
        prop_assert_eq!(bits(&got), bits(&all));
    }

    /// Any total order with ties: equal items keep their input order,
    /// whatever `k` and however many times the buffer is cut back.
    #[test]
    fn generic_selection_is_a_stable_sort(
        keys in prop::collection::vec(0u8..6, 0..200),
        k in 0usize..220,
    ) {
        let items: Vec<(u8, usize)> = keys.iter().copied().zip(0..).collect();
        let mut want = items.clone();
        want.sort_by_key(|&(key, _)| std::cmp::Reverse(key));
        want.truncate(k);
        prop_assert_eq!(top_k_by(items, k, |a, b| a.0.cmp(&b.0)), want);
    }
}

#[test]
fn edge_cases() {
    assert!(top_k(&[], 3).0.is_empty());
    assert!(top_k(&[7.0], 3).0.is_empty(), "padding alone ranks nothing");
    assert!(top_k(&[0.0, 1.0, 2.0], 0).0.is_empty());
    // Signed zeros tie: the lower id first, each keeping its own sign.
    let (items, s) = top_k(&[0.0, -0.0, 0.0, -0.0, -1.0], 3);
    assert_eq!(items, vec![1, 2, 3]);
    assert_eq!(
        s.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        vec![(-0.0f32).to_bits(), 0, (-0.0f32).to_bits()]
    );
    // NaN ranks below every number, even negative infinity.
    let (items, _) = top_k(&[0.0, f32::NAN, f32::NEG_INFINITY, f32::NAN, 2.0], 4);
    assert_eq!(items, vec![4, 2, 1, 3]);
}

/// Scores with a few NaN in a large catalog, where the old sort's
/// comparator broke the standard sort's total-order check: ranking them
/// answers instead of panicking.
#[test]
fn nan_scores_never_panic() {
    for seed in 0..200u64 {
        let scores: Vec<f32> = (0..1000u64)
            .map(|i| {
                let h = (i ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
                if h % 50 == 0 {
                    f32::NAN
                } else {
                    (h % 1000) as f32 / 7.0
                }
            })
            .collect();
        let (items, s) = top_k(&scores, 10);
        assert_eq!(items.len(), 10);
        assert!(s.iter().all(|v| !v.is_nan()), "seed {seed}");
    }
}

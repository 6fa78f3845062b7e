//! Property tests for the HNSW index: an unbounded beam (`ef = ∞`) must
//! return the *exact* inner-product top-k, the build must be a pure
//! function of its inputs, and padding id 0 must never be retrievable.
//! At the serving default beam (`ef = 64`), recall@10 on real Meta-SGCL
//! queries must reach 0.95.

use meta_sgcl::{MetaSgcl, MetaSgclConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serve::{HnswConfig, HnswIndex};
use tensor::init;

/// Reference ranking: brute-force inner products over item ids
/// `1..=num_items`, sorted by (score desc, id asc) — the index's
/// deterministic tie rule.
fn brute_force(table: &tensor::Tensor, num_items: usize, q: &[f32], k: usize) -> Vec<usize> {
    let mut ranked: Vec<(usize, f32)> = (1..=num_items)
        .map(|item| {
            let row = table.row(item);
            let s: f32 = row.iter().zip(q).map(|(a, b)| a * b).sum();
            (item, s)
        })
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    ranked.truncate(k);
    ranked.into_iter().map(|(i, _)| i).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `ef >= n` is *defined* to be exact: identical items, in the exact
    /// order, with the same deterministic tie-breaking as brute force.
    #[test]
    fn unbounded_ef_returns_exact_top_k(
        num_items in 1usize..50, dim in 1usize..8, k in 1usize..12, seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let table = init::uniform(&mut rng, vec![num_items + 1, dim], -1.0, 1.0);
        let q: Vec<f32> = init::uniform(&mut rng, vec![dim], -1.0, 1.0).data().to_vec();
        let idx = HnswIndex::build(&table, num_items, &HnswConfig::default());
        let got: Vec<usize> = idx.search(&q, k, usize::MAX).into_iter().map(|(i, _)| i).collect();
        let want = brute_force(&table, num_items, &q, k);
        prop_assert_eq!(&got, &want);
        prop_assert!(got.iter().all(|&i| i >= 1), "padding leaked: {:?}", got);
    }

    /// Builds are deterministic and survive a sidecar round-trip: two
    /// builds from the same table answer every query identically, and so
    /// does a save/load copy.
    #[test]
    fn build_and_sidecar_are_deterministic(
        num_items in 2usize..40, dim in 1usize..6, seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let table = init::uniform(&mut rng, vec![num_items + 1, dim], -1.0, 1.0);
        let cfg = HnswConfig::default();
        let a = HnswIndex::build(&table, num_items, &cfg);
        let b = HnswIndex::build(&table, num_items, &cfg);
        let dir = std::env::temp_dir().join("msgc_ann_props");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join(format!("idx_{seed}_{num_items}_{dim}.hnsw"));
        a.save(&path).expect("save");
        let c = HnswIndex::load(&path, &table, num_items, &cfg).expect("load fresh sidecar");
        std::fs::remove_file(&path).ok();
        for qs in 0..3u64 {
            let mut qrng = StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(qs));
            let q: Vec<f32> = init::uniform(&mut qrng, vec![dim], -1.0, 1.0).data().to_vec();
            let ra = a.search(&q, 5, 0);
            prop_assert_eq!(&ra, &b.search(&q, 5, 0));
            prop_assert_eq!(&ra, &c.search(&q, 5, 0));
        }
    }
}

/// Recall@10 at `ef = 64` over the item table of an untrained Meta-SGCL
/// model with 2000 items, queried with the vectors the engine searches
/// with: last-position hidden states of 50 synthetic histories.
#[test]
fn recall_at_10_reaches_095_at_serving_ef() {
    let num_items = 2000;
    let model = MetaSgcl::new(MetaSgclConfig::for_items(num_items));
    let table = &model.item_table().borrow().value;
    let index = HnswIndex::build(table, num_items, &HnswConfig::default());
    let (mut hits, mut total) = (0, 0);
    for u in 0..50 {
        let history: Vec<usize> = (0..8).map(|i| 1 + (u * 131 + i * 17) % num_items).collect();
        let q = model
            .query_embedding(&history)
            .expect("non-empty history has a query embedding");
        let got: Vec<usize> = index
            .search(&q, 10, 64)
            .into_iter()
            .map(|(i, _)| i)
            .collect();
        assert!(!got.contains(&0), "padding id retrieved: {got:?}");
        let want = brute_force(table, num_items, &q, 10);
        total += want.len();
        hits += want.iter().filter(|i| got.contains(i)).count();
    }
    let recall = hits as f64 / total as f64;
    assert!(recall >= 0.95, "recall@10 {recall:.4} < 0.95 at ef 64");
}

/// Over f32 weights an ANN score is the exact path's score bit for bit:
/// both are one strict `d`-order dot product from `+0.0`, with SIMD on or
/// off.
#[test]
fn ann_scores_equal_exact_scores_bit_for_bit() {
    let num_items = 500;
    let model = MetaSgcl::new(MetaSgclConfig::for_items(num_items));
    let table = &model.item_table().borrow().value;
    let index = HnswIndex::build(table, num_items, &HnswConfig::default());
    let was = tensor::tuning::simd_enabled();
    for simd in [true, false] {
        tensor::tuning::set_simd_enabled(simd);
        for u in 0..30 {
            let history: Vec<usize> = (0..1 + u % 12)
                .map(|i| 1 + (u * 97 + i * 13) % num_items)
                .collect();
            let exact = model.score_padded(&history);
            let q = model.query_embedding(&history).expect("query");
            for (item, score) in index.search(&q, 10, 64) {
                assert_eq!(
                    score.to_bits(),
                    exact[item].to_bits(),
                    "simd {simd}, user {u}, item {item}"
                );
            }
        }
    }
    tensor::tuning::set_simd_enabled(was);
}

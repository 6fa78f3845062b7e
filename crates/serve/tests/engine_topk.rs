//! Engine-level retrieval contracts: ANN vs exact top-k, deterministic
//! cold-start ranking for empty histories, and the padding sweep (item id
//! 0 must never be recommended by any path).

use meta_sgcl::{MetaSgcl, MetaSgclConfig};
use models::NetConfig;
use serve::{top_k, Engine, HnswConfig, HnswIndex, Mode, Request, TopK};

fn model(num_items: usize, dim: usize) -> MetaSgcl {
    MetaSgcl::new(MetaSgclConfig {
        net: NetConfig {
            max_len: 6,
            dim,
            layers: 1,
            ..NetConfig::for_items(num_items)
        },
        ..MetaSgclConfig::for_items(num_items)
    })
}

fn score(user: u64, history: Vec<usize>, k: usize, topk: Option<TopK>) -> Request {
    Request::Score {
        user,
        history,
        k,
        topk,
    }
}

#[test]
fn ann_requests_fall_back_to_exact_without_an_index() {
    let m = model(12, 8);
    let engine = Engine::new(m, Mode::Full);
    let exact = engine.handle_batch(&[score(0, vec![1, 2, 3], 5, Some(TopK::Exact))]);
    let ann = engine.handle_batch(&[score(0, vec![1, 2, 3], 5, Some(TopK::Ann))]);
    assert_eq!(exact, ann);
}

#[test]
fn ann_retrieval_matches_exact_on_a_small_catalog() {
    // 12 items < default ef (64): the index degrades to an exact scan, so
    // the ANN ranking must equal the full-catalog projection's, and over
    // f32 weights so must every score bit.
    let m = model(12, 8);
    let index = HnswIndex::build(&m.item_table().borrow().value, 12, &HnswConfig::default());
    let engine = Engine::new(m, Mode::Full).with_ann(index);
    for history in [vec![1, 2, 3], vec![7], vec![4, 5, 6, 7, 8, 9, 10, 11]] {
        let exact = &engine.handle_batch(&[score(0, history.clone(), 5, None)])[0];
        let ann = &engine.handle_batch(&[score(0, history.clone(), 5, Some(TopK::Ann))])[0];
        assert_eq!(exact.items, ann.items, "history {history:?}");
        let bits = |s: &[f32]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&exact.scores),
            bits(&ann.scores),
            "history {history:?}"
        );
        assert!(ann.items.iter().all(|&i| i >= 1), "padding retrieved");
    }
}

#[test]
fn ann_recall_is_high_on_a_real_model() {
    let m = model(300, 16);
    let index = HnswIndex::build(&m.item_table().borrow().value, 300, &HnswConfig::default());
    let engine = Engine::new(m, Mode::Full).with_ann(index);
    let mut hits = 0usize;
    let mut total = 0usize;
    for u in 0..20u64 {
        let history: Vec<usize> = (0..5)
            .map(|i| 1 + ((u as usize * 37 + i * 13) % 300))
            .collect();
        let exact = &engine.handle_batch(&[score(u, history.clone(), 10, None)])[0];
        let ann = &engine.handle_batch(&[score(u, history, 10, Some(TopK::Ann))])[0];
        total += exact.items.len();
        hits += exact.items.iter().filter(|i| ann.items.contains(i)).count();
        assert!(ann.items.iter().all(|&i| (1..=300).contains(&i)));
    }
    let recall = hits as f64 / total as f64;
    assert!(recall >= 0.9, "recall@10 {recall} < 0.9");
}

#[test]
fn cold_start_defaults_to_item_id_order() {
    for mode in [Mode::Full, Mode::Incremental] {
        let m = model(12, 8);
        let engine = Engine::new(m, mode);
        let a = engine.handle_batch(&[score(1, vec![], 5, None)]);
        assert_eq!(a[0].items, vec![1, 2, 3, 4, 5], "mode {mode:?}");
        assert_eq!(a[0].scores, vec![0.0; 5]);
        // Deterministic: repeating the request changes nothing.
        let b = engine.handle_batch(&[score(1, vec![], 5, None)]);
        assert_eq!(a, b);
    }
}

#[test]
fn cold_start_uses_popularity_when_installed() {
    // Item 7 dominates, then 3; ties (1 vs 2) break towards the lower id.
    let mut counts = vec![0u64; 13];
    counts[7] = 10;
    counts[3] = 5;
    counts[1] = 2;
    counts[2] = 2;
    for mode in [Mode::Full, Mode::Incremental] {
        let m = model(12, 8);
        let engine = Engine::new(m, mode).with_popularity(&counts);
        let r = &engine.handle_batch(&[score(0, vec![], 4, None)])[0];
        assert_eq!(r.items, vec![7, 3, 1, 2], "mode {mode:?}");
        assert!(r.scores[0] > r.scores[1] && r.scores[1] > r.scores[2]);
        assert_eq!(r.scores[2], r.scores[3]);
        assert!(!r.items.contains(&0), "padding in cold-start ranking");
        // A non-empty history immediately leaves the cold-start path.
        let warm = &engine.handle_batch(&[score(0, vec![7], 4, None)])[0];
        assert_ne!(warm.scores, r.scores);
    }
}

#[test]
fn pad_id_is_never_ranked_even_with_the_highest_score() {
    // Direct top_k sweep: index 0 carries the max score and must still be
    // excluded at every k.
    let scores = vec![99.0, 0.5, 2.5, 1.5];
    for k in 1..=4 {
        let (items, s) = top_k(&scores, k);
        assert!(!items.contains(&0), "k={k} ranked padding");
        assert_eq!(items.len(), k.min(3));
        if k >= 3 {
            assert_eq!(items, vec![2, 3, 1]);
            assert_eq!(s, vec![2.5, 1.5, 0.5]);
        }
    }
}

//! Eager-forward parity gates for Meta-SGCL, each on the same weights as
//! its recorded reference: padded scores vs `score_sequence`, incremental
//! state vs `score_left_aligned`, batched vs single appends, concurrent
//! `&self` scoring, and a frozen copy detached from training.

use meta_sgcl::{MetaSgcl, MetaSgclConfig};
use models::NetConfig;
use nn::Freeze;

fn model(decoder_layers: usize) -> MetaSgcl {
    MetaSgcl::new(MetaSgclConfig {
        net: NetConfig {
            max_len: 6,
            dim: 8,
            layers: 2,
            ..NetConfig::for_items(12)
        },
        decoder_layers,
        ..MetaSgclConfig::for_items(12)
    })
}

#[test]
fn padded_scores_match_score_sequence_bitwise() {
    for dec in [0, 1] {
        let m = model(dec);
        for seq in [
            vec![1usize, 2, 3],
            vec![5],
            vec![4, 4, 4, 4, 4, 4, 4, 4, 4], // longer than max_len
            vec![9, 2, 7, 1, 12, 6],
        ] {
            assert_eq!(
                m.score_padded(&seq),
                m.score_sequence(&seq),
                "decoder_layers={dec} seq={seq:?}"
            );
        }
        assert_eq!(m.score_padded(&[]), m.score_sequence(&[]));
    }
}

#[test]
fn incremental_begin_matches_left_aligned_reference() {
    for dec in [0, 1] {
        let m = model(dec);
        for seq in [vec![1usize, 2, 3], vec![8], vec![3, 9, 1, 7, 2, 11]] {
            let (state, scores) = m.begin_incremental(&seq);
            assert_eq!(scores, m.score_left_aligned(&seq), "decoder_layers={dec}");
            assert_eq!(state.len(), seq.len());
        }
    }
}

#[test]
fn incremental_appends_match_left_aligned_reference() {
    for dec in [0, 1] {
        let m = model(dec);
        let history: Vec<usize> = vec![2, 9, 4, 7, 1, 6];
        let (mut state, _) = m.begin_incremental(&history[..2]);
        for t in 2..history.len() {
            let scores = m.append_incremental(&[history[t]], &mut [&mut state]);
            assert_eq!(
                scores[0],
                m.score_left_aligned(&history[..=t]),
                "decoder_layers={dec} len={}",
                t + 1
            );
        }
        assert_eq!(state.len(), history.len());
    }
}

#[test]
fn slide_on_overflow_re_begins_exactly() {
    let m = model(1);
    let history: Vec<usize> = vec![2, 9, 4, 7, 1, 6, 3, 8, 5];
    let max_len = m.max_len();
    let (mut state, _) = m.begin_incremental(&history[..max_len]);
    assert_eq!(state.len(), max_len);
    // Full cache: slide by re-beginning from the last max_len items.
    let window = &history[history.len() - max_len..];
    let (state2, scores) = m.begin_incremental(window);
    assert_eq!(scores, m.score_left_aligned(&history));
    assert_eq!(state2.len(), max_len);
    let _ = &mut state;
}

#[test]
fn batched_append_matches_single_appends() {
    let m = model(1);
    let (mut sa, _) = m.begin_incremental(&[1, 2, 3]);
    let (mut sb, _) = m.begin_incremental(&[4, 5]);
    let (mut sa2, _) = m.begin_incremental(&[1, 2, 3]);
    let (mut sb2, _) = m.begin_incremental(&[4, 5]);

    let ra = m.append_incremental(&[6], &mut [&mut sa]);
    let rb = m.append_incremental(&[7], &mut [&mut sb]);
    let both = m.append_incremental(&[6, 7], &mut [&mut sa2, &mut sb2]);

    assert_eq!(both[0], ra[0]);
    assert_eq!(both[1], rb[0]);
}

/// Satellite 1: `score_sequence` takes `&self`, so concurrent readers can
/// score the same model simultaneously and agree with the single-threaded
/// result.
#[test]
fn concurrent_readers_score_through_shared_ref() {
    let m = model(0);
    let want = m.score_sequence(&[1, 2, 3]);
    let results: Vec<Vec<f32>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| s.spawn(|| m.score_sequence(&[1, 2, 3])))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in results {
        assert_eq!(r, want);
    }
}

/// A frozen copy is detached from training: overwriting a backbone
/// parameter of the trained model moves the live model's eager scores and
/// leaves the copy's bits where they were.
#[test]
fn freeze_snapshots_are_detached_from_training() {
    let m = model(1);
    let frozen = m.freeze();
    let seq = [3usize, 9, 1];
    let bits = |v: Vec<f32>| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    let before = bits(frozen.score_padded(&seq));
    assert_eq!(
        before,
        bits(m.score_padded(&seq)),
        "a fresh copy scores alike"
    );

    let weight = m
        .main_parameters()
        .into_iter()
        .find(|p| p.borrow().name.contains("layer0.mha.wq"))
        .expect("backbone attention weight");
    let moved = weight.borrow().value.map(|x| 2.0 * x + 0.1);
    weight.borrow_mut().value = moved;

    assert_eq!(bits(frozen.score_padded(&seq)), before, "the copy moved");
    assert_ne!(
        bits(m.score_padded(&seq)),
        before,
        "the live model did not move"
    );
}

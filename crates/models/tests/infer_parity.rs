//! Bitwise parity gates for the model layer's eager serving paths: padded
//! forwards vs the recorded training path on the same weights, and
//! incremental left-aligned state vs full re-encodes and the recorded
//! left-aligned references.

use autograd::{Eager, Graph};
use models::{Gru4Rec, SequentialRecommender, TransformerBackbone};
use nn::infer::eval_rng;
use nn::{Packing, TopRows};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn backbone() -> TransformerBackbone {
    let mut rng = StdRng::seed_from_u64(11);
    TransformerBackbone::new(&mut rng, "bb", 21, 8, 8, 2, 2, 0.2, true)
}

#[test]
fn padded_forward_parity() {
    let bb = backbone();
    let inputs = vec![
        vec![0, 0, 1, 2, 3, 4, 5, 6],
        vec![0, 7, 8, 9, 10, 11, 12, 13],
    ];
    let pad = vec![
        vec![true, true, false, false, false, false, false, false],
        vec![true, false, false, false, false, false, false, false],
    ];
    let g = Graph::new();
    let mut rng = StdRng::seed_from_u64(0);
    let want = bb.forward(&g, &inputs, &pad, &mut rng, false).value();
    let got = bb.forward(&Eager, &inputs, &pad, &mut eval_rng(), false);
    assert_eq!(got.data(), want.data());
    assert_eq!(got.dims(), &[2, 8, 8]);
}

#[test]
fn left_aligned_full_encode_parity() {
    let bb = backbone();
    let seq: Vec<usize> = vec![3, 1, 4, 1, 5];
    let g = Graph::new();
    let mut rng = StdRng::seed_from_u64(0);
    let want = bb.forward_left_aligned(&g, &seq, &mut rng, false).value();
    let (state, rows) = bb.begin_top(&seq, TopRows::All);
    let got = Packing::left_aligned(seq.len()).unpack(&Eager, &rows);
    assert_eq!(got.dims(), want.dims());
    assert_eq!(got.data(), want.data());
    assert_eq!(state.len(), 5);
}

/// Appending items one at a time must match (a) a full eager re-encode and
/// (b) the recorded left-aligned forward, at every prefix length.
#[test]
fn incremental_appends_match_reencode_and_autograd() {
    let bb = backbone();
    let history: Vec<usize> = vec![2, 9, 4, 7, 1, 6, 3];
    let (mut state, _) = bb.begin_top(&history[..2], TopRows::All);

    for t in 2..history.len() {
        let h = bb.append_incremental(&[history[t]], &mut [&mut state]);
        let prefix = &history[..=t];

        // Eager full re-encode.
        let (_, full) = bb.begin_top(prefix, TopRows::All);
        let full_last = Packing::left_aligned(prefix.len()).last_rows(&Eager, &full);
        assert_eq!(
            h.data(),
            full_last.data(),
            "vs eager re-encode, len {}",
            t + 1
        );

        // Autograd left-aligned reference.
        let g = Graph::new();
        let mut rng = StdRng::seed_from_u64(0);
        let auto = bb.forward_left_aligned(&g, prefix, &mut rng, false);
        let auto_last = TransformerBackbone::last_hidden(&auto).value();
        assert_eq!(h.data(), auto_last.data(), "vs autograd, len {}", t + 1);
    }
}

#[test]
fn batched_backbone_append_matches_single() {
    let bb = backbone();
    let (mut sa, _) = bb.begin_top(&[1, 2, 3], TopRows::All);
    let (mut sb, _) = bb.begin_top(&[4, 5], TopRows::All);
    let (mut sa2, _) = bb.begin_top(&[1, 2, 3], TopRows::All);
    let (mut sb2, _) = bb.begin_top(&[4, 5], TopRows::All);

    let ha = bb.append_incremental(&[6], &mut [&mut sa]);
    let hb = bb.append_incremental(&[7], &mut [&mut sb]);
    let both = bb.append_incremental(&[6, 7], &mut [&mut sa2, &mut sb2]);

    assert_eq!(both.row(0), ha.row(0));
    assert_eq!(both.row(1), hb.row(0));
    assert_eq!(sa2.len(), 4);
    assert_eq!(sb2.len(), 3);
}

#[test]
fn backbone_scores_match_training_projection() {
    let bb = backbone();
    let inputs = vec![vec![0, 0, 0, 1, 2, 3, 4, 5]];
    let pad = vec![vec![true, true, true, false, false, false, false, false]];
    let g = Graph::new();
    let mut rng = StdRng::seed_from_u64(0);
    let h = bb.forward(&g, &inputs, &pad, &mut rng, false);
    let want = bb.scores(&g, &TransformerBackbone::last_hidden(&h)).value();
    let fh = bb.forward(&Eager, &inputs, &pad, &mut eval_rng(), false);
    let got = bb.scores(&Eager, &TransformerBackbone::last_hidden(&fh));
    assert_eq!(got.data(), want.data());
}

#[test]
fn gru4rec_padded_score_parity() {
    let mut m = Gru4Rec::new(15, 6, 8, 3);
    for seq in [vec![1usize, 2, 3], vec![4; 10], vec![7]] {
        let want = m.score(0, &seq);
        assert_eq!(m.score_padded(&seq), want);
    }
    assert_eq!(m.score_padded(&[]), vec![0.0; 16]);
}

#[test]
fn gru4rec_incremental_matches_unpadded_reference() {
    let m = Gru4Rec::new(15, 6, 8, 4);
    let history: Vec<usize> = vec![3, 8, 1, 12, 5, 9, 2, 14, 6];

    let mut state = m.begin_incremental(&history[..3]);
    for t in 3..history.len() {
        m.append_incremental(&[history[t]], &mut [&mut state]);
        let got = m.scores(&m.hidden(&state)).row(0).to_vec();
        let want = m.score_unpadded_recorded(&history[..=t]);
        assert_eq!(got, want, "len {}", t + 1);
        // And the eager full recurrence agrees too.
        assert_eq!(m.score_unpadded(&history[..=t]), want);
    }
    // No length cap: the state is already past max_len and stayed exact.
    assert!(state.len() > m.max_len());
}

#[test]
fn gru4rec_batched_append_matches_single() {
    let m = Gru4Rec::new(15, 6, 8, 5);
    let mut sa = m.begin_incremental(&[1, 2]);
    let mut sb = m.begin_incremental(&[3, 4, 5]);
    let mut sa2 = m.begin_incremental(&[1, 2]);
    let mut sb2 = m.begin_incremental(&[3, 4, 5]);

    let ha = m.append_incremental(&[6], &mut [&mut sa]);
    let hb = m.append_incremental(&[7], &mut [&mut sb]);
    let both = m.append_incremental(&[6, 7], &mut [&mut sa2, &mut sb2]);

    assert_eq!(both.row(0), ha.row(0));
    assert_eq!(both.row(1), hb.row(0));
}

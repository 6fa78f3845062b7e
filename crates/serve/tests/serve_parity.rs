//! End-to-end serving parity: engine responses vs offline recorded
//! scoring on the served model's own weights, full and incremental modes,
//! micro-batching, and the wire protocol round-trip.

use std::sync::Arc;
use std::time::Duration;

use meta_sgcl::{MetaSgcl, MetaSgclConfig};
use models::{Gru4Rec, NetConfig, SequentialRecommender};
use serve::{proto, top_k, Batcher, Engine, Mode, Request, Response};

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
fn full_mode_matches_offline_score_sequence_bitwise() {
    let engine = Engine::new(model(1), Mode::Full);
    let m = engine.model();
    let histories: Vec<Vec<usize>> = vec![
        vec![1, 2, 3],
        vec![4, 5, 6, 7, 8, 9, 10, 11], // longer than max_len
        vec![12],
    ];
    let reqs: Vec<Request> = histories
        .iter()
        .enumerate()
        .map(|(u, h)| Request::Score {
            user: u as u64,
            history: h.clone(),
            k: 5,
            topk: None,
        })
        .collect();
    let responses = engine.handle_batch(&reqs);
    for (u, h) in histories.iter().enumerate() {
        let (want_items, want_scores) = top_k(&m.score_sequence(h), 5);
        assert_eq!(responses[u].user, u as u64);
        assert_eq!(responses[u].items, want_items);
        assert_eq!(responses[u].scores, want_scores);
    }

    // Appends re-score the extended history, still bitwise vs offline.
    let r = engine.handle_batch(&[Request::Append {
        user: 0,
        item: 7,
        k: 5,
        topk: None,
    }]);
    let (want_items, want_scores) = top_k(&m.score_sequence(&[1, 2, 3, 7]), 5);
    assert_eq!(r[0].items, want_items);
    assert_eq!(r[0].scores, want_scores);
}

#[test]
fn incremental_mode_matches_left_aligned_reference() {
    let engine = Engine::new(model(1), Mode::Incremental);
    let m = engine.model();
    let mut history = vec![3usize, 9, 1];
    engine.handle_batch(&[Request::Score {
        user: 7,
        history: history.clone(),
        k: 4,
        topk: None,
    }]);
    // Appends extend cached state; each response must equal the autograd
    // left-aligned reference on the growing history — including past the
    // window cap, where the engine slides.
    for item in [5usize, 2, 8, 11, 4, 6, 10] {
        history.push(item);
        let r = engine.handle_batch(&[Request::Append {
            user: 7,
            item,
            k: 4,
            topk: None,
        }]);
        let window = &history[history.len().saturating_sub(6)..];
        let (want_items, want_scores) = top_k(&m.score_left_aligned(window), 4);
        assert_eq!(r[0].items, want_items, "history {history:?}");
        assert_eq!(r[0].scores, want_scores, "history {history:?}");
    }
}

/// A session keeps only the model's window of history; a user appended
/// far past it must still get exactly the offline answer for the whole
/// history, in both modes (full: padded `score_sequence`; incremental:
/// left-aligned `score_left_aligned`, each handed the untrimmed history).
#[test]
fn long_lived_session_matches_offline_full_history() {
    for mode in [Mode::Full, Mode::Incremental] {
        let engine = Engine::new(model(1), mode);
        let m = engine.model();
        let offline = |h: &[usize]| match mode {
            Mode::Full => m.score_sequence(h),
            Mode::Incremental => m.score_left_aligned(h),
        };
        // Opening histories shorter and longer than the window (max_len 6).
        for (user, opening) in [(3u64, 2usize), (4, 9)] {
            let mut history: Vec<usize> = (0..opening).map(|i| 1 + (i * 5) % 12).collect();
            let r = engine.handle_batch(&[Request::Score {
                user,
                history: history.clone(),
                k: 4,
                topk: None,
            }]);
            assert_eq!(r[0], top_k_response(user, &offline(&history), 4));
            // More than five windows of appends.
            for i in 0..32usize {
                let item = 1 + (i * 7 + 3) % 12;
                history.push(item);
                let r = engine.handle_batch(&[Request::Append {
                    user,
                    item,
                    k: 4,
                    topk: None,
                }]);
                assert_eq!(
                    r[0],
                    top_k_response(user, &offline(&history), 4),
                    "{mode:?}, user {user}, append {i}"
                );
            }
        }
    }
}

fn top_k_response(user: u64, scores: &[f32], k: usize) -> Response {
    let (items, scores) = top_k(scores, k);
    Response {
        user,
        items,
        scores,
    }
}

#[test]
fn mixed_batch_coalesces_and_stays_exact() {
    let engine = Engine::new(model(0), Mode::Incremental);
    let m = engine.model();
    // Three users with live state.
    for u in 0..3u64 {
        engine.handle_batch(&[Request::Score {
            user: u,
            history: vec![1 + u as usize, 2 + u as usize],
            k: 3,
            topk: None,
        }]);
    }
    // One batch: two fast appends, one fresh score, another append.
    let reqs = vec![
        Request::Append {
            user: 0,
            item: 5,
            k: 3,
            topk: None,
        },
        Request::Append {
            user: 1,
            item: 6,
            k: 3,
            topk: None,
        },
        Request::Score {
            user: 9,
            history: vec![4, 5],
            k: 3,
            topk: None,
        },
        Request::Append {
            user: 2,
            item: 7,
            k: 3,
            topk: None,
        },
    ];
    let responses = engine.handle_batch(&reqs);
    let cases: Vec<(u64, Vec<usize>)> = vec![
        (0, vec![1, 2, 5]),
        (1, vec![2, 3, 6]),
        (9, vec![4, 5]),
        (2, vec![3, 4, 7]),
    ];
    for (r, (user, hist)) in responses.iter().zip(&cases) {
        let (want_items, want_scores) = top_k(&m.score_left_aligned(hist), 3);
        assert_eq!(r.user, *user);
        assert_eq!(r.items, want_items, "user {user}");
        assert_eq!(r.scores, want_scores, "user {user}");
    }
}

#[test]
fn gru4rec_served_matches_offline() {
    let mut m = Gru4Rec::new(15, 6, 8, 3);
    // The recorded reference scores through `&mut self`, so it runs before
    // the engine takes the model.
    let (want_items, want_scores) = top_k(&m.score(1, &[1, 2, 3, 4]), 5);
    let engine = Engine::new(m, Mode::Full);
    let r = engine.handle_batch(&[Request::Score {
        user: 1,
        history: vec![1, 2, 3, 4],
        k: 5,
        topk: None,
    }]);
    assert_eq!(r[0].items, want_items);
    assert_eq!(r[0].scores, want_scores);

    // Incremental GRU state has no window cap: appends never slide.
    let engine = Engine::new(Gru4Rec::new(15, 6, 8, 3), Mode::Incremental);
    let m2 = engine.model();
    let mut history = vec![1usize, 2, 3, 4];
    engine.handle_batch(&[Request::Score {
        user: 1,
        history: history.clone(),
        k: 5,
        topk: None,
    }]);
    for item in [5usize, 6, 7, 8, 9, 10, 11, 12] {
        history.push(item);
        let r = engine.handle_batch(&[Request::Append {
            user: 1,
            item,
            k: 5,
            topk: None,
        }]);
        let (want_items, want_scores) = top_k(&m2.score_unpadded_recorded(&history), 5);
        assert_eq!(r[0].items, want_items, "history {history:?}");
        assert_eq!(r[0].scores, want_scores);
    }

    // Two users appended in one batch share one projection; each still
    // matches its own unpadded reference.
    let mut other = vec![13usize, 14];
    let score = |user, history| Request::Score {
        user,
        history,
        k: 5,
        topk: None,
    };
    let append = |user, item| Request::Append {
        user,
        item,
        k: 5,
        topk: None,
    };
    engine.handle_batch(&[score(2, other.clone())]);
    for (a, b) in [(3usize, 9usize), (1, 2)] {
        history.push(a);
        other.push(b);
        let r = engine.handle_batch(&[append(1, a), append(2, b)]);
        for (reply, seq) in r.iter().zip([&history, &other]) {
            let want = top_k(&m2.score_unpadded_recorded(seq), 5);
            assert_eq!((reply.items.clone(), reply.scores.clone()), want, "{seq:?}");
        }
    }
}

#[test]
fn batcher_coalesces_concurrent_submissions() {
    let engine = Arc::new(Engine::new(model(0), Mode::Full));
    let m = engine.model();
    let batcher = Arc::new(Batcher::new(
        Arc::clone(&engine),
        16,
        Duration::from_millis(5),
    ));
    let responses: Vec<Response> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8u64)
            .map(|u| {
                let b = Arc::clone(&batcher);
                s.spawn(move || {
                    b.submit(Request::Score {
                        user: u,
                        history: vec![1 + u as usize % 10, 2],
                        k: 3,
                        topk: None,
                    })
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (u, r) in responses.iter().enumerate() {
        let (want_items, want_scores) = top_k(&m.score_sequence(&[1 + u % 10, 2]), 3);
        assert_eq!(r.user, u as u64);
        assert_eq!(r.items, want_items);
        assert_eq!(r.scores, want_scores);
    }
}

#[test]
fn protocol_round_trips_scores_bitwise() {
    let resp = Response {
        user: 42,
        items: vec![3, 1, 7],
        scores: vec![1.25, -0.000123456, 3.4e-20],
    };
    let line = proto::format_response(&resp);
    let back = proto::parse_response(&line).unwrap();
    assert_eq!(back, resp);

    // Request parsing.
    match proto::parse_request(r#"{"op":"score","user":3,"history":[1,2],"k":4}"#).unwrap() {
        proto::Incoming::Req(Request::Score {
            user, history, k, ..
        }) => {
            assert_eq!((user, history, k), (3, vec![1, 2], 4));
        }
        other => panic!("unexpected parse {other:?}"),
    }
    match proto::parse_request(r#"{"op":"append","user":3,"item":9}"#).unwrap() {
        proto::Incoming::Req(Request::Append { user, item, k, .. }) => {
            assert_eq!((user, item, k), (3, 9, 10));
        }
        other => panic!("unexpected parse {other:?}"),
    }
    assert!(matches!(
        proto::parse_request(r#"{"op":"ping"}"#).unwrap(),
        proto::Incoming::Ping
    ));
    assert!(proto::parse_request("not json").is_err());
    assert!(proto::parse_request(r#"{"op":"nope"}"#).is_err());
}

#[test]
fn serve_metrics_flow_through_registry() {
    telemetry::set_enabled(true);
    let engine = Engine::new(model(0), Mode::Incremental);
    let hit0 = telemetry::metrics::counter("serve.cache.hit", false).get();
    let miss0 = telemetry::metrics::counter("serve.cache.miss", false).get();
    engine.handle_batch(&[Request::Score {
        user: 1,
        history: vec![1, 2],
        k: 3,
        topk: None,
    }]);
    engine.handle_batch(&[Request::Append {
        user: 1,
        item: 3,
        k: 3,
        topk: None,
    }]);
    assert!(telemetry::metrics::counter("serve.cache.miss", false).get() > miss0);
    assert!(telemetry::metrics::counter("serve.cache.hit", false).get() > hit0);
    assert!(telemetry::metrics::counter("serve.requests", false).get() >= 2);
}

#[test]
fn empty_history_scores_zeros() {
    for mode in [Mode::Full, Mode::Incremental] {
        let engine = Engine::new(model(0), mode);
        let r = engine.handle_batch(&[Request::Score {
            user: 1,
            history: vec![],
            k: 3,
            topk: None,
        }]);
        assert_eq!(r[0].scores, vec![0.0; 3]);
    }
}

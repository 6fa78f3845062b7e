//! Regression pins for the `serve.*` counter audit (ISSUE 10, satellite 1).
//!
//! Two bugs are pinned here so they cannot come back:
//!
//! * incremental cold starts (empty window in `handle_slow`) were counted
//!   as `serve.cache.miss` — there is nothing the cache could have held;
//! * ANN-preferring requests in [`Mode::Incremental`] were silently served
//!   exact without counting `serve.ann.fallback`.
//!
//! The tests assert *exact* counter deltas, and cross-check them against
//! the per-request [`ReqObs`] flags (which must mirror the counters
//! one-for-one). The file is its own process (integration test), so the
//! global registry is not shared with other test binaries; a lock
//! serialises the tests inside it.

use std::sync::{Mutex, MutexGuard, OnceLock};

use meta_sgcl::{MetaSgcl, MetaSgclConfig};
use models::NetConfig;
use serve::{Engine, HnswConfig, HnswIndex, Mode, ReqObs, Request, TopK};
use telemetry::metrics;

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let l = LOCK.get_or_init(|| Mutex::new(()));
    telemetry::set_enabled(true);
    // A test that panicked while holding the lock doesn't invalidate the
    // registry for the next one.
    l.lock().unwrap_or_else(|e| e.into_inner())
}

fn model(num_items: usize) -> MetaSgcl {
    MetaSgcl::new(MetaSgclConfig {
        net: NetConfig {
            max_len: 6,
            dim: 8,
            layers: 1,
            ..NetConfig::for_items(num_items)
        },
        ..MetaSgclConfig::for_items(num_items)
    })
}

fn score(user: u64, history: Vec<usize>, topk: Option<TopK>) -> Request {
    Request::Score {
        user,
        history,
        k: 5,
        topk,
    }
}

fn append(user: u64, item: usize, topk: Option<TopK>) -> Request {
    Request::Append {
        user,
        item,
        k: 5,
        topk,
    }
}

/// Snapshot of every counter these tests audit.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
struct Counts {
    cold_start: u64,
    cache_hit: u64,
    cache_miss: u64,
    reencode: u64,
    ann_query: u64,
    ann_fallback: u64,
}

fn counts() -> Counts {
    Counts {
        cold_start: metrics::counter("serve.cold_start", false).get(),
        cache_hit: metrics::counter("serve.cache.hit", false).get(),
        cache_miss: metrics::counter("serve.cache.miss", false).get(),
        reencode: metrics::counter("serve.reencode", false).get(),
        ann_query: metrics::counter("serve.ann.query", false).get(),
        ann_fallback: metrics::counter("serve.ann.fallback", false).get(),
    }
}

fn delta(before: Counts, after: Counts) -> Counts {
    Counts {
        cold_start: after.cold_start - before.cold_start,
        cache_hit: after.cache_hit - before.cache_hit,
        cache_miss: after.cache_miss - before.cache_miss,
        reencode: after.reencode - before.reencode,
        ann_query: after.ann_query - before.ann_query,
        ann_fallback: after.ann_fallback - before.ann_fallback,
    }
}

/// The counter deltas the [`ReqObs`] flags imply: flags and counters must
/// agree request-for-request.
fn implied(obs: &[ReqObs]) -> Counts {
    let mut c = Counts {
        cold_start: 0,
        cache_hit: 0,
        cache_miss: 0,
        reencode: 0,
        ann_query: 0,
        ann_fallback: 0,
    };
    for o in obs {
        c.cold_start += o.cold_start as u64;
        c.cache_hit += o.cache_hit as u64;
        c.reencode += o.reencode as u64;
        c.ann_fallback += o.ann_fallback as u64;
        // Exact re-encodes that are neither cold starts nor cache hits are
        // cache misses; ANN-served requests count a query instead.
        if o.ann {
            c.ann_query += 1;
        } else if o.reencode {
            c.cache_miss += 1;
        }
    }
    c
}

fn run(engine: &Engine<impl serve::FrozenScorer>, reqs: &[Request]) -> (Counts, Vec<ReqObs>) {
    let before = counts();
    let (_, obs) = engine.handle_batch_obs(reqs, false);
    (delta(before, counts()), obs)
}

#[test]
fn incremental_cold_start_is_not_a_cache_miss() {
    let _g = lock();
    let engine = Engine::new(model(12), Mode::Incremental);
    let (d, obs) = run(&engine, &[score(1, vec![], None)]);
    assert_eq!(d.cold_start, 1, "cold start counted once");
    assert_eq!(d.cache_miss, 0, "regression: cold start counted as miss");
    assert_eq!(d.reencode, 0, "nothing was encoded");
    assert!(obs[0].cold_start && !obs[0].cache_hit && !obs[0].reencode);
    assert_eq!(d, implied(&obs));

    // Same request in Full mode: identical accounting.
    let engine = Engine::new(model(12), Mode::Full);
    let (d, obs) = run(&engine, &[score(1, vec![], None)]);
    assert_eq!((d.cold_start, d.cache_miss, d.reencode), (1, 0, 0));
    assert_eq!(d, implied(&obs));
}

#[test]
fn incremental_ann_preference_counts_fallback_exactly_once() {
    let _g = lock();
    let engine = Engine::new(model(12), Mode::Incremental);
    // Slow path (fresh history) with an ANN preference.
    let (d, obs) = run(&engine, &[score(1, vec![1, 2], Some(TopK::Ann))]);
    assert_eq!(
        d.ann_fallback, 1,
        "regression: incremental ANN request served exact without counting a fallback"
    );
    assert_eq!(d.ann_query, 0, "no index exists in incremental mode");
    assert_eq!(d.cache_miss, 1);
    assert!(obs[0].ann_fallback && !obs[0].ann);
    assert_eq!(d, implied(&obs));

    // Fast path (cached state) with an ANN preference: still one fallback.
    let (d, obs) = run(&engine, &[append(1, 3, Some(TopK::Ann))]);
    assert_eq!(
        d.ann_fallback, 1,
        "fast appends must count the fallback too"
    );
    assert_eq!(d.cache_hit, 1);
    assert_eq!(d.cache_miss, 0);
    assert!(obs[0].ann_fallback && obs[0].cache_hit);
    assert_eq!(d, implied(&obs));

    // Exact-preferring traffic never counts a fallback.
    let (d, _) = run(&engine, &[append(1, 4, None)]);
    assert_eq!(d.ann_fallback, 0);
}

#[test]
fn batched_appends_count_one_hit_per_request_not_per_flush() {
    let _g = lock();
    let engine = Engine::new(model(12), Mode::Incremental);
    // Seed three users with live state (3 misses).
    let (d, _) = run(
        &engine,
        &[
            score(1, vec![1, 2], None),
            score(2, vec![3, 4], None),
            score(3, vec![5], None),
        ],
    );
    assert_eq!((d.cache_miss, d.cache_hit), (3, 0));
    // One coalesced batch of three appends → exactly 3 hits, 0 misses.
    let (d, obs) = run(
        &engine,
        &[append(1, 6, None), append(2, 7, None), append(3, 8, None)],
    );
    assert_eq!(d.cache_hit, 3, "one hit per request in the coalesced step");
    assert_eq!((d.cache_miss, d.reencode, d.cold_start), (0, 0, 0));
    assert!(obs.iter().all(|o| o.cache_hit));
    assert_eq!(d, implied(&obs));

    // Duplicate users in one batch cannot coalesce: the second append for
    // user 1 flushes the group and re-encodes (1 hit + 1 miss).
    let (d, obs) = run(&engine, &[append(1, 9, None), append(1, 10, None)]);
    assert_eq!((d.cache_hit, d.cache_miss), (1, 1));
    assert_eq!(d, implied(&obs));
}

#[test]
fn full_mode_ann_fallback_without_an_index_counts_once() {
    let _g = lock();
    let engine = Engine::new(model(12), Mode::Full);
    let (d, obs) = run(&engine, &[score(1, vec![1, 2, 3], Some(TopK::Ann))]);
    assert_eq!(d.ann_fallback, 1);
    assert_eq!(d.ann_query, 0);
    assert_eq!(
        d.cache_miss, 1,
        "the exact path that answered counts its miss"
    );
    assert_eq!(d.reencode, 1, "one re-encode, not two");
    assert!(obs[0].ann_fallback && !obs[0].ann && obs[0].reencode);
    assert_eq!(d, implied(&obs));
}

#[test]
fn full_mode_ann_served_requests_count_a_query_not_a_miss() {
    let _g = lock();
    let m = model(12);
    let index = HnswIndex::build(&m.item_table().borrow().value, 12, &HnswConfig::default());
    let engine = Engine::new(m, Mode::Full).with_ann(index);
    let (d, obs) = run(&engine, &[score(1, vec![1, 2, 3], Some(TopK::Ann))]);
    assert_eq!(d.ann_query, 1);
    assert_eq!(d.ann_fallback, 0);
    assert_eq!(d.cache_miss, 0, "ANN-served requests are not cache misses");
    assert_eq!(d.reencode, 1, "the query embedding is one encode");
    assert!(obs[0].ann && !obs[0].ann_fallback);
    assert_eq!(d, implied(&obs));
}

#[test]
fn mixed_batch_flags_mirror_counters_exactly() {
    let _g = lock();
    let engine = Engine::new(model(12), Mode::Incremental);
    let (seed, _) = run(&engine, &[score(7, vec![1, 2], None)]);
    assert_eq!(seed.cache_miss, 1);
    // Cold start + fast append + slow score + ANN-preferring append in one
    // batch: every flag ↔ counter pairing exercised at once.
    let (d, obs) = run(
        &engine,
        &[
            score(8, vec![], None),
            append(7, 3, None),
            score(9, vec![4, 5], None),
            append(7, 6, Some(TopK::Ann)),
        ],
    );
    assert_eq!(d, implied(&obs));
    assert_eq!(d.cold_start, 1);
    assert_eq!(d.cache_hit, 2);
    assert_eq!(d.cache_miss, 1);
    assert_eq!(d.ann_fallback, 1);
}

//! Multi-threaded stress tests for `tensor::pool`: concurrent
//! acquire/recycle must never hand out dirty "zeroed" buffers, never lose
//! or duplicate storage, keep the hit/miss counters consistent, and keep
//! per-class growth and the bytes retained across classes bounded.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tensor::pool;

/// Sizes above the pooling threshold (1024) plus a distinct offset per
/// class so cross-class reuse would be detectable as a length mismatch.
const SIZES: [usize; 3] = [1024 + 1, 2048 + 3, 4096 + 7];

/// The pool is process-global; serialize the tests in this file so the
/// enabled/disabled toggles and stats-delta assertions don't interleave.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn concurrent_acquire_recycle_returns_zeroed_buffers() {
    let _serial = serial();
    pool::set_enabled(true);
    let threads = 8;
    let rounds = 200;
    let barrier = Barrier::new(threads);
    let dirty = AtomicUsize::new(0);

    std::thread::scope(|s| {
        for t in 0..threads {
            let barrier = &barrier;
            let dirty = &dirty;
            s.spawn(move || {
                barrier.wait();
                for r in 0..rounds {
                    let len = SIZES[(t + r) % SIZES.len()];
                    let mut v = pool::take_zeroed(len);
                    assert_eq!(v.len(), len);
                    if v.iter().any(|&x| x != 0.0) {
                        dirty.fetch_add(1, Ordering::Relaxed);
                    }
                    // Poison the buffer with a thread-distinct pattern so a
                    // zeroing bug in any interleaving shows up elsewhere.
                    let stamp = (t * 1000 + r) as f32 + 0.25;
                    v.iter_mut().for_each(|x| *x = stamp);
                    pool::recycle(v);
                }
            });
        }
    });
    assert_eq!(
        dirty.load(Ordering::Relaxed),
        0,
        "take_zeroed returned non-zero contents under contention"
    );
}

#[test]
fn concurrent_raw_buffers_have_exact_length() {
    let _serial = serial();
    pool::set_enabled(true);
    std::thread::scope(|s| {
        for t in 0..8 {
            s.spawn(move || {
                for r in 0..200 {
                    let len = SIZES[(t + r) % SIZES.len()];
                    let v = pool::take_raw(len);
                    // Stale contents are allowed; wrong length never is.
                    assert_eq!(v.len(), len);
                    pool::recycle(v);
                }
            });
        }
    });
}

#[test]
fn stats_monotone_and_consistent_under_contention() {
    let _serial = serial();
    pool::set_enabled(true);
    let (h0, m0) = pool::stats();
    let threads = 4;
    let rounds = 100;
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                for _ in 0..rounds {
                    let v = pool::take_zeroed(SIZES[0]);
                    pool::recycle(v);
                }
            });
        }
    });
    let (h1, m1) = pool::stats();
    let observed = (h1 - h0) + (m1 - m0);
    assert!(
        observed >= threads * rounds,
        "every pooled-size request is counted exactly once as hit or miss \
         ({observed} < {})",
        threads * rounds
    );
    // With recycling, at least some requests after warmup must be hits.
    assert!(h1 > h0, "no reuse at all under a recycle-heavy workload");
}

/// The per-class cap bounds how much storage a burst can strand in the
/// pool: recycle far more than the cap, then drain and count how many
/// pooled buffers actually come back.
#[test]
fn per_class_growth_is_bounded() {
    let _serial = serial();
    pool::set_enabled(true);
    // A class capacity (7·2^11), untouched by other tests: a buffer of
    // exactly this length is recycled into the class it is taken from.
    let len = 14336;
    let burst = 200;
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(move || {
                for _ in 0..burst / 4 {
                    pool::recycle(vec![1.0f32; len]);
                }
            });
        }
    });
    let (h0, _) = pool::stats();
    // Drain: every pooled hit consumes one stored buffer.
    let drained: Vec<Vec<f32>> = (0..burst).map(|_| pool::take_zeroed(len)).collect();
    let (h1, _) = pool::stats();
    let reused = h1 - h0;
    assert!(
        reused <= 32,
        "per-class cap exceeded: {reused} buffers were stored for one size class"
    );
    drop(drained);
}

#[test]
fn disabled_pool_is_safe_under_threads() {
    let _serial = serial();
    pool::set_enabled(false);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for _ in 0..50 {
                    let v = pool::take_zeroed(SIZES[1]);
                    assert!(v.iter().all(|&x| x == 0.0));
                    pool::recycle(v);
                }
            });
        }
    });
    pool::set_enabled(true);
}

/// Variable shapes cannot inflate the pool: 10k requests of random sizes
/// from 1 KiB to 4 MiB, recycled in bursts, never leave more than the
/// retained-bytes budget on the free lists, and every checkout is exact
/// and clean.
#[test]
fn random_lengths_stay_within_the_retained_budget() {
    let _serial = serial();
    pool::set_enabled(true);
    let mut rng = StdRng::seed_from_u64(20);
    let mut held: Vec<Vec<f32>> = Vec::new();
    let (h0, _) = pool::stats();
    for i in 0..10_000 {
        // Log-uniform bytes, so every size class sees traffic.
        let bytes = 1024.0 * 4096f64.powf(rng.gen::<f64>());
        let len = bytes as usize / 4;
        let mut v = if i % 3 == 0 {
            let v = pool::take_raw(len);
            assert_eq!(v.len(), len, "take_raw length");
            v
        } else {
            let v = pool::take_zeroed(len);
            assert_eq!(v.len(), len, "take_zeroed length");
            assert!(v.iter().all(|&x| x == 0.0), "take_zeroed contents");
            v
        };
        v.iter_mut().for_each(|x| *x = 2.5);
        held.push(v);
        if held.len() >= 12 || rng.gen::<f32>() < 0.3 {
            held.drain(..).for_each(pool::recycle);
        }
        assert!(
            pool::retained_bytes() <= pool::RETAINED_BYTES,
            "pool retains {} B past its {} B budget",
            pool::retained_bytes(),
            pool::RETAINED_BYTES
        );
    }
    let (h1, _) = pool::stats();
    assert!(h1 > h0, "no reuse across size classes");
}

//! A process-wide recycling pool for `Vec<f32>` tensor storage.
//!
//! Training steps allocate and free the same handful of buffer sizes over and
//! over (activations, gradients, GEMM pack scratch). The pool keeps freed
//! buffers on free lists keyed by geometric size class, four classes per
//! doubling of the length, so the next request in a class reuses an
//! allocation instead of hitting the system allocator. A pooled buffer is
//! allocated at its class's capacity (at most 25% over the request), so it
//! can serve any later request of its class; row counts that vary from
//! step to step share a few classes instead of growing one list per length.
//!
//! Retention is bounded twice: at most [`PER_CLASS_CAP`] buffers per class,
//! and at most [`RETAINED_BYTES`] across all free lists. A recycled buffer
//! that would exceed either bound is dropped.
//!
//! Determinism contract: [`take_zeroed`] always returns an all-zero buffer
//! of exactly the requested length, so pooled storage is indistinguishable
//! from a fresh `vec![0.0; len]`. [`take_raw`] returns arbitrary stale
//! contents and is only for scratch that the caller fully overwrites before
//! reading (GEMM pack panels).
//!
//! The pool is opt-in at the call site (`Tensor::pooled_zeros` vs
//! `Tensor::zeros`) and can be disabled globally with `META_SGCL_POOL=0`,
//! which turns every call here into a plain allocate/drop.

use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Buffers shorter than this are never pooled; the allocator is already fast
/// for small blocks and pooling them would just grow the free map.
/// Public so the static cost model in `crates/analysis` can predict which
/// tape buffers will land in pool size classes.
pub const MIN_POOLED_LEN: usize = 1024;

/// At most this many free buffers are kept per size class. Public for the
/// same reason as [`MIN_POOLED_LEN`].
pub const PER_CLASS_CAP: usize = 32;

/// At most this many bytes of capacity are kept across all free lists.
/// Public for the same reason as [`MIN_POOLED_LEN`].
pub const RETAINED_BYTES: usize = 16 << 20;

/// Free lists indexed by size class, plus the bytes they hold.
#[derive(Default)]
struct FreeLists {
    lists: Vec<Vec<Vec<f32>>>,
    bytes: usize,
}

static FREE_LISTS: OnceLock<Mutex<FreeLists>> = OnceLock::new();
static HITS: AtomicUsize = AtomicUsize::new(0);
static MISSES: AtomicUsize = AtomicUsize::new(0);

/// 0 = unknown, 1 = enabled, 2 = disabled.
static ENABLED: AtomicU8 = AtomicU8::new(0);

fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let on = std::env::var("META_SGCL_POOL")
                .map(|v| v != "0")
                .unwrap_or(true);
            ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
            on
        }
    }
}

/// Enables or disables the pool for this process (overrides `META_SGCL_POOL`).
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

fn free_lists() -> &'static Mutex<FreeLists> {
    FREE_LISTS.get_or_init(|| Mutex::new(FreeLists::default()))
}

// Size class `4k + i` (`i < 4`) has capacity `(4 + i)·2^(k−2)`: four
// classes per doubling. Lengths here are at least `MIN_POOLED_LEN`, so
// `k ≥ 10`.

/// `⌊log₂ len⌋`.
fn log2(len: usize) -> usize {
    (usize::BITS - 1 - len.leading_zeros()) as usize
}

/// The smallest class whose capacity holds `len` elements.
fn class_up(len: usize) -> usize {
    let k = log2(len);
    // `i` reaches 4 only above the top class of this doubling, and 4k + 4
    // is the first class of the next one.
    4 * k + (len - (1 << k)).div_ceil(1 << (k - 2))
}

/// The largest class whose capacity a buffer of `capacity` covers.
fn class_down(capacity: usize) -> usize {
    let k = log2(capacity);
    4 * k + (capacity - (1 << k)) / (1 << (k - 2))
}

/// Capacity of class `c`.
fn class_capacity(c: usize) -> usize {
    (4 + c % 4) << (c / 4 - 2)
}

/// The capacity the pool allocates for a request of `len` elements: its
/// size class's, or `len` itself below [`MIN_POOLED_LEN`]. For the cost
/// model's pool-pressure prediction.
pub fn class_len(len: usize) -> usize {
    if len < MIN_POOLED_LEN {
        len
    } else {
        class_capacity(class_up(len))
    }
}

/// Bytes the free lists hold right now.
pub fn retained_bytes() -> usize {
    free_lists().lock().map_or(0, |lists| lists.bytes)
}

/// Pool traffic mirrored into the telemetry registry. Hit/miss ratios depend
/// on allocation interleaving across worker threads, so all three counters
/// are registered nondeterministic (`det = false`): they show up in traces
/// and reports but never in determinism-checked metric snapshots.
fn pool_counter(which: &'static OnceLock<&'static telemetry::Counter>, name: &'static str) {
    which
        .get_or_init(|| telemetry::metrics::counter(name, false))
        .inc();
}

static HIT_CTR: OnceLock<&'static telemetry::Counter> = OnceLock::new();
static MISS_CTR: OnceLock<&'static telemetry::Counter> = OnceLock::new();
static RECYCLE_CTR: OnceLock<&'static telemetry::Counter> = OnceLock::new();

/// A recycled buffer with capacity for `len` elements and arbitrary
/// contents, or `None` on a miss.
fn pop(len: usize) -> Option<Vec<f32>> {
    if !enabled() || len < MIN_POOLED_LEN {
        return None;
    }
    let class = class_up(len);
    let popped = match free_lists().lock() {
        Ok(mut fl) => {
            let v = fl.lists.get_mut(class).and_then(Vec::pop);
            if let Some(v) = &v {
                fl.bytes -= v.capacity() * 4;
            }
            v
        }
        Err(_) => None,
    };
    match popped {
        Some(v) => {
            HITS.fetch_add(1, Ordering::Relaxed);
            pool_counter(&HIT_CTR, "tensor.pool.hit");
            Some(v)
        }
        None => {
            MISSES.fetch_add(1, Ordering::Relaxed);
            pool_counter(&MISS_CTR, "tensor.pool.miss");
            None
        }
    }
}

/// A fresh buffer of `len` zeros, not taken from the free lists. Pooled
/// lengths are allocated at their class capacity, so the buffer can serve
/// any request of its class once recycled; op outputs that do not draw
/// from the pool allocate here so that their recycled storage lands in
/// their own class, not the one below.
pub(crate) fn fresh(len: usize) -> Vec<f32> {
    if !enabled() {
        return vec![0.0; len];
    }
    let mut v = vec![0.0; class_len(len)];
    v.truncate(len);
    v
}

/// An empty buffer with room for `len` elements, allocated as [`fresh`]
/// allocates.
pub(crate) fn with_capacity(len: usize) -> Vec<f32> {
    if !enabled() {
        return Vec::with_capacity(len);
    }
    Vec::with_capacity(class_len(len))
}

/// Takes a buffer of exactly `len` zeros, reusing a recycled allocation when
/// one is available. Bitwise-equivalent to `vec![0.0; len]`.
pub fn take_zeroed(len: usize) -> Vec<f32> {
    match pop(len) {
        Some(mut v) => {
            v.clear();
            v.resize(len, 0.0);
            v
        }
        None => fresh(len),
    }
}

/// Takes a buffer of exactly `len` elements with **arbitrary contents**.
/// Only for scratch space the caller fully overwrites before reading.
pub fn take_raw(len: usize) -> Vec<f32> {
    match pop(len) {
        Some(mut v) => {
            v.resize(len, 0.0);
            v
        }
        None => fresh(len),
    }
}

/// Returns a buffer to the pool, on the list of the largest class its
/// capacity covers. Small buffers, and buffers past the per-class cap or
/// the retained-bytes budget, are simply dropped.
pub fn recycle(v: Vec<f32>) {
    if !enabled() || v.capacity() < MIN_POOLED_LEN {
        return;
    }
    let class = class_down(v.capacity());
    let bytes = v.capacity() * 4;
    if let Ok(mut fl) = free_lists().lock() {
        if fl.bytes + bytes > RETAINED_BYTES {
            return;
        }
        if fl.lists.len() <= class {
            fl.lists.resize_with(class + 1, Vec::new);
        }
        let list = &mut fl.lists[class];
        if list.len() < PER_CLASS_CAP {
            list.push(v);
            fl.bytes += bytes;
            pool_counter(&RECYCLE_CTR, "tensor.pool.recycle");
        }
    }
}

/// (hits, misses) counters for pooled-size requests; used by benchmarks and
/// tests to confirm reuse is actually happening.
pub fn stats() -> (usize, usize) {
    (HITS.load(Ordering::Relaxed), MISSES.load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_reuses_and_zeroes() {
        set_enabled(true);
        let len = MIN_POOLED_LEN + 7;
        let mut v = take_zeroed(len);
        assert!(v.iter().all(|&x| x == 0.0));
        v.iter_mut().for_each(|x| *x = 3.5);
        recycle(v);
        let v2 = take_zeroed(len);
        assert_eq!(v2.len(), len);
        assert!(
            v2.iter().all(|&x| x == 0.0),
            "pooled buffer must come back zeroed"
        );
    }

    #[test]
    fn size_classes_round_up_by_at_most_a_quarter() {
        for c in 40..120 {
            let cap = class_capacity(c);
            assert_eq!(class_up(cap), c, "capacity {cap} is its own class");
            assert_eq!(class_down(cap), c, "capacity {cap} covers its class");
            assert_eq!(class_up(cap + 1), c + 1, "one more spills to the next");
            assert_eq!(class_down(cap - 1), c - 1, "one less covers the previous");
        }
        for len in (MIN_POOLED_LEN..1 << 22).step_by(997) {
            let cap = class_len(len);
            assert!(cap >= len && 4 * cap <= 5 * len, "{len} rounds to {cap}");
        }
        assert_eq!(class_len(MIN_POOLED_LEN - 1), MIN_POOLED_LEN - 1);
    }

    #[test]
    fn small_buffers_are_not_pooled() {
        set_enabled(true);
        let before = stats();
        let v = take_zeroed(8);
        recycle(v);
        let after = stats();
        assert_eq!(
            before, after,
            "sub-threshold sizes bypass the pool entirely"
        );
    }

    #[test]
    fn disabled_pool_is_plain_allocation() {
        set_enabled(false);
        let v = take_zeroed(MIN_POOLED_LEN * 2);
        recycle(v);
        let (h0, _) = stats();
        let v2 = take_raw(MIN_POOLED_LEN * 2);
        assert!(v2.iter().all(|&x| x == 0.0));
        let (h1, _) = stats();
        assert_eq!(h0, h1, "disabled pool never records hits");
        set_enabled(true);
    }
}

//! Kernel dispatch cutoffs.
//!
//! Every size threshold that decides between a serial and a rayon-parallel
//! kernel path lives here, in one place, instead of as scattered magic
//! numbers inside `ops.rs`. Each cutoff starts at a default chosen on a
//! single CPU core and can be overridden in-process with its `set_*`
//! function, which the property tests use to force the parallel and SIMD
//! paths on small inputs.
//!
//! Changing a cutoff only moves work between the serial and parallel paths;
//! both paths compute bitwise-identical results (see the determinism notes
//! in `ops.rs`), so these cutoffs are pure performance tuning.

use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};

/// Minimum number of output elements before an elementwise / row-wise kernel
/// fans out over rayon. Below this, thread-spawn overhead dominates the
/// arithmetic.
static PAR_MIN_ELEMS: AtomicUsize = AtomicUsize::new(32_768);

/// Block size in elements for parallel elementwise kernels.
static PAR_BLOCK: AtomicUsize = AtomicUsize::new(8_192);

/// Minimum `m` (output rows) before a GEMM fans out one rayon task per row.
static GEMM_PAR_ROWS: AtomicUsize = AtomicUsize::new(32);

/// Minimum per-row work `k·n` (multiply-adds) before a GEMM fans out over
/// rayon. Both GEMM conditions must hold for the parallel path to engage.
static GEMM_PAR_ROW_WORK: AtomicUsize = AtomicUsize::new(16_384);

/// Minimum inner width (`n` for axpy rows, element count for elementwise
/// kernels) before dispatching to a SIMD kernel: 8 is one full AVX2
/// vector. Below this the dispatch overhead cannot pay for itself; the 4×8
/// stripe kernel is exempt because its width is fixed.
static SIMD_MIN_N: AtomicUsize = AtomicUsize::new(8);

/// [`SIMD`] before its first read.
const SIMD_UNSET: u8 = 2;

/// SIMD kill switch (`META_SGCL_SIMD`, read once on first use, default
/// on). Any value other than 0 enables runtime-dispatched SIMD kernels;
/// `META_SGCL_SIMD=0` restores the exact scalar micro-kernel behaviour
/// (`simd::Level::Scalar` everywhere). Safe to flip at any time: the
/// FixedOrder SIMD kernels are bitwise-identical to scalar by construction
/// (see `simd` module docs).
static SIMD: AtomicU8 = AtomicU8::new(SIMD_UNSET);

/// Current elementwise-parallelism element cutoff.
pub fn par_min_elems() -> usize {
    PAR_MIN_ELEMS.load(Ordering::Relaxed)
}

/// Overrides [`par_min_elems`] for this process.
pub fn set_par_min_elems(v: usize) {
    PAR_MIN_ELEMS.store(v, Ordering::Relaxed);
}

/// Current parallel elementwise block size (elements), at least 1.
pub fn par_block() -> usize {
    PAR_BLOCK.load(Ordering::Relaxed)
}

/// Overrides [`par_block`] for this process.
pub fn set_par_block(v: usize) {
    PAR_BLOCK.store(v.max(1), Ordering::Relaxed);
}

/// Current GEMM row-count cutoff for the parallel path.
pub fn gemm_par_rows() -> usize {
    GEMM_PAR_ROWS.load(Ordering::Relaxed)
}

/// Overrides [`gemm_par_rows`] for this process.
pub fn set_gemm_par_rows(v: usize) {
    GEMM_PAR_ROWS.store(v, Ordering::Relaxed);
}

/// Current GEMM per-row work (`k·n`) cutoff for the parallel path.
pub fn gemm_par_row_work() -> usize {
    GEMM_PAR_ROW_WORK.load(Ordering::Relaxed)
}

/// Overrides [`gemm_par_row_work`] for this process.
pub fn set_gemm_par_row_work(v: usize) {
    GEMM_PAR_ROW_WORK.store(v, Ordering::Relaxed);
}

/// Whether SIMD dispatch is enabled (`META_SGCL_SIMD`, default on).
pub fn simd_enabled() -> bool {
    match SIMD.load(Ordering::Relaxed) {
        SIMD_UNSET => {
            let env = std::env::var("META_SGCL_SIMD").ok();
            let on = env.and_then(|s| s.parse::<usize>().ok()) != Some(0);
            // A concurrent `set_simd_enabled` wins over the environment.
            match SIMD.compare_exchange(
                SIMD_UNSET,
                u8::from(on),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => on,
                Err(v) => v != 0,
            }
        }
        v => v != 0,
    }
}

/// Overrides [`simd_enabled`] for this process (kill switch).
pub fn set_simd_enabled(on: bool) {
    SIMD.store(u8::from(on), Ordering::Relaxed);
}

/// Current minimum inner width for SIMD dispatch, at least 1.
pub fn simd_min_n() -> usize {
    SIMD_MIN_N.load(Ordering::Relaxed)
}

/// Overrides [`simd_min_n`] for this process.
pub fn set_simd_min_n(v: usize) {
    SIMD_MIN_N.store(v.max(1), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_overrides() {
        // Defaults resolve (no env override in the test environment unless a
        // sweep set one — accept either the default or a prior set() value,
        // then verify set() round-trips).
        let _ = par_min_elems();
        set_par_min_elems(123);
        assert_eq!(par_min_elems(), 123);
        set_par_min_elems(32_768);

        set_par_block(0);
        assert_eq!(par_block(), 1, "block size is clamped to >= 1");
        set_par_block(8_192);

        set_gemm_par_rows(4);
        set_gemm_par_row_work(100);
        assert_eq!(gemm_par_rows(), 4);
        assert_eq!(gemm_par_row_work(), 100);
        set_gemm_par_rows(32);
        set_gemm_par_row_work(16_384);
    }

    #[test]
    fn simd_knobs_round_trip() {
        // The kill switch and threshold round-trip through set_*; the
        // FixedOrder SIMD kernels are bitwise-identical to scalar, so
        // flipping them here cannot perturb concurrently-running tests.
        let _ = simd_enabled();
        set_simd_enabled(false);
        assert!(!simd_enabled());
        set_simd_enabled(true);
        assert!(simd_enabled());

        set_simd_min_n(0);
        assert_eq!(simd_min_n(), 1, "threshold is clamped to >= 1");
        set_simd_min_n(8);
        assert_eq!(simd_min_n(), 8);
    }
}

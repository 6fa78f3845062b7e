//! Timing-ratio gates: each one compares two code paths on the same host
//! and fails when the faster path stops being faster by its bound.
//!
//! * SIMD ≥ 1.0× scalar on every GEMM shape class, and ≥ 1.5× geomean over
//!   the logits shapes;
//! * every fused NT/TN kernel beats its materialize-transpose baseline;
//! * sampled softmax ≥ 5× faster per epoch than full softmax at 100k items;
//! * an incremental append ≥ 5× faster than a full window re-encode;
//! * sampled request tracing costs ≤ 0.35 of a bare batcher request.
//!
//! Prints one line per gate (value and bound), plus the re-encode and
//! append times behind the incremental ratio, and exits non-zero when any
//! gate fails. Correctness gates live in the test suites; end-to-end speed
//! is `perfbench`'s job.
//!
//! ```sh
//! cargo run --release -p bench --bin gates
//! ```

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use meta_sgcl::{MetaSgcl, MetaSgclConfig};
use models::{NegativeSampler, NetConfig, SasRec, SequentialRecommender, SoftmaxMode, TrainConfig};
use nn::Freeze;
use recdata::{synth, LeaveOneOut};
use serve::{server, Batcher, Engine, Mode, ObsConfig, Request, ServeObs};
use tensor::{ops, tuning, Tensor};

/// Best-of-`reps` milliseconds per call for each closure in `runs`, timed
/// over blocks of `calls` calls. Every closure first runs once untimed,
/// so no side pays the buffer pool's first-touch allocations for being
/// timed first; reps interleave the closures, so ambient load perturbs
/// every side alike.
fn best_ms<const N: usize>(reps: usize, calls: usize, mut runs: [&mut dyn FnMut(); N]) -> [f64; N] {
    for f in runs.iter_mut() {
        f();
    }
    let mut best = [f64::INFINITY; N];
    for _ in 0..reps {
        for (f, b) in runs.iter_mut().zip(&mut best) {
            let t0 = Instant::now();
            for _ in 0..calls {
                f();
            }
            *b = b.min(t0.elapsed().as_secs_f64() * 1e3 / calls as f64);
        }
    }
    best
}

/// Prints one gate line and returns whether `value` is on the right side
/// of `bound` (at least it, or at most it when `at_most`).
fn gate(name: &str, value: f64, bound: f64, at_most: bool) -> bool {
    let (pass, op) = if at_most {
        (value <= bound, "<=")
    } else {
        (value >= bound, ">=")
    };
    let status = if pass { "ok  " } else { "FAIL" };
    println!("{status} {name:<40} {value:>8.3} {op} {bound:.2}");
    pass
}

/// Deterministic pseudo-random fill in roughly [-10, 10).
fn fill(len: usize, seed: u64) -> Vec<f32> {
    let mut x = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 40) as f32 / (1u64 << 24) as f32) * 20.0 - 10.0
        })
        .collect()
}

/// GEMM shape classes `(name, m, k, n)`: tied-softmax logits at two catalog
/// sizes, an attention-score block, and the flattened shared-B backward.
const SHAPES: &[(&str, usize, usize, usize)] = &[
    ("logits_toys", 32, 32, 361),
    ("logits_small", 16, 32, 201),
    ("attention_scores", 40, 20, 20),
    ("logits_backward_flat", 640, 32, 361),
];

/// SIMD-vs-scalar and fused-vs-transpose gates over [`SHAPES`].
fn gemm_gates() -> bool {
    let simd_was = tuning::simd_enabled();
    let mut pass = true;
    let mut log_speedup = 0.0;
    let mut logits = 0;
    for &(name, m, k, n) in SHAPES {
        let a = Tensor::from_vec(fill(m * k, 11), vec![m, k]);
        let b = Tensor::from_vec(fill(n * k, 23), vec![n, k]);
        let at = Tensor::from_vec(fill(k * m, 31), vec![k, m]);
        let bkn = Tensor::from_vec(fill(k * n, 43), vec![k, n]);
        let nt = || ops::matmul_transb(&a, &b).expect("shapes agree").recycle();
        // Tiny shapes run in well under a microsecond: more calls per
        // block keep a noisy row from flapping its gate.
        let calls = 20 * (1 + 400_000 / (m * k * n));

        // Both sides run the same fused NT path; only the dispatch level
        // differs, and FixedOrder kernels are bitwise equal across levels.
        let [simd, scalar] = best_ms(
            5,
            calls,
            [
                &mut || {
                    tuning::set_simd_enabled(true);
                    nt();
                },
                &mut || {
                    tuning::set_simd_enabled(false);
                    nt();
                },
            ],
        );
        tuning::set_simd_enabled(simd_was);
        pass &= gate(&format!("simd/scalar {name}"), scalar / simd, 1.0, false);
        if name.starts_with("logits") {
            log_speedup += (scalar / simd).ln();
            logits += 1;
        }

        let [fused, baseline] = best_ms(
            5,
            calls,
            [&mut || nt(), &mut || {
                let bt = ops::transpose_last2(&b).expect("rank 2");
                drop(ops::matmul(&a, &bt).expect("shapes agree"));
            }],
        );
        pass &= gate(
            &format!("fused/transpose nt {name}"),
            baseline / fused,
            1.0,
            false,
        );
        let [fused, baseline] = best_ms(
            5,
            calls,
            [
                &mut || {
                    ops::matmul_transa(&at, &bkn)
                        .expect("shapes agree")
                        .recycle()
                },
                &mut || {
                    let att = ops::transpose_last2(&at).expect("rank 2");
                    drop(ops::matmul(&att, &bkn).expect("shapes agree"));
                },
            ],
        );
        pass &= gate(
            &format!("fused/transpose tn {name}"),
            baseline / fused,
            1.0,
            false,
        );
    }
    let geomean = (log_speedup / f64::from(logits)).exp();
    pass & gate("simd/scalar logits geomean", geomean, 1.5, false)
}

/// One SASRec epoch over a synthetic 100k-item catalog, full softmax vs
/// 512 sampled negatives.
fn sampled_softmax_gate() -> bool {
    let big = synth::generate(&synth::SynthConfig {
        name: "scale-100k".into(),
        num_users: 12,
        num_items: 100_000,
        num_clusters: 64,
        mean_len: 12.0,
        min_len: 5,
        max_len: 20,
        markov_weight: 0.35,
        pop_weight: 0.15,
        zipf_exponent: 0.6,
        user_interests: 3,
        seed: 42,
    });
    let train = LeaveOneOut::split(&big).train_sequences();
    let net = || {
        SasRec::new(NetConfig {
            dim: 32,
            layers: 1,
            ..NetConfig::for_items(big.num_items)
        })
    };
    // Models are built outside the timed calls; each call trains one more
    // epoch, which costs the same as the first.
    let (mut full, mut sampled) = (net(), net());
    let epoch = |model: &mut SasRec, softmax| {
        let cfg = TrainConfig {
            epochs: 1,
            softmax,
            ..TrainConfig::default()
        };
        model.fit(&train, &cfg);
    };
    let negatives = SoftmaxMode::Sampled {
        negatives: 512,
        sampler: NegativeSampler::Uniform,
    };
    let [full_ms, sampled_ms] = best_ms(
        3,
        1,
        [&mut || epoch(&mut full, SoftmaxMode::Full), &mut || {
            epoch(&mut sampled, negatives)
        }],
    );
    gate(
        "sampled/full softmax epoch 100k items",
        full_ms / sampled_ms,
        5.0,
        false,
    )
}

/// Incremental-append and tracing-overhead gates on a transformer model
/// (dim 32, 2 layers, window 64, 500 items).
fn serving_gates() -> bool {
    let (max_len, num_items) = (64, 500);
    let frozen = MetaSgcl::new(MetaSgclConfig {
        net: NetConfig {
            max_len,
            dim: 32,
            layers: 2,
            ..NetConfig::for_items(num_items)
        },
        ..MetaSgclConfig::for_items(num_items)
    })
    .freeze();
    let history: Vec<usize> = (0..max_len - 1).map(|i| 1 + (i * 7) % num_items).collect();

    let [full_ms] = best_ms(3, 10, [&mut || drop(frozen.begin_incremental(&history))]);
    // Median over single appends into windows of 32..64 items.
    let mut append_ms = Vec::with_capacity(120);
    while append_ms.len() < 120 {
        let (mut state, _) = frozen.begin_incremental(&history[..max_len / 2]);
        while state.len() < max_len && append_ms.len() < 120 {
            let item = 1 + (state.len() * 13) % num_items;
            let t0 = Instant::now();
            drop(frozen.append_incremental(&[item], &mut [&mut state]));
            append_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    append_ms.sort_by(f64::total_cmp);
    let append_ms = append_ms[append_ms.len() / 2];
    let pass = gate(
        "full re-encode/incremental append",
        full_ms / append_ms,
        5.0,
        false,
    );
    // The two timings behind the ratio, so a move in either side shows.
    println!(
        "     re-encode {:.1} us, median append {:.1} us",
        full_ms * 1e3,
        append_ms * 1e3
    );

    // The server's metered request path (ids, phase clocks, sketch and SLO
    // windows, 1-in-16 spans) against a bare batcher submit.
    telemetry::set_enabled(true);
    let engine = Arc::new(Engine::new(frozen, Mode::Incremental));
    engine.warm_up();
    let batcher = Batcher::new(engine, 1, Duration::ZERO);
    let obs = ServeObs::new(ObsConfig {
        tracer: Some(Arc::new(telemetry::trace::Tracer::to_writer(Box::new(
            std::io::sink(),
        )))),
        sample_every: 16,
        ..ObsConfig::default()
    });
    let request = |user| Request::Score {
        user,
        history: (0..8).map(|i| 1 + (i * 7) % num_items).collect(),
        k: 10,
        topk: None,
    };
    let [bare_ms, traced_ms] = best_ms(
        5,
        400,
        [&mut || drop(batcher.submit(request(1001))), &mut || {
            drop(server::score_reply(&batcher, &obs, request(1002)))
        }],
    );
    let overhead = (traced_ms - bare_ms) / bare_ms;
    pass & gate("traced/bare request overhead", overhead, 0.35, true)
}

fn main() -> ExitCode {
    let pass = gemm_gates() & sampled_softmax_gate() & serving_gates();
    if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

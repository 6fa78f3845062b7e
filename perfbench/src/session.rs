//! `serve-session`: a `Batcher` over an `Engine` in `Mode::Incremental`,
//! in process with no socket, driven by two submitting threads in a closed
//! loop.
//!
//! Each thread owns [`USERS_PER_THREAD`] users and visits them in turn: a
//! `Score` with the user's first `h` items, then [`APPENDS`] `Append`s.
//! The window cap is [`WINDOW`], so a visit makes `WINDOW − h`
//! cache-extending appends and then slides (re-encodes) on each remaining
//! append. `h` is drawn per user from [`HISTORY`], so slides land at
//! different points of different visits, while their share stays fixed on
//! average: 2 of 14 appends. The catalog is small and the window long, so
//! the encoder outweighs the exact top-k.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use meta_sgcl_repro::meta_sgcl::{FrozenMetaSgcl, MetaSgcl, MetaSgclConfig};
use meta_sgcl_repro::models::NetConfig;
use meta_sgcl_repro::nn::Freeze;
use meta_sgcl_repro::recdata::{synth, ItemId};
use meta_sgcl_repro::serve::{top_k, Batcher, Engine, JobReport, Mode, Request, Response};
use meta_sgcl_repro::telemetry::{self, MetricValue};

use crate::report::{peak_rss_mb, Outcome, Rng};
use crate::stats::{block_tail, mean, median, windowed_rate};

/// Submitting threads.
const THREADS: usize = 2;
/// Users owned by each thread.
const USERS_PER_THREAD: usize = 1000;
/// Catalog size.
const ITEMS: usize = 1000;
/// Incremental window cap (the model's `max_len`).
const WINDOW: usize = 50;
/// Items in a visit's `Score` history, drawn per user.
const HISTORY: std::ops::RangeInclusive<usize> = 36..=40;
/// `Append`s per visit.
const APPENDS: usize = 14;
/// Embedding width.
const DIM: usize = 32;
/// Recommendations per request.
const K: usize = 10;
/// Batcher limits (the `msgc serve` defaults).
const BATCH_MAX: usize = 16;
const BATCH_WAIT: Duration = Duration::from_micros(200);
/// Visits per thread whose replies are checked against the reference.
const CHECK_VISITS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// One user: their item sequence and the history length their visits
/// start from.
struct User {
    seq: Vec<ItemId>,
    history: usize,
}

impl User {
    /// The `Score` that opens a visit.
    fn score(&self, user: u64) -> Request {
        Request::Score {
            user,
            history: self.seq[..self.history].to_vec(),
            k: K,
            topk: None,
        }
    }

    /// The requests of one visit, in order.
    fn visit(&self, user: u64) -> Vec<Request> {
        let appends = &self.seq[self.history..self.history + APPENDS];
        std::iter::once(self.score(user))
            .chain(appends.iter().map(|&item| Request::Append {
                user,
                item,
                k: K,
                topk: None,
            }))
            .collect()
    }

    /// The window the engine scores after the `j`-th request of a visit.
    fn window_after(&self, j: usize) -> &[ItemId] {
        let end = self.history + j;
        &self.seq[end.saturating_sub(WINDOW)..end]
    }
}

/// A reply is well formed: it echoes the user and holds `K` distinct
/// catalog items with finite, non-increasing scores.
fn well_formed(r: &Response, user: u64) -> bool {
    let distinct: HashSet<_> = r.items.iter().collect();
    r.user == user
        && r.items.len() == K
        && r.scores.len() == K
        && distinct.len() == K
        && r.items.iter().all(|&i| (1..=ITEMS).contains(&i))
        && r.scores.iter().all(|s| s.is_finite())
        && r.scores.windows(2).all(|w| w[0] >= w[1])
}

/// Freeze, warm-up and session preload.
fn setup(model: &MetaSgcl, users: &[User]) -> Arc<Engine<FrozenMetaSgcl>> {
    let engine = Engine::new(model.freeze(), Mode::Incremental);
    engine.warm_up();
    let preload: Vec<Request> = users
        .iter()
        .enumerate()
        .map(|(u, user)| user.score(u as u64))
        .collect();
    for batch in preload.chunks(BATCH_MAX) {
        engine.handle_batch(batch);
    }
    Arc::new(engine)
}

/// What one submitting thread saw.
#[derive(Default)]
struct Load {
    latency_ms: Vec<f64>,
    /// Completion times, seconds since the phase started.
    done_s: Vec<f64>,
    reports: Vec<JobReport>,
    failed: u64,
    /// (visit request index, reply) of the checked visits.
    checked: Vec<(usize, usize, Response)>,
}

/// Closed loop over this thread's users until `until`.
fn drive(
    batcher: &Batcher<FrozenMetaSgcl>,
    users: &[User],
    t: usize,
    (origin, until): (Instant, Instant),
    traced: bool,
) -> Load {
    let mut load = Load::default();
    let owned = (t * USERS_PER_THREAD..(t + 1) * USERS_PER_THREAD).cycle();
    'outer: for (visits, u) in owned.enumerate() {
        for (j, req) in users[u].visit(u as u64).into_iter().enumerate() {
            let start = Instant::now();
            let (resp, report) = if traced {
                batcher.submit_obs(req, true)
            } else {
                (batcher.submit(req), JobReport::default())
            };
            load.latency_ms.push(start.elapsed().as_secs_f64() * 1e3);
            load.done_s.push(origin.elapsed().as_secs_f64());
            if traced {
                load.reports.push(report);
            }
            if !well_formed(&resp, u as u64) {
                load.failed += 1;
            }
            if visits < CHECK_VISITS {
                load.checked.push((u, j, resp));
            }
            if Instant::now() >= until {
                break 'outer;
            }
        }
    }
    load
}

/// Runs both threads for `secs`; returns their merged load.
fn phase(
    batcher: &Batcher<FrozenMetaSgcl>,
    users: &[User],
    secs: f64,
    traced: bool,
) -> Result<Load, String> {
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(secs);
    let loads = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| s.spawn(move || drive(batcher, users, t, (start, until), traced)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "a submitting thread panicked".to_string())
            })
            .collect::<Result<Vec<Load>, String>>()
    })?;
    let mut all = Load::default();
    for l in loads {
        all.latency_ms.extend(l.latency_ms);
        all.done_s.extend(l.done_s);
        all.reports.extend(l.reports);
        all.failed += l.failed;
        all.checked.extend(l.checked);
    }
    Ok(all)
}

fn counter(name: &str) -> f64 {
    telemetry::metrics::snapshot()
        .into_iter()
        .find(|m| m.name == name)
        .map_or(0.0, |m| match m.value {
            MetricValue::Counter(v) => v as f64,
            MetricValue::Histogram { count, sum, .. } => sum as f64 / count.max(1) as f64,
            _ => 0.0,
        })
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let data = synth::generate(&synth::SynthConfig {
        num_users: THREADS * USERS_PER_THREAD,
        num_items: ITEMS,
        min_len: HISTORY.end() + APPENDS,
        mean_len: 60.0,
        max_len: 80,
        ..synth::SynthConfig::toys_like(seed)
    });
    let mut rng = Rng::new(seed, 7);
    let users: Vec<User> = data
        .sequences
        .into_iter()
        .map(|seq| User {
            seq,
            history: rng.range(*HISTORY.start(), HISTORY.end() + 1),
        })
        .collect();
    if users.len() != THREADS * USERS_PER_THREAD
        || users.iter().any(|u| u.seq.len() < u.history + APPENDS)
    {
        return Err("generated histories are shorter than a visit".into());
    }
    let model = MetaSgcl::new(MetaSgclConfig {
        net: NetConfig {
            dim: DIM,
            max_len: WINDOW,
            seed,
            ..NetConfig::for_items(data.num_items)
        },
        ..MetaSgclConfig::for_items(data.num_items)
    });

    let mut setup_s = Vec::new();
    let mut engine = None;
    for _ in 0..SETUPS {
        drop(engine.take());
        let t = Instant::now();
        engine = Some(setup(&model, &users));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let engine = engine.ok_or("no set-up ran")?;
    let batcher = Batcher::new(Arc::clone(&engine), BATCH_MAX, BATCH_WAIT);

    let base_secs = if traced { seconds / 2.0 } else { seconds };
    let base = phase(&batcher, &users, base_secs, false)?;
    let mut checked = base.checked;
    out.attempted += base.latency_ms.len() as u64;
    out.failed += base.failed;
    let t = block_tail(&base.latency_ms);
    out.set("tail_ms", t.value);

    if traced {
        telemetry::metrics::reset();
        telemetry::set_enabled(true);
        let obs = phase(&batcher, &users, seconds / 2.0, true)?;
        telemetry::set_enabled(false);
        out.attempted += obs.latency_ms.len() as u64;
        out.failed += obs.failed;
        checked.extend(obs.checked);
        let us = |ns: u64| ns as f64 / 1e3;
        let r = &obs.reports;
        let pick = |f: &dyn Fn(&JobReport) -> bool| -> Vec<f64> {
            r.iter()
                .filter(|x| f(x))
                .map(|x| us(x.obs.forward_ns))
                .collect()
        };
        let hits: Vec<&JobReport> = r.iter().filter(|x| x.obs.cache_hit).collect();
        let steps: HashSet<(u64, u64)> = hits
            .iter()
            .map(|x| (x.assemble_ns, x.obs.forward_ns))
            .collect();
        out.set(
            "batcher.enqueue_us",
            mean(&r.iter().map(|x| us(x.enqueue_ns)).collect::<Vec<_>>()),
        );
        out.set(
            "batcher.assemble_us",
            mean(&r.iter().map(|x| us(x.assemble_ns)).collect::<Vec<_>>()),
        );
        out.set("batcher.batch_size", counter("serve.batch.size"));
        out.set("engine.forward_us", mean(&pick(&|_| true)));
        out.set("engine.append_us", mean(&pick(&|x| x.obs.cache_hit)));
        out.set("engine.reencode_us", mean(&pick(&|x| x.obs.reencode)));
        out.set(
            "engine.retrieve_us",
            mean(&r.iter().map(|x| us(x.obs.retrieve_ns)).collect::<Vec<_>>()),
        );
        let (hit, miss) = (counter("serve.cache.hit"), counter("serve.cache.miss"));
        out.set("engine.cache_hit_ratio", hit / (hit + miss).max(1.0));
        out.set(
            "engine.appends_per_step",
            hits.len() as f64 / steps.len().max(1) as f64,
        );
        out.set("engine.sessions", engine.num_sessions() as f64);
        let (ph, pm) = (counter("tensor.pool.hit"), counter("tensor.pool.miss"));
        out.set("tensor.pool.hit_ratio", ph / (ph + pm).max(1.0));
        let (p0, p1) = (median(&base.latency_ms), median(&obs.latency_ms));
        let (t0, t1) = (windowed_rate(&base.done_s), windowed_rate(&obs.done_s));
        out.set("trace.p50_delta_frac", (p1 - p0) / p0);
        out.set("trace.throughput_delta_frac", (t1 - t0) / t0);
    } else {
        out.set("setup_s", median(&setup_s));
        out.set("throughput_per_s", windowed_rate(&base.done_s));
        out.set("p50_ms", median(&base.latency_ms));
        out.note(format!(
            "requests {}, tail {:.4} ms = p{:.3} of n={} (median block); {} users, \
             window {WINDOW}, {APPENDS} appends per visit; set-ups {setup_s:.3?} s",
            base.latency_ms.len(),
            t.value,
            t.percentile,
            t.n,
            users.len(),
        ));
    }
    drop(batcher);

    // Bitwise check of the sampled replies against the autograd
    // left-aligned reference on the same window.
    let matched = checked
        .iter()
        .filter(|(u, j, resp)| {
            let (items, scores) = top_k(&model.score_left_aligned(users[*u].window_after(*j)), K);
            items == resp.items
                && scores
                    .iter()
                    .map(|s| s.to_bits())
                    .eq(resp.scores.iter().map(|s| s.to_bits()))
        })
        .count();
    let quality = matched as f64 / checked.len().max(1) as f64;
    out.note(format!(
        "reference check: {matched} of {} replies bitwise equal",
        checked.len()
    ));
    if checked.is_empty() || matched != checked.len() {
        out.fail_check(format!(
            "{} of {} replies differ from the reference",
            checked.len() - matched,
            checked.len()
        ));
    }
    out.set("quality", quality);
    out.set("peak_rss_mb", peak_rss_mb("self").unwrap_or(0.0));
    Ok(out)
}

//! Serving observability: request ids, deterministic trace sampling,
//! latency sketches, sliding-window SLO monitors, and the admin snapshot
//! (DESIGN.md §15).
//!
//! One [`ServeObs`] instance is shared by the TCP front end and the bench
//! loadgen. Per request it:
//!
//! * allocates a process-unique request id and decides *deterministically*
//!   (`id % sample_every == 0`) whether the request is traced — repeated
//!   runs sample the same requests, and overhead is bounded by the rate;
//! * records the end-to-end latency into the global `serve.latency_us`
//!   quantile sketch and the sliding SLO windows;
//! * for sampled requests, emits a span tree (`request` → `enqueue`,
//!   `assemble`, `forward`, `retrieve`, `serialize`) plus one flat `req`
//!   event to the trace stream.
//!
//! With no tracer attached and telemetry disabled, the per-request cost is
//! one atomic increment for the id and the windowed-rate mutex updates;
//! `telemetry/tests/alloc.rs` holds the disabled registry to zero
//! allocations.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use recdata::ItemId;
use telemetry::metrics;
use telemetry::slo::{
    SloKind, SloMonitor, SloState, SloStatus, WindowCfg, WindowedQuantile, WindowedRate,
};
use telemetry::trace::{Field, SpanId, Tracer};

use crate::engine::{top_k, Engine, FrozenScorer, ReqObs};

/// SLO budgets for the windowed monitors. `None` disables a monitor
/// (e.g. the cache-hit floor is meaningless in [`crate::Mode::Full`],
/// where every request re-encodes).
#[derive(Debug, Clone, Copy)]
pub struct SloBudgets {
    /// Windowed p99 end-to-end latency budget, in milliseconds.
    pub p99_ms: f64,
    /// Maximum fraction of requests falling back from ANN to exact.
    pub max_fallback_rate: f64,
    /// Maximum fraction of requests served the cold-start ranking.
    pub max_cold_rate: f64,
    /// Minimum incremental cache hit rate (fast appends / requests).
    pub min_hit_rate: Option<f64>,
    /// Minimum live recall@10 measured by the ANN canary.
    pub min_recall: Option<f64>,
}

impl Default for SloBudgets {
    fn default() -> Self {
        SloBudgets {
            p99_ms: 50.0,
            max_fallback_rate: 0.1,
            max_cold_rate: 0.5,
            min_hit_rate: None,
            min_recall: None,
        }
    }
}

/// Configuration for [`ServeObs::new`].
pub struct ObsConfig {
    /// Trace output; `None` disables span/`req` emission entirely.
    pub tracer: Option<Arc<Tracer>>,
    /// Trace 1-in-N requests (keyed by request id). `0` is treated as 1
    /// (trace everything).
    pub sample_every: u64,
    /// Sliding-window geometry shared by every monitor.
    pub window: WindowCfg,
    /// SLO budgets.
    pub budgets: SloBudgets,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            tracer: None,
            sample_every: 64,
            window: WindowCfg::default(),
            budgets: SloBudgets::default(),
        }
    }
}

/// Everything known about one finished request, handed to
/// [`ServeObs::complete`] by the front end.
#[derive(Debug, Clone, Copy)]
pub struct ReqCtx {
    /// Request id from [`ServeObs::next_id`].
    pub id: u64,
    /// Wire operation (`"score"` / `"append"`).
    pub op: &'static str,
    /// User key.
    pub user: u64,
    /// Whether this request was selected for tracing.
    pub sampled: bool,
    /// End-to-end wall time (parse → response serialized).
    pub total_ns: u64,
    /// Queue wait: submit → batch dispatch.
    pub enqueue_ns: u64,
    /// Batch assembly: first-job pickup → dispatch.
    pub assemble_ns: u64,
    /// Response serialization time.
    pub serialize_ns: u64,
    /// Engine-side flags and phase timings.
    pub obs: ReqObs,
}

/// Shared serving-observability state (see module docs).
pub struct ServeObs {
    tracer: Option<Arc<Tracer>>,
    sample_every: u64,
    next_id: AtomicU64,
    window_secs: f64,
    win_latency: WindowedQuantile,
    win_qps: WindowedRate,
    win_fallback: WindowedRate,
    win_cold: WindowedRate,
    win_hit: WindowedRate,
    slo_p99: SloMonitor,
    slo_fallback: SloMonitor,
    slo_cold: SloMonitor,
    slo_hit: Option<SloMonitor>,
    slo_recall: Option<SloMonitor>,
    /// Latest canary recall@10 (f64 bits; u64::MAX = not yet measured).
    canary_bits: AtomicU64,
}

const CANARY_UNSET: u64 = u64::MAX;

impl ServeObs {
    /// Builds the shared observability state.
    pub fn new(cfg: ObsConfig) -> Arc<ServeObs> {
        let origin = Instant::now();
        let b = cfg.budgets;
        Arc::new(ServeObs {
            tracer: cfg.tracer,
            sample_every: cfg.sample_every.max(1),
            next_id: AtomicU64::new(1),
            window_secs: cfg.window.window_secs(),
            win_latency: WindowedQuantile::new(
                cfg.window,
                telemetry::sketch::DEFAULT_ALPHA,
                origin,
            ),
            win_qps: WindowedRate::new(cfg.window, origin),
            win_fallback: WindowedRate::new(cfg.window, origin),
            win_cold: WindowedRate::new(cfg.window, origin),
            win_hit: WindowedRate::new(cfg.window, origin),
            slo_p99: SloMonitor::new("p99_latency_ms", SloKind::UpperBound, b.p99_ms),
            slo_fallback: SloMonitor::new(
                "ann_fallback_rate",
                SloKind::UpperBound,
                b.max_fallback_rate,
            ),
            slo_cold: SloMonitor::new("cold_start_rate", SloKind::UpperBound, b.max_cold_rate),
            slo_hit: b
                .min_hit_rate
                .map(|t| SloMonitor::new("cache_hit_rate", SloKind::LowerBound, t)),
            slo_recall: b
                .min_recall
                .map(|t| SloMonitor::new("recall_at_10", SloKind::LowerBound, t)),
            canary_bits: AtomicU64::new(CANARY_UNSET),
        })
    }

    /// Allocates the next request id.
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// The configured sampling period (1 = trace everything).
    pub fn sample_every(&self) -> u64 {
        self.sample_every
    }

    /// Deterministic sampling decision for a request id: true when a
    /// tracer is attached and `id % sample_every == 0`.
    pub fn sampled(&self, id: u64) -> bool {
        self.tracer.is_some() && id.is_multiple_of(self.sample_every)
    }

    /// Records one finished request: latency sketch, SLO windows, and —
    /// when sampled — the span tree and `req` event.
    pub fn complete(&self, ctx: &ReqCtx) {
        let now = Instant::now();
        let total_us = ctx.total_ns / 1_000;
        metrics::sketch("serve.latency_us", false).record(total_us);
        self.win_latency.record_at(now, total_us);
        self.win_qps.record_at(now, 1, 1);
        self.win_fallback
            .record_at(now, ctx.obs.ann_fallback as u64, 1);
        self.win_cold.record_at(now, ctx.obs.cold_start as u64, 1);
        self.win_hit.record_at(now, ctx.obs.cache_hit as u64, 1);
        if ctx.sampled {
            self.emit_trace(ctx);
        }
    }

    /// Emits the span tree and flat `req` event for a sampled request.
    /// Span timestamps are reconstructed on the tracer clock: the request
    /// ends "now", phases are laid out from the recorded durations.
    fn emit_trace(&self, ctx: &ReqCtx) {
        let Some(tracer) = &self.tracer else { return };
        let end_ns = tracer.now_ns();
        let start_ns = end_ns.saturating_sub(ctx.total_ns);
        let root = tracer.alloc_id();
        let id_field = [("req_id", Field::U64(ctx.id))];
        // `enqueue` (submit → batch dispatch) and `assemble` (first-job
        // pickup → dispatch) both end at dispatch, so assemble nests at
        // the tail of the enqueue window rather than following it.
        let enq = ctx.enqueue_ns;
        let asm = ctx.assemble_ns.min(enq);
        tracer.emit_span(tracer.alloc_id(), root, "enqueue", start_ns, enq, &id_field);
        tracer.emit_span(
            tracer.alloc_id(),
            root,
            "assemble",
            start_ns + (enq - asm),
            asm,
            &id_field,
        );
        let mut cursor = start_ns + enq;
        for (name, dur) in [
            ("forward", ctx.obs.forward_ns),
            ("retrieve", ctx.obs.retrieve_ns),
        ] {
            tracer.emit_span(tracer.alloc_id(), root, name, cursor, dur, &id_field);
            cursor += dur;
        }
        tracer.emit_span(
            tracer.alloc_id(),
            root,
            "serialize",
            end_ns.saturating_sub(ctx.serialize_ns),
            ctx.serialize_ns,
            &id_field,
        );
        tracer.emit_span(
            root,
            SpanId::ROOT,
            "request",
            start_ns,
            ctx.total_ns,
            &[
                ("req_id", Field::U64(ctx.id)),
                ("op", Field::Str(ctx.op)),
                ("user", Field::U64(ctx.user)),
            ],
        );
        tracer.event(
            "req",
            &[
                ("id", Field::U64(ctx.id)),
                ("op", Field::Str(ctx.op)),
                ("user", Field::U64(ctx.user)),
                ("enqueue_ns", Field::U64(ctx.enqueue_ns)),
                ("assemble_ns", Field::U64(ctx.assemble_ns)),
                ("forward_ns", Field::U64(ctx.obs.forward_ns)),
                ("retrieve_ns", Field::U64(ctx.obs.retrieve_ns)),
                ("serialize_ns", Field::U64(ctx.serialize_ns)),
                ("total_ns", Field::U64(ctx.total_ns)),
                ("cold_start", Field::Bool(ctx.obs.cold_start)),
                ("cache_hit", Field::Bool(ctx.obs.cache_hit)),
                ("ann", Field::Bool(ctx.obs.ann)),
                ("ann_fallback", Field::Bool(ctx.obs.ann_fallback)),
            ],
        );
    }

    /// Flushes the trace stream, if any.
    pub fn flush(&self) {
        if let Some(t) = &self.tracer {
            t.flush();
        }
    }

    /// Publishes a fresh canary recall@10 measurement.
    pub fn set_canary_recall(&self, recall: f64) {
        self.canary_bits.store(recall.to_bits(), Ordering::Relaxed);
        metrics::gauge("serve.canary.recall_at_10", false).set(recall);
    }

    /// The latest canary measurement, if any.
    pub fn canary_recall(&self) -> Option<f64> {
        let bits = self.canary_bits.load(Ordering::Relaxed);
        (bits != CANARY_UNSET).then(|| f64::from_bits(bits))
    }

    /// Requests per second over the sliding window.
    pub fn qps(&self) -> f64 {
        let (n, _) = self.win_qps.totals_at(Instant::now());
        n as f64 / self.window_secs
    }

    /// Evaluates every configured SLO monitor against its window.
    pub fn slo_states(&self) -> Vec<SloState> {
        let now = Instant::now();
        let p99_ms = self
            .win_latency
            .quantile_at(now, 0.99)
            .map(|us| us / 1_000.0);
        let mut states = vec![
            self.slo_p99.eval(p99_ms),
            self.slo_fallback.eval(self.win_fallback.value_at(now)),
            self.slo_cold.eval(self.win_cold.value_at(now)),
        ];
        if let Some(m) = &self.slo_hit {
            states.push(m.eval(self.win_hit.value_at(now)));
        }
        if let Some(m) = &self.slo_recall {
            states.push(m.eval(self.canary_recall()));
        }
        states
    }

    /// The admin `snapshot` document: name-sorted registry metrics (as
    /// `metric` event objects) plus the evaluated SLO states, one line.
    pub fn snapshot_json(&self) -> String {
        // Refresh derived gauges so the snapshot is self-contained.
        metrics::gauge("serve.qps", false).set(self.qps());
        let metrics_json: Vec<String> = metrics::snapshot().iter().map(|m| m.to_jsonl()).collect();
        let slos_json: Vec<String> = self.slo_states().iter().map(|s| s.to_json()).collect();
        format!(
            "{{\"ok\":true,\"kind\":\"snapshot\",\"metrics\":[{}],\"slos\":[{}]}}",
            metrics_json.join(","),
            slos_json.join(",")
        )
    }

    /// The admin `health` document: `pass` when no monitor is currently
    /// degraded, else `degraded` with one reason per failing monitor.
    pub fn health_json(&self) -> String {
        let states = self.slo_states();
        let degraded: Vec<String> = states
            .iter()
            .filter(|s| s.status == SloStatus::Degraded)
            .map(|s| {
                format!(
                    "\"{}: {}\"",
                    s.name,
                    telemetry::trace::json_escape(&s.reason)
                )
            })
            .collect();
        let status = if degraded.is_empty() {
            "pass"
        } else {
            "degraded"
        };
        format!(
            "{{\"ok\":true,\"kind\":\"health\",\"status\":\"{status}\",\"reasons\":[{}]}}",
            degraded.join(",")
        )
    }

    /// The admin `prom` document: the Prometheus text exposition wrapped
    /// in one JSON line (the wire protocol is line-delimited).
    pub fn prom_json(&self) -> String {
        metrics::gauge("serve.qps", false).set(self.qps());
        let text = telemetry::prom::render(&metrics::snapshot());
        format!(
            "{{\"ok\":true,\"kind\":\"prom\",\"text\":\"{}\"}}",
            telemetry::trace::json_escape(&text)
        )
    }
}

/// Measures live ANN recall@`k`: replays `probes` through both the ANN
/// index and the exact full-catalog ranking, returning the mean overlap
/// fraction. `None` when the engine has no index, the model exposes no
/// query embeddings, or `probes` is empty.
///
/// Runs on the served model directly — no sessions are touched and no
/// `serve.*` request counters move, so the canary never pollutes traffic
/// accounting.
pub fn canary_recall<M: FrozenScorer>(
    engine: &Engine<M>,
    probes: &[Vec<ItemId>],
    k: usize,
) -> Option<f64> {
    let index = engine.ann()?;
    if probes.is_empty() || k == 0 {
        return None;
    }
    let mut total = 0.0;
    let mut counted = 0usize;
    for probe in probes {
        let Some(q) = engine.model().query_embedding(probe) else {
            continue;
        };
        let ann_items: Vec<ItemId> = index.search(&q, k, 0).into_iter().map(|(i, _)| i).collect();
        let scores = engine.model().score_full(probe);
        let (exact_items, _) = top_k(&scores, k);
        let hits = ann_items.iter().filter(|i| exact_items.contains(i)).count();
        total += hits as f64 / exact_items.len().max(1) as f64;
        counted += 1;
    }
    (counted > 0).then(|| total / counted as f64)
}

/// Deterministic synthetic probe histories for the recall canary, spread
/// across the catalog (seeded, so every run replays the same probes).
pub fn canary_probes(num_items: usize, count: usize, len: usize, seed: u64) -> Vec<Vec<ItemId>> {
    if num_items == 0 {
        return Vec::new();
    }
    (0..count)
        .map(|p| {
            let mut x = seed
                .wrapping_add(p as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15);
            (0..len.max(1))
                .map(|_| {
                    x ^= x >> 27;
                    x = x.wrapping_mul(0x2545_f491_4f6c_dd1d);
                    1 + (x % num_items as u64) as ItemId
                })
                .collect()
        })
        .collect()
}

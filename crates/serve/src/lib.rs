//! Tape-free inference serving for the Meta-SGCL reproduction.
//!
//! The stack, bottom to top:
//!
//! * [`FrozenScorer`] — the serving contract a frozen model implements:
//!   padded full-history scoring (bitwise-identical to the offline
//!   autograd path) and left-aligned incremental state (`begin` + batched
//!   `append`).
//! * [`Engine`] — per-user sessions and the scoring dispatch. In
//!   [`Mode::Full`] every request re-encodes its padded window, matching
//!   `score_sequence` bitwise; in [`Mode::Incremental`] appends are
//!   single-step K/V-cache extensions with slide-on-overflow.
//! * [`Batcher`] — a single worker that coalesces concurrent requests
//!   into one GEMM-friendly batch (continuous batching: it takes what is
//!   already queued and never waits for more).
//! * [`server`] — a line-delimited-JSON TCP front end (`msgc serve`).
//!
//! Serving metrics flow through the [`telemetry`] registry:
//! `serve.requests`, `serve.batch.size`, `serve.batch.wait_us` (the
//! worker's drain of the queue, first-job receipt → dispatch),
//! `serve.cache.hit`, `serve.cache.miss`, `serve.reencode`.
//!
//! Optional weight quantisation for serving lives in [`quant`]:
//! `msgc serve --quantize bf16|int8` halves (or quarters) the resident
//! frozen-weight bytes behind a measured top-k parity gate against the
//! f32 checkpoint. The default f32 mode stays bitwise-identical to the
//! offline scoring path.
//!
//! Optional approximate top-k retrieval lives in [`ann`]: a from-scratch
//! HNSW index over the frozen item embeddings (`msgc serve --ann`),
//! answering `TopK::Ann` requests in O(ef · d · log n) instead of the
//! O(|items| · d) full-catalog projection, behind a measured recall gate
//! (`tests/ann_props.rs`). Empty histories are served a deterministic cold-start
//! ranking (dataset popularity, or fixed item-id order).
//!
//! Production observability lives in [`obs`]: per-request phase traces
//! (enqueue → assemble → forward → retrieve → serialize) with
//! deterministic 1-in-N sampling, a streaming DDSketch latency quantile
//! (`serve.latency_us`), sliding-window SLO monitors (windowed p99 vs
//! budget, ANN fallback rate, cold-start rate, cache hit-rate floor,
//! background recall canary), and a read-only `"admin"` request kind on
//! the serve socket (`snapshot` / `health` / `prom`). `msgc top ADDR`
//! renders the snapshot as a polling terminal dashboard. See DESIGN.md
//! §15.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ann;
mod batcher;
mod engine;
pub mod obs;
pub mod proto;
pub mod quant;
pub mod server;

pub use ann::{HnswConfig, HnswIndex};
pub use batcher::{Batcher, JobReport};
pub use engine::{top_k, Engine, FrozenScorer, Mode, ReqObs, Request, Response, TopK};
pub use obs::{canary_probes, canary_recall, ObsConfig, ReqCtx, ServeObs, SloBudgets};
pub use quant::{quantize_gated, QuantReport};

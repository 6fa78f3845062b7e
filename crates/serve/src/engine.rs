//! The serving engine: frozen-model contract, per-user sessions, and the
//! batched scoring dispatch.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

use meta_sgcl::infer::{FrozenMetaSgcl, State as MetaState};
use models::{FrozenGru4Rec, GruState};
use recdata::ItemId;
use telemetry::metrics;
use tensor::bug::OrBug;
use tensor::Tensor;

use crate::ann::HnswIndex;

/// The contract a frozen model implements to be served.
///
/// Both paths must be bitwise-exact:
///
/// * [`score_full`](FrozenScorer::score_full) reproduces the offline
///   autograd scoring path (padded window) exactly — served responses in
///   [`Mode::Full`] can be compared `==` against `score_sequence`.
/// * [`begin`](FrozenScorer::begin) / [`append_batch`](FrozenScorer::append_batch)
///   maintain left-aligned incremental state whose scores reproduce a full
///   left-aligned re-encode of the same window exactly. For a Transformer
///   model, `begin` is the packed forward over the window that keeps each
///   layer's keys and values, and an append is the same packed forward
///   over one new row per user, a segment whose earlier keys start in the
///   cache; for GRU4Rec the state is the recurrence's hidden vector.
///
/// Scores are read only at the last position, so a Transformer model's
/// `score_full`, `query_embedding` and `begin` run their top layer on the
/// last row alone (every row still gets its keys and values): the same
/// bits as the full forward's last row, for less work.
pub trait FrozenScorer: Send + Sync + 'static {
    /// Per-user incremental cache.
    type State: Send;

    /// Catalog size (excluding padding index 0); scores have
    /// `num_items + 1` entries.
    fn num_items(&self) -> usize;

    /// Maximum window length for incremental state; `0` means unbounded
    /// (e.g. a GRU recurrence, which has no position table to outgrow).
    fn window_cap(&self) -> usize;

    /// Full-history scores under offline (padded) semantics.
    fn score_full(&self, seq: &[ItemId]) -> Vec<f32>;

    /// Encodes a window into fresh incremental state, returning the state
    /// and the catalog scores. `window` is non-empty and at most
    /// [`window_cap`](FrozenScorer::window_cap) items (when capped).
    fn begin(&self, window: &[ItemId]) -> (Self::State, Vec<f32>);

    /// Items absorbed into a state.
    fn state_len(&self, state: &Self::State) -> usize;

    /// Appends one item per user in a single batch; returns each user's
    /// catalog scores in order.
    fn append_batch(&self, items: &[ItemId], states: &mut [&mut Self::State]) -> Vec<Vec<f32>>;

    /// Query vector for approximate top-k retrieval: the hidden state
    /// [`score_full`](FrozenScorer::score_full) projects against the tied
    /// item table, under the same padded semantics. `None` when the model
    /// does not support ANN retrieval (the engine then falls back to the
    /// exact path) or the history is empty.
    fn query_embedding(&self, seq: &[ItemId]) -> Option<Vec<f32>> {
        let _ = seq;
        None
    }

    /// The item-embedding table (`[num_items + 1, d]`, row 0 = padding)
    /// for building an ANN index. `None` when unsupported.
    fn item_embeddings(&self) -> Option<&Tensor> {
        None
    }
}

impl FrozenScorer for FrozenMetaSgcl {
    type State = MetaState;

    fn num_items(&self) -> usize {
        FrozenMetaSgcl::num_items(self)
    }

    fn window_cap(&self) -> usize {
        self.max_len()
    }

    fn score_full(&self, seq: &[ItemId]) -> Vec<f32> {
        self.score_padded(seq)
    }

    fn begin(&self, window: &[ItemId]) -> (MetaState, Vec<f32>) {
        self.begin_incremental(window)
    }

    fn state_len(&self, state: &MetaState) -> usize {
        state.len()
    }

    fn append_batch(&self, items: &[ItemId], states: &mut [&mut MetaState]) -> Vec<Vec<f32>> {
        self.append_incremental(items, states)
    }

    fn query_embedding(&self, seq: &[ItemId]) -> Option<Vec<f32>> {
        FrozenMetaSgcl::query_embedding(self, seq)
    }

    fn item_embeddings(&self) -> Option<&Tensor> {
        Some(FrozenMetaSgcl::item_embeddings(self))
    }
}

impl FrozenScorer for FrozenGru4Rec {
    type State = GruState;

    fn num_items(&self) -> usize {
        FrozenGru4Rec::num_items(self)
    }

    fn window_cap(&self) -> usize {
        0 // position-free recurrence: exact at any history length
    }

    fn score_full(&self, seq: &[ItemId]) -> Vec<f32> {
        self.score_padded(seq)
    }

    fn begin(&self, window: &[ItemId]) -> (GruState, Vec<f32>) {
        let state = self.begin_incremental(window);
        let scores = self.scores(&self.hidden(&state)).row(0).to_vec();
        (state, scores)
    }

    fn state_len(&self, state: &GruState) -> usize {
        state.len()
    }

    fn append_batch(&self, items: &[ItemId], states: &mut [&mut GruState]) -> Vec<Vec<f32>> {
        // One projection for the whole batch: GEMM rows are independent.
        let scores = self.scores(&self.append_incremental(items, states));
        (0..states.len()).map(|i| scores.row(i).to_vec()).collect()
    }

    fn query_embedding(&self, seq: &[ItemId]) -> Option<Vec<f32>> {
        FrozenGru4Rec::query_embedding(self, seq)
    }

    fn item_embeddings(&self) -> Option<&Tensor> {
        Some(self.item_table())
    }
}

/// How the engine turns a request into scores.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Re-encode the padded window on every request. Bitwise-identical to
    /// the offline autograd scoring path; this is the default and what the
    /// CI parity gate checks.
    Full,
    /// Keep per-user incremental state under left-aligned semantics; an
    /// append runs the packed forward over the new row only, its keys read
    /// from the cache (a single GRU step for GRU4Rec). Slides (full
    /// re-encodes of the last `window_cap` items) happen only on cache
    /// overflow. Exact against the left-aligned reference, but the model
    /// is trained on right-anchored positions, so this mode ranks worse
    /// than [`Mode::Full`] from the same checkpoint (ROADMAP item 3).
    Incremental,
}

/// How a request's top-k is retrieved in [`Mode::Full`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TopK {
    /// Score the full catalog (`h · Mᵀ`); bitwise-identical to the offline
    /// autograd path. The default.
    #[default]
    Exact,
    /// Approximate maximum-inner-product retrieval through the HNSW index
    /// ([`crate::ann`]). Sub-linear in the catalog size; gated by a
    /// measured recall curve, not the bitwise parity contract. Requires an
    /// index ([`Engine::with_ann`]) — the engine falls back to
    /// [`TopK::Exact`] otherwise.
    Ann,
}

impl TopK {
    /// Parses the wire spelling (`"exact"` / `"ann"`).
    pub fn parse(s: &str) -> Option<TopK> {
        match s {
            "exact" => Some(TopK::Exact),
            "ann" => Some(TopK::Ann),
            _ => None,
        }
    }
}

/// A scoring request.
#[derive(Clone, Debug)]
pub enum Request {
    /// (Re)set a user's history and score it.
    Score {
        /// User/session key.
        user: u64,
        /// Full interaction history, oldest first.
        history: Vec<ItemId>,
        /// Number of recommendations to return.
        k: usize,
        /// Retrieval preference; `None` uses the engine default.
        topk: Option<TopK>,
    },
    /// Record one new interaction for a known user and re-score.
    Append {
        /// User/session key.
        user: u64,
        /// The new interaction.
        item: ItemId,
        /// Number of recommendations to return.
        k: usize,
        /// Retrieval preference; `None` uses the engine default.
        topk: Option<TopK>,
    },
}

impl Request {
    /// Checks every item id against the catalog `1..=num_items` (0 is the
    /// padding index). Requests come off the wire unchecked; an id outside
    /// the catalog would otherwise fail an embedding lookup inside the
    /// batch worker.
    pub fn check_items(&self, num_items: usize) -> Result<(), String> {
        let items = match self {
            Request::Score { history, .. } => history.as_slice(),
            Request::Append { item, .. } => std::slice::from_ref(item),
        };
        match items.iter().find(|&&i| i == 0 || i > num_items) {
            Some(bad) => Err(format!("item {bad} outside the catalog 1..={num_items}")),
            None => Ok(()),
        }
    }

    fn user(&self) -> u64 {
        match self {
            Request::Score { user, .. } | Request::Append { user, .. } => *user,
        }
    }

    fn k(&self) -> usize {
        match self {
            Request::Score { k, .. } | Request::Append { k, .. } => *k,
        }
    }

    fn topk(&self) -> Option<TopK> {
        match self {
            Request::Score { topk, .. } | Request::Append { topk, .. } => *topk,
        }
    }
}

/// Per-request observability report: outcome flags (which serving path
/// answered the request) plus phase timings.
///
/// Flags are always filled in — they mirror exactly what the `serve.*`
/// counters recorded for this request, so counter audits can cross-check
/// aggregate counts against per-request reports. Phase timings are only
/// measured when the batch is dispatched with `timed = true` (a sampled
/// trace in flight); otherwise they are zero and the hot path performs no
/// clock reads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReqObs {
    /// Served the deterministic cold-start ranking (empty history).
    pub cold_start: bool,
    /// Answered from live incremental state (batched fast append).
    pub cache_hit: bool,
    /// Answered through the ANN index.
    pub ann: bool,
    /// ANN was requested but the exact path answered instead.
    pub ann_fallback: bool,
    /// The model re-encoded a window (full forward) for this request.
    pub reencode: bool,
    /// Model forward time (encode / append step), when timed.
    pub forward_ns: u64,
    /// Retrieval time (top-k ranking or ANN search), when timed.
    pub retrieve_ns: u64,
}

/// Runs `f`, returning its wall-clock nanoseconds when `timed`.
fn timed_ns<T>(timed: bool, f: impl FnOnce() -> T) -> (T, u64) {
    if timed {
        let t = Instant::now();
        let v = f();
        (v, t.elapsed().as_nanos() as u64)
    } else {
        (f(), 0)
    }
}

/// Top-k recommendations for one request.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// Echoed user key.
    pub user: u64,
    /// Recommended item ids, best first.
    pub items: Vec<ItemId>,
    /// Raw scores aligned with `items`.
    pub scores: Vec<f32>,
}

/// Ranks catalog scores exactly like `models::recommend_top_k` with
/// `exclude_seen = false`, by the same [`models::top_k_scores`]: padding
/// index 0 skipped, descending score, ties towards the lower item id, the
/// first `k`. A bounded selection, not a sort of the whole catalog.
pub fn top_k(scores: &[f32], k: usize) -> (Vec<ItemId>, Vec<f32>) {
    models::top_k_scores(scores, k, |_| true)
        .into_iter()
        .unzip()
}

/// One user's session. The map holds one per user ever seen, so the state
/// is boxed to keep each slot small: most sessions (every one in
/// [`Mode::Full`]) have none.
struct Session<S> {
    /// The items scoring reads: the whole history when the model is
    /// uncapped, otherwise only its last `window_cap` items.
    history: Vec<ItemId>,
    state: Option<Box<S>>,
}

impl<S> Session<S> {
    /// Drops all but the last `cap` history items (`0` = keep all).
    fn trim(&mut self, cap: usize) {
        if cap > 0 && self.history.len() > cap {
            self.history.drain(..self.history.len() - cap);
        }
    }
}

/// Per-user sessions plus the scoring dispatch over a frozen model.
pub struct Engine<M: FrozenScorer> {
    model: M,
    mode: Mode,
    sessions: Mutex<HashMap<u64, Session<M::State>>>,
    /// Optional ANN index for [`TopK::Ann`] requests in [`Mode::Full`].
    ann: Option<HnswIndex>,
    /// Default retrieval when a request carries no preference.
    default_topk: TopK,
    /// Cold-start ranking `(item, score)`, best first, for empty
    /// histories. `None` falls back to fixed item-id order with zero
    /// scores.
    popularity: Option<Vec<(ItemId, f32)>>,
}

impl<M: FrozenScorer> Engine<M> {
    /// Wraps a frozen model.
    pub fn new(model: M, mode: Mode) -> Self {
        Engine {
            model,
            mode,
            sessions: Mutex::new(HashMap::new()),
            ann: None,
            default_topk: TopK::Exact,
            popularity: None,
        }
    }

    /// Attaches an ANN index over the model's item embeddings, enabling
    /// [`TopK::Ann`] retrieval in [`Mode::Full`].
    pub fn with_ann(mut self, index: HnswIndex) -> Self {
        self.ann = Some(index);
        self
    }

    /// Sets the retrieval used when a request carries no preference.
    pub fn with_default_topk(mut self, topk: TopK) -> Self {
        self.default_topk = topk;
        self
    }

    /// Installs the cold-start ranking from per-item interaction counts
    /// (indexed by item id; index 0 = padding, ignored). Ties break
    /// towards the lower item id; scores are the popularity fractions.
    /// Without this, cold-start responses rank by fixed item-id order
    /// with zero scores — deterministic either way.
    pub fn with_popularity(mut self, counts: &[u64]) -> Self {
        let total: u64 = counts.iter().skip(1).sum();
        let mut ranked: Vec<(ItemId, f32)> = counts
            .iter()
            .enumerate()
            .skip(1)
            .map(|(item, &c)| {
                let score = if total == 0 {
                    0.0
                } else {
                    c as f32 / total as f32
                };
                (item, score)
            })
            .collect();
        ranked.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        self.popularity = Some(ranked);
        self
    }

    /// The attached ANN index, if any.
    pub fn ann(&self) -> Option<&HnswIndex> {
        self.ann.as_ref()
    }

    /// The serving mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The frozen model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// The deterministic cold-start top-k for an empty history: the
    /// popularity ranking when installed, otherwise fixed item-id order
    /// (`1, 2, …`) with zero scores. Padding id 0 is never included.
    pub fn cold_start_top_k(&self, k: usize) -> (Vec<ItemId>, Vec<f32>) {
        match &self.popularity {
            Some(ranked) => ranked.iter().take(k).copied().unzip(),
            None => {
                let n = self.model.num_items();
                let items: Vec<ItemId> = (1..=n).take(k).collect();
                let scores = vec![0.0; items.len()];
                (items, scores)
            }
        }
    }

    /// Number of live sessions.
    pub fn num_sessions(&self) -> usize {
        self.lock_sessions().len()
    }

    /// Runs one synthetic scoring pass through every serving path before
    /// real traffic, so first-request latency doesn't pay the cold-path
    /// costs (populating `tensor::pool` size classes, faulting in frozen
    /// weights, one-time SIMD feature detection). No session is created
    /// and no metrics are recorded; results are discarded.
    ///
    /// This exists because an 8-client closed-loop load showed a ~50×
    /// p99/p50 ratio traced entirely to the first requests hitting empty
    /// pools.
    pub fn warm_up(&self) {
        let n = self.model.num_items();
        if n == 0 {
            return;
        }
        let cap = self.model.window_cap();
        let len = if cap == 0 { 8 } else { cap.min(8) };
        let history = |len: usize| -> Vec<ItemId> { (0..len).map(|i| 1 + i % n).collect() };
        // Full path: the Transformer encodes only a history's real rows,
        // so its shapes follow the history's length. Warm both ends: one
        // item and a full window.
        for full in [1, if cap == 0 { len } else { cap }] {
            let scores = self.model.score_full(&history(full));
            debug_assert_eq!(scores.len(), n + 1);
        }
        let history = history(len);
        if let (Some(index), Some(q)) = (&self.ann, self.model.query_embedding(&history)) {
            let _ = index.search(&q, 10, 0);
        }
        if self.mode == Mode::Incremental {
            let (mut state, _) = self.model.begin(&history);
            if cap == 0 || self.model.state_len(&state) < cap {
                let _ = self.model.append_batch(&[1 + len % n], &mut [&mut state]);
            }
        }
    }

    fn lock_sessions(&self) -> std::sync::MutexGuard<'_, HashMap<u64, Session<M::State>>> {
        self.sessions.lock().or_bug("sessions lock poisoned")
    }

    /// Applies a request to its user's session (creating it if needed) and
    /// returns the window to score. Only the window is kept, so a session's
    /// history stays bounded by `window_cap` however long the user lives;
    /// every scoring path reads the same last `window_cap` items.
    fn record(&self, req: &Request) -> Vec<ItemId> {
        let mut sessions = self.lock_sessions();
        let session = sessions.entry(req.user()).or_insert_with(|| Session {
            history: Vec::new(),
            state: None,
        });
        match req {
            Request::Score { history, .. } => session.history.clone_from(history),
            Request::Append { item, .. } => session.history.push(*item),
        }
        session.trim(self.model.window_cap());
        session.history.clone()
    }

    /// Scores a batch of requests, returning responses in request order.
    ///
    /// In [`Mode::Incremental`], runs of appendable requests for distinct
    /// users are coalesced into single batched cache-extension steps.
    pub fn handle_batch(&self, requests: &[Request]) -> Vec<Response> {
        self.handle_batch_obs(requests, false).0
    }

    /// [`Engine::handle_batch`] plus a per-request [`ReqObs`] report.
    ///
    /// `timed` turns on phase timing (forward / retrieve wall-clock); pass
    /// `false` on the untraced hot path so no clocks are read.
    pub fn handle_batch_obs(
        &self,
        requests: &[Request],
        timed: bool,
    ) -> (Vec<Response>, Vec<ReqObs>) {
        metrics::counter("serve.requests", false).add(requests.len() as u64);
        metrics::histogram("serve.batch.size", false).record(requests.len() as u64);
        let mut out: Vec<Option<Response>> = requests.iter().map(|_| None).collect();
        let mut obs: Vec<ReqObs> = vec![ReqObs::default(); requests.len()];
        match self.mode {
            Mode::Full => {
                for (i, req) in requests.iter().enumerate() {
                    let (resp, o) = self.handle_full(req, timed);
                    out[i] = Some(resp);
                    obs[i] = o;
                }
            }
            Mode::Incremental => {
                // Coalesce appendable requests (distinct users with live,
                // non-full state) into one batched step; everything else
                // flushes the group and runs alone.
                let mut group: Vec<(usize, u64, ItemId, usize)> = Vec::new();
                for (i, req) in requests.iter().enumerate() {
                    // ANN retrieval only exists in [`Mode::Full`]; a request
                    // preferring it is served exact here, and that *is* a
                    // fallback — count it exactly once per request, before
                    // the fast/slow split (both paths are exact).
                    if req.topk().unwrap_or(self.default_topk) == TopK::Ann {
                        metrics::counter("serve.ann.fallback", false).inc();
                        obs[i].ann_fallback = true;
                    }
                    let fast = match req {
                        Request::Append { user, item, k, .. } => {
                            if self.can_fast_append(*user) && !group.iter().any(|g| g.1 == *user) {
                                group.push((i, *user, *item, *k));
                                true
                            } else {
                                false
                            }
                        }
                        Request::Score { .. } => false,
                    };
                    if !fast {
                        self.flush_appends(&mut group, &mut out, &mut obs, timed);
                        let (resp, o) = self.handle_slow(req, timed);
                        out[i] = Some(resp);
                        // Merge: keep the fallback flag set above.
                        obs[i] = ReqObs {
                            ann_fallback: obs[i].ann_fallback,
                            ..o
                        };
                    }
                }
                self.flush_appends(&mut group, &mut out, &mut obs, timed);
            }
        }
        let responses = out
            .into_iter()
            .map(|r| r.or_bug("every request answered"))
            .collect();
        (responses, obs)
    }

    /// Full mode: every request re-encodes its padded window. Requests
    /// preferring [`TopK::Ann`] retrieve through the HNSW index instead of
    /// the full-catalog projection (falling back to exact when no index or
    /// query embedding is available).
    fn handle_full(&self, req: &Request, timed: bool) -> (Response, ReqObs) {
        let mut obs = ReqObs::default();
        let user = req.user();
        let history = self.record(req);
        if history.is_empty() {
            metrics::counter("serve.cold_start", false).inc();
            obs.cold_start = true;
            let ((items, scores), retrieve_ns) = timed_ns(timed, || self.cold_start_top_k(req.k()));
            obs.retrieve_ns = retrieve_ns;
            return (
                Response {
                    user,
                    items,
                    scores,
                },
                obs,
            );
        }
        if req.topk().unwrap_or(self.default_topk) == TopK::Ann {
            if let Some(resp) = self.handle_ann(user, &history, req.k(), timed, &mut obs) {
                obs.ann = true;
                return (resp, obs);
            }
            metrics::counter("serve.ann.fallback", false).inc();
            obs.ann_fallback = true;
        }
        metrics::counter("serve.cache.miss", false).inc();
        metrics::counter("serve.reencode", false).inc();
        obs.reencode = true;
        let (scores, forward_ns) = timed_ns(timed, || self.model.score_full(&history));
        obs.forward_ns = forward_ns;
        let ((items, scores), retrieve_ns) = timed_ns(timed, || top_k(&scores, req.k()));
        obs.retrieve_ns = retrieve_ns;
        (
            Response {
                user,
                items,
                scores,
            },
            obs,
        )
    }

    /// ANN retrieval: encode the window to its query embedding, then
    /// search the index. `None` when the engine has no index or the model
    /// does not expose query embeddings.
    fn handle_ann(
        &self,
        user: u64,
        history: &[ItemId],
        k: usize,
        timed: bool,
        obs: &mut ReqObs,
    ) -> Option<Response> {
        let index = self.ann.as_ref()?;
        let (q, forward_ns) = timed_ns(timed, || self.model.query_embedding(history));
        let q = q?;
        obs.forward_ns = forward_ns;
        metrics::counter("serve.ann.query", false).inc();
        metrics::counter("serve.reencode", false).inc();
        obs.reencode = true;
        let (found, retrieve_ns) = timed_ns(timed, || index.search(&q, k, 0));
        obs.retrieve_ns = retrieve_ns;
        let (items, scores) = found.into_iter().unzip();
        Some(Response {
            user,
            items,
            scores,
        })
    }

    /// True when an append can extend cached state without a re-encode.
    fn can_fast_append(&self, user: u64) -> bool {
        let cap = self.model.window_cap();
        let sessions = self.lock_sessions();
        sessions.get(&user).is_some_and(|s| {
            s.state
                .as_ref()
                .is_some_and(|st| cap == 0 || self.model.state_len(st) < cap)
        })
    }

    /// Runs one batched append over the grouped requests.
    ///
    /// Phase attribution: the batched cache-extension step is one model
    /// call shared by the whole group, so every grouped request reports
    /// the same `forward_ns` (the step's duration); per-request `top_k`
    /// ranking is timed individually.
    fn flush_appends(
        &self,
        group: &mut Vec<(usize, u64, ItemId, usize)>,
        out: &mut [Option<Response>],
        obs: &mut [ReqObs],
        timed: bool,
    ) {
        if group.is_empty() {
            return;
        }
        let mut taken: Vec<(u64, Session<M::State>)> = {
            let mut sessions = self.lock_sessions();
            group
                .iter()
                .map(|&(_, user, _, _)| {
                    let s = sessions
                        .remove(&user)
                        .or_bug("session checked in can_fast_append");
                    (user, s)
                })
                .collect()
        };
        let items: Vec<ItemId> = group.iter().map(|&(_, _, item, _)| item).collect();
        let (scores, forward_ns) = timed_ns(timed, || {
            let mut states: Vec<&mut M::State> = taken
                .iter_mut()
                .map(|(_, s)| {
                    s.state
                        .as_deref_mut()
                        .or_bug("state checked in can_fast_append")
                })
                .collect();
            self.model.append_batch(&items, &mut states)
        });
        metrics::counter("serve.cache.hit", false).add(group.len() as u64);
        let cap = self.model.window_cap();
        for (((idx, user, item, k), (_, session)), user_scores) in
            group.iter().zip(taken.iter_mut()).zip(scores)
        {
            session.history.push(*item);
            session.trim(cap);
            let ((items, scores), retrieve_ns) = timed_ns(timed, || top_k(&user_scores, *k));
            obs[*idx].cache_hit = true;
            obs[*idx].forward_ns = forward_ns;
            obs[*idx].retrieve_ns = retrieve_ns;
            out[*idx] = Some(Response {
                user: *user,
                items,
                scores,
            });
        }
        let mut sessions = self.lock_sessions();
        for (user, session) in taken {
            sessions.insert(user, session);
        }
        group.clear();
    }

    /// Incremental mode, slow path: (re)encode the window from scratch —
    /// new histories, unknown users, and cache overflow (the slide).
    fn handle_slow(&self, req: &Request, timed: bool) -> (Response, ReqObs) {
        let mut obs = ReqObs::default();
        let user = req.user();
        let history = self.record(req);
        if history.is_empty() {
            // An empty history has no hidden state to score from; serve
            // the deterministic cold-start ranking instead of the
            // meaningless all-zero catalog the encoder would produce.
            // Not a cache miss: there is nothing the cache could have held
            // (mirrors the cold-start accounting in `handle_full`).
            metrics::counter("serve.cold_start", false).inc();
            obs.cold_start = true;
            let ((items, scores), retrieve_ns) = timed_ns(timed, || self.cold_start_top_k(req.k()));
            obs.retrieve_ns = retrieve_ns;
            return (
                Response {
                    user,
                    items,
                    scores,
                },
                obs,
            );
        }
        metrics::counter("serve.cache.miss", false).inc();
        metrics::counter("serve.reencode", false).inc();
        obs.reencode = true;
        let ((state, scores), forward_ns) = timed_ns(timed, || self.model.begin(&history));
        obs.forward_ns = forward_ns;
        self.lock_sessions()
            .get_mut(&user)
            .or_bug("session inserted above")
            .state = Some(Box::new(state));
        let ((items, scores), retrieve_ns) = timed_ns(timed, || top_k(&scores, req.k()));
        obs.retrieve_ns = retrieve_ns;
        (
            Response {
                user,
                items,
                scores,
            },
            obs,
        )
    }
}

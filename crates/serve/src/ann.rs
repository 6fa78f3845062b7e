//! From-scratch HNSW approximate-nearest-neighbour index over the frozen
//! item-embedding table, for sub-linear top-k retrieval at serving time.
//!
//! The exact serving path scores a user's hidden state against every
//! catalog row (`h · Mᵀ`, an O(|items| · d) GEMM per request). Because the
//! softmax table is *tied*, the served ranking is exactly "maximum inner
//! product over item embeddings" — which an HNSW graph answers in
//! O(ef · d · log n) hops instead.
//!
//! Design constraints, in order:
//!
//! * **No dependencies.** The graph, the heaps, and the level sampler are
//!   all local. Level draws use an inline splitmix64 stream keyed by
//!   `(seed, node)`, so the build is a pure function of the table bytes
//!   and the [`HnswConfig`] — bit-identical across runs and thread counts.
//! * **Padding can never be retrieved.** Index row 0 (the padding item) is
//!   excluded at construction: node `i` holds item id `i + 1`.
//! * **Graceful degradation to exact.** A search with `ef >= len()` (or
//!   `k >= len()`) answers by brute-force scan, so `ef = ∞` is *defined*
//!   to return the exact top-k — the property tests pin this.
//! * **Persistence.** [`save`](HnswIndex::save)/[`load`](HnswIndex::load)
//!   write a versioned sidecar next to the MSGC2 checkpoint; the file
//!   embeds an FNV-64 hash of the embedding bytes, so a stale index
//!   (retrained weights) is detected and rebuilt rather than silently
//!   served.
//!
//! Similarity is the raw inner product (no normalisation), matching the
//! tied-softmax scores. Each is a scalar dot product: one strict `d`-order
//! chain from `+0.0`, the chain the exact path's GEMM computes for every
//! output element with SIMD on or off. So a returned score equals that
//! item's exact score bit for bit (`tests/ann_props.rs` pins it). What
//! the ANN path gives up is the exact *set*: a beam can miss items of the
//! true top-k, which is why it is opt-in per request and gated by
//! measured recall (`tests/ann_props.rs`) rather than the bitwise parity
//! gate.
//!
//! Searches reuse a per-thread scratch (visit marks and heaps), so a query
//! allocates only its result.

use std::cell::RefCell;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::io::{Read, Write};
use std::path::Path;

use recdata::ItemId;
use tensor::Tensor;

/// Sidecar file magic + format version (bumped on any layout change).
const MAGIC: &[u8; 8] = b"MSGHNSW1";

/// Hard cap on sampled levels (2^24 nodes would be needed to exceed it).
const MAX_LEVEL: usize = 24;

/// Build/search parameters for [`HnswIndex`].
#[derive(Debug, Clone, PartialEq)]
pub struct HnswConfig {
    /// Max neighbours per node on levels above 0 (level 0 keeps `2m`).
    pub m: usize,
    /// Beam width while inserting (recall/build-time trade).
    pub ef_construction: usize,
    /// Default beam width at query time when the caller passes `ef = 0`.
    pub ef_search: usize,
    /// Seed for the deterministic level sampler.
    pub seed: u64,
}

impl Default for HnswConfig {
    fn default() -> Self {
        HnswConfig {
            m: 16,
            ef_construction: 100,
            ef_search: 64,
            seed: 42,
        }
    }
}

/// splitmix64: the tiny deterministic generator behind level sampling.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a 64 over the embedding bytes (stale-sidecar detection).
fn fnv64(data: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in data {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// A (similarity, node) pair with a total deterministic order: higher
/// similarity first, ties broken towards the lower node id.
#[derive(Clone, Copy, Debug)]
struct Cand {
    sim: f32,
    node: u32,
}

impl PartialEq for Cand {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Cand {}
impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Cand {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap pops the highest similarity; among equals, the lowest id.
        self.sim
            .total_cmp(&other.sim)
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// Visit marks of one search: node `i` is visited when `stamps[i]` equals
/// the search's `epoch`, so a new search clears them by a new epoch.
#[derive(Default)]
struct Visited {
    stamps: Vec<u32>,
    epoch: u32,
}

impl Visited {
    /// Marks `node` visited; false when it already was.
    fn visit(&mut self, node: u32) -> bool {
        let stamp = &mut self.stamps[node as usize];
        let fresh = *stamp != self.epoch;
        *stamp = self.epoch;
        fresh
    }
}

/// A thread's beam-search buffers, reused by every search it runs: the
/// visit marks and the two heaps.
#[derive(Default)]
struct Scratch {
    visited: Visited,
    frontier: BinaryHeap<Cand>,
    results: BinaryHeap<Reverse<Cand>>,
}

impl Scratch {
    /// Empties the buffers for a search over `n` nodes.
    fn reset(&mut self, n: usize) {
        let v = &mut self.visited;
        if v.stamps.len() < n {
            v.stamps.resize(n, 0);
        }
        v.epoch = v.epoch.wrapping_add(1);
        if v.epoch == 0 {
            v.stamps.fill(0);
            v.epoch = 1;
        }
        self.frontier.clear();
        self.results.clear();
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// The index: flat vector storage plus the layered neighbour graph.
pub struct HnswIndex {
    cfg: HnswConfig,
    dim: usize,
    /// Node count (= catalog size; node `i` is item id `i + 1`).
    n: usize,
    /// Row-major `n × dim` embedding rows (padding row 0 excluded).
    vecs: Vec<f32>,
    /// Top level of each node.
    levels: Vec<u8>,
    /// `links[node][level]` = neighbour node ids.
    links: Vec<Vec<Vec<u32>>>,
    entry: u32,
    max_level: usize,
    table_hash: u64,
}

impl HnswIndex {
    /// Builds the index over item rows `1..=num_items` of the tied
    /// embedding table (`[num_items + 1, d]`, row 0 = padding). Nodes are
    /// inserted in item-id order with seeded level draws, so the graph is
    /// a deterministic function of `(table, cfg)`.
    pub fn build(table: &Tensor, num_items: usize, cfg: &HnswConfig) -> HnswIndex {
        let dims = table.dims();
        assert_eq!(dims.len(), 2, "item table must be rank 2");
        assert!(dims[0] > num_items, "table must hold num_items + 1 rows");
        let dim = dims[1];
        let vecs: Vec<f32> = table.data()[dim..(num_items + 1) * dim].to_vec();
        let table_hash = fnv64(&vecs);
        let mut index = HnswIndex {
            cfg: cfg.clone(),
            dim,
            n: num_items,
            vecs,
            levels: Vec::with_capacity(num_items),
            links: Vec::with_capacity(num_items),
            entry: 0,
            max_level: 0,
            table_hash,
        };
        let ml = 1.0 / (cfg.m.max(2) as f64).ln();
        for node in 0..num_items as u32 {
            let level = index.draw_level(node, ml);
            index.levels.push(level as u8);
            index.links.push(vec![Vec::new(); level + 1]);
            index.insert(node);
        }
        index
    }

    /// Deterministic geometric level draw for one node.
    fn draw_level(&self, node: u32, ml: f64) -> usize {
        let bits = splitmix64(self.cfg.seed ^ (u64::from(node) << 1) ^ 0xA5A5_5A5A);
        // (0, 1) exclusive on both ends: ln never sees 0.
        let u = ((bits >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
        ((-u.ln() * ml) as usize).min(MAX_LEVEL)
    }

    fn vec_of(&self, node: u32) -> &[f32] {
        let i = node as usize * self.dim;
        &self.vecs[i..i + self.dim]
    }

    fn sim(&self, a: &[f32], node: u32) -> f32 {
        let b = self.vec_of(node);
        let mut s = 0.0f32;
        for (x, y) in a.iter().zip(b) {
            s += x * y;
        }
        s
    }

    /// Max neighbours a node keeps at `level`.
    fn max_links(&self, level: usize) -> usize {
        if level == 0 {
            self.cfg.m * 2
        } else {
            self.cfg.m
        }
    }

    /// Greedy descent at one level: follow the best neighbour until no
    /// neighbour improves on the current node.
    fn greedy_step(&self, q: &[f32], mut ep: u32, level: usize) -> u32 {
        let mut best = self.sim(q, ep);
        loop {
            let mut improved = false;
            for &nb in &self.links[ep as usize][level] {
                let s = self.sim(q, nb);
                if s > best || (s == best && nb < ep) {
                    best = s;
                    ep = nb;
                    improved = true;
                }
            }
            if !improved {
                return ep;
            }
        }
    }

    /// Beam search at one level: returns up to `ef` candidates, best first.
    fn search_layer(&self, q: &[f32], ep: u32, ef: usize, level: usize) -> Vec<Cand> {
        SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            scratch.reset(self.n);
            let Scratch {
                visited,
                frontier,
                results,
            } = &mut *scratch;
            visited.visit(ep);
            let start = Cand {
                sim: self.sim(q, ep),
                node: ep,
            };
            frontier.push(start);
            results.push(Reverse(start));
            while let Some(cand) = frontier.pop() {
                let worst = results.peek().map_or(f32::NEG_INFINITY, |r| r.0.sim);
                if results.len() >= ef && cand.sim < worst {
                    break;
                }
                for &nb in &self.links[cand.node as usize][level] {
                    if !visited.visit(nb) {
                        continue;
                    }
                    let s = self.sim(q, nb);
                    let worst = results.peek().map_or(f32::NEG_INFINITY, |r| r.0.sim);
                    if results.len() < ef || s > worst {
                        let c = Cand { sim: s, node: nb };
                        frontier.push(c);
                        results.push(Reverse(c));
                        if results.len() > ef {
                            results.pop();
                        }
                    }
                }
            }
            let mut out: Vec<Cand> = results.drain().map(|r| r.0).collect();
            out.sort_by(|a, b| b.cmp(a));
            out
        })
    }

    /// Neighbour selection (HNSW Algorithm 4 with pruned-candidate
    /// backfill): walk candidates best-first, keep one only when it is
    /// closer to the query than to every neighbour already kept —
    /// spreading links across directions instead of clustering them.
    fn select_neighbors(&self, cands: &[Cand], m: usize) -> Vec<u32> {
        let mut selected: Vec<Cand> = Vec::with_capacity(m);
        let mut pruned: Vec<Cand> = Vec::new();
        for &c in cands {
            if selected.len() >= m {
                break;
            }
            let cv = self.vec_of(c.node).to_vec();
            let dominated = selected.iter().any(|s| self.sim(&cv, s.node) > c.sim);
            if dominated {
                pruned.push(c);
            } else {
                selected.push(c);
            }
        }
        for &p in &pruned {
            if selected.len() >= m {
                break;
            }
            selected.push(p);
        }
        selected.into_iter().map(|c| c.node).collect()
    }

    /// Inserts `node` (levels/links rows already sized for it).
    fn insert(&mut self, node: u32) {
        if node == 0 {
            self.entry = 0;
            self.max_level = self.levels[0] as usize;
            return;
        }
        let level = self.levels[node as usize] as usize;
        let q = self.vec_of(node).to_vec();
        let mut ep = self.entry;
        for l in ((level + 1)..=self.max_level).rev() {
            ep = self.greedy_step(&q, ep, l);
        }
        for l in (0..=level.min(self.max_level)).rev() {
            let cands = self.search_layer(&q, ep, self.cfg.ef_construction, l);
            let neighbors = self.select_neighbors(&cands, self.max_links(l));
            for &nb in &neighbors {
                self.links[node as usize][l].push(nb);
                self.links[nb as usize][l].push(node);
                let cap = self.max_links(l);
                if self.links[nb as usize][l].len() > cap {
                    self.shrink(nb, l, cap);
                }
            }
            if let Some(best) = cands.first() {
                ep = best.node;
            }
        }
        if level > self.max_level {
            self.max_level = level;
            self.entry = node;
        }
    }

    /// Re-selects a node's neighbour list after it overflowed `cap`.
    fn shrink(&mut self, node: u32, level: usize, cap: usize) {
        let v = self.vec_of(node).to_vec();
        let mut cands: Vec<Cand> = self.links[node as usize][level]
            .iter()
            .map(|&nb| Cand {
                sim: self.sim(&v, nb),
                node: nb,
            })
            .collect();
        cands.sort_by(|a, b| b.cmp(a));
        self.links[node as usize][level] = self.select_neighbors(&cands, cap);
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The configured default query beam width.
    pub fn ef_search(&self) -> usize {
        self.cfg.ef_search
    }

    /// Exact brute-force top-k (the `ef = ∞` semantics), selected in
    /// [`Cand`] order.
    fn exact_top_k(&self, query: &[f32], k: usize) -> Vec<(ItemId, f32)> {
        let all = (0..self.n as u32).map(|node| Cand {
            sim: self.sim(query, node),
            node,
        });
        models::top_k_by(all, k, Cand::cmp)
            .into_iter()
            .map(|c| (c.node as usize + 1, c.sim))
            .collect()
    }

    /// Top-k items by inner product with `query`, best first, as
    /// `(item_id, score)` pairs. `ef = 0` uses the configured default;
    /// `ef >= len()` (or `k >= len()`) degrades to an exact scan, so an
    /// unbounded beam returns the exact answer by construction. Item id 0
    /// (padding) is never returned.
    pub fn search(&self, query: &[f32], k: usize, ef: usize) -> Vec<(ItemId, f32)> {
        if self.n == 0 || k == 0 {
            return Vec::new();
        }
        let ef = if ef == 0 { self.cfg.ef_search } else { ef };
        let ef = ef.max(k);
        if ef >= self.n || k >= self.n {
            return self.exact_top_k(query, k);
        }
        let mut ep = self.entry;
        for l in (1..=self.max_level).rev() {
            ep = self.greedy_step(query, ep, l);
        }
        let mut cands = self.search_layer(query, ep, ef, 0);
        cands.truncate(k);
        cands
            .into_iter()
            .map(|c| (c.node as usize + 1, c.sim))
            .collect()
    }

    // -- persistence ---------------------------------------------------------

    /// Serialises the graph (not the vectors — those come from the
    /// checkpoint) to `path`, with a format version and an embedding-bytes
    /// hash for stale-sidecar detection.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let mut buf: Vec<u8> = Vec::with_capacity(64 + self.n * (self.cfg.m + 2) * 4);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&self.cfg.seed.to_le_bytes());
        buf.extend_from_slice(&(self.cfg.m as u32).to_le_bytes());
        buf.extend_from_slice(&(self.cfg.ef_construction as u32).to_le_bytes());
        buf.extend_from_slice(&(self.dim as u32).to_le_bytes());
        buf.extend_from_slice(&(self.n as u32).to_le_bytes());
        buf.extend_from_slice(&self.entry.to_le_bytes());
        buf.extend_from_slice(&(self.max_level as u32).to_le_bytes());
        buf.extend_from_slice(&self.table_hash.to_le_bytes());
        for node in 0..self.n {
            buf.push(self.levels[node]);
            for level in &self.links[node] {
                buf.extend_from_slice(&(level.len() as u32).to_le_bytes());
                for nb in level {
                    buf.extend_from_slice(&nb.to_le_bytes());
                }
            }
        }
        let tmp = path.with_extension("hnsw.tmp");
        std::fs::File::create(&tmp)?.write_all(&buf)?;
        std::fs::rename(&tmp, path)
    }

    /// Loads a sidecar written by [`save`](HnswIndex::save), reattaching
    /// the embedding rows from `table`. Returns `None` (caller rebuilds)
    /// when the file is missing, from another format version, or was built
    /// from different embedding bytes or build parameters.
    pub fn load(
        path: &Path,
        table: &Tensor,
        num_items: usize,
        cfg: &HnswConfig,
    ) -> Option<HnswIndex> {
        let mut bytes = Vec::new();
        std::fs::File::open(path)
            .ok()?
            .read_to_end(&mut bytes)
            .ok()?;
        let mut at = 0usize;
        let take = |at: &mut usize, n: usize| -> Option<&[u8]> {
            let s = bytes.get(*at..*at + n)?;
            *at += n;
            Some(s)
        };
        let u32_at = |at: &mut usize| -> Option<u32> {
            take(at, 4).map(|s| u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
        };
        let u64_at = |at: &mut usize| -> Option<u64> {
            take(at, 8)
                .map(|s| u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
        };
        if take(&mut at, 8)? != MAGIC {
            return None;
        }
        let seed = u64_at(&mut at)?;
        let m = u32_at(&mut at)? as usize;
        let ef_construction = u32_at(&mut at)? as usize;
        let dim = u32_at(&mut at)? as usize;
        let n = u32_at(&mut at)? as usize;
        let entry = u32_at(&mut at)?;
        let max_level = u32_at(&mut at)? as usize;
        let table_hash = u64_at(&mut at)?;
        let dims = table.dims();
        if dims.len() != 2 || dims[0] <= num_items || dims[1] != dim || n != num_items {
            return None;
        }
        if seed != cfg.seed || m != cfg.m || ef_construction != cfg.ef_construction {
            return None;
        }
        let vecs: Vec<f32> = table.data()[dim..(num_items + 1) * dim].to_vec();
        if fnv64(&vecs) != table_hash {
            return None;
        }
        let mut levels = Vec::with_capacity(n);
        let mut links = Vec::with_capacity(n);
        for _ in 0..n {
            let level = *take(&mut at, 1)?.first()? as usize;
            levels.push(level as u8);
            let mut per_node = Vec::with_capacity(level + 1);
            for _ in 0..=level {
                let cnt = u32_at(&mut at)? as usize;
                let mut nbs = Vec::with_capacity(cnt);
                for _ in 0..cnt {
                    let nb = u32_at(&mut at)?;
                    if nb as usize >= n {
                        return None;
                    }
                    nbs.push(nb);
                }
                per_node.push(nbs);
            }
            links.push(per_node);
        }
        if at != bytes.len() || (n > 0 && entry as usize >= n) {
            return None;
        }
        Some(HnswIndex {
            cfg: HnswConfig {
                m,
                ef_construction,
                ef_search: cfg.ef_search,
                seed,
            },
            dim,
            n,
            vecs,
            levels,
            links,
            entry,
            max_level,
            table_hash,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random table: vocab rows (row 0 = padding).
    fn toy_table(num_items: usize, dim: usize, seed: u64) -> Tensor {
        let mut data = vec![0.0f32; (num_items + 1) * dim];
        for (i, v) in data.iter_mut().enumerate().skip(dim) {
            let bits = splitmix64(seed ^ i as u64);
            *v = ((bits >> 40) as f32 / (1u64 << 24) as f32) - 0.5;
        }
        Tensor::from_vec(data, vec![num_items + 1, dim])
    }

    #[test]
    fn unbounded_ef_is_exact_and_never_pads() {
        let table = toy_table(60, 8, 7);
        let idx = HnswIndex::build(&table, 60, &HnswConfig::default());
        let q: Vec<f32> = (0..8).map(|i| (i as f32 * 0.3).sin()).collect();
        let got = idx.search(&q, 10, usize::MAX);
        let want = idx.exact_top_k(&q, 10);
        assert_eq!(got, want);
        assert!(got.iter().all(|&(item, _)| (1..=60).contains(&item)));
    }

    /// A search reads nothing an earlier search left in the thread's
    /// scratch: not another index's marks, not marks from before the
    /// epoch counter wraps.
    #[test]
    fn searches_ignore_what_the_scratch_held() {
        let big = HnswIndex::build(&toy_table(200, 8, 1), 200, &HnswConfig::default());
        let small = HnswIndex::build(&toy_table(30, 8, 2), 30, &HnswConfig::default());
        let queries: Vec<Vec<f32>> = (0..5u64)
            .map(|s| {
                (0..8)
                    .map(|i| (splitmix64(s * 8 + i) >> 40) as f32 / 1e7 - 0.8)
                    .collect()
            })
            .collect();
        let answers = |idx: &HnswIndex| -> Vec<Vec<(ItemId, f32)>> {
            queries.iter().map(|q| idx.search(q, 10, 16)).collect()
        };
        // A fresh thread starts with empty scratch.
        let want = std::thread::scope(|s| s.spawn(|| answers(&big)).join().expect("search"));
        answers(&small);
        assert_eq!(answers(&big), want, "after another index");
        SCRATCH.with(|s| s.borrow_mut().visited.epoch = u32::MAX - 1);
        assert_eq!(answers(&big), want, "across the epoch wrap");
        assert_eq!(
            SCRATCH.with(|s| s.borrow().visited.epoch),
            queries.len() as u32 - 1
        );
    }

    #[test]
    fn build_is_deterministic() {
        let table = toy_table(40, 4, 3);
        let a = HnswIndex::build(&table, 40, &HnswConfig::default());
        let b = HnswIndex::build(&table, 40, &HnswConfig::default());
        assert_eq!(a.levels, b.levels);
        assert_eq!(a.links, b.links);
        assert_eq!(a.entry, b.entry);
    }

    #[test]
    fn default_ef_recall_is_high_on_small_catalog() {
        let table = toy_table(200, 16, 11);
        let idx = HnswIndex::build(&table, 200, &HnswConfig::default());
        let mut hits = 0usize;
        let mut total = 0usize;
        for s in 0..20u64 {
            let q: Vec<f32> = (0..16)
                .map(|i| ((splitmix64(s * 31 + i) >> 40) as f32 / (1u64 << 24) as f32) - 0.5)
                .collect();
            let approx = idx.search(&q, 10, 0);
            let exact = idx.exact_top_k(&q, 10);
            total += exact.len();
            hits += exact
                .iter()
                .filter(|(item, _)| approx.iter().any(|(a, _)| a == item))
                .count();
        }
        let recall = hits as f64 / total as f64;
        assert!(recall >= 0.95, "recall@10 {recall} < 0.95");
    }

    #[test]
    fn sidecar_roundtrip_and_stale_detection() {
        let dir = std::env::temp_dir().join("msgc_ann_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("model.hnsw");
        let table = toy_table(50, 6, 5);
        let cfg = HnswConfig::default();
        let idx = HnswIndex::build(&table, 50, &cfg);
        idx.save(&path).expect("save sidecar");
        let loaded = HnswIndex::load(&path, &table, 50, &cfg).expect("fresh sidecar loads");
        assert_eq!(loaded.links, idx.links);
        assert_eq!(loaded.entry, idx.entry);
        let q: Vec<f32> = (0..6).map(|i| i as f32 * 0.1).collect();
        assert_eq!(loaded.search(&q, 5, 0), idx.search(&q, 5, 0));
        // Different table bytes → stale, caller must rebuild.
        let other = toy_table(50, 6, 6);
        assert!(HnswIndex::load(&path, &other, 50, &cfg).is_none());
        // Different build params → stale.
        let other_cfg = HnswConfig {
            m: 8,
            ..HnswConfig::default()
        };
        assert!(HnswIndex::load(&path, &table, 50, &other_cfg).is_none());
        std::fs::remove_file(&path).ok();
    }
}

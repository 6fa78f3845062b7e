//! The result of one run, the metric catalogue it is printed against, and
//! the helpers every workload shares (seeded RNG, scratch directory, peak
//! memory).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// End-to-end metrics, reported by every workload when tracing is off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("quality", "ratio"),
];

/// Per-layer metrics, reported by every workload when tracing is on. A
/// layer the workload does not run reads 0. `tail_ms` leads the list: it is
/// an end-to-end figure, taken from the untraced part of the traced run, and
/// kept here, without a bound, because on a shared host it moves with other
/// tenants' load by more than any bound the benchmark may set.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tail_ms", "ms"),
    ("core.train.stage1_ms", "ms"),
    ("core.train.stage2_ms", "ms"),
    ("core.train.batch_self_ms", "ms"),
    ("core.train.span_coverage", "ratio"),
    ("core.exec.busy_frac", "ratio"),
    ("models.forward_ms", "ms"),
    ("autograd.backward_ms", "ms"),
    ("optim.adam_ms", "ms"),
    ("tensor.gemm.cells_per_step", "count"),
    ("autograd.tape.nodes_per_step", "count"),
    ("tensor.pool.hit_ratio", "ratio"),
    ("data.batch_ms", "ms"),
    ("net.outside_server_ms", "ms"),
    ("net.span_coverage", "ratio"),
    ("proto.parse_us", "us"),
    ("proto.serialize_us", "us"),
    ("batcher.enqueue_us", "us"),
    ("batcher.assemble_us", "us"),
    ("batcher.batch_size", "count"),
    ("engine.forward_us", "us"),
    ("ann.search_us", "us"),
    ("ann.build_s", "s"),
    ("ann.fallback", "count"),
    ("engine.append_us", "us"),
    ("engine.reencode_us", "us"),
    ("engine.retrieve_us", "us"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.appends_per_step", "count"),
    ("engine.sessions", "count"),
    ("trace.p50_delta_frac", "ratio"),
    ("trace.throughput_delta_frac", "ratio"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (training steps or requests).
    pub attempted: u64,
    /// Operations that failed (non-finite loss, malformed or missing reply).
    pub failed: u64,
    /// Measured metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed ahead of the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a human-readable line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Marks the run incorrect, saying why.
    pub fn fail_check(&mut self, why: impl Into<String>) {
        self.correct = false;
        self.notes.push(format!("CHECK FAILED: {}", why.into()));
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics of
    /// `catalogue`, in its order. A catalogue metric the run did not set
    /// reads 0; a non-finite value reads 0 and fails the run.
    pub fn to_json(&self, catalogue: &[(&'static str, &'static str)]) -> String {
        let mut correct = self.correct && self.failed == 0;
        let fields: Vec<String> = catalogue
            .iter()
            .map(|&(name, unit)| {
                let mut v = self.metrics.get(name).copied().unwrap_or(0.0);
                if !v.is_finite() {
                    correct = false;
                    v = 0.0;
                }
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        )
    }
}

/// A JSON number with all its digits (shortest round-trip form).
pub fn num(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// SplitMix64: the benchmark's input generator. Inputs are a pure
/// function of `--seed`.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }
}

/// A scratch directory under `.bench_work/` in the working directory,
/// removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `.bench_work/<name>-<pid>/`.
    pub fn new(name: &str) -> std::io::Result<WorkDir> {
        let dir = Path::new(".bench_work").join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    /// A path inside the directory.
    pub fn join(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves `.bench_work` itself only when another run still uses it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// A process's resident-memory high-water mark (`VmHWM`) in MB, read from
/// `/proc/<pid>/status` (`"self"` for this process).
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use meta_sgcl_repro::telemetry::json::{parse, Json};

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("json");
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(PER_LAYER));
    }

    #[test]
    fn result_line_lists_the_catalogue_and_fails_on_non_finite() {
        let mut o = Outcome {
            correct: true,
            attempted: 3,
            ..Outcome::default()
        };
        o.set("p50_ms", 1.5);
        let doc = parse(&o.to_json(END_TO_END)).expect("json");
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        let m = doc.get("metrics").expect("metrics");
        assert_eq!(
            m.get("p50_ms")
                .and_then(|v| v.get("value"))
                .and_then(Json::as_num),
            Some(1.5)
        );
        assert_eq!(
            m.get("setup_s")
                .and_then(|v| v.get("value"))
                .and_then(Json::as_num),
            Some(0.0)
        );
        o.set("quality", f64::NAN);
        let doc = parse(&o.to_json(END_TO_END)).expect("json");
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn rng_is_a_function_of_seed_and_stream() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..4).map(|_| r.range(0, 1000)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
        assert_ne!(draw(7, 1), draw(8, 1));
    }
}

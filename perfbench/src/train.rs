//! `train-meta`: the paper's two-step meta update (stage 1 updates every
//! parameter, stage 2 only `Enc_σ'`) through
//! `MetaSgcl::train_model_observed`, in process, full softmax, 2 threads.
//!
//! Training runs in chunks of [`CHUNK_STEPS`] optimizer steps (one
//! `train_model_observed` call each, seeded per chunk) until `--seconds`
//! have passed. Validation NDCG@10 is taken after the first
//! [`QUALITY_CHUNKS`] chunks, outside the clock, so it is a pure function
//! of the seed. A traced run alternates untraced and traced chunks; the
//! traced ones write the training trace stream, which gives the per-layer
//! split.

use std::time::{Duration, Instant};

use meta_sgcl_repro::meta_sgcl::{
    BatchStats, MetaSgcl, MetaSgclConfig, TrainObserver, TrainStrategy,
};
use meta_sgcl_repro::models::{evaluate_valid, NetConfig, SoftmaxMode, TrainConfig};
use meta_sgcl_repro::recdata::{synth, Batcher, ItemId, LeaveOneOut};

use crate::report::{peak_rss_mb, Outcome, WorkDir};
use crate::stats::{block_tail, mean, median, self_time};
use crate::trace;

/// Worker threads of the data-parallel executor.
const THREADS: usize = 2;
/// Training users (a multiple of the batch size, so every batch is full).
const USERS: usize = 4096;
/// Mini-batch size.
const BATCH: usize = 64;
/// Rows per gradient shard.
const SHARD: usize = 16;
/// Embedding width (the `msgc train` default).
const DIM: usize = 32;
/// Padded window (the `msgc train` default).
const MAX_LEN: usize = 20;
/// Optimizer steps of the warm-up that ends set-up.
const WARMUP_STEPS: u64 = 10;
/// Optimizer steps per `train_model_observed` call.
const CHUNK_STEPS: u64 = 20;
/// Chunks trained before validation NDCG@10 is taken.
const QUALITY_CHUNKS: usize = 12;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Timestamps every optimizer step and counts non-finite losses.
struct StepClock {
    marks: Vec<Instant>,
    nonfinite: u64,
}

impl TrainObserver for StepClock {
    fn on_batch_end(&mut self, stats: &BatchStats) {
        self.marks.push(Instant::now());
        if !stats.total.is_finite() {
            self.nonfinite += 1;
        }
    }
}

/// Timing of one chunk.
struct Chunk {
    steps_ms: Vec<f64>,
    wall: Duration,
    nonfinite: u64,
}

struct Setup {
    split: LeaveOneOut,
    train: Vec<Vec<ItemId>>,
    model: MetaSgcl,
}

fn train_config(seed: u64, steps: u64, trace_out: Option<String>) -> TrainConfig {
    TrainConfig {
        epochs: usize::MAX,
        max_steps: steps,
        batch_size: BATCH,
        max_len: MAX_LEN,
        threads: THREADS,
        shard_size: SHARD,
        softmax: SoftmaxMode::Full,
        seed,
        trace_out,
        ..TrainConfig::default()
    }
}

/// Runs `steps` optimizer steps as one `train_model_observed` call.
fn chunk(model: &mut MetaSgcl, train: &[Vec<ItemId>], cfg: &TrainConfig) -> Result<Chunk, String> {
    let mut clock = StepClock {
        marks: Vec::new(),
        nonfinite: 0,
    };
    let start = Instant::now();
    model
        .train_model_observed(train, cfg, &mut clock)
        .map_err(|e| format!("training failed: {e}"))?;
    let wall = start.elapsed();
    let mut prev = start;
    let steps_ms = clock
        .marks
        .iter()
        .map(|&m| {
            let d = (m - prev).as_secs_f64() * 1e3;
            prev = m;
            d
        })
        .collect();
    Ok(Chunk {
        steps_ms,
        wall,
        nonfinite: clock.nonfinite,
    })
}

/// Data generation, split, model build and warm-up steps.
fn setup(seed: u64) -> Result<Setup, String> {
    let data = synth::generate(&synth::SynthConfig {
        num_users: USERS,
        ..synth::SynthConfig::toys_like(seed)
    });
    let split = LeaveOneOut::split(&data);
    let train = split.train_sequences();
    let mut model = MetaSgcl::new(MetaSgclConfig {
        net: NetConfig {
            dim: DIM,
            max_len: MAX_LEN,
            seed,
            ..NetConfig::for_items(data.num_items)
        },
        alpha: 0.05,
        beta: 0.2,
        strategy: TrainStrategy::MetaTwoStep,
        ..MetaSgclConfig::for_items(data.num_items)
    });
    chunk(&mut model, &train, &train_config(seed, WARMUP_STEPS, None))?;
    Ok(Setup {
        split,
        train,
        model,
    })
}

/// Validation NDCG@10 through the library evaluator, recomputed here
/// from the model's scores; the two must agree.
fn ndcg_at_10(model: &mut MetaSgcl, split: &LeaveOneOut, out: &mut Outcome) -> f64 {
    let lib = evaluate_valid(model, split, &[10]).ndcg(10);
    let mut sum = 0.0;
    for u in &split.users {
        let scores = model.score_sequence(&u.train);
        let t = u.valid_target;
        let ts = scores[t];
        let rank = 1 + scores
            .iter()
            .enumerate()
            .skip(1)
            .filter(|&(i, &s)| i != t && (s > ts || (s == ts && i < t)))
            .count();
        if rank <= 10 {
            sum += 1.0 / ((rank + 1) as f64).log2();
        }
    }
    let own = sum / split.users.len().max(1) as f64;
    if (lib - own).abs() > 1e-12 {
        out.fail_check(format!(
            "NDCG@10 {lib} from the evaluator, {own} recomputed"
        ));
    }
    if !(own > 0.0 && own.is_finite()) {
        out.fail_check(format!("NDCG@10 {own} is not positive"));
    }
    own
}

/// Per-layer sums over the traced chunks.
#[derive(Default)]
struct Layers {
    steps: f64,
    stage1: f64,
    stage2: f64,
    batch_self: f64,
    shard_work: f64,
    forward: f64,
    backward: f64,
    adam: f64,
    gemm_cells: f64,
    tape_nodes: f64,
    pool_hit: f64,
    pool_miss: f64,
}

impl Layers {
    fn add(&mut self, t: &trace::TraceFile) {
        let ms = |ns: u64| ns as f64 / 1e6;
        for batch in t.spans.iter().filter(|s| s.name == "batch") {
            let children: Vec<(u64, u64)> = t
                .spans
                .iter()
                .filter(|s| s.parent == batch.id)
                .map(|s| (s.start, s.dur))
                .collect();
            self.batch_self += ms(self_time(batch.start, batch.dur, &children));
            self.steps += 1.0;
        }
        for s in &t.spans {
            match s.name.as_str() {
                "stage1" => self.stage1 += ms(s.dur),
                "stage2" => self.stage2 += ms(s.dur),
                "forward" => self.forward += ms(s.dur),
                "backward" => self.backward += ms(s.dur),
                "opt_step" => self.adam += ms(s.dur),
                _ => {}
            }
        }
        self.shard_work = self.forward + self.backward;
        let c = |name: &str| t.counters.get(name).copied().unwrap_or(0.0);
        self.gemm_cells += c("tensor.gemm.cells");
        self.tape_nodes += c("autograd.tape.nodes");
        self.pool_hit += c("tensor.pool.hit");
        self.pool_miss += c("tensor.pool.miss");
    }
}

/// `Batcher::epoch` + `Batch::shard` per optimizer step, on the run's own
/// training sequences.
fn data_batch_ms(train: &[Vec<ItemId>], seed: u64) -> f64 {
    use rand::SeedableRng;
    let batcher = Batcher::new(train.to_vec(), MAX_LEN, BATCH);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut batches = 0usize;
    let start = Instant::now();
    for _ in 0..20 {
        for b in batcher.epoch(&mut rng) {
            std::hint::black_box(b.shard(SHARD));
            batches += 1;
        }
    }
    start.elapsed().as_secs_f64() * 1e3 / batches.max(1) as f64
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let work = WorkDir::new("train-meta").map_err(|e| e.to_string())?;

    let mut setup_s = Vec::new();
    let mut s = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        s = Some(setup(seed)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let Setup {
        split,
        train,
        mut model,
    } = s.ok_or("no set-up ran")?;

    // Untraced and traced step times, chunk rates (sequences per second)
    // and wall time.
    let mut steps = [Vec::new(), Vec::new()];
    let mut rates = [Vec::new(), Vec::new()];
    let mut wall = [Duration::ZERO; 2];
    let mut layers = Layers::default();
    let mut quality = None;
    let budget = Duration::from_secs_f64(seconds);
    let mut i = 0usize;
    while wall[0] + wall[1] < budget || (!traced && i < QUALITY_CHUNKS) {
        let trace_on = traced && i % 2 == 1;
        let path = work.join(&format!("chunk-{i}.jsonl"));
        let cfg = train_config(
            seed.wrapping_add(1 + i as u64),
            CHUNK_STEPS,
            trace_on.then(|| path.display().to_string()),
        );
        let c = chunk(&mut model, &train, &cfg)?;
        out.failed += c.nonfinite;
        out.attempted += c.steps_ms.len() as u64;
        rates[trace_on as usize].push((c.steps_ms.len() * BATCH) as f64 / c.wall.as_secs_f64());
        steps[trace_on as usize].extend(c.steps_ms);
        wall[trace_on as usize] += c.wall;
        if trace_on {
            // The trace stream switched the metric registry on; the next
            // untraced chunk runs with it off again.
            meta_sgcl_repro::telemetry::set_enabled(false);
            layers.add(&trace::read(&path).map_err(|e| format!("{}: {e}", path.display()))?);
            let _ = std::fs::remove_file(&path);
        }
        i += 1;
        if !traced && i == QUALITY_CHUNKS {
            quality = Some(ndcg_at_10(&mut model, &split, &mut out));
        }
    }

    // Throughput is the median chunk rate: host load drifts over seconds,
    // and the median keeps a few fast or slow seconds from setting it.
    let throughput = |k: usize| median(&rates[k]);
    let t = block_tail(&steps[0]);
    out.set("tail_ms", t.value);
    if traced {
        let n = layers.steps.max(1.0);
        let step_ms = mean(&steps[1]);
        out.set("core.train.stage1_ms", layers.stage1 / n);
        out.set("core.train.stage2_ms", layers.stage2 / n);
        out.set("core.train.batch_self_ms", layers.batch_self / n);
        out.set(
            "core.train.span_coverage",
            (layers.stage1 + layers.stage2 + layers.batch_self) / n / step_ms,
        );
        out.set(
            "core.exec.busy_frac",
            layers.shard_work / (THREADS as f64 * (layers.stage1 + layers.stage2)),
        );
        out.set("models.forward_ms", layers.forward / n);
        out.set("autograd.backward_ms", layers.backward / n);
        out.set("optim.adam_ms", layers.adam / n);
        out.set("tensor.gemm.cells_per_step", layers.gemm_cells / n);
        out.set("autograd.tape.nodes_per_step", layers.tape_nodes / n);
        out.set(
            "tensor.pool.hit_ratio",
            layers.pool_hit / (layers.pool_hit + layers.pool_miss).max(1.0),
        );
        out.set("data.batch_ms", data_batch_ms(&train, seed));
        let (p0, p1) = (median(&steps[0]), median(&steps[1]));
        out.set("trace.p50_delta_frac", (p1 - p0) / p0);
        out.set(
            "trace.throughput_delta_frac",
            (throughput(1) - throughput(0)) / throughput(0),
        );
        out.note(format!(
            "traced steps {} (mean {step_ms:.3} ms), untraced steps {}; spans cover {:.3} of the traced step",
            steps[1].len(),
            steps[0].len(),
            out.metrics["core.train.span_coverage"],
        ));
    } else {
        out.set("setup_s", median(&setup_s));
        out.set("throughput_per_s", throughput(0));
        out.set("p50_ms", median(&steps[0]));
        out.set("quality", quality.unwrap_or(0.0));
        out.note(format!(
            "steps {} ({} seqs each), tail {:.3} ms = p{:.2} of n={} (median block), NDCG@10 after {} steps",
            steps[0].len(),
            BATCH,
            t.value,
            t.percentile,
            t.n,
            WARMUP_STEPS + QUALITY_CHUNKS as u64 * CHUNK_STEPS
        ));
    }
    out.set("peak_rss_mb", peak_rss_mb("self").unwrap_or(0.0));
    Ok(out)
}

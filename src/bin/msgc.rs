//! `msgc` — command-line interface for the Meta-SGCL reproduction.
//!
//! ```text
//! msgc generate --preset toys --seed 42 --out data.csv
//! msgc stats    --data data.csv
//! msgc train    --data data.csv --epochs 20 --out model.msgc \
//!               --metrics-out metrics.jsonl --trace-out trace.jsonl
//! msgc evaluate --data data.csv --model model.msgc
//! msgc recommend --data data.csv --model model.msgc --user 3 --k 10
//! msgc serve    --data data.csv --model model.msgc --addr 127.0.0.1:7878
//! msgc top      127.0.0.1:7878
//! msgc report   metrics.jsonl --trace trace.jsonl
//! ```
//!
//! `--data` accepts either a CSV of `user,item,rating,timestamp` rows or
//! one of the built-in synthetic presets via `synth:<preset>:<seed>`
//! (e.g. `synth:toys:42`).

use std::collections::HashMap;
use std::io::Write;
use std::process::ExitCode;

use meta_sgcl_repro::meta_sgcl::{MetaSgcl, MetaSgclConfig};
use meta_sgcl_repro::models::{
    evaluate_test, evaluate_valid, recommend_top_k, NetConfig, TrainConfig,
};
use meta_sgcl_repro::recdata::io::{load_interactions_csv, CsvOptions};
use meta_sgcl_repro::recdata::{synth, Dataset, LeaveOneOut};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  msgc generate --preset <clothing|toys|ml1m> [--seed N] --out FILE\n  \
         msgc stats --data SPEC\n  \
         msgc train --data SPEC [--epochs N] [--dim N] [--max-len N] [--alpha F] [--beta F] \
         [--joint] [--threads N] [--shard-size N] [--sanitize] \
         [--save-every N] [--keep-last K] [--ckpt-dir DIR] [--resume PATH] [--max-steps N] \
         [--metrics-out FILE] [--trace-out FILE] [--strict-health] \
         [--sampled-softmax N] [--sampler uniform|log-uniform] \
         --out MODEL\n  \
         msgc evaluate --data SPEC --model MODEL [--dim N] [--max-len N]\n  \
         msgc recommend --data SPEC --model MODEL --user N [--k N] [--dim N] [--max-len N]\n  \
         msgc serve --data SPEC --model MODEL [--addr HOST:PORT] [--mode full|incremental] \
         [--batch-max N] [--ann] [--ann-ef N] [--topk exact|ann] [--dim N] [--max-len N] \
         [--trace-out FILE] [--trace-sample N] [--slo-p99-ms F] [--min-hit-rate F] \
         [--min-recall F] [--canary-every-s N] [--canary-probes N]\n  \
         msgc top ADDR [--interval-ms N] [--iters N]\n  \
         msgc check [--model NAME | --all] [--cost] [--determinism] \
         [--audit-json FILE] [--inject-fault <shape|freeze|reassoc|cost>]\n  \
         msgc report METRICS.jsonl [--trace TRACE.jsonl]\n\n\
         SPEC = path to user,item,rating,timestamp CSV, or synth:<preset>:<seed>"
    );
    ExitCode::from(2)
}

/// Flags that take no value.
const BOOL_FLAGS: &[&str] = &[
    "joint",
    "sanitize",
    "all",
    "strict-health",
    "cost",
    "determinism",
    "ann",
];

/// Flags that require a value.
const VALUE_FLAGS: &[&str] = &[
    "preset",
    "seed",
    "out",
    "data",
    "epochs",
    "dim",
    "max-len",
    "alpha",
    "beta",
    "model",
    "user",
    "k",
    "threads",
    "shard-size",
    "inject-fault",
    "save-every",
    "keep-last",
    "ckpt-dir",
    "resume",
    "max-steps",
    "metrics-out",
    "trace-out",
    "trace",
    "addr",
    "mode",
    "batch-max",
    "audit-json",
    "sampled-softmax",
    "sampler",
    "ann-ef",
    "topk",
    "trace-sample",
    "slo-p99-ms",
    "min-hit-rate",
    "min-recall",
    "canary-every-s",
    "canary-probes",
    "interval-ms",
    "iters",
];

#[derive(Debug)]
struct Args {
    flags: HashMap<String, String>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut flags = HashMap::new();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            let Some(name) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument '{a}' (flags start with --)"));
            };
            if BOOL_FLAGS.contains(&name) {
                flags.insert(name.to_string(), "true".to_string());
                i += 1;
            } else if VALUE_FLAGS.contains(&name) {
                let Some(value) = argv.get(i + 1) else {
                    return Err(format!("missing value for --{name}"));
                };
                flags.insert(name.to_string(), value.clone());
                i += 2;
            } else {
                return Err(format!("unknown flag --{name}"));
            }
        }
        Ok(Args { flags })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for --{name}: {v}")),
        }
    }
}

fn load_data(spec: &str) -> Result<Dataset, String> {
    if let Some(rest) = spec.strip_prefix("synth:") {
        let mut parts = rest.split(':');
        let preset = parts.next().unwrap_or("toys");
        let seed: u64 = parts
            .next()
            .unwrap_or("42")
            .parse()
            .map_err(|_| format!("bad seed in data spec {spec}"))?;
        let cfg = match preset {
            "clothing" => synth::SynthConfig::clothing_like(seed),
            "ml1m" => synth::SynthConfig::ml1m_like(seed),
            "toys" => synth::SynthConfig::toys_like(seed),
            other => return Err(format!("unknown preset {other}")),
        };
        Ok(synth::generate(&cfg))
    } else {
        load_interactions_csv(spec, &CsvOptions::default()).map_err(|e| e.to_string())
    }
}

fn build_model(data: &Dataset, args: &Args) -> Result<MetaSgcl, String> {
    let dim: usize = args.get_or("dim", 32)?;
    let max_len: usize = args.get_or("max-len", 20)?;
    let alpha: f32 = args.get_or("alpha", 0.05)?;
    let beta: f32 = args.get_or("beta", 0.2)?;
    let seed: u64 = args.get_or("seed", 42)?;
    let mut cfg = MetaSgclConfig {
        net: NetConfig {
            dim,
            max_len,
            seed,
            ..NetConfig::for_items(data.num_items)
        },
        alpha,
        beta,
        ..MetaSgclConfig::for_items(data.num_items)
    };
    if args.get("joint").is_some() {
        cfg.strategy = meta_sgcl_repro::meta_sgcl::TrainStrategy::Joint;
    }
    Ok(MetaSgcl::new(cfg))
}

fn cmd_generate(args: &Args) -> Result<(), String> {
    let preset = args.get("preset").ok_or("--preset required")?;
    let seed: u64 = args.get_or("seed", 42)?;
    let out = args.get("out").ok_or("--out required")?;
    let data = load_data(&format!("synth:{preset}:{seed}"))?;
    let mut f = std::fs::File::create(out).map_err(|e| e.to_string())?;
    for (u, seq) in data.sequences.iter().enumerate() {
        for (t, item) in seq.iter().enumerate() {
            writeln!(f, "u{u},i{item},5,{t}").map_err(|e| e.to_string())?;
        }
    }
    println!("wrote {} interactions to {out}", data.num_interactions());
    Ok(())
}

fn cmd_stats(args: &Args) -> Result<(), String> {
    let data = load_data(args.get("data").ok_or("--data required")?)?;
    println!("dataset {}: {}", data.name, data.stats());
    let split = LeaveOneOut::split(&data);
    println!("evaluable users (≥3 interactions): {}", split.num_users());
    Ok(())
}

/// Prints checkpoint commits and resume events as training progresses.
struct CkptReporter;

impl meta_sgcl_repro::meta_sgcl::TrainObserver for CkptReporter {
    fn on_checkpoint(&mut self, path: &std::path::Path, step: u64) {
        println!("checkpoint: {} (step {step})", path.display());
    }

    fn on_resume(&mut self, path: &std::path::Path, epoch: usize, batch: usize, step: u64) {
        println!(
            "resuming from {} at epoch {epoch}, batch {batch}, step {step}",
            path.display()
        );
    }
}

fn cmd_train(args: &Args) -> Result<(), String> {
    let data = load_data(args.get("data").ok_or("--data required")?)?;
    let out = args.get("out").ok_or("--out required")?;
    let epochs: usize = args.get_or("epochs", 20)?;
    let threads: usize = args.get_or("threads", 1)?;
    let shard_size: usize = args.get_or("shard-size", TrainConfig::default().shard_size)?;
    if threads == 0 || shard_size == 0 {
        return Err("--threads and --shard-size must be at least 1".into());
    }
    let save_every: u64 = args.get_or("save-every", 0)?;
    let keep_last: usize = args.get_or("keep-last", 0)?;
    let max_steps: u64 = args.get_or("max-steps", 0)?;
    // Periodic checkpoints default to a sibling directory of the model file.
    let ckpt_dir = match (args.get("ckpt-dir"), save_every) {
        (Some(dir), _) => Some(dir.to_string()),
        (None, 0) => None,
        (None, _) => Some(format!("{out}.ckpts")),
    };
    // Sampled-softmax objective: `--sampled-softmax N` draws N negative
    // candidates per training shard (0 = full-catalog cross-entropy).
    let negatives: usize = args.get_or("sampled-softmax", 0)?;
    let sampler = match args.get("sampler") {
        None => meta_sgcl_repro::models::NegativeSampler::Uniform,
        Some(s) => meta_sgcl_repro::models::NegativeSampler::parse(s)
            .ok_or_else(|| format!("invalid --sampler {s} (uniform|log-uniform)"))?,
    };
    let softmax = if negatives > 0 {
        meta_sgcl_repro::models::SoftmaxMode::Sampled { negatives, sampler }
    } else {
        meta_sgcl_repro::models::SoftmaxMode::Full
    };
    let split = LeaveOneOut::split(&data);
    let mut model = build_model(&data, args)?;
    let tc = TrainConfig {
        epochs,
        softmax,
        max_len: model.config().net.max_len,
        verbose: true,
        threads,
        shard_size,
        sanitize: args.get("sanitize").is_some(),
        save_every,
        keep_last,
        ckpt_dir,
        resume: args.get("resume").map(str::to_string),
        max_steps,
        metrics_out: args.get("metrics-out").map(str::to_string),
        trace_out: args.get("trace-out").map(str::to_string),
        strict_health: args.get("strict-health").is_some(),
        ..Default::default()
    };
    let t0 = std::time::Instant::now();
    model
        .train_model_observed(&split.train_sequences(), &tc, &mut CkptReporter)
        .map_err(|e| format!("training failed: {e}"))?;
    println!(
        "trained {} epochs in {:.1?} on {} thread(s)",
        epochs,
        t0.elapsed(),
        threads
    );
    let valid = evaluate_valid(&mut model, &split, &[5, 10]);
    println!("validation: {valid}");
    model.save(out).map_err(|e| e.to_string())?;
    println!("saved model to {out}");
    Ok(())
}

fn cmd_evaluate(args: &Args) -> Result<(), String> {
    let data = load_data(args.get("data").ok_or("--data required")?)?;
    let split = LeaveOneOut::split(&data);
    let mut model = build_model(&data, args)?;
    model
        .load(args.get("model").ok_or("--model required")?)
        .map_err(|e| e.to_string())?;
    let report = evaluate_test(&mut model, &split, &[5, 10]);
    println!("test: {report}");
    Ok(())
}

fn cmd_recommend(args: &Args) -> Result<(), String> {
    let data = load_data(args.get("data").ok_or("--data required")?)?;
    let split = LeaveOneOut::split(&data);
    let user: usize = args.get_or("user", 0)?;
    let k: usize = args.get_or("k", 10)?;
    if user >= split.num_users() {
        return Err(format!(
            "user {user} out of range ({} users)",
            split.num_users()
        ));
    }
    let mut model = build_model(&data, args)?;
    model
        .load(args.get("model").ok_or("--model required")?)
        .map_err(|e| e.to_string())?;
    let history = split.users[user].test_input();
    println!("user {user} history (most recent last): {history:?}");
    for (rank, (item, score)) in recommend_top_k(&mut model, user, &history, k, true)
        .iter()
        .enumerate()
    {
        println!("  {}. item {item} (score {score:.4})", rank + 1);
    }
    Ok(())
}

/// `msgc serve`: load a trained checkpoint into the tape-free inference
/// engine, and serve line-delimited JSON scoring requests over
/// TCP with micro-batching across connections.
///
/// Observability is always on: every request feeds the `serve.latency_us`
/// sketch and the sliding-window SLO monitors, and the socket answers
/// read-only `{"op":"admin"}` queries (snapshot / health / prom — see
/// `msgc top`). `--trace-out FILE` additionally emits span trees and flat
/// `req` events for a deterministic 1-in-`--trace-sample` of requests.
/// With `--ann`, a background canary replays `--canary-probes` synthetic
/// histories every `--canary-every-s` seconds through both the index and
/// the exact ranking, publishing live recall@10 (gated when `--min-recall`
/// is set).
fn cmd_serve(args: &Args) -> Result<(), String> {
    use meta_sgcl_repro::serve::{
        canary_probes, canary_recall, server, Batcher, Engine, HnswConfig, HnswIndex, Mode,
        ObsConfig, ServeObs, SloBudgets, TopK,
    };
    use std::sync::Arc;
    use std::time::Duration;

    let data = load_data(args.get("data").ok_or("--data required")?)?;
    let mut model = build_model(&data, args)?;
    model
        .load(args.get("model").ok_or("--model required")?)
        .map_err(|e| e.to_string())?;
    let mode = match args.get("mode").unwrap_or("full") {
        "full" => Mode::Full,
        "incremental" => Mode::Incremental,
        other => return Err(format!("unknown --mode {other} (full|incremental)")),
    };
    let addr = args.get("addr").unwrap_or("127.0.0.1:7878");
    let batch_max: usize = args.get_or("batch-max", 16)?;
    if batch_max == 0 {
        return Err("--batch-max must be at least 1".into());
    }
    let default_topk = match args.get("topk").unwrap_or("exact") {
        "exact" => TopK::Exact,
        "ann" => TopK::Ann,
        other => return Err(format!("unknown --topk {other} (exact|ann)")),
    };
    // `--ann` builds the index; a default of `ann` implies it.
    let want_ann = args.get("ann").is_some() || default_topk == TopK::Ann;
    let ann_ef: usize = args.get_or("ann-ef", 64)?;

    meta_sgcl_repro::telemetry::set_enabled(true);

    // Deterministic cold-start ranking: dataset popularity (empty
    // histories would otherwise rank an all-zero catalog).
    let mut counts = vec![0u64; data.num_items + 1];
    for seq in &data.sequences {
        for &item in seq {
            if let Some(c) = counts.get_mut(item) {
                *c += 1;
            }
        }
    }
    // Nothing below reads the interactions again: release them before
    // serving, so per-user sessions grow into that memory instead. The
    // engine serves the loaded model itself; no copy of its weights is made.
    let num_items = data.num_items;
    drop(data);
    let mut engine = Engine::new(model, mode)
        .with_popularity(&counts)
        .with_default_topk(default_topk);

    if want_ann {
        let ann_cfg = HnswConfig {
            ef_search: ann_ef,
            ..HnswConfig::default()
        };
        // The index persists alongside the checkpoint; a sidecar built
        // from different embedding bytes or parameters is rebuilt.
        let sidecar =
            std::path::PathBuf::from(format!("{}.hnsw", args.get("model").unwrap_or("model")));
        // The table is read in place under its read lock; the index keeps
        // the one copy of the item rows it searches.
        let table = engine.model().item_table().borrow();
        let index = match HnswIndex::load(&sidecar, &table.value, num_items, &ann_cfg) {
            Some(index) => {
                println!("loaded ANN index from {}", sidecar.display());
                index
            }
            None => {
                let t0 = std::time::Instant::now();
                let index = HnswIndex::build(&table.value, num_items, &ann_cfg);
                match index.save(&sidecar) {
                    Ok(()) => println!(
                        "built ANN index over {} items in {:.1?} (saved to {})",
                        num_items,
                        t0.elapsed(),
                        sidecar.display()
                    ),
                    Err(e) => println!(
                        "built ANN index over {} items in {:.1?} (sidecar not saved: {e})",
                        num_items,
                        t0.elapsed()
                    ),
                }
                index
            }
        };
        drop(table);
        engine = engine.with_ann(index);
    }
    let engine = Arc::new(engine);
    // One synthetic pass through every scoring path so the first real
    // request doesn't pay pool-population and dispatch-probe cold costs.
    engine.warm_up();
    let batcher = Arc::new(Batcher::new(Arc::clone(&engine), batch_max, Duration::ZERO));

    // Observability: tracing is opt-in (--trace-out), metering and the
    // admin endpoint are always on.
    let tracer = match args.get("trace-out") {
        None => None,
        Some(path) => Some(Arc::new(
            meta_sgcl_repro::telemetry::trace::Tracer::to_file(path)
                .map_err(|e| format!("--trace-out {path}: {e}"))?,
        )),
    };
    let obs = ServeObs::new(ObsConfig {
        tracer,
        sample_every: args.get_or("trace-sample", 64)?,
        budgets: SloBudgets {
            p99_ms: args.get_or("slo-p99-ms", 50.0)?,
            min_hit_rate: match args.get("min-hit-rate") {
                None => None,
                Some(_) => Some(args.get_or("min-hit-rate", 0.0)?),
            },
            min_recall: match args.get("min-recall") {
                None => None,
                Some(_) => Some(args.get_or("min-recall", 0.0)?),
            },
            ..SloBudgets::default()
        },
        ..ObsConfig::default()
    });

    // Background recall canary: replay deterministic probes through the
    // ANN index and the exact ranking, publish live recall@10.
    let canary_every_s: u64 = args.get_or("canary-every-s", 30)?;
    if want_ann && canary_every_s > 0 {
        let n_probes: usize = args.get_or("canary-probes", 16)?;
        let probes = canary_probes(num_items, n_probes, 8, 42);
        let engine_c = Arc::clone(&engine);
        let obs_c = Arc::clone(&obs);
        std::thread::spawn(move || loop {
            if let Some(recall) = canary_recall(engine_c.as_ref(), &probes, 10) {
                obs_c.set_canary_recall(recall);
            }
            std::thread::sleep(Duration::from_secs(canary_every_s));
        });
    }

    let listener = std::net::TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    // The bound address, so `--addr 127.0.0.1:0` reports the port it got.
    let bound = listener
        .local_addr()
        .map_err(|e| format!("bind {addr}: {e}"))?;
    println!(
        "serving {} items on {bound} (mode {mode:?}, batch-max {batch_max}, \
         topk {default_topk:?}{}, admin endpoint on, trace sample 1/{})",
        num_items,
        if want_ann {
            format!(", ann ef {ann_ef}")
        } else {
            String::new()
        },
        obs.sample_every(),
    );
    server::run(listener, batcher, obs).map_err(|e| e.to_string())
}

/// A required numeric field of a validated telemetry event (defaulting to
/// NaN covers `null`, which stands in for non-finite floats on the wire).
fn num(obj: &telemetry::json::Json, key: &str) -> f64 {
    use telemetry::json::Json;
    obj.get(key).and_then(Json::as_num).unwrap_or(f64::NAN)
}

/// `msgc top ADDR`: a polling terminal dashboard over the serve admin
/// endpoint — QPS, latency quantiles from the streaming sketch, batch
/// occupancy, cache/ANN/cold-start traffic, and per-SLO status. Polls
/// every `--interval-ms` (default 1000); `--iters N` renders N frames and
/// exits (for CI), `--iters 0` (default) watches forever and redraws in
/// place.
fn cmd_top(addr: &str, args: &Args) -> Result<(), String> {
    use std::io::{BufRead, BufReader, Write};
    use telemetry::json::{self, Json};

    let interval_ms: u64 = args.get_or("interval-ms", 1000)?;
    let iters: u64 = args.get_or("iters", 0)?;

    let stream = std::net::TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = stream;
    let mut poll = |cmd: &str| -> Result<json::Json, String> {
        writer
            .write_all(format!("{{\"op\":\"admin\",\"cmd\":\"{cmd}\"}}\n").as_bytes())
            .and_then(|()| writer.flush())
            .map_err(|e| e.to_string())?;
        let mut line = String::new();
        reader.read_line(&mut line).map_err(|e| e.to_string())?;
        let obj = json::parse(line.trim()).map_err(|e| format!("bad admin reply: {e}"))?;
        if let Some(err) = obj.get("error").and_then(Json::as_str) {
            return Err(format!("server: {err}"));
        }
        Ok(obj)
    };

    // name -> metric object, from the snapshot's metrics array.
    let find = |metrics: &[Json], name: &str| -> Option<Json> {
        metrics
            .iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some(name))
            .cloned()
    };
    let counter = |metrics: &[Json], name: &str| -> u64 {
        find(metrics, name).map_or(0, |m| num(&m, "value") as u64)
    };

    let mut frame = 0u64;
    loop {
        frame += 1;
        let snap = poll("snapshot")?;
        let metrics = snap
            .get("metrics")
            .and_then(Json::as_arr)
            .ok_or("snapshot has no metrics array")?
            .to_vec();
        let slos = snap
            .get("slos")
            .and_then(Json::as_arr)
            .ok_or("snapshot has no slos array")?
            .to_vec();

        if iters == 0 {
            print!("\x1b[2J\x1b[H"); // clear + home: redraw in place
        }
        println!("msgc top — {addr} (frame {frame})");
        let qps = find(&metrics, "serve.qps").map_or(0.0, |m| num(&m, "value"));
        let requests = counter(&metrics, "serve.requests");
        let (batches, batch_sum) = find(&metrics, "serve.batch.size")
            .map_or((0, 0), |m| (num(&m, "count") as u64, num(&m, "sum") as u64));
        let occupancy = if batches > 0 {
            batch_sum as f64 / batches as f64
        } else {
            0.0
        };
        println!(
            "  qps {qps:8.1}   requests {requests}   batch occupancy {occupancy:.2} over {batches} batches"
        );
        if let Some(lat) = find(&metrics, "serve.latency_us") {
            println!(
                "  latency_us  p50 {:>8.0}  p90 {:>8.0}  p99 {:>8.0}  p999 {:>8.0}  (n={})",
                num(&lat, "p50"),
                num(&lat, "p90"),
                num(&lat, "p99"),
                num(&lat, "p999"),
                num(&lat, "count"),
            );
        }
        println!(
            "  cache hit {}  miss {}   cold starts {}   ann queries {}  fallbacks {}",
            counter(&metrics, "serve.cache.hit"),
            counter(&metrics, "serve.cache.miss"),
            counter(&metrics, "serve.cold_start"),
            counter(&metrics, "serve.ann.query"),
            counter(&metrics, "serve.ann.fallback"),
        );
        if let Some(recall) = find(&metrics, "serve.canary.recall_at_10") {
            println!("  canary recall@10 {:.4}", num(&recall, "value"));
        }
        println!("  SLOs:");
        for slo in &slos {
            let name = slo.get("name").and_then(Json::as_str).unwrap_or("?");
            let status = slo.get("status").and_then(Json::as_str).unwrap_or("?");
            let breached = slo
                .get("breached_ever")
                .and_then(Json::as_bool)
                .unwrap_or(false);
            let value = slo
                .get("value")
                .and_then(Json::as_num)
                .map_or("--".to_string(), |v| format!("{v:.4}"));
            println!(
                "    {name:<20} {status:<9} value {value:>10}  threshold {:.4}{}",
                num(slo, "threshold"),
                if breached { "  [breached earlier]" } else { "" },
            );
        }
        if iters > 0 && frame >= iters {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(50)));
    }
}

/// Aggregates serve `req` trace events: request counts per op, mean phase
/// breakdown, and outcome-flag totals.
#[derive(Default)]
struct ReqAgg {
    count: u64,
    scores: u64,
    appends: u64,
    enqueue_ns: u64,
    assemble_ns: u64,
    forward_ns: u64,
    retrieve_ns: u64,
    serialize_ns: u64,
    total_ns: u64,
    cold: u64,
    hits: u64,
    ann: u64,
    fallbacks: u64,
}

impl ReqAgg {
    fn add(&mut self, obj: &telemetry::json::Json) {
        use telemetry::json::Json;
        self.count += 1;
        match obj.get("op").and_then(Json::as_str) {
            Some("score") => self.scores += 1,
            Some("append") => self.appends += 1,
            _ => {}
        }
        self.enqueue_ns += num(obj, "enqueue_ns") as u64;
        self.assemble_ns += num(obj, "assemble_ns") as u64;
        self.forward_ns += num(obj, "forward_ns") as u64;
        self.retrieve_ns += num(obj, "retrieve_ns") as u64;
        self.serialize_ns += num(obj, "serialize_ns") as u64;
        self.total_ns += num(obj, "total_ns") as u64;
        let flag = |key: &str| obj.get(key).and_then(Json::as_bool).unwrap_or(false) as u64;
        self.cold += flag("cold_start");
        self.hits += flag("cache_hit");
        self.ann += flag("ann");
        self.fallbacks += flag("ann_fallback");
    }

    fn print(&self) {
        if self.count == 0 {
            return;
        }
        println!(
            "\nserve requests ({} sampled: {} score, {} append):",
            self.count, self.scores, self.appends
        );
        let mean_ms = self.total_ns as f64 / self.count as f64 / 1e6;
        println!("  mean sampled latency {mean_ms:.3} ms");
        let phases = [
            ("enqueue", self.enqueue_ns),
            ("assemble", self.assemble_ns),
            ("forward", self.forward_ns),
            ("retrieve", self.retrieve_ns),
            ("serialize", self.serialize_ns),
        ];
        for (name, ns) in phases {
            let mean = ns as f64 / self.count as f64 / 1e6;
            let frac = if self.total_ns > 0 {
                100.0 * ns as f64 / self.total_ns as f64
            } else {
                0.0
            };
            // Batch assembly ends at the same dispatch instant the queue
            // wait does; its share is contained in enqueue's, not added.
            let note = if name == "assemble" {
                "  [within enqueue]"
            } else {
                ""
            };
            println!("    {name:<10} {mean:>9.3} ms mean  ({frac:>5.1}% of total){note}");
        }
        println!(
            "  outcomes: {} cold start(s), {} cache hit(s), {} ann-served, {} ann fallback(s)",
            self.cold, self.hits, self.ann, self.fallbacks
        );
    }
}

/// `msgc report`: re-aggregate a metrics JSONL stream (and optionally a
/// trace stream) into the per-term loss curves, health events, final
/// deterministic counters, and — with `--trace` — the top wall-clock
/// sinks by span name. Serve-side streams are summarized too: sketch
/// metrics print their quantiles, and sampled `req` events print a phase
/// breakdown (so piping a `msgc serve --trace-out` file through either
/// argument works).
fn cmd_report(metrics_path: &str, args: &Args) -> Result<(), String> {
    use meta_sgcl_repro::meta_sgcl::EpochStats;
    use telemetry::json::{self, Json};
    use telemetry::schema;

    let text = std::fs::read_to_string(metrics_path).map_err(|e| format!("{metrics_path}: {e}"))?;
    let mut epochs: Vec<(EpochStats, usize)> = Vec::new();
    let mut batches = 0usize;
    let mut health: Vec<String> = Vec::new();
    let mut counters: Vec<(String, u64)> = Vec::new();
    let mut sketches: Vec<String> = Vec::new();
    let mut reqs = ReqAgg::default();
    let mut checkpoints = 0usize;
    let mut resumes = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        schema::validate_line(line).map_err(|e| format!("{metrics_path}:{}: {e}", i + 1))?;
        let obj = json::parse(line).map_err(|e| e.to_string())?;
        match obj.get("ev").and_then(Json::as_str) {
            Some("run") => {
                println!(
                    "run: strategy {} seed {} shard_size {}",
                    obj.get("strategy").and_then(Json::as_str).unwrap_or("?"),
                    num(&obj, "seed"),
                    num(&obj, "shard_size"),
                );
            }
            Some("batch") => batches += 1,
            Some("epoch") => {
                let kl_a = num(&obj, "kl_a");
                let kl_b = num(&obj, "kl_b");
                let stats = EpochStats {
                    epoch: num(&obj, "epoch") as usize,
                    rec: num(&obj, "recon"),
                    kl_a,
                    kl_b,
                    kl: kl_a + kl_b,
                    cl: num(&obj, "info_nce"),
                    total: num(&obj, "total"),
                    // No timing in the metrics stream (determinism
                    // contract); Display omits the throughput suffix.
                    wall_ms: 0.0,
                    seqs_per_sec: 0.0,
                };
                epochs.push((stats, num(&obj, "batches") as usize));
            }
            Some("health") => health.push(format!(
                "epoch {} batch {} step {}: [{}] {}",
                num(&obj, "epoch"),
                num(&obj, "batch"),
                num(&obj, "step"),
                obj.get("detector").and_then(Json::as_str).unwrap_or("?"),
                obj.get("message").and_then(Json::as_str).unwrap_or(""),
            )),
            Some("metric") => {
                match (
                    obj.get("name").and_then(Json::as_str),
                    obj.get("kind").and_then(Json::as_str),
                ) {
                    (Some(name), Some("counter")) => {
                        counters.push((name.to_string(), num(&obj, "value") as u64));
                    }
                    (Some(name), Some("sketch")) => sketches.push(format!(
                        "{name}: n={} p50={:.0} p90={:.0} p99={:.0} p999={:.0}",
                        num(&obj, "count"),
                        num(&obj, "p50"),
                        num(&obj, "p90"),
                        num(&obj, "p99"),
                        num(&obj, "p999"),
                    )),
                    _ => {}
                }
            }
            Some("req") => reqs.add(&obj),
            Some("checkpoint") => checkpoints += 1,
            Some("resume") => resumes += 1,
            _ => {}
        }
    }

    if !epochs.is_empty() || batches > 0 {
        println!(
            "\nloss curves ({} epochs, {batches} batch events):",
            epochs.len()
        );
    }
    for (stats, n) in &epochs {
        println!("  {stats} [{n} batches]");
    }
    if checkpoints + resumes > 0 {
        println!("\ncheckpoints committed: {checkpoints}, resumes: {resumes}");
    }
    if health.is_empty() {
        if !epochs.is_empty() || batches > 0 {
            println!("\nhealth: no detector fired");
        }
    } else {
        println!("\nhealth events:");
        for h in &health {
            println!("  {h}");
        }
    }
    if !counters.is_empty() {
        println!("\nfinal counters (deterministic):");
        for (name, value) in &counters {
            println!("  {name} = {value}");
        }
    }
    if !sketches.is_empty() {
        println!("\nlatency sketches:");
        for s in &sketches {
            println!("  {s}");
        }
    }
    reqs.print();

    if let Some(trace_path) = args.get("trace") {
        let text = std::fs::read_to_string(trace_path).map_err(|e| format!("{trace_path}: {e}"))?;
        // name -> (total ns, span count)
        let mut sinks: HashMap<String, (u64, u64)> = HashMap::new();
        let mut trace_reqs = ReqAgg::default();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            schema::validate_line(line).map_err(|e| format!("{trace_path}:{}: {e}", i + 1))?;
            let obj = json::parse(line).map_err(|e| e.to_string())?;
            match obj.get("ev").and_then(Json::as_str) {
                Some("span") => {
                    let name = obj.get("name").and_then(Json::as_str).unwrap_or("?");
                    let e = sinks.entry(name.to_string()).or_insert((0, 0));
                    e.0 += num(&obj, "dur_ns") as u64;
                    e.1 += 1;
                }
                Some("req") => trace_reqs.add(&obj),
                _ => {}
            }
        }
        trace_reqs.print();
        let mut sinks: Vec<(String, (u64, u64))> = sinks.into_iter().collect();
        sinks.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then(a.0.cmp(&b.0)));
        println!("\ntop time sinks (by total span wall-clock):");
        for (name, (total_ns, count)) in sinks.iter().take(10) {
            println!(
                "  {name:<12} {:>10.2} ms across {count} span(s)",
                *total_ns as f64 / 1e6
            );
        }
    }
    Ok(())
}

/// `msgc check`: run the static graph auditor (shape inference,
/// gradient-flow/freeze contracts, numeric sanitation, cost/liveness,
/// reassociation-safety) over one model or the whole registered zoo.
/// Exits non-zero if any audit fails, so it slots into CI. All five
/// passes always run and gate cleanliness; `--cost` and `--determinism`
/// print extra per-stage detail. `--audit-json FILE` writes the
/// machine-readable report. `--inject-fault <shape|freeze|reassoc|cost>`
/// deliberately breaks the traced tape first, to prove the detectors
/// fire.
fn cmd_check(args: &Args) -> Result<(), String> {
    use meta_sgcl_repro::analysis::{self, Fault};

    let fault = match args.get("inject-fault") {
        None => None,
        Some("shape") => Some(Fault::Shape),
        Some("freeze") => Some(Fault::Freeze),
        Some("reassoc") => Some(Fault::Reassoc),
        Some("cost") => Some(Fault::Cost),
        Some(other) => {
            return Err(format!(
                "unknown fault kind `{other}` (shape|freeze|reassoc|cost)"
            ))
        }
    };
    let names: Vec<&str> = match (args.get("model"), args.get("all")) {
        (Some(_), Some(_)) => return Err("--model and --all are mutually exclusive".into()),
        (Some(name), None) => vec![name],
        _ => analysis::MODELS.to_vec(),
    };
    // Table-level pass first: the SIMD kernel registry must be internally
    // consistent (every vectorised op classified, fixed-order ops only on
    // order-preserving kernels) before any per-model tape is worth auditing.
    let mut failures = 0usize;
    let (simd_findings, simd_summary) = analysis::check_simd_registry();
    for f in &simd_findings {
        println!("simd-registry: {f}");
    }
    if !simd_findings.is_empty() {
        failures += 1;
    } else if args.get("determinism").is_some() {
        println!(
            "    [determinism] SIMD kernel registry: {} op(s) \
             ({} order-preserving, {} reassociating), all classified",
            simd_summary.total(),
            simd_summary.order_preserving,
            simd_summary.reassociating,
        );
    }
    let mut reports = Vec::new();
    for name in names {
        let report = match fault {
            None => analysis::audit_model(name),
            Some(f) => analysis::audit_model_with_fault(name, f),
        }
        .ok_or_else(|| {
            format!(
                "unknown model `{name}` (registered: {})",
                analysis::MODELS.join(", ")
            )
        })?;
        print!("{report}");
        if args.get("cost").is_some() {
            for s in &report.stages {
                println!(
                    "    [cost] {}/{}: {} flops, tape {} B, closures {} B, \
                     backward peak {} B, grads {} B, transient {} B => predicted peak {} B",
                    report.model,
                    s.stage,
                    s.cost.flops,
                    s.cost.tape_bytes,
                    s.cost.closure_bytes,
                    s.cost.backward_peak_bytes,
                    s.cost.param_grad_bytes,
                    s.cost.transient_bytes,
                    s.cost.predicted_peak_bytes,
                );
                for c in &s.cost.pool_classes {
                    println!(
                        "      pool class numel {}: {} allocation(s), overflow {}",
                        c.numel,
                        c.allocations,
                        c.overflow()
                    );
                }
                println!(
                    "      pool retains {} B after the step",
                    s.cost.pool_retained_bytes
                );
            }
        }
        if args.get("determinism").is_some() {
            for s in &report.stages {
                println!(
                    "    [determinism] {}/{}: {} fixed-order node(s), {} reassoc-safe node(s), \
                     {} finding(s)",
                    report.model,
                    s.stage,
                    s.determinism_summary.fixed_order,
                    s.determinism_summary.reassoc_safe,
                    s.determinism.len(),
                );
            }
        }
        if !report.is_clean() {
            failures += 1;
        }
        reports.push(report);
    }
    if let Some(path) = args.get("audit-json") {
        std::fs::write(path, analysis::report::to_json(&reports))
            .map_err(|e| format!("writing audit JSON to {path}: {e}"))?;
        println!("wrote audit JSON to {path}");
    }
    if failures > 0 {
        return Err(format!("{failures} audit(s) failed"));
    }
    println!("all audits clean");
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        return usage();
    };
    // `report` and `top` take one positional argument: the metrics JSONL
    // file and the server address respectively.
    let (positional, rest) = match (cmd.as_str(), argv.get(1)) {
        ("report" | "top", Some(a)) if !a.starts_with("--") => (Some(a.as_str()), &argv[2..]),
        ("report", _) => {
            eprintln!("error: report requires a metrics JSONL file");
            return usage();
        }
        ("top", _) => {
            eprintln!("error: top requires a server address (HOST:PORT)");
            return usage();
        }
        _ => (None, &argv[1..]),
    };
    let args = match Args::parse(rest) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let result = match cmd.as_str() {
        "generate" => cmd_generate(&args),
        "stats" => cmd_stats(&args),
        "train" => cmd_train(&args),
        "evaluate" => cmd_evaluate(&args),
        "recommend" => cmd_recommend(&args),
        "serve" => cmd_serve(&args),
        "top" => cmd_top(positional.unwrap_or_default(), &args),
        "check" => cmd_check(&args),
        "report" => cmd_report(positional.unwrap_or_default(), &args),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_accepts_known_flags() {
        let args = Args::parse(&argv(&["--data", "d.csv", "--threads", "4", "--joint"])).unwrap();
        assert_eq!(args.get("data"), Some("d.csv"));
        assert_eq!(args.get_or::<usize>("threads", 1).unwrap(), 4);
        assert_eq!(args.get("joint"), Some("true"));
    }

    #[test]
    fn parse_rejects_unknown_flag_by_name() {
        let err = Args::parse(&argv(&["--data", "d.csv", "--bogus", "1"])).unwrap_err();
        assert!(err.contains("--bogus"), "error must name the flag: {err}");
    }

    #[test]
    fn parse_rejects_removed_batch_wait_flag() {
        let err = Args::parse(&argv(&["--batch-wait-us", "5"])).unwrap_err();
        assert!(err.contains("--batch-wait-us"), "{err}");
    }

    #[test]
    fn parse_rejects_bare_value_flag_at_end() {
        let err = Args::parse(&argv(&["--epochs"])).unwrap_err();
        assert!(
            err.contains("missing value") && err.contains("--epochs"),
            "{err}"
        );
    }

    #[test]
    fn parse_rejects_positional_argument() {
        let err = Args::parse(&argv(&["stray"])).unwrap_err();
        assert!(err.contains("stray"), "{err}");
    }

    #[test]
    fn parse_accepts_telemetry_flags() {
        let args = Args::parse(&argv(&[
            "--metrics-out",
            "m.jsonl",
            "--trace-out",
            "t.jsonl",
            "--strict-health",
        ]))
        .unwrap();
        assert_eq!(args.get("metrics-out"), Some("m.jsonl"));
        assert_eq!(args.get("trace-out"), Some("t.jsonl"));
        assert_eq!(args.get("strict-health"), Some("true"));
    }

    #[test]
    fn parse_accepts_auditor_flags() {
        let args = Args::parse(&argv(&[
            "--all",
            "--cost",
            "--determinism",
            "--model",
            "GRU4Rec",
            "--audit-json",
            "audit.json",
            "--inject-fault",
            "reassoc",
        ]))
        .unwrap();
        assert_eq!(args.get("cost"), Some("true"));
        assert_eq!(args.get("determinism"), Some("true"));
        assert_eq!(args.get("model"), Some("GRU4Rec"));
        assert_eq!(args.get("audit-json"), Some("audit.json"));
        assert_eq!(args.get("inject-fault"), Some("reassoc"));
    }

    #[test]
    fn get_or_reports_bad_values() {
        let args = Args::parse(&argv(&["--epochs", "many"])).unwrap();
        let err = args.get_or::<usize>("epochs", 1).unwrap_err();
        assert!(err.contains("--epochs") && err.contains("many"), "{err}");
    }
}

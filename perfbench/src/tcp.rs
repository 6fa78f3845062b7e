//! `serve-tcp`: a real `msgc serve --mode full --ann --topk ann`
//! subprocess on loopback, over a synthetic catalog of about 10⁴ items.
//!
//! The load is a closed loop over [`CONNECTIONS`] connections: the
//! protocol carries no request ids, so each connection is a caller that
//! waits for its reply. The client behaves like any ordinary client: one
//! write per request line, default socket options. Requests are `score`s
//! with real user histories (random prefixes of the users' sequences, so
//! their length varies).
//!
//! Set-up is timed from spawning the server to its first `pong`, each time
//! from a fresh directory holding only the checkpoint, so the HNSW index
//! is built every time. A traced run serves half its time from an
//! untraced server and half from one started with `--trace-out`, whose
//! `req` events are joined with the client's round trips.

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use meta_sgcl_repro::meta_sgcl::{FrozenMetaSgcl, MetaSgcl, MetaSgclConfig};
use meta_sgcl_repro::models::NetConfig;
use meta_sgcl_repro::nn::Freeze;
use meta_sgcl_repro::recdata::io::{load_interactions_csv, CsvOptions};
use meta_sgcl_repro::recdata::{synth, Dataset, ItemId};
use meta_sgcl_repro::serve::{proto, top_k, Response};
use meta_sgcl_repro::telemetry::json::{parse, Json};

use crate::report::{peak_rss_mb, Outcome, Rng, WorkDir};
use crate::stats::{block_tail, mean, median, windowed_rate};
use crate::trace;

/// Client connections (closed-loop callers).
const CONNECTIONS: usize = 2;
/// Items the generator draws from; the 5-core filter `msgc` applies on
/// load leaves about 10⁴ of them.
const GEN_ITEMS: usize = 11_000;
/// Users the generator draws.
const GEN_USERS: usize = 16_000;
/// Server flags besides data, model and address.
const SERVER_FLAGS: &[&str] = &["--mode", "full", "--ann", "--topk", "ann"];
/// Recommendations per request.
const K: usize = 10;
/// Requests per connection whose replies are checked against the offline
/// exact top-k.
const CHECKED: usize = 100;
/// Served ANN recall@10 below this fails the run.
const MIN_RECALL: f64 = 0.8;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Longest a server may take to answer its first ping.
const START_TIMEOUT: Duration = Duration::from_secs(120);

/// Writes the synthetic interactions as the `user,item,rating,timestamp`
/// CSV `msgc` reads, then loads it back exactly as `msgc` does.
fn make_data(seed: u64, csv: &Path) -> Result<Dataset, String> {
    let data = synth::generate(&synth::SynthConfig {
        num_users: GEN_USERS,
        num_items: GEN_ITEMS,
        ..synth::SynthConfig::toys_like(seed)
    });
    let mut text = String::new();
    for (u, seq) in data.sequences.iter().enumerate() {
        for (t, item) in seq.iter().enumerate() {
            text.push_str(&format!("u{u},i{item},5,{t}\n"));
        }
    }
    std::fs::write(csv, text).map_err(|e| format!("{}: {e}", csv.display()))?;
    load_interactions_csv(csv, &CsvOptions::default()).map_err(|e| e.to_string())
}

/// The model `msgc serve` builds for this dataset with its default
/// `--dim`/`--max-len`/`--seed`/`--alpha`/`--beta`.
fn msgc_model(data: &Dataset) -> MetaSgcl {
    MetaSgcl::new(MetaSgclConfig {
        net: NetConfig {
            dim: 32,
            max_len: 20,
            seed: 42,
            ..NetConfig::for_items(data.num_items)
        },
        alpha: 0.05,
        beta: 0.2,
        ..MetaSgclConfig::for_items(data.num_items)
    })
}

/// A running `msgc serve`, killed and reaped when dropped.
struct Server {
    child: Child,
    addr: String,
    stdout: Arc<Mutex<Vec<String>>>,
    reader: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawns the server and waits for its first `pong`; returns it with
    /// the seconds that took.
    fn start(msgc: &str, args: &[String]) -> Result<(Server, f64), String> {
        let port = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("no free port: {e}"))?
            .port();
        let addr = format!("127.0.0.1:{port}");
        let t0 = Instant::now();
        let mut child = Command::new(msgc)
            .arg("serve")
            .args(args)
            .args(["--addr", &addr])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {msgc}: {e}"))?;
        let stdout = Arc::new(Mutex::new(Vec::new()));
        let reader = child.stdout.take().map(|out| {
            let lines = Arc::clone(&stdout);
            std::thread::spawn(move || {
                for line in BufReader::new(out).lines().map_while(Result::ok) {
                    if let Ok(mut l) = lines.lock() {
                        l.push(line);
                    }
                }
            })
        });
        let mut server = Server {
            child,
            addr,
            stdout,
            reader,
        };
        loop {
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("msgc serve exited during start-up: {status}"));
            }
            if let Ok(stream) = TcpStream::connect(&server.addr) {
                let mut conn = Conn::new(stream)?;
                let pong = conn.call("{\"op\":\"ping\"}")?;
                if pong != proto::PONG {
                    return Err(format!("ping answered {pong}"));
                }
                return Ok((server, t0.elapsed().as_secs_f64()));
            }
            if t0.elapsed() > START_TIMEOUT {
                return Err("msgc serve did not start listening".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// The admin snapshot's metrics, by name.
    fn snapshot(&self) -> Result<HashMap<String, Json>, String> {
        let stream = TcpStream::connect(&self.addr).map_err(|e| e.to_string())?;
        let line = Conn::new(stream)?.call("{\"op\":\"admin\",\"cmd\":\"snapshot\"}")?;
        let doc = parse(&line).map_err(|e| format!("admin snapshot: {e}"))?;
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_arr)
            .ok_or("admin snapshot without metrics")?;
        Ok(metrics
            .iter()
            .filter_map(|m| Some((m.get("name")?.as_str()?.to_string(), m.clone())))
            .collect())
    }

    /// Seconds the server reported for building the ANN index.
    fn ann_build_s(&self) -> f64 {
        let lines = self.stdout.lock().map(|l| l.clone()).unwrap_or_default();
        lines
            .iter()
            .find_map(|l| {
                let rest = l.strip_prefix("built ANN index over ")?;
                let dur = rest.split(" in ").nth(1)?.split_whitespace().next()?;
                parse_duration_s(dur)
            })
            .unwrap_or(0.0)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

/// A `Duration` as Rust's `{:?}` prints it (`4.9s`, `812.3ms`, `15µs`).
fn parse_duration_s(s: &str) -> Option<f64> {
    let split = s.find(|c: char| !(c.is_ascii_digit() || c == '.'))?;
    let (v, unit) = s.split_at(split);
    let v: f64 = v.parse().ok()?;
    let scale = match unit {
        "s" => 1.0,
        "ms" => 1e-3,
        "µs" | "us" => 1e-6,
        "ns" => 1e-9,
        _ => return None,
    };
    Some(v * scale)
}

/// One client connection: a line out, a line back.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    fn new(stream: TcpStream) -> Result<Conn, String> {
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            writer: stream,
            reader,
            line: String::new(),
        })
    }

    /// Sends `req` (one write, newline included) and reads one reply line.
    fn call(&mut self, req: &str) -> Result<String, String> {
        let mut out = String::with_capacity(req.len() + 1);
        out.push_str(req);
        out.push('\n');
        self.writer
            .write_all(out.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(self.line.trim_end().to_string()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// A request and what the client saw of it.
struct Sent {
    user: u64,
    line: String,
    rtt_ms: f64,
    /// Completion time, seconds since the load started.
    done_s: f64,
    reply: Option<Response>,
}

/// The `i`-th request of connection `c`: a random owned user and a random
/// non-empty prefix of their sequence.
struct Requests<'a> {
    data: &'a Dataset,
    rng: Rng,
    c: usize,
}

impl Requests<'_> {
    fn next(&mut self) -> (u64, Vec<ItemId>) {
        let owned = self.data.sequences.len().div_ceil(CONNECTIONS);
        loop {
            let u = self.rng.range(0, owned) * CONNECTIONS + self.c;
            if let Some(seq) = self.data.sequences.get(u).filter(|s| !s.is_empty()) {
                let len = self.rng.range(1, seq.len() + 1);
                return (u as u64, seq[..len].to_vec());
            }
        }
    }
}

fn request_line(user: u64, history: &[ItemId]) -> String {
    let items: Vec<String> = history.iter().map(ToString::to_string).collect();
    format!(
        "{{\"op\":\"score\",\"user\":{user},\"history\":[{}],\"k\":{K}}}",
        items.join(",")
    )
}

/// A reply is well formed: it echoes the user and holds `K` distinct
/// catalog items with finite, non-increasing scores.
fn well_formed(r: &Response, user: u64, num_items: usize) -> bool {
    let distinct: HashSet<_> = r.items.iter().collect();
    r.user == user
        && r.items.len() == K
        && r.scores.len() == K
        && distinct.len() == K
        && r.items.iter().all(|&i| (1..=num_items).contains(&i))
        && r.scores.iter().all(|s| s.is_finite())
        && r.scores.windows(2).all(|w| w[0] >= w[1])
}

/// Closed loop on connection `c` until `until`.
fn drive(
    addr: &str,
    data: &Dataset,
    seed: u64,
    c: usize,
    (origin, until): (Instant, Instant),
) -> Result<Vec<Sent>, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut conn = Conn::new(stream)?;
    let mut gen = Requests {
        data,
        rng: Rng::new(seed, 1 + c as u64),
        c,
    };
    let mut sent = Vec::new();
    while Instant::now() < until {
        let (user, history) = gen.next();
        let line = request_line(user, &history);
        let start = Instant::now();
        let reply = conn.call(&line);
        let rtt_ms = start.elapsed().as_secs_f64() * 1e3;
        let broken = reply.is_err();
        let reply = reply
            .ok()
            .and_then(|l| proto::parse_response(&l).ok())
            .filter(|r| well_formed(r, user, data.num_items));
        sent.push(Sent {
            user,
            line,
            rtt_ms,
            done_s: origin.elapsed().as_secs_f64(),
            reply,
        });
        if broken {
            break;
        }
    }
    Ok(sent)
}

/// Drives every connection for `secs`; returns what each sent.
fn load(addr: &str, data: &Dataset, seed: u64, secs: f64) -> Result<Vec<Vec<Sent>>, String> {
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(secs);
    let per_conn = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| s.spawn(move || drive(addr, data, seed, c, (start, until))))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "a client thread panicked".to_string())?
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    Ok(per_conn)
}

/// The offline exact top-k of the first [`CHECKED`] requests of each
/// connection, which served ANN replies are scored against. Those requests
/// are a pure function of the seed.
fn expected_top_k(frozen: &FrozenMetaSgcl, data: &Dataset, seed: u64) -> Vec<Vec<Vec<ItemId>>> {
    (0..CONNECTIONS)
        .map(|c| {
            let mut gen = Requests {
                data,
                rng: Rng::new(seed, 1 + c as u64),
                c,
            };
            (0..CHECKED)
                .map(|_| top_k(&frozen.score_padded(&gen.next().1), K).0)
                .collect()
        })
        .collect()
}

fn metric(snap: &HashMap<String, Json>, name: &str) -> f64 {
    match snap.get(name) {
        Some(m) if m.get("kind").and_then(Json::as_str) == Some("histogram") => {
            trace::num(m, "sum") / trace::num(m, "count").max(1.0)
        }
        Some(m) => trace::num(m, "value"),
        None => 0.0,
    }
}

/// Runs the workload.
pub fn run(msgc: &str, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let work = WorkDir::new("serve-tcp").map_err(|e| e.to_string())?;
    let csv = work.join("data.csv");
    let data = make_data(seed, &csv)?;
    let model = msgc_model(&data);
    let ckpt = work.join("model.msgc");
    model
        .save(&ckpt)
        .map_err(|e| format!("{}: {e}", ckpt.display()))?;
    let expected = expected_top_k(&model.freeze(), &data, seed);

    // Each start gets a fresh directory holding only the checkpoint, so no
    // saved index sidecar exists and the server builds its HNSW index.
    let mut starts = 0usize;
    let mut start = |trace_out: Option<&Path>| -> Result<(Server, f64), String> {
        starts += 1;
        let dir = work.join(&format!("start-{starts}"));
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let model = dir.join("model.msgc");
        std::fs::copy(&ckpt, &model).map_err(|e| e.to_string())?;
        let mut args: Vec<String> = vec![
            "--data".into(),
            csv.display().to_string(),
            "--model".into(),
            model.display().to_string(),
        ];
        args.extend(SERVER_FLAGS.iter().map(|s| s.to_string()));
        if let Some(t) = trace_out {
            args.extend([
                "--trace-out".into(),
                t.display().to_string(),
                "--trace-sample".into(),
                "1".into(),
            ]);
        }
        Server::start(msgc, &args)
    };

    let base_secs = if traced { seconds / 2.0 } else { seconds };
    let mut setup_s = Vec::new();
    let mut server = None;
    for _ in 0..if traced { 1 } else { SETUPS } {
        drop(server.take());
        let (s, secs) = start(None)?;
        setup_s.push(secs);
        server = Some(s);
    }
    let server = server.ok_or("no server started")?;
    let base = load(&server.addr, &data, seed, base_secs)?;
    let base_rss = peak_rss_mb(&server.child.id().to_string());
    drop(server);

    let all: Vec<&Sent> = base.iter().flatten().collect();
    let rtts: Vec<f64> = all.iter().map(|s| s.rtt_ms).collect();
    out.attempted += all.len() as u64;
    out.failed += all.iter().filter(|s| s.reply.is_none()).count() as u64;
    let t = block_tail(&rtts);
    out.set("tail_ms", t.value);

    // Recall of the checked requests (every run sends at least those on
    // each connection, or the run fails).
    let mut hits = 0usize;
    let mut checked = 0usize;
    for (sent, want) in base.iter().zip(&expected) {
        for (s, want) in sent.iter().zip(want) {
            if let Some(r) = &s.reply {
                hits += r.items.iter().filter(|i| want.contains(i)).count();
            }
            checked += 1;
        }
    }
    let quality = hits as f64 / (checked * K).max(1) as f64;
    if checked < CONNECTIONS * CHECKED {
        out.fail_check(format!(
            "only {checked} of {} checked requests were sent",
            CONNECTIONS * CHECKED
        ));
    }
    if quality < MIN_RECALL {
        out.fail_check(format!("ANN recall@{K} {quality:.4} below {MIN_RECALL}"));
    }
    out.note(format!(
        "catalog {} items, {} users; recall@{K} over {checked} requests {quality:.4}",
        data.num_items,
        data.sequences.len()
    ));

    if traced {
        let trace_path = work.join("trace.jsonl");
        let (server, _) = start(Some(&trace_path))?;
        let obs = load(&server.addr, &data, seed, seconds / 2.0)?;
        let snap = server.snapshot()?;
        let build_s = server.ann_build_s();
        drop(server);
        let sent: Vec<&Sent> = obs.iter().flatten().collect();
        out.attempted += sent.len() as u64;
        out.failed += sent.iter().filter(|s| s.reply.is_none()).count() as u64;
        let events =
            trace::read(&trace_path).map_err(|e| format!("{}: {e}", trace_path.display()))?;
        // Join each client round trip with the server's `req` event for
        // the same user and occurrence (one connection owns each user, so
        // a user's requests are sequential on both sides).
        let mut by_user: HashMap<u64, Vec<&Json>> = HashMap::new();
        for ev in &events.reqs {
            by_user
                .entry(trace::num(ev, "user") as u64)
                .or_default()
                .push(ev);
        }
        let mut seen: HashMap<u64, usize> = HashMap::new();
        let (mut outside, mut phases, mut rtt_sum) = (Vec::new(), 0.0, 0.0);
        let mut cols: HashMap<&str, Vec<f64>> = HashMap::new();
        for s in &sent {
            let k = seen.entry(s.user).or_default();
            let Some(ev) = by_user.get(&s.user).and_then(|v| v.get(*k)) else {
                continue;
            };
            *k += 1;
            let ns = |key: &str| trace::num(ev, key) / 1e6;
            outside.push(s.rtt_ms - ns("total_ns"));
            let inside =
                ns("enqueue_ns") + ns("forward_ns") + ns("retrieve_ns") + ns("serialize_ns");
            phases += inside + s.rtt_ms - ns("total_ns");
            rtt_sum += s.rtt_ms;
            for key in ["enqueue_ns", "assemble_ns", "forward_ns", "serialize_ns"] {
                cols.entry(key).or_default().push(ns(key) * 1e3);
            }
            let retrieve = if ev.get("ann").and_then(Json::as_bool) == Some(true) {
                "ann"
            } else {
                "exact"
            };
            cols.entry(retrieve)
                .or_default()
                .push(ns("retrieve_ns") * 1e3);
        }
        let col = |key: &str| mean(cols.get(key).map_or(&[][..], Vec::as_slice));
        out.set("net.outside_server_ms", mean(&outside));
        out.set("net.span_coverage", phases / rtt_sum.max(f64::MIN_POSITIVE));
        out.set("proto.serialize_us", col("serialize_ns"));
        out.set("batcher.enqueue_us", col("enqueue_ns"));
        out.set("batcher.assemble_us", col("assemble_ns"));
        out.set("engine.forward_us", col("forward_ns"));
        out.set("ann.search_us", col("ann"));
        out.set("engine.retrieve_us", col("exact"));
        out.set("batcher.batch_size", metric(&snap, "serve.batch.size"));
        out.set("ann.fallback", metric(&snap, "serve.ann.fallback"));
        out.set("ann.build_s", build_s);
        let (ph, pm) = (
            metric(&snap, "tensor.pool.hit"),
            metric(&snap, "tensor.pool.miss"),
        );
        out.set("tensor.pool.hit_ratio", ph / (ph + pm).max(1.0));
        let users: HashSet<u64> = sent.iter().map(|s| s.user).collect();
        out.set("engine.sessions", users.len() as f64);
        // The request parser, timed in process on the lines just sent.
        let lines: Vec<&str> = sent.iter().map(|s| s.line.as_str()).collect();
        let t = Instant::now();
        let mut parsed = 0usize;
        while parsed < 20_000 {
            for l in &lines {
                std::hint::black_box(proto::parse_request(l).is_ok());
            }
            parsed += lines.len().max(1);
        }
        out.set(
            "proto.parse_us",
            t.elapsed().as_secs_f64() * 1e6 / parsed as f64,
        );
        let traced_rtts: Vec<f64> = sent.iter().map(|s| s.rtt_ms).collect();
        let (p0, p1) = (median(&rtts), median(&traced_rtts));
        let rate = |s: &[&Sent]| windowed_rate(&s.iter().map(|x| x.done_s).collect::<Vec<_>>());
        let (t0, t1) = (rate(&all), rate(&sent));
        out.set("trace.p50_delta_frac", (p1 - p0) / p0);
        out.set("trace.throughput_delta_frac", (t1 - t0) / t0);
        out.note(format!(
            "joined {} of {} traced requests with server events; spans cover {:.4} of the round trip",
            outside.len(),
            sent.len(),
            out.metrics["net.span_coverage"]
        ));
    } else {
        out.set("setup_s", median(&setup_s));
        out.set(
            "throughput_per_s",
            windowed_rate(&all.iter().map(|s| s.done_s).collect::<Vec<_>>()),
        );
        out.set("p50_ms", median(&rtts));
        out.set("peak_rss_mb", base_rss.unwrap_or(0.0));
        out.set("quality", quality);
        out.note(format!(
            "requests {}, tail {:.3} ms = p{:.3} of n={} (median block); set-ups {:?} s",
            rtts.len(),
            t.value,
            t.percentile,
            t.n,
            setup_s
        ));
    }
    Ok(out)
}

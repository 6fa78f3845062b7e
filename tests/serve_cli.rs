//! The `msgc` binary end to end: train a checkpoint, serve it over TCP
//! with the ANN index, tracing and the recall canary on, and check what a
//! client and an operator see.
//!
//! * served top-k (items and scores) is bitwise equal to offline
//!   `score_sequence` for score and append requests;
//! * served `"topk":"ann"` recall@10 against the offline exact top-k is at
//!   least 0.95;
//! * the admin snapshot validates and health is `pass`;
//! * `msgc top` renders, and after the server stops the trace stream
//!   validates, holds request events, and `msgc report` summarizes it;
//! * `--quantize` is an unknown flag: weights are served in f32 only;
//! * `--mode incremental` answers score and append requests bitwise equal
//!   to offline `score_left_aligned`, and a restart loads the saved ANN
//!   index instead of building it again.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};

use meta_sgcl_repro::models::NetConfig;
use meta_sgcl_repro::recdata::{synth, Dataset};
use meta_sgcl_repro::serve::{proto, top_k};
use meta_sgcl_repro::telemetry::schema;
use meta_sgcl_repro::{MetaSgcl, MetaSgclConfig};

const MSGC: &str = env!("CARGO_BIN_EXE_msgc");
const DATA: &str = "synth:toys:42";
const USERS: usize = 20;
const K: usize = 10;

fn msgc(args: &[&str]) {
    let status = Command::new(MSGC)
        .args(args)
        .stdout(Stdio::null())
        .status()
        .expect("run msgc");
    assert!(status.success(), "msgc {args:?} exited with {status}");
}

/// A running `msgc serve`, killed when dropped.
struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    /// Lines printed before the `serving … on ADDR` line.
    startup: Vec<String>,
    addr: String,
}

impl Server {
    /// Starts the server on a port the OS picks and reads its address from
    /// the `serving … on ADDR` line.
    fn start(model: &Path, extra: &[&str]) -> Server {
        let mut child = Command::new(MSGC)
            .args(["serve", "--data", DATA, "--dim", "16", "--max-len", "10"])
            .args(["--addr", "127.0.0.1:0", "--model"])
            .arg(model)
            .args(extra)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn msgc serve");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut server = Server {
            child,
            stdout,
            startup: Vec::new(),
            addr: String::new(),
        };
        loop {
            let mut line = String::new();
            let n = server.stdout.read_line(&mut line).expect("read stdout");
            assert!(
                n > 0,
                "msgc serve exited during start-up: {:?}",
                server.startup
            );
            if let Some(addr) = line
                .strip_prefix("serving ")
                .and_then(|rest| rest.split(" on ").nth(1))
                .and_then(|rest| rest.split_whitespace().next())
            {
                server.addr = addr.to_string();
                return server;
            }
            server.startup.push(line);
        }
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to msgc serve");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
        }
    }

    fn call(&mut self, line: &str) -> String {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("recv");
        reply.trim_end().to_string()
    }
}

fn score_line(user: usize, history: &[usize], topk: &str) -> String {
    let items: Vec<String> = history.iter().map(usize::to_string).collect();
    format!(
        r#"{{"op":"score","user":{user},"history":[{}],"k":{K}{topk}}}"#,
        items.join(",")
    )
}

/// Trains a dim-16 toys checkpoint into a fresh temporary directory named
/// after `tag`, and loads it offline. Returns the directory, the
/// checkpoint path, the offline model and the dataset.
fn trained(tag: &str) -> (std::path::PathBuf, std::path::PathBuf, MetaSgcl, Dataset) {
    let dir = std::env::temp_dir().join(format!("msgc_serve_cli_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let model_path = dir.join("model.msgc");
    msgc(&[
        "train",
        "--data",
        DATA,
        "--epochs",
        "2",
        "--dim",
        "16",
        "--max-len",
        "10",
        "--out",
        model_path.to_str().expect("utf-8 path"),
    ]);
    let data = synth::generate(&synth::SynthConfig::toys_like(42));
    let mut model = MetaSgcl::new(MetaSgclConfig {
        net: NetConfig {
            dim: 16,
            max_len: 10,
            ..NetConfig::for_items(data.num_items)
        },
        ..MetaSgclConfig::for_items(data.num_items)
    });
    model.load(&model_path).expect("load checkpoint");
    (dir, model_path, model, data)
}

/// The first `USERS` users with at least two interactions.
fn users(data: &Dataset) -> Vec<(usize, &Vec<usize>)> {
    let users: Vec<(usize, &Vec<usize>)> = data
        .sequences
        .iter()
        .enumerate()
        .filter(|(_, seq)| seq.len() >= 2)
        .take(USERS)
        .collect();
    assert_eq!(users.len(), USERS);
    users
}

fn append_line(user: usize, item: usize) -> String {
    format!(r#"{{"op":"append","user":{user},"item":{item},"k":{K}}}"#)
}

#[test]
fn served_answers_match_offline_and_observability_holds() {
    let (dir, model_path, model, data) = trained("full");
    let trace_path = dir.join("trace.jsonl");
    let model_arg = model_path.to_str().expect("utf-8 path");
    let trace_arg = trace_path.to_str().expect("utf-8 path");
    let users = users(&data);

    let mut server = Server::start(
        &model_path,
        &[
            "--ann",
            "--trace-out",
            trace_arg,
            "--trace-sample",
            "4",
            "--min-recall",
            "0.8",
            "--canary-every-s",
            "5",
        ],
    );
    let mut c = Client::connect(&server.addr);
    assert_eq!(c.call(r#"{"op":"ping"}"#), proto::PONG);

    // Exact serving is bitwise equal to offline scoring: the history, then
    // the held-out item appended to the user's session.
    for &(u, seq) in &users {
        let (last, prefix) = seq.split_last().expect("len >= 2");
        let served = proto::parse_response(&c.call(&score_line(u, prefix, ""))).expect("reply");
        let (items, scores) = top_k(&model.score_sequence(prefix), K);
        assert_eq!(
            (served.items, served.scores),
            (items, scores),
            "user {u} score"
        );

        let served = proto::parse_response(&c.call(&append_line(u, *last))).expect("reply");
        let (items, scores) = top_k(&model.score_sequence(seq), K);
        assert_eq!(
            (served.items, served.scores),
            (items, scores),
            "user {u} append"
        );
    }

    // ANN retrieval is recall-gated against the offline exact top-k.
    let (mut hits, mut total) = (0, 0);
    for &(u, seq) in &users {
        let prefix = &seq[..seq.len() - 1];
        let line = score_line(u, prefix, r#","topk":"ann""#);
        let served = proto::parse_response(&c.call(&line)).expect("ann reply");
        assert!(!served.items.contains(&0), "user {u}: padding id ranked");
        let (want, _) = top_k(&model.score_sequence(prefix), K);
        total += want.len();
        hits += want.iter().filter(|i| served.items.contains(i)).count();
    }
    let recall = hits as f64 / total as f64;
    assert!(recall >= 0.95, "served ANN recall@{K} {recall:.4} < 0.95");

    let snapshot = c.call(r#"{"op":"admin","cmd":"snapshot"}"#);
    schema::validate_admin_snapshot(&snapshot).expect("admin snapshot schema");
    let health = c.call(r#"{"op":"admin","cmd":"health"}"#);
    assert!(health.contains(r#""status":"pass""#), "degraded: {health}");
    msgc(&["top", &server.addr, "--iters", "2", "--interval-ms", "200"]);

    // The server is killed, so only what the tracer has flushed, in 8 KiB
    // blocks of whole lines, reaches the file: fill several blocks.
    for &(u, seq) in users.iter().cycle().take(100) {
        assert!(c.call(&score_line(u, seq, "")).contains(r#""items""#));
    }
    server.stop();
    let trace = std::fs::read_to_string(&trace_path).expect("trace file");
    schema::validate_stream(&trace).expect("trace stream schema");
    assert!(
        trace.contains(r#""ev":"req""#),
        "no sampled requests in trace"
    );
    msgc(&["report", trace_arg, "--trace", trace_arg]);

    // Weights are served in f32 only: `--quantize` is an unknown flag.
    let out = Command::new(MSGC)
        .args(["serve", "--data", DATA, "--model", model_arg])
        .args(["--quantize", "bf16"])
        .output()
        .expect("run msgc serve --quantize");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("unknown flag --quantize"),
        "stderr: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn incremental_serving_matches_left_aligned_and_reloads_the_index() {
    let (dir, model_path, model, data) = trained("incremental");
    let users = users(&data);
    let args = ["--mode", "incremental", "--ann"];
    let mut server = Server::start(&model_path, &args);
    let built = server
        .startup
        .iter()
        .any(|l| l.starts_with("built ANN index"));
    assert!(built, "first start: {:?}", server.startup);

    // Every reply is bitwise the offline left-aligned top-k: the history
    // opens a session, then appends extend it (sliding past the window).
    let mut c = Client::connect(&server.addr);
    for &(u, seq) in &users {
        let (last, prefix) = seq.split_last().expect("len >= 2");
        let served = proto::parse_response(&c.call(&score_line(u, prefix, ""))).expect("reply");
        let want = top_k(&model.score_left_aligned(prefix), K);
        assert_eq!((served.items, served.scores), want, "user {u} score");
        let mut history = prefix.to_vec();
        for item in [*last, prefix[0], *last] {
            history.push(item);
            let served = proto::parse_response(&c.call(&append_line(u, item))).expect("reply");
            let want = top_k(&model.score_left_aligned(&history), K);
            assert_eq!((served.items, served.scores), want, "user {u} append");
        }
    }
    server.stop();

    // A restart on the same checkpoint loads the index the first saved.
    let server = Server::start(&model_path, &args);
    let loaded = server
        .startup
        .iter()
        .any(|l| l.starts_with("loaded ANN index from"));
    let built = server
        .startup
        .iter()
        .any(|l| l.starts_with("built ANN index"));
    assert!(loaded && !built, "restart: {:?}", server.startup);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

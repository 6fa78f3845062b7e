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
//! * a `--quantize bf16` start passes its load-time gate.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};

use meta_sgcl_repro::models::NetConfig;
use meta_sgcl_repro::recdata::synth;
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

#[test]
fn served_answers_match_offline_and_observability_holds() {
    let dir = std::env::temp_dir().join(format!("msgc_serve_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let model_path = dir.join("model.msgc");
    let trace_path = dir.join("trace.jsonl");
    let model_arg = model_path.to_str().expect("utf-8 path");
    let trace_arg = trace_path.to_str().expect("utf-8 path");
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
        model_arg,
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
    let users: Vec<(usize, &Vec<usize>)> = data
        .sequences
        .iter()
        .enumerate()
        .filter(|(_, seq)| seq.len() >= 2)
        .take(USERS)
        .collect();
    assert_eq!(users.len(), USERS);

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

        let append = format!(r#"{{"op":"append","user":{u},"item":{last},"k":{K}}}"#);
        let served = proto::parse_response(&c.call(&append)).expect("reply");
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

    // A quantized start prints its gate report before serving.
    let bf16 = Server::start(&model_path, &["--quantize", "bf16"]);
    assert!(
        bf16.startup
            .iter()
            .any(|l| l.starts_with("quantize bf16: ")),
        "no bf16 gate report in {:?}",
        bf16.startup
    );
    drop(bf16);
    let _ = std::fs::remove_dir_all(&dir);
}

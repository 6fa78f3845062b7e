//! End-to-end observability: a live TCP server with a [`ServeObs`]
//! attached — every request metered, 1-in-1 trace sampling, and the
//! read-only `"admin"` endpoint answering snapshot / health / prom
//! queries that validate against the telemetry schemas.
#![allow(clippy::expect_used)]

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use meta_sgcl::{MetaSgcl, MetaSgclConfig};
use models::NetConfig;
use serve::{server, Batcher, Engine, Mode, ObsConfig, ServeObs, SloBudgets};
use telemetry::trace::Tracer;

fn model() -> MetaSgcl {
    MetaSgcl::new(MetaSgclConfig {
        net: NetConfig {
            max_len: 6,
            dim: 8,
            layers: 1,
            ..NetConfig::for_items(12)
        },
        ..MetaSgclConfig::for_items(12)
    })
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    fn roundtrip(&mut self, line: &str) -> String {
        self.writer.write_all(line.as_bytes()).expect("write");
        self.writer.write_all(b"\n").expect("write");
        self.writer.flush().expect("flush");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read");
        reply.trim_end().to_string()
    }
}

fn start_server(obs: Arc<ServeObs>) -> std::net::SocketAddr {
    let engine = Arc::new(Engine::new(model(), Mode::Incremental));
    let batcher = Arc::new(Batcher::new(engine, 8, Duration::from_millis(0)));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::spawn(move || {
        let _ = server::run(listener, batcher, obs);
    });
    addr
}

#[test]
fn admin_endpoint_serves_valid_snapshots_and_traces_flow() {
    telemetry::set_enabled(true);
    let dir = std::env::temp_dir().join(format!("obs_admin_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let trace_path = dir.join("trace.jsonl");
    let tracer = Arc::new(Tracer::to_file(&trace_path).expect("tracer"));

    let obs = ServeObs::new(ObsConfig {
        tracer: Some(Arc::clone(&tracer)),
        sample_every: 1, // trace every request
        budgets: SloBudgets {
            min_hit_rate: Some(0.01),
            // 1 of the 4 smoke requests below prefers ANN on an engine
            // with no index (a deliberate fallback); don't let that 25%
            // trip the health check.
            max_fallback_rate: 0.5,
            ..SloBudgets::default()
        },
        ..ObsConfig::default()
    });
    let addr = start_server(Arc::clone(&obs));

    let mut c = Client::connect(addr);
    assert_eq!(c.roundtrip(r#"{"op":"ping"}"#), r#"{"ok":true}"#);
    // Traffic across the paths: cold start, miss, fast append, fallback.
    for line in [
        r#"{"op":"score","user":1,"history":[],"k":3}"#,
        r#"{"op":"score","user":1,"history":[1,2],"k":3}"#,
        r#"{"op":"append","user":1,"item":3,"k":3}"#,
        r#"{"op":"append","user":1,"item":4,"k":3,"topk":"ann"}"#,
    ] {
        let reply = c.roundtrip(line);
        assert!(reply.contains("\"items\""), "unexpected reply {reply}");
    }

    // Snapshot: schema-valid, name-sorted, and carrying our traffic.
    let snap = c.roundtrip(r#"{"op":"admin","cmd":"snapshot"}"#);
    let (n_metrics, n_slos) =
        telemetry::schema::validate_admin_snapshot(&snap).expect("snapshot schema");
    assert!(n_metrics >= 5, "only {n_metrics} metrics in snapshot");
    assert!(n_slos >= 4, "only {n_slos} SLO states in snapshot");
    assert!(
        snap.contains("\"serve.latency_us\""),
        "latency sketch missing"
    );
    assert!(snap.contains("\"p99_latency_ms\""), "p99 SLO missing");

    // `"cmd"` defaults to snapshot.
    let default = c.roundtrip(r#"{"op":"admin"}"#);
    telemetry::schema::validate_admin_snapshot(&default).expect("default cmd");

    // Health: a light smoke load must not be degraded.
    let health = c.roundtrip(r#"{"op":"admin","cmd":"health"}"#);
    assert!(
        health.contains("\"status\":\"pass\""),
        "unhealthy under smoke load: {health}"
    );

    // Prom: one JSON line wrapping the text exposition.
    let prom = c.roundtrip(r#"{"op":"admin","cmd":"prom"}"#);
    assert!(prom.contains("\"kind\":\"prom\""));
    assert!(
        prom.contains("serve_requests_total"),
        "no counter in {prom}"
    );

    // Unknown command errors without killing the connection.
    let bad = c.roundtrip(r#"{"op":"admin","cmd":"nope"}"#);
    assert!(bad.contains("\"error\""));
    assert_eq!(c.roundtrip(r#"{"op":"ping"}"#), r#"{"ok":true}"#);

    // Every trace line must validate; the stream must contain the span
    // tree (request + phases) and the flat `req` events.
    obs.flush();
    let trace = std::fs::read_to_string(&trace_path).expect("trace file");
    let mut kinds: Vec<String> = Vec::new();
    for line in trace.lines().filter(|l| !l.trim().is_empty()) {
        kinds.push(telemetry::schema::validate_line(line).unwrap_or_else(|e| {
            panic!("invalid trace line: {e}\n  {line}");
        }));
    }
    assert!(kinds.iter().any(|k| k == "req"), "no req events in trace");
    assert!(kinds.iter().any(|k| k == "span"), "no spans in trace");
    for phase in [
        "\"enqueue\"",
        "\"forward\"",
        "\"retrieve\"",
        "\"serialize\"",
    ] {
        assert!(trace.contains(phase), "missing {phase} span");
    }
    let reqs = trace
        .lines()
        .filter(|l| l.contains("\"ev\":\"req\""))
        .count();
    assert_eq!(reqs, 4, "one req event per scored request");

    let _ = std::fs::remove_dir_all(&dir);
}

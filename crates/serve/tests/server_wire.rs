//! Wire-level server behaviour over real loopback sockets: reply latency
//! for an ordinary client, and request validation at the boundary (a bad
//! item id or an over-long line gets an error line, and the server keeps
//! serving).
#![allow(clippy::expect_used)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use meta_sgcl::{MetaSgcl, MetaSgclConfig};
use models::NetConfig;
use serve::{proto, server, top_k, Batcher, Engine, Mode, ObsConfig, ServeObs};

const CATALOG: usize = 50;

fn model() -> MetaSgcl {
    MetaSgcl::new(MetaSgclConfig {
        net: NetConfig {
            max_len: 6,
            dim: 8,
            layers: 1,
            ..NetConfig::for_items(CATALOG)
        },
        ..MetaSgclConfig::for_items(CATALOG)
    })
}

/// Serves `m` on a free loopback port; the engine is returned so a test
/// can score offline on the served weights.
fn start_server(m: MetaSgcl) -> (SocketAddr, Arc<Engine<MetaSgcl>>) {
    let engine = Arc::new(Engine::new(m, Mode::Full));
    let batcher = Arc::new(Batcher::new(
        Arc::clone(&engine),
        8,
        Duration::from_millis(0),
    ));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::spawn(move || {
        let _ = server::run(listener, batcher, ServeObs::new(ObsConfig::default()));
    });
    (addr, engine)
}

/// An ordinary client: default socket options, one `write` per request.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    fn roundtrip(&mut self, line: &str) -> String {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("write");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read");
        reply.trim_end().to_string()
    }
}

#[test]
fn ordinary_client_round_trips_do_not_stall() {
    let (addr, _) = start_server(model());
    let mut c = Client::connect(addr);
    // Warm the session and the kernels before timing.
    c.roundtrip(r#"{"op":"score","user":1,"history":[1,2,3],"k":5}"#);
    let start = Instant::now();
    for i in 0..50 {
        let reply = c.roundtrip(&format!(
            r#"{{"op":"score","user":1,"history":[1,2,{}],"k":5}}"#,
            1 + i % CATALOG
        ));
        assert!(reply.contains("\"items\""), "unexpected reply {reply}");
    }
    // A reply split across two sends stalls each round trip on Nagle +
    // delayed ACK (~40 ms), i.e. ≥ 2 s for 50; unstalled it is milliseconds.
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "50 round trips took {elapsed:?}"
    );
}

#[test]
fn out_of_range_item_is_an_error_and_the_server_keeps_serving() {
    let (addr, engine) = start_server(model());
    let mut c = Client::connect(addr);
    for bad in [
        r#"{"op":"score","user":1,"history":[3,999],"k":5}"#.to_string(),
        r#"{"op":"score","user":1,"history":[0,3],"k":5}"#.to_string(),
        format!(r#"{{"op":"append","user":1,"item":{},"k":5}}"#, CATALOG + 1),
    ] {
        let reply = c.roundtrip(&bad);
        assert!(reply.starts_with("{\"error\":"), "{bad} → {reply}");
        assert!(proto::parse_response(&reply).is_err());
    }
    // The same server still answers, bitwise equal to offline scoring.
    let history = [3usize, 7, CATALOG];
    let reply = c.roundtrip(r#"{"op":"score","user":2,"history":[3,7,50],"k":5}"#);
    let got = proto::parse_response(&reply).expect("valid reply");
    let (want_items, want_scores) = top_k(&engine.model().score_sequence(&history), 5);
    assert_eq!(got.items, want_items);
    assert_eq!(got.scores, want_scores);
}

#[test]
fn over_long_line_is_an_error_and_other_clients_keep_serving() {
    let (addr, engine) = start_server(model());
    let mut c = Client::connect(addr);
    // A server that buffers without limit never replies: fail, not hang.
    c.writer
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    // 2 MiB with no newline, written from its own thread: the server stops
    // reading at the cap, so the reply can arrive before the write ends.
    let mut flood = c.writer.try_clone().expect("clone");
    let writer = std::thread::spawn(move || {
        let _ = flood.write_all(&vec![b'['; 2 << 20]);
    });
    let mut reply = String::new();
    c.reader.read_line(&mut reply).expect("read");
    assert_eq!(
        reply.trim_end(),
        format!(
            r#"{{"error":"request line exceeds {} bytes"}}"#,
            server::MAX_LINE_BYTES
        )
    );
    let mut rest = Vec::new();
    c.reader.read_to_end(&mut rest).expect("read to EOF");
    assert!(rest.is_empty(), "bytes after the error reply");
    writer.join().expect("writer thread");

    // Another client still gets a top-k bitwise equal to offline scoring.
    let mut other = Client::connect(addr);
    let reply = other.roundtrip(r#"{"op":"score","user":3,"history":[4,9,2],"k":5}"#);
    let got = proto::parse_response(&reply).expect("valid reply");
    let (want_items, want_scores) = top_k(&engine.model().score_sequence(&[4, 9, 2]), 5);
    assert_eq!(got.items, want_items);
    assert_eq!(got.scores, want_scores);
}

//! TCP front end: line-delimited JSON over per-connection threads, all
//! funneled through one [`Batcher`] so concurrent connections share
//! batches. Every request is metered through a [`ServeObs`] (latency
//! sketch, SLO windows) and a deterministic 1-in-N sample carries a full
//! phase trace; `"admin"` requests are answered directly from the
//! observer without entering the batcher.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Instant;

use crate::batcher::Batcher;
use crate::engine::{FrozenScorer, Request};
use crate::obs::{ReqCtx, ServeObs};
use crate::proto::{format_error, format_response, parse_request, AdminCmd, Incoming, PONG};

/// Longest request line the server buffers, newline excluded. A valid
/// request is far shorter; the cap keeps one client that never sends a
/// newline from growing server memory without limit.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Accepts connections forever, one thread per connection. Every request
/// feeds `obs` (latency sketch, SLO windows), sampled requests emit trace
/// spans, and `"admin"` queries return live snapshots.
///
/// Returns only when the listener errors (e.g. the socket is closed).
pub fn run<M: FrozenScorer>(
    listener: TcpListener,
    batcher: Arc<Batcher<M>>,
    obs: Arc<ServeObs>,
) -> std::io::Result<()> {
    for stream in listener.incoming() {
        let stream = stream?;
        let batcher = Arc::clone(&batcher);
        let obs = Arc::clone(&obs);
        std::thread::spawn(move || {
            // A dropped connection mid-request is the client's problem.
            let _ = handle_connection(stream, &batcher, &obs);
        });
    }
    Ok(())
}

fn admin_reply(obs: &ServeObs, cmd: AdminCmd) -> String {
    match cmd {
        AdminCmd::Snapshot => obs.snapshot_json(),
        AdminCmd::Health => obs.health_json(),
        AdminCmd::Prom => obs.prom_json(),
    }
}

/// Scores one validated request through the batcher, metering it, and
/// returns the reply line (no newline). This is the whole per-request path
/// of [`run`] after parsing, so `bench --bin gates` times it directly.
pub fn score_reply<M: FrozenScorer>(batcher: &Batcher<M>, obs: &ServeObs, req: Request) -> String {
    let id = obs.next_id();
    let sampled = obs.sampled(id);
    let (op, user) = match &req {
        Request::Score { user, .. } => ("score", *user),
        Request::Append { user, .. } => ("append", *user),
    };
    let start = Instant::now();
    let (resp, report) = batcher.submit_obs(req, sampled);
    let ser_start = Instant::now();
    let text = format_response(&resp);
    let serialize_ns = ser_start.elapsed().as_nanos() as u64;
    obs.complete(&ReqCtx {
        id,
        op,
        user,
        sampled,
        total_ns: start.elapsed().as_nanos() as u64,
        enqueue_ns: report.enqueue_ns,
        assemble_ns: report.assemble_ns,
        serialize_ns,
        obs: report.obs,
    });
    text
}

fn reply_to<M: FrozenScorer>(line: &[u8], batcher: &Batcher<M>, obs: &ServeObs) -> Option<String> {
    let Ok(line) = std::str::from_utf8(line) else {
        return Some(format_error("request line is not UTF-8"));
    };
    let line = line.trim();
    if line.is_empty() {
        return None;
    }
    Some(match parse_request(line) {
        Ok(Incoming::Ping) => PONG.to_string(),
        Ok(Incoming::Admin(cmd)) => admin_reply(obs, cmd),
        Ok(Incoming::Req(req)) => match req.check_items(batcher.num_items()) {
            Ok(()) => score_reply(batcher, obs, req),
            Err(e) => format_error(&e),
        },
        Err(e) => format_error(&e),
    })
}

fn handle_connection<M: FrozenScorer>(
    stream: TcpStream,
    batcher: &Batcher<M>,
    obs: &ServeObs,
) -> std::io::Result<()> {
    // Replies are small and the client waits for each one: send them
    // immediately instead of letting Nagle hold them for an ACK.
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut line = Vec::new();
    let mut out = Vec::new();
    let cap = MAX_LINE_BYTES as u64 + 1;
    loop {
        line.clear();
        if (&mut reader).take(cap).read_until(b'\n', &mut line)? == 0 {
            return Ok(());
        }
        if line.len() > MAX_LINE_BYTES && line.last() != Some(&b'\n') {
            let err = format_error(&format!("request line exceeds {MAX_LINE_BYTES} bytes"));
            writer.write_all(format!("{err}\n").as_bytes())?;
            // Half-close, then discard a bounded tail: closing with unread
            // input would reset the connection and could drop the reply.
            writer.shutdown(Shutdown::Write)?;
            std::io::copy(&mut reader.take(cap), &mut std::io::sink())?;
            return Ok(());
        }
        let Some(reply) = reply_to(&line, batcher, obs) else {
            continue;
        };
        // One send per reply line: a reply and its newline written
        // separately would leave a lone byte for Nagle + delayed ACK.
        out.clear();
        out.extend_from_slice(reply.as_bytes());
        out.push(b'\n');
        writer.write_all(&out)?;
    }
}

//! TCP front end: line-delimited JSON over per-connection threads, all
//! funneled through one [`Batcher`] so concurrent connections share
//! batches. With a [`ServeObs`] attached ([`run_obs`]), every request is
//! metered (latency sketch, SLO windows) and a deterministic 1-in-N
//! sample carries a full phase trace; `"admin"` requests are answered
//! directly from the observer without entering the batcher.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Instant;

use crate::batcher::Batcher;
use crate::engine::{FrozenScorer, Request};
use crate::obs::{ReqCtx, ServeObs};
use crate::proto::{format_error, format_response, parse_request, AdminCmd, Incoming, PONG};

/// Accepts connections forever, one thread per connection.
///
/// Returns only when the listener errors (e.g. the socket is closed).
pub fn run<M: FrozenScorer>(
    listener: TcpListener,
    batcher: Arc<Batcher<M>>,
) -> std::io::Result<()> {
    run_obs(listener, batcher, None)
}

/// [`run`] with request observability: when `obs` is present, every
/// request feeds the latency sketch and SLO windows, sampled requests
/// emit trace spans, and `"admin"` queries return live snapshots.
pub fn run_obs<M: FrozenScorer>(
    listener: TcpListener,
    batcher: Arc<Batcher<M>>,
    obs: Option<Arc<ServeObs>>,
) -> std::io::Result<()> {
    for stream in listener.incoming() {
        let stream = stream?;
        let batcher = Arc::clone(&batcher);
        let obs = obs.clone();
        std::thread::spawn(move || {
            // A dropped connection mid-request is the client's problem.
            let _ = handle_connection(stream, &batcher, obs.as_deref());
        });
    }
    Ok(())
}

fn admin_reply(obs: Option<&ServeObs>, cmd: AdminCmd) -> String {
    match obs {
        None => format_error("observability disabled (no admin endpoint)"),
        Some(obs) => match cmd {
            AdminCmd::Snapshot => obs.snapshot_json(),
            AdminCmd::Health => obs.health_json(),
            AdminCmd::Prom => obs.prom_json(),
        },
    }
}

/// Scores one validated request through the batcher, metering it when
/// `obs` is attached, and returns the reply line (no newline).
fn score_reply<M: FrozenScorer>(
    batcher: &Batcher<M>,
    obs: Option<&ServeObs>,
    req: Request,
) -> String {
    let Some(obs) = obs else {
        return format_response(&batcher.submit(req));
    };
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

fn handle_connection<M: FrozenScorer>(
    stream: TcpStream,
    batcher: &Batcher<M>,
    obs: Option<&ServeObs>,
) -> std::io::Result<()> {
    // Replies are small and the client waits for each one: send them
    // immediately instead of letting Nagle hold them for an ACK.
    stream.set_nodelay(true)?;
    let reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut out = Vec::new();
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let reply = match parse_request(&line) {
            Ok(Incoming::Ping) => PONG.to_string(),
            Ok(Incoming::Admin(cmd)) => admin_reply(obs, cmd),
            Ok(Incoming::Req(req)) => match req.check_items(batcher.num_items()) {
                Ok(()) => score_reply(batcher, obs, req),
                Err(e) => format_error(&e),
            },
            Err(e) => format_error(&e),
        };
        // One send per reply line: a reply and its newline written
        // separately would leave a lone byte for Nagle + delayed ACK.
        out.clear();
        out.extend_from_slice(reply.as_bytes());
        out.push(b'\n');
        writer.write_all(&out)?;
    }
    Ok(())
}

//! Micro-batching: a single worker drains a request queue, coalescing
//! whatever arrives within a bounded wait into one [`Engine::handle_batch`]
//! call, so concurrent users share GEMM work.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use telemetry::metrics;
use tensor::bug::OrBug;

use crate::engine::{Engine, FrozenScorer, ReqObs, Request, Response};

/// Batching-layer timings and engine flags for one request, returned by
/// [`Batcher::submit_obs`] alongside the response.
#[derive(Debug, Clone, Copy, Default)]
pub struct JobReport {
    /// Queue wait: submit → batch dispatch (includes the coalescing wait).
    pub enqueue_ns: u64,
    /// Batch assembly: first-job pickup → dispatch (same for every request
    /// in the batch).
    pub assemble_ns: u64,
    /// Engine-side flags and phase timings.
    pub obs: ReqObs,
}

struct Job {
    req: Request,
    sampled: bool,
    submitted: Instant,
    reply: mpsc::SyncSender<(Response, JobReport)>,
}

/// Hands requests from any number of threads to a single batching worker.
///
/// The worker blocks for the first request, then keeps collecting until
/// either `batch_max` requests are queued or `batch_wait` has elapsed —
/// the standard latency/throughput trade.
pub struct Batcher<M: FrozenScorer> {
    num_items: usize,
    tx: Option<mpsc::Sender<Job>>,
    worker: Option<JoinHandle<()>>,
    _marker: std::marker::PhantomData<fn() -> M>,
}

impl<M: FrozenScorer> Batcher<M> {
    /// Starts the worker thread.
    pub fn new(engine: Arc<Engine<M>>, batch_max: usize, batch_wait: Duration) -> Self {
        let num_items = engine.model().num_items();
        let (tx, rx) = mpsc::channel::<Job>();
        let worker = std::thread::spawn(move || {
            while let Ok(first) = rx.recv() {
                let received = Instant::now();
                let mut jobs = vec![first];
                let deadline = received + batch_wait;
                while jobs.len() < batch_max.max(1) {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    match rx.recv_timeout(deadline - now) {
                        Ok(job) => jobs.push(job),
                        Err(RecvTimeoutError::Timeout) => break,
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                }
                // The deadline bounds how long we *wait*, not how much we
                // take: requests already queued (e.g. while the previous
                // batch was scoring, or with `batch_wait = 0`) coalesce
                // for free. Without this drain they would each dispatch
                // as a batch of one — head-of-line serialisation at the
                // flush boundary.
                while jobs.len() < batch_max.max(1) {
                    match rx.try_recv() {
                        Ok(job) => jobs.push(job),
                        Err(_) => break,
                    }
                }
                // Queueing delay the coalescing wait added on top of the
                // scoring work itself: first-job receipt → batch dispatch.
                // Wall-clock, so non-deterministic by nature.
                let dispatch = Instant::now();
                let assemble_ns = (dispatch - received).as_nanos() as u64;
                metrics::histogram("serve.batch.wait_us", false)
                    .record((dispatch - received).as_micros() as u64);
                let reqs: Vec<Request> = jobs.iter().map(|j| j.req.clone()).collect();
                // Phase timing costs clock reads inside the engine; only
                // pay for it when a sampled trace rides in this batch.
                let timed = jobs.iter().any(|j| j.sampled);
                let (responses, obs) = engine.handle_batch_obs(&reqs, timed);
                for ((job, resp), obs) in jobs.into_iter().zip(responses).zip(obs) {
                    let report = JobReport {
                        enqueue_ns: dispatch.saturating_duration_since(job.submitted).as_nanos()
                            as u64,
                        assemble_ns,
                        obs,
                    };
                    // A caller that gave up is not an error for the batch.
                    let _ = job.reply.send((resp, report));
                }
            }
        });
        Batcher {
            num_items,
            tx: Some(tx),
            worker: Some(worker),
            _marker: std::marker::PhantomData,
        }
    }

    /// Catalog size of the served model (valid item ids are
    /// `1..=num_items`; see [`Request::check_items`]).
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Submits one request and blocks until its response is scored
    /// (possibly alongside other users' requests in the same batch).
    pub fn submit(&self, req: Request) -> Response {
        self.submit_obs(req, false).0
    }

    /// [`Batcher::submit`] plus the per-request [`JobReport`]. `sampled`
    /// marks the request as carrying a trace, which turns on engine phase
    /// timing for its batch.
    pub fn submit_obs(&self, req: Request, sampled: bool) -> (Response, JobReport) {
        let (rtx, rrx) = mpsc::sync_channel(1);
        self.tx
            .as_ref()
            .or_bug("batcher running")
            .send(Job {
                req,
                sampled,
                submitted: Instant::now(),
                reply: rtx,
            })
            .or_bug("batch worker alive");
        rrx.recv().or_bug("batch worker replies before exiting")
    }
}

impl<M: FrozenScorer> Drop for Batcher<M> {
    fn drop(&mut self) {
        drop(self.tx.take()); // disconnect the queue so the worker exits
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

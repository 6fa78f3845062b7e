//! Continuous batching: a single worker blocks for a request, takes
//! whatever else is already queued into the same [`Engine::handle_batch`]
//! call, and dispatches at once, so concurrent users share GEMM work
//! without the worker ever idling for company.

use std::sync::mpsc;
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
    /// Queue wait: submit → batch dispatch (time spent behind the batch
    /// that was scoring when the request arrived, plus the drain).
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
/// The worker blocks for the first request, drains whatever is already
/// queued (up to `batch_max`) and dispatches at once. It never waits for
/// company: under load the queue fills while a batch is scoring, so the
/// drain alone coalesces concurrent requests.
pub struct Batcher<M: FrozenScorer> {
    num_items: usize,
    tx: Option<mpsc::Sender<Job>>,
    worker: Option<JoinHandle<()>>,
    _marker: std::marker::PhantomData<fn() -> M>,
}

impl<M: FrozenScorer> Batcher<M> {
    /// Starts the worker thread. `_batch_wait` is ignored: the worker
    /// never waits for company, and a wait of zero meets any cap.
    pub fn new(engine: Arc<Engine<M>>, batch_max: usize, _batch_wait: Duration) -> Self {
        let num_items = engine.model().num_items();
        let (tx, rx) = mpsc::channel::<Job>();
        let worker = std::thread::spawn(move || {
            while let Ok(first) = rx.recv() {
                let received = Instant::now();
                // Requests queued while the previous batch was scoring
                // coalesce into this one; nothing else is waited for.
                let jobs: Vec<Job> = std::iter::once(first)
                    .chain(rx.try_iter().take(batch_max.saturating_sub(1)))
                    .collect();
                // Drain time: first-job receipt → batch dispatch.
                // Wall-clock, so non-deterministic by nature.
                let dispatch = Instant::now();
                let assemble = dispatch - received;
                metrics::histogram("serve.batch.wait_us", false)
                    .record(assemble.as_micros() as u64);
                let assemble_ns = assemble.as_nanos() as u64;
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

//! The batching worker never waits for company: a lone caller is scored
//! at once, and concurrent callers coalesce only through the backlog that
//! builds while a batch is scoring.
//!
//! Kept apart from `batcher_flush.rs` because the telemetry registry is
//! process-global and that file asserts exact `serve.batch.size` totals;
//! the tests here take [`SERIAL`] so their counts do not mix either.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use serve::{Batcher, Engine, FrozenScorer, Mode, Request};
use telemetry::metrics;

static SERIAL: Mutex<()> = Mutex::new(());

/// A scorer that does no work, except that each batched append sleeps
/// for `append_delay`.
struct FakeScorer {
    append_delay: Duration,
}

impl FrozenScorer for FakeScorer {
    type State = ();

    fn num_items(&self) -> usize {
        4
    }

    fn window_cap(&self) -> usize {
        0
    }

    fn score_full(&self, _seq: &[usize]) -> Vec<f32> {
        vec![0.0; self.num_items() + 1]
    }

    fn begin(&self, window: &[usize]) -> ((), Vec<f32>) {
        ((), self.score_full(window))
    }

    fn state_len(&self, _state: &()) -> usize {
        1
    }

    fn append_batch(&self, items: &[usize], _states: &mut [&mut ()]) -> Vec<Vec<f32>> {
        std::thread::sleep(self.append_delay);
        items
            .iter()
            .map(|_| vec![0.0; self.num_items() + 1])
            .collect()
    }
}

fn batcher(mode: Mode, append_delay: Duration, batch_wait: Duration) -> Batcher<FakeScorer> {
    let engine = Arc::new(Engine::new(FakeScorer { append_delay }, mode));
    Batcher::new(engine, 16, batch_wait)
}

#[test]
fn lone_caller_is_not_held_for_company() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // A 250 ms wait that the worker used to sit out on every request of
    // a caller with no company: 8 requests took at least 2 s.
    let batcher = batcher(Mode::Full, Duration::ZERO, Duration::from_millis(250));
    let start = Instant::now();
    for user in 0..8u64 {
        let resp = batcher.submit(Request::Score {
            user,
            history: vec![1, 2],
            k: 2,
            topk: None,
        });
        assert_eq!(resp.user, user);
    }
    let took = start.elapsed();
    assert!(
        took < Duration::from_millis(250),
        "8 sequential submits took {took:?}"
    );
}

#[test]
fn closed_loop_backlog_coalesces_without_waiting() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::set_enabled(true);
    const CALLERS: u64 = 8;
    const APPENDS: usize = 30;
    let batcher = Arc::new(batcher(
        Mode::Incremental,
        Duration::from_millis(2),
        Duration::ZERO,
    ));
    let (batches_before, requests_before, _) =
        metrics::histogram("serve.batch.size", false).totals();
    let callers: Vec<_> = (0..CALLERS)
        .map(|user| {
            let b = Arc::clone(&batcher);
            std::thread::spawn(move || {
                b.submit(Request::Score {
                    user,
                    history: vec![1],
                    k: 2,
                    topk: None,
                });
                for i in 0..APPENDS {
                    let resp = b.submit(Request::Append {
                        user,
                        item: 1 + i % 4,
                        k: 2,
                        topk: None,
                    });
                    assert_eq!(resp.user, user);
                }
            })
        })
        .collect();
    for c in callers {
        c.join().expect("caller");
    }
    let (batches_after, requests_after, _) = metrics::histogram("serve.batch.size", false).totals();
    let batches = batches_after - batches_before;
    let requests = requests_after - requests_before;
    assert_eq!(requests, CALLERS * (1 + APPENDS as u64));
    // Every append batch sleeps, so while one scores the other callers
    // queue; the drain takes them together.
    assert!(
        2 * batches <= requests,
        "{requests} requests took {batches} dispatches"
    );
}

//! Bounded executor for batches of independent work items.
//!
//! [`Experiment::run_all`](crate::experiment::Experiment::run_all), the
//! optimiser ablation and the `compmem sweep` CLI all evaluate a *fleet*
//! of independent (shape × policy × schedule) work items over one shared
//! input. The naive shape — one OS thread per item — oversubscribes the
//! machine as soon as the fleet outgrows the core count and turns a
//! single panicking item into an abort of the whole batch. This module
//! replaces it with a fixed-size pool:
//!
//! * **Bounded**: at most `jobs` worker threads (default
//!   [`default_jobs`], the host's available parallelism), never more
//!   than there are items.
//! * **Self-balancing**: one shared atomic cursor hands out item
//!   indices; every worker that finishes an item claims the next one.
//!   Items have wildly different costs (a 4 MiB way-partitioned replay
//!   vs a 32 KiB shared one), and a free worker always takes the next
//!   item, so no worker idles while items remain — static striping would
//!   leave workers idle while one stripe still holds the expensive tail.
//! * **Panic-isolating**: each item runs under
//!   [`catch_unwind`]; a panicking item yields
//!   [`CoreError::WorkerPanicked`] in *its* result slot while the rest of
//!   the batch completes normally.
//!
//! Results come back in input order regardless of which worker ran what,
//! so callers observe the exact same `Vec` a serial loop would produce —
//! the determinism tests in `experiment` assert byte-identical
//! [`CacheSnapshot`](compmem_cache::CacheSnapshot)s for 1 vs N jobs.
//!
//! The pool is deliberately `std`-only (scoped threads and one atomic
//! counter): batches are coarse-grained — each item is a full cache
//! simulation, milliseconds at minimum — so handing out one index per
//! item costs nothing measurable.

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};

use crate::error::CoreError;

/// Default worker count: the host's available parallelism, or 1 when the
/// platform cannot report it.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Renders a caught panic payload into a human-readable message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_string()
    }
}

/// Evaluates `work` over every item of `items` on a bounded pool of at
/// most `jobs` threads and returns the results **in input order**.
///
/// `jobs` is clamped to `1..=items.len()`; `jobs <= 1` (or a single
/// item) degenerates to an inline serial loop on the calling thread, so
/// `run_batch(items, 1, f)` is *exactly* `items.map(f)` — no threads are
/// spawned at all. A panic inside `work` is caught per item and surfaces
/// as [`CoreError::WorkerPanicked`] in that item's slot.
///
/// The closure receives the item's input index alongside the item so
/// callers can label diagnostics without searching for the item.
pub fn run_batch<T, R, F>(items: &[T], jobs: usize, work: F) -> Vec<Result<R, CoreError>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> Result<R, CoreError> + Sync,
{
    let run_one = |index: usize, item: &T| run_caught(|| work(index, item));

    let workers = jobs.max(1).min(items.len());
    if workers <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| run_one(i, item))
            .collect();
    }

    // Every free worker claims the next unclaimed index and fills that
    // item's slot. No work is ever added, so a worker that finds the
    // cursor past the end is done. The cursor publishes no data (each
    // slot's mutex and the scope's join order the results), so `Relaxed`
    // suffices for it.
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<R, CoreError>>>> =
        items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let result = run_one(i, item);
                *slots[i].lock().expect("executor slot poisoned") = Some(result);
            });
        }
    });
    // `run_one` catches every panic of `work`, so every worker runs to the
    // end of the batch and every slot is filled.
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("executor slot poisoned")
                .expect("every item runs once")
        })
        .collect()
}

/// Runs one job, turning a panic into [`CoreError::WorkerPanicked`].
fn run_caught<R>(job: impl FnOnce() -> Result<R, CoreError>) -> Result<R, CoreError> {
    catch_unwind(AssertUnwindSafe(job)).unwrap_or_else(|payload| {
        Err(CoreError::WorkerPanicked {
            message: panic_message(payload),
        })
    })
}

type QueuedJob<R> = Box<dyn FnOnce() -> Result<R, CoreError> + Send + 'static>;
type QueuedEntry<R> = (QueuedJob<R>, mpsc::Sender<Result<R, CoreError>>);

struct QueueState<R> {
    pending: VecDeque<QueuedEntry<R>>,
    closed: bool,
}

struct QueueShared<R> {
    state: Mutex<QueueState<R>>,
    ready: Condvar,
}

impl<R> QueueShared<R> {
    /// The oldest pending job, waiting for one if there is none; `None`
    /// once the queue is closed and drained.
    fn next(&self) -> Option<QueuedEntry<R>> {
        let mut state = self.state.lock().expect("work queue state poisoned");
        loop {
            if let Some(entry) = state.pending.pop_front() {
                return Some(entry);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).expect("work queue state poisoned");
        }
    }
}

/// A long-lived pool of `jobs` worker threads that jobs submitted from
/// any thread share, so concurrent producers share one worker budget
/// instead of each spawning their own threads.
///
/// This is the scheduling half of `compmem serve`: every cache-miss
/// request becomes one [`WorkQueue::submit`], and however many clients
/// are connected, at most `jobs` measurement threads ever run. Jobs start
/// in submission order, each on the first idle worker, and each result
/// is sent the moment its job finishes: a job never waits for an
/// unrelated one while a worker is idle.
///
/// Panic isolation matches [`run_batch`]: a panicking job resolves to
/// [`CoreError::WorkerPanicked`] on its own receiver while every other
/// job completes normally. Dropping the queue finishes the jobs already
/// submitted, then stops the workers.
pub struct WorkQueue<R: Send + 'static> {
    shared: Arc<QueueShared<R>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl<R: Send + 'static> WorkQueue<R> {
    /// Starts a queue with `jobs` worker threads (clamped to at least 1),
    /// each idle whenever no jobs are pending.
    pub fn start(jobs: usize) -> Self {
        let shared = Arc::new(QueueShared {
            state: Mutex::new(QueueState {
                pending: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        });
        let workers = (0..jobs.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    while let Some((job, sender)) = shared.next() {
                        // A submitter that dropped its receiver no longer
                        // wants the answer; that is not the queue's problem.
                        let _ = sender.send(run_caught(job));
                    }
                })
            })
            .collect();
        WorkQueue { shared, workers }
    }

    /// Submits one job and returns the receiver its result will arrive
    /// on. Blocking on the receiver gives exactly the `Result` the job
    /// returned — or [`CoreError::WorkerPanicked`] if it panicked, or (on
    /// a queue that is already shut down) a `WorkerPanicked` with a
    /// shutdown message, so a submitter never hangs.
    pub fn submit(
        &self,
        job: impl FnOnce() -> Result<R, CoreError> + Send + 'static,
    ) -> mpsc::Receiver<Result<R, CoreError>> {
        let (sender, receiver) = mpsc::channel();
        let mut state = self.shared.state.lock().expect("work queue state poisoned");
        if state.closed {
            let _ = sender.send(Err(CoreError::WorkerPanicked {
                message: "work queue is shut down".to_string(),
            }));
        } else {
            state.pending.push_back((Box::new(job), sender));
            self.shared.ready.notify_one();
        }
        receiver
    }
}

impl<R: Send + 'static> Drop for WorkQueue<R> {
    fn drop(&mut self) {
        self.shared
            .state
            .lock()
            .expect("work queue state poisoned")
            .closed = true;
        self.shared.ready.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<u64> = (0..97).collect();
        for jobs in [1, 2, 3, 8, 200] {
            let results = run_batch(&items, jobs, |i, &x| {
                assert_eq!(i as u64, x);
                Ok(x * x)
            });
            let squares: Vec<u64> = results.into_iter().map(|r| r.unwrap()).collect();
            let expected: Vec<u64> = items.iter().map(|&x| x * x).collect();
            assert_eq!(squares, expected, "jobs={jobs}");
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let items: Vec<usize> = (0..64).collect();
        let counter = AtomicUsize::new(0);
        let results = run_batch(&items, 4, |_, _| {
            counter.fetch_add(1, Ordering::SeqCst);
            Ok(())
        });
        assert_eq!(counter.load(Ordering::SeqCst), items.len());
        assert!(results.iter().all(|r| r.is_ok()));
    }

    #[test]
    fn a_panicking_item_fails_alone() {
        let items: Vec<u32> = (0..10).collect();
        for jobs in [1, 4] {
            let results = run_batch(&items, jobs, |_, &x| {
                if x == 3 {
                    panic!("item {x} is poisoned");
                }
                Ok(x)
            });
            for (i, result) in results.iter().enumerate() {
                if i == 3 {
                    match result {
                        Err(CoreError::WorkerPanicked { message }) => {
                            assert!(message.contains("poisoned"), "message: {message}");
                        }
                        other => panic!("expected WorkerPanicked, got {other:?}"),
                    }
                } else {
                    assert_eq!(*result.as_ref().unwrap(), i as u32);
                }
            }
        }
    }

    #[test]
    fn errors_pass_through_untouched() {
        let items = [1u32, 2, 3];
        let results = run_batch(&items, 2, |_, &x| {
            if x == 2 {
                Err(CoreError::Infeasible {
                    reason: "two".to_string(),
                })
            } else {
                Ok(x)
            }
        });
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(CoreError::Infeasible { .. })));
        assert!(results[2].is_ok());
    }

    #[test]
    fn empty_batches_and_zero_jobs_are_fine() {
        let empty: [u32; 0] = [];
        assert!(run_batch(&empty, 4, |_, &x| Ok(x)).is_empty());
        let one = [7u32];
        let results = run_batch(&one, 0, |_, &x| Ok(x));
        assert_eq!(*results[0].as_ref().unwrap(), 7);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn work_queue_returns_each_submitters_own_result() {
        let queue: WorkQueue<u64> = WorkQueue::start(3);
        let receivers: Vec<_> = (0..32u64)
            .map(|x| queue.submit(move || Ok(x * x)))
            .collect();
        for (x, receiver) in receivers.into_iter().enumerate() {
            let result = receiver.recv().expect("dispatcher sends a result");
            assert_eq!(result.unwrap(), (x * x) as u64);
        }
    }

    #[test]
    fn work_queue_isolates_panics_per_job() {
        let queue: WorkQueue<u32> = WorkQueue::start(2);
        let bad = queue.submit(|| panic!("queued job is poisoned"));
        let good = queue.submit(|| Ok(7));
        match bad.recv().unwrap() {
            Err(CoreError::WorkerPanicked { message }) => {
                assert!(message.contains("poisoned"), "message: {message}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        assert_eq!(good.recv().unwrap().unwrap(), 7);
    }

    #[test]
    fn work_queue_runs_concurrent_submitters_on_a_shared_pool() {
        let queue: Arc<WorkQueue<usize>> = Arc::new(WorkQueue::start(2));
        let ran = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let queue = Arc::clone(&queue);
                let ran = Arc::clone(&ran);
                std::thread::spawn(move || {
                    let receiver = queue.submit(move || {
                        ran.fetch_add(1, Ordering::SeqCst);
                        Ok(t)
                    });
                    receiver.recv().unwrap().unwrap()
                })
            })
            .collect();
        let mut answers: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        answers.sort_unstable();
        assert_eq!(answers, (0..8).collect::<Vec<_>>());
        assert_eq!(ran.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn work_queue_never_holds_a_job_behind_a_running_one() {
        // The first job blocks until released; the second runs on the
        // idle worker and answers while the first is still running.
        let queue: WorkQueue<u32> = WorkQueue::start(2);
        let (release, blocked) = mpsc::channel::<()>();
        let slow = queue.submit(move || {
            blocked.recv().expect("the test releases the job");
            Ok(1)
        });
        let fast = queue.submit(|| Ok(2));
        let answer = fast
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the second job answers while the first still runs");
        assert_eq!(answer.unwrap(), 2);
        release.send(()).unwrap();
        assert_eq!(slow.recv().unwrap().unwrap(), 1);
    }

    #[test]
    fn work_queue_drop_finishes_pending_jobs_and_rejects_late_submits() {
        let queue: WorkQueue<u32> = WorkQueue::start(1);
        let receivers: Vec<_> = (0..4).map(|x| queue.submit(move || Ok(x))).collect();
        drop(queue);
        for (x, receiver) in receivers.into_iter().enumerate() {
            assert_eq!(receiver.recv().unwrap().unwrap(), x as u32);
        }
        let queue: WorkQueue<u32> = WorkQueue::start(1);
        // Simulate a submit racing shutdown: close, then submit.
        {
            let mut state = queue.shared.state.lock().unwrap();
            state.closed = true;
        }
        let late = queue.submit(|| Ok(1));
        assert!(matches!(
            late.recv().unwrap(),
            Err(CoreError::WorkerPanicked { .. })
        ));
    }
}

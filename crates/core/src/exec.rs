//! A fixed-size worker pool for session execution, private to the crate.
//!
//! An [`Executor`] is a pool of `N` OS threads fed from one job queue.
//! Engines submit closures instead of spawning threads. Every race runs
//! on one, and the session picks it: a
//! [`SessionRuntime`](crate::session::SessionRuntime) owns one pool that
//! serves every session spawned on it and their races, so many sessions
//! share one worker budget. A race run inline through
//! [`PebblingSession::run`](crate::session::PebblingSession::run) gets a
//! pool of its own, one thread per worker.
//!
//! ## Help-while-waiting
//!
//! Jobs submit sub-jobs: a session job fans its portfolio rivals out on
//! the same pool it runs on. With a naive pool of `N` workers, `N`
//! session jobs would occupy every thread and their sub-jobs would wait
//! forever — a classic nested-submit deadlock. The race's join point
//! (`scatter_settle`) therefore *helps* while its results are pending:
//! the waiting thread pops queued jobs and runs them inline, and only
//! when the queue is empty does it sleep on the pool's own condvar, which
//! every finished task signals. Progress is guaranteed on any pool size
//! (even one worker), because every waiter is also a worker.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

type Job = Box<dyn FnOnce() + Send + 'static>;

#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct Inner {
    queue: Mutex<Queue>,
    signal: Condvar,
}

/// A fixed-size worker pool with one shared job queue (see the [module
/// docs](self)). Dropping the executor finishes every already-queued job
/// and joins the workers.
pub(crate) struct Executor {
    inner: Arc<Inner>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl Executor {
    /// A pool of exactly `workers` OS threads.
    ///
    /// # Panics
    ///
    /// Panics when `workers == 0` — a pool nobody drains deadlocks every
    /// submitter. The session layer rejects the request first with
    /// [`SessionError::ZeroWorkerPool`](crate::session::SessionError::ZeroWorkerPool).
    pub(crate) fn new(workers: usize) -> Self {
        assert!(workers > 0, "an executor needs at least one worker");
        let inner = Arc::new(Inner {
            queue: Mutex::new(Queue::default()),
            signal: Condvar::new(),
        });
        let workers = (0..workers)
            .map(|index| {
                let inner = Arc::clone(&inner);
                thread::Builder::new()
                    .name(format!("revpebble-worker-{index}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn executor worker")
            })
            .collect();
        Executor { inner, workers }
    }

    /// Enqueues a job for the pool. Never blocks; the queue is unbounded
    /// (backpressure is the submitters' problem — a race waits for its
    /// workers' results, so it can only ever be one fan-out ahead).
    pub(crate) fn submit(&self, job: impl FnOnce() + Send + 'static) {
        let mut queue = self.inner.queue.lock().expect("executor queue");
        queue.jobs.push_back(Box::new(job));
        drop(queue);
        self.inner.signal.notify_one();
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        {
            let mut queue = self.inner.queue.lock().expect("executor queue");
            queue.shutdown = true;
        }
        self.inner.signal.notify_all();
        let current = thread::current().id();
        for worker in self.workers.drain(..) {
            // The last `Arc<Executor>` can die *on a pool thread*: a job
            // holding the pool (session jobs do) finishes its send, the
            // external handles drop first, and this destructor runs on
            // the worker that ran the job. Joining ourselves would
            // EDEADLK-panic in the pool; detach instead — shutdown is
            // already signalled, so the thread exits right after this
            // closure returns to its loop.
            if worker.thread().id() == current {
                continue;
            }
            let _ = worker.join();
        }
    }
}

/// A job panic must not take the pool down with it: the worker (or
/// helping waiter) swallows the unwind and moves on. [`scatter_settle`]
/// catches its own tasks' panics earlier and reports them as empty slots
/// at the join point.
fn run_job(job: Job) {
    let _ = catch_unwind(AssertUnwindSafe(job));
}

fn worker_loop(inner: &Inner) {
    loop {
        let job = {
            let mut queue = inner.queue.lock().expect("executor queue");
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    break Some(job);
                }
                if queue.shutdown {
                    break None;
                }
                queue = inner.signal.wait(queue).expect("executor queue");
            }
        };
        match job {
            Some(job) => run_job(job),
            None => return,
        }
    }
}

/// Runs every task on the pool and returns their results in task order,
/// helping with queued jobs while waiting (see the [module docs](self)).
/// This is the join point every fan-out goes through — the portfolio
/// race's workers. A task that panicked leaves its slot `None` instead of
/// unwinding at the join; the other tasks always run to completion, so
/// one poisoned worker cannot take the fan-out down.
pub(crate) fn scatter_settle<T, F>(executor: &Executor, tasks: Vec<F>) -> Vec<Option<T>>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let mut pending = tasks.len();
    let (tx, rx) = mpsc::channel::<(usize, Option<T>)>();
    for (index, task) in tasks.into_iter().enumerate() {
        let (tx, inner) = (tx.clone(), Arc::clone(&executor.inner));
        executor.submit(move || {
            let _ = tx.send((index, catch_unwind(AssertUnwindSafe(task)).ok()));
            // The waiter's last look at the channel before it sleeps is
            // made under the queue lock, which only the sleep releases:
            // taking the lock after the send orders this wake-up after
            // that look, so it cannot be lost.
            drop(inner.queue.lock().expect("executor queue"));
            inner.signal.notify_all();
        });
    }
    let mut results: Vec<Option<T>> = (0..pending).map(|_| None).collect();
    let mut queue = executor.inner.queue.lock().expect("executor queue");
    while pending > 0 {
        if let Ok((index, result)) = rx.try_recv() {
            results[index] = result;
            pending -= 1;
        } else if let Some(job) = queue.jobs.pop_front() {
            drop(queue);
            run_job(job);
            queue = executor.inner.queue.lock().expect("executor queue");
        } else {
            queue = executor.inner.signal.wait(queue).expect("executor queue");
        }
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn scatter_preserves_task_order() {
        let executor = Executor::new(4);
        let results = scatter_settle(&executor, (0..32).map(|i| move || i * 2).collect());
        assert_eq!(results, (0..32).map(|i| Some(i * 2)).collect::<Vec<_>>());
    }

    #[test]
    fn nested_scatter_does_not_deadlock_a_one_worker_pool() {
        // The outer job occupies the only worker and fans out sub-jobs on
        // the same pool; only help-while-waiting can finish them.
        let executor = Arc::new(Executor::new(1));
        let inner_pool = Arc::clone(&executor);
        let results = scatter_settle(
            &executor,
            vec![move || {
                let inner = scatter_settle(&inner_pool, (0..8).map(|i| move || i + 1).collect());
                inner
                    .into_iter()
                    .map(|slot| slot.expect("no panic"))
                    .sum::<usize>()
            }],
        );
        assert_eq!(results, vec![Some(36)]);
    }

    #[test]
    fn many_tasks_share_few_workers() {
        let executor = Executor::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<_> = (0..64)
            .map(|_| {
                let counter = Arc::clone(&counter);
                move || counter.fetch_add(1, Ordering::Relaxed)
            })
            .collect();
        let _ = scatter_settle(&executor, tasks);
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn drop_joins_workers_after_draining_queued_jobs() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let executor = Executor::new(2);
            for _ in 0..16 {
                let counter = Arc::clone(&counter);
                executor.submit(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
            // Drop joins: every already-submitted job still runs.
        }
        assert_eq!(counter.load(Ordering::Relaxed), 16);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_is_rejected() {
        let _ = Executor::new(0);
    }

    #[test]
    fn a_panicking_job_does_not_kill_the_pool() {
        let executor = Executor::new(1);
        executor.submit(|| panic!("job panic"));
        let results = scatter_settle(&executor, vec![|| 7]);
        assert_eq!(results, vec![Some(7)]);
    }

    #[test]
    fn scatter_settle_reports_the_panicked_task_and_payload() {
        let executor = Executor::new(2);
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = vec![
            Box::new(|| 10),
            Box::new(|| panic!("injected fault in task one")),
            Box::new(|| 30),
        ];
        let results = scatter_settle(&executor, tasks);
        assert_eq!(results, vec![Some(10), None, Some(30)]);
    }

    #[test]
    fn scatter_settle_survives_every_task_panicking() {
        let executor = Executor::new(2);
        let tasks: Vec<_> = (0..4)
            .map(|i| move || -> usize { panic!("worker {i} down") })
            .collect();
        let results = scatter_settle(&executor, tasks);
        assert_eq!(results, vec![None; 4], "every task panicked");
        // The pool is still alive afterwards.
        assert_eq!(
            scatter_settle(&executor, vec![|| 1, || 2]),
            vec![Some(1), Some(2)]
        );
    }

    #[test]
    fn a_waiting_caller_wakes_for_a_result_it_cannot_help_with() {
        // Task 0 blocks until task 1 sends. Whichever of the two the
        // caller runs itself, the other runs on the pool's one worker, and
        // a caller that ran task 1 has nothing left to help with: it must
        // sleep until task 0's wake-up. The rounds run off the test thread
        // so that a lost wake-up fails at the bound instead of hanging.
        let (done_tx, done_rx) = mpsc::channel();
        let rounds = thread::spawn(move || {
            let executor = Executor::new(1);
            for _ in 0..2_000 {
                let (tx, rx) = mpsc::channel();
                let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = vec![
                    Box::new(move || rx.recv().map_or(0, |()| 1)),
                    Box::new(move || tx.send(()).map_or(0, |()| 2)),
                ];
                assert_eq!(scatter_settle(&executor, tasks), vec![Some(1), Some(2)]);
            }
            let _ = done_tx.send(());
        });
        done_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("every round's join woke up");
        rounds.join().expect("the rounds thread finished");
    }
}

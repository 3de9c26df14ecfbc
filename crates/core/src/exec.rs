//! A fixed-size shared worker pool for session execution.
//!
//! Every engine in this crate used to spawn scoped threads ad hoc: one
//! per portfolio rival, one per session observer. That model cannot serve
//! *many* sessions at once — each racing session would oversubscribe the
//! machine with its own private thread per worker. The [`Executor`] is
//! the replacement: a process-wide pool of `N` OS threads fed from one
//! job queue. Engines submit closures instead of spawning; a
//! [`SessionRuntime`](crate::session::SessionRuntime) serving dozens of
//! DAGs and a lone [`PebblingSession`](crate::session::PebblingSession)
//! share the same worker budget.
//!
//! ## Help-while-waiting
//!
//! Jobs submit sub-jobs: a session job fans its portfolio rivals out on
//! the same pool it runs on. With a naive pool of `N` workers, `N`
//! session jobs would occupy every thread and their sub-jobs would wait
//! forever — a classic nested-submit deadlock. The race's join point
//! (`scatter_settle`) therefore never parks while its results are
//! pending without first *helping*: the waiting thread pops queued jobs
//! and runs them inline. Progress is guaranteed on any pool size (even
//! one worker), because every waiter is also a worker.

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

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
pub struct Executor {
    inner: Arc<Inner>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl Executor {
    /// A pool of exactly `workers` OS threads.
    ///
    /// # Panics
    ///
    /// Panics when `workers == 0` — a pool nobody drains deadlocks every
    /// submitter. The session layer rejects the request first with
    /// [`SessionError::ZeroWorkerPool`](crate::session::SessionError::ZeroWorkerPool).
    pub fn new(workers: usize) -> Self {
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
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        let mut queue = self.inner.queue.lock().expect("executor queue");
        queue.jobs.push_back(Box::new(job));
        drop(queue);
        self.inner.signal.notify_one();
    }

    /// Pops one queued job and runs it on the *calling* thread. Returns
    /// `false` when the queue was empty. This is the help-while-waiting
    /// primitive: a thread blocked on sub-job results drains the queue
    /// instead of parking, so nested fan-outs cannot deadlock the pool.
    pub(crate) fn try_run_one(&self) -> bool {
        let job = {
            let mut queue = self.inner.queue.lock().expect("executor queue");
            queue.jobs.pop_front()
        };
        match job {
            Some(job) => {
                run_job(job);
                true
            }
            None => false,
        }
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
/// catches its own tasks' panics earlier, with the task index attached,
/// and reports them as typed [`TaskFailure`]s at the join point.
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

/// One scattered task that panicked instead of returning: which task (by
/// submission index, which is also its slot in the result vector) and the
/// panic payload's message. This is the typed per-task failure
/// [`scatter_settle`] reports so a fan-out can survive a poisoned worker —
/// a portfolio race certifies from the survivors instead of unwinding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TaskFailure {
    /// Index of the task in the submitted `tasks` vector.
    pub(crate) index: usize,
    /// The panic payload, when it was a string (`panic!("…")` always is);
    /// a placeholder otherwise.
    pub(crate) message: String,
}

impl fmt::Display for TaskFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task {} panicked: {}", self.index, self.message)
    }
}

/// The panic payload's message, for panics carrying the usual string
/// payloads (`&str` from `panic!("literal")`, `String` from
/// `panic!("{…}")`); a placeholder for exotic payload types.
pub(crate) fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs every task on the pool and returns their results in task order,
/// helping with queued jobs while waiting (see the [module docs](self)).
/// This is the join point every fan-out goes through — the portfolio
/// race's workers. A task panic becomes a typed per-task [`TaskFailure`]
/// instead of unwinding at the join: the result vector is in task order,
/// `Ok` for tasks that returned and `Err` for tasks that panicked (with
/// the panicked task's index and payload message). The other tasks
/// always run to completion — one poisoned worker cannot take the
/// fan-out down.
pub(crate) fn scatter_settle<T, F>(
    executor: &Executor,
    tasks: Vec<F>,
) -> Vec<Result<T, TaskFailure>>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let total = tasks.len();
    let (tx, rx) = mpsc::channel::<(usize, Result<T, String>)>();
    for (index, task) in tasks.into_iter().enumerate() {
        let tx = tx.clone();
        executor.submit(move || {
            // Catch the unwind *here*, where the task index is known, so
            // the join point learns which task died and why — the pool's
            // own catch in `run_job` only protects the worker thread.
            let result = catch_unwind(AssertUnwindSafe(task))
                .map_err(|payload| payload_message(payload.as_ref()));
            let _ = tx.send((index, result));
        });
    }
    drop(tx);
    let mut results: Vec<Option<Result<T, String>>> = (0..total).map(|_| None).collect();
    let mut received = 0;
    while received < total {
        match rx.try_recv() {
            Ok((index, value)) => {
                results[index] = Some(value);
                received += 1;
            }
            Err(mpsc::TryRecvError::Empty) => {
                // Help first; park only when there is truly nothing to do
                // (our pending tasks are mid-flight on other workers).
                if !executor.try_run_one() {
                    match rx.recv_timeout(Duration::from_millis(1)) {
                        Ok((index, value)) => {
                            results[index] = Some(value);
                            received += 1;
                        }
                        Err(mpsc::RecvTimeoutError::Timeout) => {}
                        Err(mpsc::RecvTimeoutError::Disconnected) => break,
                    }
                }
            }
            Err(mpsc::TryRecvError::Disconnected) => break,
        }
    }
    results
        .into_iter()
        .enumerate()
        .map(|(index, slot)| match slot {
            Some(Ok(value)) => Ok(value),
            Some(Err(message)) => Err(TaskFailure { index, message }),
            // Unreachable in practice — every submitted wrapper sends
            // exactly once — but a dropped sender must stay a typed
            // failure, not a silent missing slot.
            None => Err(TaskFailure {
                index,
                message: "task result channel closed before a result arrived".to_string(),
            }),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scatter_preserves_task_order() {
        let executor = Executor::new(4);
        let results = scatter_settle(&executor, (0..32).map(|i| move || i * 2).collect());
        assert_eq!(results, (0..32).map(|i| Ok(i * 2)).collect::<Vec<_>>());
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
        assert_eq!(results, vec![Ok(36)]);
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
        assert_eq!(results, vec![Ok(7)]);
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
        assert_eq!(results[0], Ok(10));
        assert_eq!(results[2], Ok(30));
        let failure = results[1].as_ref().expect_err("task 1 panicked");
        assert_eq!(failure.index, 1);
        assert_eq!(failure.message, "injected fault in task one");
    }

    #[test]
    fn scatter_settle_survives_every_task_panicking() {
        let executor = Executor::new(2);
        let tasks: Vec<_> = (0..4)
            .map(|i| move || -> usize { panic!("worker {i} down") })
            .collect();
        let results = scatter_settle(&executor, tasks);
        for (index, slot) in results.iter().enumerate() {
            let failure = slot.as_ref().expect_err("every task panicked");
            assert_eq!(failure.index, index);
            assert_eq!(failure.message, format!("worker {index} down"));
        }
        // The pool is still alive afterwards.
        assert_eq!(
            scatter_settle(&executor, vec![|| 1, || 2]),
            vec![Ok(1), Ok(2)]
        );
    }
}

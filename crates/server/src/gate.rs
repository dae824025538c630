//! Admission control: a fixed worker pool draining a bounded job queue.
//!
//! Connection handler threads are cheap I/O pumps; the statements they
//! parse are *executed* here, by `threads` worker threads popping a queue
//! of at most `queue` waiting jobs. That bounds the engine's concurrency
//! (at most `threads` statements run at once) and bounds memory under
//! overload (at most `queue` parsed requests wait). When the queue is
//! full the submission fails immediately and the caller answers **503**
//! — load is shed at the door instead of piling up behind a lock. The
//! policy is deliberately FIFO: queries and imports share one queue, so
//! a flood of analytical reads cannot starve writers (and vice versa) —
//! the stress harness asserts exactly this.
//!
//! Built on `std::sync::{Mutex, Condvar}` only.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A unit of work: computes a response and delivers it through whatever
/// channel the submitter captured.
type Job = Box<dyn FnOnce() + Send>;

struct Queue {
    jobs: Mutex<VecDeque<Job>>,
    /// Signalled when a job is pushed or shutdown begins.
    ready: Condvar,
    capacity: usize,
    shutdown: AtomicBool,
}

/// The worker pool. Dropping it without [`GatePool::shutdown`] leaks the
/// workers; the server always shuts it down explicitly.
pub struct GatePool {
    queue: Arc<Queue>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// Why a submission was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum Refused {
    /// The bounded queue is at capacity — shed load (503).
    QueueFull,
    /// The pool is shutting down (503).
    ShuttingDown,
}

impl GatePool {
    /// Start `threads` workers over a queue of at most `queue_cap`
    /// waiting jobs.
    pub fn new(threads: usize, queue_cap: usize) -> GatePool {
        let queue = Arc::new(Queue {
            jobs: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            capacity: queue_cap.max(1),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..threads.max(1))
            .map(|i| {
                let queue = queue.clone();
                std::thread::Builder::new()
                    .name(format!("pbserver-worker-{i}"))
                    .spawn(move || worker_loop(&queue))
                    .expect("spawn worker")
            })
            .collect();
        GatePool {
            queue,
            workers: Mutex::new(workers),
        }
    }

    /// Enqueue a job, or refuse it if the queue is full or the pool is
    /// stopping. On success the job is guaranteed to run (workers drain
    /// the queue before exiting).
    pub fn submit(&self, job: Job) -> Result<(), Refused> {
        if self.queue.shutdown.load(Ordering::Acquire) {
            return Err(Refused::ShuttingDown);
        }
        {
            let mut jobs = self.queue.jobs.lock().unwrap();
            if jobs.len() >= self.queue.capacity {
                return Err(Refused::QueueFull);
            }
            jobs.push_back(job);
            obs::set(obs::Counter::HttpQueueDepth, jobs.len() as u64);
        }
        self.queue.ready.notify_one();
        Ok(())
    }

    /// Current queue depth (for `/stats`).
    pub fn depth(&self) -> usize {
        self.queue.jobs.lock().unwrap().len()
    }

    /// Stop accepting jobs, drain the queue, and join every worker.
    /// Idempotent: a second call is a no-op.
    pub fn shutdown(&self) {
        self.queue.shutdown.store(true, Ordering::Release);
        self.queue.ready.notify_all();
        let workers: Vec<JoinHandle<()>> = self.workers.lock().unwrap().drain(..).collect();
        for w in workers {
            let _ = w.join();
        }
    }
}

fn worker_loop(queue: &Queue) {
    loop {
        let job = {
            let mut jobs = queue.jobs.lock().unwrap();
            loop {
                if let Some(job) = jobs.pop_front() {
                    obs::set(obs::Counter::HttpQueueDepth, jobs.len() as u64);
                    break Some(job);
                }
                if queue.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                jobs = queue.ready.wait(jobs).unwrap();
            }
        };
        match job {
            // A job that panics takes its own response with it (the
            // submitter sees its channel close), not the worker: the pool
            // keeps its `threads` for the jobs queued behind.
            Some(job) => drop(catch_unwind(AssertUnwindSafe(job))),
            None => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

    #[test]
    fn jobs_run_and_drain_on_shutdown() {
        let pool = GatePool::new(4, 64);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let done = done.clone();
            pool.submit(Box::new(move || {
                done.fetch_add(1, Ordering::SeqCst);
            }))
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn full_queue_refuses_instead_of_blocking() {
        // One worker, blocked; capacity 2 → the 4th submission must fail.
        let pool = GatePool::new(1, 2);
        let (block_tx, block_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        pool.submit(Box::new(move || {
            started_tx.send(()).unwrap();
            block_rx.recv().unwrap();
        }))
        .unwrap();
        started_rx.recv().unwrap(); // worker is now busy
        pool.submit(Box::new(|| {})).unwrap();
        pool.submit(Box::new(|| {})).unwrap();
        assert_eq!(pool.submit(Box::new(|| {})), Err(Refused::QueueFull));
        assert_eq!(pool.depth(), 2);
        block_tx.send(()).unwrap();
        pool.shutdown();
    }

    #[test]
    fn a_panicking_job_leaves_the_pool_at_full_strength() {
        let pool = GatePool::new(2, 8);
        for _ in 0..4 {
            pool.submit(Box::new(|| panic!("job failed"))).unwrap();
        }
        // Both workers are still there: two jobs that each wait for the
        // other to start can only finish on two threads.
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let (done_tx, done_rx) = mpsc::channel();
        for _ in 0..2 {
            let (barrier, done_tx) = (barrier.clone(), done_tx.clone());
            pool.submit(Box::new(move || {
                barrier.wait();
                done_tx.send(()).unwrap();
            }))
            .unwrap();
        }
        let wait = std::time::Duration::from_secs(10);
        assert!(done_rx.recv_timeout(wait).is_ok() && done_rx.recv_timeout(wait).is_ok());
        pool.shutdown();
    }

    #[test]
    fn shutdown_refuses_new_jobs() {
        let pool = GatePool::new(1, 4);
        pool.queue.shutdown.store(true, Ordering::Release);
        assert_eq!(pool.submit(Box::new(|| {})), Err(Refused::ShuttingDown));
        pool.shutdown();
    }
}

//! The process-wide pool of OS threads that execute simulated threads.
//!
//! A run borrows one idle worker per simulated thread instead of
//! spawning and joining fresh OS threads, and waits on a [`Latch`] for
//! its workers to finish. A worker goes back to the idle list *before*
//! it counts the latch down, so a caller that starts its next run as
//! soon as the previous one returns finds the same workers idle and the
//! process never grows beyond its peak concurrency. Workers beyond
//! [`MAX_IDLE`] exit instead of waiting for more work.

use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, Thread};
use std::time::Instant;

/// Idle workers kept for reuse; a worker finishing a job while this many
/// are already idle exits.
const MAX_IDLE: usize = 64;

type Job = Box<dyn FnOnce() + Send>;

/// A worker's single-job slot.
type Mailbox = Arc<Mutex<Option<(Job, Arc<Latch>)>>>;

static IDLE: Mutex<Vec<Worker>> = Mutex::new(Vec::new());

/// Every update under these locks (a mailbox swap, an idle-list push or
/// split, a count decrement) leaves the data valid, so a poisoned lock's
/// guard is safe to take over.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// An idle pooled OS thread, owned by the run that checked it out.
pub(crate) struct Worker {
    thread: Thread,
    mailbox: Mailbox,
}

impl Worker {
    /// The OS thread this worker runs on.
    pub(crate) fn thread(&self) -> &Thread {
        &self.thread
    }

    /// Hands the worker `job` and wakes it. `done` is counted down once
    /// the job has returned (or unwound) and the worker is idle again.
    pub(crate) fn start(self, job: Job, done: Arc<Latch>) {
        *lock(&self.mailbox) = Some((job, done));
        self.thread.unpark();
    }
}

/// Takes `n` idle workers, spawning any shortfall.
pub(crate) fn checkout(n: usize) -> Vec<Worker> {
    let mut workers = {
        let mut idle = lock(&IDLE);
        let keep = idle.len().saturating_sub(n);
        idle.split_off(keep)
    };
    workers.extend((workers.len()..n).map(|_| spawn()));
    workers
}

/// Starts a worker. Its `JoinHandle` is dropped on purpose: workers
/// outlive every run, and a job's panic reaches its run as a
/// [`SimError`](crate::SimError) or through the latch, never through a
/// join.
fn spawn() -> Worker {
    let mailbox: Mailbox = Arc::new(Mutex::new(None));
    let inbox = Arc::clone(&mailbox);
    let handle = thread::Builder::new()
        .name("tsim-worker".to_owned())
        .spawn(move || worker_main(inbox))
        .expect("spawning a simulated-thread worker");
    Worker {
        thread: handle.thread().clone(),
        mailbox,
    }
}

fn worker_main(mailbox: Mailbox) {
    loop {
        // Park until a job lands; the unpark token covers a job posted
        // between the check and the park.
        let (job, done) = loop {
            if let Some(next) = lock(&mailbox).take() {
                break next;
            }
            thread::park();
        };
        // Counts down on unwinding too, so a panicking job cannot leave
        // its run waiting forever (the thread then dies with the panic).
        let done = CountDown(done);
        job();
        let retire = {
            let mut idle = lock(&IDLE);
            let full = idle.len() >= MAX_IDLE;
            if !full {
                idle.push(Worker {
                    thread: thread::current(),
                    mailbox: Arc::clone(&mailbox),
                });
            }
            full
        };
        drop(done);
        if retire {
            return;
        }
    }
}

/// A count-down latch: the run's single completion condvar.
pub(crate) struct Latch {
    left: Mutex<usize>,
    zero: Condvar,
}

impl Latch {
    pub(crate) fn new(count: usize) -> Self {
        Latch {
            left: Mutex::new(count),
            zero: Condvar::new(),
        }
    }

    fn count_down(&self) {
        let mut left = lock(&self.left);
        *left -= 1;
        if *left == 0 {
            self.zero.notify_all();
        }
    }

    /// Waits until the count reaches zero or `until` passes (never, for
    /// `None`); returns whether it reached zero.
    pub(crate) fn wait(&self, until: Option<Instant>) -> bool {
        let mut left = lock(&self.left);
        while *left > 0 {
            left = match until {
                None => self.zero.wait(left).unwrap_or_else(PoisonError::into_inner),
                Some(at) => {
                    let now = Instant::now();
                    if now >= at {
                        return false;
                    }
                    self.zero
                        .wait_timeout(left, at - now)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
        }
        true
    }
}

struct CountDown(Arc<Latch>);

impl Drop for CountDown {
    fn drop(&mut self) {
        self.0.count_down();
    }
}

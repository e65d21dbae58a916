//! The async store's intake: the shared background writer pool and the
//! bounded queue in front of it.

use crate::config::OverloadPolicy;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;

/// The shared background writer pool: one FIFO job queue, drained by
/// [`pool::workers`] threads that live as long as the process.
pub(super) mod pool {
    use super::{Condvar, Mutex, VecDeque};
    use std::sync::Once;

    pub type Job = Box<dyn FnOnce() + Send>;

    static QUEUE: Mutex<VecDeque<Job>> = Mutex::new(VecDeque::new());
    static READY: Condvar = Condvar::new();

    /// Size of the shared pool (also how many jobs a test must park to
    /// deterministically wedge every worker).
    pub fn workers() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get().clamp(2, 8))
            .unwrap_or(2)
    }

    fn next_job() -> Job {
        let mut queue = QUEUE.lock();
        loop {
            if let Some(job) = queue.pop_front() {
                return job;
            }
            READY.wait(&mut queue);
        }
    }

    pub fn submit(job: Job) {
        static SPAWN: Once = Once::new();
        SPAWN.call_once(|| {
            for i in 0..workers() {
                std::thread::Builder::new()
                    .name(format!("provio-store-{i}"))
                    .stack_size(512 * 1024)
                    .spawn(|| loop {
                        next_job()();
                    })
                    .expect("spawn provenance store pool worker");
            }
        });
        QUEUE.lock().push_back(job);
        READY.notify_one();
    }
}

/// One store's outstanding jobs and the counters of its bounded intake.
#[derive(Default)]
struct QueueCounts {
    /// Jobs not yet started, in submission order; `true` marks a push batch.
    jobs: VecDeque<(pool::Job, bool)>,
    /// A pool worker is draining `jobs`.
    running: bool,
    /// All outstanding background jobs (push batches + flushes).
    in_flight: u64,
    /// Outstanding push batches only — the quantity the capacity bounds.
    queued_pushes: u64,
    shed_batches: u64,
    shed_triples: u64,
}

/// Outstanding background jobs, with a real wait instead of a spin loop,
/// plus the bounded-queue admission control. Capacity governs *push
/// batches*; flush jobs (a handful, issued by the store itself) are always
/// admitted so backpressure can never wedge a drain.
pub(super) struct InFlight {
    counts: Mutex<QueueCounts>,
    zero: Condvar,
    below: Condvar,
}

impl InFlight {
    pub(super) fn new() -> Self {
        InFlight {
            counts: Mutex::new(QueueCounts::default()),
            zero: Condvar::new(),
            below: Condvar::new(),
        }
    }

    /// Queue `job` (a push batch, if `is_push`) behind this store's earlier
    /// jobs. The shared pool runs one store's jobs one at a time in
    /// submission order — so a flush covers exactly the pushes issued before
    /// it, and what the store commits does not depend on the pool's size or
    /// the host's scheduling — while different stores run side by side.
    pub(super) fn submit(self: &Arc<Self>, is_push: bool, job: pool::Job) {
        let mut c = self.counts.lock();
        c.in_flight += 1;
        c.jobs.push_back((job, is_push));
        let idle = !std::mem::replace(&mut c.running, true);
        drop(c);
        if idle {
            let this = Arc::clone(self);
            pool::submit(Box::new(move || this.run_jobs()));
        }
    }

    fn run_jobs(&self) {
        loop {
            let mut c = self.counts.lock();
            let Some((job, was_push)) = c.jobs.pop_front() else {
                c.running = false;
                return;
            };
            drop(c);
            job();
            self.done(was_push);
        }
    }

    /// Admit one push batch of `triples` triples under the store's queue
    /// bound. Returns `false` when the batch was shed instead.
    pub(super) fn admit_push(&self, capacity: u64, policy: OverloadPolicy, triples: u64) -> bool {
        let mut c = self.counts.lock();
        if capacity > 0 && c.queued_pushes >= capacity {
            match policy {
                OverloadPolicy::Block => {
                    while c.queued_pushes >= capacity {
                        self.below.wait(&mut c);
                    }
                }
                OverloadPolicy::Shed => {
                    c.shed_batches += 1;
                    c.shed_triples += triples;
                    return false;
                }
            }
        }
        c.queued_pushes += 1;
        true
    }

    fn done(&self, was_push: bool) {
        let mut c = self.counts.lock();
        if was_push {
            c.queued_pushes -= 1;
            self.below.notify_one();
        }
        c.in_flight -= 1;
        if c.in_flight == 0 {
            self.zero.notify_all();
        }
    }

    pub(super) fn wait_zero(&self) {
        let mut c = self.counts.lock();
        while c.in_flight != 0 {
            self.zero.wait(&mut c);
        }
    }

    /// Push batches waiting now, and the batches and triples shed so far.
    pub(super) fn counts(&self) -> (u64, u64, u64) {
        let c = self.counts.lock();
        (c.queued_pushes, c.shed_batches, c.shed_triples)
    }
}

//! A persistent worker pool for the experiment fan-out.
//!
//! `parallel_map` used to spawn and join a fresh set of scoped threads per
//! call — hundreds of times per figure sweep. The pool here keeps one set
//! of workers alive for the whole process; each batch posts a type-erased
//! job, the workers chunk-claim item indices off a shared counter, and the
//! calling thread participates as the first worker, so a one-item batch
//! touches no thread machinery at all. Workers own long-lived state (the
//! experiment runner parks a reusable `Simulator` in a thread-local),
//! which is what makes `Simulator::reset` pay off across a sweep.
//!
//! Batches are serialized: one job runs at a time, and a second caller
//! blocks until the first finishes. Nested calls — a task that itself
//! calls [`WorkerPool::run`], e.g. a sweep started from inside a
//! `parallel_map` batch — are detected via a thread-local in-job flag and
//! run inline on the calling thread instead of deadlocking on the job
//! guard.
//!
//! Besides the process-wide [`WorkerPool::global`] instance, callers that
//! need a bounded lifetime — the serving layer most of all, which must
//! join every thread on SIGTERM — can own a pool via [`WorkerPool::new`]
//! and retire it with [`WorkerPool::shutdown`] (or just drop it: `Drop`
//! shuts down too). Shutdown waits for any in-flight batch, wakes every
//! idle worker, and joins them all, so a retired pool provably leaks no
//! threads. A pool that has been shut down still accepts `run` calls; the
//! batch simply executes on the calling thread.
//!
//! ## Panic discipline
//!
//! A panicking task must leave the pool reusable: the next batch on the
//! same process-wide pool must neither deadlock nor run with fewer
//! workers than it enrolled. Three mechanisms guarantee that:
//!
//! - every task invocation is wrapped in `catch_unwind` (first payload
//!   wins, remaining items still run, matching the old scoped-thread
//!   fan-out where sibling workers kept draining);
//! - an enrolled worker checks out through a drop guard, so even an
//!   unwind that escapes `catch_unwind` (a panicking panic payload, a
//!   poisoned internal lock) still signals the caller — otherwise the
//!   caller would wait forever on `exited == enrolled`;
//! - the caller closes enrollment and drains enrolled workers through a
//!   drop guard too, so a caller-side unwind cannot return the stack
//!   frame that the job's lifetime-erased pointers alias while workers
//!   still hold them;
//! - all internal locks are poison-tolerant: a panic while one was held
//!   (which poisons it) must not cascade into killing every worker that
//!   next touches the mutex.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread;

/// How many items one `fetch_add` claims. Coarser chunks amortize the
/// shared counter; 8 chunks per worker keeps the tail balanced.
fn chunk_size(total: usize, workers: usize) -> usize {
    (total / (workers * 8).max(1)).max(1)
}

/// Lock a mutex, shrugging off poison: the pool's invariants are
/// re-established by counters and epochs, not by the data a panicking
/// thread may have half-written, so a poisoned lock is still usable.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

thread_local! {
    /// Whether this thread is currently executing a pool task. A nested
    /// [`WorkerPool::run`] from such a thread runs inline instead of
    /// trying to re-enter the (non-reentrant) job guard.
    static IN_POOL_JOB: Cell<bool> = const { Cell::new(false) };
}

/// A panic payload captured from a worker (first one wins).
type PanicSlot = Mutex<Option<Box<dyn Any + Send>>>;

/// The state of the currently posted job. All references are
/// lifetime-erased pointers into the posting caller's stack frame; they
/// are dereferenced only by enrolled workers, and the caller does not
/// return until every enrolled worker has checked out (under the pool
/// mutex), so the erasure is sound.
#[derive(Clone, Copy)]
struct ActiveJob {
    task: &'static (dyn Fn(usize) + Sync),
    next: &'static AtomicUsize,
    panic: &'static PanicSlot,
    total: usize,
    chunk: usize,
}

struct JobSlot {
    /// Bumped once per posted job so a worker never enrolls twice in the
    /// same batch.
    epoch: u64,
    /// The live job, `None` while idle or once enrollment has closed.
    job: Option<ActiveJob>,
    /// Workers enrolled in the live job.
    enrolled: usize,
    /// How many more workers may enroll (clamped to outstanding chunks).
    open_seats: usize,
    /// Enrolled workers that have finished claiming.
    exited: usize,
    /// Set by [`WorkerPool::shutdown`]: idle workers return instead of
    /// waiting for another job, and no new workers are spawned.
    stop: bool,
}

struct Inner {
    state: Mutex<JobSlot>,
    /// Signals workers that a job was posted (or that shutdown began).
    ready: Condvar,
    /// Signals the caller that a worker checked out.
    done: Condvar,
}

/// A persistent pool: worker threads are spawned lazily up to the largest
/// `threads` any batch has asked for, and live until [`WorkerPool::shutdown`]
/// (or drop) joins them. The process-wide instance from
/// [`WorkerPool::global`] is never dropped and lives for the whole process.
pub struct WorkerPool {
    inner: Arc<Inner>,
    /// Serializes batches (one job at a time).
    job_guard: Mutex<()>,
    /// Join handles of the worker threads spawned so far; drained (and
    /// joined) by `shutdown`.
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
    /// Unique thread-name prefix for this pool's workers. Short enough to
    /// survive the kernel's 15-byte `comm` truncation, so tests (and
    /// operators) can attribute a thread to its pool from `/proc`.
    name_prefix: String,
}

/// Closes enrollment and drains enrolled workers when dropped — the
/// caller-side half of the panic discipline. Runs on the normal exit
/// path too (drop order at the end of [`WorkerPool::run`]).
struct JobCloseGuard<'a> {
    inner: &'a Inner,
}

impl Drop for JobCloseGuard<'_> {
    fn drop(&mut self) {
        let mut s = lock_unpoisoned(&self.inner.state);
        s.job = None;
        s.open_seats = 0;
        while s.exited < s.enrolled {
            s = self.inner.done.wait(s).unwrap_or_else(|p| p.into_inner());
        }
    }
}

/// Checks a worker out of its enrolled job when dropped, even if the
/// claim loop unwound — the worker-side half of the panic discipline.
struct CheckoutGuard<'a> {
    inner: &'a Inner,
}

impl Drop for CheckoutGuard<'_> {
    fn drop(&mut self) {
        let mut s = lock_unpoisoned(&self.inner.state);
        s.exited += 1;
        drop(s);
        self.inner.done.notify_all();
    }
}

impl Default for WorkerPool {
    fn default() -> Self {
        WorkerPool::new()
    }
}

impl WorkerPool {
    /// The process-wide pool. It is never shut down: its workers live for
    /// the rest of the process.
    pub fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(WorkerPool::new)
    }

    /// A pool with its own worker set and lifetime. Workers spawn lazily
    /// on the first batch that needs them; [`WorkerPool::shutdown`] (or
    /// dropping the pool) joins every one of them.
    pub fn new() -> WorkerPool {
        static POOL_IDS: AtomicUsize = AtomicUsize::new(0);
        let id = POOL_IDS.fetch_add(1, Ordering::Relaxed);
        WorkerPool {
            inner: Arc::new(Inner {
                state: Mutex::new(JobSlot {
                    epoch: 0,
                    job: None,
                    enrolled: 0,
                    open_seats: 0,
                    exited: 0,
                    stop: false,
                }),
                ready: Condvar::new(),
                done: Condvar::new(),
            }),
            job_guard: Mutex::new(()),
            workers: Mutex::new(Vec::new()),
            name_prefix: format!("wsim{id}-"),
        }
    }

    /// The name prefix of this pool's worker threads (e.g. `wsim0-`);
    /// worker `n` is named `wsim0-w{n}`. Stable for the pool's lifetime,
    /// unique per pool, and short enough to survive `/proc` comm
    /// truncation — the thread-leak regression test keys off it.
    pub fn thread_name_prefix(&self) -> &str {
        &self.name_prefix
    }

    /// Worker threads currently alive (spawned and not yet joined).
    pub fn worker_count(&self) -> usize {
        lock_unpoisoned(&self.workers).len()
    }

    /// Retire the pool: wait for any in-flight batch, tell every idle
    /// worker to exit, and join them all. Returns how many workers were
    /// joined. Idempotent — a second call joins nothing and returns 0.
    /// `run` remains usable afterwards; batches simply execute on the
    /// calling thread.
    pub fn shutdown(&self) -> usize {
        // Serialize against a running batch: once the guard is held, no
        // job is live and every worker is back in (or headed to) the wait
        // loop, where it will observe `stop`.
        let _serial = lock_unpoisoned(&self.job_guard);
        {
            let mut s = lock_unpoisoned(&self.inner.state);
            s.stop = true;
        }
        self.inner.ready.notify_all();
        let handles = std::mem::take(&mut *lock_unpoisoned(&self.workers));
        let joined = handles.len();
        for h in handles {
            let _ = h.join();
        }
        joined
    }

    /// Run `task(i)` for every `i in 0..total` across at most `threads`
    /// participants (the calling thread included) and block until all
    /// items are done. Pool participation is clamped to the number of
    /// outstanding chunks, so small batches enroll few (or zero) workers
    /// instead of waking the whole pool. On a panic inside `task` the
    /// first payload is returned along with how many items had been
    /// claimed; remaining items still run (matching the old scoped-thread
    /// fan-out, where sibling workers kept draining).
    ///
    /// Calling `run` from inside a pool task (nesting) runs the batch
    /// inline on the calling thread — sequential, but correct, where it
    /// used to deadlock on the job guard.
    pub fn run(
        &self,
        threads: usize,
        total: usize,
        task: &(dyn Fn(usize) + Sync),
    ) -> Result<(), (usize, Box<dyn Any + Send>)> {
        if total == 0 {
            return Ok(());
        }
        if IN_POOL_JOB.with(|f| f.get()) {
            return run_inline(total, task);
        }
        let _serial = lock_unpoisoned(&self.job_guard);
        let workers = threads.clamp(1, total);
        let chunk = chunk_size(total, workers);
        let chunks = total.div_ceil(chunk);
        // The caller claims chunks too, so it fills the first seat. A pool
        // that has been shut down enrolls no helpers: the batch runs
        // entirely on the caller.
        let stopped = lock_unpoisoned(&self.inner.state).stop;
        let helpers = if stopped {
            0
        } else {
            (workers - 1).min(chunks - 1)
        };
        self.ensure_workers(helpers);

        let next = AtomicUsize::new(0);
        let panic: PanicSlot = Mutex::new(None);
        // Erase the borrows' lifetimes to park them in the shared slot;
        // see `ActiveJob` for the validity argument.
        let job = ActiveJob {
            task: unsafe {
                std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(
                    task,
                )
            },
            next: unsafe { std::mem::transmute::<&AtomicUsize, &'static AtomicUsize>(&next) },
            panic: unsafe { std::mem::transmute::<&PanicSlot, &'static PanicSlot>(&panic) },
            total,
            chunk,
        };
        {
            // The close guard is armed before the job is visible to any
            // worker, so every exit from this scope — return or unwind —
            // closes enrollment and drains enrolled workers before the
            // erased stack frame can be given up.
            let _close = (helpers > 0).then_some(JobCloseGuard { inner: &self.inner });
            if helpers > 0 {
                let mut s = lock_unpoisoned(&self.inner.state);
                s.epoch += 1;
                s.job = Some(job);
                s.enrolled = 0;
                s.open_seats = helpers;
                s.exited = 0;
                drop(s);
                self.inner.ready.notify_all();
            }

            IN_POOL_JOB.with(|f| f.set(true));
            let caller = CallerFlagGuard;
            claim_chunks(&job);
            drop(caller);
        }

        let captured = lock_unpoisoned(&panic).take();
        match captured {
            None => Ok(()),
            Some(payload) => Err((next.load(Ordering::Relaxed).min(total), payload)),
        }
    }

    /// Spawn workers until at least `want` exist.
    fn ensure_workers(&self, want: usize) {
        let mut workers = lock_unpoisoned(&self.workers);
        while workers.len() < want {
            let inner = Arc::clone(&self.inner);
            let name = format!("{}w{}", self.name_prefix, workers.len());
            let handle = thread::Builder::new()
                .name(name)
                .spawn(move || worker_loop(&inner))
                .expect("spawn pool worker");
            workers.push(handle);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Clears the caller's in-job flag on drop (unwind included).
struct CallerFlagGuard;

impl Drop for CallerFlagGuard {
    fn drop(&mut self) {
        IN_POOL_JOB.with(|f| f.set(false));
    }
}

/// The nested-call fallback: run every item on the calling thread with
/// the same per-item panic capture as the pooled path.
fn run_inline(
    total: usize,
    task: &(dyn Fn(usize) + Sync),
) -> Result<(), (usize, Box<dyn Any + Send>)> {
    let mut first_panic = None;
    for i in 0..total {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(i))) {
            first_panic.get_or_insert(payload);
        }
    }
    match first_panic {
        None => Ok(()),
        Some(payload) => Err((total, payload)),
    }
}

/// Claim and run chunks until the shared counter runs dry. Panics are
/// caught per item; the first payload is kept for the caller to re-raise.
fn claim_chunks(job: &ActiveJob) {
    loop {
        let start = job.next.fetch_add(job.chunk, Ordering::Relaxed);
        if start >= job.total {
            break;
        }
        let end = (start + job.chunk).min(job.total);
        for i in start..end {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (job.task)(i))) {
                let mut slot = lock_unpoisoned(job.panic);
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
        }
    }
}

fn worker_loop(inner: &Inner) {
    let mut last_epoch = 0u64;
    loop {
        let job = {
            let mut s = lock_unpoisoned(&inner.state);
            loop {
                if s.stop {
                    return;
                }
                if s.epoch != last_epoch && s.open_seats > 0 {
                    if let Some(job) = s.job {
                        last_epoch = s.epoch;
                        s.enrolled += 1;
                        s.open_seats -= 1;
                        break job;
                    }
                }
                s = inner.ready.wait(s).unwrap_or_else(|p| p.into_inner());
            }
        };
        // The checkout guard (not a trailing statement) signals the
        // caller even if the claim loop unwinds; the flag guard keeps
        // nested `run` calls from a task inline.
        let _checkout = CheckoutGuard { inner };
        IN_POOL_JOB.with(|f| f.set(true));
        let _flag = CallerFlagGuard;
        claim_chunks(&job);
    }
}

/// A raw pointer the fan-out may share across threads: each task writes a
/// distinct index, and the pool's completion handshake orders all writes
/// before the caller reads.
pub(crate) struct SyncPtr<T>(pub *mut T);

impl<T> SyncPtr<T> {
    /// The element pointer at `i`. Going through a method (rather than
    /// the field) makes closures capture the `Sync` wrapper, not the raw
    /// pointer inside it.
    pub fn at(&self, i: usize) -> *mut T {
        unsafe { self.0.add(i) }
    }
}

unsafe impl<T: Send> Send for SyncPtr<T> {}
unsafe impl<T: Send> Sync for SyncPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn pool_runs_every_item_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        WorkerPool::global()
            .run(8, hits.len(), &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            })
            .expect("no panics");
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "item {i}");
        }
    }

    #[test]
    fn pool_zero_items_is_a_noop() {
        WorkerPool::global()
            .run(8, 0, &|_| unreachable!("no items to claim"))
            .expect("empty batch");
    }

    #[test]
    fn pool_single_item_runs_on_the_caller() {
        let caller = thread::current().id();
        let ran = AtomicUsize::new(0);
        WorkerPool::global()
            .run(16, 1, &|i| {
                assert_eq!(i, 0);
                // One chunk, one seat: the posting thread takes it.
                assert_eq!(thread::current().id(), caller);
                ran.fetch_add(1, Ordering::Relaxed);
            })
            .expect("no panics");
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn pool_reports_panics_with_claim_count() {
        let err = WorkerPool::global()
            .run(4, 10, &|i| {
                if i == 3 {
                    panic!("boom at {i}");
                }
            })
            .expect_err("task panicked");
        let (claimed, payload) = err;
        assert!((1..=10).contains(&claimed), "claimed {claimed}");
        let msg = payload.downcast_ref::<String>().expect("panic message");
        assert!(msg.contains("boom"), "{msg}");
    }

    #[test]
    fn pool_chunks_cover_uneven_totals() {
        for total in [1usize, 2, 3, 7, 17, 63, 64, 65] {
            let sum = AtomicUsize::new(0);
            WorkerPool::global()
                .run(5, total, &|i| {
                    sum.fetch_add(i + 1, Ordering::Relaxed);
                })
                .expect("no panics");
            assert_eq!(sum.load(Ordering::Relaxed), total * (total + 1) / 2);
        }
    }

    #[test]
    fn pool_survives_a_panicked_batch() {
        // Regression (enrollment audit): a batch that panics on every
        // item must leave the pool fully functional — the next batch on
        // the same global pool runs every item, across several rounds of
        // alternating panicking and clean batches.
        let pool = WorkerPool::global();
        for round in 0..3 {
            let err = pool
                .run(8, 32, &|i| panic!("round {round} item {i}"))
                .expect_err("every item panics");
            assert_eq!(err.0, 32, "all items still claimed");
            let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
            pool.run(8, hits.len(), &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            })
            .expect("clean batch after a panicked one");
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "round {round} item {i}");
            }
        }
    }

    #[test]
    fn nested_run_executes_inline_instead_of_deadlocking() {
        // A task that posts its own batch (a sweep inside `parallel_map`)
        // must run that inner batch inline rather than deadlock on the
        // job guard.
        let outer_hits: Vec<AtomicUsize> = (0..8).map(|_| AtomicUsize::new(0)).collect();
        let inner_hits: Vec<AtomicUsize> = (0..8 * 16).map(|_| AtomicUsize::new(0)).collect();
        WorkerPool::global()
            .run(4, outer_hits.len(), &|i| {
                outer_hits[i].fetch_add(1, Ordering::Relaxed);
                WorkerPool::global()
                    .run(4, 16, &|j| {
                        inner_hits[i * 16 + j].fetch_add(1, Ordering::Relaxed);
                    })
                    .expect("inner batch");
            })
            .expect("outer batch");
        for h in outer_hits.iter().chain(&inner_hits) {
            assert_eq!(h.load(Ordering::Relaxed), 1);
        }
    }

    /// Threads of `pool`, counted by name prefix from `/proc` (Linux; on
    /// other platforms returns `None` and the callers skip the check).
    /// The prefix is unique per pool, so concurrent tests spawning their
    /// own (or the global pool's) threads cannot perturb the count.
    fn named_thread_count(prefix: &str) -> Option<usize> {
        let tasks = std::fs::read_dir("/proc/self/task").ok()?;
        let mut n = 0;
        for t in tasks.flatten() {
            let comm = std::fs::read_to_string(t.path().join("comm")).unwrap_or_default();
            if comm.trim_end().starts_with(prefix) {
                n += 1;
            }
        }
        Some(n)
    }

    #[test]
    fn shutdown_joins_every_worker_and_is_idempotent() {
        let pool = WorkerPool::new();
        let hits: Vec<AtomicUsize> = (0..256).map(|_| AtomicUsize::new(0)).collect();
        pool.run(4, hits.len(), &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        })
        .expect("no panics");
        let alive = pool.worker_count();
        assert!(alive >= 1, "a 256-item batch on 4 threads spawns helpers");
        assert_eq!(pool.shutdown(), alive, "shutdown joins every worker");
        assert_eq!(pool.shutdown(), 0, "second shutdown has nothing to join");
        assert_eq!(pool.worker_count(), 0);
    }

    #[test]
    fn run_after_shutdown_executes_inline() {
        let pool = WorkerPool::new();
        pool.run(4, 64, &|_| {}).expect("warm batch");
        pool.shutdown();
        let hits: Vec<AtomicUsize> = (0..32).map(|_| AtomicUsize::new(0)).collect();
        pool.run(8, hits.len(), &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        })
        .expect("post-shutdown batch");
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "item {i}");
        }
        assert_eq!(pool.worker_count(), 0, "no workers respawn after shutdown");
    }

    #[test]
    fn dropped_pool_leaks_no_threads() {
        // Regression for the serving layer's SIGTERM path: dropping a
        // pool must join its detached workers, not leak them. The check
        // is by thread name (unique prefix per pool) so other tests'
        // threads — the global pool's included — cannot interfere.
        let prefix;
        {
            let pool = WorkerPool::new();
            prefix = pool.thread_name_prefix().to_string();
            // Two items that rendezvous: the batch cannot finish until a
            // spawned worker is running a task, and a thread names itself
            // before it runs anything, so the `/proc` read below cannot
            // come before the name is set.
            let both_running = std::sync::Barrier::new(2);
            pool.run(2, 2, &|_| {
                both_running.wait();
            })
            .expect("no panics");
            assert!(pool.worker_count() >= 1);
            if let Some(n) = named_thread_count(&prefix) {
                assert!(n >= 1, "workers visible in /proc while the pool lives");
            }
        }
        // Drop joined the workers, so they are gone *now*, not eventually.
        if let Some(n) = named_thread_count(&prefix) {
            assert_eq!(n, 0, "dropped pool left {n} live worker threads");
        }
    }

    #[test]
    fn nested_run_still_reports_inner_panics() {
        WorkerPool::global()
            .run(2, 2, &|_| {
                WorkerPool::global()
                    .run(2, 4, &|j| {
                        if j == 1 {
                            panic!("inner boom");
                        }
                    })
                    .expect_err("inner panicked");
            })
            .expect("outer itself does not panic");
    }
}

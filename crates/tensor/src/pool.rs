//! A small std-only scoped thread pool with a deterministic fan-out
//! contract.
//!
//! Every parallel construct in the workspace goes through this module:
//! the minibatch examples of `nlidb_core::train`, the served tables of
//! `nlidb_core::serve`, the corpus shards of `nlidb_data`. The pool fans
//! out across such independent items; each item's arithmetic, tensor ops
//! included, runs on one thread. All of them obey one rule: **the result
//! of a parallel run is bitwise identical to the serial run**. That holds
//! because work is only ever split into tasks that write disjoint output
//! regions and each task is computed by exactly the same scalar code the
//! serial path runs — threads change *who* computes a region, never
//! *what* is computed or in which order floats are accumulated within
//! it. Reductions that combine task outputs (e.g. minibatch gradient
//! merging in `nlidb-core`) iterate task results in index order on the
//! calling thread, so their floating-point addition order is also
//! thread-count independent.
//!
//! ## Worker model
//!
//! Workers are spawned once (lazily, detached) and block on a condvar
//! waiting for jobs. [`parallel_for`] enqueues one job — a lifetime-erased
//! `&(dyn Fn(usize) + Sync)` plus an atomic task cursor — and the calling
//! thread participates in draining it, so a pool size of 1 is *exactly*
//! the serial path (no job is ever enqueued). Nested [`parallel_for`]
//! calls from inside a worker run serially on that worker; this keeps a
//! fan-out issued from inside a task from deadlocking the fixed-size pool
//! and keeps each task's arithmetic single-threaded and reproducible.
//!
//! A task that panics counts as finished: every task runs under
//! `catch_unwind`, the worker that ran it lives on, and [`parallel_for`]
//! re-raises the first panic on the caller once every task of the job
//! has finished, so no worker is still reading the caller's closure when
//! the caller unwinds. Locks are taken poison-tolerant, and a worker
//! that cannot be spawned is simply missing: the caller drains every job
//! it enqueues itself.
//!
//! ## The `NLIDB_THREADS` knob
//!
//! The pool size defaults to `NLIDB_THREADS` when set (minimum 1), else
//! [`std::thread::available_parallelism`]. `NLIDB_THREADS=1` disables the
//! pool entirely. [`set_threads`] overrides the size at runtime (tests
//! and benches use it to compare serial vs parallel in one process).

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

use nlidb_trace as trace;

/// Pool size sentinel meaning "not yet resolved from the environment".
const UNSET: usize = 0;

/// Current pool size (resolved lazily; see [`num_threads`]).
static THREADS: AtomicUsize = AtomicUsize::new(UNSET);

std::thread_local! {
    /// True on pool worker threads; nested fan-outs run serially there.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// The pool size the environment asks for: `NLIDB_THREADS` when set and
/// `>= 1`, otherwise [`std::thread::available_parallelism`].
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("NLIDB_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Number of threads parallel constructs may use (including the caller).
pub fn num_threads() -> usize {
    let n = THREADS.load(Ordering::Relaxed);
    if n != UNSET {
        return n;
    }
    let resolved = default_threads();
    // Racing initializers compute the same value; last store wins harmlessly.
    THREADS.store(resolved, Ordering::Relaxed);
    resolved
}

/// Overrides the pool size at runtime (clamped to `>= 1`).
///
/// `set_threads(1)` routes every parallel construct through the exact
/// serial code path; `set_threads(default_threads())` restores the
/// environment default.
pub fn set_threads(n: usize) {
    THREADS.store(n.max(1), Ordering::Relaxed);
}

/// Locks `m`, taking the data of a lock a panicking thread left poisoned:
/// every value guarded here stays consistent across a panic.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One fan-out: a lifetime-erased task function plus progress counters.
struct Job {
    /// Points at the caller's closure. Valid until `done` flips because
    /// the caller blocks in [`parallel_for`] until every task finished,
    /// panicking ones included.
    task: *const (dyn Fn(usize) + Sync),
    total: usize,
    /// Next unclaimed task index.
    next: AtomicUsize,
    /// Tasks claimed but not yet finished + tasks unclaimed.
    unfinished: AtomicUsize,
    done: Mutex<bool>,
    done_cv: Condvar,
    /// The first panic a task raised, re-raised on the caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// SAFETY: `Job` is only non-auto-`Send` because of the raw `task`
// pointer. It points at a `Sync` closure that outlives the job (the
// caller blocks until `unfinished` reaches zero before returning), so
// moving the pointer to another thread cannot leave it dangling.
unsafe impl Send for Job {}
// SAFETY: shared access is sound for the same reason: the pointee is
// `Sync` (so `&closure` may be used from any thread) and stays alive
// until every task finished; all other fields are atomics/locks.
unsafe impl Sync for Job {}

impl Job {
    /// Claims and runs tasks until the cursor is exhausted.
    ///
    /// Ordering argument (the task cursor): `next.fetch_add(Relaxed)` is
    /// sound because the RMW alone makes every claim unique — no two
    /// threads can observe the same index — and claiming publishes
    /// nothing: the closure and its captures were made visible to every
    /// worker by the channel send that delivered the job (a
    /// release/acquire pair), before any claim. The cursor orders *who
    /// runs which task*, never *what memory they see*. Completion is
    /// different: `unfinished.fetch_sub(AcqRel)` makes each task's
    /// writes visible to the thread that observes zero and wakes the
    /// caller, so the caller reads every task's output after its own
    /// acquire.
    fn drain(&self) {
        let mut claimed = 0u64;
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.total {
                break;
            }
            claimed += 1;
            // SAFETY: see the struct-level invariant on `task`.
            let task = unsafe { &*self.task };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(i))) {
                lock(&self.panic).get_or_insert(payload);
            }
            if self.unfinished.fetch_sub(1, Ordering::AcqRel) == 1 {
                *lock(&self.done) = true;
                self.done_cv.notify_all();
            }
        }
        // Flushed once per drain (not per task) so tracing stays cheap.
        if claimed > 0 && trace::enabled() {
            let name = if IN_WORKER.with(|w| w.get()) {
                "pool.tasks_claimed_by_workers"
            } else {
                "pool.tasks_claimed_by_caller"
            };
            trace::count(name, claimed);
        }
    }

    /// Blocks until every task has finished.
    fn wait(&self) {
        let mut done = lock(&self.done);
        while !*done {
            done = self.done_cv.wait(done).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

struct Pool {
    queue: Mutex<VecDeque<Arc<Job>>>,
    ready: Condvar,
    spawned: AtomicUsize,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        queue: Mutex::new(VecDeque::new()),
        ready: Condvar::new(),
        spawned: AtomicUsize::new(0),
    })
}

/// Tries to ensure at least `target` detached workers exist, stopping at
/// the first spawn that fails (the caller drains its jobs regardless).
fn ensure_workers(target: usize) {
    let p = pool();
    if p.spawned.load(Ordering::Relaxed) >= target {
        return;
    }
    // The queue lock doubles as the spawn lock.
    let _guard = lock(&p.queue);
    while p.spawned.load(Ordering::Relaxed) < target {
        let id = p.spawned.load(Ordering::Relaxed);
        let spawned =
            std::thread::Builder::new().name(format!("nlidb-pool-{id}")).spawn(worker_loop);
        if spawned.is_err() {
            return;
        }
        p.spawned.store(id + 1, Ordering::Relaxed);
    }
}

fn worker_loop() {
    IN_WORKER.with(|w| w.set(true));
    let p = pool();
    loop {
        let job = {
            let mut q = lock(&p.queue);
            loop {
                // Drop fully-claimed jobs; their claimants finish them.
                while q
                    .front()
                    .is_some_and(|j| j.next.load(Ordering::Relaxed) >= j.total)
                {
                    q.pop_front();
                }
                match q.front() {
                    Some(j) => break Arc::clone(j),
                    None => q = p.ready.wait(q).unwrap_or_else(PoisonError::into_inner),
                }
            }
        };
        job.drain();
    }
}

/// Runs `f(0), f(1), ..., f(tasks - 1)` exactly once each, fanning out
/// across the pool. Blocks until every invocation has returned; if any
/// panicked, re-raises the first panic then.
///
/// Tasks must be independent: which thread runs which index, and in what
/// order, is unspecified. With a pool size of 1 (or when called from
/// inside a pool worker) every task runs serially on the current thread
/// in index order.
pub fn parallel_for<F: Fn(usize) + Sync>(tasks: usize, f: F) {
    if tasks == 0 {
        return;
    }
    let threads = num_threads();
    if tasks == 1 || threads <= 1 || IN_WORKER.with(|w| w.get()) {
        trace::count("pool.serial_tasks", tasks as u64);
        for i in 0..tasks {
            f(i);
        }
        return;
    }
    trace::count("pool.jobs", 1);
    trace::count("pool.tasks", tasks as u64);
    ensure_workers(threads - 1);
    let task_ref: &(dyn Fn(usize) + Sync) = &f;
    // SAFETY: the transmute erases the borrow's lifetime, turning
    // `&'a (dyn Fn(usize) + Sync)` into the `'static`-bounded raw pointer
    // the `Job` field wants (layout-identical: wide pointer to the same
    // trait object). The erasure is sound because the job never outlives
    // this call — `job.wait()` below blocks until every task finished,
    // after which no thread dereferences `task` again.
    let task: *const (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task_ref) };
    let job = Arc::new(Job {
        task,
        total: tasks,
        next: AtomicUsize::new(0),
        unfinished: AtomicUsize::new(tasks),
        done: Mutex::new(false),
        done_cv: Condvar::new(),
        panic: Mutex::new(None),
    });
    {
        let p = pool();
        lock(&p.queue).push_back(Arc::clone(&job));
        p.ready.notify_all();
    }
    job.drain();
    job.wait();
    let panic = lock(&job.panic).take();
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
}

/// Raw-pointer wrapper that lets disjoint sub-slices be written from
/// multiple workers. Kept private: all aliasing reasoning lives here.
struct SendPtr<T>(*mut T);
// SAFETY: `SendPtr` wraps the base pointer of a `&mut [T]` whose owner
// is blocked inside `parallel_for_chunks` for the wrapper's whole
// lifetime, so sending it to a worker cannot outlive the slice; `T: Send`
// keeps the element type itself movable across threads.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: sharing `&SendPtr` only exposes `get()`, and every user derives
// pairwise-disjoint `[start, end)` sub-slices from it (see
// `parallel_for_chunks`), so no two threads ever alias the same element.
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor (instead of field access) so closures capture the whole
    /// `SendPtr` — precise closure capture of the bare `*mut T` field
    /// would sidestep the `Sync` wrapper.
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Splits `data` into consecutive chunks of `chunk` elements (the last
/// may be shorter) and runs `f(start_offset, chunk_slice)` for each,
/// fanning chunks out across the pool.
///
/// The chunks partition `data`, so writes are disjoint; determinism
/// follows from each chunk being computed by the same code regardless of
/// which thread claims it.
pub fn parallel_for_chunks<T, F>(data: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk >= 1, "chunk size must be >= 1");
    let len = data.len();
    if len == 0 {
        return;
    }
    let n_chunks = len.div_ceil(chunk);
    let base = SendPtr(data.as_mut_ptr());
    parallel_for(n_chunks, |c| {
        let start = c * chunk;
        let end = (start + chunk).min(len);
        // SAFETY: [start, end) ranges are pairwise disjoint across chunk
        // indices and within `data`; `parallel_for` does not return until
        // all chunks are done, so no slice outlives the borrow of `data`.
        let part = unsafe {
            std::slice::from_raw_parts_mut(base.get().add(start), end - start)
        };
        f(start, part);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Serializes tests that change the global pool size.
    fn threads_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn parallel_for_runs_every_index_once() {
        let _guard = threads_lock();
        set_threads(4);
        let hits: Vec<AtomicU64> = (0..257).map(|_| AtomicU64::new(0)).collect();
        parallel_for(hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        set_threads(default_threads());
    }

    #[test]
    fn single_thread_runs_inline_in_order() {
        let _guard = threads_lock();
        set_threads(1);
        let seen = Mutex::new(Vec::new());
        parallel_for(100, |i| {
            seen.lock().unwrap().push(i);
        });
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
        set_threads(default_threads());
    }

    #[test]
    fn nested_parallel_for_completes() {
        let _guard = threads_lock();
        set_threads(3);
        let total = AtomicU64::new(0);
        parallel_for(8, |_| {
            parallel_for(8, |j| {
                total.fetch_add(j as u64, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 8 * 28);
        set_threads(default_threads());
    }

    #[test]
    fn chunked_writes_cover_the_slice() {
        let _guard = threads_lock();
        set_threads(4);
        let mut data = vec![0usize; 1003];
        parallel_for_chunks(&mut data, 64, |start, part| {
            for (j, x) in part.iter_mut().enumerate() {
                *x = start + j;
            }
        });
        assert!(data.iter().enumerate().all(|(i, &x)| x == i));
        set_threads(default_threads());
    }

    #[test]
    fn set_threads_clamps_to_one() {
        let _guard = threads_lock();
        set_threads(0);
        assert_eq!(num_threads(), 1);
        set_threads(default_threads());
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_and_the_pool_survives() {
        use std::time::Duration;

        let _guard = threads_lock();
        set_threads(2);
        // Runs two tasks. A task on the calling thread holds it until a
        // worker has run a task (or ten seconds pass), so a worker claims
        // one. Returns the names of the threads that ran a task.
        fn fan_out(panic_on_worker: bool) -> std::thread::Result<Vec<String>> {
            let worker_ran = (Mutex::new(false), Condvar::new());
            let names = Mutex::new(Vec::new());
            catch_unwind(AssertUnwindSafe(|| {
                parallel_for(2, |_| {
                    let name = std::thread::current().name().unwrap_or_default().to_string();
                    lock(&names).push(name);
                    if IN_WORKER.with(|w| w.get()) {
                        *lock(&worker_ran.0) = true;
                        worker_ran.1.notify_all();
                        assert!(!panic_on_worker, "worker task failed");
                    } else {
                        let ran = lock(&worker_ran.0);
                        let wait = Duration::from_secs(10);
                        let _ = worker_ran.1.wait_timeout_while(ran, wait, |ran| !*ran);
                    }
                });
            }))
            .map(|()| names.into_inner().unwrap_or_else(PoisonError::into_inner))
        }
        // A watchdog turns a hang into a failure instead of a stuck suite;
        // a hung fan-out leaves its thread detached.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let panicked = fan_out(true)
                .err()
                .map(|p| p.downcast_ref::<&str>().map(|s| s.to_string()).unwrap_or_default());
            let names = fan_out(false).unwrap_or_default();
            let _ = tx.send((panicked, names));
        });
        let (panicked, names) =
            rx.recv_timeout(Duration::from_secs(60)).expect("parallel_for hung on a worker panic");
        assert_eq!(panicked.as_deref(), Some("worker task failed"));
        assert!(
            names.iter().any(|n| n.starts_with("nlidb-pool-")),
            "no pool worker ran a task after the panic: {names:?}"
        );
        set_threads(default_threads());
    }

    #[test]
    fn zero_tasks_is_a_noop() {
        parallel_for(0, |_| panic!("must not run"));
        parallel_for_chunks::<u8, _>(&mut [], 4, |_, _| panic!("must not run"));
    }
}
